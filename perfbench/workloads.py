"""Seeded inputs, op lists and the correctness gate of the three workloads.

An op is one ``torodef.cli.main(argv)`` call.  ``build`` writes every input
file an op reads into a work directory and returns the ops in the order a
pass runs them.  ``Op.check`` judges an op from its exit code and the files
it wrote, using graphs the benchmark generated itself rather than anything
the op read back.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from torodef import (CirculantSpec, DefectVector, GridSpec, enumerate_oracle, gen_circulant,
                     gen_grid, gen_named, verify_coloring)
from torodef.fileio import write_graph, write_rotation
from torodef.generators import SMALL_EXCEPTION_GRIDS, SPORADIC_PAIRS

SAT, UNSAT = "SAT", "UNSAT"
EXIT_OF = {SAT: 0, UNSAT: 1}
EXIT_GAVE_UP = 3  # the CLI's "search gave up" code: a failed op, not a wrong answer

# Deadline of one op, per workload.  sixreg-classify's is short so that the
# specs known to hang cost little; every other op finished within 0.4 s when
# the benchmark was defined, so the failure count does not flicker on noise.
DEADLINE_S = {"torus-cut": 10.0, "exact-decide": 10.0, "sixreg-classify": 1.0}

# Samples are stratified over pools sorted by graph size, so every seed gets
# the same size profile and runs on different seeds cost about the same.

# torus-cut -----------------------------------------------------------------

PIPELINES = {"600001": "0,0,0,0,0,1*", "00002": "0,0,0,0,2", "0004": "0,0,0,4"}
TORUS_SAMPLE = 100
# Embeddings of the acceptance-4 corpus whose three colour ops took over
# 0.12 s together when the benchmark was defined; they hold a third of the
# corpus time in a few planar 4-colouring searches.  Sampling them would make
# a run's cost hinge on the seed, so every pass instead carries one member of
# the grid:4x11,k family (about 0.85 s for each k) with a seeded k.
TORUS_TAIL = frozenset(
    ["grid:20x2,11", "grid:20x2,13", "grid:22x2,12", "grid:22x2,14", "grid:23x2,13",
     "grid:24x2,13", "grid:24x2,15", "grid:44x1,12", "grid:44x1,13", "grid:44x1,34",
     "grid:44x1,35", "grid:47x1,13", "grid:47x1,37", "grid:48x1,13", "grid:48x1,14",
     "grid:48x1,37", "grid:48x1,38", "grid:49x1,38", "grid:23x2,14", "grid:40x1,11",
     "grid:40x1,12", "grid:40x1,31", "grid:40x1,32", "grid:43x1,12", "grid:43x1,34",
     "grid:49x1,14", "grid:49x1,20", "grid:49x1,32", "grid:9x5,7"]
    + [f"grid:4x{n},{k}" for n in (10, 11, 12) for k in range(1, 5)])

# exact-decide --------------------------------------------------------------

# The instances are a fixed list of facts, G_n[1,2,3] for every n below 60
# with 4 not dividing n among them; the seed picks the cycle length and the
# order.  Sampling the G_n[1,2,3] values moved the 90th percentile latency by
# a quarter from seed to seed.
CIRC123_NS = [n for n in range(7, 60) if n % 4]
# Exhaustive search at the commit that defined the benchmark: (0,0,0,1*) is
# UNSAT on these sporadic pairs and SAT on the other twelve.
SPORADIC_0001STAR_UNSAT = frozenset([(3, 18), (7, 19), (7, 26), (10, 26)])
CYCLE_MIN = 1500  # deep enough that a recursive search overflows the stack
ORACLE_BOUND = 10 ** 5  # k**n assignments the oracle cross-check may enumerate

# sixreg-classify -----------------------------------------------------------

# Every multi-column grid with at most 20 vertices runs in each pass: their
# costs range over two orders of magnitude with the shift, so a sample of
# them would move the latency percentiles with the seed.
SIXREG_GRID_VERTICES = 20
SIXREG_SAMPLE = {"columns": 30, "circulants": 30}
SIXREG_MAX_N = 39
# Known to run far past the deadline: grid:5x5,1 spends ~13 s in isomorphism
# tests, grid:7x7,1 does not finish, circ:58:5,11,16 takes ~16 s in search.
SIXREG_SLOW = (GridSpec(5, 5, 1), GridSpec(7, 7, 1), CirculantSpec(58, frozenset({5, 11, 16})))


@dataclass
class Op:
    """One CLI call plus what the gate needs to judge it."""

    argv: list[str]
    kind: str                      # color | verify | solve | sixreg
    graph: object                  # the benchmark's own copy of the input graph
    cert: Optional[str] = None     # certificate path the op writes or reads
    defects: Optional[str] = None  # defect vector the certificate must claim
    status: Optional[str] = None   # expected solve status

    def check(self, code: int) -> tuple[bool, Optional[str]]:
        """(op succeeded, reason its output is wrong or None)."""
        if self.kind == "verify":
            problem = certificate_problem(self.cert, self.graph)
            want = 2 if problem == "unreadable" else (1 if problem else 0)
            if code != want:
                return False, f"verify exited {code}, certificate check wants {want}"
            return code == 0, None
        if code == EXIT_GAVE_UP:
            return False, None
        if self.kind == "solve":
            want = EXIT_OF[self.status]
            if code != want:
                return False, f"exit {code}, expected {self.status}"
            if self.status == UNSAT:
                return True, None
        elif code != 0:
            return False, f"exit {code}"
        problem = certificate_problem(self.cert, self.graph, self.defects,
                                      sixreg=self.kind == "sixreg")
        return problem is None, problem


def read_certificate_file(path: str):
    """Parse the documented certificate format without the program's reader."""
    defects, colors, mono = None, {}, []
    with open(path) as f:
        for raw in f:
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "defects":
                defects = ",".join(parts[1:])
            elif parts[0] == "color" and len(parts) == 3:
                v = int(parts[1]) - 1
                if v in colors:
                    raise ValueError(f"vertex {v + 1} coloured twice")
                colors[v] = int(parts[2])
            elif parts[0] == "me" and len(parts) == 3:
                mono.append((int(parts[1]) - 1, int(parts[2]) - 1))
            elif parts[0] != "mono":
                raise ValueError(f"unexpected line {raw.strip()!r}")
    if defects is None or sorted(colors) != list(range(len(colors))):
        raise ValueError("missing header or colour lines")
    return defects, tuple(colors[v] for v in range(len(colors))), sorted(mono)


def certificate_problem(path, g, defects_wanted: Optional[str] = None,
                        sixreg: bool = False) -> Optional[str]:
    """None when the certificate at ``path`` is a valid colouring of ``g``."""
    try:
        defects, coloring, mono = read_certificate_file(path)
        d = DefectVector.parse(defects)
    except (OSError, ValueError):
        return "unreadable"
    if defects_wanted is not None and defects != defects_wanted:
        return f"certificate claims {defects}, expected {defects_wanted}"
    if sixreg and not (d.k == 4 and all(e == (0, False) for e in d.entries[:3])
                       and d.entries[3][0] <= 3 and not d.entries[3][1]):
        return f"6-regular certificate claims {defects}, outside (0,0,0,<=3)"
    if len(coloring) != g.n or not all(1 <= c <= d.k for c in coloring):
        return "certificate does not colour the graph's vertices with its classes"
    report = verify_coloring(g, coloring, d)
    if not report.valid:
        return f"invalid colouring: {report.first_violation}"
    if mono != sorted(report.all_mono_edges()):
        return "listed monochromatic edges differ from the colouring's"
    return None


def _stratified(rng: random.Random, pool: list, k: int) -> list:
    """One seeded pick from each of ``k`` consecutive blocks of ``pool``."""
    bounds = [len(pool) * i // k for i in range(k + 1)]
    return [pool[rng.randrange(bounds[i], bounds[i + 1])] for i in range(k)]


def valid_grids(max_vertices: int, min_columns: int = 1) -> list[GridSpec]:
    """Valid shifted grids G[m x n, k] with m*n <= max_vertices, in the
    enumeration order of the acceptance corpus."""
    return [GridSpec(m, n, k)
            for m in range(1, max_vertices + 1)
            for n in range(max(1, min_columns), max_vertices // m + 1)
            for k in range(1, m + 1)
            if GridSpec(m, n, k).valid]


def _write_graph(path: Path, g) -> str:
    with open(path, "w") as f:
        write_graph(g, f)
    return str(path)


def _torus_cut(rng: random.Random, work: Path) -> list[Op]:
    light = sorted((s for s in valid_grids(49) if s.token() not in TORUS_TAIL),
                   key=lambda s: s.m * s.n)
    specs = _stratified(rng, light, TORUS_SAMPLE) + [GridSpec(4, 11, rng.randrange(1, 5))]
    embedded = [gen_grid(s) for s in specs] + [gen_named("k7"), gen_named("t11")]
    rng.shuffle(embedded)
    ops = []
    for i, (g, rot) in enumerate(embedded):
        rot_path = work / f"e{i}.rot"
        with open(rot_path, "w") as f:
            write_rotation(rot, f)
        g_path = _write_graph(work / f"e{i}.g", g)
        certs = {name: str(work / f"e{i}-{name}.cert") for name in PIPELINES}
        for name, vector in PIPELINES.items():
            ops.append(Op(["color", str(rot_path), "--construction", name,
                           "--output", certs[name]], "color", g, certs[name], vector))
        for name in PIPELINES:
            ops.append(Op(["verify", g_path, certs[name]], "verify", g, cert=certs[name]))
    return ops


def exact_instances(rng: random.Random) -> list[tuple[str, object, str, str]]:
    """(label, graph, defect vector, expected status) of one exact-decide pass."""
    out = []
    for r, n in SPORADIC_PAIRS:
        g = gen_circulant(CirculantSpec(n, frozenset({1, r, r + 1})))
        out.append((f"spor{r}-{n}", g, "0,0,0,0", UNSAT))
        out.append((f"spor{r}-{n}", g, "0,0,0,1*",
                    UNSAT if (r, n) in SPORADIC_0001STAR_UNSAT else SAT))
    for n in CIRC123_NS:
        g = gen_circulant(CirculantSpec(n, frozenset({1, 2, 3})))
        out.append((f"circ123-{n}", g, "0,0,0,0", UNSAT))
        # Exhaustive search for these n: SAT exactly when n = 1 mod 4.
        out.append((f"circ123-{n}", g, "0,0,0,1*", SAT if n % 4 == 1 else UNSAT))
    named = {name: gen_named(name)[0] for name in ("k6", "k7", "t11", "c3vc5", "k2vh7")}
    # Acceptance criterion 1: non-colourability facts.
    for d in ("0,0,0,2", "0,0,0,0,1", "0,0,0,0,0,0"):
        out.append(("k7", named["k7"], d, UNSAT))
    for name in ("t11", "c3vc5", "k2vh7", "k6"):
        out.append((name, named[name], "0,0,0,0,0", UNSAT))
    for spec in SMALL_EXCEPTION_GRIDS:
        out.append((spec.token().replace(":", "").replace(",", "-"), gen_grid(spec)[0],
                    "0,0,0,0", UNSAT))
    out.append(("k6", named["k6"], "0,0,0,0,0,0", SAT))
    # Acceptance criterion 2: colourability facts.
    for name, d in (("t11", "0,0,0,2"), ("k7", "0,0,0,3"), ("k7", "0,0,0,1*,1*"),
                    ("c3vc5", "0,0,0,0,1*"), ("k2vh7", "0,0,0,0,1*")):
        out.append((name, named[name], d, SAT))
    length = CYCLE_MIN + 2 * rng.randrange(50)
    out.append((f"c{length}", gen_named(f"c{length}")[0], "0,0", SAT))
    rng.shuffle(out)
    return out


def _exact_decide(rng: random.Random, work: Path) -> list[Op]:
    ops, written = [], {}
    for i, (label, g, d, status) in enumerate(exact_instances(rng)):
        if label not in written:
            written[label] = _write_graph(work / f"{label}.g", g)
        cert = str(work / f"s{i}.cert")
        ops.append(Op(["solve", written[label], "--defects", d, "--output", cert],
                      "solve", g, cert, d, status))
    return ops


def oracle_mismatches(ops: list[Op]) -> list[str]:
    """Cross-check each distinct small solve instance against the oracle."""
    out, seen = [], set()
    for op in ops:
        if op.kind != "solve":
            continue
        key = (op.argv[1], op.argv[3])
        d = DefectVector.parse(key[1])
        if key in seen or d.k ** op.graph.n > ORACLE_BOUND:
            continue
        seen.add(key)
        status = enumerate_oracle(op.graph, d).status
        if status != op.status:
            out.append(f"oracle says {status} for {key}, table says {op.status}")
    return out


def circulant_pool(max_n: int) -> list[CirculantSpec]:
    """Circulants G_n[S], n <= max_n, whose offsets are a unit multiple of
    some {1, r, r+1}: every such 3-offset, 6-regular set once."""
    pool = set()
    for n in range(9, max_n + 1):
        for r in range(2, n // 2):
            for p in range(1, n):
                if math.gcd(p, n) != 1:
                    continue
                offs = {min(p * x % n, n - p * x % n) for x in (1, r, r + 1)}
                if len(offs) == 3 and 2 * max(offs) != n:
                    pool.add((n, tuple(sorted(offs))))
    return [CirculantSpec(n, frozenset(offs)) for n, offs in sorted(pool)]


def _sixreg_classify(rng: random.Random, work: Path) -> list[Op]:
    columns = [s for s in valid_grids(SIXREG_MAX_N) if s.n == 1 and s.m >= 7]
    specs = (valid_grids(SIXREG_GRID_VERTICES, min_columns=2)
             + _stratified(rng, columns, SIXREG_SAMPLE["columns"])
             + _stratified(rng, circulant_pool(SIXREG_MAX_N), SIXREG_SAMPLE["circulants"])
             + list(SIXREG_SLOW))
    rng.shuffle(specs)
    ops = []
    for i, spec in enumerate(specs):
        g = gen_grid(spec)[0] if isinstance(spec, GridSpec) else gen_circulant(spec)
        cert = str(work / f"r{i}.cert")
        ops.append(Op(["color", spec.token(), "--construction", "6reg", "--output", cert],
                      "sixreg", g, cert=cert))
    return ops


BUILDERS = {"torus-cut": _torus_cut, "exact-decide": _exact_decide,
            "sixreg-classify": _sixreg_classify}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Generate one pass of ``workload`` for ``seed``, writing inputs to ``work``."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), work)
