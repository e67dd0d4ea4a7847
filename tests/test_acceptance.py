"""Acceptance gate: nine criteria, one PASS/FAIL line each.

Each test prints exactly one summary line of the form

    ACCEPTANCE <n>: <PASS|FAIL> - <short description>

before asserting, so the verdict is visible in the captured output of a
failing run as well.  Criterion 3 holds each sporadic pattern to at most two
monochromatic edges unless no (0,0,0,1)-coloring of its graph meets that
bound; then the pattern must be optimal, which
:func:`conftest.admits_mono_at_most` decides by exact search in the same
run.  The one such pair is (7, 19): G_19[1,7,8] has no coloring with two or
fewer monochromatic edges, so its three-edge pattern is optimal.  No pair is
exempt by name.
"""
import math
import random
import time

import pytest

from torodef import (CirculantSpec, DefectVector, GridSpec, build_graph,
                     enumerate_oracle, gen_circulant, gen_grid, gen_named,
                     are_isomorphic, solve, verify_coloring)
from torodef.constructions import (apply_pattern, color_0004, color_00002,
                                   color_600001, pattern_circ123,
                                   pattern_exception)
from torodef.embedding import trace_faces, euler_genus
from torodef.generators import SMALL_EXCEPTION_GRIDS, SPORADIC_PAIRS, unit_image
from torodef.cli import main as cli_main
from .conftest import (admits_mono_at_most, all_valid_grids, cut_observations,
                       grid_as_circulant, random_connected_graph)


def _report(num, desc, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num}: {verdict} - {desc}")
    assert not failures, f"criterion {num} failures: {failures}"


def _corpus():
    """Every valid shifted grid with at most 49 vertices, plus K7 and T11."""
    rots = []
    for spec in all_valid_grids(49):
        rots.append((spec.token(), gen_grid(spec)[1]))
    for token in ("k7", "t11"):
        rots.append((token, gen_named(token)[1]))
    return rots


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_acceptance_1_non_colorability():
    failures = []
    facts = []
    k7 = gen_named("k7")[0]
    facts += [("k7", k7, t) for t in ("0,0,0,2", "0,0,0,0,1", "0,0,0,0,0,0")]
    for name in ("t11", "c3vc5", "k2vh7", "k6"):
        facts.append((name, gen_named(name)[0], "0,0,0,0,0"))
    for spec in SMALL_EXCEPTION_GRIDS:
        facts.append((spec.token(), gen_grid(spec)[0], "0,0,0,0"))
    for label, g, defects in facts:
        t0 = time.perf_counter()
        res = solve(g, DefectVector.parse(defects))
        elapsed = time.perf_counter() - t0
        if res.status != "UNSAT" or elapsed >= 60:
            failures.append((label, defects, res.status, round(elapsed, 1)))
    # K6 is trivially properly 6-colorable.
    if solve(gen_named("k6")[0], DefectVector.parse("0,0,0,0,0,0")).status != "SAT":
        failures.append(("k6", "0,0,0,0,0,0", "expected SAT"))
    _report(1, "exact UNSAT facts (K7, Thomassen obstructions, six grids)", failures)


def test_acceptance_2_colorability():
    failures = []
    plain = [("t11", "0,0,0,2"), ("k7", "0,0,0,3"), ("k7", "0,0,0,1*,1*")]
    for name, defects in plain:
        g = gen_named(name)[0]
        d = DefectVector.parse(defects)
        t0 = time.perf_counter()
        res = solve(g, d)
        elapsed = time.perf_counter() - t0
        ok = (res.status == "SAT" and elapsed < 60
              and verify_coloring(g, res.coloring, d).valid)
        if not ok:
            failures.append((name, defects, res.status))
    for name in ("c3vc5", "k2vh7"):
        g = gen_named(name)[0]
        d = DefectVector.parse("0,0,0,0,1*")
        res = solve(g, d)
        if res.status != "SAT":
            failures.append((name, "0,0,0,0,1*", res.status))
            continue
        report = verify_coloring(g, res.coloring, d)
        if not report.valid or sum(report.mono_counts) != 1:
            failures.append((name, "mono", report.mono_counts))
    _report(2, "exact SAT facts with verified certificates", failures)


def test_acceptance_3_pattern_suite():
    t0 = time.perf_counter()
    failures = []
    for n in range(8, 61):
        if n == 11:
            continue
        g = gen_circulant(CirculantSpec(n, frozenset({1, 2, 3})))
        report = verify_coloring(g, apply_pattern(pattern_circ123(n)),
                                 DefectVector.of(0, 0, 0, 1))
        if not report.valid or sum(report.mono_counts) > 3:
            failures.append(("circ123", n, report.mono_counts))
    for r, n in SPORADIC_PAIRS:  # nine recorded patterns + seven transports
        g = gen_circulant(CirculantSpec(n, frozenset({1, r, r + 1})))
        report = verify_coloring(g, apply_pattern(pattern_exception(r, n)),
                                 DefectVector.of(0, 0, 0, 1))
        count = sum(report.mono_counts)
        # Above two edges the pattern must be optimal: no coloring of g has
        # count - 1 or fewer, which the exact search decides up to two.
        if not report.valid or (count > 2 and (
                count - 1 > 2 or admits_mono_at_most(g, count - 1))):
            failures.append(("sporadic", (r, n), count))
    if time.perf_counter() - t0 >= 30:
        failures.append(("runtime", round(time.perf_counter() - t0, 1)))
    _report(3, "circulant patterns verify within their monochromatic budgets",
            failures)


def test_acceptance_4_pipeline_suite(corpus):
    t0 = time.perf_counter()
    failures = []
    assert len(corpus) >= 50
    for token, rot in corpus:
        g = rot.graph
        try:
            c1 = color_600001(rot)
            c2 = color_00002(rot)
            c3 = color_0004(rot)
        except Exception as exc:  # noqa: BLE001 - collect, then report
            failures.append((token, repr(exc)))
            continue
        for cert in (c1, c2, c3):
            if not verify_coloring(g, cert.coloring, cert.defects).valid:
                failures.append((token, cert.provenance, "invalid"))
        members = [v for v in range(g.n) if c2.coloring[v] == 5]
        if any(sum(1 for w in g.adj[v] if c2.coloring[w] == 5) != 2
               for v in members):
            failures.append((token, "00002 class 5 not a chordless cycle"))
        report = verify_coloring(g, c3.coloring, c3.defects)
        if report.max_degrees[3] > 4:
            failures.append((token, "0004 defect degree", report.max_degrees[3]))
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        failures.append(("runtime", round(elapsed, 1)))
    _report(4, f"three pipelines over {len(corpus)} embedded graphs", failures)


def test_acceptance_5_observation_suite(corpus):
    failures = []
    for token, rot in corpus:
        failures += [(token, *f) for f in cut_observations(rot)]
    _report(5, "cycle shape observations and planarity after cutting", failures)


def test_acceptance_6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1)
    vectors = ["0", "1", "2", "0,0", "0,1", "1,1", "2,2", "0,0,0", "0,0,1",
               "0,1,2", "2,2,2", "1*,0", "1*,1*", "0,0,1*", "1,1*,2"]
    failures = []
    for i in range(200):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        d = DefectVector.parse(rng.choice(vectors))
        fast = solve(g, d)
        slow = enumerate_oracle(g, d)
        if fast.status != slow.status:
            failures.append((i, list(g.edges()), str(d), fast.status, slow.status))
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        failures.append(("runtime", round(elapsed, 1)))
    _report(6, "solver matches enumeration on 200 random instances", failures)


def test_acceptance_7_isomorphism_suite():
    t0 = time.perf_counter()
    failures = []
    for m in range(3, 13):
        for i in range(3, m + 1):
            spec = GridSpec(m, 1, i)
            if not spec.valid:
                continue
            g = gen_grid(spec)[0]
            c = gen_circulant(grid_as_circulant(spec))
            ok, _ = are_isomorphic(g, c)
            if not ok:
                failures.append(("grid-circulant", m, i))
    rng = random.Random(2)
    done = 0
    while done < 50:
        n = rng.randrange(5, 21)
        size = rng.randrange(1, 4)
        offsets = frozenset(rng.sample(range(1, n // 2 + 1), min(size, n // 2)))
        units = [p for p in range(2, n) if math.gcd(p, n) == 1]
        if not units:
            continue
        p = rng.choice(units)
        a = gen_circulant(CirculantSpec(n, offsets))
        b = gen_circulant(CirculantSpec(n, unit_image(offsets, n, p)))
        ok, _ = are_isomorphic(a, b)
        if not ok:
            failures.append(("unit-image", n, sorted(offsets), p))
        done += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        failures.append(("runtime", round(elapsed, 1)))
    _report(7, "grid/circulant and unit-image isomorphisms", failures)


def test_acceptance_8_euler_arithmetic(tmp_path, capsys):
    failures = []
    expected = {"t11": 22, "k7": 14, "k6": 9}
    for name, f_count in expected.items():
        base = str(tmp_path / name)
        cli_main(["gen", name, "--output", base])
        capsys.readouterr()
        code = cli_main(["embed-info", base + ".rot"])
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        if code != 0:
            failures.append((name, "exit", code))
            continue
        v, e, f = int(out["V"]), int(out["E"]), int(out["F"])
        if f != f_count or out["genus"] != "2":
            failures.append((name, f, out["genus"]))
        if f != e - v:
            failures.append((name, "|F| != |E| - |V|"))
    # Module-level cross-check that the report is not self-referential.
    for name in expected:
        _, rot = gen_named(name)
        if len(trace_faces(rot)) != expected[name] or euler_genus(rot) != 2:
            failures.append((name, "direct trace mismatch"))
    _report(8, "embed-info face counts and genus on canonical embeddings",
            failures)


def test_acceptance_9_table1(capsys):
    code = cli_main(["table1"])
    out = capsys.readouterr().out
    failures = []
    if code != 0:
        failures.append(("exit", code))
    if out.count("PASS") != 5 or "FAIL" in out:
        failures.append(("output", out))
    _report(9, "table-1 torus-row fact suite", failures)
