"""Command-line front end.

Exit codes are uniform across subcommands: 0 success/SAT/valid, 1
UNSAT/invalid, 2 usage or format error, 3 search gave up (indeterminate,
or a pipeline's budget ran out).
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from collections import Counter
from typing import Optional, Union

from . import constructions, fileio
from .embedding import RotationSystem
from .generators import (CirculantSpec, GridSpec, InvalidSpec, gen_circulant,
                         gen_grid, gen_named)
from .graph import Coloring, DefectVector, Graph, verify_coloring
from .iso import are_isomorphic
from .solver import INDETERMINATE, SAT, solve


class UsageError(Exception):
    pass


def _parse_spec(token: str) -> Union[GridSpec, CirculantSpec, None]:
    """The spec of a grid:... or circ:... token, graph unbuilt; else None."""
    mg = re.fullmatch(r"grid:(\d+)x(\d+),(\d+)", token)
    if mg:
        return GridSpec(int(mg.group(1)), int(mg.group(2)), int(mg.group(3)))
    mc = re.fullmatch(r"circ:(\d+):([\d,]+)", token)
    if mc:
        return CirculantSpec(int(mc.group(1)), frozenset(int(x) for x in mc.group(2).split(",")))
    return None


def parse_family_token(token: str) -> tuple[Graph, Optional[RotationSystem], object]:
    """Resolve a family token to (graph, optional embedding, spec-or-name).

    Tokens: k6, k7, h7, t11, c3vc5, k2vh7, c<n>, k<n>,
    grid:<m>x<n>,<k>, circ:<n>:<s1,s2,...>.
    """
    spec = _parse_spec(token)
    if isinstance(spec, GridSpec):
        return (*gen_grid(spec), spec)
    if spec is not None:
        return gen_circulant(spec), None, spec
    try:
        g, rot = gen_named(token)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return g, rot, token


def _load_graph(path: str) -> Graph:
    with open(path) as f:
        return fileio.read_graph(f)


def _load_rotation(path: str) -> RotationSystem:
    with open(path) as f:
        return fileio.read_rotation(f)


def _emit_certificate(coloring: Coloring, d: DefectVector,
                      mono_edges: tuple[tuple[int, int], ...], output: Optional[str]) -> None:
    if output:
        with open(output, "w") as f:
            fileio.write_certificate(coloring, d, mono_edges, f)
    else:
        fileio.write_certificate(coloring, d, mono_edges, sys.stdout)


def cmd_gen(args) -> int:
    g, rot, spec = parse_family_token(args.token)
    base = args.output or args.token.replace(":", "_").replace(",", "_")
    with open(base + ".g", "w") as f:
        fileio.write_graph(g, f)
    written = [base + ".g"]
    if rot is not None:
        with open(base + ".rot", "w") as f:
            fileio.write_rotation(rot, f)
        written.append(base + ".rot")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    d = DefectVector.parse(args.defects)
    res = solve(g, d, node_budget=args.budget)
    print(f"status {res.status}")
    print(f"nodes {res.nodes}")
    if res.status == SAT:  # the search verified its coloring before returning it
        _emit_certificate(res.coloring, d, res.report.all_mono_edges(), args.output)
        return 0
    return 3 if res.status == INDETERMINATE else 1


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    with open(args.certificate) as f:
        coloring, d, mono = fileio.read_certificate(f)
    report = verify_coloring(g, coloring, d)
    for c in range(d.k):
        print(f"class {c + 1} maxdeg {report.max_degrees[c]} mono {report.mono_counts[c]}")
    mono_listed = sorted(tuple(sorted(e)) for e in mono) == sorted(report.all_mono_edges())
    if report.valid and mono_listed:
        print("valid yes")
        return 0
    print("valid no")
    if not report.valid:
        print(f"violation class {report.first_violation[0]} at {report.first_violation[1]}")
    if not mono_listed:
        print("violation mono list differs from the coloring's monochromatic edges")
    return 1


def cmd_color(args) -> int:
    name = args.construction
    if name == "6reg":
        spec = _parse_spec(args.input)
        if spec is None:
            raise UsageError("construction 6reg expects a grid:... or circ:... token")
        cert = constructions.color_6regular(spec)
    elif name == "0003core":
        g = _load_graph(args.input)
        spec = _parse_spec(args.core or "")
        if spec is None:
            raise UsageError("construction 0003core requires --core <grid:...|circ:...>")
        cert = constructions.color_0003_high_min_degree(g, spec)
    else:
        rot = _load_rotation(args.input)
        if name == "0122":
            if rot.genus > 2:  # (2,2,2) is proved for the plane and the torus
                raise UsageError(f"construction 0122 needs Euler genus 0 or 2, got {rot.genus}")
            cert = constructions.color_0122(rot.graph)
        else:
            op = {"600001": constructions.color_600001,
                  "00002": constructions.color_00002,
                  "0004": constructions.color_0004}[name]
            cert = op(rot)
    print(f"construction {cert.provenance}")
    print(f"defects {cert.defects}")
    _emit_certificate(cert.coloring, cert.defects, cert.mono_edges, args.output)
    return 0


def cmd_embed_info(args) -> int:
    rot = _load_rotation(args.rotation)
    g = rot.graph
    genus = rot.genus  # first, so a degenerate file is rejected before any output
    hist = Counter(len(f) for f in rot.faces)
    print(f"V {g.n}")
    print(f"E {g.m}")
    print(f"F {len(rot.faces)}")
    print(f"genus {genus}")
    for deg in sorted(hist):
        print(f"faces_deg_{deg} {hist[deg]}")
    return 0


def cmd_sncc(args) -> int:
    rot = _load_rotation(args.rotation)
    cert = rot.sncc
    print(f"length {cert.length}")
    print("cycle " + " ".join(str(v + 1) for v in cert.vertices))
    print(f"signature {cert.signature:b}")
    return 0


def cmd_iso(args) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    ok, witness = are_isomorphic(g1, g2)
    if ok:
        print("isomorphic yes")
        for v in range(g1.n):
            print(f"map {v + 1} {witness[v] + 1}")
        return 0
    print("isomorphic no")
    return 1


def _table1_entries():
    instances = []
    for token in ("k7", "t11"):
        instances.append((token, gen_named(token)[1]))
    for spec in (GridSpec(4, 4, 1), GridSpec(5, 5, 2)):
        instances.append((spec.token(), gen_grid(spec)[1]))

    def run_600001():
        for _, rot in instances:
            constructions.color_600001(rot)
        return True

    def run_00002():
        for _, rot in instances:
            cert = constructions.color_00002(rot)
            members = [v for v in range(rot.graph.n) if cert.coloring[v] == 5]
            for v in members:
                if sum(1 for w in rot.graph.adj[v] if cert.coloring[w] == 5) != 2:
                    return False
        return True

    def run_00011():
        g = gen_named("k7")[0]
        d = DefectVector.of(0, 0, 0, 1, 1, stars=(3, 4))
        return solve(g, d).status == SAT

    def run_0004():
        for _, rot in instances:
            constructions.color_0004(rot)
        return True

    def run_0122():
        for token in ("k7", "t11"):
            constructions.color_0122(gen_named(token)[0])
        return True

    return [
        ("torus k=6 (0,0,0,0,0,1*) via cut-and-contract", run_600001),
        ("torus k=5 (0,0,0,0,2) via cut-and-contract", run_00002),
        ("torus k=5 (0,0,0,1*,1*) on K7", run_00011),
        ("torus k=4 (0,0,0,4) via path contraction", run_0004),
        ("torus k=4 (0,1,2,2) via (2,2,2) split", run_0122),
    ]


def cmd_table1(args) -> int:
    failures = 0
    for label, fn in _table1_entries():
        try:
            ok = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            print(f"FAIL {label} ({exc})")
            failures += 1
            continue
        print(("PASS " if ok else "FAIL ") + label)
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    p = argparse.ArgumentParser(prog="torodef",
                                description="Defective colorings of toroidal graphs")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a graph family")
    sp.add_argument("token")
    sp.add_argument("--output", help="output base path (writes BASE.g and maybe BASE.rot)")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("solve", help="decide defective colorability")
    sp.add_argument("graph")
    sp.add_argument("--defects", required=True, help="e.g. 0,0,0,1*")
    sp.add_argument("--budget", type=int, default=None, help="search node budget; without "
                    "it the search is an exhaustive prover and may run long")
    sp.add_argument("--output", help="certificate path (stdout by default)")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("verify", help="check a certificate against a graph")
    sp.add_argument("graph")
    sp.add_argument("certificate")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("color", help="run a coloring construction")
    sp.add_argument("input", help="rotation file; family token for 6reg; graph file for 0003core")
    sp.add_argument("--construction", required=True,
                    choices=["600001", "00002", "0004", "0122", "6reg", "0003core"])
    sp.add_argument("--core", help="family token of the 6-core (0003core only)")
    sp.add_argument("--output", help="certificate path (stdout by default)")
    sp.set_defaults(fn=cmd_color)

    sp = sub.add_parser("embed-info", help="face and genus report for an embedding")
    sp.add_argument("rotation")
    sp.set_defaults(fn=cmd_embed_info)

    sp = sub.add_parser("sncc", help="shortest non-contractible cycle")
    sp.add_argument("rotation")
    sp.set_defaults(fn=cmd_sncc)

    sp = sub.add_parser("iso", help="isomorphism test with witness")
    sp.add_argument("graph1")
    sp.add_argument("graph2")
    sp.set_defaults(fn=cmd_iso)

    sp = sub.add_parser("table1", help="run the curated fact suite")
    sp.set_defaults(fn=cmd_table1)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, InvalidSpec, fileio.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except constructions.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
