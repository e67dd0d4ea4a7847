"""Coloring pipelines that realize the toolkit's headline guarantees.

Each operation takes a (possibly embedded) toroidal graph and emits a
certificate: a coloring plus the defect vector it claims, verified against
the independent checker before it is returned.  The cut-and-contract
pipelines cover the (0,0,0,0,0,1*), (0,0,0,0,2) and (0,0,0,4) guarantees;
the pattern machinery handles 6-regular graphs, and the 6-core lifting
extends that to graphs that are not 5-degenerate.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

from .embedding import RotationSystem, contract_path, shortest_path
from .generators import (CirculantSpec, Classification, GridSpec, SPORADIC_PAIRS,
                         classify_6regular, _characters, _r_forms)
from .graph import (Coloring, DefectVector, Graph, VerificationReport, _min_degree_peel,
                    build_graph, degeneracy, induced_subgraph, verify_coloring)
from .iso import are_isomorphic
from .solver import INDETERMINATE, SAT, SolveResult, solve_with_precoloring


class PipelineError(RuntimeError):
    """A pipeline stage could not complete (propagated precondition or
    indeterminate sub-search)."""


@dataclass(frozen=True)
class Certificate:
    """A verified coloring claim: assignment, defect vector, provenance."""

    coloring: Coloring
    defects: DefectVector
    provenance: str
    mono_edges: tuple[tuple[int, int], ...]


def make_certificate(g: Graph, coloring: Coloring, d: DefectVector, provenance: str,
                     report: Optional[VerificationReport] = None) -> Certificate:
    """Verify a coloring and wrap it; invalid claims never leave a pipeline.
    A ``report`` is the search's own check of the coloring on ``g``."""
    if report is None:
        report = verify_coloring(g, coloring, d)
    if not report.valid:
        raise AssertionError(
            f"pipeline {provenance!r} produced an invalid coloring: {report.first_violation}")
    return Certificate(tuple(coloring), d, provenance, report.all_mono_edges())


def color_cycle_56(length: int) -> tuple[int, ...]:
    """Color a cycle with colors 5 and 6 along its vertex order.

    Even cycles alternate cleanly; odd cycles end with a doubled 6, giving
    exactly one monochromatic edge whose endpoints carry color 6.
    """
    if length < 3:
        raise ValueError(f"cycle length {length} below 3")
    colors = [5 if i % 2 == 0 else 6 for i in range(length)]
    if length % 2 == 1:
        colors[-1] = 6
    return tuple(colors)


# Total node budget of one pipeline search, summed over its restarts.
_NODE_BUDGET = 10 ** 6


def _run_unit(n: int) -> int:
    """Node cutoff of the first run of a search on ``n`` vertices."""
    return max(1000, 10 * n)


def _luby(i: int) -> int:
    """Term ``i >= 1`` of Luby's sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    k = i.bit_length()
    return 1 << (k - 1) if i == (1 << k) - 1 else _luby(i - (1 << (k - 1)) + 1)


def _search(g: Graph, pre: Mapping[int, int], d: DefectVector) -> SolveResult:
    """Search for a coloring of ``g`` meeting ``d`` that extends ``pre``,
    restarted under Luby-scheduled node cutoffs (Luby, Sinclair & Zuckerman,
    IPL 47, 1993) within ``_NODE_BUDGET`` nodes in all: a search for a
    coloring that exists is heavy-tailed in its vertex order (Gomes, Selman,
    Crato & Kautz, JAR 24, 2000).  Run 1 is :func:`solve_with_precoloring`
    on ``g`` itself; run i > 1 searches ``g`` relabeled by a permutation
    seeded by i alone.  UNSAT from any run is exact; INDETERMINATE means
    the budget ran out.  A SAT result carries the search's report, with a
    relabeled run's monochromatic edges mapped back to ``g``.
    """
    spent, run = 0, 1
    while True:
        cutoff = min(_run_unit(g.n) * _luby(run), _NODE_BUDGET - spent)
        perm = random.Random(run).sample(range(g.n), g.n) if run > 1 else range(g.n)
        h = g if run == 1 else build_graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
        res = solve_with_precoloring(h, {perm[v]: c for v, c in pre.items()}, d,
                                     node_budget=cutoff)
        spent += min(res.nodes, cutoff)
        if res.status != INDETERMINATE or spent >= _NODE_BUDGET:
            coloring = res.coloring and tuple(res.coloring[perm[v]] for v in range(g.n))
            report = res.report
            if report and run > 1:  # h's vertex perm[v] is g's vertex v
                back = {p: v for v, p in enumerate(perm)}
                report = replace(report, mono_edges=tuple(
                    tuple(sorted(tuple(sorted((back[a], back[b]))) for a, b in m))
                    for m in report.mono_edges))
            return SolveResult(res.status, coloring, spent, report=report)
        run += 1


def _four_color_planar(h: Graph, provenance: str) -> Coloring:
    """Proper 4-coloring of a planar graph: smallest-last greedy with Kempe
    chain swaps, then a budgeted exact search if that fails.

    Vertices are colored in reverse min-degree peel order (Morgenstern &
    Shapiro, Algorithmica 6, 1991), each with its smallest free color; since
    planar graphs are 5-degenerate each sees at most five colored neighbors.
    A vertex that sees all four colors tries the ordered color pairs (a, b)
    in turn: if the union of the a-b Kempe chains through its a-colored
    neighbors holds none of its b-colored neighbors, a and b are swapped on
    that union and the vertex takes color a.  This is a heuristic, not a
    proof: Kempe's argument fails at degree five (Heawood, 1890), so when no
    pair frees a color the whole graph goes to the budgeted :func:`_search`.
    An exhausted budget raises :class:`PipelineError` (exit 3 in the CLI).
    Neighbors are visited in sorted order, so the coloring is a function of
    ``h``.
    """
    order, _ = _min_degree_peel(h)
    adj = [sorted(a) for a in h.adj]
    color = [0] * h.n
    for v in reversed(order):
        seen = {color[w] for w in adj[v]}
        free = [c for c in (1, 2, 3, 4) if c not in seen]
        if free:
            color[v] = free[0]
        elif not _kempe_swap(adj, color, v):
            res = _search(h, {}, DefectVector.of(0, 0, 0, 0))
            if res.status != SAT:
                raise PipelineError(f"{provenance}: proper 4-coloring of the planar stage "
                                    f"came back {res.status}")
            return res.coloring
    return tuple(color)


def _kempe_swap(adj: list[list[int]], color: list[int], v: int) -> bool:
    """Color ``v``, which sees all four colors, by one Kempe chain swap.

    Returns False, changing nothing, when no ordered pair of colors works.
    """
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            if a == b:
                continue
            chain = {w for w in adj[v] if color[w] == a}
            stack = list(chain)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if color[y] in (a, b) and y not in chain:
                        chain.add(y)
                        stack.append(y)
            if any(color[w] == b and w in chain for w in adj[v]):
                continue
            for x in chain:
                color[x] = a + b - color[x]
            color[v] = a
            return True
    return False


def _lift(n: int, orig: Sequence[Optional[int]], phi: Coloring) -> list[int]:
    """Carry a coloring of a contracted graph back to the ``n`` original
    vertices through ``orig``; contracted-away vertices get color 0."""
    coloring = [0] * n
    for hv, gv in enumerate(orig):
        if gv is not None:
            coloring[gv] = phi[hv]
    return coloring


def color_600001(rot: RotationSystem) -> Certificate:
    """Six classes, the last starred: cut along the shortest non-contractible
    cycle, 4-color the planar remainder, spend colors 5 and 6 on the cycle."""
    cyc = rot.sncc
    cut = rot.cut
    coloring = _lift(rot.graph.n, cut.orig, _four_color_planar(cut.h, "color_600001"))
    for v, c in zip(cyc.vertices, color_cycle_56(cyc.length)):
        coloring[v] = c
    d = DefectVector.of(0, 0, 0, 0, 0, 1, stars=(5,))
    return make_certificate(rot.graph, tuple(coloring), d, "600001")


def color_00002(rot: RotationSystem) -> Certificate:
    """Five classes: planar 4-coloring off the cycle, the whole cycle in
    class 5.  The cycle is chordless, so class 5 induces max degree 2."""
    cut = rot.cut
    coloring = _lift(rot.graph.n, cut.orig, _four_color_planar(cut.h, "color_00002"))
    for v in rot.sncc.vertices:
        coloring[v] = 5
    d = DefectVector.of(0, 0, 0, 0, 2)
    return make_certificate(rot.graph, tuple(coloring), d, "00002")


def color_0004(rot: RotationSystem) -> Certificate:
    """Four classes with one defect-4 class: after the cut, contract a
    shortest path between the two cycle vertices and 4-color the result;
    the cycle plus the path interior share the contracted vertex's color."""
    cut = rot.cut
    pstar = shortest_path(cut.h, cut.u, cut.v)
    g2, vstar, orig2 = contract_path(cut.h, pstar)
    phi = _four_color_planar(g2, "color_0004")

    # Colors of vertices surviving both stages flow back through both maps.
    coloring = _lift(rot.graph.n, [None if hv is None else cut.orig[hv] for hv in orig2], phi)
    star_color = phi[vstar]
    defect_class = set(rot.sncc.vertices)
    for p in pstar[1:-1]:
        defect_class.add(cut.orig[p])
    for gv in defect_class:
        coloring[gv] = star_color

    d = DefectVector.of(0, 0, 0, 4)
    # Swap classes so the defect-4 budget sits on the contracted color.
    perm = {c: c for c in (1, 2, 3, 4)}
    perm[star_color], perm[4] = 4, star_color
    coloring = [perm[c] for c in coloring]
    return make_certificate(rot.graph, tuple(coloring), d, "0004")


def color_01_paths_cycles(h: Graph) -> Coloring:
    """(0,1)-color a graph of maximum degree two (disjoint paths and cycles):
    class 1 independent, class 2 inducing at most a matching."""
    for v in range(h.n):
        if h.degree(v) > 2:
            raise ValueError(f"vertex {v} has degree {h.degree(v)} > 2")
    color = [0] * h.n
    seen = [False] * h.n
    for start in range(h.n):
        if seen[start]:
            continue
        # Walk to an endpoint if the component is a path.
        comp_start = start
        prev = -1
        while True:
            nxt = [w for w in sorted(h.adj[comp_start]) if w != prev]
            if h.degree(comp_start) <= 1 or not nxt:
                break
            prev, comp_start = comp_start, nxt[0]
            if comp_start == start:  # cycle component
                break
        walk = [comp_start]
        seen[comp_start] = True
        prev = -1
        cur = comp_start
        while True:
            nxt = [w for w in sorted(h.adj[cur]) if w != prev and not seen[w]]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            seen[cur] = True
            walk.append(cur)
        is_cycle = len(walk) >= 3 and walk[0] in h.adj[walk[-1]]
        for i, v in enumerate(walk):
            color[v] = 1 if i % 2 == 0 else 2
        if is_cycle and len(walk) % 2 == 1:
            color[walk[-1]] = 2
    return tuple(color)


def color_0122(g: Graph) -> Certificate:
    """(0,1,2,2): start from an exact (2,2,2)-coloring, take one class (a
    union of paths and cycles) and split it into an independent class and a
    matching class."""
    base = _search(g, {}, DefectVector.of(2, 2, 2))
    if base.status != SAT:
        raise PipelineError(f"color_0122: (2,2,2) search came back {base.status}")
    split_class = 1
    members = [v for v in range(g.n) if base.coloring[v] == split_class]
    sub, back = induced_subgraph(g, members)
    psi = color_01_paths_cycles(sub)
    coloring = [0] * g.n
    for v in range(g.n):
        if base.coloring[v] != split_class:
            coloring[v] = {2: 3, 3: 4}[base.coloring[v]]
    for i, v in enumerate(back):
        coloring[v] = psi[i]
    d = DefectVector.of(0, 1, 2, 2)
    return make_certificate(g, tuple(coloring), d, "0122")


# --- pattern machinery for 6-regular circulants -----------------------------

PATTERN_CLASS = {"a": 1, "b": 2, "c": 3, "d": 4}


def pattern_circ123(n: int) -> str:
    """Coloring pattern for G_n[1,2,3] over the alphabet a,b,c,d.

    Periodic ``abcd`` blocks with one doubled-``d`` block per residue step
    (none for a multiple of four, which is properly colored).  Verifies as
    (0,0,0,1) with at most three monochromatic edges, all in class d.
    """
    if n == 7 or n == 11:
        raise ValueError(f"n={n} is a genuine exception (K7 / T11), no pattern exists")
    if n <= 7:
        raise ValueError(f"pattern requires n > 7, got {n}")
    rem = n % 4
    return "abcd" * ((n - 5 * rem) // 4) + "abcdd" * rem


_DIRECT_EXCEPTION_PATTERNS = {
    (3, 13): "abacdcdbabcdd",
    (6, 17): "abcd" * 4 + "d",
    (3, 18): "ababdcdcd" * 2,
    (7, 19): "dabcdadbcddbcdadbca",
    (6, 25): "abcd" * 6 + "d",
    (10, 25): "abcd" * 6 + "d",
    (10, 26): ("abcd" * 3 + "d") * 2,
    (6, 33): "abcd" * 8 + "d",
    (10, 37): "abcd" * 9 + "d",
}


def transport_pattern(pattern: str, n: int, unit: int) -> str:
    """Carry a pattern through the vertex bijection v -> unit*v mod n."""
    out = [""] * n
    for v, letter in enumerate(pattern):
        out[(unit * v) % n] = letter
    return "".join(out)


def pattern_exception(r: int, n: int) -> str:
    """Pattern for the sporadic pair G_n[1,r,r+1].

    Pairs without a recorded pattern are reached from a recorded one by a
    unit-multiplication isomorphism; the pattern is transported through that
    vertex bijection.  Verifies as (0,0,0,1) with at most two monochromatic
    edges for every pair except (7, 19), where three is exhaustively optimal.
    """
    if (r, n) in _DIRECT_EXCEPTION_PATTERNS:
        return _DIRECT_EXCEPTION_PATTERNS[(r, n)]
    if (r, n) not in SPORADIC_PAIRS:
        raise ValueError(f"(r, n) = ({r}, {n}) is not a sporadic exception pair")
    for (r0, n0), pat in _DIRECT_EXCEPTION_PATTERNS.items():
        if n0 != n:
            continue
        for p, r1 in _r_forms(CirculantSpec(n, frozenset({1, r0, r0 + 1}))):
            if r1 == r:
                return transport_pattern(pat, n, p)
    raise ValueError(f"no unit transport found for ({r}, {n})")


def apply_pattern(pattern: str) -> Coloring:
    return tuple(PATTERN_CLASS[ch] for ch in pattern)


def _by_solve(g: Graph, d: DefectVector, tag: str) -> Certificate:
    res = _search(g, {}, d)
    if res.status != SAT:
        raise PipelineError(f"color_6regular[{tag}]: search came back {res.status}")
    return make_certificate(g, res.coloring, d, tag, res.report)


def color_6regular(spec: Union[GridSpec, CirculantSpec]) -> Certificate:
    """Certificate for any simple 6-regular spec.

    Non-exceptions get a proper 4-coloring: the circle map of a character
    of the spec's translation group onto Z_N where one turns every generator
    a quarter (a circular coloring, Zhu, Discrete Math. 229, 2001), else the
    budgeted :func:`_search`, for a coloring Yeh and Zhu prove exists (an
    exhausted budget raises :class:`PipelineError`).  Exceptions dispatch per case:
    K7 to (0,0,0,3), T11 to (0,0,0,2), the six small grids to search, and
    the circulant families to the pattern of the listed circulant the
    classifier matched, pulled back along its ``to_listed`` map: vertex v
    takes the pattern's color at ``to_listed[v]``.  The spec's graph is the
    one the classifier built.
    """
    return _color_classified(spec, classify_6regular(spec))


def _color_classified(spec: Union[GridSpec, CirculantSpec], cls: Classification) -> Certificate:
    """:func:`color_6regular` given the spec's classification.

    A 4-colorable verdict is first colored by the circle map of a character
    chi (see :func:`_characters`) that turns each generator g at least a
    quarter turn, 4 * min(chi(g), n - chi(g)) >= n: v takes 4 * chi(v) // n + 1.
    The ends of an edge differ by +-chi(g), so they are at least n/4 apart
    on the circle Z_n; two values in one quarter [c*n/4, (c+1)*n/4) are less
    than n/4 apart; so no edge is monochromatic.
    """
    g, n = cls.graph, cls.graph.n
    if cls.four_colorable:
        for label, images, chi in _characters(spec):
            if all(4 * min(x, n - x) >= n for x in images):
                return make_certificate(g, tuple(4 * chi(v) // n + 1 for v in range(n)),
                                        DefectVector.of(0, 0, 0, 0), f"6reg-circle({label})")
    if cls.reduced is None:
        if cls.four_colorable:
            return _by_solve(g, DefectVector.of(0, 0, 0, 0), "6reg-proper4-solve")
        return _by_solve(g, DefectVector.of(0, 0, 0, 1), "6reg-small-exception")
    if cls.case == "4":
        # The two genuine (0,0,0,1)-exceptions.
        if n == 7:
            return _by_solve(g, DefectVector.of(0, 0, 0, 3), "6reg-k7")
        if n == 11:
            return _by_solve(g, DefectVector.of(0, 0, 0, 2), "6reg-t11")
        pattern, tag = pattern_circ123(n), f"6reg-pattern-123(n={n})"
    else:
        r = sorted(cls.reduced.offsets)[1]
        pattern, tag = pattern_exception(r, n), f"6reg-pattern-sporadic(r={r},n={n})"
    if isinstance(spec, GridSpec) and spec.n > 1:
        tag = f"6reg-grid-as-{cls.reduced.token()}"
    listed = apply_pattern(pattern)
    d = DefectVector.of(0, 0, 0, 0 if cls.four_colorable else 1)
    return make_certificate(g, tuple(listed[u] for u in cls.to_listed), d, tag)


def color_0003_high_min_degree(g: Graph, core_spec: Union[GridSpec, CirculantSpec]) -> Certificate:
    """(0,0,0,<=3)-certificate for a graph whose 6-core is a recognized
    6-regular family.

    The core is matched against the family spec's graph by isomorphism,
    colored as :func:`color_6regular` colors the spec (from the same
    classification), and the coloring is extended to the rest of the graph
    by the budgeted search with the core precolored.  T11 cores keep their
    stronger (0,0,0,2) target unless that search is UNSAT or runs out.
    """
    d6, core = degeneracy(g)
    if d6 < 6:
        raise ValueError(f"degeneracy {d6} < 6: no 6-core to lift from")
    core_graph, back = induced_subgraph(g, core)
    cls = classify_6regular(core_spec)
    ok, witness = are_isomorphic(cls.graph, core_graph)
    if not ok:
        raise ValueError("6-core does not match the supplied family spec")

    core_cert = _color_classified(core_spec, cls)
    pre = {back[witness[v]]: core_cert.coloring[v] for v in range(cls.graph.n)}

    targets = [core_cert.defects]
    if core_cert.defects.entries[-1][0] < 3:
        targets.append(DefectVector.of(0, 0, 0, 3))
    for d in targets:
        res = _search(g, pre, d)
        if res.status == SAT:
            return make_certificate(g, res.coloring, d, "0003-core-lift", res.report)
    raise PipelineError("0003-core-lift: extension search failed for all targets")
