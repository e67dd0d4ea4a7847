"""Exact decision procedure for (d_1,...,d_k)-colorability with star classes.

Complete backtracking search with saturation-style dynamic vertex ordering
(DSATUR; Brelaz, CACM 22, 1979), symmetry breaking over interchangeable
classes, and optional precoloring, on Python ints used as vertex bitsets
(after San Segundo et al., Computers & OR 38, 2011).  Each class keeps a
mask of the vertices that may still join it.  A starred class (defect 1, at
most one edge) also keeps one mask, its reach (the union of its members'
neighbourhoods), and its edge count, 0 or 1.  A non-starred defective class
keeps bit planes counting each vertex's neighbours in the class, its
members, and the vertices next to a member at its defect.  Bit planes count
each vertex's blocked classes; the next vertex is the uncolored one with the
most, then the highest degree, then the lowest index.  Placing only shrinks
masks, and each frame of the explicit stack keeps what its undo needs: the
newly blocked vertices (they restore the class mask and the blocked counts),
plus the old reach and the edge the vertex made for a starred class, or the
old saturation mask for a defective class, whose neighbour counts are
restored by subtraction.
On a graph that v -> v+1 (mod n) maps onto itself, :func:`solve` splits a
starred class on its one edge, fixed at vertex 0 by the rotation, and tries
that class without an edge last (symmetry breaking over the rotation group;
after Crawford, Ginsberg, Luks & Roy, KR 1996).
A brute-force enumeration oracle is provided for cross-validation; it is the
ground truth the search is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Mapping, Optional

from .graph import Coloring, DefectVector, Graph, VerificationReport, verify_coloring

SAT = "SAT"
UNSAT = "UNSAT"
INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class SolveResult:
    status: str
    coloring: Optional[Coloring]
    nodes: int
    violation: Optional[tuple] = None  # witness for inconsistent precolorings
    # The search's own check of a SAT coloring, a function of the coloring.
    report: Optional[VerificationReport] = field(default=None, compare=False, repr=False)


def solve(g: Graph, d: DefectVector, node_budget: Optional[int] = None) -> SolveResult:
    """Decide whether ``g`` admits a coloring meeting ``d``.

    SAT results carry a coloring that passes :func:`verify_coloring`, with
    that check's report; UNSAT is exact.  When ``node_budget`` is exhausted
    the distinguished status INDETERMINATE is returned (never silently
    UNSAT); a negative budget raises ValueError.  Deterministic.

    When ``d`` has a starred class s, ``g`` has an edge and v -> v+1 (mod n)
    is an automorphism of ``g``, the search is split into cases.  s holds at
    most one edge, and the rotation carries any edge onto one at vertex 0, so
    first s holds the edge (0, x), for each neighbour x of 0 with 2x <= n in
    increasing order (both ends precolored s), and last s holds no edge (s
    searched as a proper class).  The first SAT case is returned; the cases
    share the budget, and ``nodes`` is their sum.  Otherwise this is
    :func:`solve_with_precoloring` with no precoloring.
    """
    n = g.n
    s = next((c for c, (_, star) in enumerate(d.entries) if star), None)
    if (s is None or not any(g.adj)
            or any(g.adj[(v + 1) % n] != {(w + 1) % n for w in a} for v, a in enumerate(g.adj))):
        return solve_with_precoloring(g, {}, d, node_budget=node_budget)
    proper = list(d.entries)
    proper[s] = (0, False)
    cases = [({0: s + 1, x: s + 1}, d) for x in sorted(g.adj[0]) if 2 * x <= n]
    cases.append(({}, DefectVector(tuple(proper))))
    nodes = 0
    for pre, dc in cases:
        left = None if node_budget is None else node_budget - nodes
        res = solve_with_precoloring(g, pre, dc, node_budget=left)
        nodes += res.nodes
        if res.status != UNSAT:  # SAT, or the budget ran out
            return replace(res, nodes=nodes)
    return SolveResult(UNSAT, None, nodes)


def solve_with_precoloring(g: Graph, pre: Mapping[int, int], d: DefectVector,
                           node_budget: Optional[int] = None) -> SolveResult:
    """Like :func:`solve`, but extending a partial coloring exactly.

    Precolored vertices are never recolored.  An internally inconsistent
    precoloring yields an immediate UNSAT with a witness violation; a vertex
    outside 0..n-1 or a class outside 1..k raises ValueError.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget {node_budget} is negative")
    k, n = d.k, g.n
    for v, c1 in pre.items():
        if not 0 <= v < n:
            raise ValueError(f"precolored vertex {v} is outside 0..{n - 1}")
        if not 1 <= c1 <= k:
            raise ValueError(f"precolored vertex {v} has class {c1}, outside 1..{k}")
    defects = [d.entries[c][0] for c in range(k)]
    starred = [d.entries[c][1] for c in range(k)]
    nbr = []                                 # neighbour masks
    for a in g.adj:
        m = 0
        for w in a:
            m |= 1 << w
        nbr.append(m)
    # Vertices per degree, highest first.  The lowest degree never narrows
    # the candidates, so its mask is left out.
    degrees = sorted({len(a) for a in g.adj}, reverse=True)
    by_degree = [sum(1 << v for v, a in enumerate(g.adj) if len(a) == t) for t in degrees[:-1]]
    class_used = [0] * k                     # vertices per class
    uncolored = (1 << n) - 1
    feas = [uncolored] * k
    blocked = [0] * k.bit_length()           # blocked-class count planes, high bit first
    planes = [[0] * max([dc + 1, *degrees]).bit_length() for dc in defects]  # neighbours in c
    members = [0] * k
    near_sat = [0] * k                       # vertices next to a saturated member
    reach = [0] * k                          # starred: vertices next to a member
    edges = [0] * k                          # starred: monochromatic edges, 0 or 1

    # Counts are bit-sliced: bit v of pl[j] is bit j of vertex v's count.
    def count(pl: list[int], v: int) -> int:
        return sum((p >> v & 1) << j for j, p in enumerate(pl))

    def at_least(pl: list[int], t: int) -> int:  # vertices counting t or more
        gt, eq = 0, -1
        for j in range(len(pl) - 1, -1, -1):
            if t >> j & 1:
                eq &= pl[j]
            else:
                gt |= eq & pl[j]
                eq &= ~pl[j]
        return gt | eq

    # Placing only shrinks feasibility.  The returned record undoes it: the
    # class, the newly blocked vertices, the old saturation or reach mask,
    # and the edges v made in a starred class.
    def place(v: int, bit: int, c: int) -> tuple:
        nonlocal uncolored
        class_used[c] += 1
        uncolored ^= bit
        f, nv = feas[c], nbr[v]
        old = cnt = 0
        if not defects[c]:
            delta = f & nv
        elif starred[c]:
            # Blocked: a second neighbour in c, or c's reach once c has its
            # edge.  So a feasible v has at most one neighbour in c.
            old = r = reach[c]
            reach[c] = r | nv
            if edges[c]:
                delta = f & nv
            elif r & bit:
                cnt = edges[c] = 1
                delta = f & (r | nv)
            else:
                delta = f & nv & r
        else:
            pl, dc = planes[c], defects[c]
            cnt = count(pl, v)
            j, x = 0, nv                     # count += 1 on v's neighbours
            while x:
                p = pl[j]
                pl[j] = p ^ x
                x &= p
                j += 1
            members[c] |= bit
            old = sat = near_sat[c]
            if cnt == dc:
                sat |= nv
            x = members[c] & nv
            while x:
                w = (x & -x).bit_length() - 1
                x &= x - 1
                if count(pl, w) == dc:
                    sat |= nbr[w]
            near_sat[c] = sat
            delta = f & (sat | at_least(pl, dc + 1))
        feas[c] = f ^ delta
        j, x = -1, delta                     # blocked += 1 on delta
        while x:
            p = blocked[j]
            blocked[j] = p ^ x
            x &= p
            j -= 1
        return c, delta, old, cnt

    # Seed the precoloring, reporting the first violated constraint.
    for v in sorted(pre):
        c = pre[v] - 1
        if not feas[c] >> v & 1:
            return SolveResult(UNSAT, None, 0, violation=(v, c + 1))
        place(v, 1 << v, c)

    # Classes with identical (defect, star) are interchangeable; within each
    # group only already-used classes plus the first unused one are tried.
    groups: dict[tuple[int, bool], list[int]] = {}
    for c in range(k):
        groups.setdefault((defects[c], starred[c]), []).append(c)

    def allowed_classes() -> list[int]:
        out = []
        for grp in groups.values():
            out += [c for c in grp if class_used[c]] + [c for c in grp if not class_used[c]][:1]
        return sorted(out)

    # Each placed vertex has a frame (vertex, allowed classes, an iterator
    # over them, undo record).  A vertex sees the same feasibility masks each
    # time its iterator resumes, since all placed after it has been undone,
    # so each class is tested when the iterator reaches it.
    nodes = 0
    stack = []
    allowed = allowed_classes()
    while True:
        # Most constrained vertex first, then by degree and index.  A class
        # no vertex uses blocks no vertex, so fewest feasible allowed classes
        # means most blocked classes.
        cand = uncolored
        if not cand:
            break
        for p in blocked:
            t = cand & p
            if t:
                cand = t
        for mask in by_degree:
            t = cand & mask
            if t:
                cand = t
                break
        v = (cand & -cand).bit_length() - 1
        bit, left = 1 << v, iter(allowed)
        while True:
            for c in left:
                if feas[c] & bit:
                    break
            else:  # no class left for v: unplace the vertex below it
                if not stack:
                    return SolveResult(UNSAT, None, nodes)
                v, allowed, left, (c, delta, old, cnt) = stack.pop()
                bit = 1 << v
                class_used[c] -= 1
                uncolored |= bit
                if starred[c]:
                    reach[c] = old
                    edges[c] -= cnt
                elif defects[c]:
                    pl, j, x = planes[c], 0, nbr[v]  # count -= 1 on v's neighbours
                    while x:
                        p = pl[j]
                        pl[j] = p ^ x
                        x &= ~p
                        j += 1
                    members[c] ^= bit
                    near_sat[c] = old
                feas[c] |= delta
                j = -1                       # blocked -= 1 on delta
                while delta:
                    p = blocked[j]
                    blocked[j] = p ^ delta
                    delta &= ~p
                    j -= 1
                continue
            break
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return SolveResult(INDETERMINATE, None, nodes)
        stack.append((v, allowed, left, place(v, bit, c)))
        # The allowed classes change only when c was unused before.
        if class_used[c] == 1:
            allowed = allowed_classes()

    color = [0] * n
    for v, _, _, (c, *_) in stack:
        color[v] = c + 1
    for v, c1 in pre.items():
        if color[v]:
            raise AssertionError("precolored vertex was recolored")
        color[v] = c1
    out = tuple(color)
    report = verify_coloring(g, out, d)
    if not report.valid:
        raise AssertionError("search returned a coloring the verifier rejects")
    return SolveResult(SAT, out, nodes, report=report)


def enumerate_oracle(g: Graph, d: DefectVector, bound: int = 10 ** 8) -> SolveResult:
    """Ground truth by exhaustive enumeration of all k^n class assignments.

    Refuses instances with k^n above ``bound`` rather than sampling.
    """
    k, n = d.k, g.n
    if k ** n > bound:
        raise ValueError(f"{k}^{n} assignments exceed the enumeration bound {bound}")
    edges = list(g.edges())
    checked = 0
    for out in product(range(1, k + 1), repeat=n):  # odometer order, last vertex fastest
        checked += 1
        induced = [0] * n
        mono = [0] * k
        for u, v in edges:
            if out[u] == out[v]:
                c = out[u] - 1
                induced[u] += 1
                induced[v] += 1
                mono[c] += 1
                dc, star = d.entries[c]
                if induced[u] > dc or induced[v] > dc or (star and mono[c] > 1):
                    break
        else:
            if not verify_coloring(g, out, d).valid:
                raise AssertionError("oracle accepted a coloring the verifier rejects")
            return SolveResult(SAT, out, checked)
    return SolveResult(UNSAT, None, checked)
