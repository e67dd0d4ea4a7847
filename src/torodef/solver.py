"""Exact decision procedure for (d_1,...,d_k)-colorability with star classes.

Complete backtracking search with saturation-style dynamic vertex ordering
(DSATUR; Brelaz, CACM 22, 1979), symmetry breaking over interchangeable
classes, and optional precoloring.  Feasibility is kept incrementally, so a
search node costs work in the neighbourhood it touches, and the search runs
on an explicit stack rather than Python's call stack.
A brute-force enumeration oracle is provided for cross-validation; it is the
ground truth the search is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .graph import Coloring, DefectVector, Graph, verify_coloring

SAT = "SAT"
UNSAT = "UNSAT"
INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class SolveResult:
    status: str
    coloring: Optional[Coloring]
    nodes: int
    violation: Optional[tuple] = None  # witness for inconsistent precolorings


def solve(g: Graph, d: DefectVector, node_budget: Optional[int] = None) -> SolveResult:
    """Decide whether ``g`` admits a coloring meeting ``d``.

    SAT results carry a coloring that passes :func:`verify_coloring`; UNSAT
    is exact.  When ``node_budget`` is exhausted the distinguished status
    INDETERMINATE is returned (never silently UNSAT); a negative budget
    raises ValueError.  Deterministic.
    """
    return solve_with_precoloring(g, {}, d, node_budget=node_budget)


def solve_with_precoloring(g: Graph, pre: Mapping[int, int], d: DefectVector,
                           node_budget: Optional[int] = None) -> SolveResult:
    """Like :func:`solve`, but extending a partial coloring exactly.

    Precolored vertices are never recolored.  An internally inconsistent
    precoloring yields an immediate UNSAT with a witness violation.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget {node_budget} is negative")
    k = d.k
    defects = [d.entries[c][0] for c in range(k)]
    starred = [d.entries[c][1] for c in range(k)]
    n = g.n
    adj = [sorted(g.adj[v]) for v in range(n)]

    # Per class c, indexed by vertex: colored neighbors in c, neighbors in c
    # already at defect d_c ("saturated"), and whether the vertex may join c.
    # Vertex v may join c iff it would keep within d_c, no saturated neighbor
    # blocks it, and a starred c would keep at most one edge.
    color = [0] * n                          # 1..k, 0 = uncolored
    nb_count = [[0] * n for _ in range(k)]
    sat_count = [[0] * n for _ in range(k)]
    feasible = [[True] * n for _ in range(k)]
    blocked = [0] * n                        # classes v may not join
    mono_used = [0] * k                      # monochromatic edges per class
    class_used = [0] * k                     # vertices per class
    # Uncolored vertices not on the search stack, bucketed by blocked count.
    buckets = [set() for _ in range(k + 1)]
    waiting = [False] * n

    def block(u: int, feas: list[bool]) -> None:
        feas[u] = False
        b = blocked[u]
        blocked[u] = b + 1
        if waiting[u]:
            buckets[b].remove(u)
            buckets[b + 1].add(u)

    def unblock(u: int, feas: list[bool]) -> None:
        feas[u] = True
        b = blocked[u]
        blocked[u] = b - 1
        if waiting[u]:
            buckets[b].remove(u)
            buckets[b - 1].add(u)

    # Placing only raises counts, so it can only block; unplacing only unblocks.
    def place(v: int, c: int) -> None:
        c1, dc, star = c + 1, defects[c], starred[c]
        nbc, satc, feas = nb_count[c], sat_count[c], feasible[c]
        cnt = nbc[v]
        v_sat = cnt == dc
        color[v] = c1
        class_used[c] += 1
        mono = mono_used[c] = mono_used[c] + cnt
        for w in adj[v]:
            m = nbc[w] = nbc[w] + 1
            if v_sat:
                satc[w] += 1
            if color[w] == c1 and m == dc:
                for x in adj[w]:
                    satc[x] += 1
                    if feas[x]:
                        block(x, feas)
            if feas[w] and (v_sat or m > dc or (star and mono + m > 1)):
                block(w, feas)
        if star and cnt:
            for u in range(n):
                if nbc[u] == 1 and feas[u]:
                    block(u, feas)

    def unplace(v: int, c: int) -> None:
        c1, dc, star = c + 1, defects[c], starred[c]
        nbc, satc, feas = nb_count[c], sat_count[c], feasible[c]
        cnt = nbc[v]
        v_sat = cnt == dc
        color[v] = 0
        class_used[c] -= 1
        mono = mono_used[c] = mono_used[c] - cnt
        for w in adj[v]:
            m = nbc[w]
            if color[w] == c1 and m == dc:
                for x in adj[w]:
                    s = satc[x] = satc[x] - 1
                    if not (s or feas[x] or nbc[x] > dc or (star and mono + nbc[x] > 1)):
                        unblock(x, feas)
            m = nbc[w] = m - 1
            if v_sat:
                satc[w] -= 1
            if not (feas[w] or satc[w] or m > dc or (star and mono + m > 1)):
                unblock(w, feas)
        if star and cnt:
            for u in range(n):
                if nbc[u] == 1 and not (feas[u] or satc[u]):
                    unblock(u, feas)

    # Seed the precoloring, reporting the first violated constraint.
    for v in sorted(pre):
        c1 = pre[v]
        if not (1 <= c1 <= k):
            raise ValueError(f"precolored vertex {v} has class {c1}, outside 1..{k}")
        if not feasible[c1 - 1][v]:
            return SolveResult(UNSAT, None, 0, violation=(v, c1))
        place(v, c1 - 1)

    # Classes with identical (defect, star) are interchangeable; within each
    # group only already-used classes plus the first unused one are tried.
    groups: dict[tuple[int, bool], list[int]] = {}
    for c in range(k):
        groups.setdefault((defects[c], starred[c]), []).append(c)

    def allowed_classes() -> list[int]:
        out = []
        for grp in groups.values():
            fresh = True
            for c in grp:
                if class_used[c] > 0:
                    out.append(c)
                elif fresh:
                    out.append(c)
                    fresh = False
        return sorted(out)

    rank = [(-len(adj[v]), v) for v in range(n)]

    def take_next() -> int:
        # Most constrained vertex first, then by degree and index.  A class
        # no vertex uses blocks no vertex, so fewest feasible allowed classes
        # means most blocked classes.
        for bucket in reversed(buckets):
            if bucket:
                v = min(bucket, key=rank.__getitem__)
                bucket.remove(v)
                waiting[v] = False
                return v
        return -1

    for v in range(n):
        if not color[v]:
            waiting[v] = True
            buckets[blocked[v]].add(v)

    # Frames [vertex, allowed classes, next index, placed class or -1].
    nodes = 0
    stack = []
    v = take_next()
    if v >= 0:
        stack.append([v, allowed_classes(), 0, -1])
    found = not stack
    while stack:
        frame = stack[-1]
        v, allowed, i, placed = frame
        if placed >= 0:
            unplace(v, placed)
        while i < len(allowed) and not feasible[allowed[i]][v]:
            i += 1
        if i == len(allowed):
            stack.pop()
            waiting[v] = True
            buckets[blocked[v]].add(v)
            continue
        c = allowed[i]
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return SolveResult(INDETERMINATE, None, nodes)
        place(v, c)
        frame[2], frame[3] = i + 1, c
        u = take_next()
        if u < 0:
            found = True
            break
        # The allowed classes change only when c was unused before.
        stack.append([u, allowed if class_used[c] > 1 else allowed_classes(), 0, -1])

    if not found:
        return SolveResult(UNSAT, None, nodes)
    out = tuple(color)
    report = verify_coloring(g, out, d)
    if not report.valid:
        raise AssertionError("search returned a coloring the verifier rejects")
    for v, c1 in pre.items():
        if out[v] != c1:
            raise AssertionError("precolored vertex was recolored")
    return SolveResult(SAT, out, nodes)


def enumerate_oracle(g: Graph, d: DefectVector, bound: int = 10 ** 8) -> SolveResult:
    """Ground truth by exhaustive enumeration of all k^n class assignments.

    Refuses instances with k^n above ``bound`` rather than sampling.
    """
    k = d.k
    n = g.n
    if k ** n > bound:
        raise ValueError(f"{k}^{n} assignments exceed the enumeration bound {bound}")
    defects = [d.entries[c][0] for c in range(k)]
    starred = [d.entries[c][1] for c in range(k)]
    edges = list(g.edges())
    assignment = [1] * n
    checked = 0
    while True:
        checked += 1
        induced = [0] * n
        mono = [0] * k
        ok = True
        for u, v in edges:
            if assignment[u] == assignment[v]:
                c = assignment[u] - 1
                induced[u] += 1
                induced[v] += 1
                mono[c] += 1
                if induced[u] > defects[c] or induced[v] > defects[c]:
                    ok = False
                    break
                if starred[c] and mono[c] > 1:
                    ok = False
                    break
        if ok:
            out = tuple(assignment)
            report = verify_coloring(g, out, d)
            if not report.valid:
                raise AssertionError("oracle accepted a coloring the verifier rejects")
            return SolveResult(SAT, out, checked)
        # next assignment, odometer style
        i = n - 1
        while i >= 0 and assignment[i] == k:
            assignment[i] = 1
            i -= 1
        if i < 0:
            return SolveResult(UNSAT, None, checked)
        assignment[i] += 1
