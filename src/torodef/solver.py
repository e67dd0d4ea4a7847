"""Exact decision procedure for (d_1,...,d_k)-colorability with star classes.

Complete backtracking search with saturation-style dynamic vertex ordering,
symmetry breaking over interchangeable classes, and optional precoloring.
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


class _Budget(Exception):
    pass


def solve(g: Graph, d: DefectVector, node_budget: Optional[int] = None) -> SolveResult:
    """Decide whether ``g`` admits a coloring meeting ``d``.

    SAT results carry a coloring that passes :func:`verify_coloring`; UNSAT
    is exact.  When ``node_budget`` is exhausted the distinguished status
    INDETERMINATE is returned (never silently UNSAT).  Deterministic.
    """
    return solve_with_precoloring(g, {}, d, node_budget=node_budget)


def solve_with_precoloring(g: Graph, pre: Mapping[int, int], d: DefectVector,
                           node_budget: Optional[int] = None) -> SolveResult:
    """Like :func:`solve`, but extending a partial coloring exactly.

    Precolored vertices are never recolored.  An internally inconsistent
    precoloring yields an immediate UNSAT with a witness violation.
    """
    k = d.k
    defects = [d.entries[c][0] for c in range(k)]
    starred = [d.entries[c][1] for c in range(k)]
    n = g.n
    adj = [sorted(g.adj[v]) for v in range(n)]

    color = [0] * n                        # 1..k, 0 = uncolored
    nb_count = [[0] * k for _ in range(n)]  # colored neighbors per class
    mono_used = [0] * k                    # monochromatic edges per class
    class_used = [0] * k                   # vertices per class
    nodes = 0

    def place(v: int, c: int) -> None:
        color[v] = c + 1
        class_used[c] += 1
        mono_used[c] += nb_count[v][c]
        for w in adj[v]:
            nb_count[w][c] += 1

    def unplace(v: int, c: int) -> None:
        color[v] = 0
        class_used[c] -= 1
        for w in adj[v]:
            nb_count[w][c] -= 1
        mono_used[c] -= nb_count[v][c]

    # Seed the precoloring, reporting the first violated constraint.
    for v in sorted(pre):
        c1 = pre[v]
        if not (1 <= c1 <= k):
            raise ValueError(f"precolored vertex {v} has class {c1}, outside 1..{k}")
        c = c1 - 1
        if not _feasible(v, c, adj, color, nb_count, mono_used, defects, starred):
            return SolveResult(UNSAT, None, 0, violation=(v, c1))
        place(v, c)

    # Classes with identical (defect, star) are interchangeable; within each
    # group only already-used classes plus the first unused one are tried.
    groups: dict[tuple[int, bool], list[int]] = {}
    for c in range(k):
        groups.setdefault((defects[c], starred[c]), []).append(c)
    group_of = {c: tuple(grp) for grp in groups.values() for c in grp}

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

    uncolored = [v for v in range(n) if color[v] == 0]

    def search() -> bool:
        nonlocal nodes
        if not uncolored:
            return True
        # Most constrained vertex first; ties by degree, then index.
        best_v = -1
        best_key = None
        allowed = allowed_classes()
        for v in uncolored:
            cnt = 0
            for c in allowed:
                if _feasible(v, c, adj, color, nb_count, mono_used, defects, starred):
                    cnt += 1
            key = (cnt, -len(adj[v]), v)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
                if cnt == 0:
                    break
        v = best_v
        uncolored.remove(v)
        for c in allowed:
            if not _feasible(v, c, adj, color, nb_count, mono_used, defects, starred):
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _Budget
            place(v, c)
            if search():
                return True
            unplace(v, c)
        uncolored.append(v)
        return False

    try:
        found = search()
    except _Budget:
        return SolveResult(INDETERMINATE, None, nodes)

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


def _feasible(v, c, adj, color, nb_count, mono_used, defects, starred) -> bool:
    cnt = nb_count[v][c]
    if cnt > defects[c]:
        return False
    if starred[c] and mono_used[c] + cnt > 1:
        return False
    if cnt:
        for w in adj[v]:
            if color[w] == c + 1 and nb_count[w][c] + 1 > defects[c]:
                return False
    return True


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
