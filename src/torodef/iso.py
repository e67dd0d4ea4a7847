"""Graph isomorphism by individualization-refinement (McKay & Piperno,
"Practical graph isomorphism, II", 2014).

Colour refinement runs on the disjoint union of the two graphs, g2's
vertex x standing at index n + x, so one cell is a colour class of both
halves at once; a branch dies as soon as some cell holds a different
number of vertices from each half.  Refinement is driven by a worklist of
split cells: a cell taken from it costs the edges at its vertices, and
only the vertices those edges reach are moved.  Where the equitable
partition is not discrete, the first g1 vertex of the smallest non-trivial
cell is individualized against each g2 vertex of that cell in turn, on an
explicit stack.  A discrete partition pairs each g1 vertex with one g2
vertex; that bijection is re-checked for adjacency preservation in both
directions before it is returned.  No external canonical-labeling tool is
used.
"""
from __future__ import annotations

from typing import Optional

from .graph import Graph


def _refine(adj: list, n: int, cells: list, col: list, queue: list) -> bool:
    """Split ``cells`` (sets of union vertices; ``col`` maps a vertex to
    its cell's index) until the partition is equitable.  A cell taken from
    ``queue`` splits every cell by neighbour counts into it.  The largest
    piece keeps the old index and the others are queued.  False as soon as
    some piece is unbalanced."""
    while queue:
        count: dict[int, int] = {}
        for w in cells[queue.pop()]:
            for u in adj[w]:
                count[u] = count.get(u, 0) + 1
        hits: dict[int, dict[int, set[int]]] = {}
        for u, k in count.items():
            hits.setdefault(col[u], {}).setdefault(k, set()).add(u)
        for c in sorted(hits):
            cell, parts = cells[c], hits[c]
            if len(parts) == 1 and sum(map(len, parts.values())) == len(cell):
                continue
            for part in parts.values():
                if 2 * sum(u < n for u in part) != len(part):
                    return False
                cell -= part
            if cell:
                parts[0] = cell  # the vertices with no neighbour in the splitter
            keys = sorted(parts)
            keep = max(keys, key=lambda k: len(parts[k]))
            cells[c] = parts[keep]
            for k in keys:
                if k != keep:
                    for u in parts[k]:
                        col[u] = len(cells)
                    queue.append(len(cells))
                    cells.append(parts[k])
    return True


def _check_witness(g1: Graph, g2: Graph, mapping: dict[int, int]) -> bool:
    if sorted(mapping) != list(range(g1.n)) or sorted(mapping.values()) != list(range(g2.n)):
        return False
    for u in range(g1.n):
        if {mapping[w] for w in g1.adj[u]} != set(g2.adj[mapping[u]]):
            return False
    return True


def are_isomorphic(g1: Graph, g2: Graph) -> tuple[bool, Optional[dict[int, int]]]:
    """Decide isomorphism; on success also return a certified bijection."""
    n = g1.n
    if n != g2.n or g1.m != g2.m:
        return False, None
    adj = [list(a) for a in g1.adj] + [[n + w for w in a] for a in g2.adj]
    # twin[x]: the first g2 vertex with x's open or closed neighbourhood.
    # Swapping twins is an automorphism of g2 that fixes the partition, so
    # a cell needs one branch per twin class.
    first: dict[frozenset, int] = {}
    twin = [first.setdefault(a, first.setdefault(a | {x}, x)) for x, a in enumerate(g2.adj)]
    # Each entry is a partition and the (g1, g2) pair to individualize in
    # it; a popped entry is copied, so siblings share their parent's lists.
    stack = [([set(range(2 * n))], [0] * (2 * n), None)]
    while stack:
        cells, col, pair = stack.pop()
        cells, col = [set(c) for c in cells], col[:]
        if pair:
            cells[col[pair[0]]].difference_update(pair)
            cells.append(set(pair))
            col[pair[0]] = col[pair[1]] = len(cells) - 1
        if not _refine(adj, n, cells, col, [len(cells) - 1]):
            continue
        open_cells = [c for c in cells if len(c) > 2]
        if not open_cells:
            mapping = {min(c): max(c) - n for c in cells if c}
            if not _check_witness(g1, g2, mapping):
                raise AssertionError("isomorphism witness failed re-check")
            return True, mapping
        cell = min(open_cells, key=len)
        v = min(cell)
        reps: dict[int, int] = {}
        for x in sorted(u for u in cell if u >= n):
            reps.setdefault(twin[x - n], x)
        stack.extend((cells, col, (v, x)) for x in sorted(reps.values(), reverse=True))
    return False, None
