"""Simple undirected graphs and the defect-coloring verifier.

Vertices are dense integers ``0..n-1``.  All structures are immutable after
construction, so they can be shared freely between concurrent tasks.

``verify_coloring`` is the single source of truth for every coloring claim
made anywhere in this package: constructions check their own output against
it before returning a certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbor sets.

    Invariants (enforced by :func:`build_graph` and :func:`_graph_from_rows`):
    no self-loops, adjacency is symmetric, and no multi-edges.
    """

    n: int
    adj: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as sorted pairs, in lexicographic order."""
        for u in range(self.n):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph on vertices ``0..n-1`` from an edge list.

    Duplicate edges are collapsed.  Raises ``ValueError`` for out-of-range
    endpoints or self-loops, naming the offending pair.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(frozenset(a) for a in adj))


def _graph_from_rows(rows: Sequence[Sequence[int]], base: int = 0, error=ValueError) -> Graph:
    """The simple graph in which vertex v has the neighbors ``rows[v]``: each
    a vertex other than v, listed once, that lists v back.  Else ``error``
    names the first bad row, vertices numbered from ``base`` (1 for a file)."""
    n = len(rows)
    adj = tuple(frozenset(set(row)) for row in rows)  # via a set: sized to fit, a third smaller
    for v, row in enumerate(rows):
        if v in adj[v] or len(adj[v]) != len(row):
            what = "itself as a neighbor" if v in adj[v] else "a neighbor twice"
            raise error(f"vertex {v + base} lists {what}")
        for w in row:
            if not 0 <= w < n:
                raise error(f"neighbor {w + base} of vertex {v + base} out of range")
            if v not in adj[w]:
                raise error(f"vertex {v + base} lists {w + base}, which does not list it back")
    return Graph(n, adj)


@dataclass(frozen=True)
class DefectVector:
    """Coloring target: ordered (defect bound, star flag) pairs.

    A starred entry means the class may contain at most one edge in total;
    the star is only meaningful for defect 1.
    """

    entries: tuple[tuple[int, bool], ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("defect vector must have at least one class")
        for i, (d, star) in enumerate(self.entries):
            if d < 0:
                raise ValueError(f"defect d_{i + 1} = {d} is negative")
            if star and d != 1:
                raise ValueError(f"starred defect d_{i + 1} must equal 1, got {d}")

    @property
    def k(self) -> int:
        return len(self.entries)

    @classmethod
    def of(cls, *defects: int, stars: Sequence[int] = ()) -> "DefectVector":
        """Build from plain defects; ``stars`` lists 0-based starred positions."""
        return cls(tuple((d, i in set(stars)) for i, d in enumerate(defects)))

    @classmethod
    def parse(cls, text: str) -> "DefectVector":
        """Parse the external form, e.g. ``"0,0,0,1*"``."""
        entries = []
        for part in text.split(","):
            part = part.strip()
            star = part.endswith("*")
            if star:
                part = part[:-1]
            if not part.isdigit():
                raise ValueError(f"malformed defect entry {part!r} in {text!r}")
            entries.append((int(part), star))
        return cls(tuple(entries))

    def __str__(self) -> str:
        return ",".join(f"{d}*" if star else str(d) for d, star in self.entries)


# A coloring is a total map vertex -> class index in 1..k, stored densely.
Coloring = tuple[int, ...]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one coloring against one defect vector."""

    valid: bool
    max_degrees: tuple[int, ...]          # per class, max induced degree
    mono_counts: tuple[int, ...]          # per class, monochromatic edge count
    mono_edges: tuple[tuple[tuple[int, int], ...], ...]  # per class, sorted
    first_violation: Optional[tuple[int, object]]  # (class index 1..k, vertex or edge)

    def all_mono_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for per_class in self.mono_edges for e in per_class)


def verify_coloring(g: Graph, coloring: Sequence[int], d: DefectVector) -> VerificationReport:
    """Check that each class i induces max degree <= d_i (and, for starred
    classes, at most one monochromatic edge).

    Pure and deterministic.  Raises ``ValueError`` if the coloring is not a
    total map into ``1..k``.
    """
    k = d.k
    if len(coloring) != g.n:
        raise ValueError(f"coloring covers {len(coloring)} vertices, graph has {g.n}")

    mono: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    induced_deg = [0] * g.n
    max_degrees = [0] * k
    for u, c in enumerate(coloring):
        if not 1 <= c <= k:
            raise ValueError(f"vertex {u} has class {c}, outside 1..{k}")
        for v in g.adj[u]:
            if coloring[v] == c:
                induced_deg[u] += 1
                if u < v:
                    mono[c - 1].append((u, v))
        max_degrees[c - 1] = max(max_degrees[c - 1], induced_deg[u])
    for m in mono:
        m.sort()  # lexicographic, as the star budget's first violation reads them

    # Lexicographically first violation: scan classes in order, then the
    # smallest offending vertex (degree bound) before the star budget.
    first_violation: Optional[tuple[int, object]] = None
    for c in range(1, k + 1):
        bound, star = d.entries[c - 1]
        if max_degrees[c - 1] > bound:
            first_violation = (c, next(v for v in range(g.n)
                                       if coloring[v] == c and induced_deg[v] > bound))
            break
        if star and len(mono[c - 1]) > 1:
            first_violation = (c, mono[c - 1][1])
            break

    return VerificationReport(
        valid=first_violation is None,
        max_degrees=tuple(max_degrees),
        mono_counts=tuple(len(m) for m in mono),
        mono_edges=tuple(tuple(m) for m in mono),
        first_violation=first_violation,
    )


def degeneracy(g: Graph) -> tuple[int, frozenset[int]]:
    """Degeneracy by min-degree peeling, plus the 6-core.

    The degeneracy is the largest degree a vertex has when it is peeled.
    The returned core is the maximal induced subgraph of minimum degree at
    least 6 (empty when the degeneracy is below 6): a vertex's core number
    is the largest peel degree up to its own removal (Matula & Beck, JACM
    30, 1983), so the 6-core is the part of the peel from the first vertex
    removed at degree 6 or more onward.
    """
    order, peel_deg = _min_degree_peel(g)
    core_numbers = list(accumulate(peel_deg, max))
    core = frozenset(v for v, c in zip(order, core_numbers) if c >= 6)
    return (core_numbers[-1] if core_numbers else 0), core


def _min_degree_peel(g: Graph) -> tuple[list[int], list[int]]:
    """Repeatedly remove a vertex of least remaining degree, smallest index
    first among ties.

    Returns the removal order and each removed vertex's degree at removal.
    Reversed, the order is a smallest-last order: every vertex has at most
    the degeneracy many neighbors before it.  The queue holds one bucket per
    degree, each a heap of vertex indices with stale entries skipped on
    pop; the lowest nonempty bucket drops by at most one per removal, so the
    peel costs O(n + m log n).
    """
    deg = [len(a) for a in g.adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(g.n):
        buckets[deg[v]].append(v)  # ascending, so already a heap
    removed = [False] * g.n
    order: list[int] = []
    peel_deg: list[int] = []
    low = 0
    while len(order) < g.n:
        while not buckets[low]:
            low += 1
        v = heappop(buckets[low])
        if removed[v] or deg[v] != low:
            continue
        removed[v] = True
        order.append(v)
        peel_deg.append(low)
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heappush(buckets[deg[w]], w)
        low = max(low - 1, 0)
    return order, peel_deg


def join(g1: Graph, g2: Graph) -> Graph:
    """Graph join: disjoint union plus all edges between the two parts.

    Vertices of ``g2`` are relabeled to ``g1.n .. g1.n + g2.n - 1``.
    """
    off = g1.n
    edges = list(g1.edges())
    edges += [(u + off, v + off) for u, v in g2.edges()]
    edges += [(u, v + off) for u in range(g1.n) for v in range(g2.n)]
    return build_graph(g1.n + g2.n, edges)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``s``, plus the map new index -> original vertex."""
    verts = sorted(set(s))
    for v in verts:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return build_graph(len(verts), edges), tuple(verts)
