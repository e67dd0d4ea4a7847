"""Rotation-system embeddings and the surgeries used by the colorings.

A rotation system (per-vertex cyclic order of neighbors, counterclockwise)
determines an orientable cellular embedding.  This module traces faces,
computes the Euler genus, assigns Z2-homology signatures to edges through a
tree-cotree decomposition, finds shortest non-contractible cycles, and
implements the two surgeries the coloring pipelines need: cutting the torus
along a non-contractible cycle and contracting both copies to single
vertices, with a genus-0 rotation system that certifies the result planar,
and contracting a path into one vertex.  A rotation system keeps its dart
table, root-0 BFS tree (the genus's connectivity check, shared by the
signatures and the cycle search), faces, genus, shortest non-contractible
cycle and cut once computed; rows become a graph through the one builder
``graph._graph_from_rows``.  One breadth-first search, ``_bfs``, grows every
tree here: root 0's, one per root of the cycle search, and ``shortest_path``'s.

Darts are ints, and a face is a cycle of the face permutation succ . twin.
Homology signatures are bitmasks over the ``eg`` leftover edges of the
tree-cotree decomposition, one per dart and equal on an edge's two darts; a
cycle on the torus is contractible exactly when its signature is zero (on
the torus, contractible = separating = Z2-null-homologous).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .graph import Graph, _graph_from_rows, build_graph


@dataclass(frozen=True)
class RotationSystem:
    """A graph together with a counterclockwise neighbor order at each vertex.

    The rotation alone determines the dart table, the faces, the genus and,
    on the torus, the shortest non-contractible cycle and the cut along it.
    :attr:`darts`, :attr:`faces`, :attr:`genus`, :attr:`sncc` and :attr:`cut`
    compute each once per object, and every reader goes through them.
    """

    graph: Graph
    rot: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        g = self.graph
        if len(self.rot) != g.n:
            raise ValueError("rotation must list every vertex")
        for v, row in enumerate(self.rot):
            if len(row) != len(g.adj[v]) or set(row) != g.adj[v]:
                raise ValueError(f"rotation at vertex {v} does not match its neighbors")

    @functools.cached_property
    def darts(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The dart table ``(off, head, twin, succ)``, built on first use and kept.

        Darts are numbered in lexicographic (tail, head) order, v's from
        ``off[v]`` to ``off[v + 1]``; ``twin[d]`` is d reversed and ``succ[d]``
        the next dart counterclockwise at d's tail.  Only this table maps
        vertex pairs to darts."""
        g = self.graph
        head = [w for a in g.adj for w in sorted(a)]
        off = [0, *accumulate(map(len, g.adj))]
        dart = [{w: d for d, w in enumerate(head[off[u]:off[u + 1]], off[u])} for u in range(g.n)]
        twin = [dart[w][u] for u in range(g.n) for w in head[off[u]:off[u + 1]]]
        succ = [0] * len(head)
        for u, row in enumerate(self.rot):
            for w, x in zip(row, row[1:] + row[:1]):
                succ[dart[u][w]] = dart[u][x]
        return off, head, twin, succ

    @functools.cached_property
    def _tree(self) -> tuple[list[int], list[int], list[int]]:
        """Root 0's BFS tree of :func:`_bfs` over the sorted neighbor lists, grown once:
        the connectivity check of :func:`euler_genus` and the spanning tree of
        :func:`edge_signatures` and of the SNCC's class search."""
        off, head, _, _ = self.darts
        n = self.graph.n
        return _bfs([head[off[u]:off[u + 1]] for u in range(n)], 0, n)

    @functools.cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The facial walks of :func:`trace_faces`, traced on first use and kept."""
        return trace_faces(self)

    @functools.cached_property
    def genus(self) -> int:
        """The Euler genus of :func:`euler_genus`, computed on first use and kept."""
        return euler_genus(self)

    @functools.cached_property
    def sncc(self) -> CycleCert:
        """The cycle of :func:`shortest_noncontractible_cycle`, found on first use and kept."""
        return shortest_noncontractible_cycle(self)

    @functools.cached_property
    def cut(self) -> CutResult:
        """The cut of :func:`cut_and_contract` along :attr:`sncc`, made on first use and kept."""
        return cut_and_contract(self, self.sncc)


@dataclass(frozen=True)
class CycleCert:
    """A cycle of the embedded graph together with its homology signature."""

    vertices: tuple[int, ...]  # closed, first vertex not repeated
    signature: int

    @property
    def length(self) -> int:
        return len(self.vertices)


def trace_faces(rot: RotationSystem) -> tuple[tuple[int, ...], ...]:
    """Partition all darts into facial walks, the cycles of d -> succ[twin[d]].

    From dart (u -> v) the walk continues with the successor of (v -> u) in
    v's rotation.  Every dart lies in exactly one face, so the face degrees
    sum to twice the edge count.  Each face starts at its smallest dart, and
    the faces come in the order of those darts.  The package traces each
    rotation system once, through its cached :attr:`RotationSystem.faces`.
    """
    _, head, twin, succ = rot.darts
    seen = [False] * len(head)
    faces = []
    for start in range(len(head)):
        if seen[start]:
            continue
        walk = []
        d = start
        while not seen[d]:  # phi is a permutation: the walk closes at start
            seen[d] = True
            walk.append(d)
            d = succ[twin[d]]
        faces.append(tuple(walk))
    return tuple(faces)


def euler_genus(rot: RotationSystem) -> int:
    """Euler genus 2 - (|V| - |E| + |F|); even for rotation systems.

    Faces (the cached :attr:`RotationSystem.faces`) are traced along darts,
    so a graph without edges has none, and the faces of a disconnected graph
    lie on several surfaces: both are a ``ValueError``, the second found by
    root 0's kept BFS tree falling short of some vertex.  The package reads it
    once per rotation system, through the cached :attr:`RotationSystem.genus`.
    """
    g = rot.graph
    if g.m == 0 or len(rot._tree[0]) != g.n:
        raise ValueError("Euler genus needs a connected graph with at least one edge")
    eg = 2 - (g.n - g.m + len(rot.faces))
    if eg < 0 or eg % 2 != 0:
        raise AssertionError(f"impossible Euler genus {eg} from face tracing")
    return eg


def edge_signatures(rot: RotationSystem) -> list[int]:
    """Z2-homology signature of every dart, via tree-cotree decomposition.

    Both darts of an edge carry its signature; an edge is named by its smaller
    dart.  A spanning tree T gets signature 0; a spanning tree of the dual
    (built from edges outside T) is peeled from the leaves so that every
    facial walk sums to zero; the ``eg`` leftover edges each carry one
    distinct bit.  Degenerate graphs are a ``ValueError``, as in :func:`euler_genus`.
    """
    eg = rot.genus
    faces = rot.faces
    _, head, twin, _ = rot.darts

    # Root 0's BFS tree spans the primal graph; the other edges by their smaller darts.
    parent = rot._tree[2]
    nontree = [d for d, w in enumerate(head) if d < twin[d]
               and parent[w] != head[twin[d]] and parent[head[twin[d]]] != w]

    face_of = [0] * len(head)
    for fi, walk in enumerate(faces):
        for d in walk:
            face_of[d] = fi

    # Spanning tree of the dual restricted to non-tree edges (the cotree).
    incident: list[list[int]] = [[] for _ in faces]
    for e in nontree:
        for f in (face_of[e], face_of[twin[e]]):
            incident[f].append(e)
    dual_parent = [-1] * len(faces)  # the cotree edge to each face but the root 0
    dual_order = [0]
    for f in dual_order:  # the list grows while it is read: a FIFO queue
        for e in incident[f]:
            for f2 in (face_of[e], face_of[twin[e]]):
                if f2 != 0 and dual_parent[f2] < 0:
                    dual_parent[f2] = e
                    dual_order.append(f2)
    if len(dual_order) != len(faces):
        raise AssertionError("dual graph disconnected under non-tree edges")

    cotree = set(dual_parent)
    leftover = [e for e in nontree if e not in cotree]
    if len(leftover) != eg:
        raise AssertionError(f"{len(leftover)} leftover edges, expected Euler genus {eg}")

    sig = [0] * len(head)
    for bit, e in enumerate(leftover):
        sig[e] = sig[twin[e]] = 1 << bit

    # Peel the dual tree from the leaves: a face's sum, taken while its parent
    # cotree edge is still 0, is that edge's signature.  Edges twice in a walk cancel.
    for f in reversed(dual_order[1:]):
        total = 0
        for d in faces[f]:
            total ^= sig[d]
        pe = dual_parent[f]
        sig[pe] = sig[twin[pe]] = total

    for walk in faces:
        total = 0
        for d in walk:
            total ^= sig[d]
        if total != 0:
            raise AssertionError("facial walk with nonzero signature")
    return sig


def _canonical_cycle(vertices: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest rotation/reflection, anchored at min vertex."""
    vs = list(vertices)
    i = vs.index(min(vs))
    ahead = tuple(vs[i:] + vs[:i])
    return min(ahead, ahead[:1] + ahead[:0:-1])


def _bfs(nbrs: Sequence[Sequence[int]], root: int, depth_cap: int
         ) -> tuple[list[int], list[int], list[int]]:
    """BFS tree from ``root`` that visits each vertex's neighbors in the order
    ``nbrs`` lists them and expands no vertex at depth ``depth_cap``: the
    reached vertices in BFS order, and per vertex its depth (-1 if not
    reached) and its parent (-1 for the root and the unreached)."""
    n = len(nbrs)
    order, dist, parent = [root], [-1] * n, [-1] * n
    dist[root] = 0
    for u in order:  # the list grows while it is read: a FIFO queue
        d = dist[u] + 1
        if d > depth_cap:
            break
        for w in nbrs[u]:
            if dist[w] < 0:
                dist[w], parent[w] = d, u
                order.append(w)
    return order, dist, parent


def _fundamental_cycle(dist: list[int], parent: list[int], u: int, w: int) -> list[int]:
    """The cycle that the non-tree edge (u, w) closes through the lowest
    common ancestor of u and w, as lca .. u, w .. (child of lca)."""
    up_u, up_w = [u], [w]  # climb the deeper side until both meet at the lca
    while up_u[-1] != up_w[-1]:
        deeper = up_u if dist[up_u[-1]] >= dist[up_w[-1]] else up_w
        deeper.append(parent[deeper[-1]])
    return up_u[::-1] + up_w[:-1]


def shortest_noncontractible_cycle(rot: RotationSystem) -> CycleCert:
    """Shortest cycle with nonzero homology signature on the torus.

    The search is rooted on two crossing cycles.  Root 0's full BFS tree
    (the tree of :func:`edge_signatures`, whose edges have signature 0)
    gives each nonzero class its shortest non-contractible fundamental
    cycle; the fundamental cycles span the homology, so at least two classes
    occur, and the two shortest cycles C1 and C2 lie in different nonzero
    classes.  On the torus the Z2 intersection form pairs any two distinct
    nonzero classes to 1, so every non-contractible cycle meets C1 or C2 at
    a vertex.  A shortest non-contractible cycle through a root is no longer
    than the best fundamental cycle of that root's BFS tree (Erickson &
    Har-Peled, DCG 31, 2004; Cabello & Mohar, DCG 37, 2007), so BFS trees
    from the vertices of C1 and C2 alone find the shortest length.

    Each non-tree edge (u, w) closes the fundamental cycle u .. lca .. w; its
    signature is ``psig[u] ^ psig[w]`` plus the edge's signature, so contractible
    candidates are discarded without building a path.  A candidate with
    ``dist[u] + dist[w] + 1`` above the best length so far is skipped, and so
    a root's BFS need not grow past depth ``best // 2``.  Ties are broken by
    (length, lexicographic canonical vertex sequence) over the candidates of
    the roots, taken in increasing order.  The output is checked to be
    induced and to have at most 3 neighbors of any vertex on it, both of
    which must hold for a genuinely shortest non-contractible cycle.  The
    package finds it once per rotation system, through the cached
    :attr:`RotationSystem.sncc`.
    """
    g = rot.graph
    if rot.genus != 2:
        raise ValueError("shortest non-contractible cycle requires Euler genus 2")
    off, head, _, _ = rot.darts
    sig = edge_signatures(rot)
    nbrs = [head[off[u]:off[u + 1]] for u in range(g.n)]  # smaller first, as BFS visits them
    higher = [[(w, s) for w, s in zip(nbrs[u], sig[off[u]:off[u + 1]]) if w > u]
              for u in range(g.n)]  # each edge once, with its signature

    _, dist, parent = rot._tree  # its edges have signature 0, so its prefix signatures are 0
    shortest: dict[int, list[int]] = {}  # nonzero class -> its shortest fundamental cycle
    for u in range(g.n):
        for w, s in higher[u]:
            if s:
                cycle = _fundamental_cycle(dist, parent, u, w)
                if s not in shortest or len(cycle) < len(shortest[s]):
                    shortest[s] = cycle
    c1, c2 = sorted(shortest.values(), key=len)[:2]

    # (length, canonical cycle, signature): the cycle decides, the signature rides along
    best: Optional[tuple[int, tuple[int, ...], int]] = None
    for root in sorted(set(c1) | set(c2)):
        depth_cap = g.n if best is None else best[0] // 2
        order, dist, parent = _bfs(nbrs, root, depth_cap)
        psig = [0] * g.n  # the signature of each tree path from the root, parents first
        for w in order[1:]:  # the dart p -> w is off[p] plus w's place in p's sorted list
            p = parent[w]
            psig[w] = psig[p] ^ sig[off[p] + nbrs[p].index(w)]
        for u in order:  # only an edge inside the BFS ball closes a candidate
            pu, du, su = parent[u], dist[u], psig[u]
            for w, s in higher[u]:
                if dist[w] < 0 or w == pu or parent[w] == u:
                    continue
                if best is not None and du + dist[w] + 1 > best[0]:
                    continue
                s ^= su ^ psig[w]
                if s == 0:
                    continue
                cycle = _fundamental_cycle(dist, parent, u, w)
                key = (len(cycle), _canonical_cycle(cycle), s)
                if best is None or key < best:
                    best = key

    if best is None:
        raise AssertionError("no non-contractible cycle found on a genus-2 embedding")
    cert = CycleCert(best[1], best[2])

    cyc = set(cert.vertices)
    for i, v in enumerate(cert.vertices):
        if (g.adj[v] & cyc) - {cert.vertices[i - 1], cert.vertices[(i + 1) % cert.length]}:
            raise AssertionError("shortest non-contractible cycle is not induced")
    if any(len(a & cyc) > 3 for a in g.adj):
        raise AssertionError("vertex with more than 3 neighbors on the cycle")
    return cert


@dataclass(frozen=True)
class CutResult:
    """Planar graph obtained by cutting along a cycle and contracting both copies.

    ``rot`` is a genus-0 rotation system of the cut graph ``h``: the
    certificate of its planarity.  ``orig`` maps each vertex of ``h`` back to
    the original graph; the two contracted vertices ``u`` and ``v`` map to
    ``None``.
    """

    rot: RotationSystem
    u: int
    v: int
    orig: tuple[Optional[int], ...]

    @property
    def h(self) -> Graph:
        return self.rot.graph


def cut_and_contract(rot: RotationSystem, c: CycleCert) -> CutResult:
    """Cut the torus along a shortest non-contractible cycle and contract
    the two resulting boundary copies into single vertices ``u`` and ``v``.

    At each cycle vertex the rotation splits the remaining darts into two
    arcs (between the darts toward its cycle successor and predecessor);
    arc membership decides which contracted vertex a neighbor attaches to.
    ``u`` is the side containing the smallest non-cycle neighbor.

    The cut graph comes with its rotation system, which certifies its
    planarity by Euler genus 0.  A non-cycle vertex keeps its cyclic order,
    with each cycle neighbor replaced by the contracted vertex of that
    edge's side.  The side left of the cycle's direction (the arc from the
    successor counterclockwise to the predecessor) lists its arcs in reverse
    cycle order, the other side in forward order.  Of parallel copies, the
    one at the earliest cycle vertex is kept at both ends.  The cycle must be
    induced and non-contractible (``ValueError`` otherwise).  The package
    cuts each rotation system once, along its cycle, through the cached
    :attr:`RotationSystem.cut`.
    """
    g = rot.graph
    if rot.genus != 2:
        raise ValueError("cut-and-contract requires Euler genus 2")
    if c.signature == 0:
        raise ValueError("cannot cut along a contractible cycle")

    vs = c.vertices
    k = len(vs)
    cyc = set(vs)
    if len(cyc) != k or any(g.adj[ci] & cyc != {vs[(i + 1) % k], vs[i - 1]}
                            for i, ci in enumerate(vs)):
        raise ValueError("can only cut along an induced cycle")
    others = [v for v in range(g.n) if v not in cyc]
    index = {v: i for i, v in enumerate(others)}

    arcs_a, arcs_b = [], []  # per cycle vertex, its non-cycle neighbors on each side
    for i, ci in enumerate(vs):
        ring = rot.rot[ci]
        deg = len(ring)
        p_nxt, p_prv = ring.index(vs[(i + 1) % k]), ring.index(vs[i - 1])
        twice = ring + ring
        arcs_a.append(twice[p_nxt + 1:p_nxt + (p_prv - p_nxt) % deg])
        arcs_b.append(twice[p_prv + 1:p_prv + (p_nxt - p_prv) % deg])

    a_min = min((w for arc in arcs_a for w in arc), default=g.n)
    b_min = min((w for arc in arcs_b for w in arc), default=g.n)
    u_idx, v_idx = len(others), len(others) + 1
    a_idx, b_idx = (u_idx, v_idx) if a_min <= b_min else (v_idx, u_idx)

    side: dict[tuple[int, int], int] = {}  # (cycle vertex, neighbor) -> contracted vertex
    keep: dict[tuple[int, int], int] = {}  # (neighbor, contracted vertex) -> cycle vertex
    for x, arcs in ((a_idx, arcs_a), (b_idx, arcs_b)):
        for ci, arc in zip(vs, arcs):
            for w in arc:
                side[(ci, w)] = x
                keep.setdefault((w, x), ci)

    rows = []
    for w in others:
        row = []
        for y in rot.rot[w]:
            if y not in cyc:
                row.append(index[y])
            elif keep[(w, side[(y, w)])] == y:
                row.append(side[(y, w)])
        rows.append(tuple(row))
    row_a = tuple(index[w] for i in reversed(range(k)) for w in arcs_a[i]
                  if keep[(w, a_idx)] == vs[i])
    row_b = tuple(index[w] for i in range(k) for w in arcs_b[i] if keep[(w, b_idx)] == vs[i])
    rows += [row_a, row_b] if a_idx == u_idx else [row_b, row_a]

    cut = RotationSystem(_graph_from_rows(rows), tuple(rows))
    if cut.genus != 0:
        raise AssertionError("cut-and-contract produced a rotation of nonzero genus")
    return CutResult(cut, u_idx, v_idx, tuple(others) + (None, None))


def shortest_path(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """Breadth-first shortest u-v path, the tree path of :func:`_bfs` from u;
    ties are broken by exploring smaller neighbor indices first."""
    if u == v or not 0 <= u < g.n:
        raise ValueError(f"need a vertex u in 0..{g.n - 1} and v != u, got u={u}, v={v}")
    if not 0 <= v < g.n:
        raise ValueError(f"need a vertex v in 0..{g.n - 1}, got v={v}")
    _, dist, parent = _bfs([sorted(a) for a in g.adj], u, g.n)
    if dist[v] < 0:
        raise ValueError(f"vertex {v} unreachable from {u}")
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def contract_path(g: Graph, p: Sequence[int]) -> tuple[Graph, int, tuple[Optional[int], ...]]:
    """Contract a path into a single vertex ``vstar``.

    Loops vanish and multi-edges collapse.  Returns the new graph, the index
    of ``vstar``, and a map new index -> original vertex (``None`` for
    ``vstar``).  Surviving vertices keep their relative order.
    """
    path = list(p)
    pset = set(path)
    if not path or len(pset) != len(path) or not all(0 <= v < g.n for v in path):
        raise ValueError(f"{path} is not a nonempty sequence of distinct vertices")
    for a, b in zip(path, path[1:]):
        if b not in g.adj[a]:
            raise ValueError(f"({a}, {b}) is not an edge, so p is not a path")
    others = [v for v in range(g.n) if v not in pset]
    vstar = len(others)
    index = {v: i for i, v in enumerate(others)} | dict.fromkeys(path, vstar)
    edges = [(index[x], index[y]) for x in range(g.n) for y in g.adj[x] if index[x] != index[y]]
    return build_graph(vstar + 1, edges), vstar, tuple(others) + (None,)
