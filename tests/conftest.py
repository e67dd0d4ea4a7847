"""Shared helpers for the test suite, including the independent oracles
(planarity, girth, cycle signatures, the all-roots shortest non-contractible
cycle, brute-force isomorphism, the grid classification by isomorphism, the
single-column grid as a circulant, the whole-grid collapse scan) that the
package itself never calls."""
import contextlib
import functools
import itertools
import math
import random
import signal

import networkx as nx
import pytest

from torodef import (SAT, CycleCert, DefectVector, InvalidSpec, RotationSystem, are_isomorphic,
                     build_graph, classify_6regular, edge_signatures, euler_genus, gen_circulant,
                     gen_grid, solve, solve_with_precoloring)
from torodef.embedding import _canonical_cycle, contract_path, shortest_path
from torodef.generators import (SMALL_EXCEPTION_GRIDS, SPORADIC_PAIRS, CirculantSpec,
                                Classification, GridSpec, _delete_vertex, _grid_neighbors,
                                _r_forms, canonical_offset)


def planarity_check(g) -> bool:
    """Sound-and-complete planarity test (left-right algorithm via networkx),
    independent of the genus-0 rotation by which the cut certifies itself."""
    if g.m > max(0, 3 * g.n - 6):
        return False
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    ok, _ = nx.check_planarity(nxg, counterexample=False)
    return bool(ok)


def girth(g):
    """Length of the shortest cycle, or ``None`` for forests.

    BFS from every vertex; the minimum closed-walk candidate over all roots
    equals the girth.
    """
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for w in sorted(g.adj[u]):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        cand = dist[u] + dist[w] + 1
                        if best is None or cand < best:
                            best = cand
            queue = nxt
        if best == 3:
            break
    return best


def pair_signatures(rot: RotationSystem) -> dict:
    """The per-dart ``edge_signatures`` keyed by (tail, head) vertex pairs."""
    _, head, twin, _ = rot.darts
    return {(head[twin[d]], head[d]): s for d, s in enumerate(edge_signatures(rot))}


def walk_signature(sig: dict, vertices) -> int:
    """Signature of a closed walk: XOR of its edges' signatures, ``sig``
    keyed by vertex pairs as :func:`pair_signatures` gives them."""
    total = 0
    for i in range(len(vertices)):
        total ^= sig[(vertices[i - 1], vertices[i])]
    return total


def make_cycle_cert(rot: RotationSystem, vertices) -> CycleCert:
    """Wrap a vertex sequence as a cycle certificate, computing its signature."""
    vs = tuple(vertices)
    if len(vs) < 3 or len(set(vs)) != len(vs):
        raise ValueError("not a simple cycle")
    for i in range(len(vs)):
        if vs[(i + 1) % len(vs)] not in rot.graph.adj[vs[i]]:
            raise ValueError(f"vertices {vs[i]} and {vs[(i + 1) % len(vs)]} not adjacent")
    return CycleCert(vs, walk_signature(pair_signatures(rot), vs))


def sncc_all_roots(rot: RotationSystem) -> tuple[int, ...]:
    """The vertices of the shortest non-contractible cycle, searched from
    every root: the package's capped per-root loop and tie-break, without
    its restriction to the roots on two crossing cycles."""
    g = rot.graph
    assert euler_genus(rot) == 2
    sig = pair_signatures(rot)
    nbrs = [sorted(a) for a in g.adj]
    higher = [[w for w in g.adj[u] if w > u] for u in range(g.n)]
    best = None
    for root in range(g.n):
        depth_cap = g.n if best is None else best[0] // 2
        dist, parent, psig = {root: 0}, {root: -1}, {root: 0}
        queue = [root]
        for u in queue:
            if dist[u] >= depth_cap:
                break
            for w in nbrs[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    psig[w] = psig[u] ^ sig[(min(u, w), max(u, w))]
                    queue.append(w)
        for u in dist:
            for w in higher[u]:
                if w not in dist or parent[u] == w or parent[w] == u:
                    continue
                if best is not None and dist[u] + dist[w] + 1 > best[0]:
                    continue
                if psig[u] ^ psig[w] ^ sig[(u, w)] == 0:
                    continue
                up_u, up_w = [u], [w]
                while up_u[-1] != up_w[-1]:
                    deeper = up_u if dist[up_u[-1]] >= dist[up_w[-1]] else up_w
                    deeper.append(parent[deeper[-1]])
                cycle = up_u[::-1] + up_w[:-1]
                key = (len(cycle), _canonical_cycle(cycle))
                if best is None or key < best:
                    best = key
    return best[1]


class _GateExpired(Exception):
    pass


@contextlib.contextmanager
def time_gate(seconds: float):
    """Fail the enclosed block once it has run ``seconds``, so that a search
    that would hang fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise _GateExpired

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _GateExpired:
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def grid_collapses(spec: GridSpec) -> bool:
    """True when some vertex of the grid is its own neighbor or two of its
    six neighbors coincide, scanned at every vertex: the oracle for the
    package's validity check at vertex 0 alone."""
    for i in range(spec.m):
        for j in range(spec.n):
            nbrs = _grid_neighbors(spec.m, spec.n, spec.k, i, j)
            if (i, j) in nbrs or len(set(nbrs)) != 6:
                return True
    return False


def all_valid_grids(max_vertices: int):
    """Every valid right-diagonal shifted grid G[m x n, k] with m*n bounded."""
    specs = []
    for m in range(1, max_vertices + 1):
        for n in range(1, max_vertices // m + 1):
            for k in range(1, m + 1):
                try:
                    spec = GridSpec(m, n, k)
                except InvalidSpec:
                    continue
                if spec.valid:
                    specs.append(spec)
    return specs


def unit_family_circulants(max_n: int):
    """Every 6-regular circulant G_n[S], n <= max_n, whose offset set S is a
    unit multiple of some {1, r, r+1}, each set once."""
    pool = set()
    for n in range(7, max_n + 1):
        for r in range(2, n // 2):
            for p in range(1, n):
                if math.gcd(p, n) != 1:
                    continue
                offs = frozenset(min(p * x % n, n - p * x % n) for x in (1, r, r + 1))
                if len(offs) == 3 and 2 * max(offs) != n:
                    pool.add((n, tuple(sorted(offs))))
    return [CirculantSpec(n, frozenset(offs)) for n, offs in sorted(pool)]


def classify_against_search(spec):
    """``classify_6regular``'s verdict, checked against an exact search for a
    proper 4-coloring of the spec's graph (desk scale: order 30 or less)."""
    cls = classify_6regular(spec)
    g = gen_grid(spec)[0] if isinstance(spec, GridSpec) else gen_circulant(spec)
    assert g.n <= 30, spec.token()
    found = solve(g, DefectVector.of(0, 0, 0, 0)).status == SAT
    assert found == cls.four_colorable, f"classification of {spec.token()} contradicts exact search"
    return cls


def grid_as_circulant(spec: GridSpec) -> CirculantSpec:
    """G[m x 1, k] written out as the circulant G_m[1, k-2, k-1] on the same
    labels, from the definition of the grid rather than its characters."""
    assert spec.n == 1, "only single-column grids are circulants by construction"
    offs = {canonical_offset(1, spec.m), canonical_offset(spec.k - 2, spec.m),
            canonical_offset(spec.k - 1, spec.m)}
    return CirculantSpec(spec.m, frozenset(offs))


def exception_graphs(order: int):
    """The exception graphs of the given order, one circulant per unit
    class, with provenance.

    Yields (graph, case, circulant spec or None): the small exception grids
    of that order, then G_n[1,2,3] when 4 does not divide n, then the
    sporadic pairs in ascending r, skipping a pair whose circulant is a unit
    image of one already yielded (the two are isomorphic).  Every circulant
    that ``classify_6regular`` rules an exception is a unit image of one
    yielded here.
    """
    for gspec in SMALL_EXCEPTION_GRIDS:
        if gspec.m * gspec.n == order:
            yield gen_grid(gspec)[0], "1", None
    listed = [(2, "4")] if order % 4 else []
    listed += [(r, "5") for r, n in sorted(SPORADIC_PAIRS) if n == order]
    yielded: set[int] = set()
    for r, case in listed:
        cspec = CirculantSpec(order, frozenset({1, r, r + 1}))
        if yielded.isdisjoint(r1 for _, r1 in _r_forms(cspec)):
            yielded.add(r)
            yield gen_circulant(cspec), case, cspec


def classify_grid_by_isomorphism(g) -> Classification:
    """The verdict on a multi-column grid's graph by isomorphism against the
    same-order :func:`exception_graphs`: the oracle for the package's
    classification of grids by their translation group."""
    for candidate, case, cspec in exception_graphs(g.n):
        ok, witness = are_isomorphic(candidate, g)
        if ok:
            to_listed = None if cspec is None else tuple(sorted(witness, key=witness.get))
            return Classification(g, False, case=case, reduced=cspec, to_listed=to_listed)
    return Classification(g, True)


def random_connected_graph(rng: random.Random, n: int):
    """Uniform spanning-tree skeleton plus random extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    extra = rng.randrange(0, n * (n - 1) // 2 - (n - 1) + 1)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return build_graph(n, sorted(edges))


def brute_force_isomorphic(g, h) -> bool:
    """Isomorphism by trying every bijection (desk scale: 8 vertices or
    fewer), independent of the package's individualization-refinement."""
    if g.n != h.n or g.m != h.m:
        return False
    edges = list(g.edges())
    return any(all(p[v] in h.adj[p[u]] for u, v in edges)
               for p in itertools.permutations(range(g.n)))


def admits_mono_at_most(g, b: int) -> bool:
    """Exactly decide whether the circulant ``g`` has a (0,0,0,1)-coloring
    with at most ``b`` monochromatic edges, for ``0 <= b <= 2``.

    Classes 1-3 are proper and class 4 has maximum degree 1, so the
    monochromatic edges of such a coloring form a matching M of class-4
    edges, and the coloring is a proper 4-coloring of G - M with M's
    endpoints in class 4.  Every matching of at most ``b`` edges is tried
    with :func:`solve_with_precoloring`.  The rotation i -> i+1 (mod n) is
    checked to be an automorphism of ``g``; it maps any edge onto one at
    vertex 0, so M's first edge is fixed to (0, x) with x <= n/2.
    """
    if not 0 <= b <= 2:
        raise ValueError(f"b = {b} outside 0..2")
    n = g.n
    edges = list(g.edges())
    if any((v + 1) % n not in g.adj[(u + 1) % n] for u, v in edges):
        raise ValueError("vertex rotation is not an automorphism: not a circulant")
    firsts = [(0, x) for x in sorted(g.adj[0]) if x <= n // 2]
    matchings = [()]
    if b >= 1:
        matchings += [(e,) for e in firsts]
    if b >= 2:
        matchings += [(e, f) for e in firsts for f in edges
                      if not set(e) & set(f)]
    proper = DefectVector.of(0, 0, 0, 0)
    for m in matchings:
        h = build_graph(n, [e for e in edges if e not in m])
        pre = {v: 4 for e in m for v in e}
        if solve_with_precoloring(h, pre, proper).status == SAT:
            return True
    return False


def cut_observations(rot: RotationSystem) -> list:
    """The shape of the shortest non-contractible cycle and the planarity of
    the cut, checked on one torus embedding; returns the checks that failed.

    The cycle must be induced with at most 3 neighbors of any other vertex on
    it.  The cut's rotation must have Euler genus 0, and both the cut graph
    and the cut graph with a shortest u-v path contracted must pass the
    independent planarity test.
    """
    g = rot.graph
    cyc = rot.sncc
    on_cycle = set(cyc.vertices)
    failures = []
    # Induced: consecutive cycle vertices adjacent, no chords.
    for i, u in enumerate(cyc.vertices):
        if cyc.vertices[(i + 1) % cyc.length] not in g.adj[u]:
            failures.append(("cycle edge missing", u))
        if sum(1 for w in g.adj[u] if w in on_cycle) != 2:
            failures.append(("cycle not induced at", u))
    for v in range(g.n):
        if v not in on_cycle and sum(1 for w in g.adj[v] if w in on_cycle) > 3:
            failures.append(("vertex with >3 cycle neighbors", v))
    cut = rot.cut
    if euler_genus(cut.rot) != 0:
        failures.append(("cut rotation not of genus 0",))
    if not planarity_check(cut.h):
        failures.append(("cut graph not planar",))
    g2, _, _ = contract_path(cut.h, shortest_path(cut.h, cut.u, cut.v))
    if not planarity_check(g2):
        failures.append(("contracted graph not planar",))
    return failures


@functools.cache
def irregular_torus(seed: int) -> RotationSystem:
    """A seeded irregular torus embedding: a random shifted grid of 64 to
    121 vertices after random diagonal flips and vertex deletions.

    A flip takes an edge uv between the triangles u-v-a and v-u-b, with a
    and b not adjacent, and replaces it by ab; both faces at ab are checked
    to be triangles, and the flipped embedding to be a torus triangulation.
    A deletion is kept only while the graph stays connected with Euler
    genus 2.  The result is immutable, so it is built once per seed and
    shared between tests.
    """
    rng = random.Random(seed)
    while True:
        m, n = rng.randint(8, 11), rng.randint(8, 11)
        spec = GridSpec(m, n, rng.randint(1, m))
        if spec.valid:
            break
    g, rot = gen_grid(spec)
    adj = [set(a) for a in g.adj]
    rows = [list(r) for r in rot.rot]

    def succ(x, y):  # the neighbor after y in x's rotation
        row = rows[x]
        return row[(row.index(y) + 1) % len(row)]

    def closes_triangle(x, y):  # the face of the dart x -> y has three darts
        z = succ(y, x)
        return succ(z, y) == x and succ(x, z) == y

    for _ in range(2 * g.n):
        u = rng.randrange(g.n)
        v = rng.choice(rows[u])
        a, b = succ(v, u), succ(u, v)
        if (succ(a, v) != u or succ(b, u) != v or a == b or b in adj[a]
                or len(adj[u]) <= 3 or len(adj[v]) <= 3):
            continue
        rows[u].remove(v)
        rows[v].remove(u)
        rows[a].insert(rows[a].index(v) + 1, b)
        rows[b].insert(rows[b].index(u) + 1, a)
        adj[u].discard(v)
        adj[v].discard(u)
        adj[a].add(b)
        adj[b].add(a)
        assert closes_triangle(a, b) and closes_triangle(b, a)
    edges = [(x, y) for x in range(g.n) for y in adj[x] if x < y]
    rot = RotationSystem(build_graph(g.n, edges), tuple(tuple(r) for r in rows))
    assert euler_genus(rot) == 2 and all(len(f) == 3 for f in rot.faces)
    for _ in range(rng.randint(2, 8)):
        smaller = _delete_vertex(rot, rng.randrange(rot.graph.n))
        try:
            if euler_genus(smaller) == 2:
                rot = smaller
        except ValueError:  # the deletion disconnected the graph
            pass
    return rot


@pytest.fixture(scope="session")
def k7_rot():
    from torodef import gen_named
    return gen_named("k7")[1]


@pytest.fixture(scope="session")
def t11_rot():
    from torodef import gen_named
    return gen_named("t11")[1]
