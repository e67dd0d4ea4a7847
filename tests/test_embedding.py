"""Rotation systems, homology, shortest non-contractible cycles, cutting."""
import hashlib
import random
import time

import networkx as nx
import pytest

from torodef import (GridSpec, build_graph, color_0004, color_00002, color_600001, gen_grid,
                     gen_named)
from torodef import cli, embedding, fileio, generators
from torodef.embedding import (RotationSystem, cut_and_contract, contract_path,
                               edge_signatures, euler_genus, shortest_noncontractible_cycle,
                               shortest_path, trace_faces)
from torodef.cli import parse_family_token
from .conftest import (all_valid_grids, cut_observations, girth, irregular_torus,
                       make_cycle_cert, pair_signatures, planarity_check, random_connected_graph,
                       sncc_all_roots, walk_signature)

K4_PLANAR_ROT = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def k4_planar():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return RotationSystem(g, K4_PLANAR_ROT)


# --- face tracing and genus -------------------------------------------------

def test_rotation_system_validates_neighbor_sets():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        RotationSystem(g, ((1,), (0,), (1,)))  # vertex 1 missing neighbor 2
    with pytest.raises(ValueError):
        RotationSystem(g, ((1,), (0, 2)))  # wrong length
    with pytest.raises(ValueError):
        RotationSystem(g, ((1,), (0, 2, 0), (1,)))  # a repeated neighbor: succ would not be a permutation
    with pytest.raises(ValueError):  # a repeated neighbor of the right length
        RotationSystem(g, ((1,), (0, 0), (1,)))


def test_face_counts_on_canonical_embeddings():
    for name, faces in (("t11", 22), ("k7", 14), ("k6", 9)):
        g, rot = gen_named(name)
        assert len(trace_faces(rot)) == faces, name
        assert euler_genus(rot) == 2, name


def test_face_count_equals_edges_minus_vertices_on_torus():
    for spec in (GridSpec(3, 3, 1), GridSpec(5, 5, 2), GridSpec(7, 4, 3)):
        g, rot = gen_grid(spec)
        faces = trace_faces(rot)
        assert len(faces) == g.m - g.n  # Euler on the torus
        assert all(len(f) == 3 for f in faces)


def test_planar_k4_rotation():
    rot = k4_planar()
    assert euler_genus(rot) == 0
    assert len(trace_faces(rot)) == 4


DEGENERATE = [
    (1, [], ((),)),                                              # a lone vertex
    (0, [], ()),                                                 # no vertex at all
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],       # two disjoint triangles
     ((1, 2), (2, 0), (0, 1), (4, 5), (5, 3), (3, 4))),
    (4, [(1, 2), (2, 3), (1, 3)], ((), (2, 3), (3, 1), (1, 2))),  # vertex 0 beside a triangle
]


@pytest.mark.parametrize("n,edges,rows", DEGENERATE)
def test_euler_genus_rejects_degenerate_graphs(n, edges, rows):
    rot = RotationSystem(build_graph(n, edges), rows)
    with pytest.raises(ValueError):
        euler_genus(rot)


@pytest.mark.parametrize("n,edges,rows", DEGENERATE)
def test_edge_signatures_reject_degenerate_graphs(n, edges, rows):
    rot = RotationSystem(build_graph(n, edges), rows)
    with pytest.raises(ValueError, match="Euler genus needs a connected graph"):
        edge_signatures(rot)


def test_each_rotation_system_is_traced_once(monkeypatch, tmp_path, capsys):
    _, grid = gen_grid(GridSpec(7, 7, 3))
    path = str(tmp_path / "grid.rot")
    with open(path, "w") as f:
        fileio.write_rotation(grid, f)
    calls = []

    def counting(rot, real=embedding.trace_faces):
        calls.append(rot)
        return real(rot)

    for module in (embedding, generators, cli):  # every binding a module may call
        if hasattr(module, "trace_faces"):
            monkeypatch.setattr(module, "trace_faces", counting)
    # Root 0's BFS tree is the genus's connectivity check and is kept: one tree per trace.
    trees = []
    tree = RotationSystem.__dict__["_tree"]  # the cached property; wrap the function it runs

    def growing(rot, real=tree.func):
        trees.append(rot)
        return real(rot)

    monkeypatch.setattr(tree, "func", growing)

    color_600001(RotationSystem(grid.graph, grid.rot))
    assert len(calls) == len(trees) == 2  # the input, and the cut graph's genus-0 certificate

    calls.clear()
    trees.clear()
    rot = RotationSystem(grid.graph, grid.rot)
    for pipeline in (color_600001, color_00002, color_0004):
        pipeline(rot)
    assert len(calls) == len(trees) == 2  # the input once, and its one cut's certificate
    assert calls[0] is rot

    calls.clear()
    trees.clear()
    gen_grid(GridSpec(7, 7, 3))
    assert len(calls) == len(trees) == 1

    calls.clear()
    trees.clear()
    assert cli.main(["embed-info", path]) == 0
    assert len(calls) == len(trees) == 1
    capsys.readouterr()


def _tails(rot, darts):
    _, head, twin, _ = rot.darts
    return [head[twin[d]] for d in darts]


def test_face_darts_partition():
    for rot in (gen_named("k7")[1], gen_named("t11")[1], k4_planar(), irregular_torus(1)):
        g = rot.graph
        off, head, twin, succ = rot.darts
        assert off[-1] == len(head) == 2 * g.m
        for u in range(g.n):  # darts in lexicographic (tail, head) order
            assert head[off[u]:off[u + 1]] == sorted(g.adj[u])
            assert _tails(rot, range(off[u], off[u + 1])) == [u] * g.degree(u)
        assert all(twin[d] != d and twin[twin[d]] == d for d in range(len(head)))
        for u, row in enumerate(rot.rot):  # succ walks each row in order
            first = off[u] + sorted(row).index(row[0])
            walked, d = [], first
            for _ in row:
                walked.append(head[d])
                d = succ[d]
            assert tuple(walked) == row and d == first
        faces = trace_faces(rot)
        assert sorted(d for f in faces for d in f) == list(range(len(head)))
        assert [f[0] for f in faces] == sorted(min(f) for f in faces)
        for f in faces:  # the cycles of phi = succ . twin
            assert all(succ[twin[d]] == f[(i + 1) % len(f)] for i, d in enumerate(f))


# --- homology signatures ----------------------------------------------------

def test_signatures_on_the_plane_are_all_zero():
    sig = edge_signatures(k4_planar())
    assert len(sig) == 12 and set(sig) == {0}


def test_facial_triangles_are_contractible_and_grid_rows_are_not():
    spec = GridSpec(5, 5, 1)
    g, rot = gen_grid(spec)
    tri = _tails(rot, trace_faces(rot)[0])
    cert = make_cycle_cert(rot, tri)
    assert cert.signature == 0
    row = [0 * 5 + j for j in range(5)]        # a horizontal cycle
    col = [i * 5 + 0 for i in range(5)]        # a vertical cycle
    for cyc in (row, col):
        cert = make_cycle_cert(rot, cyc)
        assert cert.signature != 0


def test_walk_signature_invariant_under_rotation_and_reversal():
    _, rot = gen_grid(GridSpec(5, 5, 1))
    sig = pair_signatures(rot)
    cycle = [0, 1, 2, 3, 4]  # closed implicitly
    base = walk_signature(sig, cycle)
    assert base == walk_signature(sig, cycle[2:] + cycle[:2])
    assert base == walk_signature(sig, list(reversed(cycle)))
    # XOR over the individual edges agrees with the walk sum.
    by_edges = 0
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        by_edges ^= sig[(min(u, v), max(u, v))]
    assert base == by_edges


def test_make_cycle_cert_rejects_non_cycles():
    _, rot = gen_named("k7")
    with pytest.raises(ValueError):
        make_cycle_cert(rot, [0, 1])
    with pytest.raises(ValueError):
        make_cycle_cert(rot, [0, 1, 1])


# --- shortest non-contractible cycles --------------------------------------

def _sncc_oracle(rot, bound):
    """Shortest non-contractible cycle length by bounded brute enumeration."""
    g = rot.graph
    sig = pair_signatures(rot)
    best = None
    for start in range(g.n):
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            if best is not None and len(path) >= best:
                continue
            for w in sorted(g.adj[v]):
                if w == start and len(path) >= 3:
                    if walk_signature(sig, path) != 0:
                        best = len(path) if best is None else min(best, len(path))
                elif w > start and w not in path and len(path) < bound:
                    stack.append((w, path + [w]))
    return best


@pytest.mark.parametrize("spec,expect", [
    (GridSpec(3, 7, 1), 3),
    (GridSpec(8, 8, 1), 8),
    (GridSpec(4, 4, 1), 4),
])
def test_sncc_known_lengths(spec, expect):
    _, rot = gen_grid(spec)
    assert shortest_noncontractible_cycle(rot).length == expect


def test_sncc_on_k7_attains_girth():
    g, rot = gen_named("k7")
    cert = shortest_noncontractible_cycle(rot)
    assert cert.length == 3 == girth(g)


def test_sncc_matches_brute_oracle_on_small_grids():
    for spec in all_valid_grids(18):
        if spec.m * spec.n < 7:
            continue
        _, rot = gen_grid(spec)
        cert = shortest_noncontractible_cycle(rot)
        assert cert.signature != 0
        oracle = _sncc_oracle(rot, bound=cert.length)
        assert oracle == cert.length, spec.token()


# The tie-break (length, then lexicographically smallest canonical sequence)
# picks one of several shortest cycles on each of these embeddings.
@pytest.mark.parametrize("token,vertices", [
    ("k7", (0, 1, 2)),
    ("t11", (0, 1, 2)),
    ("grid:5x5,2", (0, 1, 2, 3, 4)),
    ("grid:8x8,1", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("grid:4x11,2", (0, 11, 22, 33)),
    ("grid:9x5,7", (0, 5, 29, 33, 37, 41)),
    ("grid:6x6,3", (0, 1, 2, 3, 4, 35)),
    ("grid:7x7,3", (0, 1, 2, 3, 4, 5, 48)),
    ("grid:10x4,7", (0, 4, 8, 31, 34, 37)),
    ("grid:8x6,5", (0, 1, 2, 45, 40, 35)),
    ("grid:12x4,5", (0, 39, 42, 45)),
])
def test_sncc_tie_break_is_pinned(token, vertices):
    _, rot, _ = parse_family_token(token)
    assert shortest_noncontractible_cycle(rot).vertices == vertices


def test_sncc_is_deterministic():
    _, rot = gen_grid(GridSpec(5, 5, 2))
    a = shortest_noncontractible_cycle(rot)
    b = shortest_noncontractible_cycle(rot)
    assert a.vertices == b.vertices


# --- cutting and contracting ------------------------------------------------

def test_cut_and_contract_counts_and_planarity():
    for token in ("k7", "t11"):
        g, rot = gen_named(token)
        cyc = shortest_noncontractible_cycle(rot)
        cut = cut_and_contract(rot, cyc)
        assert cut.h is cut.rot.graph
        assert cut.h.n == g.n - cyc.length + 2
        assert euler_genus(cut.rot) == 0
        assert planarity_check(cut.h)
        assert cut.orig[cut.u] is None and cut.orig[cut.v] is None
        survivors = sorted(v for v in cut.orig if v is not None)
        assert survivors == sorted(set(range(g.n)) - set(cyc.vertices))


def test_cut_rejects_contractible_cycles():
    _, rot = gen_grid(GridSpec(5, 5, 1))
    cert = make_cycle_cert(rot, _tails(rot, trace_faces(rot)[0]))
    with pytest.raises(ValueError):
        cut_and_contract(rot, cert)


def test_cut_rejects_chorded_cycles():
    """A non-contractible cycle with a chord: the SNCC's first edge detoured
    through a common neighbor, so that edge is now a chord."""
    _, rot = gen_grid(GridSpec(6, 6, 1))
    vs = shortest_noncontractible_cycle(rot).vertices
    x = min((rot.graph.adj[vs[0]] & rot.graph.adj[vs[1]]) - set(vs))
    cert = make_cycle_cert(rot, (vs[0], x) + vs[1:])
    assert cert.signature != 0
    with pytest.raises(ValueError, match="induced"):
        cut_and_contract(rot, cert)


@pytest.mark.parametrize("token", ["k7", "t11", "grid:5x5,2"])
def test_cut_certificate_detects_a_reversed_rotation(token):
    """The genus-0 certificate is not vacuous: reversing the cyclic order at
    the contracted vertex u gives a rotation of the same graph with positive
    genus."""
    _, rot, _ = parse_family_token(token)
    cut = cut_and_contract(rot, shortest_noncontractible_cycle(rot))
    assert euler_genus(cut.rot) == 0
    rows = list(cut.rot.rot)
    rows[cut.u] = rows[cut.u][::-1]
    assert euler_genus(RotationSystem(cut.h, tuple(rows))) != 0


# Seeds 116 and 250 are the planar 4-coloring regression graphs of
# tests/test_constructions.py.
CUT_SEEDS = (*range(1, 101), 116, 250)


def test_cut_observations_on_irregular_tori():
    t0 = time.perf_counter()
    failures = [(seed, *f) for seed in CUT_SEEDS for f in cut_observations(irregular_torus(seed))]
    assert not failures
    assert time.perf_counter() - t0 < 20


def test_sncc_matches_the_all_roots_search():
    # Rooting the search on two crossing cycles keeps the shortest length;
    # the tie-break among shortest cycles matches the all-roots search here,
    # and the signature carried with the cycle is the cycle's own.
    rots = [gen_grid(spec)[1] for spec in all_valid_grids(49)[::5]]
    rots += [irregular_torus(seed) for seed in CUT_SEEDS]
    assert len(rots) == 416
    differ = []
    for i, rot in enumerate(rots):
        cert, oracle = shortest_noncontractible_cycle(rot), sncc_all_roots(rot)
        if (cert.vertices, cert.signature) != (oracle, walk_signature(pair_signatures(rot), oracle)):
            differ.append(i)
    assert differ == []


def test_torus_cut_digest_is_pinned():
    # One hash over everything the torus cut derives from a rotation system
    # (faces, per-dart signatures, cycle, cut) and the three certificates
    # coloured on it: a change to the dart order, the BFS trees, the SNCC
    # tie-break, the cut's rows or the planar colourer moves it.
    rots = [(spec.token(), gen_grid(spec)[1]) for spec in all_valid_grids(49)[::4]]
    rots += [(name, gen_named(name)[1]) for name in ("k7", "t11")]
    rots += [(f"irregular:{seed}", irregular_torus(seed)) for seed in range(1, 21)]
    assert len(rots) == 415
    h = hashlib.sha256()
    for token, rot in rots:
        _, head, twin, _ = rot.darts
        cut = rot.cut
        certs = [(c.provenance, str(c.defects), c.coloring, c.mono_edges)
                 for c in (color_600001(rot), color_00002(rot), color_0004(rot))]
        h.update(repr((token, [[(head[twin[d]], head[d]) for d in f] for f in rot.faces],
                       edge_signatures(rot), rot.sncc.vertices, rot.sncc.signature,
                       cut.rot.rot, cut.u, cut.v, cut.orig, certs)).encode())
    assert h.hexdigest() == "df8517596ced0dcb6cabd449028919db059c5a3ba2cd7ab6ebd1cb607bbb9f56"


def test_shortest_path_matches_networkx_on_random_graphs():
    rng = random.Random(24)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randrange(2, 16))
        nxg = nx.Graph(list(g.edges()))
        u, v = rng.sample(range(g.n), 2)
        path = shortest_path(g, u, v)
        assert (path[0], path[-1]) == (u, v)
        assert len(path) - 1 == nx.shortest_path_length(nxg, u, v)
        assert all(b in g.adj[a] for a, b in zip(path, path[1:]))
        beside = build_graph(g.n + 1, g.edges())  # one more vertex, isolated
        with pytest.raises(ValueError, match=f"vertex {g.n} unreachable from {u}"):
            shortest_path(beside, u, g.n)


def test_shortest_path_and_contract_path():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    assert shortest_path(g, 0, 3) == (0, 1, 3)
    unreachable = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="vertex 2 unreachable from 0"):  # another component
        shortest_path(unreachable, 0, 2)
    k7 = gen_named("k7")[0]
    for graph, v in ((unreachable, 4), (unreachable, -1), (k7, 7), (k7, -1)):  # no vertex at all
        with pytest.raises(ValueError, match=rf"need a vertex v in 0\.\.{graph.n - 1}, got v={v}"):
            shortest_path(graph, 0, v)
    for u, v in ((-1, 3), (4, 0)):  # a start that is no vertex
        with pytest.raises(ValueError, match="need a vertex u"):
            shortest_path(unreachable, u, v)
    with pytest.raises(ValueError, match="v != u"):
        shortest_path(g, 2, 2)
    g2, vstar, orig = contract_path(g, (0, 1, 3))
    assert g2.n == 3
    assert orig[vstar] is None
    # 2 and 4 both survive and are adjacent to the contracted vertex.
    idx = {v: i for i, v in enumerate(orig) if v is not None}
    assert vstar in g2.adj[idx[2]] and vstar in g2.adj[idx[4]]
    with pytest.raises(ValueError):
        contract_path(g, (0, 2))  # not an edge
    with pytest.raises(ValueError):
        contract_path(g, (0, 1, 0))
    for p in ((5,), (-1,), (), (4, 5)):  # no vertex, or no path at all
        with pytest.raises(ValueError, match="distinct vertices"):
            contract_path(g, p)


def test_planarity_known_answers():
    k5 = gen_named("k5")[0]
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert not planarity_check(k5)
    assert not planarity_check(k33)
    assert planarity_check(gen_named("k4")[0])
    assert planarity_check(gen_named("c10")[0])
    assert planarity_check(build_graph(1, []))
