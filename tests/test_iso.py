"""Isomorphism testing with explicit witnesses."""
import random

from torodef import GridSpec, are_isomorphic, build_graph, gen_grid, gen_named
from .conftest import brute_force_isomorphic, random_connected_graph


def permuted(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def assert_witness(g, h, witness):
    assert sorted(witness) == list(range(g.n))
    assert sorted(witness.values()) == list(range(h.n))
    for u, v in g.edges():
        assert witness[v] in h.adj[witness[u]]


def test_identical_graphs():
    g = gen_named("k7")[0]
    ok, witness = are_isomorphic(g, g)
    assert ok
    assert sorted(witness.values()) == list(range(7))


def test_random_relabelings_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permuted(g, perm)
        ok, witness = are_isomorphic(g, h)
        assert ok
        assert_witness(g, h, witness)


def test_same_degree_sequence_not_isomorphic():
    c6 = gen_named("c6")[0]
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert are_isomorphic(c6, two_triangles) == (False, None)


def test_edge_count_mismatch():
    assert are_isomorphic(gen_named("k4")[0], gen_named("c4")[0]) == (False, None)


def test_one_edge_off_random():
    rng = random.Random(13)
    found = 0
    for _ in range(30):
        g = random_connected_graph(rng, 8)
        edges = list(g.edges())
        non_edges = [(u, v) for u in range(8) for v in range(u + 1, 8)
                     if v not in g.adj[u]]
        if not non_edges:
            continue
        moved = edges[:-1] + [rng.choice(non_edges)]
        h = build_graph(8, moved)
        ok, witness = are_isomorphic(g, h)
        # Same size but usually different structure; each verdict is the
        # oracle's, and a yes comes with a witness that maps edges to edges.
        assert ok == brute_force_isomorphic(g, h)
        if ok:
            assert_witness(g, h, witness)
            continue
        found += 1
    assert found > 0


def degree_preserving_swaps(rng, g, swaps):
    """g after random double-edge swaps ab, cd -> ad, cb: same degrees."""
    edges = set(g.edges())
    for _ in range(swaps):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {(a, b), (min(c, d), max(c, d))}
            edges |= new
    return build_graph(g.n, sorted(edges))


def test_agrees_with_brute_force_on_small_graphs():
    # Random pairs of equal size, and pairs with equal degree sequences.
    rng = random.Random(17)
    verdicts = {"size": set(), "degrees": set()}
    for _ in range(150):
        n = rng.randrange(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randrange(len(pairs) + 1)
        g = build_graph(n, rng.sample(pairs, m))
        for kind, h in (("size", build_graph(n, rng.sample(pairs, m))),
                        ("degrees", degree_preserving_swaps(rng, g, 3))):
            ok, witness = are_isomorphic(g, h)
            assert ok == brute_force_isomorphic(g, h), (kind, list(g.edges()), list(h.edges()))
            if ok:
                assert_witness(g, h, witness)
            verdicts[kind].add(ok)
    assert verdicts == {"size": {False, True}, "degrees": {False, True}}


def test_frucht_graph_relabelings():
    # The Frucht graph is 3-regular with no automorphism but the identity:
    # refinement leaves one cell, and each vertex has one image only, so
    # the search must reject the wrong individualizations and go on.
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    frucht = build_graph(12, [(i, (i + 1) % 12) for i in range(12)]
                         + [(i, (i + k) % 12) for i, k in enumerate(lcf)])
    assert {frucht.degree(v) for v in range(12)} == {3}
    rng = random.Random(23)
    for _ in range(10):
        perm = list(range(12))
        rng.shuffle(perm)
        h = permuted(frucht, perm)
        ok, witness = are_isomorphic(frucht, h)
        assert ok and witness == dict(enumerate(perm))


def test_shrikhande_against_the_rook_graph():
    # grid:4x4,1 is the Shrikhande graph and K4 x K4 the 4x4 rook's graph:
    # both are srg(16, 6, 2, 2), so colour refinement alone sees no
    # difference, and only the individualized branches tell them apart.
    shrikhande = gen_grid(GridSpec(4, 4, 1))[0]
    rook = build_graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                            if u // 4 == v // 4 or u % 4 == v % 4])
    for g in (shrikhande, rook):
        assert {g.degree(v) for v in range(16)} == {6}
        assert {len(g.adj[u] & g.adj[v]) for u in range(16) for v in range(u + 1, 16)} == {2}
    assert are_isomorphic(shrikhande, rook) == (False, None)
    rng = random.Random(19)
    for g in (shrikhande, rook):
        perm = list(range(16))
        rng.shuffle(perm)
        h = permuted(g, perm)
        ok, witness = are_isomorphic(g, h)
        assert ok
        assert_witness(g, h, witness)
