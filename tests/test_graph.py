"""Core graph structures and the coloring verifier."""
import random

import pytest
from hypothesis import given, strategies as st

from torodef import (DefectVector, build_graph, degeneracy, gen_named, induced_subgraph, join,
                     verify_coloring)
from .conftest import girth, random_connected_graph


# --- construction -----------------------------------------------------------

def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 1)])  # duplicate collapses
    assert g.n == 4 and g.m == 3
    assert 1 in g.adj[0] and 0 in g.adj[1]
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


def test_adjacency_symmetric_random():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        for u in range(g.n):
            for v in g.adj[u]:
                assert u in g.adj[v]
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


# --- defect vectors ---------------------------------------------------------

def test_defect_vector_parse_roundtrip():
    for text in ("0,0,0,2", "0,0,0,1*", "0,0,0,1*,1*", "2,2,2", "0"):
        assert str(DefectVector.parse(text)) == text


def test_defect_vector_of_matches_parse():
    assert DefectVector.of(0, 0, 0, 1, stars=(3,)) == DefectVector.parse("0,0,0,1*")
    assert DefectVector.of(0, 0, 0, 4) == DefectVector.parse("0,0,0,4")


def test_defect_vector_rejects_malformed():
    with pytest.raises(ValueError):
        DefectVector.parse("0,x,0")
    with pytest.raises(ValueError):
        DefectVector.parse("0,2*")  # star only on defect 1
    with pytest.raises(ValueError):
        DefectVector.of(-1)
    with pytest.raises(ValueError):
        DefectVector(())


# --- verifier ---------------------------------------------------------------

def test_verify_proper_coloring_of_cycle():
    g = gen_named("c6")[0]
    report = verify_coloring(g, (1, 2, 1, 2, 1, 2), DefectVector.of(0, 0))
    assert report.valid
    assert report.mono_counts == (0, 0)
    assert report.max_degrees == (0, 0)


def test_verify_detects_degree_violation():
    g = gen_named("k4")[0]  # all in one class of defect 2: degree 3 > 2
    report = verify_coloring(g, (1, 1, 1, 1), DefectVector.of(2))
    assert not report.valid
    assert report.first_violation == (1, 0)  # smallest offending vertex
    assert report.max_degrees == (3,)
    assert report.mono_counts == (6,)


def test_verify_star_budget():
    # Two disjoint edges in one starred class: degrees fine, budget blown.
    g = build_graph(4, [(0, 1), (2, 3)])
    d = DefectVector.parse("1*")
    report = verify_coloring(g, (1, 1, 1, 1), d)
    assert not report.valid
    assert report.first_violation == (1, (2, 3))  # second mono edge
    two = DefectVector.parse("1*,0")
    assert verify_coloring(g, (1, 1, 2, 2), two).valid is False  # class 2 mono edge
    assert verify_coloring(g, (1, 1, 1, 2), two).valid  # one mono edge is fine


def test_verify_rejects_partial_or_out_of_range():
    g = gen_named("c3")[0]
    with pytest.raises(ValueError):
        verify_coloring(g, (1, 2), DefectVector.of(0, 0))
    with pytest.raises(ValueError):
        verify_coloring(g, (1, 2, 3), DefectVector.of(0, 0))


def test_verify_mono_edges_sorted_and_counted():
    g = gen_named("c5")[0]
    report = verify_coloring(g, (1, 2, 1, 2, 2), DefectVector.of(0, 1, stars=(1,)))
    assert report.valid
    assert report.all_mono_edges() == ((3, 4),)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10 ** 6))
def test_single_class_with_max_degree_budget_is_valid(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    dmax = max(g.degree(v) for v in range(n))
    report = verify_coloring(g, (1,) * n, DefectVector.of(dmax))
    assert report.valid
    assert report.mono_counts == (g.m,)
    assert report.max_degrees == (dmax,)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10 ** 6))
def test_validity_invariant_under_class_swap(n, seed):
    """Swapping two classes with identical defect entries preserves the verdict."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    coloring = tuple(rng.randrange(1, 4) for _ in range(n))
    d = DefectVector.of(1, 1, 1)
    swap = {1: 2, 2: 1, 3: 3}
    swapped = tuple(swap[c] for c in coloring)
    assert (verify_coloring(g, coloring, d).valid
            == verify_coloring(g, swapped, d).valid)


# --- derived quantities -----------------------------------------------------

def test_girth_known_values():
    assert girth(gen_named("c5")[0]) == 5
    assert girth(gen_named("k4")[0]) == 3
    assert girth(build_graph(4, [(0, 1), (1, 2), (2, 3)])) is None
    petersen = build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                           + [(i, i + 5) for i in range(5)]
                           + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    assert girth(petersen) == 5


def test_degeneracy_known_values():
    assert degeneracy(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))[0] == 1
    assert degeneracy(gen_named("c5")[0]) == (2, frozenset())
    d, core = degeneracy(gen_named("k7")[0])
    assert d == 6 and core == frozenset(range(7))


def _degeneracy_by_rescan(g):
    """Reference: peel a least-degree vertex (smallest index) by full scans,
    then strip vertices of degree below 6 until none is left."""
    deg = [g.degree(v) for v in range(g.n)]
    alive, d = set(range(g.n)), 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        d = max(d, deg[v])
        alive.remove(v)
        for w in g.adj[v] & alive:
            deg[w] -= 1
    core = set(range(g.n))
    while any(len(g.adj[v] & core) < 6 for v in core):
        core = {v for v in core if len(g.adj[v] & core) >= 6}
    return d, frozenset(core)


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=10 ** 6))
def test_degeneracy_matches_rescan_reference(n, seed):
    g = random_connected_graph(random.Random(seed), n)
    assert degeneracy(g) == _degeneracy_by_rescan(g)


def test_six_core_strips_pendant_tree():
    base = gen_named("t11")[0]
    edges = list(base.edges()) + [(0, 11), (11, 12)]
    g = build_graph(13, edges)
    d, core = degeneracy(g)
    assert d == 6
    assert core == frozenset(range(11))


def test_join_counts():
    c3vc5 = gen_named("c3vc5")[0]
    assert (c3vc5.n, c3vc5.m) == (8, 3 + 5 + 15)
    k2vh7 = gen_named("k2vh7")[0]
    assert (k2vh7.n, k2vh7.m) == (9, 1 + 11 + 14)


def test_induced_subgraph_of_complete_graph():
    k7 = gen_named("k7")[0]
    sub, back = induced_subgraph(k7, range(6))
    assert (sub.n, sub.m) == (6, 15)
    assert back == tuple(range(6))
    with pytest.raises(ValueError):
        induced_subgraph(k7, [0, 9])


def test_join_of_cycles_degree_profile():
    g = join(gen_named("c4")[0], gen_named("c4")[0])
    assert all(g.degree(v) == 2 + 4 for v in range(8))
