"""Exact defective-coloring search, cross-validated against enumeration."""
import hashlib
import itertools
import random
import time

import pytest

from torodef import (CirculantSpec, DefectVector, INDETERMINATE, SAT, UNSAT, build_graph,
                     enumerate_oracle, gen_circulant, gen_named, solve,
                     solve_with_precoloring, verify_coloring)
from torodef.generators import SPORADIC_PAIRS
from .conftest import random_connected_graph


def test_known_unsat_facts():
    k7 = gen_named("k7")[0]
    assert solve(k7, DefectVector.parse("0,0,0,2")).status == UNSAT
    assert solve(k7, DefectVector.parse("0,0,0,0,1")).status == UNSAT
    assert solve(k7, DefectVector.parse("0,0,0,0,0,0")).status == UNSAT


def test_known_sat_facts_verify():
    t11 = gen_named("t11")[0]
    res = solve(t11, DefectVector.parse("0,0,0,2"))
    assert res.status == SAT
    assert verify_coloring(t11, res.coloring, DefectVector.parse("0,0,0,2")).valid


def test_star_is_strictly_stronger_than_defect_one():
    # Two disjoint edges: (1) admits both edges monochromatic, (1*) does not
    # in one class, but a second class restores satisfiability.
    g = build_graph(4, [(0, 1), (2, 3)])
    assert solve(g, DefectVector.parse("1")).status == SAT
    res = solve(g, DefectVector.parse("1*"))
    assert res.status == UNSAT
    assert solve(g, DefectVector.parse("1*,0")).status == SAT


def test_solve_agrees_with_oracle_randomly():
    rng = random.Random(20240823)
    vectors = [DefectVector.parse(t) for t in
               ("0,0", "0,1", "1,1", "2,2", "0,0,0", "0,1*", "1*,1*", "0,0,2")]
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        d = rng.choice(vectors)
        fast = solve(g, d)
        slow = enumerate_oracle(g, d)
        assert fast.status == slow.status, (list(g.edges()), str(d))


def test_mixed_class_vectors_agree_with_oracle():
    # Proper, defective and starred classes in one search, with and without a
    # precoloring: interchangeable starred classes, and a defect-1 class
    # beside a starred one.  A precolored instance is judged by trying every
    # extension of the precoloring with the verifier.
    rng = random.Random(20261019)
    vectors = [DefectVector.parse(t) for t in
               ("0,0,0,1*", "0,0,1,1*", "0,1*,2,0", "0,0,0,2", "1*,1*,0,0",
                "1*,1*,1*", "1*,1,0", "0,1*,1*,1*")]
    for _ in range(320):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        d = rng.choice(vectors)
        res, truth = solve(g, d), enumerate_oracle(g, d)
        assert res.status == truth.status, (list(g.edges()), str(d))
        pre = {v: rng.randrange(1, d.k + 1) for v in rng.sample(range(g.n), 2)}
        res = solve_with_precoloring(g, pre, d)
        free = [v for v in range(g.n) if v not in pre]
        fills = ({**pre, **dict(zip(free, rest))}
                 for rest in itertools.product(range(1, d.k + 1), repeat=len(free)))
        sat = any(verify_coloring(g, tuple(f[v] for v in range(g.n)), d).valid for f in fills)
        assert res.status == (SAT if sat else UNSAT), (list(g.edges()), str(d), pre)
        if truth.status == SAT:
            # Any part of a valid coloring extends.
            part = {v: truth.coloring[v] for v in range(g.n) if rng.random() < 0.5}
            assert solve_with_precoloring(g, part, d).status == SAT


def test_monotonicity_in_the_defect_vector():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 8))
        base = DefectVector.of(0, 0)
        bigger = DefectVector.of(1, 2)
        if solve(g, base).status == SAT:
            assert solve(g, bigger).status == SAT


def test_status_invariant_under_vertex_relabeling():
    rng = random.Random(6)
    for _ in range(15):
        g = random_connected_graph(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        h = build_graph(7, [(perm[u], perm[v]) for u, v in g.edges()])
        d = DefectVector.of(0, 1)
        assert solve(g, d).status == solve(h, d).status


def test_precoloring_is_respected():
    t11 = gen_named("t11")[0]
    d = DefectVector.parse("0,0,0,2")
    pre = {0: 1, 1: 2, 2: 3}
    res = solve_with_precoloring(t11, pre, d)
    assert res.status == SAT
    for v, c in pre.items():
        assert res.coloring[v] == c


def test_inconsistent_precoloring_reports_witness():
    g = gen_named("k4")[0]
    res = solve_with_precoloring(g, {0: 1, 1: 1}, DefectVector.of(0, 0, 0, 0))
    assert res.status == UNSAT
    assert res.violation == (1, 1)  # second seeded vertex breaks class 1


def test_precolored_star_class_witnesses():
    # The first precolored vertex that breaks a starred class is the witness:
    # a second neighbour in the class, or a second edge.
    d = DefectVector.parse("1*,0")
    cases = [(3, [(0, 2), (1, 2)], {0: 1, 1: 1, 2: 1}, (2, 1)),
             (4, [(0, 1), (2, 3)], {0: 1, 1: 1, 2: 1, 3: 1}, (3, 1)),
             (4, [(0, 1), (1, 2), (2, 3)], {0: 1, 1: 1, 2: 1}, (2, 1))]
    for n, edges, pre, witness in cases:
        res = solve_with_precoloring(build_graph(n, edges), pre, d)
        assert (res.status, res.violation) == (UNSAT, witness), edges
    res = solve_with_precoloring(build_graph(4, [(0, 1), (2, 3)]), {0: 1, 1: 1}, d)
    assert (res.status, res.coloring) == (SAT, (1, 1, 1, 2))


def test_precoloring_that_blocks_completion():
    # Path 0-1-2 with two proper classes: the endpoints may be frozen on
    # different classes only if the middle vertex still has a class left.
    g = build_graph(3, [(0, 1), (1, 2)])
    d = DefectVector.of(0, 0)
    assert solve(g, d).status == SAT
    res = solve_with_precoloring(g, {0: 1, 2: 2}, d)
    assert res.status == UNSAT  # consistent seed, impossible completion
    assert res.violation is None
    assert solve_with_precoloring(g, {0: 1, 2: 1}, d).status == SAT


def test_precoloring_rejects_out_of_range_class():
    g = gen_named("c4")[0]
    with pytest.raises(ValueError):
        solve_with_precoloring(g, {0: 5}, DefectVector.of(0, 0))


def test_precoloring_rejects_out_of_range_vertex():
    # A negative index must not wrap round to the last vertex.
    k7 = gen_named("k7")[0]
    d = DefectVector.parse("0,0,0,0,0,0,0")
    for v in (-1, 7):
        with pytest.raises(ValueError):
            solve_with_precoloring(k7, {v: 1}, d)


def test_node_budget_gives_indeterminate():
    k7 = gen_named("k7")[0]
    res = solve(k7, DefectVector.parse("0,0,0,0,0,0"), node_budget=3)
    assert res.status == INDETERMINATE
    assert res.coloring is None
    with pytest.raises(ValueError):
        solve(k7, DefectVector.parse("0,0,0,0,0,0"), node_budget=-5)


def test_search_order_is_pinned():
    # (status, nodes) fix the branching order: a change to the vertex choice
    # or the class order moves these counts before it moves any certificate.
    def circ(n, offsets):
        return gen_circulant(CirculantSpec(n, frozenset(offsets)))
    k7, t11 = gen_named("k7")[0], gen_named("t11")[0]
    # G_25[1,6,7] less vertex 0 is not regular, so the degree tie-break counts.
    g25 = circ(25, {1, 6, 7})
    punctured = build_graph(24, [(u - 1, v - 1) for u, v in g25.edges() if u and v])
    pins = [(circ(19, {1, 7, 8}), "0,0,0,1*", UNSAT, 4505),
            (circ(18, {1, 3, 4}), "0,0,0,1*", UNSAT, 4362),
            (circ(26, {1, 7, 8}), "0,0,0,1*", UNSAT, 50891),
            (circ(35, {1, 2, 3}), "0,0,0,1*", UNSAT, 1608),
            (g25, "0,0,0,0", UNSAT, 3021),
            (punctured, "0,0,0,0", SAT, 184),
            (t11, "0,0,0,2", SAT, 43),
            (k7, "0,0,0,3", SAT, 7),
            (k7, "0,0,0,1*,1*", SAT, 7),
            (k7, "0,0,0,0,0,0", UNSAT, 6)]
    for g, d, status, nodes in pins:
        res = solve(g, DefectVector.parse(d))
        assert (res.status, res.nodes) == (status, nodes), d


def test_search_tree_digest_is_pinned():
    # One hash over (status, nodes, coloring, violation) of a fixed corpus: a
    # change to the vertex choice, the class order, the symmetry breaking or
    # the precoloring seed moves it.  The digest was recorded with the
    # count-based solver that the bitset one replaced, so it also shows that
    # both search the same tree.
    def circ(n, offsets):
        return gen_circulant(CirculantSpec(n, frozenset(offsets)))
    cases = []
    for r, n in SPORADIC_PAIRS:
        if (r, n) != (10, 37):  # the heaviest pair, left out for time
            cases += [(circ(n, {1, r, r + 1}), d, {}, None) for d in ("0,0,0,0", "0,0,0,1*")]
    for n in range(7, 40):
        cases += [(circ(n, {1, 2, 3}), d, {}, None) for d in ("0,0,0,0", "0,0,0,1*")]
    k7 = gen_named("k7")[0]
    cases += [(k7, d, {}, None) for d in ("0,0,0,2", "0,0,0,0,1", "0,0,0,0,0,0",
                                          "0,0,0,3", "0,0,0,1*,1*")]
    for name in ("t11", "c3vc5", "k2vh7"):
        g = gen_named(name)[0]
        cases += [(g, d, {}, None) for d in ("0,0,0,0,0", "0,0,0,2", "0,0,0,0,1*")]
    rng = random.Random(18)
    tokens = ("0", "1", "2", "3", "1*")
    for _ in range(500):
        g = random_connected_graph(rng, rng.randrange(1, 13))
        d = ",".join(rng.choice(tokens) for _ in range(rng.randrange(1, 5)))
        pre = ({v: rng.randrange(1, d.count(",") + 2) for v in range(g.n)
                if rng.random() < 0.2} if rng.random() < 0.3 else {})
        budget = rng.randrange(60) if rng.random() < 0.2 else None
        cases.append((g, d, pre, budget))
    t0 = time.perf_counter()
    h = hashlib.sha256()
    for g, d, pre, budget in cases:
        res = solve_with_precoloring(g, pre, DefectVector.parse(d), node_budget=budget)
        h.update(repr((res.status, res.nodes, res.coloring, res.violation)).encode())
    assert time.perf_counter() - t0 <= 3.0
    assert h.hexdigest() == "634ea7aec49eea1724d92109daa832c4fb1be0128bcabb3c338fa3f04606ff28"


def test_budget_and_precoloring_invariants():
    rng = random.Random(20261019)
    tokens = ("0", "1", "2", "1*")
    for _ in range(150):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        d = DefectVector.parse(",".join(rng.choice(tokens) for _ in range(rng.randrange(1, 5))))
        pre = {v: rng.randrange(1, d.k + 1) for v in range(g.n) if rng.random() < 0.25}
        full = solve_with_precoloring(g, pre, d)
        assert full.status != INDETERMINATE
        assert solve_with_precoloring(g, pre, d, node_budget=full.nodes) == full
        if full.nodes > 0:
            cut = solve_with_precoloring(g, pre, d, node_budget=full.nodes - 1)
            assert (cut.status, cut.coloring, cut.nodes) == (INDETERMINATE, None, full.nodes)
        if full.status == SAT:
            assert all(full.coloring[v] == c for v, c in pre.items())


def test_oracle_refuses_oversized_instances():
    g = gen_named("k7")[0]
    with pytest.raises(ValueError):
        enumerate_oracle(g, DefectVector.of(0, 0, 0), bound=10)


def test_solver_deterministic():
    g = gen_named("t11")[0]
    d = DefectVector.parse("0,0,0,2")
    assert solve(g, d).coloring == solve(g, d).coloring


def test_single_vertex_and_edgeless_graphs():
    g = build_graph(1, [])
    assert solve(g, DefectVector.of(0)).status == SAT
    h = build_graph(4, [])
    res = solve(h, DefectVector.of(0))
    assert res.status == SAT and res.coloring == (1, 1, 1, 1)
