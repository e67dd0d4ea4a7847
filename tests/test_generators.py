"""Graph family generators and the 6-regular 4-colorability classifier."""
import itertools

import pytest

from torodef import (CirculantSpec, DefectVector, GridSpec, InvalidSpec,
                     are_isomorphic, classify_6regular, gen_circulant, gen_grid,
                     gen_named, solve)
from torodef.generators import (SMALL_EXCEPTION_GRIDS, SPORADIC_PAIRS, _r_forms,
                                _simple_6regular, canonical_offset, unit_image)
from .conftest import (all_valid_grids, classify_against_search, classify_grid_by_isomorphism,
                       exception_graphs, grid_as_circulant, grid_collapses,
                       unit_family_circulants)


# --- circulants -------------------------------------------------------------

def test_circulant_counts_and_regularity():
    g = gen_circulant(CirculantSpec(13, frozenset({1, 2, 3})))
    assert (g.n, g.m) == (13, 39)
    assert all(g.degree(v) == 6 for v in range(13))


def test_circulant_half_offset_drops_degree():
    g = gen_circulant(CirculantSpec(10, frozenset({1, 5})))
    assert all(g.degree(v) == 3 for v in range(10))


def test_circulant_rejects_out_of_range_offsets():
    with pytest.raises(InvalidSpec):
        CirculantSpec(10, frozenset({6}))
    with pytest.raises(InvalidSpec):
        CirculantSpec(10, frozenset({0}))


def test_circulant_validity_rule_matches_the_degrees():
    # Three offsets, none n/2, exactly when every vertex has degree 6; the
    # other sizes are checked on the smaller orders.
    for n in range(3, 60):
        sizes = (1, 2, 3, 4) if n < 20 else (3,)
        for size in sizes:
            for offs in itertools.combinations(range(1, n // 2 + 1), size):
                spec = CirculantSpec(n, frozenset(offs))
                g = gen_circulant(spec)
                regular = all(g.degree(v) == 6 for v in range(n))
                assert _simple_6regular(spec) == regular, spec.token()


def test_canonical_offset():
    assert canonical_offset(9, 13) == 4
    assert canonical_offset(-1, 13) == 1
    assert canonical_offset(13, 13 * 2) == 13
    with pytest.raises(InvalidSpec):
        canonical_offset(26, 13)


def test_unit_image_is_group_action():
    offs = frozenset({1, 2, 3})
    n = 13
    assert unit_image(offs, n, 1) == offs
    # composing units composes images
    assert unit_image(unit_image(offs, n, 2), n, 7) == unit_image(offs, n, 14 % n)


# --- shifted grids ----------------------------------------------------------

def test_grid_counts_and_regularity():
    g, rot = gen_grid(GridSpec(5, 5, 1))
    assert (g.n, g.m) == (25, 75)
    assert all(g.degree(v) == 6 for v in range(25))
    assert all(len(rot.rot[v]) == 6 for v in range(25))


def test_grid_spec_range_checks():
    with pytest.raises(InvalidSpec):
        GridSpec(0, 3, 1)
    with pytest.raises(InvalidSpec):
        GridSpec(3, 3, 4)  # shift above row count


def test_two_column_shift_one_collapses():
    """G[m x 2, 1] degenerates (parallel seam edges leave it 5-regular), so
    the generator rejects it; odd m is the exception list's second case."""
    for m in (3, 4, 5, 7):
        spec = GridSpec(m, 2, 1)
        assert not spec.valid
        with pytest.raises(InvalidSpec):
            gen_grid(spec)
    assert GridSpec(4, 2, 4).valid


def test_grid_validity_at_vertex_0_matches_the_whole_grid_scan():
    # Every spec up to 120 vertices; the builds of the valid ones are left
    # to the triangulation test below, at fewer vertices.
    for m in range(1, 121):
        for n in range(1, 120 // m + 1):
            for k in range(1, m + 1):
                spec = GridSpec(m, n, k)
                collapses = grid_collapses(spec)
                assert spec.valid != collapses, spec.token()
                if collapses:
                    with pytest.raises(InvalidSpec):
                        gen_grid(spec)
                    with pytest.raises(InvalidSpec):
                        classify_6regular(spec)


def test_single_column_grid_equals_circulant_on_same_labels():
    for m, k in ((7, 4), (11, 4), (9, 5), (12, 7)):
        spec = GridSpec(m, 1, k)
        if not spec.valid:
            continue
        g = gen_grid(spec)[0]
        c = gen_circulant(grid_as_circulant(spec))
        assert sorted(g.edges()) == sorted(c.edges())


def test_all_small_grids_are_6_regular_triangulations():
    # gen_grid internally asserts genus 2 and triangular faces; touching a
    # swath of specs exercises that check across seams and shifts.
    for spec in all_valid_grids(20):
        g, _ = gen_grid(spec)
        assert all(g.degree(v) == 6 for v in range(g.n))


# --- named graphs -----------------------------------------------------------

def test_named_counts():
    for name, n, m in (("k6", 6, 15), ("k7", 7, 21), ("h7", 7, 11),
                       ("t11", 11, 33), ("c3vc5", 8, 23), ("k2vh7", 9, 26)):
        g, _ = gen_named(name)
        assert (g.n, g.m) == (n, m), name
    with pytest.raises(ValueError):
        gen_named("frucht")
    with pytest.raises(ValueError):
        gen_named("c2")


def test_k7_and_t11_are_the_expected_circulants():
    assert are_isomorphic(gen_named("k7")[0], gen_named("k7")[0])[0]
    c11 = gen_circulant(CirculantSpec(11, frozenset({1, 2, 3})))
    assert are_isomorphic(gen_named("t11")[0], c11)[0]
    k7 = gen_named("k7")[0]
    assert all(k7.degree(v) == 6 for v in range(7))  # complete on 7 vertices


def test_hajos_h7_chromatic_number_four():
    h7 = gen_named("h7")[0]
    assert solve(h7, DefectVector.of(0, 0, 0)).status == "UNSAT"
    assert solve(h7, DefectVector.of(0, 0, 0, 0)).status == "SAT"


# --- exception list and classifier -----------------------------------------

def test_exception_membership_by_case():
    def verdict(spec):
        cls = classify_6regular(spec)
        return cls.four_colorable, cls.case

    assert all(verdict(s) == (False, "1") for s in SMALL_EXCEPTION_GRIDS)
    assert verdict(GridSpec(4, 4, 1)) == (True, None)
    # Case 2, G[m x 2, 1] with m odd, is not simple 6-regular: the classifier
    # rejects it as it rejects every grid of that shape.
    for spec in (GridSpec(5, 2, 1), GridSpec(4, 2, 1)):
        with pytest.raises(InvalidSpec):
            classify_6regular(spec)
    # G_n[1,r,r+1] with n in {2r+3, 3r+1, 3r+2} is a unit image of
    # G_n[1,2,3], so it is case 4.
    assert verdict(CirculantSpec(9, frozenset({1, 3, 4}))) == (False, "4")     # n = 2r+3
    assert verdict(CirculantSpec(10, frozenset({1, 3, 4}))) == (False, "4")    # n = 3r+1
    assert verdict(CirculantSpec(12, frozenset({1, 4, 5}))) == (True, None)    # 4 | n
    assert verdict(CirculantSpec(13, frozenset({1, 2, 3}))) == (False, "4")
    assert verdict(CirculantSpec(12, frozenset({1, 2, 3}))) == (True, "4")
    assert verdict(CirculantSpec(13, frozenset({1, 3, 4}))) == (False, "5")
    assert verdict(CirculantSpec(14, frozenset({1, 3, 4}))) == (True, None)


def test_exception_graphs_yield_one_circulant_per_unit_class():
    for n in range(7, 50):  # a simple 6-regular graph has at least 7 vertices
        circulants = [c for _, _, c in exception_graphs(n) if c is not None]
        assert (CirculantSpec(n, frozenset({1, 2, 3})) in circulants) == (n % 4 != 0), n
        rs = [sorted(c.offsets)[1] for c in circulants]
        for i, c in enumerate(circulants):
            assert not {r for _, r in _r_forms(c)} & set(rs[:i]), c.token()
        # Every sporadic pair of order n is a unit image of a yielded circulant.
        for r, m in SPORADIC_PAIRS:
            if m == n:
                spec = CirculantSpec(n, frozenset({1, r, r + 1}))
                assert {r1 for _, r1 in _r_forms(spec)} & set(rs), spec.token()


def test_classifier_matches_exact_search_on_grids():
    for spec in all_valid_grids(18):
        cls = classify_against_search(spec)
        if spec in SMALL_EXCEPTION_GRIDS:
            assert not cls.four_colorable and cls.case == "1"


def test_classifier_matches_exact_search_on_circulant_families():
    for n in range(7, 21):
        for r in range(2, n // 2):
            if r + 1 > n // 2:
                continue
            spec = CirculantSpec(n, frozenset({1, r, r + 1}))
            g = gen_circulant(spec)
            if any(g.degree(v) != 6 for v in range(n)):
                continue
            classify_against_search(spec)


def test_every_multi_column_grid_up_to_49_vertices_classifies():
    # The translation-group rule gives the isomorphism oracle's verdict on
    # every grid at desk scale, which covers the orders the rule's proof
    # leaves to a check.  A verdict with a listed circulant, for those grids
    # and for the unit-family circulants, maps the spec's graph onto that
    # circulant: a bijection of the vertices that sends edges to edges.
    specs = [spec for spec in all_valid_grids(49) if spec.n > 1]
    assert len(specs) == 602
    circulants = unit_family_circulants(30)
    assert len(circulants) == 471
    mapped = 0
    for spec in specs + circulants:
        cls = classify_6regular(spec)
        if isinstance(spec, GridSpec):
            oracle = classify_grid_by_isomorphism(cls.graph)
            assert cls.four_colorable == oracle.four_colorable, spec.token()
        assert (cls.to_listed is None) == (cls.reduced is None), spec.token()
        if cls.reduced is None:
            continue
        f, listed = cls.to_listed, gen_circulant(cls.reduced)
        assert sorted(f) == list(range(cls.graph.n)), spec.token()
        assert all(f[v] in listed.adj[f[u]] for u, v in cls.graph.edges()), spec.token()
        mapped += 1
    # 216 listed verdicts of the oracle's, and 29 grids that are unit images
    # of G_N[1,2,3] with 4 | N: 4-colorable, so the oracle lists none of them.
    assert mapped == 245
    for spec in (GridSpec(5, 5, 1), GridSpec(7, 7, 1)):
        assert classify_6regular(spec).four_colorable, spec.token()


def test_classifier_known_verdicts():
    assert classify_6regular(CirculantSpec(12, frozenset({1, 2, 3}))).four_colorable
    assert not classify_6regular(CirculantSpec(13, frozenset({1, 2, 3}))).four_colorable
    v = classify_6regular(CirculantSpec(13, frozenset({1, 3, 4})))
    assert not v.four_colorable and v.case == "5"
    # A disguised sporadic member, reached only through a unit image.
    hidden = CirculantSpec(13, unit_image(frozenset({1, 3, 4}), 13, 2))
    w = classify_against_search(hidden)
    assert not w.four_colorable


def test_classifier_rejects_unplaced_specs():
    with pytest.raises(InvalidSpec):
        classify_6regular(CirculantSpec(13, frozenset({1, 2, 5})))
    with pytest.raises(InvalidSpec):
        classify_6regular(CirculantSpec(10, frozenset({1, 2, 5})))  # 5-regular


def test_sporadic_pairs_are_all_genuinely_not_4_colorable():
    for r, n in SPORADIC_PAIRS:
        if n > 20:
            continue  # larger ones are covered by pattern tests
        spec = CirculantSpec(n, frozenset({1, r, r + 1}))
        classify_against_search(spec)
