"""Coloring pipelines: cut-and-contract, patterns, 6-regular dispatch."""
import collections
import functools
import hashlib
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import torodef
from torodef import (SAT, CirculantSpec, DefectVector, GridSpec, build_graph,
                     classify_6regular, gen_circulant, gen_grid, gen_named, induced_subgraph,
                     solve, solve_with_precoloring, verify_coloring)
from torodef import constructions, embedding, generators, solver
from torodef.constructions import (PipelineError, _four_color_planar, apply_pattern, color_0004,
                                   color_00002, color_0122, color_600001,
                                   color_6regular, color_0003_high_min_degree,
                                   color_01_paths_cycles, color_cycle_56,
                                   make_certificate, pattern_circ123,
                                   pattern_exception, transport_pattern)
from torodef.generators import SPORADIC_PAIRS, InvalidSpec
from torodef.solver import INDETERMINATE, SolveResult
from .conftest import (admits_mono_at_most, all_valid_grids, irregular_torus, time_gate,
                       unit_family_circulants)


def _embedded_instances():
    out = [gen_named("k7")[1], gen_named("t11")[1]]
    out += [gen_grid(s)[1] for s in (GridSpec(4, 4, 1), GridSpec(5, 5, 2))]
    return out


# --- small helpers ----------------------------------------------------------

def test_color_cycle_56():
    assert color_cycle_56(4) == (5, 6, 5, 6)
    odd = color_cycle_56(5)
    assert odd == (5, 6, 5, 6, 6)  # exactly one doubled 6 at the seam
    with pytest.raises(ValueError):
        color_cycle_56(2)


def test_color_01_paths_cycles():
    # Disjoint union: a path on 4 and an odd cycle on 5.
    g = build_graph(9, [(0, 1), (1, 2), (2, 3)]
                    + [(4 + i, 4 + (i + 1) % 5) for i in range(5)])
    psi = color_01_paths_cycles(g)
    report = verify_coloring(g, psi, DefectVector.of(0, 1))
    assert report.valid
    assert report.mono_counts[1] == 1  # one matching edge on the odd cycle
    with pytest.raises(ValueError):
        color_01_paths_cycles(gen_named("k4")[0])


def test_make_certificate_rejects_invalid_claims():
    g = gen_named("c3")[0]
    with pytest.raises(AssertionError):
        make_certificate(g, (1, 1, 2), DefectVector.of(0, 0), "bogus")


# --- cut-and-contract pipelines --------------------------------------------

def test_600001_certificates():
    for rot in _embedded_instances():
        cert = color_600001(rot)
        assert str(cert.defects) == "0,0,0,0,0,1*"
        report = verify_coloring(rot.graph, cert.coloring, cert.defects)
        assert report.valid
        assert sum(report.mono_counts) <= 1
        assert report.mono_counts[:5] == (0, 0, 0, 0, 0)


def test_600001_even_cycle_has_no_mono_edge():
    _, rot = gen_grid(GridSpec(4, 4, 1))  # shortest non-contractible cycle is even
    cert = color_600001(rot)
    assert cert.mono_edges == ()


def test_00002_class_five_is_a_chordless_cycle():
    for rot in _embedded_instances():
        cert = color_00002(rot)
        assert str(cert.defects) == "0,0,0,0,2"
        g = rot.graph
        members = [v for v in range(g.n) if cert.coloring[v] == 5]
        assert len(members) >= 3
        for v in members:
            inside = sum(1 for w in g.adj[v] if cert.coloring[w] == 5)
            assert inside == 2  # cycle, and chordless


def test_0004_defect_class_degree_bound():
    for rot in _embedded_instances():
        cert = color_0004(rot)
        assert str(cert.defects) == "0,0,0,4"
        g = rot.graph
        report = verify_coloring(g, cert.coloring, cert.defects)
        assert report.valid
        assert report.max_degrees[:3] == (0, 0, 0)
        assert report.max_degrees[3] <= 4


# --- planar 4-coloring ------------------------------------------------------

PIPELINES = (color_600001, color_00002, color_0004)
# The smallest-last greedy with Kempe swaps misses on the cut graphs of these
# two corpus grids; everywhere else in the corpus it colors on its own.
HEURISTIC_MISSES = (GridSpec(45, 1, 20), GridSpec(45, 1, 28))


@pytest.mark.parametrize("spec", HEURISTIC_MISSES, ids=lambda s: s.token())
def test_exact_fallback_colors_the_heuristic_misses(spec, monkeypatch):
    runs = []

    def counting(h, pre, d, node_budget=None):
        runs.append((h.n, node_budget))
        return solve_with_precoloring(h, pre, d, node_budget=node_budget)

    monkeypatch.setattr(constructions, "solve_with_precoloring", counting)
    rot = gen_grid(spec)[1]
    for op in PIPELINES:
        cert = op(rot)
        assert verify_coloring(rot.graph, cert.coloring, cert.defects).valid
    # 600001 and 00002 fall back on the cut graph, and the first run of the
    # search colors it; 0004's contracted graph is colored by the heuristic.
    n = rot.cut.h.n
    assert runs == [(n, constructions._run_unit(n))] * 2


@functools.cache
def _corpus_cut_graphs():
    specs = all_valid_grids(49)[::97] + list(HEURISTIC_MISSES)
    rots = [gen_grid(s)[1] for s in specs] + [gen_named("t11")[1]]
    return [rot.cut.h for rot in rots]


@settings(deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0, max_value=10 ** 6))
def test_four_color_planar_on_planar_subgraphs(index, seed):
    """A subgraph of a planar cut graph is planar: the colorer must give a
    proper 4-coloring, and the same one on every call."""
    cuts = _corpus_cut_graphs()
    base = cuts[index % len(cuts)]
    rng = random.Random(seed)
    p_vertex, p_edge = rng.random() / 2, rng.random() / 2
    sub, _ = induced_subgraph(base, [v for v in range(base.n) if rng.random() >= p_vertex])
    h = build_graph(sub.n, [e for e in sub.edges() if rng.random() >= p_edge])
    coloring = _four_color_planar(h, "property")
    assert verify_coloring(h, coloring, DefectVector.of(0, 0, 0, 0)).valid
    assert _four_color_planar(h, "property") == coloring


# Seeds 116 and 250: the exact search alone took past 10 s on their cut
# graphs (still INDETERMINATE after 4 * 10**5 nodes).
IRREGULAR_SEEDS = (*range(1, 41), 116, 250)


def test_pipelines_on_irregular_tori():
    t0 = time.perf_counter()
    rots = [irregular_torus(seed) for seed in IRREGULAR_SEEDS]
    degrees = {rot.graph.degree(v) for rot in rots for v in range(rot.graph.n)}
    assert max(degrees) >= 8 and min(degrees) <= 4  # the flips and deletions happened
    for rot in rots:
        for op in PIPELINES:
            cert = op(rot)
            assert verify_coloring(rot.graph, cert.coloring, cert.defects).valid
    assert time.perf_counter() - t0 < 20


def test_pipelines_share_one_cycle_at_desk_scale(monkeypatch):
    calls, cuts = [], []

    def counting(rot, real=embedding.shortest_noncontractible_cycle):
        calls.append(rot)
        return real(rot)

    def cutting(rot, c, real=embedding.cut_and_contract):
        cuts.append(rot)
        return real(rot, c)

    monkeypatch.setattr(embedding, "shortest_noncontractible_cycle", counting)
    monkeypatch.setattr(embedding, "cut_and_contract", cutting)
    t0 = time.perf_counter()
    _, rot = gen_grid(GridSpec(40, 40, 9))
    for op in PIPELINES:
        cert = op(rot)
        assert verify_coloring(rot.graph, cert.coloring, cert.defects).valid
    assert calls == [rot]  # the rotation system keeps its cycle
    assert cuts == [rot]  # and its cut
    assert time.perf_counter() - t0 < 10


def test_pipelines_certify_planarity_without_networkx():
    """The cut proves its planarity by its own genus-0 rotation, so the
    package runs the three cut pipelines and a 6reg colour op without
    loading networkx, which only the tests' independent planarity oracle
    uses.  A fresh interpreter keeps this suite's own imports out of it."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        import torodef
        from torodef import cli
        for token in ("k7", "t11", "grid:5x5,2"):
            rot = cli.parse_family_token(token)[1]
            for op in (torodef.color_600001, torodef.color_00002, torodef.color_0004):
                cert = op(rot)
                assert torodef.verify_coloring(rot.graph, cert.coloring, cert.defects).valid
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["color", "grid:6x3,3", "--construction", "6reg"]) == 0
        assert "networkx" not in sys.modules, "networkx was imported"
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(torodef.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_0122_split():
    for name in ("k7", "t11"):
        g = gen_named(name)[0]
        cert = color_0122(g)
        assert str(cert.defects) == "0,1,2,2"
        report = verify_coloring(g, cert.coloring, cert.defects)
        assert report.valid
        assert report.max_degrees[0] == 0
        assert report.max_degrees[1] <= 1


# --- patterns ---------------------------------------------------------------

def test_pattern_circ123_shapes():
    assert pattern_circ123(12) == "abcd" * 3
    assert pattern_circ123(13) == "abcd" * 2 + "abcdd"
    assert len(pattern_circ123(57)) == 57
    with pytest.raises(ValueError):
        pattern_circ123(7)
    with pytest.raises(ValueError):
        pattern_circ123(11)


def test_pattern_circ123_verifies():
    for n in (8, 9, 10, 12, 13, 14, 15, 21, 34, 59):
        g = gen_circulant(CirculantSpec(n, frozenset({1, 2, 3})))
        coloring = apply_pattern(pattern_circ123(n))
        d = DefectVector.of(0, 0, 0, 0) if n % 4 == 0 else DefectVector.of(0, 0, 0, 1)
        report = verify_coloring(g, coloring, d)
        assert report.valid, n
        assert sum(report.mono_counts) <= 3
        assert report.mono_counts[:3] == (0, 0, 0)


def test_pattern_exception_all_sporadic_pairs_verify():
    minimum_mono = {}
    for r, n in SPORADIC_PAIRS:
        g = gen_circulant(CirculantSpec(n, frozenset({1, r, r + 1})))
        coloring = apply_pattern(pattern_exception(r, n))
        report = verify_coloring(g, coloring, DefectVector.of(0, 0, 0, 1))
        assert report.valid, (r, n)
        minimum_mono[(r, n)] = sum(report.mono_counts)
    # Every pair but (7, 19) needs at most two monochromatic edges; for
    # (7, 19) three is exhaustively optimal (no valid coloring does better,
    # which the exact search below decides).
    assert all(m <= 2 for pair, m in minimum_mono.items() if pair != (7, 19))
    assert minimum_mono[(7, 19)] == 3
    g19 = gen_circulant(CirculantSpec(19, frozenset({1, 7, 8})))
    assert not admits_mono_at_most(g19, 2)


def test_admits_mono_at_most_finds_two_edge_colorings():
    # The pairs whose optimum is exactly two: the search must say yes at
    # b = 2 and no at b = 1, so an always-UNSAT helper cannot pass.
    for r, n in ((3, 18), (7, 26), (10, 26)):
        g = gen_circulant(CirculantSpec(n, frozenset({1, r, r + 1})))
        assert admits_mono_at_most(g, 2), (r, n)
        assert not admits_mono_at_most(g, 1), (r, n)


def test_admits_mono_at_most_one_matches_starred_solve():
    one_star = DefectVector.parse("0,0,0,1*")
    for r, n in SPORADIC_PAIRS:
        g = gen_circulant(CirculantSpec(n, frozenset({1, r, r + 1})))
        assert admits_mono_at_most(g, 1) == (solve(g, one_star).status == SAT), (r, n)


def test_admits_mono_at_most_rejects_non_circulants_and_large_bounds():
    g = gen_circulant(CirculantSpec(13, frozenset({1, 3, 4})))
    with pytest.raises(ValueError):
        admits_mono_at_most(g, 3)
    with pytest.raises(ValueError):
        admits_mono_at_most(build_graph(4, [(0, 1), (1, 2), (2, 3)]), 1)


def test_pattern_exception_rejects_unknown_pairs():
    with pytest.raises(ValueError):
        pattern_exception(5, 21)


def test_transport_pattern_is_a_bijection():
    pat = pattern_exception(6, 17)
    moved = transport_pattern(pat, 17, 3)
    assert sorted(moved) == sorted(pat)
    assert moved != pat


# --- 6-regular dispatch -----------------------------------------------------

def _check_6reg(spec, expected_defects):
    cert = color_6regular(spec)
    g = gen_grid(spec)[0] if isinstance(spec, GridSpec) else gen_circulant(spec)
    assert str(cert.defects) == expected_defects
    assert verify_coloring(g, cert.coloring, cert.defects).valid


def test_color_6regular_dispatch():
    _check_6reg(GridSpec(5, 5, 1), "0,0,0,0")                      # 4-colorable
    _check_6reg(GridSpec(3, 3, 2), "0,0,0,1")                      # small exception
    _check_6reg(GridSpec(7, 1, 4), "0,0,0,3")                      # K7
    _check_6reg(GridSpec(11, 1, 4), "0,0,0,2")                     # T11
    _check_6reg(CirculantSpec(12, frozenset({1, 2, 3})), "0,0,0,0")
    _check_6reg(CirculantSpec(13, frozenset({1, 2, 3})), "0,0,0,1")
    _check_6reg(CirculantSpec(13, frozenset({1, 3, 4})), "0,0,0,1")  # sporadic
    _check_6reg(CirculantSpec(9, frozenset({1, 3, 4})), "0,0,0,1")   # reduces to [1,2,3]
    # Multi-column grids colored through the classifier's character map.
    _check_6reg(GridSpec(6, 3, 3), "0,0,0,1")                      # G_18[1,2,3]
    _check_6reg(GridSpec(9, 2, 6), "0,0,0,1")                      # G_18[1,3,4]
    _check_6reg(GridSpec(7, 2, 4), "0,0,0,1")                      # G_14[1,2,3]


def test_6regular_certificates_digest_is_pinned():
    # One hash over every certificate of a fixed pool that reaches each
    # branch of the 6-regular dispatcher: a change to a pattern, to the map
    # that carries it, to the search or to a provenance string moves it.
    specs = all_valid_grids(30) + unit_family_circulants(40)
    h, kinds = hashlib.sha256(), collections.Counter()
    for spec in specs:
        cert = color_6regular(spec)
        kinds[re.match(r"6reg-[a-z0-9]+(-[a-z0-9]+)?", cert.provenance).group()] += 1
        h.update(repr((spec.token(), cert.provenance, str(cert.defects), cert.coloring,
                       cert.mono_edges)).encode())
    assert kinds == {"6reg-circle": 1240, "6reg-pattern-123": 259, "6reg-proper4-solve": 97,
                     "6reg-pattern-sporadic": 84, "6reg-grid-as": 26, "6reg-t11": 11,
                     "6reg-small-exception": 6, "6reg-k7": 3}
    assert h.hexdigest() == "451057b07fc18016bee1a31717febe21580d33f0f6871d13e4c5f07843d5ad7b"


def test_color_6regular_classifies_a_grid_once(monkeypatch):
    # The grid's verdict carries the circulant it matched and its map onto it.
    calls = []

    def counting(spec):
        calls.append(spec)
        return classify_6regular(spec)

    monkeypatch.setattr(constructions, "classify_6regular", counting)
    for spec in (GridSpec(9, 2, 6), GridSpec(6, 3, 3)):
        calls.clear()
        _check_6reg(spec, "0,0,0,1")
        assert calls == [spec]


def test_color_6regular_over_the_unit_family():
    specs = unit_family_circulants(30)
    assert len(specs) == 471
    for spec in specs:
        n = spec.n
        cls = classify_6regular(spec)
        cert = color_6regular(spec)
        in_123 = cls.reduced == CirculantSpec(n, frozenset({1, 2, 3}))
        if cls.four_colorable:
            want = "0,0,0,0"
        elif in_123 and n == 7:
            want = "0,0,0,3"
        elif in_123 and n == 11:
            want = "0,0,0,2"
        else:
            want = "0,0,0,1"
        assert str(cert.defects) == want, spec
        assert verify_coloring(gen_circulant(spec), cert.coloring, cert.defects).valid, spec
        if cls.reduced is None or (in_123 and n in (7, 11)):
            continue
        # Transport is an isomorphism: it keeps the pattern's monochromatic edges.
        r = sorted(cls.reduced.offsets)[1]
        pattern = pattern_circ123(n) if in_123 else pattern_exception(r, n)
        report = verify_coloring(gen_circulant(cls.reduced), apply_pattern(pattern),
                                 cert.defects)
        assert len(cert.mono_edges) == len(report.all_mono_edges()), spec


def test_color_6regular_through_hidden_unit_image():
    from torodef.generators import unit_image
    offs = unit_image(frozenset({1, 3, 4}), 13, 5)
    assert offs != frozenset({1, 3, 4})
    _check_6reg(CirculantSpec(13, offs), "0,0,0,1")


def test_quarter_turn_characters_exist_exactly_for_4_colorable_verdicts():
    # Whether "4-colorable with at least 50 vertices" means "has a character
    # that turns every generator a quarter" is open; this records it on every
    # multi-column grid with 50 to 80 vertices and every G_n[1,r,r+1] with
    # 50 <= n <= 100.  Correctness never rests on it: the search is the
    # fallback and every certificate is verified.
    grids = [s for s in all_valid_grids(80) if s.n > 1 and s.m * s.n >= 50]
    circulants = [CirculantSpec(n, frozenset({1, r, r + 1}))
                  for n in range(50, 101) for r in range(2, (n - 1) // 2)]
    colored = 0
    for spec in grids + circulants:
        cls = classify_6regular(spec)
        n = cls.graph.n
        circle = next((chi for _, images, chi in generators._characters(spec)
                       if all(4 * min(x, n - x) >= n for x in images)), None)
        assert (circle is not None) == cls.four_colorable, spec.token()
        if circle is not None:
            coloring = [4 * circle(v) // n + 1 for v in range(n)]
            assert verify_coloring(cls.graph, coloring, DefectVector.of(0, 0, 0, 0)).valid, \
                spec.token()
            colored += 1
    assert (len(grids), len(circulants), colored) == (1201, 1772, 2853)


def test_color_6regular_at_ten_thousand_vertices():
    # Both exhausted the search budget before the circle map.
    with time_gate(10):
        for spec in (GridSpec(99, 101, 7), CirculantSpec(4001, frozenset({1, 63, 64}))):
            cert = color_6regular(spec)
            assert str(cert.defects) == "0,0,0,0", spec.token()
            assert cert.provenance.startswith("6reg-circle("), spec.token()


# --- budgeted search with restarts ---------------------------------------------

PROPER4 = DefectVector.of(0, 0, 0, 0)


def test_luby_sequence():
    assert [constructions._luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_search_is_deterministic_across_restarts():
    # The heavy-tailed instances of test_color_6reg_heavy_tailed_searches_finish,
    # which color by the circle map: the restarted search on them keeps its gate.
    for spec in (CirculantSpec(77, frozenset({1, 20, 21})),
                 CirculantSpec(58, frozenset({5, 11, 16})), GridSpec(4, 13, 2)):
        g = classify_6regular(spec).graph
        with time_gate(2):
            first = constructions._search(g, {}, PROPER4)
        assert first.status == SAT
        assert first.nodes > constructions._run_unit(g.n), spec  # it restarted
        assert constructions._search(g, {}, PROPER4) == first, spec


def test_restarted_search_reports_on_the_input_graph(monkeypatch):
    # A relabeled run's report, monochromatic edges mapped back, is the
    # verifier's report on g.  Short first runs force restarts on the
    # defective targets.
    cases = [(classify_6regular(spec).graph, PROPER4)
             for spec in (CirculantSpec(58, frozenset({5, 11, 16})), GridSpec(4, 13, 2))]
    assert all(constructions._search(g, {}, d).nodes > constructions._run_unit(g.n)
               for g, d in cases)
    monkeypatch.setattr(constructions, "_run_unit", lambda n: 5)
    cases += [(gen_named(name)[0], DefectVector.of(2, 2, 2)) for name in ("k7", "t11")]
    mono = 0
    for g, d in cases:
        res = constructions._search(g, {}, d)
        assert res.status == SAT and res.nodes > 5
        assert res.report == verify_coloring(g, res.coloring, d)
        mono += len(res.report.all_mono_edges())
    assert mono


def test_searched_6regular_coloring_is_verified_once(monkeypatch):
    # The search's own check is the certificate's; make_certificate does not
    # repeat it.
    calls = []
    for module in (solver, constructions):

        def counting(*args, real=module.verify_coloring):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, "verify_coloring", counting)
    cert = color_6regular(GridSpec(5, 5, 1))
    assert cert.provenance == "6reg-proper4-solve"
    assert len(calls) == 1


def test_search_returns_the_first_runs_coloring():
    # What the plain search finds within the first cutoff is returned as
    # is, so certificates that need no restart do not change.
    cases = ([(h, PROPER4) for h in _corpus_cut_graphs()]
             + [(gen_named(name)[0], DefectVector.of(2, 2, 2)) for name in ("k7", "t11")]
             + [(classify_6regular(GridSpec(5, 5, 1)).graph, PROPER4)])
    for g, d in cases:
        direct = solve(g, d, node_budget=constructions._run_unit(g.n))
        assert direct.status == SAT
        assert constructions._search(g, {}, d) == direct


def _every_fifth_sweep():
    """Every fifth G_n[1,r,r+1], 13 <= n < 100, that the classifier rules
    4-colorable, and the 4-colorable ones among every fifth multi-column
    grid with at most 80 vertices."""
    circulants = []
    for n in range(13, 100):
        for r in range(2, n // 2):
            spec = CirculantSpec(n, frozenset({1, r, r + 1}))
            try:
                cls = classify_6regular(spec)
            except InvalidSpec:
                continue
            if cls.four_colorable:
                circulants.append((spec, cls))
    grids = [(s, classify_6regular(s)) for s in
             [s for s in all_valid_grids(80) if s.n >= 2][::5]]
    return circulants[::5] + [(s, cls) for s, cls in grids if cls.four_colorable]


def test_restarts_color_the_4_colorable_sweep():
    specs = _every_fifth_sweep()
    assert len(specs) > 700
    # The circle map colors most of these; the restarted search is what is
    # timed here, so it runs on every graph of the sweep.
    with time_gate(15):
        for spec, cls in specs:
            res = constructions._search(cls.graph, {}, PROPER4)
            assert res.status == SAT, spec
            assert verify_coloring(cls.graph, res.coloring, PROPER4).valid, spec


# --- 6-core lifting ---------------------------------------------------------

def _with_pendants(base, extra_edges, total):
    edges = list(base.edges()) + extra_edges
    return build_graph(total, edges)


def test_0003_core_lift_on_decorated_t11():
    base = gen_named("t11")[0]
    g = _with_pendants(base, [(0, 11), (11, 12), (3, 12), (12, 13)], 14)
    cert = color_0003_high_min_degree(g, GridSpec(11, 1, 4))
    assert verify_coloring(g, cert.coloring, cert.defects).valid
    assert cert.defects.entries[-1][0] <= 3


def test_0003_core_lift_on_decorated_k7():
    base = gen_named("k7")[0]
    g = _with_pendants(base, [(0, 7), (1, 7), (7, 8)], 9)
    cert = color_0003_high_min_degree(g, GridSpec(7, 1, 4))
    assert str(cert.defects) == "0,0,0,3"
    assert verify_coloring(g, cert.coloring, cert.defects).valid


def test_0003_core_lift_falls_through_an_exhausted_budget(monkeypatch):
    # A stronger target whose extension runs out of budget gives way to
    # (0,0,0,3), as an UNSAT one does; only when every target fails does
    # the lift give up.
    real = constructions._search
    starved = []

    def starving(g, pre, d):
        if pre and str(d) in starved:
            return SolveResult(INDETERMINATE, None, constructions._NODE_BUDGET)
        return real(g, pre, d)

    monkeypatch.setattr(constructions, "_search", starving)
    g = _with_pendants(gen_named("t11")[0], [(0, 11), (11, 12), (3, 12), (12, 13)], 14)
    starved.append("0,0,0,2")
    cert = color_0003_high_min_degree(g, GridSpec(11, 1, 4))
    assert str(cert.defects) == "0,0,0,3"
    assert verify_coloring(g, cert.coloring, cert.defects).valid
    starved.append("0,0,0,3")
    with pytest.raises(PipelineError):
        color_0003_high_min_degree(g, GridSpec(11, 1, 4))


def test_0003_core_lift_builds_the_core_graph_once(monkeypatch):
    # The core's isomorphism check and its coloring share one classification.
    calls = []

    def counting(spec, real=generators._validate_6regular):
        calls.append(spec)
        return real(spec)

    for module in (generators, constructions):  # every binding a module may call
        if hasattr(module, "_validate_6regular"):
            monkeypatch.setattr(module, "_validate_6regular", counting)
    g = _with_pendants(gen_named("k7")[0], [(0, 7), (1, 7), (7, 8)], 9)
    cert = color_0003_high_min_degree(g, GridSpec(7, 1, 4))
    assert verify_coloring(g, cert.coloring, cert.defects).valid
    assert calls == [GridSpec(7, 1, 4)]


def test_0003_core_lift_preconditions():
    with pytest.raises(ValueError):
        color_0003_high_min_degree(gen_named("c5")[0], GridSpec(7, 1, 4))  # no 6-core
    base = gen_named("t11")[0]
    g = _with_pendants(base, [(0, 11)], 12)
    with pytest.raises(ValueError):
        color_0003_high_min_degree(g, GridSpec(7, 1, 4))  # core is T11, not K7
