"""Generators for the concrete graph families the toolkit works with.

Covers circulant graphs, Altshuler's 6-regular right-diagonal shifted grids
(with their canonical toroidal rotation systems), a handful of named special
graphs, and the Yeh-Zhu list of 6-regular toroidal graphs that are not
4-colorable, together with a classifier that places a grid or circulant
specification into that list.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

from .graph import Graph, build_graph, join
from .embedding import RotationSystem, euler_genus, trace_faces


class InvalidSpec(ValueError):
    """A family specification that does not yield a simple 6-regular graph."""


@dataclass(frozen=True)
class CirculantSpec:
    """Circulant graph on Z_n: vertex i adjacent to i +- x for x in offsets."""

    n: int
    offsets: frozenset[int]

    def __post_init__(self) -> None:
        for x in self.offsets:
            if not (1 <= x <= self.n // 2):
                raise InvalidSpec(f"offset {x} outside 1..{self.n // 2} for n={self.n}")

    @property
    def half_offset(self) -> bool:
        """True when n/2 is an offset (degree drops by one there)."""
        return self.n % 2 == 0 and self.n // 2 in self.offsets

    def token(self) -> str:
        return f"circ:{self.n}:" + ",".join(str(x) for x in sorted(self.offsets))


@dataclass(frozen=True)
class GridSpec:
    """Right-diagonal shifted grid G[m x n, k]: m rows, n columns, shift k."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1 or not (1 <= self.k <= self.m):
            raise InvalidSpec(f"grid spec G[{self.m}x{self.n},{self.k}] out of range")

    def token(self) -> str:
        return f"grid:{self.m}x{self.n},{self.k}"

    @property
    def valid(self) -> bool:
        """True when the spec yields a simple 6-regular graph."""
        return _grid_collapse(self.m, self.n, self.k) is None


def _grid_neighbors(m: int, n: int, k: int, i: int, j: int) -> list[tuple[int, int]]:
    """Six neighbors of 0-based (i, j), in the canonical rotation order
    east, north-east, north, west, south-west, south.  The shift applies at
    the seam between the last and first column."""
    if j < n - 1:
        e = (i, j + 1)
        ne = ((i - 1) % m, j + 1)
    else:
        e = ((i + k - 1) % m, 0)
        ne = ((i + k - 2) % m, 0)
    north = ((i - 1) % m, j)
    if j > 0:
        w = (i, j - 1)
        sw = ((i + 1) % m, j - 1)
    else:
        w = ((i - k + 1) % m, n - 1)
        sw = ((i - k + 2) % m, n - 1)
    s = ((i + 1) % m, j)
    return [e, ne, north, w, sw, s]


def _grid_collapse(m: int, n: int, k: int) -> Optional[tuple]:
    """First self-loop or collapsed neighbor pair, or None when simple."""
    for i in range(m):
        for j in range(n):
            nbrs = _grid_neighbors(m, n, k, i, j)
            if (i, j) in nbrs:
                return ((i, j), (i, j))
            if len(set(nbrs)) != 6:
                seen = set()
                for x in nbrs:
                    if x in seen:
                        return ((i, j), x)
                    seen.add(x)
    return None


def gen_circulant(spec: CirculantSpec) -> Graph:
    """Build G_n[S].  Regular of degree 2|S| (one less if n/2 is an offset)."""
    edges = []
    for i in range(spec.n):
        for x in spec.offsets:
            edges.append((i, (i + x) % spec.n))
    return build_graph(spec.n, edges)


def gen_grid(spec: GridSpec) -> tuple[Graph, RotationSystem]:
    """Build G[m x n, k] with its canonical toroidal rotation system.

    The rotation at (i, j) lists the six neighbors east, north-east, north,
    west, south-west, south; the traced faces are checked to be triangles
    with Euler genus 2 rather than assumed.
    """
    m, n, k = spec.m, spec.n, spec.k
    bad = _grid_collapse(m, n, k)
    if bad is not None:
        raise InvalidSpec(
            f"G[{m}x{n},{k}] is not simple 6-regular: neighbor {bad[1]} of {bad[0]} collapses")
    rot_rows = []
    edges = []
    for i in range(m):
        for j in range(n):
            nbrs = [a * n + b for a, b in _grid_neighbors(m, n, k, i, j)]
            rot_rows.append(tuple(nbrs))
            edges.extend((i * n + j, w) for w in nbrs)
    g = build_graph(m * n, edges)
    rot = RotationSystem(g, tuple(rot_rows))
    faces = trace_faces(rot)
    if euler_genus(rot) != 2 or any(len(f) != 3 for f in faces):
        raise AssertionError(f"canonical embedding of G[{m}x{n},{k}] is not a torus triangulation")
    return g, rot


def grid_as_circulant(spec: GridSpec) -> CirculantSpec:
    """G[m x 1, k] equals the circulant G_m[1, k-2, k-1] on the same labels."""
    if spec.n != 1:
        raise ValueError("only single-column grids are circulants by construction")
    offs = {canonical_offset(1, spec.m), canonical_offset(spec.k - 2, spec.m),
            canonical_offset(spec.k - 1, spec.m)}
    return CirculantSpec(spec.m, frozenset(offs))


def canonical_offset(x: int, n: int) -> int:
    """Reduce a difference mod n to the canonical offset in 1..n//2."""
    x %= n
    if x == 0:
        raise InvalidSpec(f"offset collapses to 0 mod {n}")
    return min(x, n - x)


def _delete_vertex(rot: RotationSystem, v: int) -> RotationSystem:
    """Remove one vertex from an embedding, keeping the cyclic orders."""
    g = rot.graph
    keep = [x for x in range(g.n) if x != v]
    index = {x: i for i, x in enumerate(keep)}
    edges = [(index[a], index[b]) for a, b in g.edges() if v not in (a, b)]
    g2 = build_graph(g.n - 1, edges)
    rows = tuple(tuple(index[w] for w in rot.rot[x] if w != v) for x in keep)
    return RotationSystem(g2, rows)


def _hajos_h7() -> Graph:
    # Two K4s A = {a1..a4}, B = {b1..b4}; drop a1a2 and b1b2, identify
    # a1 = b1, add a2b2.  Labels: a1=0, a2=1, a3=2, a4=3, b2=4, b3=5, b4=6.
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 5), (0, 6), (4, 5), (4, 6), (5, 6),
             (1, 4)]
    return build_graph(7, edges)


NAMED_TOKENS = ("k6", "k7", "h7", "t11", "c3vc5", "k2vh7")


def gen_named(name: str) -> tuple[Graph, Optional[RotationSystem]]:
    """Build a named graph; tokens also cover ``c<n>`` and ``k<n>``.

    K7 and T11 come with their canonical toroidal embeddings (grid forms
    G[7x1,4] and G[11x1,4]); K6's embedding is K7's with one vertex removed.
    """
    name = name.lower()
    if name == "k7":
        return gen_grid(GridSpec(7, 1, 4))
    if name == "t11":
        return gen_grid(GridSpec(11, 1, 4))
    if name == "k6":
        _, rot7 = gen_grid(GridSpec(7, 1, 4))
        rot6 = _delete_vertex(rot7, 6)
        return rot6.graph, rot6
    if name == "h7":
        return _hajos_h7(), None
    if name == "c3vc5":
        return join(gen_named("c3")[0], gen_named("c5")[0]), None
    if name == "k2vh7":
        return join(gen_named("k2")[0], _hajos_h7()), None
    mc = re.fullmatch(r"c(\d+)", name)
    if mc:
        n = int(mc.group(1))
        if n < 3:
            raise ValueError(f"cycle needs at least 3 vertices, got {n}")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)]), None
    mk = re.fullmatch(r"k(\d+)", name)
    if mk:
        n = int(mk.group(1))
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]), None
    raise ValueError(f"unknown graph name {name!r}")


# --- Yeh-Zhu exception list -------------------------------------------------

SMALL_EXCEPTION_GRIDS = (
    GridSpec(3, 3, 2), GridSpec(3, 3, 3),
    GridSpec(5, 3, 2), GridSpec(5, 3, 3),
    GridSpec(5, 5, 3), GridSpec(5, 5, 4),
)

SPORADIC_PAIRS = (
    (3, 13), (3, 17), (3, 18), (3, 25), (4, 17), (6, 17), (6, 25), (6, 33),
    (7, 19), (7, 25), (7, 26), (9, 25), (10, 25), (10, 26), (10, 37), (14, 33),
)


@dataclass(frozen=True)
class ExceptionCase:
    """One item of the Yeh-Zhu exception list.

    Finite items carry their members explicitly; parameterized families are
    decided by :meth:`contains`.
    """

    case_id: int
    description: str
    grids: tuple[GridSpec, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()

    def contains(self, spec: Union[GridSpec, CirculantSpec]) -> bool:
        if self.case_id == 1:
            return isinstance(spec, GridSpec) and spec in self.grids
        if self.case_id == 2:
            return (isinstance(spec, GridSpec) and spec.n == 2 and spec.k == 1
                    and spec.m % 2 == 1)
        if not isinstance(spec, CirculantSpec):
            return False
        r = _offsets_r_form(spec.offsets)
        if r is None:
            return False
        n = spec.n
        if self.case_id == 3:
            return (r != 2 and n in (2 * r + 2, 2 * r + 3, 3 * r + 1, 3 * r + 2)
                    and n % 4 != 0)
        if self.case_id == 4:
            return r == 2 and n % 4 != 0
        if self.case_id == 5:
            return (r, n) in self.pairs
        return False


def _offsets_r_form(offsets: frozenset[int]) -> Optional[int]:
    """Return r when the offset set is {1, r, r+1}, else None ({1,2,3} -> 2)."""
    offs = sorted(offsets)
    if len(offs) == 3 and offs[0] == 1 and offs[2] == offs[1] + 1:
        return offs[1]
    return None


def yehzhu_exceptions() -> tuple[ExceptionCase, ...]:
    """The exact exception list of the 4-colorability classification."""
    return (
        ExceptionCase(1, "six small shifted grids", grids=SMALL_EXCEPTION_GRIDS),
        ExceptionCase(2, "G[m x 2, 1] with m odd (not simple 6-regular)"),
        ExceptionCase(3, "G_n[1,r,r+1], n in {2r+2, 2r+3, 3r+1, 3r+2}, 4 does not divide n"),
        ExceptionCase(4, "G_n[1,2,3], 4 does not divide n"),
        ExceptionCase(5, "sporadic G_n[1,r,r+1] pairs", pairs=SPORADIC_PAIRS),
    )


@dataclass(frozen=True)
class Classification:
    """Verdict for one 6-regular spec: either 4-colorable or an exception.

    For a circulant in a listed family, ``reduced`` is its family form
    G_n[1,2,3] or G_n[1,r,r+1] and ``unit`` the p with p * offsets equal to
    the reduced offsets (1 when the spec already has that form).  For a
    multi-column grid matched to a listed graph by isomorphism,
    ``witness[v]`` is the grid vertex that vertex v of the listed graph maps
    to, and ``reduced`` names that graph when it is a circulant.
    """

    four_colorable: bool
    case: Optional[str] = None          # "1", "4", "3->4", "5", ...
    reduced: Optional[CirculantSpec] = None
    unit: Optional[int] = None
    witness: Optional[tuple[int, ...]] = None


def _units(n: int):
    return (p for p in range(1, n) if math.gcd(p, n) == 1)


def unit_image(offsets: frozenset[int], n: int, p: int) -> frozenset[int]:
    """Offsets of the circulant obtained by multiplying vertices by unit p."""
    return frozenset(canonical_offset(p * x, n) for x in offsets)


def _r_forms(spec: CirculantSpec) -> list[tuple[int, int]]:
    """All (unit, r) with unit * offsets = {1, r, r+1} canonically."""
    out = []
    for p in _units(spec.n):
        r = _offsets_r_form(unit_image(spec.offsets, spec.n, p))
        if r is not None:
            out.append((p, r))
    return out


def _validate_6regular(spec: Union[GridSpec, CirculantSpec]) -> Graph:
    if isinstance(spec, GridSpec):
        return gen_grid(spec)[0]
    g = gen_circulant(spec)
    if any(g.degree(v) != 6 for v in range(g.n)):
        raise InvalidSpec(f"{spec.token()} is not 6-regular")
    return g


def classify_6regular(spec: Union[GridSpec, CirculantSpec],
                      cross_check: bool = False) -> Classification:
    """Place a valid simple 6-regular spec in the 4-colorability landscape.

    Grid specs match the finite small-grid list directly; single-column
    grids are rewritten as circulants.  Circulants are brought to the form
    G_n[1,r,r+1] by unit multiplication where possible; the r >= 3 families
    with n in {2r+3, 3r+1, 3r+2} reduce further to G_n[1,2,3] (reported as
    case "3->4").  With ``cross_check`` and order <= 30, the verdict is
    compared against an exact 4-colorability search.
    """
    g = _validate_6regular(spec)
    result = _classify(spec, g)
    if cross_check and g.n <= 30:
        from .solver import solve
        from .graph import DefectVector
        res = solve(g, DefectVector.of(0, 0, 0, 0))
        if (res.status == "SAT") != result.four_colorable:
            raise AssertionError(f"classification of {spec.token()} contradicts exact search")
    return result


def _exception_graphs(order: int):
    """All graphs of the given order on the exception list, with provenance.

    Yields (graph, case id, circulant spec or None).  Used to recognize
    multi-column grid specs whose graphs coincide with a listed exception
    under relabeling.
    """
    for gspec in SMALL_EXCEPTION_GRIDS:
        if gspec.m * gspec.n == order:
            yield gen_grid(gspec)[0], "1", None
    cases = [c for c in yehzhu_exceptions() if c.case_id in (3, 4, 5)]
    for r in range(2, order // 2):
        try:
            cspec = CirculantSpec(order, frozenset({1, r, r + 1}))
        except InvalidSpec:
            continue
        if cspec.half_offset or len(cspec.offsets) != 3:
            continue
        matching = [c for c in cases if c.contains(cspec)]
        if matching:
            yield gen_circulant(cspec), str(matching[0].case_id), cspec


def _classify_grid_by_isomorphism(g: Graph) -> Classification:
    """Place a multi-column grid's graph by comparing it against same-order
    exception graphs; grid parameters alone do not determine membership
    because distinct specs can describe isomorphic graphs."""
    from .iso import are_isomorphic
    for candidate, case, cspec in _exception_graphs(g.n):
        ok, witness = are_isomorphic(candidate, g)
        if ok:
            return Classification(False, case=case, reduced=cspec,
                                  witness=tuple(witness[v] for v in range(g.n)))
    return Classification(True)


def _classify(spec: Union[GridSpec, CirculantSpec], g: Graph) -> Classification:
    if isinstance(spec, GridSpec):
        if spec in SMALL_EXCEPTION_GRIDS:
            return Classification(False, case="1")
        if spec.n == 1:
            return _classify(grid_as_circulant(spec), g)
        return _classify_grid_by_isomorphism(g)

    n = spec.n
    direct_r = _offsets_r_form(spec.offsets)
    forms = _r_forms(spec)
    if not forms:
        raise InvalidSpec(
            f"{spec.token()} is not unit-equivalent to any G_n[1,r,r+1]; "
            "its toroidality is not established by this classifier")

    for p, r in forms:
        if r == 2:
            if direct_r == 2:
                case = "4"
            else:
                case = "3->4" if direct_r is not None else "->4"
            return Classification(n % 4 == 0, case=case,
                                  reduced=CirculantSpec(n, frozenset({1, 2, 3})), unit=p)

    for p, r in forms:
        if (r, n) in SPORADIC_PAIRS:
            return Classification(False, case="5",
                                  reduced=CirculantSpec(n, frozenset({1, r, r + 1})), unit=p)
    return Classification(True)
