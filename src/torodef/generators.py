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
from dataclasses import dataclass, field
from typing import Optional, Union

from .graph import Graph, _graph_from_rows, build_graph, join
from .embedding import RotationSystem


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
        return _simple_6regular(self)


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


def _simple_6regular(spec: Union[GridSpec, CirculantSpec]) -> bool:
    """True when the spec's graph is simple and 6-regular, decided at vertex 0.

    Both families are Cayley graphs of an abelian group: a grid's vertex x
    has the neighbors x + {+-s, +-e, +-(e - s)}, so a self-loop or a collapsed
    pair is a property of the group, not of x.  A circulant's offsets lie in
    1..n/2, so its six +-x are distinct and nonzero exactly when there are
    three offsets and none is n/2.
    """
    if isinstance(spec, CirculantSpec):
        return len(spec.offsets) == 3 and 2 * max(spec.offsets) != spec.n
    nbrs = _grid_neighbors(spec.m, spec.n, spec.k, 0, 0)
    return (0, 0) not in nbrs and len(set(nbrs)) == 6


def gen_circulant(spec: CirculantSpec) -> Graph:
    """Build G_n[S].  Regular of degree 2|S| (one less if n/2 is an offset)."""
    edges = []
    for i in range(spec.n):
        for x in spec.offsets:
            edges.append((i, (i + x) % spec.n))
    return build_graph(spec.n, edges)


def _grid_rows(spec: GridSpec) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """The graph of a valid grid spec and its rotation rows, no embedding:
    row i*n + j lists the neighbors of (i, j) as :func:`_grid_neighbors` does."""
    m, n, k = spec.m, spec.n, spec.k
    rows = tuple(tuple(a * n + b for a, b in _grid_neighbors(m, n, k, i, j))
                 for i in range(m) for j in range(n))
    return _graph_from_rows(rows), rows


def gen_grid(spec: GridSpec) -> tuple[Graph, RotationSystem]:
    """Build G[m x n, k] with its canonical toroidal rotation system.

    The rotation at (i, j) lists the six neighbors east, north-east, north,
    west, south-west, south.  Graph and rows come from :func:`_grid_rows`,
    which the classifier calls without building an embedding; the traced
    faces are checked to be triangles with Euler genus 2 rather than assumed.
    """
    if not spec.valid:
        raise InvalidSpec(f"{spec.token()} is not simple 6-regular")
    g, rows = _grid_rows(spec)
    rot = RotationSystem(g, rows)
    if rot.genus != 2 or any(len(f) != 3 for f in rot.faces):
        raise AssertionError(f"canonical embedding of {spec.token()} is not a torus triangulation")
    return g, rot


def canonical_offset(x: int, n: int) -> int:
    """Reduce a difference mod n to the canonical offset in 1..n//2."""
    x %= n
    if x == 0:
        raise InvalidSpec(f"offset collapses to 0 mod {n}")
    return min(x, n - x)


def _delete_vertex(rot: RotationSystem, v: int) -> RotationSystem:
    """Remove one vertex from an embedding, keeping the cyclic orders."""
    keep = [x for x in range(rot.graph.n) if x != v]
    index = {x: i for i, x in enumerate(keep)}
    rows = tuple(tuple(index[w] for w in rot.rot[x] if w != v) for x in keep)
    return RotationSystem(_graph_from_rows(rows), rows)


def _hajos_h7() -> Graph:
    # Two K4s A = {a1..a4}, B = {b1..b4}; drop a1a2 and b1b2, identify
    # a1 = b1, add a2b2.  Labels: a1=0, a2=1, a3=2, a4=3, b2=4, b3=5, b4=6.
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 5), (0, 6), (4, 5), (4, 6), (5, 6),
             (1, 4)]
    return build_graph(7, edges)


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


def _offsets_r_form(offsets: frozenset[int]) -> Optional[int]:
    """Return r when the offset set is {1, r, r+1}, else None ({1,2,3} -> 2)."""
    offs = sorted(offsets)
    if len(offs) == 3 and offs[0] == 1 and offs[2] == offs[1] + 1:
        return offs[1]
    return None


@dataclass(frozen=True)
class Classification:
    """Verdict for one 6-regular spec: either 4-colorable or an exception.

    ``graph`` is the spec's graph, validated and built by the classifier
    from the spec's offsets or grid rows, with no embedding.
    ``case`` names the item of the Yeh-Zhu list the spec falls in: "1" for
    the six small grids, "4" for a unit image of G_n[1,2,3] (an
    exception exactly when 4 does not divide n, so a "4" verdict may be
    4-colorable) and "5" for a unit image of a sporadic G_n[1,r,r+1]; it is
    None for every other 4-colorable spec.  In cases "4" and "5",
    ``reduced`` is the listed circulant G_n[1,2,3] or G_n[1,r,r+1] and
    ``to_listed`` an isomorphism from ``graph`` onto it: ``to_listed[v]`` is
    the vertex of ``reduced`` that vertex v maps to.  For a circulant it is
    v -> p * v mod n, p the unit that carries the offsets to the reduced
    ones; for a grid it is v -> p * chi(v) mod n, chi the character of
    :func:`classify_6regular` that makes the grid a circulant.
    """

    graph: Graph = field(repr=False)
    four_colorable: bool
    case: Optional[str] = None          # "1", "4" or "5"
    reduced: Optional[CirculantSpec] = None
    to_listed: Optional[tuple[int, ...]] = None


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
    """The spec's graph, built without an embedding; InvalidSpec unless it
    is simple 6-regular."""
    if not _simple_6regular(spec):
        raise InvalidSpec(f"{spec.token()} is not simple 6-regular")
    return _grid_rows(spec)[0] if isinstance(spec, GridSpec) else gen_circulant(spec)


def _characters(spec: Union[GridSpec, CirculantSpec]):
    """Yield each homomorphism chi from the spec's translation group to Z_N,
    N the vertex count, as (label, images, chi): ``images`` are chi's values
    on the three generators and ``chi(v)`` its value at vertex v.

    A circulant's generators are its offsets, and chi(v) = t*v.  A grid
    G[m x n, k] is Z^2 / <m*s, n*e - (k-1)*s>, s one row down and e one
    column right, with generators s, e and e - s.  chi(s) = i*n and
    chi(e) = j*m + (k-1)*i (mod mn), for 0 <= i < m and 0 <= j < n, are
    exactly the solutions of m*chi(s) = 0 and n*chi(e) = (k-1)*chi(s); vertex
    (i', j'), label i'*n + j', gets i'*chi(s) + j'*chi(e).
    """
    if isinstance(spec, CirculantSpec):
        n, offsets = spec.n, sorted(spec.offsets)
        for t in range(n):
            yield f"t={t}", tuple(t * x % n for x in offsets), lambda v, t=t: t * v % n
        return
    m, n, N = spec.m, spec.n, spec.m * spec.n
    for i in range(m):
        for j in range(n):
            a, b = i * n, (j * m + (spec.k - 1) * i) % N
            yield (f"s={a},e={b}", (a, b, (b - a) % N),
                   lambda v, a=a, b=b: (v // n * a + v % n * b) % N)


def classify_6regular(spec: Union[GridSpec, CirculantSpec]) -> Classification:
    """Place a valid simple 6-regular spec in the 4-colorability landscape.

    This is the one membership decision for the Yeh-Zhu exception list.  A
    grid spec on the small-grid list is case "1".  A circulant is brought
    to a form G_n[1,r,r+1] by unit multiplication: it is case "4" when some
    unit reaches G_n[1,2,3] (an exception unless 4 divides n), else case "5"
    when some unit reaches a sporadic pair, else 4-colorable.  See
    :class:`Classification` for the fields.

    Any other grid G[m x n, k] is placed by its translation group, of which
    it is the Cayley graph on +-s, +-e, +-(e - s) (see :func:`_characters`).
    The group is cyclic exactly when gcd(m, n, k-1), its first invariant
    factor, is 1; if not, the grid is 4-colorable.  If so, a character chi
    with gcd(chi(s), chi(e), N) = 1 is an isomorphism onto Z_N and the grid
    is the circulant G_N[chi(s), chi(e), chi(e) - chi(s)], classified as
    above (4-colorable without a form G_N[1,r,r+1]); ``to_listed`` is
    v -> p * chi(v).  A single-column grid G[m x 1, k] gets chi(v) = v: it
    is G_m[1, k-1, k-2] on its own labels.  No exception is missed: an isomorphism onto a listed
    graph carries the translations to a regular abelian group of its
    automorphisms.  For N >= 9 the 4-cliques of G_N[1,2,3] are the runs
    {v, ..., v+3}, consecutive exactly when they share three vertices, so
    its automorphism group is dihedral, whose one abelian subgroup of order
    N is the rotations: the isomorphism is v -> p*v + c, which the unit
    search finds.  The sporadic orders (at most 37), the small grids (at
    most 25 vertices) and N < 9 are checked against an isomorphism oracle on
    every multi-column grid up to 49 vertices.
    """
    g = _validate_6regular(spec)
    n, chi = g.n, None
    if isinstance(spec, GridSpec):
        if spec in SMALL_EXCEPTION_GRIDS:
            return Classification(g, False, case="1")
        if math.gcd(spec.m, spec.n, spec.k - 1) != 1:
            return Classification(g, True)
        _, images, chi = next(c for c in _characters(spec) if math.gcd(*c[1], n) == 1)
        spec = CirculantSpec(n, frozenset(canonical_offset(x, n) for x in images))

    forms = _r_forms(spec)
    if not forms and chi is None:
        raise InvalidSpec(
            f"{spec.token()} is not unit-equivalent to any G_n[1,r,r+1]; "
            "its toroidality is not established by this classifier")

    listed = [f for f in forms if f[1] == 2] or [f for f in forms if (f[1], n) in SPORADIC_PAIRS]
    if not listed:
        return Classification(g, True)
    p, r = listed[0]
    labels = range(n) if chi is None else map(chi, range(n))
    return Classification(g, r == 2 and n % 4 == 0, case="4" if r == 2 else "5",
                          reduced=CirculantSpec(n, frozenset({1, r, r + 1})),
                          to_listed=tuple(p * x % n for x in labels))
