"""Text formats for graphs, rotation systems, and coloring certificates.

All files are 1-indexed externally (DIMACS habit); internal vertices are
0-indexed and the conversion happens only here.  Writers are canonical
(sorted edges, fixed whitespace), so written files reload byte-for-byte.

GraphFile::

    p edge <n> <m>
    e <u> <v>          # m lines, u < v

RotationFile::

    p rot <n> <m>
    r <v> <u1> ... <ud>   # counterclockwise neighbor order at v

CertificateFile::

    defects d1 d2 ... dk   # starred entries written as 1*
    color <v> <class>      # n lines
    mono <count>
    me <u> <v>             # count lines

Lines starting with ``#`` are comments.
"""
from __future__ import annotations

from typing import TextIO

from .embedding import RotationSystem
from .graph import Coloring, DefectVector, Graph, _graph_from_rows, build_graph


class FormatError(ValueError):
    """Malformed input file."""


def _data_lines(f: TextIO) -> list[list[str]]:
    return [parts for parts in map(str.split, f) if parts and not parts[0].startswith("#")]


def write_graph(g: Graph, f: TextIO) -> None:
    f.write(f"p edge {g.n} {g.m}\n")
    for u, v in g.edges():
        f.write(f"e {u + 1} {v + 1}\n")


def read_graph(f: TextIO) -> Graph:
    lines = _data_lines(f)
    if not lines or lines[0][:2] != ["p", "edge"] or len(lines[0]) != 4:
        raise FormatError("expected header 'p edge <n> <m>'")
    n, m = int(lines[0][2]), int(lines[0][3])
    edges = []
    for parts in lines[1:]:
        if parts[0] != "e" or len(parts) != 3:
            raise FormatError(f"expected edge line 'e <u> <v>', got {' '.join(parts)!r}")
        u, v = int(parts[1]), int(parts[2])
        if not (1 <= u < v <= n):
            raise FormatError(f"edge ({u}, {v}) must satisfy 1 <= u < v <= {n}")
        edges.append((u - 1, v - 1))
    if len(edges) != m:  # before anything of the announced size is built
        raise FormatError(f"header announces {m} edges, found {len(edges)} edge lines")
    g = build_graph(n, edges)
    if g.m != m:
        raise FormatError(f"header announces {m} edges, found {g.m} distinct")
    return g


def write_rotation(rot: RotationSystem, f: TextIO) -> None:
    g = rot.graph
    f.write(f"p rot {g.n} {g.m}\n")
    for v in range(g.n):
        nbrs = " ".join(str(w + 1) for w in rot.rot[v])
        f.write(f"r {v + 1} {nbrs}\n".rstrip() + "\n")


def read_rotation(f: TextIO) -> RotationSystem:
    lines = _data_lines(f)
    if not lines or lines[0][:2] != ["p", "rot"] or len(lines[0]) != 4:
        raise FormatError("expected header 'p rot <n> <m>'")
    n, m = int(lines[0][2]), int(lines[0][3])
    rows: dict[int, tuple[int, ...]] = {}
    for parts in lines[1:]:
        if parts[0] != "r" or len(parts) < 2:
            raise FormatError(f"expected rotation line 'r <v> ...', got {' '.join(parts)!r}")
        v = int(parts[1]) - 1
        if not (0 <= v < n) or v in rows:
            raise FormatError(f"bad or repeated vertex {v + 1} in rotation line")
        rows[v] = tuple(int(x) - 1 for x in parts[2:])
    if len(rows) != n:  # rows are distinct and in range, so this is every vertex once
        raise FormatError("rotation must list every vertex exactly once")
    rot = tuple(rows[v] for v in range(n))
    g = _graph_from_rows(rot, 1, FormatError)
    if g.m != m:
        raise FormatError(f"header announces {m} edges, neighbor lists give {g.m}")
    return RotationSystem(g, rot)


def write_certificate(coloring: Coloring, d: DefectVector,
                      mono_edges: tuple[tuple[int, int], ...], f: TextIO) -> None:
    f.write("defects " + " ".join(f"{dd}*" if star else str(dd) for dd, star in d.entries) + "\n")
    for v, c in enumerate(coloring):
        f.write(f"color {v + 1} {c}\n")
    f.write(f"mono {len(mono_edges)}\n")
    for u, v in sorted(mono_edges):
        f.write(f"me {u + 1} {v + 1}\n")


def read_certificate(f: TextIO) -> tuple[Coloring, DefectVector, tuple[tuple[int, int], ...]]:
    lines = _data_lines(f)
    if not lines or lines[0][0] != "defects":
        raise FormatError("expected header 'defects d1 d2 ...'")
    d = DefectVector.parse(",".join(lines[0][1:]))
    colors: dict[int, int] = {}
    mono: list[tuple[int, int]] = []
    mono_count = None
    for parts in lines[1:]:
        if parts[0] == "color" and len(parts) == 3:
            v = int(parts[1]) - 1
            if v in colors:
                raise FormatError(f"repeated color line for vertex {v + 1}")
            colors[v] = int(parts[2])
        elif parts[0] == "mono" and len(parts) == 2:
            if mono_count is not None:
                raise FormatError("repeated mono line")
            mono_count = int(parts[1])
        elif parts[0] == "me" and len(parts) == 3:
            mono.append((int(parts[1]) - 1, int(parts[2]) - 1))
        else:
            raise FormatError(f"unexpected line {' '.join(parts)!r}")
    n = len(colors)
    if set(colors) != set(range(n)):
        raise FormatError("color lines must cover vertices 1..n exactly once")
    if mono_count is None or mono_count != len(mono):
        raise FormatError("mono count does not match listed monochromatic edges")
    return tuple(colors[v] for v in range(n)), d, tuple(mono)
