"""File formats and the command-line front end."""
import io
import random
import tracemalloc

import pytest

from torodef import DefectVector, build_graph, gen_grid, gen_named, verify_coloring
from torodef.generators import CirculantSpec, GridSpec
from torodef import cli, constructions, fileio, generators, solver
from torodef.cli import build_parser, main, parse_family_token
from torodef.embedding import RotationSystem
from .conftest import time_gate


# --- formats ----------------------------------------------------------------

def test_graph_file_round_trip_is_byte_stable():
    g = gen_named("t11")[0]
    buf = io.StringIO()
    fileio.write_graph(g, buf)
    g2 = fileio.read_graph(io.StringIO(buf.getvalue()))
    assert g2 == g
    buf2 = io.StringIO()
    fileio.write_graph(g2, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_rotation_file_round_trip_is_byte_stable():
    _, rot = gen_grid(GridSpec(4, 3, 2))
    buf = io.StringIO()
    fileio.write_rotation(rot, buf)
    rot2 = fileio.read_rotation(io.StringIO(buf.getvalue()))
    assert rot2.rot == rot.rot and rot2.graph == rot.graph
    buf2 = io.StringIO()
    fileio.write_rotation(rot2, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_certificate_file_round_trip_is_byte_stable():
    g = gen_named("c5")[0]
    d = DefectVector.parse("0,1*")
    coloring = (1, 2, 1, 2, 2)
    report = verify_coloring(g, coloring, d)
    buf = io.StringIO()
    fileio.write_certificate(coloring, d, report.all_mono_edges(), buf)
    c2, d2, mono2 = fileio.read_certificate(io.StringIO(buf.getvalue()))
    assert (c2, d2, mono2) == (coloring, d, ((3, 4),))
    buf2 = io.StringIO()
    fileio.write_certificate(c2, d2, mono2, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_format_errors():
    with pytest.raises(fileio.FormatError):
        fileio.read_graph(io.StringIO("p edge 3 1\ne 3 1\n"))  # u < v violated
    with pytest.raises(fileio.FormatError):
        fileio.read_graph(io.StringIO("p edge 3 2\ne 1 2\n"))  # count mismatch
    with pytest.raises(fileio.FormatError, match="found 1 distinct"):  # a repeated edge line
        fileio.read_graph(io.StringIO("p edge 3 2\ne 1 2\ne 1 2\n"))
    with pytest.raises(fileio.FormatError):
        fileio.read_graph(io.StringIO("c just a comment\n"))
    with pytest.raises(fileio.FormatError):
        fileio.read_rotation(io.StringIO("p rot 2 1\nr 1 2\n"))  # missing row
    with pytest.raises(fileio.FormatError):
        fileio.read_certificate(io.StringIO("defects 0 0\ncolor 1 1\nmono 1\n"))
    with pytest.raises(fileio.FormatError):  # a repeated color line, not an overwrite
        fileio.read_certificate(io.StringIO("defects 0 0\ncolor 1 1\ncolor 1 2\nmono 0\n"))
    with pytest.raises(fileio.FormatError):  # a repeated mono line, not an overwrite
        fileio.read_certificate(io.StringIO("defects 0 0\ncolor 1 1\nmono 5\nmono 0\n"))
    # A malformed rotation row names its 1-based vertex.
    for text, message in (("p rot 2 1\nr 1 1\nr 2\n", "vertex 1 lists itself"),
                          ("p rot 2 1\nr 1 2 2\nr 2 1\n", "vertex 1 lists a neighbor twice"),
                          ("p rot 3 1\nr 1 2\nr 2\nr 3\n", "vertex 1 lists 2, which does not"),
                          ("p rot 2 1\nr 1 2 3\nr 2 1\n", "neighbor 3 of vertex 1 out of range"),
                          ("p rot 2 1\nr 1 0\nr 2 1\n", "neighbor 0 of vertex 1 out of range")):
        with pytest.raises(fileio.FormatError, match=message):
            fileio.read_rotation(io.StringIO(text))


def test_rotation_header_vertex_count_is_checked_against_the_rows():
    # The rows are counted before anything of the announced size is built.
    tracemalloc.start()
    try:
        with pytest.raises(fileio.FormatError):
            fileio.read_rotation(io.StringIO("p rot 100000 0\nr 1\n"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_comments_and_blank_lines_are_ignored():
    g = fileio.read_graph(io.StringIO("# triangle\n\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"))
    assert (g.n, g.m) == (3, 3)


def test_verify_vertex_count_mismatch_exits_2(tmp_path, capsys):
    c5, cert = str(tmp_path / "c5"), str(tmp_path / "cert")
    run(["gen", "c5", "--output", c5])
    with open(cert, "w") as f:
        fileio.write_certificate((1, 2), DefectVector.of(0, 0), (), f)
    capsys.readouterr()
    assert run(["verify", c5 + ".g", cert]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and "valid" not in out.out


# --- family tokens ----------------------------------------------------------

def test_parse_family_token():
    g, rot, spec = parse_family_token("grid:4x4,1")
    assert g.n == 16 and rot is not None and spec == GridSpec(4, 4, 1)
    g, rot, _ = parse_family_token("circ:13:1,2,3")
    assert g.n == 13 and rot is None
    g, rot, _ = parse_family_token("t11")
    assert g.n == 11 and rot is not None


# --- commands ---------------------------------------------------------------

def run(args):
    return main(args)


def test_a_self_loop_in_a_rotation_file_exits_2(tmp_path, capsys):
    path = tmp_path / "loop.rot"
    path.write_text("p rot 2 1\nr 1 1\nr 2\n")
    assert run(["sncc", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: vertex 1 lists itself as a neighbor\n" and out.out == ""


def test_gen_writes_graph_and_rotation(tmp_path, capsys):
    base = str(tmp_path / "t11")
    assert run(["gen", "t11", "--output", base]) == 0
    g = fileio.read_graph(open(base + ".g"))
    assert (g.n, g.m) == (11, 33)
    rot = fileio.read_rotation(open(base + ".rot"))
    assert rot.graph == g
    capsys.readouterr()


def test_gen_circulant_has_no_rotation_file(tmp_path, capsys):
    base = str(tmp_path / "c13")
    assert run(["gen", "circ:13:1,2,3", "--output", base]) == 0
    assert (tmp_path / "c13.g").exists()
    assert not (tmp_path / "c13.rot").exists()
    capsys.readouterr()


def test_gen_bad_tokens_exit_2(tmp_path, capsys):
    assert run(["gen", "nonsense"]) == 2
    assert run(["gen", "grid:3x2,1"]) == 2  # collapses, invalid spec
    capsys.readouterr()


def test_solve_exit_codes_and_certificates(tmp_path, capsys):
    k7 = str(tmp_path / "k7")
    t11 = str(tmp_path / "t11")
    run(["gen", "k7", "--output", k7])
    run(["gen", "t11", "--output", t11])
    assert run(["solve", k7 + ".g", "--defects", "0,0,0,2"]) == 1
    cert = str(tmp_path / "t11.cert")
    assert run(["solve", t11 + ".g", "--defects", "0,0,0,2", "--output", cert]) == 0
    assert run(["verify", t11 + ".g", cert]) == 0
    assert run(["solve", t11 + ".g", "--defects", "junk"]) == 2
    assert run(["solve", k7 + ".g", "--defects", "0,0,0,0,0,0", "--budget", "3"]) == 3
    assert run(["solve", k7 + ".g", "--defects", "0,0,0,0,0,0", "--budget", "0"]) == 3
    capsys.readouterr()
    assert run(["solve", k7 + ".g", "--defects", "0,0,0,0,0,0", "--budget=-5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_solve_star_mono_count(tmp_path, capsys):
    c5 = str(tmp_path / "c5")
    run(["gen", "c5", "--output", c5])
    cert = str(tmp_path / "c5.cert")
    assert run(["solve", c5 + ".g", "--defects", "0,1*", "--output", cert]) == 0
    _, _, mono = fileio.read_certificate(open(cert))
    assert len(mono) == 1
    capsys.readouterr()


def test_solve_verifies_its_coloring_once(tmp_path, capsys, monkeypatch):
    # The search checks its coloring before it returns it; the certificate's
    # monochromatic edges come from that check, not from a second one.
    c5 = str(tmp_path / "c5")
    run(["gen", "c5", "--output", c5])
    calls = []
    for module in (solver, cli):  # every binding a module may call

        def counting(*args, real=module.verify_coloring):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, "verify_coloring", counting)
    cert = str(tmp_path / "c5.cert")
    assert run(["solve", c5 + ".g", "--defects", "0,1*", "--output", cert]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    assert run(["verify", c5 + ".g", cert]) == 0
    capsys.readouterr()


def test_verify_detects_tampering(tmp_path, capsys):
    t11 = str(tmp_path / "t11")
    run(["gen", "t11", "--output", t11])
    cert = str(tmp_path / "cert")
    run(["solve", t11 + ".g", "--defects", "0,0,0,2", "--output", cert])
    coloring, d, mono = fileio.read_certificate(open(cert))
    bad = (coloring[0] % d.k + 1,) + coloring[1:]
    with open(cert, "w") as f:
        fileio.write_certificate(bad, d, mono, f)
    assert run(["verify", t11 + ".g", cert]) in (0, 1)  # tamper may stay valid...
    out_of_range = (d.k + 1,) + coloring[1:]
    with open(cert, "w") as f:
        fileio.write_certificate(out_of_range, d, mono, f)
    assert run(["verify", t11 + ".g", cert]) == 2  # ...but class > k never parses as valid
    made_up = ((0, 1),)
    assert mono != made_up
    with open(cert, "w") as f:
        fileio.write_certificate(coloring, d, made_up, f)
    assert run(["verify", t11 + ".g", cert]) == 1  # listed mono edges must be the real ones
    capsys.readouterr()


def test_solve_deep_cycle_is_sat(tmp_path, capsys):
    # The search keeps its own stack, so depth 1500 is no limit.
    c1500 = str(tmp_path / "c1500")
    run(["gen", "c1500", "--output", c1500])
    cert = str(tmp_path / "c1500.cert")
    assert run(["solve", c1500 + ".g", "--defects", "0,0", "--output", cert]) == 0
    assert run(["verify", c1500 + ".g", cert]) == 0
    capsys.readouterr()


def test_color_exits_3_when_the_planar_budget_runs_out(tmp_path, capsys, monkeypatch):
    # The planar heuristic misses on this grid's cut graph; with no nodes for
    # the exact search the pipeline gives up cleanly.
    miss, k7 = str(tmp_path / "miss"), str(tmp_path / "k7")
    run(["gen", "grid:45x1,20", "--output", miss])
    run(["gen", "k7", "--output", k7])
    capsys.readouterr()
    monkeypatch.setattr(constructions, "_NODE_BUDGET", 0)
    assert run(["color", miss + ".rot", "--construction", "600001"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("error:") and "Traceback" not in out.out + out.err
    # Where the heuristic colors on its own, no budget is spent.
    assert run(["color", k7 + ".rot", "--construction", "600001"]) == 0


def test_color_6reg_exits_3_when_the_search_budget_runs_out(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "_NODE_BUDGET", 0)
    assert run(["color", "grid:49x1,20", "--construction", "6reg"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("error:") and "Traceback" not in out.out + out.err
    # A pattern spends no budget.
    assert run(["color", "circ:13:1,2,3", "--construction", "6reg"]) == 0
    capsys.readouterr()


def test_color_6reg_at_four_thousand_vertices(capsys):
    # 4001 is prime: the search ran out of budget here before the circle map.
    with time_gate(10):
        assert run(["color", "circ:4001:1,63,64", "--construction", "6reg"]) == 0
    assert "construction 6reg-circle(t=" in capsys.readouterr().out


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("module, name, argv", [
    (cli, "gen_named", ["gen", "k20000"]),
    (constructions, "classify_6regular",
     ["color", "circ:20000000:1,2,3", "--construction", "6reg"]),
    (fileio, "read_graph", ["solve", "huge.g", "--defects", "0,0,0,1"]),
])
def test_out_of_memory_exits_2(module, name, argv, tmp_path, capsys, monkeypatch):
    # An input too large to build is unusable input, not an UNSAT verdict.
    (tmp_path / "huge.g").write_text("p edge 30000000 0\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, name, _out_of_memory)
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and "Traceback" not in out.out + out.err


# An unlucky vertex order: without restarts the proper 4-coloring search took
# about 5 s on circ:58:5,11,16, ran past 60 s on circ:77:1,20,21, and took
# 2.2 * 10**6 nodes on grid:4x13,2.  All three now color by the circle map;
# test_search_is_deterministic_across_restarts times the search on them.
@pytest.mark.parametrize("token", ["circ:77:1,20,21", "grid:4x13,2", "circ:58:5,11,16"])
def test_color_6reg_heavy_tailed_searches_finish(token, tmp_path, capsys):
    base, cert = str(tmp_path / "g"), str(tmp_path / "cert")
    run(["gen", token, "--output", base])
    with time_gate(2):
        assert run(["color", token, "--construction", "6reg", "--output", cert]) == 0
    assert run(["verify", base + ".g", cert]) == 0
    assert "valid yes" in capsys.readouterr().out


def test_color_command(tmp_path, capsys):
    k7 = str(tmp_path / "k7")
    run(["gen", "k7", "--output", k7])
    cert = str(tmp_path / "cert")
    assert run(["color", k7 + ".rot", "--construction", "00002",
                "--output", cert]) == 0
    coloring, d, _ = fileio.read_certificate(open(cert))
    assert str(d) == "0,0,0,0,2"
    g = fileio.read_graph(open(k7 + ".g"))
    assert verify_coloring(g, coloring, d).valid
    assert run(["color", "grid:5x5,1", "--construction", "6reg",
                "--output", cert]) == 0
    coloring, d, _ = fileio.read_certificate(open(cert))
    assert str(d) == "0,0,0,0"
    capsys.readouterr()


def test_color_0003core_command(tmp_path, capsys):
    # T11 plus a pendant path has a T11 6-core.
    g0 = gen_named("t11")[0]
    import torodef
    g = torodef.build_graph(13, list(g0.edges()) + [(0, 11), (11, 12)])
    gpath = str(tmp_path / "g.g")
    with open(gpath, "w") as f:
        fileio.write_graph(g, f)
    cert = str(tmp_path / "cert")
    assert run(["color", gpath, "--construction", "0003core",
                "--core", "grid:11x1,4", "--output", cert]) == 0
    coloring, d, _ = fileio.read_certificate(open(cert))
    assert verify_coloring(g, coloring, d).valid
    assert run(["color", gpath, "--construction", "0003core"]) == 2  # missing --core
    assert run(["color", gpath, "--construction", "0003core", "--core", "k7"]) == 2  # not a spec
    capsys.readouterr()


def test_color_6reg_builds_the_spec_graph_once(tmp_path, capsys, monkeypatch):
    # The classifier's verdict carries the graph it built, from the grid's
    # rows or the circulant's offsets, and no embedding is built.
    built, embedded = [], []
    for module in (generators, constructions, cli):  # every binding a module may call
        for name in ("_grid_rows", "gen_circulant"):
            if not hasattr(module, name):
                continue

            def counting(spec, real=getattr(module, name)):
                built.append(spec)
                return real(spec)
            monkeypatch.setattr(module, name, counting)

    def embedding(self, real=RotationSystem.__post_init__):
        embedded.append(self)
        real(self)
    monkeypatch.setattr(RotationSystem, "__post_init__", embedding)
    cert = str(tmp_path / "cert")
    for token, spec in (("grid:13x1,5", GridSpec(13, 1, 5)), ("grid:4x4,1", GridSpec(4, 4, 1)),
                        ("circ:13:1,2,3", CirculantSpec(13, frozenset({1, 2, 3})))):
        built.clear()
        assert run(["color", token, "--construction", "6reg", "--output", cert]) == 0
        assert built == [spec] and embedded == [], token
        coloring, d, _ = fileio.read_certificate(open(cert))
        assert verify_coloring(parse_family_token(token)[0], coloring, d).valid
        embedded.clear()
    for token in ("grid:2x2,1", "circ:13:1,2", "k7"):  # not simple 6-regular; not a spec
        assert run(["color", token, "--construction", "6reg"]) == 2, token
    capsys.readouterr()


def test_color_6reg_on_grid_7x7_1(tmp_path, capsys):
    # The grid is placed by isomorphism against the order-49 exceptions.
    cert = str(tmp_path / "cert")
    assert run(["color", "grid:7x7,1", "--construction", "6reg", "--output", cert]) == 0
    coloring, d, _ = fileio.read_certificate(open(cert))
    assert str(d) == "0,0,0,0"
    assert verify_coloring(gen_grid(GridSpec(7, 7, 1))[0], coloring, d).valid
    capsys.readouterr()


def test_embed_info_and_sncc(tmp_path, capsys):
    t11 = str(tmp_path / "t11")
    run(["gen", "t11", "--output", t11])
    capsys.readouterr()
    assert run(["embed-info", t11 + ".rot"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert out["V"] == "11" and out["E"] == "33" and out["F"] == "22"
    assert out["genus"] == "2" and out["faces_deg_3"] == "22"

    grid = str(tmp_path / "grid")
    run(["gen", "grid:3x7,1", "--output", grid])
    capsys.readouterr()
    assert run(["sncc", grid + ".rot"]) == 0
    lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert lines["length"] == "3"


@pytest.mark.parametrize("text,genus", [
    ("p rot 1 0\nr 1\n", None),                                     # a lone vertex
    ("p rot 0 0\n", None),                                           # no vertex at all
    ("p rot 6 6\nr 1 2 3\nr 2 3 1\nr 3 1 2\nr 4 5 6\nr 5 6 4\nr 6 4 5\n", None),  # two triangles
    ("p rot 4 6\nr 1 2 3 4\nr 2 1 4 3\nr 3 1 2 4\nr 4 1 3 2\n", "0"),  # planar K4
])
def test_rotation_files_off_the_torus_exit_2(tmp_path, capsys, text, genus):
    path = str(tmp_path / "x.rot")
    with open(path, "w") as f:
        f.write(text)
    for argv in ([["color", path, "--construction", c] for c in ("600001", "00002", "0004")]
                 + [["sncc", path]]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == "", argv
    if genus is None:  # no genus at all: embed-info rejects the file before any output
        assert run(["embed-info", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    else:
        assert run(["embed-info", path]) == 0
        assert f"genus {genus}" in capsys.readouterr().out.splitlines()


def test_0122_refuses_rotations_beyond_the_torus(tmp_path, capsys):
    # (2,2,2) is a theorem on the torus: the sorted-row K10 rotation (Euler
    # genus 32) is bad input, not a search that gave up.
    k10 = build_graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
    rows = tuple(tuple(sorted(k10.adj[v])) for v in range(10))
    k4_planar = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
    cases = [("k10", RotationSystem(k10, rows), 2),
             ("k7", gen_named("k7")[1], 0),
             ("t11", gen_named("t11")[1], 0),
             ("k4", RotationSystem(gen_named("k4")[0], k4_planar), 0)]
    for name, rot, code in cases:
        path = str(tmp_path / f"{name}.rot")
        with open(path, "w") as f:
            fileio.write_rotation(rot, f)
        assert run(["color", path, "--construction", "0122"]) == code, name
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") == (code == 2), name


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_iso_command(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    c = str(tmp_path / "c")
    run(["gen", "grid:7x1,4", "--output", a])
    run(["gen", "k7", "--output", b])
    run(["gen", "c7", "--output", c])
    capsys.readouterr()
    assert run(["iso", a + ".g", b + ".g"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("isomorphic yes")
    assert run(["iso", a + ".g", c + ".g"]) == 1
    capsys.readouterr()


def test_iso_deep_cycle_gives_a_witness(tmp_path, capsys):
    # The matcher keeps its own stack, so a 1500-vertex cycle is no limit.
    c1500 = str(tmp_path / "c1500")
    run(["gen", "c1500", "--output", c1500])
    g = fileio.read_graph(open(c1500 + ".g"))
    perm = list(range(g.n))
    random.Random(3).shuffle(perm)
    h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    shuffled = str(tmp_path / "shuffled.g")
    with open(shuffled, "w") as f:
        fileio.write_graph(h, f)
    capsys.readouterr()
    assert run(["iso", c1500 + ".g", shuffled]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "isomorphic yes" and len(out) == 1 + g.n
    mapping = {int(a) - 1: int(b) - 1 for _, a, b in (line.split() for line in out[1:])}
    assert sorted(mapping) == list(range(g.n))
    assert sorted(mapping.values()) == list(range(g.n))
    assert all(mapping[v] in h.adj[mapping[u]] for u, v in g.edges())


def test_table1_command(capsys):
    assert run(["table1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_usage_error_exit_2(capsys):
    assert run(["solve"]) == 2  # missing required arguments
    capsys.readouterr()
