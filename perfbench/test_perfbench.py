"""Smoke tests of the benchmark on a few ops of a fixed seed.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import json

import pytest

import run

run._use_sources()
import workloads  # noqa: E402 - needs the sources on sys.path

SEED = 1
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(monkeypatch, capsys, workload, trace, ops=12):
    """Run the command on the first ``ops`` ops of one pass; (exit code, result)."""
    build = workloads.build
    monkeypatch.setattr(workloads, "build", lambda *a: build(*a)[:ops])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(monkeypatch, capsys, workload, trace):
    code, result = _run(monkeypatch, capsys, workload, trace)
    assert code == 0 and result["correct"]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_certificate_is_a_failed_op(monkeypatch, capsys):
    real_pass = run.run_pass

    def corrupting_pass(cli, ops, *args, **kwargs):
        out = real_pass(cli, ops, *args, **kwargs)
        with open(ops[0].cert) as f:
            lines = f.readlines()
        with open(ops[0].cert, "w") as f:  # every vertex in class 1, a defect-0 class
            f.writelines("color " + line.split()[1] + " 1\n" if line.startswith("color")
                         else line for line in lines)
        return out

    monkeypatch.setattr(run, "run_pass", corrupting_pass)
    code, result = _run(monkeypatch, capsys, "torus-cut", 0, ops=6)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1


def test_counts_repeat_for_the_same_seed(monkeypatch, capsys):
    names = ("solver.nodes", "iso.calls", "embedding.sncc.calls")

    def counts():
        out = {}
        for workload in ("torus-cut", "sixreg-classify"):
            metrics = _run(monkeypatch, capsys, workload, 1)[1]["metrics"]
            out.update({(workload, name): metrics[name]["value"] for name in names})
        return out

    first = counts()
    assert first["torus-cut", "solver.nodes"] > 0
    assert first["torus-cut", "embedding.sncc.calls"] > 0
    assert first["sixreg-classify", "iso.calls"] > 0
    assert counts() == first
