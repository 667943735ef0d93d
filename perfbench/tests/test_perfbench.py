"""The benchmark's own tests: short-horizon smoke runs of each workload,
the output format, and that tracing leaves the simulation untouched.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os

import pytest

from perfbench import run as bench
from perfbench import workloads
from perfbench.tracer import LAYERS, LayerTracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Horizons short enough for a test, long enough that every layer works.
SHORT = {
    "TESTBED_STEADY_HORIZON": 0.03,
    "TESTBED_FAULTS_HORIZON": 0.01,
    "FATTREE_HORIZON": 0.001,
}


@pytest.fixture
def short(monkeypatch):
    for name, value in SHORT.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(bench, "CELLS", {w: 1 for w in bench.CELLS})
    monkeypatch.setattr(bench.Run, "_load_references", lambda self: {})


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(bench.CELLS))
def test_smoke_prints_every_metric_with_its_unit(short, capsys, workload):
    declared = spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = bench.main(["--workload", workload, "--seed", "1",
                           "--seconds", "0", "--trace", str(trace)])
        out = last_json(capsys.readouterr().out)
        assert code == 0
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        assert got == want
        for m in out["metrics"].values():
            assert math.isfinite(m["value"])
        if trace:
            metrics = {k: v["value"] for k, v in out["metrics"].items()}
            total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
            assert total == pytest.approx(metrics["trace.run_s"], rel=1e-9)
            assert 0.0 < metrics["trace.coverage"] <= 1.0


def test_tracing_does_not_perturb_and_unpatches(short):
    from repro.sim.network import Network

    send_probe = vars(Network)["send_probe"]
    plain = bench.run_cell(workloads.testbed_faults, (1, 3))
    tracer = LayerTracer()
    tracer.install()
    try:
        assert vars(Network)["send_probe"] is not send_probe
        traced = bench.run_cell(workloads.testbed_faults, (1, 3), tracer)
    finally:
        tracer.uninstall()
    assert traced.signature() == plain.signature()
    restored = tracer.restored()
    assert len(restored) > 50
    for owner, name, original in restored:
        assert vars(owner)[name] is original, f"{owner}.{name}"
    spans = tracer.totals["run"]
    assert spans["sim.link"][0] > 0 and spans["faults.injector"][0] > 0


def test_refuses_repro_toggles(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SOLVER", "scalar")
    code = bench.main(["--workload", "testbed_steady", "--seed", "1",
                       "--seconds", "1"])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert "REPRO_SOLVER" in captured.err


def test_check_cell_flags_overloaded_links(short):
    result = bench.run_cell(workloads.testbed_steady, (0, 1))
    assert bench.check_cell(result, None) == []
    entry = next(iter(result.cell.net.solver.flows.values()))
    entry.delivered_rate = 2 * entry.path[0].capacity
    assert any("over its capacity" in p for p in bench.check_cell(result, None))
    wrong = dict(result.signature(), events=result.events + 1)
    assert any("reference" in p for p in bench.check_cell(result, wrong))


def test_counts_are_distinct_cells(short):
    def broken(seed, scenario):
        raise KeyError("pair")

    run = bench.Run("fattree_churn", 1)
    run.build = broken
    for _ in range(3):
        assert run.attempt(run.keys[0]) is None
    report = run.report({})
    assert (report["attempted"], report["failed"]) == (1, 1)


@pytest.mark.parametrize("workload", ["testbed_steady", "testbed_faults"])
def test_testbed_cells_ignore_the_seed(short, workload):
    build = workloads.WORKLOADS[workload]
    first = bench.run_cell(build, (1, 3)).signature()
    assert bench.run_cell(build, (1, 10)).signature() == first
