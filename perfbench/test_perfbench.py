"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench

Passes run in this process on one small item per workload, so they take
seconds; the benchmark proper runs every pass in a fresh interpreter.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = {"enum-window": "enum-deg6", "certify-trace0": "trace0-26",
         "relations-screen": "relations-sextic1",
         "factor-cyclo": "cyclo-f2n20"}

worker.import_salemrel()


def _small(workload: str) -> list[workloads.Item]:
    items, _ = workloads.build(workload, 1)
    return [it for it in items if it.id == SMALL[workload]]


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_named_metric(workload):
    items = _small(workload)
    assert len(items) == 1
    untraced = worker.run_pass(items, items[0].id, traced=False)
    traced = worker.run_pass(items, items[0].id, traced=True)
    assert untraced["failed"] == traced["failed"] == 0
    assert tracer.find_wrapped() == []

    e2e = bench.end_to_end_metrics([untraced], [0.5])
    assert {k: u for k, (_, u) in e2e.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in e2e.values())
    layers = bench.layer_metrics([traced], [untraced])
    assert {k: u for k, (_, u) in layers.items()} == _units("per_layer")
    assert layers["cli.calls"][0] == 1


def test_wrong_expected_output_counts_as_failure(monkeypatch):
    items = _small("enum-window")
    monkeypatch.setattr(workloads, "SEXTICS", workloads.SEXTICS[::-1])
    res = worker.run_pass(items, items[0].id, traced=False)
    assert bench.failed_frac([res]) == 1.0
    assert res["failures"][0]["item"] == "enum-deg6"


def test_untraced_pass_refuses_wrapped_functions():
    items = _small("relations-screen")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert "salemrel.cli.run" in tracer.find_wrapped()
        with pytest.raises(RuntimeError, match="wrappers left installed"):
            worker.run_pass(items, items[0].id, traced=False)
    finally:
        tr.uninstall()
    assert tracer.find_wrapped() == []


def test_seed_fixes_inputs_and_order():
    first, _ = workloads.build("factor-cyclo", 5)
    again, _ = workloads.build("factor-cyclo", 5)
    other, _ = workloads.build("factor-cyclo", 6)
    assert [(it.id, it.argv) for it in first] == \
        [(it.id, it.argv) for it in again]
    assert [it.argv for it in first] != [it.argv for it in other]
