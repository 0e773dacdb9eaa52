"""Self-tests of the benchmark: every workload at a tiny size, untraced
and traced, and the correctness checks rejecting planted faults."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run
from perfbench.tracing import TARGETS
from perfbench.workloads import TINY, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_and_end_to_end_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_is_correct_and_reports_every_metric(name):
    result = run.measure(name, seed=3, seconds=0.0, shape=TINY[name])
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m for m, _unit in run.END_TO_END]


def test_measured_loop_runs_for_the_given_seconds():
    shape = TINY["oltp"]
    result = run.measure("oltp", seed=3, seconds=0.5, shape=shape)
    assert result["attempted"] > shape.fixed_steps


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_unwraps(name, tmp_path):
    from repro.storage.rowcodec import RowCodec
    from repro.wal import log_manager, records

    decode, scan = RowCodec.decode, log_manager.LogManager.scan
    result = run.trace(name, seed=3, shape=TINY[name], out_dir=tmp_path)
    assert result["problems"] == []
    layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == layer
    assert result["metrics"]["trace.spans"]["value"] > 0
    assert (tmp_path / f"{name}-seed3.tsv.gz").exists()
    assert RowCodec.decode is decode and log_manager.LogManager.scan is scan
    assert log_manager.decode_record is records.decode_record


def test_every_trace_target_exists():
    import importlib

    for module, path, *_ in TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)


def test_wrong_asof_answer_is_rejected():
    sweep = WORKLOADS["asof_sweep"](3, TINY["asof_sweep"])
    sweep.setup()
    at, w_id, d_id, live = sweep.targets[0]
    sweep.targets[0] = (at, w_id, d_id, live + 1)
    sweep.step()
    assert any("AS OF" in problem for problem in sweep.problems)


def test_diverged_standby_row_is_rejected():
    workload = WORKLOADS["error_recovery"](3, TINY["error_recovery"])
    workload.setup()
    workload.step()
    workload.standby_matches(workload.replica)
    assert workload.problems == []
    standby = workload.replica.db
    standby.read_only = False
    with standby.transaction() as txn:
        standby.update(txn, "warehouse", (1,), {"w_ytd": -1.0})
    workload.standby_matches(workload.replica)
    assert any("diverged" in problem for problem in workload.problems)


def test_failed_check_fails_the_command(capsys):
    workload = WORKLOADS["oltp"](3, TINY["oltp"])
    workload.check(False, "planted")
    result = run._result(workload, [], {}, [])
    assert run._report("oltp", result) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False
