"""Self-test of the serving benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench -q

Every workload runs untraced and traced with a handful of jobs; each
run must pass its answer check, report every metric ``BENCHMARK.json``
names with its unit, and (traced) reproduce the untraced answers and
event trace with a closed ledger.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((HERE / "notes.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "READ_HOT_JOBS", 12)
    monkeypatch.setattr(workloads, "SCATTER_JOBS", 16)
    monkeypatch.setattr(
        workloads, "SCATTER_SPEC", replace(workloads.SCATTER_SPEC, items=40)
    )
    monkeypatch.setattr(workloads, "WRITE_MIX_READS", 10)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 2)


def _expected(kind):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric_and_checks_out(tiny, name):
    plain = harness.run_workload(name, seed=3, seconds=0, trace=False)
    traced = harness.run_workload(name, seed=3, seconds=0, trace=True)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result.correct, result.lines
        units = {k: v["unit"] for k, v in result.result["metrics"].items()}
        assert units == _expected(kind)
        assert set(result.result) == {"correct", "attempted", "failed", "metrics"}
        assert result.result["attempted"] >= 1
    # traced passes are checked against their run's untraced first pass;
    # across runs the same seed must give the same trace and virtual figures
    assert traced.digest == plain.digest
    assert traced.virtual == plain.virtual
    assert traced.closures
    for closure in traced.closures:
        assert abs(closure - 1.0) <= harness.CLOSURE_TOLERANCE


def test_seed_changes_the_request_stream(tiny):
    one = harness.run_workload("read-hot", seed=1, seconds=0, trace=False)
    two = harness.run_workload("read-hot", seed=2, seconds=0, trace=False)
    assert one.digest != two.digest


def test_answer_check_catches_a_wrong_answer(tiny, monkeypatch):
    original = workloads.reference_answers

    def corrupted(*args):
        expected = original(*args)
        first = sorted(expected)[0]
        expected[first] = expected[first] + ["<wrong/>"]
        return expected

    monkeypatch.setattr(harness, "reference_answers", corrupted)
    result = harness.run_workload("read-hot", seed=3, seconds=0, trace=False)
    assert not result.correct
    assert result.result["correct"] is False


def test_benchmark_json_matches_notes():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert NOTES["default_seed"] == run.DEFAULT_SEED
    assert NOTES["held_out_seed"] != NOTES["default_seed"]
    assert NOTES["claim"] is None
    assert set(NOTES["per_layer_moves"]) <= set(_expected("per_layer"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "read-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def test_ledger_skips_a_missing_entry_point_and_restores_the_rest(monkeypatch):
    import ledger
    from repro.net.network import Network

    route = Network.route
    layers = ledger.LAYERS + (("gone", ("repro.net.network:Network.vanished",)),)
    monkeypatch.setattr(ledger, "LAYERS", layers)
    with ledger.Ledger() as book:
        assert Network.route is not route
    assert book.missing == ["repro.net.network:Network.vanished"]
    assert Network.route is route
