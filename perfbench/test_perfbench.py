"""The benchmark's own tests, at the ``tiny`` size.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from correctness import Checker  # noqa: E402
from repro.core.query_processing import QueryProcessor  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = (
    "msgs_per_search",
    "bytes_per_search",
    "msgs_per_publish",
    "msgs_per_learn",
    "precision_ratio",
)


def run_bench(workload: str, seed: int, trace: int):
    """Run the benchmark command at the tiny size; return (record lines,
    parsed result)."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "2",
        "--trace", str(trace), "--size", "tiny",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def plain_runs(request):
    name = request.param
    return name, run_bench(name, 7, 0), run_bench(name, 7, 0)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_every_end_to_end_metric_has_its_unit(plain_runs):
    __, (__, result), __ = plain_runs
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_head_is_correct_with_no_failures(plain_runs):
    __, (__, result), __ = plain_runs
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_same_seed_repeats_counts_and_checksums(plain_runs):
    __, (lines_a, result_a), (lines_b, result_b) = plain_runs

    def deterministic(lines):
        keep = ("ranking checksum", "write-state digest", "timed traffic", "failed_share")
        return [line for line in lines if line.startswith(keep)]

    assert deterministic(lines_a) == deterministic(lines_b)
    assert len(deterministic(lines_a)) == 4
    for name in COUNT_METRICS:
        assert result_a["metrics"][name] == result_b["metrics"][name]
    assert result_a["attempted"] == result_b["attempted"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    __, result = run_bench(workload, 7, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True
    assert 0 < result["metrics"]["trace.overhead"]["value"]


def test_perturbed_ranking_trips_the_check(monkeypatch):
    original = QueryProcessor.execute

    def perturbed(self, *args, **kwargs):
        ranked, execution = original(self, *args, **kwargs)
        if len(ranked) >= 2:
            pairs = [(e.doc_id, e.score) for e in ranked]
            pairs[0], pairs[1] = pairs[1], pairs[0]
            ranked = type(ranked)._from_ordered(pairs)
        return ranked, execution

    workload = WORKLOADS["search-hot"](SIZES["tiny"], 7, 1.0, 1)
    checker = Checker(7, workload.size.check_share)
    monkeypatch.setattr(QueryProcessor, "execute", perturbed)
    result = harness.run_round(workload, 0, checker)
    assert checker.mismatched > 0
    assert result.failed >= checker.mismatched


def test_calibrations_inside_a_call_are_left_out_and_scaled_back():
    def work():
        acc = 0
        for i in range(3_000_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    meter = harness.METER
    rec = harness.Recorder()
    spent, taken = meter.spent, len(meter.samples)
    meter.start()
    try:
        rec.call("work", work)
        meter.sample()
    finally:
        meter.stop()
    call = rec.calls[0]
    inside = [d for t, d in zip(meter.at[taken:], meter.samples[taken:]) if call.start < t < call.end]
    assert inside, "the timer took no calibration during a long call"
    assert meter.spent - spent == pytest.approx(sum(meter.samples[taken:]))
    rec.finish()
    assert call.end - call.start - call.raw_seconds == pytest.approx(sum(inside), abs=1e-9)
    assert call.seconds == pytest.approx(call.raw_seconds * meter.factor(call.start, call.end))
    assert call.seconds > 0
