"""Tracked top-k retrieval benchmark (ISSUE 4).

Runs the :mod:`repro.perf.topk` four-mode comparison — the seed legacy
path, the ISSUE 2 batched path, columnar slots + exact max-score early
termination, and early termination + query-result caching — over one
seeded workload, asserts all four produce identical ranking checksums,
and records the measurements into ``benchmarks/BENCH_TOPK.json`` so
subsequent PRs have a trajectory to compare against.

Scales (``BENCH_TOPK_SCALE``):

* ``smoke`` (default) — 200 peers / 500 queries, a couple of seconds;
  what CI's benchmark smoke job runs.
* ``paper`` — the tracked 2,000-peer / 5,000-query workload from the
  issue's acceptance criteria (cached mode must clear 2× the legacy
  path's queries/sec).

Regression guard: with ``BENCH_TOPK_ENFORCE=1`` the run fails if the
fresh cached-mode queries/sec drops more than 30% below the committed
record for the same scale (CI sets this).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.perf.topk import (
    TOP_K,
    run_topk_comparison,
    topk_paper_config,
    topk_smoke_config,
)

RECORD_PATH = Path(__file__).parent / "BENCH_TOPK.json"
SCALE = os.environ.get("BENCH_TOPK_SCALE", "smoke")
ENFORCE = os.environ.get("BENCH_TOPK_ENFORCE", "") == "1"
#: Max tolerated queries/sec regression vs the committed record (30%).
REGRESSION_FLOOR = 0.7
#: Cached-mode speedup floors over the legacy path per scale.
SPEEDUP_FLOOR = {"paper": 2.0, "smoke": 1.3}
#: Early termination must stay within noise of the batched path even
#: when the workload's posting lists are too small for pruning to win.
TOPK_PARITY_FLOOR = 0.75


def _format_table(comparison) -> str:
    modes = ("legacy", "batched", "topk", "cached")
    lines = [
        f"top-k workload [{SCALE}] (k={TOP_K}): "
        f"{comparison.legacy.num_peers} peers, "
        f"{comparison.legacy.num_queries} queries",
        f"{'mode':<10} {'queries/s':>12} {'query_s':>10} {'messages':>10}",
    ]
    for name in modes:
        result = getattr(comparison, name)
        lines.append(
            f"{name:<10} {result.queries_per_s:>12.2f} "
            f"{result.query_s:>10.4f} {result.total_messages:>10d}"
        )
    lines.append(
        f"speedup vs legacy: topk {comparison.speedup_topk:.2f}x, "
        f"cached {comparison.speedup_cached:.2f}x"
    )
    lines.append(
        f"speedup vs batched: topk {comparison.speedup_topk_vs_batched:.2f}x, "
        f"cached {comparison.speedup_cached_vs_batched:.2f}x"
    )
    lines.append(f"ranking checksums identical: {comparison.checksums_match}")
    if comparison.cached.result_cache:
        rc = comparison.cached.result_cache
        lines.append(
            f"result cache: {rc['hits']} hits / {rc['misses']} misses "
            f"({rc['entries']} entries)"
        )
    return "\n".join(lines)


@pytest.fixture(scope="module")
def measurements(record_result):
    cfg = topk_paper_config() if SCALE == "paper" else topk_smoke_config()
    committed = {}
    if RECORD_PATH.exists():
        committed = json.loads(RECORD_PATH.read_text(encoding="utf-8"))

    comparison = run_topk_comparison(cfg)

    record = dict(committed)
    record[SCALE] = {
        "workload": {
            "num_peers": cfg.num_peers,
            "num_documents": cfg.num_documents,
            "num_queries": cfg.num_queries,
            "distinct_queries": cfg.distinct_queries,
            "churn_every": cfg.churn_every,
            "seed": cfg.seed,
            "top_k": TOP_K,
        },
        **comparison.to_dict(),
    }
    RECORD_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    record_result("topk", _format_table(comparison))
    return {"comparison": comparison, "committed": committed}


def test_bench_topk_workload(benchmark, measurements) -> None:
    """Time one cached-mode smoke run for the pytest-benchmark table."""
    from repro.perf.bench import run_perf_workload
    from repro.perf.topk import RESULT_CACHE_SIZE

    cfg = topk_smoke_config().replaced(
        num_queries=200, result_cache_size=RESULT_CACHE_SIZE
    )
    benchmark.pedantic(run_perf_workload, args=(cfg,), rounds=1, iterations=1)


class TestEquivalence:
    def test_all_modes_rank_identically(self, measurements) -> None:
        assert measurements["comparison"].checksums_match

    def test_topk_without_cache_sends_same_messages_as_batched(
        self, measurements
    ) -> None:
        """Early termination is scoring-local: same wire traffic."""
        comparison = measurements["comparison"]
        assert (
            comparison.topk.total_messages == comparison.batched.total_messages
        )
        assert comparison.topk.lookups == comparison.batched.lookups

    def test_result_cache_absorbs_repeats(self, measurements) -> None:
        rc = measurements["comparison"].cached.result_cache
        assert rc is not None
        assert rc["hits"] > rc["misses"]


class TestSpeedup:
    def test_cached_mode_clears_floor_over_legacy(self, measurements) -> None:
        floor = SPEEDUP_FLOOR[SCALE]
        speedup = measurements["comparison"].speedup_cached
        assert speedup >= floor, (
            f"cached speedup {speedup}x below {floor}x at scale {SCALE!r}"
        )

    def test_early_termination_not_slower_than_batched(self, measurements) -> None:
        ratio = measurements["comparison"].speedup_topk_vs_batched
        assert ratio >= TOPK_PARITY_FLOOR, (
            f"early termination fell to {ratio}x of the batched path"
        )


class TestRegressionGuard:
    def test_cached_queries_per_s_vs_committed_record(self, measurements) -> None:
        committed = measurements["committed"].get(SCALE)
        if not committed:
            pytest.skip(f"no committed record for scale {SCALE!r} yet")
        if not ENFORCE:
            pytest.skip("BENCH_TOPK_ENFORCE not set (informational run)")
        previous = committed["cached"]["queries_per_s"]
        current = measurements["comparison"].cached.queries_per_s
        assert current >= REGRESSION_FLOOR * previous, (
            f"cached queries/sec regressed: {current:.0f} vs committed "
            f"{previous:.0f} (floor {REGRESSION_FLOOR:.0%})"
        )
