"""Tracked end-to-end performance benchmark (ISSUE 2).

Runs the :mod:`repro.perf.bench` workload twice — optimization layer on
(route cache + incremental stabilize + batched fetch/scoring) and off
(the retained legacy paths) — asserts the two produce identical ranking
checksums, and records both measurements into ``benchmarks/BENCH_PERF.json``
so subsequent PRs have a perf trajectory to compare against.

Scales (``BENCH_PERF_SCALE``):

* ``smoke`` (default) — 200 peers / 500 queries, a couple of seconds;
  what CI's benchmark smoke job runs.
* ``paper`` — the tracked 2,000-peer / 5,000-query workload from the
  issue's acceptance criteria.

Regression guard: with ``BENCH_PERF_ENFORCE=1`` the run fails if the
fresh optimized queries/sec drops more than 30% below the committed
record for the same scale (CI sets this).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.perf.bench import paper_scale_config, run_perf_workload, smoke_config

RECORD_PATH = Path(__file__).parent / "BENCH_PERF.json"
SCALE = os.environ.get("BENCH_PERF_SCALE", "smoke")
ENFORCE = os.environ.get("BENCH_PERF_ENFORCE", "") == "1"
#: Max tolerated queries/sec regression vs the committed record (30%).
REGRESSION_FLOOR = 0.7


def _format_table(optimized, baseline, speedup_total: float) -> str:
    rows = [
        ("total_s", baseline.total_s, optimized.total_s),
        ("query_s", baseline.query_s, optimized.query_s),
        ("churn_s", baseline.churn_s, optimized.churn_s),
        ("queries_per_s", baseline.queries_per_s, optimized.queries_per_s),
        ("lookups_per_s", baseline.lookups_per_s, optimized.lookups_per_s),
        ("mean_lookup_hops", baseline.mean_lookup_hops, optimized.mean_lookup_hops),
    ]
    lines = [
        f"perf workload [{SCALE}]: {optimized.num_peers} peers, "
        f"{optimized.num_queries} queries",
        f"{'metric':<18} {'before':>12} {'after':>12}",
    ]
    for name, before, after in rows:
        lines.append(f"{name:<18} {before:>12.2f} {after:>12.2f}")
    lines.append(f"end-to-end speedup: {speedup_total:.2f}x")
    lines.append(f"ranking checksums identical: "
                 f"{optimized.ranking_checksum == baseline.ranking_checksum}")
    if optimized.route_cache:
        lines.append(
            f"route cache hit rate: {optimized.route_cache['hit_rate']:.1%} "
            f"({optimized.route_cache['hits']} hits, "
            f"{optimized.route_cache['revalidations']} revalidations)"
        )
    return "\n".join(lines)


@pytest.fixture(scope="module")
def measurements(record_result):
    cfg = paper_scale_config() if SCALE == "paper" else smoke_config()
    committed = {}
    if RECORD_PATH.exists():
        committed = json.loads(RECORD_PATH.read_text(encoding="utf-8"))

    optimized = run_perf_workload(cfg)
    baseline = run_perf_workload(cfg.replaced(arm="reference"))
    speedup_total = round(baseline.total_s / optimized.total_s, 2)
    speedup_queries = round(
        (baseline.query_s + baseline.churn_s)
        / (optimized.query_s + optimized.churn_s),
        2,
    )

    record = dict(committed)
    record[SCALE] = {
        "workload": {
            "num_peers": cfg.num_peers,
            "num_documents": cfg.num_documents,
            "num_queries": cfg.num_queries,
            "distinct_queries": cfg.distinct_queries,
            "churn_every": cfg.churn_every,
            "seed": cfg.seed,
        },
        "before": baseline.to_dict(),
        "after": optimized.to_dict(),
        "speedup_total": speedup_total,
        "speedup_query_phase": speedup_queries,
        "checksums_match": optimized.ranking_checksum == baseline.ranking_checksum,
    }
    RECORD_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    record_result("perf", _format_table(optimized, baseline, speedup_total))
    return {
        "optimized": optimized,
        "baseline": baseline,
        "speedup_total": speedup_total,
        "committed": committed,
    }


def test_bench_perf_workload(benchmark, measurements) -> None:
    """Time one optimized smoke run for the pytest-benchmark table."""
    cfg = smoke_config().replaced(num_queries=200)
    benchmark.pedantic(run_perf_workload, args=(cfg,), rounds=1, iterations=1)


class TestEquivalence:
    def test_optimizations_change_speed_not_results(self, measurements) -> None:
        assert (
            measurements["optimized"].ranking_checksum
            == measurements["baseline"].ranking_checksum
        )

    def test_lookup_counts_identical(self, measurements) -> None:
        """Cache hits still account one lookup each — same totals."""
        assert measurements["optimized"].lookups == measurements["baseline"].lookups


class TestSpeedup:
    def test_optimized_is_faster(self, measurements) -> None:
        floor = 2.0 if SCALE == "paper" else 1.05
        assert measurements["speedup_total"] >= floor, (
            f"speedup {measurements['speedup_total']}x below {floor}x "
            f"at scale {SCALE!r}"
        )

    def test_route_cache_carries_most_lookups(self, measurements) -> None:
        cache = measurements["optimized"].route_cache
        assert cache is not None
        assert cache["hit_rate"] >= 0.5


class TestRegressionGuard:
    def test_queries_per_s_vs_committed_record(self, measurements) -> None:
        committed = measurements["committed"].get(SCALE)
        if not committed:
            pytest.skip(f"no committed record for scale {SCALE!r} yet")
        if not ENFORCE:
            pytest.skip("BENCH_PERF_ENFORCE not set (informational run)")
        previous = committed["after"]["queries_per_s"]
        current = measurements["optimized"].queries_per_s
        assert current >= REGRESSION_FLOOR * previous, (
            f"queries/sec regressed: {current:.0f} vs committed "
            f"{previous:.0f} (floor {REGRESSION_FLOOR:.0%})"
        )
