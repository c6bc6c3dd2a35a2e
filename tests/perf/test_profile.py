"""The opt-in profiling layer and the perf workload plumbing."""

from __future__ import annotations

import pytest

from repro.perf import PROFILE, PerfProfile, memory_usage
from repro.perf.bench import (
    ARMS,
    PerfWorkloadConfig,
    run_perf_workload,
    smoke_config,
)


class TestPerfProfile:
    def test_disabled_by_default_and_resettable(self) -> None:
        profile = PerfProfile()
        assert not profile.enabled
        profile.enable()
        profile.add_time("lookup", 0.25)
        profile.count("hits", 3)
        profile.reset()
        assert profile.total_seconds("lookup") == 0.0
        assert profile.counter("hits") == 0

    def test_add_time_accumulates(self) -> None:
        profile = PerfProfile().enable()
        profile.add_time("lookup", 0.5)
        profile.add_time("lookup", 0.25)
        assert profile.total_seconds("lookup") == 0.75
        assert profile.calls("lookup") == 2

    def test_timer_context_records_only_when_enabled(self) -> None:
        profile = PerfProfile()
        with profile.timer("span"):
            pass
        assert profile.calls("span") == 0
        profile.enable()
        with profile.timer("span"):
            pass
        assert profile.calls("span") == 1
        assert profile.total_seconds("span") >= 0.0

    def test_summary_and_report_shape(self) -> None:
        profile = PerfProfile().enable()
        profile.add_time("lookup", 0.002)
        profile.count("route_cache.hit", 7)
        summary = profile.summary()
        assert summary["timers"]["lookup"]["calls"] == 1
        assert summary["counters"]["route_cache.hit"] == 7
        text = profile.report()
        assert "lookup" in text and "route_cache.hit" in text

    def test_module_singleton_starts_disabled(self) -> None:
        assert isinstance(PROFILE, PerfProfile)
        assert not PROFILE.enabled


class TestMemoryAccounting:
    def test_memory_usage_snapshot_shape(self) -> None:
        snapshot = memory_usage()
        assert set(snapshot) == {"rss_kb", "peak_rss_kb", "allocated_blocks"}
        # Linux/macOS report real numbers; the fallback is all-zero.
        assert snapshot["peak_rss_kb"] >= snapshot["rss_kb"] >= 0
        assert snapshot["allocated_blocks"] >= 0

    def test_gauges_set_max_and_reset(self) -> None:
        profile = PerfProfile().enable()
        profile.gauge("mem.x.rss_kb", 10)
        profile.gauge("mem.x.rss_kb", 4)  # gauge overwrites
        profile.max_gauge("mem.peak_rss_kb", 7)
        profile.max_gauge("mem.peak_rss_kb", 3)  # max keeps the high-water
        assert profile.gauge_value("mem.x.rss_kb") == 4
        assert profile.gauge_value("mem.peak_rss_kb") == 7
        assert profile.gauge_value("absent", default=-1.0) == -1.0
        profile.reset()
        assert profile.gauge_value("mem.peak_rss_kb") == 0.0

    def test_gauges_ignored_while_disabled(self) -> None:
        profile = PerfProfile()
        profile.gauge("g", 5)
        profile.max_gauge("m", 5)
        assert profile.gauge_value("g") == 0.0
        assert profile.gauge_value("m") == 0.0

    def test_record_memory_writes_gauges_only_when_enabled(self) -> None:
        profile = PerfProfile()
        snapshot = profile.record_memory("phase")
        assert set(snapshot) == {"rss_kb", "peak_rss_kb", "allocated_blocks"}
        assert profile.gauge_value("mem.phase.rss_kb") == 0.0
        profile.enable()
        snapshot = profile.record_memory("phase")
        assert profile.gauge_value("mem.phase.rss_kb") == snapshot["rss_kb"]
        assert (
            profile.gauge_value("mem.peak_rss_kb") == snapshot["peak_rss_kb"]
        )

    def test_summary_and_report_include_gauges(self) -> None:
        profile = PerfProfile().enable()
        profile.gauge("mem.build.rss_kb", 1234)
        summary = profile.summary()
        assert summary["gauges"]["mem.build.rss_kb"] == 1234
        assert "mem.build.rss_kb" in profile.report()


class TestPerfWorkload:
    def test_smoke_workload_is_deterministic_and_equivalent(self) -> None:
        """The tracked scenario: the optimized and baseline stacks must
        produce the same ranking checksum (speed-only changes), and the
        same config must reproduce the same measurement inputs."""
        cfg = smoke_config().replaced(num_queries=150, num_peers=100)
        optimized = run_perf_workload(cfg)
        baseline = run_perf_workload(cfg.replaced(arm="reference"))
        again = run_perf_workload(cfg)
        assert optimized.ranking_checksum == baseline.ranking_checksum
        assert optimized.ranking_checksum == again.ranking_checksum
        assert optimized.lookups == baseline.lookups
        assert optimized.route_cache is not None
        assert optimized.route_cache["hits"] > 0
        assert baseline.route_cache is None

    def test_every_arm_ranks_identically(self) -> None:
        cfg = smoke_config().replaced(num_queries=120, num_peers=80)
        results = {arm: run_perf_workload(cfg.replaced(arm=arm)) for arm in ARMS}
        assert {r.arm for r in results.values()} == set(ARMS)
        assert len({r.ranking_checksum for r in results.values()}) == 1
        assert results["exhaustive"].total_messages == (
            results["production"].total_messages
        )
        with pytest.raises(ValueError):
            cfg.replaced(arm="optimized")

    def test_result_record_is_json_friendly(self) -> None:
        import json

        cfg = PerfWorkloadConfig(
            num_peers=60,
            num_documents=20,
            vocabulary_size=80,
            terms_per_document=6,
            num_queries=40,
            distinct_queries=15,
            num_query_peers=8,
            churn_every=20,
        )
        result = run_perf_workload(cfg)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["num_queries"] == 40
        assert payload["queries_per_s"] > 0
        assert set(payload["profile"]) == {"timers", "counters", "gauges"}
        assert payload["peak_rss_kb"] >= 0

    def test_workload_leaves_global_profile_disabled(self) -> None:
        cfg = PerfWorkloadConfig(
            num_peers=60,
            num_documents=10,
            vocabulary_size=50,
            terms_per_document=5,
            num_queries=20,
            distinct_queries=10,
            num_query_peers=4,
            churn_every=0,
        )
        run_perf_workload(cfg)
        assert not PROFILE.enabled
