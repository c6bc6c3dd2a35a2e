"""The differential oracle: perf paths, top-k paths, ingest paths,
store paths, the concurrent runtime, ring paths, and the centralized
baseline."""

from __future__ import annotations

import pytest

from repro.core.owner import OwnerPeer
from repro.corpus.synthetic import SyntheticTrecCorpus
from repro.reference import PerTermOwner
from repro.sim import DifferentialOracle, FullIndexSystem, write_state_fingerprint


@pytest.fixture(scope="module")
def workload(micro_corpus_config):
    corpus, originals, __ = SyntheticTrecCorpus(micro_corpus_config).build()
    queries = list(originals)
    return corpus, queries[:4], queries[4:]


@pytest.fixture(scope="module")
def oracle(workload):
    corpus, train, test = workload
    return DifferentialOracle(corpus, train=train, test=test, num_peers=16, seed=0)


class TestPerfPaths:
    def test_optimized_and_direct_rankings_bit_identical(self, oracle) -> None:
        report = oracle.check_perf_paths()
        assert report.queries_compared > 0
        assert report.ok, [m.detail for m in report.mismatches]

    def test_builders_differ_only_in_perf_switches(self, oracle) -> None:
        fast = oracle._build_sprite(optimized=True)
        slow = oracle._build_sprite(optimized=False)
        assert fast.ring.config.route_cache_size > 0
        assert slow.ring.config.route_cache_size == 0
        assert fast.ring.config.incremental_repair
        assert not slow.ring.config.incremental_repair
        # everything that affects *results* is identical
        assert fast.config == slow.config
        assert fast.ring.live_ids == slow.ring.live_ids


class TestTopKPaths:
    def test_topk_and_cached_rankings_bit_identical(self, oracle) -> None:
        report = oracle.check_topk_paths()
        assert report.queries_compared > 0
        assert report.ok, [m.detail for m in report.mismatches]

    def test_builders_differ_only_in_topk_switches(self, oracle) -> None:
        exhaustive = oracle._build_topk_sprite(
            early_termination=False, result_cache_size=0
        )
        served = oracle._build_topk_sprite(
            early_termination=True, result_cache_size=128
        )
        assert not exhaustive.processor.early_termination
        assert served.processor.early_termination
        assert exhaustive.protocol.result_cache_size == 0
        assert served.protocol.result_cache_size == 128
        assert exhaustive.ring.live_ids == served.ring.live_ids


class TestIngestPaths:
    def test_batched_and_per_term_state_bit_identical(self, oracle) -> None:
        report = oracle.check_ingest_paths()
        assert report.queries_compared > 0
        assert report.ok, [m.detail for m in report.mismatches]

    def test_builders_differ_only_in_write_switch(self, oracle) -> None:
        batched = oracle._build_ingest_sprite(per_term=False)
        legacy = oracle._build_ingest_sprite(per_term=True)
        assert batched.owner_type is OwnerPeer
        assert legacy.owner_type is PerTermOwner
        assert batched.config == legacy.config
        assert batched.ring.live_ids == legacy.ring.live_ids

    def test_fingerprint_sees_slot_and_owner_state(self, workload) -> None:
        corpus, __, __ = workload
        oracle = DifferentialOracle(corpus, [], [], num_peers=16, seed=0)
        system = oracle._build_ingest_sprite(per_term=False)
        system.bulk_share()
        fingerprint = write_state_fingerprint(system)
        assert fingerprint["slots"], "expected published term slots"
        assert fingerprint["owners"], "expected owner-side shared state"
        assert len(fingerprint["version_rank"]) == len(fingerprint["slots"])


class TestConcurrentRuntime:
    def test_event_driven_concurrency_one_bit_identical(self, oracle) -> None:
        """The sixth comparison: the DESIGN.md §15 runtime at
        concurrency 1 must leave rankings AND the quiescent write-state
        fingerprint bit-identical to call-stack execution."""
        report = oracle.check_concurrent_runtime()
        assert report.queries_compared > 0
        assert report.ok, [m.detail for m in report.mismatches]


class TestCentralizedBaseline:
    def test_full_index_matches_centralized_tfidf(self, oracle) -> None:
        report = oracle.check_centralized_baseline()
        assert report.queries_compared > 0
        assert report.ok, [m.detail for m in report.mismatches]

    def test_full_index_system_publishes_every_term(self, workload) -> None:
        corpus, __, __ = workload
        doc = next(iter(corpus))
        system = FullIndexSystem(
            corpus,
            sprite_config=DifferentialOracle(corpus, [], [])._sprite_config(),
        )
        terms = system._first_terms(doc.doc_id)
        assert terms == sorted(doc.term_freqs)


class TestCheckAll:
    def test_runs_all_oracles(self, oracle) -> None:
        reports = oracle.check_all()
        assert set(reports) == {
            "perf-paths",
            "topk-paths",
            "ingest-paths",
            "store-paths",
            "concurrent-runtime",
            "ring-paths",
            "centralized-baseline",
        }
        assert all(r.ok for r in reports.values())
