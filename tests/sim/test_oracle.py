"""The differential oracle: production against the reference models,
results invariant across the configurable axes, and the centralized
baseline."""

from __future__ import annotations

import pytest

from repro.core.indexer import IndexingProtocol
from repro.core.owner import OwnerPeer
from repro.core.query_processing import QueryProcessor
from repro.corpus.synthetic import SyntheticTrecCorpus
from repro.dht import ChordRing, RecordRing
from repro.perf.concurrency import ConcurrentRuntime
from repro.reference import FullRebuildChordRing, PerTermOwner
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


class TestReference:
    def test_production_matches_reference(self, oracle) -> None:
        report = oracle.check_reference()
        assert report.queries_compared > 0
        assert report.ok, [m.detail for m in report.mismatches]

    def test_builders_differ_only_in_reference_types(self, oracle) -> None:
        production = oracle._build()
        reference = oracle._build_reference()
        assert type(production.ring) is ChordRing
        assert type(reference.ring) is FullRebuildChordRing
        assert production.ring.route_cache is not None
        assert reference.ring.route_cache is None
        assert production.owner_type is OwnerPeer
        assert reference.owner_type is PerTermOwner
        assert type(production.processor) is QueryProcessor
        # everything that affects *results* is identical
        assert production.config == reference.config
        assert production.ring.live_ids == reference.ring.live_ids

    def test_fingerprint_sees_slot_and_owner_state(self, workload) -> None:
        corpus, __, __ = workload
        oracle = DifferentialOracle(corpus, [], [], num_peers=16, seed=0)
        system = oracle._build()
        system.bulk_share()
        fingerprint = write_state_fingerprint(system)
        assert fingerprint["slots"], "expected published term slots"
        assert fingerprint["owners"], "expected owner-side shared state"
        assert len(fingerprint["version_rank"]) == len(fingerprint["slots"])

    def test_join_repair_fault_is_reported(self, oracle, monkeypatch) -> None:
        """A join that leaves other nodes' finger arcs stale must show
        right after the join phase, even though the joiner's later
        leave restores the same routing state."""
        repair_join = ChordRing._repair_join

        def skip_finger_arcs(ring, node_id):
            fingers = {
                nid: list(node.fingers)
                for nid, node in ring.nodes.items()
                if nid != node_id
            }
            repair_join(ring, node_id)
            for nid, kept in fingers.items():
                ring.nodes[nid].fingers = kept

        monkeypatch.setattr(ChordRing, "_repair_join", skip_finger_arcs)
        report = oracle.check_reference()
        details = [m.detail for m in report.mismatches]
        assert "routing state diverged after join: reference vs production" in details


class TestInvariance:
    def test_configurable_axes_do_not_change_results(self, oracle) -> None:
        """Sqlite store, ReCord ring, result cache and the event-driven
        runtime at concurrency 1: rankings and the write-state
        fingerprint bit-identical to production after every phase and
        query round."""
        report = oracle.check_invariance()
        assert report.queries_compared > 0
        assert report.ok, [m.detail for m in report.mismatches]

    def test_builders_differ_only_in_configurable_axes(self, oracle) -> None:
        arms = oracle._invariance_arms()
        production, durable, record, cached, concurrent = arms
        try:
            assert durable.store_runtime is not None
            assert type(record.ring) is RecordRing
            assert record.ring.arity == 8
            assert cached.protocol.result_cache_size == 128
            for system in (production, concurrent):
                assert system.config == oracle._sprite_config()
            for system in arms:
                assert type(system.processor) is QueryProcessor
                assert system.owner_type is OwnerPeer
                assert system.ring.live_ids == production.ring.live_ids
                if system is not record:
                    assert type(system.ring) is ChordRing
        finally:
            durable.store_runtime.close()

    def test_diverging_arm_is_reported(self, oracle, monkeypatch) -> None:
        """A runtime that registers every query, whatever ``cache``
        says, diverges in query-cache state after the second round."""
        submit = ConcurrentRuntime.submit
        monkeypatch.setattr(
            ConcurrentRuntime,
            "submit",
            lambda runtime, query, cache=True: submit(runtime, query, cache=True),
        )
        report = oracle.check_invariance()
        assert not report.ok
        assert all("concurrent-runtime" in m.detail for m in report.mismatches)

    def test_result_cache_arm_that_never_hits_is_reported(
        self, oracle, monkeypatch
    ) -> None:
        """Equal rankings from a cache that served nothing checked
        nothing, so the oracle reports it."""
        monkeypatch.setattr(
            IndexingProtocol, "probe_result", lambda *args, **kwargs: None
        )
        report = oracle.check_invariance()
        assert [m.detail for m in report.mismatches] == [
            f"result-cache arm served 0 of {len(oracle.test)} second-round "
            "queries from its cache"
        ]


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
        assert set(reports) == {"reference", "invariance", "centralized-baseline"}
        assert all(r.ok for r in reports.values())
