"""Exactness of the top-k execution path (ISSUE 4).

The early-termination path of :class:`QueryProcessor` must be
*invisible in results*: identical documents, bit-identical scores,
identical tie-broken order versus both the exhaustive
:class:`repro.reference.ExhaustiveQueryProcessor` and the per-term reference
:func:`repro.reference.reference_execute` — under repeated keywords,
failures, document-frequency overrides, degenerate ``top_k`` values,
zero-length documents, and either posting store (columnar, or the
dict-backed :class:`repro.reference.LegacyPostings`).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry
from repro.core.query_processing import QueryProcessor
from repro.corpus.relevance import Query
from repro.dht.ring import ChordRing
from repro.reference import (
    ExhaustiveQueryProcessor,
    LegacyPostings,
    reference_execute,
)

VOCAB = [f"kw{i:03d}" for i in range(24)]


class _RawQuery:
    """Query stand-in that skips the sorted-set normalization, to reach
    the executors' own repeated-keyword guard."""

    def __init__(self, query_id: str, terms) -> None:
        self.query_id = query_id
        self.terms = tuple(terms)


class _DictSlots:
    """Store runtime that gives every new term slot the dict-backed
    reference posting store."""

    def new_postings(self, peer_id: int) -> LegacyPostings:
        return LegacyPostings()


def build_stack(
    *,
    processor_type=QueryProcessor,
    store_runtime=None,
    result_cache: int = 0,
    override=None,
    seed: int = 11,
    num_docs: int = 25,
    zero_length_docs: int = 0,
):
    ring = ChordRing(ChordConfig(num_peers=32, seed=seed, route_cache_size=4096))
    protocol = IndexingProtocol(
        ring, result_cache_size=result_cache, store_runtime=store_runtime
    )
    processor = processor_type(
        protocol,
        assumed_corpus_size=10_000,
        document_frequency_override=override,
        result_cache=result_cache > 0,
    )
    rng = random.Random(seed)
    for d in range(num_docs):
        doc_id = f"d{d:03d}"
        owner = ring.random_live_id(rng)
        length = 0 if d < zero_length_docs else 40 + 9 * d
        for term in sorted(rng.sample(VOCAB, 5)):
            protocol.publish(
                owner,
                term,
                PostingEntry(doc_id, owner, rng.randint(1, 9), length),
            )
    return ring, protocol, processor


def pairs(ranked):
    return [(e.doc_id, e.score) for e in ranked]


def run_query(processor, ring, query, top_k):
    issuer = ring.live_ids[0]
    return processor.execute(issuer, query, top_k=top_k, cache=False)


def run_reference(processor, ring, query, top_k):
    """The same query through :func:`reference_execute`, on the stack
    *processor* was built over (its protocol, N and df override)."""
    return reference_execute(
        processor.protocol,
        ring.live_ids[0],
        query,
        processor.weighting.corpus_size,
        top_k=top_k,
        cache=False,
        document_frequency_override=processor.document_frequency_override,
    )


class TestEdgeCases:
    def test_repeated_keywords_score_once(self) -> None:
        ring_t, __, proc_t = build_stack()
        ring_r, __, proc_r = build_stack(processor_type=ExhaustiveQueryProcessor)
        # Query normalizes keywords to a sorted set, so repeats collapse
        # before execution; both paths must agree on the collapsed view.
        query = Query("rep", (VOCAB[3], VOCAB[3], VOCAB[9], VOCAB[3]))
        assert query.terms == tuple(sorted({VOCAB[3], VOCAB[9]}))
        ranked_t, exec_t = run_query(proc_t, ring_t, query, top_k=5)
        ranked_r, exec_r = run_reference(proc_r, ring_r, query, top_k=5)
        assert pairs(ranked_t) == pairs(ranked_r)
        assert exec_t.terms_visited == exec_r.terms_visited == 2
        assert exec_t.postings_retrieved == exec_r.postings_retrieved

    def test_repeated_terms_fed_directly_score_once(self) -> None:
        """The processor's own dedup guard, exercised below the Query
        normalization layer: a repeated term contributes exactly once."""
        ring_t, __, proc_t = build_stack()
        ring_b, __, proc_b = build_stack(processor_type=ExhaustiveQueryProcessor)
        ring_r, __, proc_r = build_stack(processor_type=ExhaustiveQueryProcessor)
        single = Query("one", (VOCAB[3],))
        raw = _RawQuery("raw", (VOCAB[3], VOCAB[3], VOCAB[3]))
        for top_k in (5, None):
            ranked_t, __ = run_query(proc_t, ring_t, raw, top_k=top_k)
            ranked_b, __ = run_query(proc_b, ring_b, raw, top_k=top_k)
            ranked_r, __ = run_reference(proc_r, ring_r, raw, top_k=top_k)
            base, __ = run_reference(proc_r, ring_r, single, top_k=top_k)
            assert pairs(ranked_t) == pairs(ranked_b) == pairs(ranked_r)
            assert pairs(ranked_r) == pairs(base)

    def test_all_terms_failed_returns_empty(self) -> None:
        ring, protocol, proc = build_stack()
        query = Query("dead", (VOCAB[0], VOCAB[1]))
        for term in query.terms:
            ring.fail(ring.successor_of(protocol.term_hash(term)))
        issuer = ring.live_ids[0]
        ranked, execution = proc.execute(issuer, query, top_k=5, cache=False)
        assert len(ranked) == 0
        assert execution.terms_failed == 2
        assert list(execution.dropped_terms) == list(query.terms)

    def test_top_k_zero_returns_empty(self) -> None:
        for processor_type in (QueryProcessor, ExhaustiveQueryProcessor):
            ring, __, proc = build_stack(processor_type=processor_type)
            query = Query("z", (VOCAB[2],))
            ranked, __ = run_query(proc, ring, query, top_k=0)
            assert len(ranked) == 0
            ranked_r, __ = run_reference(proc, ring, query, top_k=0)
            assert len(ranked_r) == 0

    def test_top_k_beyond_candidates_returns_all(self) -> None:
        ring_t, __, proc_t = build_stack()
        ring_r, __, proc_r = build_stack(processor_type=ExhaustiveQueryProcessor)
        query = Query("wide", (VOCAB[4], VOCAB[11]))
        ranked_t, __ = run_query(proc_t, ring_t, query, top_k=10_000)
        ranked_r, __ = run_reference(proc_r, ring_r, query, top_k=10_000)
        assert pairs(ranked_t) == pairs(ranked_r)
        assert len(ranked_t) > 0

    def test_zero_length_documents_rank_last_identically(self) -> None:
        ring_t, __, proc_t = build_stack(zero_length_docs=6)
        ring_r, __, proc_r = build_stack(processor_type=ExhaustiveQueryProcessor, zero_length_docs=6)
        for term in VOCAB:
            query = Query(f"q-{term}", (term,))
            for top_k in (8, None):
                ranked_t, __ = run_query(proc_t, ring_t, query, top_k=top_k)
                ranked_r, __ = run_reference(proc_r, ring_r, query, top_k=top_k)
                assert pairs(ranked_t) == pairs(ranked_r)

    def test_unbounded_top_k_skips_the_termination_path(self) -> None:
        ring_t, __, proc_t = build_stack()
        ring_r, __, proc_r = build_stack(processor_type=ExhaustiveQueryProcessor)
        query = Query("all", (VOCAB[5], VOCAB[8]))
        ranked_t, exec_t = run_query(proc_t, ring_t, query, top_k=None)
        ranked_r, exec_r = run_reference(proc_r, ring_r, query, top_k=None)
        # top_k=None cannot early-terminate: the full candidate set is
        # scored and returned, bit for bit the reference's.
        assert len(ranked_t) > 0
        assert pairs(ranked_t) == pairs(ranked_r)
        assert exec_t.candidate_documents == exec_r.candidate_documents


class TestBackendEquivalence:
    def test_columnar_and_legacy_stores_rank_identically(self) -> None:
        ring_c, __, proc_c = build_stack()
        ring_l, protocol_l, proc_l = build_stack(store_runtime=_DictSlots())
        assert isinstance(protocol_l.slot_snapshot(VOCAB[0])._store, LegacyPostings)
        rng = random.Random(5)
        for i in range(30):
            k = rng.randint(1, 3)
            query = Query(f"q{i}", tuple(rng.sample(VOCAB, k)))
            ranked_c, __ = run_query(proc_c, ring_c, query, top_k=7)
            ranked_l, __ = run_query(proc_l, ring_l, query, top_k=7)
            ranked_r, __ = run_reference(proc_l, ring_l, query, top_k=7)
            assert pairs(ranked_c) == pairs(ranked_l) == pairs(ranked_r)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    top_k=st.integers(min_value=0, max_value=40),
    num_terms=st.integers(min_value=1, max_value=4),
    fail_first_term=st.booleans(),
    use_override=st.booleans(),
)
def test_equivalence_property(
    seed: int,
    top_k: int,
    num_terms: int,
    fail_first_term: bool,
    use_override: bool,
) -> None:
    """For any seeded workload — including peer failures and document
    frequency overrides — the pruning and exhaustive processors and the
    reference return identical documents, scores, and order."""
    rng = random.Random(seed)
    terms = tuple(rng.choice(VOCAB) for __ in range(num_terms))
    override = (
        {term: rng.randint(1, 50) for term in set(terms)} if use_override else None
    )
    query = Query("prop", terms)

    rankings = []
    for processor_type, run in (
        (QueryProcessor, run_query),
        (ExhaustiveQueryProcessor, run_query),
        (ExhaustiveQueryProcessor, run_reference),
    ):
        ring, protocol, processor = build_stack(
            processor_type=processor_type,
            override=override,
            seed=seed % 17,
        )
        if fail_first_term:
            victim = ring.successor_of(protocol.term_hash(terms[0]))
            ring.fail(victim)
            if victim == ring.live_ids[0]:
                return  # issuer crashed; nothing to compare
        ranked, __ = run(processor, ring, query, top_k=top_k)
        rankings.append(pairs(ranked))
    assert rankings[0] == rankings[1] == rankings[2]
