"""Reference models: the plain computations production is held to.

None of these is a production path.  Each keeps the seed's direct
semantics so the equivalence tests, the differential oracle and the
benchmarks' "before" arms can check the optimized path against it, bit
for bit:

* :func:`reference_execute` — per-term-fetch, nested-dict query
  execution (paper Section 4): one SEARCH_TERM / POSTINGS pair per term
  and :func:`~repro.ir.similarity.lee_similarity` over every candidate.
  Checks :class:`~repro.core.query_processing.QueryProcessor`.
* :class:`PerTermOwner` — the owner write path of paper Sections 1 and
  3: one message per (document, term) pair and one poll per index
  term.  Checks :class:`~repro.core.owner.OwnerPeer` through
  :func:`~repro.sim.oracle.write_state_fingerprint`;
  :class:`PerTermSpriteSystem` is a SPRITE system built with it.
* :class:`LegacyPostings` — the dict-of-rows posting store.  Checks
  :class:`~repro.ir.postings.ColumnarPostings`; slots get it through
  ``IndexingProtocol(store_runtime=)`` and any object whose
  ``new_postings(peer_id)`` returns one.
* :class:`ExhaustiveQueryProcessor` — bounded top-k without max-score
  pruning: every candidate is scored.  Checks the early termination of
  :class:`~repro.core.query_processing.QueryProcessor`.
* :class:`FullRebuildRing` — every join, leave and stabilize rebuilds
  every routing table (:class:`FullRebuildChordRing`,
  :class:`FullRebuildRecordRing`, :func:`build_full_rebuild_ring`).
  Checks the incremental repair of :class:`~repro.dht.ring.ChordRing`
  and :class:`~repro.dht.recursive.RecordRing` through
  :meth:`~repro.dht.node.ChordNode.routing_snapshot`.

:mod:`repro.core` must not import this module.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .core.indexer import IndexingProtocol
from .core.owner import OwnerPeer, SharedDocument, check_new_documents
from .config import ChordConfig
from .core.query_processing import QueryExecution, QueryProcessor
from .core.system import SpriteSystem
from .corpus.document import Document
from .corpus.relevance import Query
from .dht.recursive import RecordRing
from .dht.ring import ChordRing
from .exceptions import NodeFailedError
from .ir.postings import ImpactRow, PostingRow, next_version, posting_impact
from .ir.ranking import RankedList
from .ir.similarity import lee_similarity
from .ir.weighting import TfIdfWeighting


def reference_execute(
    protocol: IndexingProtocol,
    issuer_id: int,
    query: Query,
    assumed_corpus_size: int,
    top_k: int | None = None,
    cache: bool = True,
    document_frequency_override: Optional[Mapping[str, int]] = None,
) -> Tuple[RankedList, QueryExecution]:
    """Run *query* from peer *issuer_id* term by term.

    Arguments mean what they mean for
    :meth:`QueryProcessor.execute <repro.core.query_processing.QueryProcessor.execute>`
    and its constructor.  Unreachable terms are dropped (Section 7).
    """
    weighting = TfIdfWeighting(corpus_size=assumed_corpus_size)
    execution = QueryExecution(query_id=query.query_id)
    clock = protocol.ring.transport.clock
    started_ms = clock.now
    if cache:
        protocol.register_query(issuer_id, query.terms)

    query_weights: Dict[str, float] = {}
    doc_weights: Dict[str, Dict[str, float]] = {}
    doc_lengths: Dict[str, int] = {}

    for term in query.terms:
        try:
            postings, indexed_df = protocol.fetch_postings(issuer_id, term)
        except NodeFailedError:
            execution.terms_failed += 1
            execution.dropped_terms.append(term)
            continue
        execution.terms_visited += 1
        if not postings or indexed_df <= 0:
            continue
        execution.postings_retrieved += len(postings)
        df = indexed_df
        if document_frequency_override is not None:
            df = max(1, document_frequency_override.get(term, indexed_df))
        query_weights[term] = weighting.query_weight(df)
        for posting in postings:
            doc_weights.setdefault(posting.doc_id, {})[term] = (
                weighting.document_weight(posting.normalized_tf, df)
            )
            doc_lengths[posting.doc_id] = posting.doc_length

    scores = {
        doc_id: lee_similarity(query_weights, weights, doc_lengths[doc_id])
        for doc_id, weights in doc_weights.items()
    }
    execution.candidate_documents = len(scores)
    execution.latency_ms = clock.now - started_ms
    ranked = (
        RankedList.top_k(scores, top_k) if top_k is not None else RankedList(scores)
    )
    return ranked, execution


class PerTermOwner(OwnerPeer):
    """The seed owner write path: one message per (document, term).

    Shares, withdrawals and learning polls go term by term through
    :meth:`~repro.core.indexer.IndexingProtocol.publish`,
    :meth:`~repro.core.indexer.IndexingProtocol.unpublish` and
    :meth:`~repro.core.indexer.IndexingProtocol.poll_term`; a term whose
    indexing peer is unreachable is skipped (Section 7).
    """

    def share_bulk(
        self,
        documents: Sequence[Document],
        first_terms_of: Dict[str, Sequence[str]] | None = None,
    ) -> List[SharedDocument]:
        check_new_documents([d.doc_id for d in documents], self.shared)
        firsts = first_terms_of or {}
        return [self.share(d, firsts.get(d.doc_id)) for d in documents]

    def unshare_bulk(self, doc_ids: Sequence[str]) -> None:
        self._bulk_states(doc_ids)
        for doc_id in doc_ids:
            self.unshare(doc_id)

    def _publish_terms(self, state: SharedDocument, terms: Sequence[str]) -> None:
        for term in terms:
            if term in state.index_terms:
                continue
            try:
                self.protocol.publish(
                    self.node_id, term, self._posting_for(state.document, term)
                )
            except NodeFailedError:
                continue
            state.index_terms.append(term)
            if term not in state.poll_cursors:
                state.poll_cursors[term] = -1

    def _unpublish_terms(self, state: SharedDocument, terms: Sequence[str]) -> None:
        for term in terms:
            if term not in state.index_terms:
                continue
            try:
                self.protocol.unpublish(self.node_id, term, state.document.doc_id)
            except NodeFailedError:
                pass
            state.index_terms.remove(term)
            state.poll_cursors.pop(term, None)

    def poll_queries(self, doc_id: str) -> List[Tuple[str, ...]]:
        state = self._state(doc_id)
        hashes = {t: self.protocol.term_hash(t) for t in state.index_terms}
        collected: List[Tuple[str, ...]] = []
        for term in list(state.index_terms):
            since = state.poll_cursors.get(term, -1)
            try:
                fresh, latest = self.protocol.poll_term(
                    self.node_id, term, hashes, since
                )
            except NodeFailedError:
                continue
            state.poll_cursors[term] = latest
            collected.extend(c.terms for c in fresh)
        return collected


class PerTermSpriteSystem(SpriteSystem):
    """:class:`~repro.core.system.SpriteSystem` whose owners publish
    term by term (:class:`PerTermOwner`)."""

    owner_type = PerTermOwner


class LegacyPostings:
    """The seed dict-of-rows posting store: same interface as
    :class:`~repro.ir.postings.ColumnarPostings`, with the slot
    aggregates computed on demand instead of incrementally."""

    def __init__(self) -> None:
        self._rows: Dict[str, Tuple[int, int, int]] = {}
        self._version = next_version()

    @property
    def version(self) -> int:
        return self._version

    @property
    def max_impact(self) -> float:
        return max(
            (posting_impact(tf, length) for __, tf, length in self._rows.values()),
            default=0.0,
        )

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._rows

    def add(self, doc_id: str, owner_peer: int, raw_tf: int, doc_length: int) -> None:
        self._rows[doc_id] = (owner_peer, raw_tf, doc_length)
        self._version = next_version()

    def remove(self, doc_id: str) -> Optional[PostingRow]:
        row = self._rows.pop(doc_id, None)
        if row is None:
            return None
        self._version = next_version()
        return (doc_id, row[0], row[1], row[2])

    def lookup(self, doc_id: str) -> Optional[PostingRow]:
        row = self._rows.get(doc_id)
        if row is None:
            return None
        return (doc_id, row[0], row[1], row[2])

    def scoring_lookup(self, doc_id: str) -> Optional[Tuple[float, int]]:
        row = self._rows.get(doc_id)
        if row is None:
            return None
        __, tf, length = row
        return (tf / length if length > 0 else 0.0, length)

    def rows(self) -> Iterator[PostingRow]:
        for doc_id, (owner, tf, length) in self._rows.items():
            yield (doc_id, owner, tf, length)

    def impact_rows(self) -> List[ImpactRow]:
        rows = [
            (
                doc_id,
                tf / length if length > 0 else 0.0,
                length if length > 0 else 0,
                posting_impact(tf, length),
            )
            for doc_id, (__, tf, length) in self._rows.items()
        ]
        rows.sort(key=lambda r: (-r[3], r[0]))
        return rows


class ExhaustiveQueryProcessor(QueryProcessor):
    """:class:`~repro.core.query_processing.QueryProcessor` without
    max-score pruning: a bounded top-k scores every candidate.  Fetch,
    scoring order, heap top-k and the result cache are production's."""

    def _topk_survivors(self, term_infos: List[tuple], top_k: int) -> None:
        return None


class FullRebuildRing:
    """Ring mixin: every join, leave and stabilize rebuilds every
    routing table, as the seed ring did.  Mix in ahead of
    :class:`~repro.dht.ring.ChordRing` or a subclass of it."""

    def _can_repair_incrementally(self, was_converged: bool) -> bool:
        return False

    def stabilize(self) -> None:
        self._rebuild()


class FullRebuildChordRing(FullRebuildRing, ChordRing):
    """:class:`~repro.dht.ring.ChordRing` with full-rebuild repair."""


class FullRebuildRecordRing(FullRebuildRing, RecordRing):
    """:class:`~repro.dht.recursive.RecordRing` with full-rebuild repair."""


def build_full_rebuild_ring(
    kind: str,
    config: ChordConfig | None = None,
    *,
    arity: int = 2,
) -> ChordRing:
    """The full-rebuild counterpart of
    :func:`~repro.dht.recursive.build_ring`: same kinds, same checks."""
    if kind == "record":
        return FullRebuildRecordRing(config, arity=arity)
    if kind == "chord" and arity != 2:
        raise ValueError("ring arity only applies to ring='record'")
    if kind != "chord":
        raise ValueError(f"unknown ring kind: {kind!r}")
    return FullRebuildChordRing(config)
