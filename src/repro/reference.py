"""Reference query execution (paper Section 4, computed the plain way).

:func:`reference_execute` is the original per-term-fetch, nested-dict
query computation: one SEARCH_TERM / POSTINGS message pair per term,
per-document weight dicts, and :func:`~repro.ir.similarity.lee_similarity`
over every candidate.  It is not a production path.  It exists to check
:class:`~repro.core.query_processing.QueryProcessor`, which must return
bit-identical documents, scores and tie-broken order: the equivalence
tests and the oracle's perf-paths comparison hold the two to that, and
the perf benchmark's baseline arm measures it as the "before" number.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from .core.indexer import IndexingProtocol
from .core.query_processing import QueryExecution
from .corpus.relevance import Query
from .exceptions import NodeFailedError
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
