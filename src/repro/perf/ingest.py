"""The tracked bulk-ingest benchmark (ISSUE 5).

One reproducible write-heavy scenario exercises the batched write path
end to end: analyze a synthetic corpus (repeating vocabulary with
morphological variants, so the memoized stemmer has something to
memoize), bulk-share it from a handful of ingest peers into a
paper-scale ring, register a training query stream, run a learning
iteration (coalesced polls), then cycle withdraw/re-share churn over a
rotating corpus slice — the "document turnover" regime the ROADMAP's
millions-of-users north star implies.

``run_ingest_workload(cfg)`` executes the scenario once and returns an
:class:`IngestWorkloadResult` with phase timings, build / re-publish
throughput, write-path message accounting, stemmer cache statistics,
and a **ranking checksum** over a fixed evaluation query set.  Running
the workload with ``batched=False`` — owners are the per-term reference
:class:`repro.reference.PerTermOwner`, the seed write path — must
produce the *same checksum*: batching changes message grouping and
speed, never state.  ``benchmarks/test_bench_ingest.py`` asserts
exactly that while recording before/after numbers into
``BENCH_INGEST.json``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from hashlib import sha256
from time import perf_counter
from typing import Dict, List, Optional

from ..config import ChordConfig, SpriteConfig
from ..core.indexer import IndexingProtocol
from ..core.owner import OwnerPeer
from ..core.query_processing import QueryProcessor
from ..corpus.document import Document
from ..corpus.relevance import Query
from ..corpus.sampling import zipf_weights
from ..dht.ring import ChordRing
from ..reference import PerTermOwner
from ..text.analyzer import Analyzer
from .profile import PROFILE, ratio

#: Suffix variants attached to vocabulary words when synthesizing text:
#: each word appears inflected, so analysis exercises the stemmer the
#: way real prose does (and the stem memo has repeats to collapse).
_SUFFIXES = ("", "s", "ing", "ed")


@dataclass(frozen=True)
class IngestWorkloadConfig:
    """Shape of one ingest scenario.

    The default is the tracked "paper-scale" workload: a 2,000-peer
    ring ingesting 600 documents from 8 ingest peers over a 300-word
    vocabulary — enough vocabulary repetition that destination grouping
    collapses each owner's publish burst onto far fewer indexing peers
    than (document, term) pairs.  The CI smoke run shrinks every axis
    (see ``ingest_smoke_config``).
    """

    num_peers: int = 2000
    num_documents: int = 600
    num_ingest_peers: int = 8
    vocabulary_size: int = 300
    words_per_document: int = 120
    initial_terms: int = 12
    num_queries: int = 400
    distinct_queries: int = 120
    max_query_terms: int = 3
    num_eval_queries: int = 60
    churn_cycles: int = 20
    churn_slice: int = 30
    ring_churn_every: int = 5
    zipf_exponent: float = 0.8
    seed: int = 4111
    #: Destination-grouped owners (:class:`~repro.core.owner.OwnerPeer`);
    #: False runs the per-term reference owner instead (the ``legacy``
    #: and ``per_term`` comparison arms).
    batched: bool = True
    #: Route caching on the ring (PR 2).  The ``legacy`` comparison arm
    #: turns it off to reproduce the seed write path end to end, the
    #: same convention as ``BENCH_PERF.json``'s "before" mode.
    route_cache: bool = True

    def replaced(self, **kwargs) -> "IngestWorkloadConfig":
        merged = {**asdict(self), **kwargs}
        return IngestWorkloadConfig(**merged)


def ingest_paper_config(batched: bool = True) -> IngestWorkloadConfig:
    """The 2,000-peer / 600-document workload the issue tracks."""
    return IngestWorkloadConfig(batched=batched)


def ingest_smoke_config(batched: bool = True) -> IngestWorkloadConfig:
    """A seconds-scale shrink of the same scenario for CI."""
    return IngestWorkloadConfig(
        num_peers=200,
        num_documents=120,
        num_ingest_peers=4,
        vocabulary_size=150,
        words_per_document=60,
        num_queries=120,
        distinct_queries=40,
        num_eval_queries=20,
        churn_cycles=6,
        churn_slice=15,
        batched=batched,
    )


@dataclass
class IngestWorkloadResult:
    """Measured outcome of one workload run (JSON-friendly)."""

    batched: bool
    num_peers: int
    num_documents: int
    analyze_s: float
    build_s: float
    learn_s: float
    churn_s: float
    total_s: float
    #: Corpus-build throughput: documents shared per second.
    docs_per_s_build: float
    #: Churn-phase throughput: documents withdrawn + re-shared per second.
    docs_per_s_republish: float
    #: Write-category messages per document during the build phase.
    publish_messages_per_doc: float
    #: Write-category abstract bytes per document during the build phase.
    publish_bytes_per_doc: float
    #: DHT lookups per document during the build phase.
    lookups_per_doc: float
    write_messages_total: int
    stem_cache: Dict[str, int]
    ranking_checksum: str
    profile: Dict[str, Dict[str, object]]

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class IngestComparison:
    """Measured outcome of one three-arm write-path comparison.

    Mirrors the ``BENCH_TOPK.json`` convention: ``legacy`` is the seed
    execution path end to end (per-term reference owners, no route
    cache) — the acceptance baseline — while ``per_term`` isolates the
    win of destination grouping by running the per-term reference
    owners over the already route-cached ring.
    """

    legacy: IngestWorkloadResult
    per_term: IngestWorkloadResult
    batched: IngestWorkloadResult
    #: Build docs/s of the batched path over the seed ``legacy`` path —
    #: the acceptance criterion (>= 2x at paper scale).
    speedup_build: float
    #: Build docs/s over the route-cached per-term path — the win of
    #: destination grouping alone.
    speedup_build_vs_per_term: float
    #: Churn re-publish docs/s, batched over the seed ``legacy`` path.
    speedup_republish: float
    #: Per-term publish messages per document over batched — how many
    #: fewer write-path messages each ingested document costs.
    message_ratio: float
    checksums_match: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _synth_text(rng: random.Random, vocab: List[str], weights: List[float], num_words: int) -> str:
    words = rng.choices(vocab, weights=weights, k=num_words)
    return " ".join(w + rng.choice(_SUFFIXES) for w in words)


def run_ingest_workload(cfg: IngestWorkloadConfig) -> IngestWorkloadResult:
    """Execute the scenario once and measure it.

    Deterministic for a given config: same seed → same ring, corpus,
    query stream, churn schedule, and (batched or not) the same ranking
    checksum.
    """
    prior_enabled = PROFILE.enabled
    PROFILE.reset()
    PROFILE.enable()
    try:
        return _run(cfg)
    finally:
        if not prior_enabled:
            PROFILE.disable()


def _run(cfg: IngestWorkloadConfig) -> IngestWorkloadResult:
    rng = random.Random(cfg.seed)

    # -- phase 1: text analysis (the ingest-time fast path) ----------------
    vocab = [f"voc{i:03d}" for i in range(cfg.vocabulary_size)]
    weights = zipf_weights(cfg.vocabulary_size, cfg.zipf_exponent)
    docs = [
        Document(
            f"doc{d:05d}",
            _synth_text(rng, vocab, weights, cfg.words_per_document),
        )
        for d in range(cfg.num_documents)
    ]
    # A fresh analyzer per run so the stem memo's hit/miss statistics
    # reflect this corpus alone, not whatever ran before in-process.
    analyzer = Analyzer()
    t0 = perf_counter()
    for doc in docs:
        doc.analyze(analyzer)
    analyze_s = perf_counter() - t0
    stem_info = analyzer.stemmer.cache_info()

    # -- build the ring and the ingest owner peers -------------------------
    ring = ChordRing(
        ChordConfig(
            num_peers=cfg.num_peers,
            seed=cfg.seed,
            route_cache_size=65536 if cfg.route_cache else 0,
        )
    )
    sprite = SpriteConfig(
        initial_terms=cfg.initial_terms,
        terms_per_iteration=4,
        learning_iterations=1,
        max_index_terms=cfg.initial_terms + 4,
        query_cache_size=500,
        assumed_corpus_size=cfg.num_documents,
    )
    protocol = IndexingProtocol(ring, query_cache_size=500)
    owner_ids = rng.sample(ring.live_ids, cfg.num_ingest_peers)
    owner_type = OwnerPeer if cfg.batched else PerTermOwner
    owners = [owner_type(node_id, protocol, sprite) for node_id in owner_ids]
    slice_of: Dict[int, List[Document]] = {i: [] for i in range(len(owners))}
    owner_index_of: Dict[str, int] = {}
    for d, doc in enumerate(docs):
        slice_of[d % len(owners)].append(doc)
        owner_index_of[doc.doc_id] = d % len(owners)

    # -- phase 2: bulk corpus build ----------------------------------------
    before = ring.stats.snapshot()
    lookup_count_before = ring.stats.lookup_count
    t0 = perf_counter()
    for i, owner in enumerate(owners):
        owner.share_bulk(slice_of[i])
    build_s = perf_counter() - t0
    build_delta = ring.stats.delta_since(before)
    write_messages = 0
    write_bytes = 0
    for kind, stats in build_delta.items():
        if kind.value in _WRITE_KINDS:
            write_messages += stats.messages
            write_bytes += stats.bytes
    build_lookups = ring.stats.lookup_count - lookup_count_before

    # -- phase 3: training queries + one learning iteration ----------------
    pool = [
        Query(
            query_id=f"ingq{q:04d}",
            terms=tuple(
                dict.fromkeys(
                    rng.choices(vocab, weights=weights, k=rng.randint(1, cfg.max_query_terms))
                )
            ),
        )
        for q in range(cfg.distinct_queries)
    ]
    pool_weights = zipf_weights(cfg.distinct_queries, cfg.zipf_exponent)
    issuers = rng.sample(ring.live_ids, 16)
    t0 = perf_counter()
    for q in range(cfg.num_queries):
        query = pool[rng.choices(range(cfg.distinct_queries), weights=pool_weights)[0]]
        protocol.register_query(issuers[q % len(issuers)], query.terms)
    for owner in owners:
        owner.learn_all()
    learn_s = perf_counter() - t0

    # -- phase 4: withdraw / re-share churn cycles --------------------------
    protected = set(owner_ids) | set(issuers)
    republished = 0
    t0 = perf_counter()
    for cycle in range(cfg.churn_cycles):
        if cfg.ring_churn_every and cycle and cycle % cfg.ring_churn_every == 0:
            ring.join(name=f"ingest-churner-{cycle}")
            candidates = [n for n in ring.live_ids if n not in protected]
            ring.leave(rng.choice(candidates))
            ring.stabilize()
        start = (cycle * cfg.churn_slice) % cfg.num_documents
        batch = docs[start : start + cfg.churn_slice]
        if not batch:
            continue
        for i, owner in enumerate(owners):
            mine = [d for d in batch if owner_index_of[d.doc_id] == i]
            if not mine:
                continue
            owner.unshare_bulk([d.doc_id for d in mine])
            owner.share_bulk(mine)
            republished += len(mine)
    churn_s = perf_counter() - t0

    # -- phase 5: evaluation queries + ranking checksum ---------------------
    processor = QueryProcessor(
        protocol, assumed_corpus_size=cfg.num_documents
    )
    checksum = sha256()
    for q in range(cfg.num_eval_queries):
        query = pool[q % len(pool)]
        ranked = processor.search(
            issuers[q % len(issuers)], query, top_k=20, cache=False
        )
        checksum.update(query.query_id.encode())
        for entry in ranked:
            checksum.update(f"{entry.doc_id}:{entry.score!r}".encode())

    total_s = analyze_s + build_s + learn_s + churn_s
    return IngestWorkloadResult(
        batched=cfg.batched,
        num_peers=cfg.num_peers,
        num_documents=cfg.num_documents,
        analyze_s=round(analyze_s, 4),
        build_s=round(build_s, 4),
        learn_s=round(learn_s, 4),
        churn_s=round(churn_s, 4),
        total_s=round(total_s, 4),
        docs_per_s_build=round(cfg.num_documents / build_s, 2) if build_s else 0.0,
        docs_per_s_republish=round(republished / churn_s, 2) if churn_s else 0.0,
        publish_messages_per_doc=round(write_messages / cfg.num_documents, 3),
        publish_bytes_per_doc=round(write_bytes / cfg.num_documents, 1),
        lookups_per_doc=round(build_lookups / cfg.num_documents, 3),
        write_messages_total=write_messages,
        stem_cache={
            "hits": stem_info.hits,
            "misses": stem_info.misses,
            "currsize": stem_info.currsize,
        },
        ranking_checksum=checksum.hexdigest(),
        profile=PROFILE.summary(),
    )


#: Kind names counted as write-path traffic in the build phase (the
#: build phase sends no polls; they are listed for completeness and
#: mirror ``repro.dht.messages.WRITE_PATH_KINDS``).
_WRITE_KINDS = frozenset(
    {
        "publish_term",
        "unpublish_term",
        "publish_batch",
        "unpublish_batch",
        "poll_queries",
        "poll_batch",
        "query_batch",
    }
)


def run_ingest_comparison(cfg: IngestWorkloadConfig) -> IngestComparison:
    """Run the scenario once per write path and compare.

    Deterministic for a given config: all arms consume the same seeded
    workload, so their ranking checksums must agree bit for bit (the
    route cache changes routing cost, never routing *results*, on the
    stabilized ring the workload maintains).
    """
    legacy = run_ingest_workload(cfg.replaced(batched=False, route_cache=False))
    per_term = run_ingest_workload(cfg.replaced(batched=False, route_cache=True))
    batched = run_ingest_workload(cfg.replaced(batched=True, route_cache=True))
    return IngestComparison(
        legacy=legacy,
        per_term=per_term,
        batched=batched,
        speedup_build=ratio(batched.docs_per_s_build, legacy.docs_per_s_build),
        speedup_build_vs_per_term=ratio(
            batched.docs_per_s_build, per_term.docs_per_s_build
        ),
        speedup_republish=ratio(
            batched.docs_per_s_republish, legacy.docs_per_s_republish
        ),
        message_ratio=ratio(
            legacy.publish_messages_per_doc, batched.publish_messages_per_doc
        ),
        checksums_match=(
            legacy.ranking_checksum
            == per_term.ranking_checksum
            == batched.ranking_checksum
        ),
    )
