"""The tracked durable-store benchmark (ISSUE 6).

Two reproducible scenarios behind ``benchmarks/test_bench_store.py`` and
``perf --mode store``:

* ``run_store_workload(cfg)`` — one ingest + query pass (bulk-share a
  synthetic corpus from a handful of ingest peers, register a training
  stream, learn, then run a fixed evaluation query set) with the posting
  store on the configured backend.  Returns throughput per phase, the
  store's own statistics rollup (database size, Bloom counters,
  connection-pool usage), snapshot cost, and a **ranking checksum** —
  every backend arm must produce the same checksum, the same acceptance
  bar the write-path bench uses.

* ``run_recovery_workload(cfg, use_snapshot)`` — the crash-recovery
  comparison: build, replicate, checkpoint every slot-holding peer,
  apply a churn delta, replicate again, crash the slot-richest indexing
  peer, repair the ring, and rejoin it through
  :class:`~repro.store.recovery.RecoveryManager`.  With
  ``use_snapshot=True`` only the post-checkpoint delta ships; with
  ``False`` the full-resync baseline runs.  The comparison reports
  messages / bytes / postings for both, which the benchmark gates on.

Shares the synthetic-text helpers with :mod:`repro.perf.ingest` so the
corpora are directly comparable across the tracked benches.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from hashlib import sha256
from time import perf_counter
from typing import Dict, List, Optional

from ..config import ChordConfig, SpriteConfig
from ..core.indexer import IndexingProtocol
from ..core.metadata import TermSlot
from ..core.owner import OwnerPeer
from ..core.query_processing import QueryProcessor
from ..corpus.document import Document
from ..corpus.relevance import Query
from ..corpus.sampling import zipf_weights
from ..dht.replication import ReplicationManager
from ..dht.ring import ChordRing
from ..store import RecoveryManager, StoreRuntime
from ..text.analyzer import Analyzer
from .ingest import _synth_text
from .profile import PROFILE, ratio


@dataclass(frozen=True)
class StoreWorkloadConfig:
    """Shape of one store scenario.

    The default is the tracked "paper-scale" workload: a 400-peer ring
    ingesting 300 documents — large enough that the victim peer in the
    recovery scenario holds dozens of slots, small enough that the
    per-row SQLite arm finishes in tens of seconds.  The CI smoke run
    shrinks every axis (see ``store_smoke_config``).
    """

    num_peers: int = 400
    num_documents: int = 300
    num_ingest_peers: int = 6
    vocabulary_size: int = 250
    words_per_document: int = 100
    initial_terms: int = 10
    num_queries: int = 200
    distinct_queries: int = 80
    max_query_terms: int = 3
    num_eval_queries: int = 60
    #: Documents withdrawn + re-shared between checkpoint and crash in
    #: the recovery scenario — the delta the snapshot path ships.
    churn_slice: int = 40
    zipf_exponent: float = 0.8
    seed: int = 6111
    backend: str = "sqlite"
    bloom: bool = True
    #: Empty = a self-cleaning temporary directory (the benches pass a
    #: pytest tmp dir so nothing lands in the repo).
    store_dir: str = ""
    snapshot_dir: str = ""

    def replaced(self, **kwargs) -> "StoreWorkloadConfig":
        merged = {**asdict(self), **kwargs}
        return StoreWorkloadConfig(**merged)


def store_paper_config() -> StoreWorkloadConfig:
    """The 400-peer / 300-document workload the issue tracks."""
    return StoreWorkloadConfig()


def store_smoke_config() -> StoreWorkloadConfig:
    """A seconds-scale shrink of the same scenario for CI."""
    return StoreWorkloadConfig(
        num_peers=60,
        num_documents=50,
        num_ingest_peers=3,
        vocabulary_size=120,
        words_per_document=50,
        initial_terms=8,
        num_queries=60,
        distinct_queries=30,
        num_eval_queries=20,
        churn_slice=10,
    )


@dataclass
class StoreWorkloadResult:
    """Measured outcome of one workload run (JSON-friendly)."""

    backend: str
    bloom: bool
    num_peers: int
    num_documents: int
    build_s: float
    learn_s: float
    query_s: float
    snapshot_s: float
    total_s: float
    docs_per_s_build: float
    queries_per_s: float
    #: Peers checkpointed / bytes written by the snapshot pass (0 for
    #: the in-RAM backend, which has nothing durable to checkpoint).
    snapshot_peers: int
    snapshot_bytes: int
    store: Dict[str, object]
    ranking_checksum: str
    profile: Dict[str, Dict[str, object]]

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class RecoveryRunResult:
    """Measured outcome of one crash-recovery run (JSON-friendly)."""

    mode: str
    victim: int
    victim_slots: int
    recovery_s: float
    report: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class StoreComparison:
    """The tracked three-arm backend + two-mode recovery comparison."""

    memory: StoreWorkloadResult
    sqlite: StoreWorkloadResult
    sqlite_bloom: StoreWorkloadResult
    recovery_snapshot: RecoveryRunResult
    recovery_full: RecoveryRunResult
    #: In-RAM build docs/s over the (Bloom-fronted) SQLite arm — the
    #: honest cost of durability, expected > 1.
    sqlite_build_cost: float
    #: Bloom-fronted over plain SQLite build docs/s — what skipping the
    #: point-read existence checks buys.
    bloom_build_gain: float
    #: Full-resync recovery messages over snapshot-mode messages — the
    #: acceptance criterion (snapshot recovery must be measurably
    #: cheaper, so this must be > 1).
    recovery_message_ratio: float
    #: Same ratio in shipped postings.
    recovery_posting_ratio: float
    checksums_match: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def run_store_workload(cfg: StoreWorkloadConfig) -> StoreWorkloadResult:
    """Execute the ingest + query scenario once and measure it.

    Deterministic for a given config: same seed → same ring, corpus,
    query stream, and (whatever the backend) the same ranking checksum.
    """
    prior_enabled = PROFILE.enabled
    PROFILE.reset()
    PROFILE.enable()
    try:
        return _run(cfg)
    finally:
        if not prior_enabled:
            PROFILE.disable()


def _build_runtime(cfg: StoreWorkloadConfig) -> Optional[StoreRuntime]:
    if cfg.backend == "memory":
        return None
    return StoreRuntime(
        store_dir=cfg.store_dir,
        bloom=cfg.bloom,
        snapshot_dir=cfg.snapshot_dir,
    )


def _synth_corpus(cfg: StoreWorkloadConfig, rng: random.Random) -> List[Document]:
    vocab = [f"voc{i:03d}" for i in range(cfg.vocabulary_size)]
    weights = zipf_weights(cfg.vocabulary_size, cfg.zipf_exponent)
    docs = [
        Document(
            f"doc{d:05d}",
            _synth_text(rng, vocab, weights, cfg.words_per_document),
        )
        for d in range(cfg.num_documents)
    ]
    analyzer = Analyzer()
    for doc in docs:
        doc.analyze(analyzer)
    return docs


def _query_pool(cfg: StoreWorkloadConfig, rng: random.Random) -> List[Query]:
    vocab = [f"voc{i:03d}" for i in range(cfg.vocabulary_size)]
    weights = zipf_weights(cfg.vocabulary_size, cfg.zipf_exponent)
    return [
        Query(
            query_id=f"stq{q:04d}",
            terms=tuple(
                dict.fromkeys(
                    rng.choices(
                        vocab, weights=weights, k=rng.randint(1, cfg.max_query_terms)
                    )
                )
            ),
        )
        for q in range(cfg.distinct_queries)
    ]


def _build_deployment(cfg: StoreWorkloadConfig, runtime: Optional[StoreRuntime]):
    """Ring + protocol + ingest owners + pre-analyzed corpus + queries,
    all from ``cfg.seed`` — shared by both scenarios so the recovery
    comparison crashes exactly the state the throughput arms measured."""
    rng = random.Random(cfg.seed)
    docs = _synth_corpus(cfg, rng)
    ring = ChordRing(
        ChordConfig(num_peers=cfg.num_peers, seed=cfg.seed, route_cache_size=65536)
    )
    sprite = SpriteConfig(
        initial_terms=cfg.initial_terms,
        terms_per_iteration=4,
        learning_iterations=1,
        max_index_terms=cfg.initial_terms + 4,
        query_cache_size=500,
        assumed_corpus_size=cfg.num_documents,
    )
    protocol = IndexingProtocol(ring, query_cache_size=500, store_runtime=runtime)
    owner_ids = rng.sample(ring.live_ids, cfg.num_ingest_peers)
    owners = [OwnerPeer(node_id, protocol, sprite) for node_id in owner_ids]
    slice_of: Dict[int, List[Document]] = {i: [] for i in range(len(owners))}
    for d, doc in enumerate(docs):
        slice_of[d % len(owners)].append(doc)
    pool = _query_pool(cfg, rng)
    issuers = rng.sample(ring.live_ids, 16)
    return rng, docs, ring, protocol, owners, owner_ids, slice_of, pool, issuers


def _run(cfg: StoreWorkloadConfig) -> StoreWorkloadResult:
    runtime = _build_runtime(cfg)
    try:
        (
            rng,
            docs,
            ring,
            protocol,
            owners,
            owner_ids,
            slice_of,
            pool,
            issuers,
        ) = _build_deployment(cfg, runtime)

        # -- phase 1: bulk corpus build ---------------------------------
        t0 = perf_counter()
        for i, owner in enumerate(owners):
            owner.share_bulk(slice_of[i])
        build_s = perf_counter() - t0

        # -- phase 2: training stream + one learning iteration ----------
        pool_weights = zipf_weights(cfg.distinct_queries, cfg.zipf_exponent)
        t0 = perf_counter()
        for q in range(cfg.num_queries):
            query = pool[
                rng.choices(range(cfg.distinct_queries), weights=pool_weights)[0]
            ]
            protocol.register_query(issuers[q % len(issuers)], query.terms)
        for owner in owners:
            owner.learn_all()
        learn_s = perf_counter() - t0

        # -- phase 3: evaluation queries + ranking checksum -------------
        processor = QueryProcessor(
            protocol, assumed_corpus_size=cfg.num_documents
        )
        checksum = sha256()
        t0 = perf_counter()
        for q in range(cfg.num_eval_queries):
            query = pool[q % len(pool)]
            ranked = processor.search(
                issuers[q % len(issuers)], query, top_k=20, cache=False
            )
            checksum.update(query.query_id.encode())
            for entry in ranked:
                checksum.update(f"{entry.doc_id}:{entry.score!r}".encode())
        query_s = perf_counter() - t0

        # -- phase 4: checkpoint every slot-holding peer ----------------
        snapshot_s = 0.0
        snapshot_peers = 0
        snapshot_bytes = 0
        if runtime is not None:
            t0 = perf_counter()
            for node_id in ring.live_ids:
                manifest = runtime.snapshots.save_peer(ring.node(node_id))
                if manifest is not None:
                    snapshot_peers += 1
            snapshot_s = perf_counter() - t0
            snapshot_bytes = sum(
                path.stat().st_size
                for path in runtime.snapshots.root.rglob("*.json")
            )

        total_s = build_s + learn_s + query_s + snapshot_s
        return StoreWorkloadResult(
            backend=cfg.backend,
            bloom=cfg.bloom and cfg.backend == "sqlite",
            num_peers=cfg.num_peers,
            num_documents=cfg.num_documents,
            build_s=round(build_s, 4),
            learn_s=round(learn_s, 4),
            query_s=round(query_s, 4),
            snapshot_s=round(snapshot_s, 4),
            total_s=round(total_s, 4),
            docs_per_s_build=(
                round(cfg.num_documents / build_s, 2) if build_s else 0.0
            ),
            queries_per_s=(
                round(cfg.num_eval_queries / query_s, 2) if query_s else 0.0
            ),
            snapshot_peers=snapshot_peers,
            snapshot_bytes=snapshot_bytes,
            store=runtime.stats() if runtime is not None else {},
            ranking_checksum=checksum.hexdigest(),
            profile=PROFILE.summary(),
        )
    finally:
        if runtime is not None:
            runtime.close()


def run_recovery_workload(
    cfg: StoreWorkloadConfig, use_snapshot: bool = True
) -> RecoveryRunResult:
    """Crash the slot-richest indexing peer and rejoin it.

    Sequence: build → replicate → checkpoint everyone → churn delta →
    replicate again (so the promoted copies carry post-checkpoint writes
    while the checkpoint stays stale) → crash → stabilize + promote →
    recover.  Deterministic for a given config, so the two modes crash
    byte-identical state and their reports are directly comparable.
    """
    runtime = _build_runtime(cfg)
    try:
        (
            rng,
            docs,
            ring,
            protocol,
            owners,
            owner_ids,
            slice_of,
            pool,
            issuers,
        ) = _build_deployment(cfg, runtime)
        for i, owner in enumerate(owners):
            owner.share_bulk(slice_of[i])
        replication = ReplicationManager(ring)
        replication.replicate_round()

        if runtime is not None:
            runtime.flush_retired()
            for node_id in ring.live_ids:
                runtime.snapshots.save_peer(ring.node(node_id))

        # The post-checkpoint delta: withdraw one corpus slice for good
        # and share a batch of fresh documents (withdraw + re-share of
        # identical content would be invisible to content checksums —
        # the delta must actually change posting sets).
        batch = docs[: cfg.churn_slice]
        for owner in owners:
            mine = [d.doc_id for d in batch if d.doc_id in owner.shared]
            if mine:
                owner.unshare_bulk(mine)
        vocab = [f"voc{i:03d}" for i in range(cfg.vocabulary_size)]
        weights = zipf_weights(cfg.vocabulary_size, cfg.zipf_exponent)
        analyzer = Analyzer()
        fresh = [
            Document(
                f"new{d:05d}",
                _synth_text(rng, vocab, weights, cfg.words_per_document),
            )
            for d in range(cfg.churn_slice)
        ]
        for d, doc in enumerate(fresh):
            doc.analyze(analyzer)
            owners[d % len(owners)].share(doc)
        replication.replicate_round()

        victim, victim_slots = _pick_victim(ring, set(owner_ids))
        ring.fail(victim)
        replication.recover_from_failures()

        recovery = RecoveryManager(ring, runtime)
        t0 = perf_counter()
        report = recovery.recover_peer(victim, use_snapshot=use_snapshot)
        recovery_s = perf_counter() - t0
        return RecoveryRunResult(
            mode=report.mode,
            victim=victim,
            victim_slots=victim_slots,
            recovery_s=round(recovery_s, 4),
            report=report.to_dict(),
        )
    finally:
        if runtime is not None:
            runtime.close()


def _pick_victim(ring: ChordRing, excluded: set) -> tuple:
    """The live non-ingest peer hosting the most postings (ties break
    to the smallest id) — deterministic, and data-rich enough that the
    recovery traffic difference is measurable.  (Weighting by slot
    *count* instead picks rare-term peers with near-empty slots on
    sparse rings, where the digest round would swamp the savings.)"""
    best_id, best_slots, best_postings = None, 0, -1
    for node_id in ring.live_ids:
        if node_id in excluded:
            continue
        slots = [
            slot
            for slot in ring.node(node_id).store.values()
            if isinstance(slot, TermSlot)
        ]
        postings = sum(slot.indexed_document_frequency for slot in slots)
        if postings > best_postings:
            best_id, best_slots, best_postings = node_id, len(slots), postings
    return best_id, best_slots


def run_store_comparison(cfg: StoreWorkloadConfig) -> StoreComparison:
    """Run the scenario once per backend arm plus both recovery modes.

    All arms consume the same seeded workload, so their ranking
    checksums must agree bit for bit — the store is a persistence
    layer, never a scoring change.
    """
    memory = run_store_workload(cfg.replaced(backend="memory"))
    sqlite = run_store_workload(cfg.replaced(backend="sqlite", bloom=False))
    sqlite_bloom = run_store_workload(cfg.replaced(backend="sqlite", bloom=True))
    recovery_snapshot = run_recovery_workload(
        cfg.replaced(backend="sqlite", bloom=True), use_snapshot=True
    )
    recovery_full = run_recovery_workload(
        cfg.replaced(backend="sqlite", bloom=True), use_snapshot=False
    )
    return StoreComparison(
        memory=memory,
        sqlite=sqlite,
        sqlite_bloom=sqlite_bloom,
        recovery_snapshot=recovery_snapshot,
        recovery_full=recovery_full,
        sqlite_build_cost=ratio(
            memory.docs_per_s_build, sqlite_bloom.docs_per_s_build
        ),
        bloom_build_gain=ratio(
            sqlite_bloom.docs_per_s_build, sqlite.docs_per_s_build
        ),
        recovery_message_ratio=ratio(
            recovery_full.report["messages_sent"],
            recovery_snapshot.report["messages_sent"],
        ),
        recovery_posting_ratio=ratio(
            recovery_full.report["postings_shipped"],
            recovery_snapshot.report["postings_shipped"],
        ),
        checksums_match=(
            memory.ranking_checksum
            == sqlite.ranking_checksum
            == sqlite_bloom.ranking_checksum
        ),
    )
