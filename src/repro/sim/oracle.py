"""The differential oracle: SPRITE checked against simpler truths.

Seven comparisons, all on a churn-free ring:

* **Perf-path equivalence** — the PR-2 optimizations (route caching,
  incremental repair, the production query path's batched fetch and
  flat-dict scoring) are pure performance work, so rankings must be
  *bit-identical* to the direct path: no route cache, full-rebuild
  stabilization, and every test query run through the per-term
  reference :func:`repro.reference.reference_execute`.  The oracle
  replays the same seeded end-to-end flow through both systems and
  compares every ranking exactly — score bits included, because the
  production scoring loop intentionally performs the same
  floating-point operations in the same order.

* **Top-k path equivalence** — the ISSUE 4 retrieval rebuild (columnar
  slots, exact max-score early termination, query-result caching) must
  be invisible in results: rankings bit-identical to the exhaustive
  batched path, and — with the result cache disabled — the *per-kind
  network traffic* identical too, message for message, byte for byte
  (early termination changes local scoring work only, never the wire).
  The cached system is additionally queried twice per test query so the
  second round is served from the result caches, which must still be
  bit-identical.

* **Ingest-path equivalence** — the batched write path
  (destination-grouped bulk publish/unpublish, coalesced learning
  polls) must leave the *entire write-visible state* of the system
  bit-identical to the per-term reference owner
  :class:`repro.reference.PerTermOwner`: every slot's postings,
  aggregates, and query-cache cursor position, the global order in
  which slot versions were assigned, and every owner's index terms,
  poll cursors, and learner statistics.  The oracle replays a full
  bulk-ingest flow — bulk share, training registration, learning,
  then a withdraw/re-share churn cycle — through a
  :class:`~repro.core.system.SpriteSystem` and a
  :class:`~repro.reference.PerTermSpriteSystem` in lockstep and
  compares :func:`write_state_fingerprint` after every phase plus
  every test-query ranking exactly.

* **Store-path equivalence** — the ISSUE 6 durable store
  (:mod:`repro.store`) is an off-switchable persistence backend, so a
  sqlite-backed system must be *bit-identical* to the in-RAM default
  across the same bulk-ingest flow: the full write-state fingerprint
  (postings, aggregates, version rank order, owner state) after every
  phase and every test-query ranking, score bits included.  SQLite stores only the
  integer posting columns; every float is recomputed through the same
  expressions the columnar store uses, so there is no tolerance to
  hide behind.

* **Concurrent-runtime equivalence** — the DESIGN.md §15 event-driven
  runtime is a *timing* model layered over unchanged semantics, so the
  same query sequence submitted through
  :class:`~repro.perf.concurrency.ConcurrentRuntime` at concurrency 1
  (one client, ops dispatched strictly in submission order) must leave
  the system bit-identical to plain call-stack execution: every ranking
  exact, score bits included, and the full
  :func:`write_state_fingerprint` of the quiescent system equal —
  query-cache registrations and all other mutations happen in the same
  order, because at concurrency 1 dispatch order *is* submission order.

* **Ring-path equivalence** — the DESIGN.md §16 ReCord recursive ring
  changes *where lookup messages travel, never what is returned*: key
  ownership is the successor relation over the same seeded membership,
  regardless of finger schedule.  The oracle replays the full seeded
  flow through a ``ring="record"`` (b = 8) and a ``ring="chord"``
  system; every test-query ranking and the full
  :func:`write_state_fingerprint` must match bit for bit.

* **Centralized baseline** — with learning taken out of the picture by
  indexing *every* term (F = ∞) and the assumed corpus size pinned to
  the true corpus size, SPRITE's distributed computation degenerates to
  exactly the centralized TF-IDF of :mod:`repro.ir` (Lee et al. second
  method).  Document order must match exactly; scores are compared with
  ``math.isclose`` since the two implementations accumulate partial
  sums in different orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ChordConfig, SpriteConfig
from ..corpus.corpus import Corpus
from ..corpus.relevance import Query
from ..core.metadata import TermSlot
from ..core.system import DistributedSystem, SpriteSystem
from ..ir.centralized import CentralizedSystem
from ..ir.ranking import RankedList
from ..reference import PerTermSpriteSystem, reference_execute


def write_state_fingerprint(system: DistributedSystem) -> Dict[str, object]:
    """Everything the write path can influence, as a comparable value.

    Three parts:

    ``slots``
        Per (indexing peer, term): the postings in publish order, the
        slot aggregates (indexed df, max-impact bound), and the query
        cache's latest sequence number.
    ``version_rank``
        The slot keys sorted by slot version.  Versions come from one
        process-global counter, so their *absolute* values differ
        between two separately built systems — but the batched path
        applies mutations in exactly the per-term reference's order, so
        the *rank order* of final slot versions must coincide.
    ``owners``
        Per (owner peer, shared document): index terms in selection
        order, poll cursors, iterations run, the learner's raw
        statistics, and its current rank list.
    """
    slots: Dict[Tuple[int, str], object] = {}
    versions: List[Tuple[int, Tuple[int, str]]] = []
    for node in system.ring.nodes.values():
        for value in node.store.values():
            if not isinstance(value, TermSlot):
                continue
            key = (node.node_id, value.term)
            slots[key] = (
                tuple(value.entries()),
                value.indexed_document_frequency,
                value.max_impact,
                value.cache.latest_sequence,
            )
            versions.append((value.version, key))
    versions.sort()
    owners: Dict[Tuple[int, str], object] = {}
    for node_id, owner in system.owners.items():
        for doc_id, state in owner.shared.items():
            owners[(node_id, doc_id)] = (
                tuple(state.index_terms),
                tuple(sorted(state.poll_cursors.items())),
                state.learning_iterations_run,
                tuple(
                    sorted(
                        (term, (s.max_qscore, s.query_frequency))
                        for term, s in state.learner.stats.items()
                    )
                ),
                tuple((rt.term, rt.score) for rt in state.learner.rank_list()),
            )
    return {
        "slots": slots,
        "version_rank": tuple(key for __, key in versions),
        "owners": owners,
    }


@dataclass(frozen=True)
class RankingMismatch:
    """One query whose rankings diverged between the two sides."""

    query_id: str
    detail: str


@dataclass
class OracleReport:
    """Outcome of one differential comparison."""

    name: str
    queries_compared: int = 0
    mismatches: List[RankingMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "consistent" if self.ok else f"{len(self.mismatches)} mismatches"
        return f"oracle[{self.name}]: {self.queries_compared} queries, {verdict}"


class FullIndexSystem(DistributedSystem):
    """SPRITE with F = ∞: every document publishes *all* its terms.

    With a full index and the assumed corpus size pinned to the real
    one, the indexed document frequency n'_k equals the true document
    frequency n_k, so the distributed ranking must coincide with
    centralized TF-IDF — the oracle's reference degeneration.
    """

    def _first_terms(self, doc_id: str) -> Optional[List[str]]:
        return sorted(self.corpus.get(doc_id).term_freqs)


def _pairs(ranked: RankedList) -> List[Tuple[str, float]]:
    return [(entry.doc_id, entry.score) for entry in ranked]


class DifferentialOracle:
    """Runs the two comparisons over a corpus + query workload."""

    def __init__(
        self,
        corpus: Corpus,
        train: Sequence[Query],
        test: Sequence[Query],
        num_peers: int = 24,
        seed: int = 0,
        top_k: int = 10,
    ) -> None:
        self.corpus = corpus
        self.train = list(train)
        self.test = list(test)
        self.num_peers = num_peers
        self.seed = seed
        self.top_k = top_k

    # -- construction helpers ---------------------------------------------

    def _chord_config(self, optimized: bool) -> ChordConfig:
        return ChordConfig(
            num_peers=self.num_peers,
            id_bits=32,
            successor_list_size=4,
            seed=self.seed + 7,
            route_cache_size=65536 if optimized else 0,
            incremental_repair=optimized,
        )

    def _sprite_config(
        self,
        early_termination: bool = True,
        result_cache_size: int = 0,
        store_backend: str = "memory",
    ) -> SpriteConfig:
        return SpriteConfig(
            initial_terms=3,
            terms_per_iteration=3,
            learning_iterations=2,
            max_index_terms=9,
            query_cache_size=200,
            assumed_corpus_size=1000,
            top_k_answers=self.top_k,
            early_termination=early_termination,
            result_cache_size=result_cache_size,
            store_backend=store_backend,
        )

    def _build_sprite(self, optimized: bool) -> SpriteSystem:
        return SpriteSystem(
            self.corpus,
            sprite_config=self._sprite_config(),
            chord_config=self._chord_config(optimized),
        )

    # -- comparison 1: optimized vs direct execution paths -----------------

    def check_perf_paths(self) -> OracleReport:
        """Replay the full seeded flow (share → register training →
        learn → query) through the optimized and the direct system; the
        direct system answers through :func:`reference_execute`.  Every
        test-query ranking must match bit for bit."""
        report = OracleReport(name="perf-paths")
        optimized = self._build_sprite(optimized=True)
        direct = self._build_sprite(optimized=False)
        for system in (optimized, direct):
            system.share_corpus()
            system.register_queries(self.train)
            system.run_learning()
        for query in self.test:
            # cache=False: comparing execution, not mutating cache state.
            fast = _pairs(optimized.search(query, cache=False))
            ranked, __ = reference_execute(
                direct.protocol,
                direct._issuer_for(query),
                query,
                direct.config.assumed_corpus_size,
                top_k=direct.config.top_k_answers,
                cache=False,
            )
            slow = _pairs(ranked)
            report.queries_compared += 1
            if fast != slow:
                report.mismatches.append(
                    RankingMismatch(
                        query_id=query.query_id,
                        detail=f"optimized={fast[:3]}... direct={slow[:3]}...",
                    )
                )
        return report

    # -- comparison 2: top-k path vs exhaustive path -------------------------

    def check_topk_paths(self) -> OracleReport:
        """Replay the seeded flow through three optimized systems that
        differ only in the ISSUE 4 switches: exhaustive scoring, exact
        early termination, and early termination + result caching.

        Rankings must match bit for bit in every round — including the
        second query round, which the cached system answers from its
        result caches.  With the result cache disabled, early
        termination must also leave the per-kind network traffic
        (messages, bytes, hops) untouched: it changes local scoring
        work only, never the wire.
        """
        report = OracleReport(name="topk-paths")
        exhaustive = self._build_topk_sprite(
            early_termination=False, result_cache_size=0
        )
        pruned = self._build_topk_sprite(
            early_termination=True, result_cache_size=0
        )
        cached = self._build_topk_sprite(
            early_termination=True, result_cache_size=128
        )
        for system in (exhaustive, pruned, cached):
            system.share_corpus()
            system.register_queries(self.train)
            system.run_learning()
        exhaustive_base = exhaustive.ring.stats.snapshot()
        pruned_base = pruned.ring.stats.snapshot()
        for round_no in range(2):
            for query in self.test:
                baseline = _pairs(exhaustive.search(query, cache=False))
                early = _pairs(pruned.search(query, cache=False))
                served = _pairs(cached.search(query, cache=False))
                report.queries_compared += 1
                if early != baseline:
                    report.mismatches.append(
                        RankingMismatch(
                            query_id=query.query_id,
                            detail=(
                                f"round {round_no}: early-termination="
                                f"{early[:3]}... exhaustive={baseline[:3]}..."
                            ),
                        )
                    )
                if served != baseline:
                    report.mismatches.append(
                        RankingMismatch(
                            query_id=query.query_id,
                            detail=(
                                f"round {round_no}: result-cached="
                                f"{served[:3]}... exhaustive={baseline[:3]}..."
                            ),
                        )
                    )
        exhaustive_delta = _kind_counts(
            exhaustive.ring.stats.delta_since(exhaustive_base)
        )
        pruned_delta = _kind_counts(pruned.ring.stats.delta_since(pruned_base))
        if exhaustive_delta != pruned_delta:
            diff_kinds = sorted(
                k
                for k in set(exhaustive_delta) | set(pruned_delta)
                if exhaustive_delta.get(k) != pruned_delta.get(k)
            )
            report.mismatches.append(
                RankingMismatch(
                    query_id="<network>",
                    detail=(
                        "per-kind traffic diverged with the result cache "
                        f"disabled: {', '.join(diff_kinds)}"
                    ),
                )
            )
        return report

    def _build_topk_sprite(
        self, early_termination: bool, result_cache_size: int
    ) -> SpriteSystem:
        return SpriteSystem(
            self.corpus,
            sprite_config=self._sprite_config(
                early_termination=early_termination,
                result_cache_size=result_cache_size,
            ),
            chord_config=self._chord_config(optimized=True),
        )

    # -- comparison 3: batched vs per-term write path ------------------------

    def check_ingest_paths(self) -> OracleReport:
        """Replay a bulk-ingest flow — bulk share, training
        registration, learning, then withdrawing and re-sharing a fifth
        of the corpus — through the production system and one whose
        owners are the per-term reference
        (:class:`~repro.reference.PerTermOwner`); the full write-state
        fingerprint after every phase and every test-query ranking
        must match exactly."""
        report = OracleReport(name="ingest-paths")
        self._compare_ingest_flow(
            report,
            ("batched", self._build_ingest_sprite(per_term=False)),
            ("per-term", self._build_ingest_sprite(per_term=True)),
            between="the batched and per-term publication paths",
        )
        return report

    def _compare_ingest_flow(
        self,
        report: OracleReport,
        first: Tuple[str, SpriteSystem],
        second: Tuple[str, SpriteSystem],
        between: str,
    ) -> None:
        """Drive two systems through the bulk-ingest flow in lockstep.

        After each phase the :func:`write_state_fingerprint` of the two
        must agree — checking only the end state would let a later
        phase overwrite an earlier divergence (the churn phase re-bumps
        most slot versions) — and afterwards every test query must
        rank identically."""
        (first_label, a), (second_label, b) = first, second
        docs = list(self.corpus)
        churn_ids = [
            d.doc_id for d in docs[: max(1, math.ceil(len(docs) / 5))]
        ]

        def learn(system: SpriteSystem) -> None:
            system.register_queries(self.train)
            system.run_learning()

        def churn(system: SpriteSystem) -> None:
            system.bulk_unshare(churn_ids)
            system.bulk_share([system.corpus.get(doc_id) for doc_id in churn_ids])

        phases = (
            ("bulk share", lambda system: system.bulk_share()),
            ("learning", learn),
            ("churn", churn),
        )
        for phase, step in phases:
            step(a)
            step(b)
            left = write_state_fingerprint(a)
            right = write_state_fingerprint(b)
            for part in ("slots", "version_rank", "owners"):
                if left[part] != right[part]:
                    report.mismatches.append(
                        RankingMismatch(
                            query_id="<state>",
                            detail=(
                                f"write-state {part} diverged after {phase} "
                                f"between {between}"
                            ),
                        )
                    )
        for query in self.test:
            left_pairs = _pairs(a.search(query, cache=False))
            right_pairs = _pairs(b.search(query, cache=False))
            report.queries_compared += 1
            if left_pairs != right_pairs:
                report.mismatches.append(
                    RankingMismatch(
                        query_id=query.query_id,
                        detail=(
                            f"{first_label}={left_pairs[:3]}... "
                            f"{second_label}={right_pairs[:3]}..."
                        ),
                    )
                )

    def _build_ingest_sprite(self, per_term: bool) -> SpriteSystem:
        system_type = PerTermSpriteSystem if per_term else SpriteSystem
        return system_type(
            self.corpus,
            sprite_config=self._sprite_config(),
            chord_config=self._chord_config(optimized=True),
        )

    # -- comparison 3b: sqlite store vs in-RAM store -------------------------

    def check_store_paths(self) -> OracleReport:
        """Replay the bulk-ingest flow (bulk share, training
        registration, learning, withdraw/re-share churn) through a
        sqlite-backed and an in-RAM system; the full write-state
        fingerprint after every phase and every test-query ranking
        must match exactly.  The sqlite system uses an anonymous
        temporary store directory, closed once the comparison is done."""
        report = OracleReport(name="store-paths")
        durable = self._build_store_sprite(store_backend="sqlite")
        self._compare_ingest_flow(
            report,
            ("sqlite", durable),
            ("memory", self._build_store_sprite(store_backend="memory")),
            between="the sqlite and in-RAM store backends",
        )
        if durable.store_runtime is not None:
            durable.store_runtime.close()
        return report

    def _build_store_sprite(self, store_backend: str) -> SpriteSystem:
        return SpriteSystem(
            self.corpus,
            sprite_config=self._sprite_config(store_backend=store_backend),
            chord_config=self._chord_config(optimized=True),
        )

    # -- comparison 3c: event-driven runtime vs call-stack execution ---------

    def check_concurrent_runtime(self) -> OracleReport:
        """Submit the test queries through the event-driven runtime at
        concurrency 1 and through the plain call-stack path, on two
        identically built systems; every ranking and the quiescent
        write-state fingerprint must match exactly.

        Queries run with ``cache=True`` deliberately: each one mutates
        query-cache state, so the fingerprint comparison proves the
        runtime preserved the *order* of mutations, not just the
        results."""
        from ..net.sched import Scheduler
        from ..perf.concurrency import ConcurrentRuntime

        report = OracleReport(name="concurrent-runtime")
        sequential = self._build_sprite(optimized=True)
        concurrent = self._build_sprite(optimized=True)
        for system in (sequential, concurrent):
            system.share_corpus()
            system.register_queries(self.train)
            system.run_learning()

        baseline = [
            _pairs(sequential.search(query, cache=True)) for query in self.test
        ]
        runtime = ConcurrentRuntime(
            concurrent, Scheduler(service_time_ms=0.25, seed=self.seed)
        )
        for query in self.test:
            runtime.submit(query, cache=True)
        completed = runtime.run()

        for query, reference, (_q, result) in zip(self.test, baseline, completed):
            replayed = _pairs(result[0])
            report.queries_compared += 1
            if replayed != reference:
                report.mismatches.append(
                    RankingMismatch(
                        query_id=query.query_id,
                        detail=(
                            f"event-driven={replayed[:3]}... "
                            f"call-stack={reference[:3]}..."
                        ),
                    )
                )
        direct_state = write_state_fingerprint(sequential)
        replay_state = write_state_fingerprint(concurrent)
        for part in ("slots", "version_rank", "owners"):
            if direct_state[part] != replay_state[part]:
                report.mismatches.append(
                    RankingMismatch(
                        query_id="<state>",
                        detail=(
                            f"quiescent write-state {part} diverged between "
                            "the event-driven and call-stack executions"
                        ),
                    )
                )
        return report

    # -- comparison 3d: ReCord recursive ring vs Chord ring ------------------

    def check_ring_paths(self) -> OracleReport:
        """Replay the full seeded flow through a ReCord (b = 8) and a
        Chord system; every test-query ranking and the full write-state
        fingerprint must match exactly.  Routing selects message paths,
        not results: both rings hold the same seeded membership, and
        ownership is the successor relation — independent of how many
        hops a lookup took to find it."""
        report = OracleReport(name="ring-paths")
        recursive = self._build_ring_sprite(ring="record", ring_arity=8)
        chord = self._build_ring_sprite(ring="chord", ring_arity=2)
        for system in (recursive, chord):
            system.share_corpus()
            system.register_queries(self.train)
            system.run_learning()
        record_state = write_state_fingerprint(recursive)
        chord_state = write_state_fingerprint(chord)
        for part in ("slots", "version_rank", "owners"):
            if record_state[part] != chord_state[part]:
                report.mismatches.append(
                    RankingMismatch(
                        query_id="<state>",
                        detail=(
                            f"write-state {part} diverged between the "
                            "record and chord rings"
                        ),
                    )
                )
        for query in self.test:
            wide = _pairs(recursive.search(query, cache=False))
            narrow = _pairs(chord.search(query, cache=False))
            report.queries_compared += 1
            if wide != narrow:
                report.mismatches.append(
                    RankingMismatch(
                        query_id=query.query_id,
                        detail=f"record={wide[:3]}... chord={narrow[:3]}...",
                    )
                )
        return report

    def _build_ring_sprite(self, ring: str, ring_arity: int) -> SpriteSystem:
        from dataclasses import replace

        return SpriteSystem(
            self.corpus,
            sprite_config=replace(
                self._sprite_config(), ring=ring, ring_arity=ring_arity
            ),
            chord_config=self._chord_config(optimized=True),
        )

    # -- comparison 4: full-index SPRITE vs centralized TF-IDF ---------------

    def check_centralized_baseline(self) -> OracleReport:
        """At F = ∞ with the assumed corpus size pinned to the true
        size, distributed rankings must agree with centralized TF-IDF:
        identical document order, scores equal to float tolerance."""
        report = OracleReport(name="centralized-baseline")
        full = FullIndexSystem(
            self.corpus,
            sprite_config=SpriteConfig(
                initial_terms=1,  # unused: _first_terms overrides selection
                max_index_terms=10**6,
                query_cache_size=200,
                assumed_corpus_size=len(self.corpus),
                top_k_answers=self.top_k,
            ),
            chord_config=self._chord_config(optimized=True),
        )
        full.share_corpus()
        centralized = CentralizedSystem(self.corpus, normalization="lee")
        for query in self.test:
            distributed = _pairs(full.search(query, cache=False))
            reference = _pairs(centralized.search(query, top_k=self.top_k))
            report.queries_compared += 1
            if [d for d, __ in distributed] != [d for d, __ in reference]:
                report.mismatches.append(
                    RankingMismatch(
                        query_id=query.query_id,
                        detail=(
                            f"doc order differs: distributed="
                            f"{[d for d, __ in distributed][:5]} "
                            f"centralized={[d for d, __ in reference][:5]}"
                        ),
                    )
                )
                continue
            for (doc_id, d_score), (__, c_score) in zip(distributed, reference):
                if not math.isclose(d_score, c_score, rel_tol=1e-9, abs_tol=1e-12):
                    report.mismatches.append(
                        RankingMismatch(
                            query_id=query.query_id,
                            detail=(
                                f"score differs for {doc_id!r}: "
                                f"{d_score!r} vs {c_score!r}"
                            ),
                        )
                    )
                    break
        return report

    def check_all(self) -> Dict[str, OracleReport]:
        """All comparisons, keyed by oracle name."""
        reports = [
            self.check_perf_paths(),
            self.check_topk_paths(),
            self.check_ingest_paths(),
            self.check_store_paths(),
            self.check_concurrent_runtime(),
            self.check_ring_paths(),
            self.check_centralized_baseline(),
        ]
        return {r.name: r for r in reports}


def _kind_counts(
    delta: Dict[object, object],
) -> Dict[str, Tuple[int, int, int]]:
    """Per-kind (messages, bytes, hops) with all-zero kinds dropped."""
    return {
        getattr(kind, "name", str(kind)): (s.messages, s.bytes, s.hops)
        for kind, s in delta.items()
        if s.messages or s.bytes or s.hops
    }
