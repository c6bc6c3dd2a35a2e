"""The differential oracle: SPRITE checked against simpler truths.

Two kinds of comparison, plus one degeneration, all run by one
lockstep driver: the same phases on every system — share half the
corpus one document at a time, bulk-share the rest, join one peer,
have it leave, learning, withdraw and re-share a fifth of the corpus —
with the :func:`write_state_fingerprint` compared after every phase,
then two rounds of test queries (``cache=True``, then ``cache=False``)
compared ranking by ranking, score bits included, and the fingerprint
compared after each round.

* **Reference** (:meth:`DifferentialOracle.check_reference`) —
  production equals the reference models of :mod:`repro.reference`.
  The reference system has a full-rebuild ring
  (:class:`~repro.reference.FullRebuildChordRing`) with no route cache,
  per-term owners (:class:`~repro.reference.PerTermOwner`) and answers
  from :func:`~repro.reference.reference_execute`.  Every live node's
  routing state must match after every phase, so a join fault that the
  leave undoes still shows.  On the production system, every test query
  is also run through :class:`~repro.reference.ExhaustiveQueryProcessor`:
  the ranking and the per-kind traffic (messages, bytes, hops) must
  equal production's, since early termination changes local scoring
  work only, never the wire.

* **Invariance** (:meth:`DifferentialOracle.check_invariance`) —
  results do not depend on the axes that really are configurable.
  Production runs beside four arms that each change one axis: the
  sqlite posting store (DESIGN.md §12), the ReCord ring with b = 8
  (DESIGN.md §16; ownership is the successor relation whatever the
  finger schedule), a query-result cache of 128 entries (which must
  answer every second-round query from its cache), and the
  event-driven runtime (DESIGN.md §15) at concurrency 1, where
  dispatch order is submission order.

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
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ChordConfig, SpriteConfig
from ..corpus.corpus import Corpus
from ..corpus.relevance import Query
from ..core.metadata import TermSlot
from ..core.system import DistributedSystem, SpriteSystem
from ..ir.centralized import CentralizedSystem
from ..ir.ranking import RankedList
from ..reference import (
    ExhaustiveQueryProcessor,
    FullRebuildChordRing,
    PerTermSpriteSystem,
    reference_execute,
)


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
    """One divergence: a query's ranking, or (``query_id`` in angle
    brackets) the state, routing or traffic its detail names."""

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


#: Ranked answers of one query round, one list per test query.
Rankings = List[List[Tuple[str, float]]]


@dataclass
class _Arm:
    """One system the lockstep driver runs, and how it answers a query
    round (``answer(queries, cache)``)."""

    label: str
    system: SpriteSystem
    answer: Callable[[Sequence[Query], bool], Rankings]


def _searcher(system: SpriteSystem) -> Callable[[Sequence[Query], bool], Rankings]:
    return lambda queries, cache: [
        _pairs(system.search(query, cache=cache)) for query in queries
    ]


def _routing_state(system: SpriteSystem) -> Dict[int, Tuple]:
    ring = system.ring
    return {nid: ring.nodes[nid].routing_snapshot() for nid in ring.live_ids}


class DifferentialOracle:
    """Runs the reference, invariance and centralized-baseline
    comparisons over a corpus + query workload."""

    #: Name the joining (and then departing) peer hashes from.
    JOINER = "oracle-joiner"

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

    def _chord_config(self, route_cache_size: int = 65536) -> ChordConfig:
        return ChordConfig(
            num_peers=self.num_peers,
            id_bits=32,
            successor_list_size=4,
            seed=self.seed + 7,
            route_cache_size=route_cache_size,
        )

    def _sprite_config(self) -> SpriteConfig:
        return SpriteConfig(
            initial_terms=3,
            terms_per_iteration=3,
            learning_iterations=2,
            max_index_terms=9,
            query_cache_size=200,
            assumed_corpus_size=1000,
            top_k_answers=self.top_k,
        )

    def _build(self, **overrides) -> SpriteSystem:
        """A production system; *overrides* change configurable axes."""
        return SpriteSystem(
            self.corpus,
            sprite_config=replace(self._sprite_config(), **overrides),
            chord_config=self._chord_config(),
        )

    def _build_reference(self) -> SpriteSystem:
        """The reference system: full-rebuild ring without a route
        cache, per-term owners."""
        return PerTermSpriteSystem(
            self.corpus,
            sprite_config=self._sprite_config(),
            ring=FullRebuildChordRing(self._chord_config(route_cache_size=0)),
        )

    # -- the lockstep driver ---------------------------------------------------

    def _phases(self) -> List[Tuple[str, Callable[[SpriteSystem], None]]]:
        docs = list(self.corpus)
        half = docs[: len(docs) // 2]
        churn_ids = [d.doc_id for d in docs[: max(1, math.ceil(len(docs) / 5))]]
        joined: Dict[int, int] = {}

        def share_one_by_one(system: SpriteSystem) -> None:
            for doc in half:
                system.share_document(doc)

        def join(system: SpriteSystem) -> None:
            joined[id(system)] = system.ring.join(name=self.JOINER)

        def leave(system: SpriteSystem) -> None:
            # The joiner leaves: every document was shared before it
            # joined, so it is the one peer sure to hold no owner state.
            system.ring.leave(joined.pop(id(system)))

        def learn(system: SpriteSystem) -> None:
            system.register_queries(self.train)
            system.run_learning()

        def churn(system: SpriteSystem) -> None:
            system.bulk_unshare(churn_ids)
            system.bulk_share([system.corpus.get(doc_id) for doc_id in churn_ids])

        return [
            ("share one by one", share_one_by_one),
            ("bulk share", lambda system: system.bulk_share()),
            ("join", join),
            ("leave", leave),
            ("learning", learn),
            ("churn", churn),
        ]

    def _lockstep(
        self, report: OracleReport, arms: Sequence[_Arm], routing: bool = False
    ) -> None:
        """Run the phases, then two query rounds (``cache=True``, then
        ``cache=False``), on every arm.  After each phase and round,
        every arm's write-state fingerprint — and with *routing* every
        live node's routing state — must equal the first arm's, and
        every test-query ranking must too."""
        base, others = arms[0], arms[1:]

        def compare_state(when: str) -> None:
            expected = write_state_fingerprint(base.system)
            expected_routing = _routing_state(base.system) if routing else None
            for arm in others:
                actual = write_state_fingerprint(arm.system)
                for part in ("slots", "version_rank", "owners"):
                    if actual[part] != expected[part]:
                        report.mismatches.append(
                            RankingMismatch(
                                query_id="<state>",
                                detail=f"write-state {part} diverged after "
                                f"{when}: {arm.label} vs {base.label}",
                            )
                        )
                if routing and _routing_state(arm.system) != expected_routing:
                    report.mismatches.append(
                        RankingMismatch(
                            query_id="<routing>",
                            detail=f"routing state diverged after {when}: "
                            f"{arm.label} vs {base.label}",
                        )
                    )

        for phase, step in self._phases():
            for arm in arms:
                step(arm.system)
            compare_state(phase)
        for round_no, cache in enumerate((True, False), start=1):
            when = f"query round {round_no} (cache={cache})"
            expected = base.answer(self.test, cache)
            for arm in others:
                actual = arm.answer(self.test, cache)
                for query, want, got in zip(self.test, expected, actual):
                    if got != want:
                        report.mismatches.append(
                            RankingMismatch(
                                query_id=query.query_id,
                                detail=f"{when}: {arm.label}={got[:3]}... "
                                f"{base.label}={want[:3]}...",
                            )
                        )
            report.queries_compared += len(self.test)
            compare_state(when)

    # -- kind 1: production equals the reference ---------------------------

    def check_reference(self) -> OracleReport:
        """Production against the reference system of
        :mod:`repro.reference` in lockstep, routing state included; then
        production's bounded top-k against
        :class:`~repro.reference.ExhaustiveQueryProcessor` on the
        production system, ranking and per-kind traffic equal."""
        report = OracleReport(name="reference")
        production = self._build()
        reference = self._build_reference()

        def reference_answer(queries: Sequence[Query], cache: bool) -> Rankings:
            return [
                _pairs(
                    reference_execute(
                        reference.protocol,
                        reference._issuer_for(query),
                        query,
                        reference.config.assumed_corpus_size,
                        top_k=reference.config.top_k_answers,
                        cache=cache,
                    )[0]
                )
                for query in queries
            ]

        self._lockstep(
            report,
            [
                _Arm("production", production, _searcher(production)),
                _Arm("reference", reference, reference_answer),
            ],
            routing=True,
        )

        exhaustive = ExhaustiveQueryProcessor(
            production.protocol,
            assumed_corpus_size=production.config.assumed_corpus_size,
        )
        stats = production.ring.stats
        for query in self.test:
            runs = []
            for processor in (production.processor, exhaustive):
                before = stats.snapshot()
                ranked = processor.search(
                    production._issuer_for(query),
                    query,
                    top_k=production.config.top_k_answers,
                    cache=False,
                )
                runs.append((_pairs(ranked), _kind_counts(stats.delta_since(before))))
            (pruned, pruned_traffic), (full, full_traffic) = runs
            report.queries_compared += 1
            if pruned != full:
                report.mismatches.append(
                    RankingMismatch(
                        query_id=query.query_id,
                        detail=f"production={pruned[:3]}... "
                        f"exhaustive={full[:3]}...",
                    )
                )
            if pruned_traffic != full_traffic:
                report.mismatches.append(
                    RankingMismatch(
                        query_id=query.query_id,
                        detail=f"per-kind traffic diverged: production="
                        f"{pruned_traffic} exhaustive={full_traffic}",
                    )
                )
        return report

    # -- kind 2: results invariant across the configurable axes ------------

    def _invariance_arms(self) -> List[SpriteSystem]:
        """Production, then one system per configurable axis: sqlite
        store, ReCord ring (b = 8), result cache; the last production
        system is driven through the event-driven runtime."""
        return [
            self._build(),
            self._build(store_backend="sqlite"),
            self._build(ring="record", ring_arity=8),
            self._build(result_cache_size=128),
            self._build(),
        ]

    def check_invariance(self) -> OracleReport:
        """Production against the sqlite, record, result-cache and
        concurrent-runtime arms in lockstep.  The result-cache arm must
        answer every second-round query from its cache, or it checked
        nothing."""
        from ..net.sched import Scheduler
        from ..perf.concurrency import ConcurrentRuntime

        report = OracleReport(name="invariance")
        production, durable, record, cached, concurrent = self._invariance_arms()
        cache_hits: List[int] = []

        def cached_answer(queries: Sequence[Query], cache: bool) -> Rankings:
            runs = [cached.execute(query, cache=cache) for query in queries]
            cache_hits.append(sum(execution.cache_hit for __, execution in runs))
            return [_pairs(ranked) for ranked, __ in runs]

        def runtime_answer(queries: Sequence[Query], cache: bool) -> Rankings:
            runtime = ConcurrentRuntime(
                concurrent, Scheduler(service_time_ms=0.25, seed=self.seed)
            )
            for query in queries:
                runtime.submit(query, cache=cache)
            return [_pairs(result[0]) for __, result in runtime.run()]

        try:
            self._lockstep(
                report,
                [
                    _Arm("production", production, _searcher(production)),
                    _Arm("sqlite", durable, _searcher(durable)),
                    _Arm("record", record, _searcher(record)),
                    _Arm("result-cache", cached, cached_answer),
                    _Arm("concurrent-runtime", concurrent, runtime_answer),
                ],
            )
        finally:
            durable.store_runtime.close()
        if cache_hits[-1] != len(self.test):
            report.mismatches.append(
                RankingMismatch(
                    query_id="<result-cache>",
                    detail=f"result-cache arm served {cache_hits[-1]} of "
                    f"{len(self.test)} second-round queries from its cache",
                )
            )
        return report

    # -- full-index SPRITE vs centralized TF-IDF -----------------------------

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
            chord_config=self._chord_config(),
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
            self.check_reference(),
            self.check_invariance(),
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
