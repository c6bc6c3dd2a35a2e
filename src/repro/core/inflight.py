"""In-flight operation contexts: the bridge between SPRITE's
synchronous call chain and the event-driven runtime (DESIGN.md §15).

The retrieval stack — :class:`~repro.core.query_processing.QueryProcessor`,
:class:`~repro.core.indexer.IndexingProtocol`,
:class:`~repro.dht.ring.ChordRing` — executes one operation as a nested
synchronous call chain.  Rewriting that chain as coroutines would risk
the very semantics the differential oracle protects, so the concurrent
runtime uses a *capture-at-dispatch, timeline-replay* contract instead:

1. **Capture** — the operation runs synchronously under
   :meth:`~repro.dht.ring.ChordRing.capture_messages`, producing both
   its real result (rankings, diagnostics, state mutations) and its
   *timeline*: the ordered ``(kind, dst)`` sequence of every message it
   sent, including per-hop lookup traffic.
2. **Replay** — the timeline is replayed as a generator coroutine
   (:func:`repro.net.sched.replay_timeline`) through a
   :class:`~repro.net.sched.Scheduler`, where it contends with every
   *other* in-flight operation on shared per-peer service queues.

Semantics come from step 1, timing from step 2.  At concurrency 1 the
dispatch order equals the submission order, so results are bit-identical
to the plain synchronous path — the property the concurrent-runtime arm of
the sim oracle's invariance check enforces end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from ..corpus.relevance import Query
from ..net.sched import OpFuture, Scheduler, replay_timeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ir.ranking import RankedList
    from .query_processing import QueryExecution
    from .system import DistributedSystem

#: One captured message leg: (message-kind name, destination peer id).
TimelineEntry = Tuple[str, int]


@dataclass(frozen=True)
class CapturedOp:
    """One synchronously executed operation plus its message timeline.

    ``result`` is whatever the operation returned at dispatch (already
    final — replay only decides *when* the operation completes, never
    *what* it computed); ``timeline`` is the per-message record the
    scheduler replays.
    """

    label: str
    timeline: Tuple[TimelineEntry, ...]
    result: object = None

    @property
    def messages(self) -> int:
        return len(self.timeline)


def capture_operation(
    system: "DistributedSystem", fn: Callable[[], object], label: str = "op"
) -> CapturedOp:
    """Run *fn* (any closed-over system operation — a publish, a
    maintenance sweep, …) under message capture and package the result
    with its timeline."""
    with system.ring.capture_messages() as log:
        result = fn()
    return CapturedOp(
        label=label,
        timeline=tuple((t.kind, t.dst) for t in log.records),
        result=result,
    )


def capture_query(
    system: "DistributedSystem",
    query: Query,
    top_k: Optional[int] = None,
    cache: bool = True,
) -> CapturedOp:
    """Capture one query execution: result = ``(ranked, execution)``."""
    with system.ring.capture_messages() as log:
        ranked, execution = system.execute(query, top_k=top_k, cache=cache)
    return CapturedOp(
        label=f"query:{query.query_id}",
        timeline=tuple((t.kind, t.dst) for t in log.records),
        result=(ranked, execution),
    )


@dataclass
class InFlightQuery:
    """A dispatched query: semantics already decided (``op.result``),
    completion time being decided by the scheduler (``future``)."""

    op: CapturedOp
    future: OpFuture

    @property
    def done(self) -> bool:
        return self.future.done

    @property
    def ranked(self) -> "RankedList":
        ranked, _execution = self.op.result  # type: ignore[misc]
        return ranked

    @property
    def execution(self) -> "QueryExecution":
        _ranked, execution = self.op.result  # type: ignore[misc]
        return execution

    @property
    def latency_ms(self) -> float:
        """Virtual completion latency under concurrent load (only
        meaningful once the scheduler has run)."""
        return self.future.latency_ms


def dispatch(
    scheduler: Scheduler, op: CapturedOp, delay_ms: float = 0.0
) -> OpFuture:
    """Submit a captured operation's timeline to the scheduler; the
    returned future completes when the replay does."""
    return scheduler.spawn(
        replay_timeline(op.timeline), label=op.label, delay_ms=delay_ms
    )


def dispatch_query(
    scheduler: Scheduler, op: CapturedOp, delay_ms: float = 0.0
) -> InFlightQuery:
    """:func:`dispatch` specialised for :func:`capture_query` results."""
    return InFlightQuery(op=op, future=dispatch(scheduler, op, delay_ms))
