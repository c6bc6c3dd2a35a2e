"""Timing, rounds and metric computation.

A run is a few *rounds*.  Each round builds the system afresh (the
set-up, timed as ``setup_s``), runs one segment of the workload's timed
section, then a read-back pass over the test queries that checks
rankings and measures answer quality.  Every round is deterministic in
the seed, so every count and checksum repeats exactly.

Only program calls are timed: :meth:`Recorder.call` brackets one call
with ``perf_counter`` and books its messages and bytes from the ring's
``NetworkStats`` outside the timed interval.  The benchmark's own work
(input generation, checks, bookkeeping) is never inside a timing.

Every timing is reported at a fixed reference host speed.  On a shared
host the same code runs up to twice as slow for seconds to minutes at a
time while a neighbour keeps the core busy, which no median within one
run filters.  :class:`SpeedMeter` times a fixed calibration kernel every
:data:`SpeedMeter.INTERVAL` seconds throughout a round; each call's wall
time, less the calibrations that ran inside it, is scaled by
``NOMINAL_S`` over the mean of the calibrations during and just around
it.  The raw times stay in the record lines.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.evaluation.metrics import evaluate_rankings
from repro.exceptions import ReproError
from repro.text.analyzer import DEFAULT_ANALYZER

from correctness import Checker, write_state_digest


# -- host speed -----------------------------------------------------------------

_KEYS = [f"term{i}" for i in range(4096)]


class _Node:
    __slots__ = ("weight", "next")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.next = self


_NODES = [_Node(float(i)) for i in range(4096)]
for _i, _node in enumerate(_NODES):
    _node.next = _NODES[(_i * 2654435761) % 4096]


def _step(node: _Node, table: Dict[str, float], key: str) -> float:
    return node.weight * 0.5 + table.get(key, 0.0)


def _calibration_kernel() -> float:
    """A fixed mix of integer arithmetic and dictionary, attribute and
    pointer-chasing work that allocates no tracked objects.  Under a busy
    neighbour the arithmetic part alone slows less than the program and
    the memory part alone more; their sum tracks it."""
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    table = dict.fromkeys(_KEYS, 0.0)
    node = _NODES[0]
    total = 0.0
    for i in range(6_000):
        key = _KEYS[(i * 131) & 4095]
        total += _step(node, table, key)
        table[key] = total * 1e-9
        node = node.next
    return acc + total


class SpeedMeter:
    """Samples host speed from a ``SIGALRM`` timer while it runs.

    Every :data:`INTERVAL` seconds the handler times
    :func:`_calibration_kernel`, also in the middle of a long program
    call; :meth:`inside` and the running total :attr:`spent` let callers
    take that time out of their timings.  The program is single-threaded and
    pure Python apart from short numpy calls, so the handler runs
    between two of its bytecodes and touches none of its state.
    """

    INTERVAL = 0.1
    #: Samples within this many seconds of a call's interval scale it.
    WINDOW = 0.15
    #: Seconds one calibration takes at the reference speed (a quiet
    #: 2-core x86-64 host).
    NOMINAL_S = 0.0045

    def __init__(self) -> None:
        #: Midpoint and duration of every calibration, in time order.
        self.at = array("d")
        self.samples = array("d")
        self.spent = 0.0
        self._busy = False

    def sample(self, *__) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        _calibration_kernel()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of calibration that ran between *t0* and *t1*.  A
        handler runs whole between two bytecodes, so each calibration
        lies entirely inside or outside an interval read from
        ``perf_counter``."""
        return sum(self.samples[bisect_left(self.at, t0) : bisect_right(self.at, t1)])

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a call that ran from *t0* to *t1*: the reference
        time over the mean of the calibrations within :data:`WINDOW` of
        it (the nearest one when there are none)."""
        lo = bisect_left(self.at, t0 - self.WINDOW)
        hi = bisect_right(self.at, t1 + self.WINDOW)
        if lo == hi:
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return self.NOMINAL_S * (hi - lo) / sum(self.samples[lo:hi])


#: The process's one meter, shared by every phase.
METER = SpeedMeter()


@dataclass
class Call:
    kind: str
    ops: int
    docs: int
    #: Wall seconds at the reference speed (raw until the round ends).
    seconds: float
    msgs: int
    bytes: int
    #: Wall seconds, less any calibration that ran inside the call (from
    #: the round's end).
    raw_seconds: float
    start: float
    end: float


class Recorder:
    """Times program calls of one phase and books them by kind.

    :func:`run_round` scales every call to the reference speed with
    :meth:`finish` when the round ends.
    """

    def __init__(self, stats=None, tracer=None) -> None:
        self.calls: List[Call] = []
        self.failed_ops = 0
        self.errors: List[str] = []
        self._stats = stats
        self._tracer = tracer

    def build(self, factory, *args, **kwargs):
        """Construct the system (a timed call) and follow its ring's
        traffic from then on."""
        system = self.call("build", factory, *args, **kwargs)
        if system is None:
            raise RuntimeError("system construction failed: " + self.errors[-1])
        self._stats = system.ring.stats
        return system

    def call(self, kind: str, fn, *args, ops: int = 0, docs: int = 0, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed call of *ops*
        operations.  A ``repro.exceptions`` error fails all of them and
        returns ``None``."""
        stats = self._stats
        msgs0, bytes0 = (stats.total_messages, stats.total_bytes) if stats else (0, 0)
        if self._tracer is not None:
            self._tracer.op_id += 1
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ReproError as exc:
            t1 = perf_counter()
            self.failed_ops += ops
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        else:
            t1 = perf_counter()
        msgs1, bytes1 = (stats.total_messages, stats.total_bytes) if stats else (0, 0)
        self.calls.append(Call(kind, ops, docs, t1 - t0, msgs1 - msgs0, bytes1 - bytes0, t1 - t0, t0, t1))
        return result

    def finish(self) -> None:
        """Take the calibrations out of every call and scale it to the
        reference speed."""
        for c in self.calls:
            c.raw_seconds = c.end - c.start - METER.inside(c.start, c.end)
            c.seconds = c.raw_seconds * METER.factor(c.start, c.end)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def raw_seconds(self) -> float:
        return sum(c.raw_seconds for c in self.calls)

    @property
    def ops(self) -> int:
        return sum(c.ops for c in self.calls)


def search(rec: Recorder, checker: Checker, system, query, cache: bool = True, check: Optional[bool] = None):
    """One timed ``execute`` (``search`` plus its diagnostics).

    A search that raised, returned degraded (``terms_failed > 0``) or
    failed the ranking check counts as a failed op.  ``check=None``
    checks the checker's seeded sample; ``True`` always checks.
    Returns the ranked list, or ``None`` when the call raised.
    """
    result = rec.call("search", system.execute, query, None, cache, ops=1)
    if result is None:
        return None
    ranked, execution = result
    if check:
        checker.fold(query, ranked)
        ok = checker.check(system, query, ranked)
    else:
        ok = checker.observe(system, query, ranked)
    if execution.terms_failed > 0 or not ok:
        rec.failed_ops += 1
    return ranked


@dataclass
class Round:
    phases: Dict[str, Recorder]
    precision_ratio: float
    digest: str
    #: Program readouts taken just before and after the timed section.
    readouts: Dict[str, object]

    @property
    def attempted(self) -> int:
        return sum(rec.ops for rec in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(rec.failed_ops for rec in self.phases.values())

    @property
    def errors(self) -> List[str]:
        return [e for rec in self.phases.values() for e in rec.errors]


def _readouts(system) -> Dict[str, object]:
    return {
        "traffic": system.ring.stats.category_summary(),
        "route_cache": system.ring.route_cache.stats(),
        "stem_cache": DEFAULT_ANALYZER.stemmer.cache_info(),
    }


def run_round(workload, segment: int, checker: Checker, tracer=None, digest: bool = False) -> Round:
    """Set up, run segment *segment* of the workload's timed section
    (traced when *tracer* is given), then read back and check.  *digest*
    also computes the write-state digest (about a second at paper
    scale).  Host speed is sampled throughout."""
    gc.collect()
    METER.start()
    try:
        result = _round(workload, segment, checker, tracer, digest)
        METER.sample()
    finally:
        METER.stop()
    for rec in result.phases.values():
        rec.finish()
    return result


def _round(workload, segment: int, checker: Checker, tracer, digest: bool) -> Round:
    setup = Recorder()
    system = workload.setup(setup)
    timed = Recorder(system.ring.stats, tracer)
    # Freeze the set-up heap until the read-back ends: the collector then
    # scans only objects made since, so a full collection of the whole
    # system (up to half a second at 20k peers) cannot land inside
    # whichever operation happens to trigger it.
    gc.collect()
    gc.freeze()
    readouts = {"before": _readouts(system)}
    if tracer is not None:
        tracer.install(system)
    try:
        workload.run(system, timed, checker, segment)
    finally:
        if tracer is not None:
            tracer.uninstall()
    readouts["after"] = _readouts(system)

    readback = Recorder(system.ring.stats)
    served = {}
    for npass in range(workload.readback_passes):
        for query in workload.test_queries:
            ranked = search(readback, checker, system, query, cache=False, check=npass == 0)
            if npass == 0 and ranked is not None:
                served[query.query_id] = ranked
    # evaluate_rankings sums in dict order; both dicts follow the test
    # query order, so the ratio repeats to the last digit.
    k, qrels = system.config.top_k_answers, workload.env.test.qrels
    reference = {qid: workload.central[qid] for qid in served}
    precision = (
        evaluate_rankings(served, qrels, k).mean_precision
        / evaluate_rankings(reference, qrels, k).mean_precision
    )
    gc.unfreeze()
    return Round(
        phases={"setup": setup, "timed": timed, "readback": readback},
        precision_ratio=precision,
        digest=write_state_digest(system) if digest else "",
        readouts=readouts,
    )


# -- metrics --------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, *q* in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _rate(calls: List[Call], field_name: str) -> float:
    seconds = sum(c.seconds for c in calls)
    return sum(getattr(c, field_name) for c in calls) / seconds if seconds > 0 else 0.0


def _per(calls: List[Call], field_name: str, per: str) -> float:
    denominator = sum(getattr(c, per) for c in calls)
    return sum(getattr(c, field_name) for c in calls) / denominator if denominator else 0.0


#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("search_p50_ms", "ms"),
    ("search_p95_ms", "ms"),
    ("publish_docs_per_s", "docs/s"),
    ("learn_docs_per_s", "docs/s"),
    ("msgs_per_search", "msgs"),
    ("bytes_per_search", "B"),
    ("msgs_per_publish", "msgs"),
    ("msgs_per_learn", "msgs"),
    ("precision_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(workload, rounds: List[Round], peak_rss_mb: float) -> Dict[str, float]:
    """Rates, latency percentiles and per-op counts pool every round's
    calls; ``setup_s`` is the median of the rounds' set-ups; the quality
    ratio is the first round's."""

    def calls(family: str, kind: str) -> List[Call]:
        phase = workload.sources[family]
        return [c for r in rounds for c in r.phases[phase].calls if c.kind == kind]

    searches = [c.seconds * 1e3 for c in calls("search", "search")]
    return {
        "setup_s": statistics.median(r.phases["setup"].seconds for r in rounds),
        "ops_per_s": _rate([c for r in rounds for c in r.phases["timed"].calls], "ops"),
        "search_p50_ms": percentile(searches, 50),
        "search_p95_ms": percentile(searches, 95),
        "publish_docs_per_s": _rate(calls("publish", "publish"), "docs"),
        "learn_docs_per_s": _rate(calls("learn", "learn"), "ops"),
        "msgs_per_search": _per(calls("search", "search"), "msgs", "ops"),
        "bytes_per_search": _per(calls("search", "search"), "bytes", "ops"),
        "msgs_per_publish": _per(calls("publish", "publish"), "msgs", "docs"),
        "msgs_per_learn": _per(calls("learn", "learn"), "msgs", "ops"),
        "precision_ratio": rounds[0].precision_ratio,
        "peak_rss_mb": peak_rss_mb,
    }


def traffic_delta(r: Round) -> Dict[str, Dict[str, int]]:
    """Per-category message, byte and hop counts of a round's timed
    section (``NetworkStats.category_summary`` after minus before)."""
    before, after = r.readouts["before"]["traffic"], r.readouts["after"]["traffic"]
    return {
        category: {
            field: counts[field] - before.get(category, {}).get(field, 0) for field in counts
        }
        for category, counts in after.items()
    }
