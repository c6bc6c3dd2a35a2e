"""Span tracing for the traced run, installed from the benchmark's side.

:class:`Tracer` wraps the public functions at each layer boundary of the
program (the table in :data:`BOUNDARIES`) for the duration of one timed
section and restores the originals afterwards.  Every wrapped call
records a span — layer name, start, end, parent span and operation id —
in flat in-memory arrays; nothing is written until the run ends.

A call into a layer from inside a span of the *same* layer (for example
``register_query`` delegating to ``register_query_observing``) is folded
into the outer span, so ``<layer>.calls`` counts entries into a layer.
Self time is a span's duration minus the durations of its direct
children.  Span clocks leave out the host-speed calibrations that run
inside a span (``harness.SpeedMeter``), as the timed calls do.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.owner as owner_module
from repro.core.indexer import IndexingProtocol
from repro.core.learning import IncrementalLearner
from repro.core.owner import OwnerPeer
from repro.core.query_processing import QueryProcessor
from repro.dht.ring import ChordRing
from repro.ir.postings import ColumnarPostings
from repro.ir.ranking import RankedList
from repro.text.analyzer import Analyzer

from harness import METER, traffic_delta

#: Layers in report order.  Each reports ``<layer>.calls`` and
#: ``<layer>.self_s``.
LAYERS = (
    "text",
    "owner",
    "learning",
    "indexer.write",
    "indexer.poll",
    "indexer.fetch",
    "indexer.register",
    "query_processing",
    "ir",
    "dht.lookup",
    "dht.send",
    "dht.membership",
    "net",
)


def _poll_yield(tracer: "Tracer", args, result) -> None:
    results, failed = result
    tracer.counts["poll.terms"] += len(args[2])  # (self, owner_id, term_cursors, ...)
    tracer.counts["poll.queries"] += sum(len(fresh) for fresh, __ in results.values())
    tracer.counts["indexer.failed_terms"] += len(failed)


def _indexer_failures(tracer: "Tracer", args, result) -> None:
    # Every wrapped indexer call returns its unreachable terms last.
    tracer.counts["indexer.failed_terms"] += len(result[-1])


def _execution(tracer: "Tracer", args, result) -> None:
    __, execution = result
    tracer.counts["qp.executions"] += 1
    tracer.counts["qp.postings"] += execution.postings_retrieved
    tracer.counts["qp.candidates"] += execution.candidate_documents


Observer = Callable[["Tracer", tuple, object], None]

#: (owner object, attribute, layer, observer of the return value).
BOUNDARIES: Tuple[Tuple[object, str, str, Optional[Observer]], ...] = (
    (Analyzer, "term_frequencies", "text", None),
    (OwnerPeer, "share", "owner", None),
    (OwnerPeer, "share_bulk", "owner", None),
    (OwnerPeer, "unshare_bulk", "owner", None),
    (OwnerPeer, "learn_document", "owner", None),
    (IncrementalLearner, "observe", "learning", None),
    # The owner module calls select_index_terms through its own global.
    (owner_module, "select_index_terms", "learning", None),
    (IndexingProtocol, "publish_batch", "indexer.write", _indexer_failures),
    (IndexingProtocol, "unpublish_batch", "indexer.write", _indexer_failures),
    (IndexingProtocol, "poll_batch", "indexer.poll", _poll_yield),
    (IndexingProtocol, "fetch_slot_views", "indexer.fetch", _indexer_failures),
    (IndexingProtocol, "fetch_postings_batch", "indexer.fetch", _indexer_failures),
    (IndexingProtocol, "probe_slot_versions", "indexer.fetch", _indexer_failures),
    (IndexingProtocol, "register_query", "indexer.register", None),
    (IndexingProtocol, "register_query_observing", "indexer.register", _indexer_failures),
    (QueryProcessor, "execute", "query_processing", _execution),
    (ColumnarPostings, "add", "ir", None),
    (ColumnarPostings, "remove", "ir", None),
    (ColumnarPostings, "impact_rows", "ir", None),
    (RankedList, "top_k", "ir", None),
    (ChordRing, "lookup", "dht.lookup", None),
    (ChordRing, "send", "dht.send", None),
    (ChordRing, "join", "dht.membership", None),
    (ChordRing, "leave", "dht.membership", None),
    (ChordRing, "stabilize", "dht.membership", None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.layer_ids: Dict[str, int] = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = 0
        self.counts: Dict[str, int] = {
            "poll.terms": 0,
            "poll.queries": 0,
            "indexer.failed_terms": 0,
            "qp.executions": 0,
            "qp.postings": 0,
            "qp.candidates": 0,
        }
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer: str, observer: Optional[Observer]):
        layer_id = self.layer_ids[layer]
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and tracer.layer[stack[-1]] == layer_id:
                result = fn(*args, **kwargs)
                if observer is not None:
                    observer(tracer, args, result)
                return result
            index = len(tracer.start)
            tracer.layer.append(layer_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(perf_counter() - METER.spent)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter() - METER.spent
                stack.pop()
            if observer is not None:
                observer(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, layer: str, observer: Optional[Observer]) -> None:
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(raw.__func__, layer, observer)))
        else:
            setattr(owner, attr, self._wrap(raw, layer, observer))

    def install(self, system) -> None:
        """Wrap every boundary, plus the ring's transport ``deliver``."""
        for owner, attr, layer, observer in BOUNDARIES:
            self._patch(owner, attr, layer, observer)
        self._patch(type(system.ring.transport), "deliver", "net", None)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------

    def layer_totals(self) -> Tuple[Dict[str, int], Dict[str, float], float]:
        """Per-layer (calls, self seconds) and the summed duration of the
        root spans (the part of the timed section inside any layer)."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        root_time = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
            else:
                root_time += duration[i]
        calls = {name: 0 for name in LAYERS}
        self_s = {name: 0.0 for name in LAYERS}
        for i in range(n):
            name = LAYERS[self.layer[i]]
            calls[name] += 1
            self_s[name] += duration[i] - child_time[i]
        return calls, self_s, root_time

    def write(self, path) -> None:
        """Write every span as one gzip'd JSON line: layer, start and end
        (seconds from the first span), parent index, op id."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"layers": list(LAYERS)}) + "\n")
            for i in range(len(self.start)):
                out.write(
                    f"[{self.layer[i]},{self.start[i] - origin:.9f},"
                    f"{self.end[i] - origin:.9f},{self.parent[i]},{self.op[i]}]\n"
                )


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    metric for layer in LAYERS for metric in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s"))
) + (
    ("other.self_s", "s"),
    ("text.stem_cache_hit_ratio", "ratio"),
    ("indexer.poll.queries_per_term", "ratio"),
    ("indexer.failed_terms", "count"),
    ("query_processing.postings_per_search", "postings"),
    ("query_processing.candidates_per_search", "docs"),
    ("dht.hops_per_lookup", "hops"),
    ("route_cache.hit_ratio", "ratio"),
    ("route_cache.revalidations", "count"),
    ("route_cache.evictions", "count"),
    ("msgs.write", "msgs/op"),
    ("msgs.query", "msgs/op"),
    ("msgs.routing", "msgs/op"),
    ("bytes.write", "B/op"),
    ("bytes.query", "B/op"),
    ("bytes.routing", "B/op"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, traced, untraced) -> Dict[str, float]:
    """Per-layer metrics of the traced round's timed section.

    ``other.self_s`` is timed-section time outside every span (the time
    the wrapped boundaries do not cover); ``trace.overhead`` is the
    traced round's ops/s over the untraced round's, on identical work.
    """
    calls, self_s, root_time = tracer.layer_totals()
    timed = traced.phases["timed"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["other.self_s"] = timed.raw_seconds - root_time

    before, after = traced.readouts["before"], traced.readouts["after"]
    stem_hits = after["stem_cache"].hits - before["stem_cache"].hits
    stem_misses = after["stem_cache"].misses - before["stem_cache"].misses
    out["text.stem_cache_hit_ratio"] = _ratio(stem_hits, stem_hits + stem_misses)
    counts = tracer.counts
    out["indexer.poll.queries_per_term"] = _ratio(counts["poll.queries"], counts["poll.terms"])
    out["indexer.failed_terms"] = counts["indexer.failed_terms"]
    out["query_processing.postings_per_search"] = _ratio(counts["qp.postings"], counts["qp.executions"])
    out["query_processing.candidates_per_search"] = _ratio(counts["qp.candidates"], counts["qp.executions"])

    delta = traffic_delta(traced)

    def traffic(category: str, field: str) -> int:
        return delta.get(category, {}).get(field, 0)

    out["dht.hops_per_lookup"] = _ratio(traffic("routing", "hops"), traffic("routing", "messages"))
    cache_hits = after["route_cache"]["hits"] - before["route_cache"]["hits"]
    cache_misses = after["route_cache"]["misses"] - before["route_cache"]["misses"]
    out["route_cache.hit_ratio"] = _ratio(cache_hits, cache_hits + cache_misses)
    for key in ("revalidations", "evictions"):
        out[f"route_cache.{key}"] = after["route_cache"][key] - before["route_cache"][key]
    for category in ("write", "query", "routing"):
        out[f"msgs.{category}"] = _ratio(traffic(category, "messages"), timed.ops)
        out[f"bytes.{category}"] = _ratio(traffic(category, "bytes"), timed.ops)
    plain = untraced.phases["timed"]
    out["trace.overhead"] = _ratio(timed.ops / timed.seconds, plain.ops / plain.seconds)
    out["trace.spans"] = len(tracer.start)
    return out
