"""Opt-in hot-path profiling: wall-clock timers plus event counters.

The simulator's hot paths (DHT lookups, posting fetches, similarity
scoring, the learning loop) carry lightweight hooks that report into a
module-level :class:`PerfProfile`.  Profiling is **off by default** and
the hooks reduce to a single attribute check, so the instrumented code
pays effectively nothing when nobody is measuring.

Usage::

    from repro.perf import PROFILE

    PROFILE.enable()
    ... run a workload ...
    print(PROFILE.report())
    PROFILE.disable()

Timers use :func:`time.perf_counter`; counters are plain integers
(route-cache hits/misses, full vs incremental stabilizations, batched
fetches, ...).  ``summary()`` returns a plain dict suitable for JSON
serialization — the ``perf`` CLI subcommand and the benchmark harness
both print it.

Beyond timers and counters the profile carries **gauges** — last-value
measurements, used for the memory accounting of DESIGN.md §13: the
workloads call :meth:`PerfProfile.record_memory` at phase boundaries,
which snapshots :func:`memory_usage` (current RSS, lifetime peak RSS,
live allocation count) into ``mem.<label>.*`` gauges so every tracked
benchmark reports memory alongside throughput.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator


def memory_usage() -> Dict[str, int]:
    """Process memory snapshot, cheap enough for phase boundaries.

    ``rss_kb``
        Current resident set size from ``/proc/self/status`` (0 where
        procfs is unavailable).
    ``peak_rss_kb``
        Lifetime peak RSS from ``getrusage`` (kilobytes; macOS reports
        bytes and is converted).  Monotone per process.
    ``allocated_blocks``
        Live CPython allocation count (:func:`sys.getallocatedblocks`)
        — a deterministic allocation gauge that, unlike RSS, moves even
        when the allocator never returns pages to the OS.
    """
    peak_kb = 0
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            peak_kb //= 1024
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        peak_kb = 0
    rss_kb = 0
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    rss_kb = int(line.split()[1])
                    break
    except (OSError, ValueError):  # pragma: no cover - no procfs
        rss_kb = 0
    # ru_maxrss is sampled by the kernel and can trail VmRSS by a few
    # pages right after an allocation spike; clamp so "peak" is never
    # reported below "current".
    return {
        "rss_kb": rss_kb,
        "peak_rss_kb": max(peak_kb, rss_kb),
        "allocated_blocks": sys.getallocatedblocks(),
    }


class PerfProfile:
    """Aggregated timers and counters for one profiling session."""

    __slots__ = ("enabled", "_total_s", "_calls", "_counters", "_gauges")

    def __init__(self) -> None:
        self.enabled = False
        self._total_s: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> "PerfProfile":
        """Start collecting (returns self for chaining)."""
        self.enabled = True
        return self

    def disable(self) -> None:
        """Stop collecting; accumulated data stays readable."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every timer, counter, and gauge."""
        self._total_s.clear()
        self._calls.clear()
        self._counters.clear()
        self._gauges.clear()

    # -- recording ---------------------------------------------------------

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate one timed span (hot paths call this directly with
        a pre-measured delta so the disabled case stays branch-cheap)."""
        self._total_s[name] = self._total_s.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named event counter."""
        self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record a last-value measurement (later calls overwrite).

        Unlike the timer/counter hooks — whose hot-path callers check
        ``enabled`` themselves — gauges are phase-boundary measurements,
        so the guard lives here and callers need no branch."""
        if self.enabled:
            self._gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """Record a gauge that keeps the maximum across calls."""
        if not self.enabled:
            return
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def record_memory(self, label: str = "") -> Dict[str, int]:
        """Snapshot process memory into ``mem.<label>.*`` gauges.

        Returns the raw :func:`memory_usage` snapshot either way;
        gauges are only written while the profile is enabled.  Peak RSS
        additionally feeds a run-wide ``mem.peak_rss_kb`` max-gauge so
        a single number summarizes the whole workload.
        """
        usage = memory_usage()
        if self.enabled:
            prefix = f"mem.{label}." if label else "mem."
            for key, value in usage.items():
                self._gauges[prefix + key] = value
            self.max_gauge("mem.peak_rss_kb", usage["peak_rss_kb"])
        return usage

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context-manager form for coarse (non-hot-path) spans."""
        if not self.enabled:
            yield
            return
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add_time(name, perf_counter() - t0)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        return self._counters.get(name, 0)

    def total_seconds(self, name: str) -> float:
        """Accumulated seconds of a timer (0.0 if never used)."""
        return self._total_s.get(name, 0.0)

    def calls(self, name: str) -> int:
        """Number of spans recorded under a timer name."""
        return self._calls.get(name, 0)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """Current value of a gauge (*default* if never recorded)."""
        return self._gauges.get(name, default)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict snapshot:
        ``{"timers": ..., "counters": ..., "gauges": ...}``."""
        return {
            "timers": {
                name: {
                    "calls": self._calls.get(name, 0),
                    "total_s": round(total, 6),
                    "mean_us": round(
                        1e6 * total / self._calls[name], 3
                    )
                    if self._calls.get(name)
                    else 0.0,
                }
                for name, total in sorted(self._total_s.items())
            },
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
        }

    def report(self) -> str:
        """Human-readable table of the summary."""
        s = self.summary()
        lines = ["timer                       calls      total_s     mean_us"]
        for name, row in s["timers"].items():
            lines.append(
                f"{name:<24} {row['calls']:>9} {row['total_s']:>12.4f} "
                f"{row['mean_us']:>11.2f}"
            )
        if s["counters"]:
            lines.append("")
            lines.append("counter                      value")
            for name, value in s["counters"].items():
                lines.append(f"{name:<24} {value:>10}")
        if s["gauges"]:
            lines.append("")
            lines.append("gauge                        value")
            for name, value in s["gauges"].items():
                lines.append(f"{name:<24} {value:>10}")
        return "\n".join(lines)


#: The module-level profile every instrumented hot path reports into.
#: Disabled by default; ``PROFILE.enable()`` turns collection on.
PROFILE = PerfProfile()


def ratio(after: float, before: float) -> float:
    """*after* / *before* rounded to two places (0.0 when *before* is 0):
    the speedup and cost ratios the comparison harnesses report."""
    return round(after / before, 2) if before else 0.0
