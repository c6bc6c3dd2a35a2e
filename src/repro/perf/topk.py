"""The tracked top-k scoring benchmark (ISSUE 4).

Reuses the :mod:`repro.perf.bench` scenario — same ring, documents,
query stream, and churn schedule — and runs it in four retrieval modes
over identical inputs:

* ``legacy`` — the seed execution path (per-term fetch, nested-dict
  scoring, no route cache) of :func:`repro.reference.reference_execute`,
  identical to ``BENCH_PERF.json``'s "before" mode.  The acceptance
  baseline;
* ``batched`` — the production stack with
  :class:`repro.reference.ExhaustiveQueryProcessor` (batched fetch +
  exhaustive flat-dict scoring, no max-score pruning);
* ``topk`` — columnar slots + exact max-score early termination, result
  cache off.  Same messages on the wire as ``batched``, strictly less
  scoring work;
* ``cached`` — early termination plus the indexing peers' query-result
  caches, so the Zipf-repeated majority of the stream is answered
  without fetching or scoring postings at all.

All four modes must produce **identical ranking checksums**: early
termination is exact and the result cache is version-validated, so they
can only differ in speed.  ``benchmarks/test_bench_topk.py`` asserts
the equivalences and records the trajectory in ``BENCH_TOPK.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from .bench import (
    PerfWorkloadConfig,
    PerfWorkloadResult,
    paper_scale_config,
    run_perf_workload,
    smoke_config,
)
from .profile import ratio

#: The answer-list depth of the paper's experiments (top K = 20).
TOP_K = 20

#: Result-cache capacity per indexing peer in the ``cached`` mode.
RESULT_CACHE_SIZE = 256


def topk_paper_config() -> PerfWorkloadConfig:
    """The tracked paper-scale scenario (2,000 peers / 5,000 queries)."""
    return paper_scale_config()


def topk_smoke_config() -> PerfWorkloadConfig:
    """The seconds-scale CI shrink of the same scenario."""
    return smoke_config()


@dataclass
class TopKComparison:
    """Measured outcome of one four-mode comparison (JSON-friendly)."""

    top_k: int
    legacy: PerfWorkloadResult
    batched: PerfWorkloadResult
    topk: PerfWorkloadResult
    cached: PerfWorkloadResult
    #: queries/sec of each new mode over the seed ``legacy`` path — the
    #: acceptance criterion compares against this baseline.
    speedup_topk: float
    speedup_cached: float
    #: queries/sec of each new mode over the ISSUE 2 ``batched`` path —
    #: the incremental win of this PR alone.
    speedup_topk_vs_batched: float
    speedup_cached_vs_batched: float
    checksums_match: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def run_topk_comparison(cfg: PerfWorkloadConfig) -> TopKComparison:
    """Run the scenario once per mode and compare.

    Deterministic for a given config: all modes consume the same seeded
    workload, so their ranking checksums must agree bit for bit.
    """
    legacy = run_perf_workload(cfg.replaced(arm="reference", result_cache_size=0))
    batched = run_perf_workload(cfg.replaced(arm="exhaustive", result_cache_size=0))
    topk = run_perf_workload(cfg.replaced(arm="production", result_cache_size=0))
    cached = run_perf_workload(
        cfg.replaced(arm="production", result_cache_size=RESULT_CACHE_SIZE)
    )
    return TopKComparison(
        top_k=TOP_K,
        legacy=legacy,
        batched=batched,
        topk=topk,
        cached=cached,
        speedup_topk=ratio(topk.queries_per_s, legacy.queries_per_s),
        speedup_cached=ratio(cached.queries_per_s, legacy.queries_per_s),
        speedup_topk_vs_batched=ratio(topk.queries_per_s, batched.queries_per_s),
        speedup_cached_vs_batched=ratio(cached.queries_per_s, batched.queries_per_s),
        checksums_match=(
            legacy.ranking_checksum
            == batched.ranking_checksum
            == topk.ranking_checksum
            == cached.ranking_checksum
        ),
    )
