#!/usr/bin/env python3
"""The repository benchmark: three SPRITE workloads, end-to-end metrics
in plain runs and per-layer metrics in traced runs.

Run from the repository root::

    python3 perfbench/run.py --workload search-hot --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``search-hot``, ``learn-ingest``,
``mixed-churn``.  ``--trace 0`` reports every end-to-end metric;
``--trace 1`` runs the workload once untraced and once with span
wrappers installed, reports every per-layer metric plus the tracing
overhead, and writes the spans to ``.perfbench/``.

Timings are in seconds at a reference host speed (see ``harness.py``);
the round lines also give the raw times (wall time less calibrations).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The record
lines before it give the host fingerprint, each round's figures, the
ranking checksum, per-category message counts and the write-state
digest, so two commits can be compared at the same seed.  The program
is imported from ``src/`` beside this directory and nowhere else; without
it the benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Rounds per untraced run, each with its own set-up; ``setup_s`` is
#: their median.
ROUNDS = 3


def _import_program() -> None:
    """Put ``src/`` first on the path and make sure ``repro`` comes from
    there, never from an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'repro'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


def calibration_seconds() -> float:
    """Seconds a fixed pure-Python loop takes in this process: host
    speed beside the figures, so drift between hosts is visible."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def host_fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "numpy": numpy_version,
        "calibration_s": round(calibration_seconds(), 4),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", default="paper", help="paper (measurements) or tiny (the benchmark's own tests)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    from correctness import Checker
    from harness import END_TO_END, METER, end_to_end, run_round, traffic_delta
    from tracing import PER_LAYER, Tracer, per_layer
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.size not in SIZES:
        sys.exit(f"error: unknown size {args.size!r}; choose from {sorted(SIZES)}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")

    host = host_fingerprint()
    rounds_planned = 2 if args.trace else ROUNDS
    workload = WORKLOADS[args.workload](SIZES[args.size], args.seed, args.seconds, rounds_planned)
    checker = Checker(args.seed, workload.size.check_share)
    if args.trace:
        # The same segment twice, untraced then traced: the overhead
        # ratio compares identical work.
        tracer = Tracer()
        rounds = [
            run_round(workload, 0, checker, digest=True),
            run_round(workload, 0, checker, tracer),
        ]
    else:
        tracer = None
        rounds = [run_round(workload, i, checker, digest=i == 0) for i in range(ROUNDS)]
    rss = peak_rss_mb()

    first = rounds[0]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    print(f"workload {workload.name}  seed {args.seed}  size {args.size}  "
          f"rounds {len(rounds)}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for i, r in enumerate(rounds, 1):
        setup, timed = r.phases["setup"], r.phases["timed"]
        print(
            f"round {i}: setup {setup.seconds:.4f} s (raw {setup.raw_seconds:.4f})  "
            f"timed {timed.seconds:.4f} s (raw {timed.raw_seconds:.4f})  "
            f"ops {timed.ops}  ops/s {timed.ops / timed.seconds:.1f}  failed {r.failed}"
            + ("  traced" if tracer is not None and i == 2 else "")
        )
    print(f"speed: {len(METER.samples)} calibrations, median "
          f"{statistics.median(METER.samples) * 1e3:.3f} ms (reference {METER.NOMINAL_S * 1e3:.3f} ms)")
    print(f"rankings checked {checker.checked}  mismatched {checker.mismatched}")
    print(f"ranking checksum {checker.checksum}")
    print(f"write-state digest (round 1) {first.digest}")
    print("timed traffic by category (round 1) " + json.dumps(traffic_delta(first), sort_keys=True))
    print(f"failed_share {failed / attempted if attempted else 0.0:.6f} ({failed} of {attempted})")
    for error in sorted({e for r in rounds for e in r.errors})[:10]:
        print(f"error {error}")

    if tracer is not None:
        values = per_layer(tracer, rounds[1], rounds[0])
        catalogue = PER_LAYER
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(span_file)
        print(f"spans written to {span_file.relative_to(ROOT)}")
    else:
        values = end_to_end(workload, rounds, rss)
        catalogue = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in catalogue}
    for name, unit in catalogue:
        print(f"metric {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
