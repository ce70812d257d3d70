"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload sim-paper --seed 1999 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload again with benchmark-side spans and prints
the per-layer metrics, a self-time table and the tracing overhead.  The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the metric names and units are
those of ``BENCHMARK.json``.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys

from harness import OUT_DIR, BenchError, load_spec, render_result, require_program

WORKLOADS = ("sim-paper", "gateway")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        spec = load_spec()
        require_program()
        if args.workload == "sim-paper":
            import simwork as work
        else:
            import servework as work
        correct, attempted, failed, values, spans = work.run(
            args.workload, args.seed, args.seconds, bool(args.trace))
        for label, recorded in (spans or {}).items():
            recorded.dump(OUT_DIR / f"spans-{args.workload}-{label}.npz")
        line = render_result(spec, bool(args.trace), correct, attempted,
                             failed, values)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
