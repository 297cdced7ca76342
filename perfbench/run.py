#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the qpusched simulator.

Run from the repository root:

    python3 perfbench/run.py --workload grow-wide --seed 1 --seconds 35 --trace 0

and test the benchmark's own machinery with
``PYTHONPATH=src python3 -m pytest -q perfbench``.

The benchmark builds its own seeded inputs (see ``inputs.py``) and drives
the simulator through its public API against the ``src/`` tree of the
checkout it sits in. Every simulation's trace is checked (``check.py``);
a simulation that fails the check or raises counts as failed.

``--trace 0`` prints the end-to-end metrics:

  setup_s          median over fresh processes of the cold chip build plus
                   ``chip.distances`` and its eccentricity
  jobs_per_ref_s   simulated jobs per reference second of ``qpusched.run``
                   plus ``Trace.to_jsonl``, warm, tracing off: each
                   simulation's host time is divided by the mean time of
                   the reference loop run just before and after it
                   (``reference.py``), so that drift in the speed of a
                   shared host cancels; the host jobs/s is printed too
  peak_rss_mb      ru_maxrss of this process, which runs only the workload
  sim_utilization  ``MetricsReport.utilization`` averaged over simulations
  sim_mean_wt      ``MetricsReport.mean_wt`` averaged over simulations

``--trace 1`` alternates untraced and traced simulations, prints the
per-layer metrics computed from spans recorded around calls into each
module (``spans.py``, ``layers.py``), and writes the spans to
``.bench_out/``.

Each simulation of a workload runs at least once; the loop then repeats
simulations until ``--seconds`` is spent, and every repeat must reproduce
the first run's trace digest. Host times are per-simulation medians. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment and the sha256 of every simulation's trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_source_tree() -> None:
    """Import qpusched from the checkout's ``src/``, or exit with a non-zero status."""
    if not (SRC / "qpusched" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qpusched sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qpusched

    if Path(qpusched.__file__).resolve().parent != SRC / "qpusched":
        sys.exit(f"perfbench: imported qpusched from {qpusched.__file__}, not {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_source_tree()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(bench.WORKLOADS)}")
    print("env", json.dumps(bench.environment()), flush=True)
    measure = bench.per_layer if args.trace else bench.end_to_end
    runner, metrics = measure(args.workload, args.seed, args.seconds)
    for sim, digest, report in zip(runner.sims, runner.digests, runner.reports):
        if report is not None:
            print(f"sim {sim.label} jobs={len(sim.config.workload.jobs)} sha256={digest} "
                  f"utilization={report.utilization!r} mean_wt={report.mean_wt!r}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
