"""Measuring loops behind ``run.py``: end-to-end and per-layer runs.

Import only after ``run.use_source_tree()`` has put the checkout's
``src/`` first on the import path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import qpusched
from check import check_trace
from inputs import WORKLOADS, Sim
from layers import layer_metrics
from reference import REF_LOOP_S, reference_seconds
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 7
WARMUP_JOBS = 8

Metrics = dict[str, tuple[float, str]]


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the benchmark may run in a plain copy of the tree
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": qpusched.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(workload: str) -> float:
    """Median cold set-up time over fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


class Runner:
    """Runs a workload's simulations, checks them and counts failures."""

    def __init__(self, chip, sims: list[Sim]):
        self.chip = chip
        self.sims = sims
        self.digests: list[str | None] = [None] * len(sims)
        self.reports: list = [None] * len(sims)
        self.attempted = 0
        self.failed = 0

    def simulate(self, k: int, tracer: Tracer | None = None):
        """(host seconds, trace, jsonl text) of one simulation; None if it failed.

        The host time covers ``qpusched.run`` plus ``Trace.to_jsonl``. The
        first run of each simulation is checked in full; later runs must
        reproduce its trace digest.
        """
        cfg = self.sims[k].config
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                trace, report = qpusched.run(cfg)
                text = trace.to_jsonl()
                elapsed = time.perf_counter() - t0
            else:
                with tracer.wrapped():
                    t0 = time.perf_counter()
                    with tracer.span("engine.run"):
                        trace, report = qpusched.run(cfg)
                    with tracer.span("trace.jsonl"):
                        text = trace.to_jsonl()
                    elapsed = time.perf_counter() - t0
        except Exception as exc:  # a raising simulation is a failed operation
            self._fail(k, f"raised {type(exc).__name__}: {exc}")
            return None
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests[k] is None:
            problems = check_trace(trace, self.chip, (j.id for j in cfg.workload.jobs), report)
            if problems:
                self._fail(k, "; ".join(problems[:5]))
                return None
            self.digests[k] = digest
            self.reports[k] = report
        elif digest != self.digests[k]:
            self._fail(k, "trace differs from the first run of the same inputs")
            return None
        return elapsed, trace, text

    def _fail(self, k: int, why: str) -> None:
        self.failed += 1
        print(f"FAILED {self.sims[k].label}: {why}", file=sys.stderr)

    def loop(self, seconds: float, step) -> None:
        """Call ``step(k)`` on every simulation once, then repeat until the time is spent.

        A repeat is skipped when the median duration of its earlier calls
        would carry it past the deadline.
        """
        cost: list[list[float]] = [[] for _ in self.sims]
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            k = i % len(self.sims)
            if i >= len(self.sims) and time.perf_counter() + statistics.median(cost[k]) > deadline:
                break
            t0 = time.perf_counter()
            step(k)
            cost[k].append(time.perf_counter() - t0)
            i += 1


def jobs_per_s(sims: list[Sim], times: list[list[float]]) -> float:
    """Jobs over host seconds, taking each simulation's median time.

    With times in reference loops, the result is in jobs per reference loop.
    """
    jobs = sum(len(s.config.workload.jobs) for s, t in zip(sims, times) if t)
    host = sum(statistics.median(t) for t in times if t)
    return jobs / host if host else 0.0


def warm_up(sims: list[Sim]) -> None:
    """One untimed simulation over the first jobs of the first stream."""
    cfg = sims[0].config
    head = dataclasses.replace(cfg.workload, jobs=cfg.workload.jobs[:WARMUP_JOBS])
    qpusched.run(dataclasses.replace(cfg, workload=head))[0].to_jsonl()


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Runner, Metrics]:
    setup_s = measure_setup(workload)
    wl = WORKLOADS[workload]
    chip = wl.build_chip()
    chip.distances.eccentricity
    runner = Runner(chip, wl.build_sims(chip, seed))
    warm_up(runner.sims)
    times: list[list[float]] = [[] for _ in runner.sims]
    loops: list[list[float]] = [[] for _ in runner.sims]  # the same times in reference loops
    ref = [reference_seconds()]

    def step(k):
        before = ref[-1]
        done = runner.simulate(k)
        ref.append(reference_seconds())
        if done is not None:
            times[k].append(done[0])
            loops[k].append(2 * done[0] / (before + ref[-1]))

    runner.loop(seconds, step)
    print(f"host jobs_per_s={jobs_per_s(runner.sims, times)!r} "
          f"reference loop median={statistics.median(ref)!r} s")
    reports = [r for r in runner.reports if r is not None]
    return runner, {
        "setup_s": (setup_s, "s"),
        "jobs_per_ref_s": (jobs_per_s(runner.sims, loops) / REF_LOOP_S, "jobs/ref-s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_utilization": (_mean([r.utilization for r in reports]), "fraction"),
        "sim_mean_wt": (_mean([r.mean_wt for r in reports]), "ratio"),
    }


def per_layer(workload: str, seed: int, seconds: float) -> tuple[Runner, Metrics]:
    """Alternate untraced and traced runs of each simulation; metrics from the spans."""
    wl = WORKLOADS[workload]
    wl.build_chip().distances  # first BLAS call, untimed
    chip = wl.build_chip()
    t0 = time.perf_counter()
    hops = chip.distances.hops
    chip.distances.eccentricity
    distances_s = time.perf_counter() - t0
    runner = Runner(chip, wl.build_sims(chip, seed))
    warm_up(runner.sims)
    tracer = Tracer()
    plain: list[list[float]] = [[] for _ in runner.sims]
    traced: list[list[float]] = [[] for _ in runner.sims]
    runs: list[list[tuple]] = [[] for _ in runner.sims]  # (sim id, trace, text) per traced run

    def step(k):
        done = runner.simulate(k)
        if done is not None:
            plain[k].append(done[0])
        tracer.sim += 1
        done = runner.simulate(k, tracer)
        if done is not None:
            traced[k].append(done[0])
            runs[k].append((tracer.sim, *done[1:]))

    runner.loop(seconds, step)
    metrics = layer_metrics(tracer.spans, runs)
    metrics["chip.distances_s"] = (distances_s, "s")
    metrics["chip.distances_mb"] = (hops.nbytes / 1e6, "MB")
    traced_rate = jobs_per_s(runner.sims, traced)
    metrics["trace.overhead_ratio"] = (
        jobs_per_s(runner.sims, plain) / traced_rate if traced_rate else 0.0, "ratio")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    return runner, metrics


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0
