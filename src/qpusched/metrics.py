"""Evaluation metrics computed from a completed simulation trace.

All metrics are pure post-processing over the immutable trace:

  throughput          completed jobs / makespan
  utilization         integral of owned qubits over time / (N * makespan)
  buffer_fraction     same integral over free qubits pinned next to a
                      running region (unusable while it runs)
  weighted turnaround (t_comp - t_sub) / t_E per job, t_E the job's own
                      service demand; merged or delayed jobs exceed 1
  pst estimate        analytic per-trial success proxy: product over the
                      final region of exp(-t_e/T_q) * (1 - readout_q)
  mean region ratio   average internal/total edge ratio over placements

Utilization and buffer fraction integrate piecewise-constant
(t0, t1, owned, buffer) occupancy spans. ``engine.run`` passes the spans
its own occupancy went through, which refused an overlapping or touching
region at every dispatch. Without spans, as for a parsed or hand-built
trace, ``occupancy_timeline`` rebuilds them by replaying the trace's
dispatch intervals through a fresh ``allocator.Occupancy``, whose
``place`` re-checks the buffer invariant; both give the same list.
Intervals with ``end == start`` hold no qubit-time and are skipped. The
benchmark's ``perfbench/check.py`` is the independent outside-in replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .allocator import Occupancy, RegionStats
from .chip import Chip
from .workload import service_demand

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .engine import JobRecord, Trace


class EmptyTraceError(ValueError):
    """Raised when a metric needs jobs or allocations the trace lacks."""


@dataclass(frozen=True)
class MetricsReport:
    throughput: float
    utilization: float
    buffer_fraction: float
    mean_wt: float
    median_wt: float
    p95_wt: float
    mean_pst: float
    mean_region_ratio: float
    makespan: float
    n_jobs: int
    wt_by_job: dict[int, float]
    pst_by_job: dict[int, float]

    def to_dict(self, include_per_job: bool = False) -> dict:
        out = {
            "throughput": self.throughput,
            "utilization": self.utilization,
            "buffer_fraction": self.buffer_fraction,
            "mean_wt": self.mean_wt,
            "median_wt": self.median_wt,
            "p95_wt": self.p95_wt,
            "mean_pst": self.mean_pst,
            "mean_region_ratio": self.mean_region_ratio,
            "makespan": self.makespan,
            "n_jobs": self.n_jobs,
        }
        if include_per_job:
            out["wt_by_job"] = {str(k): v for k, v in sorted(self.wt_by_job.items())}
            out["pst_by_job"] = {str(k): v for k, v in sorted(self.pst_by_job.items())}
        return out


def weighted_turnaround(record: "JobRecord") -> float:
    """Turnaround over service demand for one completed job."""
    if record.t_comp is None:
        raise EmptyTraceError(f"job {record.job.id} has not completed")
    return (record.t_comp - record.job.t_sub) / service_demand(record.job)


def makespan(trace: "Trace") -> float:
    """Last completion minus first submission; positive, since rates divide by it."""
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    first_sub = min(rec.job.t_sub for rec in records)
    last_comp = max(rec.t_comp for rec in records)
    if last_comp <= first_sub:
        raise EmptyTraceError("trace spans zero time")
    return last_comp - first_sub


def throughput(trace: "Trace") -> float:
    """Completed jobs per second of makespan."""
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    return len(records) / makespan(trace)


def occupancy_timeline(trace: "Trace", chip: Chip) -> list[tuple[float, float, int, int]]:
    """Piecewise-constant (t0, t1, owned, buffer) spans rebuilt from intervals.

    Spans cover [first submission, last completion]; releases at a
    breakpoint apply before placements at the same instant. Regions are
    placed with the roots of ``trace.allocations``; a region that overlaps
    or touches another raises ``AllocationError``.
    """
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    t_start = min(rec.job.t_sub for rec in records)
    t_end = max(rec.t_comp for rec in records)
    roots = {rec.group_id: rec.root for rec in trace.allocations}
    changes: list[tuple[float, int, int]] = []  # (time, 0=release/1=place, interval idx)
    for idx, iv in enumerate(trace.intervals):
        if iv.end is None:
            raise EmptyTraceError(f"group {iv.group_id} interval never closed")
        if iv.end > iv.start:
            changes.append((iv.start, 1, idx))
            changes.append((iv.end, 0, idx))
    changes.sort()
    occ = Occupancy(chip)
    spans: list[tuple[float, float, int, int]] = []
    prev_t = t_start
    for t, action, idx in [*changes, (t_end, -1, -1)]:
        if t > prev_t:
            spans.append((prev_t, t, occ.owned_count(), int(np.count_nonzero(occ.buffer_mask()))))
            prev_t = t
        if action == 1:
            iv = trace.intervals[idx]
            occ.place(iv.group_id, iv.region, roots[iv.group_id])
        elif action == 0:
            occ.release(trace.intervals[idx].group_id)
    return spans


def pst_estimate(record: "JobRecord", chip: Chip, t_q_mode: str = "t2") -> float:
    """Per-trial success proxy over the job's final region.

    Product over region qubits of exp(-t_e_group/T_q) * (1 - readout_q),
    with t_e_group the per-shot duration of the completing dispatch.
    """
    if record.t_comp is None or not record.dispatches:
        raise EmptyTraceError(f"job {record.job.id} has not completed")
    final = record.dispatches[-1]
    t_us = final.t_e_group * 1e6
    region = list(final.region)
    value = 1.0
    for coh, readout in zip(chip.coherence_array(t_q_mode)[region].tolist(),
                            chip.readout_array[region].tolist()):
        value *= math.exp(-t_us / coh) * (1.0 - readout)
    return value


def mean_region_ratio(trace: "Trace") -> float:
    """Mean internal/total edge ratio over all placements in the trace."""
    if not trace.allocations:
        raise EmptyTraceError("trace has no allocations")
    return float(np.mean([RegionStats(rec.r_i, rec.r_a).ratio for rec in trace.allocations]))


def compute_report(
    trace: "Trace",
    chip: Chip,
    t_q_mode: str = "t2",
    spans: list[tuple[float, float, int, int]] | None = None,
) -> MetricsReport:
    """Score a completed trace.

    ``spans`` are the occupancy spans the simulation recorded (see
    ``engine.run``); when they are None, the trace is replayed through
    ``occupancy_timeline``, which re-checks regions, buffers and roots.
    Either way the same spans are integrated with ``math.fsum``.
    """
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    wt = {rec.job.id: weighted_turnaround(rec) for rec in records}
    pst = {rec.job.id: pst_estimate(rec, chip, t_q_mode) for rec in records}
    wt_values = np.array([wt[k] for k in sorted(wt)])
    if spans is None:
        spans = occupancy_timeline(trace, chip)
    duration = makespan(trace)
    qubit_time = chip.n_qubits * duration
    return MetricsReport(
        throughput=len(records) / duration,
        utilization=math.fsum(o * (t1 - t0) for t0, t1, o, _ in spans) / qubit_time,
        buffer_fraction=math.fsum(b * (t1 - t0) for t0, t1, _, b in spans) / qubit_time,
        mean_wt=float(wt_values.mean()),
        median_wt=float(np.median(wt_values)),
        p95_wt=float(np.percentile(wt_values, 95)),
        mean_pst=float(np.mean([pst[k] for k in sorted(pst)])),
        mean_region_ratio=mean_region_ratio(trace),
        makespan=duration,
        n_jobs=len(records),
        wt_by_job=wt,
        pst_by_job=pst,
    )
