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
(t0, t1, owned, buffer) occupancy spans over [first submission, last
completion]. One rule makes them, ``OccupancyTimeline``: as the clock
leaves an instant, it samples the owned and buffer counts of an
``allocator.Occupancy`` if the set of placed groups changed since the
last sample. Group ids are unique per dispatch, so that set changes
across an instant exactly where a dispatch of nonzero length started or
ended; a dispatch that starts and ends at one instant, or a group placed
and evicted within a pass, leaves no trace. ``engine.run`` feeds the
timeline its own occupancy, which refused an overlapping or touching
region at every dispatch. Without spans, as for a parsed or hand-built
trace, ``occupancy_timeline`` feeds it a fresh ``Occupancy`` replaying
the trace's dispatch intervals, whose ``place`` re-checks the buffer
invariant. The benchmark's ``perfbench/check.py`` is the independent
outside-in replay.
"""

from __future__ import annotations

import dataclasses
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
        """The fields in declaration order; the per-job maps, keyed by
        string job id, only with ``include_per_job``."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, dict):
                out[f.name] = value
            elif include_per_job:
                out[f.name] = {str(k): v for k, v in sorted(value.items())}
        return out


def weighted_turnaround(record: "JobRecord") -> float:
    """Turnaround over service demand for one completed job."""
    if record.t_comp is None:
        raise EmptyTraceError(f"job {record.job.id} has not completed")
    return (record.t_comp - record.job.t_sub) / service_demand(record.job)


def _window(trace: "Trace") -> tuple[float, float]:
    """(first submission, last completion) over the completed jobs."""
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    return min(rec.job.t_sub for rec in records), max(rec.t_comp for rec in records)


def makespan(trace: "Trace") -> float:
    """Last completion minus first submission; positive, since rates divide by it."""
    first_sub, last_comp = _window(trace)
    if last_comp <= first_sub:
        raise EmptyTraceError("trace spans zero time")
    return last_comp - first_sub


def throughput(trace: "Trace") -> float:
    """Completed jobs per second of makespan."""
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    return len(records) / makespan(trace)


class OccupancyTimeline:
    """Samples of an occupancy, taken as the clock leaves each instant.

    ``leave(t)`` samples (t, owned, buffer) when the set of placed group
    ids differs from the one at the last sample, so placements and
    releases that cancel within an instant split no span.
    """

    def __init__(self, occupancy: Occupancy):
        self.occupancy = occupancy
        self._placed: set[int] = set()  # the placed group ids at the last sample
        self._samples: list[tuple[float, int, int]] = []

    def leave(self, t: float) -> None:
        occ = self.occupancy
        if occ.regions.keys() != self._placed:
            self._placed = set(occ.regions)
            self._samples.append(
                (t, occ.owned_count(), int(np.count_nonzero(occ.buffer_mask()))))

    def spans(self, trace: "Trace") -> list[tuple[float, float, int, int]]:
        """Piecewise-constant (t0, t1, owned, buffer) spans over [first
        submission, last completion], idle until the first sample; spans
        of zero length are dropped."""
        t_start, t_end = _window(trace)
        samples = self._samples
        if not samples or samples[0][0] > t_start:
            samples = [(t_start, 0, 0), *samples]
        ends = [t for t, _, _ in samples[1:]] + [t_end]
        return [(t0, t1, owned, buffer)
                for (t0, owned, buffer), t1 in zip(samples, ends) if t1 > t0]


def occupancy_timeline(trace: "Trace", chip: Chip) -> list[tuple[float, float, int, int]]:
    """Piecewise-constant (t0, t1, owned, buffer) spans rebuilt from intervals.

    Intervals of nonzero length are replayed through a fresh ``Occupancy``
    and an ``OccupancyTimeline``; releases at an instant apply before
    placements. Regions are placed with the roots of ``trace.allocations``;
    a region that overlaps or touches another raises ``AllocationError``.
    """
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
    timeline = OccupancyTimeline(occ)
    now = None
    for t, action, idx in changes:
        if t != now:
            timeline.leave(now)
            now = t
        iv = trace.intervals[idx]
        if action:
            occ.place(iv.group_id, iv.region, roots[iv.group_id])
        else:
            occ.release(iv.group_id)
    timeline.leave(now)
    return timeline.spans(trace)


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
