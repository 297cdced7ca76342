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

Occupancy over time is reconstructed here from the trace's dispatch
intervals rather than read from engine internals, so utilization checks
are an independent route over the same events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .allocator import buffer_mask
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
    """Last completion minus first submission."""
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    first_sub = min(rec.job.t_sub for rec in records)
    last_comp = max(rec.t_comp for rec in records)
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
    breakpoint apply before placements at the same instant.
    """
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    t_start = min(rec.job.t_sub for rec in records)
    t_end = max(rec.t_comp for rec in records)
    changes: list[tuple[float, int, int]] = []  # (time, 0=release/1=place, interval idx)
    for idx, iv in enumerate(trace.intervals):
        if iv.end is None:
            raise EmptyTraceError(f"group {iv.group_id} interval never closed")
        changes.append((iv.start, 1, idx))
        changes.append((iv.end, 0, idx))
    changes.sort(key=lambda c: (c[0], c[1], c[2]))
    owner = np.full(chip.n_qubits, -1, dtype=np.int64)
    spans: list[tuple[float, float, int, int]] = []
    prev_t = t_start
    pos = 0
    while pos <= len(changes):
        t = changes[pos][0] if pos < len(changes) else t_end
        if t > prev_t:
            owned = int((owner >= 0).sum())
            buffer = int(buffer_mask(chip, owner).sum())
            spans.append((prev_t, t, owned, buffer))
            prev_t = t
        if pos == len(changes):
            break
        _, action, idx = changes[pos]
        iv = trace.intervals[idx]
        arr = np.array(iv.region, dtype=np.int64)
        owner[arr] = iv.group_id if action == 1 else -1
        pos += 1
    return spans


def busy_qubit_seconds(trace: "Trace") -> float:
    """Job-side accounting: sum over jobs of qubits x owned time."""
    terms = []
    for jid in sorted(trace.jobs):
        rec = trace.jobs[jid]
        for d in rec.dispatches:
            if d.end is None:
                raise EmptyTraceError(f"job {jid} has an open dispatch")
            terms.append(rec.job.n * (d.end - d.start))
    return math.fsum(terms)


def _integrals(spans: list[tuple[float, float, int, int]]) -> tuple[float, float]:
    """Integrals over the timeline of owned and of buffer qubits."""
    owned = math.fsum(o * (t1 - t0) for t0, t1, o, _ in spans)
    buffer = math.fsum(b * (t1 - t0) for t0, t1, _, b in spans)
    return owned, buffer


def busy_integral(trace: "Trace", chip: Chip) -> float:
    """Timeline-side accounting: integral of owned qubits over the makespan."""
    return _integrals(occupancy_timeline(trace, chip))[0]


def utilization(trace: "Trace", chip: Chip) -> float:
    """Owned-qubit time over total qubit time; buffer qubits count as idle."""
    return busy_integral(trace, chip) / (chip.n_qubits * makespan(trace))


def buffer_fraction(trace: "Trace", chip: Chip) -> float:
    """Fraction of qubit time pinned as buffers next to running regions."""
    return _integrals(occupancy_timeline(trace, chip))[1] / (chip.n_qubits * makespan(trace))


def pst_estimate(record: "JobRecord", chip: Chip, t_q_mode: str = "t2") -> float:
    """Per-trial success proxy over the job's final region.

    Product over region qubits of exp(-t_e_group/T_q) * (1 - readout_q),
    with t_e_group the per-shot duration of the completing dispatch.
    """
    if record.t_comp is None or not record.dispatches:
        raise EmptyTraceError(f"job {record.job.id} has not completed")
    final = record.dispatches[-1]
    t_us = final.t_e_group * 1e6
    value = 1.0
    for q in final.region:
        spec = chip.specs[q]
        value *= math.exp(-t_us / spec.coherence_us(t_q_mode)) * (1.0 - spec.readout_error)
    return value


def mean_region_ratio(trace: "Trace") -> float:
    """Mean internal/total edge ratio over all placements in the trace."""
    if not trace.allocations:
        raise EmptyTraceError("trace has no allocations")
    ratios = []
    for rec in trace.allocations:
        ratios.append(1.0 if rec.r_a == 0 else rec.r_i / rec.r_a)
    return float(np.mean(ratios))


def compute_report(trace: "Trace", chip: Chip, t_q_mode: str = "t2") -> MetricsReport:
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    wt = {rec.job.id: weighted_turnaround(rec) for rec in records}
    pst = {rec.job.id: pst_estimate(rec, chip, t_q_mode) for rec in records}
    wt_values = np.array([wt[k] for k in sorted(wt)])
    owned, buffer = _integrals(occupancy_timeline(trace, chip))  # one replay for both
    qubit_time = chip.n_qubits * makespan(trace)
    return MetricsReport(
        throughput=throughput(trace),
        utilization=owned / qubit_time,
        buffer_fraction=buffer / qubit_time,
        mean_wt=float(wt_values.mean()),
        median_wt=float(np.median(wt_values)),
        p95_wt=float(np.percentile(wt_values, 95)),
        mean_pst=float(np.mean([pst[k] for k in sorted(pst)])),
        mean_region_ratio=mean_region_ratio(trace),
        makespan=makespan(trace),
        n_jobs=len(records),
        wt_by_job=wt,
        pst_by_job=pst,
    )
