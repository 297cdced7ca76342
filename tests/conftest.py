import json
import math

import pytest

from qpusched.allocator import AllocationError, RegionStats
from qpusched.chip import Chip, CouplingGraph, QubitSpec, generate_grid
from qpusched.metrics import EmptyTraceError
from qpusched.scheduler import SchedulerState, WaitingQueue, order_queue
from qpusched.workload import Job


@pytest.fixture
def grid5() -> Chip:
    return generate_grid(5, 5)


@pytest.fixture
def grid4() -> Chip:
    return generate_grid(4, 4)


def uniform_chip(n_qubits: int, edges, t2=100.0, readout=0.01, name="test") -> Chip:
    specs = tuple(QubitSpec(id=i, t2_us=t2, readout_error=readout) for i in range(n_qubits))
    return Chip(name=name, graph=CouplingGraph(n_qubits=n_qubits, edges=tuple(edges)), specs=specs)


def path_chip(n: int) -> Chip:
    return uniform_chip(n, [(i, i + 1) for i in range(n - 1)], name=f"path-{n}")


def busy_qubit_seconds(trace) -> float:
    """Job-side accounting: sum over jobs of qubits x owned time."""
    terms = []
    for jid in sorted(trace.jobs):
        rec = trace.jobs[jid]
        for d in rec.dispatches:
            if d.end is None:
                raise EmptyTraceError(f"job {jid} has an open dispatch")
            terms.append(rec.job.n * (d.end - d.start))
    return math.fsum(terms)


def reference_spans(trace, chip) -> list[tuple[float, float, int, int]]:
    """The (t0, t1, owned, buffer) spans of a trace by brute force, with
    neither ``Occupancy`` nor ``OccupancyTimeline``: the window [first
    submission, last completion] is cut at every distinct start and end of
    an interval of nonzero length; a piece owns the regions of the
    intervals covering it, and a buffer is a free qubit with an owned
    neighbour."""
    records = trace.completed_jobs()
    if not records:
        raise EmptyTraceError("empty trace")
    if any(iv.end is None for iv in trace.intervals):
        raise EmptyTraceError("an interval never closed")
    held = [iv for iv in trace.intervals if iv.end > iv.start]
    cuts = sorted({min(rec.job.t_sub for rec in records), max(rec.t_comp for rec in records)}
                  | {iv.start for iv in held} | {iv.end for iv in held})
    nbrs = chip.graph.neighbors
    spans = []
    for t0, t1 in zip(cuts, cuts[1:]):
        owned = {q for iv in held if iv.start <= t0 and t1 <= iv.end for q in iv.region}
        buffer = sum(1 for q in range(chip.n_qubits)
                     if q not in owned and any(w in owned for w in nbrs[q]))
        spans.append((t0, t1, len(owned), buffer))
    return spans


def timeline_qubit_seconds(trace, chip) -> float:
    """Timeline-side accounting: integral of owned qubits over the makespan."""
    return math.fsum(owned * (t1 - t0) for t0, t1, owned, _ in reference_spans(trace, chip))


def region_ratio(chip: Chip, region) -> RegionStats:
    """Internal and incident edge counts of an arbitrary qubit set, by a
    scan of every edge: the oracle for the allocator's incremental counts."""
    qubits = {int(q) for q in region}
    if not qubits:
        raise AllocationError("empty region")
    if any(q < 0 or q >= chip.n_qubits for q in qubits):
        raise AllocationError("region qubit outside the chip")
    r_i = 0
    boundary = 0
    for a, b in chip.graph.edges:
        a_in = a in qubits
        b_in = b in qubits
        if a_in and b_in:
            r_i += 1
        elif a_in or b_in:
            boundary += 1
    return RegionStats(r_i=r_i, r_a=r_i + boundary)


def make_job(jid=0, n=2, shots=100, t_sub=0.0, t_e=0.001) -> Job:
    return Job(id=jid, n=n, shots=shots, t_sub=t_sub, t_e_shot=t_e)


def registered(jobs) -> SchedulerState:
    """A SchedulerState with every job of ``jobs`` added, as at arrival."""
    state = SchedulerState()
    for job in jobs:
        state.add(job)
    return state


def order_jobs(policy, jobs, now, n_qubits, state) -> list:
    """``order_queue`` over a fresh ``WaitingQueue`` with ``jobs`` pushed at ``now``."""
    queue = WaitingQueue(policy, n_qubits, state)
    for job in jobs:
        queue.push(job, now)
    return order_queue(policy, queue, now, n_qubits, state)


def chip_json(chip_doc: dict) -> str:
    return json.dumps(chip_doc)
