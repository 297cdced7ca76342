import json
import math

import pytest

from qpusched.allocator import AllocationError, RegionStats
from qpusched.chip import Chip, CouplingGraph, QubitSpec, generate_grid
from qpusched.metrics import EmptyTraceError, occupancy_timeline
from qpusched.scheduler import SchedulerState
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


def timeline_qubit_seconds(trace, chip) -> float:
    """Timeline-side accounting: integral of owned qubits over the makespan."""
    return math.fsum(owned * (t1 - t0) for t0, t1, owned, _ in occupancy_timeline(trace, chip))


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


def chip_json(chip_doc: dict) -> str:
    return json.dumps(chip_doc)
