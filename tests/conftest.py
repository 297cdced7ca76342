import json
import math

import pytest

from qpusched.chip import Chip, CouplingGraph, QubitSpec, generate_grid
from qpusched.metrics import occupancy_timeline
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


def timeline_qubit_seconds(trace, chip) -> float:
    """Timeline-side accounting: integral of owned qubits over the makespan."""
    return math.fsum(owned * (t1 - t0) for t0, t1, owned, _ in occupancy_timeline(trace, chip))


def make_job(jid=0, n=2, shots=100, t_sub=0.0, t_e=0.001) -> Job:
    return Job(id=jid, n=n, shots=shots, t_sub=t_sub, t_e_shot=t_e)


def chip_json(chip_doc: dict) -> str:
    return json.dumps(chip_doc)
