"""Seeded inputs of the three benchmark workloads.

Every workload is a chip plus a fixed list of simulation configs drawn
from the run seed; the simulator only ever sees the generated ``Chip``,
``Workload`` and ``SimConfig`` objects. The chip's calibration noise uses
a constant seed, so the chip (and the set-up cost it implies) is the same
on every run, while the job streams change with ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from qpusched import (
    Chip,
    CouplingGraph,
    Distribution,
    MergeConfig,
    Policy,
    QubitSpec,
    SimConfig,
    Workload,
    WorkloadSpec,
    default_spec,
    generate_grid,
    generate_poisson_workload,
)
from qpusched.scheduler import POLICY_NAMES

CHIP_NOISE_SEED = 7


def heavy_hex(rows: int = 12, cols: int = 12, noise_seed: int = CHIP_NOISE_SEED) -> Chip:
    """Heavy-hex style chip: a site lattice with one coupler qubit per link.

    Site (r, c) links to (r, c+1), and to (r+1, c) when r+c is even. Sites
    are qubits 0..rows*cols-1 in row-major order; the coupler on the k-th
    link is qubit rows*cols+k. Calibration is jittered like
    ``generate_grid``'s noise (t2 by +-20%, readout error by +-50%).
    """
    links = []
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            if c + 1 < cols:
                links.append((s, s + 1))
            if r + 1 < rows and (r + c) % 2 == 0:
                links.append((s, s + cols))
    n_sites = rows * cols
    edges = []
    for k, (a, b) in enumerate(links):
        coupler = n_sites + k
        edges += [(a, coupler), (coupler, b)]
    n = n_sites + len(links)
    rng = np.random.default_rng(noise_seed)
    specs = []
    for q in range(n):
        t2 = 100.0 * rng.uniform(0.8, 1.2)
        ro = float(np.clip(0.01 * rng.uniform(0.5, 1.5), 1e-9, 1.0))
        specs.append(QubitSpec(id=q, t2_us=t2, readout_error=ro))
    return Chip(
        name=f"heavy-hex-{rows}x{cols}",
        graph=CouplingGraph(n_qubits=n, edges=tuple(edges)),
        specs=tuple(specs),
    )


def small_jobs(n_qubits: int, arrival_rate: float, horizon: float, seed: int) -> WorkloadSpec:
    """Jobs of 2-8 qubits with ``default_spec``'s shot and duration ranges."""
    return WorkloadSpec(
        arrival_rate=arrival_rate,
        horizon=horizon,
        qubit_dist=Distribution("int_uniform", low=2, high=8),
        shots_dist=Distribution("int_uniform", low=100, high=1000),
        t_e_dist=Distribution("uniform", low=0.0005, high=0.005),
        seed=seed,
    )


def first_jobs(spec: WorkloadSpec, count: int) -> Workload:
    """The first ``count`` arrivals of the spec's Poisson stream.

    A fixed job count, rather than a fixed horizon, keeps the Poisson
    spread of the number of jobs out of the host-time figures.
    """
    jobs = generate_poisson_workload(spec).jobs[:count]
    if len(jobs) < count:
        raise ValueError(f"stream of seed {spec.seed} has {len(jobs)} < {count} jobs")
    return Workload(jobs=jobs, horizon=jobs[-1].t_sub)


def sub_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent stream seeds derived from the run seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


@dataclass(frozen=True)
class Sim:
    label: str
    config: SimConfig


@dataclass(frozen=True)
class WorkloadDef:
    """A chip plus ``streams`` job streams, each simulated under ``configs``."""

    build_chip: Callable[[], Chip]
    job_spec: Callable[[int, float, float, int], WorkloadSpec]  # (n_qubits, rate, horizon, seed)
    rate: float
    jobs: int  # per stream
    streams: int
    configs: Callable[[Chip, Workload, int], list[tuple[str, SimConfig]]]

    def build_sims(self, chip: Chip, seed: int) -> list[Sim]:
        sims = []
        for s in sub_seeds(seed, self.streams):
            # four times the expected span: a shorter stream has vanishing odds
            spec = self.job_spec(chip.n_qubits, self.rate, 4.0 * self.jobs / self.rate, s)
            wl = first_jobs(spec, self.jobs)
            sims += [Sim(f"{label}/{s}", cfg) for label, cfg in self.configs(chip, wl, s)]
        return sims


MERGE = MergeConfig(enabled=True, alpha=1.5)

# Stream sizes keep one pass over a workload near 25 s of host time on a
# 2-core x86 machine with the numpy kernels, while giving each run enough
# streams that the spread between seeds stays small.
WORKLOADS: dict[str, WorkloadDef] = {
    # wide regions: greedy growth is most of the host time, and the
    # 1024-qubit distance matrix dominates set-up
    "grow-wide": WorkloadDef(
        build_chip=lambda: generate_grid(32, 32, noise_seed=CHIP_NOISE_SEED),
        job_spec=default_spec,
        rate=5.0,
        jobs=15,  # shorter streams, more of them: a run's cost spreads less between seeds
        streams=30,
        configs=lambda chip, wl, s: [
            ("qhrrf", SimConfig(chip=chip, workload=wl, policy=Policy("qhrrf"), merge=MERGE, seed=s)),
        ],
    ),
    # a burst of small jobs on a sparse chip: the buffer rule makes packing
    # stall and restart many times per allocation. Host cost per stream is
    # chaotic in the job draw (spread ~30% between streams), so the chip is
    # the 148-qubit heavy-hex and bursts are 28 jobs: that keeps more than
    # five restarts per allocation while a run averages over 40 streams.
    "pack-dense": WorkloadDef(
        build_chip=lambda: heavy_hex(8, 8),
        job_spec=small_jobs,
        rate=200.0,
        jobs=28,
        streams=40,
        configs=lambda chip, wl, s: [
            ("rr", SimConfig(chip=chip, workload=wl, policy=Policy("rr", rr_quantum_shots=100),
                             merge=MERGE, seed=s)),
        ],
    ),
    # one program at a time keeps the whole stream queued: queue ordering,
    # root choice over every free qubit, and (rr, mfq) many dispatch intervals
    "queue-deep": WorkloadDef(
        build_chip=lambda: generate_grid(16, 16, noise_seed=CHIP_NOISE_SEED),
        job_spec=small_jobs,
        rate=100.0,
        jobs=100,
        streams=5,
        configs=lambda chip, wl, s: [
            (name, SimConfig(chip=chip, workload=wl, policy=Policy(name), exclusive=True, seed=s))
            for name in POLICY_NAMES
        ],
    ),
}
