"""Submitted quantum programs and Poisson-arrival workload generation.

A job is the tuple a user hands the cloud queue: qubit demand, measurement
shots, submission time, and the per-shot execution time (one initialize +
evolve + measure cycle, in seconds). The full service demand of a job is
``shots * t_e_shot``.

Workload files are JSON lines, one job per line::

    {"id": 0, "n": 4, "shots": 100, "t_sub": 0.0, "t_e_shot": 0.001}

Synthetic workloads draw i.i.d. exponential inter-arrival gaps (a Poisson
arrival process) and job attributes from configurable bounded
distributions. Generation is a pure function of the spec: the RNG is
pinned to numpy's seeded PCG64 stream, so identical specs produce
byte-identical workloads on any platform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .jsontypes import typed


class WorkloadError(ValueError):
    """Malformed or inconsistent workload description."""


@dataclass(frozen=True)
class Job:
    """One submitted quantum program."""

    id: int
    n: int            # qubit demand
    shots: int        # measurement repetitions
    t_sub: float      # submission time, seconds
    t_e_shot: float   # per-shot duration incl. init + measurement, seconds

    def __post_init__(self):
        try:
            for attr in ("id", "n", "shots"):  # counts are integral, stored as int
                object.__setattr__(self, attr, typed(getattr(self, attr), int, attr))
        except TypeError as exc:
            raise WorkloadError(f"job {self.id!r}: {exc}") from exc
        if self.n < 1:
            raise WorkloadError(f"job {self.id}: qubit demand must be >= 1, got {self.n}")
        if self.shots < 1:
            raise WorkloadError(f"job {self.id}: shots must be >= 1, got {self.shots}")
        if not (math.isfinite(self.t_e_shot) and self.t_e_shot > 0):
            raise WorkloadError(
                f"job {self.id}: t_e_shot must be positive and finite, got {self.t_e_shot}"
            )
        if not (math.isfinite(self.t_sub) and self.t_sub >= 0):
            raise WorkloadError(f"job {self.id}: t_sub must be finite and >= 0, got {self.t_sub}")


def service_demand(job: Job) -> float:
    """Total execution and collection time of a job: shots * t_e_shot."""
    return job.shots * job.t_e_shot


@dataclass(frozen=True)
class Workload:
    """Jobs sorted by submission time, with the generation horizon."""

    jobs: tuple[Job, ...]
    horizon: float

    def __post_init__(self):
        ids = set()
        prev = -1.0
        for job in self.jobs:
            if job.id in ids:
                raise WorkloadError(f"duplicate job id {job.id}")
            ids.add(job.id)
            if job.t_sub < prev:
                raise WorkloadError("jobs must be sorted by t_sub")
            prev = job.t_sub

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class Distribution:
    """Bounded sampling distribution for job attributes.

    kinds:
      int_uniform  -- integers in [low, high], inclusive
      uniform      -- reals in [low, high)
      choice       -- one of ``values``, optionally weighted
    """

    kind: str
    low: float | None = None
    high: float | None = None
    values: tuple | None = None
    weights: tuple | None = None

    def __post_init__(self):
        numbers = [x for x in (self.low, self.high) if x is not None]
        numbers += [*(self.values or ()), *(self.weights or ())]
        if not all(isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)
                   for x in numbers):
            raise WorkloadError(
                f"{self.kind} distribution has a non-finite or non-numeric parameter")
        if self.kind in ("int_uniform", "uniform"):
            if self.low is None or self.high is None:
                raise WorkloadError(f"{self.kind} distribution needs low and high")
            if self.high < self.low:
                raise WorkloadError(
                    f"empty support: low={self.low} > high={self.high}"
                )
            if self.kind == "int_uniform" and not (
                float(self.low).is_integer() and float(self.high).is_integer()
            ):
                raise WorkloadError(
                    f"int_uniform bounds must be integers, got low={self.low}, high={self.high}"
                )
        elif self.kind == "choice":
            if not self.values:
                raise WorkloadError("choice distribution needs a non-empty values list")
            if self.weights is not None:
                if len(self.weights) != len(self.values):
                    raise WorkloadError("weights must match values in length")
                if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                    raise WorkloadError("weights must be non-negative with positive sum")
        else:
            raise WorkloadError(f"unknown distribution kind {self.kind!r}")

    def sample(self, rng: np.random.Generator):
        if self.kind == "int_uniform":
            return int(rng.integers(int(self.low), int(self.high) + 1))
        if self.kind == "uniform":
            return float(rng.uniform(self.low, self.high))
        p = None
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            p = w / w.sum()
        idx = int(rng.choice(len(self.values), p=p))
        return self.values[idx]

    @property
    def support_min(self):
        return self.low if self.kind in ("int_uniform", "uniform") else min(self.values)

    @property
    def support_max(self):
        return self.high if self.kind in ("int_uniform", "uniform") else max(self.values)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind in ("int_uniform", "uniform"):
            out["low"] = self.low
            out["high"] = self.high
        else:
            out["values"] = list(self.values)
            if self.weights is not None:
                out["weights"] = list(self.weights)
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "Distribution":
        try:
            return cls(
                kind=doc["kind"],
                low=doc.get("low"),
                high=doc.get("high"),
                values=tuple(doc["values"]) if "values" in doc else None,
                weights=tuple(doc["weights"]) if "weights" in doc else None,
            )
        except (KeyError, TypeError) as exc:
            raise WorkloadError(f"malformed distribution {doc!r}: {exc!r}") from exc


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic Poisson workload."""

    arrival_rate: float           # jobs per second
    horizon: float                # seconds of arrivals
    qubit_dist: Distribution
    shots_dist: Distribution
    t_e_dist: Distribution
    seed: int = 0

    def __post_init__(self):
        # an infinite rate or horizon would make generation loop forever
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate > 0):
            raise WorkloadError(f"arrival rate must be finite and positive, got {self.arrival_rate}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise WorkloadError(f"horizon must be finite and positive, got {self.horizon}")
        for name, dist in (("qubit", self.qubit_dist), ("shots", self.shots_dist)):
            if dist.support_min < 1:
                raise WorkloadError(f"{name} distribution support must be >= 1")
            # generation truncates each draw with int(): a uniform's high would
            # never be drawn, and a choice value of 2.5 would become 2
            if dist.kind == "uniform":
                raise WorkloadError(f"{name} distribution must be int_uniform or choice, not uniform")
            if dist.kind == "choice" and not all(float(v).is_integer() for v in dist.values):
                raise WorkloadError(
                    f"{name} distribution values must be integers, got {list(dist.values)}"
                )
        if self.t_e_dist.support_min <= 0:
            raise WorkloadError("t_e distribution support must be positive")


def default_spec(n_qubits: int, arrival_rate: float, horizon: float, seed: int = 0) -> WorkloadSpec:
    """Desk-scale synthetic mix: n ~ U[2, N/4], shots ~ U[100, 1000], t_e ~ U[0.5ms, 5ms]."""
    n_hi = max(2, n_qubits // 4)
    return WorkloadSpec(
        arrival_rate=arrival_rate,
        horizon=horizon,
        qubit_dist=Distribution("int_uniform", low=2, high=n_hi),
        shots_dist=Distribution("int_uniform", low=100, high=1000),
        t_e_dist=Distribution("uniform", low=0.0005, high=0.005),
        seed=seed,
    )


def generate_poisson_workload(spec: WorkloadSpec) -> Workload:
    """Draw a workload from the spec; deterministic for a fixed seed.

    Inter-arrival gaps are i.i.d. exponential(arrival_rate); the first
    arrival past the horizon ends generation. Attributes are drawn per
    accepted job in a fixed order (n, shots, t_e_shot).
    """
    rng = np.random.default_rng(spec.seed)
    scale = 1.0 / spec.arrival_rate
    jobs = []
    t = 0.0
    next_id = 0
    while True:
        t += float(rng.exponential(scale))
        if t > spec.horizon:
            break
        n = int(spec.qubit_dist.sample(rng))
        shots = int(spec.shots_dist.sample(rng))
        t_e = float(spec.t_e_dist.sample(rng))
        jobs.append(Job(id=next_id, n=n, shots=shots, t_sub=t, t_e_shot=t_e))
        next_id += 1
    return Workload(jobs=tuple(jobs), horizon=spec.horizon)


def load_workload(source) -> Workload:
    """Parse a JSON-lines workload file; jobs come back sorted by t_sub.

    Values follow ``jsontypes.typed``: ``id``, ``n`` and ``shots`` are
    integral (``Job`` checks them), the times are numbers. A bad record
    raises WorkloadError naming its line.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    jobs = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            jobs.append(
                Job(
                    id=doc["id"],
                    n=doc["n"],
                    shots=doc["shots"],
                    t_sub=typed(doc["t_sub"], float, "t_sub"),
                    t_e_shot=typed(doc["t_e_shot"], float, "t_e_shot"),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, WorkloadError) as exc:
            raise WorkloadError(f"malformed workload record on line {lineno}: {exc}") from exc
    jobs.sort(key=lambda j: (j.t_sub, j.id))
    horizon = max((j.t_sub for j in jobs), default=0.0)
    return Workload(jobs=tuple(jobs), horizon=horizon)


def dump_workload(workload: Workload) -> str:
    """Workload as JSON lines; inverse of load_workload up to horizon."""
    lines = []
    for j in workload.jobs:
        lines.append(
            json.dumps(
                {"id": j.id, "n": j.n, "shots": j.shots, "t_sub": j.t_sub, "t_e_shot": j.t_e_shot}
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
