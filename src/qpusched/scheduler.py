"""Queue-ordering policies and shot-boundary preemption rules.

Eight policies order the waiting queue:

  fcfs   -- submission time
  sjf    -- total service demand t_E = shots * t_e_shot
  qsjf   -- eta * t_E, with eta = n / N the single-program qubit fraction
  srtf   -- remaining service demand (preemptive)
  rr     -- ring order with a fixed quantum, counted in shots (preemptive)
  mfq    -- multilevel feedback: level quanta q, 2q, ..., run-to-completion
            at the bottom; demote on expiry, promote on aging (preemptive
            above the bottom level)
  hrrf   -- highest response ratio (t_wait + t_ser) / t_ser first
  qhrrf  -- highest quantum response ratio (t_wait + eta * t_ser) / t_ser first

Priority keys are tuples; SMALLER sorts first. Every key ends with
(t_sub, id), so orderings are total, deterministic, and replayable.
Waiting time is wall time minus accumulated running time, so preempted
jobs are not credited (or charged) for the time they actually ran.

Per-job state (remaining shots, run time, MFQ level, ring position) lives
in ``SchedulerState``. The engine registers each job with
``SchedulerState.add`` when it arrives, and the keys read the state by job
id, so keying a job that never arrived raises ``KeyError``.

The engine keeps its waiting jobs in a ``WaitingQueue``. Every key but
hrrf's and qhrrf's changes only when its job enters the queue, or when
MFQ aging resets its level, so the queue computes it then and inserts the
job in key order; a pass reads that order and those keys instead of
re-keying the queue. hrrf and qhrrf keys grow with the time, so they are
computed at every ordering.

Preemption may only land between shots. ``preemption_decision`` makes
SRTF's marks; the engine re-checks a mark at the running group's next
shot boundary and preempts only if it still holds. RR and MFQ quanta are
counted in shots, so the engine handles their expiries at shot
boundaries too, with the same boundary event.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .jsontypes import typed
from .workload import Job, service_demand

POLICY_NAMES = ("fcfs", "sjf", "qsjf", "srtf", "rr", "mfq", "hrrf", "qhrrf")
TIMED_POLICIES = ("hrrf", "qhrrf")  # keys that grow while a job waits


@dataclass(frozen=True)
class Policy:
    """A named scheduling policy plus its parameters."""

    name: str
    rr_quantum_shots: int = 100
    mfq_levels: int = 3
    mfq_base_quantum_shots: int = 100
    mfq_aging_s: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.lower())
        if self.name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.name!r}; expected one of {POLICY_NAMES}")
        try:
            for attr in ("rr_quantum_shots", "mfq_levels", "mfq_base_quantum_shots"):
                object.__setattr__(self, attr, typed(getattr(self, attr), int, attr))
        except TypeError as exc:
            raise ValueError(str(exc)) from exc
        if not math.isfinite(self.mfq_aging_s):
            raise ValueError(f"mfq_aging_s must be finite, got {self.mfq_aging_s}")
        if self.rr_quantum_shots < 1:
            raise ValueError("rr quantum must be at least one shot")
        if self.mfq_levels < 2:
            raise ValueError("mfq needs at least two levels")
        if self.mfq_base_quantum_shots < 1:
            raise ValueError("mfq base quantum must be at least one shot")
        if not self.mfq_aging_s > 0:
            raise ValueError("mfq aging threshold must be positive")

    def quantum_shots_for_level(self, level: int) -> int | None:
        """Shot quantum at an MFQ level; None at the bottom (run to completion)."""
        if level >= self.mfq_levels - 1:
            return None
        return self.mfq_base_quantum_shots * (2 ** level)


@dataclass
class JobState:
    """Mutable per-job bookkeeping owned by one simulation."""

    remaining_shots: int
    run_time: float = 0.0     # seconds actually spent executing
    mfq_level: int = 0
    rr_seq: int = 0           # ring position; reassigned when requeued


class SchedulerState:
    """Per-job states, keyed by job id, plus the round-robin ring counter."""

    def __init__(self):
        self.jobs: dict[int, JobState] = {}
        self._rr_counter = 0

    def next_rr_seq(self) -> int:
        self._rr_counter += 1
        return self._rr_counter

    def add(self, job: Job) -> JobState:
        """Register an arriving job: all its shots remain, last in the ring."""
        st = self.jobs[job.id] = JobState(remaining_shots=job.shots, rr_seq=self.next_rr_seq())
        return st

    def t_wait(self, job: Job, now: float) -> float:
        return max(0.0, now - job.t_sub - self.jobs[job.id].run_time)

    def remaining_demand(self, job: Job) -> float:
        return self.jobs[job.id].remaining_shots * job.t_e_shot


def eta(job: Job, n_qubits: int) -> float:
    """Qubit fraction n / N claimed by a single program, in (0, 1]."""
    if job.n > n_qubits:
        raise ValueError(f"oversized job: needs {job.n} qubits, chip has {n_qubits}")
    return job.n / n_qubits


def response_ratio(t_wait: float, t_ser: float) -> float:
    """(t_wait + t_ser) / t_ser; >= 1, grows as the job waits."""
    if t_ser <= 0:
        raise ValueError(f"service time must be positive, got {t_ser}")
    return (t_wait + t_ser) / t_ser


def q_response_ratio(t_wait: float, t_ser: float, eta_: float) -> float:
    """(t_wait + eta * t_ser) / t_ser; reduces to response_ratio at eta = 1."""
    if t_ser <= 0:
        raise ValueError(f"service time must be positive, got {t_ser}")
    return (t_wait + eta_ * t_ser) / t_ser


def priority_key(
    policy: Policy, job: Job, now: float, n_qubits: int, state: SchedulerState
) -> tuple:
    """Ordering key for a queued job; smaller sorts first.

    Ties always break by (t_sub, id).
    """
    st = state.jobs[job.id]
    name = policy.name
    if name == "fcfs":
        primary = job.t_sub
    elif name == "sjf":
        primary = service_demand(job)
    elif name == "qsjf":
        primary = eta(job, n_qubits) * service_demand(job)
    elif name == "srtf":
        primary = st.remaining_shots * job.t_e_shot
    elif name == "rr":
        primary = st.rr_seq
    elif name == "mfq":
        primary = st.mfq_level
    elif name == "hrrf":
        primary = -response_ratio(state.t_wait(job, now), service_demand(job))
    else:  # qhrrf
        primary = -q_response_ratio(
            state.t_wait(job, now), service_demand(job), eta(job, n_qubits)
        )
    return (primary, job.t_sub, job.id)


class WaitingQueue:
    """The waiting jobs of one simulation, with their priority keys by id.

    Keys that do not grow with the time are computed by ``push`` and keep
    ``jobs`` in key order. hrrf and qhrrf keys are computed by ``ordered``,
    which sorts in place: the previous order is nearly sorted already.
    """

    def __init__(self, policy: Policy, n_qubits: int, state: SchedulerState):
        self.policy = policy
        self.n_qubits = n_qubits
        self.state = state
        self.timed = policy.name in TIMED_POLICIES
        self.jobs: list[Job] = []
        self.keys: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def _key(self, job: Job) -> tuple:
        return self.keys[job.id]

    def push(self, job: Job, now: float) -> None:
        """Queue ``job``, keyed by its state now."""
        if self.timed:
            self.jobs.append(job)
            return
        self.keys[job.id] = priority_key(self.policy, job, now, self.n_qubits, self.state)
        bisect.insort(self.jobs, job, key=self._key)

    def remove(self, ids: set[int]) -> None:
        """Take the jobs with ``ids`` out, keeping the others' order."""
        self.jobs = [j for j in self.jobs if j.id not in ids]
        for jid in ids:
            del self.keys[jid]

    def rekey(self, jobs: Sequence[Job], now: float) -> None:
        """Move queued ``jobs``, whose keys changed, to their new places."""
        self.remove({j.id for j in jobs})
        for job in jobs:
            self.push(job, now)

    def ordered(self, now: float) -> list[Job]:
        """The queue in priority order, as a new list."""
        if self.timed:
            for j in self.jobs:
                self.keys[j.id] = priority_key(self.policy, j, now, self.n_qubits, self.state)
            self.jobs.sort(key=self._key)
        return list(self.jobs)


def order_queue(
    policy: Policy,
    queue: WaitingQueue,
    now: float,
    n_qubits: int,
    state: SchedulerState,
) -> list[Job]:
    """Queue sorted by priority, as a new list: the queue's kept order.

    The queue was made with this policy, chip size and state.
    """
    return queue.ordered(now)


def preemption_decision(
    policy: Policy,
    running: Mapping[int, float],
    queue: Sequence[Job],
    now: float,
    state: SchedulerState,
) -> set[int]:
    """Group ids to preempt at their next shot boundary.

    ``running`` maps each running group's id to its remaining demand. Only
    SRTF marks groups here: those whose remaining demand is strictly
    above some queued job's remaining service demand. All other policies
    return the empty set; RR and MFQ preempt at quantum expiry in the
    engine, when the queue is non-empty. The engine calls this both to
    mark groups and to re-check a mark at its shot boundary.
    """
    if policy.name != "srtf" or not queue:
        return set()
    shortest = min(state.remaining_demand(j) for j in queue)
    return {gid for gid, demand in running.items() if shortest < demand}
