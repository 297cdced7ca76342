"""Deterministic discrete-event simulation loop.

Ties arrivals, queue ordering, merging, allocation, execution, and
shot-boundary preemption together. A scheduling pass (reorder queue,
select prefix, merge, allocate, start groups) runs at every arrival,
group completion and executed preemption. Events at equal times process
in a fixed kind order (completion < arrival < shot boundary), then by
group or job id, so a simulation is a pure function of its config:
identical configs produce byte-identical traces.

Preemption never lands mid-shot. One event kind, the shot boundary,
carries every preemption point. SRTF marks a running group when a
queued job's remaining demand undercuts the group's; the boundary event
lands at the group's next shot boundary and re-checks the mark there.
RR and MFQ schedule a boundary event where the quantum expires; there
MFQ demotes the members, and the group is preempted if the queue is
non-empty, else it is granted the next quantum (work conservation). A
preempted merged group dissolves: each member returns to the queue with
its own remaining shots, and members whose shots are already exhausted
complete at the boundary.

Shot ``k`` of a dispatch ends at ``_RunningGroup.boundary(k)``, the one
place its time is computed; completion, quantum expiry and SRTF marks are
pushed there. Shot counts binary-search the same boundaries and compare
them with ``now`` without a tolerance. IEEE multiplication and addition
are monotone, so the boundaries never decrease in ``k``, and a count
agrees with the event times on the heap at any absolute time.

The engine records the occupancy it held as the (t0, t1, owned, buffer)
spans that ``run`` scores: it feeds its ``Occupancy`` to a
``metrics.OccupancyTimeline`` and calls ``leave`` whenever the clock
leaves an instant, the one sampling rule that the trace replay of
``metrics.occupancy_timeline`` uses too.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field

from .allocator import Occupancy, Placement, allocate
from .chip import Chip, check_coherence_mode
from .merger import Group, group_by_exec_time, select_prefix
from .metrics import MetricsReport, OccupancyTimeline, compute_report
from .scheduler import (
    Policy,
    SchedulerState,
    WaitingQueue,
    order_queue,
    preemption_decision,
)
from .workload import Job, Workload


class SimulationError(RuntimeError):
    """Invalid simulation input or internal inconsistency."""


@dataclass(frozen=True)
class MergeConfig:
    enabled: bool = True
    alpha: float = 1.5
    backfill: bool = False
    by_total_time: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1):
            raise ValueError(f"merge alpha must be finite and >= 1, got {self.alpha}")


@dataclass(frozen=True)
class SimConfig:
    chip: Chip
    workload: Workload
    policy: Policy
    merge: MergeConfig = MergeConfig()
    exclusive: bool = False
    seed: int = 0
    t_q_mode: str = "t2"
    record_growth_steps: bool = False

    def __post_init__(self):
        check_coherence_mode(self.t_q_mode)


# event kind ranks; equal-time ties process in this order
COMPLETE, ARRIVAL, BOUNDARY = 0, 1, 2


@dataclass
class DispatchRecord:
    start: float
    group_id: int
    region: tuple[int, ...]
    t_e_group: float
    end: float | None = None
    shots_executed: int = 0


@dataclass
class JobRecord:
    job: Job
    t_comp: float | None = None
    preemptions: int = 0
    requeues: int = 0
    executed_shots: int = 0
    dispatches: list[DispatchRecord] = field(default_factory=list)


@dataclass
class GroupInterval:
    group_id: int
    start: float
    region: tuple[int, ...]
    end: float | None = None


@dataclass
class AllocationRecord:
    time: float
    group_id: int
    root: int
    region: tuple[int, ...]
    r_i: int
    r_a: int
    t_e_group: float
    member_ids: tuple[int, ...]
    steps: list | None = None  # growth steps, None unless they were recorded


class Trace:
    """Ordered event log plus per-job and per-allocation records."""

    def __init__(self, meta: dict):
        self.meta = meta
        self.events: list[dict] = []
        self.jobs: dict[int, JobRecord] = {}
        self.allocations: list[AllocationRecord] = []
        self.intervals: list[GroupInterval] = []

    def log(self, time: float, kind: str, **payload) -> None:
        self.events.append({"time": time, "kind": kind, **payload})

    def completed_jobs(self) -> list[JobRecord]:
        return [rec for rec in self.jobs.values() if rec.t_comp is not None]

    def to_jsonl(self) -> str:
        """Serialize the trace as JSON lines: meta, events, growth steps of
        the allocations that recorded them, then job summaries. A
        non-finite number raises ``ValueError``."""
        events = ({"type": "event", **ev} for ev in self.events)
        growth = (
            {
                "type": "growth",
                "group": rec.group_id,
                "root": rec.root,
                "steps": [dataclasses.asdict(s) for s in rec.steps],
            }
            for rec in self.allocations
            if rec.steps is not None
        )
        jobs = (
            {
                "type": "job",
                "id": jid,
                "n": rec.job.n,
                "shots": rec.job.shots,
                "t_sub": rec.job.t_sub,
                "t_e_shot": rec.job.t_e_shot,
                "t_comp": rec.t_comp,
                "preemptions": rec.preemptions,
                "requeues": rec.requeues,
                "executed_shots": rec.executed_shots,
                "dispatches": [
                    {
                        "start": d.start,
                        "end": d.end,
                        "group": d.group_id,
                        "t_e_group": d.t_e_group,
                        "shots_executed": d.shots_executed,
                        "region": list(d.region),
                    }
                    for d in rec.dispatches
                ],
            }
            for jid, rec in sorted(self.jobs.items())
        )
        docs = itertools.chain([{"type": "meta", **self.meta}], events, growth, jobs)
        encode = json.JSONEncoder(allow_nan=False).encode
        return "\n".join(map(encode, docs)) + "\n"


@dataclass
class _RunningGroup:
    """A dispatched group; its duration and shots are read from the group."""

    group: Group
    start: float
    interval: GroupInterval
    preempt_pending: bool = False  # an SRTF boundary event is scheduled

    def boundary(self, k: int) -> float:
        """The time shot ``k`` of this dispatch ends; the only shot clock."""
        return self.start + k * self.group.t_e_group


def remaining_demand(running: _RunningGroup, now: float) -> float:
    """Seconds of execution a running group still needs: remaining shots x t_e."""
    t_e, shots = running.group.t_e_group, running.group.shots_group
    done = bisect.bisect_right(range(1, shots + 1), now, key=running.boundary)
    return (shots - done) * t_e


class _Simulation:
    def __init__(self, config: SimConfig):
        self.config = config
        self.chip = config.chip
        self.n_qubits = config.chip.n_qubits
        self.policy = config.policy
        self.state = SchedulerState()
        self.occupancy = Occupancy(config.chip)
        self.queue = WaitingQueue(config.policy, self.n_qubits, self.state)
        self.running: dict[int, _RunningGroup] = {}
        self.heap: list[tuple] = []
        self.trace = Trace(
            {
                "chip": config.chip.name,
                "n_qubits": config.chip.n_qubits,
                "policy": config.policy.name,
                "n_jobs": len(config.workload.jobs),
                "seed": config.seed,
                "exclusive": config.exclusive,
                "merge_enabled": config.merge.enabled,
                "merge_alpha": config.merge.alpha,
            }
        )
        self._next_group_id = 0
        self.timeline = OccupancyTimeline(self.occupancy)
        self.spans: list[tuple[float, float, int, int]] = []

    # -- event machinery ---------------------------------------------------

    def _push(self, time: float, rank: int, key: int, payload=None) -> None:
        heapq.heappush(self.heap, (time, rank, key, payload))

    def run(self) -> Trace:
        for job in self.config.workload.jobs:
            if job.n > self.n_qubits:
                raise SimulationError(
                    f"job {job.id} demands {job.n} qubits, chip has {self.n_qubits}"
                )
        for job in self.config.workload.jobs:
            self._push(job.t_sub, ARRIVAL, job.id, job)
        now = None
        while self.heap:
            time, rank, key, payload = heapq.heappop(self.heap)
            if time != now:
                self.timeline.leave(now)
                now = time
            if rank == ARRIVAL:
                # drain simultaneous arrivals so one pass sees them all
                batch = [payload]
                while self.heap and self.heap[0][0] == time and self.heap[0][1] == ARRIVAL:
                    batch.append(heapq.heappop(self.heap)[3])
                self._on_arrivals(time, batch)
            elif rank == COMPLETE:
                if key in self.running:
                    self._finish_group(key, time)
                    self._pass(time)
            else:
                self._on_boundary(time, key, payload)
        self.timeline.leave(now)
        incomplete = [jid for jid, rec in self.trace.jobs.items() if rec.t_comp is None]
        if incomplete or len(self.trace.jobs) != len(self.config.workload.jobs):
            raise SimulationError(f"simulation drained with incomplete jobs: {incomplete}")
        if self.trace.jobs:
            self.spans = self.timeline.spans(self.trace)
        return self.trace

    def _on_arrivals(self, now: float, jobs: list[Job]) -> None:
        for job in jobs:
            self.state.add(job)
            self.trace.jobs[job.id] = JobRecord(job=job)
            self.queue.push(job, now)
            self.trace.log(now, "arrival", job=job.id, n=job.n, shots=job.shots)
        self._pass(now)

    def _on_boundary(self, now: float, gid: int, shot: int) -> None:
        """Shot ``shot`` of group ``gid`` ended where it may be preempted:
        an SRTF mark is re-checked, an RR or MFQ quantum has expired."""
        rg = self.running.get(gid)
        if rg is None:
            return
        if self.policy.name == "srtf":
            rg.preempt_pending = False
            running = {gid: remaining_demand(rg, now)}
            if gid not in preemption_decision(self.policy, running, self.queue, now, self.state):
                return  # the motivating job got served in the meantime
        else:
            if self.policy.name == "mfq":
                for member in rg.group.members:
                    st = self.state.jobs[member.id]
                    st.mfq_level = min(st.mfq_level + 1, self.policy.mfq_levels - 1)
            if not self.queue:
                self._start_quantum(rg, shot)
                return
        self._finish_group(gid, now, preempt_at=shot)
        self._pass(now)

    def _start_quantum(self, rg: _RunningGroup, start_shot: int) -> None:
        """Grant the group its policy's quantum from ``start_shot`` on and
        schedule the boundary where it expires, unless the quantum outlasts
        the dispatch."""
        quantum: int | None = None
        if self.policy.name == "rr":
            quantum = self.policy.rr_quantum_shots
        elif self.policy.name == "mfq":
            level = min(self.state.jobs[j.id].mfq_level for j in rg.group.members)
            quantum = self.policy.quantum_shots_for_level(level)
        if quantum is not None and start_shot + quantum < rg.group.shots_group:
            end = start_shot + quantum
            self._push(rg.boundary(end), BOUNDARY, rg.group.id, end)

    # -- group lifecycle ----------------------------------------------------

    def _finish_group(self, gid: int, now: float, preempt_at: int | None = None) -> None:
        """End a dispatch: completed, or preempted after shot ``preempt_at``."""
        rg = self.running.pop(gid)
        self.occupancy.release(gid)
        rg.interval.end = now
        done_shots = rg.group.shots_group if preempt_at is None else preempt_at
        requeued: list[int] = []
        completed: list[int] = []
        for member, entry in zip(rg.group.members, rg.group.member_shots):
            executed = min(done_shots, entry)
            st = self.state.jobs[member.id]
            st.remaining_shots = entry - executed
            st.run_time += now - rg.start
            rec = self.trace.jobs[member.id]
            rec.executed_shots += executed
            d = rec.dispatches[-1]
            d.end = now
            d.shots_executed = executed
            if st.remaining_shots == 0:
                rec.t_comp = now
                completed.append(member.id)
            else:
                rec.preemptions += 1
                st.rr_seq = self.state.next_rr_seq()
                self.queue.push(member, now)
                requeued.append(member.id)
        kind = "group_complete" if preempt_at is None else "preempt"
        self.trace.log(
            now, kind, group=gid, shots_done=done_shots,
            completed=completed, requeued=requeued,
        )

    def _start_group(self, placement: Placement, now: float) -> None:
        group = placement.group
        region = placement.region
        interval = GroupInterval(group_id=group.id, start=now, region=region)
        self.trace.intervals.append(interval)
        rg = _RunningGroup(group=group, start=now, interval=interval)
        self.running[group.id] = rg
        self._push(rg.boundary(group.shots_group), COMPLETE, group.id)
        self._start_quantum(rg, 0)
        for job in group.members:
            self.trace.jobs[job.id].dispatches.append(
                DispatchRecord(
                    start=now, group_id=group.id, region=region, t_e_group=group.t_e_group
                )
            )
        self.trace.allocations.append(
            AllocationRecord(
                time=now,
                group_id=group.id,
                root=placement.root,
                region=region,
                r_i=placement.stats.r_i,
                r_a=placement.stats.r_a,
                t_e_group=group.t_e_group,
                member_ids=tuple(j.id for j in group.members),
                steps=placement.steps if self.config.record_growth_steps else None,
            )
        )
        self.trace.log(
            now, "dispatch", group=group.id, members=[j.id for j in group.members],
            root=placement.root, region=list(region),
            r_i=placement.stats.r_i, r_a=placement.stats.r_a,
            shots=group.shots_group, t_e_group=group.t_e_group,
        )

    # -- the scheduling pass --------------------------------------------------

    def _mfq_aging(self, now: float) -> None:
        aged = []
        for job in self.queue:
            st = self.state.jobs[job.id]
            if st.mfq_level > 0 and self.state.t_wait(job, now) > self.policy.mfq_aging_s:
                st.mfq_level = 0
                aged.append(job)
        if aged:
            self.queue.rekey(aged, now)

    def _pass(self, now: float) -> None:
        # exclusive mode starts nothing while a group runs, so it skips the
        # ordering; MFQ aging waits for the next pass, where it sets the
        # same levels, since t_wait only grows while a job is queued
        if self.queue and not (self.config.exclusive and self.running):
            if self.policy.name == "mfq":
                self._mfq_aging(now)
            ordered = order_queue(self.policy, self.queue, now, self.n_qubits, self.state)
            if self.config.exclusive:
                prefix = ordered[:1]
                merging = False
            else:
                free_cap = self.n_qubits - self.occupancy.owned_count()
                prefix = select_prefix(ordered, free_cap, self.config.merge.backfill)
                merging = self.config.merge.enabled
            if prefix:
                keys = self.queue.keys  # the keys order_queue ordered by
                shots = {j.id: self.state.jobs[j.id].remaining_shots for j in prefix}
                if merging:
                    groups = group_by_exec_time(
                        prefix,
                        self.config.merge.alpha,
                        by_total=self.config.merge.by_total_time,
                        start_id=self._next_group_id,
                        shots_by_id=shots,
                        keys_by_id=keys,
                    )
                else:  # the prefix keeps order_queue's order: priority order
                    groups = [
                        Group.build(self._next_group_id + i, [j], shots, keys)
                        for i, j in enumerate(prefix)
                    ]
                self._next_group_id += len(groups)
                outcome = allocate(
                    self.chip,
                    self.occupancy,
                    groups,
                    t_q_mode=self.config.t_q_mode,
                    record_steps=self.config.record_growth_steps,
                )
                placed_ids: set[int] = set()
                for p in outcome.placed:
                    self._start_group(p, now)
                    placed_ids.update(j.id for j in p.group.members)
                for conflict in outcome.conflicts:
                    self.trace.jobs[conflict["requeued_job"]].requeues += 1
                    self.trace.log(now, "requeue", **conflict)
                if placed_ids:
                    self.queue.remove(placed_ids)
        if self.policy.name == "srtf" and self.queue and self.running:
            running = {gid: remaining_demand(rg, now) for gid, rg in self.running.items()}
            for gid in sorted(
                preemption_decision(self.policy, running, self.queue, now, self.state)
            ):
                self._schedule_preempt(gid, now)

    def _schedule_preempt(self, gid: int, now: float) -> None:
        rg = self.running[gid]
        if rg.preempt_pending:
            return
        shots = rg.group.shots_group
        # the next shot boundary at or after now, counted from shot 1: a
        # freshly started group always executes at least one shot, otherwise
        # a mark at its own dispatch instant would preempt it with zero
        # progress and the pass could loop at one timestamp forever
        k = 1 + bisect.bisect_left(range(1, shots + 1), now, key=rg.boundary)
        if k >= shots:
            return  # would land at completion; let it finish
        rg.preempt_pending = True
        self._push(rg.boundary(k), BOUNDARY, gid, k)


def run(config: SimConfig) -> tuple[Trace, MetricsReport]:
    """Simulate the config to quiescence and compute its metrics."""
    sim = _Simulation(config)
    trace = sim.run()
    report = compute_report(trace, config.chip, t_q_mode=config.t_q_mode, spans=sim.spans)
    return trace, report
