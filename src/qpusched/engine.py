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

The trace is its events, and each fact is written once. The engine logs
through ``Trace.arrive``, ``dispatch``, ``end`` and ``requeue``, which
fold each event into the in-memory records (``JobRecord`` with its
counters and ``DispatchRecord``s, ``GroupInterval``, ``AllocationRecord``);
``Trace.from_jsonl`` calls the same methods on the events it reads, so
the records of a run and of its file are built by the same code. A pass
logs one ``requeue`` event per group that stalled, the conflict record of
``allocator.allocate``: the group, the members it shed in order, and
whether the rest of it was placed. Growth steps are not logged either:
``growth_steps`` regrows every dispatch of a trace, and so also checks
that its regions follow from the events.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field

from .allocator import AllocationError, GrowthStep, Occupancy, Placement, allocate, grow_region
from .chip import COHERENCE_MODES, Chip, check_coherence_mode
from .merger import Group, group_by_exec_time, select_prefix
from .metrics import MetricsReport, OccupancyTimeline, compute_report, trace_mode
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


class TraceFormatError(ValueError):
    """Text that ``Trace.from_jsonl`` cannot read as a trace."""


def _reject_constant(token: str):
    raise TraceFormatError(f"non-finite number {token} in trace")


# The value rules of trace fields. JSON reads an integer as int and any
# other number as float, and a trace is read as written, so nothing is
# converted: ids, shots and counts are ints, times are finite numbers (a
# per-shot duration also positive), and regions and id lists are lists
# of ints. A bool is never a number.

def _is_int(v) -> bool:
    return type(v) is int


def _is_time(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _is_duration(v) -> bool:
    return _is_time(v) and v > 0


def _is_ints(v) -> bool:
    return type(v) is list and all(type(x) is int for x in v)


def _is_flag(v) -> bool:
    return type(v) is bool


def _is_mode(v) -> bool:
    return v in COHERENCE_MODES


_META_FIELDS = {"n_qubits": _is_int, "n_jobs": _is_int, "t_q_mode": _is_mode}

_END_FIELDS = {"time": _is_time, "group": _is_int, "shots_done": _is_int,
               "completed": _is_ints, "requeued": _is_ints}
_EVENT_FIELDS = {  # event kind -> its fields and their rules
    "arrival": {"time": _is_time, "job": _is_int, "n": _is_int, "shots": _is_int,
                "t_e_shot": _is_duration},
    "dispatch": {"time": _is_time, "group": _is_int, "members": _is_ints, "root": _is_int,
                 "region": _is_ints, "r_i": _is_int, "r_a": _is_int, "shots": _is_int,
                 "t_e_group": _is_duration},
    "preempt": _END_FIELDS,
    "group_complete": _END_FIELDS,
    "requeue": {"time": _is_time, "group": _is_int, "requeued": _is_ints, "placed": _is_flag},
}


def _checked(doc: dict, fields: dict, what: str) -> dict:
    """``doc``, after checking that it has every one of ``fields`` and that
    each value keeps its field's rule."""
    for name, rule in fields.items():
        if not rule(doc[name]):
            raise TraceFormatError(f"{what} field {name!r} has the wrong value {doc[name]!r}")
    return doc


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


class Trace:
    """Ordered event log, and the per-job and per-dispatch records folded from it.

    The events are the trace. ``arrive``, ``dispatch``, ``end`` and
    ``requeue`` each log one event and fold it into the records: each
    job's ``JobRecord`` with its counters and ``DispatchRecord``s, and each
    dispatch's ``GroupInterval`` and ``AllocationRecord``. The engine calls
    them as it runs and ``from_jsonl`` as it reads a file.
    """

    def __init__(self, meta: dict):
        self.meta = meta
        self.events: list[dict] = []
        self.jobs: dict[int, JobRecord] = {}
        self.allocations: list[AllocationRecord] = []
        self.intervals: list[GroupInterval] = []
        # group -> (its shots, its interval, (record, dispatch record) per member)
        self._running: dict[int, tuple[int, GroupInterval, list]] = {}

    def arrive(self, job: Job) -> None:
        """Log ``job``'s arrival at its submission time and open its record."""
        self.events.append({"time": job.t_sub, "kind": "arrival", "job": job.id, "n": job.n,
                            "shots": job.shots, "t_e_shot": job.t_e_shot})
        self.jobs[job.id] = JobRecord(job)

    def dispatch(self, time: float, group: int, members: list[int], root: int, region,
                 r_i: int, r_a: int, shots: int, t_e_group: float) -> None:
        """Log the dispatch of ``group`` and open its interval, its allocation
        and a dispatch record for each member. Its growth steps are not
        logged: ``growth_steps`` regrows them from the events."""
        self.events.append({"time": time, "kind": "dispatch", "group": group, "members": members,
                            "root": root, "region": list(region), "r_i": r_i, "r_a": r_a,
                            "shots": shots, "t_e_group": t_e_group})
        region = tuple(region)
        interval = GroupInterval(group, time, region)
        self.intervals.append(interval)
        self.allocations.append(AllocationRecord(
            time, group, root, region, r_i, r_a, t_e_group, tuple(members)))
        records = []
        for jid in members:
            rec = self.jobs[jid]
            d = DispatchRecord(time, group, region, t_e_group)
            rec.dispatches.append(d)
            records.append((rec, d))
        self._running[group] = shots, interval, records

    def end(self, time: float, group: int, shots_done: int) -> None:
        """Log the end of ``group``'s dispatch after ``shots_done`` shots: a
        ``group_complete`` if it ran all of its shots, else a ``preempt``.
        Each member executed ``min(shots_done, its shots left)``; it
        completes if none are left, else it is preempted and requeued."""
        shots, interval, records = self._running.pop(group)
        interval.end = time
        completed: list[int] = []
        requeued: list[int] = []
        for rec, d in records:
            d.end = time
            d.shots_executed = min(shots_done, rec.job.shots - rec.executed_shots)
            rec.executed_shots += d.shots_executed
            if rec.executed_shots == rec.job.shots:
                rec.t_comp = time
                completed.append(rec.job.id)
            else:
                rec.preemptions += 1
                requeued.append(rec.job.id)
        self.events.append({"time": time, "kind": "group_complete" if shots_done == shots
                            else "preempt", "group": group, "shots_done": shots_done,
                            "completed": completed, "requeued": requeued})

    def requeue(self, time: float, group: int, requeued: list[int], placed: bool) -> None:
        """Log that stalled ``group`` shed ``requeued`` in a pass, and whether
        the rest of it was ``placed``; each shed job's count rises by one."""
        self.events.append({"time": time, "kind": "requeue", "group": group,
                            "requeued": requeued, "placed": placed})
        for jid in requeued:
            self.jobs[jid].requeues += 1

    def completed_jobs(self) -> list[JobRecord]:
        return [rec for rec in self.jobs.values() if rec.t_comp is not None]

    def to_jsonl(self) -> str:
        """Serialize the trace as JSON lines: the meta line, then the events.
        The job records and the growth steps are not written, since they
        follow from the events (see ``growth_steps``). A non-finite number
        raises ``ValueError``."""
        events = ({"type": "event", **ev} for ev in self.events)
        docs = itertools.chain([{"type": "meta", **self.meta}], events)
        encode = json.JSONEncoder(allow_nan=False).encode
        return "\n".join(map(encode, docs)) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The trace that ``to_jsonl`` wrote as ``text``; its exact inverse.

        The meta line is read as written, and each event is folded into the
        records by the method that logged it, so the jobs with their counters
        and dispatch records, the intervals and the allocations are those of
        the run. Raises ``TraceFormatError``, and no other error, for text
        that is not such a trace: a line that is not JSON, a ``NaN``,
        ``Infinity`` or ``-Infinity`` token, a first line that is not the meta
        line, a meta line without integer ``n_qubits`` and ``n_jobs`` or
        without a ``t_q_mode`` of ``chip.COHERENCE_MODES``, a line that is not
        an object, a line of unknown type (the ``job`` and ``growth`` lines of
        older formats too) or an event of unknown kind, a missing field or one
        whose value breaks its rule (``_EVENT_FIELDS``), a job that arrives
        twice, a trace whose arrivals are not the meta line's ``n_jobs``, a
        dispatch or ``requeue`` that names a job before its arrival, while it
        runs or after it completed, a group dispatched twice, a dispatch that
        is not that of its members on the chip (below), an end of a group
        that is not running or that ran no shot or more than its dispatch's
        ``shots``, an event that is not the one the fold logs for it (an
        extra field; a ``preempt`` that ran all of its dispatch's shots or a
        ``group_complete`` that did not; ``completed`` and ``requeued`` other
        than the members left without shots and with some, in member order),
        or a dispatch that never ends.

        A dispatch of the engine holds these facts, which follow from the
        chip (``n_qubits`` in the meta line) and the events before it:

        - it has members, and its region is a set of the chip's qubits that
          holds its root, with ``0 <= r_i <= r_a``;
        - ``len(region)`` is the sum of the members' ``n``;
        - ``shots`` is the most shots any member has left;
        - ``t_e_group`` is the longest member ``t_e_shot``.

        What it reads then has the types ``compute_report`` scores, which may
        still refuse a chip of another size (``ChipError``), regions that
        overlap or touch (``AllocationError``) or a trace without a span of
        time (``EmptyTraceError``).
        """
        try:
            return cls._read(text)
        except TraceFormatError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise TraceFormatError(f"malformed trace: {exc!r}") from exc

    @classmethod
    def _read(cls, text: str) -> "Trace":
        """``from_jsonl``'s reader, which lets a malformed field raise what it may."""
        decode = json.JSONDecoder(parse_constant=_reject_constant).decode
        docs = [decode(line) for line in text.splitlines()]
        if not docs or docs[0].pop("type", None) != "meta":
            raise TraceFormatError("a trace starts with its meta line")
        trace = cls(_checked(docs[0], _META_FIELDS, "meta"))
        n_qubits = trace.meta["n_qubits"]
        events: list[dict] = []
        for doc in docs[1:]:
            kind = doc.pop("type", None)
            if kind != "event":
                raise TraceFormatError(f"unknown trace line type {kind!r}")
            fields = _EVENT_FIELDS.get(doc["kind"])
            if fields is None:
                raise TraceFormatError(f"unknown event kind {doc['kind']!r}")
            events.append(_checked(doc, fields, doc["kind"]))
        dispatched: set[int] = set()  # group ids are unique per dispatch

        def waiting(jids: list[int]) -> None:
            for jid in jids:
                rec = trace.jobs.get(jid)
                if rec is None or rec.executed_shots == rec.job.shots or (
                        rec.dispatches and rec.dispatches[-1].end is None):
                    raise TraceFormatError(f"a {kind} names job {jid}, which is not waiting: "
                                           f"it has not arrived, is running or is done")

        for ev in events:
            kind, time = ev["kind"], ev["time"]
            if kind == "arrival":
                if ev["job"] in trace.jobs:
                    raise TraceFormatError(f"job {ev['job']} arrives twice")
                trace.arrive(Job(ev["job"], ev["n"], ev["shots"], time, ev["t_e_shot"]))
            elif kind == "dispatch":
                gid, region = ev["group"], ev["region"]
                if gid in dispatched:
                    raise TraceFormatError(f"group {gid} is dispatched twice")
                dispatched.add(gid)
                waiting(ev["members"])
                recs = [trace.jobs[jid] for jid in ev["members"]]
                # a nonempty region, since every member demands a qubit or more
                if not (recs and len(set(region)) == len(region) == sum(r.job.n for r in recs)
                        and 0 <= min(region) and max(region) < n_qubits
                        and ev["root"] in region and 0 <= ev["r_i"] <= ev["r_a"]
                        and ev["shots"] == max(r.job.shots - r.executed_shots for r in recs)
                        and ev["t_e_group"] == max(r.job.t_e_shot for r in recs)):
                    raise TraceFormatError(
                        f"the dispatch of group {gid} is not that of its members "
                        f"{ev['members']} on the {n_qubits}-qubit chip")
                trace.dispatch(time, gid, ev["members"], ev["root"], region, ev["r_i"],
                               ev["r_a"], ev["shots"], ev["t_e_group"])
            elif kind == "requeue":
                waiting(ev["requeued"])
                trace.requeue(time, ev["group"], ev["requeued"], ev["placed"])
            else:
                gid = ev["group"]
                if gid not in trace._running:
                    raise TraceFormatError(f"{kind} of group {gid}, which is not running")
                if not 1 <= ev["shots_done"] <= trace._running[gid][0]:
                    raise TraceFormatError(
                        f"{kind} of group {gid} after {ev['shots_done']} shots, not 1 to "
                        f"the {trace._running[gid][0]} of its dispatch")
                trace.end(time, gid, ev["shots_done"])
            if trace.events[-1] != ev:
                raise TraceFormatError(
                    f"the event {ev} is not what the events before it give: {trace.events[-1]}")
        if trace._running:
            raise TraceFormatError(f"the dispatch of group {min(trace._running)} never ends")
        if len(trace.jobs) != trace.meta["n_jobs"]:
            raise TraceFormatError(
                f"{len(trace.jobs)} jobs arrive in a trace of {trace.meta['n_jobs']}")
        return trace


def growth_steps(trace: Trace, chip: Chip) -> dict[int, list[GrowthStep]]:
    """The growth steps of every dispatch of ``trace``, by group, regrown on ``chip``.

    The events are replayed in log order through a fresh ``Occupancy``: a
    ``dispatch`` grows its region from its ``root`` to its size at its
    ``t_e_group``, under the trace's coherence mode (``metrics.trace_mode``),
    logging the steps, and places it; a ``preempt`` or ``group_complete``
    releases the group. Log order is the order in which the engine changed
    its occupancy, so each growth sees the state the allocator saw, also
    where a dispatch starts and ends at one instant. Raises ``ChipError``
    for a chip of another size than the trace's, and ``AllocationError``
    where a regrown region, ``r_i`` or ``r_a`` is not the dispatch's, or
    where its root is not open.
    """
    occ = Occupancy(chip, trace_mode(trace, chip))
    steps: dict[int, list[GrowthStep]] = {}
    for ev in trace.events:
        kind = ev["kind"]
        if kind == "dispatch":
            gid, root, region = ev["group"], ev["root"], tuple(ev["region"])
            result = grow_region(occ, root, len(region), ev["t_e_group"], record_steps=True)
            stats = result.stats  # None for a stall, whose region is None
            if result.region != region or (stats.r_i, stats.r_a) != (ev["r_i"], ev["r_a"]):
                raise AllocationError(
                    f"group {gid} regrows from root {root} to {result.region} with "
                    f"{result.stats}, not to the dispatched {list(region)} with "
                    f"r_i={ev['r_i']}, r_a={ev['r_a']}")
            occ.place(gid, region, root)
            steps[gid] = result.steps
        elif kind in ("preempt", "group_complete"):
            occ.release(ev["group"])
    return steps


@dataclass
class _RunningGroup:
    """A dispatched group; its duration and shots are read from the group."""

    group: Group
    start: float
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
        self.n_qubits = config.chip.n_qubits
        self.policy = config.policy
        self.state = SchedulerState()
        self.occupancy = Occupancy(config.chip, config.t_q_mode)
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
                "t_q_mode": config.t_q_mode,
                "backfill": config.merge.backfill,
                "by_total_time": config.merge.by_total_time,
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
            self.trace.arrive(job)
            self.queue.push(job, now)
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
        done_shots = rg.group.shots_group if preempt_at is None else preempt_at
        for member, entry in zip(rg.group.members, rg.group.member_shots):
            st = self.state.jobs[member.id]
            st.remaining_shots = entry - min(done_shots, entry)
            st.run_time += now - rg.start
            if st.remaining_shots:
                st.rr_seq = self.state.next_rr_seq()
                self.queue.push(member, now)
        self.trace.end(now, gid, done_shots)

    def _start_group(self, placement: Placement, now: float) -> None:
        group = placement.group
        rg = _RunningGroup(group=group, start=now)
        self.running[group.id] = rg
        self._push(rg.boundary(group.shots_group), COMPLETE, group.id)
        self._start_quantum(rg, 0)
        self.trace.dispatch(
            now, group.id, [j.id for j in group.members], placement.root, placement.region,
            placement.stats.r_i, placement.stats.r_a, group.shots_group, group.t_e_group)

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
                free_cap = self.n_qubits - self.occupancy.owned
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
                outcome = allocate(self.occupancy, groups)
                placed_ids: set[int] = set()
                for p in outcome.placed:
                    self._start_group(p, now)
                    placed_ids.update(j.id for j in p.group.members)
                for conflict in outcome.conflicts:  # one per stalled group
                    self.trace.requeue(now, **conflict)
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
    report = compute_report(trace, config.chip, spans=sim.spans)
    return trace, report
