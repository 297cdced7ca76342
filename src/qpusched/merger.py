"""Executable-prefix selection and duration-based program merging.

Jobs whose per-shot durations are within a multiplicative ratio ``alpha``
of each other can be compiled as one merged program: the group runs for
the longest member's per-shot duration and the largest member's shot
count, and every member's qubits stay occupied until the group finishes.
Merging removes the need for a buffer between the members but stretches
the shorter ones, so only similar durations are grouped.

The merged group's priority is the best (smallest) member key, and groups
are handed to the allocator in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from typing import Callable, Sequence

from .workload import Job, service_demand


@dataclass(frozen=True)
class Group:
    """Jobs co-compiled as a single program.

    member_shots holds the shot count each member still needs (equal to
    job.shots for fresh jobs, less after a preemption); member_keys holds
    each member's priority key under the active policy. The rest is
    derived once, when the group is made: the group runs for the longest
    member's per-shot duration (t_e_group) and the largest member's shot
    count (shots_group), needs the summed member qubits (demand), and
    takes the best (smallest) member key as its priority_key. Equality
    compares only the four fields above.
    """

    id: int
    members: tuple[Job, ...]
    member_shots: tuple[int, ...]
    member_keys: tuple[tuple, ...]
    t_e_group: float = field(init=False, compare=False)
    shots_group: int = field(init=False, compare=False)
    demand: int = field(init=False, compare=False)
    priority_key: tuple = field(init=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ValueError("a group needs at least one member")
        derive = object.__setattr__  # the dataclass is frozen
        derive(self, "t_e_group", max(map(attrgetter("t_e_shot"), self.members)))
        derive(self, "shots_group", max(self.member_shots))
        derive(self, "demand", sum(map(attrgetter("n"), self.members)))
        derive(self, "priority_key", min(self.member_keys))

    @classmethod
    def build(
        cls,
        group_id: int,
        members: Sequence[Job],
        shots_by_id: dict[int, int] | None = None,
        keys_by_id: dict[int, tuple] | None = None,
    ) -> "Group":
        members = tuple(members)
        shots = tuple(
            shots_by_id[j.id] if shots_by_id is not None else j.shots for j in members
        )
        keys = tuple(
            keys_by_id[j.id] if keys_by_id is not None else (j.t_sub, j.id)
            for j in members
        )
        return cls(id=group_id, members=members, member_shots=shots, member_keys=keys)

    def worst_member(self) -> Job:
        """The lowest-priority member (largest key); requeue target on conflicts."""
        keys = self.member_keys
        return self.members[keys.index(max(keys))]  # the first of equal keys

    def without(self, job_id: int) -> "Group":
        """A copy of the group with one member removed."""
        keep = [j.id != job_id for j in self.members]
        if all(keep):
            raise ValueError(f"job {job_id} is not a member of group {self.id}")
        if not any(keep):
            raise ValueError("cannot remove the last member of a group")
        return Group(
            id=self.id,
            members=tuple(compress(self.members, keep)),
            member_shots=tuple(compress(self.member_shots, keep)),
            member_keys=tuple(compress(self.member_keys, keep)),
        )


def select_prefix(
    ordered_queue: Sequence[Job], free_capacity: int, backfill: bool = False
) -> list[Job]:
    """Longest queue prefix whose summed qubit demand fits the free capacity.

    Strict mode stops at the first job that does not fit. With backfill,
    later jobs that individually fit the residual capacity are appended,
    preserving queue order among the selected.
    """
    chosen: list[Job] = []
    used = 0
    for job in ordered_queue:
        if used + job.n <= free_capacity:
            chosen.append(job)
            used += job.n
        else:
            if not backfill:
                break
    return chosen


def group_by_exec_time(
    prefix: Sequence[Job],
    alpha: float,
    *,
    by_total: bool = False,
    start_id: int = 0,
    shots_by_id: dict[int, int] | None = None,
    keys_by_id: dict[int, tuple] | None = None,
) -> list[Group]:
    """Partition the prefix into groups of similar execution time.

    Jobs are sorted by per-shot duration (or total demand with
    ``by_total``); a job joins the open group iff its duration is within
    ``alpha`` times the group's smallest, else a new group opens. Groups
    come back ordered by priority key, best first.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    attr: Callable[[Job], float]
    attr = service_demand if by_total else (lambda j: j.t_e_shot)
    ordered = sorted(prefix, key=lambda j: (attr(j), j.t_sub, j.id))
    groups: list[Group] = []
    bucket: list[Job] = []
    bucket_min = 0.0
    next_id = start_id
    for job in ordered:
        if not bucket:
            bucket = [job]
            bucket_min = attr(job)
        elif attr(job) <= alpha * bucket_min:
            bucket.append(job)
        else:
            groups.append(Group.build(next_id, bucket, shots_by_id, keys_by_id))
            next_id += 1
            bucket = [job]
            bucket_min = attr(job)
    if bucket:
        groups.append(Group.build(next_id, bucket, shots_by_id, keys_by_id))
    groups.sort(key=lambda g: g.priority_key)
    return groups
