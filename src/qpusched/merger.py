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

from dataclasses import dataclass
from typing import Callable, Sequence

from .workload import Job, service_demand


@dataclass(frozen=True)
class Group:
    """Jobs co-compiled as a single program.

    member_shots holds the shot count each member still needs (equal to
    job.shots for fresh jobs, less after a preemption); member_keys holds
    each member's priority key under the active policy.
    """

    id: int
    members: tuple[Job, ...]
    member_shots: tuple[int, ...]
    member_keys: tuple[tuple, ...]
    t_e_group: float
    shots_group: int
    demand: int
    priority_key: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("a group needs at least one member")
        if self.demand != sum(j.n for j in self.members):
            raise ValueError("group demand must equal the summed member demand")
        if any(j.t_e_shot > self.t_e_group for j in self.members):
            raise ValueError("group per-shot duration must cover every member")

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
        return cls(
            id=group_id,
            members=members,
            member_shots=shots,
            member_keys=keys,
            t_e_group=max(j.t_e_shot for j in members),
            shots_group=max(shots),
            demand=sum(j.n for j in members),
            priority_key=min(keys),
        )

    def worst_member(self) -> Job:
        """The lowest-priority member (largest key); requeue target on conflicts."""
        idx = max(range(len(self.members)), key=lambda i: self.member_keys[i])
        return self.members[idx]

    def without(self, job_id: int) -> "Group":
        """A copy of the group with one member removed; demand and durations recomputed."""
        keep = [i for i, j in enumerate(self.members) if j.id != job_id]
        if len(keep) == len(self.members):
            raise ValueError(f"job {job_id} is not a member of group {self.id}")
        if not keep:
            raise ValueError("cannot remove the last member of a group")
        members = tuple(self.members[i] for i in keep)
        shots = tuple(self.member_shots[i] for i in keep)
        keys = tuple(self.member_keys[i] for i in keep)
        return Group(
            id=self.id,
            members=members,
            member_shots=shots,
            member_keys=keys,
            t_e_group=max(j.t_e_shot for j in members),
            shots_group=max(shots),
            demand=sum(j.n for j in members),
            priority_key=min(keys),
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


def group_service_demand(group: Group) -> float:
    """Time the merged program occupies its region: shots_group * t_e_group."""
    return group.shots_group * group.t_e_group
