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

import math
from operator import attrgetter
from typing import Callable, Sequence

from .workload import Job, service_demand

_ID, _N, _T_E_SHOT = attrgetter("id"), attrgetter("n"), attrgetter("t_e_shot")


class Group:
    """Jobs co-compiled as a single program.

    member_shots holds the shot count each member still needs (equal to
    job.shots for fresh jobs, less after a preemption); member_keys holds
    each member's priority key under the active policy. The rest is
    derived once, when the group is made: the group runs for the longest
    member's per-shot duration (t_e_group) and the largest member's shot
    count (shots_group), needs the summed member qubits (demand), and
    takes the best (smallest) member key as its priority_key. Equality
    and hashing read only the four fields above.

    A group is immutable by convention: nothing assigns to one after
    ``__init__``, and ``without`` returns a new group. It is not frozen
    because the allocator builds one per shed member, and freezing costs
    more than the build itself. With four members (timeit, Python 3.11
    on a 2-core x86 VM), the frozen dataclass built in 2.8 us, a slotted
    class that sets its fields through ``object.__setattr__`` and
    refuses assignment in 2.2 us, and this class in 1.3 us.
    """

    __slots__ = (
        "id", "members", "member_shots", "member_keys",
        "t_e_group", "shots_group", "demand", "priority_key",
    )

    def __init__(
        self,
        id: int,
        members: tuple[Job, ...],
        member_shots: tuple[int, ...],
        member_keys: tuple[tuple, ...],
    ):
        if not members:
            raise ValueError("a group needs at least one member")
        if not len(members) == len(member_shots) == len(member_keys):
            raise ValueError(
                f"group {id}: {len(members)} members, {len(member_shots)} shot "
                f"counts and {len(member_keys)} keys"
            )
        self.id = id
        self.members = members
        self.member_shots = member_shots
        self.member_keys = member_keys
        self.t_e_group: float = max(map(_T_E_SHOT, members))
        self.shots_group: int = max(member_shots)
        self.demand: int = sum(map(_N, members))
        self.priority_key: tuple = min(member_keys)

    def _declared(self) -> tuple:
        return (self.id, self.members, self.member_shots, self.member_keys)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Group:
            return NotImplemented
        return self._declared() == other._declared()

    def __hash__(self) -> int:
        return hash(self._declared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in Group.__slots__)
        return f"Group({fields})"

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
        return cls(group_id, members, shots, keys)

    def worst_member(self) -> Job:
        """The lowest-priority member (largest key); requeue target on conflicts."""
        keys = self.member_keys
        return self.members[keys.index(max(keys))]  # the first of equal keys

    def without(self, job_id: int) -> "Group":
        """A copy of the group with one member removed."""
        members = self.members
        try:
            i = list(map(_ID, members)).index(job_id)
        except ValueError:
            raise ValueError(f"job {job_id} is not a member of group {self.id}") from None
        if len(members) == 1:
            raise ValueError("cannot remove the last member of a group")
        j = i + 1
        shots, keys = self.member_shots, self.member_keys
        return Group(
            self.id,
            members[:i] + members[j:],
            shots[:i] + shots[j:],
            keys[:i] + keys[j:],
        )


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the merge ratio alpha is finite and >= 1."""
    if not (math.isfinite(alpha) and alpha >= 1):
        raise ValueError(f"merge alpha must be finite and >= 1, got {alpha}")


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
    check_alpha(alpha)
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
