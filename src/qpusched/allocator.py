"""Connected-region qubit allocation with inter-group buffers.

Each dispatched group gets a connected region of exactly its demanded
size. Regions of distinct groups may never touch: a free qubit adjacent
to someone else's region is ineligible (it acts as a buffer), enforced as
a candidate filter rather than by reserving qubits. ``buffer_mask`` is the
one statement of that rule.

Placement of one group:

1. Root choice: among eligible qubits, maximize the summed hop distance
   to the roots of already-placed and still-running groups, then (on
   ties) the graph eccentricity; remaining ties go to the smallest error
   score, then the lowest id. With no prior roots this reduces to pure
   eccentricity maximization, pushing the first root to the chip rim.
2. Growth: starting from the root, repeatedly add the frontier qubit
   that maximizes the region's internal-to-total edge ratio r_i/r_a
   (compared exactly, by integer cross-multiplication). Ties prefer the
   smallest error score E_Q = (1 - exp(-t_e/T_Q)) * E_meas, then the
   candidate whose addition enables the best next-step ratio, then the
   lowest id.
3. Before growing, a component search from the root counts the open
   qubits (free, non-buffer) it can reach, stopping at the demand. A
   smaller component is a stall: growth would take all of it and stop,
   boxed in by the buffers next to it, whose owners are the blockers.
   Otherwise growth cannot run out of frontier before the region is full.
   The lower-priority side of the conflict is bounced back to the queue
   (merged groups shed only their lowest-priority member) and the pass
   resumes at the evicted group: placements before it saw the same
   occupancy and are kept, those from it onward are released and redone.
   Running groups are never disturbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .chip import Chip, QubitSpec
from .merger import Group
from .workload import Job


class AllocationError(RuntimeError):
    """Violated allocation precondition or invariant."""


@dataclass(frozen=True)
class RegionStats:
    """Edge counts of an allocated region.

    r_i counts edges with both endpoints inside; r_a counts every edge
    incident to the region (internal plus boundary).
    """

    r_i: int
    r_a: int

    def __post_init__(self):
        if not 0 <= self.r_i <= self.r_a:
            raise AllocationError(f"inconsistent region stats r_i={self.r_i}, r_a={self.r_a}")

    @property
    def ratio(self) -> float:
        if self.r_a == 0:
            return 1.0  # an isolated region with no incident edges touches nothing outside
        return self.r_i / self.r_a


@dataclass(frozen=True)
class Region:
    """Connected qubit set owned by one group."""

    group_id: int
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class GrowthStep:
    """One greedy growth decision, recorded for replay verification."""

    chosen: int
    r_i: int
    r_a: int
    frontier: tuple[int, ...]
    frontier_r_i: tuple[int, ...]
    frontier_r_a: tuple[int, ...]


@dataclass
class GrowthResult:
    """Grown region (with its step log) or a stall naming the blockers."""

    region: Region | None
    stats: RegionStats | None
    steps: list[GrowthStep]
    blockers: frozenset[int] = frozenset()

    @property
    def ok(self) -> bool:
        return self.region is not None


class Occupancy:
    """Mutable map from physical qubits to owning groups.

    owner[q] is the owning group id, or -1 when free. One simulation owns
    its Occupancy exclusively.
    """

    def __init__(self, chip: Chip):
        self.chip = chip
        self.owner = np.full(chip.n_qubits, -1, dtype=np.int32)
        self.regions: dict[int, tuple[int, ...]] = {}
        self.roots: dict[int, int] = {}

    def place(self, group_id: int, qubits: Iterable[int], root: int) -> None:
        qs = sorted(int(q) for q in qubits)
        if group_id in self.regions:
            raise AllocationError(f"group {group_id} is already placed")
        arr = np.array(qs, dtype=np.int64)
        if np.any(self.owner[arr] >= 0):
            raise AllocationError("placement overlaps an owned qubit")
        self.owner[arr] = group_id
        self.regions[group_id] = tuple(qs)
        self.roots[group_id] = int(root)

    def release(self, group_id: int) -> None:
        qs = self.regions.pop(group_id)
        self.roots.pop(group_id)
        self.owner[np.array(qs, dtype=np.int64)] = -1

    def owned_count(self) -> int:
        return int((self.owner >= 0).sum())


def qubit_error(spec: QubitSpec, t_e_group: float, t_q_mode: str = "t2") -> float:
    """Error score E_Q = (1 - exp(-t_e/T_Q)) * E_meas for tie-breaking.

    t_e_group is in seconds; coherence times are stored in microseconds.
    """
    if t_e_group < 0:
        raise AllocationError(f"duration must be >= 0, got {t_e_group}")
    t_us = t_e_group * 1e6
    return (1.0 - math.exp(-t_us / spec.coherence_us(t_q_mode))) * spec.readout_error


def _qubit_error_array(chip: Chip, t_e_group: float, t_q_mode: str) -> np.ndarray:
    t_us = t_e_group * 1e6
    coh = chip.coherence_array(t_q_mode)
    return (1.0 - np.exp(-t_us / coh)) * chip.readout_array


def region_ratio(chip: Chip, region: Iterable[int]) -> RegionStats:
    """Internal and incident edge counts of an arbitrary qubit set."""
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


def buffer_mask(chip: Chip, owner: np.ndarray) -> np.ndarray:
    """Free qubits with an owned neighbor: buffers that no group may take.

    ``owner`` maps each qubit to its owning group id, or -1 when free.
    """
    src, dst = chip.graph.arcs
    mask = np.zeros(chip.n_qubits, dtype=bool)
    mask[dst[owner[src] >= 0]] = True
    return mask & (owner < 0)


def _blockers(chip: Chip, occupancy: Occupancy, boundary: np.ndarray) -> frozenset[int]:
    """Groups owning a qubit next to some qubit of ``boundary``.

    With none, every placed group is named.
    """
    src, dst = chip.graph.arcs
    own = occupancy.owner[dst[boundary[src]]]
    return frozenset(own[own >= 0].tolist() or occupancy.regions)


def _short_component(chip: Chip, open_: np.ndarray, root: int, demand: int) -> list[int] | None:
    """The qubits reachable from ``root`` through ``open_``, if fewer than ``demand``.

    The search stops, returning None, once ``demand`` qubits are found.
    """
    nbrs = chip.graph.neighbors
    seen = {root}
    stack = [root]
    while stack and len(seen) < demand:
        for w in nbrs[stack.pop()]:
            if open_[w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return list(seen) if len(seen) < demand else None


def _best_ratio(r_i: np.ndarray, r_a: np.ndarray) -> np.ndarray:
    """Ascending indices attaining the maximum r_i/r_a, compared exactly.

    The float argmax finds a maximizer: distinct ratios with denominators
    up to 2|E| never round to the same float64. Ties are then confirmed
    by integer cross-multiplication.
    """
    m = int(np.argmax(r_i / r_a))
    return np.flatnonzero(r_i * r_a[m] == r_i[m] * r_a)


def _choose_root(
    chip: Chip, occupancy: Occupancy, t_e_group: float, t_q_mode: str
) -> tuple[int | None, frozenset[int]]:
    """Best root for the next group, or (None, blockers) when none exists.

    The score is the summed hop distance to the roots of every group in
    ``occupancy``: running groups and those placed earlier in the pass.
    """
    owner = occupancy.owner
    buffer = buffer_mask(chip, owner)
    elig = np.flatnonzero((owner < 0) & ~buffer)
    if not elig.size:
        return None, _blockers(chip, occupancy, buffer)
    dist = chip.distances
    if occupancy.roots:
        priors = np.array(sorted(occupancy.roots.values()), dtype=np.int64)
        score = dist.hops[np.ix_(elig, priors)].sum(axis=1)
    else:
        score = np.zeros(elig.size, dtype=np.int64)
    ecc = dist.eccentricity[elig]
    keep = score == score.max()
    keep &= ecc == ecc[keep].max()
    cands = elig[keep]
    if cands.size > 1:
        eq = _qubit_error_array(chip, t_e_group, t_q_mode)[cands]
        cands = cands[eq == eq.min()]
    return int(cands.min()), frozenset()


def grow_region(
    chip: Chip,
    occupancy: Occupancy,
    root: int,
    demand: int,
    t_e_group: float,
    *,
    group_id: int,
    t_q_mode: str = "t2",
    record_steps: bool = True,
) -> GrowthResult:
    """Grow a connected region of ``demand`` qubits from ``root``.

    Greedy: every step adds the frontier candidate maximizing the
    post-addition r_i/r_a (exact comparison); ties prefer minimum E_Q,
    then the best next-step achievable ratio, then the lowest id. The
    frontier never contains buffer qubits (see ``buffer_mask``).
    Returns a stall naming the blocking groups when the root's open
    component (free, non-buffer qubits reachable from it) holds fewer
    than ``demand`` qubits; growth would take all of it and stop there.
    The stall is decided by a component search before any growth, so
    its step log is empty. ``record_steps`` only decides whether the
    growth steps are logged.
    """
    n = chip.n_qubits
    if not 1 <= demand <= n:
        raise AllocationError(f"demand {demand} outside 1..{n}")
    owner = occupancy.owner
    indptr, indices = chip.graph.csr
    degrees = chip.graph.degrees
    if owner[root] >= 0:
        raise AllocationError(f"root {root} is not free")
    buffer = buffer_mask(chip, owner)
    if buffer[root]:
        raise AllocationError(f"root {root} is adjacent to another group's region")

    open_ = (owner < 0) & ~buffer  # qubits the region may still take
    component = _short_component(chip, open_, root, demand)
    if component is not None:
        src, dst = chip.graph.arcs
        inside = np.zeros(n, dtype=bool)
        inside[component] = True
        near = np.zeros(n, dtype=bool)
        near[dst[inside[src]]] = True
        return GrowthResult(
            region=None, stats=None, steps=[],
            blockers=_blockers(chip, occupancy, buffer & near),
        )

    eq = _qubit_error_array(chip, t_e_group, t_q_mode)
    frontier = np.zeros(n, dtype=bool)
    links = np.zeros(n, dtype=np.int64)  # per qubit: its neighbors inside the region

    def join(q: int) -> None:
        nbrs = indices[indptr[q]:indptr[q + 1]]
        links[nbrs] += 1
        open_[q] = frontier[q] = False
        frontier[nbrs[open_[nbrs]]] = True

    region = [root]
    r_i = 0
    sum_deg = int(degrees[root])
    join(root)
    steps: list[GrowthStep] = []

    while len(region) < demand:
        cand = np.flatnonzero(frontier)  # non-empty: the component holds demand qubits
        ri_new = r_i + links[cand]
        ra_new = (sum_deg + degrees[cand]) - ri_new
        best = _best_ratio(ri_new, ra_new)
        if best.size > 1:
            errs = eq[cand[best]]
            best = best[errs == errs.min()]
        if best.size > 1 and len(region) + 1 < demand:
            best = best[_lookahead_filter(
                cand[best], ri_new[best], sum_deg, frontier, open_, links,
                indptr, indices, degrees,
            )]
        chosen_i = int(best[0])
        chosen = int(cand[chosen_i])
        if record_steps:
            steps.append(
                GrowthStep(
                    chosen=chosen,
                    r_i=int(ri_new[chosen_i]),
                    r_a=int(ra_new[chosen_i]),
                    frontier=tuple(cand.tolist()),
                    frontier_r_i=tuple(ri_new.tolist()),
                    frontier_r_a=tuple(ra_new.tolist()),
                )
            )
        r_i = int(ri_new[chosen_i])
        sum_deg += int(degrees[chosen])
        region.append(chosen)
        join(chosen)

    stats = RegionStats(r_i=r_i, r_a=sum_deg - r_i)
    return GrowthResult(
        region=Region(group_id=group_id, qubits=tuple(sorted(region))),
        stats=stats,
        steps=steps,
    )


def _lookahead_filter(
    tied, ri_tied, sum_deg, frontier, open_, links, indptr, indices, degrees,
) -> np.ndarray:
    """Positions among ``tied`` candidates enabling the best next-step ratio."""
    out_r = np.empty(len(tied), dtype=np.int64)
    out_a = np.empty(len(tied), dtype=np.int64)
    for j, c in enumerate(tied):
        nbrs = indices[indptr[c]:indptr[c + 1]]
        links[nbrs] += 1
        nxt = frontier.copy()
        nxt[c] = False
        nxt[nbrs[open_[nbrs]]] = True
        arr = np.flatnonzero(nxt)
        if arr.size:
            r2 = ri_tied[j] + links[arr]
            a2 = (sum_deg + degrees[c] + degrees[arr]) - r2
            m = int(np.argmax(r2 / a2))
            out_r[j], out_a[j] = r2[m], a2[m]
        else:
            out_r[j], out_a[j] = -1, 1
        links[nbrs] -= 1
    return _best_ratio(out_r, out_a)


@dataclass(frozen=True)
class EvictionDecision:
    """Outcome of a stall: which job leaves which group."""

    target_group_id: int
    job: Job
    whole_group: bool


def resolve_conflict(
    stalled: Group,
    blockers: Iterable[int],
    placed_this_pass: dict[int, Group],
    running_ids: set[int] | None = None,
) -> EvictionDecision:
    """Decide who yields when a growth stalls.

    Candidates for eviction are the blockers placed in this pass; running
    groups are immune. The lowest-priority group among {stalled, worst
    such blocker} loses: a singleton is requeued whole, a merged group
    sheds only its lowest-priority member and retries with reduced
    demand. With only running blockers the stalled side yields.
    """
    pass_blockers = [placed_this_pass[b] for b in blockers if b in placed_this_pass]
    if pass_blockers:
        worst = max(pass_blockers, key=lambda g: g.priority_key)
        loser = stalled if stalled.priority_key > worst.priority_key else worst
    else:
        loser = stalled
    job = loser.worst_member()
    return EvictionDecision(
        target_group_id=loser.id, job=job, whole_group=len(loser.members) == 1
    )


@dataclass
class Placement:
    group: Group
    region: Region
    root: int
    stats: RegionStats
    steps: list[GrowthStep]


@dataclass
class AllocationOutcome:
    """Placements committed to the occupancy plus the jobs bounced back."""

    placed: list[Placement]
    requeued: list[Job]
    conflicts: list[dict] = field(default_factory=list)


def allocate(
    chip: Chip,
    occupancy: Occupancy,
    groups: Sequence[Group],
    *,
    t_q_mode: str = "t2",
    record_steps: bool = True,
) -> AllocationOutcome:
    """Place every group or requeue the losers of irreconcilable conflicts.

    Groups are processed in priority order, roots interleaved with
    growth, and placed directly into ``occupancy``. On a stall the
    conflict is resolved and the evicted job leaves the pass. A group's
    placement depends only on the groups placed before it, so the pass
    resumes at the evicted group: its placement and those after it are
    released, the earlier ones stay. The outcome is that of restarting
    the whole pass against the original occupancy after each eviction.
    """
    work = list(groups)
    requeued: list[Job] = []
    conflicts: list[dict] = []
    placements: list[Placement] = []
    while len(placements) < len(work):
        group = work[len(placements)]
        root, blockers = _choose_root(chip, occupancy, group.t_e_group, t_q_mode)
        if root is not None:
            result = grow_region(
                chip, occupancy, root, group.demand, group.t_e_group,
                group_id=group.id, t_q_mode=t_q_mode, record_steps=record_steps,
            )
            if result.ok:
                occupancy.place(group.id, result.region.qubits, root)
                placements.append(Placement(group, result.region, root, result.stats, result.steps))
                continue
            blockers = result.blockers
        decision = resolve_conflict(group, blockers, {p.group.id: p.group for p in placements})
        requeued.append(decision.job)
        conflicts.append(
            {
                "stalled_group": group.id,
                "evicted_group": decision.target_group_id,
                "requeued_job": decision.job.id,
                "whole_group": decision.whole_group,
            }
        )
        k = next(i for i, g in enumerate(work) if g.id == decision.target_group_id)
        for p in placements[k:]:
            occupancy.release(p.group.id)
        del placements[k:]
        if decision.whole_group:
            del work[k]
        else:
            work[k] = work[k].without(decision.job.id)
    return AllocationOutcome(placed=placements, requeued=requeued, conflicts=conflicts)
