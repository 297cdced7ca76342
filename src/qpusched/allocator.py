"""Connected-region qubit allocation with inter-group buffers.

Each dispatched group gets a connected region of exactly its demanded
size. Regions of distinct groups may never touch: a free qubit adjacent
to someone else's region is ineligible (it acts as a buffer), enforced as
a candidate filter rather than by reserving qubits. ``Occupancy`` keeps
the open mask (free, non-buffer qubits) and the owned and buffer counts
up to date as it places and releases regions, at a cost in the region's
size and its halo (the free qubits next to it), not the chip's size; a
growth returns the halo it found, so a grown region is never scanned
again. ``Occupancy._shift_near`` is the one statement of the buffer
rule, and ``Occupancy.place`` refuses a region that breaks it. Root
choice and growth read the kept mask.

Placement of one group:

1. Root choice: among eligible qubits, maximize the summed hop distance
   to the roots of already-placed and still-running groups, the sum of
   those roots' rows of the distance matrix; then (on ties) the graph
   eccentricity; remaining ties go to the smallest error score, then the
   lowest id. With no prior roots the sum is zero everywhere, so this
   reduces to pure eccentricity maximization, pushing the first root to
   the chip rim.
2. Growth: starting from the root, repeatedly add the frontier qubit
   that maximizes the region's internal-to-total edge ratio r_i/r_a
   (compared exactly, by integer cross-multiplication). Ties prefer the
   smallest error score E_Q = (1 - exp(-t_e/T_Q)) * E_meas (``qubit_errors``,
   the one statement of that formula), then the candidate whose addition
   enables the best next-step ratio, then the lowest id. A grown region
   is the tuple of its qubits in ascending order. A step does not score
   every frontier qubit: candidates with two or more links into the region
   are scored one by one, and those with one link are bucketed by degree,
   since only the lowest-degree bucket can hold the best one-link ratio
   and all its members tie (see ``grow_region``). A growth also returns
   the region's halo, which it met on the way: the open qubits left on
   its frontier and the buffers next to the region.
3. Before growing, a component search from the root counts the open
   qubits (free, non-buffer) it can reach, stopping at the demand. A
   smaller component is a stall: growth would take all of it and stop,
   boxed in by the buffers next to it. Otherwise growth cannot run out of
   frontier before the region is full. A stall, or a state with no
   eligible root, is a conflict, and the stalled group yields
   (``resolve_conflict``): its worst member is bounced back to the queue,
   and a merged group retries without it. Groups are placed in priority
   order and running groups are never disturbed, so the stalled group is
   always the lower-priority side, and no placement is ever undone.

Root choice and growth are functions of the occupancy, which holds the
chip and the coherence mode that picks T_Q, so what ``allocate`` learns
about an occupancy is kept on it, in its ``AllocationMemo``, until
``Occupancy.place`` or ``Occupancy.release`` changes it: the root
candidates left by the hop-sum and eccentricity filters, for each root
that stalled the size of its open component, and each growth with its
certificate. The component search stops only at the demand, so a smaller
component was found in full, and a later attempt at that root with a
larger demand stalls the same way without a search, in the same pass or a
later one. The memo of the empty occupancy is kept for good: a job
preempted in exclusive mode gets its region back without a second growth.
``place`` replaces the memo right after every growth it keeps, so only the
memo of the empty occupancy keeps growths. The memo lives and dies with
its occupancy, which belongs to one simulation.

Root choice and growth read E_Q only through comparisons: each E_Q
decision keeps, of some tied candidates, those of lowest E_Q. A growth's
certificate lists these decisions, each as (tied candidates, kept), the
root choice first. Every other decision is an exact ratio comparison, the
lookahead or the lowest id, none of which reads E_Q, so where every
decision keeps the same qubits the root, region, stats and steps are the
same. A growth is therefore kept by its demand and serves every
per-shot duration at which its certificate holds: a duration seen before
is a dict lookup (a preempted job comes back with its own), and a new one
takes the first growth of that demand whose decisions re-evaluate the
same. E_Q per qubit does not depend on the occupancy: a pass keeps one
list of it per ``t_e_group`` (``_error_list``), made at the first E_Q
decision of a certificate check, root choice or growth and read by all
three, so it is computed at most once per per-shot duration in a pass.
It is not kept longer, since a memo across passes would grow with the
number of distinct durations.

No run logs its growth steps. They follow from a dispatch (its root,
region size and ``t_e_group``), the chip and the occupancy the events
before it leave, so ``engine.growth_steps`` regrows them from a trace
with ``grow_region(..., record_steps=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Collection, Iterable, Sequence

import numpy as np

from .chip import Chip, check_coherence_mode
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
class GrowthStep:
    """One greedy growth decision, recorded for replay verification."""

    chosen: int
    r_i: int
    r_a: int
    frontier: tuple[int, ...]
    frontier_r_i: tuple[int, ...]
    frontier_r_a: tuple[int, ...]


# An E_Q decision: tied candidates, and those of them that were kept (see ``_lowest_error``)
Tie = tuple[list[int], list[int]]
# A pass's E_Q per qubit, by t_e_group (see ``_error_list``)
Errors = dict[float, list[float]]


@dataclass
class GrowthResult:
    """Grown region (its sorted qubits, with the step log) or a stall.

    A stall has ``region`` None and gives ``component_size``, the number of
    open qubits the root can reach, which is below the demand.
    ``ties`` lists the growth's E_Q decisions in the order they were made;
    a stall made none. ``halo`` holds each free qubit next to the region
    once, on the occupancy it grew on, in no set order: a tuple that is
    never mutated, which ``Occupancy.place`` keeps as it is. A stall has
    none.
    """

    region: tuple[int, ...] | None
    stats: RegionStats | None
    steps: list[GrowthStep]
    component_size: int = 0
    ties: list[Tie] = field(default_factory=list)
    halo: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.region is not None


class AllocationMemo:
    """What ``allocate`` has learned about one state of an occupancy.

    ``candidates`` is ``_root_candidates``' result, or None before the first
    root choice; ``stalls`` maps a root that stalled to the size of its open
    component. ``growths`` maps a demand to every growth made on this
    state, in order, each as (certificate, root, growth): the certificate
    lists the E_Q decisions of its root choice and growth. ``placements``
    maps (demand, t_e_group) to the root and growth that serve that
    duration, grown at it or certified for it. No key holds a coherence
    mode: an occupancy has one (``Occupancy.t_q_mode``).
    """

    __slots__ = ("candidates", "stalls", "growths", "placements")

    def __init__(self):
        self.candidates: np.ndarray | None = None
        self.stalls: dict[int, int] = {}
        self.growths: dict[int, list[tuple[list[Tie], int, GrowthResult]]] = {}
        self.placements: dict[tuple[int, float], tuple[int, GrowthResult]] = {}


class Occupancy:
    """Mutable map from physical qubits to owning groups.

    ``owner[q]`` is the owning group id, or -1 when free. A region's halo is
    the set of qubits outside it next to it, all free since regions never
    touch; ``near[q]`` counts the regions whose halo holds q, and is 0 on
    owned qubits. A free qubit next to a region is a buffer, which no group
    may take; the other free qubits are open, and ``open[q]`` is 1 exactly
    for them. ``owned`` and ``buffers`` count the owned and the buffer
    qubits. ``place`` and ``release`` keep all of these up to date in
    O(region + halo), each group's halo kept from its ``place``;
    ``_shift_near`` is the one statement of the buffer rule. One simulation
    owns its Occupancy exclusively.
    ``memo`` is ``allocate``'s memo of the current state. Only ``place`` and
    ``release`` replace it: with a fresh one, or with the memo of the empty
    occupancy, kept for good, when no region is left. ``t_q_mode`` picks the
    T_Q of the E_Q tie-break (see ``chip.COHERENCE_MODES``) for every
    ``allocate`` and ``grow_region`` on this occupancy; nothing else reads it.
    """

    def __init__(self, chip: Chip, t_q_mode: str = "t2"):
        check_coherence_mode(t_q_mode)
        n = chip.n_qubits
        self.chip = chip
        self.t_q_mode = t_q_mode
        self.owner = [-1] * n
        self.near = [0] * n
        self.open = bytearray(b"\x01") * n
        self.owned = 0
        self.buffers = 0
        self.regions: dict[int, tuple[int, ...]] = {}
        self.roots: dict[int, int] = {}
        self._halos: dict[int, Collection[int]] = {}  # per group: its region's halo
        self.memo = self._idle_memo = AllocationMemo()

    def place(self, group_id: int, qubits: Iterable[int], root: int,
              halo: Collection[int] | None = None) -> None:
        """Give ``qubits`` to ``group_id``, a group id of 0 or more: distinct
        qubits of the chip, at least one, all free and touching no other
        group's region, rooted at one of them. ``halo`` is the region's halo
        as its growth found it (``GrowthResult.halo``), kept as given;
        without it the halo is computed from the chip's edges. A given halo
        is checked in O(halo): distinct free qubits of the chip outside the
        region. A rejected placement leaves the occupancy as it was."""
        qs = sorted(map(int, qubits))
        root = int(root)
        owner = self.owner
        if group_id < 0:  # -1 in ``owner`` marks a free qubit
            raise AllocationError(f"group id {group_id} is negative")
        if group_id in self.regions:
            raise AllocationError(f"group {group_id} is already placed")
        region = set(qs)
        if not qs or qs[0] < 0 or qs[-1] >= len(owner) or len(region) < len(qs):
            raise AllocationError(
                f"group {group_id}: region {qs} is not a nonempty set of distinct qubits of the chip")
        if root not in region:
            raise AllocationError(f"group {group_id}: root {root} is not in its region {qs}")
        if any(owner[q] >= 0 for q in qs):
            raise AllocationError("placement overlaps an owned qubit")
        near = self.near
        if any(near[q] for q in qs):
            raise AllocationError(f"group {group_id} touches another group's region")
        if halo is None:
            nbrs = self.chip.graph.neighbors
            halo = {w for q in qs for w in nbrs[q]}.difference(region)
        elif (halo and (min(halo) < 0 or max(halo) >= len(owner))
              or len(set(halo)) < len(halo) or any(owner[w] >= 0 for w in halo)
              or not region.isdisjoint(halo)):
            raise AllocationError(f"group {group_id}: halo {sorted(halo)} is not a set "
                                  f"of free qubits of the chip outside its region")
        open_ = self.open
        for q in qs:  # open before: free and touching no region
            owner[q] = group_id
            open_[q] = 0
        self.owned += len(qs)
        self._halos[group_id] = halo
        self._shift_near(halo, 1)
        self.regions[group_id] = tuple(qs)
        self.roots[group_id] = root
        self.memo = AllocationMemo()

    def release(self, group_id: int) -> None:
        qs = self.regions.pop(group_id)
        self.roots.pop(group_id)
        self._shift_near(self._halos.pop(group_id), -1)
        owner, open_ = self.owner, self.open
        for q in qs:  # no other region touches a placed region, so its qubits reopen
            owner[q] = -1
            open_[q] = 1
        self.owned -= len(qs)
        self.memo = AllocationMemo() if self.regions else self._idle_memo

    def _shift_near(self, halo: Collection[int], step: int) -> None:
        """Add ``step`` (1 or -1) to ``near`` at each qubit of a region's ``halo``.

        The buffer rule: a free qubit is a buffer exactly while its count is
        above 0, so it enters the buffer set as its count leaves 0 and
        leaves the set, open again, as its count returns to 0. A halo holds
        free qubits only, and they stay free while its region is placed,
        since a region that took one would touch that region.
        """
        near, open_ = self.near, self.open
        crossing = 0 if step > 0 else 1  # the count before a step that crosses 0
        for w in halo:
            c = near[w]
            near[w] = c + step
            if c == crossing:
                open_[w] = step < 0
                self.buffers += step


def qubit_errors(chip: Chip, t_e_group: float, t_q_mode: str) -> np.ndarray:
    """Error score E_Q = (1 - exp(-t_e/T_Q)) * E_meas of every qubit, for tie-breaking.

    t_e_group is in seconds; coherence times are stored in microseconds.
    ``t_q_mode`` picks T_Q (see ``chip.COHERENCE_MODES``).
    """
    t_us = t_e_group * 1e6
    return (1.0 - np.exp(-t_us / chip.coherence_array(t_q_mode))) * chip.readout_array


def _error_list(occupancy: Occupancy, t_e_group: float, errors: Errors) -> list[float]:
    """E_Q per qubit at ``t_e_group``, as Python floats, computed once and kept in ``errors``."""
    eq = errors.get(t_e_group)
    if eq is None:
        eq = errors[t_e_group] = qubit_errors(
            occupancy.chip, t_e_group, occupancy.t_q_mode).tolist()
    return eq


def _lowest_error(eq: list[float], tied: list[int]) -> list[int]:
    """The qubits of ``tied``, in order, whose E_Q (``eq[q]``) is lowest.

    This is the one E_Q decision of root choice and growth, and of the
    check that a certificate holds (``_certified``).
    """
    low = min(map(eq.__getitem__, tied))
    return [c for c in tied if eq[c] == low]


def _certified(occupancy: Occupancy, ties: list[Tie], t_e_group: float, errors: Errors) -> bool:
    """Whether every E_Q decision of a certificate keeps the same qubits at ``t_e_group``.

    E_Q is read from the pass's list for that duration (see ``_error_list``).
    """
    if not ties:
        return True
    eq = _error_list(occupancy, t_e_group, errors)
    return all(_lowest_error(eq, tied) == kept for tied, kept in ties)


def _short_component(occupancy: Occupancy, root: int, demand: int) -> int:
    """How many open qubits are reachable from ``root``, counted up to ``demand``.

    The search stops once ``demand`` qubits are found.
    """
    nbrs = occupancy.chip.graph.neighbors
    open_ = occupancy.open
    seen = {root}
    stack = [root]
    while stack and len(seen) < demand:
        for w in nbrs[stack.pop()]:
            if open_[w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def _root_candidates(occupancy: Occupancy) -> np.ndarray:
    """Eligible qubits with the largest hop sum, then the largest eccentricity.

    The hop sum is the sum of the distance rows of the roots of every group
    in ``occupancy`` (running groups and those placed earlier in the pass),
    read at the eligible qubits; with no roots it is zero. With no eligible
    qubit the array is empty.
    """
    elig = np.flatnonzero(np.frombuffer(occupancy.open, dtype=np.bool_))
    if not elig.size:
        return elig
    dist = occupancy.chip.distances
    score = dist.hops[list(occupancy.roots.values())].sum(axis=0)[elig]
    ecc = dist.eccentricity[elig]
    keep = score == score.max()
    keep &= ecc == ecc[keep].max()
    return elig[keep]


def _choose_root(occupancy: Occupancy, cands: np.ndarray, t_e_group: float,
                 errors: Errors) -> tuple[int, list[Tie]]:
    """The candidate with the smallest E_Q, then the lowest id, and the E_Q
    decision that chose it (none for a single candidate).

    ``cands`` is ascending. E_Q per qubit is read from ``errors`` (see
    ``_error_list``) at the first tie.
    """
    if cands.size > 1:
        tied = cands.tolist()
        kept = _lowest_error(_error_list(occupancy, t_e_group, errors), tied)
        return kept[0], [(tied, kept)]
    return int(cands[0]), []


def grow_region(occupancy: Occupancy, root: int, demand: int, t_e_group: float, *,
                record_steps: bool = False, errors: Errors | None = None) -> GrowthResult:
    """Grow a connected region of ``demand`` qubits from ``root`` on
    ``occupancy.chip``, E_Q read under ``occupancy.t_q_mode``.

    Greedy: every step adds the frontier candidate maximizing the
    post-addition r_i/r_a, compared exactly by integer cross-multiplication;
    ties prefer minimum E_Q, then the best next-step achievable ratio, then
    the lowest id. The frontier is a dict from each candidate to its links
    into the region, indexed in two tiers: candidates with two or more
    links, which a step scores one by one, and candidates with one link,
    bucketed by degree. A one-link candidate's ratio
    (r_i+1)/(sum_deg-r_i+deg-1) falls strictly as its degree rises, and the
    members of a bucket tie exactly, so only the lowest-degree bucket is
    scored, once. The frontier never contains buffer qubits: it is filled
    from a list copy of ``occupancy.open``, the open mask the occupancy
    keeps, which the growth never changes. E_Q per qubit is read at the
    first tie from ``errors``, the pass's lists by ``t_e_group`` (see
    ``_error_list``); a call without it computes its own. Each E_Q
    tie-break is one E_Q decision (``_lowest_error``), listed in the
    result's ``ties``.
    Returns a stall giving the component's size when the root's open
    component (free, non-buffer qubits reachable from it) holds fewer than
    ``demand`` qubits; growth would take all of it and stop there.
    The stall is decided by a component search before any growth, so
    its step log is empty. ``record_steps`` only decides whether the
    growth steps are logged; logging sorts the frontier at every step,
    so no run sets it, and ``engine.growth_steps`` does to regrow a trace.
    Raises ``AllocationError`` for a demand outside 1..n, a root outside
    0..n-1, or a root that is not open.
    """
    chip = occupancy.chip
    n = chip.n_qubits
    if not 1 <= demand <= n:
        raise AllocationError(f"demand {demand} outside 1..{n}")
    if not 0 <= root < n:
        raise AllocationError(f"root {root} outside 0..{n - 1}")
    open_ = occupancy.open
    if not open_[root]:
        if occupancy.owner[root] >= 0:
            raise AllocationError(f"root {root} is not free")
        raise AllocationError(f"root {root} is adjacent to another group's region")

    size = _short_component(occupancy, root, demand)
    if size < demand:
        return GrowthResult(region=None, stats=None, steps=[], component_size=size)

    if errors is None:
        errors = {}
    nbrs = chip.graph.neighbors
    deg = chip.graph.degree
    # per qubit: -1 in the region, 0 closed, 1 open, 1 + k open with k links into the region
    state = list(open_)
    frontier: dict[int, int] = {}  # open qubit next to the region -> its links into it
    multi: dict[int, int] = {}  # the candidates of frontier with two or more links
    ones: dict[int, set[int]] = {}  # degree -> the candidates of that degree with one link
    walls: set[int] = set()  # closed qubits next to the region: other regions' buffers
    region = [root]
    r_i = 0
    sum_deg = deg[root]
    state[root] = -1
    chosen = root
    steps: list[GrowthStep] = []
    ties: list[Tie] = []

    while True:
        for w in nbrs[chosen]:  # the frontier gains the open neighbours of chosen
            s = state[w]
            if s > 0:
                state[w] = s + 1
                if s == 1:
                    frontier[w] = 1
                    bucket = ones.get(deg[w])
                    if bucket is None:
                        ones[deg[w]] = {w}
                    else:
                        bucket.add(w)
                else:
                    frontier[w] = multi[w] = s
                    if s == 2:
                        bucket = ones[deg[w]]
                        bucket.remove(w)
                        if not bucket:
                            del ones[deg[w]]
            elif not s:
                walls.add(w)
        if len(region) == demand:
            break
        # never empty: the root's open component holds demand qubits
        if multi:
            best, top_i, top_a = _best_candidates(multi, r_i, sum_deg, deg)
        else:
            best, top_i, top_a = [], -1, 1
        if ones:
            d = min(ones)
            one_i, one_a = r_i + 1, sum_deg + d - r_i - 1
            cmp = one_i * top_a - top_i * one_a
            if cmp > 0:
                best = list(ones[d])
            elif cmp == 0:
                best.extend(ones[d])
        if len(best) > 1:
            kept = _lowest_error(_error_list(occupancy, t_e_group, errors), best)
            ties.append((best, kept))
            best = kept
        if len(best) > 1 and len(region) + 1 < demand:
            ahead = {}  # tied candidate -> best ratio its next frontier offers
            for c in best:
                nxt = frontier.copy()
                del nxt[c]
                for w in nbrs[c]:
                    if w in nxt:
                        nxt[w] += 1
                    elif state[w] > 0:
                        nxt[w] = 1
                ahead[c] = _best_candidates(nxt, r_i + frontier[c], sum_deg + deg[c], deg)[1:]
            top_i, top_a = -1, 1
            for ri, ra in ahead.values():
                if ri * top_a > top_i * ra:
                    top_i, top_a = ri, ra
            best = [c for c in best if ahead[c][0] * top_a == top_i * ahead[c][1]]
        chosen = min(best)
        if record_steps:
            ri = r_i + frontier[chosen]
            cand = sorted(frontier)
            ri_new = [r_i + frontier[c] for c in cand]
            steps.append(
                GrowthStep(
                    chosen=chosen,
                    r_i=ri,
                    r_a=sum_deg + deg[chosen] - ri,
                    frontier=tuple(cand),
                    frontier_r_i=tuple(ri_new),
                    frontier_r_a=tuple(sum_deg + deg[c] - x for c, x in zip(cand, ri_new)),
                )
            )
        k = frontier.pop(chosen)
        state[chosen] = -1
        if k > 1:
            del multi[chosen]
        else:
            bucket = ones[deg[chosen]]
            bucket.remove(chosen)
            if not bucket:
                del ones[deg[chosen]]
        r_i += k
        sum_deg += deg[chosen]
        region.append(chosen)

    stats = RegionStats(r_i=r_i, r_a=sum_deg - r_i)
    # an open qubit never touches an owned one, so the walls are free
    return GrowthResult(region=tuple(sorted(region)), stats=stats, steps=steps, ties=ties,
                        halo=(*frontier, *walls))


def _best_candidates(
    front: dict[int, int], r_i: int, sum_deg: int, deg: Sequence[int]
) -> tuple[list[int], int, int]:
    """Qubits of ``front`` whose addition maximizes r_i/r_a, and that (r_i, r_a).

    ``front`` maps each candidate to its links into a region with ``r_i``
    internal edges and degree sum ``sum_deg``; ``deg`` gives each qubit's
    degree. Ratios are compared exactly, by integer cross-multiplication.
    An empty ``front`` gives ([], -1, 1).
    """
    best, best_i, best_a = [], -1, 1
    for c, k in front.items():
        ri = r_i + k
        ra = sum_deg + deg[c] - ri
        d = ri * best_a - best_i * ra
        if d > 0:
            best, best_i, best_a = [c], ri, ra
        elif d == 0:
            best.append(c)
    return best, best_i, best_a


def _certified_growth(occupancy: Occupancy, key: tuple[int, float],
                      errors: Errors) -> tuple[int, GrowthResult | None]:
    """The root and growth of the first growth in ``occupancy.memo`` whose
    certificate holds at ``key`` = (demand, t_e_group), kept under ``key``;
    (-1, None) when there is none.

    Only growths of the same demand are tried.
    """
    memo = occupancy.memo
    demand, t_e_group = key
    for ties, root, result in memo.growths.get(demand, ()):
        if _certified(occupancy, ties, t_e_group, errors):
            memo.placements[key] = root, result
            return root, result
    return -1, None


def resolve_conflict(stalled: Group) -> Job:
    """The member that goes back to the queue when ``stalled`` cannot be placed.

    The stalled group yields its worst member: a singleton is requeued
    whole, a merged group sheds that member and retries with reduced
    demand. The stalled side is always the lower-priority one:
    ``allocate`` places groups in priority order, so every group placed
    before it in the pass has a better key, and running groups are never
    disturbed.
    """
    return stalled.worst_member()


@dataclass
class Placement:
    group: Group
    region: tuple[int, ...]  # sorted qubits
    root: int
    stats: RegionStats


@dataclass
class AllocationOutcome:
    """Placements committed to the occupancy, and one conflict record per
    group that stalled: ``{"group": id, "requeued": [job ids, in shedding
    order], "placed": bool}``, ``placed`` saying whether what was left of
    the group was placed in the pass."""

    placed: list[Placement]
    conflicts: list[dict]


def allocate(occupancy: Occupancy, groups: Sequence[Group]) -> AllocationOutcome:
    """Place every group, or requeue members of those that cannot be placed.

    Groups are processed in priority order (a stable sort by
    ``priority_key``), roots interleaved with growth, and placed directly
    into ``occupancy``, on its chip and with E_Q under its ``t_q_mode``. A
    group that stalls, or finds no eligible root, yields its worst member
    (``resolve_conflict``, called once per conflict): a merged group retries
    without it, a singleton leaves the pass. A group's placement depends
    only on the groups placed before it, so no placement is undone. Each
    group that stalled at least once gets one conflict record, listing the
    members it shed in order and whether the rest of it was placed (see
    ``AllocationOutcome``). Every attempt reads and extends
    ``occupancy.memo``, what is known about the current occupancy (root
    candidates, stalled roots and growths), which ``place`` replaces when it
    changes it. A group grows only when no growth of its demand on this
    state holds a certificate for its ``t_e_group`` (see the module
    docstring). A placement holds no step log; ``engine.growth_steps``
    regrows it from the trace.
    """
    conflicts: list[dict] = []
    placements: list[Placement] = []
    errors: Errors = {}
    for group in sorted(groups, key=attrgetter("priority_key")):
        requeued: list[int] = []
        while True:  # until the group, or what is left of it, is placed or gone
            memo = occupancy.memo
            key = (group.demand, group.t_e_group)
            root, result = -1, None
            # ``place`` replaces the memo right after every growth it keeps,
            # so only the idle memo keeps growths
            if memo.growths:
                root, result = memo.placements.get(key) or _certified_growth(occupancy, key, errors)
            if result is None:
                if memo.candidates is None:
                    memo.candidates = _root_candidates(occupancy)
                cands = memo.candidates
                if cands.size:
                    root, ties = _choose_root(occupancy, cands, group.t_e_group, errors)
                    size = memo.stalls.get(root)
                    if size is None or group.demand <= size:
                        result = grow_region(occupancy, root, group.demand, group.t_e_group,
                                             errors=errors)
                        if result.ok:
                            memo.placements[key] = root, result
                            memo.growths.setdefault(group.demand, []).append(
                                (ties + result.ties, root, result))
                        else:
                            memo.stalls[root] = result.component_size
            placed = result is not None and result.ok
            if placed:
                occupancy.place(group.id, result.region, root, result.halo)
                placements.append(Placement(group, result.region, root, result.stats))
            else:
                job = resolve_conflict(group)
                requeued.append(job.id)
                if len(group.members) > 1:
                    group = group.without(job.id)
                    continue
            if requeued:
                conflicts.append({"group": group.id, "requeued": requeued, "placed": placed})
            break
    return AllocationOutcome(placed=placements, conflicts=conflicts)
