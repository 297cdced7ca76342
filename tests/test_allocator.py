"""Region allocation tests: ratios, error scores, roots, growth, conflicts.

Independent oracles: edge counts recomputed by brute force over the edge
list, networkx connectivity checks, an exhaustive frontier enumeration
replaying each recorded growth step, and a conflict-free replay of the
groups that survived an ``allocate`` pass.
"""

import math
from functools import cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpusched import allocator
from qpusched.allocator import (
    AllocationError,
    Occupancy,
    allocate,
    grow_region,
    qubit_error,
    region_ratio,
    resolve_conflict,
)
from qpusched.chip import QubitSpec, generate_grid
from qpusched.merger import Group

from conftest import make_job, path_chip, uniform_chip
from graphgen import enumerate_validated


def grid_region(rows_cols, cols, cells):
    """qubit ids of (row, col) cells on a cols-wide grid."""
    return [r * cols + c for r, c in cells]


def singleton_group(gid, n, t_e=0.001, key=None):
    g = Group.build(gid, [make_job(gid, n=n, t_e=t_e)],
                    keys_by_id={gid: key} if key else None)
    return g


def draw_occupancy(data, chip=None, owner_ids=(0, 1, 2)):
    """A random occupancy by ``owner_ids`` of ``chip``, by default a grid or a
    random connected chip (a random tree plus extra edges).

    Regions need not be connected, but never touch: a qubit whose lower-id
    neighbour belongs to another group is left free. A drawn subset of the
    groups is then released again. Returns the chip, the final owner list
    and the occupancy.
    """
    if chip is None and data.draw(st.booleans(), label="grid"):
        chip = generate_grid(data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5)))
    elif chip is None:
        n = data.draw(st.integers(2, 16))
        edges = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges |= set(data.draw(st.lists(st.sampled_from(pairs), max_size=n)))
        chip = uniform_chip(n, sorted(edges))
    n = chip.n_qubits
    owner = data.draw(
        st.lists(st.sampled_from([-1, -1, -1, *owner_ids]), min_size=n, max_size=n)
    )
    for q in range(n):
        if any(w < q and owner[w] not in (-1, owner[q]) for w in chip.graph.neighbors[q]):
            owner[q] = -1
    occ = Occupancy(chip)
    groups = sorted(set(owner) - {-1})
    for g in groups:
        qs = [q for q in range(n) if owner[q] == g]
        occ.place(g, qs, root=qs[0])
    if groups:
        for g in sorted(data.draw(st.sets(st.sampled_from(groups)), label="released")):
            occ.release(g)
            owner = [-1 if o == g else o for o in owner]
    return chip, owner, occ


class TestRegionRatio:
    def test_interior_line_of_four(self):
        chip = generate_grid(6, 6)
        line = grid_region(6, 6, [(2, 1), (2, 2), (2, 3), (2, 4)])
        stats = region_ratio(chip, line)
        assert (stats.r_i, stats.r_a) == (3, 13)
        assert stats.ratio == pytest.approx(3 / 13)

    def test_interior_square(self):
        chip = generate_grid(6, 6)
        square = grid_region(6, 6, [(2, 2), (2, 3), (3, 2), (3, 3)])
        stats = region_ratio(chip, square)
        assert (stats.r_i, stats.r_a) == (4, 12)
        assert stats.ratio == pytest.approx(1 / 3)

    def test_whole_chip(self):
        chip = generate_grid(4, 4)
        stats = region_ratio(chip, range(16))
        assert stats.ratio == 1.0
        assert stats.r_i == len(chip.graph.edges)

    def test_empty_region_rejected(self):
        with pytest.raises(AllocationError):
            region_ratio(generate_grid(2, 2), [])

    @given(rows=st.integers(2, 6), cols=st.integers(2, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_accounting(self, rows, cols, data):
        chip = generate_grid(rows, cols)
        n = chip.n_qubits
        size = data.draw(st.integers(1, n))
        region = data.draw(st.permutations(range(n)))[:size]
        stats = region_ratio(chip, region)
        deg_sum = int(chip.graph.degrees[list(region)].sum())
        boundary = stats.r_a - stats.r_i
        assert deg_sum - 2 * stats.r_i == boundary


class TestQubitError:
    def test_zero_duration(self):
        spec = QubitSpec(0, t2_us=100.0, readout_error=0.02)
        assert qubit_error(spec, 0.0) == 0.0

    def test_closed_form(self):
        spec = QubitSpec(0, t2_us=100.0, readout_error=0.02)
        expected = (1 - math.exp(-1)) * 0.02
        assert qubit_error(spec, 100e-6) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_readout(self):
        lo = QubitSpec(0, t2_us=100.0, readout_error=0.01)
        hi = QubitSpec(1, t2_us=100.0, readout_error=0.02)
        for t_e in (1e-6, 1e-4, 1e-2):
            assert qubit_error(lo, t_e) < qubit_error(hi, t_e)

    def test_coherence_mode(self):
        spec = QubitSpec(0, t2_us=100.0, readout_error=0.02, t1_us=50.0)
        assert qubit_error(spec, 1e-4, "min_t1_t2") > qubit_error(spec, 1e-4, "t2")


def placed_roots(chip, groups):
    """Roots of the groups ``allocate`` places on an empty chip, in placement order."""
    outcome = allocate(chip, Occupancy(chip), groups)
    return [p.root for p in outcome.placed]


class TestOccupancy:
    def test_place_rejects_overlapping_and_touching_regions(self):
        occ = Occupancy(path_chip(6))
        occ.place(0, [0, 1], root=0)
        with pytest.raises(AllocationError, match="overlaps"):
            occ.place(1, [1, 2], root=2)
        with pytest.raises(AllocationError, match="touches"):
            occ.place(1, [2, 3], root=3)
        occ.place(1, [3, 4], root=4)  # qubit 2 is the buffer between them
        assert occ.buffer_mask().tolist() == [False, False, True, False, False, True]


class TestSelectRoots:
    # root choice is interleaved with growth: each root sees the regions
    # and roots of the groups placed before it in the pass
    def test_four_equal_groups_land_on_corners(self):
        chip = generate_grid(5, 5)
        groups = [singleton_group(i, n=4) for i in range(4)]
        assert sorted(placed_roots(chip, groups)) == [0, 4, 20, 24]

    def test_single_group_path_endpoint(self):
        chip = path_chip(3)
        assert placed_roots(chip, [singleton_group(0, n=1)]) == [0]  # lowest-id endpoint

    def test_second_root_at_far_end(self):
        chip = path_chip(5)
        groups = [singleton_group(0, n=1), singleton_group(1, n=1)]
        assert placed_roots(chip, groups) == [0, 4]

    def test_no_eligible_qubit(self, monkeypatch):
        chip = generate_grid(2, 3)
        occ = Occupancy(chip)
        occ.place(7, [0, 1, 3, 4], root=0)  # free column {2, 5} is all buffer
        seen = []
        real_resolve = allocator.resolve_conflict

        def recording_resolve(stalled, blockers, *args):
            seen.append(set(blockers))
            return real_resolve(stalled, blockers, *args)

        monkeypatch.setattr(allocator, "resolve_conflict", recording_resolve)
        outcome = allocate(chip, occ, [singleton_group(0, n=1)])
        assert outcome.placed == [] and [j.id for j in outcome.requeued] == [0]
        assert outcome.conflicts[0]["whole_group"]
        assert seen == [{7}]

    def test_error_score_breaks_ties(self):
        # path of 3: both endpoints have eccentricity 2; noisier qubit 0 loses
        specs = (
            QubitSpec(0, t2_us=100.0, readout_error=0.05),
            QubitSpec(1, t2_us=100.0, readout_error=0.01),
            QubitSpec(2, t2_us=100.0, readout_error=0.01),
        )
        from qpusched.chip import Chip, CouplingGraph
        chip = Chip("p", CouplingGraph(3, ((0, 1), (1, 2))), specs)
        assert placed_roots(chip, [singleton_group(0, n=1)]) == [2]


class TestGrowRegion:
    def test_demand_one_is_root(self):
        chip = generate_grid(4, 4)
        res = grow_region(chip, Occupancy(chip), root=5, demand=1, t_e_group=0.001, group_id=0)
        assert res.region.qubits == (5,)
        assert res.stats.r_i == 0
        assert res.stats.ratio == 0.0

    def test_interior_demand_four_grows_square_not_line(self):
        chip = generate_grid(9, 9)
        root = 4 * 9 + 4  # dead center
        res = grow_region(chip, Occupancy(chip), root=root, demand=4, t_e_group=0.001, group_id=0)
        assert res.stats.ratio == pytest.approx(1 / 3)
        rows = sorted({q // 9 for q in res.region.qubits})
        cols = sorted({q % 9 for q in res.region.qubits})
        assert len(rows) == 2 and len(cols) == 2  # a 2x2 block, never a 1x4 line

    def test_stall_names_blockers(self):
        # 2x4 grid, left 2x2 owned: only {3, 7} are non-buffer, demand 3 stalls
        chip = generate_grid(2, 4)
        occ = Occupancy(chip)
        occ.place(9, [0, 1, 4, 5], root=0)
        res = grow_region(chip, occ, root=3, demand=3, t_e_group=0.001, group_id=1)
        assert res.region is None
        assert res.blockers == {9}
        # decided by the component search before any growth step
        assert res.steps == []

    def test_root_preconditions(self):
        chip = generate_grid(2, 4)
        occ = Occupancy(chip)
        occ.place(9, [0, 1, 4, 5], root=0)
        with pytest.raises(AllocationError, match="not free"):
            grow_region(chip, occ, root=0, demand=1, t_e_group=0.001, group_id=1)
        with pytest.raises(AllocationError, match="adjacent"):
            grow_region(chip, occ, root=2, demand=1, t_e_group=0.001, group_id=1)

    def test_whole_chip_growth(self):
        chip = generate_grid(4, 4)
        res = grow_region(chip, Occupancy(chip), root=0, demand=16, t_e_group=0.001, group_id=0)
        assert res.region.qubits == tuple(range(16))
        assert res.stats.ratio == 1.0

    def test_region_connected_and_sized(self):
        chip = generate_grid(6, 6)
        for demand in (1, 3, 7, 12, 20):
            res = grow_region(chip, Occupancy(chip), root=14, demand=demand,
                              t_e_group=0.001, group_id=0)
            assert len(res.region.qubits) == demand
            sub = nx.Graph()
            sub.add_nodes_from(res.region.qubits)
            sub.add_edges_from(
                (a, b) for a, b in chip.graph.edges
                if a in res.region.qubits and b in res.region.qubits
            )
            assert nx.is_connected(sub)

    def test_each_step_attains_frontier_maximum(self):
        # replay oracle: recompute every candidate's post-addition ratio by
        # brute force and require the recorded choice to attain the maximum
        chip = generate_grid(5, 5)
        res = grow_region(chip, Occupancy(chip), root=12, demand=10, t_e_group=0.001, group_id=0)
        region = [12]
        for step in res.steps:
            best = None
            recorded = dict(zip(step.frontier, zip(step.frontier_r_i, step.frontier_r_a)))
            for cand in step.frontier:
                stats = region_ratio(chip, region + [cand])
                assert (stats.r_i, stats.r_a) == recorded[cand]
                if best is None or stats.r_i * best[1] > best[0] * stats.r_a:
                    best = (stats.r_i, stats.r_a)
            chosen = region_ratio(chip, region + [step.chosen])
            assert chosen.r_i * best[1] == best[0] * chosen.r_a  # attains the max
            region.append(step.chosen)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_buffers_and_stall_blockers_match_edge_scan(self, data):
        # brute-force oracle over chip.graph.edges
        chip, owner, occ = draw_occupancy(data)
        n = chip.n_qubits
        adj = {q: set() for q in range(n)}
        for a, b in chip.graph.edges:
            adj[a].add(b)
            adj[b].add(a)
        buffers = {q for q in range(n) if owner[q] < 0 and any(owner[w] >= 0 for w in adj[q])}
        assert set(np.flatnonzero(occ.buffer_mask()).tolist()) == buffers
        assert occ.near.tolist() == [sum(owner[w] >= 0 for w in adj[q]) for q in range(n)]

        eligible = [q for q in range(n) if owner[q] < 0 and q not in buffers]
        if not eligible or len(eligible) == n:
            return
        root = eligible[0]
        component, stack = {root}, [root]
        while stack:
            for w in adj[stack.pop()]:
                if w in eligible and w not in component:
                    component.add(w)
                    stack.append(w)
        blockers = {
            owner[x]
            for q in component for w in adj[q] if w in buffers
            for x in adj[w] if owner[x] >= 0
        }
        res = grow_region(chip, occ, root=root, demand=n, t_e_group=0.001, group_id=7)
        assert res.region is None
        assert res.blockers == blockers

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_steps_on_and_off_agree(self, data):
        # recording the steps must not change the outcome
        chip, _, occ = draw_occupancy(data)
        eligible = np.flatnonzero((occ.owner < 0) & ~occ.buffer_mask())
        if not eligible.size:
            return
        root = data.draw(st.sampled_from(eligible.tolist()))
        demand = data.draw(st.integers(1, chip.n_qubits))
        on, off = (
            grow_region(chip, occ, root=root, demand=demand, t_e_group=0.001,
                        group_id=7, record_steps=steps)
            for steps in (True, False)
        )
        assert (off.ok, off.region, off.stats, off.blockers) == (
            on.ok, on.region, on.stats, on.blockers)
        assert off.steps == []


class TestResolveConflict:
    def test_pass_blocker_with_worse_priority_yields(self):
        stalled = singleton_group(0, n=2, key=(1.0, 0.0, 0))
        blocker = singleton_group(1, n=2, key=(5.0, 0.0, 1))
        decision = resolve_conflict(stalled, {1}, {1: blocker})
        assert decision.target_group_id == 1
        assert decision.whole_group

    def test_merged_blocker_sheds_worst_member(self):
        # the blocker's best member (3.0) is still worse than the stalled
        # group (2.0), so the blocker loses and sheds its worst member
        keys = {0: (3.0, 0.0, 0), 1: (9.0, 0.0, 1), 2: (4.0, 0.0, 2)}
        blocker = Group.build(7, [make_job(i, n=2) for i in range(3)], keys_by_id=keys)
        stalled = singleton_group(8, n=2, key=(2.0, 0.0, 8))
        decision = resolve_conflict(stalled, {7}, {7: blocker})
        assert decision.target_group_id == 7
        assert decision.job.id == 1  # worst member of the losing group
        assert not decision.whole_group

    def test_running_blockers_are_immune(self):
        stalled = singleton_group(0, n=2, key=(1.0, 0.0, 0))
        decision = resolve_conflict(stalled, {42}, {})
        assert decision.target_group_id == 0

    def test_stalled_with_worse_priority_yields(self):
        stalled = singleton_group(0, n=2, key=(9.0, 0.0, 0))
        blocker = singleton_group(1, n=2, key=(1.0, 0.0, 1))
        decision = resolve_conflict(stalled, {1}, {1: blocker})
        assert decision.target_group_id == 0


class TestAllocate:
    def test_single_group_whole_chip(self):
        chip = generate_grid(4, 4)
        occ = Occupancy(chip)
        out = allocate(chip, occ, [singleton_group(0, n=16)])
        assert len(out.placed) == 1
        assert out.placed[0].stats.ratio == 1.0
        assert occ.owned_count() == 16

    def test_zero_groups(self):
        chip = generate_grid(2, 2)
        out = allocate(chip, Occupancy(chip), [])
        assert out.placed == [] and out.requeued == []

    def test_conflicting_groups_lower_priority_requeued(self):
        # 2x3 grid: demands 4 + 2 cannot coexist with a buffer between them
        chip = generate_grid(2, 3)
        occ = Occupancy(chip)
        high = singleton_group(0, n=4, key=(1.0, 0.0, 0))
        low = singleton_group(1, n=2, key=(2.0, 0.0, 1))
        out = allocate(chip, occ, [high, low])
        assert [p.group.id for p in out.placed] == [0]
        assert [j.id for j in out.requeued] == [1]
        assert len(out.placed[0].region.qubits) == 4

    def test_stalled_better_priority_evicts_pass_blocker(self):
        chip = generate_grid(2, 3)
        occ = Occupancy(chip)
        low = singleton_group(0, n=4, key=(2.0, 0.0, 0))
        high = singleton_group(1, n=2, key=(1.0, 0.0, 1))
        # high is placed first (priority order given), low stalls against it?
        out = allocate(chip, occ, [high, low])
        assert [p.group.id for p in out.placed] == [1]
        assert [j.id for j in out.requeued] == [0]

    def test_running_group_immune(self):
        chip = generate_grid(2, 3)
        occ = Occupancy(chip)
        occ.place(99, [0, 1, 3, 4], root=0)
        want = singleton_group(0, n=2, key=(0.0, 0.0, 0))
        out = allocate(chip, occ, [want])
        assert out.placed == []
        assert [j.id for j in out.requeued] == [0]
        assert 99 in occ.regions

    def test_buffer_invariant_after_allocate(self):
        chip = generate_grid(6, 6)
        occ = Occupancy(chip)
        groups = [singleton_group(i, n=4, key=(float(i), 0.0, i)) for i in range(4)]
        out = allocate(chip, occ, groups)
        assert len(out.placed) >= 2
        for a, b in chip.graph.edges:
            oa, ob = occ.owner[a], occ.owner[b]
            assert not (oa >= 0 and ob >= 0 and oa != ob)

    def test_merged_group_sheds_member_and_retries(self):
        # 2x3 grid: merged group (2+2) cannot fit beside the running block,
        # so it sheds the worst member and retries with demand 2 -> still
        # blocked by the buffer -> requeues both members eventually
        chip = generate_grid(2, 3)
        occ = Occupancy(chip)
        occ.place(99, [0, 3], root=0)
        keys = {0: (1.0, 0.0, 0), 1: (2.0, 0.0, 1)}
        merged = Group.build(5, [make_job(0, n=2), make_job(1, n=2)], keys_by_id=keys)
        out = allocate(chip, occ, [merged])
        assert [j.id for j in out.requeued] == [1]
        assert len(out.placed) == 1
        assert out.placed[0].group.demand == 2


@given(
    rows=st.integers(3, 6),
    cols=st.integers(3, 6),
    demands=st.lists(st.integers(1, 6), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_allocate_properties_random(rows, cols, demands):
    chip = generate_grid(rows, cols)
    occ = Occupancy(chip)
    groups = [singleton_group(i, n=d, key=(float(i), 0.0, i)) for i, d in enumerate(demands)]
    out = allocate(chip, occ, groups)
    placed_jobs = {j.id for p in out.placed for j in p.group.members}
    requeued_jobs = {j.id for j in out.requeued}
    assert placed_jobs | requeued_jobs == {g.id for g in groups}
    assert placed_jobs & requeued_jobs == set()
    for p in out.placed:
        assert len(p.region.qubits) == p.group.demand
        sub = nx.Graph()
        sub.add_nodes_from(p.region.qubits)
        sub.add_edges_from(
            (a, b) for a, b in chip.graph.edges
            if a in p.region.qubits and b in p.region.qubits
        )
        assert nx.is_connected(sub)
        # recorded stats match a brute-force recount
        stats = region_ratio(chip, p.region.qubits)
        assert (stats.r_i, stats.r_a) == (p.stats.r_i, p.stats.r_a)
    for a, b in chip.graph.edges:
        oa, ob = occ.owner[a], occ.owner[b]
        assert not (oa >= 0 and ob >= 0 and oa != ob)


@cache
def small_graphs():
    return [(n, edges) for n, graphs in enumerate_validated(6).items() for edges in graphs]


def copy_of(occ):
    """An independent Occupancy with the same regions and roots."""
    copy = Occupancy(occ.chip)
    for gid, qubits in occ.regions.items():
        copy.place(gid, qubits, occ.roots[gid])
    return copy


def assert_matches_conflict_free_pass(chip, before, groups, outcome, occ, record_steps):
    """``outcome`` equals allocating, without conflicts, the groups it kept.

    The survivors are ``groups`` with the requeued jobs removed in the order
    they were requeued; allocating them on a fresh copy of the occupancy
    the pass started from must place the same regions from the same roots.
    """
    survivors = list(groups)
    for job in outcome.requeued:
        i = next(i for i, g in enumerate(survivors) if job in g.members)
        if len(survivors[i].members) == 1:
            del survivors[i]
        else:
            survivors[i] = survivors[i].without(job.id)
    fresh = copy_of(before)
    replay = allocate(chip, fresh, survivors, record_steps=record_steps)
    assert replay.requeued == [] and replay.conflicts == []
    assert replay.placed == outcome.placed
    assert np.array_equal(fresh.owner, occ.owner)
    assert np.array_equal(fresh.near, occ.near)
    assert fresh.roots == occ.roots


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_allocate_equals_conflict_free_pass_of_survivors(data):
    n, edges = data.draw(st.sampled_from(small_graphs()), label="graph")
    chip, _, occ = draw_occupancy(data, uniform_chip(n, edges), owner_ids=(90, 91))
    sizes = data.draw(st.lists(st.integers(1, min(n, 3)), min_size=1, max_size=4), label="members")
    groups, jid = [], 0
    for gid, size in enumerate(sizes):
        jobs = [make_job(jid + i, n=data.draw(st.integers(1, max(1, min(3, n // size)))))
                for i in range(size)]
        keys = {j.id: (data.draw(st.floats(0, 10)), 0.0, j.id) for j in jobs}
        groups.append(Group.build(gid, jobs, keys_by_id=keys))
        jid += size
    groups = data.draw(st.permutations(groups), label="order")  # any priority order
    record_steps = data.draw(st.booleans(), label="record_steps")
    before = copy_of(occ)
    outcome = allocate(chip, occ, groups, record_steps=record_steps)
    assert_matches_conflict_free_pass(chip, before, groups, outcome, occ, record_steps)


def test_evicting_an_earlier_blocker_resumes_at_it(monkeypatch):
    # path 0-...-8: C takes qubit 0 and A qubit 8; B then finds only 2..6
    # between their buffers, five qubits for a demand of six. A, placed
    # before B but with a worse key, is the one evicted; the pass resumes
    # at A's slot, so C is grown once and B regrows from the far end.
    chip = path_chip(9)
    c = singleton_group(0, n=1, key=(0.0, 0.0, 0))
    a = singleton_group(1, n=1, key=(5.0, 0.0, 1))
    b = singleton_group(2, n=6, key=(1.0, 0.0, 2))
    grown = []
    real_grow = allocator.grow_region

    def counting_grow(*args, **kwargs):
        grown.append(kwargs["group_id"])
        return real_grow(*args, **kwargs)

    monkeypatch.setattr(allocator, "grow_region", counting_grow)
    occ = Occupancy(chip)
    outcome = allocate(chip, occ, [c, a, b], record_steps=False)
    assert outcome.conflicts == [
        {"stalled_group": 2, "evicted_group": 1, "requeued_job": 1, "whole_group": True}
    ]
    assert grown == [0, 1, 2, 2]
    assert [p.region.qubits for p in outcome.placed] == [(0,), (3, 4, 5, 6, 7, 8)]
    assert_matches_conflict_free_pass(chip, Occupancy(chip), [c, a, b], outcome, occ, False)
