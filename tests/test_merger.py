"""Prefix selection and duration-similarity grouping tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpusched import MergeConfig
from qpusched.merger import Group, group_by_exec_time, select_prefix
from qpusched.workload import Job, service_demand

from conftest import make_job


def jobs_with_demands(demands):
    return [make_job(i, n=d) for i, d in enumerate(demands)]


class TestSelectPrefix:
    def test_strict_running_sum(self):
        prefix = select_prefix(jobs_with_demands([30, 40, 50]), 100)
        assert [j.n for j in prefix] == [30, 40]

    def test_backfill_residual_check(self):
        # 50 exceeds the residual 30 even with backfill on
        prefix = select_prefix(jobs_with_demands([30, 40, 50]), 100, backfill=True)
        assert [j.n for j in prefix] == [30, 40]

    def test_backfill_skips_blocked_head(self):
        strict = select_prefix(jobs_with_demands([30, 80, 40]), 100)
        filled = select_prefix(jobs_with_demands([30, 80, 40]), 100, backfill=True)
        assert [j.n for j in strict] == [30]
        assert [j.n for j in filled] == [30, 40]

    def test_empty_queue(self):
        assert select_prefix([], 100) == []

    def test_zero_capacity(self):
        assert select_prefix(jobs_with_demands([1]), 0) == []


class TestGrouping:
    def test_similarity_threshold(self):
        jobs = [make_job(0, t_e=10.0, shots=1), make_job(1, t_e=11.0, shots=1),
                make_job(2, t_e=30.0, shots=1)]
        groups = group_by_exec_time(jobs, alpha=1.5)
        members = sorted(tuple(sorted(j.id for j in g.members)) for g in groups)
        assert members == [(0, 1), (2,)]

    def test_singleton(self):
        groups = group_by_exec_time([make_job(0, t_e=0.01)], alpha=1.5)
        assert len(groups) == 1
        assert groups[0].t_e_group == 0.01

    def test_alpha_one_admits_equal_only(self):
        jobs = [make_job(0, t_e=10.0, shots=1), make_job(1, t_e=10.0, shots=1),
                make_job(2, t_e=12.0, shots=1)]
        groups = group_by_exec_time(jobs, alpha=1.0)
        members = sorted(tuple(sorted(j.id for j in g.members)) for g in groups)
        assert members == [(0, 1), (2,)]

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            group_by_exec_time([], alpha=0.9)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.5])
    def test_grouping_and_config_share_the_alpha_rule(self, alpha):
        jobs = [make_job(0, t_e=0.01), make_job(1, t_e=1.0)]
        with pytest.raises(ValueError, match="merge alpha must be finite and >= 1") as grouping:
            group_by_exec_time(jobs, alpha)
        with pytest.raises(ValueError) as config:
            MergeConfig(alpha=alpha)
        assert str(grouping.value) == str(config.value)

    def test_group_by_total_switch(self):
        # same t_e but very different shots: per-shot grouping merges them,
        # total-time grouping does not
        jobs = [make_job(0, t_e=0.01, shots=100), make_job(1, t_e=0.01, shots=10000)]
        merged = group_by_exec_time(jobs, alpha=1.5)
        split = group_by_exec_time(jobs, alpha=1.5, by_total=True)
        assert len(merged) == 1
        assert len(split) == 2

    def test_groups_ordered_by_priority_key(self):
        keys = {0: (5.0, 0.0, 0), 1: (1.0, 0.0, 1)}
        jobs = [make_job(0, t_e=0.01, shots=1), make_job(1, t_e=1.0, shots=1)]
        groups = group_by_exec_time(jobs, alpha=1.1, keys_by_id=keys)
        assert [g.members[0].id for g in groups] == [1, 0]


def group_service_demand(group):
    """Time the merged program occupies its region: shots_group * t_e_group."""
    return group.shots_group * group.t_e_group


class TestGroupModel:
    def test_service_demand_singleton(self):
        g = Group.build(0, [make_job(0, shots=100, t_e=0.01)])
        assert group_service_demand(g) == pytest.approx(1.0)

    def test_service_demand_stretches_to_longest(self):
        g = Group.build(0, [make_job(0, shots=100, t_e=0.010),
                            make_job(1, shots=200, t_e=0.011)])
        assert group_service_demand(g) == pytest.approx(2.2)

    def test_identical_members_idempotent(self):
        one = Group.build(0, [make_job(0, shots=100, t_e=0.01)])
        two = Group.build(0, [make_job(0, shots=100, t_e=0.01),
                              make_job(1, shots=100, t_e=0.01)])
        assert group_service_demand(two) == group_service_demand(one)

    def test_equality_reads_the_declared_fields(self):
        jobs = [make_job(0, n=3, shots=100, t_e=0.010), make_job(1, n=5, shots=200, t_e=0.011)]
        g = Group.build(0, jobs)
        assert g == Group(0, tuple(jobs), (100, 200), ((0.0, 0), (0.0, 1)))
        assert g != Group.build(1, jobs)
        assert g != Group.build(0, jobs[:1])
        assert g != Group.build(0, jobs, shots_by_id={0: 100, 1: 199})
        assert g != Group.build(0, jobs, keys_by_id={0: (0.0, 0), 1: (0.0, 2)})
        assert g.__eq__((0, tuple(jobs), (100, 200), ((0.0, 0), (0.0, 1)))) is NotImplemented
        assert hash(g) == hash(Group.build(0, jobs))
        # groups that share an id but not their members hash apart
        assert len({hash(Group.build(0, [j])) for j in jobs} | {hash(g)}) == 3
        with pytest.raises(TypeError):
            Group(0, tuple(jobs), (100, 200), ((0.0, 0), (0.0, 1)), demand=8)

    def test_repr_lists_every_field(self):
        job = make_job(0, n=3, shots=100, t_e=0.010)
        assert repr(Group.build(4, [job])) == (
            f"Group(id=4, members=({job!r},), member_shots=(100,), member_keys=((0.0, 0),), "
            "t_e_group=0.01, shots_group=100, demand=3, priority_key=(0.0, 0))"
        )

    @pytest.mark.parametrize("shots, keys", [
        ((100,), ((0.0, 0), (0.0, 1))),
        ((100, 200), ((0.0, 0),)),
        ((100,), ((0.0, 0),)),
        ((100, 200, 300), ((0.0, 0), (0.0, 1))),
    ])
    def test_member_lists_must_have_one_length(self, shots, keys):
        jobs = (make_job(0, n=2), make_job(1, n=2))
        with pytest.raises(ValueError, match="2 members"):
            Group(0, jobs, shots, keys)

    def test_priority_is_best_member_key(self):
        keys = {0: (3.0, 0.0, 0), 1: (1.0, 0.0, 1), 2: (2.0, 0.0, 2)}
        g = Group.build(0, [make_job(i) for i in range(3)], keys_by_id=keys)
        assert g.priority_key == (1.0, 0.0, 1)
        assert g.worst_member().id == 0

    def test_without_member_recomputes(self):
        jobs = [make_job(0, n=3, shots=100, t_e=0.010),
                make_job(1, n=5, shots=200, t_e=0.011)]
        g = Group.build(0, jobs)
        reduced = g.without(1)
        assert reduced.demand == 3
        assert reduced.t_e_group == 0.010
        assert reduced.shots_group == 100
        with pytest.raises(ValueError):
            reduced.without(0)  # cannot empty a group

    def test_remaining_shots_override(self):
        g = Group.build(0, [make_job(0, shots=500, t_e=0.01)], shots_by_id={0: 40})
        assert g.shots_group == 40


jobs_strategy = st.lists(
    st.tuples(st.integers(1, 20), st.integers(1, 300), st.floats(1e-4, 0.05)),
    min_size=1,
    max_size=15,
).map(
    lambda rows: [
        Job(id=i, n=r[0], shots=r[1], t_sub=0.0, t_e_shot=r[2]) for i, r in enumerate(rows)
    ]
)


class TestGroupingProperties:
    @given(jobs_strategy, st.floats(1.0, 3.0))
    @settings(max_examples=120, deadline=None)
    def test_partition_and_spread(self, jobs, alpha):
        groups = group_by_exec_time(jobs, alpha)
        seen = [j.id for g in groups for j in g.members]
        assert sorted(seen) == sorted(j.id for j in jobs)
        for g in groups:
            tes = [j.t_e_shot for j in g.members]
            assert max(tes) <= alpha * min(tes) * (1 + 1e-12)

    @given(jobs_strategy)
    @settings(max_examples=80, deadline=None)
    def test_merging_never_shortens_members(self, jobs):
        for g in group_by_exec_time(jobs, 2.0):
            demand = group_service_demand(g)
            for j in g.members:
                assert demand >= service_demand(j) - 1e-12

    @given(jobs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_alpha_one_distinct_durations_stay_single(self, jobs):
        if len({j.t_e_shot for j in jobs}) != len(jobs):
            return
        groups = group_by_exec_time(jobs, 1.0)
        assert all(len(g.members) == 1 for g in groups)


@given(
    rows=st.lists(
        st.tuples(st.integers(1, 20), st.integers(1, 300), st.floats(1e-4, 0.05),
                  st.integers(1, 1000), st.floats(-10.0, 10.0)),
        min_size=1, max_size=8,
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_derived_values_hold_through_build_and_without(rows, data):
    # members with their remaining shots and keys; each drop leaves at least one
    jobs = [Job(id=i, n=n, shots=shots, t_sub=0.0, t_e_shot=t_e)
            for i, (n, shots, t_e, _, _) in enumerate(rows)]
    remaining = {i: r[3] for i, r in enumerate(rows)}
    keys = {i: (r[4], 0.0, i) for i, r in enumerate(rows)}
    drops = data.draw(st.permutations(range(len(jobs))), label="drops")[:len(jobs) - 1]
    drops = drops[:data.draw(st.integers(0, len(drops)), label="n_drops")]
    g = Group.build(3, jobs, shots_by_id=remaining, keys_by_id=keys)
    chain = [g]
    for jid in drops:
        chain.append(chain[-1].without(jid))
    for g in chain:
        ids = [j.id for j in g.members]
        assert g.t_e_group == max(j.t_e_shot for j in g.members)
        assert g.shots_group == max(remaining[i] for i in ids)
        assert g.demand == sum(j.n for j in g.members)
        assert g.priority_key == min(keys[i] for i in ids)
        assert g == Group.build(3, g.members, shots_by_id=remaining, keys_by_id=keys)
