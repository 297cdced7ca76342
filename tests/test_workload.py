"""Job model and Poisson workload generation tests.

Statistical oracles: Poisson-count concentration, pooled inter-arrival
sample means, and a Kolmogorov-Smirnov test against the exponential law.
"""

import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qpusched.workload import (
    Distribution,
    Job,
    WorkloadError,
    WorkloadSpec,
    default_spec,
    dump_workload,
    generate_poisson_workload,
    load_workload,
    service_demand,
)


class TestJob:
    def test_service_demand_identity(self):
        assert service_demand(Job(0, 4, 1, 0.0, 1.0)) == 1.0

    def test_service_demand_product(self):
        assert service_demand(Job(0, 4, 1000, 0.0, 0.002)) == pytest.approx(2.0)

    def test_zero_shots_rejected(self):
        with pytest.raises(WorkloadError, match="shots"):
            Job(0, 4, 0, 0.0, 0.01)

    def test_invariants(self):
        with pytest.raises(WorkloadError):
            Job(0, 0, 10, 0.0, 0.01)
        with pytest.raises(WorkloadError):
            Job(0, 2, 10, -1.0, 0.01)
        with pytest.raises(WorkloadError):
            Job(0, 2, 10, 0.0, 0.0)

    @pytest.mark.parametrize("t_sub", [math.inf, math.nan])
    def test_non_finite_t_sub_rejected(self, t_sub):
        with pytest.raises(WorkloadError, match="t_sub"):
            Job(0, 2, 10, t_sub, 0.01)

    @pytest.mark.parametrize("t_e_shot", [math.inf, math.nan])
    def test_non_finite_t_e_shot_rejected(self, t_e_shot):
        with pytest.raises(WorkloadError, match="t_e_shot"):
            Job(0, 2, 10, 0.0, t_e_shot)


class TestDistribution:
    @pytest.mark.parametrize("dist", [
        lambda: Distribution("uniform", 0, math.nan),
        lambda: Distribution("int_uniform", -math.inf, 3),
        lambda: Distribution("choice", values=(1, math.inf)),
        lambda: Distribution("choice", values=(1, 2), weights=(1.0, math.nan)),
    ])
    def test_non_finite_parameter_rejected(self, dist):
        with pytest.raises(WorkloadError, match="non-finite"):
            dist()

    def test_empty_support_rejected(self):
        with pytest.raises(WorkloadError, match="empty support"):
            Distribution("int_uniform", low=5, high=2)
        with pytest.raises(WorkloadError):
            Distribution("choice", values=())

    def test_samples_stay_in_support(self):
        rng = np.random.default_rng(0)
        d = Distribution("int_uniform", low=3, high=7)
        vals = {d.sample(rng) for _ in range(200)}
        assert vals == {3, 4, 5, 6, 7}
        u = Distribution("uniform", low=0.5, high=1.5)
        assert all(0.5 <= u.sample(rng) < 1.5 for _ in range(100))

    def test_weighted_choice(self):
        rng = np.random.default_rng(1)
        d = Distribution("choice", values=(10, 20), weights=(0.0, 1.0))
        assert all(d.sample(rng) == 20 for _ in range(20))

    def test_round_trip(self):
        d = Distribution("choice", values=(1, 2, 3), weights=(1, 1, 2))
        assert Distribution.from_dict(d.to_dict()) == d


class TestWorkloadSpec:
    def test_rate_and_horizon_positive(self):
        with pytest.raises(WorkloadError):
            default_spec(64, arrival_rate=0.0, horizon=10.0)
        with pytest.raises(WorkloadError):
            default_spec(64, arrival_rate=1.0, horizon=0.0)

    @pytest.mark.parametrize("rate, horizon", [(math.inf, 10.0), (math.nan, 10.0), (1.0, math.inf)])
    def test_rate_and_horizon_finite(self, rate, horizon):
        # generation would never reach an infinite horizon or leave t = 0
        with pytest.raises(WorkloadError, match="finite"):
            default_spec(64, arrival_rate=rate, horizon=horizon)

    def test_support_checked_against_job_invariants(self):
        with pytest.raises(WorkloadError, match="qubit"):
            WorkloadSpec(
                arrival_rate=1.0,
                horizon=1.0,
                qubit_dist=Distribution("int_uniform", low=0, high=4),
                shots_dist=Distribution("int_uniform", low=1, high=2),
                t_e_dist=Distribution("uniform", low=0.001, high=0.002),
            )


class TestGeneration:
    def test_deterministic_for_seed(self):
        spec = default_spec(64, 5.0, 20.0, seed=42)
        assert generate_poisson_workload(spec) == generate_poisson_workload(spec)

    def test_different_seed_differs(self):
        a = generate_poisson_workload(default_spec(64, 5.0, 20.0, seed=1))
        b = generate_poisson_workload(default_spec(64, 5.0, 20.0, seed=2))
        assert a != b

    def test_count_concentration(self):
        # lambda * horizon = 500 expected arrivals; 3-sigma Poisson bound
        wl = generate_poisson_workload(default_spec(64, 5.0, 100.0, seed=1))
        assert abs(len(wl) - 500) <= 3 * math.sqrt(500)

    def test_arrivals_within_horizon_and_sorted(self):
        wl = generate_poisson_workload(default_spec(64, 5.0, 100.0, seed=3))
        assert all(0 <= j.t_sub <= 100.0 for j in wl.jobs)
        subs = [j.t_sub for j in wl.jobs]
        assert subs == sorted(subs)
        assert [j.id for j in wl.jobs] == list(range(len(wl)))

    def test_pooled_mean_interarrival(self):
        # 10 seeds at lambda = 5: pooled sample mean within 10% of 0.2
        gaps = []
        for seed in range(10):
            wl = generate_poisson_workload(default_spec(64, 5.0, 100.0, seed=seed))
            subs = [j.t_sub for j in wl.jobs]
            gaps.extend(np.diff([0.0] + subs))
        mean = float(np.mean(gaps))
        assert 0.18 <= mean <= 0.22

    def test_exponential_ks(self):
        # >= 1e4 gaps accepted against Exp(5) at 1% significance
        wl = generate_poisson_workload(default_spec(64, 5.0, 2100.0, seed=12345))
        subs = [j.t_sub for j in wl.jobs]
        gaps = np.diff([0.0] + subs)
        assert len(gaps) >= 10_000
        stat = scipy.stats.kstest(gaps, "expon", args=(0, 1 / 5.0))
        assert stat.pvalue >= 0.01

    def test_attributes_within_bounds(self):
        wl = generate_poisson_workload(default_spec(64, 5.0, 50.0, seed=7))
        assert all(2 <= j.n <= 16 for j in wl.jobs)
        assert all(100 <= j.shots <= 1000 for j in wl.jobs)
        assert all(0.0005 <= j.t_e_shot < 0.005 for j in wl.jobs)


class TestWorkloadFiles:
    def test_minimal_file(self):
        wl = load_workload('{"id": 0, "n": 4, "shots": 100, "t_sub": 0, "t_e_shot": 0.01}\n')
        assert len(wl) == 1
        assert wl.jobs[0].n == 4

    def test_out_of_order_jobs_sorted(self):
        text = (
            '{"id": 0, "n": 2, "shots": 10, "t_sub": 5.0, "t_e_shot": 0.01}\n'
            '{"id": 1, "n": 2, "shots": 10, "t_sub": 1.0, "t_e_shot": 0.01}\n'
        )
        wl = load_workload(text)
        assert [j.id for j in wl.jobs] == [1, 0]

    def test_invariant_violation_rejected(self):
        with pytest.raises(WorkloadError):
            load_workload('{"id": 0, "n": 0, "shots": 10, "t_sub": 0, "t_e_shot": 0.01}\n')

    def test_malformed_record(self):
        with pytest.raises(WorkloadError, match="line 1"):
            load_workload('{"id": 0}\n')

    def test_duplicate_ids_rejected(self):
        line = '{"id": 0, "n": 1, "shots": 1, "t_sub": 0, "t_e_shot": 0.01}\n'
        with pytest.raises(WorkloadError, match="duplicate"):
            load_workload(line + line)

    @pytest.mark.parametrize("field, value", [("n", 2.7), ("shots", 100.9), ("n", "4")])
    def test_non_integral_count_rejected(self, field, value):
        doc = {"id": 0, "n": 4, "shots": 100, "t_sub": 0.0, "t_e_shot": 0.01, field: value}
        with pytest.raises(WorkloadError, match=f"{field} must be an integer"):
            load_workload(json.dumps(doc))

    def test_integral_float_count_accepted(self):
        wl = load_workload('{"id": 0, "n": 4.0, "shots": 100.0, "t_sub": 0, "t_e_shot": 0.01}\n')
        assert (wl.jobs[0].n, wl.jobs[0].shots) == (4, 100)

    def test_dump_load_round_trip(self):
        wl = generate_poisson_workload(default_spec(64, 2.0, 10.0, seed=5))
        again = load_workload(dump_workload(wl))
        assert again.jobs == wl.jobs


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_generation_is_pure(seed):
    spec = default_spec(32, 3.0, 5.0, seed=seed)
    assert dump_workload(generate_poisson_workload(spec)) == dump_workload(
        generate_poisson_workload(spec)
    )
