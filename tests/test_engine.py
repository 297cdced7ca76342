"""Simulation-loop tests: lifecycle, preemption, conservation, determinism.

The serial-schedule oracle recomputes FCFS full-chip makespans in closed
form; conservation compares job-side qubit-seconds with the occupancy
timeline integral rebuilt by the metrics module.
"""

import math

import pytest

from qpusched import engine
from qpusched.chip import ChipError, generate_grid
from qpusched.engine import (
    GroupInterval,
    MergeConfig,
    SimConfig,
    SimulationError,
    _RunningGroup,
    remaining_demand,
    run,
)
from qpusched.merger import Group
from qpusched.metrics import busy_qubit_seconds, occupancy_timeline
from qpusched.scheduler import Policy
from qpusched.workload import Job, Workload, default_spec, generate_poisson_workload

from conftest import make_job, timeline_qubit_seconds


def simulate(jobs, policy="fcfs", rows=4, cols=4, horizon=None, **kwargs):
    chip = generate_grid(rows, cols)
    wl = Workload(jobs=tuple(jobs), horizon=horizon or max(j.t_sub for j in jobs) + 1)
    cfg = SimConfig(chip=chip, workload=wl, policy=Policy(policy), **kwargs)
    return run(cfg)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.5])
def test_merge_alpha_must_be_finite_and_at_least_one(alpha):
    with pytest.raises(ValueError, match="alpha"):
        MergeConfig(alpha=alpha)


def test_unknown_coherence_mode_rejected():
    # grid chips carry no T1, the case that used to slip through
    wl = Workload(jobs=(make_job(0),), horizon=1.0)
    with pytest.raises(ChipError, match="unknown coherence mode"):
        SimConfig(chip=generate_grid(2, 2), workload=wl, policy=Policy("fcfs"), t_q_mode="bogus")


class TestLifecycle:
    def test_single_job_no_contention(self):
        trace, report = simulate([make_job(0, n=4, shots=100, t_sub=0.5, t_e=0.01)])
        rec = trace.jobs[0]
        assert rec.dispatches[0].start == 0.5
        assert rec.t_comp == pytest.approx(0.5 + 1.0)
        assert report.mean_wt == pytest.approx(1.0)

    def test_two_jobs_run_concurrently(self):
        jobs = [make_job(0, n=4, shots=100, t_sub=0.0, t_e=0.01),
                make_job(1, n=4, shots=100, t_sub=0.0, t_e=0.01)]
        trace, report = simulate(jobs)
        total_serial = 2.0
        assert report.makespan < total_serial

    def test_oversized_job_rejected(self):
        with pytest.raises(SimulationError, match="demands"):
            simulate([make_job(0, n=17)], rows=4, cols=4)

    def test_causality_and_event_order(self):
        wl = generate_poisson_workload(default_spec(16, 3.0, 5.0, seed=2))
        chip = generate_grid(4, 4)
        trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy("fcfs")))
        times = [ev["time"] for ev in trace.events]
        assert times == sorted(times)
        for rec in trace.jobs.values():
            for d in rec.dispatches:
                assert d.start >= rec.job.t_sub
            assert rec.t_comp >= rec.job.t_sub

    def test_all_shots_executed_exactly_once(self):
        wl = generate_poisson_workload(default_spec(16, 4.0, 4.0, seed=9))
        chip = generate_grid(4, 4)
        for policy in ("fcfs", "srtf", "rr", "mfq", "qhrrf"):
            trace, _ = run(SimConfig(
                chip=chip, workload=wl,
                policy=Policy(policy, rr_quantum_shots=50, mfq_base_quantum_shots=50),
            ))
            for rec in trace.jobs.values():
                assert rec.executed_shots == rec.job.shots, policy
                assert sum(d.shots_executed for d in rec.dispatches) == rec.job.shots

    def test_merged_group_completes_together(self):
        jobs = [make_job(0, n=4, shots=100, t_e=0.010),
                make_job(1, n=4, shots=200, t_e=0.011)]
        trace, report = simulate(jobs)
        assert trace.jobs[0].t_comp == trace.jobs[1].t_comp == pytest.approx(2.2)
        assert report.wt_by_job[0] == pytest.approx(2.2)  # stretched by the merge
        assert report.wt_by_job[1] == pytest.approx(1.0)


class TestSerialOracle:
    def test_fcfs_full_chip_degenerates_to_serial(self):
        # oracle: closed-form serial schedule in submission order
        jobs = [
            Job(id=i, n=16, shots=50 + 10 * i, t_sub=0.3 * i, t_e_shot=0.01)
            for i in range(6)
        ]
        trace, report = simulate(jobs, horizon=10.0)
        t = 0.0
        expected = {}
        for j in jobs:
            start = max(t, j.t_sub)
            t = start + j.shots * j.t_e_shot
            expected[j.id] = t
        for jid, t_comp in expected.items():
            assert trace.jobs[jid].t_comp == pytest.approx(t_comp)
        makespan_oracle = max(expected.values()) - min(j.t_sub for j in jobs)
        assert report.makespan == pytest.approx(makespan_oracle)


class TestDeterminism:
    def test_identical_config_byte_identical_trace(self):
        wl = generate_poisson_workload(default_spec(16, 5.0, 4.0, seed=8))
        chip = generate_grid(4, 4)
        cfg = SimConfig(chip=chip, workload=wl, policy=Policy("qhrrf"),
                        record_growth_steps=True)
        t1, _ = run(cfg)
        t2, _ = run(cfg)
        assert t1.to_jsonl() == t2.to_jsonl()

    def test_preemptive_policies_deterministic(self):
        wl = generate_poisson_workload(default_spec(16, 5.0, 4.0, seed=8))
        chip = generate_grid(4, 4)
        for policy in ("srtf", "rr", "mfq"):
            cfg = SimConfig(chip=chip, workload=wl,
                            policy=Policy(policy, rr_quantum_shots=40))
            assert run(cfg)[0].to_jsonl() == run(cfg)[0].to_jsonl()


class TestConservation:
    @pytest.mark.parametrize("policy", ["fcfs", "srtf", "rr", "qhrrf"])
    def test_busy_time_identity(self, policy):
        wl = generate_poisson_workload(default_spec(16, 4.0, 4.0, seed=5))
        chip = generate_grid(4, 4)
        trace, _ = run(SimConfig(chip=chip, workload=wl,
                                 policy=Policy(policy, rr_quantum_shots=60)))
        # job-side sum must equal the merged-group interval integral: every
        # member owns its n qubits for exactly its group's residence time
        job_side = busy_qubit_seconds(trace)
        timeline_side = timeline_qubit_seconds(trace, chip)
        assert math.isclose(job_side, timeline_side, rel_tol=1e-12, abs_tol=1e-9)

    def test_pointwise_decomposition(self):
        wl = generate_poisson_workload(default_spec(16, 4.0, 3.0, seed=6))
        chip = generate_grid(4, 4)
        trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy("fcfs")))
        for t0, t1, owned, buffer in occupancy_timeline(trace, chip):
            assert 0 <= owned <= 16
            assert 0 <= buffer <= 16 - owned  # owned + buffer + idle = N


class TestPreemption:
    def test_srtf_preempts_at_shot_boundary(self):
        jobs = [make_job(0, n=16, shots=1000, t_sub=0.0, t_e=0.01),
                make_job(1, n=16, shots=10, t_sub=1.005, t_e=0.01)]
        trace, _ = simulate(jobs, policy="srtf", merge=MergeConfig(enabled=False))
        preempts = [e for e in trace.events if e["kind"] == "preempt"]
        assert len(preempts) == 1
        assert preempts[0]["time"] == pytest.approx(1.01)   # next boundary after 1.005
        assert preempts[0]["shots_done"] == 101
        assert trace.jobs[1].t_comp == pytest.approx(1.11)
        assert trace.jobs[0].t_comp == pytest.approx(10.1)
        assert trace.jobs[0].executed_shots == 1000

    def test_srtf_mark_cancelled_when_short_job_is_served_first(self, monkeypatch):
        # 4x4 grid: short-lived job 1 (4 qubits, done at 0.015) and long job
        # 0 (8 qubits, shot boundaries every 0.01) run side by side. Job 2
        # arrives at 0.012, finds no room and marks group 1 (job 0) for its
        # boundary at 0.02; job 1's completion at 0.015 frees room and job 2
        # starts there, so the boundary re-check finds nothing to preempt for
        decisions = []
        real_decision = engine.preemption_decision

        def recording_decision(policy, running, queue, now, state):
            marked = real_decision(policy, running, queue, now, state)
            decisions.append((now, sorted(s.group_id for s in running), marked))
            return marked

        monkeypatch.setattr(engine, "preemption_decision", recording_decision)
        jobs = [make_job(0, n=8, shots=100, t_e=0.01),
                make_job(1, n=4, shots=3, t_e=0.005),
                make_job(2, n=4, shots=10, t_sub=0.012, t_e=0.001)]
        trace, _ = simulate(jobs, policy="srtf", merge=MergeConfig(enabled=False))
        assert decisions == [
            (pytest.approx(0.012), [0, 1], {1}),  # the mark
            (pytest.approx(0.02), [1], set()),    # its re-check at the boundary
        ]
        assert trace.jobs[2].dispatches[0].start == pytest.approx(0.015)
        assert not [e for e in trace.events if e["kind"] == "preempt"]
        assert len(trace.jobs[0].dispatches) == 1
        assert trace.jobs[0].preemptions == 0
        assert trace.jobs[0].t_comp == pytest.approx(1.0)

    def test_nonpreemptive_policies_produce_no_preempts(self):
        wl = generate_poisson_workload(default_spec(16, 5.0, 4.0, seed=4))
        chip = generate_grid(4, 4)
        for policy in ("fcfs", "sjf", "qsjf", "hrrf", "qhrrf"):
            trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy(policy)))
            assert not [e for e in trace.events if e["kind"] == "preempt"], policy
            assert all(rec.preemptions == 0 for rec in trace.jobs.values())

    def test_rr_cycles_with_quantum(self):
        jobs = [make_job(i, n=16, shots=300, t_sub=0.0, t_e=0.001) for i in range(3)]
        trace, _ = simulate(jobs, policy="rr", merge=MergeConfig(enabled=False),
                            horizon=1.0)
        comps = [trace.jobs[i].t_comp for i in range(3)]
        assert comps == pytest.approx([0.7, 0.8, 0.9])
        assert all(trace.jobs[i].preemptions == 2 for i in range(3))

    def test_rr_lone_group_keeps_running(self):
        trace, _ = simulate([make_job(0, n=16, shots=300, t_e=0.001)], policy="rr")
        assert trace.jobs[0].preemptions == 0
        assert trace.jobs[0].t_comp == pytest.approx(0.3)

    def test_mfq_demotes_then_runs_to_completion(self):
        # one long job alone: expires the level-0 and level-1 quanta without
        # preemption (empty queue), then finishes at the bottom level
        trace, _ = simulate(
            [make_job(0, n=16, shots=500, t_e=0.001)],
            policy="mfq",
        )
        assert trace.jobs[0].preemptions == 0
        assert trace.jobs[0].t_comp == pytest.approx(0.5)
        expiries = [e for e in trace.events if e["kind"] == "quantum_expiry"]
        assert not expiries  # engine grants silently; no preemption happened

    def test_mfq_preempts_when_queue_nonempty(self):
        jobs = [make_job(0, n=16, shots=500, t_sub=0.0, t_e=0.001),
                make_job(1, n=16, shots=100, t_sub=0.05, t_e=0.001)]
        trace, _ = simulate(jobs, policy="mfq", merge=MergeConfig(enabled=False))
        assert trace.jobs[0].preemptions >= 1
        assert trace.jobs[0].executed_shots == 500
        assert trace.jobs[1].executed_shots == 100

    def test_preempted_member_with_exhausted_shots_completes(self):
        # merged group: member 0 needs 100 shots, member 1 needs 300; preempt
        # after 200 shots leaves member 0 complete at the boundary
        jobs = [make_job(0, n=4, shots=100, t_sub=0.0, t_e=0.001),
                make_job(1, n=4, shots=300, t_sub=0.0, t_e=0.001),
                make_job(2, n=16, shots=10, t_sub=0.2005, t_e=0.001)]
        trace, _ = simulate(jobs, policy="srtf")
        assert trace.jobs[0].t_comp == pytest.approx(0.201)  # boundary completion
        assert trace.jobs[0].executed_shots == 100
        assert trace.jobs[1].preemptions == 1
        assert trace.jobs[1].executed_shots == 300


class TestExclusiveMode:
    def test_one_group_at_a_time(self):
        wl = generate_poisson_workload(default_spec(16, 4.0, 3.0, seed=3))
        chip = generate_grid(4, 4)
        trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy("fcfs"),
                                 exclusive=True))
        spans = occupancy_timeline(trace, chip)
        # reconstruct concurrent group count from intervals
        for iv in trace.intervals:
            overlapping = [
                other for other in trace.intervals
                if other is not iv and other.start < iv.end and iv.start < other.end
            ]
            assert not overlapping
        assert all(len(a.member_ids) == 1 for a in trace.allocations)  # no merging

    def test_exclusive_utilization_below_multi(self):
        wl = generate_poisson_workload(default_spec(16, 4.0, 3.0, seed=3))
        chip = generate_grid(4, 4)
        _, rep_x = run(SimConfig(chip=chip, workload=wl, policy=Policy("qhrrf"), exclusive=True))
        _, rep_m = run(SimConfig(chip=chip, workload=wl, policy=Policy("qhrrf")))
        assert rep_x.utilization <= rep_m.utilization + 1e-9


class TestRemainingDemand:
    def _rg(self, shots=200, t_e=0.011):
        g = Group.build(0, [make_job(0, shots=shots, t_e=t_e)])
        return _RunningGroup(group=g, start=0.0, interval=GroupInterval(0, 0.0, ()))

    def test_fresh_group(self):
        rg = self._rg()
        assert remaining_demand(rg, 0.0) == pytest.approx(200 * 0.011)

    def test_partial_progress(self):
        rg = self._rg()
        assert remaining_demand(rg, 150 * 0.011) == pytest.approx(50 * 0.011)

    def test_completed(self):
        rg = self._rg()
        assert remaining_demand(rg, 200 * 0.011) == pytest.approx(0.0)


class TestRequeueEligibility:
    def test_evicted_job_retries_at_later_pass(self):
        # 2x3 grid: demands 4 + 2 pass the capacity prefix together but the
        # buffer geometry blocks the second, which is evicted and must start
        # only after the first completes
        jobs = [make_job(0, n=4, shots=100, t_sub=0.0, t_e=0.001),
                make_job(1, n=2, shots=100, t_sub=0.0, t_e=0.001)]
        trace, _ = simulate(jobs, rows=2, cols=3, merge=MergeConfig(enabled=False))
        assert trace.jobs[0].t_comp == pytest.approx(0.1)
        assert trace.jobs[1].dispatches[0].start == pytest.approx(0.1)
        assert trace.jobs[1].requeues >= 1


class TestLittlesLaw:
    def test_sampled_occupancy_matches_rate_times_turnaround(self):
        # stationary-ish load; L sampled on a fixed grid vs lambda * W
        chip = generate_grid(6, 6)
        ls, lws = [], []
        for seed in range(4):
            wl = generate_poisson_workload(default_spec(36, 1.2, 60.0, seed=seed))
            trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy("fcfs")))
            recs = list(trace.jobs.values())
            t_end = max(r.t_comp for r in recs)
            t0 = min(r.job.t_sub for r in recs)
            samples = 400
            in_system = 0
            for k in range(samples):
                t = t0 + (t_end - t0) * (k + 0.5) / samples
                in_system += sum(1 for r in recs if r.job.t_sub <= t < r.t_comp)
            ls.append(in_system / samples)
            lam_obs = len(recs) / (t_end - t0)
            w = sum(r.t_comp - r.job.t_sub for r in recs) / len(recs)
            lws.append(lam_obs * w)
        l_mean = sum(ls) / len(ls)
        lw_mean = sum(lws) / len(lws)
        assert abs(l_mean - lw_mean) / lw_mean < 0.15
