"""Metric formula and accounting tests.

Oracles: hand-computed two-job serial traces, closed-form products for the
success-probability estimate, and exact rational means for region ratios.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpusched import engine, metrics
from qpusched.allocator import AllocationError
from qpusched.chip import COHERENCE_MODES, QubitSpec, generate_grid
from qpusched.engine import MergeConfig, SimConfig, Trace, run
from qpusched.metrics import (
    EmptyTraceError,
    compute_report,
    mean_region_ratio,
    occupancy_timeline,
    pst_estimate,
    throughput,
    weighted_turnaround,
)
from qpusched.scheduler import POLICY_NAMES, Policy
from qpusched.workload import Job, Workload, default_spec, generate_poisson_workload

from conftest import (
    busy_qubit_seconds,
    make_job,
    reference_spans,
    timeline_qubit_seconds,
    uniform_chip,
)
from graphgen import small_graphs
from test_golden import CHIPS, MODES, _scenarios
from test_time_shift import SRTF_SCENARIOS
from test_trace_io import six_by_six_run


def simulate(jobs, rows=4, cols=4, policy="fcfs", **kwargs):
    chip = generate_grid(rows, cols)
    wl = Workload(jobs=tuple(jobs), horizon=max(j.t_sub for j in jobs) + 1)
    trace, report = run(SimConfig(chip=chip, workload=wl, policy=Policy(policy), **kwargs))
    return chip, trace, report


class TestWeightedTurnaround:
    def test_uncontended_job_is_one(self):
        _, trace, _ = simulate([make_job(0, n=4, shots=100, t_e=0.01)])
        assert weighted_turnaround(trace.jobs[0]) == pytest.approx(1.0)

    def test_direct_quotient(self):
        # two full-chip jobs at t_sub 0: second waits 1.0, runs 1.0 -> wt 2
        jobs = [make_job(0, n=16, shots=100, t_e=0.01),
                make_job(1, n=16, shots=100, t_e=0.01)]
        _, trace, _ = simulate(jobs, merge=MergeConfig(enabled=False))
        assert weighted_turnaround(trace.jobs[1]) == pytest.approx(2.0)

    def test_merged_member_stretches(self):
        jobs = [make_job(0, n=4, shots=100, t_e=0.010),
                make_job(1, n=4, shots=200, t_e=0.011)]
        _, trace, _ = simulate(jobs)
        assert weighted_turnaround(trace.jobs[0]) == pytest.approx(2.2)

    def test_incomplete_job_rejected(self):
        from qpusched.engine import JobRecord
        rec = JobRecord(job=make_job(0))
        with pytest.raises(EmptyTraceError):
            weighted_turnaround(rec)


class TestThroughput:
    def test_quotient(self):
        # 10 serial full-chip jobs, each 0.2s, submitted at once: makespan 2s
        jobs = [make_job(i, n=16, shots=100, t_e=0.002) for i in range(10)]
        _, trace, report = simulate(jobs, merge=MergeConfig(enabled=False))
        assert report.makespan == pytest.approx(2.0)
        assert throughput(trace) == pytest.approx(5.0)

    def test_single_job(self):
        _, trace, _ = simulate([make_job(0, n=4, shots=100, t_e=0.01)])
        assert throughput(trace) == pytest.approx(1.0)

    def test_empty_trace(self):
        from qpusched.engine import Trace
        with pytest.raises(EmptyTraceError, match="empty trace"):
            throughput(Trace({}))


class TestUtilization:
    def test_full_chip_whole_makespan(self):
        _, _, report = simulate([make_job(0, n=16, shots=100, t_e=0.01)])
        assert report.utilization == pytest.approx(1.0)
        assert report.buffer_fraction == pytest.approx(0.0)

    def test_half_chip_alone(self):
        _, _, report = simulate([make_job(0, n=8, shots=100, t_e=0.01)])
        assert report.utilization == pytest.approx(0.5)

    def test_serial_idle_gap_hand_computed(self):
        # job0 busy [0, 1]; job1 submitted at 3, busy [3, 4]; makespan 4
        # integral = 16*1 + 16*1 = 32 over 16*4 -> 0.5
        jobs = [make_job(0, n=16, shots=100, t_e=0.01, t_sub=0.0),
                make_job(1, n=16, shots=100, t_e=0.01, t_sub=3.0)]
        _, _, report = simulate(jobs, merge=MergeConfig(enabled=False))
        assert report.utilization == pytest.approx(0.5)

    def test_buffer_fraction_positive_when_sharing(self):
        jobs = [make_job(0, n=4, shots=100, t_e=0.01),
                make_job(1, n=4, shots=100, t_e=0.0101)]
        _, _, report = simulate(jobs, merge=MergeConfig(enabled=False))
        assert report.buffer_fraction > 0.0

    def test_zero_length_dispatch_holds_no_qubit_time(self):
        # 1e6 + 1e-12 == 1e6: job 0's dispatch starts and ends at one instant
        jobs = [Job(0, 2, 1, 1e6, 1e-12), Job(1, 2, 100, 1e6 + 1, 1e-3)]
        chip, trace, report = simulate(jobs, rows=3, cols=3)
        assert trace.intervals[0].start == trace.intervals[0].end
        assert report.utilization == pytest.approx(
            busy_qubit_seconds(trace) / (chip.n_qubits * report.makespan))
        assert report.utilization == pytest.approx(0.2 / (9 * 1.1))

    def test_conservation_identity(self):
        chip = generate_grid(4, 4)
        wl = generate_poisson_workload(default_spec(16, 3.0, 5.0, seed=11))
        trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy("qsjf")))
        assert math.isclose(
            busy_qubit_seconds(trace), timeline_qubit_seconds(trace, chip),
            rel_tol=1e-12, abs_tol=1e-9,
        )

    def test_capacity_bound(self):
        chip = generate_grid(4, 4)
        wl = generate_poisson_workload(default_spec(16, 5.0, 4.0, seed=2))
        trace, report = run(SimConfig(chip=chip, workload=wl, policy=Policy("fcfs")))
        assert busy_qubit_seconds(trace) <= chip.n_qubits * report.makespan * (1 + 1e-12)
        assert 0.0 <= report.utilization <= 1.0


class TestPstEstimate:
    def test_ideal_qubits(self):
        chip = uniform_chip(2, [(0, 1)], t2=1e12, readout=0.0)
        wl = Workload(jobs=(make_job(0, n=2, shots=10, t_e=0.001),), horizon=1.0)
        trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy("fcfs")))
        assert pst_estimate(trace.jobs[0], chip, "t2") == pytest.approx(1.0)

    def test_single_qubit_closed_form(self):
        chip = uniform_chip(2, [(0, 1)], t2=100.0, readout=0.02)
        wl = Workload(jobs=(make_job(0, n=1, shots=10, t_e=100e-6),), horizon=1.0)
        trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy("fcfs")))
        assert pst_estimate(trace.jobs[0], chip, "t2") == pytest.approx(math.exp(-1) * 0.98)

    def test_superset_region_never_better(self):
        chip = generate_grid(3, 3)
        for small, big in ((1, 4), (2, 6), (4, 9)):
            wl_s = Workload(jobs=(make_job(0, n=small, shots=10, t_e=0.001),), horizon=1.0)
            wl_b = Workload(jobs=(make_job(0, n=big, shots=10, t_e=0.001),), horizon=1.0)
            ts, _ = run(SimConfig(chip=chip, workload=wl_s, policy=Policy("fcfs")))
            tb, _ = run(SimConfig(chip=chip, workload=wl_b, policy=Policy("fcfs")))
            assert pst_estimate(tb.jobs[0], chip, "t2") <= pst_estimate(ts.jobs[0], chip, "t2")

    def test_a_trace_file_scores_under_the_mode_it_records(self):
        # T1 = 40 us < T2, so the t2 value of a min_t1_t2 run's job is not its score
        chip, text, report = six_by_six_run("min_t1_t2")
        trace = Trace.from_jsonl(text)
        assert {jid: pst_estimate(rec, chip, trace.meta["t_q_mode"])
                for jid, rec in trace.jobs.items()} == report.pst_by_job
        assert all(pst_estimate(rec, chip, "t2") > report.pst_by_job[jid]
                   for jid, rec in trace.jobs.items())
        with pytest.raises(TypeError):  # the mode has no default
            pst_estimate(trace.jobs[0], chip)


class TestMeanRegionRatio:
    def test_whole_chip_is_one(self):
        chip, trace, report = simulate([make_job(0, n=16, shots=10, t_e=0.001)])
        assert mean_region_ratio(trace) == pytest.approx(1.0)

    def test_interior_square_third(self):
        # a demand-4 job alone on a big grid grows a 2x2 block somewhere;
        # corner-rooted blocks have ratio 4/8, interior 4/12. Root lands on
        # the rim (eccentricity), so the block sits at a corner: 0.5
        chip, trace, _ = simulate([make_job(0, n=4, shots=10, t_e=0.001)], rows=6, cols=6)
        assert mean_region_ratio(trace) == pytest.approx(4 / 8)

    def test_mix_average(self):
        # synthetic trace-level check: hand-build allocation records
        from qpusched.engine import Trace, AllocationRecord
        trace = Trace({})
        trace.allocations.append(AllocationRecord(0.0, 0, 0, (0,), 3, 13, 0.001, (0,)))
        trace.allocations.append(AllocationRecord(0.0, 1, 0, (0,), 4, 12, 0.001, (1,)))
        expected = (3 / 13 + 4 / 12) / 2
        assert mean_region_ratio(trace) == pytest.approx(expected)
        assert mean_region_ratio(trace) == pytest.approx(0.28205, abs=1e-4)

    def test_no_allocations_rejected(self):
        from qpusched.engine import Trace
        with pytest.raises(EmptyTraceError):
            mean_region_ratio(Trace({}))


class TestReport:
    def test_decomposition_sums_to_chip(self):
        chip = generate_grid(4, 4)
        wl = generate_poisson_workload(default_spec(16, 4.0, 4.0, seed=3))
        trace, report = run(SimConfig(chip=chip, workload=wl, policy=Policy("hrrf")))
        for _, _, owned, buffer in occupancy_timeline(trace, chip):
            idle = chip.n_qubits - owned - buffer
            assert owned + buffer + idle == chip.n_qubits
            assert idle >= 0

    def test_rescaling_invariance(self):
        # doubling every duration leaves weighted turnarounds bit-identical
        chip = generate_grid(4, 4)
        wl = generate_poisson_workload(default_spec(16, 4.0, 3.0, seed=5))
        scaled = Workload(
            jobs=tuple(
                Job(j.id, j.n, j.shots, j.t_sub * 2.0, j.t_e_shot * 2.0) for j in wl.jobs
            ),
            horizon=wl.horizon * 2.0,
        )
        _, base = run(SimConfig(chip=chip, workload=wl, policy=Policy("qhrrf")))
        _, doubled = run(SimConfig(chip=chip, workload=scaled, policy=Policy("qhrrf")))
        assert doubled.mean_wt == base.mean_wt
        assert doubled.wt_by_job == base.wt_by_job

    def test_zero_makespan_is_an_empty_trace(self):
        # 1e6 + 1e-12 == 1e6: the only job completes at its submission instant,
        # so compute_report (inside run) has no time span to divide by
        with pytest.raises(EmptyTraceError, match="trace spans zero time"):
            simulate([Job(0, 2, 1, 1e6, 1e-12)], rows=3, cols=3)

    def test_report_dict_keys(self):
        chip, trace, report = simulate([make_job(0, n=4, shots=10, t_e=0.001)])
        doc = report.to_dict()
        for key in ("throughput", "utilization", "buffer_fraction", "mean_wt",
                    "median_wt", "p95_wt", "mean_pst", "mean_region_ratio",
                    "makespan", "n_jobs"):
            assert key in doc
        full = report.to_dict(include_per_job=True)
        assert "wt_by_job" in full and "pst_by_job" in full


def recorded_spans(config):
    """The occupancy spans the engine recorded while simulating ``config``,
    and the trace it wrote."""
    sim = engine._Simulation(config)
    trace = sim.run()
    return sim.spans, trace


def stream_config(chip_name, policy, mode, rate, horizon, seed, shift=0.0):
    """A seeded Poisson stream on a golden chip and mode, moved by ``shift`` s."""
    chip = CHIPS[chip_name]
    merge, exclusive = MODES[mode]
    wl = generate_poisson_workload(default_spec(chip.n_qubits, rate, horizon, seed=seed))
    wl = Workload(
        jobs=tuple(dataclasses.replace(j, t_sub=j.t_sub + shift) for j in wl.jobs),
        horizon=wl.horizon + shift,
    )
    return SimConfig(
        chip=chip,
        workload=wl,
        policy=Policy(policy, rr_quantum_shots=50, mfq_base_quantum_shots=50),
        merge=merge,
        exclusive=exclusive,
    )


class TestRecordedSpans:
    """``run`` integrates the spans its engine recorded. They must equal the
    brute-force ``reference_spans`` of the trace, and replaying the trace
    through ``occupancy_timeline`` must rebuild exactly the same list."""

    @pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
    def test_golden_scenarios(self, scenario):
        config = stream_config(*scenario, rate=10.0, horizon=2.0, seed=5)
        spans, trace = recorded_spans(config)
        assert spans == reference_spans(trace, config.chip) == occupancy_timeline(trace, config.chip)

    @pytest.mark.parametrize("chip_name, mode", SRTF_SCENARIOS, ids="-".join)
    def test_time_shift_scenarios_at_epoch_scale(self, chip_name, mode):
        config = stream_config(chip_name, "srtf", mode, rate=20.0, horizon=1.25, seed=3, shift=1e9)
        spans, trace = recorded_spans(config)
        assert spans == reference_spans(trace, config.chip) == occupancy_timeline(trace, config.chip)

    def test_zero_length_dispatches_split_no_span(self):
        # 1e6 + 0.05 + 1e-12 == 1e6 + 0.05: jobs 1 and 2 start and end at one
        # instant, job 1 beside the running job 0, job 2 on an idle chip
        jobs = [Job(0, 2, 100, 1e6, 1e-3), Job(1, 2, 1, 1e6 + 0.05, 1e-12),
                Job(2, 2, 1, 1e6 + 0.5, 1e-12), Job(3, 2, 100, 1e6 + 1, 1e-3)]
        chip = generate_grid(3, 3)
        config = SimConfig(chip=chip, workload=Workload(jobs=tuple(jobs), horizon=1e6 + 2),
                           policy=Policy("fcfs"))
        spans, trace = recorded_spans(config)
        zero = [iv for iv in trace.intervals if iv.start == iv.end]
        assert [iv.group_id for iv in zero] == [1, 2]
        assert spans == reference_spans(trace, chip) == occupancy_timeline(trace, chip)
        assert [(t0, t1, o) for t0, t1, o, _ in spans] == [
            (1e6, 1e6 + 0.1, 2), (1e6 + 0.1, 1e6 + 1, 0), (1e6 + 1, 1e6 + 1.1, 2)]

    def test_idle_spans_open_and_close_the_window(self):
        # 1e6 + 1e-12 == 1e6: jobs 0 and 2 start and end at their submission
        # instants, the first submission and the last completion
        jobs = [Job(0, 2, 1, 1e6, 1e-12), Job(1, 2, 100, 1e6 + 1, 1e-3),
                Job(2, 2, 1, 1e6 + 2, 1e-12)]
        chip = generate_grid(3, 3)
        config = SimConfig(chip=chip, workload=Workload(jobs=tuple(jobs), horizon=1e6 + 3),
                           policy=Policy("fcfs"))
        spans, trace = recorded_spans(config)
        assert spans == reference_spans(trace, chip) == occupancy_timeline(trace, chip)
        assert [(t0, t1, o) for t0, t1, o, _ in spans] == [
            (1e6, 1e6 + 1, 0), (1e6 + 1, 1e6 + 1.1, 2), (1e6 + 1.1, 1e6 + 2, 0)]

    def test_same_size_swap_at_one_instant_splits_the_span(self):
        # exclusive mode: job 1 takes job 0's region at the instant it is
        # released, so the counts match across the split
        jobs = [make_job(0, n=4, shots=100, t_e=0.01), make_job(1, n=4, shots=100, t_e=0.01)]
        chip = generate_grid(4, 4)
        config = SimConfig(chip=chip, workload=Workload(jobs=tuple(jobs), horizon=1.0),
                           policy=Policy("fcfs"), exclusive=True)
        spans, trace = recorded_spans(config)
        (a, b) = trace.intervals
        assert a.region == b.region and a.end == b.start
        buffer = spans[0][3]
        assert buffer > 0
        assert spans == [(0.0, a.end, 4, buffer), (b.start, b.end, 4, buffer)]
        assert spans == reference_spans(trace, chip) == occupancy_timeline(trace, chip)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_enumerated_graphs_every_policy_and_mode(self, data):
        n, edges = data.draw(st.sampled_from(small_graphs()), label="graph")
        base = data.draw(st.sampled_from([0.0, 1e6]), label="base")
        job = st.tuples(
            st.integers(1, n),
            st.integers(1, 30),
            st.sampled_from([0.0, 0.01, 0.02, 0.05]),
            st.sampled_from([1e-12, 1e-4, 1e-3]),
        )
        drawn = data.draw(st.lists(job, min_size=1, max_size=8), label="jobs")
        drawn.sort(key=lambda d: d[2])
        jobs = tuple(Job(i, k, shots, base + t, t_e) for i, (k, shots, t, t_e) in enumerate(drawn))
        merge, exclusive = MODES[data.draw(st.sampled_from(sorted(MODES)), label="mode")]
        config = SimConfig(
            chip=uniform_chip(n, edges),
            workload=Workload(jobs=jobs, horizon=base + 1.0),
            policy=Policy(data.draw(st.sampled_from(POLICY_NAMES), label="policy"),
                          rr_quantum_shots=3, mfq_base_quantum_shots=2),
            merge=merge,
            exclusive=exclusive,
        )
        spans, trace = recorded_spans(config)
        assert spans == reference_spans(trace, config.chip) == occupancy_timeline(trace, config.chip)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("t_q_mode", COHERENCE_MODES)
    def test_run_scores_without_replay_what_the_replay_scores(self, monkeypatch, policy, t_q_mode):
        def refuse(*args):
            raise AssertionError("run replayed its own trace")

        chip = generate_grid(6, 6, QubitSpec(id=0, t2_us=100.0, readout_error=0.01, t1_us=60.0),
                             noise_seed=2)
        config = SimConfig(
            chip=chip,
            workload=generate_poisson_workload(default_spec(chip.n_qubits, 10.0, 1.0, seed=7)),
            policy=Policy(policy, rr_quantum_shots=50, mfq_base_quantum_shots=50),
            t_q_mode=t_q_mode,
        )
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "occupancy_timeline", refuse)
            trace, report = run(config)
        replayed = compute_report(trace, config.chip)
        assert dataclasses.asdict(report) == dataclasses.asdict(replayed)

    def test_replay_rejects_a_root_outside_its_region(self):
        chip, trace, _ = simulate([make_job(0, n=2, shots=10, t_e=0.001)], rows=3, cols=3)
        record = trace.allocations[0]
        record.root = next(q for q in range(chip.n_qubits) if q not in record.region)
        with pytest.raises(AllocationError, match="is not in its region"):
            compute_report(trace, chip)
