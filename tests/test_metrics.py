"""Metric formula and accounting tests.

Oracles: hand-computed two-job serial traces, closed-form products for the
success-probability estimate, and exact rational means for region ratios.
"""

import math

import pytest

from qpusched.chip import generate_grid
from qpusched.engine import MergeConfig, SimConfig, run
from qpusched.metrics import (
    EmptyTraceError,
    busy_qubit_seconds,
    mean_region_ratio,
    occupancy_timeline,
    pst_estimate,
    throughput,
    weighted_turnaround,
)
from qpusched.scheduler import Policy
from qpusched.workload import Job, Workload, default_spec, generate_poisson_workload

from conftest import make_job, timeline_qubit_seconds, uniform_chip


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
        assert pst_estimate(trace.jobs[0], chip) == pytest.approx(1.0)

    def test_single_qubit_closed_form(self):
        chip = uniform_chip(2, [(0, 1)], t2=100.0, readout=0.02)
        wl = Workload(jobs=(make_job(0, n=1, shots=10, t_e=100e-6),), horizon=1.0)
        trace, _ = run(SimConfig(chip=chip, workload=wl, policy=Policy("fcfs")))
        assert pst_estimate(trace.jobs[0], chip) == pytest.approx(math.exp(-1) * 0.98)

    def test_superset_region_never_better(self):
        chip = generate_grid(3, 3)
        for small, big in ((1, 4), (2, 6), (4, 9)):
            wl_s = Workload(jobs=(make_job(0, n=small, shots=10, t_e=0.001),), horizon=1.0)
            wl_b = Workload(jobs=(make_job(0, n=big, shots=10, t_e=0.001),), horizon=1.0)
            ts, _ = run(SimConfig(chip=chip, workload=wl_s, policy=Policy("fcfs")))
            tb, _ = run(SimConfig(chip=chip, workload=wl_b, policy=Policy("fcfs")))
            assert pst_estimate(tb.jobs[0], chip) <= pst_estimate(ts.jobs[0], chip)


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

    def test_report_dict_keys(self):
        chip, trace, report = simulate([make_job(0, n=4, shots=10, t_e=0.001)])
        doc = report.to_dict()
        for key in ("throughput", "utilization", "buffer_fraction", "mean_wt",
                    "median_wt", "p95_wt", "mean_pst", "mean_region_ratio",
                    "makespan", "n_jobs"):
            assert key in doc
        full = report.to_dict(include_per_job=True)
        assert "wt_by_job" in full and "pst_by_job" in full
