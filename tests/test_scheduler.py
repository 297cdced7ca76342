"""Policy formulas, queue orderings, and preemption-mark tests."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpusched import engine
from qpusched.chip import generate_grid
from qpusched.engine import MergeConfig, SimConfig, run
from qpusched.scheduler import (
    Policy,
    SchedulerState,
    WaitingQueue,
    eta,
    preemption_decision,
    priority_key,
    q_response_ratio,
    response_ratio,
)
from qpusched.workload import Job, Workload

from conftest import make_job, order_jobs, registered


def job_with_demand(jid, n, t_e_total, t_sub=0.0, shots=10):
    """A job whose total service demand is exactly t_e_total seconds."""
    return Job(id=jid, n=n, shots=shots, t_sub=t_sub, t_e_shot=t_e_total / shots)


class TestFormulas:
    def test_eta_full_chip(self):
        assert eta(make_job(n=100), 100) == 1.0

    def test_eta_fraction(self):
        assert eta(make_job(n=20), 100) == pytest.approx(0.2)

    def test_eta_oversized(self):
        with pytest.raises(ValueError, match="oversized"):
            eta(make_job(n=101), 100)

    def test_response_ratio(self):
        assert response_ratio(0.0, 10.0) == 1.0
        assert response_ratio(30.0, 10.0) == 4.0
        assert response_ratio(10.0, 10.0) == 2.0

    def test_response_ratio_zero_service(self):
        with pytest.raises(ValueError):
            response_ratio(1.0, 0.0)

    def test_q_response_ratio(self):
        assert q_response_ratio(30.0, 10.0, 0.2) == pytest.approx(3.2)
        assert q_response_ratio(0.0, 10.0, 0.2) == pytest.approx(0.2)

    @given(
        t_wait=st.floats(0, 1e4, allow_nan=False),
        t_ser=st.floats(0.001, 1e4, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_q_ratio_reduces_at_full_eta(self, t_wait, t_ser):
        assert q_response_ratio(t_wait, t_ser, 1.0) == response_ratio(t_wait, t_ser)


class TestPolicy:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Policy("lifo")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Policy("rr", rr_quantum_shots=0)
        with pytest.raises(ValueError):
            Policy("mfq", mfq_levels=1)
        with pytest.raises(ValueError):
            Policy("mfq", mfq_aging_s=0.0)

    @pytest.mark.parametrize("field", [
        "rr_quantum_shots", "mfq_levels", "mfq_base_quantum_shots", "mfq_aging_s",
    ])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Policy("mfq", **{field: value})

    def test_mfq_level_quanta(self):
        p = Policy("mfq", mfq_levels=3, mfq_base_quantum_shots=50)
        assert p.quantum_shots_for_level(0) == 50
        assert p.quantum_shots_for_level(1) == 100
        assert p.quantum_shots_for_level(2) is None  # bottom runs to completion


class TestOrdering:
    def test_fcfs_by_submission(self):
        jobs = [make_job(0, t_sub=3.0), make_job(1, t_sub=1.0), make_job(2, t_sub=2.0)]
        ordered = order_jobs(Policy("fcfs"), jobs, 5.0, 100, registered(jobs))
        assert [j.id for j in ordered] == [1, 2, 0]

    def test_qsjf_vs_sjf(self):
        # A: small but long; B: big but short. QSJF prefers A, SJF prefers B.
        a = job_with_demand(0, n=10, t_e_total=10.0)
        b = job_with_demand(1, n=50, t_e_total=3.0)
        st_ = registered([a, b])
        key_a = priority_key(Policy("qsjf"), a, 0.0, 100, st_)
        key_b = priority_key(Policy("qsjf"), b, 0.0, 100, st_)
        assert key_a[0] == pytest.approx(1.0)
        assert key_b[0] == pytest.approx(1.5)
        assert [j.id for j in order_jobs(Policy("qsjf"), [a, b], 0.0, 100, st_)] == [0, 1]
        assert [j.id for j in order_jobs(Policy("sjf"), [a, b], 0.0, 100, st_)] == [1, 0]

    def test_qhrrf_example(self):
        # both waited 30s, t_ser 10s; the full-chip job outranks the small one
        a = job_with_demand(0, n=100, t_e_total=10.0)
        b = job_with_demand(1, n=20, t_e_total=10.0)
        st_ = registered([a, b])
        key_a = priority_key(Policy("qhrrf"), a, 30.0, 100, st_)
        key_b = priority_key(Policy("qhrrf"), b, 30.0, 100, st_)
        assert key_a[0] == pytest.approx(-4.0)
        assert key_b[0] == pytest.approx(-3.2)
        ordered = order_jobs(Policy("qhrrf"), [b, a], 30.0, 100, st_)
        assert [j.id for j in ordered] == [0, 1]

    def test_hrrf_prefers_waited(self):
        fresh = job_with_demand(0, n=2, t_e_total=10.0, t_sub=30.0)
        waited = job_with_demand(1, n=2, t_e_total=10.0, t_sub=0.0)
        ordered = order_jobs(Policy("hrrf"), [fresh, waited], 30.0, 100,
                             registered([fresh, waited]))
        assert [j.id for j in ordered] == [1, 0]

    def test_empty_queue(self):
        assert order_jobs(Policy("fcfs"), [], 0.0, 100, SchedulerState()) == []

    def test_tie_break_by_id(self):
        a = make_job(3, n=4, shots=10, t_sub=1.0, t_e=0.1)
        b = make_job(7, n=4, shots=10, t_sub=1.0, t_e=0.1)
        for name in ("fcfs", "sjf", "qsjf", "srtf", "hrrf", "qhrrf", "mfq"):
            ordered = order_jobs(Policy(name), [b, a], 2.0, 100, registered([a, b]))
            assert [j.id for j in ordered] == [3, 7], name

    def test_rr_ring_order_follows_arrival_then_requeue(self):
        a, b = make_job(0, t_sub=0.0), make_job(1, t_sub=1.0)
        st_ = registered([a, b])
        assert [j.id for j in order_jobs(Policy("rr"), [b, a], 2.0, 100, st_)] == [0, 1]
        st_.jobs[0].rr_seq = st_.next_rr_seq()  # a consumed its quantum, to the back
        assert [j.id for j in order_jobs(Policy("rr"), [b, a], 2.0, 100, st_)] == [1, 0]

    def test_mfq_levels_order_before_arrival(self):
        a, b = make_job(0, t_sub=0.0), make_job(1, t_sub=1.0)
        st_ = SchedulerState()
        st_.add(a).mfq_level = 1
        st_.add(b)
        ordered = order_jobs(Policy("mfq"), [a, b], 2.0, 100, st_)
        assert [j.id for j in ordered] == [1, 0]


# random queue strategy: ids unique, attribute ranges exercise every key
queue_strategy = st.lists(
    st.tuples(
        st.integers(1, 64),               # n
        st.integers(1, 500),              # shots
        st.floats(0.0, 50.0),             # t_sub
        st.floats(1e-4, 0.05),            # t_e_shot
    ),
    min_size=0,
    max_size=12,
).map(
    lambda rows: [
        Job(id=i, n=r[0], shots=r[1], t_sub=r[2], t_e_shot=r[3])
        for i, r in enumerate(rows)
    ]
)


class TestOrderingProperties:
    @given(queue_strategy, st.sampled_from(["fcfs", "sjf", "qsjf", "srtf", "rr", "mfq", "hrrf", "qhrrf"]))
    @settings(max_examples=120, deadline=None)
    def test_permutation_and_idempotence(self, jobs, name):
        st_ = registered(jobs)
        now = 60.0
        ordered = order_jobs(Policy(name), jobs, now, 64, st_)
        assert sorted(j.id for j in ordered) == sorted(j.id for j in jobs)
        assert order_jobs(Policy(name), ordered, now, 64, st_) == ordered

    @given(queue_strategy)
    @settings(max_examples=80, deadline=None)
    def test_reduction_identities_at_full_chip(self, jobs):
        # with every n = N, the qubit-aware variants equal their parents
        jobs = [Job(j.id, 64, j.shots, j.t_sub, j.t_e_shot) for j in jobs]
        st_ = registered(jobs)
        now = 60.0
        assert order_jobs(Policy("qhrrf"), jobs, now, 64, st_) == order_jobs(
            Policy("hrrf"), jobs, now, 64, st_
        )
        assert order_jobs(Policy("qsjf"), jobs, now, 64, st_) == order_jobs(
            Policy("sjf"), jobs, now, 64, st_
        )

    @given(queue_strategy)
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, jobs):
        # doubling every service demand leaves size-based orderings unchanged
        scaled = [Job(j.id, j.n, j.shots, j.t_sub, j.t_e_shot * 2.0) for j in jobs]
        for name in ("sjf", "qsjf", "srtf"):
            a = [j.id for j in order_jobs(Policy(name), jobs, 60.0, 64, registered(jobs))]
            b = [j.id for j in order_jobs(Policy(name), scaled, 60.0, 64, registered(scaled))]
            assert a == b

    @given(
        t_ser=st.floats(0.01, 100.0),
        w1=st.floats(0.0, 1e3),
        extra=st.floats(0.001, 1e3),
        eta_=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_keys_strictly_improve_with_wait(self, t_ser, w1, extra, eta_):
        assert response_ratio(w1 + extra, t_ser) > response_ratio(w1, t_ser)
        assert q_response_ratio(w1 + extra, t_ser, eta_) > q_response_ratio(w1, t_ser, eta_)


class TestPreemptionDecision:
    def test_non_preemptive_policies_never_mark(self):
        # RR and MFQ preempt at quantum expiry in the engine, never here
        running = {0: 5.0}
        queue = [make_job(1, shots=1, t_e=0.001)]
        st_ = registered(queue)
        for name in ("fcfs", "sjf", "qsjf", "hrrf", "qhrrf", "rr", "mfq"):
            assert preemption_decision(Policy(name), running, queue, 1.0, st_) == set()

    def test_srtf_marks_on_shorter_arrival(self):
        running = {0: 5.0}
        short = make_job(1, shots=100, t_e=0.01)  # demand 1.0 < 5.0
        st_ = registered([short])
        assert preemption_decision(Policy("srtf"), running, [short], 0.0, st_) == {0}

    def test_srtf_strictness(self):
        running = {0: 1.0}
        equal = make_job(1, shots=100, t_e=0.01)  # demand exactly 1.0
        st_ = registered([equal])
        assert preemption_decision(Policy("srtf"), running, [equal], 0.0, st_) == set()

    def test_rr_marks_only_when_queue_nonempty(self):
        # RR expiry is decided in the engine: a full-chip job with a
        # 100-shot quantum (0.1 s) yields at expiry only to a waiting job
        def rr_run(jobs):
            wl = Workload(jobs=tuple(jobs), horizon=1.0)
            cfg = SimConfig(chip=generate_grid(4, 4), workload=wl,
                            policy=Policy("rr", rr_quantum_shots=100),
                            merge=MergeConfig(enabled=False))
            return run(cfg)[0]

        long_job = make_job(0, n=16, shots=300, t_e=0.001)
        lone = rr_run([long_job])
        assert lone.jobs[0].preemptions == 0
        assert lone.jobs[0].t_comp == pytest.approx(0.3)

        # the arrival at 0.05 s falls inside the quantum and marks nothing;
        # the first preemption is at the expiry, after exactly 100 shots
        contended = rr_run([long_job, make_job(1, n=16, shots=50, t_sub=0.05, t_e=0.001)])
        preempts = [e for e in contended.events if e["kind"] == "preempt"]
        assert preempts and preempts[0]["time"] == pytest.approx(0.1)
        assert contended.jobs[0].preemptions == 1
        assert contended.jobs[1].t_comp == pytest.approx(0.15)
        assert contended.jobs[0].t_comp == pytest.approx(0.35)


class TestWaitAccounting:
    def test_wait_excludes_run_time(self):
        job = make_job(0, t_sub=2.0)
        st_ = SchedulerState()
        st_.add(job).run_time = 3.0
        assert st_.t_wait(job, 10.0) == pytest.approx(5.0)


class TestRegistration:
    def test_state_is_made_at_add(self):
        a, b = make_job(0, shots=40), make_job(1, shots=60)
        st_ = registered([a, b])
        assert [(st_.jobs[j].remaining_shots, st_.jobs[j].rr_seq) for j in (0, 1)] == [
            (40, 1), (60, 2)]

    @pytest.mark.parametrize("name", ["fcfs", "sjf", "qsjf", "srtf", "rr", "mfq", "hrrf", "qhrrf"])
    def test_unregistered_job_raises_key_error(self, name):
        known, stranger = make_job(0), make_job(1)
        st_ = registered([known])
        with pytest.raises(KeyError):
            priority_key(Policy(name), stranger, 1.0, 100, st_)
        with pytest.raises(KeyError):
            order_jobs(Policy(name), [known, stranger], 1.0, 100, st_)
        assert list(st_.jobs) == [0]  # nothing was made on the side


class TestIntegralCounts:
    @pytest.mark.parametrize("field", ["rr_quantum_shots", "mfq_levels", "mfq_base_quantum_shots"])
    @pytest.mark.parametrize("value", [1.5, True, "3"])
    def test_counts_must_be_integral(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Policy("mfq", **{field: value})

    def test_integral_float_is_stored_as_int(self):
        p = Policy("mfq", rr_quantum_shots=5.0, mfq_levels=3.0, mfq_base_quantum_shots=20.0)
        assert (p.rr_quantum_shots, p.mfq_levels, p.mfq_base_quantum_shots) == (5, 3, 20)
        assert all(type(v) is int for v in (p.rr_quantum_shots, p.mfq_levels,
                                             p.mfq_base_quantum_shots))

    def test_numpy_integer_is_stored_as_int(self):
        p = Policy("mfq", rr_quantum_shots=np.int64(5), mfq_levels=np.int32(3))
        assert (p.rr_quantum_shots, p.mfq_levels) == (5, 3)
        assert type(p.rr_quantum_shots) is int and type(p.mfq_levels) is int


def sorted_order_checker(seen):
    """A stand-in for ``engine.order_queue`` that checks each pass's order
    against ``sorted(queue, key=priority_key)`` and the keys the pass
    reuses against ``priority_key``; ``seen`` collects the queue lengths."""
    real = engine.order_queue

    def checking(policy, queue, now, n_qubits, state):
        got = real(policy, queue, now, n_qubits, state)
        key = lambda j: priority_key(policy, j, now, n_qubits, state)  # noqa: E731
        want = sorted(queue, key=key)
        assert got == want
        assert all(queue.keys[j.id] == key(j) for j in got)
        seen.append(len(queue))
        return got

    return checking


def contended_config(name, exclusive, rows, quantum, levels, aging_s, merge=MergeConfig()):
    jobs, t = [], 0.0
    for i, (n, shots, gap, t_e) in enumerate(rows):
        t += gap
        jobs.append(Job(id=i, n=n, shots=shots, t_sub=t, t_e_shot=t_e))
    policy = Policy(name, rr_quantum_shots=quantum, mfq_levels=levels,
                    mfq_base_quantum_shots=quantum, mfq_aging_s=aging_s)
    return SimConfig(chip=generate_grid(3, 3), workload=Workload(tuple(jobs), horizon=t + 1),
                     policy=policy, exclusive=exclusive, merge=merge)


class TestKeptOrder:
    """The engine's queue keeps its order between passes; each pass must
    read the order a full sort gives, after preemptions, demotions and
    MFQ aging re-key queued jobs."""

    @given(
        name=st.sampled_from(["fcfs", "sjf", "qsjf", "srtf", "rr", "mfq", "hrrf", "qhrrf"]),
        exclusive=st.booleans(),
        rows=st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 40), st.sampled_from([0.0, 0.002, 0.01]),
                      st.sampled_from([1e-3, 2e-3, 5e-3])),
            min_size=1, max_size=14),
        quantum=st.integers(1, 8),
        levels=st.integers(2, 4),
        aging_s=st.sampled_from([0.005, 0.02, 10.0]),
        merge=st.sampled_from([MergeConfig(), MergeConfig(enabled=False),
                               MergeConfig(backfill=True)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_pass_reads_the_sorted_queue(self, name, exclusive, rows, quantum, levels,
                                              aging_s, merge):
        seen = []
        cfg = contended_config(name, exclusive, rows, quantum, levels, aging_s, merge)
        with mock.patch.object(engine, "order_queue", sorted_order_checker(seen)):
            run(cfg)
        assert seen

    @pytest.mark.parametrize("exclusive", [False, True])
    def test_mfq_scenario_preempts_demotes_and_ages(self, exclusive):
        # one long job and a stream of short ones on a 3x3 chip: quanta of
        # two shots preempt and demote, and a 5 ms aging threshold resets
        # the levels of waiting jobs, which the queue must re-key
        rows = [(5, 40, 0.0, 1e-3)] + [(4, 6, 0.002, 2e-3)] * 10
        cfg = contended_config("mfq", exclusive, rows, quantum=2, levels=3, aging_s=0.005)
        seen = []
        with mock.patch.object(engine, "order_queue", sorted_order_checker(seen)), \
                mock.patch.object(WaitingQueue, "rekey", autospec=True,
                                  side_effect=WaitingQueue.rekey) as rekey:
            trace, _ = run(cfg)
        assert any(e["kind"] == "preempt" for e in trace.events)
        assert rekey.called and max(seen) > 1
