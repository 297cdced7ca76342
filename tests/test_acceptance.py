"""Acceptance suite: the ten exit criteria, one test per criterion.

Each test prints one `[acceptance] criterion N (...): PASS|FAIL` line
(visible with `pytest -s` or `-rA`). The heavy criteria (3: exhaustive
small-graph oracle, 4: 200 random simulations, 9: the policy trend sweep)
run their cells across two worker processes and take a few minutes
combined.
"""

import concurrent.futures as cf
import math
import os
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from qpusched.allocator import Occupancy, allocate, grow_region, qubit_errors
from qpusched.chip import Chip, CouplingGraph, QubitSpec, generate_grid
from qpusched.engine import MergeConfig, SimConfig, run
from qpusched.metrics import compute_report
from qpusched.merger import Group
from qpusched.scheduler import (
    POLICY_NAMES,
    Policy,
    q_response_ratio,
    response_ratio,
)
from qpusched.workload import (
    Distribution,
    Job,
    WorkloadSpec,
    default_spec,
    generate_poisson_workload,
)

from conftest import (
    busy_qubit_seconds,
    order_jobs,
    region_ratio,
    registered,
    timeline_qubit_seconds,
)
from graphgen import enumerate_validated

WORKERS = min(2, os.cpu_count() or 1)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {num} ({desc}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num} ({desc}): PASS")


def uniform_chip_from_edges(n, edges):
    specs = tuple(QubitSpec(id=i, t2_us=100.0, readout_error=0.01) for i in range(n))
    return Chip(name=f"enum-{n}", graph=CouplingGraph(n_qubits=n, edges=edges), specs=specs)


# --------------------------------------------------------------------------
# criterion 1: interior region-ratio point values, exact


def test_criterion_1_region_ratio_point_checks():
    with criterion(1, "region-ratio point values"):
        chip = generate_grid(6, 6)
        line = [2 * 6 + c for c in (1, 2, 3, 4)]
        square = [2 * 6 + 2, 2 * 6 + 3, 3 * 6 + 2, 3 * 6 + 3]
        s_line = region_ratio(chip, line)
        s_square = region_ratio(chip, square)
        assert (s_line.r_i, s_line.r_a) == (3, 13)
        assert Fraction(s_line.r_i, s_line.r_a) == Fraction(3, 13)
        assert s_line.ratio == pytest.approx(0.2308, abs=5e-5)
        assert (s_square.r_i, s_square.r_a) == (4, 12)
        assert Fraction(s_square.r_i, s_square.r_a) == Fraction(1, 3)
        assert s_square.ratio == pytest.approx(0.3333, abs=5e-5)


# --------------------------------------------------------------------------
# criterion 2: four equal groups root on the four corners of a 5x5 grid


def test_criterion_2_corner_roots():
    with criterion(2, "corner roots for four equal groups"):
        chip = generate_grid(5, 5)
        groups = [
            Group.build(i, [Job(id=i, n=4, shots=100, t_sub=0.0, t_e_shot=0.001)])
            for i in range(4)
        ]
        outcome = allocate(chip, Occupancy(chip), groups)
        assert sorted(p.root for p in outcome.placed) == [0, 4, 20, 24]


# --------------------------------------------------------------------------
# criterion 3: greedy growth equals the exhaustive frontier oracle on all
# connected graphs with <= 8 vertices, demands <= 4, every root


def _criterion3_worker(graphs):
    """Check every growth step against a from-scratch bitmask oracle."""
    growths = 0
    bad = 0
    for n, edges in graphs:
        chip = uniform_chip_from_edges(n, edges)
        adj = [0] * n
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        occ = Occupancy(chip)
        for root in range(n):
            for demand in range(1, min(4, n) + 1):
                res = grow_region(chip, occ, root, demand, 0.001, record_steps=True)
                if res.region is None or len(res.region) != demand:
                    bad += 1
                    continue
                growths += 1
                region_mask = 1 << root
                for step in res.steps:
                    frontier_mask = 0
                    m = region_mask
                    while m:
                        b = m & (-m)
                        frontier_mask |= adj[b.bit_length() - 1]
                        m ^= b
                    frontier_mask &= ~region_mask
                    per = {}
                    best = (-1, 1)
                    w = frontier_mask
                    while w:
                        b = w & (-w)
                        c = b.bit_length() - 1
                        w ^= b
                        nm = region_mask | (1 << c)
                        r_i = 0
                        boundary = 0
                        mm = nm
                        while mm:
                            bb = mm & (-mm)
                            v = bb.bit_length() - 1
                            mm ^= bb
                            r_i += (adj[v] & nm).bit_count()
                            boundary += (adj[v] & ~nm).bit_count()
                        r_i //= 2
                        r_a = r_i + boundary
                        per[c] = (r_i, r_a)
                        if r_i * best[1] > best[0] * r_a:
                            best = (r_i, r_a)
                    if set(step.frontier) != set(per):
                        bad += 1
                        break
                    chosen_ri, chosen_ra = per[step.chosen]
                    if (chosen_ri, chosen_ra) != (step.r_i, step.r_a):
                        bad += 1
                        break
                    if chosen_ri * best[1] != best[0] * chosen_ra:
                        bad += 1  # chosen step did not attain the frontier max
                        break
                    region_mask |= 1 << step.chosen
    return growths, bad


def test_criterion_3_growth_oracle_equivalence():
    with criterion(3, "greedy growth vs exhaustive frontier oracle"):
        per_n = enumerate_validated(8)
        graphs = [(n, edges) for n in sorted(per_n) for edges in per_n[n]]
        assert len(graphs) == 12113
        chunks = [graphs[i::4 * WORKERS] for i in range(4 * WORKERS)]
        total = 0
        bad = 0
        with cf.ProcessPoolExecutor(max_workers=WORKERS) as pool:
            for growths, disagreements in pool.map(_criterion3_worker, chunks):
                total += growths
                bad += disagreements
        assert total >= 12113  # many growths per graph
        assert bad == 0, f"{bad} growth steps disagreed with the oracle"


# --------------------------------------------------------------------------
# criteria 4 + 7 share 200 random simulations


def _occupancy_violations(trace, chip):
    """Count intervals whose region is disconnected or of the wrong size.

    Buffers between concurrent regions are checked in library code:
    ``Occupancy.place`` refuses a touching region in the engine at every
    dispatch, and again when ``_criterion4_cell`` re-scores the trace with
    ``compute_report`` without spans, which replays the recorded intervals
    through a fresh ``Occupancy``.
    """
    demand_of = {}
    for rec in trace.allocations:
        demand_of[rec.group_id] = sum(trace.jobs[j].job.n for j in rec.member_ids)
    violations = 0
    for iv in trace.intervals:
        if iv.end is None:
            return 1_000_000  # never-closed interval is itself a violation
        if len(iv.region) != demand_of[iv.group_id]:
            violations += 1
        region = set(iv.region)
        seen = {iv.region[0]}
        stack = [iv.region[0]]
        while stack:
            u = stack.pop()
            for v in chip.graph.neighbors[u]:
                if v in region and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != region:
            violations += 1
    return violations


def _criterion4_cell(i):
    rng = np.random.default_rng(909_000 + i)
    rows = int(rng.integers(4, 9))
    cols = int(rng.integers(4, 9))
    lam = float(rng.choice([5.0, 20.0, 50.0]))
    policy = POLICY_NAMES[i % len(POLICY_NAMES)]
    chip = generate_grid(rows, cols)
    wl = generate_poisson_workload(default_spec(chip.n_qubits, lam, 1.5, seed=i))
    cfg = SimConfig(
        chip=chip,
        workload=wl,
        policy=Policy(policy, rr_quantum_shots=100, mfq_base_quantum_shots=100),
    )
    trace, report = run(cfg)
    violations = _occupancy_violations(trace, chip)
    # the replay re-places every interval and must score what the run saw
    rescored = compute_report(trace, chip, t_q_mode=cfg.t_q_mode) == report
    job_side = busy_qubit_seconds(trace)
    timeline_side = timeline_qubit_seconds(trace, chip)
    conserved = math.isclose(job_side, timeline_side, rel_tol=1e-12, abs_tol=1e-9)
    shots_ok = all(rec.executed_shots == rec.job.shots for rec in trace.jobs.values())
    return violations, conserved, shots_ok, rescored


@pytest.fixture(scope="module")
def invariant_runs():
    with cf.ProcessPoolExecutor(max_workers=WORKERS) as pool:
        return list(pool.map(_criterion4_cell, range(200), chunksize=10))


def test_criterion_4_buffer_invariant_suite(invariant_runs):
    with criterion(4, "buffer/connectivity invariants over 200 random simulations"):
        assert len(invariant_runs) == 200
        total_violations = sum(v for v, _, _, _ in invariant_runs)
        assert total_violations == 0
        assert all(shots_ok for _, _, shots_ok, _ in invariant_runs)
        assert all(rescored for _, _, _, rescored in invariant_runs)


# --------------------------------------------------------------------------
# criterion 5: reduction identities and ordering properties on 1000 queues


def test_criterion_5_policy_reduction_identities():
    with criterion(5, "policy reduction identities on 1000 random queues"):
        rng = np.random.default_rng(5151)
        n_chip = 64
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            full = [
                Job(
                    id=i,
                    n=n_chip,
                    shots=int(rng.integers(1, 500)),
                    t_sub=float(rng.uniform(0, 30)),
                    t_e_shot=float(rng.uniform(1e-4, 2e-2)),
                )
                for i in range(k)
            ]
            mixed = [
                Job(id=j.id, n=int(rng.integers(1, n_chip + 1)), shots=j.shots,
                    t_sub=j.t_sub, t_e_shot=j.t_e_shot)
                for j in full
            ]
            now = 30.0 + float(rng.uniform(0, 10))
            st_ = registered(full)
            assert order_jobs(Policy("qhrrf"), full, now, n_chip, st_) == order_jobs(
                Policy("hrrf"), full, now, n_chip, st_
            )
            assert order_jobs(Policy("qsjf"), full, now, n_chip, st_) == order_jobs(
                Policy("sjf"), full, now, n_chip, st_
            )
            fcfs = order_jobs(Policy("fcfs"), mixed, now, n_chip, registered(mixed))
            assert fcfs == sorted(mixed, key=lambda j: (j.t_sub, j.id))
            probe = mixed[0]
            t_ser = probe.shots * probe.t_e_shot
            w = now - probe.t_sub
            assert response_ratio(w + 1.0, t_ser) > response_ratio(w, t_ser)
            assert q_response_ratio(w + 1.0, t_ser, probe.n / n_chip) > q_response_ratio(
                w, t_ser, probe.n / n_chip
            )


# --------------------------------------------------------------------------
# criterion 6: formula point checks


def test_criterion_6_formula_point_checks():
    with criterion(6, "formula point checks"):
        assert q_response_ratio(30.0, 10.0, 0.2) == 3.2
        assert response_ratio(30.0, 10.0) == 4.0
        spec = QubitSpec(id=0, t2_us=100.0, readout_error=0.02)
        one_qubit = Chip("q", CouplingGraph(1, ()), (spec,))
        expected = (1.0 - math.exp(-1.0)) * 0.02
        assert abs(qubit_errors(one_qubit, 100e-6, "t2")[0] - expected) < 1e-12


# --------------------------------------------------------------------------
# criterion 7: conservation everywhere + byte-identical replays


def test_criterion_7_conservation_and_determinism(invariant_runs):
    with criterion(7, "work conservation and byte-identical determinism"):
        assert all(conserved for _, conserved, _, _ in invariant_runs)
        chip = generate_grid(5, 5)
        for policy in ("fcfs", "srtf", "rr", "mfq", "qsjf", "qhrrf"):
            wl = generate_poisson_workload(default_spec(25, 4.0, 3.0, seed=77))
            cfg = SimConfig(
                chip=chip, workload=wl,
                policy=Policy(policy, rr_quantum_shots=50),
                record_growth_steps=True,
            )
            first, _ = run(cfg)
            second, _ = run(cfg)
            assert first.to_jsonl() == second.to_jsonl()


# --------------------------------------------------------------------------
# criterion 8: Poisson arrival statistics


def test_criterion_8_poisson_statistics():
    with criterion(8, "Poisson inter-arrival statistics"):
        lam = 5.0
        wl = generate_poisson_workload(default_spec(64, lam, 2100.0, seed=12345))
        subs = [j.t_sub for j in wl.jobs]
        gaps = np.diff([0.0] + subs)
        assert len(gaps) >= 10_000
        mean = float(np.mean(gaps))
        assert abs(mean - 1 / lam) <= 0.1 / lam
        ks = scipy.stats.kstest(gaps, "expon", args=(0, 1 / lam))
        assert ks.pvalue >= 0.01


# --------------------------------------------------------------------------
# criterion 9: policy trend reproduction at desk scale


TREND_LAMBDAS = (0.4, 0.6, 0.8, 1.0, 1.25)
TREND_SEEDS = tuple(range(10))
TREND_HORIZON = 15.0


def _criterion9_cell(args):
    policy, lam, seed, exclusive = args
    chip = generate_grid(16, 16)
    wl = generate_poisson_workload(default_spec(chip.n_qubits, lam, TREND_HORIZON, seed=seed))
    cfg = SimConfig(chip=chip, workload=wl, policy=Policy(policy), exclusive=exclusive)
    _, report = run(cfg)
    return (policy, lam, seed, exclusive, report.utilization, report.mean_wt)


@pytest.fixture(scope="module")
def trend_sweep():
    policies = ("fcfs", "rr", "sjf", "qsjf", "qhrrf")
    cells = [(p, lam, s, False) for p in policies for lam in TREND_LAMBDAS for s in TREND_SEEDS]
    cells += [("qhrrf", lam, s, True) for lam in TREND_LAMBDAS for s in TREND_SEEDS]
    results = {}
    with cf.ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for policy, lam, seed, exclusive, util, wt in pool.map(
            _criterion9_cell, cells, chunksize=5
        ):
            results[(policy, lam, seed, exclusive)] = (util, wt)
    return results


def test_criterion_9_trend_reproduction(trend_sweep):
    with criterion(9, "policy trend reproduction at desk scale"):
        res = trend_sweep
        top_two = TREND_LAMBDAS[-2:]
        # (a) qubit-aware policies match or beat FCFS and RR on utilization
        # at the two highest rates, seed-paired, in >= 8/10 seeds
        for policy in ("qsjf", "qhrrf"):
            for baseline in ("fcfs", "rr"):
                for lam in top_two:
                    wins = sum(
                        res[(policy, lam, s, False)][0] >= res[(baseline, lam, s, False)][0]
                        for s in TREND_SEEDS
                    )
                    assert wins >= 8, (
                        f"utilization({policy}) >= utilization({baseline}) at "
                        f"lambda={lam} held in only {wins}/10 seeds"
                    )
        # (b) QHRRF matches or beats SJF and QSJF on mean weighted turnaround
        # at the highest rate in >= 8/10 seeds
        top = TREND_LAMBDAS[-1]
        for baseline in ("sjf", "qsjf"):
            wins = sum(
                res[("qhrrf", top, s, False)][1] <= res[(baseline, top, s, False)][1]
                for s in TREND_SEEDS
            )
            assert wins >= 8, (
                f"wt(qhrrf) <= wt({baseline}) at lambda={top} held in only {wins}/10 seeds"
            )
        # (c) single-program mode never beats multi-program QHRRF on
        # seed-mean utilization at any rate
        for lam in TREND_LAMBDAS:
            mean_excl = np.mean([res[("qhrrf", lam, s, True)][0] for s in TREND_SEEDS])
            mean_multi = np.mean([res[("qhrrf", lam, s, False)][0] for s in TREND_SEEDS])
            assert mean_excl <= mean_multi, f"exclusive mode won at lambda={lam}"


# --------------------------------------------------------------------------
# criterion 10: merging effect


def _two_cluster_spec(lam, seed):
    return WorkloadSpec(
        arrival_rate=lam,
        horizon=8.0,
        qubit_dist=Distribution("int_uniform", low=2, high=8),
        shots_dist=Distribution("choice", values=(200,)),
        t_e_dist=Distribution("choice", values=(0.001, 0.008)),
        seed=seed,
    )


def test_criterion_10_merging_effect():
    with criterion(10, "merging does not hurt ratio/utilization; shots exact"):
        chip = generate_grid(8, 8)
        merged_any = False
        for seed in (0, 1, 2):
            wl = generate_poisson_workload(_two_cluster_spec(3.0, seed))
            base = SimConfig(chip=chip, workload=wl, policy=Policy("fcfs"))
            t_merge, r_merge = run(base)
            t_plain, r_plain = run(
                SimConfig(chip=chip, workload=wl, policy=Policy("fcfs"),
                          merge=MergeConfig(enabled=False)),
            )
            # clusters 1ms vs 8ms never co-merge under alpha = 1.5
            for rec in t_merge.allocations:
                tes = {t_merge.jobs[j].job.t_e_shot for j in rec.member_ids}
                assert max(tes) <= 1.5 * min(tes)
                if len(rec.member_ids) > 1:
                    merged_any = True
            assert r_merge.mean_region_ratio >= r_plain.mean_region_ratio - 1e-9
            assert r_merge.utilization >= r_plain.utilization - 1e-9
            for trace in (t_merge, t_plain):
                for rec in trace.jobs.values():
                    assert rec.executed_shots == rec.job.shots
        assert merged_any
