"""Tests of the benchmark's own machinery: trace checker, spans, inputs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import dataclasses

import pytest

import qpusched
from qpusched import Chip, CouplingGraph, Job, QubitSpec, SimConfig, Trace, compute_report
from qpusched.engine import AllocationRecord, DispatchRecord, GroupInterval, JobRecord

from check import check_trace
from inputs import WORKLOADS, heavy_hex, sub_seeds
from spans import WRAPPED, Span, Tracer, self_times


def path_chip(n: int) -> Chip:
    specs = tuple(QubitSpec(id=i, t2_us=100.0, readout_error=0.01) for i in range(n))
    edges = tuple((i, i + 1) for i in range(n - 1))
    return Chip(name=f"path-{n}", graph=CouplingGraph(n_qubits=n, edges=edges), specs=specs)


def two_group_trace(region_b=(4, 5)) -> Trace:
    """Jobs 0 and 1, two qubits each, running side by side on a 6-qubit path."""
    trace = Trace({})
    for jid, region in ((0, (0, 1)), (1, tuple(region_b))):
        job = Job(id=jid, n=2, shots=100, t_sub=0.0, t_e_shot=0.001)
        rec = JobRecord(job=job, t_comp=0.1, executed_shots=100)
        rec.dispatches.append(DispatchRecord(
            start=0.0, group_id=jid, region=region, t_e_group=0.001, end=0.1, shots_executed=100))
        trace.jobs[jid] = rec
        trace.intervals.append(GroupInterval(group_id=jid, start=0.0, region=region, end=0.1))
        trace.allocations.append(AllocationRecord(
            time=0.0, group_id=jid, root=region[0], region=region, r_i=1, r_a=3,
            t_e_group=0.001, member_ids=(jid,)))
    return trace


CHIP6 = path_chip(6)
REPORT = compute_report(two_group_trace(), CHIP6)


def problems(trace: Trace, report=REPORT) -> list[str]:
    return check_trace(trace, CHIP6, (0, 1), report)


def test_checker_accepts_valid_trace():
    assert problems(two_group_trace()) == []


def test_checker_rejects_touching_groups():
    assert any("touch" in p for p in problems(two_group_trace(region_b=(2, 3))))


def test_checker_rejects_disconnected_region():
    assert any("disconnected" in p for p in problems(two_group_trace(region_b=(3, 5))))


def test_checker_rejects_lost_shot():
    trace = two_group_trace()
    trace.jobs[1].executed_shots -= 1
    trace.jobs[1].dispatches[-1].shots_executed -= 1
    assert any("shots" in p for p in problems(trace))


def test_checker_rejects_wrong_region_size():
    assert any("demand 2" in p for p in problems(two_group_trace(region_b=(3, 4, 5))))


def test_checker_rejects_missing_job_and_non_finite_metric():
    trace = two_group_trace()
    del trace.jobs[1]
    assert any("workload has 2" in p for p in problems(trace))
    nan_report = dataclasses.replace(REPORT, mean_wt=float("nan"))
    assert any("non-finite" in p for p in problems(two_group_trace(), nan_report))


def small_config() -> SimConfig:
    chip = WORKLOADS["pack-dense"].build_chip()
    sims = WORKLOADS["pack-dense"].build_sims(chip, 3)
    cfg = sims[0].config
    head = dataclasses.replace(cfg.workload, jobs=cfg.workload.jobs[:30])
    return dataclasses.replace(cfg, workload=head)


def test_checker_accepts_simulated_trace_and_rejects_a_moved_region():
    cfg = small_config()
    trace, report = qpusched.run(cfg)
    ids = [j.id for j in cfg.workload.jobs]
    assert check_trace(trace, cfg.chip, ids, report) == []
    bad = copy.deepcopy(trace)
    first, second = bad.intervals[0], bad.intervals[1]
    assert first.end > second.start  # the first two groups run side by side
    second.region = first.region
    assert any("share qubit" in p for p in check_trace(bad, cfg.chip, ids, report))


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 4.0, 0, 0),  # overlaps a: covered once
        Span("c", 6.0, 7.0, 0, 0),
        Span("c.child", 6.25, 6.5, 3, 0),
        Span("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.75, 0.25, 1.0])


def test_tracer_nests_spans_and_restores_functions():
    originals = [getattr(mod, attr) for mod, attr, _ in WRAPPED]
    tracer = Tracer()
    tracer.sim = 0
    with tracer.wrapped(), tracer.span("engine.run"):
        qpusched.run(small_config())
    assert [getattr(mod, attr) for mod, attr, _ in WRAPPED] == originals
    names = {s.name: s for s in tracer.spans}
    assert {"scheduler.order", "merger.group", "allocator.allocate", "allocator.grow",
            "metrics.report"} <= set(names)
    for s in tracer.spans:
        parent = tracer.spans[s.parent].name if s.parent >= 0 else None
        if s.name in ("allocator.grow", "allocator.resolve"):
            assert parent == "allocator.allocate"
        elif s.name != "engine.run":
            assert parent == "engine.run"
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_heavy_hex_shape():
    chip = heavy_hex()
    assert chip.n_qubits == 342
    assert len(chip.graph.edges) == 396
    degrees = chip.graph.degrees
    assert degrees.min() == 1 and degrees.max() == 3
    hops = chip.distances.hops
    assert (hops >= 0).all()  # connected: every pair reachable
    assert hops.max() == 46


def test_inputs_repeat_for_a_seed_and_change_with_it():
    chip = WORKLOADS["queue-deep"].build_chip()
    build = WORKLOADS["queue-deep"].build_sims
    assert build(chip, 5) == build(chip, 5)
    assert build(chip, 5)[0].config.workload != build(chip, 6)[0].config.workload
    assert sub_seeds(1, 3) == sub_seeds(1, 3) and len(set(sub_seeds(1, 3))) == 3
