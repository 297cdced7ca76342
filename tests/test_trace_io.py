"""Trace file tests: ``Trace.from_jsonl`` is the exact inverse of ``to_jsonl``.

The round trip is drawn by hypothesis over every connected graph of up to
six qubits, all 8 policies, the four golden modes and growth steps on and
off. Each job's dispatch history is not written, so reading it back
rebuilds it from the events; the property asserts the rebuilt trace equals
the run's in meta, events, jobs (with every dispatch record), intervals
and allocations (with their growth steps), and that writing it again gives
the same text. The ``requeue`` events are checked against an independent
record of the conflicts: every ``resolve_conflict`` call of the run, and
whether the group was dispatched.
"""

import json
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpusched import allocator
from qpusched.engine import SimConfig, Trace, TraceFormatError, run
from qpusched.metrics import compute_report
from qpusched.scheduler import POLICY_NAMES, Policy
from qpusched.workload import Job, Workload

from conftest import uniform_chip
from graphgen import small_graphs
from test_golden import MODES

# A start near 1e9 s absorbs a 1e-8 s shot: such a dispatch starts and
# ends at one instant, the zero-length case the reader must rebuild too.
# Job 0 never takes the tiny duration, so the makespan is positive and
# ``run`` can score the trace.
T_BASES = (0.0, 1e9)
T_E_SHOTS = (1e-3, 1.3e-3, 2e-3, 1e-8)


@st.composite
def simulations(draw):
    n, edges = draw(st.sampled_from(small_graphs()), label="graph")
    base = draw(st.sampled_from(T_BASES), label="t_base")
    jobs = sorted((
        Job(id=i, n=draw(st.integers(1, min(n, 3))), shots=draw(st.integers(1, 6)),
            t_sub=base + draw(st.sampled_from((0.0, 1e-3, 2.5e-3))),
            t_e_shot=draw(st.sampled_from(T_E_SHOTS[:-1] if i == 0 else T_E_SHOTS)))
        for i in range(draw(st.integers(1, 7), label="jobs"))
    ), key=lambda j: j.t_sub)
    merge, exclusive = MODES[draw(st.sampled_from(sorted(MODES)), label="mode")]
    policy = Policy(draw(st.sampled_from(POLICY_NAMES), label="policy"),
                    rr_quantum_shots=draw(st.integers(1, 3)),
                    mfq_base_quantum_shots=draw(st.integers(1, 3)))
    return SimConfig(
        chip=uniform_chip(n, edges),
        workload=Workload(jobs=tuple(jobs), horizon=base + 1.0),
        policy=policy,
        merge=merge,
        exclusive=exclusive,
        record_growth_steps=draw(st.booleans(), label="record_steps"),
    )


def assert_same_trace(back: Trace, trace: Trace) -> None:
    assert back.meta == trace.meta
    assert back.events == trace.events
    assert back.jobs == trace.jobs  # each Job, counter and DispatchRecord
    assert back.intervals == trace.intervals
    assert back.allocations == trace.allocations  # with their growth steps


def assert_requeues_match(trace: Trace, conflicts: list[tuple[int, int]]) -> None:
    """``requeue`` events list every conflict, in order, by (group, job shed),
    and say ``placed`` exactly when the group was dispatched; job lines
    count each requeue of a job."""
    requeues = [ev for ev in trace.events if ev["kind"] == "requeue"]
    assert [(ev["group"], jid) for ev in requeues for jid in ev["requeued"]] == conflicts
    dispatched = {ev["group"] for ev in trace.events if ev["kind"] == "dispatch"}
    assert [ev["placed"] for ev in requeues] == [ev["group"] in dispatched for ev in requeues]
    counts = Counter(jid for _, jid in conflicts)
    assert {jid: rec.requeues for jid, rec in trace.jobs.items()} == {
        jid: counts[jid] for jid in trace.jobs}


def features(trace: Trace) -> set[str]:
    """The cases of a trace that the reader handles apart from the rest."""
    found = set()
    if any(iv.end == iv.start for iv in trace.intervals):
        found.add("zero-length dispatch")
    if any(ev["kind"] == "requeue" and ev["placed"] for ev in trace.events):
        found.add("shed, then placed")
    return found


@given(data=st.data())
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
def round_trip(probe: Counter, data):
    config = data.draw(simulations())
    conflicts = []
    real_resolve = allocator.resolve_conflict

    def recording_resolve(stalled):
        job = real_resolve(stalled)
        conflicts.append((stalled.id, job.id))
        return job

    with mock.patch.object(allocator, "resolve_conflict", recording_resolve):
        trace, _ = run(config)
    text = trace.to_jsonl()
    back = Trace.from_jsonl(text)
    assert_same_trace(back, trace)
    assert back.to_jsonl() == text
    assert_requeues_match(trace, conflicts)
    probe.update(features(trace))


def test_round_trip_is_exact_and_draws_every_case():
    probe = Counter()
    round_trip(probe)
    # a probe of the draws: without these cases the property proves less
    assert probe["zero-length dispatch"] >= 5, probe
    assert probe["shed, then placed"] >= 5, probe


def example_text() -> str:
    jobs = tuple(Job(id=i, n=2, shots=3 + i, t_sub=0.0, t_e_shot=1e-3) for i in range(3))
    config = SimConfig(chip=uniform_chip(4, [(0, 1), (1, 2), (2, 3)]),
                       workload=Workload(jobs=jobs, horizon=1.0), policy=Policy("fcfs"))
    return run(config)[0].to_jsonl()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_reader_rejects_non_finite_numbers(token):
    text = example_text()
    first_job = next(line for line in text.splitlines() if '"type": "job"' in line)
    doc = json.loads(first_job)
    bad = first_job.replace(f'"t_comp": {doc["t_comp"]!r}', f'"t_comp": {token}')
    assert bad != first_job
    with pytest.raises(TraceFormatError, match="non-finite"):
        Trace.from_jsonl(text.replace(first_job, bad))


def test_reader_rejects_a_dispatch_that_never_ends():
    lines = example_text().splitlines()
    ends = [i for i, line in enumerate(lines) if '"kind": "group_complete"' in line]
    del lines[ends[-1]]
    with pytest.raises(TraceFormatError, match="never ends"):
        Trace.from_jsonl("\n".join(lines) + "\n")


def test_reader_rejects_a_text_without_its_meta_line():
    lines = example_text().splitlines()
    with pytest.raises(TraceFormatError, match="meta line"):
        Trace.from_jsonl("\n".join(lines[1:]) + "\n")


def without_time(lines):
    first_event = next(i for i, line in enumerate(lines) if '"type": "event"' in line)
    doc = json.loads(lines[first_event])
    del doc["time"]
    return lines[:first_event] + [json.dumps(doc)] + lines[first_event + 1:]


@pytest.mark.parametrize("damage", [
    pytest.param(lambda lines: ["\n".join(lines)[:100]], id="truncated"),
    pytest.param(lambda lines: [line for line in lines if '"type": "job"' not in line],
                 id="no job lines"),
    pytest.param(lambda lines: lines[:1] + ["[1, 2]"] + lines[1:], id="array line"),
    pytest.param(lambda lines: ['"meta"'] + lines[1:], id="meta line not an object"),
    pytest.param(without_time, id="event without time"),
])
def test_reader_rejects_malformed_text_with_its_own_error(damage):
    with pytest.raises(TraceFormatError):
        Trace.from_jsonl("\n".join(damage(example_text().splitlines())) + "\n")


# (a line of the example, the key to damage, the value it gets)
WRONG_VALUES = [
    ('"kind": "dispatch"', "time", "soon"),  # read back as a string start; scoring raised TypeError
    ('"kind": "dispatch"', "time", True),
    ('"kind": "arrival"', "time", None),
    ('"kind": "dispatch"', "t_e_group", 0.0),
    ('"kind": "dispatch"', "group", 0.0),
    ('"kind": "dispatch"', "region", [0, "1"]),
    ('"kind": "dispatch"', "region", []),
    ('"kind": "dispatch"', "region", [0, 4]),  # the chip has qubits 0..3
    ('"kind": "dispatch"', "root", 7),
    ('"kind": "dispatch"', "r_i", 99),
    ('"kind": "dispatch"', "members", []),  # jobs 0 and 1 complete without a dispatch
    ('"kind": "arrival"', "kind", "teleport"),
    ('"kind": "group_complete"', "shots_done", 1.5),
    ('"kind": "requeue"', "placed", 1),
    ('"type": "job"', "shots", 3.0),
    ('"type": "job"', "t_comp", "later"),
    ('"type": "job"', "t_sub", False),
    ('"type": "meta"', "n_qubits", "4"),
]


@pytest.mark.parametrize("marker, key, value", WRONG_VALUES,
                         ids=[f"{m.split()[-1][1:-1]}.{k}={v!r}" for m, k, v in WRONG_VALUES])
def test_reader_rejects_a_value_that_breaks_its_rule(marker, key, value):
    lines = example_text().splitlines()
    if marker == '"kind": "requeue"':  # the example has no conflict: give it a record
        lines.insert(2, json.dumps({"type": "event", "time": 0.0, "kind": "requeue",
                                    "group": 9, "requeued": [2], "placed": False}))
    i = next(i for i, line in enumerate(lines) if marker in line)
    Trace.from_jsonl("\n".join(lines) + "\n")  # the undamaged text reads
    doc = json.loads(lines[i])
    doc[key] = value
    lines[i] = json.dumps(doc)
    with pytest.raises(TraceFormatError):
        Trace.from_jsonl("\n".join(lines) + "\n")


def test_reader_rejects_a_group_dispatched_twice():
    lines = example_text().splitlines()
    starts = [i for i, line in enumerate(lines) if '"kind": "dispatch"' in line]
    ends = [i for i, line in enumerate(lines) if '"kind": "group_complete"' in line]
    for i in (starts[1], ends[1]):
        doc = json.loads(lines[i])
        doc["group"] = 0
        lines[i] = json.dumps(doc)
    with pytest.raises(TraceFormatError, match="dispatched twice"):
        Trace.from_jsonl("\n".join(lines) + "\n")


JSON_VALUES = st.sampled_from([None, True, -1, 2.5, "x", [], [1, 2], {}, {"type": "event"}])


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def damaged_reading(probe: Counter, data):
    config = data.draw(simulations())
    lines = run(config)[0].to_jsonl().splitlines()
    damage = data.draw(st.sampled_from(["truncate", "drop line", "drop key", "retype key",
                                        "retype line"]), label="damage")
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    doc = json.loads(lines[i])
    if damage == "truncate":
        text = "\n".join(lines)
        lines = [text[:data.draw(st.integers(0, len(text) - 1), label="cut")]]
    elif damage == "drop line":
        del lines[i]
    elif damage == "retype line":
        lines[i] = json.dumps(data.draw(JSON_VALUES))
    else:
        key = data.draw(st.sampled_from(sorted(doc)), label="key")
        if damage == "drop key":
            del doc[key]
        else:
            doc[key] = data.draw(JSON_VALUES)
        lines[i] = json.dumps(doc)
    try:
        back = Trace.from_jsonl("\n".join(lines) + "\n")
    except TraceFormatError:
        probe["rejected"] += 1
        return
    probe["read"] += 1
    compute_report(back, config.chip)  # what reads back has the types scoring needs


def test_damaged_text_reads_as_a_trace_or_raises_trace_format_error():
    # any other exception, from the reader or from scoring what it read,
    # fails the property; the probe shows both outcomes
    probe = Counter()
    damaged_reading(probe)
    assert probe["rejected"] >= 50 and probe["read"] >= 5, probe
