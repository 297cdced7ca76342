"""Trace file tests: ``Trace.from_jsonl`` is the exact inverse of ``to_jsonl``.

The round trip is drawn over every connected graph of up to six qubits,
all 8 policies and the four golden modes, by hypothesis and by seeded
cases (``conftest.Draws``) whose probe counts do not move with the run.
The job records and the growth steps are not written, so reading a trace
back folds the records from the events; the property asserts the read
trace equals the run's in meta, events, jobs (with every counter and
dispatch record), intervals and allocations, that writing it again gives
the same text, and that ``growth_steps`` regrows every dispatch of the
trace read back. The ``requeue`` events are checked against an
independent record of the conflicts: every ``resolve_conflict`` call of
the run, and whether the group was dispatched.
"""

import json
import math
import pathlib
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpusched import allocator
from qpusched.allocator import AllocationError
from qpusched.chip import ChipError, QubitSpec, generate_grid
from qpusched.engine import (
    _EVENT_FIELDS,
    _is_duration,
    _is_flag,
    _is_int,
    _is_ints,
    _is_time,
    MergeConfig,
    SimConfig,
    Trace,
    TraceFormatError,
    growth_steps,
    run,
)
from qpusched.metrics import compute_report
from qpusched.scheduler import POLICY_NAMES, Policy
from qpusched.workload import Job, Workload, default_spec, generate_poisson_workload

from conftest import Draws, uniform_chip
from graphgen import small_graphs
from legacy_trace import legacy_growth
from test_golden import MODES

# A start near 1e9 s absorbs a 1e-8 s shot: such a dispatch starts and
# ends at one instant, the zero-length case the reader must rebuild too.
# Job 0 never takes the tiny duration, so the makespan is positive and
# ``run`` can score the trace.
T_BASES = (0.0, 1e9)
T_E_SHOTS = (1e-3, 1.3e-3, 2e-3, 1e-8)


def draw_simulation(draws: Draws) -> SimConfig:
    n, edges = draws.one(small_graphs(), label="graph")
    base = draws.one(T_BASES, label="t_base")
    jobs = sorted((
        Job(id=i, n=draws.integer(1, min(n, 3)), shots=draws.integer(1, 6),
            t_sub=base + draws.one((0.0, 1e-3, 2.5e-3)),
            t_e_shot=draws.one(T_E_SHOTS[:-1] if i == 0 else T_E_SHOTS))
        for i in range(draws.integer(1, 7, label="jobs"))
    ), key=lambda j: j.t_sub)
    merge, exclusive = MODES[draws.one(sorted(MODES), label="mode")]
    policy = Policy(draws.one(POLICY_NAMES, label="policy"),
                    rr_quantum_shots=draws.integer(1, 3),
                    mfq_base_quantum_shots=draws.integer(1, 3))
    return SimConfig(
        chip=uniform_chip(n, edges),
        workload=Workload(jobs=tuple(jobs), horizon=base + 1.0),
        policy=policy,
        merge=merge,
        exclusive=exclusive,
    )


def assert_same_trace(back: Trace, trace: Trace) -> None:
    assert back.meta == trace.meta
    assert back.events == trace.events
    assert back.jobs == trace.jobs  # each Job, counter and DispatchRecord
    assert back.intervals == trace.intervals
    assert back.allocations == trace.allocations


def assert_requeues_match(trace: Trace, conflicts: list[tuple[int, int]]) -> None:
    """``requeue`` events list every conflict, in order, by (group, job shed),
    and say ``placed`` exactly when the group was dispatched; job records
    count each requeue of a job."""
    requeues = [ev for ev in trace.events if ev["kind"] == "requeue"]
    assert [(ev["group"], jid) for ev in requeues for jid in ev["requeued"]] == conflicts
    dispatched = {ev["group"] for ev in trace.events if ev["kind"] == "dispatch"}
    assert [ev["placed"] for ev in requeues] == [ev["group"] in dispatched for ev in requeues]
    counts = Counter(jid for _, jid in conflicts)
    assert {jid: rec.requeues for jid, rec in trace.jobs.items()} == {
        jid: counts[jid] for jid in trace.jobs}


def features(trace: Trace) -> set[str]:
    """The cases of a trace that the reader or ``growth_steps`` handles apart
    from the rest. A release logged after another group's dispatch at the
    same instant, like a zero-length dispatch, is lost to a replay that
    orders an instant's releases before its placements."""
    found = set()
    if any(iv.end == iv.start for iv in trace.intervals):
        found.add("zero-length dispatch")
    if any(ev["kind"] == "requeue" and ev["placed"] for ev in trace.events):
        found.add("shed, then placed")
    dispatched: dict[float, set[int]] = {}  # time -> the groups dispatched then, so far
    for ev in trace.events:
        if ev["kind"] == "dispatch":
            dispatched.setdefault(ev["time"], set()).add(ev["group"])
        elif ev["kind"] in ("preempt", "group_complete") and (
                dispatched.get(ev["time"], set()) - {ev["group"]}):
            found.add("release after a dispatch at one instant")
    return found


def check_round_trip(probe: Counter, draws: Draws) -> None:
    config = draw_simulation(draws)
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
    steps = growth_steps(back, config.chip)  # raises unless every dispatch regrows
    assert list(steps) == [rec.group_id for rec in trace.allocations]
    probe.update(features(trace))


@given(data=st.data())
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
def round_trip(data):
    check_round_trip(Counter(), Draws(data.draw))


def test_round_trip_is_exact_and_draws_every_case():
    probe = Counter()
    for seed in range(250):
        check_round_trip(probe, Draws(seed=seed))
    # a probe of the seeded cases: without these cases the property proves less
    assert probe["zero-length dispatch"] >= 5, probe
    assert probe["shed, then placed"] >= 5, probe
    assert probe["release after a dispatch at one instant"] >= 5, probe
    round_trip()  # hypothesis draws more


EXAMPLE_CHIP = uniform_chip(4, [(0, 1), (1, 2), (2, 3)])


def example_text(policy: str = "fcfs") -> str:
    """Three jobs on a 4-qubit path. Under fcfs, jobs 0 and 1 run merged in
    group 0 and job 2 alone in group 1. Under rr (two-shot quanta), group 0
    (jobs 0 and 1) is preempted, group 1 (jobs 0 and 2) is preempted as job
    0 completes, and group 2 (jobs 1 and 2) completes."""
    jobs = tuple(Job(id=i, n=2, shots=3 + i, t_sub=0.0, t_e_shot=1e-3) for i in range(3))
    config = SimConfig(chip=EXAMPLE_CHIP, workload=Workload(jobs=jobs, horizon=1.0),
                       policy=Policy(policy, rr_quantum_shots=2))
    return run(config)[0].to_jsonl()


# Two fuzz draws, shrunk, on which a replay in ``occupancy_timeline``'s order
# (an instant's releases first, zero-length intervals skipped) regrows a
# region the engine did not grow: (policy, merge, jobs as (id, n, shots,
# t_sub, t_e_shot)) on one six-qubit graph
REPLAY_CASES = [
    # at 3.6 ms group 3 grows from qubit 2 while group 1 holds {1, 3}; group 1
    # is released after that dispatch, and only then does group 5 take qubit 3
    pytest.param(Policy("mfq", mfq_base_quantum_shots=2), MergeConfig(enabled=False),
                 [(1, 1, 3, 0.001, 0.0013), (3, 2, 3, 0.001, 0.0013), (2, 2, 1, 0.0025, 0.001)],
                 "release after a dispatch at one instant", id="release after a dispatch"),
    # at 1e9 s group 0's 1e-8 s shot starts and ends at one instant, and
    # group 1 grows while group 0 holds {0, 2}
    pytest.param(Policy("srtf"), MergeConfig(enabled=True),
                 [(1, 2, 1, 1e9, 0.001), (3, 2, 1, 1e9, 1e-8)],
                 "zero-length dispatch", id="zero-length dispatch"),
]


@pytest.mark.parametrize("policy, merge, jobs, feature", REPLAY_CASES)
def test_growth_steps_replays_the_events_in_log_order(policy, merge, jobs, feature):
    chip = uniform_chip(6, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 4), (3, 5), (4, 5)])
    jobs = tuple(Job(*job) for job in jobs)
    config = SimConfig(chip=chip, workload=Workload(jobs=jobs, horizon=jobs[-1].t_sub + 1.0),
                       policy=policy, merge=merge)
    trace = Trace.from_jsonl(run(config)[0].to_jsonl())
    assert feature in features(trace)
    steps = growth_steps(trace, chip)
    assert {rec.group_id: len(rec.region) - 1 for rec in trace.allocations} == {
        gid: len(log) for gid, log in steps.items()}


def test_growth_steps_refuses_a_region_its_root_does_not_grow():
    # the example's group 1 (job 2) grows {0, 1} from root 0; edited to the
    # connected {1, 2} from root 1 it still reads and scores, but growth
    # from qubit 1 takes qubit 0 (ratio 1/2) before qubit 2 (1/3)
    lines = example_text().splitlines()
    trace = Trace.from_jsonl("\n".join(lines) + "\n")
    assert [rec.region for rec in trace.allocations] == [(0, 1, 2, 3), (0, 1)]
    assert list(growth_steps(trace, EXAMPLE_CHIP)) == [0, 1]
    lines = edited('"kind": "dispatch"', 1, root=1, region=[1, 2], r_a=3)(lines)
    trace = Trace.from_jsonl("\n".join(lines) + "\n")
    compute_report(trace, EXAMPLE_CHIP)  # the replay of the scores accepts it
    with pytest.raises(AllocationError, match="group 1 regrows from root 1 to"):
        growth_steps(trace, EXAMPLE_CHIP)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_trace_format() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """The trace-format list of README's "File formats": line type -> the
    fields it names, and event kind -> the fields it names."""
    text = README.read_text()
    text = text[text.index("\n- ", text.index("Trace (JSON lines)")):]
    types: dict[str, set[str]] = {}
    kinds: dict[str, set[str]] = {}
    for item in re.split(r"\n(?=(?:  )?- )", text[:text.index("\n\n")].strip()):
        head, tail = re.match(r"(.*?):(?: |$)(.*)", " ".join(item.split())).groups()
        names, fields = re.findall(r"`(\w+)`", head), set(re.findall(r"`(\w+)`", tail))
        if item.startswith("  - "):
            kinds.update((kind, fields) for kind in names)
        else:
            types[names[0]] = set(names[1:]) | fields
    return types, kinds


def test_readme_names_the_trace_format_the_reader_reads():
    types, kinds = readme_trace_format()
    text = example_text()
    Trace.from_jsonl(text)
    docs = [json.loads(line) for line in text.splitlines()]
    assert set(types) == {doc["type"] for doc in docs} == {"meta", "event"}
    assert types["meta"] == set(docs[0]) - {"type"}
    assert types["event"] == {"time", "kind"}
    assert {kind: fields | types["event"] for kind, fields in kinds.items()} == {
        kind: set(fields) | {"kind"} for kind, fields in _EVENT_FIELDS.items()}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_reader_rejects_non_finite_numbers(token):
    text = example_text()
    arrival = next(line for line in text.splitlines() if '"kind": "arrival"' in line)
    doc = json.loads(arrival)
    bad = arrival.replace(f'"t_e_shot": {doc["t_e_shot"]!r}', f'"t_e_shot": {token}')
    assert bad != arrival
    with pytest.raises(TraceFormatError, match="non-finite"):
        Trace.from_jsonl(text.replace(arrival, bad))


def test_reader_rejects_a_dispatch_that_never_ends():
    lines = example_text().splitlines()
    ends = [i for i, line in enumerate(lines) if '"kind": "group_complete"' in line]
    del lines[ends[-1]]
    with pytest.raises(TraceFormatError, match="never ends"):
        Trace.from_jsonl("\n".join(lines) + "\n")


def test_reader_refuses_a_job_that_never_completes():
    # a file cut between dispatches: group 1 (job 2) has neither its dispatch
    # nor its end, and a report of what read would score 2 of the 3 jobs
    lines = [line for line in example_text().splitlines()
             if not ('"group": 1,' in line and ('"kind": "dispatch"' in line
                                                or '"kind": "group_complete"' in line))]
    assert len(lines) == len(example_text().splitlines()) - 2
    with pytest.raises(TraceFormatError, match="job 2 never completes"):
        Trace.from_jsonl("\n".join(lines) + "\n")


def test_reader_rejects_a_text_without_its_meta_line():
    lines = example_text().splitlines()
    with pytest.raises(TraceFormatError, match="meta line"):
        Trace.from_jsonl("\n".join(lines[1:]) + "\n")


# a job line of the format before the job records followed from the events
OLD_JOB_LINE = {"type": "job", "id": 0, "n": 2, "shots": 3, "t_sub": 0.0, "t_e_shot": 1e-3,
                "t_comp": 0.004, "preemptions": 0, "requeues": 0, "executed_shots": 3}


def with_growth_lines(lines):
    """The example's lines followed by the ``growth`` lines that a run which
    logged its growth steps wrote."""
    trace = Trace.from_jsonl("\n".join(lines) + "\n")
    return lines + [json.dumps(doc)
                    for doc in legacy_growth(trace, growth_steps(trace, EXAMPLE_CHIP))]


def without(key: str, marker: str = '"type": "event"'):
    """A damage that deletes ``key`` from the first line holding ``marker``."""
    def damage(lines):
        i = next(i for i, line in enumerate(lines) if marker in line)
        doc = json.loads(lines[i])
        del doc[key]
        return lines[:i] + [json.dumps(doc)] + lines[i + 1:]
    return damage


@pytest.mark.parametrize("damage", [
    pytest.param(lambda lines: ["\n".join(lines)[:100]], id="truncated"),
    pytest.param(lambda lines: lines + [json.dumps(OLD_JOB_LINE)], id="a job line"),
    pytest.param(with_growth_lines, id="growth lines"),
    pytest.param(without("t_q_mode", '"type": "meta"'), id="meta without t_q_mode"),
    pytest.param(lambda lines: lines[:1] + ["[1, 2]"] + lines[1:], id="array line"),
    pytest.param(lambda lines: ['"meta"'] + lines[1:], id="meta line not an object"),
    pytest.param(without("time"), id="event without time"),
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
    ('"kind": "dispatch"', "members", []),  # its end lists jobs 0 and 1, which it lacks
    ('"kind": "arrival"', "kind", "teleport"),
    ('"kind": "group_complete"', "shots_done", 1.5),
    ('"kind": "requeue"', "placed", 1),
    ('"kind": "arrival"', "t_e_shot", 0.0),
    ('"kind": "arrival"', "t_e_shot", "later"),
    ('"kind": "arrival"', "t_e_shot", False),
    ('"type": "meta"', "n_qubits", "4"),
    ('"type": "meta"', "t_q_mode", "t3"),  # re-scoring by the meta's mode raised ChipError
    ('"type": "meta"', "t_q_mode", 5),
    ('"type": "meta"', "t_q_mode", None),
]


@pytest.mark.parametrize("marker, key, value", WRONG_VALUES,
                         ids=[f"{m.split()[-1][1:-1]}.{k}={v!r}" for m, k, v in WRONG_VALUES])
def test_reader_rejects_a_value_that_breaks_its_rule(marker, key, value):
    lines = example_text().splitlines()
    if marker == '"kind": "requeue"':  # the example has no conflict: give it a record
        after_arrivals = 1 + sum('"kind": "arrival"' in line for line in lines)
        lines.insert(after_arrivals, json.dumps({"type": "event", "time": 0.0, "kind": "requeue",
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


def edited(marker: str, k: int = 0, **fields):
    """A damage that gives the ``k``-th line holding ``marker`` ``fields``."""
    def damage(lines):
        i = [i for i, line in enumerate(lines) if marker in line][k]
        lines[i] = json.dumps({**json.loads(lines[i]), **fields})
        return lines
    return damage


def arrival_after_its_dispatch(lines):
    arrival = lines.pop(next(i for i, line in enumerate(lines) if '"job": 2' in line))
    lines.insert(next(i for i, line in enumerate(lines) if '"members": [2]' in line) + 1, arrival)
    return lines


def preempt_after_the_next_dispatch(lines):
    preempt = lines.pop(next(i for i, line in enumerate(lines) if '"kind": "preempt"' in line))
    lines.insert(next(i for i, line in enumerate(lines) if '"group": 1' in line) + 1, preempt)
    return lines


def requeue_before_the_arrivals(lines):
    return lines[:1] + [json.dumps({"type": "event", "time": 0.0, "kind": "requeue",
                                    "group": 9, "requeued": [2], "placed": False})] + lines[1:]


def requeue_after(marker: str, group: int, placed: bool):
    """A damage that logs, right after the last line holding ``marker``, that
    ``group`` shed job 2 at time 0 and whether it was ``placed``."""
    def damage(lines):
        i = max(i for i, line in enumerate(lines) if marker in line)
        lines.insert(i + 1, json.dumps({"type": "event", "time": 0.0, "kind": "requeue",
                                        "group": group, "requeued": [2], "placed": placed}))
        return lines
    return damage


def both(*damages):
    """A damage that applies each of ``damages`` in turn."""
    def damage(lines):
        for one in damages:
            lines = one(lines)
        return lines
    return damage


# (the example's policy, a damage of its lines, what the refusal says); the
# reader would otherwise fold each of these into records the run never had
FOLD_REFUSALS = [
    pytest.param("fcfs", arrival_after_its_dispatch, "not waiting", id="dispatch first"),
    pytest.param("fcfs", requeue_before_the_arrivals, "not waiting", id="requeue first"),
    pytest.param("fcfs", lambda lines: lines[:2] + lines[1:], "arrives twice",
                 id="arrives twice"),
    pytest.param("fcfs", edited('"type": "meta"', n_jobs=4), "3 jobs arrive", id="n_jobs"),
    pytest.param("fcfs", edited('"kind": "dispatch"', 1, members=[1]), "not waiting",
                 id="dispatch of a done job"),
    pytest.param("rr", preempt_after_the_next_dispatch, "not waiting",
                 id="dispatch of a running job"),
    pytest.param("fcfs", edited('"kind": "group_complete"', completed=[], requeued=[0, 1]),
                 "not what", id="finished members requeued"),
    pytest.param("rr", edited('"kind": "preempt"', 1, completed=[0, 2], requeued=[]),
                 "not what", id="member with shots left completed"),
    pytest.param("rr", edited('"kind": "preempt"', 1, requeued=[]), "not what",
                 id="member missing"),
    pytest.param("rr", edited('"kind": "preempt"', 1, completed=[2], requeued=[0]), "not what",
                 id="members swapped"),
    pytest.param("fcfs", edited('"kind": "group_complete"', kind="preempt"), "not what",
                 id="preempt after every shot"),
    pytest.param("rr", edited('"kind": "preempt"', kind="group_complete"), "not what",
                 id="group_complete before every shot"),
    pytest.param("rr", edited('"kind": "preempt"', shots_done=0), "after 0 shots",
                 id="preempt after no shot"),
    pytest.param("fcfs", edited('"kind": "group_complete"', shots_done=5), "after 5 shots",
                 id="more shots than dispatched"),
    # events out of time order, which scoring would read as negative spans
    pytest.param("fcfs", edited('"kind": "dispatch"', 1, time=0.002), "earlier than the event",
                 id="dispatch earlier than the event before it"),
    pytest.param("fcfs", edited('"kind": "group_complete"', 1, time=0.003),
                 "earlier than the event", id="group_complete earlier than its dispatch"),
    # a group is placed in a pass exactly when it is dispatched at that time
    pytest.param("fcfs", requeue_after('"kind": "arrival"', 9, True), "placed=True",
                 id="requeue placed without a dispatch"),
    pytest.param("fcfs", requeue_after('"members": [0, 1]', 0, False), "placed=False",
                 id="requeue not placed after its dispatch"),
    # owner -1 marks a free qubit, so scoring cannot place a negative group
    pytest.param("fcfs", both(edited('"kind": "dispatch"', group=-1),
                              edited('"kind": "group_complete"', group=-1)),
                 "negative id", id="negative group"),
    # dispatches that the fold alone would take, but whose region, shots or
    # duration do not follow from their members; the ends are edited to what
    # the fold logs for each
    pytest.param("fcfs", edited('"kind": "dispatch"', 1, region=[0, 1, 2]), "not that of its",
                 id="region larger than its members' demand"),
    pytest.param("fcfs", edited('"kind": "dispatch"', 1, t_e_group=2e-3), "not that of its",
                 id="t_e_group longer than its members'"),
    pytest.param("fcfs", both(edited('"kind": "dispatch"', 1, shots=2),
                              edited('"kind": "group_complete"', 1, shots_done=2, completed=[],
                                     requeued=[2])),
                 "not that of its", id="shots fewer than its members have left"),
    pytest.param("fcfs", both(edited('"kind": "dispatch"', members=[]),
                              edited('"kind": "group_complete"', completed=[])),
                 "not that of its", id="no members"),
]


@pytest.mark.parametrize("policy, damage, refusal", FOLD_REFUSALS)
def test_reader_refuses_events_that_do_not_follow_from_the_ones_before(policy, damage, refusal):
    lines = example_text(policy).splitlines()
    Trace.from_jsonl("\n".join(lines) + "\n")  # the undamaged text reads
    with pytest.raises(TraceFormatError, match=refusal):
        Trace.from_jsonl("\n".join(damage(lines)) + "\n")


JSON_VALUES = [None, True, -1, 2.5, "x", [], [1, 2], {}, {"type": "event"}]


def check_damaged_reading(probe: Counter, draws: Draws) -> None:
    config = draw_simulation(draws)
    lines = run(config)[0].to_jsonl().splitlines()
    damage = draws.one(["truncate", "drop line", "drop key", "retype key", "retype line"],
                       label="damage")
    i = draws.integer(0, len(lines) - 1, label="line")
    doc = json.loads(lines[i])
    if damage == "truncate":
        text = "\n".join(lines)
        lines = [text[:draws.integer(0, len(text) - 1, label="cut")]]
    elif damage == "drop line":
        del lines[i]
    elif damage == "retype line":
        lines[i] = json.dumps(draws.one(JSON_VALUES))
    else:
        key = draws.one(sorted(doc), label="key")
        if damage == "drop key":
            del doc[key]
        else:
            doc[key] = draws.one(JSON_VALUES)
        lines[i] = json.dumps(doc)
    try:
        back = Trace.from_jsonl("\n".join(lines) + "\n")
    except TraceFormatError:
        probe["rejected"] += 1
        return
    probe["read"] += 1
    compute_report(back, config.chip)  # what reads back has the types scoring needs


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def damaged_reading(data):
    check_damaged_reading(Counter(), Draws(data.draw))


def test_damaged_text_reads_as_a_trace_or_raises_trace_format_error():
    # any other exception, from the reader or from scoring what it read,
    # fails the property; the probe of the seeded cases shows both outcomes
    probe = Counter()
    for seed in range(200):
        check_damaged_reading(probe, Draws(seed=seed))
    assert probe["rejected"] >= 50 and probe["read"] >= 5, probe
    damaged_reading()  # hypothesis draws more


def six_by_six_run(t_q_mode: str = "t2"):
    """A fcfs run on a noisy 6x6 grid whose qubits have T1 = 40 us, below
    their T2: the chip, the trace's text and the run's report."""
    chip = generate_grid(6, 6, QubitSpec(0, t2_us=100.0, readout_error=0.01, t1_us=40.0),
                         noise_seed=4)
    config = SimConfig(
        chip=chip, policy=Policy("fcfs"), t_q_mode=t_q_mode,
        workload=generate_poisson_workload(default_spec(chip.n_qubits, 10.0, 1.0, seed=3)))
    trace, report = run(config)
    return chip, trace.to_jsonl(), report


def test_a_trace_file_scores_under_the_mode_it_records():
    # T1 < T2, so scoring a min_t1_t2 run under t2 would give another pst
    chip, text, report = six_by_six_run("min_t1_t2")
    assert compute_report(Trace.from_jsonl(text), chip) == report
    assert six_by_six_run("t2")[2].mean_pst > report.mean_pst


@pytest.mark.parametrize("side", [4, 8])
@pytest.mark.parametrize("read", [compute_report, growth_steps], ids=lambda f: f.__name__)
def test_a_trace_read_on_a_chip_of_another_size_fails_with_one_clear_error(read, side):
    _, text, _ = six_by_six_run()
    with pytest.raises(ChipError, match=f"36-qubit chip, not of the {side * side}-qubit chip"):
        read(Trace.from_jsonl(text), generate_grid(side, side))


def logged_trace() -> Trace:
    """A trace, logged by hand, that holds an event of every kind: job 0
    arrives, stalls a pass, runs 2 of its 3 shots and then the last one."""
    trace = Trace({"n_qubits": 4, "n_jobs": 1, "t_q_mode": "t2"})
    trace.arrive(Job(0, 2, 3, 0.5, 1e-3))
    trace.requeue(0.5, 0, [0], False)
    trace.dispatch(0.5, 1, [0], 0, [0, 1], 1, 3, 3, 1e-3)
    trace.end(0.502, 1, 2)
    trace.dispatch(0.502, 2, [0], 0, [0, 1], 1, 3, 1, 1e-3)
    trace.end(0.503, 2, 1)
    return trace


FLOAT_FIELDS = [*((kind, "time") for kind in
                  ("arrival", "dispatch", "preempt", "group_complete", "requeue")),
                ("arrival", "t_e_shot"), ("dispatch", "t_e_group")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, name", FLOAT_FIELDS, ids=[f"{k}.{n}" for k, n in FLOAT_FIELDS])
def test_writer_refuses_a_non_finite_number(kind, name, value):
    trace = logged_trace()
    assert {ev["kind"] for ev in trace.events} == set(_EVENT_FIELDS)
    Trace.from_jsonl(trace.to_jsonl())  # the undamaged trace writes and reads
    next(ev for ev in trace.events if ev["kind"] == kind)[name] = value
    with pytest.raises(ValueError):
        trace.to_jsonl()


# numbers whose text is easy to get wrong: integral and short floats, -0.0,
# exponents, subnormals, ints beyond 64 bits
LISTED_NUMBERS = (0, 7, 2**63, -(2**64) - 1, 0.0, -0.0, 1.0, 0.1, 2.5, 1e-07, 1.5e+300, 1e16,
                  5e-324, 1e-310, 2.2250738585072014e-308)


def draw_int(draws: Draws) -> int:
    if draws.flag():
        return draws.integer(0, 9)
    return draws.integer(-(2**70), 2**70)


def draw_number(draws: Draws) -> int | float:
    form = draws.one(("int", "float", "listed"), label="number")
    if form == "int":
        return draw_int(draws)
    if form == "float":  # any exponent, subnormal ones too
        return draws.number(-1.0, 1.0) * 10.0 ** draws.integer(-320, 300)
    return draws.one(LISTED_NUMBERS)


def draw_duration(draws: Draws) -> int | float:
    return abs(draw_number(draws)) or 1


DRAW_VALUE = {  # a field's rule -> a draw of a value that keeps it
    _is_int: draw_int,
    _is_time: draw_number,
    _is_duration: draw_duration,
    _is_ints: lambda draws: [draw_int(draws) for _ in range(draws.integer(0, 3))],
    _is_flag: lambda draws: draws.flag(),
}


def draw_event(draws: Draws) -> dict:
    """An event of any kind, whose fields keep their rules, in the order the
    fold logs them: ``time``, ``kind``, then the rest."""
    kind = draws.one(sorted(_EVENT_FIELDS), label="kind")
    values = {name: DRAW_VALUE[rule](draws) for name, rule in _EVENT_FIELDS[kind].items()}
    assert all(rule(values[name]) for name, rule in _EVENT_FIELDS[kind].items())
    return {"time": values.pop("time"), "kind": kind, **values}


def number_cases(value) -> set[str]:
    if type(value) is int:
        return {"int beyond 64 bits"} if abs(value) >= 2**63 else set()
    cases = {"exponent"} if "e" in repr(value) else set()
    if 0 < abs(value) < 2.2250738585072014e-308:
        cases.add("subnormal")
    if value == 0 and math.copysign(1.0, value) < 0:
        cases.add("-0.0")
    if value == int(value):
        cases.add("integral float")
    return cases


def check_writer(probe: Counter, draws: Draws) -> None:
    trace = Trace({})
    trace.events = [draw_event(draws) for _ in range(draws.integer(1, 5, label="events"))]
    encode = json.JSONEncoder(allow_nan=False).encode
    assert trace.to_jsonl().splitlines() == [
        encode({"type": "meta"}), *(encode({"type": "event", **ev}) for ev in trace.events)]
    for ev in trace.events:
        if type(ev["time"]) is int:
            probe["int time"] += 1
        for value in ev.values():
            if type(value) in (int, float):
                probe.update(number_cases(value))
            elif type(value) is list:
                probe.update({0: ["empty list"], 1: ["one-element list"]}.get(len(value), []))
                probe.update(case for x in value for case in number_cases(x))


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def writer_matches_json(data):
    check_writer(Counter(), Draws(data.draw))


def test_writer_writes_each_event_as_json_does():
    probe = Counter()
    for seed in range(300):
        check_writer(probe, Draws(seed=seed))
    # a probe of the seeded cases: without these cases the property proves less
    for case in ("int time", "int beyond 64 bits", "exponent", "subnormal", "-0.0",
                 "integral float", "empty list", "one-element list"):
        assert probe[case] >= 10, probe
    writer_matches_json()  # hypothesis draws more
