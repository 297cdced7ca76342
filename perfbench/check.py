"""Outside-in correctness check of one simulated trace.

Uses only ``trace.intervals``, ``trace.jobs``, the chip's coupling graph
and the metrics report, never engine internals, so a faster simulator
that places qubits wrongly or loses shots is caught here.
"""

from __future__ import annotations

import math
from collections import defaultdict

from qpusched import Chip, MetricsReport, Trace


def check_trace(trace: Trace, chip: Chip, job_ids, report: MetricsReport) -> list[str]:
    """Problems found in the trace; an empty list means it passed."""
    problems: list[str] = []
    expected = set(job_ids)
    if set(trace.jobs) != expected:
        problems.append(f"trace holds {len(trace.jobs)} jobs, workload has {len(expected)}")
    members: dict[int, list[int]] = defaultdict(list)
    for jid, rec in trace.jobs.items():
        if rec.t_comp is None:
            problems.append(f"job {jid} never completed")
        if rec.executed_shots != rec.job.shots:
            problems.append(f"job {jid} executed {rec.executed_shots} of {rec.job.shots} shots")
        if sum(d.shots_executed for d in rec.dispatches) != rec.job.shots:
            problems.append(f"job {jid} dispatches account for the wrong number of shots")
        for d in rec.dispatches:
            members[d.group_id].append(rec.job.n)
    neighbors = chip.graph.neighbors
    for iv in trace.intervals:
        demand = sum(members.get(iv.group_id, ()))
        if len(iv.region) != demand or len(set(iv.region)) != demand:
            problems.append(f"group {iv.group_id} holds {len(iv.region)} qubits for demand {demand}")
        if not _connected(iv.region, neighbors):
            problems.append(f"group {iv.group_id} region is disconnected")
    problems += _overlap_problems(trace, neighbors)
    values = list(report.to_dict().values())
    values += list(report.wt_by_job.values()) + list(report.pst_by_job.values())
    if not all(math.isfinite(v) for v in values):
        problems.append("metrics report holds a non-finite value")
    return problems


def _connected(region, neighbors) -> bool:
    members = set(region)
    if not members:
        return False
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbors[stack.pop()]:
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(members)


def _overlap_problems(trace: Trace, neighbors) -> list[str]:
    """Sweep interval starts and ends; releases at an instant come first."""
    changes = []
    for idx, iv in enumerate(trace.intervals):
        if iv.end is None:
            return [f"group {iv.group_id} interval never closed"]
        changes.append((iv.start, 1, idx))
        changes.append((iv.end, 0, idx))
    changes.sort()
    owner: dict[int, int] = {}
    problems = []
    for _, placing, idx in changes:
        iv = trace.intervals[idx]
        gid = iv.group_id
        if not placing:
            for q in iv.region:
                if owner.get(q) == gid:
                    del owner[q]
            continue
        for q in iv.region:
            if q in owner:
                problems.append(f"groups {owner[q]} and {gid} share qubit {q}")
            for w in neighbors[q]:
                other = owner.get(w)
                if other is not None and other != gid:
                    problems.append(f"groups {other} and {gid} touch across edge ({q}, {w})")
        for q in iv.region:
            owner.setdefault(q, gid)
    return problems
