"""The trace format before each fact was written once, kept as a test oracle.

``legacy_jsonl`` writes a ``Trace`` the way ``Trace.to_jsonl`` did before
requeue events were collapsed per group and job lines lost their dispatch
history: one ``requeue`` line per shed member, with ``stalled_group``,
``evicted_group`` (always the stalled group), ``requeued_job`` and
``whole_group`` (true only when a stalled singleton left the pass); job
lines with their ``dispatches``; the meta line without ``t_q_mode``,
``backfill`` and ``by_total_time``; and a ``growth`` line per allocation
whose steps it is given (``qpusched.growth_steps`` regrows them). Applied
to ``Trace.from_jsonl`` of a new trace, it must reproduce the digests
pinned before the format changed, which shows that the new format lost
nothing.
"""

import dataclasses
import itertools
import json

NEW_META_KEYS = ("t_q_mode", "backfill", "by_total_time")


def legacy_events(events):
    for ev in events:
        if ev["kind"] != "requeue":
            yield {"type": "event", **{k: v for k, v in ev.items() if k != "t_e_shot"}}
            continue
        gid, shed = ev["group"], ev["requeued"]
        for i, jid in enumerate(shed):
            yield {
                "type": "event",
                "time": ev["time"],
                "kind": "requeue",
                "stalled_group": gid,
                "evicted_group": gid,
                "requeued_job": jid,
                "whole_group": i == len(shed) - 1 and not ev["placed"],
            }


def legacy_growth(trace, steps):
    """The ``growth`` lines of the allocations that ``steps`` (group id ->
    growth steps) holds, in allocation order."""
    return (
        {
            "type": "growth",
            "group": rec.group_id,
            "root": rec.root,
            "steps": [dataclasses.asdict(s) for s in steps[rec.group_id]],
        }
        for rec in trace.allocations
        if rec.group_id in steps
    )


def legacy_jsonl(trace, steps) -> str:
    meta = {k: v for k, v in trace.meta.items() if k not in NEW_META_KEYS}
    growth = legacy_growth(trace, steps)
    jobs = (
        {
            "type": "job",
            "id": jid,
            "n": rec.job.n,
            "shots": rec.job.shots,
            "t_sub": rec.job.t_sub,
            "t_e_shot": rec.job.t_e_shot,
            "t_comp": rec.t_comp,
            "preemptions": rec.preemptions,
            "requeues": rec.requeues,
            "executed_shots": rec.executed_shots,
            "dispatches": [
                {
                    "start": d.start,
                    "end": d.end,
                    "group": d.group_id,
                    "t_e_group": d.t_e_group,
                    "shots_executed": d.shots_executed,
                    "region": list(d.region),
                }
                for d in rec.dispatches
            ],
        }
        for jid, rec in sorted(trace.jobs.items())
    )
    docs = itertools.chain(
        [{"type": "meta", **meta}], legacy_events(trace.events), growth, jobs)
    encode = json.JSONEncoder(allow_nan=False).encode
    return "\n".join(map(encode, docs)) + "\n"
