"""Per-layer metrics of a traced run, computed from its spans and traces.

Times are summed over a simulation's spans; when a simulation was traced
more than once, each time takes the median over its runs and counts come
from the first run (they repeat exactly). Per-simulation values are then
summed over the workload's simulations.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from spans import Span, self_times

EVENT_KINDS = ("arrival", "dispatch", "group_complete", "preempt", "requeue")


def run_profile(spans: list[Span], selfs: list[float], trace, text: str) -> dict[str, float]:
    """Raw per-layer totals of one traced simulation."""
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    queue_max = 0
    for s, self_s in zip(spans, selfs):
        dur[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
        for i, w in enumerate(s.work):
            work[s.name][i] += w
        if s.name == "scheduler.order":
            queue_max = max(queue_max, s.work[0])
    kinds = Counter(ev["kind"] for ev in trace.events)
    growths = calls["allocator.grow"]
    profile = {
        "scheduler.order_s": dur["scheduler.order"],
        "scheduler.order_calls": calls["scheduler.order"],
        "scheduler.keys": work["scheduler.order"][0],
        "scheduler.queue_len_max": queue_max,
        "scheduler.preempt_s": dur["scheduler.preempt"],
        "scheduler.preempt_calls": calls["scheduler.preempt"],
        "merger.prefix_s": dur["merger.prefix"],
        "merger.group_s": dur["merger.group"],
        "merger.groups": work["merger.group"][0],
        "merger.jobs_grouped": work["merger.group"][1],
        "allocator.allocate_s": dur["allocator.allocate"],
        "allocator.calls": calls["allocator.allocate"],
        "allocator.grow_s": dur["allocator.grow"],
        "allocator.growths": growths,
        "allocator.stalls": growths - work["allocator.grow"][0],
        "allocator.restarts": calls["allocator.resolve"],
        "allocator.placements": len(trace.allocations),
        "allocator.qubits_placed": sum(len(a.region) for a in trace.allocations),
        "allocator.self_s": own["allocator.allocate"],
        "engine.run_s": dur["engine.run"],
        "engine.self_s": own["engine.run"],
        "engine.events": len(trace.events),
        "metrics.report_s": dur["metrics.report"],
        "metrics.intervals": len(trace.intervals),
        "trace.jsonl_s": dur["trace.jsonl"],
        "trace.bytes": len(text.encode()),
    }
    for kind in EVENT_KINDS:
        profile[f"engine.events.{kind}"] = kinds[kind]
    return profile


def layer_metrics(spans: list[Span], runs: list[list[tuple]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over all simulations; ``runs[k]`` lists (sim id, trace, text)."""
    selfs = self_times(spans)
    by_sim: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_sim[s.sim].append(i)
    totals: Counter = Counter()
    alloc_ms: list[float] = []
    for sim_runs in runs:
        profiles = []
        for sim_id, trace, text in sim_runs:
            idx = by_sim[sim_id]
            profiles.append(run_profile([spans[i] for i in idx], [selfs[i] for i in idx], trace, text))
            alloc_ms += [(spans[i].end - spans[i].start) * 1e3 for i in idx
                         if spans[i].name == "allocator.allocate"]
        if not profiles:
            continue
        for key, value in profiles[0].items():
            if key.endswith("_s"):
                value = statistics.median(p[key] for p in profiles)
            if key == "scheduler.queue_len_max":
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
    t = totals
    metrics: dict[str, tuple[float, str]] = {}
    for key, value in t.items():
        if key in ("merger.jobs_grouped", "allocator.placements", "engine.events"):
            continue
        metrics[key] = (value, "s" if key.endswith("_s") else ("bytes" if key == "trace.bytes" else "count"))
    metrics["merger.jobs_per_group"] = (
        t["merger.jobs_grouped"] / t["merger.groups"] if t["merger.groups"] else 0.0, "jobs")
    metrics["allocator.useful_ratio"] = (
        t["allocator.placements"] / t["allocator.growths"] if t["allocator.growths"] else 0.0, "ratio")
    if alloc_ms:
        q = statistics.quantiles(alloc_ms, n=100, method="inclusive") if len(alloc_ms) > 1 else alloc_ms * 99
        metrics["allocator.call_ms_p50"] = (q[49], "ms")
        metrics["allocator.call_ms_p99"] = (q[98], "ms")
    metrics["engine.events_per_s"] = (
        t["engine.events"] / t["engine.run_s"] if t["engine.run_s"] else 0.0, "1/s")
    return metrics
