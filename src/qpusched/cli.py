"""Command-line front end: single runs, policy x arrival-rate sweeps, and
input generation.

Subcommands::

    run           simulate one config (per seed) and write summary.json,
                  results.csv, trace.jsonl
    sweep         run a policy x lambda x seed grid; one CSV row per cell
                  plus per-cell seed-mean rows (seed column = "mean")
    gen-chip      write a grid chip JSON file
    gen-workload  write a Poisson workload JSONL file
    validate      check a config / chip / workload file and exit

Configs are a single JSON document with sections chip / workload /
policy / merge / output; command-line flags override file values. The
environment variable QSRA_SEED supplies the default seed when neither
flags nor the config name one.

Exit codes: 0 success, 1 simulation failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .allocator import AllocationError
from .chip import (
    Chip, ChipError, QubitSpec, check_coherence_mode, dump_chip, generate_grid, load_chip,
)
from .engine import MergeConfig, SimConfig, SimulationError, run as run_simulation
from .jsontypes import typed
from .scheduler import POLICY_NAMES, Policy
from .workload import (
    Distribution,
    Workload,
    WorkloadError,
    WorkloadSpec,
    default_spec,
    dump_workload,
    generate_poisson_workload,
    load_workload,
)

DEFAULT_LAMBDAS = (5.0, 20.0, 50.0, 100.0, 500.0)

CSV_COLUMNS = (
    "policy", "lambda", "seed", "throughput", "utilization",
    "mean_wt", "p95_wt", "pst", "mean_ratio", "makespan",
)
METRIC_COLUMNS = CSV_COLUMNS[3:]


class ConfigError(ValueError):
    """Unusable run configuration."""


def _default_seed() -> int:
    raw = os.environ.get("QSRA_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"QSRA_SEED must be an integer, got {raw!r}") from exc


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return _typed(doc, dict, f"config {path}")


_REQUIRED = object()


def _field(section: dict, key: str, kind: type, default=_REQUIRED):
    """``section[key]`` checked by ``_typed``, or ``default`` when absent or null."""
    value = section.get(key)
    if value is None and default is _REQUIRED:
        raise ConfigError(f"missing key {key!r}")
    return default if value is None else _typed(value, kind, key)


def _typed(value, kind: type, name: str):
    """``value`` as a JSON ``kind`` under ``jsontypes.typed``, else ConfigError."""
    try:
        return typed(value, kind, name)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _build_chip(section: dict) -> Chip:
    if "path" in section:
        path = Path(_field(section, "path", str))
        if not path.exists():
            raise ConfigError(f"chip file not found: {path}")
        return load_chip(path.read_bytes())
    if "grid" in section:
        g = _field(section, "grid", dict)
        template = QubitSpec(
            id=0,
            t2_us=_field(g, "t2_us", float, 100.0),
            readout_error=_field(g, "readout_error", float, 0.01),
            t1_us=_field(g, "t1_us", float, None),
        )
        return generate_grid(
            _field(g, "rows", int), _field(g, "cols", int),
            spec_template=template,
            noise_seed=_field(g, "noise_seed", int, None),
            name=_field(g, "name", str, None),
        )
    raise ConfigError("chip section needs either 'path' or 'grid'")


def _build_workload(section: dict, chip: Chip, seed: int, lam_override: float | None) -> tuple[Workload, float | None]:
    """Returns the workload and the arrival rate it was drawn with (None for files)."""
    if "path" in section and lam_override is None:
        path = Path(_field(section, "path", str))
        if not path.exists():
            raise ConfigError(f"workload file not found: {path}")
        workload = load_workload(path.read_bytes())
        _check_fits(workload, chip)
        return workload, None
    lam = lam_override if lam_override is not None else _field(section, "lambda", float, None)
    if lam is None:
        raise ConfigError("workload section needs 'path' or 'lambda' (+ 'horizon')")
    return generate_poisson_workload(_workload_spec(section, chip, lam, seed)), lam


def _check_fits(workload: Workload, chip: Chip) -> None:
    """Reject a workload with a job larger than the chip."""
    big = next((j for j in workload.jobs if j.n > chip.n_qubits), None)
    if big is not None:
        raise ConfigError(f"job {big.id} demands {big.n} qubits; the chip has {chip.n_qubits}")


def _workload_spec(section: dict, chip: Chip, lam: float, seed: int) -> WorkloadSpec:
    horizon = _field(section, "horizon", float, 30.0)
    base = default_spec(chip.n_qubits, lam, horizon, seed)
    qubit_dist = Distribution.from_dict(section["qubit_dist"]) if "qubit_dist" in section else base.qubit_dist
    if qubit_dist.support_max > chip.n_qubits:
        raise ConfigError(f"qubit_dist reaches {qubit_dist.support_max} qubits; the chip has {chip.n_qubits}")
    return WorkloadSpec(
        arrival_rate=lam,
        horizon=horizon,
        qubit_dist=qubit_dist,
        shots_dist=Distribution.from_dict(section["shots_dist"]) if "shots_dist" in section else base.shots_dist,
        t_e_dist=Distribution.from_dict(section["t_e_dist"]) if "t_e_dist" in section else base.t_e_dist,
        seed=seed,
    )


def _build_policy(section: dict, name_override: str | None) -> Policy:
    name = name_override or _field(section, "name", str, None)
    if not name:
        raise ConfigError("no policy given; use --policy or the config's policy section")
    # Policy checks its counts and holds their defaults
    counts = {k: section[k] for k in ("rr_quantum_shots", "mfq_levels", "mfq_base_quantum_shots")
              if section.get(k) is not None}
    return Policy(name=name, mfq_aging_s=_field(section, "mfq_aging_s", float, 10.0), **counts)


def _build_merge(section: dict, ns) -> MergeConfig:
    alpha = getattr(ns, "merge_alpha", None)
    return MergeConfig(
        enabled=_field(section, "enabled", bool, True) and not getattr(ns, "no_merge", False),
        alpha=_field(section, "alpha", float, 1.5) if alpha is None else alpha,
        backfill=_field(section, "backfill", bool, False) or getattr(ns, "backfill", False),
        by_total_time=_field(section, "by_total_time", bool, False),
    )


def _resolve_seeds(ns, doc: dict) -> list[int]:
    if getattr(ns, "seed", None):
        return list(ns.seed)
    return [_typed(s, int, "seeds") for s in _field(doc, "seeds", list, [])] or [_default_seed()]


def _cell_row(policy_name: str, lam: float | None, seed: int, report) -> dict:
    return {
        "policy": policy_name,
        "lambda": "" if lam is None else lam,
        "seed": seed,
        "throughput": report.throughput,
        "utilization": report.utilization,
        "mean_wt": report.mean_wt,
        "p95_wt": report.p95_wt,
        "pst": report.mean_pst,
        "mean_ratio": report.mean_region_ratio,
        "makespan": report.makespan,
    }


@dataclass(frozen=True)
class _Cells:
    """A config resolved once; its simulations differ only in policy,
    arrival rate and seed."""

    chip: Chip
    workload: dict
    merge: MergeConfig
    exclusive: bool
    t_q_mode: str

    def simulate(self, policy: Policy, lam: float | None, seed: int):
        workload, lam_used = _build_workload(self.workload, self.chip, seed, lam)
        config = SimConfig(
            chip=self.chip,
            workload=workload,
            policy=policy,
            merge=self.merge,
            exclusive=self.exclusive,
            seed=seed,
            t_q_mode=self.t_q_mode,
        )
        trace, report = run_simulation(config)
        return trace, report, lam_used


def _resolve(doc: dict, ns) -> _Cells:
    """Build the chip, merge rule and coherence mode, so that a bad config
    fails before anything is simulated. Flags absent from ``ns`` keep the
    config's values."""
    t_q_mode = _field(doc, "t_q_mode", str, "t2")
    check_coherence_mode(t_q_mode)
    return _Cells(
        chip=_build_chip(_field(doc, "chip", dict, {})),
        workload=dict(_field(doc, "workload", dict, {})),
        merge=_build_merge(_field(doc, "merge", dict, {}), ns),
        exclusive=_field(doc, "exclusive", bool, False) or getattr(ns, "exclusive", False),
        t_q_mode=t_q_mode,
    )


def _write_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _mean_rows(rows: list[dict]) -> list[dict]:
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        cells.setdefault((row["policy"], row["lambda"]), []).append(row)
    means = []
    for (policy, lam), cell_rows in sorted(cells.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        mean = {"policy": policy, "lambda": lam, "seed": "mean"}
        for col in METRIC_COLUMNS:
            mean[col] = sum(r[col] for r in cell_rows) / len(cell_rows)
        means.append(mean)
    return means


def cmd_run(ns) -> int:
    doc = _load_config_file(ns.config)
    if ns.chip:
        doc["chip"] = {"path": ns.chip}
    if ns.workload:
        doc["workload"] = {"path": ns.workload}
    seeds = _resolve_seeds(ns, doc)
    out_dir = Path(ns.out or _field(_field(doc, "output", dict, {}), "dir", str, "out"))
    cells = _resolve(doc, ns)
    policy = _build_policy(_field(doc, "policy", dict, {}), ns.policy)
    rows = []
    per_seed = []
    first_trace = None
    lam_used = None
    for seed in seeds:
        trace, report, lam_used = cells.simulate(policy, ns.lam, seed)
        if first_trace is None:
            first_trace = trace
        rows.append(_cell_row(policy.name, lam_used, seed, report))
        per_seed.append({"seed": seed, **report.to_dict()})
    numeric_keys = [k for k, v in per_seed[0].items() if k != "seed" and isinstance(v, (int, float))]
    mean = {k: sum(p[k] for p in per_seed) / len(per_seed) for k in numeric_keys}
    summary = {
        "policy": policy.name,
        "lambda": lam_used,
        "seeds": seeds,
        "mean": mean,
        "per_seed": per_seed,
    }
    # per_seed holds every results.csv metric, so this covers all three files
    try:
        text = json.dumps(summary, indent=2, allow_nan=False)
        trace_text = first_trace.to_jsonl()
    except ValueError as exc:
        raise SimulationError(f"non-finite value in the outputs: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "results.csv", rows)
    (out_dir / "summary.json").write_text(text + "\n")
    (out_dir / "trace.jsonl").write_text(trace_text)
    print(f"wrote {out_dir}/summary.json, results.csv, trace.jsonl ({len(seeds)} seed(s))")
    return 0


def _sweep_cell(cells: _Cells, policy: Policy, lam: float, seed: int):
    """(row, None) for a simulated cell, (None, reason) for a failed one."""
    try:
        _, report, lam_used = cells.simulate(policy, lam, seed)
    except Exception as exc:  # cell failures must not kill the sweep
        return None, f"{type(exc).__name__}: {exc}"
    row = _cell_row(policy.name, lam_used, seed, report)
    bad = [col for col in METRIC_COLUMNS if not math.isfinite(row[col])]
    if bad:
        return None, f"non-finite {', '.join(bad)}"
    return row, None


_worker_cells: _Cells | None = None


def _init_worker(cells: _Cells) -> None:
    global _worker_cells
    _worker_cells = cells


def _worker_cell(args):
    return _sweep_cell(_worker_cells, *args)


def cmd_sweep(ns) -> int:
    if ns.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {ns.jobs}")
    doc = _load_config_file(ns.config)
    if ns.chip:
        doc["chip"] = {"path": ns.chip}
    names = [p.strip().lower() for p in ns.policies.split(",") if p.strip()]
    if not names:
        raise ConfigError("sweep needs at least one policy")
    lambdas = [float(x) for x in ns.lambdas.split(",") if x.strip()]
    if not lambdas:
        raise ConfigError("sweep needs at least one lambda")
    seeds = _resolve_seeds(ns, doc)
    out_dir = Path(ns.out or _field(_field(doc, "output", dict, {}), "dir", str, "out"))
    cells = _resolve(doc, ns)
    policies = [_build_policy(_field(doc, "policy", dict, {}), name) for name in names]
    for lam in lambdas:
        _workload_spec(cells.workload, cells.chip, lam, 0)  # rejects a bad rate up front
    grid = [(p, lam, seed) for p in policies for lam in lambdas for seed in seeds]
    if ns.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=ns.jobs, initializer=_init_worker, initargs=(cells,)
        ) as pool:
            outcomes = list(pool.map(_worker_cell, grid))
    else:
        outcomes = [_sweep_cell(cells, *cell) for cell in grid]
    rows = []
    failures = []
    for (p, lam, seed), (row, err) in zip(grid, outcomes):
        if err is not None:
            failures.append(f"{p.name} lambda={lam} seed={seed}: {err}")
        else:
            rows.append(row)
    rows_out = rows + _mean_rows(rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "results.csv", rows_out)
    print(f"wrote {out_dir}/results.csv ({len(rows)} cell rows, {len(rows_out) - len(rows)} mean rows)")
    for failure in failures:
        print(f"cell failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_gen_chip(ns) -> int:
    template = QubitSpec(
        id=0, t2_us=ns.t2, readout_error=ns.readout,
        t1_us=ns.t1 if ns.t1 is not None else None,
    )
    chip = generate_grid(ns.rows, ns.cols, spec_template=template,
                         noise_seed=ns.noise_seed, name=ns.name)
    Path(ns.out).write_text(json.dumps(dump_chip(chip), indent=2) + "\n")
    print(f"wrote {ns.out}: {chip.n_qubits} qubits, {len(chip.graph.edges)} edges")
    return 0


def cmd_gen_workload(ns) -> int:
    if ns.chip:
        chip = _build_chip({"path": ns.chip})
        n_hi = max(2, chip.n_qubits // 4)
    else:
        n_hi = ns.n_max
    seed = ns.seed[0] if ns.seed else _default_seed()
    spec = WorkloadSpec(
        arrival_rate=ns.lam,
        horizon=ns.horizon,
        qubit_dist=Distribution("int_uniform", low=ns.n_min, high=n_hi),
        shots_dist=Distribution("int_uniform", low=ns.shots_min, high=ns.shots_max),
        t_e_dist=Distribution("uniform", low=ns.te_min, high=ns.te_max),
        seed=seed,
    )
    workload = generate_poisson_workload(spec)
    Path(ns.out).write_text(dump_workload(workload))
    print(f"wrote {ns.out}: {len(workload)} jobs over {ns.horizon}s")
    return 0


def cmd_validate(ns) -> int:
    checked = 0
    chip = None
    if ns.config:
        doc = _load_config_file(ns.config)
        cells = _resolve(doc, argparse.Namespace())
        _build_workload(cells.workload, cells.chip, seed=0, lam_override=None)
        _build_policy(_field(doc, "policy", dict, {}), None)
        _resolve_seeds(argparse.Namespace(), doc)
        print(f"config OK: {ns.config}")
        checked += 1
    if ns.chip:
        chip = _build_chip({"path": ns.chip})
        print(f"chip OK: {ns.chip} ({chip.n_qubits} qubits, {len(chip.graph.edges)} edges)")
        checked += 1
    if ns.workload:
        path = Path(ns.workload)
        if not path.exists():
            raise ConfigError(f"workload file not found: {path}")
        workload = load_workload(path.read_bytes())
        if chip is not None:
            _check_fits(workload, chip)
        print(f"workload OK: {ns.workload} ({len(workload)} jobs)")
        checked += 1
    if not checked:
        raise ConfigError("nothing to validate; pass --config, --chip, or --workload")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpusched",
        description="Multi-program QPU scheduling and qubit-allocation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--chip", help="chip JSON file (overrides config)")
        p.add_argument("--seed", type=int, action="append",
                       help="simulation seed; repeat for several (default: QSRA_SEED or 0)")
        p.add_argument("--out", help="output directory (default from config, else 'out')")

    p_run = sub.add_parser("run", help="simulate one configuration")
    add_common(p_run)
    p_run.add_argument("--workload", help="workload JSONL file (overrides config)")
    p_run.add_argument("--policy", choices=POLICY_NAMES, help="scheduling policy")
    p_run.add_argument("--lambda", dest="lam", type=float, help="Poisson arrival rate (jobs/s)")
    p_run.add_argument("--merge-alpha", type=float, help="duration-similarity ratio for merging")
    p_run.add_argument("--no-merge", action="store_true", help="disable program merging")
    p_run.add_argument("--backfill", action="store_true", help="backfill past blocked queue heads")
    p_run.add_argument("--exclusive", action="store_true",
                       help="single-program mode: one group at a time on the full chip")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a policy x lambda x seed grid")
    add_common(p_sweep)
    p_sweep.add_argument("--policies", default=",".join(POLICY_NAMES),
                         help="comma-separated policy names (default: all)")
    p_sweep.add_argument("--lambdas", default=",".join(str(x) for x in DEFAULT_LAMBDAS),
                         help="comma-separated arrival rates")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_chip = sub.add_parser("gen-chip", help="write a grid chip file")
    p_chip.add_argument("rows", type=int)
    p_chip.add_argument("cols", type=int)
    p_chip.add_argument("--out", default="chip.json")
    p_chip.add_argument("--name")
    p_chip.add_argument("--t2", type=float, default=100.0, help="template T2 (us)")
    p_chip.add_argument("--t1", type=float, default=None, help="template T1 (us)")
    p_chip.add_argument("--readout", type=float, default=0.01, help="template readout error")
    p_chip.add_argument("--noise-seed", type=int, default=None,
                        help="jitter calibration around the template, deterministically")
    p_chip.set_defaults(func=cmd_gen_chip)

    p_wl = sub.add_parser("gen-workload", help="write a Poisson workload file")
    p_wl.add_argument("--lambda", dest="lam", type=float, required=True)
    p_wl.add_argument("--horizon", type=float, required=True)
    p_wl.add_argument("--seed", type=int, action="append")
    p_wl.add_argument("--out", default="workload.jsonl")
    p_wl.add_argument("--chip", help="derive the qubit-demand upper bound (N/4) from this chip")
    p_wl.add_argument("--n-min", type=int, default=2)
    p_wl.add_argument("--n-max", type=int, default=8)
    p_wl.add_argument("--shots-min", type=int, default=100)
    p_wl.add_argument("--shots-max", type=int, default=1000)
    p_wl.add_argument("--te-min", type=float, default=0.0005)
    p_wl.add_argument("--te-max", type=float, default=0.005)
    p_wl.set_defaults(func=cmd_gen_workload)

    p_val = sub.add_parser("validate", help="validate config / chip / workload files")
    p_val.add_argument("--config")
    p_val.add_argument("--chip")
    p_val.add_argument("--workload")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, ChipError, WorkloadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, AllocationError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
