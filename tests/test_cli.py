"""Command-line interface tests: subcommands, files, exit codes, reproducibility."""

import csv
import dataclasses
import json
import math

import pytest

from qpusched import cli
from qpusched.chip import load_chip
from qpusched.cli import CSV_COLUMNS, main
from qpusched.workload import load_workload


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QSRA_SEED", raising=False)
    return tmp_path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def write_minimal_inputs(tmp_path):
    assert main(["gen-chip", "4", "4", "--out", "chip.json"]) == 0
    (tmp_path / "one.jsonl").write_text(
        '{"id": 0, "n": 4, "shots": 100, "t_sub": 0.0, "t_e_shot": 0.01}\n'
    )


def write_oversized_inputs(tmp_path):
    """A 3x3 chip and a workload file with one 12-qubit job."""
    assert main(["gen-chip", "3", "3", "--out", "chip.json"]) == 0
    (tmp_path / "big.jsonl").write_text(
        '{"id": 0, "n": 12, "shots": 100, "t_sub": 0.0, "t_e_shot": 0.01}\n'
    )


class TestGenChip:
    def test_grid_file(self, workdir):
        assert main(["gen-chip", "5", "5", "--out", "chip.json"]) == 0
        chip = load_chip((workdir / "chip.json").read_bytes())
        assert chip.n_qubits == 25
        assert len(chip.graph.edges) == 40

    def test_invalid_dimensions(self, workdir, capsys):
        assert main(["gen-chip", "0", "5", "--out", "chip.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestGenWorkload:
    def test_deterministic(self, workdir):
        assert main(["gen-workload", "--lambda", "20", "--horizon", "5",
                     "--seed", "7", "--out", "a.jsonl"]) == 0
        assert main(["gen-workload", "--lambda", "20", "--horizon", "5",
                     "--seed", "7", "--out", "b.jsonl"]) == 0
        assert (workdir / "a.jsonl").read_text() == (workdir / "b.jsonl").read_text()

    def test_zero_rate_rejected(self, workdir, capsys):
        assert main(["gen-workload", "--lambda", "0", "--horizon", "5",
                     "--out", "x.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_chip_derived_bound(self, workdir):
        main(["gen-chip", "8", "8", "--out", "chip.json"])
        assert main(["gen-workload", "--lambda", "10", "--horizon", "5",
                     "--seed", "1", "--chip", "chip.json", "--out", "w.jsonl"]) == 0
        wl = load_workload((workdir / "w.jsonl").read_bytes())
        assert max(j.n for j in wl.jobs) <= 16


class TestRun:
    def test_minimal_single_job(self, workdir):
        write_minimal_inputs(workdir)
        rc = main(["run", "--chip", "chip.json", "--workload", "one.jsonl",
                   "--policy", "fcfs", "--out", "out"])
        assert rc == 0
        summary = json.loads((workdir / "out" / "summary.json").read_text())
        assert summary["mean"]["mean_wt"] == pytest.approx(1.0)
        rows = read_rows(workdir / "out" / "results.csv")
        assert len(rows) == 1
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert (workdir / "out" / "trace.jsonl").exists()

    def test_missing_chip_file_names_path(self, workdir, capsys):
        rc = main(["run", "--chip", "nope.json", "--policy", "fcfs"])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_oversized_workload_file_is_a_config_error(self, workdir, capsys):
        write_oversized_inputs(workdir)
        rc = main(["run", "--chip", "chip.json", "--workload", "big.jsonl",
                   "--policy", "fcfs", "--out", "out"])
        assert rc == 2
        assert "job 0 demands 12 qubits; the chip has 9" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_no_policy(self, workdir, capsys):
        write_minimal_inputs(workdir)
        rc = main(["run", "--chip", "chip.json", "--workload", "one.jsonl"])
        assert rc == 2

    def test_config_file_with_overrides(self, workdir):
        config = {
            "chip": {"grid": {"rows": 4, "cols": 4}},
            "workload": {"lambda": 3.0, "horizon": 4.0},
            "policy": {"name": "fcfs"},
            "seeds": [1, 2],
            "output": {"dir": "outc"},
        }
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert main(["run", "--config", "cfg.json", "--policy", "qhrrf"]) == 0
        rows = read_rows(workdir / "outc" / "results.csv")
        assert len(rows) == 2
        assert all(r["policy"] == "qhrrf" for r in rows)
        assert [r["seed"] for r in rows] == ["1", "2"]

    def test_rows_reproducible(self, workdir):
        config = {
            "chip": {"grid": {"rows": 4, "cols": 4}},
            "workload": {"lambda": 3.0, "horizon": 4.0},
            "policy": {"name": "qsjf"},
        }
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert main(["run", "--config", "cfg.json", "--seed", "5", "--out", "r1"]) == 0
        assert main(["run", "--config", "cfg.json", "--seed", "5", "--out", "r2"]) == 0
        assert read_rows(workdir / "r1" / "results.csv") == read_rows(workdir / "r2" / "results.csv")

    def test_env_seed_default(self, workdir, monkeypatch):
        write_minimal_inputs(workdir)
        monkeypatch.setenv("QSRA_SEED", "17")
        assert main(["run", "--chip", "chip.json", "--workload", "one.jsonl",
                     "--policy", "fcfs", "--out", "oenv"]) == 0
        rows = read_rows(workdir / "oenv" / "results.csv")
        assert rows[0]["seed"] == "17"

    def test_unknown_coherence_mode_rejected(self, workdir, capsys):
        config = {
            "chip": {"grid": {"rows": 4, "cols": 4}},
            "workload": {"lambda": 3.0, "horizon": 2.0},
            "policy": {"name": "fcfs"},
            "t_q_mode": "bogus",
        }
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert main(["run", "--config", "cfg.json", "--out", "o"]) == 2
        assert "unknown coherence mode" in capsys.readouterr().err
        assert main(["validate", "--config", "cfg.json"]) == 2

    def test_empty_workload_is_a_config_error(self, workdir, capsys):
        write_minimal_inputs(workdir)
        (workdir / "empty.jsonl").write_text("")
        assert main(["run", "--chip", "chip.json", "--workload", "empty.jsonl",
                     "--policy", "fcfs", "--out", "o"]) == 2
        assert "error: empty trace" in capsys.readouterr().err

    def test_non_finite_metric_is_not_written(self, workdir, monkeypatch, capsys):
        write_minimal_inputs(workdir)
        real_run = cli.run_simulation

        def nan_run(config):
            trace, report = real_run(config)
            return trace, dataclasses.replace(report, mean_pst=math.nan)

        monkeypatch.setattr(cli, "run_simulation", nan_run)
        assert main(["run", "--chip", "chip.json", "--workload", "one.jsonl",
                     "--policy", "fcfs", "--out", "o"]) == 1
        assert "simulation error" in capsys.readouterr().err
        for name in ("summary.json", "results.csv", "trace.jsonl"):
            assert not (workdir / "o" / name).exists()

    def test_bad_merge_alpha_flag_is_a_config_error(self, workdir, capsys):
        write_minimal_inputs(workdir)
        assert main(["run", "--chip", "chip.json", "--workload", "one.jsonl",
                     "--policy", "fcfs", "--merge-alpha", "0.5", "--out", "o"]) == 2
        assert "error: merge alpha" in capsys.readouterr().err
        assert not (workdir / "o").exists()

    def test_bad_merge_alpha_in_config_is_a_config_error(self, workdir, capsys):
        config = {
            "chip": {"grid": {"rows": 3, "cols": 3}},
            "workload": {"lambda": 3.0, "horizon": 2.0},
            "policy": {"name": "fcfs"},
            "merge": {"alpha": 0.5},
        }
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert main(["validate", "--config", "cfg.json"]) == 2
        assert main(["run", "--config", "cfg.json", "--out", "o"]) == 2
        assert "error: merge alpha" in capsys.readouterr().err
        assert not (workdir / "o").exists()

    def test_exclusive_and_merge_flags(self, workdir):
        config = {
            "chip": {"grid": {"rows": 4, "cols": 4}},
            "workload": {"lambda": 4.0, "horizon": 3.0},
            "policy": {"name": "fcfs"},
        }
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert main(["run", "--config", "cfg.json", "--seed", "1", "--out", "om",
                     "--no-merge", "--backfill"]) == 0
        assert main(["run", "--config", "cfg.json", "--seed", "1", "--out", "ox",
                     "--exclusive"]) == 0
        um = float(read_rows(workdir / "om" / "results.csv")[0]["utilization"])
        ux = float(read_rows(workdir / "ox" / "results.csv")[0]["utilization"])
        assert ux <= um + 1e-9


class TestSweep:
    def test_small_grid_rows_and_means(self, workdir):
        config = {
            "chip": {"grid": {"rows": 4, "cols": 4}},
            "workload": {"horizon": 3.0},
        }
        (workdir / "cfg.json").write_text(json.dumps(config))
        rc = main(["sweep", "--config", "cfg.json", "--policies", "fcfs",
                   "--lambdas", "5", "--seed", "1", "--seed", "2", "--out", "sw"])
        assert rc == 0
        rows = read_rows(workdir / "sw" / "results.csv")
        seed_rows = [r for r in rows if r["seed"] != "mean"]
        mean_rows = [r for r in rows if r["seed"] == "mean"]
        assert len(seed_rows) == 2
        assert len(mean_rows) == 1
        for col in ("throughput", "utilization", "mean_wt"):
            expected = sum(float(r[col]) for r in seed_rows) / 2
            assert float(mean_rows[0][col]) == pytest.approx(expected, rel=1e-12)

    def test_policy_lambda_seed_product(self, workdir):
        config = {
            "chip": {"grid": {"rows": 4, "cols": 4}},
            "workload": {"horizon": 2.0},
        }
        (workdir / "cfg.json").write_text(json.dumps(config))
        rc = main(["sweep", "--config", "cfg.json", "--policies", "fcfs,qsjf",
                   "--lambdas", "2,5", "--seed", "1", "--seed", "2",
                   "--out", "sw2", "--jobs", "2"])
        assert rc == 0
        rows = read_rows(workdir / "sw2" / "results.csv")
        seed_rows = [r for r in rows if r["seed"] != "mean"]
        assert len(seed_rows) == 2 * 2 * 2
        assert len([r for r in rows if r["seed"] == "mean"]) == 4

    def test_empty_policies_rejected(self, workdir, capsys):
        config = {"chip": {"grid": {"rows": 2, "cols": 2}},
                  "workload": {"horizon": 1.0}}
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert main(["sweep", "--config", "cfg.json", "--policies", "",
                     "--lambdas", "5"]) == 2

    def test_unknown_policy_rejected(self, workdir):
        config = {"chip": {"grid": {"rows": 2, "cols": 2}},
                  "workload": {"horizon": 1.0}}
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert main(["sweep", "--config", "cfg.json", "--policies", "lifo",
                     "--lambdas", "5"]) == 2


def sweep_config(workdir, **extra):
    config = {"chip": {"grid": {"rows": 3, "cols": 3}}, "workload": {"horizon": 2.0}, **extra}
    (workdir / "cfg.json").write_text(json.dumps(config))


class TestSweepErrors:
    def test_unknown_coherence_mode_writes_nothing(self, workdir, capsys):
        sweep_config(workdir, t_q_mode="bogus")
        assert main(["sweep", "--config", "cfg.json", "--policies", "fcfs",
                     "--lambdas", "5", "--out", "sw"]) == 2
        err = capsys.readouterr().err
        assert "unknown coherence mode" in err
        assert "cell failed" not in err
        assert not (workdir / "sw").exists()

    @pytest.mark.parametrize("lambdas", ["-1", "5,0", "inf"])
    def test_bad_lambda_writes_nothing(self, workdir, capsys, lambdas):
        sweep_config(workdir)
        assert main(["sweep", "--config", "cfg.json", "--policies", "fcfs",
                     "--lambdas", lambdas, "--out", "sw"]) == 2
        assert "arrival rate" in capsys.readouterr().err
        assert not (workdir / "sw").exists()

    def test_bad_merge_alpha_writes_nothing(self, workdir):
        sweep_config(workdir, merge={"alpha": 0.5})
        assert main(["sweep", "--config", "cfg.json", "--policies", "fcfs",
                     "--lambdas", "5", "--out", "sw"]) == 2
        assert not (workdir / "sw").exists()

    def test_bad_policy_parameter_writes_nothing(self, workdir):
        sweep_config(workdir, policy={"rr_quantum_shots": 0})
        assert main(["sweep", "--config", "cfg.json", "--policies", "fcfs,rr",
                     "--lambdas", "5", "--out", "sw"]) == 2
        assert not (workdir / "sw").exists()

    def test_simulation_failure_fails_only_its_cell(self, workdir, monkeypatch, capsys):
        sweep_config(workdir)
        real_run = cli.run_simulation

        def failing_run(config):
            if config.policy.name == "sjf":
                raise cli.SimulationError("boom")
            return real_run(config)

        monkeypatch.setattr(cli, "run_simulation", failing_run)
        assert main(["sweep", "--config", "cfg.json", "--policies", "fcfs,sjf",
                     "--lambdas", "5", "--out", "sw"]) == 1
        err = capsys.readouterr().err
        assert "cell failed: sjf lambda=5.0 seed=0: SimulationError: boom" in err
        rows = read_rows(workdir / "sw" / "results.csv")
        assert [(r["policy"], r["seed"]) for r in rows] == [("fcfs", "0"), ("fcfs", "mean")]

    def test_non_finite_metric_fails_its_cell(self, workdir, monkeypatch, capsys):
        sweep_config(workdir)
        real_run = cli.run_simulation

        def nan_run(config):
            trace, report = real_run(config)
            if config.policy.name == "sjf":
                report = dataclasses.replace(report, mean_pst=math.nan)
            return trace, report

        monkeypatch.setattr(cli, "run_simulation", nan_run)
        assert main(["sweep", "--config", "cfg.json", "--policies", "fcfs,sjf",
                     "--lambdas", "5", "--out", "sw"]) == 1
        assert "cell failed: sjf lambda=5.0 seed=0: non-finite pst" in capsys.readouterr().err
        text = (workdir / "sw" / "results.csv").read_text()
        assert "nan" not in text.lower()
        assert [r["policy"] for r in read_rows(workdir / "sw" / "results.csv")] == ["fcfs", "fcfs"]


class TestQubitDistBeyondChip:
    """A qubit_dist reaching past the chip is a config error before anything runs."""

    @pytest.fixture(params=[
        {"kind": "int_uniform", "low": 2, "high": 20},
        {"kind": "choice", "values": [2, 12]},
    ], ids=["int_uniform", "choice"])
    def config(self, workdir, request):
        sweep_config(workdir, policy={"name": "fcfs"},
                     workload={"lambda": 5.0, "horizon": 2.0, "qubit_dist": request.param})

    @pytest.mark.parametrize("argv", [
        ["validate", "--config", "cfg.json"],
        ["run", "--config", "cfg.json", "--out", "o"],
        ["sweep", "--config", "cfg.json", "--policies", "fcfs", "--lambdas", "5", "--out", "o"],
    ], ids=["validate", "run", "sweep"])
    def test_exits_2_and_writes_nothing(self, config, workdir, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "qubit_dist reaches" in err and "the chip has 9" in err
        assert "cell failed" not in err
        assert not (workdir / "o").exists()

    def test_support_up_to_the_chip_is_accepted(self, workdir):
        sweep_config(workdir, policy={"name": "fcfs"},
                     workload={"lambda": 5.0, "horizon": 2.0,
                               "qubit_dist": {"kind": "choice", "values": [2, 9]}})
        assert main(["validate", "--config", "cfg.json"]) == 0


class TestValidate:
    def test_good_files(self, workdir):
        write_minimal_inputs(workdir)
        assert main(["validate", "--chip", "chip.json", "--workload", "one.jsonl"]) == 0

    def test_bad_chip(self, workdir, capsys):
        (workdir / "bad.json").write_text('{"qubits": [], "edges": []}')
        assert main(["validate", "--chip", "bad.json"]) == 2

    @pytest.mark.parametrize("field, value", [("n", 2.7), ("shots", 100.9)])
    def test_non_integral_workload(self, workdir, capsys, field, value):
        doc = {"id": 0, "n": 4, "shots": 100, "t_sub": 0.0, "t_e_shot": 0.01, field: value}
        (workdir / "w.jsonl").write_text(json.dumps(doc) + "\n")
        assert main(["validate", "--workload", "w.jsonl"]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    def test_oversized_workload_file(self, workdir, capsys):
        write_oversized_inputs(workdir)
        assert main(["validate", "--workload", "big.jsonl"]) == 0  # no chip to compare with
        capsys.readouterr()
        assert main(["validate", "--chip", "chip.json", "--workload", "big.jsonl"]) == 2
        captured = capsys.readouterr()
        assert "workload OK" not in captured.out
        assert "job 0 demands 12 qubits; the chip has 9" in captured.err

    def test_nothing_given(self, workdir):
        assert main(["validate"]) == 2
