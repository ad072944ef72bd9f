"""Experiment runner: flags, exit codes, output files, determinism."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from spdc.cli import RunConfig, main, run, sweep, synth
from spdc.datamat import load_libsvm
from spdc.errors import ConfigError
from spdc.trace import CSV_HEADER


def cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bench.svm"
    synth(n=120, d=25, sparsity=0.3, dual_skew=0.6, seed=5, out_path=str(path))
    return str(path)


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """n=20, d=5: small enough that batch and block flags overrun it."""
    path = tmp_path_factory.mktemp("data") / "small.svm"
    synth(n=20, d=5, sparsity=0.6, dual_skew=0.0, seed=1, out_path=str(path))
    return str(path)


class TestSynth:
    def test_reproducible_checksum(self, tmp_path):
        h = []
        for name in ("a.svm", "b.svm"):
            out = tmp_path / name
            synth(n=50, d=12, sparsity=0.4, dual_skew=0.5, seed=9, out_path=str(out))
            h.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert h[0] == h[1]

    def test_loader_round_trips_output(self, tmp_path):
        out = tmp_path / "c.svm"
        synth(n=40, d=10, sparsity=0.5, dual_skew=0.3, seed=2, out_path=str(out))
        ds = load_libsvm(out)
        assert ds.n == 40 and ds.d == 10
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_zero_skew_balanced_margins(self, tmp_path):
        out = tmp_path / "d.svm"
        synth(n=60, d=8, sparsity=0.6, dual_skew=0.0, seed=3, out_path=str(out))
        ds = load_libsvm(out)
        assert ds.n == 60  # all margins land inside the band; nothing degenerate

    def test_cli_subcommand(self, tmp_path, capsys):
        out = tmp_path / "e.svm"
        rc = cli("synth", "--n", "30", "--d", "6", "--out", str(out))
        assert rc == 0
        assert out.exists()


class TestRun:
    def test_end_to_end_ovsspdc(self, data_file, tmp_path):
        trace = tmp_path / "t.csv"
        summary = tmp_path / "s.json"
        cfg = RunConfig(data=data_file, normalize=True, algo="ovsspdc",
                        lambda_scale=1e-2, gap_tol=1e-8, max_epochs=2000, seed=1,
                        trace=str(trace), summary=str(summary))
        assert run(cfg) == 0
        s = json.loads(summary.read_text())
        assert s["converged"] is True
        assert s["final_gap"] <= 1e-8
        lines = trace.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) > 2

    def test_trace_gap_nonnegative_and_consistent(self, data_file, tmp_path):
        trace = tmp_path / "t2.csv"
        cfg = RunConfig(data=data_file, normalize=True, algo="adaspdc",
                        lambda_scale=1e-2, gap_tol=1e-7, max_epochs=1500, seed=2,
                        trace=str(trace))
        assert run(cfg) == 0
        rows = [ln.split(",") for ln in trace.read_text().splitlines()[1:]]
        epochs = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(epochs, epochs[1:]))
        for r in rows:
            primal, dual, gap = float(r[3]), float(r[4]), float(r[5])
            assert gap >= 0.0
            assert abs(gap - (primal - dual)) <= 1e-12

    def test_summary_conditions_pass_for_auto_schedules(self, data_file, tmp_path):
        for algo in ("adaspdc", "spdc"):
            summary = tmp_path / f"cond-{algo}.json"
            cfg = RunConfig(data=data_file, normalize=True, algo=algo,
                            lambda_scale=1e-2, gap_tol=1e-6, max_epochs=800,
                            seed=3, summary=str(summary))
            assert run(cfg) == 0
            s = json.loads(summary.read_text())
            assert s["conditions"]["lemma3"]["ok"] is True
            assert s["conditions"]["lemma14"]["ok"] is True

    def test_dspdc_summary_reports_thm20(self, data_file, tmp_path):
        summary = tmp_path / "dspdc.json"
        cfg = RunConfig(data=data_file, normalize=True, algo="dspdc", dspdc_b=25,
                        lambda_scale=1e-2, gap_tol=1e-6, max_epochs=1500, seed=4,
                        summary=str(summary))
        assert run(cfg) == 0
        s = json.loads(summary.read_text())
        assert s["conditions"]["thm20"]["ok"] is True

    def test_invalid_combination_exits_2(self, data_file):
        rc = cli("run", "--data", data_file, "--algo", "spdc", "--schedule", "thm5")
        assert rc == 2
        rc = cli("run", "--data", data_file, "--algo", "nonsense")
        assert rc == 2

    def test_missing_dataset_exits_2(self):
        assert cli("run", "--data", "/nonexistent/file.svm") == 2

    def test_ovsspdc_batch_cap_exits_3(self, data_file):
        rc = cli("run", "--data", data_file, "--algo", "ovsspdc", "-a", "64",
                 "--max-epochs", "5")
        assert rc == 3

    def test_cor17_condition_violation_exits_3(self, tmp_path):
        bad = tmp_path / "spread.svm"
        lines = ["+1 1:0.1"] * 20 + ["-1 2:50.0"]
        bad.write_text("\n".join(lines) + "\n")
        rc = cli("run", "--data", str(bad), "--prob", "cor17", "--algo", "adaspdc",
                 "--lambda-scale", "1e-5", "--max-epochs", "2")
        assert rc == 3

    @pytest.mark.parametrize("flags,fragment", [
        (["-a", "50"], "a=50 exceeds the instance count n=20"),
        (["--algo", "dspdc", "--dspdc-b", "9"], "dspdc-b=9 must lie in [1, d=5]"),
        (["--gamma", "0"], "gamma must be positive"),
        (["--algo", "dspdc", "--dspdc-b", "2", "--dspdc-q", "0.5,x"], "dspdc-q"),
    ])
    def test_out_of_range_flags_exit_2(self, small_file, capsys, flags, fragment):
        assert cli("run", "--data", small_file, *flags) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err

    def test_non_finite_data_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.svm"
        bad.write_text("+1 1:1\n-1 2:nan\n")
        assert cli("run", "--data", str(bad)) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    def test_summary_reports_counters(self, data_file, tmp_path):
        summary = tmp_path / "counters.json"
        cfg = RunConfig(data=data_file, normalize=True, algo="ovsspdc-plus",
                        lambda_scale=1e-2, gap_tol=1e-6, max_epochs=200, seed=1,
                        summary=str(summary))
        assert run(cfg) == 0
        counters = json.loads(summary.read_text())["counters"]
        assert set(counters) == {"iterations", "duals_drawn", "accepts", "inner_rounds",
                                 "primal_writes", "optimal_exit"}
        assert counters["duals_drawn"] > 0 and counters["inner_rounds"] > 0

    def test_numerical_failure_exits_4(self, data_file, monkeypatch):
        import spdc.cli as cli_mod
        from spdc.errors import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("synthetic blow-up")

        monkeypatch.setattr(cli_mod, "_dispatch", boom)
        assert cli("run", "--data", data_file) == 4


class TestDeterminism:
    def test_byte_identical_traces_without_timing(self, data_file, tmp_path):
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            trace = tmp_path / name
            rc = cli("run", "--data", data_file, "--normalize", "--algo", "ovsspdc",
                     "--lambda-scale", "1e-2", "--gap-tol", "1e-7",
                     "--max-epochs", "1000", "--seed", "11",
                     "--trace", str(trace), "--no-timing")
            assert rc == 0
            blobs.append(trace.read_bytes())
        assert blobs[0] == blobs[1]

    def test_timed_traces_identical_apart_from_seconds(self, data_file, tmp_path):
        tables = []
        for name in ("w1.csv", "w2.csv"):
            trace = tmp_path / name
            rc = cli("run", "--data", data_file, "--normalize", "--algo", "adaspdc",
                     "--lambda-scale", "1e-2", "--gap-tol", "1e-6",
                     "--max-epochs", "800", "--seed", "12", "--trace", str(trace))
            assert rc == 0
            rows = [ln.split(",") for ln in trace.read_text().splitlines()]
            tables.append([r[:2] + r[3:] for r in rows])  # drop the seconds column
        assert tables[0] == tables[1]


class TestSweep:
    def test_two_by_two_grid(self, data_file, tmp_path):
        out = tmp_path / "table.csv"
        configs = [
            RunConfig(data=data_file, normalize=True, algo=algo, lambda_scale=r,
                      gap_tol=1e-6, max_epochs=1200, seed=0)
            for algo in ("adaspdc", "ovsspdc")
            for r in (1e-1, 1e-2)
        ]
        rows = sweep(configs, str(out))
        assert len(rows) == 4
        assert out.read_text().count("\n") == 5
        assert all(r["status"] == "converged" for r in rows)

    def test_child_failure_does_not_abort(self, data_file):
        good = RunConfig(data=data_file, normalize=True, algo="adaspdc",
                         lambda_scale=1e-1, gap_tol=1e-5, max_epochs=600)
        bad = RunConfig(data=data_file, algo="ovsspdc", a=99, max_epochs=5)
        rows = sweep([bad, good])
        assert rows[0]["status"].startswith("error")
        assert rows[1]["status"] == "converged"

    def test_out_of_range_configs_become_error_rows(self, small_file):
        rows = sweep([RunConfig(data=small_file, a=50),
                      RunConfig(data=small_file, algo="dspdc", dspdc_b=9),
                      RunConfig(data=small_file, gamma=0.0)])
        assert [r["status"].split(":")[0] for r in rows] == ["error"] * 3

    def test_mixed_datasets_rejected(self, data_file):
        with pytest.raises(ConfigError):
            sweep([RunConfig(data=data_file), RunConfig(data="other.svm")])

    def test_batch_scaling_columns(self, data_file, tmp_path):
        from spdc.datamat import lambda_max

        # sweep in the lam * gamma * n = 1 regime across batch sizes
        ds = load_libsvm(data_file, normalize=True)
        scale = 1.0 / (ds.n * lambda_max(ds))
        out = tmp_path / "batches.csv"
        configs = [
            RunConfig(data=data_file, normalize=True, algo="adaspdc", a=a,
                      lambda_scale=scale, gap_tol=1e-6, max_epochs=1500)
            for a in (1, 4)
        ]
        rows = sweep(configs, str(out))
        assert [r["a"] for r in rows] == [1, 4]
        assert all(r["status"] == "converged" for r in rows)
        header = out.read_text().splitlines()[0]
        assert header == "algo,prob,lambda_scale,a,seed,status,epochs_to_tol,final_gap,iterations"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spdc.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spdc-bench" in proc.stdout


def test_bundled_dataset_end_to_end(tmp_path):
    from spdc.datamat import example_path

    summary = tmp_path / "tiny.json"
    rc = cli("run", "--data", example_path(), "--normalize", "--algo", "ovsspdc",
             "--lambda-scale", "1e-2", "--gap-tol", "1e-8", "--max-epochs", "3000",
             "--summary", str(summary))
    assert rc == 0
    s = json.loads(summary.read_text())
    assert s["converged"] and s["final_gap"] <= 1e-8
