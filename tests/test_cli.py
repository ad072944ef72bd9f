"""Experiment runner: flags, exit codes, output files, determinism."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc import cli as cli_mod
from spdc.cli import RunConfig, main, run, sweep, synth
from spdc.datamat import example_path, load_libsvm
from spdc.errors import ConfigError, ScheduleError
from spdc.trace import CSV_HEADER

import reference_runs as ref


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

    @pytest.mark.parametrize("flag,value", [("--sparsity", "2"), ("--sparsity", "nan"),
                                            ("--sparsity", "inf"), ("--seed", "-1"),
                                            # too wide to hold, too wide to size
                                            ("--d", str(10**14)), ("--d", str(2**62))])
    def test_out_of_range_flags_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "f.svm"
        assert cli("synth", "--n", "5", "--d", "3", flag, value, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert flag.lstrip("-") in err and "Traceback" not in err
        assert not out.exists()


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

    def test_dspdc_checks_thm20_once(self, data_file, tmp_path, monkeypatch):
        calls = []
        real = cli_mod.core.verify_thm20

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod.core, "verify_thm20", counted)
        summary = tmp_path / "dspdc.json"
        assert cli("run", "--data", data_file, "--normalize", "--algo", "dspdc",
                   "--dspdc-b", "25", "--lambda-scale", "1e-2", "--max-epochs", "3",
                   "--summary", str(summary)) == 0
        assert len(calls) == 1
        # the run's plan and params are the checked ones, so a second check
        # after the run reports the same
        ok, failing, margins = real(*calls[0][0], **calls[0][1])
        assert json.loads(summary.read_text())["conditions"]["thm20"] == {
            "ok": ok, "failing": failing, "margins": margins}

    @pytest.mark.parametrize("a", ["1", "2"])
    def test_dspdc_writes_the_spdc_run(self, tmp_path, a):
        # at its one block dspdc is spdc checked by thm20: the same trace, and
        # a summary that differs only in the algorithm, block size and check
        trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
        d = load_libsvm(example_path()).d

        def outputs(algo, *flags):
            assert cli("run", "--data", example_path(), "--normalize", "--algo", algo,
                       "-a", a, "--lambda-scale", "1e-2", "--max-epochs", "5", "--seed", "3",
                       "--no-timing", "--trace", str(trace), "--summary", str(summary),
                       *flags) == 0
            return trace.read_bytes(), json.loads(summary.read_text())

        spdc_trace, spdc_summary = outputs("spdc")
        for b in (None, d):
            dspdc_trace, dspdc_summary = outputs("dspdc", *(() if b is None else
                                                           ("--dspdc-b", str(b))))
            assert dspdc_trace == spdc_trace, b
            assert dspdc_summary["conditions"].pop("thm20")["ok"] is True
            assert dspdc_summary["config"] == {**spdc_summary["config"], "algo": "dspdc",
                                               "dspdc_b": b}
            dspdc_summary["config"] = spdc_summary["config"]
            assert dspdc_summary == spdc_summary, b

    def test_dspdc_uneven_blocks_exit_with_a_contract_code(self, small_file, capsys):
        # d=5, b=3: floor(d/b) = 1, the one block of all five weights
        rc = cli("run", "--data", small_file, "--algo", "dspdc", "--dspdc-b", "3",
                 "--max-epochs", "1")
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_dspdc_failing_check_exits_3(self, data_file, monkeypatch, capsys):
        # a primal step past the rule's breaks Lemma 3, so thm20 refuses the
        # run at its clause 5 before any iteration
        real = cli_mod.core.schedule_vanilla

        def too_long(ds, spec, plan, scheme):
            params = real(ds, spec, plan, scheme)
            while cli_mod.core.verify_lemma3(params, ds)[0]:
                params = dataclasses.replace(params, tau=2.0 * params.tau)
            return params

        monkeypatch.setattr(cli_mod.core, "schedule_vanilla", too_long)
        rc = cli("run", "--data", data_file, "--normalize", "--algo", "dspdc",
                 "--lambda-scale", "1e-2", "--max-epochs", "1")
        assert rc == 3
        err = capsys.readouterr().err
        assert "dspdc parameter check failed at clause5_step_product" in err
        assert "Traceback" not in err

    @staticmethod
    def _dspdc_outputs(data, folder, *flags):
        """The untimed trace and the summary of a short dspdc run, less the
        summary's echo of the output paths and of the block size."""
        trace, summary = folder / "t.csv", folder / "s.json"
        assert cli("run", "--data", data, "--normalize", "--algo", "dspdc",
                   "--lambda-scale", "1e-2", "--max-epochs", "5", "--seed", "2",
                   "--no-timing", "--trace", str(trace), "--summary", str(summary),
                   *flags) == 0
        s = json.loads(summary.read_text())
        for key in ("trace", "summary", "dspdc_b"):
            del s["config"][key]
        return trace.read_bytes(), s

    def test_dspdc_block_sizes_above_half_d_run_the_one_block(self, data_file, tmp_path):
        # d=25: b=24 and a missing block size are the run of b=d
        runs = {}
        for flags in ((), ("--dspdc-b", "24"), ("--dspdc-b", "25")):
            folder = tmp_path / "-".join(("b",) + flags)
            folder.mkdir()
            runs[flags] = self._dspdc_outputs(data_file, folder, *flags)
        full = runs[("--dspdc-b", "25")]
        assert full[1]["conditions"]["thm20"]["ok"] is True
        assert runs[()] == full
        assert runs[("--dspdc-b", "24")] == full

    @pytest.mark.parametrize("b", ["12", "1"])
    def test_dspdc_blocks_of_half_d_or_less_exit_3(self, data_file, capsys, b):
        # d=25: b <= d/2 splits the weights into two or more blocks
        assert cli("run", "--data", data_file, "--algo", "dspdc", "--dspdc-b", b,
                   "--max-epochs", "1") == 3
        err = capsys.readouterr().err
        assert "dspdc parameter check failed at block count" in err
        assert "Traceback" not in err

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
        (["--gap-tol", "nan"], "gap-tol must be a number, got nan"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--max-epochs", "nan"], "max-epochs must be finite, got nan"),
        # a tolerance met at the first checkpoint, should the budget pass
        (["--max-epochs", "inf", "--gap-tol", "1e300"], "max-epochs must be finite, got inf"),
        (["--refresh-every", "5"], "unrecognized arguments: --refresh-every"),
        (["--gap-check-every", "5"], "unrecognized arguments: --gap-check-every"),
        (["--dspdc-q", "0.5,0.5"], "unrecognized arguments: --dspdc-q"),
        (["--max-epochs", "-1"], "max-epochs must be >= 0"),
        (["--algo", "dspdc", "--dspdc-b", "0"], "dspdc-b=0 must lie in [1, d=5]"),
        (["--algo", "adaspdc", "--dspdc-b", "-5"], "dspdc-b applies only to algo=dspdc"),
        # lambda_max is 0.44 on the normalized data: lam underflows to 0
        (["--normalize", "--lambda-scale", "5e-324"], "underflows to 0"),
    ])
    def test_out_of_range_flags_exit_2(self, small_file, capsys, flags, fragment):
        assert cli("run", "--data", small_file, *flags) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("algo", ["spdc", "dspdc", "ovsspdc", "ovs-exact",
                                      "ovsspdc-plus", "ovsspdc-plusplus"])
    @pytest.mark.parametrize("flags", [["--gamma", "1e-320"], ["--lambda-scale", "5e-324"]])
    def test_non_finite_steps_exit_3(self, capsys, algo, flags):
        # sigma (tiny gamma) or tau (tiny lambda) overflows to inf on the
        # bundled data; every rule refuses it before checkpoint 0, which
        # would warn of an overflow in the objective
        assert cli("run", "--data", example_path(), "--algo", algo, "--max-epochs", "1",
                   *flags) == 3
        err = capsys.readouterr().err
        assert "step sizes must be positive and finite" in err
        assert "Traceback" not in err

    def test_non_finite_data_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.svm"
        bad.write_text("+1 1:1\n-1 2:nan\n")
        assert cli("run", "--data", str(bad)) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    def test_non_utf8_data_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.svm"
        bad.write_bytes(b"+1 1:1\n# caf\xe9\n-1 2:3\n")
        assert cli("run", "--data", str(bad)) == 2
        err = capsys.readouterr().err
        assert "line 2: not valid UTF-8 text" in err and "Traceback" not in err

    def test_directory_as_data_exits_2(self, tmp_path, capsys):
        assert cli("run", "--data", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "cannot read dataset" in err and "Traceback" not in err

    def test_summary_reports_counters(self, data_file, tmp_path):
        summary = tmp_path / "counters.json"
        cfg = RunConfig(data=data_file, normalize=True, algo="ovsspdc-plus",
                        lambda_scale=1e-2, gap_tol=1e-6, max_epochs=200, seed=1,
                        summary=str(summary))
        assert run(cfg) == 0
        counters = json.loads(summary.read_text())["counters"]
        assert set(counters) == {"iterations", "duals_drawn", "accepts", "inner_rounds",
                                 "primal_writes", "optimal_exit", "active_sizes",
                                 "inner_lengths"}
        assert counters["duals_drawn"] > 0 and counters["inner_rounds"] > 0
        # one entry per inner round, each inner loop ceil(n'/a) iterations long
        sizes, lengths = counters["active_sizes"], counters["inner_lengths"]
        assert len(sizes) == len(lengths) == counters["inner_rounds"]
        assert lengths == [math.ceil(s / cfg.a) for s in sizes]
        assert all(isinstance(s, int) and 1 <= s for s in sizes)

    def test_numerical_failure_exits_4(self, data_file, monkeypatch):
        import spdc.cli as cli_mod
        from spdc.errors import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("synthetic blow-up")

        monkeypatch.setattr(cli_mod, "_dispatch", boom)
        assert cli("run", "--data", data_file) == 4


class TestOutputPaths:
    """An output path that cannot be written is a configuration error."""

    @staticmethod
    def _argv(kind, data, path):
        if kind == "synth":
            return ["synth", "--n", "5", "--d", "3", "--out", path]
        if kind == "sweep":
            return ["sweep", "--data", data, "--max-epochs", "1", "--out", path]
        return ["run", "--data", data, "--max-epochs", "1", kind, path]

    @pytest.mark.parametrize("kind", ["--trace", "--summary", "sweep", "synth"])
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_output_exits_2(self, small_file, tmp_path, capsys, kind, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
        assert main(self._argv(kind, small_file, str(path))) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {path}" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["--trace", "--summary", "sweep", "synth"])
    def test_writable_output(self, small_file, tmp_path, kind):
        path = tmp_path / "out.txt"
        assert main(self._argv(kind, small_file, str(path))) == 0
        assert path.read_text()


def _rule_outcome(validate, pick, n, **fields):
    """What validating a run and resolving its schedule gives: the outcome
    class, ``prob`` after validation and the rule picked (fixed-plan runs)."""
    cfg = RunConfig(data="x.svm", **fields)
    rule = None
    try:
        validate(cfg)
        if cfg.algo not in ref.REFERENCE_VARIANTS:
            rule = pick(cfg, SimpleNamespace(n=n))
    except (ConfigError, ScheduleError) as exc:
        return type(exc).__name__, cfg.prob, None
    return "accepted", cfg.prob, rule


def test_rule_checks_match_reference():
    """``RunConfig.validate`` and ``_pick_schedule``, read from the rule
    table, decide every combination as the checks they replaced did."""
    cases = list(itertools.product((*ref.REFERENCE_ALGOS, "bogus"),
                                   (*ref.REFERENCE_PROBS, "x"),
                                   (*ref.REFERENCE_SCHEDULES, "nope"),
                                   (1, 2, 5, 7), (None, 3), (1, 4, 30)))
    assert len(cases) == 6720
    for algo, prob, schedule, a, dspdc_b, n in cases:
        fields = dict(algo=algo, prob=prob, schedule=schedule, a=a, dspdc_b=dspdc_b)
        old = _rule_outcome(ref.reference_validate, ref.reference_pick_schedule, n, **fields)
        new = _rule_outcome(RunConfig.validate, cli_mod._pick_schedule, n, **fields)
        assert new == old, (fields, n)
        assert old[0] != "ScheduleError"  # the old raise is never reached


class TestRunFlags:
    def test_omitted_flags_keep_config_defaults(self):
        args = cli_mod._make_parser().parse_args(["run", "--data", "x.svm"])
        assert cli_mod._config_from_args(args) == RunConfig(data="x.svm")

    def test_every_flag_sets_its_field(self):
        argv = ["run", "--data", "x.svm", "--normalize", "--gamma", "0.5",
                "--gap-tol", "1e-4", "--max-epochs", "7", "--no-timing", "--seed", "3",
                "--algo", "dspdc", "--prob", "cor16", "--schedule", "cor18", "-a", "2",
                "--lambda-scale", "0.1", "--trace", "t.csv", "--summary", "s.json",
                "--dspdc-b", "4"]
        args = cli_mod._make_parser().parse_args(argv)
        assert cli_mod._config_from_args(args) == RunConfig(
            data="x.svm", normalize=True, gamma=0.5, gap_tol=1e-4, max_epochs=7.0,
            timing=False, seed=3, algo="dspdc", prob="cor16", schedule="cor18", a=2,
            lambda_scale=0.1, trace="t.csv", summary="s.json", dspdc_b=4)


def test_zero_lambda_max_is_a_config_error(tmp_path, capsys):
    # every feature is uncorrelated with the labels, so lambda_max is zero
    data = tmp_path / "flat.svm"
    data.write_text("+1 1:1\n-1 1:1\n")
    assert cli("run", "--data", str(data)) == 2
    assert "lambda_max is zero" in capsys.readouterr().err
    out = tmp_path / "table.csv"
    assert cli("sweep", "--data", str(data), "--out", str(out)) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "error: lambda_max is zero; the label/feature correlation vanishes"


@pytest.mark.parametrize("index,fragment", [
    # a 728 TiB weight vector, beyond a 47-bit address space: its allocation fails
    (10**14, "Unable to allocate"),
    # a weight vector numpy cannot even size: the loader rejects it
    (2**62, f"line 2: feature index {2**62} is too large"),
])
def test_too_wide_dataset_is_a_data_error(tmp_path, capsys, index, fragment):
    data = tmp_path / "wide.svm"
    data.write_text(f"+1 1:1\n-1 {index}:1\n")
    assert cli("run", "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and "Traceback" not in err
    out = tmp_path / "table.csv"
    assert cli("sweep", "--data", str(data), "--out", str(out)) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"].startswith("error: ") and fragment in row["status"]


@pytest.mark.parametrize("kind", list(cli_mod.FAILURES), ids=lambda k: k.__name__)
def test_failure_table_maps_run_and_sweep(data_file, tmp_path, monkeypatch, capsys, kind):
    """Every failure class exits with its table code and prefix from ``run``,
    and is an ``error:`` row of ``sweep``."""
    def boom(*args, **kwargs):
        raise kind("planted")

    monkeypatch.setattr(cli_mod, "_dispatch", boom)
    prefix, code = cli_mod.FAILURES[kind]
    assert cli("run", "--data", data_file) == code
    assert capsys.readouterr().err == f"{prefix}: planted\n"
    out = tmp_path / "table.csv"
    assert cli("sweep", "--data", data_file, "--out", str(out)) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "error: planted"


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
        # the row holds the validated prob: ovsspdc samples by violations
        assert [r["prob"] for r in rows] == ["uniform"] * 2 + ["ovs"] * 2
        assert out.read_text().splitlines()[3].startswith("ovsspdc,ovs,")

    def test_child_failure_does_not_abort(self, data_file):
        good = RunConfig(data=data_file, normalize=True, algo="adaspdc",
                         lambda_scale=1e-1, gap_tol=1e-5, max_epochs=600)
        bad = RunConfig(data=data_file, algo="ovsspdc", a=99, max_epochs=5)
        rows = sweep([bad, good])
        assert rows[0]["status"].startswith("error")
        assert rows[1]["status"] == "converged"

    def test_dspdc_row_runs_the_one_block(self, data_file, tmp_path):
        # sweep has no block-size flag: its dspdc row runs at b=d, as run does
        table, summary = tmp_path / "table.csv", tmp_path / "s.json"
        common = ["--data", data_file, "--normalize", "--max-epochs", "5", "--no-timing"]
        assert cli("sweep", *common, "--algos", "dspdc", "--lambda-scales", "1e-2",
                   "--out", str(table)) == 0
        assert cli("run", *common, "--algo", "dspdc", "--lambda-scale", "1e-2",
                   "--summary", str(summary)) == 0
        with open(table, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] in ("converged", "budget")
        assert float(row["final_gap"]) == json.loads(summary.read_text())["final_gap"]

    def test_out_of_range_configs_become_error_rows(self, small_file):
        rows = sweep([RunConfig(data=small_file, a=50),
                      RunConfig(data=small_file, algo="dspdc", dspdc_b=9),
                      RunConfig(data=small_file, gamma=0.0)])
        assert [r["status"].split(":")[0] for r in rows] == ["error"] * 3

    def test_dataset_parsed_once(self, small_file, monkeypatch):
        calls = []
        real = cli_mod.load_libsvm

        def counted(*args, **kwargs):
            calls.append(kwargs.get("normalize"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "load_libsvm", counted)
        configs = [RunConfig(data=small_file, max_epochs=3, seed=s) for s in range(3)]
        rows = sweep(configs)
        assert len(calls) == 1
        assert rows == [sweep([c])[0] for c in configs]  # one parse serves them all
        calls.clear()
        sweep(configs + [RunConfig(data=small_file, normalize=True, max_epochs=3)])
        assert sorted(calls) == [False, True]

    def test_load_error_reaches_every_row(self, tmp_path, monkeypatch):
        calls = []
        real = cli_mod.load_libsvm
        monkeypatch.setattr(cli_mod, "load_libsvm",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        bad = tmp_path / "bad.svm"
        bad.write_text("1 1:nan\n")
        for path in (str(bad), str(tmp_path / "missing.svm")):
            calls.clear()
            rows = sweep([RunConfig(data=path, seed=s) for s in range(3)])
            assert len(calls) == 1
            assert [r["status"].startswith("error") for r in rows] == [True] * 3

    def test_directory_as_data_gives_error_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        assert cli("sweep", "--data", str(tmp_path), "--seeds", "0,1", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"].split(":")[0] for r in rows] == ["error"] * 2
        assert "Is a directory" in rows[0]["status"]

    @pytest.mark.parametrize("flag,value", [("--batches", "x"), ("--lambda-scales", "abc"),
                                            ("--seeds", "1,x")])
    def test_malformed_list_flag_exits_2(self, small_file, tmp_path, capsys, flag, value):
        assert cli("sweep", "--data", small_file, flag, value,
                   "--out", str(tmp_path / "t.csv")) == 2
        err = capsys.readouterr().err
        assert f"{flag} takes comma-separated" in err and "Traceback" not in err

    def test_omitted_list_flags_sweep_config_defaults(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli_mod, "sweep", lambda configs, out: seen.append(configs) or [])
        assert cli("sweep", "--data", "f.svm", "--out", "o.csv") == 0
        assert seen == [[RunConfig(data="f.svm")]]

    def test_given_list_flags_keep_grid_order(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli_mod, "sweep", lambda configs, out: seen.append(configs) or [])
        assert cli("sweep", "--data", "f.svm", "--algos", "spdc, adaspdc", "--batches", "2,1",
                   "--lambda-scales", "1e-2", "--out", "o.csv") == 0
        assert seen == [[RunConfig(data="f.svm", algo=algo, a=a, lambda_scale=1e-2)
                         for algo in ("spdc", "adaspdc") for a in (2, 1)]]

    def test_seed_flag_is_run_only(self, small_file, tmp_path):
        # sweep seeds come from --seeds; --seed is neither taken nor read as it
        assert cli("sweep", "--data", small_file, "--seed", "7",
                   "--out", str(tmp_path / "t.csv")) == 2

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


@pytest.mark.parametrize("flags,rule", [
    (["--schedule", "thm4"], "thm4"),
    (["--schedule", "thm5"], "thm5"),
    (["--schedule", "thm15", "-a", "7"], "thm15"),
    (["--algo", "spdc", "--schedule", "cor18"], "vanilla"),
    (["--algo", "spdc", "--schedule", "cor19"], "vanilla"),
    (["--algo", "ovsspdc"], "thm5"),
    (["--algo", "ovsspdc-plus", "-a", "7"], "thm15"),  # its sweep steps, as 7 > sqrt(40)
])
def test_step_rules_are_looked_up_when_called(monkeypatch, flags, rule):
    # the benchmark times the rules by replacing core's attributes: a run
    # that held on to the functions themselves would escape its wrappers
    from spdc import core
    from spdc.datamat import example_path

    calls = dict.fromkeys(("thm4", "thm5", "thm15", "vanilla"), 0)
    for name in calls:
        real = getattr(core, "schedule_" + name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(core, "schedule_" + name, counted)
    assert cli("run", "--data", example_path(), "--normalize", "--max-epochs", "1",
               "--no-timing", *flags) == 0
    assert calls[rule] > 0, calls


def test_bundled_dataset_end_to_end(tmp_path):
    from spdc.datamat import example_path

    summary = tmp_path / "tiny.json"
    rc = cli("run", "--data", example_path(), "--normalize", "--algo", "ovsspdc",
             "--lambda-scale", "1e-2", "--gap-tol", "1e-8", "--max-epochs", "3000",
             "--summary", str(summary))
    assert rc == 0
    s = json.loads(summary.read_text())
    assert s["converged"] and s["final_gap"] <= 1e-8


# flag values for the exit-code property: valid ones mixed with invalid ones
RUN_FLAGS = {
    "--algo": ["adaspdc", "spdc", "dspdc", "ovsspdc", "ovs-exact", "ovsspdc-plus",
               "ovsspdc-plusplus", "bogus"],
    "--prob": ["uniform", "cor16", "cor17", "ovs", "x"],
    "--schedule": ["auto", "thm4", "thm5", "thm15", "cor18", "cor19", "nope"],
    "-a": ["1", "2", "25", "0", "-3", "x"],
    "--lambda-scale": ["1e-2", "0", "-1", "nan", "inf", "x", "5e-324"],
    "--dspdc-b": ["1", "3", "5", "0", "9"],
    "--seed": ["0", "7", "-1", "x"],
}
SWEEP_FLAGS = {
    "--algos": ["adaspdc", "spdc,ovsspdc", "bogus"],
    "--probs": ["uniform", "uniform,cor17", "x"],
    "--lambda-scales": ["1e-2", "1e-2,1e-1", "abc", "-1", ""],
    "--batches": ["1", "1,2", "x", "0"],
    "--seeds": ["0", "0,1", "x", "-1"],
}
SHARED_FLAGS = {
    "--gamma": ["1", "0.5", "0", "-2", "nan", "inf", "1e-320"],
    "--gap-tol": ["1e-3", "0", "-1", "nan"],
    "--max-epochs": ["0", "0.5", "1", "-1", "nan"],
}
SWITCHES = ["--normalize", "--no-timing"]


@st.composite
def data_paths(draw, valid, folder):
    """--data: the valid file, a copy with flipped bytes or cut short, a
    missing path, or a directory."""
    # "valid" twice, so that about half the draws reach a solve
    kind = draw(st.sampled_from(["valid", "valid", "flipped", "truncated", "missing",
                                 "directory"]))
    if kind == "valid":
        return valid
    if kind == "missing":
        return str(folder / "missing.svm")
    if kind == "directory":
        return str(folder)
    blob = bytearray(Path(valid).read_bytes())
    if kind == "truncated":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    else:
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    path = folder / f"{kind}.svm"
    path.write_bytes(bytes(blob))
    return str(path)


def output_paths(folder):
    """An output path: a writable file, a directory or one whose parent is missing."""
    return st.sampled_from([str(folder / "out.csv"), str(folder),
                            str(folder / "missing" / "out.csv")])


SYNTH_FLAGS = {
    "--sparsity": ["0.3", "1", "0", "2", "nan", "inf", "x"],
    "--dual-skew": ["0", "0.5", "2", "-1"],
    "--seed": ["0", "3", "-1", "x"],
}


@st.composite
def argvs(draw, valid, folder):
    command = draw(st.sampled_from(["run", "sweep", "synth"]))
    if command == "synth":
        # mostly valid sizes and few flags, so that most draws reach the write
        argv = [command, "--n", draw(st.sampled_from(["4", "4", "0", "x"])),
                "--d", draw(st.sampled_from(["3", "3", "-1"])),
                "--out", draw(output_paths(folder))]
        for flag in draw(st.lists(st.sampled_from(sorted(SYNTH_FLAGS)), unique=True,
                                  max_size=1)):
            argv += [flag, draw(st.sampled_from(SYNTH_FLAGS[flag]))]
        return argv
    argv = [command, "--data", draw(data_paths(valid, folder))]
    flags = {**SHARED_FLAGS, **(RUN_FLAGS if command == "run" else SWEEP_FLAGS)}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=6)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    argv += draw(st.lists(st.sampled_from(SWITCHES), unique=True))
    if "--max-epochs" not in argv:
        argv += ["--max-epochs", "1"]
    if command == "sweep":
        argv += ["--out", draw(output_paths(folder))]
    else:
        for flag in draw(st.lists(st.sampled_from(["--trace", "--summary"]), unique=True)):
            argv += [flag, draw(output_paths(folder))]
    return argv


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_every_argv_exits_with_a_contract_code(small_file, tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("argv")
    argv = data.draw(argvs(small_file, folder))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
