"""BENCHMARK.json agrees with the code, and the benchmark refuses to run
without the program."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
from layers import LAYER_METRICS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_code():
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_metrics_match_the_code():
    e2e = SPEC["end_to_end"]
    assert [(m["name"], m["unit"]) for m in e2e] == list(run.END_TO_END)
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_per_layer_metrics_match_the_code():
    layers = SPEC["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in layers] == list(LAYER_METRICS)
    for m in layers:
        assert set(m) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(UNIT.match(u) for u in units)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lowd-fixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
