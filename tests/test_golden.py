"""Byte-level regression gate: every solver's ``--no-timing`` trace CSV.

Each case regenerates a synthetic dataset with ``synth``, solves it with one
algorithm through the CLI and compares the trace file byte for byte with the
recorded golden under ``tests/golden/``.  A change that is meant to keep the
iterates (a faster kernel, a refactor of the run loops) must leave every
golden untouched.  A change that is meant to alter them rewrites the goldens
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.

The two datasets stress different paths: ``highd-sparse`` has far more
features than any row touches, so most weights freeze at exact fixed points;
``dual-skewed`` has most duals vanish at the optimum, which drives the
violation-based samplers and their snapshot acceptance tests.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from spdc.cli import main, synth

GOLDEN_DIR = Path(__file__).parent / "golden"

DATASETS = {
    "highd-sparse": {
        "synth": dict(n=300, d=6000, sparsity=20 / 6000, dual_skew=0.0, seed=3),
        "flags": ["--lambda-scale", "1e-1"],
        "sha256": "63ed6da89d9ea28fd5dff254384303ca4cc864fd03c1438c5cd1bc4d7dc8ca91",
    },
    "dual-skewed": {
        "synth": dict(n=400, d=60, sparsity=0.3, dual_skew=0.6, seed=4),
        "flags": ["--lambda-scale", "1e-2"],
        "sha256": "b2a1c9c4114eaa85842f3abe5ae1be267c068747b92ad2807fbdd24312c6a25e",
    },
}

ALGOS = ("spdc", "adaspdc", "dspdc", "ovsspdc", "ovs-exact", "ovsspdc-plus",
         "ovsspdc-plusplus")

CASES = [(name, algo) for name in DATASETS for algo in ALGOS]


def _argv(data_path, name, algo, trace_path):
    spec = DATASETS[name]
    argv = ["run", "--data", str(data_path), "--normalize", "--algo", algo,
            *spec["flags"], "--gap-tol", "1e-6", "--seed", "1", "--no-timing",
            "--trace", str(trace_path)]
    # ovs-exact re-evaluates every violation per iteration, so it gets fewer
    # epochs; dspdc runs at b=d, the only block size thm20 admits here
    argv += ["--max-epochs", "6" if algo == "ovs-exact" else "12"]
    if algo == "dspdc":
        argv += ["--dspdc-b", str(spec["synth"]["d"])]
    return argv


def _write_dataset(name, directory):
    path = Path(directory) / f"{name}.svm"
    synth(out_path=str(path), **DATASETS[name]["synth"])
    return path


def _golden(name, algo):
    return GOLDEN_DIR / f"{name}-{algo}.csv"


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-data")
    return {name: _write_dataset(name, root) for name in DATASETS}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_checksum(datasets, name):
    digest = hashlib.sha256(datasets[name].read_bytes()).hexdigest()
    assert digest == DATASETS[name]["sha256"], "synth output changed; goldens are void"


@pytest.mark.parametrize("name,algo", CASES)
def test_trace_matches_golden(datasets, tmp_path, name, algo):
    trace = tmp_path / "trace.csv"
    assert main(_argv(datasets[name], name, algo, trace)) == 0
    assert trace.read_bytes() == _golden(name, algo).read_bytes()


def _regenerate(directory):
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in DATASETS:
        path = _write_dataset(name, directory)
        print(name, hashlib.sha256(path.read_bytes()).hexdigest())
        for algo in ALGOS:
            if main(_argv(path, name, algo, _golden(name, algo))) != 0:
                sys.exit(f"{name}/{algo} failed")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(tmp)
