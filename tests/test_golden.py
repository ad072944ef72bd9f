"""Byte-level regression gate: every solver's ``--no-timing`` trace CSV.

Each case regenerates a synthetic dataset with ``synth``, solves it with one
algorithm through the CLI and compares the trace file byte for byte with the
recorded golden under ``tests/golden/``.  A change that is meant to keep the
iterates (a faster kernel, a refactor of the run loops) must leave every
golden untouched.  A change that is meant to alter them rewrites the goldens
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.

``dspdc`` has no goldens of its own: at its one primal block it runs
``spdc``'s iteration, so its traces must equal ``spdc``'s byte for byte.

The two datasets stress different paths: ``highd-sparse`` has far more
features than any row touches, so most weights freeze at exact fixed points;
``dual-skewed`` has most duals vanish at the optimum, which drives the
violation-based samplers and their snapshot acceptance tests.

The budget-edge set (``tests/golden/budget-edge/``) runs every algorithm at
``-a 7 --max-epochs 2.5`` (``-a 1`` for ``ovs-exact``), so the budget runs out
mid-epoch and the stopping rule shows in the trace: every runner tests the
budget before each of its units and ends on a whole one, an epoch (3.01 for
the fixed-plan runners and ``ovsspdc``, 3 for ``ovs-exact``) or a snapshot
round.  So each budget-edge trace is a prefix of the trace of the same run
with more epochs: the ``ovs-exact`` ones are the first four rows of its
6-epoch golden.

One golden lies outside that grid (``tests/golden/anchored-batch/``):
``ovsspdc -a 2`` on ``highd-sparse`` at a tenth of its lambda for 100
epochs.  Its anchored mini-batch steps settle rows whose extrapolation left
them where they were, whose weights must be re-anchored all the same.

Another runs the benchmarked mini-batch regime at small d for a long run
(``tests/golden/long-batch/``): ``ovsspdc -a 8`` on ``dual-skewed`` to a gap
of 0, which it reaches after 77 epochs.  Each of its steps scatters eight
rows into the dual image twice, and rounding differences compound over the
run, so a scatter that adds in another order shows here.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from spdc.cli import main, synth

GOLDEN_DIR = Path(__file__).parent / "golden"
EDGE_DIR = GOLDEN_DIR / "budget-edge"
BATCH_DIR = GOLDEN_DIR / "anchored-batch"
LONG_DIR = GOLDEN_DIR / "long-batch"

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
# algorithms gated on another's goldens: dspdc is spdc checked by thm20
SAME_TRACE = {"dspdc": "spdc"}

# (dataset, algorithm, flags that override the grid's) of the anchored-batch golden
ANCHORED_BATCH = ("highd-sparse", "ovsspdc",
                  ["-a", "2", "--lambda-scale", "1e-2", "--max-epochs", "100"])
# the same for the long-batch golden, and its file name
LONG_BATCH = ("dual-skewed", "ovsspdc",
              ["-a", "8", "--lambda-scale", "1e-2", "--gap-tol", "0", "--max-epochs", "100"])
LONG_GOLDEN = LONG_DIR / "dual-skewed-ovsspdc-a8.csv"


def _argv(data_path, name, algo, trace_path, budget_edge=False, extra=()):
    spec = DATASETS[name]
    argv = ["run", "--data", str(data_path), "--normalize", "--algo", algo,
            *spec["flags"], "--gap-tol", "1e-6", "--seed", "1", "--no-timing",
            "--trace", str(trace_path)]
    if budget_edge:
        # ovs-exact takes only a=1
        argv += ["--max-epochs", "2.5", "-a", "1" if algo == "ovs-exact" else "7"]
    else:
        # ovs-exact re-evaluates every violation per iteration, so it gets
        # fewer epochs
        argv += ["--max-epochs", "6" if algo == "ovs-exact" else "12"]
    # dspdc runs at b=d, the only block size thm20 admits here
    if algo == "dspdc":
        argv += ["--dspdc-b", str(spec["synth"]["d"])]
    return argv + list(extra)  # the last value of a flag wins


def _write_dataset(name, directory):
    path = Path(directory) / f"{name}.svm"
    synth(out_path=str(path), **DATASETS[name]["synth"])
    return path


def _golden(name, algo, budget_edge=False):
    algo = SAME_TRACE.get(algo, algo)
    return (EDGE_DIR if budget_edge else GOLDEN_DIR) / f"{name}-{algo}.csv"


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


@pytest.mark.parametrize("name,algo", CASES)
def test_budget_edge_trace_matches_golden(datasets, tmp_path, name, algo):
    trace = tmp_path / "trace.csv"
    assert main(_argv(datasets[name], name, algo, trace, budget_edge=True)) == 0
    assert trace.read_bytes() == _golden(name, algo, budget_edge=True).read_bytes()


def test_anchored_batch_trace_matches_golden(datasets, tmp_path):
    name, algo, flags = ANCHORED_BATCH
    trace = tmp_path / "trace.csv"
    assert main(_argv(datasets[name], name, algo, trace, extra=flags)) == 0
    assert trace.read_bytes() == (BATCH_DIR / f"{name}-{algo}.csv").read_bytes()


def test_long_batch_trace_matches_golden(datasets, tmp_path):
    name, algo, flags = LONG_BATCH
    trace = tmp_path / "trace.csv"
    assert main(_argv(datasets[name], name, algo, trace, extra=flags)) == 0
    assert trace.read_bytes() == LONG_GOLDEN.read_bytes()


def _regenerate(directory):
    EDGE_DIR.mkdir(parents=True, exist_ok=True)
    BATCH_DIR.mkdir(parents=True, exist_ok=True)
    LONG_DIR.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in DATASETS:
        paths[name] = path = _write_dataset(name, directory)
        print(name, hashlib.sha256(path.read_bytes()).hexdigest())
        for algo in (a for a in ALGOS if a not in SAME_TRACE):
            for edge in (False, True):
                trace = _golden(name, algo, budget_edge=edge)
                if main(_argv(path, name, algo, trace, budget_edge=edge)) != 0:
                    sys.exit(f"{name}/{algo} failed")
    for (name, algo, flags), trace in ((ANCHORED_BATCH, BATCH_DIR / "highd-sparse-ovsspdc.csv"),
                                       (LONG_BATCH, LONG_GOLDEN)):
        if main(_argv(paths[name], name, algo, trace, extra=flags)) != 0:
            sys.exit(f"{name}/{algo} {' '.join(flags)} failed")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(tmp)
