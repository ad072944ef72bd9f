"""The benchmark's own tests, run as part of this suite.

``perfbench/tests`` checks that the names the benchmark wraps and patches
(``perfbench/layers.py::_targets``, ``perfbench/workloads.py::_RUNNERS``)
still exist and behave.  Its ``conftest`` module clashes with this suite's,
so the two cannot be collected in one pytest run; it runs in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
