"""Where and with what a result was measured: machine, libraries, commit, data.

Everything here is read-only: CPU facts come from ``/proc/cpuinfo`` and the
sysfs cache description, the commit from the checkout's ``.git`` directory
when there is one.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    """Cache sizes of CPU 0 by level, e.g. {"L1d": "48K", "L2": "2048K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind or "", "")
            out[f"L{level}{suffix}"] = size
    return out


def git_commit(root: Path) -> str | None:
    """HEAD's commit id, or None when ``root`` is not a git checkout."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root),
    }


def dataset(path: Path, ds) -> dict:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"n": ds.n, "d": ds.d, "nnz": ds.nnz, "bytes": path.stat().st_size,
            "sha256": digest}
