"""Sparse dataset container with simultaneous instance-wise and feature-wise access.

Data is held in both CSR and CSC layouts so that solvers can traverse
instances (rows) during dual updates and features (columns) during primal
updates, both at O(nnz) cost.  Datasets are immutable after construction and
safe to share across concurrent solver runs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import DataError

__all__ = ["SparseDataset", "load_libsvm", "save_libsvm", "lambda_max", "density",
           "example_path"]


def example_path() -> str:
    """Path of the bundled 40x10 synthetic dataset (for demos and smoke tests)."""
    from importlib.resources import files

    return str(files("spdc").joinpath("data/tiny.svm"))


class SparseDataset:
    """An n x d sparse design matrix with labels and per-instance norms.

    Parameters
    ----------
    matrix : scipy.sparse matrix, shape (n, d)
        The design matrix X whose i-th row is the i-th instance.
    labels : ndarray, shape (n,)
        Targets; +-1 for classification, arbitrary reals for regression.

    Attributes
    ----------
    n, d : int
        Instance and feature counts.
    labels : ndarray
        Copy of the targets, float64.
    row_norms : ndarray
        Euclidean norm of each instance; strictly positive by construction.
    """

    def __init__(self, matrix, labels):
        csr = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        csr.eliminate_zeros()
        csr.sort_indices()
        labels = np.asarray(labels, dtype=np.float64).copy()
        if labels.shape != (csr.shape[0],):
            raise DataError(
                f"label count {labels.shape} does not match instance count {csr.shape[0]}"
            )
        norms = np.empty(csr.shape[0])
        for i in range(csr.shape[0]):
            vals = csr.data[csr.indptr[i]:csr.indptr[i + 1]]
            if vals.size == 0:
                raise DataError(f"instance {i} has zero norm; all-zero rows are rejected")
            # scale before squaring so tiny stored values cannot underflow to zero
            peak = float(np.max(np.abs(vals)))
            norms[i] = peak * math.sqrt(float(np.sum((vals / peak) ** 2)))
        self._csr = csr
        self._csc = csr.tocsc()
        self._csc.sort_indices()
        self.n, self.d = csr.shape
        self.labels = labels
        self.row_norms = norms
        # read-only views guard against accidental mutation by callers
        for arr in (self._csr.data, self._csr.indices, self._csr.indptr,
                    self._csc.data, self._csc.indices, self._csc.indptr,
                    self.labels, self.row_norms):
            arr.setflags(write=False)

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def row(self, i):
        """Return (indices, values) of instance i as read-only views."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return self._csr.indices[lo:hi], self._csr.data[lo:hi]

    def col(self, j):
        """Return (indices, values) of feature j as read-only views."""
        lo, hi = self._csc.indptr[j], self._csc.indptr[j + 1]
        return self._csc.indices[lo:hi], self._csc.data[lo:hi]

    def matvec(self, w):
        """X @ w, computed from the row layout."""
        return self._csr @ w

    def rmatvec(self, alpha):
        """X.T @ alpha, computed from the column layout."""
        return self._csc.T @ alpha

    def csr_arrays(self):
        """Raw (indptr, indices, data) of the row layout, for tight solver loops."""
        return self._csr.indptr, self._csr.indices, self._csr.data

    def value(self, i, j) -> float:
        """Entry X[i, j] read via the row layout."""
        idx, vals = self.row(i)
        pos = np.searchsorted(idx, j)
        if pos < idx.size and idx[pos] == j:
            return float(vals[pos])
        return 0.0

    def value_by_col(self, i, j) -> float:
        """Entry X[i, j] read via the column layout."""
        idx, vals = self.col(j)
        pos = np.searchsorted(idx, i)
        if pos < idx.size and idx[pos] == i:
            return float(vals[pos])
        return 0.0

    def equals(self, other: "SparseDataset") -> bool:
        """Exact structural and numerical equality (used by round-trip tests)."""
        return (
            self.n == other.n
            and self.d == other.d
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self._csr.indptr, other._csr.indptr)
            and np.array_equal(self._csr.indices, other._csr.indices)
            and np.array_equal(self._csr.data, other._csr.data)
        )


def _parse_line(line: str, lineno: int, classification: bool):
    tokens = line.split()
    try:
        label = float(tokens[0])
    except ValueError:
        raise DataError(f"line {lineno}: cannot parse label {tokens[0]!r}") from None
    if not math.isfinite(label):
        raise DataError(f"line {lineno}: label {tokens[0]!r} is not finite")
    if classification and label not in (-1.0, 1.0):
        raise DataError(f"line {lineno}: label {tokens[0]!r} is not +-1")
    idxs, vals = [], []
    prev = 0
    for tok in tokens[1:]:
        try:
            stext, vtext = tok.split(":", 1)
            idx = int(stext)
            val = float(vtext)
        except ValueError:
            raise DataError(f"line {lineno}: malformed feature token {tok!r}") from None
        if idx < 1:
            raise DataError(f"line {lineno}: feature index {idx} is not 1-based")
        if idx == prev:
            raise DataError(f"line {lineno}: duplicate feature index {idx}")
        if idx < prev:
            raise DataError(f"line {lineno}: feature indices must be strictly increasing")
        prev = idx
        if val != 0.0:
            idxs.append(idx - 1)
            vals.append(val)
    return label, idxs, vals


def load_libsvm(path, normalize: bool = False, classification: bool = True) -> SparseDataset:
    """Parse a text file in LIBSVM format.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices.  Lines whose first non-blank character is ``#`` are
    skipped.  Explicitly stored zeros are dropped.  The feature count is the
    maximum index seen.

    Parameters
    ----------
    path : str or Path
        File to read.
    normalize : bool
        If set, scale every instance to unit Euclidean norm.
    classification : bool
        Require +-1 labels (default).  Pass False for regression targets.

    Raises
    ------
    DataError
        On malformed lines (with line number), non-finite labels or values,
        all-zero rows, or bad labels.
    """
    labels, linenos = [], []
    rows_i, rows_j, rows_v = [], [], []
    d = 0
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            label, idxs, vals = _parse_line(line, lineno, classification)
            if not idxs:
                raise DataError(f"line {lineno}: instance has no nonzero features")
            i = len(labels)
            labels.append(label)
            linenos.append(lineno)
            rows_i.extend([i] * len(idxs))
            rows_j.extend(idxs)
            rows_v.extend(vals)
            d = max(d, idxs[-1] + 1)
    if not labels:
        raise DataError(f"{path}: no data lines found")
    mat = sp.coo_matrix(
        (rows_v, (rows_i, rows_j)), shape=(len(labels), d), dtype=np.float64
    ).tocsr()
    # one vectorized check, not a call per token; entries keep file order
    bad = np.flatnonzero(~np.isfinite(mat.data))
    if bad.size:
        k = int(bad[0])
        i = int(np.searchsorted(mat.indptr, k, side="right")) - 1
        raise DataError(f"line {linenos[i]}: feature {mat.indices[k] + 1} has "
                        f"non-finite value {float(mat.data[k])!r}")
    ds = SparseDataset(mat, labels)
    if normalize:
        scale = sp.diags(1.0 / ds.row_norms)
        ds = SparseDataset(scale @ ds._csr, ds.labels)
    return ds


def save_libsvm(ds: SparseDataset, path) -> None:
    """Write a dataset back to LIBSVM text, preserving all stored values exactly.

    Labels and values are written with round-trip float formatting so that
    ``load_libsvm(save_libsvm(ds))`` reproduces ``ds`` bit for bit.
    """
    with open(path, "w") as fh:
        for i in range(ds.n):
            idx, vals = ds.row(i)
            feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(idx, vals))
            label = ds.labels[i]
            if label == int(label):
                fh.write(f"{int(label):+d} {feats}\n")
            else:
                fh.write(f"{float(label)!r} {feats}\n")


def lambda_max(ds: SparseDataset) -> float:
    """Smallest regularization level at which the all-zero weight vector is optimal.

    Computed feature-wise as ``max_j |sum_i y_i X_ij| / n``.
    """
    if ds.n == 0:
        raise DataError("empty dataset")
    corr = ds.rmatvec(ds.labels)
    return float(np.max(np.abs(corr)) / ds.n)


def density(ds: SparseDataset) -> float:
    """Fraction of nonzero entries, nnz / (n * d)."""
    return ds.nnz / (ds.n * ds.d)
