"""Sparse dataset container with instance-wise (row) access.

Data is held in one CSR layout: the solvers' dual updates walk instances
(rows), and ``X^T alpha`` for the dual objective and the violations is the
transposed product of the same layout, at O(nnz) cost.  Datasets are
immutable after construction and safe to share across concurrent solver
runs.
"""

from __future__ import annotations

import math
import warnings
from itertools import islice, repeat

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

__all__ = ["SparseDataset", "load_libsvm", "save_libsvm", "lambda_max", "density",
           "example_path"]


def example_path() -> str:
    """Path of the bundled 40x10 synthetic dataset (for demos and smoke tests)."""
    from importlib.resources import files

    return str(files("spdc").joinpath("data/tiny.svm"))


class SparseDataset:
    """An n x d sparse design matrix with labels and per-instance norms.

    ``load_libsvm`` builds its datasets from the arrays it parsed, which they
    keep without a copy; this constructor copies its input once.

    Parameters
    ----------
    matrix : scipy.sparse matrix or array_like, shape (n, d)
        The design matrix X whose i-th row is the i-th instance; duplicate
        entries are summed and explicit zeros dropped.  The dataset keeps one
        copy of it, whose index arrays are cast straight to ``np.intp``, 4
        bytes an entry more than int32: numpy casts others on every
        fancy-index call.  The caller's arrays are neither kept nor changed.
    labels : array_like, shape (n,)
        Targets, +-1 for the hinge-type losses the solvers use; this
        constructor copies them and does not check them (``load_libsvm`` does).

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
        src = sp.csr_matrix(matrix, dtype=np.float64)
        csr = _assigned(sp.csr_matrix(src.shape), src.data.copy(),
                        src.indices.astype(np.intp), src.indptr.astype(np.intp))
        csr.sum_duplicates()  # in place; sorts the indices too
        self._adopt(csr, np.array(labels, dtype=np.float64))

    def _adopt(self, csr, labels):
        """Construction core: keep ``csr``'s arrays and ``labels`` as they are.

        ``csr`` holds float64 data and ``np.intp`` index arrays, its indices
        sorted and unique within each row; neither it nor ``labels`` is copied.
        """
        csr.eliminate_zeros()  # in place; normalizing can underflow a value to 0
        if labels.shape != (csr.shape[0],):
            raise DataError(
                f"label count {labels.shape} does not match instance count {csr.shape[0]}"
            )
        self._csr = csr
        # X^T on the CSR's own arrays, assigned so that scipy keeps them intp
        self._csc_t = _assigned(sp.csc_matrix(csr.shape[::-1]), csr.data, csr.indices,
                                csr.indptr)
        self.n, self.d = csr.shape
        self.labels = labels
        self.row_norms = _row_norms(csr.indptr, csr.data)
        # read-only views guard against accidental mutation by callers
        for arr in (csr.data, csr.indices, csr.indptr, self.labels, self.row_norms):
            arr.setflags(write=False)

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def row(self, i):
        """Return (indices, values) of instance i as read-only views."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return self._csr.indices[lo:hi], self._csr.data[lo:hi]

    def matvec(self, w):
        """X @ w, computed from the row layout."""
        return self._csr @ w

    def rmatvec(self, alpha):
        """X.T @ alpha, computed from the row layout."""
        return self._csc_t @ alpha

    def csr_arrays(self):
        """Raw (indptr, indices, data) of the row layout, for tight solver loops."""
        return self._csr.indptr, self._csr.indices, self._csr.data

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


def _assigned(matrix, data, indices, indptr):
    """``matrix`` (an empty CSR or CSC) over these arrays, set by assignment:
    scipy's constructor would copy them or cast the indices to int32."""
    matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
    return matrix


# entries per chunk of ``_row_norms``: bounds its temporaries
_NORM_CHUNK = 1 << 13


def _row_norms(indptr, data):
    """Euclidean norm of every CSR row, ``peak * sqrt(sum((vals / peak)**2))``.

    Rows of one length, grouped by one stable sort of the lengths, are
    reduced together as ``(rows, length)`` copies of at most about
    ``_NORM_CHUNK`` entries; a reduction along the last axis adds each row's
    values in the same order as a sum over that row alone, so every norm is
    the one a per-row loop gives, bit for bit.  A row with no entries, or
    whose norm overflows, is a DataError.
    """
    lengths = np.diff(indptr)
    order = np.argsort(lengths, kind="stable")
    if lengths.size and lengths[order[0]] == 0:  # the first empty row sorts first
        raise DataError(f"instance {order[0]} has zero norm; all-zero rows are rejected")
    norms = np.empty(lengths.size)
    # each length's rows are order[lo:hi] for adjacent bounds, as lengths are >= 1
    bounds = np.flatnonzero(np.diff(lengths[order], prepend=0, append=0)).tolist()
    with np.errstate(over="ignore"):  # a norm that overflows is refused below
        for lo, hi in zip(bounds, bounds[1:]):
            length = int(lengths[order[lo]])
            # a view: window k is data[k:k + length], so a row's values are the
            # window at its start
            windows = sliding_window_view(data, length)
            step = max(1, _NORM_CHUNK // length)
            for start in range(lo, hi, step):
                rows = order[start:min(start + step, hi)]
                vals = windows[indptr[rows]]  # a copy, scaled and squared in place
                np.abs(vals, out=vals)
                # scale before squaring so tiny stored values cannot underflow to zero
                peak = np.max(vals, axis=1)
                vals /= peak[:, None]
                vals *= vals
                norms[rows] = peak * np.sqrt(np.sum(vals, axis=1))
    if np.isinf(norms).any():
        raise DataError(f"instance {np.flatnonzero(np.isinf(norms))[0]} has a norm that overflows")
    return norms


# lines per bulk parse step: bounds the Python strings alive at one time
_BLOCK_LINES = 128
# the largest feature count whose float64 weight vector numpy can size
_MAX_INDEX = np.iinfo(np.intp).max // 8


def _parse_lines(raw, first_lineno: int):
    """Parse a block line by line to ``_parse_block``'s arrays; raise for its first bad line."""
    labels, lengths, idx, vals = [], [], [], []
    for lineno, text in enumerate(raw, start=first_lineno):
        try:
            text.encode()
        except UnicodeEncodeError:  # undecodable bytes arrive as lone surrogates
            raise DataError(f"line {lineno}: not valid UTF-8 text") from None
        tokens = text.split()
        if not tokens or tokens[0][0] == "#":
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise DataError(f"line {lineno}: cannot parse label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise DataError(f"line {lineno}: label {tokens[0]!r} is not finite")
        if label not in (-1.0, 1.0):
            raise DataError(f"line {lineno}: label {tokens[0]!r} is not +-1")
        start, prev = len(idx), 0
        for tok in tokens[1:]:
            try:
                stext, vtext = tok.split(":", 1)
                j, v = int(stext), float(vtext)
            except ValueError:
                raise DataError(f"line {lineno}: malformed feature token {tok!r}") from None
            if j < 1:
                raise DataError(f"line {lineno}: feature index {j} is not 1-based")
            if j > _MAX_INDEX:
                raise DataError(f"line {lineno}: feature index {j} is too large")
            if j == prev:
                raise DataError(f"line {lineno}: duplicate feature index {j}")
            if j < prev:
                raise DataError(f"line {lineno}: feature indices must be strictly increasing")
            prev = j
            if v != 0.0:
                idx.append(j - 1)
                vals.append(v)
        if len(idx) == start:
            raise DataError(f"line {lineno}: instance has no nonzero features")
        for j, v in zip(idx[start:], vals[start:]):
            if not math.isfinite(v):
                raise DataError(f"line {lineno}: feature {j + 1} has non-finite value {v!r}")
        labels.append(label)
        lengths.append(len(idx) - start)
    return (np.array(labels, np.float64), np.array(lengths, np.int64),
            np.array(idx, np.int64), np.array(vals, np.float64))


def _read_tokens(tokens):
    """The (index, value) fields of ``idx:val`` tokens, converted as ``int`` and
    ``float`` do by numpy's C text reader; ValueError for a token with no colon
    or two, an empty side, or a field that is no ASCII decimal int64 or float
    (``1_0`` is none).  numpy < 2 only warns for index ``1.5``: raised here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(tokens, [("i", np.int64), ("v", np.float64)], delimiter=":",
                          comments=None, ndmin=1)


def _parse_block(raw):
    """Parse a block of lines in bulk, or None if a line is bad or numpy refuses a token.

    Returns the labels, the count of nonzero entries per instance, and the
    0-based indices and values of those entries in file order, converted as
    ``float`` and ``int`` do (``_read_tokens``) and checked as arrays, so a
    block this accepts parses line by line to the same data.
    """
    try:
        "".join(raw).encode()
    except UnicodeEncodeError:
        return None
    lines = [s for s in map(str.strip, raw) if s and s[0] != "#"]
    if not lines:
        return np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    heads = [s.split(None, 1) for s in lines]
    if any(len(h) < 2 for h in heads):
        return None
    rests = [h[1] for h in heads]
    try:
        labels = np.fromiter(map(float, (h[0] for h in heads)), np.float64, len(heads))
        fields = _read_tokens(" ".join(rests).split())
    except (ValueError, DeprecationWarning):
        return None
    idx, vals = fields["i"], fields["v"]
    # every token has exactly one colon, so instance i has counts[i] tokens
    counts = np.fromiter(map(str.count, rests, repeat(":")), np.int64, len(rests))
    starts = np.cumsum(counts) - counts
    steps = np.diff(idx)
    steps[starts[1:] - 1] = 1  # the first index of an instance follows nothing
    nonzero = vals != 0.0
    lengths = np.add.reduceat(nonzero, starts, dtype=np.int64)
    if not (np.all((labels == 1.0) | (labels == -1.0)) and 1 <= idx.min()
            and idx.max() <= _MAX_INDEX and np.all(steps > 0) and np.all(np.isfinite(vals))
            and lengths.min() > 0):
        return None
    return labels, lengths, idx[nonzero] - 1, vals[nonzero]


def load_libsvm(path, normalize: bool = False) -> SparseDataset:
    """Parse a text file in LIBSVM format.

    Each data line is ``label idx:val idx:val ...`` with a label of +-1 and
    1-based, strictly increasing indices.  Lines whose first non-blank
    character is ``#`` are skipped.  Explicitly stored zeros are dropped.
    The feature count is the maximum index seen.

    The file is parsed in blocks of lines, in bulk with numpy's text reader.
    A block that fails a bulk check is parsed again line by line, to the same
    arrays if only Python reads its tokens (``1_0``), else to name its first bad line.
    The blocks' arrays are joined one field at a time and the dataset adopts
    the joined arrays as they are, with no copy, so a load's memory peaks
    under twice the dataset's own arrays.

    Parameters
    ----------
    path : str or Path
        File to read, UTF-8 text.
    normalize : bool
        If set, scale every instance to unit Euclidean norm, multiplying its
        values by the reciprocal of its norm.

    Raises
    ------
    DataError
        Naming the first bad line in file order: text that is not UTF-8,
        malformed tokens, labels other than +-1, non-finite values, or
        instances without a nonzero entry.  With ``normalize``, also an
        instance (numbered from 0) whose norm is too small for its reciprocal
        to be finite, below about 5.6e-309.
    """
    blocks = []
    lineno = 1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while raw := list(islice(fh, _BLOCK_LINES)):
            block = _parse_block(raw)
            blocks.append(_parse_lines(raw, lineno) if block is None else block)
            lineno += len(raw)
    if not sum(block[0].size for block in blocks):
        raise DataError(f"{path}: no data lines found")
    # one field at a time, each field's block parts dropped once it is joined
    fields = [list(parts) for parts in zip(*blocks)]
    del blocks
    for k, parts in enumerate(fields):
        fields[k] = np.concatenate(parts)
        parts.clear()
    labels, lengths, indices, values = fields
    indptr = np.zeros(lengths.size + 1, np.intp)
    np.cumsum(lengths, out=indptr[1:])
    if normalize:
        norms = _row_norms(indptr, values)
        with np.errstate(over="ignore"):
            scale = 1.0 / norms
        tiny = np.flatnonzero(np.isinf(scale))
        if tiny.size:
            raise DataError(f"instance {tiny[0]} has norm {float(norms[tiny[0]])!r}, "
                            "too small to scale to unit norm")
        values *= np.repeat(scale, lengths)
    ds = object.__new__(SparseDataset)
    shape = (labels.size, int(indices.max()) + 1)
    ds._adopt(_assigned(sp.csr_matrix(shape), values, indices.astype(np.intp, copy=False),
                        indptr), labels)
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
    """Fraction of nonzero entries, nnz / (n * d); a DataError for an empty dataset."""
    if ds.n * ds.d == 0:
        raise DataError("empty dataset")
    return ds.nnz / (ds.n * ds.d)
