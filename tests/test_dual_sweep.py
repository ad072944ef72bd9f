"""The dual sweep of the snapshot variants, three whole-dataset products,
against the row-at-a-time sweep, bit for bit.

A scipy whose CSR or CSC product stops summing each row in index order
fails here first, rather than moving the golden traces."""

import numpy as np
import pytest
import scipy.sparse as sp

from spdc import core, variants
from spdc.core import init_state, schedule_thm5, schedule_thm15
from spdc.datamat import SparseDataset, lambda_max
from spdc.objective import ProblemSpec, smoothed_hinge_grad
from spdc.sampling import build_uniform

from oracles import reference_full_pass

ARRAYS = ("alpha", "v_cache", "w", "w_prev", "w_bar")
# the last columns each belong to one length-1 row held at an exact fixed point
OWN_COLUMNS = 3


def own_rows(n):
    """The rows on the own columns, for n >= 5: not the last row."""
    return 0, n // 2, n - 2


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def _csr(rng, lengths, d, decades):
    """CSR arrays with the given row lengths over ``d`` columns, with values
    whose magnitudes span ``decades`` decades, so that summation order shows."""
    lengths = np.asarray(lengths)
    indptr = np.r_[0, np.cumsum(lengths)].astype(np.int32)
    indices = np.concatenate([np.sort(rng.choice(d, k, replace=False)) for k in lengths])
    nnz = indptr[-1]
    data = rng.normal(size=nnz) * 10.0 ** rng.uniform(-decades / 2, decades / 2, size=nnz)
    return indptr, indices.astype(np.int32), data


def mixed_dataset(n, d, seed):
    """Rows of 1 to d - 3 entries, a fifth of them of length 1; with n >= 5,
    rows 0, n // 2 and n - 2 are length-1 rows on the last three columns,
    which no other row touches."""
    rng = np.random.default_rng(seed)
    free = d - OWN_COLUMNS
    lengths = np.where(rng.random(n) < 0.2, 1, rng.integers(1, free + 1, size=n))
    indptr, indices, data = _csr(rng, lengths, free, 2)
    m = sp.csr_matrix((data, indices, indptr), shape=(n, d)).tolil()
    if n >= 5:
        for col, row in enumerate(own_rows(n)):
            m[row, :] = 0.0
            m[row, free + col] = rng.uniform(0.5, 2.0)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return SparseDataset(m.tocsr(), labels)


def prepared_state(ds, spec, seed):
    """A state after two epochs of sampled iterations, with a third of the
    duals, the rows on their own columns and every row at a margin of at
    least 1 (whose fixed point is the dual -0.0) moved to exact fixed points
    of the coming sweep, some other duals at -0.0 and the own columns' cache
    at -0.0, which the sweep's rebuilt cache must not keep."""
    rng = np.random.default_rng(seed)
    plan = build_uniform(ds.n, 1)
    params = schedule_thm5(ds, spec, plan)
    state = init_state(ds)
    for _ in range(max(3, 2 * ds.n)):
        core.iterate(state, params, ds, spec, rng, 1)
    s = ds.matvec(state.w_bar)
    fixed = (rng.random(ds.n) < 1.0 / 3.0) | (ds.labels * s >= 1.0)
    if ds.n >= 5:
        fixed[list(own_rows(ds.n))] = True
    for i in np.flatnonzero(fixed).tolist():
        state.alpha[i] = -float(smoothed_hinge_grad(s[i], ds.labels[i], spec.gamma))
    neg_zero = ~fixed & (ds.labels > 0) & (rng.random(ds.n) < 0.2)
    state.alpha[neg_zero] = -0.0
    state.v_cache = state.v_cache.copy()
    state.v_cache[ds.d - OWN_COLUMNS:] = -0.0
    return state, fixed


# d = 2100 keeps the weights anchored (core._LAZY_MIN_D) up to the sweep; the
# copy the reference sweeps holds them as arrays
@pytest.mark.parametrize("n, d, seed", [(1, 6, 1), (255, 40, 2), (257, 40, 3), (600, 70, 4),
                                        (40, 2100, 5)])
@pytest.mark.parametrize("large_batch", [False, True])
def test_full_pass_matches_row_loop_bitwise(n, d, seed, large_batch):
    ds = mixed_dataset(n, d, seed)
    spec = ProblemSpec(gamma=1.0, lam=1e-2 * lambda_max(ds))
    # the snapshot variants' outer rules: thm5 at a = 1, thm15 at a >= sqrt(n)
    if large_batch:
        params = schedule_thm15(ds, spec, build_uniform(n, max(1, int(np.ceil(np.sqrt(n))))))
    else:
        params = schedule_thm5(ds, spec, build_uniform(n, 1))
    ours, fixed = prepared_state(ds, spec, seed)
    assert (ours._anchors is not None) == (d >= core._LAZY_MIN_D)
    ref = ours.copy()
    before = ours.alpha.copy()
    for sweep in range(4):
        variants._full_pass(ours, ds, spec, params)
        reference_full_pass(ref, ds, spec, params)
        for name in ARRAYS:
            assert _bits(getattr(ours, name)) == _bits(getattr(ref, name)), (sweep, name)
        assert ours.iter == ref.iter
        assert ours.cache_error(ds) == 0.0
        if sweep == 0 and n >= 5:
            # the sweep left the fixed rows alone and moved others
            assert _bits(ours.alpha[fixed]) == _bits(before[fixed])
            assert np.any(ours.alpha != before)
    if n >= 5 and d < 100:
        # two epochs take rows past a margin of 1 only on the short rows of
        # small d: there, fixed rows held -0.0 duals, whose bits were kept
        assert np.any(fixed & np.signbit(before) & (before == 0.0))
