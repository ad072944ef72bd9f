"""The dual-image scatter of a step against the row-at-a-time update
``v[cols] += (delta / n) * vals``, bit for bit: ``core._scatter``, which
takes ``(cols, vals, delta)`` terms, a row's slices and its delta, scales
them and leaves out zero deltas in one ordered ``np.add.at``, and the two
step phases that call it, the extrapolation of ``core._dual_pass`` and the
settle of ``core._settle`` on the row slices the dual pass kept."""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdc import core
from spdc.core import init_state, schedule_thm5
from spdc.datamat import SparseDataset, lambda_max
from spdc.objective import ProblemSpec
from spdc.sampling import build_uniform, draw_batch

from conftest import make_dataset, solve_to_fixed_point

# few columns, so that rows share them; magnitudes over 12 decades, so that
# the order of the adds shows in the bits
VALUES = st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 9.99),
                   st.integers(-6, 6), st.sampled_from([-1.0, 1.0]))
CACHE = st.one_of(st.sampled_from([-0.0, 0.0]), VALUES)
# zero deltas, -0.0 among them, are left out; 5e-324 / n is 0.0 and is not
DELTAS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), VALUES)


@st.composite
def problems(draw):
    """(dataset, cache, rows, deltas): rows drawn with repeats, in any order."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        cols = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
        rows.append({c: draw(VALUES) for c in cols})
    indptr = np.r_[0, np.cumsum([len(r) for r in rows])]
    indices = np.array([c for r in rows for c in r], dtype=np.int32)
    data = np.array([x for r in rows for x in r.values()])
    ds = SparseDataset(sp.csr_matrix((data, indices, indptr), shape=(n, d)), np.ones(n))
    v = np.array(draw(st.lists(CACHE, min_size=d, max_size=d)))
    batch = draw(st.lists(st.tuples(st.integers(0, n - 1), DELTAS), max_size=8))
    return ds, v, [i for i, _ in batch], [dl for _, dl in batch]


def sequential(v, ds, rows, deltas):
    """The row-at-a-time update, leaving out zero deltas."""
    v = v.copy()
    for i, delta in zip(rows, deltas):
        if delta != 0.0:
            cols, vals = ds.row(i)
            v[cols] += (delta / ds.n) * vals
    return v


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(problems())
@example((SparseDataset(sp.csr_matrix(np.array([[1.0, -2.0], [3.0, 0.0]])), np.ones(2)),
          np.array([-0.0, -0.0]), [0, 1, 0, 1], [0.0, -0.0, 5e-324, 2.5]))
@example((SparseDataset(sp.csr_matrix(np.array([[1.0, -2.0]])), np.ones(1)),
          np.array([-0.0, 4.0]), [], []))
def test_scatter_matches_row_at_a_time_adds_bitwise(problem):
    # shared columns, a row given twice, zero deltas 0.0 and -0.0 (left out,
    # so -0.0 entries stay), 5e-324 (kept), one row and no row
    ds, v, rows, deltas = problem
    got = v.copy()
    core._scatter(got, ds.n, [(*ds.row(i), dl) for i, dl in zip(rows, deltas)])
    assert _bits(got) == _bits(sequential(v, ds, rows, deltas))


@settings(max_examples=300, deadline=None)
@given(problems())
@example((SparseDataset(sp.csr_matrix(np.array([[1.0, -2.0], [3.0, 0.0]])), np.ones(2)),
          np.array([-0.0, -0.0]), [0, 1], [0.0, -0.0]))
def test_settle_matches_row_at_a_time_adds_bitwise(problem):
    # the settle adds (alpha_i - bar_i)/n x_i and leaves out a row that did
    # not move, so a -0.0 in the cache stays -0.0
    ds, v, rows, deltas = problem
    batch = dict(zip(rows, deltas))  # a batch holds each row once
    state = init_state(ds)
    state.alpha = np.linspace(-0.5, 0.5, ds.n)
    state.v_cache = v.copy()
    state.last_batch = {i: state.alpha[i] - dl for i, dl in batch.items()}
    state.last_rows = {i: ds.row(i) for i in batch}  # as a dual pass keeps them
    want = sequential(v, ds, list(state.last_batch),
                      [state.alpha[i] - bar for i, bar in state.last_batch.items()])
    core._settle(state, ds)
    assert _bits(state.v_cache) == _bits(want) and state.last_batch == {}


def _extrapolation_matches(state, params, ds, spec, seed):
    alpha0, v0 = state.alpha.copy(), state.v_cache.copy()
    core._dual_pass(state, params, ds, spec,
                    draw_batch(params.plan, np.random.default_rng(seed)))
    rows = list(state.last_batch)
    want = sequential(v0, ds, rows, [state.last_batch[i] - alpha0[i] for i in rows])
    assert _bits(state.v_cache) == _bits(want)
    return rows, alpha0


def test_dual_pass_extrapolation_matches_row_at_a_time_adds_bitwise():
    ds = make_dataset(40, 6, seed=11, density=0.6)
    spec = ProblemSpec(gamma=1.0, lam=1e-2 * lambda_max(ds))
    plan = build_uniform(ds.n, 6)
    params = schedule_thm5(ds, spec, plan)
    state, rng = init_state(ds), np.random.default_rng(2)
    for seed in range(30):
        state.v_cache[seed % ds.d] = -0.0  # the pass only adds to the cache
        _extrapolation_matches(state, params, ds, spec, seed)
        core._primal_pass(state, params.tau, spec.lam, params.theta)
        core._settle(state, ds)
        core.iterate(state, params, ds, spec, rng, 1)


def test_fixed_point_draws_leave_negative_zero_cache_entries():
    # at a fixed point no drawn dual moves: every delta is 0.0 and no entry
    # changes, not even a -0.0 one
    ds = make_dataset(20, 5, seed=42, density=0.8)
    spec = ProblemSpec(gamma=1.0, lam=1.0)
    state, _, params = solve_to_fixed_point(ds, spec)
    state.v_cache = np.where(np.arange(ds.d) % 2 == 0, -0.0, state.v_cache)
    for seed in range(10):
        rows, alpha0 = _extrapolation_matches(state, params, ds, spec, seed)
        assert all(state.last_batch[i] == alpha0[i] for i in rows)
        assert np.signbit(state.v_cache[::2]).all() and not state.v_cache[::2].any()
        core._settle(state, ds)
