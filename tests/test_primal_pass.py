"""The anchored primal pass against the whole-vector reference.

From d = ``core._LAZY_MIN_D`` on, the primal pass evaluates each weight from
its anchor in closed form instead of proxing it once per iteration, so its
iterates round differently from the reference's.  These tests bound the
difference, check the values that stay exact (zeros and fixed points), the
phase changes, and that reading a state never changes a run.
"""

from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc import core
from spdc.core import (
    SolverState,
    init_state,
    schedule_thm4,
    schedule_thm5,
)
from spdc.datamat import lambda_max
from spdc.objective import ProblemSpec
from spdc.sampling import build_uniform, draw_batch
from spdc.variants import Budget, run_fixed, run_ovsspdc

from conftest import make_dataset, untimed
from oracles import dense_primal_pass

STEPS_PER_OP = 4
EPS = np.finfo(float).eps
# Deviation allowed per iteration, in units of eps times the larger of an
# array's largest magnitude and the largest fixed point, max |v_j|/lam + 1.
# A weight's law c^k (B - W) + W is evaluated around its fixed point W, so
# it rounds relative to |W|, and c^k carries k times the rounding of c: the
# closed form and the k roundings of the reference drift apart by O(k eps)
# of that scale.  The duals feed the deviation back through a contracting
# iteration, which keeps it of that order.  The largest ratio seen over 3 x
# 25 random op sequences was 5.7 (w_bar): the scale reads v from the
# settled cache, while a law's W comes from the extrapolated cache it was
# anchored on, which can be larger.  Relative to the arrays' own
# magnitudes alone it reached 51, from weights far smaller than their W.
ULPS_PER_STEP = 16
STATE_KEYS = ("w", "w_prev", "w_bar", "alpha", "v_cache")
D = max(2400, core._LAZY_MIN_D)


@pytest.fixture(scope="module")
def highd():
    """n=40 and d >= 2400 with about five nonzeros per row."""
    ds = make_dataset(40, D, seed=11, density=5 / D)
    spec = ProblemSpec(gamma=1.0, lam=0.1 * lambda_max(ds))
    plan = build_uniform(ds.n, 1)
    # two step rules with different tau, as a violation refresh produces
    params = (schedule_thm5(ds, spec, plan), schedule_thm4(ds, spec, plan))
    return ds, spec, plan, params


OPS = st.one_of(
    st.tuples(st.just("step"), st.integers(0, 1)),
    st.tuples(st.just("restrict"), st.integers(0, 3)),
    st.tuples(st.just("flush"), st.integers(0, 1)),
    st.tuples(st.just("primal"), st.integers(0, 1)),
    st.tuples(st.just("copy"), st.just(0)),
    st.tuples(st.just("rebind"), st.sampled_from(["w", "w_prev", "w_bar", "v_cache"])),
)


def _replay(problem, ops, seed):
    """Apply ``ops`` to a fresh state; returns, after every op, the number of
    iterations so far and copies of the state's arrays."""
    ds, spec, _, params = problem
    rng = np.random.default_rng(seed)
    state = init_state(ds)
    snapshots = []
    for op, arg in ops:
        if op == "step":
            for _ in range(STEPS_PER_OP):
                core.iterate(state, params[arg], ds, spec, rng, 1)
        elif op == "restrict":
            # the restricted primal updates of ovsspdc-plusplus
            coords = np.flatnonzero(np.arange(ds.d) % 4 != arg)
            frozen = state.w[arg::4].copy()
            for _ in range(STEPS_PER_OP):
                core.iterate(state, params[0], ds, spec, rng, 1, primal_coords=coords)
            assert np.array_equal(state.w[arg::4], frozen)
        elif op in ("flush", "primal"):
            if op == "flush":
                # the exact runner: a step (under new parameters, it
                # re-anchors every weight), then primal passes
                core.iterate(state, params[arg], ds, spec, rng, 1)
            for _ in range(STEPS_PER_OP):
                core._primal_pass(state, params[arg].tau, spec.lam, params[arg].theta)
        elif op == "copy":
            state = state.copy()
        elif arg == "v_cache":
            state.v_cache = ds.rmatvec(state.alpha) / ds.n
        else:
            setattr(state, arg, state.w.copy())
        snapshots.append((state.iter, {k: getattr(state, k).copy() for k in STATE_KEYS}))
    return snapshots


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=40), seed=st.integers(0, 2**16))
def test_matches_dense_reference_within_rounding(highd, ops, seed):
    ops = [("step", 0)] * 10 + ops  # let weights settle into their phases
    fast = _replay(highd, ops, seed)
    with mock.patch.object(core, "_primal_pass", dense_primal_pass):
        reference = _replay(highd, ops, seed)
    lam = highd[1].lam
    for k, ((iters, got), (_, want)) in enumerate(zip(fast, reference)):
        fixed_points = float(np.max(np.abs(want["v_cache"]))) / lam + 1.0
        for key in STATE_KEYS:
            scale = max(float(np.max(np.abs(want[key]))), fixed_points)
            err = float(np.max(np.abs(got[key] - want[key])))
            assert err <= ULPS_PER_STEP * iters * EPS * scale, (k, ops[k], key, err, scale)
        if ops[k][0] in ("step", "restrict", "flush", "primal"):
            # a weight the reference held at 0 for its last two passes is 0
            held = (want["w"] == 0.0) & (want["w_prev"] == 0.0)
            assert np.all(got["w"][held] == 0.0), (k, ops[k])


def _fixed_cache_state(w0, u):
    return SolverState(w=w0.copy(), w_prev=w0.copy(), alpha=np.zeros(1), w_bar=w0.copy(),
                       v_cache=u)


def _reference(state):
    return SimpleNamespace(w=state.w.copy(), w_prev=state.w_prev.copy(),
                           w_bar=state.w_bar.copy(), v_cache=state.v_cache, iter=state.iter)


def _soft(u, lam):
    """``soft(u/lam, 1)``, in the expressions of ``primal_prox``'s keep rule."""
    t = u / lam
    r = np.abs(t) - 1.0
    np.maximum(r, 0.0, out=r)
    return r * np.sign(t)


def test_unchanged_cache_reaches_the_exact_fixed_point():
    rng = np.random.default_rng(3)
    d = core._LAZY_MIN_D
    lam, tau = 0.5, 2.0  # c = 1/2: a weight needs some 60 steps past its last phase change
    # fixed points inside and outside the dead zone, weights on either side
    q = rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.0, 4.0, size=d)
    u = q * lam
    state = _fixed_cache_state(rng.normal(size=d), u)
    for _ in range(300):
        core._primal_pass(state, tau, lam, 0.5)
    assert state._anchors is not None
    r = _soft(u, lam)
    assert np.array_equal(state.w, r)
    assert np.array_equal(state.w_prev, r)
    assert np.array_equal(state.w_bar, r)
    assert np.count_nonzero(r == 0.0) > d // 5  # dead-zone weights are exactly 0


def _phase_sequence(w):
    """Per coordinate of a (passes, d) trajectory, the signs it passes
    through, with repeats collapsed: e.g. (1, 0, -1)."""
    signs = np.sign(w)
    out = []
    for col in signs.T:
        seq = [col[0]]
        for x in col[1:]:
            if x != seq[-1]:
                seq.append(x)
        out.append(tuple(int(x) for x in seq))
    return out


def test_phase_changes_match_the_eager_recurrence():
    rng = np.random.default_rng(5)
    d = core._LAZY_MIN_D
    lam, tau, theta, passes = 0.05, 1.0, 0.5, 400
    side = rng.choice([-1.0, 1.0], size=d)
    # most weights must cross 0: their fixed point lies beyond lam on the
    # other side; some fall to 0 and stay (|q| < 1); some start at 0
    q = -side * rng.uniform(1.05, 5.0, size=d)
    q[::7] = rng.uniform(-0.9, 0.9, size=q[::7].size)
    w0 = side * rng.uniform(0.05, 1.0, size=d)
    w0[3::11] = 0.0
    u = q * lam
    state = _fixed_cache_state(w0, u)
    ref = _reference(state)
    lazy, eager = [], []
    for _ in range(passes):
        core._primal_pass(state, tau, lam, theta)
        dense_primal_pass(ref, tau, lam, theta)
        lazy.append(state.w.copy())
        eager.append(ref.w.copy())
        assert np.array_equal(state.w_prev == 0.0, ref.w_prev == 0.0)
        assert np.allclose(state.w_bar, ref.w_bar, rtol=0.0,
                           atol=ULPS_PER_STEP * passes * EPS)
    lazy, eager = np.array(lazy), np.array(eager)
    # the reference's argument of the prox lies within rounding of +-lam
    # nowhere, so that no crossing step is left to rounding
    s = np.vstack((w0, eager[:-1])) / tau + u
    assert np.min(np.abs(np.abs(s) - lam)) > 1e-9
    # every step, the crossing step included, lands in the reference's phase
    assert np.array_equal(np.sign(lazy), np.sign(eager))
    assert np.allclose(lazy, eager, rtol=0.0, atol=ULPS_PER_STEP * passes * EPS)
    kinds = Counter((int(start),) + path for path, start in zip(_phase_sequence(eager),
                                                                np.sign(w0)))
    # both directions of a crossing through the dead zone and in one step,
    # a fall to 0 that stays, and a start from 0
    for kind in [(1, 1, 0, -1), (1, 1, -1), (-1, -1, 0, 1), (-1, -1, 1), (1, 1, 0),
                 (-1, -1, 0), (0, 1), (0, -1)]:
        assert kinds[kind] > 0, (kind, kinds)


def _read_every_pass(read):
    real = core._primal_pass

    def reading(state, *args, **kwargs):
        real(state, *args, **kwargs)
        if read:
            state.w
            state.w_bar
    return mock.patch.object(core, "_primal_pass", reading)


@pytest.mark.parametrize("runner", ["fixed", "ovsspdc"])
def test_reads_never_change_a_run(runner):
    ds = make_dataset(60, 6000, seed=17, density=18 / 6000)
    spec = ProblemSpec(gamma=1.0, lam=0.1 * lambda_max(ds))
    budget = Budget(gap_tol=1e-12, max_epochs=5)
    results = []
    for read in (False, True):
        rng = np.random.default_rng(4)
        with _read_every_pass(read):
            if runner == "fixed":
                plan = build_uniform(ds.n, 1)
                res = run_fixed(ds, spec, schedule_thm5(ds, spec, plan), budget,
                                rng)
            else:
                res = run_ovsspdc(ds, spec, 1, budget, rng)
        assert res.state._anchors is not None
        results.append(res)
    plain, read = results
    assert untimed(plain.trace) == untimed(read.trace)
    for key in STATE_KEYS:
        assert getattr(plain.state, key).tobytes() == getattr(read.state, key).tobytes()


@pytest.mark.parametrize("tau_scale,lam_scale", [(3.0, 1.0), (1.0, 1.5)])
def test_new_parameters_reanchor_every_weight(tau_scale, lam_scale):
    rng = np.random.default_rng(8)
    d = core._LAZY_MIN_D
    lam, tau = 0.5, 2.0
    u = rng.uniform(-2.0, 2.0, size=d)
    state = _fixed_cache_state(rng.normal(size=d), u)
    for _ in range(300):
        core._primal_pass(state, tau, lam, 0.5)
    assert np.array_equal(state.w, _soft(u, lam))
    before = state._anchors
    ref = _reference(state)
    tau, lam = tau * tau_scale, lam * lam_scale
    core._primal_pass(state, tau, lam, 0.5)
    dense_primal_pass(ref, tau, lam, 0.5)
    anchors = state._anchors
    assert anchors is not before
    # every weight anchored at the iteration of the new parameters
    assert np.all(np.abs(anchors.t0) == state.iter)
    for key in ("w", "w_prev", "w_bar"):
        want = getattr(ref, key)
        err = np.max(np.abs(getattr(state, key) - want))
        assert err <= ULPS_PER_STEP * EPS * np.max(np.abs(want))
    if lam_scale != 1.0:
        assert not np.array_equal(state.w, state.w_prev)


def test_dspdc_takes_the_anchored_pass_at_full_block_only(highd):
    # dspdc's one block spans all d weights: its iterations are the full
    # primal step, which keeps the anchors; a selection that changes from
    # the last pass's takes the whole-vector pass
    ds, spec, _, params = highd
    state = init_state(ds)
    rng = np.random.default_rng(0)
    for _ in range(3):
        core.iterate(state, params[0], ds, spec, rng, 1)
    assert state._anchors is not None
    core.iterate(state, params[0], ds, spec, rng, 1, primal_coords=np.arange(600))
    assert state._anchors is None and state.w is state._w


def _may_change_phase(anchors, idx):
    """Which of the weights ``idx`` the next step may move to another phase:
    the watch condition of ``_Anchors._anchor``."""
    u, B = anchors.v[idx], anchors.B[idx]
    s = B / anchors.tau + u
    side = np.sign(np.where(np.abs(s) > anchors.lam, s, B))
    return side * u < -anchors.lam


def test_primal_passes_alone_follow_the_reference(highd):
    # after a step, primal passes with no dual pass between them: the last
    # drawn row's weights, which are not watched because the step's settle
    # has them re-anchored, must still change phase where the reference does
    ds, spec, _, params = highd
    rng = np.random.default_rng(0)
    state = init_state(ds)
    for _ in range(30 * ds.n):
        # a step, pass by pass, to read the anchors as the primal pass left them
        core._dual_pass(state, params[0], ds, spec, draw_batch(params[0].plan, rng))
        core._primal_pass(state, params[0].tau, spec.lam, params[0].theta)
        drawn = ds.row(int(state.last_draws[0]))[0]
        moving = np.any(_may_change_phase(state._anchors, drawn))
        core._settle(state, ds)
        if moving:
            break
    else:
        pytest.fail("no drawn weight on the way to another phase")
    ref = _reference(state)
    for k in range(1, 2001):
        core._primal_pass(state, params[0].tau, spec.lam, params[0].theta)
        dense_primal_pass(ref, params[0].tau, spec.lam, params[0].theta)
        assert np.array_equal(np.sign(state.w), np.sign(ref.w)), k
    scale = float(np.max(np.abs(state.v_cache))) / spec.lam + 1.0
    assert np.max(np.abs(state.w - ref.w)) <= ULPS_PER_STEP * state.iter * EPS * scale
