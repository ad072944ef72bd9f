"""The skipping primal pass against the whole-vector reference, bit for bit."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc import core
from spdc.core import (
    DspdcConfig,
    SolverState,
    adaspdc_step,
    dspdc_step,
    init_state,
    schedule_thm4,
    schedule_thm5,
)
from spdc.datamat import lambda_max
from spdc.objective import ProblemSpec
from spdc.sampling import build_uniform

from conftest import make_dataset
from oracles import dense_primal_pass

STEPS_PER_OP = 4


@pytest.fixture(scope="module")
def highd():
    """n=40, d=2400 with about five nonzeros per row: most weights never move."""
    ds = make_dataset(40, 2400, seed=11, density=0.002)
    spec = ProblemSpec(gamma=1.0, lam=0.1 * lambda_max(ds))
    plan = build_uniform(ds.n, 1)
    # two step rules with different tau, as a violation refresh produces
    params = (schedule_thm5(ds, spec, plan), schedule_thm4(ds, spec, plan))
    cfgs = (DspdcConfig.build(ds.d, 600), DspdcConfig.build(ds.d, ds.d))
    return ds, spec, plan, params, cfgs


OPS = st.one_of(
    st.tuples(st.just("step"), st.integers(0, 1)),
    st.tuples(st.just("dspdc"), st.integers(0, 1)),
    st.tuples(st.just("restrict"), st.integers(0, 3)),
    st.tuples(st.just("copy"), st.just(0)),
    st.tuples(st.just("rebind"), st.sampled_from(["w", "w_prev", "w_bar", "v_cache"])),
)


def _replay(problem, ops, seed):
    """Apply ``ops`` to a fresh state; returns the state after every op."""
    ds, spec, plan, params, cfgs = problem
    rng = np.random.default_rng(seed)
    state = init_state(ds)
    snapshots = []
    for op, arg in ops:
        if op == "step":
            for _ in range(STEPS_PER_OP):
                adaspdc_step(state, params[arg], plan, ds, spec, 1, rng)
        elif op == "dspdc":
            for _ in range(STEPS_PER_OP):
                dspdc_step(state, params[0], plan, cfgs[arg], ds, spec, 1, rng)
        elif op == "restrict":
            # the restricted primal updates of ovsspdc-plusplus
            coords = np.flatnonzero(np.arange(ds.d) % 4 != arg)
            for _ in range(STEPS_PER_OP):
                adaspdc_step(state, params[0], plan, ds, spec, 1, rng, primal_coords=coords)
        elif op == "copy":
            state = state.copy()
        elif arg == "v_cache":
            state.v_cache = ds.rmatvec(state.alpha_bar) / ds.n
        else:
            setattr(state, arg, state.w.copy())
        snapshots.append([getattr(state, k).tobytes() for k in
                          ("w", "w_prev", "w_bar", "alpha", "alpha_bar", "v_cache")])
    return snapshots


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=40), seed=st.integers(0, 2**16))
def test_matches_dense_reference_bitwise(highd, ops, seed):
    ops = [("step", 0)] * 10 + ops  # let weights settle so coordinates freeze
    fast = _replay(highd, ops, seed)
    with mock.patch.object(core, "_primal_pass", dense_primal_pass):
        reference = _replay(highd, ops, seed)
    for k, (got, want) in enumerate(zip(fast, reference)):
        assert got == want, f"state differs after op {k}: {ops[k]}"


def _count_sparse_passes(run):
    calls = []
    real = core._sparse_primal_pass

    def counted(*args):
        calls.append(args[4].size)  # the moving coordinates
        return real(*args)

    with mock.patch.object(core, "_sparse_primal_pass", counted):
        run()
    return calls


def test_dspdc_full_block_takes_skipping_path(highd):
    ds, spec, plan, params, cfgs = highd
    full = cfgs[1]
    assert len(full.blocks) == 1 and full.q[0] == 1.0
    # a block spanning all d coordinates leaves the primal step as it is
    assert params[0].tau * (full.blocks[0].size / (full.q[0] * ds.d)) == params[0].tau
    state = init_state(ds)
    rng = np.random.default_rng(0)

    def run():
        for _ in range(20 * ds.n):
            dspdc_step(state, params[0], plan, full, ds, spec, 1, rng)

    moving = _count_sparse_passes(run)
    assert len(moving) > 0.9 * 20 * ds.n
    assert max(moving) <= core._SKIP_MAX_SHARE * ds.d


@pytest.mark.parametrize("tau_scale,lam_scale", [(3.0, 1.0), (1.0, 1.5)])
def test_new_parameters_reprox_frozen_weights(tau_scale, lam_scale):
    # w settles where the rounded prox at tau returns it unchanged, one ulp
    # away from the exact fixed point; a new tau or lam moves it again
    u, lam, tau = -1.5744413656668401, 0.6929768471732297, 3.9633006467991816
    d = core._SKIP_MIN_D
    state = SolverState(w=np.zeros(d), w_prev=np.zeros(d), alpha=np.zeros(1),
                        w_bar=np.zeros(d), alpha_bar=np.zeros(1), v_cache=np.full(d, u))
    for _ in range(200):
        core._primal_pass(state, tau, lam, 0.5)
    ref = SimpleNamespace(w=state.w.copy(), w_prev=state.w_prev.copy(),
                          w_bar=state.w_bar.copy(), v_cache=state.v_cache, iter=0)
    for t, lm, skips in ((tau, lam, True), (tau * tau_scale, lam * lam_scale, False)):
        assert bool(_count_sparse_passes(lambda: core._primal_pass(state, t, lm, 0.5))) == skips
        dense_primal_pass(ref, t, lm, 0.5)
        for k in ("w", "w_prev", "w_bar"):
            assert getattr(state, k).tobytes() == getattr(ref, k).tobytes()
    assert not np.array_equal(state.w, state.w_prev)
