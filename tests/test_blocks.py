"""Anchored iterations in blocks against the frozen step-by-step iteration.

From d = ``core._LAZY_MIN_D`` on, ``core.iterate`` runs consecutive
iterations as one block while each new draw's support is disjoint from the
block's.  A k-iteration call must leave everything as k steps of the frozen
copy in ``tests/reference_runs.py`` do: the iterates, the cache, the
generator, and the anchors' values, laws and anchor iterations, bit for
bit, and the weights due at the next iteration, whatever the chunk lengths.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from spdc import core, variants
from spdc.core import init_state, schedule_thm5
from spdc.datamat import lambda_max
from spdc.objective import ProblemSpec
from spdc.sampling import build_restricted, build_uniform

import reference_runs as ref
from conftest import make_dataset

D = max(2400, core._LAZY_MIN_D)
# chunk lengths: single steps, short calls that split blocks, and long ones
CHUNKS = (1, 2, 7, 1, 3, 40, 5, 1, 90, 11, 150)


@pytest.fixture(scope="module")
def highd():
    """n=40 and d >= 2400 with about five nonzeros per row."""
    ds = make_dataset(40, D, seed=11, density=5 / D)
    return ds, ProblemSpec(gamma=1.0, lam=0.1 * lambda_max(ds))


def _due(anchors) -> np.ndarray:
    """The weights the next iteration re-anchors besides its draws: the
    library's due list, or the frozen copy's watched and touched ones."""
    due = ([i for i, _ in anchors.due] if hasattr(anchors, "due")
           else anchors.watch + anchors.touched)
    return np.unique(np.concatenate(due)) if due else np.empty(0, dtype=np.intp)


def assert_same(new, old, rng_new, rng_old):
    assert new.iter == old.iter
    assert new.last_batch == {} and old.last_batch == {}
    for key in ("alpha", "v_cache", "w", "w_prev", "w_bar"):
        assert getattr(new, key).tobytes() == getattr(old, key).tobytes(), key
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    a, b = new._anchors, old._anchors
    assert (a is None) == (b is None)
    if a is not None:
        for key in ("B", "W", "t0"):
            assert getattr(a, key).tobytes() == getattr(b, key).tobytes(), key
        assert np.array_equal(_due(a), _due(b))
        assert all(np.all(due == new.iter) for _, due in a.due)
        assert a.block is None and a.pending is None


def _plant(state, spec, tau, far, near):
    """Weights on their way across 0.  Each of ``far`` starts at +-0.6 with
    its dual image at -+2 lam: the law heads for -+3 and crosses 0 some 20
    iterations later, watched at every step until then.  Each of ``near``
    starts at +-0.6 with its dual image just inside -+lam: not watched, until
    a dual update moves its image beyond.  The new cache array re-anchors
    every weight at the next primal pass."""
    w, v = state.w.copy(), state.v_cache.copy()
    for planted, image in ((far, 2.0), (near, 0.99)):
        sign = np.where(np.arange(planted.size) % 2 == 0, 1.0, -1.0)
        w[planted] = 0.6 * sign
        v[planted] = -image * spec.lam * sign
    assert 0.6 / tau > 3.0 * spec.lam  # live on the weight's side
    state.w, state.v_cache = w, v


class _Spy:
    """Watches the library's anchors at work: the blocks' lengths, the rounds
    of each settle's chain of re-anchors, and which watch branches fired
    inside blocks of more than one iteration."""

    def __init__(self, monkeypatch):
        self.lengths, self.rounds, self.fired = Counter(), Counter(), Counter()
        self._round, self._prefix = None, set()
        spy = self
        advance, chain, anchor = (core._Anchors.advance, core._Anchors._chain,
                                  core._Anchors._anchor)

        def advanced(anchors, t):
            block, before = anchors.block, len(anchors.due)
            m = advance(anchors, t)
            if block is not None:
                spy.lengths[m] += 1
                if m > 1:
                    # a first-round flip is due within the block
                    spy.fired["first round"] += len(anchors.due) > before
                    spy._prefix = set(block[0][:block[3]].tolist())
            return m

        def chained(anchors, end):
            spy._round = 0
            try:
                chain(anchors, end)
            finally:
                spy.rounds[spy._round] += 1
                spy._round = None

        def anchored(anchors, idx, val, t, fresh=0):
            before = len(anchors.due)
            anchor(anchors, idx, val, t, fresh)
            if spy._round is None:
                return
            spy._round += 1
            flipped = {int(i) for w, _ in anchors.due[before:] for i in w}
            if spy._round == 1 and flipped - spy._prefix:
                # a drawn support's re-anchor one iteration later
                spy.fired["one later"] += 1
            if spy._round >= 3 and flipped:
                spy.fired["chain"] += 1

        monkeypatch.setattr(core._Anchors, "advance", advanced)
        monkeypatch.setattr(core._Anchors, "_chain", chained)
        monkeypatch.setattr(core._Anchors, "_anchor", anchored)


CASES = {
    "a=1": dict(a=1),
    "a=2": dict(a=2),
    "restricted": dict(a=1, restricted=True),
    "restricted a=2": dict(a=2, restricted=True),
    "frozen selection": dict(a=1, coords=True),
}


def _setup(highd, a, restricted=False, coords=False):
    ds, spec = highd
    if restricted:
        kappa = np.where(np.arange(ds.n) % 5 == 0, 0.0, 1.0 + np.arange(ds.n) % 3)
        plan = build_restricted(kappa, a)
        params = variants._restricted_schedule(ds, spec, plan)
    else:
        plan = build_uniform(ds.n, a)
        params = schedule_thm5(ds, spec, plan)
    # a small tau lam: a planted weight needs some 20 steps to cross 0
    params = dataclasses.replace(params, tau=0.01 / spec.lam)
    primal = np.flatnonzero(np.arange(ds.d) % 4 != 1) if coords else None
    return plan, params, primal


@pytest.mark.parametrize("case", list(CASES))
def test_blocks_match_the_step_by_step_iteration(highd, case, monkeypatch):
    ds, spec = highd
    a = CASES[case]["a"]
    plan, params, primal = _setup(highd, **CASES[case])
    spy = _Spy(monkeypatch)
    new, old = init_state(ds), init_state(ds)
    rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
    indptr, indices, _ = ds.csr_arrays()
    # the supports of a tenth of the rows each, so that a block's first draw
    # often meets the watched weights and its later draws mostly do not
    far = np.unique(indices[indptr[0]:indptr[ds.n // 10]])
    near = np.setdiff1d(indices[indptr[ds.n // 2]:indptr[ds.n // 2 + ds.n // 10]], far)
    for _ in range(6):
        for chunk in CHUNKS:
            core.iterate(new, params, ds, spec, rng_new, chunk, primal)
            for _ in range(chunk):
                ref.reference_adaspdc_step(old, params, plan, ds, spec, a, rng_old, primal)
            assert_same(new, old, rng_new, rng_old)
            if chunk >= 40:
                for state in (new, old):
                    _plant(state, spec, params.tau, far, near)
    # blocks of many iterations ran, and each watch branch fired in them: a
    # first-round flip re-anchored one iteration later inside the block, a
    # flip of a drawn support's re-anchor one iteration later, and chains of
    # re-anchors over several iterations
    assert max(spy.lengths) >= 5, spy.lengths
    assert sum(n for m, n in spy.lengths.items() if m > 1) > 50, spy.lengths
    for branch in ("first round", "one later", "chain"):
        assert spy.fired[branch] > 0, (branch, spy.fired, spy.rounds)


def test_one_iteration_is_a_block_of_one(highd, monkeypatch):
    ds, spec = highd
    _, params, _ = _setup(highd, 1)
    spy = _Spy(monkeypatch)
    state, rng = init_state(ds), np.random.default_rng(0)
    for _ in range(300):
        core.iterate(state, params, ds, spec, rng, 1)
    assert set(spy.lengths) == {1}
    assert spy.lengths[1] == 300 - 1  # the first pass anchors every weight anew


def test_a_block_ends_at_the_first_draw_that_meets_it(highd, monkeypatch):
    ds, spec = highd
    _, params, _ = _setup(highd, 1)
    state, rng = init_state(ds), np.random.default_rng(1)
    core.iterate(state, params, ds, spec, rng, 5)
    indptr, indices, _ = ds.csr_arrays()
    blocks = []
    real = core._Anchors.prepare

    def recorded(anchors, *args):
        claimed = set(_due(anchors).tolist())
        draws, bars = real(anchors, *args)
        blocks.append((claimed, draws.tolist(), anchors.pending))
        return draws, bars
    monkeypatch.setattr(core._Anchors, "prepare", recorded)
    core.iterate(state, params, ds, spec, rng, 400)
    assert sum(len(draws) for _, draws, _ in blocks) == 400
    for k, (claimed, draws, pending) in enumerate(blocks):
        supports = [set(indices[indptr[i]:indptr[i + 1]].tolist()) for i in draws]
        claimed |= supports[0]
        for s in supports[1:]:
            assert not s & claimed  # a later draw meets nothing the block claimed
            claimed |= s
        if pending is not None:  # the draw that met the block opens the next
            i = int(pending[0])
            assert set(indices[indptr[i]:indptr[i + 1]].tolist()) & claimed
            assert blocks[k + 1][1][0] == i
        else:
            assert k == len(blocks) - 1
