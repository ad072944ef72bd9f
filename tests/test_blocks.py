"""Anchored iterations in blocks against the frozen step-by-step iteration.

From d = ``core._LAZY_MIN_D`` on, ``core.iterate`` runs consecutive
iterations as one block while each new draw's support is disjoint from the
block's.  A call on the rows of k iterations must leave everything as k
steps of the frozen copy in ``tests/reference_runs.py`` on slices of the
same rows do: the iterates, the cache, and the anchors' values, laws and
anchor iterations, bit for bit, and the weights due at the next iteration,
whatever the chunk lengths.  Below ``core._LAZY_MIN_D`` every step takes the
whole-vector passes, on the constants ``core.iterate`` gathers once per
call; they too must leave everything as the frozen steps do.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from spdc import core, variants
from spdc.core import init_state, schedule_thm5
from spdc.datamat import lambda_max
from spdc.objective import ProblemSpec
from spdc.sampling import build_restricted, build_uniform, draw_batch

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


def assert_same(new, old):
    assert new.iter == old.iter
    assert new.last_batch == {} and old.last_batch == {}
    for key in ("alpha", "v_cache", "w", "w_prev", "w_bar"):
        assert getattr(new, key).tobytes() == getattr(old, key).tobytes(), key
    a, b = new._anchors, old._anchors
    assert (a is None) == (b is None)
    if a is not None:
        for key in ("B", "W", "t0"):
            assert getattr(a, key).tobytes() == getattr(b, key).tobytes(), key
        assert np.array_equal(_due(a), _due(b))
        assert all(np.all(due == new.iter) for _, due in a.due)
        assert a.block is None


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


def _step_both(new, old, params, plan, ds, spec, rows, primal):
    """One call of the library on ``rows`` and frozen steps on its slices."""
    a = plan.batch
    core.iterate(new, params, ds, spec, rows, primal_coords=primal)
    for j in range(0, len(rows), a):
        ref.reference_adaspdc_step(old, params, plan, ds, spec, a, rows[j:j + a], primal)
    assert_same(new, old)


@pytest.mark.parametrize("case", list(CASES))
def test_blocks_match_the_step_by_step_iteration(highd, case, monkeypatch):
    ds, spec = highd
    plan, params, primal = _setup(highd, **CASES[case])
    spy = _Spy(monkeypatch)
    new, old = init_state(ds), init_state(ds)
    rng = np.random.default_rng(3)
    indptr, indices, _ = ds.csr_arrays()
    # the supports of a tenth of the rows each, so that a block's first draw
    # often meets the watched weights and its later draws mostly do not
    far = np.unique(indices[indptr[0]:indptr[ds.n // 10]])
    near = np.setdiff1d(indices[indptr[ds.n // 2]:indptr[ds.n // 2 + ds.n // 10]], far)
    for _ in range(6):
        for chunk in CHUNKS:
            _step_both(new, old, params, plan, ds, spec, draw_batch(plan, rng, chunk), primal)
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
    plan, params, _ = _setup(highd, 1)
    state, rng = init_state(ds), np.random.default_rng(1)
    core.iterate(state, params, ds, spec, draw_batch(plan, rng, 5))
    indptr, indices, _ = ds.csr_arrays()
    blocks = []
    real = core._Anchors.prepare

    def recorded(anchors, cols, consts, at, a, k, t):
        claimed = set(_due(anchors).tolist())
        stop, bars = real(anchors, cols, consts, at, a, k, t)
        # the draw that met the block, if it ended before its k draws
        met = consts[0][stop] if stop < at + k * a else None
        blocks.append((claimed, consts[0][at:stop], met))
        return stop, bars
    monkeypatch.setattr(core._Anchors, "prepare", recorded)
    rows = draw_batch(plan, rng, 400)
    core.iterate(state, params, ds, spec, rows)
    assert [i for _, draws, _ in blocks for i in draws] == rows.tolist()
    for k, (claimed, draws, met) in enumerate(blocks):
        supports = [set(indices[indptr[i]:indptr[i + 1]].tolist()) for i in draws]
        claimed |= supports[0]
        for s in supports[1:]:
            assert not s & claimed  # a later draw meets nothing the block claimed
            claimed |= s
        if met is not None:  # the draw that met the block opens the next
            assert set(indices[indptr[met]:indptr[met + 1]].tolist()) & claimed
            assert blocks[k + 1][1][0] == met
        else:
            assert k == len(blocks) - 1


# d below the anchors' threshold; n = 12 with a = 8 so that batches repeat rows
WHOLE = {
    "a=1": dict(a=1),
    "a=3": dict(a=3),
    "a=8": dict(a=8),
    "restricted a=3": dict(a=3, restricted=True),
    "selection": dict(a=1, coords="half"),
    "selection a=3": dict(a=3, coords="half"),
    "selection of all d": dict(a=3, coords="all"),
    "fixed point": dict(a=1, fixed=True),
}


@pytest.mark.parametrize("case", list(WHOLE))
def test_whole_vector_steps_match_the_step_by_step_iteration(request, case, monkeypatch):
    a, coords = WHOLE[case]["a"], WHOLE[case].get("coords")
    if WHOLE[case].get("fixed"):
        # every drawn dual keeps its value at first: its zero deltas meet -0.0 entries
        ds, spec = request.getfixturevalue("tiny")
        start = request.getfixturevalue("tiny_ref")
    else:
        ds = make_dataset(12, 9, seed=5, density=0.5)
        # a small gamma and lambda: duals pinned at a bound stay put when drawn again
        spec, start = ProblemSpec(gamma=0.1, lam=1e-3 * lambda_max(ds)), init_state(ds)
    assert ds.d < core._LAZY_MIN_D
    if WHOLE[case].get("restricted"):
        plan = build_restricted(np.where(np.arange(ds.n) % 4 == 0, 0.0, 1.0), a)
        params = variants._restricted_schedule(ds, spec, plan)
    else:
        plan = build_uniform(ds.n, a)
        params = core.schedule_thm4(ds, spec, plan)  # thm5 needs a^2 <= n
    primal = {None: None, "half": np.flatnonzero(np.arange(ds.d) % 2 == 0),
              "all": np.arange(ds.d)}[coords]
    seen = Counter()
    dual_pass = core._dual_pass

    def recorded(state, *args):
        before = state.alpha.copy()
        dual_pass(state, *args)
        draws = state.last_draws
        seen["repeated rows"] += len(set(draws)) < len(draws)
        seen["zero deltas"] += sum(bar == before[i] for i, bar in state.last_batch.items())
    monkeypatch.setattr(core, "_dual_pass", recorded)
    new, old = start.copy(), start.copy()
    for state in (new, old):  # a -0.0 entry stays -0.0 until a nonzero delta meets it
        state.v_cache = np.where(np.arange(ds.d) % 2 == 0, -0.0, state.v_cache)
    rng = np.random.default_rng(8)
    for chunk in CHUNKS + CHUNKS:
        _step_both(new, old, params, plan, ds, spec, draw_batch(plan, rng, chunk), primal)
    assert seen["zero deltas"] > 0, seen
    if a > 1:
        assert seen["repeated rows"] > 0, seen
