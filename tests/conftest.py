"""Shared fixtures: random datasets, a tiny problem, and its frozen optimum."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from spdc import core
from spdc.core import init_state, schedule_thm5
from spdc.datamat import SparseDataset
from spdc.objective import ProblemSpec
from spdc.sampling import build_uniform


def make_dataset(n, d, seed, density=0.6, norm_range=(0.7, 1.6),
                 normalize=False) -> SparseDataset:
    """Random classification dataset with controlled row norms and no zero rows."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, d)) * (rng.random((n, d)) < density)
    for i in range(n):
        if not M[i].any():
            M[i, rng.integers(d)] = rng.normal() or 1.0
    norms = np.linalg.norm(M, axis=1)
    targets = rng.uniform(*norm_range, size=n) if not normalize else np.ones(n)
    M *= (targets / norms)[:, None]
    y = np.where(M @ rng.normal(size=d) > 0, 1.0, -1.0)
    return SparseDataset(sp.csr_matrix(M), y)


def untimed(trace):
    """The CSV rows of ``trace`` with the clock column at 0.0, as the CLI
    writes them without timing: two runs' rows then compare in full."""
    return [replace(r, seconds=0.0).csv_row() for r in trace]


def assert_settled(state, ds):
    """The state between steps: no row carries extrapolation and the cache
    is ``(1/n) X^T alpha`` within the checkpoint's bound."""
    assert state.last_batch == {}
    fresh = ds.rmatvec(state.alpha) / ds.n
    scale = max(1.0, float(np.max(np.abs(fresh))))
    assert float(np.max(np.abs(state.v_cache - fresh))) / scale <= 1e-9


def solve_to_fixed_point(ds, spec, seed=0, max_epochs=3000):
    """Run the uniform-sampling solver until the iterate freezes bitwise.

    Returns the frozen state; the prox maps are exact identities there, so it
    serves as the reference optimum for potential and fixed-point tests.
    """
    plan = build_uniform(ds.n, 1)
    params = schedule_thm5(ds, spec, plan)
    state = init_state(ds)
    rng = np.random.default_rng(seed)
    for _ in range(max_epochs):
        w_prev = state.w.copy()
        a_prev = state.alpha.copy()
        for _ in range(ds.n):
            core.iterate(state, params, ds, spec, rng, 1)
        if np.array_equal(state.w, w_prev) and np.array_equal(state.alpha, a_prev):
            break
    return state, plan, params


@pytest.fixture(scope="session")
def tiny():
    """n=20, d=5 dense-ish problem with gamma = lambda = 1."""
    ds = make_dataset(20, 5, seed=42, density=0.8)
    return ds, ProblemSpec(gamma=1.0, lam=1.0)


@pytest.fixture(scope="session")
def tiny_ref(tiny):
    """Frozen optimum of the tiny problem (reference w*, alpha*)."""
    ds, spec = tiny
    state, plan, params = solve_to_fixed_point(ds, spec)
    return state


@pytest.fixture(scope="session")
def small():
    """n=60, d=12 problem with lambda small enough for a nontrivial solution."""
    ds = make_dataset(60, 12, seed=7, density=0.5)
    from spdc.datamat import lambda_max

    return ds, ProblemSpec(gamma=1.0, lam=0.05 * lambda_max(ds))


@pytest.fixture
def draw_log(monkeypatch):
    """Every batch of sampled duals, as ``(plan, draws)``: records the calls
    of ``core.draw_batch``, where every solver step draws its duals."""
    log = []
    draw_batch = core.draw_batch

    def recorded(plan, rng):
        draws = draw_batch(plan, rng)
        log.append((plan, draws.copy()))
        return draws

    monkeypatch.setattr(core, "draw_batch", recorded)
    return log
