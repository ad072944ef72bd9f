"""Primal-dual coordinate iteration loops, step-size rules, and condition checks.

The iteration alternates prox updates of randomly sampled dual coordinates
against extrapolated weights with a full (or block) primal prox pass, plus
momentum extrapolation of the weights.  Step-size rules are named after the
spec's schedule tokens:

* ``thm4``  - per-instance dual steps, any proper p with ``p_i <= 1/a``.
* ``thm5``  - sqrt(n)-boosted variant, ``a <= sqrt(n)`` and ``p_i <= 1/(a*sqrt(n))``.
* ``thm15`` - uniform p with large batches ``a >= sqrt(n)``.
* ``cor18``/``cor19`` - shared scalar dual step (plain SPDC), base / boosted.

All of them, and the restricted rule of the violation-gated runners, are one
formula, :func:`_steps`.

``verify_lemma3`` / ``verify_lemma14`` / ``verify_thm20`` evaluate the
feasibility inequalities that certify geometric contraction of the potential
``delta_t`` for the emitted parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScheduleError
from .objective import ProblemSpec, dual_prox, primal_prox
from .sampling import SamplingPlan, build_uniform, draw_batch

__all__ = [
    "StepParams",
    "SolverState",
    "DspdcConfig",
    "init_state",
    "schedule_thm4",
    "schedule_thm5",
    "schedule_thm15",
    "schedule_vanilla",
    "theta_of",
    "verify_lemma3",
    "verify_lemma14",
    "verify_thm20",
    "adaspdc_step",
    "vanilla_spdc_step",
    "dspdc_step",
    "complexity_estimate",
    "delta_t",
]

# boundary-tight schedules may land exactly on their bounds; comparisons get
# this much relative slack
_RTOL = 1e-12


@dataclass
class StepParams:
    """Solver step sizes: primal step tau, dual steps sigma_i, momentum theta.

    ``r_under`` is ``min_i p_i / ||x_i||``; ``n_eff`` is the instance count the
    rule was built for (smaller than n when sampling is restricted to an
    active subset).
    """

    tau: float
    sigma: np.ndarray
    theta: float
    schedule: str
    r_under: float
    n_eff: int

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.tau <= 0 or np.any(self.sigma <= 0):
            raise ScheduleError("step sizes must be positive")


@dataclass
class _PrimalMemo:
    """What the last primal pass ran with: its parameters, the state arrays
    it left behind (compared by identity so that a rebound attribute shows)
    and ``moved``, the coordinates where it left ``w`` and ``w_prev`` with
    different bits."""

    tau: float
    lam: float
    theta: float
    arrays: tuple
    moved: np.ndarray

    def holds(self, state: "SolverState", tau: float, lam: float, theta: float) -> bool:
        return (self.tau == tau and self.lam == lam and self.theta == theta
                and all(a is b for a, b in zip(self.arrays, _pass_arrays(state))))


@dataclass
class SolverState:
    """Mutable iterate: weights, duals, extrapolations, and the dual-image cache.

    ``v_cache`` tracks ``(1/n) X^T alpha_bar`` incrementally; ``last_batch``
    remembers which dual coordinates carry extrapolation so the next step can
    settle them in O(batch * row nnz).

    ``v_seen`` holds, per weight coordinate, the ``v_cache`` value its last
    primal prox read, or NaN where that prox result is not known to still
    hold.  With it :func:`_primal_pass` skips the coordinates the prox would
    leave bitwise unchanged; it stays None while d is too small for skipping
    to pay.  The pass writes ``w_bar`` and ``v_seen`` in place and reuses the
    old ``w_prev`` array as the new ``w``.  Code outside the solver that edits
    ``w``, ``w_prev``, ``w_bar`` or ``v_cache`` assigns a new float64 array
    to the attribute rather than writing into it; the next pass then sees the
    change and proxes every coordinate, as the first pass of a copy does.
    """

    w: np.ndarray
    w_prev: np.ndarray
    alpha: np.ndarray
    w_bar: np.ndarray
    alpha_bar: np.ndarray
    v_cache: np.ndarray
    iter: int = 0
    last_batch: list = field(default_factory=list)
    last_draws: np.ndarray | None = None
    v_seen: np.ndarray | None = None
    _memo: _PrimalMemo | None = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "SolverState":
        return SolverState(
            w=self.w.copy(),
            w_prev=self.w_prev.copy(),
            alpha=self.alpha.copy(),
            w_bar=self.w_bar.copy(),
            alpha_bar=self.alpha_bar.copy(),
            v_cache=self.v_cache.copy(),
            iter=self.iter,
            last_batch=list(self.last_batch),
            last_draws=None if self.last_draws is None else self.last_draws.copy(),
            v_seen=None if self.v_seen is None else self.v_seen.copy(),
        )

    def cache_error(self, ds) -> float:
        """Relative deviation of v_cache from a fresh (1/n) X^T alpha_bar."""
        fresh = ds.rmatvec(self.alpha_bar) / ds.n
        scale = max(1.0, float(np.max(np.abs(fresh))))
        return float(np.max(np.abs(self.v_cache - fresh))) / scale


def init_state(ds) -> SolverState:
    """Zero-initialized state (dual-feasible: y_i * 0 = 0 in [0, 1])."""
    return SolverState(
        w=np.zeros(ds.d),
        w_prev=np.zeros(ds.d),
        alpha=np.zeros(ds.n),
        w_bar=np.zeros(ds.d),
        alpha_bar=np.zeros(ds.n),
        v_cache=np.zeros(ds.d),
    )


@dataclass(frozen=True)
class DspdcConfig:
    """Primal block partition and block probabilities for the doubly stochastic loop.

    ``[d]`` is split into ``d mod b`` blocks of size ``b+1`` followed by
    ``floor(d/b) - (d mod b)`` blocks of size ``b``.  ``cum_q`` is
    ``cumsum(q)``, the table a block draw searches, derived from ``q``.
    """

    b: int
    q: np.ndarray
    blocks: tuple
    cum_q: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cum_q", np.cumsum(self.q))

    @staticmethod
    def build(d: int, b: int, q=None) -> "DspdcConfig":
        if not 1 <= b <= d:
            raise ValueError(f"block size {b} must lie in [1, {d}]")
        n_blocks = d // b
        n_big = d % b
        sizes = [b + 1] * n_big + [b] * (n_blocks - n_big)
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(np.arange(start, start + s))
            start += s
        assert start == d
        if q is None:
            q = np.full(n_blocks, 1.0 / n_blocks)
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (n_blocks,) or np.any(q <= 0) or abs(q.sum() - 1.0) > 1e-9:
            raise ValueError("q must be a positive probability vector over the blocks")
        return DspdcConfig(b=b, q=q, blocks=tuple(blocks))

    def block_norms_sq(self, ds) -> np.ndarray:
        """Per instance, the max over blocks of the squared row norm within the block."""
        block_id = np.empty(ds.d, dtype=np.intp)
        for h, blk in enumerate(self.blocks):
            block_id[blk] = h
        out = np.empty(ds.n)
        nb = len(self.blocks)
        for i in range(ds.n):
            idx, vals = ds.row(i)
            sums = np.bincount(block_id[idx], weights=vals * vals, minlength=nb)
            out[i] = sums.max()
        return out


def _check_cap(p: np.ndarray, cap: float, what: str) -> None:
    bad = np.flatnonzero(p > cap * (1.0 + _RTOL))
    if bad.size:
        i = int(bad[0])
        raise ScheduleError(
            f"{what}: p[{i}]={p[i]:.6g} exceeds the cap {cap:.6g}"
        )
    if np.any(p <= 0.0):
        i = int(np.flatnonzero(p <= 0.0)[0])
        raise ScheduleError(f"{what}: p[{i}] is not strictly positive")


def _supported(plan: SamplingPlan, *arrays):
    """``plan.p`` and each of ``arrays`` on the entries with nonzero probability."""
    active = plan.p > 0.0
    return (plan.p[active], *(x[active] for x in arrays))


def _r_under(p: np.ndarray, norms: np.ndarray) -> float:
    return float(np.min(p / norms))


def _steps(spec: ProblemSpec, k: int, tau_half, sigma_half):
    """The step-size formula of every rule:
    ``tau = tau_half sqrt(k gamma/lam)``, ``sigma_i = sigma_half_i sqrt(k lam/gamma)``.

    ``k`` is 1 for the base rules and the instance count for the
    sqrt(n)-boosted ones; the halves are ``a x/2`` and ``n x_i/2`` for the
    rule's ``x`` (``R_under``, ``p_i/||x_i||`` or ``1/(a ||x_i||)``), computed
    by the caller in the rule's own expression order, which fixes the bits.
    """
    return (tau_half * math.sqrt(k * spec.gamma / spec.lam),
            sigma_half * math.sqrt(k * spec.lam / spec.gamma))


def _theta(spec: ProblemSpec, tau: float, a: int, n: int, p, sigma) -> float:
    t1 = 1.0 - 1.0 / (1.0 + 1.0 / (2.0 * tau * spec.lam))
    t2 = 1.0 - 1.0 / np.max(1.0 / (a * p) + n / (2.0 * a * sigma * spec.gamma))
    return max(t1, float(t2))


def theta_of(params: StepParams, plan: SamplingPlan, spec: ProblemSpec, n: int) -> float:
    """Momentum factor: the slower of the primal and dual contraction rates.

    ``theta = max(1 - 1/(1 + 1/(2 tau lam)),
                  1 - 1/max_i(1/(a p_i) + n/(2 a sigma_i gamma)))``,
    always in (0, 1).  Entries with zero probability are excluded.
    """
    p, sigma = _supported(plan, params.sigma)
    return _theta(spec, params.tau, plan.batch, n, p, sigma)


# rules on a given plan: schedule -> (sqrt(n)-boosted, shared scalar sigma)
_PLAN_RULES = {"thm4": (False, False), "thm5": (True, False),
               "cor18": (False, True), "cor19": (True, True)}


def _plan_rule(schedule: str, ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    boosted, shared = _PLAN_RULES[schedule]
    a = plan.batch
    n = ds.n
    if boosted:
        if a * a > n:
            raise ScheduleError(f"{schedule} requires a <= sqrt(n); got a={a}, n={n}")
        _check_cap(plan.p, 1.0 / (a * math.sqrt(n)), schedule)
    else:
        _check_cap(plan.p, 1.0 / a, schedule)
    ru = _r_under(plan.p, ds.row_norms)
    sigma_half = n * ru / 2.0 if shared else n * plan.p / (2.0 * ds.row_norms)
    tau, sigma = _steps(spec, n if boosted else 1, a * ru / 2.0, sigma_half)
    params = StepParams(tau=tau, sigma=np.full(n, sigma) if shared else sigma, theta=0.5,
                        schedule=schedule, r_under=ru, n_eff=n)
    params.theta = theta_of(params, plan, spec, n)
    return params


def schedule_thm4(ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    """Per-instance rule for any proper p with ``p_i <= 1/a``.

    ``tau = (a R_under / 2) sqrt(gamma/lam)``,
    ``sigma_i = (n p_i / (2||x_i||)) sqrt(lam/gamma)``.
    """
    return _plan_rule("thm4", ds, spec, plan)


def schedule_thm5(ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    """sqrt(n)-boosted per-instance rule: ``a <= sqrt(n)``, ``p_i <= 1/(a sqrt(n))``.

    ``tau = (a R_under / 2) sqrt(n gamma/lam)``,
    ``sigma_i = (n p_i / (2||x_i||)) sqrt(n lam/gamma)``.
    """
    return _plan_rule("thm5", ds, spec, plan)


def schedule_thm15(ds, spec: ProblemSpec, a: int) -> StepParams:
    """Large-batch uniform rule: ``a >= sqrt(n)``.

    ``tau = (1/(2R)) sqrt(gamma/lam)`` with ``R = max_i ||x_i||``,
    ``sigma_i = (n / (2 a ||x_i||)) sqrt(lam/gamma)``.
    """
    n = ds.n
    if a * a < n:
        raise ScheduleError(f"thm15 requires a >= sqrt(n); got a={a}, n={n}")
    big_r = float(np.max(ds.row_norms))
    tau, sigma = _steps(spec, 1, 1.0 / (2.0 * big_r), n / (2.0 * a * ds.row_norms))
    plan = build_uniform(n, a)
    ru = _r_under(plan.p, ds.row_norms)
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule="thm15", r_under=ru, n_eff=n)
    params.theta = theta_of(params, plan, spec, n)
    return params


def schedule_vanilla(ds, spec: ProblemSpec, plan: SamplingPlan, scheme: str) -> StepParams:
    """Shared-scalar dual step rules for plain SPDC.

    ``cor18``: ``tau = (a R_under/2) sqrt(gamma/lam)``, ``sigma = (n R_under/2) sqrt(lam/gamma)``
    for ``p_i <= 1/a``.  ``cor19`` carries sqrt(n) factors and needs
    ``a <= sqrt(n)``, ``p_i <= 1/(a sqrt(n))``.
    """
    if scheme not in ("cor18", "cor19"):
        raise ValueError(f"unknown scheme {scheme!r}")
    return _plan_rule(scheme, ds, spec, plan)


def verify_lemma3(params: StepParams, plan: SamplingPlan, ds, a: int):
    """Check the contraction inequality for every instance.

    ``1/(2 a sigma_k) - tau ||x_k||^2 ((1 - a p_k)^2 + theta) / (a p_k n)^2 >= 0``.

    Returns (ok, worst margin); zero-probability coordinates are skipped.
    """
    n = params.n_eff
    p, sigma, norms = _supported(plan, params.sigma, ds.row_norms)
    lhs = 1.0 / (2.0 * a * sigma) - (
        params.tau * norms**2 * ((1.0 - a * p) ** 2 + params.theta) / (a * p * n) ** 2
    )
    worst = float(np.min(lhs))
    return worst >= -_RTOL, worst


def verify_lemma14(params: StepParams, plan: SamplingPlan, ds, a: int) -> bool:
    """Check both step-size product bounds for every instance.

    ``tau sigma_i <= a (p_i n)^2 / (4 ||x_i||^2)`` (squared-norm reading) and
    ``(sum_k ||x_k||^2) / (n^2 / tau) <= 1/(4 a sigma_i)``.
    """
    n = params.n_eff
    p, sigma, norms = _supported(plan, params.sigma, ds.row_norms)
    bound1 = a * (p * n) ** 2 / (4.0 * norms**2)
    ok1 = np.all(params.tau * sigma <= bound1 * (1.0 + _RTOL))
    lhs2 = float(np.sum(norms**2)) / (n * n / params.tau)
    ok2 = np.all(lhs2 <= (1.0 / (4.0 * a * sigma)) * (1.0 + _RTOL))
    return bool(ok1 and ok2)


def verify_thm20(params: StepParams, plan: SamplingPlan, cfg: DspdcConfig, ds,
                 spec: ProblemSpec, a: int, theta_bar: float | None = None):
    """Evaluate the five feasibility clauses of the doubly stochastic loop.

    ``theta_bar`` defaults to the momentum factor.  Returns
    (ok, first failing clause name or None, per-clause margins) where a margin
    is ``theta_bar - value`` for the first four clauses and the worst
    left-hand side for the fifth.
    """
    if theta_bar is None:
        theta_bar = params.theta
    n = ds.n
    d = ds.d
    tau = params.tau
    theta = params.theta
    sizes = np.array([len(b) for b in cfg.blocks], dtype=np.float64)
    q = cfg.q
    lam = spec.lam
    gamma = spec.gamma

    a_blk = d / (2.0 * tau * sizes)
    clause1 = float(np.max((a_blk + lam * (1.0 - q) / q) / (a_blk + lam / q)))

    p, sigma, lam_k = _supported(plan, params.sigma, cfg.block_norms_sq(ds))
    dual_num = 1.0 / (2.0 * sigma) + (1.0 - a * p) * gamma / (p * n)
    dual_den = 1.0 / (2.0 * sigma) + gamma / (p * n)
    clause2 = float(np.max(dual_num / dual_den))

    qmax = float(np.max(q))
    clause3 = theta * qmax
    clause4 = theta * qmax

    qmin = float(np.min(q))
    lhs5 = 1.0 / (2.0 * a * sigma) - (
        ((1.0 - a * p) ** 2 / qmin + theta) * tau * lam_k / (a * p * n) ** 2
    )
    clause5 = float(np.min(lhs5))

    margins = {
        "clause1_primal_rate": theta_bar - clause1,
        "clause2_dual_rate": theta_bar - clause2,
        "clause3_cross_term": theta_bar - clause3,
        "clause4_momentum_term": theta_bar - clause4,
        "clause5_step_product": clause5,
    }
    tol = _RTOL * max(1.0, abs(theta_bar))
    failing = None
    for name, margin in margins.items():
        if margin < -tol:
            failing = name
            break
    return failing is None, failing, margins


def _settle_alpha_bar(state: SolverState, ds) -> None:
    """Collapse the previous step's dual extrapolation back onto alpha."""
    n = ds.n
    indptr, indices, data = ds.csr_arrays()
    alpha, alpha_bar = state.alpha, state.alpha_bar
    for i in state.last_batch:
        a_i = alpha.item(i)
        delta = a_i - alpha_bar.item(i)
        if delta != 0.0:
            lo, hi = indptr[i], indptr[i + 1]
            state.v_cache[indices[lo:hi]] += (delta / n) * data[lo:hi]
            alpha_bar[i] = a_i
    state.last_batch = []


def _dual_pass(state: SolverState, params: StepParams, plan: SamplingPlan, ds,
               spec: ProblemSpec, a: int, rng: np.random.Generator) -> None:
    """Sample and prox ``a`` dual coordinates, then extrapolate them into the cache.

    Draws are processed sequentially in draw order, so a repeated index sees
    the value left by the earlier draw.  The extrapolation applies the net
    per-coordinate change amplified against the sampling probability,
    ``alpha_bar_i = alpha_i + (net change)/(a p_i)``, which makes the dual
    image fed to the primal prox unbiased for a full synchronous pass.

    The scalar arithmetic runs on Python floats, which round as numpy's
    float64 scalars do, at a fraction of their per-operation cost.
    """
    n = ds.n
    n_eff = params.n_eff
    gamma = spec.gamma
    alpha = state.alpha
    alpha_bar = state.alpha_bar
    w_bar = state.w_bar
    p = plan.p
    sigma = params.sigma
    indptr, indices, data = ds.csr_arrays()
    labels = ds.labels

    _settle_alpha_bar(state, ds)
    draws = draw_batch(plan, rng)
    start_vals: dict[int, float] = {}
    for i in draws.tolist():
        old = alpha.item(i)
        if i not in start_vals:
            start_vals[i] = old
        lo, hi = indptr[i], indptr[i + 1]
        s = float(np.dot(data[lo:hi], w_bar[indices[lo:hi]]))
        q = p.item(i) * n_eff / sigma.item(i)
        alpha[i] = dual_prox(s, old, q, labels.item(i), gamma)

    for i, a0 in start_vals.items():
        bar = a0 + (alpha.item(i) - a0) / (a * p.item(i))
        delta = bar - alpha_bar.item(i)
        if delta != 0.0:
            lo, hi = indptr[i], indptr[i + 1]
            state.v_cache[indices[lo:hi]] += (delta / n) * data[lo:hi]
        alpha_bar[i] = bar
    state.last_batch = list(start_vals)
    state.last_draws = draws


def _pass_arrays(state: SolverState) -> tuple:
    return state.w, state.w_prev, state.w_bar, state.v_cache, state.v_seen


# The skipping pass makes a dozen more numpy calls than the whole-vector pass
# and saves work per skipped coordinate.  Timed alone on one core of a 2-core
# Xeon VM (numpy 2.4): below d=1000 it never wins, from d=3000 it wins while
# at most a quarter of the coordinates move.
_SKIP_MIN_D = 2000
_SKIP_MAX_SHARE = 0.25


def _primal_pass(state: SolverState, tau: float, lam: float, theta: float,
                 primal_coords=None) -> None:
    """Prox the selected weight coordinates, then extrapolate the full vector.

    The result is bitwise that of proxing every selected coordinate, but for
    large d only the moving coordinates are computed.  A coordinate is
    skipped when ``w_j`` and ``w_prev_j`` have equal bits, ``v_cache_j``
    equals ``v_seen_j`` (or the coordinate is not selected), and ``tau``,
    ``lam``, ``theta`` and the state arrays are the ones the previous pass
    used.  The prox is a pure function of ``(v_cache_j, w_j, tau, lam)`` whose
    last call returned ``w_j`` itself, so the whole-vector pass would rewrite
    ``w_j``, ``w_prev_j`` and ``w_bar_j`` unchanged; exact fixed points stay
    frozen.  The coordinates where ``w`` and ``w_prev`` differ are carried
    from pass to pass, so only the ``v_cache`` test scans the vector.  When
    the parameters or arrays differ, more than a quarter of the coordinates
    move, or d is below ``_SKIP_MIN_D``, the whole vector is proxed.
    """
    d = state.w.size
    if primal_coords is not None and len(primal_coords) == d:
        primal_coords = None  # a block spanning every coordinate is the full pass
    memo = state._memo
    if memo is not None and memo.holds(state, tau, lam, theta):
        moving, prox = _moving_coords(state, memo.moved, primal_coords)
        if moving.size <= _SKIP_MAX_SHARE * d:
            _sparse_primal_pass(state, tau, lam, theta, moving, prox)
            return
    _dense_primal_pass(state, tau, lam, theta, primal_coords)


def _moving_coords(state: SolverState, moved, primal_coords):
    """Coordinates the pass must write, each once: ``moved`` and the selected
    ones whose ``v_cache`` changed since their last prox.  Also which of them
    it must prox: a mask over them, or None for all of them."""
    v, v_seen = state.v_cache, state.v_seen
    if primal_coords is None:
        hits = (v != v_seen).nonzero()[0]
    else:
        coords = np.asarray(primal_coords)
        hits = coords[v[coords] != v_seen[coords]]
    # a hit whose w and w_prev differ is in ``moved`` already
    hits = hits[state.w.view(np.int64)[hits] == state.w_prev.view(np.int64)[hits]]
    moving = np.concatenate((moved, hits))
    if primal_coords is None:
        return moving, None
    selected = np.zeros(v.size, dtype=bool)
    selected[coords] = True
    return moving, selected[moving]


def _sparse_primal_pass(state: SolverState, tau, lam, theta, moving, prox) -> None:
    w_old, w_new = state.w, state.w_prev  # w_prev equals w off ``moving``
    old = w_old[moving]
    u = state.v_cache[moving]
    if prox is None:
        new = primal_prox(u, old, tau, lam)
        seen = u
    else:
        new = old.copy()
        new[prox] = primal_prox(u[prox], old[prox], tau, lam)
        # a moving coordinate left unproxed has no prox result that still holds
        seen = np.full(moving.size, np.nan)
        seen[prox] = u[prox]
    w_new[moving] = new
    state.w_bar[moving] = new + theta * (new - old)
    state.v_seen[moving] = seen
    state.w_prev = w_old
    state.w = w_new
    state.iter += 1
    memo = state._memo
    memo.arrays = _pass_arrays(state)
    memo.moved = moving[new.view(np.int64) != old.view(np.int64)]


def _dense_primal_pass(state: SolverState, tau, lam, theta, primal_coords) -> None:
    w_old = state.w
    v = state.v_cache
    if primal_coords is None:
        w_new = primal_prox(v, w_old, tau, lam)
    else:
        w_new = w_old.copy()
        w_new[primal_coords] = primal_prox(v[primal_coords], w_old[primal_coords], tau, lam)
    state.w_prev = w_old
    state.w = w_new
    state.w_bar = w_new + theta * (w_new - w_old)
    state.iter += 1
    # set up the next pass to skip, when it is large and few weights moved
    state._memo = None
    d = w_new.size
    if d < _SKIP_MIN_D or w_old.dtype != np.float64:
        return
    moved = (w_new.view(np.int64) != w_old.view(np.int64)).nonzero()[0]
    if moved.size <= _SKIP_MAX_SHARE * d:
        if primal_coords is None:
            state.v_seen = v.copy()
        else:
            state.v_seen = np.full(d, np.nan)
            state.v_seen[primal_coords] = v[primal_coords]
        state._memo = _PrimalMemo(tau, lam, theta, _pass_arrays(state), moved)


def adaspdc_step(state: SolverState, params: StepParams, plan: SamplingPlan, ds,
                 spec: ProblemSpec, a: int, rng: np.random.Generator,
                 primal_coords=None) -> SolverState:
    """One iteration with per-instance dual step sizes."""
    _dual_pass(state, params, plan, ds, spec, a, rng)
    _primal_pass(state, params.tau, spec.lam, params.theta, primal_coords)
    return state


# one iteration with a shared scalar dual step size: the shared-sigma rules
# make every sigma_i equal, so it is the per-instance iteration
vanilla_spdc_step = adaspdc_step


def dspdc_step(state, params, plan, cfg: DspdcConfig, ds, spec, a,
               rng: np.random.Generator) -> SolverState:
    """Doubly stochastic iteration: dual update plus one random primal block.

    The primal prox runs only on the drawn block ``M_h`` with effective step
    ``tau * |M_h| / (q_h * d)``; other coordinates are unchanged.  Weight
    extrapolation spans the full vector.
    """
    _dual_pass(state, params, plan, ds, spec, a, rng)
    h = int(np.searchsorted(cfg.cum_q, rng.random(), side="right"))
    h = min(h, len(cfg.blocks) - 1)
    block = cfg.blocks[h]
    tau_eff = params.tau * (block.size / (cfg.q[h] * ds.d))
    _primal_pass(state, tau_eff, spec.lam, params.theta, primal_coords=block)
    return state


def complexity_estimate(ds, spec: ProblemSpec, plan: SamplingPlan, a: int,
                        schedule: str) -> float:
    """Dominant iteration-count factor for the given rule and plan."""
    n = ds.n
    p = plan.p
    norms = ds.row_norms
    lg = spec.lam * spec.gamma
    if schedule == "thm15":
        return n / a + float(np.max(norms)) / math.sqrt(lg)
    if schedule not in _PLAN_RULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    boosted, shared = _PLAN_RULES[schedule]
    root = math.sqrt((n if boosted else 1) * lg)
    if shared:
        return float(np.max(1.0 / (a * p))) + 1.0 / (_r_under(p, norms) * a * root)
    return float(np.max(1.0 / (a * p) + norms / (p * a * root)))


def delta_t(state: SolverState, ref_w, ref_alpha, params: StepParams,
            plan: SamplingPlan, ds, spec: ProblemSpec, a: int) -> float:
    """Potential combining primal/dual distances to a reference optimum.

    ``(1/(2 tau) + lam) |w - w*|^2
      + sum_i (1/(2 sigma_i) + gamma/(n p_i)) (alpha_i - alpha_i*)^2 / a
      + |w - w_prev|^2 / (4 tau)
      - (alpha - alpha*)^T X (w - w_prev) / n``.

    A valid schedule contracts its expectation by the momentum factor per step.
    """
    n = params.n_eff
    active = plan.p > 0.0
    dw = state.w - ref_w
    da = state.alpha - ref_alpha
    dprev = state.w - state.w_prev
    coeff = 1.0 / (2.0 * params.sigma[active]) + spec.gamma / (n * plan.p[active])
    val = (1.0 / (2.0 * params.tau) + spec.lam) * float(np.dot(dw, dw))
    val += float(np.sum(coeff * da[active] ** 2)) / a
    val += float(np.dot(dprev, dprev)) / (4.0 * params.tau)
    val -= float(np.dot(da, ds.matvec(dprev))) / ds.n
    return val
