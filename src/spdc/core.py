"""Primal-dual coordinate iteration loops, step-size rules, and condition checks.

The iteration alternates prox updates of randomly sampled dual coordinates
against extrapolated weights with a primal prox pass over all weights (or a
selection of them), plus momentum extrapolation of the weights; one kernel,
:func:`_scatter`, adds the duals' changes into the dual image.  Step-size
rules are named after the spec's schedule tokens:

* ``thm4``  - per-instance dual steps, any proper p with ``p_i <= 1/a``.
* ``thm5``  - sqrt(n)-boosted variant, ``a <= sqrt(n)`` and ``p_i <= 1/(a*sqrt(n))``.
* ``thm15`` - uniform p with large batches ``a >= sqrt(n)``.
* ``cor18``/``cor19`` - shared scalar dual step (plain SPDC), base / boosted.

Every rule takes a sampling plan for the dataset's n instances.  All of
them, and the restricted rule of the violation-gated runners, are one
formula, :func:`_steps`; all but ``thm15`` are also one assembly of that
formula over the plan's support, :func:`_support_rule`.  A rule's
:class:`StepParams` carry the plan, so the iterations draw from it and
everything else reads its ``p`` and batch size ``a`` there.

``verify_lemma3`` / ``verify_lemma14`` / ``verify_thm20`` evaluate the
feasibility inequalities that certify geometric contraction of the paper's
primal-dual potential for the emitted parameters; ``verify_thm20`` is the
doubly stochastic loop's check for its one primal block, the full primal
step, with which that loop's iteration is plain SPDC's: its five clauses are
theta's two rates, theta itself twice, and Lemma 3.

From d = ``_LAZY_MIN_D`` on, the primal pass costs O(row nnz), not O(d): it
keeps each weight as an anchor with a closed-form law (:class:`_Anchors`)
and re-anchors only those whose dual image changed or whose phase may end,
and :func:`iterate` runs blocks of draws with disjoint supports in one go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ScheduleError
from .objective import ProblemSpec, dual_prox, primal_prox
from .sampling import SamplingPlan, draw_batch

__all__ = [
    "StepParams",
    "SolverState",
    "init_state",
    "schedule_thm4",
    "schedule_thm5",
    "schedule_thm15",
    "schedule_vanilla",
    "verify_lemma3",
    "verify_lemma14",
    "verify_thm20",
    "iterate",
    "complexity_estimate",
]

# boundary-tight schedules may land exactly on their bounds; comparisons get
# this much relative slack
_RTOL = 1e-12


@dataclass
class StepParams:
    """Solver step sizes: primal step tau, dual steps sigma_i, momentum theta.

    ``plan`` is the sampling they were derived for, its probabilities and
    batch size ``a``: the iterations draw from it and the conditions are
    checked on it.  ``r_under`` is ``min_i p_i / ||x_i||``; ``n_eff`` is the
    instance count the rule was built for (smaller than n when sampling is
    restricted to an active subset).
    """

    tau: float
    sigma: np.ndarray
    theta: float
    schedule: str
    r_under: float
    n_eff: int
    plan: SamplingPlan

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=np.float64)


class _Anchors:
    """Each weight of a large state as an anchor: its value ``B`` at the
    iteration it was anchored at and the law it follows from there.

    While ``v_cache_j``, ``tau`` and ``lam`` stay fixed, the prox of weight j
    is affine in each phase of ``s = v_j + w/tau``: above ``lam``,
    ``w' = c w + (1-c) W`` with ``c = 1/(1 + tau lam)``, ``W = v_j/lam - 1``,
    and ``w' > 0``; below ``-lam`` the mirror image; in the dead zone 0.  So
    k steps on, weight j reads ``W + c^k (B - W)`` clipped at 0 on its
    phase's side (the sign of ``t0``, the anchor iteration plus one), and
    one whose ``W`` lies across 0 stays at 0 as the dead zone does.  A
    dead-zone anchor's ``W = -B (1 + 1/(tau lam))`` clips to 0 in one step.
    Other laws end on ``W = soft(v_j/lam, 1)``, where the whole-vector
    prox's keep rule freezes a weight, bit for bit once ``c^k |B - W|`` is
    below half an ulp.  A restricted selection freezes the others: ``W = B``.

    Each weight is re-anchored at the iteration it is ``due`` at: an
    iteration's drawn supports at it, and again at the next on the settled
    cache, and a law that may leave its phase at the next iteration: a live
    one whose ``W`` lies beyond ``lam`` across 0, a nonzero dead-zone one
    whose ``v_j`` lies outside the dead zone.  No law is read past its
    phase, and reads change nothing, so they cannot change a run.

    Iterations run in blocks, a phase per pass (:meth:`prepare`,
    :meth:`advance`, :meth:`settle`) whose later draws' supports miss the
    block's draws and due weights: each weight gets the law and anchor
    evaluations of the iterations one at a time, a phase's in one call.
    """

    def __init__(self, w, v_cache, t: int, tau: float, lam: float, theta: float,
                 primal_coords):
        d = v_cache.size
        self.params, self.v = (tau, lam, theta), v_cache
        # numpy scalars: their arithmetic with small arrays costs less
        self.tau, self.lam, self.theta = np.float64(tau), np.float64(lam), np.float64(theta)
        self.c = np.float64(1.0 / (1.0 + tau * lam))
        self.kill = np.float64(-1.0 - 1.0 / (tau * lam))
        self.frozen = None if primal_coords is None else np.ones(d, dtype=bool)
        if self.frozen is not None:
            self.frozen[primal_coords] = False
        self.B, self.W, self.t0 = np.array(w, dtype=np.float64), np.empty(d), np.empty(d, np.int32)
        # due: (weights, the iteration each is due at); block: the prepared
        # block; pending: a draw that met the block, which opens the next one
        self.due, self.cached, self.block, self.pending = [], {}, None, None
        for lo in range(0, d, _CHUNK):
            self._anchor(slice(lo, lo + _CHUNK), self.B[lo:lo + _CHUNK], np.int32(t))

    def prepare(self, indptr, indices, draw, k: int, t: int):
        """The dual pass's phase from iteration t: up to k draws of ``draw()``,
        and the first round's weights, the due ones at t and each drawn
        support at its iteration.  Returns the draws and ``{row: w_bar}``."""
        parts, self.due = [i for i, _ in self.due], []
        if len(parts) > 1:  # a weight may be due twice over: watched and settled
            parts = [np.unique(np.concatenate(parts))]
        first = size = sum(map(len, parts))
        claimed = set(_cat(parts).tolist()) if parts and k > 1 else set()
        draws, spans, ends = [], [], []
        while len(draws) < k:
            batch, self.pending = draw() if self.pending is None else self.pending, None
            rows = list(dict.fromkeys(batch.tolist()))
            cols = [indices[indptr[i]:indptr[i + 1]] for i in rows]
            if k > 1:
                new = _cat(cols).tolist()
                if draws and not claimed.isdisjoint(new):
                    self.pending = batch
                    break
                claimed.update(new)
            for i, c in zip(rows, cols):
                spans.append((i, size, size + c.size))
                size += c.size
            draws.append(batch)
            parts += cols
            ends.append(size)
        idx, m = _cat(parts), len(draws)
        its = np.int32(t) if m == 1 else np.repeat(np.arange(t, t + m, dtype=np.int32),
                                                   [b - a for a, b in zip([0] + ends, ends)])
        w, _, w_bar = self._law(idx, its, bar=True)
        self.block = (idx, w, its, first, ends[-2] if m > 1 else first, m)
        return _cat(draws), {i: w_bar[lo:hi] for i, lo, hi in spans}

    def advance(self, t: int) -> int:
        """The primal pass's phase: anchor the first round, watching all but the
        drawn supports, or with no block the weights due at t.  Returns its length."""
        self.cached = {}
        if self.block is None:
            self._chain(np.int32(t + 1))
            return 1
        idx, w, its, first, _, m = self.block
        self._anchor(idx, w, its, idx.size - first)
        return m

    def settle(self, rows, t: int) -> None:
        """The settle's phase at the block's end t, on the settled cache: each
        drawn support falls due one iteration on, and the weights due before
        t are re-anchored.  With no block, the ``rows`` (read only then) fall due at t."""
        block, self.block, self.cached = self.block, None, {}
        if block is not None:
            idx, _, its, first, last, m = block
            if m > 1:
                self.due.append((idx[first:last], its[first:last] + _ONE32))
                self._chain(np.int32(t))
            rows = [idx[last:]]
        else:
            rows = list(rows)
        if rows:
            idx = _cat(rows)
            self.due.append((idx, np.full(idx.size, t, dtype=np.int32)))

    def _chain(self, end) -> None:
        """Re-anchor each due weight at its iteration, while that is before
        ``end``; a re-anchor may make it due one iteration later.  A weight's
        entries share one due iteration, so each round takes all that are due."""
        while self.due:
            idx = _cat([i for i, _ in self.due])
            due = _cat([u for _, u in self.due])
            now = due < end
            if not now.any():
                return
            self.due = [] if now.all() else [(idx[~now], due[~now])]
            idx, due = idx[now], due[now]
            self._anchor(idx, self._law(idx, due)[0], due)

    def view(self, t: int, slot: int) -> np.ndarray:
        """``w``, ``w_prev`` or ``w_bar`` (slot 0, 1, 2) at iteration t: a new
        array, the same for every read at t, made ``_CHUNK`` weights at a time."""
        if self.cached.get("t") != t:
            self.cached = {"t": t}
        if slot not in self.cached:
            slots = (0,) if slot == 0 else (0, 1, 2)
            out = [np.empty(self.B.size) for _ in slots]
            for lo in range(0, self.B.size, _CHUNK):
                for o, x in zip(out, self._law(slice(lo, lo + _CHUNK), np.int32(t), slot != 0)):
                    o[lo:lo + _CHUNK] = x
            self.cached.update(zip(slots, out))
        return self.cached[slot]

    def _law(self, idx, t, bar: bool = False):
        """The weights of the coordinates ``idx`` at iteration t (an int32,
        or one per entry), anchored before it; with ``bar``, also at t-1 and
        the extrapolation."""
        t0 = self.t0[idx]
        up = t0 > _ZERO32
        e = np.abs(t0)
        np.subtract(t + _ONE32, e, out=e)
        W, B = self.W[idx], self.B[idx]
        step = self.c ** e * (B - W)
        w = step + W
        w *= np.signbit(w) != up  # 0 once the law has crossed 0
        if not bar:
            return (w,)
        w_prev = step / self.c + W
        w_prev *= np.signbit(w_prev) != up
        np.copyto(w_prev, B, where=e == _ONE32)
        return w, w_prev, (w - w_prev) * self.theta + w

    def _anchor(self, idx, val, t, fresh: int = 0) -> None:
        """Anchor ``idx`` at iteration t (an int32, or one per entry) on the
        values ``val`` and the current ``v_cache``; those but the last
        ``fresh`` that may change phase fall due one iteration on."""
        lam = self.lam
        u = self.v[idx]
        s = val / self.tau + u
        live = np.abs(s) > lam
        # the side of 0 the law keeps to: the phase's, or a dead-zone weight's
        side = np.sign(np.where(live, s, val))
        W = np.where(live, u / lam - side, val * self.kill)
        # a live law with W beyond lam across 0, or a nonzero dead-zone weight
        # with |u| > lam (it then has the sign of -u), may change phase next
        flip = side * u < -lam
        flip[flip.size - fresh:] = False
        up = t + _ONE32
        t0 = np.where(side < 0.0, -up, up)
        if self.frozen is not None:
            frozen = self.frozen[idx]
            np.copyto(W, val, where=frozen)
            np.copyto(t0, np.where(val < 0.0, -up, up), where=frozen)
            flip &= ~frozen
        self.B[idx], self.W[idx], self.t0[idx] = val, W, t0
        if np.count_nonzero(flip):
            self.due.append((np.flatnonzero(flip) + idx.start if isinstance(idx, slice)
                             else idx[flip], np.broadcast_to(up, flip.shape)[flip]))


_ZERO32, _ONE32 = np.int32(0), np.int32(1)
_CHUNK = 2048  # weights per chunk when all are anchored or read: bounds temporaries


def _weights(slot: int) -> property:
    """A stored weight vector, or the anchors' evaluation; assigning stores all."""
    attr = ("_w", "_w_prev", "_w_bar")[slot]

    def put(self, value):
        self._materialize()
        setattr(self, attr, value)

    return property(lambda self: getattr(self, attr) if self._anchors is None
                    else self._anchors.view(self.iter, slot), put)


class SolverState:
    """Mutable iterate: weights, duals, extrapolated weights, and the dual-image cache.

    Between steps ``v_cache`` is ``(1/n) X^T alpha``, kept incrementally (the
    snapshot variants' full sweep rebuilds it as a new array).
    Within a step, or an anchored block of steps, the dual pass extrapolates
    its drawn rows into it, keeping their extrapolated duals in
    ``last_batch`` (``{row: bar}``), and :func:`_settle` takes them out after
    the primal pass.  For d >= ``_LAZY_MIN_D`` the weights are kept as
    anchors (:class:`_Anchors`) and ``w``, ``w_prev``, ``w_bar`` are
    evaluated when read, as new arrays, the same for every read at one
    iteration between calls; a copy holds them and starts without anchors.
    Code outside the solver that edits ``w``, ``w_prev``, ``w_bar`` or
    ``v_cache`` assigns a new float64 array rather than writing into it.
    """

    w, w_prev, w_bar = _weights(0), _weights(1), _weights(2)

    def __init__(self, w, w_prev, alpha, w_bar, v_cache, iter: int = 0,
                 last_draws: np.ndarray | None = None):
        self._w, self._w_prev, self._w_bar = w, w_prev, w_bar
        self.alpha, self.v_cache, self.iter = alpha, v_cache, iter
        self.last_batch: dict[int, float] = {}
        self.last_draws = last_draws
        self._anchors: _Anchors | None = None
        self._coords = None  # the primal selection of the last pass

    def _materialize(self) -> None:
        """Store the weights as arrays and drop the anchors."""
        if self._anchors is not None:
            self._w, self._w_prev, self._w_bar = (self._anchors.view(self.iter, k)
                                                  for k in range(3))
            self._anchors = None

    def copy(self) -> "SolverState":
        return SolverState(
            self.w.copy(), self.w_prev.copy(), self.alpha.copy(), self.w_bar.copy(),
            self.v_cache.copy(), self.iter,
            None if self.last_draws is None else self.last_draws.copy())

    def cache_error(self, ds) -> float:
        """Relative deviation of v_cache from a fresh (1/n) X^T alpha."""
        fresh = ds.rmatvec(self.alpha) / ds.n
        scale = max(1.0, float(np.max(np.abs(fresh))))
        return float(np.max(np.abs(self.v_cache - fresh))) / scale


def init_state(ds) -> SolverState:
    """Zero-initialized state (dual-feasible: y_i * 0 = 0 in [0, 1])."""
    d, n = ds.d, ds.n
    return SolverState(np.zeros(d), np.zeros(d), np.zeros(n), np.zeros(d), np.zeros(d))


def _check_cap(p: np.ndarray, cap: float, what: str) -> None:
    bad = np.flatnonzero(p > cap * (1.0 + _RTOL))
    if bad.size:
        i = int(bad[0])
        raise ScheduleError(f"{what}: p[{i}]={p[i]:.6g} exceeds the cap {cap:.6g}")
    if np.any(p <= 0.0):
        i = int(np.flatnonzero(p <= 0.0)[0])
        raise ScheduleError(f"{what}: p[{i}] is not strictly positive")


def _check_size(plan: SamplingPlan, ds, what: str) -> None:
    if plan.p.size != ds.n:
        raise ScheduleError(f"{what}: the plan covers {plan.p.size} instances, "
                            f"the dataset has {ds.n}")


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
    Steps that underflow to zero or overflow to infinity are rejected before
    any momentum is computed.
    """
    tau = tau_half * math.sqrt(k * spec.gamma / spec.lam)
    sigma = sigma_half * math.sqrt(k * spec.lam / spec.gamma)
    if not (0 < tau < math.inf and np.all((sigma > 0) & (sigma < math.inf))):
        raise ScheduleError(f"step sizes must be positive and finite; got tau={tau}, "
                            f"sigma from {np.min(sigma)} to {np.max(sigma)}")
    return tau, sigma


def _rates(spec: ProblemSpec, tau: float, a: int, n: int, p, sigma) -> tuple[float, float]:
    """The primal and dual contraction rates ``1 - 1/(1 + 1/(2 tau lam))`` and
    ``1 - 1/max_i(1/(a p_i) + n/(2 a sigma_i gamma))`` over ``p`` and ``sigma``."""
    t1 = 1.0 - 1.0 / (1.0 + 1.0 / (2.0 * tau * spec.lam))
    t2 = 1.0 - 1.0 / np.max(1.0 / (a * p) + n / (2.0 * a * sigma * spec.gamma))
    return t1, float(t2)


def _theta(spec: ProblemSpec, tau: float, a: int, n: int, p, sigma) -> float:
    """Momentum factor: the slower of the two :func:`_rates`; always in (0, 1)."""
    return max(_rates(spec, tau, a, n, p, sigma))


# rules on a given plan: schedule -> (sqrt(n)-boosted, shared scalar sigma)
_PLAN_RULES = {"thm4": (False, False), "thm5": (True, False),
               "cor18": (False, True), "cor19": (True, True)}


def _plan_rule(schedule: str, ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    a = plan.batch
    n = ds.n
    if _PLAN_RULES[schedule][0]:
        if a * a > n:
            raise ScheduleError(f"{schedule} requires a <= sqrt(n); got a={a}, n={n}")
        _check_cap(plan.p, 1.0 / (a * math.sqrt(n)), schedule)
    else:
        _check_cap(plan.p, 1.0 / a, schedule)
    return _support_rule(schedule, ds, spec, plan)


def _support_rule(schedule: str, ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    """The plan rule ``schedule`` over the plan's support: its n' instances
    with nonzero probability stand in for the n instances, the batch is
    ``min(a, n')`` for the plan's ``a``, and the duals that are never drawn
    get sigma 1.  On a restricted plan this is the restricted rule of the
    violation-gated runners.
    """
    _check_size(plan, ds, schedule)
    boosted, shared = _PLAN_RULES[schedule]
    active = plan.active
    n = active.size
    a = min(plan.batch, n)
    p, norms = plan.p[active], ds.row_norms[active]
    ru = _r_under(p, norms)
    tau, sig = _steps(spec, n if boosted else 1, a * ru / 2.0,
                      n * ru / 2.0 if shared else n * p / (2.0 * norms))
    sigma = np.ones(ds.n)
    sigma[active] = sig
    theta = _theta(spec, tau, a, n, p, sigma[active])
    return StepParams(tau=tau, sigma=sigma, theta=theta, schedule=schedule, r_under=ru,
                      n_eff=n, plan=plan)


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


def schedule_thm15(ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    """Large-batch rule for the uniform plan with batch ``a >= sqrt(n)``.

    ``tau = (1/(2R)) sqrt(gamma/lam)`` with ``R = max_i ||x_i||``,
    ``sigma_i = (n / (2 a ||x_i||)) sqrt(lam/gamma)``.
    """
    n, a = ds.n, plan.batch
    _check_size(plan, ds, "thm15")
    if a * a < n:
        raise ScheduleError(f"thm15 requires a >= sqrt(n); got a={a}, n={n}")
    if np.any(plan.p != 1.0 / n):
        raise ScheduleError(f"thm15 requires the uniform plan, not a {plan.kind} one")
    big_r = float(np.max(ds.row_norms))
    tau, sigma = _steps(spec, 1, 1.0 / (2.0 * big_r), n / (2.0 * a * ds.row_norms))
    return StepParams(tau=tau, sigma=sigma, theta=_theta(spec, tau, a, n, plan.p, sigma),
                      schedule="thm15", r_under=_r_under(plan.p, ds.row_norms), n_eff=n,
                      plan=plan)


def schedule_vanilla(ds, spec: ProblemSpec, plan: SamplingPlan, scheme: str) -> StepParams:
    """Shared-scalar dual step rules for plain SPDC.

    ``cor18``: ``tau = (a R_under/2) sqrt(gamma/lam)``, ``sigma = (n R_under/2) sqrt(lam/gamma)``
    for ``p_i <= 1/a``.  ``cor19`` carries sqrt(n) factors and needs
    ``a <= sqrt(n)``, ``p_i <= 1/(a sqrt(n))``.
    """
    if scheme not in ("cor18", "cor19"):
        raise ValueError(f"unknown scheme {scheme!r}")
    return _plan_rule(scheme, ds, spec, plan)


def verify_lemma3(params: StepParams, ds):
    """Check the contraction inequality for every instance of the plan of ``params``.

    ``1/(2 a sigma_k) - tau ||x_k||^2 ((1 - a p_k)^2 + theta) / (a p_k n)^2 >= 0``.

    Returns (ok, worst margin); zero-probability coordinates are skipped.
    """
    n, a = params.n_eff, params.plan.batch
    p, sigma, norms = _supported(params.plan, params.sigma, ds.row_norms)
    lhs = 1.0 / (2.0 * a * sigma) - (
        params.tau * norms**2 * ((1.0 - a * p) ** 2 + params.theta) / (a * p * n) ** 2
    )
    worst = float(np.min(lhs))
    return worst >= -_RTOL, worst


def verify_lemma14(params: StepParams, ds) -> bool:
    """Check both step-size product bounds for every instance of the plan of ``params``.

    ``tau sigma_i <= a (p_i n)^2 / (4 ||x_i||^2)`` (squared-norm reading) and
    ``(sum_k ||x_k||^2) / (n^2 / tau) <= 1/(4 a sigma_i)``.
    """
    n, a = params.n_eff, params.plan.batch
    p, sigma, norms = _supported(params.plan, params.sigma, ds.row_norms)
    bound1 = a * (p * n) ** 2 / (4.0 * norms**2)
    ok1 = np.all(params.tau * sigma <= bound1 * (1.0 + _RTOL))
    lhs2 = float(np.sum(norms**2)) / (n * n / params.tau)
    ok2 = np.all(lhs2 <= (1.0 / (4.0 * a * sigma)) * (1.0 + _RTOL))
    return bool(ok1 and ok2)


def verify_thm20(params: StepParams, ds, spec: ProblemSpec):
    """Evaluate the five feasibility clauses of the doubly stochastic loop
    with its one primal block, all d weights, drawn with probability q = 1:
    theta's two :func:`_rates` on the plan's support, as the rule took them,
    the cross and momentum terms, which are theta, and Lemma 3's inequality.
    Returns (ok, first failing clause name or None, per-clause margins), a
    margin being ``theta - value`` for the first four clauses and Lemma 3's
    worst margin for the fifth.
    """
    n = params.n_eff
    p, sigma = _supported(params.plan, params.sigma)
    t1, t2 = _rates(spec, params.tau, min(params.plan.batch, n), n, p, sigma)
    margins = {
        "clause1_primal_rate": params.theta - t1,
        "clause2_dual_rate": params.theta - t2,
        "clause3_cross_term": 0.0,
        "clause4_momentum_term": 0.0,
        "clause5_step_product": verify_lemma3(params, ds)[1],
    }
    failing = next((name for name, margin in margins.items() if margin < -_RTOL), None)
    return failing is None, failing, margins


def _dual_pass(state: SolverState, params: StepParams, ds, spec: ProblemSpec,
               rng: np.random.Generator, k: int = 1) -> None:
    """Sample and prox the ``a`` dual coordinates of a draw from the plan of
    ``params``, then extrapolate them into the cache.

    Draws are processed sequentially in draw order, so a repeated index sees
    the value left by the earlier draw.  The extrapolation applies the net
    per-coordinate change amplified against the sampling probability,
    ``bar_i = a0_i + (alpha_i - a0_i)/(a p_i)`` from the row's value
    ``a0_i`` before the pass, which makes the dual image fed to the primal
    prox unbiased for a full synchronous pass; one :func:`_scatter` adds it.
    ``state.last_batch`` keeps each drawn row's ``bar_i`` for :func:`_settle`.
    An anchored state runs up to ``k`` iterations' draws with disjoint supports
    as one (:meth:`_Anchors.prepare`); ``last_draws`` holds them all.

    The scalar arithmetic runs on Python floats, which round as numpy's
    float64 scalars do, at a fraction of their per-operation cost.
    """
    n_eff, gamma = params.n_eff, spec.gamma
    alpha, w_bar = state.alpha, state._w_bar
    plan, sigma, labels = params.plan, params.sigma, ds.labels
    p, a = plan.p, plan.batch
    indptr, indices, data = ds.csr_arrays()

    anchors = state._anchors
    if anchors is None:
        draws, bars = draw_batch(plan, rng), None
    else:
        draws, bars = anchors.prepare(indptr, indices, partial(draw_batch, plan, rng), k,
                                      state.iter)
    start_vals: dict[int, float] = {}
    for i in draws.tolist():
        old = alpha.item(i)
        start_vals.setdefault(i, old)
        lo, hi = indptr[i], indptr[i + 1]
        s = float(np.dot(data[lo:hi], w_bar[indices[lo:hi]] if bars is None else bars[i]))
        q = p.item(i) * n_eff / sigma.item(i)
        alpha[i] = dual_prox(s, old, q, labels.item(i), gamma)

    batch, deltas = {}, []
    for i, a0 in start_vals.items():
        bar = batch[i] = a0 + (alpha.item(i) - a0) / (a * p.item(i))
        deltas.append((i, bar - a0))
    _scatter(state.v_cache, ds, deltas)
    state.last_batch, state.last_draws = batch, draws


def _settle(state: SolverState, ds) -> None:
    """End a step or block: one :func:`_scatter` of ``alpha_i - bar_i`` over ``last_batch``
    takes its extrapolation out of the cache, and empties it.  Anchors then re-anchor
    every drawn support on the settled cache (:meth:`_Anchors.settle`)."""
    batch, alpha, t = state.last_batch, state.alpha, state.iter
    _scatter(state.v_cache, ds, [(i, alpha.item(i) - bar) for i, bar in batch.items()])
    state.last_batch = {}
    if state._anchors is not None:
        indptr, indices = ds.csr_arrays()[:2]
        state._anchors.settle((indices[indptr.item(i):indptr.item(i + 1)] for i in batch), t)


def _scatter(v, ds, deltas) -> None:
    """Add ``delta/n x_i`` into the dual image ``v`` for each ``(i, delta)`` of ``deltas``
    in one ordered ``np.add.at``: one entry at a time in pair order, the scalar adds of
    ``v[cols] += (delta/n) * vals`` row after row (datasets sum duplicates, so a row's
    columns are distinct): the same bits.  Zero deltas are left out, as adding +0.0
    would turn a -0.0 entry into 0.0."""
    indptr, indices, data = ds.csr_arrays()
    cols, vals, n = [], [], ds.n
    for i, delta in deltas:
        if delta != 0.0:
            lo, hi = indptr.item(i), indptr.item(i + 1)
            cols.append(indices[lo:hi])
            vals.append(np.multiply(data[lo:hi], delta / n))
    if cols:
        np.add.at(v, _cat(cols), _cat(vals))


def _cat(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


# Anchored vs whole-vector pass, per iteration (median of 7 runs of 2000, CPU
# time, 2-core Xeon VM, numpy 2.4; synth n=500, 20 nonzeros a row, adaspdc
# a=1): d=500 102/62 us, 1000 121/93, 2000 96/102, 3000 119/159, 5000 117/257.
# Anchoring makes a few dozen numpy calls, the whole pass a handful over d.
_LAZY_MIN_D = 2000


def _continues(state: SolverState, tau: float, lam: float, theta: float,
               primal_coords) -> bool:
    """Whether a primal pass keeps the anchors: the same parameters, cache and selection."""
    anchors = state._anchors
    return (anchors is not None and anchors.params == (tau, lam, theta)
            and anchors.v is state.v_cache and primal_coords is state._coords)


def _primal_pass(state: SolverState, tau: float, lam: float, theta: float,
                 primal_coords=None) -> None:
    """Prox the selected weight coordinates (all for None), then extrapolate
    the full vector.

    From d = ``_LAZY_MIN_D`` on, the weights are re-anchored instead
    (:class:`_Anchors`) and ``iter`` advances by the dual pass's block.
    New ``tau``, ``lam``, ``theta``, cache array or selection re-anchor all;
    a selection that changes from the last pass's (the first restricted pass
    of an ``ovsspdc-plusplus`` round) takes the whole-vector pass, as d
    below it does.
    """
    d = state.v_cache.size
    if _continues(state, tau, lam, theta, primal_coords):
        state.iter += state._anchors.advance(state.iter)
        return
    state._materialize()
    if d >= _LAZY_MIN_D and primal_coords is state._coords:
        w, state._w, state._w_prev, state._w_bar = state._w, None, None, None
        state._anchors = _Anchors(w, state.v_cache, state.iter, tau, lam, theta,
                                  primal_coords)
    else:
        w_old, v = state._w, state.v_cache
        if primal_coords is None:
            w_new = primal_prox(v, w_old, tau, lam)
        else:
            w_new = w_old.copy()
            w_new[primal_coords] = primal_prox(v[primal_coords], w_old[primal_coords], tau,
                                               lam)
        state._w_prev, state._w = w_old, w_new
        state._w_bar = w_new + theta * (w_new - w_old)
    state._coords = primal_coords
    state.iter += 1


def iterate(state: SolverState, params: StepParams, ds, spec: ProblemSpec,
            rng: np.random.Generator, k: int, primal_coords=None) -> SolverState:
    """k iterations: each proxes a draw from ``params.plan`` with per-instance
    dual steps (plain SPDC's shared step is the case where the rule makes every
    sigma_i equal), then the primal, or only ``primal_coords`` of it.

    An anchored state runs them in blocks of draws with disjoint supports
    (:class:`_Anchors`), bit for bit the iterations one at a time: a block
    ends at the first draw that meets it, which opens the next, or at k.
    """
    tau, lam, theta = params.tau, spec.lam, params.theta
    if primal_coords is not None and len(primal_coords) == ds.d:
        primal_coords = None  # a selection spanning every coordinate is the full pass
    while k > 0:
        t = state.iter
        block = k if k > 1 and _continues(state, tau, lam, theta, primal_coords) else 1
        _dual_pass(state, params, ds, spec, rng, block)
        _primal_pass(state, tau, lam, theta, primal_coords)
        _settle(state, ds)
        k -= state.iter - t
    return state


def complexity_estimate(ds, spec: ProblemSpec, plan: SamplingPlan, schedule: str) -> float:
    """Dominant iteration-count factor for the given rule and plan."""
    n, p, a = ds.n, plan.p, plan.batch
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
