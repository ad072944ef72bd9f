"""Frozen copies of the step-size rules and run loops as they were before
every rule became one formula and every runner one run loop.

The library's rules and runners must reproduce these bit for bit: the same
step sizes, momentum and complexity factors, and the same traces, counters,
draws and final states.  Only the old ``violation_tol`` knob (always 0.0) is
written as its value; the checkpoint, full sweep and iteration steps are
the library's, which the change left as they were.  The runners' knobs
that were later removed (the refresh and acceptance-test cadences, and the
logs of draws) are written as their one remaining value too.  The copies of
``ovsspdc`` and ``ovs-exact`` test the budget between epochs, as the run
loop does since every runner's unit became an epoch, and close with no
partial checkpoint; they still step one iteration at a time.

The CLI's checks of which rules an algorithm may run are frozen here too,
as they were before one table of rules per algorithm replaced them:
``reference_validate`` (``RunConfig.validate``) and
``reference_pick_schedule`` (``cli._pick_schedule``).

So is the anchored iteration (d >= ``core._LAZY_MIN_D``) as it ran one step
at a time, before iterations ran in blocks of draws with disjoint supports:
``ReferenceAnchors`` and ``reference_adaspdc_step``, whose dual pass and
settle add into the dual image with their own scatter, ``reference_scatter``.
A k-iteration call of the library must leave the state, the anchors and the
generator as k of these steps do.
"""

from __future__ import annotations

import math
import time

import numpy as np

from spdc import core, variants
from spdc.core import StepParams, _check_cap, _r_under, init_state
from spdc.errors import ConfigError, ScheduleError, ZeroViolations
from spdc.objective import (
    dual_objective,
    dual_prox,
    dual_violations,
    primal_objective,
    primal_prox,
    primal_violations,
)
from spdc.sampling import build_ovs, build_restricted, build_uniform
from spdc.variants import RunResult


def reference_theta_of(params: StepParams, plan: SamplingPlan, spec: ProblemSpec,
                       n: int) -> float:
    """Momentum factor: the slower of the primal and dual contraction rates.

    ``theta = max(1 - 1/(1 + 1/(2 tau lam)),
                  1 - 1/max_i(1/(a p_i) + n/(2 a sigma_i gamma)))``,
    always in (0, 1).  Entries with zero probability are excluded.
    """
    a = plan.batch
    active = plan.p > 0.0
    p = plan.p[active]
    sigma = params.sigma[active]
    t1 = 1.0 - 1.0 / (1.0 + 1.0 / (2.0 * params.tau * spec.lam))
    t2 = 1.0 - 1.0 / np.max(1.0 / (a * p) + n / (2.0 * a * sigma * spec.gamma))
    return max(t1, float(t2))


def reference_schedule_thm4(ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    """Per-instance rule for any proper p with ``p_i <= 1/a``.

    ``tau = (a R_under / 2) sqrt(gamma/lam)``,
    ``sigma_i = (n p_i / (2||x_i||)) sqrt(lam/gamma)``.
    """
    a = plan.batch
    _check_cap(plan.p, 1.0 / a, "thm4")
    n = ds.n
    ru = _r_under(plan.p, ds.row_norms)
    tau = (a * ru / 2.0) * math.sqrt(spec.gamma / spec.lam)
    sigma = (n * plan.p / (2.0 * ds.row_norms)) * math.sqrt(spec.lam / spec.gamma)
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule="thm4", r_under=ru, n_eff=n,
                        plan=plan)
    params.theta = reference_theta_of(params, plan, spec, n)
    return params


def reference_schedule_thm5(ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    """sqrt(n)-boosted per-instance rule: ``a <= sqrt(n)``, ``p_i <= 1/(a sqrt(n))``.

    ``tau = (a R_under / 2) sqrt(n gamma/lam)``,
    ``sigma_i = (n p_i / (2||x_i||)) sqrt(n lam/gamma)``.
    """
    a = plan.batch
    n = ds.n
    if a * a > n:
        raise ScheduleError(f"thm5 requires a <= sqrt(n); got a={a}, n={n}")
    _check_cap(plan.p, 1.0 / (a * math.sqrt(n)), "thm5")
    ru = _r_under(plan.p, ds.row_norms)
    tau = (a * ru / 2.0) * math.sqrt(n * spec.gamma / spec.lam)
    sigma = (n * plan.p / (2.0 * ds.row_norms)) * math.sqrt(n * spec.lam / spec.gamma)
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule="thm5", r_under=ru, n_eff=n,
                        plan=plan)
    params.theta = reference_theta_of(params, plan, spec, n)
    return params


def reference_schedule_thm15(ds, spec: ProblemSpec, a: int) -> StepParams:
    """Large-batch uniform rule: ``a >= sqrt(n)``.

    ``tau = (1/(2R)) sqrt(gamma/lam)`` with ``R = max_i ||x_i||``,
    ``sigma_i = (n / (2 a ||x_i||)) sqrt(lam/gamma)``.
    """
    n = ds.n
    if a * a < n:
        raise ScheduleError(f"thm15 requires a >= sqrt(n); got a={a}, n={n}")
    big_r = float(np.max(ds.row_norms))
    tau = (1.0 / (2.0 * big_r)) * math.sqrt(spec.gamma / spec.lam)
    sigma = (n / (2.0 * a * ds.row_norms)) * math.sqrt(spec.lam / spec.gamma)
    plan = build_uniform(n, a)
    ru = _r_under(plan.p, ds.row_norms)
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule="thm15", r_under=ru, n_eff=n,
                        plan=plan)
    params.theta = reference_theta_of(params, plan, spec, n)
    return params


def reference_schedule_vanilla(ds, spec: ProblemSpec, plan: SamplingPlan,
                               scheme: str) -> StepParams:
    """Shared-scalar dual step rules for plain SPDC.

    ``cor18``: ``tau = (a R_under/2) sqrt(gamma/lam)``, ``sigma = (n R_under/2) sqrt(lam/gamma)``
    for ``p_i <= 1/a``.  ``cor19`` carries sqrt(n) factors and needs
    ``a <= sqrt(n)``, ``p_i <= 1/(a sqrt(n))``.
    """
    a = plan.batch
    n = ds.n
    ru = _r_under(plan.p, ds.row_norms)
    if scheme == "cor18":
        _check_cap(plan.p, 1.0 / a, "cor18")
        tau = (a * ru / 2.0) * math.sqrt(spec.gamma / spec.lam)
        sigma_val = (n * ru / 2.0) * math.sqrt(spec.lam / spec.gamma)
    elif scheme == "cor19":
        if a * a > n:
            raise ScheduleError(f"cor19 requires a <= sqrt(n); got a={a}, n={n}")
        _check_cap(plan.p, 1.0 / (a * math.sqrt(n)), "cor19")
        tau = (a * ru / 2.0) * math.sqrt(n * spec.gamma / spec.lam)
        sigma_val = (n * ru / 2.0) * math.sqrt(n * spec.lam / spec.gamma)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    sigma = np.full(n, sigma_val)
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule=scheme, r_under=ru, n_eff=n,
                        plan=plan)
    params.theta = reference_theta_of(params, plan, spec, n)
    return params


def reference_complexity_estimate(ds, spec: ProblemSpec, plan: SamplingPlan, a: int,
                                  schedule: str) -> float:
    """Dominant iteration-count factor for the given rule and plan."""
    n = ds.n
    p = plan.p
    norms = ds.row_norms
    lg = spec.lam * spec.gamma
    if schedule == "thm4":
        return float(np.max(1.0 / (a * p) + norms / (p * a * math.sqrt(lg))))
    if schedule == "thm5":
        return float(np.max(1.0 / (a * p) + norms / (p * a * math.sqrt(n * lg))))
    if schedule == "thm15":
        return n / a + float(np.max(norms)) / math.sqrt(lg)
    ru = _r_under(p, norms)
    if schedule == "cor18":
        return float(np.max(1.0 / (a * p))) + 1.0 / (ru * a * math.sqrt(lg))
    if schedule == "cor19":
        return float(np.max(1.0 / (a * p))) + 1.0 / (ru * a * math.sqrt(n * lg))
    raise ValueError(f"unknown schedule {schedule!r}")


def reference_run_fixed(ds, spec: ProblemSpec, params: StepParams, a: int, budget: Budget,
                        rng: np.random.Generator,
                        state0: SolverState | None = None) -> RunResult:
    """Run a solver with a fixed plan and fixed step sizes to the budget.

    ``state0`` warm-starts the run (the state is copied).
    """
    state = init_state(ds) if state0 is None else state0.copy()
    t0 = time.perf_counter()
    records: list[TraceRecord] = []
    per_epoch = math.ceil(ds.n / a)
    rec = variants._checkpoint(records, 0, 0.0, t0, state, ds, spec)
    converged = rec.gap <= budget.gap_tol
    duals_drawn = 0
    ckpt = 0
    while not converged and duals_drawn / ds.n < budget.max_epochs:
        for _ in range(per_epoch):
            core.iterate(state, params, ds, spec, rng, 1)
            duals_drawn += a
        ckpt += 1
        rec = variants._checkpoint(records, ckpt, duals_drawn / ds.n, t0, state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    return RunResult(
        state=state,
        trace=records,
        converged=converged,
        counters={"iterations": state.iter, "duals_drawn": duals_drawn},
        params=params,
    )


def reference_run_ovsspdc(ds, spec: ProblemSpec, a: int, budget: Budget,
                          rng: np.random.Generator,
                          state0: SolverState | None = None) -> RunResult:
    """Violation-weighted sampling with periodic probability refresh.

    Every epoch-equivalent the dual violations are recomputed at the current
    iterate, the violation-weighted plan is rebuilt (the library's ``build_ovs``), and the
    sqrt(n)-boosted step sizes and momentum are rederived from it.  When every violation is zero the refresh
    falls back to the uniform plan and the run continues.  The budget is
    tested between epochs, so the run ends on a whole epoch.
    """
    n = ds.n
    if a * a > n:
        raise ScheduleError(f"violation-weighted sampling requires a <= sqrt(n); got a={a}")
    per_epoch = math.ceil(n / a)
    state = init_state(ds) if state0 is None else state0.copy()
    t0 = time.perf_counter()
    records: list[TraceRecord] = []
    rec = variants._checkpoint(records, 0, 0.0, t0, state, ds, spec)
    converged = rec.gap <= budget.gap_tol
    plan = params = None
    refreshes = fallbacks = 0
    duals_drawn = 0
    ckpt = 0
    while not converged and duals_drawn / n < budget.max_epochs:
        kappa = dual_violations(state.w, state.alpha, ds, spec)
        kappa = np.where(kappa > 0.0, kappa, 0.0)
        try:
            plan = build_ovs(kappa, ds.row_norms, spec, a)
        except ZeroViolations:
            plan = build_uniform(n, a)
            fallbacks += 1
        params = reference_schedule_thm5(ds, spec, plan)
        refreshes += 1
        for _ in range(per_epoch):
            core.iterate(state, params, ds, spec, rng, 1)
            duals_drawn += a
        ckpt += 1
        rec = variants._checkpoint(records, ckpt, duals_drawn / n, t0, state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    counters = {
        "iterations": state.iter,
        "duals_drawn": duals_drawn,
        "refreshes": refreshes,
        "uniform_fallbacks": fallbacks,
    }
    return RunResult(state, records, converged, counters, params)


def reference_restricted_schedule(ds, spec: ProblemSpec, plan: SamplingPlan,
                                  a: int) -> StepParams:
    """Step sizes for a plan restricted to the active coordinates.

    The active-set size replaces the instance count in the step-size formulas
    and in the momentum factor.  Uses the sqrt(n')-boosted rule when
    ``a <= sqrt(n')``, the base rule for ``a <= n'``, and clamps the effective
    batch to ``n'`` otherwise.  Dual steps are nudged if the prox coefficient
    would make ``gamma - p_i n'/sigma_i`` vanish (the skip test needs it
    nonzero).
    """
    active = plan.active
    n_eff = active.size
    p_act = plan.p[active]
    norms_act = ds.row_norms[active]
    ru = float(np.min(p_act / norms_act))
    a_eff = min(a, n_eff)
    if a_eff * a_eff <= n_eff:
        tau = (a_eff * ru / 2.0) * math.sqrt(n_eff * spec.gamma / spec.lam)
        sig_act = (n_eff * p_act / (2.0 * norms_act)) * math.sqrt(n_eff * spec.lam / spec.gamma)
        schedule = "thm5"
    else:
        tau = (a_eff * ru / 2.0) * math.sqrt(spec.gamma / spec.lam)
        sig_act = (n_eff * p_act / (2.0 * norms_act)) * math.sqrt(spec.lam / spec.gamma)
        schedule = "thm4"
    degenerate = spec.gamma - p_act * n_eff / sig_act == 0.0
    if np.any(degenerate):
        sig_act = np.where(degenerate, sig_act * (1.0 + 1e-9), sig_act)
    sigma = np.ones(ds.n)
    sigma[active] = sig_act
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule=schedule,
                        r_under=ru, n_eff=n_eff, plan=plan)
    t1 = 1.0 - 1.0 / (1.0 + 1.0 / (2.0 * tau * spec.lam))
    t2 = 1.0 - 1.0 / float(
        np.max(1.0 / (a_eff * p_act) + n_eff / (2.0 * a_eff * sig_act * spec.gamma))
    )
    params.theta = max(t1, t2)
    return params


def reference_run_ovs_exact(ds, spec: ProblemSpec, budget: Budget,
                            rng: np.random.Generator,
                            state0: SolverState | None = None) -> RunResult:
    """Exact violation gating: recompute violations every iteration, sample
    only violated duals (zero probability elsewhere).

    Violations are evaluated against the extrapolated weights, which is the
    quantity the dual prox actually sees, so gated coordinates are exact
    fixed points.  Costs O(nnz) per iteration; intended for small problems.
    Terminates early when every dual and primal violation is exactly zero.
    The budget is tested between epochs of n draws (a primal flush draws
    nothing), so the run ends on a whole epoch or at the optimum.
    """
    n = ds.n
    a = 1
    state = init_state(ds) if state0 is None else state0.copy()
    t0 = time.perf_counter()
    records: list[TraceRecord] = []
    rec = variants._checkpoint(records, 0, 0.0, t0, state, ds, spec)
    converged = rec.gap <= budget.gap_tol
    plan = params = None
    optimal = False
    duals_drawn = 0
    ckpt = 0
    while not converged and not optimal and duals_drawn / n < budget.max_epochs:
        epoch_end = duals_drawn + n
        while duals_drawn < epoch_end:
            kappa_bar = dual_violations(state.w_bar, state.alpha, ds, spec)
            kappa_bar = np.where(kappa_bar > 0.0, kappa_bar, 0.0)
            try:
                plan = build_restricted(kappa_bar, a)
            except ZeroViolations:
                psi = primal_violations(state.w, state.alpha, ds, spec)
                if np.all(psi == 0.0):
                    optimal = True
                    break
                # dual side settled; flush the primal and re-check next iteration
                if params is None:
                    params = reference_schedule_thm5(ds, spec, build_uniform(n, a))
                w_before = state.w.copy()
                core._primal_pass(state, params.tau, spec.lam, params.theta)
                if np.array_equal(state.w, w_before):
                    # the primal map has frozen too: a genuine fixed point
                    optimal = True
                    break
                continue
            params = reference_restricted_schedule(ds, spec, plan, a)
            core.iterate(state, params, ds, spec, rng, 1)
            duals_drawn += a
        if not optimal:
            ckpt += 1
            rec = variants._checkpoint(records, ckpt, duals_drawn / n, t0, state, ds, spec)
            converged = rec.gap <= budget.gap_tol
    if state.iter > 0 and optimal:
        rec = variants._checkpoint(records, ckpt + 1, duals_drawn / n, t0, state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    counters = {"iterations": state.iter, "duals_drawn": duals_drawn,
                "optimal_exit": optimal}
    return RunResult(state, records, converged or optimal, counters, params)


def reference_run_snapshot(ds, spec: ProblemSpec, a: int, budget: Budget, rng: np.random.Generator,
                           restrict_primal: bool) -> RunResult:
    """Shared body of the snapshot/acceptance heuristics.

    Outer rounds: one deterministic full sweep, violation recomputation, then
    an inner loop of ceil(n'/a) sampled iterations over the restricted plan.
    Inner iterates are committed only when their duality gap strictly improves
    on the best committed gap, so the committed gap sequence is strictly
    decreasing by construction.  When ``restrict_primal`` is set, inner primal
    updates touch only coordinates with nonzero primal violations.
    """
    n = ds.n
    state = init_state(ds)
    t0 = time.perf_counter()
    records: list[TraceRecord] = []
    rec = variants._checkpoint(records, 0, 0.0, t0, state, ds, spec)
    ref_gap = rec.gap
    converged = ref_gap <= budget.gap_tol
    if a * a <= n:
        outer_params = reference_schedule_thm5(ds, spec, build_uniform(n, a))
    else:
        outer_params = reference_schedule_thm15(ds, spec, a)
    committed_gaps = [ref_gap]
    counters = {
        "primal_writes": 0,
        "duals_drawn": 0,
        "accepts": 0,
        "inner_rounds": 0,
        "optimal_exit": False,
        "active_sizes": [],
        "inner_lengths": [],
    }
    plan = params = None
    ckpt = 0
    while not converged and counters["duals_drawn"] / n < budget.max_epochs:
        variants._full_pass(state, ds, spec, outer_params)
        counters["duals_drawn"] += n
        counters["primal_writes"] += ds.d
        kappa = dual_violations(state.w, state.alpha, ds, spec)
        kappa = np.where(kappa > 0.0, kappa, 0.0)
        g_full = primal_objective(state.w, ds, spec) - dual_objective(state.alpha, ds, spec)
        if g_full < ref_gap:
            ref_gap = g_full
            committed_gaps.append(ref_gap)
        if ref_gap <= budget.gap_tol:
            converged = True
            break
        try:
            plan = build_restricted(kappa, a)
        except ZeroViolations:
            counters["optimal_exit"] = True
            break
        params = reference_restricted_schedule(ds, spec, plan, a)
        primal_coords = None
        if restrict_primal:
            psi = primal_violations(state.w, state.alpha, ds, spec)
            psi = np.where(psi > 0.0, psi, 0.0)
            primal_coords = np.flatnonzero(psi != 0.0)
        n_active = plan.active.size
        inner_len = math.ceil(n_active / a)
        counters["active_sizes"].append(n_active)
        counters["inner_lengths"].append(inner_len)
        inner = state.copy()
        accepted = None
        for u in range(1, inner_len + 1):
            core.iterate(inner, params, ds, spec, rng, 1,
                         primal_coords=primal_coords)
            counters["duals_drawn"] += a
            counters["primal_writes"] += ds.d if primal_coords is None else len(primal_coords)
            if u == inner_len:
                g = primal_objective(inner.w, ds, spec) - dual_objective(inner.alpha, ds, spec)
                if g < ref_gap:
                    ref_gap = g
                    committed_gaps.append(g)
                    accepted = inner.copy()
                    counters["accepts"] += 1
                    if ref_gap <= budget.gap_tol:
                        break
        if accepted is not None:
            state = accepted
        counters["inner_rounds"] += 1
        ckpt += 1
        rec = variants._checkpoint(records, ckpt, counters["duals_drawn"] / n, t0, state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    if counters["optimal_exit"] or (converged and records[-1].gap > budget.gap_tol):
        rec = variants._checkpoint(records, ckpt + 1, counters["duals_drawn"] / n, t0,
                          state, ds, spec)
        converged = rec.gap <= budget.gap_tol or counters["optimal_exit"]
    counters["iterations"] = state.iter
    counters["committed_gaps"] = committed_gaps
    return RunResult(state, records, converged or counters["optimal_exit"],
                     counters, params)


REFERENCE_ALGOS = ("spdc", "adaspdc", "dspdc", "ovsspdc", "ovs-exact", "ovsspdc-plus",
                   "ovsspdc-plusplus")
REFERENCE_VARIANTS = ("ovsspdc", "ovs-exact", "ovsspdc-plus", "ovsspdc-plusplus")
REFERENCE_PROBS = ("uniform", "cor16", "cor17", "ovs")
REFERENCE_SCHEDULES = ("thm4", "thm5", "thm15", "cor18", "cor19", "auto")


def reference_validate(self) -> None:
    """``RunConfig.validate`` before the rule table; ``self`` is a RunConfig.

    Its one later change is kept here too: dspdc no longer needs a block
    size, since a missing one means the one block of all d weights."""
    if self.algo not in REFERENCE_ALGOS:
        raise ConfigError(f"unknown algo {self.algo!r}; choose from {REFERENCE_ALGOS}")
    if self.prob not in REFERENCE_PROBS:
        raise ConfigError(f"unknown prob {self.prob!r}; choose from {REFERENCE_PROBS}")
    if self.schedule not in REFERENCE_SCHEDULES:
        raise ConfigError(f"unknown schedule {self.schedule!r}; "
                          f"choose from {REFERENCE_SCHEDULES}")
    if self.a < 1:
        raise ConfigError(f"a must be >= 1, got {self.a}")
    if self.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {self.seed}")
    if not (math.isfinite(self.lambda_scale) and self.lambda_scale > 0):
        raise ConfigError(f"lambda-scale must be positive and finite, got {self.lambda_scale}")
    if not (math.isfinite(self.gamma) and self.gamma > 0):
        raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
    if self.algo in REFERENCE_VARIANTS:
        if self.schedule != "auto":
            raise ConfigError(
                f"algo {self.algo!r} manages its own step sizes; use schedule=auto"
            )
        if self.prob == "uniform":
            self.prob = "ovs"  # violation-driven algos own their sampling
        elif self.prob != "ovs":
            raise ConfigError(f"algo {self.algo!r} does not take prob={self.prob!r}")
    else:
        if self.prob == "ovs":
            raise ConfigError("prob=ovs requires algo=ovsspdc")
    if self.algo in ("spdc", "dspdc") and self.schedule in ("thm4", "thm5", "thm15"):
        raise ConfigError(
            f"schedule {self.schedule!r} has per-instance dual steps; "
            f"algo {self.algo!r} needs cor18/cor19/auto"
        )
    if self.algo == "adaspdc" and self.schedule in ("cor18", "cor19"):
        raise ConfigError(
            f"schedule {self.schedule!r} is a shared-sigma rule; use algo=spdc"
        )
    if self.algo == "ovs-exact" and self.a != 1:
        raise ConfigError("algo=ovs-exact requires a=1")
    if self.prob in ("cor16", "cor17") and self.a != 1:
        raise ConfigError(f"prob={self.prob} requires a=1")


def reference_pick_schedule(cfg, ds) -> str:
    """Resolve schedule=auto; non-uniform plans with a > sqrt(n) are rejected."""
    if cfg.schedule != "auto":
        return cfg.schedule
    # the algorithm's base, sqrt(n)-boosted and large-batch rules
    base, boosted, large = (("thm4", "thm5", "thm15") if cfg.algo == "adaspdc"
                            else ("cor18", "cor19", "cor18"))
    if cfg.a * cfg.a <= ds.n:
        return base if cfg.prob == "cor16" else boosted
    if cfg.prob != "uniform":
        raise ScheduleError(
            f"a={cfg.a} > sqrt(n) admits only uniform sampling (schedule {large})"
        )
    return large


# The anchored iteration as it ran one step at a time, before iterations ran
# in blocks: the anchors with their per-step dual and primal halves
# (``prepare``, ``advance``) and the step's three passes.  The dual prox,
# the primal prox, the scatter and the draws are the library's.

_REF_ZERO32, _REF_ONE32 = np.int32(0), np.int32(1)


class ReferenceAnchors:
    """``core._Anchors`` as it was when every step re-anchored on its own."""

    def __init__(self, w, v_cache, t: int, tau: float, lam: float, theta: float,
                 primal_coords):
        d = v_cache.size
        self.params, self.v = (tau, lam, theta), v_cache
        self.tau, self.lam, self.theta = np.float64(tau), np.float64(lam), np.float64(theta)
        self.c = np.float64(1.0 / (1.0 + tau * lam))
        self.kill = np.float64(-1.0 - 1.0 / (tau * lam))
        self.frozen = None if primal_coords is None else np.ones(d, dtype=bool)
        if self.frozen is not None:
            self.frozen[primal_coords] = False
        self.B, self.W, self.t0 = np.array(w, dtype=np.float64), np.empty(d), np.empty(d, np.int32)
        self.touched, self.watch, self.prepared, self.cached = [], [], [], {}
        for lo in range(0, d, core._CHUNK):
            self._anchor(slice(lo, lo + core._CHUNK), self.B[lo:lo + core._CHUNK], t)

    def advance(self, t: int) -> None:
        rest = self.touched + self._watched()
        idx, val, fresh = [], [], 0
        if rest:
            idx.append(core._cat(rest))
            val.append(self._law(idx[0], t)[0])
        for cols, w, fresh in self.prepared:
            idx.append(cols)
            val.append(w)
        self.touched, self.prepared, self.cached = [], [], {}
        if idx:
            self._anchor(core._cat(idx), core._cat(val), t, fresh)

    def _watched(self) -> list:
        watch, self.watch = self.watch, []
        return [np.unique(np.concatenate(watch))] if watch else []

    def view(self, t: int, slot: int) -> np.ndarray:
        if self.cached.get("t") != t:
            self.cached = {"t": t}
        if slot not in self.cached:
            slots = (0,) if slot == 0 else (0, 1, 2)
            out = [np.empty(self.B.size) for _ in slots]
            for lo in range(0, self.B.size, core._CHUNK):
                for o, x in zip(out, self._law(slice(lo, lo + core._CHUNK), t,
                                               bar=slot != 0)):
                    o[lo:lo + core._CHUNK] = x
            self.cached.update(zip(slots, out))
        return self.cached[slot]

    def prepare(self, indptr, indices, drawn: list, t: int) -> dict:
        drawn = list(dict.fromkeys(drawn))
        cols = (self._watched() + self.touched
                + [indices[indptr[i]:indptr[i + 1]] for i in drawn])
        self.touched = []
        idx = np.concatenate(cols)
        w, _, w_bar = self._law(idx, t, bar=True)
        out, hi = {}, idx.size
        for i in reversed(drawn):
            out[i] = w_bar[hi - (indptr[i + 1] - indptr[i]):hi]
            hi -= out[i].size
        self.prepared.append((idx, w, idx.size - hi))
        return out

    def _law(self, idx, t: int, bar: bool = False):
        t0 = self.t0[idx]
        up = t0 > _REF_ZERO32
        e = np.abs(t0)
        np.subtract(np.int32(t + 1), e, out=e)
        W, B = self.W[idx], self.B[idx]
        step = self.c ** e * (B - W)
        w = step + W
        w *= np.signbit(w) != up
        if not bar:
            return (w,)
        w_prev = step / self.c + W
        w_prev *= np.signbit(w_prev) != up
        np.copyto(w_prev, B, where=e == _REF_ONE32)
        return w, w_prev, (w - w_prev) * self.theta + w

    def _anchor(self, idx, val, t: int, fresh: int = 0) -> None:
        lam = self.lam
        u = self.v[idx]
        s = val / self.tau + u
        live = np.abs(s) > lam
        side = np.sign(np.where(live, s, val))
        W = np.where(live, u / lam - side, val * self.kill)
        flip = side * u < -lam
        flip[flip.size - fresh:] = False
        up, down = np.int32(t + 1), np.int32(-t - 1)
        t0 = np.where(side < 0.0, down, up)
        if self.frozen is not None:
            frozen = self.frozen[idx]
            np.copyto(W, val, where=frozen)
            np.copyto(t0, np.where(val < 0.0, down, up), where=frozen)
            flip &= ~frozen
        self.B[idx], self.W[idx], self.t0[idx] = val, W, t0
        if np.count_nonzero(flip):
            self.watch.append(np.flatnonzero(flip) + idx.start if isinstance(idx, slice)
                              else idx[flip])


def reference_dual_pass(state, params, plan, ds, spec, a, rng) -> None:
    n, n_eff, gamma = ds.n, params.n_eff, spec.gamma
    alpha, w_bar = state.alpha, state._w_bar
    p, sigma, labels = plan.p, params.sigma, ds.labels
    indptr, indices, data = ds.csr_arrays()
    draws = core.draw_batch(plan, rng)
    anchors = state._anchors
    bars = None if anchors is None else anchors.prepare(indptr, indices, draws.tolist(),
                                                        state.iter)
    start_vals = {}
    for i in draws.tolist():
        old = alpha.item(i)
        start_vals.setdefault(i, old)
        lo, hi = indptr[i], indptr[i + 1]
        s = float(np.dot(data[lo:hi], w_bar[indices[lo:hi]] if bars is None else bars[i]))
        q = p.item(i) * n_eff / sigma.item(i)
        alpha[i] = dual_prox(s, old, q, labels.item(i), gamma)
    batch, cols, vals = {}, [], []
    for i, a0 in start_vals.items():
        bar = batch[i] = a0 + (alpha.item(i) - a0) / (a * p.item(i))
        delta = bar - a0
        if delta != 0.0:
            lo, hi = indptr.item(i), indptr.item(i + 1)
            cols.append(indices[lo:hi])
            vals.append(np.multiply(data[lo:hi], delta / n))
    reference_scatter(state.v_cache, cols, vals)
    state.last_batch, state.last_draws = batch, draws


def reference_scatter(v, cols, vals) -> None:
    """The dual-image update of a step: ``vals[k]`` added at ``cols[k]`` in
    one ordered ``np.add.at``, list after list; the callers leave out rows
    whose delta is zero."""
    if cols:
        np.add.at(v, np.concatenate(cols), np.concatenate(vals))


def reference_settle(state, ds) -> None:
    indptr, indices, data = ds.csr_arrays()
    touched = None if state._anchors is None else state._anchors.touched
    cols, vals = [], []
    for i, bar in state.last_batch.items():
        lo, hi = indptr.item(i), indptr.item(i + 1)
        row = indices[lo:hi]
        delta = state.alpha.item(i) - bar
        if delta != 0.0:
            cols.append(row)
            vals.append(np.multiply(data[lo:hi], delta / ds.n))
        if touched is not None:
            touched.append(row)
    reference_scatter(state.v_cache, cols, vals)
    state.last_batch = {}


def reference_primal_pass(state, tau, lam, theta, primal_coords=None) -> None:
    d = state.v_cache.size
    if primal_coords is not None and len(primal_coords) == d:
        primal_coords = None
    anchors = state._anchors
    if d >= core._LAZY_MIN_D and primal_coords is state._coords:
        if anchors is not None and anchors.params == (tau, lam, theta) \
                and anchors.v is state.v_cache:
            anchors.advance(state.iter)
        else:
            state._materialize()
            w, state._w, state._w_prev, state._w_bar = state._w, None, None, None
            state._anchors = ReferenceAnchors(w, state.v_cache, state.iter, tau, lam, theta,
                                              primal_coords)
    else:
        state._materialize()
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


def reference_adaspdc_step(state, params, plan, ds, spec, a, rng, primal_coords=None):
    reference_dual_pass(state, params, plan, ds, spec, a, rng)
    reference_primal_pass(state, params.tau, spec.lam, params.theta, primal_coords)
    reference_settle(state, ds)
    return state

