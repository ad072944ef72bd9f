"""Frozen copies of the step-size rules and run loops as they were before
every rule became one formula and every runner one run loop.

The library's rules and runners must reproduce these bit for bit: the same
step sizes, momentum and complexity factors, and the same traces, counters,
logs and final states.  Only the old ``violation_tol`` knob (always 0.0) is
written as its value; the checkpoint, clock, full sweep and iteration steps
are the library's, which the change left as they were.
"""

from __future__ import annotations

import math

import numpy as np

from spdc import core, variants
from spdc.core import StepParams, _check_cap, _r_under, adaspdc_step, init_state
from spdc.errors import ScheduleError, ZeroViolations
from spdc.objective import dual_objective, dual_violations, primal_objective, primal_violations
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
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule="thm4", r_under=ru, n_eff=n)
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
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule="thm5", r_under=ru, n_eff=n)
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
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule="thm15", r_under=ru, n_eff=n)
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
    params = StepParams(tau=tau, sigma=sigma, theta=0.5, schedule=scheme, r_under=ru, n_eff=n)
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


def reference_run_fixed(ds, spec: ProblemSpec, plan: SamplingPlan, params: StepParams,
                        a: int, budget: Budget, rng: np.random.Generator,
                        stepper: str = "adaspdc", dspdc_cfg: DspdcConfig | None = None,
                        timing: bool = True, state0: SolverState | None = None) -> RunResult:
    """Run a solver with a fixed plan and fixed step sizes to the budget.

    ``stepper`` selects the iteration: 'adaspdc' (per-instance dual steps),
    'spdc' (shared scalar step), or 'dspdc' (random primal block, needs
    ``dspdc_cfg``).  ``state0`` warm-starts the run (the state is copied).
    """
    state = init_state(ds) if state0 is None else state0.copy()
    clock = variants._Clock(timing)
    records: list[TraceRecord] = []
    per_epoch = math.ceil(ds.n / a)
    rec = variants._checkpoint(records, 0, 0.0, clock, state, ds, spec)
    converged = rec.gap <= budget.gap_tol
    duals_drawn = 0
    ckpt = 0
    while not converged and duals_drawn / ds.n < budget.max_epochs:
        for _ in range(per_epoch):
            if stepper == "dspdc":
                core.dspdc_step(state, params, plan, dspdc_cfg, ds, spec, a, rng)
            else:
                adaspdc_step(state, params, plan, ds, spec, a, rng)
            duals_drawn += a
        ckpt += 1
        rec = variants._checkpoint(records, ckpt, duals_drawn / ds.n, clock, state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    return RunResult(
        state=state,
        trace=records,
        converged=converged,
        counters={"iterations": state.iter, "duals_drawn": duals_drawn},
        params=params,
        plan=plan,
    )


def reference_run_ovsspdc(ds, spec: ProblemSpec, a: int, cfg: VariantConfig,
                          budget: Budget, rng: np.random.Generator, timing: bool = True,
                          state0: SolverState | None = None) -> RunResult:
    """Violation-weighted sampling with periodic probability refresh.

    Every ``refresh_every`` iterations (default one epoch-equivalent) the dual
    violations are recomputed at the current iterate, the capped
    violation-weighted plan is rebuilt, and the sqrt(n)-boosted step sizes and
    momentum are rederived from it.  When every violation is zero the refresh
    falls back to the uniform plan and the run continues.
    """
    n = ds.n
    if a * a > n:
        raise ScheduleError(f"violation-weighted sampling requires a <= sqrt(n); got a={a}")
    refresh_every = cfg.refresh_every or math.ceil(n / a)
    per_epoch = math.ceil(n / a)
    state = init_state(ds) if state0 is None else state0.copy()
    clock = variants._Clock(timing)
    records: list[TraceRecord] = []
    rec = variants._checkpoint(records, 0, 0.0, clock, state, ds, spec)
    converged = rec.gap <= budget.gap_tol
    plan = params = None
    refreshes = fallbacks = 0
    draw_log = [] if cfg.record_draws else None
    duals_drawn = 0
    ckpt = 0
    it = 0
    while not converged and duals_drawn / n < budget.max_epochs:
        if it % refresh_every == 0:
            kappa = dual_violations(state.w, state.alpha, ds, spec)
            kappa = np.where(kappa > 0.0, kappa, 0.0)
            try:
                plan = build_ovs(kappa, ds.row_norms, a, n)
            except ZeroViolations:
                plan = build_uniform(n, a)
                fallbacks += 1
            params = reference_schedule_thm5(ds, spec, plan)
            refreshes += 1
        adaspdc_step(state, params, plan, ds, spec, a, rng)
        if draw_log is not None:
            draw_log.append(state.last_draws.copy())
        duals_drawn += a
        it += 1
        if it % per_epoch == 0:
            ckpt += 1
            rec = variants._checkpoint(records, ckpt, duals_drawn / n, clock, state, ds, spec)
            converged = rec.gap <= budget.gap_tol
    if it % per_epoch != 0:
        rec = variants._checkpoint(records, ckpt + 1, duals_drawn / n, clock, state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    counters = {
        "iterations": state.iter,
        "duals_drawn": duals_drawn,
        "refreshes": refreshes,
        "uniform_fallbacks": fallbacks,
    }
    if draw_log is not None:
        counters["draw_log"] = draw_log
    return RunResult(state, records, converged, counters, params, plan)


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
                        r_under=ru, n_eff=n_eff)
    t1 = 1.0 - 1.0 / (1.0 + 1.0 / (2.0 * tau * spec.lam))
    t2 = 1.0 - 1.0 / float(
        np.max(1.0 / (a_eff * p_act) + n_eff / (2.0 * a_eff * sig_act * spec.gamma))
    )
    params.theta = max(t1, t2)
    return params


def reference_run_ovs_exact(ds, spec: ProblemSpec, cfg: VariantConfig, budget: Budget,
                            rng: np.random.Generator, timing: bool = True,
                            state0: SolverState | None = None) -> RunResult:
    """Exact violation gating: recompute violations every iteration, sample
    only violated duals (zero probability elsewhere).

    Violations are evaluated against the extrapolated weights, which is the
    quantity the dual prox actually sees, so gated coordinates are exact
    fixed points.  Costs O(nnz) per iteration; intended for small problems.
    Terminates early when every dual and primal violation is exactly zero.
    """
    n = ds.n
    a = 1
    state = init_state(ds) if state0 is None else state0.copy()
    clock = variants._Clock(timing)
    records: list[TraceRecord] = []
    rec = variants._checkpoint(records, 0, 0.0, clock, state, ds, spec)
    converged = rec.gap <= budget.gap_tol
    plan = params = None
    optimal = False
    draw_log = [] if cfg.record_draws else None
    active_log = [] if cfg.record_draws else None
    duals_drawn = 0
    ckpt = 0
    it = 0
    while not converged and not optimal and duals_drawn / n < budget.max_epochs:
        kappa_bar = dual_violations(state.w_bar, state.alpha, ds, spec)
        kappa_bar = np.where(kappa_bar > 0.0, kappa_bar, 0.0)
        try:
            plan = build_restricted(kappa_bar, a)
        except ZeroViolations:
            psi = primal_violations(state.w, state.alpha_bar, ds, spec)
            if np.all(psi == 0.0):
                optimal = True
                break
            # dual side settled; flush the primal and re-check next iteration
            if params is None:
                params = reference_schedule_thm5(ds, spec, build_uniform(n, a))
            core._settle_alpha_bar(state, ds)
            w_before = state.w.copy()
            core._primal_pass(state, params.tau, spec.lam, params.theta)
            it += 1
            if np.array_equal(state.w, w_before):
                # the primal map has frozen too: a genuine fixed point
                optimal = True
                break
            continue
        params = reference_restricted_schedule(ds, spec, plan, a)
        adaspdc_step(state, params, plan, ds, spec, a, rng)
        if draw_log is not None:
            draw_log.append(state.last_draws.copy())
            active_log.append(plan.active.copy())
        duals_drawn += a
        it += 1
        if it % n == 0:
            ckpt += 1
            rec = variants._checkpoint(records, ckpt, duals_drawn / n, clock, state, ds, spec)
            converged = rec.gap <= budget.gap_tol
    if state.iter > 0 and (optimal or it % n != 0):
        rec = variants._checkpoint(records, ckpt + 1, duals_drawn / n, clock, state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    counters = {"iterations": state.iter, "duals_drawn": duals_drawn,
                "optimal_exit": optimal}
    if draw_log is not None:
        counters["draw_log"] = draw_log
        counters["active_log"] = active_log
    return RunResult(state, records, converged or optimal, counters, params, plan)


def reference_run_snapshot(ds, spec: ProblemSpec, a: int, cfg: VariantConfig,
                           budget: Budget, rng: np.random.Generator,
                           restrict_primal: bool, timing: bool = True) -> RunResult:
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
    clock = variants._Clock(timing)
    records: list[TraceRecord] = []
    rec = variants._checkpoint(records, 0, 0.0, clock, state, ds, spec)
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
    }
    draw_log = [] if cfg.record_draws else None
    active_log = [] if cfg.record_draws else None
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
        counters.setdefault("active_sizes", []).append(n_active)
        counters.setdefault("inner_lengths", []).append(inner_len)
        inner = state.copy()
        accepted = None
        for u in range(1, inner_len + 1):
            adaspdc_step(inner, params, plan, ds, spec, a, rng,
                         primal_coords=primal_coords)
            if draw_log is not None:
                draw_log.append(inner.last_draws.copy())
                active_log.append(plan.active.copy())
            counters["duals_drawn"] += a
            counters["primal_writes"] += ds.d if primal_coords is None else len(primal_coords)
            check = (cfg.gap_check_every is not None and u % cfg.gap_check_every == 0)
            if check or u == inner_len:
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
        rec = variants._checkpoint(records, ckpt, counters["duals_drawn"] / n, clock, state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    if counters["optimal_exit"] or (converged and records[-1].gap > budget.gap_tol):
        rec = variants._checkpoint(records, ckpt + 1, counters["duals_drawn"] / n, clock,
                          state, ds, spec)
        converged = rec.gap <= budget.gap_tol or counters["optimal_exit"]
    counters["iterations"] = state.iter
    counters["committed_gaps"] = committed_gaps
    if draw_log is not None:
        counters["draw_log"] = draw_log
        counters["active_log"] = active_log
    return RunResult(state, records, converged or counters["optimal_exit"],
                     counters, params, plan)
