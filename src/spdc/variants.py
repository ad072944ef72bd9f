"""Solver runs: fixed-plan runs, violation-refresh sampling, exact gating,
and the snapshot/acceptance heuristics that restrict updates to violated
coordinates.

Every runner is one run loop, :func:`_drive`, and a small policy that
picks the plan and step sizes.  The loop emits one trace record per
epoch-equivalent of sampled dual coordinates and stops when the duality gap
reaches the budget tolerance or the epoch budget is spent (budget exhaustion
returns the final state, it is not an error).  It tests the budget between
the policy's units, so the three kinds of run stop differently: a fixed-plan
run tests it between epochs and ends on a whole epoch; ``ovsspdc`` and
``ovs-exact`` test it after every iteration and close with a partial
checkpoint; the snapshot variants test it once per round.  Runs are strictly
sequential; distinct runs over the same dataset may execute in parallel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import (
    DspdcConfig,
    SolverState,
    StepParams,
    adaspdc_step,
    init_state,
)
from .errors import NumericalFailure, ScheduleError, ZeroViolations
from .objective import (
    ProblemSpec,
    dual_objective,
    dual_prox,
    dual_violations,
    primal_objective,
    primal_violations,
)
from .sampling import SamplingPlan, build_ovs, build_restricted, build_uniform
from .trace import TraceRecord

__all__ = [
    "Budget",
    "VariantConfig",
    "RunResult",
    "run_fixed",
    "run_ovsspdc",
    "run_ovs_exact",
    "run_ovsspdc_plus",
    "run_ovsspdc_plusplus",
]


@dataclass(frozen=True)
class Budget:
    """Stopping rule: absolute duality-gap tolerance and epoch-equivalent cap."""

    gap_tol: float = 1e-8
    max_epochs: float = 100.0


@dataclass
class VariantConfig:
    """Knobs for the violation-driven runners.

    ``refresh_every`` is the iteration period of the violation/probability
    refresh (None means ceil(n/a)).  ``gap_check_every`` sets how often the
    snapshot acceptance test runs inside an inner loop (None means once, at
    the end).  A violation counts as zero only at exact float equality,
    which the prox arithmetic produces at fixed points.  ``record_draws``
    keeps a log of all sampled indices for instrumentation.
    """

    refresh_every: int | None = None
    gap_check_every: int | None = None
    record_draws: bool = False

    def __post_init__(self):
        if self.refresh_every is not None and self.refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")


@dataclass
class RunResult:
    """A run's state, trace and bookkeeping counters, with the last plan and
    step sizes it used; :func:`_drive` fills it in."""

    state: SolverState
    trace: list
    converged: bool
    counters: dict = field(default_factory=dict)
    params: StepParams | None = None
    plan: SamplingPlan | None = None


class _Clock:
    """Wall-clock stopwatch; frozen at zero when timing is disabled."""

    def __init__(self, timing: bool = True):
        self.timing = timing
        self._t0 = time.perf_counter()

    def read(self) -> float:
        return time.perf_counter() - self._t0 if self.timing else 0.0


def _checkpoint(records, idx, epoch, clock, state, ds, spec) -> TraceRecord:
    p_val = primal_objective(state.w, ds, spec)
    d_val = dual_objective(state.alpha, ds, spec)
    if not (np.isfinite(p_val) and np.isfinite(d_val)):
        raise NumericalFailure(
            f"non-finite objective at checkpoint {idx}: primal={p_val}, dual={d_val}"
        )
    if state.cache_error(ds) > 1e-9:
        raise NumericalFailure(f"dual-image cache drifted at checkpoint {idx}")
    kappa = dual_violations(state.w, state.alpha, ds, spec)
    rec = TraceRecord(
        checkpoint=idx,
        epoch=epoch,
        seconds=clock.read(),
        primal=p_val,
        dual=d_val,
        gap=p_val - d_val,
        nnz_w=int(np.count_nonzero(state.w)),
        zero_kappa=int(np.count_nonzero(kappa == 0.0)),
    )
    records.append(rec)
    return rec


class _Optimum(Exception):
    """The iterate is an exact optimum; ``args[0]`` is the number of duals
    the unit that found it drew."""


def _new_run(ds, state0: SolverState | None, cfg: VariantConfig | None = None,
             actives: bool = True, **counters) -> RunResult:
    """An empty run record for :func:`_drive` from a copy of ``state0`` (or
    a zero state), holding the policy's own counters and, when
    ``cfg.record_draws`` is set, the logs of sampled indices (and of active
    sets, with ``actives``)."""
    if cfg is not None and cfg.record_draws:
        counters["draw_log"] = []
        if actives:
            counters["active_log"] = []
    state = init_state(ds) if state0 is None else state0.copy()
    return RunResult(state, [], False, counters)


def _drive(ds, spec: ProblemSpec, budget: Budget, run: RunResult, advance,
           every: int, timing: bool, start=None) -> RunResult:
    """The run loop of every solver.

    ``advance(units)`` is the solver's policy: it runs the iterations
    between two budget tests on ``run.state`` (it may replace the state and
    set ``run.plan``/``run.params``), is told how many units ran before it
    and returns the number of duals it drew, or raises :class:`_Optimum`.
    Checkpoint 0 comes first; the budget is tested before every unit; a
    unit that drew duals and ends a multiple of ``every`` units is
    checkpointed.  The run ends when a checkpoint's gap reaches the
    tolerance, the budget is spent or the policy finds an exact optimum; an
    optimum or a unit off the cadence gets a last checkpoint, once the state
    has iterated.  ``start``, if given, is called with the gap of
    checkpoint 0.
    """
    n = ds.n
    clock = _Clock(timing)
    records = run.trace
    rec = _checkpoint(records, 0, 0.0, clock, run.state, ds, spec)
    converged = rec.gap <= budget.gap_tol
    if start is not None:
        start(rec.gap)
    drawn = units = 0
    optimal = False
    try:
        while not converged and drawn / n < budget.max_epochs:
            k = advance(units)
            drawn += k
            units += 1
            if k and units % every == 0:
                rec = _checkpoint(records, len(records), drawn / n, clock, run.state, ds, spec)
                converged = rec.gap <= budget.gap_tol
    except _Optimum as exc:
        drawn += exc.args[0]
        optimal = run.counters["optimal_exit"] = True
    if run.state.iter > 0 and (optimal or units % every != 0):
        rec = _checkpoint(records, len(records), drawn / n, clock, run.state, ds, spec)
        converged = rec.gap <= budget.gap_tol
    run.converged = converged or optimal
    run.counters.update(iterations=run.state.iter, duals_drawn=drawn)
    return run


def run_fixed(ds, spec: ProblemSpec, plan: SamplingPlan, params: StepParams,
              a: int, budget: Budget, rng: np.random.Generator,
              dspdc_cfg: DspdcConfig | None = None, timing: bool = True,
              state0: SolverState | None = None) -> RunResult:
    """Run a solver with a fixed plan and fixed step sizes to the budget.

    Each iteration proxes sampled duals with the steps of ``params`` (the
    shared-sigma rules make them equal: plain SPDC) and then the whole
    primal, or with ``dspdc_cfg`` one random primal block.  The budget is
    tested between epochs.  ``state0`` warm-starts the run (it is copied).
    """
    run = _new_run(ds, state0)
    run.plan, run.params = plan, params
    per_epoch = math.ceil(ds.n / a)

    def epoch(_):
        state = run.state
        for _ in range(per_epoch):
            if dspdc_cfg is None:
                adaspdc_step(state, params, plan, ds, spec, a, rng)
            else:
                core.dspdc_step(state, params, plan, dspdc_cfg, ds, spec, a, rng)
        return per_epoch * a

    return _drive(ds, spec, budget, run, epoch, 1, timing)


def run_ovsspdc(ds, spec: ProblemSpec, a: int, cfg: VariantConfig, budget: Budget,
                rng: np.random.Generator, timing: bool = True,
                state0: SolverState | None = None) -> RunResult:
    """Violation-weighted sampling with periodic probability refresh.

    Every ``refresh_every`` iterations (default one epoch-equivalent) the dual
    violations are recomputed at the current iterate, the capped
    violation-weighted plan is rebuilt, and the sqrt(n)-boosted step sizes and
    momentum are rederived from it.  When every violation is zero the refresh
    falls back to the uniform plan and the run continues.  The budget is
    tested after every iteration.
    """
    n = ds.n
    if a * a > n:
        raise ScheduleError(f"violation-weighted sampling requires a <= sqrt(n); got a={a}")
    per_epoch = math.ceil(n / a)
    refresh_every = cfg.refresh_every or per_epoch
    run = _new_run(ds, state0, cfg, actives=False, refreshes=0,
                   uniform_fallbacks=0)
    counters = run.counters
    draws = counters.get("draw_log")

    def iteration(it):
        state = run.state
        if it % refresh_every == 0:
            kappa = dual_violations(state.w, state.alpha, ds, spec)
            kappa = np.where(kappa > 0.0, kappa, 0.0)
            try:
                run.plan = build_ovs(kappa, ds.row_norms, a, n)
            except ZeroViolations:
                run.plan = build_uniform(n, a)
                counters["uniform_fallbacks"] += 1
            run.params = core.schedule_thm5(ds, spec, run.plan)
            counters["refreshes"] += 1
        adaspdc_step(state, run.params, run.plan, ds, spec, a, rng)
        if draws is not None:
            draws.append(state.last_draws.copy())
        return a

    return _drive(ds, spec, budget, run, iteration, per_epoch, timing)


def _restricted_schedule(ds, spec: ProblemSpec, plan: SamplingPlan, a: int) -> StepParams:
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
    ru = core._r_under(p_act, norms_act)
    a_eff = min(a, n_eff)
    boosted = a_eff * a_eff <= n_eff
    tau, sig_act = core._steps(spec, n_eff if boosted else 1, a_eff * ru / 2.0,
                               n_eff * p_act / (2.0 * norms_act))
    degenerate = spec.gamma - p_act * n_eff / sig_act == 0.0
    if np.any(degenerate):
        sig_act = np.where(degenerate, sig_act * (1.0 + 1e-9), sig_act)
    sigma = np.ones(ds.n)
    sigma[active] = sig_act
    params = StepParams(tau=tau, sigma=sigma, theta=0.5,
                        schedule="thm5" if boosted else "thm4", r_under=ru, n_eff=n_eff)
    params.theta = core._theta(spec, tau, a_eff, n_eff, p_act, sig_act)
    return params


def run_ovs_exact(ds, spec: ProblemSpec, cfg: VariantConfig, budget: Budget,
                  rng: np.random.Generator, timing: bool = True,
                  state0: SolverState | None = None) -> RunResult:
    """Exact violation gating: recompute violations every iteration, sample
    only violated duals (zero probability elsewhere).

    Violations are evaluated against the extrapolated weights, which is the
    quantity the dual prox actually sees, so gated coordinates are exact
    fixed points.  Costs O(nnz) per iteration; intended for small problems.
    Terminates early when every dual and primal violation is exactly zero.
    The budget is tested after every iteration.
    """
    run = _new_run(ds, state0, cfg, optimal_exit=False)
    draws, actives = run.counters.get("draw_log"), run.counters.get("active_log")

    def iteration(_):
        state = run.state
        kappa_bar = dual_violations(state.w_bar, state.alpha, ds, spec)
        kappa_bar = np.where(kappa_bar > 0.0, kappa_bar, 0.0)
        try:
            plan = build_restricted(kappa_bar, 1)
        except ZeroViolations:
            psi = primal_violations(state.w, state.alpha_bar, ds, spec)
            if np.all(psi == 0.0):
                raise _Optimum(0) from None
            # dual side settled; flush the primal and re-check next iteration
            if run.params is None:
                run.params = core.schedule_thm5(ds, spec, build_uniform(ds.n, 1))
            core._settle_alpha_bar(state, ds)
            w_before = state.w.copy()
            core._primal_pass(state, run.params.tau, spec.lam, run.params.theta)
            if np.array_equal(state.w, w_before):
                # the primal map has frozen too: a genuine fixed point
                raise _Optimum(0) from None
            return 0  # drew nothing, so takes no checkpoint
        run.plan = plan
        run.params = _restricted_schedule(ds, spec, plan, 1)
        adaspdc_step(state, run.params, plan, ds, spec, 1, rng)
        if draws is not None:
            draws.append(state.last_draws.copy())
            actives.append(plan.active.copy())
        return 1

    return _drive(ds, spec, budget, run, iteration, ds.n, timing)


def _full_pass(state: SolverState, ds, spec: ProblemSpec, params: StepParams) -> None:
    """One deterministic sweep: every dual coordinate once, in index order,
    then the full primal prox and weight extrapolation.

    No sampling is involved, so the duals enter the cache unextrapolated.
    """
    n = ds.n
    indptr, indices, data = ds.csr_arrays()
    core._settle_alpha_bar(state, ds)
    alpha = state.alpha
    w_bar = state.w_bar
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        s = float(np.dot(data[lo:hi], w_bar[indices[lo:hi]]))
        q = 1.0 / params.sigma[i]
        new = dual_prox(s, alpha[i], q, ds.labels[i], spec.gamma)
        delta = new - alpha[i]
        if delta != 0.0:
            state.v_cache[indices[lo:hi]] += (delta / n) * data[lo:hi]
            alpha[i] = new
            state.alpha_bar[i] = new
    core._primal_pass(state, params.tau, spec.lam, params.theta)


def _run_snapshot_variant(ds, spec: ProblemSpec, a: int, cfg: VariantConfig,
                          budget: Budget, rng: np.random.Generator,
                          restrict_primal: bool, timing: bool = True) -> RunResult:
    """Shared body of the snapshot/acceptance heuristics; the budget is
    tested once per round.

    A round is one deterministic full sweep, violation recomputation, then
    an inner loop of ceil(n'/a) sampled iterations over the restricted plan
    on a copy of the state.  Inner iterates are committed only when their
    duality gap strictly improves on the best committed gap, so the
    committed gap sequence is strictly decreasing by construction.  When
    ``restrict_primal`` is set, inner primal updates touch only coordinates
    with nonzero primal violations.
    """
    n = ds.n
    if a * a <= n:
        outer_params = core.schedule_thm5(ds, spec, build_uniform(n, a))
    else:
        outer_params = core.schedule_thm15(ds, spec, a)
    run = _new_run(ds, None, cfg, primal_writes=0, accepts=0, inner_rounds=0,
                   optimal_exit=False, committed_gaps=[])
    counters = run.counters
    draws, actives = counters.get("draw_log"), counters.get("active_log")
    gaps = counters["committed_gaps"]  # gaps[-1] is the best committed gap
    check_every = cfg.gap_check_every

    def round_(_):
        state = run.state
        _full_pass(state, ds, spec, outer_params)
        counters["primal_writes"] += ds.d
        kappa = dual_violations(state.w, state.alpha, ds, spec)
        kappa = np.where(kappa > 0.0, kappa, 0.0)
        g_full = primal_objective(state.w, ds, spec) - dual_objective(state.alpha, ds, spec)
        if g_full < gaps[-1]:
            gaps.append(g_full)
        if gaps[-1] <= budget.gap_tol:
            return n  # the checkpoint of this state ends the run
        try:
            plan = build_restricted(kappa, a)
        except ZeroViolations:
            raise _Optimum(n) from None
        run.plan = plan
        run.params = params = _restricted_schedule(ds, spec, plan, a)
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
        for u in range(1, inner_len + 1):
            adaspdc_step(inner, params, plan, ds, spec, a, rng, primal_coords=primal_coords)
            if draws is not None:
                draws.append(inner.last_draws.copy())
                actives.append(plan.active.copy())
            if (check_every is not None and u % check_every == 0) or u == inner_len:
                g = primal_objective(inner.w, ds, spec) - dual_objective(inner.alpha, ds, spec)
                if g < gaps[-1]:
                    gaps.append(g)
                    run.state = inner.copy()
                    counters["accepts"] += 1
                    if g <= budget.gap_tol:
                        break
        counters["inner_rounds"] += 1
        counters["primal_writes"] += u * (ds.d if primal_coords is None else len(primal_coords))
        return n + u * a

    return _drive(ds, spec, budget, run, round_, 1, timing, start=gaps.append)


def run_ovsspdc_plus(ds, spec: ProblemSpec, a: int, cfg: VariantConfig,
                     budget: Budget, rng: np.random.Generator,
                     timing: bool = True) -> RunResult:
    """Snapshot/acceptance heuristic restricting dual sampling to violated
    coordinates; full primal updates."""
    return _run_snapshot_variant(ds, spec, a, cfg, budget, rng,
                                 restrict_primal=False, timing=timing)


def run_ovsspdc_plusplus(ds, spec: ProblemSpec, a: int, cfg: VariantConfig,
                         budget: Budget, rng: np.random.Generator,
                         timing: bool = True) -> RunResult:
    """Snapshot/acceptance heuristic restricting both dual sampling and inner
    primal updates to coordinates with nonzero violations.

    Requires a separable penalty; the elastic net qualifies.  The dual-image
    cache still tracks every coordinate, so skipped coordinates resume
    seamlessly once their violation reappears.
    """
    return _run_snapshot_variant(ds, spec, a, cfg, budget, rng,
                                 restrict_primal=True, timing=timing)
