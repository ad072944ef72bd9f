"""Solver runs: fixed-plan runs, violation-refresh sampling, exact gating,
and the snapshot/acceptance heuristics that restrict updates to violated
coordinates.

Every runner is one run loop, :func:`_drive`, and a small policy that
runs one unit: an epoch-equivalent of sampled dual coordinates, or one
snapshot round.  The loop emits one trace record per unit, stamped with the
wall seconds since the run began, and stops when the duality gap reaches the
budget tolerance or the epoch budget is spent (budget exhaustion returns the
final state, it is not an error).  It tests the budget before every unit, so
every run ends on a whole unit: a budget that runs out mid-epoch lets the
epoch finish.  Runs are strictly sequential; distinct runs over the same
dataset may execute in parallel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import core
from .core import SolverState, StepParams, init_state
from .errors import NumericalFailure, ZeroViolations
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
class RunResult:
    """A run's state, trace and bookkeeping counters, with the last step
    sizes it used (their plan is ``params.plan``); :func:`_drive` fills it in."""

    state: SolverState
    trace: list
    converged: bool
    counters: dict = field(default_factory=dict)
    params: StepParams | None = None


def _checkpoint(records, idx, epoch, t0, state, ds, spec) -> TraceRecord:
    """Append and return the record of ``state`` at ``perf_counter() - t0`` seconds."""
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
        seconds=time.perf_counter() - t0,
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


def _new_run(ds, state0: SolverState | None, **counters) -> RunResult:
    """An empty run record for :func:`_drive` from a copy of ``state0`` (or
    a zero state), holding the policy's own counters."""
    state = init_state(ds) if state0 is None else state0.copy()
    return RunResult(state, [], False, counters)


def _drive(ds, spec: ProblemSpec, budget: Budget, run: RunResult, advance) -> RunResult:
    """The run loop of every solver.

    ``advance()`` is the solver's policy: it runs one unit on ``run.state``
    (it may replace the state and set ``run.params``) and returns the number
    of duals it drew, or raises :class:`_Optimum`.  Checkpoint 0 comes
    first; the budget is tested before every unit, and every unit is
    checkpointed.  The run ends when a checkpoint's gap reaches the
    tolerance, the budget is spent or the policy finds an exact optimum; an
    optimum gets a last checkpoint, once the state has iterated.
    """
    n = ds.n
    t0 = time.perf_counter()
    records = run.trace
    rec = _checkpoint(records, 0, 0.0, t0, run.state, ds, spec)
    converged = rec.gap <= budget.gap_tol
    drawn = 0
    try:
        while not converged and drawn / n < budget.max_epochs:
            drawn += advance()
            rec = _checkpoint(records, len(records), drawn / n, t0, run.state, ds, spec)
            converged = rec.gap <= budget.gap_tol
    except _Optimum as exc:
        drawn += exc.args[0]
        converged = run.counters["optimal_exit"] = True
        if run.state.iter > 0:
            _checkpoint(records, len(records), drawn / n, t0, run.state, ds, spec)
    run.converged = converged
    run.counters.update(iterations=run.state.iter, duals_drawn=drawn)
    return run


def run_fixed(ds, spec: ProblemSpec, params: StepParams, budget: Budget,
              rng: np.random.Generator, state0: SolverState | None = None) -> RunResult:
    """Run a solver with fixed step sizes, and so their fixed plan, to the budget.

    Each iteration proxes a draw from ``params.plan`` with the steps of
    ``params`` (the shared-sigma rules make them equal: plain SPDC) and then
    the whole primal.  A unit is one epoch, ceil(n/a) iterations.  ``state0``
    warm-starts the run (it is copied).
    """
    run = _new_run(ds, state0)
    run.params, a = params, params.plan.batch
    per_epoch = math.ceil(ds.n / a)

    def epoch():
        core.iterate(run.state, params, ds, spec, rng, per_epoch)
        return per_epoch * a

    return _drive(ds, spec, budget, run, epoch)


def run_ovsspdc(ds, spec: ProblemSpec, a: int, budget: Budget,
                rng: np.random.Generator,
                state0: SolverState | None = None) -> RunResult:
    """Violation-weighted sampling with a probability refresh once per epoch.

    A unit is one epoch-equivalent, ceil(n/a) iterations.  At its start the
    dual violations are recomputed at the current iterate, the violation-weighted
    plan is rebuilt under the cap and within twice uniform's thm5 complexity
    (:func:`build_ovs`), and the sqrt(n)-boosted steps and momentum are rederived;
    the epoch runs as one call of :func:`core.iterate`.  When every violation
    is zero the refresh falls back to the uniform plan and the run continues.
    """
    n = ds.n
    # derived before checkpoint 0, so that a batch or steps the rule refuses end the run first
    uniform = core.schedule_thm5(ds, spec, build_uniform(n, a))
    per_epoch = math.ceil(n / a)
    run = _new_run(ds, state0, refreshes=0, uniform_fallbacks=0)
    counters = run.counters

    def epoch():
        state = run.state
        kappa = dual_violations(state.w, state.alpha, ds, spec)
        kappa = np.where(kappa > 0.0, kappa, 0.0)
        try:
            run.params = core.schedule_thm5(ds, spec, build_ovs(kappa, ds.row_norms, spec, a))
        except ZeroViolations:
            run.params = uniform
            counters["uniform_fallbacks"] += 1
        counters["refreshes"] += 1
        core.iterate(state, run.params, ds, spec, rng, per_epoch)
        return per_epoch * a

    return _drive(ds, spec, budget, run, epoch)


def _restricted_schedule(ds, spec: ProblemSpec, plan: SamplingPlan) -> StepParams:
    """Step sizes for a plan restricted to its n' active coordinates: the plan
    rule over the plan's support (:func:`core._support_rule`), ``thm5`` when
    ``min(a, n')^2 <= n'`` for the plan's batch ``a`` and ``thm4`` otherwise."""
    n_eff = plan.active.size
    boosted = min(plan.batch, n_eff) ** 2 <= n_eff
    return core._support_rule("thm5" if boosted else "thm4", ds, spec, plan)


def run_ovs_exact(ds, spec: ProblemSpec, budget: Budget,
                  rng: np.random.Generator,
                  state0: SolverState | None = None) -> RunResult:
    """Exact violation gating: recompute violations every iteration, sample
    only violated duals (zero probability elsewhere).

    Violations are evaluated against the extrapolated weights, which is the
    quantity the dual prox actually sees, so gated coordinates are exact
    fixed points.  Costs O(nnz) per iteration; intended for small problems.
    A unit is n draws; an iteration that finds the duals settled flushes the
    primal instead, draws nothing and does not count toward the unit.
    Terminates early when every dual and primal violation is exactly zero.
    """
    n = ds.n
    # the flush rule, derived before checkpoint 0 as in :func:`run_ovsspdc`
    flush = core.schedule_thm5(ds, spec, build_uniform(n, 1))
    run = _new_run(ds, state0, optimal_exit=False)

    def epoch():
        state = run.state
        drawn = 0
        while drawn < n:
            kappa_bar = dual_violations(state.w_bar, state.alpha, ds, spec)
            kappa_bar = np.where(kappa_bar > 0.0, kappa_bar, 0.0)
            try:
                plan = build_restricted(kappa_bar, 1)
            except ZeroViolations:
                psi = primal_violations(state.w, state.alpha, ds, spec)
                if np.all(psi == 0.0):
                    raise _Optimum(drawn) from None
                # dual side settled; flush the primal and re-check next iteration
                if run.params is None:
                    run.params = flush
                w_before = state.w.copy()
                core._primal_pass(state, run.params.tau, spec.lam, run.params.theta)
                if np.array_equal(state.w, w_before):
                    # the primal map has frozen too: a genuine fixed point
                    raise _Optimum(drawn) from None
                continue
            run.params = _restricted_schedule(ds, spec, plan)
            core.iterate(state, run.params, ds, spec, rng, 1)
            drawn += 1
        return n

    return _drive(ds, spec, budget, run, epoch)


def _full_pass(state: SolverState, ds, spec: ProblemSpec, params: StepParams) -> None:
    """One deterministic sweep: every dual coordinate proxed once against
    ``w_bar``, then the full primal prox and weight extrapolation.

    No sampling is involved and the weights the duals see do not change during
    the sweep: one product ``X w_bar``, the sampled steps' :func:`dual_prox` with
    ``q = 1/sigma_i`` on every dual (a dual at its fixed point keeps its bits),
    and the dual image rebuilt as ``X^T alpha / n``, exact after every sweep.
    """
    alpha = state.alpha
    alpha[:] = list(map(dual_prox, ds.matvec(state.w_bar).tolist(), alpha.tolist(),
                        (1.0 / params.sigma).tolist(), ds.labels.tolist(), repeat(spec.gamma)))
    state.v_cache = ds.rmatvec(alpha) / ds.n
    core._primal_pass(state, params.tau, spec.lam, params.theta)


def _run_snapshot_variant(ds, spec: ProblemSpec, a: int, budget: Budget,
                          rng: np.random.Generator,
                          restrict_primal: bool) -> RunResult:
    """Shared body of the snapshot/acceptance heuristics; a unit is one round.

    A round is one deterministic full sweep, violation recomputation, then
    an inner loop of ceil(n'/a) sampled iterations over the restricted plan
    on a copy of the state.  The acceptance test runs once per round, at the
    end of the inner loop: the inner iterate is committed only when its
    duality gap strictly improves on the best committed gap, so the
    committed gap sequence is strictly decreasing by construction.  The
    sweep itself is applied without an acceptance test, so the state it
    leaves, and with it the gap of the trace, can be worse than the best
    committed one: the trace gap may rise from round to round.  When
    ``restrict_primal`` is set, inner primal updates touch only coordinates
    with nonzero primal violations.
    """
    n = ds.n
    outer_rule = core.schedule_thm5 if a * a <= n else core.schedule_thm15
    outer_params = outer_rule(ds, spec, build_uniform(n, a))
    run = _new_run(ds, None, primal_writes=0, accepts=0, inner_rounds=0,
                   optimal_exit=False, committed_gaps=[], active_sizes=[], inner_lengths=[])
    counters = run.counters
    gaps = counters["committed_gaps"]  # gaps[-1] is the best committed gap
    # the first is checkpoint 0's: the gap of the zero start state
    gaps.append(primal_objective(run.state.w, ds, spec)
                - dual_objective(run.state.alpha, ds, spec))

    def round_():
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
        run.params = params = _restricted_schedule(ds, spec, plan)
        primal_coords = None
        if restrict_primal:
            psi = primal_violations(state.w, state.alpha, ds, spec)
            psi = np.where(psi > 0.0, psi, 0.0)
            primal_coords = np.flatnonzero(psi != 0.0)
        n_active = plan.active.size
        inner_len = math.ceil(n_active / a)
        counters["active_sizes"].append(n_active)
        counters["inner_lengths"].append(inner_len)
        inner = core.iterate(state.copy(), params, ds, spec, rng, inner_len, primal_coords)
        g = primal_objective(inner.w, ds, spec) - dual_objective(inner.alpha, ds, spec)
        if g < gaps[-1]:
            gaps.append(g)
            run.state = inner
            counters["accepts"] += 1
        counters["inner_rounds"] += 1
        counters["primal_writes"] += inner_len * (ds.d if primal_coords is None
                                                  else len(primal_coords))
        return n + inner_len * a

    return _drive(ds, spec, budget, run, round_)


def run_ovsspdc_plus(ds, spec: ProblemSpec, a: int, budget: Budget,
                     rng: np.random.Generator) -> RunResult:
    """Snapshot/acceptance heuristic restricting dual sampling to violated
    coordinates; full primal updates."""
    return _run_snapshot_variant(ds, spec, a, budget, rng, restrict_primal=False)


def run_ovsspdc_plusplus(ds, spec: ProblemSpec, a: int, budget: Budget,
                         rng: np.random.Generator) -> RunResult:
    """Snapshot/acceptance heuristic restricting both dual sampling and inner
    primal updates to coordinates with nonzero violations.

    Requires a separable penalty; the elastic net qualifies.  The dual-image
    cache still tracks every coordinate, so skipped coordinates resume
    seamlessly once their violation reappears.
    """
    return _run_snapshot_variant(ds, spec, a, budget, rng, restrict_primal=True)
