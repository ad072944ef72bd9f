"""The ``spdc`` layers as the traced run sees them.

:func:`traced_layers` replaces module-level functions of the layers with
wrappers that record spans and counters, and restores them on exit.  A
function imported by name into another module is wrapped where that module
looks it up, so the wrappers see the calls the solvers make.  The wrappers
consume no random numbers and pass arguments and results through untouched,
so a traced solve computes exactly what an untraced one does.

:func:`layer_metrics` turns one traced pass into the per-layer metrics.  Every
``*_s`` metric is a self time: the layer's span durations minus the spans
nested inside them and the wrappers' own bookkeeping, so the layer times of a
pass add up to ``trace.solve_s`` less that bookkeeping.
"""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np

from spdc import cli, core, datamat, sampling, variants

from spans import Tracer, self_times
from summary import tail_percentile

SOLVE = "bench.solve"
RUNNER = "variants.runner"
LOAD = "datamat.load"
LAMBDA_MAX = "datamat.lambda_max"
PLAN = "sampling.plan_build"
ALIAS = "sampling.alias_build"
STEP_RULE = "core.step_rule"
VERIFY = "core.verify"
DUAL_PASS = "core.dual_pass"
PRIMAL_PASS = "core.primal_pass"
FULL_PASS = "variants.full_pass"
SNAPSHOT_GAP = "variants.snapshot_gap"
STATE_COPY = "variants.state_copy"
VIOLATIONS = "variants.violations"
CHECKPOINT = "variants.checkpoint"
_SPAN_NAMES = (SOLVE, RUNNER, LOAD, LAMBDA_MAX, PLAN, ALIAS, STEP_RULE, VERIFY,
               DUAL_PASS, PRIMAL_PASS, FULL_PASS, SNAPSHOT_GAP, STATE_COPY,
               VIOLATIONS, CHECKPOINT)

_PLAN_FUNCTIONS = ("build_uniform", "build_data_driven", "build_ovs", "build_restricted")

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("datamat.load_s", "s", "lower"),
    ("datamat.load_mb_per_s", "MB/s", "higher"),
    ("datamat.lambda_max_s", "s", "lower"),
    ("sampling.plan_build_s", "s", "lower"),
    ("sampling.plan_builds", "count", "lower"),
    ("sampling.alias_build_s", "s", "lower"),
    ("sampling.draws", "count", "lower"),
    ("sampling.uniform_fallbacks", "count", "lower"),
    ("core.step_rule_s", "s", "lower"),
    ("core.step_rule_calls", "count", "lower"),
    ("core.verify_s", "s", "lower"),
    ("core.dual_pass_s", "s", "lower"),
    ("core.dual_pass_calls", "count", "lower"),
    ("core.dual_pass_us_p50", "us", "lower"),
    ("core.dual_pass_us_tail", "us", "lower"),
    ("core.dual_prox_calls", "count", "lower"),
    ("core.dual_prox_unchanged_ratio", "ratio", "lower"),
    ("core.primal_pass_s", "s", "lower"),
    ("core.primal_pass_calls", "count", "lower"),
    ("core.primal_pass_us_p50", "us", "lower"),
    ("core.primal_pass_us_tail", "us", "lower"),
    ("core.primal_coords_visited", "count", "lower"),
    ("core.primal_coords_changed", "count", "lower"),
    ("core.primal_useful_ratio", "ratio", "higher"),
    ("core.primal_bytes_computed", "bytes", "lower"),
    ("variants.full_pass_s", "s", "lower"),
    ("variants.full_passes", "count", "lower"),
    ("variants.snapshot_gap_s", "s", "lower"),
    ("variants.state_copy_s", "s", "lower"),
    ("variants.state_copies", "count", "lower"),
    ("variants.accepts", "count", "higher"),
    ("variants.inner_rounds", "count", "lower"),
    ("variants.accept_ratio", "ratio", "higher"),
    ("variants.refreshes", "count", "lower"),
    ("variants.violations_s", "s", "lower"),
    ("variants.violation_evals", "count", "lower"),
    ("variants.checkpoint_s", "s", "lower"),
    ("variants.checkpoints", "count", "lower"),
    ("variants.checkpoint_ms", "ms", "lower"),
    ("variants.loop_self_s", "s", "lower"),
    ("variants.cache_error_max", "ratio", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _targets():
    """(owner, attribute, span name) of every reference the traced run wraps."""
    out = [(datamat, "load_libsvm", LOAD), (datamat, "lambda_max", LAMBDA_MAX),
           (sampling, "alias_build", ALIAS)]
    for mod in (sampling, core, variants, cli):
        out += [(mod, f, PLAN) for f in _PLAN_FUNCTIONS if f in vars(mod)]
    out += [(core, f, STEP_RULE) for f in
            ("schedule_thm4", "schedule_thm5", "schedule_thm15", "schedule_vanilla")]
    out.append((variants, "_restricted_schedule", STEP_RULE))
    out += [(core, f, VERIFY) for f in ("verify_lemma3", "verify_lemma14", "verify_thm20")]
    out += [(core, "_dual_pass", DUAL_PASS), (core, "_primal_pass", PRIMAL_PASS),
            (variants, "_full_pass", FULL_PASS), (variants, "_checkpoint", CHECKPOINT),
            (variants, "dual_violations", VIOLATIONS),
            (variants, "primal_violations", VIOLATIONS),
            (variants, "primal_objective", SNAPSHOT_GAP),
            (variants, "dual_objective", SNAPSHOT_GAP),
            (core.SolverState, "copy", STATE_COPY)]
    return out


def _spanned(tr: Tracer, name: str, fn):
    nid = tr.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(idx, tr.now())
    return traced


def _load(tr: Tracer, fn):
    nid = tr.name_id(LOAD)

    @functools.wraps(fn)
    def traced(path, *args, **kwargs):
        idx = tr.open(nid)
        try:
            ds = fn(path, *args, **kwargs)
        except BaseException:
            tr.close(idx, tr.now())
            raise
        end = tr.now()
        tr.count("load_bytes", os.path.getsize(path))
        tr.close(idx, end)
        return ds
    return traced


def _primal_pass(tr: Tracer, fn):
    nid = tr.name_id(PRIMAL_PASS)

    @functools.wraps(fn)
    def traced(state, tau, lam, theta, primal_coords=None):
        w_old = state.w
        idx = tr.open(nid)
        try:
            fn(state, tau, lam, theta, primal_coords)
        except BaseException:
            tr.close(idx, tr.now())
            raise
        end = tr.now()
        d = w_old.size
        visited = d if primal_coords is None else len(primal_coords)
        tr.count("primal_visited", visited)
        tr.count("primal_changed", int(np.count_nonzero(state.w != w_old)))
        # computed, not measured: 8-byte reads of v_cache and w_old and writes
        # of w over the visited coordinates, then the extrapolation over all
        # d; a restricted pass also copies w first
        tr.count("primal_bytes", 8 * (3 * visited + 3 * d
                                      + (0 if primal_coords is None else 2 * d)))
        tr.close(idx, end)
    return traced


def _objective(tr: Tracer, fn):
    """Objective calls inside a checkpoint stay part of the checkpoint; the
    others are the snapshot variants' acceptance gap checks."""
    nid = tr.name_id(SNAPSHOT_GAP)
    checkpoint = tr.name_id(CHECKPOINT)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tr.current_name() == checkpoint:
            return fn(*args, **kwargs)
        idx = tr.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(idx, tr.now())
    return traced


def _dual_update(tr: Tracer, name: str, fn):
    """A dual pass or full sweep, with the dual prox calls it made and the
    coordinates the prox left unchanged.  Counting at this boundary, not per
    prox call, keeps the tracer out of the per-coordinate loop; the copy of
    ``alpha`` it compares against is the span's bookkeeping."""
    nid = tr.name_id(name)

    @functools.wraps(fn)
    def traced(state, *args, **kwargs):
        t_in = tr.now()
        before = state.alpha.copy()
        idx = tr.open(nid, t_in)
        try:
            fn(state, *args, **kwargs)
        except BaseException:
            tr.close(idx, tr.now())
            raise
        end = tr.now()
        if name == DUAL_PASS:
            calls = len(state.last_draws)
            coords = np.fromiter(state.last_batch, dtype=np.intp)
        else:  # a full sweep proxes every dual coordinate once
            calls = state.alpha.size
            coords = slice(None)
        updated = before[coords]
        tr.count("dual_prox_calls", calls)
        tr.count("dual_coords_updated", updated.size)
        tr.count("dual_coords_unchanged",
                 int(np.count_nonzero(state.alpha[coords] == updated)))
        tr.close(idx, end)
    return traced


def _wrap(tr: Tracer, name: str, fn):
    if name == LOAD:
        return _load(tr, fn)
    if name == PRIMAL_PASS:
        return _primal_pass(tr, fn)
    if name == SNAPSHOT_GAP:
        return _objective(tr, fn)
    if name in (DUAL_PASS, FULL_PASS):
        return _dual_update(tr, name, fn)
    return _spanned(tr, name, fn)


@contextlib.contextmanager
def traced_layers(tr: Tracer):
    """Wrap every layer function for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in _targets():
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tr, name, fn))
        yield tr
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail_us(durations: np.ndarray) -> tuple[float, float, float | None]:
    """(p50, tail value, tail percentile) of durations, in microseconds."""
    if durations.size == 0:
        return 0.0, 0.0, None
    us = durations * 1e6
    q = tail_percentile(durations.size)
    return (float(np.median(us)),
            float(np.percentile(us, q)) if q is not None else 0.0, q)


def layer_metrics(tr: Tracer, outcomes, overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus details for the report:
    each span name's self-time share of the traced solves, the tail
    percentiles used and the counters of each solve."""
    for name in _SPAN_NAMES:
        tr.name_id(name)  # a layer the pass never entered reads as zero
    table = tr.table()
    ids = table["name"]
    own = np.bincount(ids, weights=self_times(table), minlength=len(tr.names))
    calls = np.bincount(ids, minlength=len(tr.names))
    dur = table["end"] - table["start"]

    def self_s(name):
        return float(own[tr.name_id(name)])

    def n_calls(name):
        return int(calls[tr.name_id(name)])

    def durations(name):
        return dur[ids == tr.name_id(name)]

    c = tr.counter_totals()

    def result_total(key):
        return sum(o.counters.get(key, 0) for o in outcomes)

    total = float(np.sum(durations(SOLVE)))
    dual_p50, dual_tail, dual_q = _tail_us(durations(DUAL_PASS))
    primal_p50, primal_tail, primal_q = _tail_us(durations(PRIMAL_PASS))
    ckpt = durations(CHECKPOINT)
    load_incl = float(np.sum(durations(LOAD)))
    visited = c.get("primal_visited", 0.0)
    errors = [o.cache_error for o in outcomes if np.isfinite(o.cache_error)]
    m = {
        "datamat.load_s": self_s(LOAD),
        "datamat.load_mb_per_s": _ratio(c.get("load_bytes", 0.0) / 1e6, load_incl),
        "datamat.lambda_max_s": self_s(LAMBDA_MAX),
        "sampling.plan_build_s": self_s(PLAN),
        "sampling.plan_builds": n_calls(PLAN),
        "sampling.alias_build_s": self_s(ALIAS),
        "sampling.draws": result_total("duals_drawn"),
        "sampling.uniform_fallbacks": result_total("uniform_fallbacks"),
        "core.step_rule_s": self_s(STEP_RULE),
        "core.step_rule_calls": n_calls(STEP_RULE),
        "core.verify_s": self_s(VERIFY),
        "core.dual_pass_s": self_s(DUAL_PASS),
        "core.dual_pass_calls": n_calls(DUAL_PASS),
        "core.dual_pass_us_p50": dual_p50,
        "core.dual_pass_us_tail": dual_tail,
        "core.dual_prox_calls": c.get("dual_prox_calls", 0.0),
        "core.dual_prox_unchanged_ratio": _ratio(c.get("dual_coords_unchanged", 0.0),
                                                 c.get("dual_coords_updated", 0.0)),
        "core.primal_pass_s": self_s(PRIMAL_PASS),
        "core.primal_pass_calls": n_calls(PRIMAL_PASS),
        "core.primal_pass_us_p50": primal_p50,
        "core.primal_pass_us_tail": primal_tail,
        "core.primal_coords_visited": visited,
        "core.primal_coords_changed": c.get("primal_changed", 0.0),
        "core.primal_useful_ratio": _ratio(c.get("primal_changed", 0.0), visited),
        "core.primal_bytes_computed": c.get("primal_bytes", 0.0),
        "variants.full_pass_s": self_s(FULL_PASS),
        "variants.full_passes": n_calls(FULL_PASS),
        "variants.snapshot_gap_s": self_s(SNAPSHOT_GAP),
        "variants.state_copy_s": self_s(STATE_COPY),
        "variants.state_copies": n_calls(STATE_COPY),
        "variants.accepts": result_total("accepts"),
        "variants.inner_rounds": result_total("inner_rounds"),
        "variants.accept_ratio": _ratio(result_total("accepts"),
                                        result_total("inner_rounds")),
        "variants.refreshes": result_total("refreshes"),
        "variants.violations_s": self_s(VIOLATIONS),
        "variants.violation_evals": n_calls(VIOLATIONS),
        "variants.checkpoint_s": self_s(CHECKPOINT),
        "variants.checkpoints": int(ckpt.size),
        "variants.checkpoint_ms": float(np.median(ckpt)) * 1e3 if ckpt.size else 0.0,
        "variants.loop_self_s": self_s(RUNNER),
        "variants.cache_error_max": max(errors) if errors else 0.0,
        "trace.solve_s": total,
        "trace.overhead_frac": overhead_frac,
    }
    details = {
        "self_share_of_solve_s": {name: _ratio(float(own[i]), total)
                                  for i, name in enumerate(tr.names)},
        "tail_percentile": {"core.dual_pass_us_tail": dual_q,
                            "core.primal_pass_us_tail": primal_q},
        "counters_by_solve": {f"{solve}.{key}": value
                              for (solve, key), value in sorted(tr.counters.items())},
        "spans": int(ids.size),
    }
    return m, details
