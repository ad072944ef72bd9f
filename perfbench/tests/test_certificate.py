"""The certificate: per-solve checks, cross-solve checks, and failures that
are counted rather than dropped."""

import math
from dataclasses import replace

import numpy as np
import pytest

from certificate import solve_failure, workload_failures
from layers import layer_metrics, traced_layers
from reference import ReferenceKernel
from spans import Tracer
from spdc import cli, datamat, variants
from spdc.objective import ProblemSpec
from workloads import Solve, Workload, make_data, run_pass, run_solve

TOL = 1e-4


def test_converged_solve_with_matching_gap_passes():
    assert solve_failure(True, 5e-5, 5e-5, TOL, 12.0) is None


def test_budget_exhaustion_fails():
    reason = solve_failure(False, 3e-2, 3e-2, TOL, 1.0)
    assert "missed gap_tol" in reason


def test_recomputed_gap_above_tolerance_fails():
    assert "exceeds" in solve_failure(True, 5e-5, 2e-4, TOL, 3.0)


def test_recomputed_gap_must_equal_trace_gap():
    assert "differs" in solve_failure(True, 5e-5, 5.000001e-5, TOL, 3.0)


def test_cross_solve_primal_far_above_best_dual_fails():
    out = workload_failures([1.0, 1.0 + 5e-4], [1.0 - 1e-5, 1.0 - 2e-5], TOL)
    assert list(out) == [1]


def test_cross_solve_weak_duality_violation_fails():
    out = workload_failures([0.95 + 1e-5, 0.9], [0.95, 0.89], TOL)
    assert list(out) == [1]
    assert "below the best dual" in out[1]


def test_cross_solve_non_finite_primal_fails():
    assert list(workload_failures([math.inf], [0.5], TOL)) == [0]


def test_cross_solve_consistent_solves_pass():
    assert workload_failures([1.0 + 1e-5, 1.0 + 2e-5], [1.0, 1.0 - 1e-6], TOL) == {}


TINY = Workload(
    name="tiny", why="", rationale="", n=200, d=30, nnz_row=6, dual_skew=0.5,
    lambda_scale=1e-1, gap_tol=1e-4,
    solves=(Solve("adaspdc", 1), Solve("spdc", 1),
            Solve("ovsspdc-plus", 1)),
    max_epochs=200.0,
)


KERNEL = ReferenceKernel()


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "tiny.svm"
    make_data(TINY, 3, path)
    return path


def test_pass_certifies_every_solve(tiny_data):
    outcomes = run_pass(TINY, tiny_data, 3, KERNEL)
    assert [o.failure for o in outcomes] == [None] * 3
    for o in outcomes:
        assert o.gap == o.trace_gap <= TINY.gap_tol
        assert o.run_s > 0 and o.setup_s > 0 and o.epochs > 0
        assert o.reference_s > 0


def test_too_small_epoch_budget_counts_as_failed(tiny_data):
    starved = replace(TINY, max_epochs=1.0)
    outcomes = run_pass(starved, tiny_data, 3, KERNEL)
    assert len(outcomes) == len(TINY.solves)
    assert all("missed gap_tol" in o.failure for o in outcomes)
    assert all(o.run_s > 0 and o.epochs >= 1.0 for o in outcomes)


def test_exception_fails_the_solve_with_its_reason(tiny_data):
    # a*a > n: violation-weighted sampling rejects the batch size
    out = run_solve(TINY, Solve("ovsspdc", 20), 0, tiny_data, seed=3)
    assert out.failure.startswith("ScheduleError")
    assert out.error_traceback is not None


def test_failing_dspdc_feasibility_check_is_recorded(tiny_data):
    out = run_solve(TINY, Solve("dspdc", 1, dspdc_b=1), 0, tiny_data, seed=3)
    assert out.failure.startswith("ScheduleError: dspdc parameter check failed")
    assert out.conditions == {}


def test_tracing_is_passive(tiny_data):
    untraced = run_pass(TINY, tiny_data, 3, KERNEL)
    tracer = Tracer()
    with traced_layers(tracer):
        traced = run_pass(TINY, tiny_data, 3, KERNEL, tracer)

    def signature(outcomes):
        return [(o.epochs, o.iterations, o.primal, o.dual, o.gap) for o in outcomes]

    assert signature(traced) == signature(untraced)
    assert len(tracer.table()["name"]) > 0


def test_solve_matches_the_cli_dispatch_and_restores_it(tiny_data):
    out = run_solve(TINY, Solve("adaspdc", 1), 0, tiny_data, seed=3)
    cfg = cli.RunConfig(data=str(tiny_data), normalize=True, algo="adaspdc",
                        lambda_scale=TINY.lambda_scale, gap_tol=TINY.gap_tol,
                        max_epochs=TINY.max_epochs)
    ds = datamat.load_libsvm(cfg.data, normalize=True)
    spec = ProblemSpec(gamma=1.0, lam=cfg.lambda_scale * datamat.lambda_max(ds))
    budget = variants.Budget(gap_tol=cfg.gap_tol, max_epochs=cfg.max_epochs)
    result, _ = cli._dispatch(cfg, ds, spec, budget, np.random.default_rng([3, 0]))
    last = result.trace[-1]
    assert (out.epochs, out.primal, out.dual) == (last.epoch, last.primal, last.dual)
    assert out.conditions["lemma3"]["ok"] and out.conditions["lemma14"]["ok"]
    assert cli.run_fixed is variants.run_fixed


def test_dual_prox_calls_match_the_draws(tiny_data):
    tracer = Tracer()
    with traced_layers(tracer):
        outcomes = run_pass(TINY, tiny_data, 3, KERNEL, tracer)
    m, _ = layer_metrics(tracer, outcomes, 0.0)
    assert m["variants.full_passes"] > 0
    assert m["core.dual_prox_calls"] == m["sampling.draws"] > 0
    assert 0.0 < m["core.dual_prox_unchanged_ratio"] < 1.0
