"""Violation-driven run loops: refresh sampling, exact gating, snapshot heuristics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdc import core, variants
from spdc.core import init_state, schedule_thm4, schedule_thm5, schedule_vanilla
from spdc.datamat import example_path, lambda_max, load_libsvm
from spdc.errors import NumericalFailure, ScheduleError
from spdc.objective import (
    ProblemSpec,
    dual_objective,
    dual_violations,
    duality_gap,
    primal_objective,
    primal_violations,
)
from spdc.sampling import build_restricted, build_uniform
from spdc.variants import (
    Budget,
    run_fixed,
    run_ovs_exact,
    run_ovsspdc,
    run_ovsspdc_plus,
    run_ovsspdc_plusplus,
)

from conftest import assert_settled, make_dataset, untimed
from oracles import lbfgs_optimum


def optimal_zero_state(ds, spec):
    """Exactly optimal state for lam > lambda_max: w = 0, alpha = y."""
    state = init_state(ds)
    state.alpha = ds.labels.copy()
    state.v_cache = ds.rmatvec(state.alpha) / ds.n
    return state


@pytest.fixture(scope="module")
def mid():
    """n=80, d=16 problem, moderately regularized."""
    ds = make_dataset(80, 16, seed=20, density=0.5)
    return ds, ProblemSpec(gamma=1.0, lam=1e-2 * lambda_max(ds))


@pytest.mark.parametrize("runner", ["adaspdc", "dspdc", "ovsspdc",
                                    "ovs-exact", "plus", "plusplus"])
def test_runners_return_settled_states(mid, runner):
    # the budget runs out mid-epoch, after a sampled step
    ds, spec = mid
    budget, rng = Budget(gap_tol=1e-12, max_epochs=2.5), np.random.default_rng(3)
    plan = build_uniform(ds.n, 2)
    if runner == "adaspdc":
        res = run_fixed(ds, spec, schedule_thm5(ds, spec, plan), budget, rng)
    elif runner == "dspdc":  # spdc's shared step, as cli runs dspdc
        res = run_fixed(ds, spec, schedule_vanilla(ds, spec, plan, "cor19"), budget, rng)
    elif runner == "ovs-exact":
        res = run_ovs_exact(ds, spec, budget, rng)
    else:
        run = {"ovsspdc": run_ovsspdc, "plus": run_ovsspdc_plus,
               "plusplus": run_ovsspdc_plusplus}[runner]
        res = run(ds, spec, 2, budget, rng)
    assert res.state.iter > 0
    assert_settled(res.state, ds)


def test_cache_does_not_drift_over_2000_epochs(monkeypatch):
    # Every step adds its extrapolation into v_cache and takes it out again,
    # so rounding could pile up.  At lam = 1e-6 lam_max the run is still
    # moving after 2000 epochs (gap about 9e-10), and the largest cache_error
    # measured over its 2001 checkpoints is about 2e-19.
    ds = make_dataset(64, 16, seed=5, normalize=True)
    spec = ProblemSpec(gamma=1.0, lam=1e-6 * lambda_max(ds))
    plan = build_uniform(ds.n, 4)
    errors = []
    cache_error = core.SolverState.cache_error

    def recorded(state, ds):
        errors.append(cache_error(state, ds))
        return errors[-1]

    monkeypatch.setattr(core.SolverState, "cache_error", recorded)
    res = run_fixed(ds, spec, schedule_thm5(ds, spec, plan),
                    Budget(gap_tol=0.0, max_epochs=2000), np.random.default_rng(1))
    assert len(res.trace) == len(errors) == 2001 and res.trace[-1].epoch == 2000
    assert res.trace[-1].gap > 0.0 and res.trace[-1].primal != res.trace[-2].primal
    assert max(errors) < 1e-15  # the checkpoint fails a run at 1e-9


class TestOvsSpdc:
    def test_converges_and_refreshes(self, mid):
        ds, spec = mid
        res = run_ovsspdc(ds, spec, 2, Budget(1e-9, 3000),
                          np.random.default_rng(0))
        assert res.converged
        assert res.counters["refreshes"] > 1
        assert res.trace[-1].gap <= 1e-9

    def test_batch_cap(self, mid):
        ds, spec = mid
        with pytest.raises(ScheduleError, match="sqrt"):
            run_ovsspdc(ds, spec, 10, Budget(), np.random.default_rng(0))

    def test_uniform_fallback_at_optimum(self):
        ds = make_dataset(25, 6, seed=21)
        spec = ProblemSpec(gamma=1.0, lam=1.05 * lambda_max(ds))
        state0 = optimal_zero_state(ds, spec)
        assert np.all(dual_violations(state0.w, state0.alpha, ds, spec) == 0.0)
        # unreachable tolerance keeps the loop running through the fallback path
        res = run_ovsspdc(ds, spec, 1, Budget(gap_tol=-1.0, max_epochs=3.0),
                          np.random.default_rng(1), state0=state0)
        assert res.counters["uniform_fallbacks"] >= 1
        # the run continued but never moved off the optimum
        assert np.array_equal(res.state.w, state0.w)
        assert np.array_equal(res.state.alpha, state0.alpha)
        gap0 = duality_gap(state0.w, state0.alpha, ds, spec)
        assert res.trace[-1].gap <= gap0 + 1e-12

    def test_agrees_with_uniform_long_run(self, mid):
        ds, spec = mid
        budget = Budget(1e-9, 4000)
        plan = build_uniform(ds.n, 1)
        params = schedule_thm5(ds, spec, plan)
        base = run_fixed(ds, spec, params, budget, np.random.default_rng(2))
        ovs = run_ovsspdc(ds, spec, 1, budget, np.random.default_rng(3))
        assert base.converged and ovs.converged
        p_base = primal_objective(base.state.w, ds, spec)
        p_ovs = primal_objective(ovs.state.w, ds, spec)
        assert abs(p_base - p_ovs) <= 1e-6 * abs(p_base)


class TestOvsExact:
    def test_converges_tiny(self, tiny):
        ds, spec = tiny
        res = run_ovs_exact(ds, spec, Budget(1e-10, 4000),
                            np.random.default_rng(4))
        assert res.converged
        assert res.trace[-1].gap <= 1e-10

    def test_zero_probability_never_sampled(self, tiny, draw_log):
        ds, spec = tiny
        run_ovs_exact(ds, spec, Budget(1e-10, 4000), np.random.default_rng(5))
        assert draw_log
        for plan, draws in draw_log:
            assert plan.kind == "restricted" and np.all(plan.p[draws] > 0)

    def test_matches_refresh_variant_objective(self, tiny):
        ds, spec = tiny
        exact = run_ovs_exact(ds, spec, Budget(1e-10, 4000),
                              np.random.default_rng(6))
        ovs = run_ovsspdc(ds, spec, 1, Budget(1e-10, 4000),
                          np.random.default_rng(7))
        p1 = primal_objective(exact.state.w, ds, spec)
        p2 = primal_objective(ovs.state.w, ds, spec)
        assert abs(p1 - p2) <= 1e-8 * max(1.0, abs(p1))

    def test_terminates_at_exact_optimum(self):
        ds = make_dataset(15, 5, seed=22)
        spec = ProblemSpec(gamma=1.0, lam=1.1 * lambda_max(ds))
        state0 = optimal_zero_state(ds, spec)
        res = run_ovs_exact(ds, spec, Budget(gap_tol=-1.0, max_epochs=50),
                            np.random.default_rng(8), state0=state0)
        assert res.counters["optimal_exit"]
        assert res.counters["duals_drawn"] == 0

    def test_first_iteration_flush_converges(self, monkeypatch):
        # below lambda_max the zero weights are not optimal, but every dual
        # at y_i is (gamma = 1): the first iteration finds no violated dual
        # and flushes the primal with the uniform thm5 steps
        ds = make_dataset(50, 10, seed=33, density=0.6)
        spec = ProblemSpec(gamma=1.0, lam=0.1 * lambda_max(ds))
        state0 = optimal_zero_state(ds, spec)
        assert np.all(dual_violations(state0.w_bar, state0.alpha, ds, spec) <= 0.0)
        passes = []
        primal_pass = core._primal_pass

        def recorded(state, tau, lam, theta, primal_coords=None):
            passes.append((tau, lam, theta))
            primal_pass(state, tau, lam, theta, primal_coords)

        monkeypatch.setattr(core, "_primal_pass", recorded)
        res = run_ovs_exact(ds, spec, Budget(gap_tol=1e-8, max_epochs=2000),
                            np.random.default_rng(9), state0=state0)
        flush = schedule_thm5(ds, spec, build_uniform(ds.n, 1))
        assert passes[0] == (flush.tau, spec.lam, flush.theta)
        p_val = primal_objective(res.state.w, ds, spec)
        d_val = dual_objective(res.state.alpha, ds, spec)
        assert res.converged and p_val - d_val <= 1e-8
        assert d_val - 1e-14 <= lbfgs_optimum(ds, spec) <= p_val + 1e-14


class TestCheckpointGuards:
    """A state the run cannot certify ends it at its first checkpoint."""

    def _run(self, mid, state0):
        ds, spec = mid
        params = schedule_thm5(ds, spec, build_uniform(ds.n, 1))
        return run_fixed(ds, spec, params, Budget(), np.random.default_rng(0), state0=state0)

    def test_non_finite_objective(self, mid):
        state0 = init_state(mid[0])
        state0.w = np.where(np.arange(mid[0].d) == 0, np.inf, 0.0)
        with pytest.raises(NumericalFailure, match="non-finite objective at checkpoint 0"):
            self._run(mid, state0)

    def test_cache_drift(self, mid):
        state0 = init_state(mid[0])
        state0.v_cache = state0.v_cache + 1e-6
        with pytest.raises(NumericalFailure, match="dual-image cache drifted at checkpoint 0"):
            self._run(mid, state0)


class TestSnapshotVariants:
    def test_committed_gaps_strictly_decreasing(self, mid):
        ds, spec = mid
        for runner in (run_ovsspdc_plus, run_ovsspdc_plusplus):
            res = runner(ds, spec, 1, Budget(1e-9, 3000),
                         np.random.default_rng(9))
            gaps = res.counters["committed_gaps"]
            assert res.converged
            assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_zero_kappa_never_drawn(self, mid, draw_log):
        ds, spec = mid
        run_ovsspdc_plus(ds, spec, 1, Budget(1e-9, 3000), np.random.default_rng(10))
        assert any(np.any(plan.p == 0.0) for plan, _ in draw_log)
        for plan, draws in draw_log:
            assert plan.kind == "restricted" and np.all(plan.p[draws] > 0)

    def test_inner_loop_length_scales_with_active_set(self, mid):
        ds, spec = mid
        # inner loops run ceil(n'/a) iterations over the n' live duals
        res = run_ovsspdc_plus(ds, spec, 3, Budget(1e-9, 3000),
                               np.random.default_rng(14))
        sizes = res.counters["active_sizes"]
        lengths = res.counters["inner_lengths"]
        assert lengths == [-(-s // 3) for s in sizes]
        assert min(sizes) < ds.n  # later rounds really do shrink

    def test_plusplus_equals_plus_when_psi_all_nonzero(self):
        # dense data and tiny lambda keep every primal violation live in round 1
        ds = make_dataset(60, 10, seed=26, density=0.9)
        spec = ProblemSpec(gamma=1.0, lam=3e-4 * lambda_max(ds))
        budget = Budget(gap_tol=1e-15, max_epochs=0.5)  # exactly one outer round
        r1 = run_ovsspdc_plus(ds, spec, 1, budget,
                              np.random.default_rng(11))
        r2 = run_ovsspdc_plusplus(ds, spec, 1, budget,
                                  np.random.default_rng(11))
        # precondition: no coordinate was skipped, so the loops did identical work
        assert r2.counters["primal_writes"] == r1.counters["primal_writes"]
        assert np.array_equal(r1.state.w, r2.state.w)
        assert np.array_equal(r1.state.alpha, r2.state.alpha)

    def test_plusplus_skips_primal_writes_on_sparse_problem(self):
        ds = make_dataset(120, 40, seed=23, density=0.25)
        spec = ProblemSpec(gamma=1.0, lam=0.3 * lambda_max(ds))  # strongly sparse w*
        budget = Budget(1e-9, 4000)
        plus = run_ovsspdc_plus(ds, spec, 1, budget,
                                np.random.default_rng(12))
        pp = run_ovsspdc_plusplus(ds, spec, 1, budget,
                                  np.random.default_rng(12))
        assert plus.converged and pp.converged
        assert pp.counters["primal_writes"] < plus.counters["primal_writes"]
        p1 = primal_objective(plus.state.w, ds, spec)
        p2 = primal_objective(pp.state.w, ds, spec)
        assert abs(p1 - p2) <= 1e-6 * max(1.0, abs(p1))

    def test_skipped_coordinates_frozen_within_inner_loop(self, mid):
        ds, spec = mid
        plan = build_uniform(ds.n, 1)
        params = schedule_thm5(ds, spec, plan)
        state = init_state(ds)
        rng = np.random.default_rng(13)
        for _ in range(40):
            core.iterate(state, params, ds, spec, rng, 1)
        psi = primal_violations(state.w, state.alpha, ds, spec)
        live = np.flatnonzero(psi != 0.0)
        frozen = np.setdiff1d(np.arange(ds.d), live)
        w_frozen = state.w[frozen].copy()
        for _ in range(30):
            core.iterate(state, params, ds, spec, rng, 1, primal_coords=live)
        assert np.array_equal(state.w[frozen], w_frozen)


class TestDeterminism:
    def test_same_seed_identical_trace(self, mid):
        ds, spec = mid
        runs = [
            run_ovsspdc(ds, spec, 2, Budget(1e-8, 2000),
                        np.random.default_rng(55))
            for _ in range(2)
        ]
        assert untimed(runs[0].trace) == untimed(runs[1].trace)
        assert np.array_equal(runs[0].state.w, runs[1].state.w)
        assert np.array_equal(runs[0].state.alpha, runs[1].state.alpha)


class TestCrossSolverAgreementSmall:
    def test_all_variants_same_objective(self, mid):
        ds, spec = mid
        budget = Budget(1e-9, 4000)
        plan = build_uniform(ds.n, 1)
        params = schedule_thm5(ds, spec, plan)
        runs = {
            "uniform": run_fixed(ds, spec, params, budget, np.random.default_rng(30)),
            "ovs": run_ovsspdc(ds, spec, 1, budget, np.random.default_rng(31)),
            "plus": run_ovsspdc_plus(ds, spec, 1, budget, np.random.default_rng(32)),
            "pp": run_ovsspdc_plusplus(ds, spec, 1, budget, np.random.default_rng(33)),
        }
        values = {k: primal_objective(r.state.w, ds, spec) for k, r in runs.items()}
        ref = values["uniform"]
        for k, v in values.items():
            assert abs(v - ref) <= 1e-6 * abs(ref), (k, v, ref)
        for k, r in runs.items():
            assert r.converged, k


@given(n=st.integers(1, 40), d=st.integers(1, 8), seed=st.integers(0, 10**6),
       density=st.floats(0.2, 1.0), gamma=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
       scale=st.floats(1e-4, 2.0), data=st.data())
@settings(max_examples=80, deadline=None)
def test_restricted_rule_on_full_support_is_the_plan_rule(n, d, seed, density, gamma,
                                                          scale, data):
    """On a restricted plan that draws every dual, the restricted rule is
    thm5 (thm4 when a^2 > n) on the uniform plan, bit for bit."""
    ds = make_dataset(n, d, seed=seed, density=density)
    lmax = lambda_max(ds)
    assume(lmax > 0.0)
    spec = ProblemSpec(gamma=gamma, lam=scale * lmax)
    a = data.draw(st.integers(1, n))
    kappa = np.array(data.draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n)))
    got = variants._restricted_schedule(ds, spec, build_restricted(kappa, a))
    rule = schedule_thm5 if a * a <= n else schedule_thm4
    want = rule(ds, spec, build_uniform(n, a))

    def bits(params):
        scalars = np.array([params.tau, params.theta, params.r_under])
        return (scalars.view(np.int64).tolist(), params.sigma.view(np.int64).tolist(),
                params.schedule, params.n_eff)

    assert bits(got) == bits(want)


@pytest.fixture(scope="module")
def bundled():
    """The dataset shipped with the package: n=40, d=10."""
    ds = load_libsvm(example_path(), normalize=True)
    return ds, ProblemSpec(gamma=1.0, lam=1e-2 * lambda_max(ds))


@pytest.mark.parametrize("runner", [run_ovsspdc, run_ovsspdc_plus, run_ovsspdc_plusplus])
@pytest.mark.parametrize("a", [0, -2])
def test_batch_below_one_is_rejected(bundled, runner, a):
    ds, spec = bundled
    with pytest.raises(ValueError, match=rf"batch size {a} must lie in \[1, {ds.n}\]"):
        runner(ds, spec, a, Budget(), np.random.default_rng(0))


@pytest.mark.parametrize("rule,a", [("thm5", 3), ("thm15", 7), ("ovsspdc", 2)])
def test_runs_draw_the_batch_of_their_plan(bundled, monkeypatch, rule, a):
    ds, spec = bundled
    sizes = []  # the duals each step drew (d < core._LAZY_MIN_D: a pass is a step)
    dual_pass = core._dual_pass

    def recorded(state, *args, **kwargs):
        dual_pass(state, *args, **kwargs)
        sizes.append(len(state.last_draws))

    monkeypatch.setattr(core, "_dual_pass", recorded)
    budget, rng = Budget(gap_tol=1e-12, max_epochs=2.0), np.random.default_rng(5)
    if rule == "thm5":
        res = run_fixed(ds, spec, schedule_thm5(ds, spec, build_uniform(ds.n, a)), budget, rng)
    elif rule == "thm15":
        res = run_fixed(ds, spec, core.schedule_thm15(ds, spec, build_uniform(ds.n, a)), budget, rng)
    else:
        res = run_ovsspdc(ds, spec, a, budget, rng)
    batch = res.params.plan.batch
    assert batch == a
    assert res.counters["duals_drawn"] == res.counters["iterations"] * batch
    assert len(sizes) == res.counters["iterations"] > 0 and set(sizes) == {batch}
