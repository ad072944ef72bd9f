"""Step-size rules, condition checks, iteration steps, and the potential."""

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from spdc import cli, core, variants
from spdc.core import (
    complexity_estimate,
    init_state,
    schedule_thm4,
    schedule_thm5,
    schedule_thm15,
    schedule_vanilla,
    verify_lemma3,
    verify_lemma14,
    verify_thm20,
)
from spdc.cli import RunConfig, synth
from spdc.datamat import SparseDataset, example_path, lambda_max, load_libsvm
from spdc.errors import ConfigError, ScheduleError
from spdc.objective import ProblemSpec
from spdc.sampling import build_ovs, build_restricted, build_uniform, draw_batch

from conftest import assert_settled, make_dataset, solve_to_fixed_point
from oracles import delta_t


def unit_norm_ds(n, d=None, labels=None):
    d = d or n
    M = np.zeros((n, d))
    M[np.arange(n), np.arange(n) % d] = 1.0
    if labels is None:
        labels = [1.0 if i % 2 == 0 else -1.0 for i in range(n)]
    return SparseDataset(sp.csr_matrix(M), labels)


@pytest.fixture(scope="module")
def four():
    ds = unit_norm_ds(4)
    return ds, ProblemSpec(gamma=1.0, lam=1.0), build_uniform(4, 1)


class TestSchedules:
    def test_thm4_hand_values(self, four):
        ds, spec, plan = four
        p = schedule_thm4(ds, spec, plan)
        assert p.tau == 0.125
        assert np.allclose(p.sigma, 0.5, rtol=0)

    def test_thm4_satisfies_lemma14(self):
        for k in range(20):
            ds = make_dataset(int(10 + 3 * k), 6, seed=200 + k, normalize=True)
            spec = ProblemSpec(gamma=1.0, lam=0.3)
            plan = build_uniform(ds.n, 1)
            params = schedule_thm4(ds, spec, plan)
            assert verify_lemma14(params, ds)

    def test_thm4_norm_homogeneity(self, four):
        ds, spec, plan = four
        base = schedule_thm4(ds, spec, plan)
        scaled_ds = SparseDataset(ds._csr * 3.0, ds.labels)
        scaled = schedule_thm4(scaled_ds, spec, plan)
        assert scaled.tau == pytest.approx(base.tau / 3.0, rel=1e-12)
        assert np.allclose(scaled.sigma, base.sigma / 3.0, rtol=1e-12)

    def test_thm5_hand_values(self, four):
        ds, spec, plan = four
        p = schedule_thm5(ds, spec, plan)
        assert p.tau == 0.25
        assert np.allclose(p.sigma, 1.0, rtol=0)
        # the step-size product meets its bound exactly here
        assert p.tau * p.sigma[0] == 1 * (0.25 * 4) ** 2 / 4

    def test_thm5_cap_error_names_instance(self):
        from spdc.sampling import SamplingPlan, alias_build

        ds = unit_norm_ds(4)
        p = np.array([0.6, 0.2, 0.1, 0.1])  # 0.6 > 1/(1*sqrt(4)) = 0.5
        plan = SamplingPlan(p=p, alias=alias_build(p), batch=1, kind="manual")
        with pytest.raises(ScheduleError, match=r"p\[0\]"):
            schedule_thm5(ds, ProblemSpec(), plan)

    def test_thm5_batch_limit(self):
        ds = unit_norm_ds(4)
        with pytest.raises(ScheduleError, match="sqrt"):
            schedule_thm5(ds, ProblemSpec(), build_uniform(4, 3))

    def test_thm15_hand_values(self):
        ds = unit_norm_ds(4)
        p = schedule_thm15(ds, ProblemSpec(), build_uniform(4, 2))
        assert p.tau == 0.5
        assert np.allclose(p.sigma, 1.0, rtol=0)

    def test_thm15_tau_halves_when_R_doubles(self):
        ds = unit_norm_ds(4)
        M = ds._csr.toarray()
        M[0, 0] = 2.0
        ds2 = SparseDataset(sp.csr_matrix(M), ds.labels)
        plan = build_uniform(4, 2)
        assert schedule_thm15(ds2, ProblemSpec(), plan).tau == pytest.approx(
            schedule_thm15(ds, ProblemSpec(), plan).tau / 2, rel=1e-12
        )

    def test_thm15_batch_limit(self):
        with pytest.raises(ScheduleError, match="sqrt"):
            schedule_thm15(unit_norm_ds(9), ProblemSpec(), build_uniform(9, 2))

    def test_thm15_needs_the_uniform_plan(self):
        # batch 2 >= sqrt(4), but instance 2 is never drawn
        plan = build_restricted(np.array([1.0, 1.0, 0.0, 1.0]), 2)
        with pytest.raises(ScheduleError, match="uniform plan, not a restricted one"):
            schedule_thm15(unit_norm_ds(4), ProblemSpec(), plan)

    def test_vanilla_hand_values(self, four):
        ds, spec, plan = four
        p18 = schedule_vanilla(ds, spec, plan, "cor18")
        assert p18.tau == 0.125 and np.all(p18.sigma == 0.5)
        p19 = schedule_vanilla(ds, spec, plan, "cor19")
        assert p19.tau == 0.25 and np.all(p19.sigma == 1.0)

    def test_vanilla_sigma_is_scalar(self):
        ds = make_dataset(12, 5, seed=3)
        plan = build_uniform(12, 1)
        p = schedule_vanilla(ds, ProblemSpec(), plan, "cor18")
        assert np.all(p.sigma == p.sigma[0])

    def test_thm5_reduces_to_thm4_at_n_equals_one(self):
        ds = SparseDataset(sp.csr_matrix(np.array([[1.5]])), [1.0])
        plan = build_uniform(1, 1)
        spec = ProblemSpec(gamma=0.7, lam=0.4)
        p4 = schedule_thm4(ds, spec, plan)
        p5 = schedule_thm5(ds, spec, plan)
        assert p5.tau == p4.tau
        assert np.array_equal(p5.sigma, p4.sigma)

    def test_params_carry_the_plan_they_were_derived_for(self, small):
        ds, spec = small
        plan = build_uniform(ds.n, 2)
        for params in (schedule_thm4(ds, spec, plan), schedule_thm5(ds, spec, plan),
                       schedule_vanilla(ds, spec, plan, "cor18"),
                       schedule_vanilla(ds, spec, plan, "cor19")):
            assert params.plan is plan, params.schedule
        restricted = build_restricted(np.arange(ds.n) % 3, 2)
        assert variants._restricted_schedule(ds, spec, restricted).plan is restricted
        large = build_uniform(ds.n, 8)
        assert schedule_thm15(ds, spec, large).plan is large


# every rule, as a call on a plan over m instances
RULE_CALLS = {
    "thm4": lambda ds, spec, m: schedule_thm4(ds, spec, build_uniform(m, 1)),
    "thm5": lambda ds, spec, m: schedule_thm5(ds, spec, build_uniform(m, 1)),
    "thm15": lambda ds, spec, m: schedule_thm15(ds, spec, build_uniform(m, 7)),
    "cor18": lambda ds, spec, m: schedule_vanilla(ds, spec, build_uniform(m, 1), "cor18"),
    "cor19": lambda ds, spec, m: schedule_vanilla(ds, spec, build_uniform(m, 1), "cor19"),
    "restricted": lambda ds, spec, m: variants._restricted_schedule(
        ds, spec, build_restricted(np.arange(m) % 3, 1)),
}


@pytest.mark.parametrize("m", [30, 50])
@pytest.mark.parametrize("rule", list(RULE_CALLS))
def test_rules_reject_a_plan_for_another_dataset(rule, m):
    # a plan over fewer instances would leave the others' duals unmoved, one
    # over more would index past the dataset's rows
    ds = make_dataset(40, 6, seed=5)
    spec = ProblemSpec(gamma=1.0, lam=0.1)
    with pytest.raises(ScheduleError, match=f"covers {m} instances, the dataset has 40"):
        RULE_CALLS[rule](ds, spec, m)
    assert RULE_CALLS[rule](ds, spec, 40).plan.p.size == 40


class TestTheta:
    def test_hand_value(self, four):
        ds, spec, plan = four
        params = schedule_thm5(ds, spec, plan)
        assert params.theta == pytest.approx(5 / 6, rel=1e-15)
        # first term is 2/3, second 5/6
        t1 = 1 - 1 / (1 + 1 / (2 * params.tau * spec.lam))
        assert t1 == pytest.approx(2 / 3, rel=1e-15)

    def test_theta_below_one(self):
        rng = np.random.default_rng(11)
        for k in range(50):
            ds = make_dataset(int(rng.integers(5, 60)), 7, seed=300 + k, normalize=True)
            plan = build_uniform(ds.n, 1)
            spec = ProblemSpec(gamma=float(rng.uniform(0.3, 2)), lam=float(rng.uniform(1e-4, 1)))
            params = schedule_thm5(ds, spec, plan)
            assert 0.0 < params.theta < 1.0

    def test_theta_climbs_as_lambda_shrinks(self, four):
        ds, _, plan = four
        thetas = [
            schedule_thm5(ds, ProblemSpec(gamma=1.0, lam=lam), plan).theta
            for lam in (1.0, 0.1, 0.01, 0.001)
        ]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        assert thetas[-1] < 1.0


class TestVerifyConditions:
    def test_lemma3_hand_margin(self, four):
        ds, spec, plan = four
        params = schedule_thm5(ds, spec, plan)
        ok, worst = verify_lemma3(params, ds)
        assert ok
        assert worst == pytest.approx(29 / 192, rel=1e-12)

    def test_lemma3_fails_with_inflated_tau(self, four):
        ds, spec, plan = four
        params = schedule_thm5(ds, spec, plan)
        bad = copy.deepcopy(params)
        bad.tau *= 10
        ok, worst = verify_lemma3(bad, ds)
        assert not ok and worst < 0

    def test_lemma14_boundary_true(self, four):
        ds, spec, plan = four
        params = schedule_thm5(ds, spec, plan)
        assert verify_lemma14(params, ds)

    def test_lemma14_fails_with_inflated_sigma(self, four):
        ds, spec, plan = four
        params = schedule_thm5(ds, spec, plan)
        bad = copy.deepcopy(params)
        bad.sigma = bad.sigma * 10
        assert not verify_lemma14(bad, ds)

    def test_all_schedules_pass_on_random_data(self):
        rng = np.random.default_rng(12)
        for k in range(30):
            n = int(rng.integers(9, 60))
            ds = make_dataset(n, int(rng.integers(3, 12)), seed=400 + k, normalize=True)
            spec = ProblemSpec(gamma=float(rng.uniform(0.3, 2)), lam=float(rng.uniform(1e-3, 1)))
            a_small = int(rng.integers(1, max(2, math.isqrt(n) + 1)))
            plan = build_uniform(n, a_small)
            for params in (
                schedule_thm4(ds, spec, plan),
                schedule_thm5(ds, spec, plan),
                schedule_vanilla(ds, spec, plan, "cor18"),
                schedule_vanilla(ds, spec, plan, "cor19"),
                schedule_thm15(ds, spec, build_uniform(n, int(math.isqrt(n - 1)) + 1)),
            ):
                ok, _ = verify_lemma3(params, ds)
                assert ok, params.schedule
                assert verify_lemma14(params, ds), params.schedule


class TestSteps:
    def test_scalar_hand_trace(self):
        ds = SparseDataset(sp.csr_matrix(np.array([[2.0]])), [1.0])
        spec = ProblemSpec(gamma=1.0, lam=1.0)
        plan = build_uniform(1, 1)
        params = schedule_thm5(ds, spec, plan)
        assert params.tau == 0.25 and params.sigma[0] == 0.25
        assert params.theta == pytest.approx(2 / 3, rel=1e-15)
        state = init_state(ds)
        rng = np.random.default_rng(0)
        # the first step, pass by pass
        core._dual_pass(state, params, ds, spec, draw_batch(plan, rng))
        assert state.alpha[0] == 0.2
        assert state.last_batch == {0: 0.2}
        assert state.v_cache[0] == 0.4
        core._primal_pass(state, params.tau, spec.lam, params.theta)
        core._settle(state, ds)
        assert state.w[0] == 0.0 and state.w_bar[0] == 0.0
        core.iterate(state, params, ds, spec, rng, 1)
        assert state.alpha[0] == pytest.approx(0.36, rel=1e-15)
        assert state.w[0] == 0.0

    def test_fixed_point_any_schedule(self, tiny, tiny_ref):
        ds, spec = tiny
        plan = build_uniform(ds.n, 1)
        for params in (
            schedule_thm5(ds, spec, plan),
            schedule_thm4(ds, spec, plan),
            schedule_vanilla(ds, spec, plan, "cor19"),
        ):
            state = tiny_ref.copy()
            state.w_prev = state.w.copy()
            state.w_bar = state.w.copy()
            before_w = state.w.copy()
            before_a = state.alpha.copy()
            core.iterate(state, params, ds, spec, np.random.default_rng(5), 1)
            assert np.max(np.abs(state.w - before_w)) <= 1e-10
            assert np.max(np.abs(state.alpha - before_a)) <= 1e-10

    def test_cache_integrity_after_1000_random_steps(self, small):
        ds, spec = small
        rng = np.random.default_rng(13)
        state = init_state(ds)
        plan = build_uniform(ds.n, 2)
        params = schedule_thm5(ds, spec, plan)
        for k in range(1000):
            if k % 100 == 0:  # also survive plan swaps mid-run
                kappa = np.abs(rng.normal(size=ds.n))
                plan = build_ovs(kappa, ds.row_norms, spec, 2)
                params = schedule_thm5(ds, spec, plan)
            core.iterate(state, params, ds, spec, rng, 1)
        assert state.cache_error(ds) <= 1e-9

    def test_dual_feasibility_preserved(self, small):
        ds, spec = small
        state = init_state(ds)
        plan = build_uniform(ds.n, 4)
        params = schedule_thm5(ds, spec, plan)
        rng = np.random.default_rng(14)
        for _ in range(300):
            core.iterate(state, params, ds, spec, rng, 1)
            prod = ds.labels * state.alpha
            assert np.all((prod >= 0.0) & (prod <= 1.0))

    def test_duplicate_draws_apply_sequentially(self):
        from spdc.core import StepParams
        from spdc.sampling import SamplingPlan, alias_build

        ds = SparseDataset(sp.csr_matrix(np.array([[2.0]])), [1.0])
        spec = ProblemSpec(gamma=1.0, lam=1.0)
        # both draws of the batch hit the only instance
        p = np.array([1.0])
        plan = SamplingPlan(p=p, alias=alias_build(p), batch=2, kind="manual")
        params = StepParams(tau=0.25, sigma=np.array([0.25]), theta=0.5,
                            schedule="manual", r_under=0.5, n_eff=1, plan=plan)
        state = init_state(ds)
        core._dual_pass(state, params, ds, spec, [0, 0])
        # two sequential proxes from 0 with q = p*n/sigma = 4, against w_bar = 0
        q = 4.0
        a1 = (1.0 + q * 0.0) / (1.0 + q)
        a2 = (1.0 + q * a1) / (1.0 + q)
        assert state.alpha[0] == pytest.approx(a2, rel=1e-15)
        # net change extrapolated once: bar = 0 + (a2 - 0)/(a p n) with a=2
        assert list(state.last_batch) == [0]
        assert state.last_batch[0] == pytest.approx(a2 / 2, rel=1e-15)


@pytest.mark.parametrize("d", [12, core._LAZY_MIN_D])  # whole-vector, anchored pass
def test_every_step_ends_settled(d):
    ds = make_dataset(50, d, seed=7, density=min(0.5, 10 / d))
    spec = ProblemSpec(gamma=1.0, lam=1e-2 * lambda_max(ds))
    plan = build_uniform(ds.n, 3)
    params = schedule_thm5(ds, spec, plan)
    rng = np.random.default_rng(9)
    state = init_state(ds)
    for k in range(60):
        if k % 3 != 2:
            core.iterate(state, params, ds, spec, rng, 1)
        else:  # a selection that changes from pass to pass
            core.iterate(state, params, ds, spec, rng, 1,
                         primal_coords=np.arange(k // 3 % 3, d, 3))
        assert_settled(state, ds)


@pytest.fixture(scope="module")
def thm20_data(tmp_path_factory):
    """The bundled data and two synthetic sets, d=25 and d=3000, normalized."""
    root = tmp_path_factory.mktemp("thm20")
    synth(n=120, d=25, sparsity=0.3, dual_skew=0.6, seed=5, out_path=str(root / "d25.svm"))
    synth(n=200, d=3000, sparsity=0.005, dual_skew=0.0, seed=0,
          out_path=str(root / "d3000.svm"))
    return {name: load_libsvm(path, normalize=True) for name, path in (
        ("bundled", example_path()), ("d25", root / "d25.svm"), ("d3000", root / "d3000.svm"))}


def _dspdc_checks(ds, b):
    """``cli._dispatch``'s dspdc checks at block size b, before a run of no
    epochs; returns the thm20 verdict it reports."""
    cfg = RunConfig(data="unused.svm", algo="dspdc", dspdc_b=b, lambda_scale=0.1,
                    max_epochs=0.0)
    cfg.validate()
    _, extra = cli._dispatch(cfg, ds, *cli._problem(cfg, ds)[1:])
    return extra["thm20"]


class TestDspdc:
    def test_partition_rule(self):
        # floor(d/b) blocks: b > d/2 gives the one block of all d weights,
        # which runs; two or more blocks are refused before any iteration
        assert _dspdc_checks(make_dataset(10, 3, seed=1), 2)["ok"]
        for d, b in ((10, 3), (8, 4)):
            with pytest.raises(ScheduleError, match=f"into {d // b} blocks"):
                _dspdc_checks(make_dataset(10, d, seed=1), b)

    def test_partition_every_size(self):
        for d in range(1, 65):
            ds = make_dataset(8, d, seed=d)
            for b in range(1, d + 1):
                if 2 * b > d:
                    assert _dspdc_checks(ds, b)["ok"], (d, b)
                else:
                    with pytest.raises(ScheduleError, match="at block count"):
                        _dspdc_checks(ds, b)

    @pytest.mark.parametrize("width", [6, 14])
    def test_blocks_must_partition_the_weights(self, small, width):
        # a block size must give the one block of the 12 weights: 6 splits
        # them in two, and 14 exceeds them
        ds, _ = small
        if width <= ds.d:
            with pytest.raises(ScheduleError, match="splits d=12 into 2 blocks"):
                _dspdc_checks(ds, width)
        else:
            with pytest.raises(ConfigError, match=r"must lie in \[1, d=12\]"):
                _dspdc_checks(ds, width)

    @pytest.mark.parametrize("name", ["bundled", "d25", "d3000"])
    def test_one_block_thm20_is_lemma3(self, thm20_data, name):
        # with q = 1, clause 5 is Lemma 3's inequality, the cross and
        # momentum terms are theta, and the primal and dual rates are theta's
        # two terms, the larger of which is theta itself
        ds = thm20_data[name]
        for a, scale in itertools.product((1, 2), (1e-1, 1e-3)):
            spec = ProblemSpec(gamma=1.0, lam=scale * lambda_max(ds))
            params = schedule_vanilla(ds, spec, build_uniform(ds.n, a), "cor19")
            ok, failing, margins = verify_thm20(params, ds, spec)
            ok3, worst = verify_lemma3(params, ds)
            assert margins["clause5_step_product"] == worst
            rates = (margins["clause1_primal_rate"], margins["clause2_dual_rate"])
            assert min(rates) == 0.0  # both >= 0, and one is theta's own term
            assert margins["clause3_cross_term"] == margins["clause4_momentum_term"] == 0.0
            assert ok == ok3
            assert ok and failing is None

    def test_verify_thm20_single_block_passes(self, small):
        ds, spec = small
        plan = build_uniform(ds.n, 1)
        params = schedule_vanilla(ds, spec, plan, "cor19")
        ok, failing, margins = verify_thm20(params, ds, spec)
        assert ok, (failing, margins)

    def test_verify_thm20_large_tau_fails_step_product(self, small):
        # a primal step past the rule's breaks Lemma 3, and with it clause 5
        # alone: a larger tau only slows the primal rate of clause 1
        ds, spec = small
        params = schedule_vanilla(ds, spec, build_uniform(ds.n, 1), "cor19")
        bad = params
        while verify_lemma3(bad, ds)[0]:
            bad = dataclasses.replace(bad, tau=2.0 * bad.tau)
        ok, failing, margins = verify_thm20(bad, ds, spec)
        assert (ok, failing) == (False, "clause5_step_product")
        assert margins["clause5_step_product"] == verify_lemma3(bad, ds)[1] < 0.0
        assert margins["clause1_primal_rate"] > 0.0

    def test_verify_thm20_reports_all_clauses(self, small):
        ds, spec = small
        plan = build_uniform(ds.n, 1)
        params = schedule_vanilla(ds, spec, plan, "cor18")
        _, _, margins = verify_thm20(params, ds, spec)
        assert set(margins) == {
            "clause1_primal_rate",
            "clause2_dual_rate",
            "clause3_cross_term",
            "clause4_momentum_term",
            "clause5_step_product",
        }


class TestComplexity:
    def test_thm5_uniform_identity(self):
        rng = np.random.default_rng(15)
        for k in range(50):
            n = int(rng.integers(3, 200))
            ds = make_dataset(n, 5, seed=500 + k)
            spec = ProblemSpec(gamma=float(rng.uniform(0.2, 2)), lam=float(rng.uniform(1e-4, 2)))
            plan = build_uniform(n, 1)
            got = complexity_estimate(ds, spec, plan, "thm5")
            expected = n + math.sqrt(n / (spec.lam * spec.gamma)) * float(np.max(ds.row_norms))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_thm15_identity(self):
        ds = unit_norm_ds(9)
        spec = ProblemSpec(gamma=1.0, lam=1.0)
        got = complexity_estimate(ds, spec, build_uniform(9, 3), "thm15")
        assert got == pytest.approx(9 / 3 + 1.0, rel=1e-15)

    def test_thm5_uniform_halves_with_doubled_batch(self):
        ds = make_dataset(64, 6, seed=16, normalize=True)
        spec = ProblemSpec(gamma=1.0, lam=0.01)
        c1 = complexity_estimate(ds, spec, build_uniform(64, 1), "thm5")
        c2 = complexity_estimate(ds, spec, build_uniform(64, 2), "thm5")
        assert c1 / c2 == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_plan_rules_estimate_is_their_dual_rate(self, normalize):
        # complexity_estimate is 1/(1 - t2) of the dual rate the rule's theta
        # takes; in its own arithmetic, so to rounding: the worst of these 64
        # configurations per dataset measured 5.0e-12 relative, about ce*eps/4
        ds = load_libsvm(example_path(), normalize=normalize)
        for scale, a, schedule in itertools.product((1e-1, 1e-2, 1e-3, 1e-4), (1, 2, 4, 6),
                                                    ("thm4", "thm5", "cor18", "cor19")):
            spec = ProblemSpec(gamma=1.0, lam=scale * lambda_max(ds))
            plan = build_uniform(ds.n, a)
            params = core._plan_rule(schedule, ds, spec, plan)  # n=40: every one accepts
            t2 = core._rates(spec, params.tau, a, ds.n, plan.p, params.sigma)[1]
            assert (complexity_estimate(ds, spec, plan, schedule)
                    == pytest.approx(1.0 / (1.0 - t2), rel=1e-11)), (scale, a, schedule)


class TestDeltaT:
    def test_zero_at_reference(self, tiny, tiny_ref):
        ds, spec = tiny
        plan = build_uniform(ds.n, 1)
        params = schedule_thm5(ds, spec, plan)
        state = tiny_ref.copy()
        state.w_prev = state.w.copy()
        assert delta_t(state, state.w, state.alpha, params, ds, spec) == 0.0

    def test_scalar_hand_value(self):
        ds = SparseDataset(sp.csr_matrix(np.array([[2.0]])), [1.0])
        spec = ProblemSpec(gamma=1.0, lam=1.0)
        plan = build_uniform(1, 1)
        params = schedule_thm5(ds, spec, plan)  # tau = sigma = 0.25
        state = init_state(ds)
        state.w = np.array([0.5])
        state.w_prev = np.array([0.3])
        state.alpha = np.array([0.2])
        val = delta_t(state, np.array([0.1]), np.array([0.4]), params, ds, spec)
        # 3*(0.4)^2*... = 3*0.16 + 3*0.04 + 1*0.04 + 0.08
        assert val == pytest.approx(0.72, rel=1e-12)

    def test_monte_carlo_contraction(self, tiny):
        ds, spec = tiny
        plan = build_uniform(ds.n, 1)
        params = schedule_thm5(ds, spec, plan)
        ref, _, _ = solve_to_fixed_point(ds, spec, seed=1)
        state = init_state(ds)
        rng = np.random.default_rng(17)
        for _ in range(5):
            core.iterate(state, params, ds, spec, rng, 1)
        d0 = delta_t(state, ref.w, ref.alpha, params, ds, spec)
        reps = 800
        vals = np.empty(reps)
        for r in range(reps):
            trial = state.copy()
            core.iterate(trial, params, ds, spec, np.random.default_rng(10_000 + r), 1)
            vals[r] = delta_t(trial, ref.w, ref.alpha, params, ds, spec)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert vals.mean() <= params.theta * d0 + 3 * se
