"""Alias sampler and the sampling-plan families."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdc import core
from spdc.errors import ScheduleError, ZeroViolations
from spdc.objective import ProblemSpec
from spdc.sampling import (
    SamplingPlan,
    alias_build,
    build_data_driven,
    build_ovs,
    build_restricted,
    build_uniform,
    draw_batch,
)

from conftest import make_dataset
from oracles import reference_alias_build


class TestAlias:
    def test_even_split_chi_square(self):
        table = alias_build([0.5, 0.5])
        counts = np.bincount(table.draw(np.random.default_rng(0), 10**6), minlength=2)
        assert scipy.stats.chisquare(counts).pvalue > 0.001

    def test_degenerate_always_first(self):
        table = alias_build([1.0, 0.0])
        assert np.all(table.draw(np.random.default_rng(1), 10**4) == 0)

    def test_random_64dim_within_3_sigma(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(64))
        table = alias_build(p)
        m = 10**6
        counts = np.bincount(table.draw(np.random.default_rng(3), m), minlength=64)
        se = np.sqrt(m * p * (1 - p))
        assert np.all(np.abs(counts - m * p) <= 3.0 * se)

    def test_total_variation_small(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(32))
        m = 10**6
        counts = np.bincount(alias_build(p).draw(np.random.default_rng(5), m), minlength=32)
        tv = 0.5 * np.sum(np.abs(counts / m - p))
        assert tv < 5 * 32 / math.sqrt(m)

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            alias_build([1.5, -0.5])
        with pytest.raises(ValueError, match="sums"):
            alias_build([0.4, 0.4])
        # nan fails every comparison, so it would slip past both tests above
        with pytest.raises(ValueError, match="NaN"):
            alias_build([np.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match="sums"):
            alias_build([np.inf, 0.5, 0.5])

    def test_fixed_seed_reproducible(self):
        p = [0.2, 0.3, 0.5]
        a = alias_build(p).draw(np.random.default_rng(42), 1000)
        b = alias_build(p).draw(np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)


@st.composite
def probability_vectors(draw):
    """Probability vectors with zeros, entries of exactly 1/n, one-hot
    vectors and n = 1; some miss the sum test, which must then fail alike."""
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["mixed", "uniform", "one_hot", "at_1_over_n"]))
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    if kind == "one_hot":
        p = np.zeros(n)
        p[draw(st.integers(0, n - 1))] = 1.0
        return p
    w = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if not w.any():
        w[0] = 1.0
    p = w / w.sum()
    if kind == "at_1_over_n":
        # entries of exactly 1/n, the rest rescaled to the remaining mass
        at = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        rest = p[~at].sum()
        if rest > 0.0:
            # divide first: with a subnormal rest, (1 - k/n) / rest overflows
            # to inf and turns the vector into NaNs and infs
            p[~at] = p[~at] / rest * (1.0 - at.sum() / n)
        p[at] = 1.0 / n
    return p


@settings(max_examples=200, deadline=None)
@given(p=probability_vectors())
@example(p=np.array([1.0]))
@example(p=np.array([0.25, 0.0, 0.25, 0.5]))
def test_alias_build_matches_frozen_reference_bitwise(p):
    try:
        want = reference_alias_build(p)
    except ValueError as exc:
        with pytest.raises(ValueError, match="sums to"):
            alias_build(p)
        assert "sums to" in str(exc)
        return
    got = alias_build(p)
    assert got.prob.dtype == want.prob.dtype and got.alias.dtype == want.alias.dtype
    assert got.prob.view(np.int64).tolist() == want.prob.view(np.int64).tolist()
    assert got.alias.tolist() == want.alias.tolist()


class TestSingleDraw:
    """``draw(rng, 1)`` reads the generator as the scalar calls
    ``int(rng.integers(0, n))`` and ``rng.random()`` do, which earlier versions
    made for a single draw: a run that draws one row per call (``ovs-exact``)
    keeps its stream."""

    @pytest.mark.parametrize("p", [
        [0.5, 0.0, 0.25, 0.25],
        [0.0, 0.0, 1.0],
        [0.05, 0.0, 0.6, 0.0, 0.15, 0.2],
        np.r_[np.full(7, 1.0 / 7), np.zeros(3)],  # a restricted plan
    ])
    def test_scalar_path_matches_array_path(self, p):
        p = np.asarray(p, dtype=np.float64)
        table = alias_build(p)
        assert np.any(table.prob < 1.0)  # some slots are aliased
        rng, twin = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(3000):
            got = table.draw(rng, 1)
            k = int(twin.integers(0, p.size))
            want = k if twin.random() < table.prob[k] else table.alias[k]
            assert got.shape == (1,) and got[0] == want and p[got[0]] > 0.0
        assert rng.bit_generator.state == twin.bit_generator.state


class TestDrawBatch:
    def test_single_draw(self):
        plan = build_uniform(10, 1)
        assert draw_batch(plan, np.random.default_rng(0)).shape == (1,)

    def test_full_batch_expected_counts(self):
        n = 50
        plan = build_uniform(n, n)
        totals = np.zeros(n)
        for k in range(200):
            totals += np.bincount(draw_batch(plan, np.random.default_rng(k)), minlength=n)
        assert np.allclose(totals / 200, 1.0, atol=0.3)

    def test_determinism(self):
        plan = build_uniform(20, 4)
        a = draw_batch(plan, np.random.default_rng(7))
        b = draw_batch(plan, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("p,a", [
        (np.full(10, 0.1), 1),
        (np.array([0.05, 0.0, 0.6, 0.0, 0.15, 0.2]), 1),  # aliased slots
        (np.r_[np.full(7, 1.0 / 7), np.zeros(3)], 1),  # a restricted plan
        (np.array([0.05, 0.0, 0.6, 0.0, 0.15, 0.2]), 3),
    ])
    def test_k_batches_take_one_call_of_each_generator_method(self, p, a):
        # the draw protocol: k iterations' k a rows from one integers and one
        # random call of k a numbers each, iteration j's at [j a, (j + 1) a)
        plan = SamplingPlan(p=p, alias=alias_build(p), batch=a, kind="manual")
        table = plan.alias
        rng, twin = np.random.default_rng(17), np.random.default_rng(17)
        for k in (1, 2, 7, 1, 300):
            got = draw_batch(plan, rng, k)
            ks = twin.integers(0, p.size, size=k * a)
            us = twin.random(k * a)
            assert got.shape == (k * a,)
            assert np.array_equal(got, np.where(us < table.prob[ks], ks, table.alias[ks]))
            assert np.all(p[got] > 0.0)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_k_batches_fidelity(self):
        # criterion 9's chi-square for draws of many iterations at once: the
        # counts over all k a rows, and over each of the a slots of a batch,
        # follow p
        rng = np.random.default_rng(1009)
        p = rng.dirichlet(np.ones(64))
        plan = SamplingPlan(p=p, alias=alias_build(p), batch=4, kind="manual")
        draws = draw_batch(plan, np.random.default_rng(1011), 250_000).reshape(-1, 4)
        for rows in (draws.ravel(), *draws.T):
            counts = np.bincount(rows, minlength=64)
            assert scipy.stats.chisquare(counts, f_exp=p * rows.size).pvalue > 0.001


class TestUniform:
    def test_quarter(self):
        assert np.array_equal(build_uniform(4, 1).p, np.full(4, 0.25))

    def test_single(self):
        assert np.array_equal(build_uniform(1, 1).p, [1.0])

    def test_sums_to_one(self):
        for n in (3, 17, 100):
            assert abs(build_uniform(n, 1).p.sum() - 1.0) <= 1e-15


class TestDataDriven:
    def test_equal_norms_give_uniform(self):
        ds = make_dataset(12, 6, seed=1, normalize=True)
        spec = ProblemSpec(gamma=1.0, lam=0.5)
        for scheme in ("cor16", "cor17"):
            plan = build_data_driven(ds, spec, 1, scheme)
            assert np.allclose(plan.p, 1.0 / 12, rtol=1e-9)

    def test_hand_value_norms_one_three(self):
        import scipy.sparse as sp

        from spdc.datamat import SparseDataset

        ds = SparseDataset(sp.csr_matrix(np.array([[1.0], [3.0]])), [1.0, -1.0])
        spec = ProblemSpec(gamma=1.0, lam=1.0)  # lam*gamma = 1
        plan = build_data_driven(ds, spec, 1, "cor16")
        assert np.allclose(plan.p, [1 / 3, 2 / 3], rtol=1e-12)

    def test_sum_one_random(self):
        rng = np.random.default_rng(6)
        for k in range(20):
            ds = make_dataset(int(rng.integers(5, 40)), 6, seed=100 + k)
            spec = ProblemSpec(gamma=float(rng.uniform(0.2, 2)), lam=float(rng.uniform(0.01, 1)))
            plan = build_data_driven(ds, spec, 1, "cor16")
            assert abs(plan.p.sum() - 1.0) <= 1e-12

    def test_cor17_cap_violation_names_instance(self):
        import scipy.sparse as sp

        from spdc.datamat import SparseDataset

        # one dominating norm breaks the spread condition for tiny lam*gamma
        M = np.diag([1.0, 1.0, 1.0, 100.0])
        ds = SparseDataset(sp.csr_matrix(M), [1.0, 1.0, -1.0, -1.0])
        spec = ProblemSpec(gamma=1.0, lam=1e-6)
        with pytest.raises(ScheduleError, match="instance 3"):
            build_data_driven(ds, spec, 1, "cor17")

    def test_requires_single_draws(self):
        ds = make_dataset(9, 4, seed=3)
        with pytest.raises(ValueError, match="a=1"):
            build_data_driven(ds, ProblemSpec(), 2, "cor16")


def _thm5_complexity(plan, norms, spec):
    """``core.complexity_estimate`` of ``plan`` under thm5 for rows of ``norms``."""
    return core.complexity_estimate(SimpleNamespace(n=norms.size, row_norms=norms), spec,
                                    plan, "thm5")


class TestOvs:
    def test_hand_raw_branch(self):
        # rho = [2, 3, 4]: raw = [2/9, 1/3, 4/9] lies within the cap 1/sqrt(3)
        # and above the floor 1/6 of unit rows, so it is the plan itself
        plan = build_ovs([1.0, 2.0, 3.0], np.ones(3), ProblemSpec(), 1)
        assert np.array_equal(plan.p, np.array([2.0, 3.0, 4.0]) / 9.0)
        assert plan.kind == "ovs"

    def test_hand_floor_branch(self):
        # rho = [1, 2, 4]: raw[0] = 1/7 lies below the floor 1/(2n) = 1/6, so
        # zeta = (1/3 - 1/6)/(1/3 - 1/7) = 7/8 and p = 1/24 + 7/8 raw
        plan = build_ovs([0.0, 1.0, 3.0], np.ones(3), ProblemSpec(), 1)
        assert np.allclose(plan.p, [1 / 6, 7 / 24, 13 / 24], rtol=1e-15)
        assert plan.p.max() < 1.0 / math.sqrt(3.0)  # the cap does not bind
        # the thm5 complexity lands on twice uniform's
        norms = np.ones(3)
        assert _thm5_complexity(plan, norms, ProblemSpec()) == pytest.approx(
            2.0 * _thm5_complexity(build_uniform(3, 1), norms, ProblemSpec()), rel=1e-15)

    def test_hand_floor_follows_row_norms(self):
        # with n lam gamma = 1, c = 1 + ||x|| = [2, 5, 5, 5] and the floors
        # c_i/(2 n max c) are [1/20, 1/8, 1/8, 1/8]; rho = [1, 2, 2, 2] gives
        # raw = [1, 8, 8, 8]/25, whose first entry lies below its floor:
        # zeta = (1/4 - 1/20)/(1/4 - 1/25) = 20/21
        plan = build_ovs([0.0, 1.0, 1.0, 1.0], np.array([1.0, 4.0, 4.0, 4.0]),
                         ProblemSpec(lam=0.25), 1)
        assert np.allclose(plan.p, [1 / 20, 19 / 60, 19 / 60, 19 / 60], rtol=1e-14)

    def test_hand_mixture_branch(self):
        plan = build_ovs([0.0, 0.0, 0.001, 100.0], np.ones(4), ProblemSpec(), 1)
        cap = 0.5
        assert plan.p.max() == cap  # lands on the cap exactly
        assert abs(plan.p.sum() - 1.0) <= 1e-12
        # against the direct mixture formula
        rho = np.array([0.001, 0.001, 0.002, 100.001])
        raw = rho / rho.sum()
        zeta = (cap - 0.25) / (raw.max() - 0.25)
        assert abs(zeta - 1 / 3) < 2e-5
        assert np.allclose(plan.p, (1 - zeta) / 4 + zeta * raw, atol=1e-12)

    def test_equal_kappa_equal_norms_uniform(self):
        plan = build_ovs(np.full(9, 2.5), np.ones(9), ProblemSpec(), 1)
        assert np.allclose(plan.p, 1.0 / 9, rtol=1e-12)

    def test_all_zero_raises(self):
        with pytest.raises(ZeroViolations):
            build_ovs(np.zeros(5), np.ones(5), ProblemSpec(), 1)

    def test_large_batch_rejected(self):
        with pytest.raises(ValueError, match="sqrt") as plan_info:
            build_ovs(np.ones(4), np.ones(4), ProblemSpec(), 3)
        # one statement of the limit: the plan's refusal is thm5's ScheduleError
        with pytest.raises(ScheduleError) as rule_info:
            core.schedule_thm5(make_dataset(4, 3, seed=1), ProblemSpec(), build_uniform(4, 3))
        assert plan_info.type is ScheduleError
        assert str(plan_info.value) == str(rule_info.value) == (
            "thm5 requires a <= sqrt(n); got a=3, n=4")

    def test_invariants_random(self):
        rng = np.random.default_rng(8)
        tight = {"one": 0, "cap": 0, "floor": 0}
        for _ in range(1000):
            n = int(rng.integers(4, 80))
            a = int(rng.integers(1, max(2, int(math.isqrt(n)) + 1)))
            kappa = rng.exponential(size=n) * (rng.random(n) < 0.7)
            if not np.any(kappa):
                kappa[0] = 1.0
            norms = rng.uniform(0.2, 3.0, size=n)
            spec = ProblemSpec(gamma=float(rng.uniform(0.2, 3.0)),
                               lam=float(10.0 ** rng.uniform(-5, 0)))
            plan = build_ovs(kappa, norms, spec, a)
            cap = 1.0 / (a * math.sqrt(n))
            assert np.all(plan.p > 0.0)
            assert np.all(plan.p <= cap)
            assert abs(plan.p.sum() - 1.0) <= 1e-12
            assert (_thm5_complexity(plan, norms, spec)
                    <= 2.0 * _thm5_complexity(build_uniform(n, a), norms, spec)
                    * (1.0 + core._RTOL))
            # zeta is maximal: the raw plan itself, or a bound holds with equality
            rho = kappa + kappa[kappa != 0.0].min()
            raw = rho * norms / np.sum(rho * norms)
            c = 1.0 + norms / math.sqrt(n * spec.lam * spec.gamma)
            floor = c / (2.0 * n * c.max())
            if np.array_equal(plan.p, raw):
                tight["one"] += 1
            elif abs(plan.p.max() - cap) <= core._RTOL * cap:
                tight["cap"] += 1
            else:
                assert np.min(np.abs(plan.p - floor) / floor) <= 1e-12
                tight["floor"] += 1
        assert min(tight.values()) > 0, tight  # every branch is exercised

    def test_mixture_continuity_at_cap(self):
        # rho = [2,2,2,s+1]; raw max crosses the 1/(a sqrt(n)) = 0.5 cap at s=5
        delta = 1e-9
        s = (2.5 + 7 * delta) / (0.5 - delta)
        kappa = np.array([1.0, 1.0, 1.0, s])
        raw = (kappa + 1.0) / (kappa + 1.0).sum()
        assert raw.max() > 0.5
        plan = build_ovs(kappa, np.ones(4), ProblemSpec(), 1)
        assert np.max(np.abs(plan.p - raw)) <= 1e-8


@pytest.mark.parametrize("build,fragment", [
    (lambda: build_data_driven(make_dataset(9, 4, seed=3), ProblemSpec(), 1, "cor99"),
     "unknown scheme 'cor99'"),
    (lambda: build_ovs(np.ones(4), np.ones(3), ProblemSpec(), 1), "vectors of one length"),
    (lambda: build_ovs(np.ones((2, 2)), np.ones(4), ProblemSpec(), 1), "vectors of one length"),
], ids=["unknown scheme", "lengths differ", "kappa not a vector"])
def test_malformed_plan_arguments_rejected(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


class TestRestricted:
    def test_hand_case(self):
        plan = build_restricted([0.0, 2.0, 3.0])
        assert np.array_equal(plan.p, [0.0, 0.5, 0.5])
        assert plan.kind == "restricted"

    def test_all_nonzero_uniform(self):
        plan = build_restricted(np.ones(6))
        assert np.allclose(plan.p, 1 / 6, rtol=1e-15)

    def test_single_nonzero(self):
        plan = build_restricted([0.0, 0.0, 7.0])
        assert np.array_equal(plan.p, [0.0, 0.0, 1.0])
        assert np.all(draw_batch(plan, np.random.default_rng(0)) == 2)

    def test_all_zero_raises(self):
        with pytest.raises(ZeroViolations):
            build_restricted(np.zeros(3))

    def test_zero_exactly_on_zero_kappa(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            kappa = rng.exponential(size=20) * (rng.random(20) < 0.5)
            if not np.any(kappa):
                continue
            plan = build_restricted(kappa)
            assert np.array_equal(plan.p == 0.0, kappa == 0.0)
            active = plan.p[plan.p > 0]
            assert np.all(active == active[0])
