"""Loss family, conjugates, prox operators, objectives, and violations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdc.objective import (
    ProblemSpec,
    dual_objective,
    dual_prox,
    dual_violations,
    duality_gap,
    elastic_net,
    elastic_net_conj,
    elastic_net_conj_grad,
    primal_objective,
    primal_prox,
    primal_violations,
    smoothed_hinge,
    smoothed_hinge_conj,
    smoothed_hinge_grad,
)

from conftest import make_dataset
from oracles import (
    central_difference,
    dual_prox_oracle,
    primal_prox_oracle,
    reference_primal_prox,
)


@pytest.mark.parametrize("fields,message", [
    ({"gamma": 0.0}, "gamma must be positive, got 0.0"),
    ({"gamma": float("nan")}, "gamma must be positive, got nan"),
    ({"lam": 0.0}, "lambda must be positive, got 0.0"),
    ({"lam": -1e-3}, "lambda must be positive, got -0.001"),
])
def test_problem_spec_rejects_non_positive_parameters(fields, message):
    with pytest.raises(ValueError) as info:
        ProblemSpec(**fields)
    assert str(info.value) == message


class TestSmoothedHinge:
    @pytest.mark.parametrize(
        "z,y,gamma,expected",
        [(2.0, 1.0, 1.0, 0.0), (-1.0, 1.0, 1.0, 1.5), (0.5, 1.0, 1.0, 0.125)],
    )
    def test_values(self, z, y, gamma, expected):
        assert smoothed_hinge(z, y, gamma) == expected

    @pytest.mark.parametrize(
        "z,y,gamma,expected",
        [(2.0, 1.0, 1.0, 0.0), (-1.0, 1.0, 1.0, -1.0), (0.5, 1.0, 1.0, -0.5)],
    )
    def test_grad_values(self, z, y, gamma, expected):
        assert smoothed_hinge_grad(z, y, gamma) == expected

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 1000:
            z = rng.uniform(-4, 4)
            y = rng.choice([-1.0, 1.0])
            gamma = rng.uniform(0.2, 3.0)
            # stay clear of the kinks by the differencing step
            if min(abs(y * z - 1.0), abs(y * z - (1.0 - gamma))) < 1e-5:
                continue
            ref = central_difference(lambda t: smoothed_hinge(t, y, gamma), z)
            assert smoothed_hinge_grad(z, y, gamma) == pytest.approx(ref, abs=1e-5)
            checked += 1

    def test_continuity_at_region_boundaries(self):
        for gamma in (0.5, 1.0, 2.0):
            for y in (-1.0, 1.0):
                for zb in (y * 1.0, y * (1.0 - gamma)):
                    lo = smoothed_hinge(zb - 1e-9, y, gamma)
                    hi = smoothed_hinge(zb + 1e-9, y, gamma)
                    assert abs(hi - lo) < 1e-8

    @pytest.mark.parametrize(
        "u,y,expected", [(-0.5, 1.0, -0.375), (0.5, 1.0, np.inf), (0.0, 1.0, 0.0)]
    )
    def test_conjugate_values(self, u, y, expected):
        assert smoothed_hinge_conj(u, y, 1.0) == expected

    @given(
        z=st.floats(-5, 5),
        t=st.floats(0, 1),
        y=st.sampled_from([-1.0, 1.0]),
        gamma=st.floats(0.2, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_fenchel_young(self, z, t, y, gamma):
        u = -y * t  # feasible: y*u in [-1, 0]
        lhs = smoothed_hinge(z, y, gamma) + smoothed_hinge_conj(u, y, gamma)
        assert lhs >= z * u - 1e-9

    def test_fenchel_young_equality_at_gradient(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            z = rng.uniform(-4, 4)
            y = rng.choice([-1.0, 1.0])
            gamma = rng.uniform(0.2, 3.0)
            u = float(smoothed_hinge_grad(z, y, gamma))
            lhs = smoothed_hinge(z, y, gamma) + smoothed_hinge_conj(u, y, gamma)
            assert lhs == pytest.approx(z * u, abs=1e-9)


class TestElasticNet:
    def test_values(self):
        assert elastic_net([1.0, -2.0]) == 5.5
        assert elastic_net(np.zeros(4)) == 0.0
        assert elastic_net([0.5]) == 0.625

    def test_conj_grad_values(self):
        assert elastic_net_conj_grad(2.0) == 1.0
        assert elastic_net_conj_grad(0.5) == 0.0
        assert elastic_net_conj_grad(-3.0) == -2.0
        assert elastic_net_conj([2.0]) == 0.5

    def test_conj_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            v = rng.uniform(-4, 4)
            if abs(abs(v) - 1.0) < 1e-5:
                continue
            ref = central_difference(lambda t: elastic_net_conj([t]), v)
            assert elastic_net_conj_grad(v) == pytest.approx(ref, abs=1e-5)


class TestDualProx:
    def test_hand_values(self):
        assert dual_prox(0.0, 0.0, 1.0, 1.0, 1.0) == 0.5
        assert dual_prox(5.0, 0.0, 1.0, 1.0, 1.0) == 0.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            dual_prox(0.0, 0.0, 0.0, 1.0, 1.0)

    def test_zero_violation_returns_input_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            s = rng.uniform(-4, 4)
            y = float(rng.choice([-1.0, 1.0]))
            gamma = rng.uniform(0.2, 3.0)
            q = float(np.exp(rng.uniform(-3, 3)))
            alpha = float(-smoothed_hinge_grad(s, y, gamma))
            if gamma - q == 0.0:
                continue
            out = dual_prox(s, alpha, q, y, gamma)
            assert out == alpha and np.signbit(out) == np.signbit(alpha)

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            s = rng.uniform(-5, 5)
            y = float(rng.choice([-1.0, 1.0]))
            gamma = rng.uniform(0.3, 3.0)
            q = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            alpha = y * rng.uniform(0, 1)
            ref = dual_prox_oracle(s, alpha, q, y, gamma)
            assert dual_prox(s, alpha, q, y, gamma) == pytest.approx(ref, abs=1e-8)

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            y = float(rng.choice([-1.0, 1.0]))
            out = dual_prox(rng.uniform(-10, 10), y * rng.uniform(0, 1),
                            float(np.exp(rng.uniform(-3, 3))), y, rng.uniform(0.2, 3))
            assert 0.0 <= y * out <= 1.0


class TestPrimalProx:
    def test_hand_values(self):
        assert primal_prox(0.0, 0.0, 1.0, 1.0) == 0.0
        assert primal_prox(2.0, 0.0, 1.0, 1.0) == 0.5
        assert primal_prox(0.5, 0.0, 1.0, 1.0) == 0.0

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            primal_prox(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            primal_prox(0.0, 0.0, 1.0, -1.0)

    def test_zero_violation_returns_input_bitwise(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(500):
            u = rng.uniform(-4, 4)
            lam = float(np.exp(rng.uniform(-2, 1)))
            tau = float(np.exp(rng.uniform(-2, 2)))
            w = float(elastic_net_conj_grad(u / lam))  # zero violation by construction
            v = primal_prox(u, w, tau, lam)
            if np.sign(v) == np.sign(w) or v == w:
                assert v == w
                hits += 1
        assert hits > 400

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            u = rng.uniform(-3, 3)
            w = rng.uniform(-2, 2)
            tau = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            lam = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
            ref = primal_prox_oracle(u, w, tau, lam)
            assert primal_prox(u, w, tau, lam) == pytest.approx(ref, abs=1e-8)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        u = rng.uniform(-3, 3, size=40)
        w = rng.uniform(-2, 2, size=40)
        vec = primal_prox(u, w, 0.7, 0.3)
        scal = np.array([primal_prox(ui, wi, 0.7, 0.3) for ui, wi in zip(u, w)])
        assert np.array_equal(vec, scal)


STEP = st.floats(1e-4, 1e3)
# signed zeros and the smallest subnormals, whose quotient by tau is a zero
COORD = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                  st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def prox_cases(draw):
    """(u, w_old, tau, lam) with signed zeros and exact fixed points mixed in."""
    tau, lam = draw(STEP), draw(STEP)
    m = draw(st.integers(1, 24))
    u = np.array(draw(st.lists(COORD, min_size=m, max_size=m)))
    w = np.array(draw(st.lists(COORD, min_size=m, max_size=m)))
    fixed = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    # w at the soft threshold of u/lam: the keep branch's first condition
    w[fixed] = np.sign(u[fixed] / lam) * np.maximum(np.abs(u[fixed] / lam) - 1.0, 0.0)
    return u, w, tau, lam


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(case=prox_cases())
# u + w_old/tau is -0.0 here and the keep rule does not hold: the result is
# sign(-0.0) * 0 = +0.0
@example(case=(np.array([-0.0, 1.0]), np.array([-5e-324, 0.5]), 10.0, 1.0))
# a fixed point whose update is NaN (1/tau overflows): the sign test rejects it
@example(case=(np.array([2.0, 0.5]), np.array([1.0, 0.0]), 5e-324, 1.0))
# u/lam at +-1 and one ulp to either side, with w_old at the fixed point
@example(case=(np.array([1.0, -1.0, 1.0 + 2**-52, 1.0 - 2**-53, -1.0 - 2**-52, -1.0 + 2**-53]),
               np.array([0.0, 0.0, 2**-52, 0.0, -2**-52, 0.0]), 1.0, 1.0))
@example(case=(np.array([0.3, -0.3, 0.3]), np.array([0.0, -0.0, 1e-300]), 2.0, 0.3))
# fixed points beyond +-1 whose update rounds away from them: only the keep rule holds them
@example(case=(np.array([-2.004558644518718, 2.004558644518718]),
               np.array([-1.0045586445187178, 1.0045586445187178]), 10.0, 1.0))
# signed zeros in u and w_old
@example(case=(np.array([0.0, 0.0, -0.0, -0.0]), np.array([0.0, -0.0, 0.0, -0.0]), 1.0, 1.0))
# dead-zone fixed points of u/lam < 0: soft gives -0.0, t - clip(t, -1, 1) gives +0.0
@example(case=(np.array([-0.5, -0.5, -1.0]), np.array([-0.0, 0.0, 0.0]), 0.5, 1.0))
# infinite w_old, also where u/lam overflows to the same infinity
@example(case=(np.array([1.0, -1.0, 3.0, 0.0]), np.array([np.inf, -np.inf, np.inf, -np.inf]),
               1.0, 1.0))
@example(case=(np.array([1e308, -1e308, 2.0]), np.array([np.inf, -np.inf, np.inf]), 1.0,
               1e-4))
def test_primal_prox_matches_frozen_reference_bitwise(case):
    u, w, tau, lam = case
    assert _bits(primal_prox(u, w, tau, lam)) == _bits(reference_primal_prox(u, w, tau, lam))
    for uj, wj in zip(u.tolist(), w.tolist()):
        got = primal_prox(uj, wj, tau, lam)
        assert isinstance(got, float)
        assert _bits(got) == _bits(reference_primal_prox(uj, wj, tau, lam))
    # a scalar weight broadcast against the array, and a column
    assert (_bits(primal_prox(u, w[0], tau, lam))
            == _bits(reference_primal_prox(u, w[0], tau, lam)))
    col = primal_prox(u[:, None], w[:, None], tau, lam)
    assert col.shape == (u.size, 1)
    assert _bits(col.ravel()) == _bits(reference_primal_prox(u, w, tau, lam))


class TestObjectives:
    def test_primal_at_zero(self, tiny):
        ds, spec = tiny
        assert primal_objective(np.zeros(ds.d), ds, spec) == pytest.approx(0.5, abs=0)

    def test_dual_at_zero(self, tiny):
        ds, spec = tiny
        assert dual_objective(np.zeros(ds.n), ds, spec) == 0.0

    def test_one_instance_hand_evaluation(self):
        import scipy.sparse as sp

        from spdc.datamat import SparseDataset

        ds = SparseDataset(sp.csr_matrix(np.array([[2.0]])), [1.0])
        spec = ProblemSpec(gamma=1.0, lam=1.0)
        w = np.array([0.3])
        # f(0.6) = (1-0.6)^2/2 = 0.08 ; g = 0.3 + 0.045
        assert primal_objective(w, ds, spec) == pytest.approx(0.08 + 0.345, rel=1e-12)

    def test_infeasible_alpha_gives_sentinels(self, tiny):
        ds, spec = tiny
        alpha = np.zeros(ds.n)
        alpha[0] = -2.0 * ds.labels[0]
        assert dual_objective(alpha, ds, spec) == -np.inf
        assert duality_gap(np.zeros(ds.d), alpha, ds, spec) == np.inf

    def test_gap_at_origin(self, tiny):
        ds, spec = tiny
        gap = duality_gap(np.zeros(ds.d), np.zeros(ds.n), ds, spec)
        assert gap == pytest.approx(0.5, abs=0)

    def test_strong_duality_at_reference(self, tiny, tiny_ref):
        ds, spec = tiny
        assert duality_gap(tiny_ref.w, tiny_ref.alpha, ds, spec) <= 1e-12

    def test_weak_duality_random_pairs(self, small):
        ds, spec = small
        rng = np.random.default_rng(9)
        for _ in range(1000):
            w = rng.normal(size=ds.d)
            alpha = ds.labels * rng.uniform(0, 1, size=ds.n)
            assert duality_gap(w, alpha, ds, spec) >= -1e-12

    def test_dimension_mismatch(self, tiny):
        ds, spec = tiny
        with pytest.raises(ValueError):
            primal_objective(np.zeros(ds.d + 1), ds, spec)
        with pytest.raises(ValueError):
            dual_objective(np.zeros(ds.n + 1), ds, spec)


class TestViolations:
    def test_kappa_at_origin_is_one(self, tiny):
        ds, spec = tiny
        kappa = dual_violations(np.zeros(ds.d), np.zeros(ds.n), ds, spec)
        assert np.allclose(kappa, 1.0)

    def test_kappa_zero_at_matched_alpha(self, small):
        ds, spec = small
        rng = np.random.default_rng(10)
        w = rng.normal(size=ds.d)
        z = ds.matvec(w)
        alpha = -smoothed_hinge_grad(z, ds.labels, spec.gamma)
        kappa = dual_violations(w, alpha, ds, spec)
        assert np.all(kappa == 0.0)

    def test_violations_vanish_at_reference(self, tiny, tiny_ref):
        ds, spec = tiny
        kappa = dual_violations(tiny_ref.w, tiny_ref.alpha, ds, spec)
        psi = primal_violations(tiny_ref.w, tiny_ref.alpha, ds, spec)
        assert np.max(kappa) <= 1e-7
        assert np.max(psi) <= 1e-7

    def test_psi_hand_case(self):
        import scipy.sparse as sp

        from spdc.datamat import SparseDataset

        # single feature, (1/(lam*n)) X_:1.alpha = 2 and w_1 = 1 -> psi = 0
        ds = SparseDataset(sp.csr_matrix(np.array([[1.0], [1.0]])), [1.0, -1.0])
        spec = ProblemSpec(gamma=1.0, lam=1.0)
        alpha = np.array([3.0, 1.0])  # X.alpha / (lam n) = 4/2 = 2
        psi = primal_violations(np.array([1.0]), alpha, ds, spec)
        assert psi[0] == 0.0

    def test_psi_zero_at_origin(self, tiny):
        ds, spec = tiny
        psi = primal_violations(np.zeros(ds.d), np.zeros(ds.n), ds, spec)
        assert np.all(psi == 0.0)
