"""Anchor the solvers against an independent convex-programming solution.

The smoothed hinge is a one-sided Huber function, so the primal problem is
directly expressible in cvxpy; its optimum gives an external reference for
the coordinate solvers' objectives.
"""

import numpy as np
import pytest

cvxpy = pytest.importorskip("cvxpy")

from spdc.datamat import lambda_max
from spdc.objective import ProblemSpec, primal_objective
from spdc.sampling import build_uniform
from spdc.core import schedule_thm5
from spdc.variants import Budget, run_fixed, run_ovsspdc_plusplus

from conftest import make_dataset


def cvxpy_optimum(ds, spec):
    X = ds._csr.toarray()
    y = ds.labels
    w = cvxpy.Variable(ds.d)
    t = 1.0 - cvxpy.multiply(y, X @ w)
    loss = cvxpy.sum(cvxpy.huber(cvxpy.pos(t), spec.gamma)) / (2.0 * spec.gamma * ds.n)
    penalty = spec.lam * (cvxpy.norm1(w) + 0.5 * cvxpy.sum_squares(w))
    problem = cvxpy.Problem(cvxpy.Minimize(loss + penalty))
    problem.solve(solver=cvxpy.CLARABEL)
    assert problem.status == cvxpy.OPTIMAL
    return float(problem.value), np.asarray(w.value).ravel()


@pytest.mark.parametrize("lam_scale", [0.2, 0.02])
def test_solvers_match_external_optimum(lam_scale):
    ds = make_dataset(50, 10, seed=33, density=0.6)
    spec = ProblemSpec(gamma=1.0, lam=lam_scale * lambda_max(ds))
    ref_value, _ = cvxpy_optimum(ds, spec)

    budget = Budget(gap_tol=1e-10, max_epochs=5000)
    plan = build_uniform(ds.n, 1)
    params = schedule_thm5(ds, spec, plan)
    fixed = run_fixed(ds, spec, params, budget, np.random.default_rng(1))
    pp = run_ovsspdc_plusplus(ds, spec, 1, budget,
                              np.random.default_rng(2))
    assert fixed.converged and pp.converged
    for res in (fixed, pp):
        value = primal_objective(res.state.w, ds, spec)
        assert value == pytest.approx(ref_value, rel=2e-6, abs=1e-8)
        assert value >= ref_value - 1e-8  # the reference is the minimum
