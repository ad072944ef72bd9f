"""Every runner, and the frozen optimum the fixed-point tests lean on,
against an external optimum: L-BFGS-B on the primal (``oracles.lbfgs_optimum``),
which shares no code with the coordinate solvers.

Weak duality brackets the optimum between a run's dual and primal values,
so a run that certifies a gap of at most ``GAP_TOL`` must place the external
optimum inside ``[D, P]``, to within the external solver's own error.  That
error measured at most 5.6e-17 against the bitwise fixed point of
``conftest.solve_to_fixed_point`` on this dataset at both lambdas; ``EPS``
allows a hundredfold more.  The fixed point is checked at the larger
lambda only, where it freezes after 114 epochs of single steps; at the
smaller one it takes 267, which would add a quarter to this module's time.
"""

import numpy as np
import pytest

from spdc import core
from spdc.datamat import lambda_max
from spdc.objective import ProblemSpec, dual_objective, primal_objective
from spdc.sampling import build_uniform
from spdc.variants import (
    Budget,
    run_fixed,
    run_ovs_exact,
    run_ovsspdc,
    run_ovsspdc_plus,
    run_ovsspdc_plusplus,
)

from conftest import make_dataset, solve_to_fixed_point
from oracles import lbfgs_optimum

GAP_TOL = 1e-8
EPS = 1e-14


@pytest.fixture(scope="module", params=[0.2, 0.02], ids=lambda s: f"lam={s}")
def problem(request):
    ds = make_dataset(50, 10, seed=33, density=0.6)
    spec = ProblemSpec(gamma=1.0, lam=request.param * lambda_max(ds))
    return ds, spec, lbfgs_optimum(ds, spec)


def _fixed(ds, spec, budget, rng, schedule="thm5"):
    plan = build_uniform(ds.n, 1)
    params = (core.schedule_thm5(ds, spec, plan) if schedule == "thm5"
              else core.schedule_vanilla(ds, spec, plan, schedule))
    return run_fixed(ds, spec, params, budget, rng)


RUNNERS = {
    "adaspdc": _fixed,
    # spdc's shared step, as cli runs dspdc
    "dspdc": lambda ds, spec, budget, rng: _fixed(ds, spec, budget, rng, "cor19"),
    "ovsspdc": lambda ds, spec, budget, rng: run_ovsspdc(ds, spec, 2, budget, rng),
    "ovs-exact": run_ovs_exact,
    "ovsspdc-plus": lambda ds, spec, budget, rng: run_ovsspdc_plus(ds, spec, 1, budget, rng),
    "ovsspdc-plusplus": lambda ds, spec, budget, rng: run_ovsspdc_plusplus(ds, spec, 1,
                                                                           budget, rng),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_brackets_external_optimum(problem, name):
    ds, spec, value = problem
    res = RUNNERS[name](ds, spec, Budget(gap_tol=GAP_TOL, max_epochs=2000),
                        np.random.default_rng(1))
    p_val = primal_objective(res.state.w, ds, spec)
    d_val = dual_objective(res.state.alpha, ds, spec)
    assert res.converged and p_val - d_val <= GAP_TOL
    assert d_val - EPS <= value <= p_val + EPS


@pytest.mark.parametrize("problem", [0.2], indirect=True, ids=lambda s: f"lam={s}")
def test_frozen_state_is_external_optimum(problem):
    ds, spec, value = problem
    state, _, _ = solve_to_fixed_point(ds, spec)
    assert abs(primal_objective(state.w, ds, spec) - value) <= EPS
    assert abs(dual_objective(state.alpha, ds, spec) - value) <= EPS
