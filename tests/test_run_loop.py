"""The one run loop and the one step-size formula against frozen copies of
the loops and rules they replaced (``tests/reference_runs.py``).

The rules must give bitwise the same step sizes, momentum and complexity
factors, or raise the same error; every runner must give the same trace,
counters, logs, final state, plan and step sizes, including runs that stop
on the budget mid-epoch, at an exact optimum, on a converged full sweep or
before any iteration.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc import core, variants
from spdc.datamat import lambda_max
from spdc.objective import ProblemSpec
from spdc.sampling import build_data_driven, build_ovs, build_restricted, build_uniform
from spdc.variants import (
    Budget,
    VariantConfig,
    run_fixed,
    run_ovs_exact,
    run_ovsspdc,
    run_ovsspdc_plus,
    run_ovsspdc_plusplus,
)

import reference_runs as ref
from conftest import make_dataset
from test_variants import optimal_zero_state


def _bits(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


def _outcome(fn, *args):
    """What a rule returns, as bits, or the error it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # the same error, or the same bits
        return type(exc), str(exc)
    if isinstance(out, core.StepParams):
        return (_bits(out.tau), _bits(out.sigma), _bits(out.theta), _bits(out.r_under),
                out.n_eff, out.schedule)
    return _bits(out)


@st.composite
def problems(draw):
    n = draw(st.integers(4, 40))
    d = draw(st.integers(2, 8))
    ds = make_dataset(n, d, seed=draw(st.integers(0, 10**6)),
                      density=draw(st.floats(0.3, 1.0)))
    gamma = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    lam = draw(st.floats(1e-4, 2.0)) * lambda_max(ds)
    return ds, ProblemSpec(gamma=gamma, lam=lam)


def _kappa(draw, n):
    """Violations with some exact zeros, never all zero."""
    kappa = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    kappa[draw(st.integers(0, n - 1))] = draw(st.floats(0.1, 3.0))
    return kappa


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # subnormal violations overflow
@given(problem=problems(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_rules_match_reference(problem, data):
    ds, spec = problem
    n = ds.n
    a = data.draw(st.integers(1, n))
    small = data.draw(st.integers(1, math.isqrt(n)))
    plans = [build_uniform(n, a), build_uniform(n, small),
             build_ovs(_kappa(data.draw, n), ds.row_norms, small, n),
             build_restricted(_kappa(data.draw, n), a)]
    for scheme in ("cor16", "cor17"):
        try:
            plans.append(build_data_driven(ds, spec, 1, scheme))
        except Exception:
            pass
    for plan in plans:
        for name in ("thm4", "thm5"):
            new = getattr(core, f"schedule_{name}")
            old = getattr(ref, f"reference_schedule_{name}")
            assert _outcome(new, ds, spec, plan) == _outcome(old, ds, spec, plan)
        for scheme in ("cor18", "cor19", "bogus"):
            assert (_outcome(core.schedule_vanilla, ds, spec, plan, scheme)
                    == _outcome(ref.reference_schedule_vanilla, ds, spec, plan, scheme))
        for schedule in ("thm4", "thm5", "thm15", "cor18", "cor19", "bogus"):
            assert (_outcome(core.complexity_estimate, ds, spec, plan, plan.batch, schedule)
                    == _outcome(ref.reference_complexity_estimate, ds, spec, plan,
                                plan.batch, schedule))
        params = core.schedule_thm4(ds, spec, build_uniform(n, 1))
        assert (_outcome(core.theta_of, params, plan, spec, n)
                == _outcome(ref.reference_theta_of, params, plan, spec, n))
        if plan.kind == "restricted":
            assert (_outcome(variants._restricted_schedule, ds, spec, plan, a)
                    == _outcome(ref.reference_restricted_schedule, ds, spec, plan, a))
    assert (_outcome(core.schedule_thm15, ds, spec, a)
            == _outcome(ref.reference_schedule_thm15, ds, spec, a))


def _same_value(x, y):
    if isinstance(x, list):
        return (isinstance(y, list) and len(x) == len(y)
                and all(_same_value(u, v) for u, v in zip(x, y)))
    if isinstance(x, np.ndarray):
        return (isinstance(y, np.ndarray) and x.dtype == y.dtype
                and x.tobytes() == y.tobytes())
    return type(x) is type(y) and _bits(x) == _bits(y) if isinstance(x, float) else x == y


def assert_same_run(new, old):
    assert [r.csv_row() for r in new.trace] == [r.csv_row() for r in old.trace]
    assert new.converged is old.converged or new.converged == old.converged
    assert sorted(new.counters) == sorted(old.counters)
    for key, value in old.counters.items():
        assert _same_value(new.counters[key], value), key
    for name in ("w", "w_prev", "alpha", "w_bar", "alpha_bar", "v_cache"):
        assert _bits(getattr(new.state, name)) == _bits(getattr(old.state, name)), name
    assert new.state.iter == old.state.iter
    assert (new.params is None) == (old.params is None)
    if old.params is not None:
        assert _outcome(lambda: new.params) == _outcome(lambda: old.params)
    assert (new.plan is None) == (old.plan is None)
    if old.plan is not None:
        assert _bits(new.plan.p) == _bits(old.plan.p) and new.plan.batch == old.plan.batch


@pytest.fixture(scope="module")
def mid():
    ds = make_dataset(30, 8, seed=20, density=0.6)
    return ds, ProblemSpec(gamma=1.0, lam=1e-2 * lambda_max(ds))


@pytest.fixture(scope="module")
def optimal():
    """lam above lambda_max: the zero weights with alpha = y are exactly optimal."""
    ds = make_dataset(16, 5, seed=22)
    spec = ProblemSpec(gamma=1.0, lam=1.1 * lambda_max(ds))
    return ds, spec, optimal_zero_state(ds, spec)


def _rng():
    return np.random.default_rng(7)


# budgets that end mid-epoch, before any iteration, or at a tolerance (the
# loose one is reached by a snapshot acceptance check in mid-round)
BUDGETS = [Budget(1e-12, 2.5), Budget(1e-12, 0.0), Budget(1e-6, 400.0),
           Budget(1e-2, 400.0)]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("algo,a", [("adaspdc", 1), ("adaspdc", 3), ("spdc", 2),
                                    ("dspdc", 1), ("thm15", 7)])
def test_fixed_matches_reference(mid, budget, algo, a):
    ds, spec = mid
    plan = build_uniform(ds.n, a)
    dcfg = None
    if algo == "thm15":
        params = core.schedule_thm15(ds, spec, a)
    elif algo == "adaspdc":
        params = core.schedule_thm5(ds, spec, plan)
    else:
        params = core.schedule_vanilla(ds, spec, plan, "cor19")
    if algo == "dspdc":
        dcfg = core.DspdcConfig.build(ds.d, 3)
    new = run_fixed(ds, spec, plan, params, a, budget, _rng(), dspdc_cfg=dcfg, timing=False)
    old = ref.reference_run_fixed(ds, spec, plan, params, a, budget, _rng(),
                                  stepper="dspdc" if dcfg else "adaspdc",
                                  dspdc_cfg=dcfg, timing=False)
    assert_same_run(new, old)


def test_fixed_warm_start_matches_reference(mid):
    ds, spec = mid
    plan = build_uniform(ds.n, 2)
    params = core.schedule_thm5(ds, spec, plan)
    state0 = run_fixed(ds, spec, plan, params, 2, Budget(1e-12, 1.3), _rng()).state
    new = run_fixed(ds, spec, plan, params, 2, BUDGETS[0], _rng(), timing=False,
                    state0=state0)
    old = ref.reference_run_fixed(ds, spec, plan, params, 2, BUDGETS[0], _rng(),
                                  timing=False, state0=state0)
    assert_same_run(new, old)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("a,cfg", [(1, VariantConfig()),
                                   (2, VariantConfig(refresh_every=5, record_draws=True)),
                                   (5, VariantConfig(record_draws=True))])
def test_ovsspdc_matches_reference(mid, budget, a, cfg):
    ds, spec = mid
    new = run_ovsspdc(ds, spec, a, cfg, budget, _rng(), timing=False)
    old = ref.reference_run_ovsspdc(ds, spec, a, cfg, budget, _rng(), timing=False)
    assert_same_run(new, old)


def test_ovsspdc_uniform_fallback_matches_reference(optimal):
    ds, spec, state0 = optimal
    budget = Budget(gap_tol=-1.0, max_epochs=3.4)
    cfg = VariantConfig(refresh_every=3, record_draws=True)
    new = run_ovsspdc(ds, spec, 1, cfg, budget, _rng(), timing=False, state0=state0)
    old = ref.reference_run_ovsspdc(ds, spec, 1, cfg, budget, _rng(), timing=False,
                                    state0=state0)
    assert new.counters["uniform_fallbacks"] >= 1
    assert_same_run(new, old)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("record", [False, True])
def test_ovs_exact_matches_reference(tiny, budget, record):
    ds, spec = tiny
    cfg = VariantConfig(record_draws=record)
    new = run_ovs_exact(ds, spec, cfg, budget, _rng(), timing=False)
    old = ref.reference_run_ovs_exact(ds, spec, cfg, budget, _rng(), timing=False)
    assert_same_run(new, old)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("record", [False, True])
def test_ovs_exact_settles_like_reference(seed, record):
    # with gamma = 0.1 the duals settle exactly long before the weights, so
    # most iterations only flush the primal (they draw nothing and take no
    # checkpoint) until the run stops at the exact optimum
    ds = make_dataset(12, 4, seed=seed, density=0.8)
    spec = ProblemSpec(gamma=0.1, lam=0.8 * lambda_max(ds))
    budget = Budget(gap_tol=-1.0, max_epochs=200)
    cfg = VariantConfig(record_draws=record)
    new = run_ovs_exact(ds, spec, cfg, budget, _rng(), timing=False)
    old = ref.reference_run_ovs_exact(ds, spec, cfg, budget, _rng(), timing=False)
    assert new.counters["optimal_exit"]
    assert new.counters["iterations"] > 10 * new.counters["duals_drawn"]
    assert_same_run(new, old)


def test_ovs_exact_optimal_start_matches_reference(optimal):
    ds, spec, state0 = optimal
    budget = Budget(gap_tol=-1.0, max_epochs=50)
    new = run_ovs_exact(ds, spec, VariantConfig(), budget, _rng(), timing=False,
                        state0=state0)
    old = ref.reference_run_ovs_exact(ds, spec, VariantConfig(), budget, _rng(),
                                      timing=False, state0=state0)
    assert new.counters["optimal_exit"]
    assert_same_run(new, old)


SNAPSHOT_RUNNERS = [(run_ovsspdc_plus, False), (run_ovsspdc_plusplus, True)]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("a,cfg", [(1, VariantConfig()),
                                   (1, VariantConfig(gap_check_every=1)),
                                   (2, VariantConfig(gap_check_every=3, record_draws=True)),
                                   (7, VariantConfig(record_draws=True))])
@pytest.mark.parametrize("runner,restrict", SNAPSHOT_RUNNERS)
def test_snapshot_matches_reference(mid, budget, a, cfg, runner, restrict):
    # a = 7 > sqrt(30) sweeps with the thm15 steps
    ds, spec = mid
    new = runner(ds, spec, a, cfg, budget, _rng(), timing=False)
    old = ref.reference_run_snapshot(ds, spec, a, cfg, budget, _rng(),
                                     restrict_primal=restrict, timing=False)
    assert_same_run(new, old)


@pytest.mark.parametrize("runner,restrict", SNAPSHOT_RUNNERS)
def test_snapshot_stops_like_reference(mid, optimal, runner, restrict):
    # a full sweep that reaches the tolerance: this one is the gap the 21st
    # sweep of either variant leaves on ``mid`` at this seed
    ds, spec = mid
    budget = Budget(gap_tol=0.2765596451434991, max_epochs=400)
    new = runner(ds, spec, 1, VariantConfig(), budget, _rng(), timing=False)
    old = ref.reference_run_snapshot(ds, spec, 1, VariantConfig(), budget, _rng(),
                                     restrict_primal=restrict, timing=False)
    assert new.converged and new.counters["inner_rounds"] == len(new.trace) - 2
    assert_same_run(new, old)
    # and one that finds the exact optimum
    # gamma < 1 clamps the duals onto their optimum, alpha = y, in finitely
    # many steps; lam above lambda_max keeps the weights at zero
    ds = optimal[0]
    spec = ProblemSpec(gamma=0.5, lam=1.1 * lambda_max(ds))
    budget = Budget(gap_tol=-1.0, max_epochs=50)
    new = runner(ds, spec, 1, VariantConfig(), budget, _rng(), timing=False)
    old = ref.reference_run_snapshot(ds, spec, 1, VariantConfig(), budget, _rng(),
                                     restrict_primal=restrict, timing=False)
    assert new.counters["optimal_exit"]
    assert_same_run(new, old)
