"""The one run loop and the one step-size formula against frozen copies of
the loops and rules they replaced (``tests/reference_runs.py``).

The rules must give bitwise the same step sizes, momentum and complexity
factors, or raise the same error; every runner must give the same trace,
counters, draws, final state, plan and step sizes, including runs whose
budget runs out mid-epoch, that stop at an exact optimum, on a converged
full sweep or before any iteration.  A run with a smaller epoch budget must
give a prefix of the trace of one with a larger budget.
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
    run_fixed,
    run_ovs_exact,
    run_ovsspdc,
    run_ovsspdc_plus,
    run_ovsspdc_plusplus,
)

import reference_runs as ref
from conftest import make_dataset, untimed
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
             build_ovs(_kappa(data.draw, n), ds.row_norms, spec, small),
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
            assert (_outcome(core.complexity_estimate, ds, spec, plan, schedule)
                    == _outcome(ref.reference_complexity_estimate, ds, spec, plan,
                                plan.batch, schedule))
        params = core.schedule_thm4(ds, spec, build_uniform(n, 1))
        p, sigma = core._supported(plan, params.sigma)
        assert (_outcome(core._theta, spec, params.tau, plan.batch, n, p, sigma)
                == _outcome(ref.reference_theta_of, params, plan, spec, n))
        if plan.kind == "restricted":
            assert (_outcome(variants._restricted_schedule, ds, spec, plan)
                    == _outcome(ref.reference_restricted_schedule, ds, spec, plan, a))
    assert (_outcome(core.schedule_thm15, ds, spec, build_uniform(n, a))
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
    assert untimed(new.trace) == untimed(old.trace)
    assert new.converged is old.converged or new.converged == old.converged
    assert sorted(new.counters) == sorted(old.counters)
    for key, value in old.counters.items():
        assert _same_value(new.counters[key], value), key
    for name in ("w", "w_prev", "alpha", "w_bar", "v_cache"):
        assert _bits(getattr(new.state, name)) == _bits(getattr(old.state, name)), name
    assert new.state.iter == old.state.iter
    assert (new.params is None) == (old.params is None)
    if old.params is not None:
        assert _outcome(lambda: new.params) == _outcome(lambda: old.params)
        new_plan, old_plan = new.params.plan, old.params.plan
        assert _bits(new_plan.p) == _bits(old_plan.p) and new_plan.batch == old_plan.batch


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
# snapshot variants reach the loose one on a full sweep)
BUDGETS = [Budget(1e-12, 2.5), Budget(1e-12, 0.0), Budget(1e-6, 400.0),
           Budget(1e-2, 400.0)]


@pytest.mark.parametrize("budget", BUDGETS)
# dspdc runs spdc's cor19 iteration; cli checks thm20 for it
@pytest.mark.parametrize("algo,a", [("adaspdc", 1), ("adaspdc", 3), ("spdc", 2),
                                    ("dspdc", 1), ("thm15", 7)])
def test_fixed_matches_reference(mid, budget, algo, a):
    ds, spec = mid
    plan = build_uniform(ds.n, a)
    if algo == "thm15":
        params = core.schedule_thm15(ds, spec, plan)
    elif algo == "adaspdc":
        params = core.schedule_thm5(ds, spec, plan)
    else:
        params = core.schedule_vanilla(ds, spec, plan, "cor19")
    new = run_fixed(ds, spec, params, budget, _rng())
    old = ref.reference_run_fixed(ds, spec, params, a, budget, _rng())
    assert_same_run(new, old)


@pytest.mark.parametrize("algo", ["adaspdc", "dspdc"])
def test_fixed_anchored_matches_reference(algo):
    # d >= _LAZY_MIN_D: an epoch runs as one call, in blocks of iterations
    d = max(2400, core._LAZY_MIN_D)
    ds = make_dataset(40, d, seed=11, density=5 / d)
    spec = ProblemSpec(gamma=1.0, lam=0.1 * lambda_max(ds))
    plan = build_uniform(ds.n, 1)
    if algo == "adaspdc":
        params = core.schedule_thm5(ds, spec, plan)
    else:
        params = core.schedule_vanilla(ds, spec, plan, "cor19")
    budget = Budget(1e-12, 6.0)
    new = run_fixed(ds, spec, params, budget, _rng())
    old = ref.reference_run_fixed(ds, spec, params, 1, budget, _rng())
    assert new.state._anchors is not None
    assert_same_run(new, old)


def test_fixed_warm_start_matches_reference(mid):
    ds, spec = mid
    plan = build_uniform(ds.n, 2)
    params = core.schedule_thm5(ds, spec, plan)
    state0 = run_fixed(ds, spec, params, Budget(1e-12, 1.3), _rng()).state
    new = run_fixed(ds, spec, params, BUDGETS[0], _rng(),
                    state0=state0)
    old = ref.reference_run_fixed(ds, spec, params, 2, BUDGETS[0], _rng(), state0=state0)
    assert_same_run(new, old)


def _compare(request, record, new, old):
    """Assert that ``new()`` and ``old()`` give the same run, and return the
    new one.  With ``record`` the two must also draw the same duals from the
    same plans, and every draw must have positive probability in its plan."""
    if not record:
        new_run = new()
        assert_same_run(new_run, old())
        return new_run
    log = request.getfixturevalue("draw_log")
    new_run = new()
    new_log = log[:]
    del log[:]
    assert_same_run(new_run, old())
    assert len(new_log) == len(log)
    for (new_plan, new_draws), (old_plan, old_draws) in zip(new_log, log):
        assert _bits(new_plan.p) == _bits(old_plan.p)
        assert new_draws.tobytes() == old_draws.tobytes()
        assert np.all(new_plan.p[new_draws] > 0)
    return new_run


# the options of a comparison: whether it records the draws
PLAIN, RECORDED = {"record_draws": False}, {"record_draws": True}


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("a,cfg", [(1, PLAIN), (2, RECORDED), (5, RECORDED)])
def test_ovsspdc_matches_reference(request, mid, budget, a, cfg):
    ds, spec = mid
    _compare(request, cfg["record_draws"],
             lambda: run_ovsspdc(ds, spec, a, budget, _rng()),
             lambda: ref.reference_run_ovsspdc(ds, spec, a, budget, _rng()))


def test_ovsspdc_uniform_fallback_matches_reference(request, optimal):
    ds, spec, state0 = optimal
    budget = Budget(gap_tol=-1.0, max_epochs=3.4)
    new = _compare(request, True,
                   lambda: run_ovsspdc(ds, spec, 1, budget, _rng(),
                                       state0=state0),
                   lambda: ref.reference_run_ovsspdc(ds, spec, 1, budget, _rng(), state0=state0))
    assert new.counters["uniform_fallbacks"] >= 1


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("record", [False, True])
def test_ovs_exact_matches_reference(request, tiny, budget, record):
    ds, spec = tiny
    _compare(request, record,
             lambda: run_ovs_exact(ds, spec, budget, _rng()),
             lambda: ref.reference_run_ovs_exact(ds, spec, budget, _rng()))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("record", [False, True])
def test_ovs_exact_settles_like_reference(request, seed, record):
    # with gamma = 0.1 the duals settle exactly long before the weights, so
    # most iterations only flush the primal (they draw nothing and take no
    # checkpoint) until the run stops at the exact optimum
    ds = make_dataset(12, 4, seed=seed, density=0.8)
    spec = ProblemSpec(gamma=0.1, lam=0.8 * lambda_max(ds))
    budget = Budget(gap_tol=-1.0, max_epochs=200)
    new = _compare(request, record,
                   lambda: run_ovs_exact(ds, spec, budget, _rng()),
                   lambda: ref.reference_run_ovs_exact(ds, spec, budget, _rng()))
    assert new.counters["optimal_exit"]
    assert new.counters["iterations"] > 10 * new.counters["duals_drawn"]


def test_ovs_exact_optimal_start_matches_reference(optimal):
    ds, spec, state0 = optimal
    budget = Budget(gap_tol=-1.0, max_epochs=50)
    new = run_ovs_exact(ds, spec, budget, _rng(), state0=state0)
    old = ref.reference_run_ovs_exact(ds, spec, budget, _rng(),
                                      state0=state0)
    assert new.counters["optimal_exit"]
    assert_same_run(new, old)


SNAPSHOT_RUNNERS = [(run_ovsspdc_plus, False), (run_ovsspdc_plusplus, True)]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("a,cfg", [(1, PLAIN), (1, RECORDED), (2, RECORDED), (7, RECORDED)])
@pytest.mark.parametrize("runner,restrict", SNAPSHOT_RUNNERS)
def test_snapshot_matches_reference(request, mid, budget, a, cfg, runner, restrict):
    # a = 7 > sqrt(30) sweeps with the thm15 steps
    ds, spec = mid
    _compare(request, cfg["record_draws"],
             lambda: runner(ds, spec, a, budget, _rng()),
             lambda: ref.reference_run_snapshot(ds, spec, a, budget, _rng(),
                                                restrict_primal=restrict))


@pytest.mark.parametrize("runner,restrict", SNAPSHOT_RUNNERS)
def test_snapshot_stops_like_reference(mid, optimal, runner, restrict):
    # the tolerances come from a first run on ``mid`` at this seed: the first
    # committed gap no checkpoint shows is a sweep's that its round's inner
    # iterate then beat (round 20 of either variant), the next one that
    # inner iterate's
    ds, spec = mid
    first = runner(ds, spec, 1, Budget(gap_tol=0.0, max_epochs=60), _rng())
    gaps = [rec.gap for rec in first.trace]
    committed = first.counters["committed_gaps"]
    k = next(k for k, g in enumerate(committed) if g not in gaps)
    swept, accepted = committed[k], committed[k + 1]
    # a full sweep that reaches the tolerance
    budget = Budget(gap_tol=swept, max_epochs=400)
    new = runner(ds, spec, 1, budget, _rng())
    old = ref.reference_run_snapshot(ds, spec, 1, budget, _rng(),
                                     restrict_primal=restrict)
    assert new.converged and new.counters["inner_rounds"] == len(new.trace) - 2
    assert new.trace[-1].gap == swept
    assert_same_run(new, old)
    # an inner iterate that reaches the tolerance
    budget = Budget(gap_tol=accepted, max_epochs=400)
    new = runner(ds, spec, 1, budget, _rng())
    old = ref.reference_run_snapshot(ds, spec, 1, budget, _rng(),
                                     restrict_primal=restrict)
    assert new.converged and new.counters["inner_rounds"] == len(new.trace) - 1 == 20
    assert_same_run(new, old)
    # and one that finds the exact optimum
    # gamma < 1 clamps the duals onto their optimum, alpha = y, in finitely
    # many steps; lam above lambda_max keeps the weights at zero
    ds = optimal[0]
    spec = ProblemSpec(gamma=0.5, lam=1.1 * lambda_max(ds))
    budget = Budget(gap_tol=-1.0, max_epochs=50)
    new = runner(ds, spec, 1, budget, _rng())
    old = ref.reference_run_snapshot(ds, spec, 1, budget, _rng(),
                                     restrict_primal=restrict)
    assert new.counters["optimal_exit"]
    assert_same_run(new, old)


# one runner of each kind on ``mid`` (n=30): a fixed plan (a=4 gives units
# of 32/30 epochs), dspdc's shared step, the refresh at a = 1 and 2, the exact
# gate and both snapshot variants
PREFIX_RUNNERS = {
    "adaspdc": lambda ds, spec, budget: run_fixed(
        ds, spec, core.schedule_thm5(ds, spec, build_uniform(ds.n, 4)), budget, _rng()),
    "dspdc": lambda ds, spec, budget: run_fixed(
        ds, spec, core.schedule_vanilla(ds, spec, build_uniform(ds.n, 1), "cor19"), budget,
        _rng()),
    "ovsspdc a=1": lambda ds, spec, budget: run_ovsspdc(ds, spec, 1, budget, _rng()),
    "ovsspdc a=2": lambda ds, spec, budget: run_ovsspdc(ds, spec, 2, budget, _rng()),
    "ovs-exact": lambda ds, spec, budget: run_ovs_exact(ds, spec, budget, _rng()),
    "ovsspdc-plus": lambda ds, spec, budget: run_ovsspdc_plus(ds, spec, 2, budget, _rng()),
    "ovsspdc-plusplus": lambda ds, spec, budget: run_ovsspdc_plusplus(ds, spec, 2, budget,
                                                                      _rng()),
}


@pytest.mark.parametrize("name", list(PREFIX_RUNNERS))
def test_budget_gives_a_trace_prefix(mid, name):
    # every run ends on a whole unit, so a smaller epoch budget cuts the
    # trace of a larger one at the first unit end past it
    ds, spec = mid
    short, long = (PREFIX_RUNNERS[name](ds, spec, Budget(-1.0, cap)) for cap in (2.5, 6.0))
    rows = untimed(short.trace)
    assert rows == untimed(long.trace)[:len(rows)]
    assert short.trace[-2].epoch < 2.5 <= short.trace[-1].epoch
    assert not short.counters.get("optimal_exit")
