"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite asserts every criterion at its stated tolerance.
"""

import math
import statistics
import time

import numpy as np
import pytest
import scipy.stats

from spdc.cli import RunConfig, main as cli_main, synth
from spdc.core import (
    adaspdc_step,
    complexity_estimate,
    delta_t,
    init_state,
    schedule_thm4,
    schedule_thm5,
    schedule_thm15,
    schedule_vanilla,
    verify_lemma3,
    verify_lemma14,
)
from spdc.core import DspdcConfig
from spdc.datamat import lambda_max, load_libsvm
from spdc.objective import (
    ProblemSpec,
    dual_prox,
    elastic_net_conj_grad,
    primal_objective,
    primal_prox,
    smoothed_hinge_grad,
    soft_threshold,
)
from spdc.sampling import alias_build, build_ovs, build_uniform
from spdc.variants import (
    Budget,
    VariantConfig,
    run_fixed,
    run_ovsspdc,
    run_ovsspdc_plus,
    run_ovsspdc_plusplus,
)

from conftest import make_dataset
from oracles import dual_prox_oracle, primal_prox_oracle


def report(num, ok, detail=""):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "bench200.svm"
    synth(n=200, d=50, sparsity=0.25, dual_skew=0.6, seed=202, out_path=str(path))
    return str(path)


def test_criterion_1_prox_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_dual = worst_primal = 0.0
    for _ in range(1000):
        s = rng.uniform(-5, 5)
        y = float(rng.choice([-1.0, 1.0]))
        gamma = rng.uniform(0.3, 3.0)
        q = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        alpha = y * rng.uniform(0, 1)
        got = dual_prox(s, alpha, q, y, gamma)
        ref = dual_prox_oracle(s, alpha, q, y, gamma)
        worst_dual = max(worst_dual, abs(got - ref))
    for _ in range(1000):
        u = rng.uniform(-3, 3)
        w = rng.uniform(-2, 2)
        tau = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        lam = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        got = primal_prox(u, w, tau, lam)
        ref = primal_prox_oracle(u, w, tau, lam)
        worst_primal = max(worst_primal, abs(got - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_dual <= 1e-8 and worst_primal <= 1e-8 and elapsed < 10.0
    report(1, ok, f"dual err {worst_dual:.2e}, primal err {worst_primal:.2e}, {elapsed:.1f}s")


def test_criterion_2_monte_carlo_contraction():
    t0 = time.perf_counter()
    ds = make_dataset(20, 5, seed=42, density=0.8)
    spec = ProblemSpec(gamma=1.0, lam=1.0)
    plan = build_uniform(ds.n, 1)
    params = schedule_thm5(ds, spec, plan)
    from conftest import solve_to_fixed_point

    ref, _, _ = solve_to_fixed_point(ds, spec, seed=3)
    state = init_state(ds)
    walker = np.random.default_rng(77)
    results = []
    for burn in (0, 5, 20):  # states after 0, 5, and 25 steps
        for _ in range(burn):
            adaspdc_step(state, params, plan, ds, spec, 1, walker)
        d0 = delta_t(state, ref.w, ref.alpha, params, plan, ds, spec, 1)
        vals = np.empty(2000)
        for r in range(2000):
            trial = state.copy()
            adaspdc_step(trial, params, plan, ds, spec, 1,
                         np.random.default_rng(500_000 + 97 * r))
            vals[r] = delta_t(trial, ref.w, ref.alpha, params, plan, ds, spec, 1)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        results.append((vals.mean(), params.theta * d0 + 3 * se, d0))
    elapsed = time.perf_counter() - t0
    ok = all(mean <= bound for mean, bound, _ in results) and elapsed < 30.0
    detail = "; ".join(f"mean {m:.4g} <= {b:.4g}" for m, b, _ in results)
    report(2, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_3_condition_verification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    all_ok = True
    tight_worst = 0.0
    for k in range(200):
        n = int(rng.integers(5, 101))
        d = int(rng.integers(2, 51))
        ds = make_dataset(n, d, seed=3000 + k, density=float(rng.uniform(0.3, 1.0)),
                          normalize=True)
        spec = ProblemSpec(gamma=float(rng.uniform(0.3, 2.0)),
                           lam=float(rng.uniform(1e-3, 1.0)))
        a_small = int(rng.integers(1, max(2, math.isqrt(n) + 1)))
        a_big = math.isqrt(n)
        if a_big * a_big < n:
            a_big += 1
        plan_s = build_uniform(n, a_small)
        plan_b = build_uniform(n, a_big)
        cases = [
            (schedule_thm4(ds, spec, plan_s), plan_s, a_small),
            (schedule_thm5(ds, spec, plan_s), plan_s, a_small),
            (schedule_thm15(ds, spec, a_big), plan_b, a_big),
            (schedule_vanilla(ds, spec, plan_s, "cor18"), plan_s, a_small),
            (schedule_vanilla(ds, spec, plan_s, "cor19"), plan_s, a_small),
        ]
        for params, plan, a in cases:
            ok3, _ = verify_lemma3(params, plan, ds, a)
            ok14 = verify_lemma14(params, plan, ds, a)
            if not (ok3 and ok14):
                all_ok = False
        # tightness of the boosted rule's step-size product at its bound
        p5 = cases[1][0]
        bound = a_small * (plan_s.p * n) ** 2 / (4.0 * ds.row_norms**2)
        rel = np.abs(p5.tau * p5.sigma / bound - 1.0)
        tight_worst = max(tight_worst, float(np.min(rel)))
    elapsed = time.perf_counter() - t0
    ok = all_ok and tight_worst <= 1e-12 and elapsed < 30.0
    report(3, ok, f"all schedules verified, boundary slack {tight_worst:.1e}, {elapsed:.1f}s")


def test_criterion_4_complexity_identity():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(3, 300))
        ds = make_dataset(n, int(rng.integers(2, 12)), seed=4000 + k)
        spec = ProblemSpec(gamma=float(rng.uniform(0.2, 3.0)),
                           lam=float(rng.uniform(1e-5, 2.0)))
        plan = build_uniform(n, 1)
        got = complexity_estimate(ds, spec, plan, 1, "thm5")
        expected = n + math.sqrt(n / (spec.lam * spec.gamma)) * float(np.max(ds.row_norms))
        worst = max(worst, abs(got - expected) / expected)
    report(4, worst <= 1e-12, f"max relative deviation {worst:.1e}")


def test_criterion_5_update_skip_predicates():
    path_events = 0
    dual_skips = primal_skips = violations = 0
    ds = make_dataset(100, 40, seed=55, density=0.3)
    # plant many short margins so plenty of exact zeros appear during the run
    spec = ProblemSpec(gamma=1.0, lam=3e-2 * lambda_max(ds))
    plan = build_uniform(ds.n, 1)
    params = schedule_thm5(ds, spec, plan)
    state = init_state(ds)
    rng = np.random.default_rng(56)
    gamma, lam, tau = spec.gamma, spec.lam, params.tau
    for _ in range(2500):
        w_bar0 = state.w_bar.copy()
        alpha0 = state.alpha.copy()
        w0 = state.w.copy()
        adaspdc_step(state, params, plan, ds, spec, 1, rng)
        i = int(state.last_draws[0])
        idx, vals = ds.row(i)
        s = float(np.dot(vals, w_bar0[idx]))
        kappa_i = abs(-alpha0[i] - float(smoothed_hinge_grad(s, ds.labels[i], gamma)))
        q = plan.p[i] * params.n_eff / params.sigma[i]
        path_events += 1
        if kappa_i == 0.0 and gamma - q != 0.0:
            dual_skips += 1
            if state.alpha[i] != alpha0[i]:
                violations += 1
        u = state.v_cache
        psi = np.abs(w0 - elastic_net_conj_grad(u / lam))
        tentative = soft_threshold(u + w0 / tau, lam) / (lam + 1.0 / tau)
        skip = (psi == 0.0) & (np.sign(tentative) == np.sign(w0))
        path_events += ds.d
        primal_skips += int(np.count_nonzero(skip))
        if not np.array_equal(state.w[skip], w0[skip]):
            violations += 1
    ok = (path_events >= 10**5 and violations == 0
          and dual_skips > 100 and primal_skips > 1000)
    report(5, ok, f"{path_events} events, {dual_skips} dual skips, "
                  f"{primal_skips} primal skips, {violations} violations")


def test_criterion_6_cross_solver_agreement(bench_file):
    t0 = time.perf_counter()
    ds = load_libsvm(bench_file, normalize=True)
    spec = ProblemSpec(gamma=1.0, lam=1e-3 * lambda_max(ds))
    p0 = primal_objective(np.zeros(ds.d), ds, spec)
    budget = Budget(gap_tol=1e-8 * p0, max_epochs=6000)
    plan = build_uniform(ds.n, 1)
    runs = {}
    runs["adaspdc"] = run_fixed(ds, spec, plan, schedule_thm5(ds, spec, plan), 1,
                                budget, np.random.default_rng(61), timing=False)
    runs["spdc"] = run_fixed(ds, spec, plan, schedule_vanilla(ds, spec, plan, "cor19"),
                             1, budget, np.random.default_rng(62), timing=False)
    runs["dspdc"] = run_fixed(ds, spec, plan, schedule_vanilla(ds, spec, plan, "cor19"),
                              1, budget, np.random.default_rng(63),
                              dspdc_cfg=DspdcConfig.build(ds.d, ds.d), timing=False)
    runs["ovsspdc"] = run_ovsspdc(ds, spec, 1, VariantConfig(), budget,
                                  np.random.default_rng(64), timing=False)
    runs["plus"] = run_ovsspdc_plus(ds, spec, 1, VariantConfig(), budget,
                                    np.random.default_rng(65), timing=False)
    runs["plusplus"] = run_ovsspdc_plusplus(ds, spec, 1, VariantConfig(), budget,
                                            np.random.default_rng(66), timing=False)
    elapsed = time.perf_counter() - t0
    objectives = {k: primal_objective(r.state.w, ds, spec) for k, r in runs.items()}
    ref = objectives["adaspdc"]
    agree = all(abs(v - ref) <= 1e-6 * abs(ref) for v in objectives.values())
    converged = all(r.converged for r in runs.values())
    ok = agree and converged and elapsed < 120.0
    detail = ", ".join(f"{k}={v:.9f}" for k, v in objectives.items())
    report(6, ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_7_violation_sampling_speedup(tmp_path):
    # at desk scale the capped-mixture branch (the regime where violation
    # weighting pays off) binds for mini-batches; both solvers run at a = 4
    a = 4
    data = tmp_path / "skewed.svm"
    synth(n=144, d=24, sparsity=0.35, dual_skew=0.92, seed=701, out_path=str(data))
    ds = load_libsvm(str(data), normalize=True)
    lmax = lambda_max(ds)
    results = {}
    for scale in (1e-3, 1e-4):
        spec = ProblemSpec(gamma=1.0, lam=scale * lmax)
        p0 = primal_objective(np.zeros(ds.d), ds, spec)
        budget = Budget(gap_tol=1e-6 * p0, max_epochs=6000)
        uni_epochs, ovs_epochs = [], []
        for seed in range(5):
            plan = build_uniform(ds.n, a)
            params = schedule_thm5(ds, spec, plan)
            base = run_fixed(ds, spec, plan, params, a, budget,
                             np.random.default_rng(100 + seed), timing=False)
            ovs = run_ovsspdc(ds, spec, a, VariantConfig(), budget,
                              np.random.default_rng(200 + seed), timing=False)
            assert base.converged and ovs.converged
            uni_epochs.append(base.trace[-1].epoch)
            ovs_epochs.append(ovs.trace[-1].epoch)
        results[scale] = (statistics.median(ovs_epochs), statistics.median(uni_epochs))
    # verify the dataset really is dual-sparse at the optimum
    spec = ProblemSpec(gamma=1.0, lam=1e-3 * lmax)
    probe = run_ovsspdc(ds, spec, a, VariantConfig(),
                        Budget(gap_tol=1e-10, max_epochs=6000),
                        np.random.default_rng(799), timing=False)
    zero_frac = np.mean(probe.state.alpha == 0.0)
    ok = zero_frac >= 0.7 and all(o <= u for o, u in results.values())
    detail = ", ".join(
        f"scale {s:g}: ovs {o:.0f} vs uniform {u:.0f} epochs"
        for s, (o, u) in results.items()
    )
    report(7, ok, f"{detail}; zero-dual fraction {zero_frac:.2f}")


def test_criterion_8_minibatch_scaling(tmp_path):
    data = tmp_path / "scaling.svm"
    n = 400
    synth(n=n, d=30, sparsity=0.3, dual_skew=0.0, seed=801, out_path=str(data))
    ds = load_libsvm(str(data), normalize=True)
    spec = ProblemSpec(gamma=1.0, lam=1.0 / n)  # lam * gamma * n = 1
    iters = {}
    for a in (1, 4, 16):
        plan = build_uniform(n, a)
        params = schedule_thm5(ds, spec, plan)
        res = run_fixed(ds, spec, plan, params, a, Budget(gap_tol=1e-6, max_epochs=4000),
                        np.random.default_rng(80 + a), timing=False)
        assert res.converged
        iters[a] = res.counters["iterations"]
    r14 = iters[1] / iters[4]
    r416 = iters[4] / iters[16]
    ok = 2.0 <= r14 <= 8.0 and 2.0 <= r416 <= 8.0
    report(8, ok, f"iterations {iters}, ratios {r14:.2f} and {r416:.2f} (ideal 4)")


def test_criterion_9_sampler_fidelity():
    rng = np.random.default_rng(1009)
    p = rng.dirichlet(np.ones(64))
    counts = np.bincount(alias_build(p).draw(np.random.default_rng(1011), 10**6),
                         minlength=64)
    pvalue = scipy.stats.chisquare(counts, f_exp=p * 10**6).pvalue
    raw_cases = mix_cases = 0
    bounds_ok = True
    for k in range(1000):
        n = int(rng.integers(4, 120))
        a = int(rng.integers(1, max(2, math.isqrt(n) + 1)))
        kappa = rng.exponential(size=n) * (rng.random(n) < 0.6)
        if not np.any(kappa):
            kappa[int(rng.integers(n))] = 1.0
        norms = rng.uniform(0.2, 3.0, size=n)
        cap = 1.0 / (a * math.sqrt(n))
        plan = build_ovs(kappa, norms, a, n)
        rho = kappa + kappa[kappa != 0.0].min()
        raw = rho * norms / np.sum(rho * norms)
        if raw.max() <= cap:
            raw_cases += 1
        else:
            mix_cases += 1
        if not (np.all(plan.p > 0.0) and np.all(plan.p <= cap)
                and abs(plan.p.sum() - 1.0) <= 1e-12):
            bounds_ok = False
    hand = build_ovs([0.0, 0.0, 0.001, 100.0], np.ones(4), 1, 4)
    hand_ok = hand.p.max() == 0.5 and abs(hand.p.sum() - 1.0) <= 1e-12
    ok = pvalue > 0.001 and bounds_ok and raw_cases > 50 and mix_cases > 50 and hand_ok
    report(9, ok, f"chi-square p={pvalue:.3f}, {raw_cases} raw / {mix_cases} mixture "
                  f"cases, hand mixture max {hand.p.max()!r}")


def test_criterion_10_trace_determinism(bench_file, tmp_path):
    blobs = []
    for name in ("d1.csv", "d2.csv"):
        trace = tmp_path / name
        rc = cli_main([
            "run", "--data", bench_file, "--normalize", "--algo", "ovsspdc",
            "--lambda-scale", "1e-2", "--gap-tol", "1e-8", "--max-epochs", "3000",
            "--seed", "42", "--trace", str(trace), "--no-timing",
        ])
        assert rc == 0
        blobs.append(trace.read_bytes())
    # with timing on, everything except the seconds column must still agree
    timed = []
    for name in ("t1.csv", "t2.csv"):
        trace = tmp_path / name
        rc = cli_main([
            "run", "--data", bench_file, "--normalize", "--algo", "adaspdc",
            "--lambda-scale", "1e-2", "--gap-tol", "1e-7", "--max-epochs", "2000",
            "--seed", "43", "--trace", str(trace),
        ])
        assert rc == 0
        rows = [ln.split(",") for ln in trace.read_text().splitlines()]
        timed.append([r[:2] + r[3:] for r in rows])
    ok = blobs[0] == blobs[1] and timed[0] == timed[1]
    report(10, ok, f"{len(blobs[0])} identical bytes; timed traces agree off the clock")
