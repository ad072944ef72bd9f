"""Benchmark command-line interface: single runs, sweeps, and synthetic data.

``spdc-bench run`` solves one configuration and writes a trace CSV (one row
per epoch-equivalent checkpoint, header ``checkpoint,epoch,seconds,primal,
dual,gap,nnz_w,zero_kappa``) plus a summary JSON.  ``sweep`` runs a grid of
algorithm x lambda-scale x batch combinations over a shared dataset and
tabulates epochs-to-tolerance.  ``synth`` emits a synthetic LIBSVM file with
a controllable fraction of easily classified instances.

Exit codes: 0 success, 2 configuration error, 3 schedule-precondition
failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import core
from .datamat import lambda_max, load_libsvm
from .errors import (
    ConditionNotMetError,
    ConfigError,
    DataError,
    NumericalFailure,
    ScheduleError,
)
from .objective import ProblemSpec
from .sampling import build_data_driven, build_uniform
from .trace import write_trace_csv
# _dispatch looks the run_* names up in this module's globals when it calls one
from .variants import (
    Budget,
    RunResult,
    VariantConfig,
    run_fixed,
    run_ovs_exact,
    run_ovsspdc,
    run_ovsspdc_plus,
    run_ovsspdc_plusplus,
)

ALGOS = ("spdc", "adaspdc", "dspdc", "ovsspdc", "ovs-exact", "ovsspdc-plus",
         "ovsspdc-plusplus")
# the violation-driven algorithms, which pick their own plans and step sizes
VARIANTS = ("ovsspdc", "ovs-exact", "ovsspdc-plus", "ovsspdc-plusplus")
PROBS = ("uniform", "cor16", "cor17", "ovs")
SCHEDULES = ("thm4", "thm5", "thm15", "cor18", "cor19", "auto")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEDULE = 3
EXIT_NUMERICAL = 4


@dataclass
class RunConfig:
    """One benchmark run.  ``lambda_scale`` sets ``lam = lambda_scale * lam_max``."""

    data: str
    normalize: bool = False
    algo: str = "adaspdc"
    prob: str = "uniform"
    schedule: str = "auto"
    a: int = 1
    lambda_scale: float = 1e-3
    gamma: float = 1.0
    gap_tol: float = 1e-8
    max_epochs: float = 100.0
    seed: int = 0
    trace: str | None = None
    summary: str | None = None
    dspdc_b: int | None = None
    dspdc_q: str = "uniform"
    refresh_every: int | None = None
    gap_check_every: int | None = None
    timing: bool = True

    def validate(self) -> None:
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}; choose from {ALGOS}")
        if self.prob not in PROBS:
            raise ConfigError(f"unknown prob {self.prob!r}; choose from {PROBS}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}; choose from {SCHEDULES}")
        if self.a < 1:
            raise ConfigError(f"a must be >= 1, got {self.a}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lambda_scale) and self.lambda_scale > 0):
            raise ConfigError(f"lambda-scale must be positive and finite, got {self.lambda_scale}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        for name, every in (("refresh-every", self.refresh_every),
                            ("gap-check-every", self.gap_check_every)):
            if every is not None and every < 1:
                raise ConfigError(f"{name} must be >= 1, got {every}")
        if self.algo in VARIANTS:
            if self.schedule != "auto":
                raise ConfigError(
                    f"algo {self.algo!r} manages its own step sizes; use schedule=auto"
                )
            if self.prob == "uniform":
                self.prob = "ovs"  # violation-driven algos own their sampling
            elif self.prob != "ovs":
                raise ConfigError(f"algo {self.algo!r} does not take prob={self.prob!r}")
        else:
            if self.prob == "ovs":
                raise ConfigError("prob=ovs requires algo=ovsspdc")
        if self.algo in ("spdc", "dspdc") and self.schedule in ("thm4", "thm5", "thm15"):
            raise ConfigError(
                f"schedule {self.schedule!r} has per-instance dual steps; "
                f"algo {self.algo!r} needs cor18/cor19/auto"
            )
        if self.algo == "adaspdc" and self.schedule in ("cor18", "cor19"):
            raise ConfigError(
                f"schedule {self.schedule!r} is a shared-sigma rule; use algo=spdc"
            )
        if self.algo == "dspdc" and self.dspdc_b is None:
            raise ConfigError("algo=dspdc requires --dspdc-b")
        if self.algo == "ovs-exact" and self.a != 1:
            raise ConfigError("algo=ovs-exact requires a=1")
        if self.prob in ("cor16", "cor17") and self.a != 1:
            raise ConfigError(f"prob={self.prob} requires a=1")

    def check_sizes(self, n: int, d: int) -> None:
        """Bounds that depend on the dataset's instance and feature counts."""
        if self.a > n:
            raise ConfigError(f"a={self.a} exceeds the instance count n={n}")
        if self.algo == "dspdc" and not 1 <= self.dspdc_b <= d:
            raise ConfigError(f"dspdc-b={self.dspdc_b} must lie in [1, d={d}]")


@contextlib.contextmanager
def _writing(path: str):
    """Report a failure to write ``path`` as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _problem(cfg: RunConfig, ds):
    """Check ``cfg`` against ``ds``; (lambda_max, spec, budget, generator) of its run."""
    cfg.check_sizes(ds.n, ds.d)
    lmax = lambda_max(ds)
    if lmax == 0.0:
        raise ConfigError("lambda_max is zero; the label/feature correlation vanishes")
    return (lmax, ProblemSpec(gamma=cfg.gamma, lam=cfg.lambda_scale * lmax),
            Budget(gap_tol=cfg.gap_tol, max_epochs=cfg.max_epochs),
            np.random.default_rng(cfg.seed))


def _build_plan(cfg: RunConfig, ds, spec):
    if cfg.prob == "uniform":
        return build_uniform(ds.n, cfg.a)
    return build_data_driven(ds, spec, cfg.a, cfg.prob)


def _pick_schedule(cfg: RunConfig, ds) -> str:
    """Resolve schedule=auto; non-uniform plans with a > sqrt(n) are rejected."""
    if cfg.schedule != "auto":
        return cfg.schedule
    # the algorithm's base, sqrt(n)-boosted and large-batch rules
    base, boosted, large = (("thm4", "thm5", "thm15") if cfg.algo == "adaspdc"
                            else ("cor18", "cor19", "cor18"))
    if cfg.a * cfg.a <= ds.n:
        return base if cfg.prob == "cor16" else boosted
    if cfg.prob != "uniform":
        raise ScheduleError(
            f"a={cfg.a} > sqrt(n) admits only uniform sampling (schedule {large})"
        )
    return large


def _dispatch(cfg: RunConfig, ds, spec: ProblemSpec, budget: Budget,
              rng: np.random.Generator) -> tuple[RunResult, dict]:
    vcfg = VariantConfig(refresh_every=cfg.refresh_every,
                         gap_check_every=cfg.gap_check_every)
    extra: dict = {}
    if cfg.algo == "ovs-exact":
        return run_ovs_exact(ds, spec, vcfg, budget, rng, timing=cfg.timing), extra
    if cfg.algo in VARIANTS:
        # run_ovsspdc, run_ovsspdc_plus or run_ovsspdc_plusplus, read from
        # the module's globals when called (the benchmark patches them)
        runner = globals()["run_" + cfg.algo.replace("-", "_")]
        return runner(ds, spec, cfg.a, vcfg, budget, rng, timing=cfg.timing), extra
    plan = _build_plan(cfg, ds, spec)
    schedule = _pick_schedule(cfg, ds)
    if schedule == "thm4":
        params = core.schedule_thm4(ds, spec, plan)
    elif schedule == "thm5":
        params = core.schedule_thm5(ds, spec, plan)
    elif schedule == "thm15":
        params = core.schedule_thm15(ds, spec, cfg.a)
    else:
        params = core.schedule_vanilla(ds, spec, plan, schedule)
    dcfg = None
    if cfg.algo == "dspdc":
        try:
            q = None
            if cfg.dspdc_q != "uniform":
                q = np.array([float(t) for t in cfg.dspdc_q.split(",")])
            dcfg = core.DspdcConfig.build(ds.d, cfg.dspdc_b, q)
        except ValueError as exc:
            raise ConfigError(f"dspdc-q={cfg.dspdc_q!r}: {exc}") from None
        ok, failing, _ = core.verify_thm20(params, plan, dcfg, ds, spec, cfg.a)
        if not ok:
            raise ScheduleError(f"dspdc parameter check failed at {failing}")
    result = run_fixed(ds, spec, plan, params, cfg.a, budget, rng, dspdc_cfg=dcfg,
                       timing=cfg.timing)
    extra["dspdc_cfg"] = dcfg
    return result, extra


def _condition_report(result: RunResult, ds, spec, cfg: RunConfig, extra: dict) -> dict:
    if result.params is None or result.plan is None:
        return {}
    ok3, margin3 = core.verify_lemma3(result.params, result.plan, ds, cfg.a)
    ok14 = core.verify_lemma14(result.params, result.plan, ds, cfg.a)
    report = {
        "lemma3": {"ok": bool(ok3), "worst_margin": margin3},
        "lemma14": {"ok": bool(ok14)},
    }
    dcfg = extra.get("dspdc_cfg")
    if dcfg is not None:
        ok20, failing, margins = core.verify_thm20(result.params, result.plan, dcfg,
                                                   ds, spec, cfg.a)
        report["thm20"] = {"ok": bool(ok20), "failing": failing, "margins": margins}
    return report


def run(cfg: RunConfig) -> int:
    """Execute one configuration; writes trace/summary files when paths are set."""
    cfg.validate()
    try:
        ds = load_libsvm(cfg.data, normalize=cfg.normalize)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    lmax, spec, budget, rng = _problem(cfg, ds)
    t0 = time.perf_counter()
    result, extra = _dispatch(cfg, ds, spec, budget, rng)
    wall = time.perf_counter() - t0 if cfg.timing else 0.0
    last = result.trace[-1]
    summary = {
        "config": {k: v for k, v in asdict(cfg).items()},
        "n": ds.n,
        "d": ds.d,
        "lambda_max": lmax,
        "lambda": spec.lam,
        "converged": bool(result.converged),
        "final_gap": last.gap,
        "final_primal": last.primal,
        "final_dual": last.dual,
        "epochs": last.epoch,
        "iterations": result.counters.get("iterations", 0),
        "wall_seconds": wall,
        "schedule_params": None,
        "conditions": _condition_report(result, ds, spec, cfg, extra),
        # the scalar counters; logs of draws and gaps stay with the RunResult
        "counters": {k: v for k, v in result.counters.items()
                     if isinstance(v, (bool, int, float))},
    }
    if result.params is not None:
        summary["schedule_params"] = {
            "schedule": result.params.schedule,
            "tau": result.params.tau,
            "sigma_min": float(np.min(result.params.sigma)),
            "sigma_max": float(np.max(result.params.sigma)),
            "theta": result.params.theta,
        }
    if cfg.trace:
        with _writing(cfg.trace):
            write_trace_csv(result.trace, cfg.trace)
    if cfg.summary:
        with _writing(cfg.summary), open(cfg.summary, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        f"{cfg.algo}: gap={last.gap:.3e} epochs={last.epoch:.1f} "
        f"{'converged' if result.converged else 'budget exhausted'}"
    )
    return EXIT_OK


def sweep(configs: list[RunConfig], out_path: str | None = None) -> list[dict]:
    """Run a grid of configurations over a shared dataset.

    The dataset is parsed once per ``normalize`` value; a parse failure is
    recorded in the row of every configuration that reads it.  Child
    failures are reported and do not abort the remaining runs.  Returns (and
    optionally writes as CSV) one row per configuration with
    epochs-to-tolerance and the final gap.
    """
    if not configs:
        raise ConfigError("sweep needs at least one configuration")
    data = configs[0].data
    for c in configs:
        if c.data != data:
            raise ConfigError("sweep configurations must share one dataset")
    loaded: dict[bool, object] = {}  # normalize -> dataset or the load error
    rows = []
    for cfg in configs:
        row = {
            "algo": cfg.algo,
            "prob": cfg.prob,
            "lambda_scale": cfg.lambda_scale,
            "a": cfg.a,
            "seed": cfg.seed,
        }
        try:
            cfg.validate()
            if cfg.normalize not in loaded:
                try:
                    loaded[cfg.normalize] = load_libsvm(data, normalize=cfg.normalize)
                except (DataError, OSError) as exc:
                    loaded[cfg.normalize] = exc
            ds = loaded[cfg.normalize]
            if isinstance(ds, Exception):
                raise ds
            _, spec, budget, rng = _problem(cfg, ds)
            result, _ = _dispatch(cfg, ds, spec, budget, rng)
            last = result.trace[-1]
            row.update(
                status="converged" if result.converged else "budget",
                epochs_to_tol=last.epoch if result.converged else "",
                final_gap=last.gap,
                iterations=result.counters.get("iterations", 0),
            )
        except (ConfigError, DataError, ScheduleError, ConditionNotMetError,
                NumericalFailure, OSError) as exc:
            row.update(status=f"error: {exc}", epochs_to_tol="", final_gap="",
                       iterations="")
        rows.append(row)
    if out_path:
        fields = ["algo", "prob", "lambda_scale", "a", "seed", "status",
                  "epochs_to_tol", "final_gap", "iterations"]
        with _writing(out_path), open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    return rows


def synth(n: int, d: int, sparsity: float, dual_skew: float, seed: int,
          out_path: str) -> None:
    """Write a synthetic classification dataset in LIBSVM format.

    Instances are sparse rows with roughly ``sparsity * d`` nonzeros, labeled
    by a hidden sparse direction.  A ``dual_skew`` fraction of instances is
    scaled to sit far outside the margin (their duals vanish at the optimum);
    the rest sit inside it.  ``dual_skew=0`` gives balanced margins.  The
    output is deterministic in the seed.
    """
    if n < 1 or d < 1:
        raise ConfigError("n and d must be >= 1")
    if not 0.0 <= dual_skew <= 1.0:
        raise ConfigError("dual-skew must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    k_dir = max(1, int(round(0.3 * d)))
    dir_support = rng.choice(d, size=k_dir, replace=False)
    w_dir = np.zeros(d)
    w_dir[dir_support] = rng.normal(size=k_dir)
    w_dir /= np.linalg.norm(w_dir)
    nnz_row = max(1, int(round(sparsity * d)))
    lines = []
    for i in range(n):
        while True:
            support = np.sort(rng.choice(d, size=nnz_row, replace=False))
            if i == n - 1 and d - 1 not in support:
                # pin the last feature so the file width round-trips
                support[-1] = d - 1
            vals = rng.normal(size=nnz_row)
            s = float(vals @ w_dir[support])
            if abs(s) > 1e-6:
                break
        y = 1.0 if s > 0 else -1.0
        easy = rng.random() < dual_skew
        # easy instances sit far outside the margin; hard ones sit inside it,
        # clustered so their duals converge at comparable speeds
        margin = rng.uniform(1.8, 3.0) if easy else rng.uniform(0.4, 0.6)
        vals *= margin / abs(s)
        feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(support, vals))
        lines.append(f"{int(y):+d} {feats}")
    with _writing(out_path), open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="LIBSVM dataset path")
    p.add_argument("--normalize", action="store_true", help="scale rows to unit norm")
    p.add_argument("--gamma", type=float, default=1.0, help="loss smoothing width")
    p.add_argument("--gap-tol", type=float, default=1e-8, help="absolute duality-gap tolerance")
    p.add_argument("--max-epochs", type=float, default=100.0, help="epoch-equivalent budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-timing", action="store_true",
                   help="record zero wall seconds so traces are byte-reproducible")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spdc-bench",
                                     description="Primal-dual coordinate solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one configuration")
    _add_run_flags(p_run)
    p_run.add_argument("--algo", default="adaspdc", help=f"one of {ALGOS}")
    p_run.add_argument("--prob", default="uniform", help=f"one of {PROBS}")
    p_run.add_argument("--schedule", default="auto", help=f"one of {SCHEDULES}")
    p_run.add_argument("-a", "--a", type=int, default=1, dest="a", help="mini-batch size")
    p_run.add_argument("--lambda-scale", type=float, default=1e-3,
                       help="lambda as a multiple of lambda_max")
    p_run.add_argument("--trace", default=None, help="trace CSV output path")
    p_run.add_argument("--summary", default=None, help="summary JSON output path")
    p_run.add_argument("--dspdc-b", type=int, default=None, help="primal block size")
    p_run.add_argument("--dspdc-q", default="uniform",
                       help="block probabilities: 'uniform' or comma-separated")
    p_run.add_argument("--refresh-every", type=int, default=None,
                       help="iterations between violation refreshes")
    p_run.add_argument("--gap-check-every", type=int, default=None,
                       help="inner-loop acceptance-check period")

    p_sweep = sub.add_parser("sweep", help="grid of runs over one dataset")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--algos", default="adaspdc", help="comma-separated algo list")
    p_sweep.add_argument("--probs", default="uniform", help="comma-separated prob list")
    p_sweep.add_argument("--lambda-scales", default="1e-3",
                         help="comma-separated lambda scales")
    p_sweep.add_argument("--batches", default="1", help="comma-separated batch sizes")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_sweep.add_argument("--out", required=True, help="comparison table CSV path")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--sparsity", type=float, default=0.3,
                         help="fraction of nonzero features per instance")
    p_synth.add_argument("--dual-skew", type=float, default=0.0,
                         help="fraction of instances far outside the margin")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output LIBSVM path")
    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        data=args.data,
        normalize=args.normalize,
        algo=args.algo,
        prob=args.prob,
        schedule=args.schedule,
        a=args.a,
        lambda_scale=args.lambda_scale,
        gamma=args.gamma,
        gap_tol=args.gap_tol,
        max_epochs=args.max_epochs,
        seed=args.seed,
        trace=args.trace,
        summary=args.summary,
        dspdc_b=args.dspdc_b,
        dspdc_q=args.dspdc_q,
        refresh_every=args.refresh_every,
        gap_check_every=args.gap_check_every,
        timing=not args.no_timing,
    )


def _split_flag(flag: str, text: str, kind) -> list:
    """Comma-separated values of one sweep flag, each converted by ``kind``."""
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"--{flag} takes comma-separated {kind.__name__} values, "
                          f"got {text!r}") from None


def main(argv=None) -> int:
    """Run the command that ``argv`` names and return its exit code."""
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage or help text
        return exc.code
    try:
        if args.command == "run":
            return run(_config_from_args(args))
        if args.command == "sweep":
            scales = _split_flag("lambda-scales", args.lambda_scales, float)
            batches = _split_flag("batches", args.batches, int)
            seeds = _split_flag("seeds", args.seeds, int)
            configs = []
            for algo in args.algos.split(","):
                for prob in args.probs.split(","):
                    for scale in scales:
                        for a in batches:
                            for seed in seeds:
                                configs.append(RunConfig(
                                    data=args.data,
                                    normalize=args.normalize,
                                    algo=algo.strip(),
                                    prob=prob.strip(),
                                    a=a,
                                    lambda_scale=scale,
                                    gamma=args.gamma,
                                    gap_tol=args.gap_tol,
                                    max_epochs=args.max_epochs,
                                    seed=seed,
                                    timing=not args.no_timing,
                                ))
            rows = sweep(configs, args.out)
            print(f"wrote {len(rows)} rows to {args.out}")
            return EXIT_OK
        if args.command == "synth":
            synth(args.n, args.d, args.sparsity, args.dual_skew, args.seed, args.out)
            print(f"wrote {args.out}")
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScheduleError, ConditionNotMetError) as exc:
        print(f"schedule precondition failed: {exc}", file=sys.stderr)
        return EXIT_SCHEDULE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
