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
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import core
from .datamat import _MAX_INDEX, lambda_max, load_libsvm
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
from .variants import (
    Budget,
    RunResult,
    run_fixed,
    run_ovs_exact,
    run_ovsspdc,
    run_ovsspdc_plus,
    run_ovsspdc_plusplus,
)

# each fixed-plan algorithm's (base, sqrt(n)-boosted, large-batch) step rules
RULES = {"spdc": ("cor18", "cor19", "cor18"), "adaspdc": ("thm4", "thm5", "thm15"),
         "dspdc": ("cor18", "cor19", "cor18")}
# the violation-driven algorithms, which pick their own plans and step sizes
VARIANTS = ("ovsspdc", "ovs-exact", "ovsspdc-plus", "ovsspdc-plusplus")
ALGOS = (*RULES, *VARIANTS)
PROBS = ("uniform", "cor16", "cor17", "ovs")
SCHEDULES = ("thm4", "thm5", "thm15", "cor18", "cor19", "auto")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEDULE = 3
EXIT_NUMERICAL = 4

# each failure class the CLI reports: its stderr prefix and exit code; a
# dataset too wide to hold in memory is a data error
FAILURES = {
    **dict.fromkeys((ConfigError, DataError, MemoryError), ("error", EXIT_CONFIG)),
    **dict.fromkeys((ScheduleError, ConditionNotMetError),
                    ("schedule precondition failed", EXIT_SCHEDULE)),
    NumericalFailure: ("numerical failure", EXIT_NUMERICAL),
}


@dataclass
class RunConfig:
    """One benchmark run.  ``lambda_scale`` sets ``lam = lambda_scale * lam_max``;
    ``dspdc_b`` is dspdc's primal block size, None for d."""

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
        if math.isnan(self.gap_tol):
            raise ConfigError("gap-tol must be a number, got nan")
        if not math.isfinite(self.max_epochs):
            raise ConfigError(f"max-epochs must be finite, got {self.max_epochs}")
        if self.max_epochs < 0:
            raise ConfigError(f"max-epochs must be >= 0, got {self.max_epochs}")
        accepted = dict.fromkeys(("auto", *RULES.get(self.algo, ())))
        if self.schedule not in accepted:
            raise ConfigError(f"algo {self.algo!r} takes schedule {' or '.join(accepted)}, "
                              f"not {self.schedule!r}")
        if self.algo in VARIANTS:
            if self.prob == "uniform":
                self.prob = "ovs"  # violation-driven algos own their sampling
            elif self.prob != "ovs":
                raise ConfigError(f"algo {self.algo!r} does not take prob={self.prob!r}")
        elif self.prob == "ovs":
            raise ConfigError("prob=ovs requires algo=ovsspdc")
        if self.algo == "ovs-exact" and self.a != 1:
            raise ConfigError("algo=ovs-exact requires a=1")
        if self.prob in ("cor16", "cor17") and self.a != 1:
            raise ConfigError(f"prob={self.prob} requires a=1")

    def check_sizes(self, n: int, d: int) -> None:
        """Bounds that depend on the dataset's instance and feature counts."""
        if self.a > n:
            raise ConfigError(f"a={self.a} exceeds the instance count n={n}")
        if self.dspdc_b is not None and self.algo != "dspdc":
            raise ConfigError("dspdc-b applies only to algo=dspdc")
        if self.dspdc_b is not None and not 1 <= self.dspdc_b <= d:
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
    lam = cfg.lambda_scale * lmax
    if lam == 0.0:
        raise ConfigError(f"lambda-scale={cfg.lambda_scale} times lambda_max={lmax} "
                          f"underflows to 0")
    return (lmax, ProblemSpec(gamma=cfg.gamma, lam=lam),
            Budget(gap_tol=cfg.gap_tol, max_epochs=cfg.max_epochs),
            np.random.default_rng(cfg.seed))


def _pick_schedule(cfg: RunConfig, ds) -> str:
    """The step rule of a fixed-plan run; schedule=auto resolves to the
    large-batch rule for a > sqrt(n) (the plan is uniform there, as cor16 and
    cor17 need a=1), else the boosted or, for cor16, base rule."""
    if cfg.schedule != "auto":
        return cfg.schedule
    base, boosted, large = RULES[cfg.algo]
    if cfg.a * cfg.a > ds.n:
        return large
    return base if cfg.prob == "cor16" else boosted


def _dispatch(cfg: RunConfig, ds, spec: ProblemSpec, budget: Budget,
              rng: np.random.Generator) -> tuple[RunResult, dict]:
    extra: dict = {}
    if cfg.algo == "ovs-exact":
        return run_ovs_exact(ds, spec, budget, rng), extra
    if cfg.algo in VARIANTS:
        runner = {"ovsspdc": run_ovsspdc, "ovsspdc-plus": run_ovsspdc_plus,
                  "ovsspdc-plusplus": run_ovsspdc_plusplus}[cfg.algo]
        return runner(ds, spec, cfg.a, budget, rng), extra
    schedule = _pick_schedule(cfg, ds)
    plan = (build_uniform(ds.n, cfg.a) if cfg.prob == "uniform"
            else build_data_driven(ds, spec, cfg.a, cfg.prob))
    if schedule in ("cor18", "cor19"):
        params = core.schedule_vanilla(ds, spec, plan, schedule)
    else:
        params = {"thm4": core.schedule_thm4, "thm5": core.schedule_thm5,
                  "thm15": core.schedule_thm15}[schedule](ds, spec, plan)
    if cfg.algo == "dspdc":  # spdc's run, checked by thm20 for its one primal block
        b = cfg.dspdc_b
        # floor(d/b) >= 2 blocks: thm20 fails every partition the rules here give
        if b is not None and 2 * b <= ds.d:
            raise ScheduleError(f"dspdc parameter check failed at block count: "
                                f"dspdc-b={b} splits d={ds.d} into {ds.d // b} blocks; "
                                f"only one block (b > d/2) is supported")
        ok, failing, margins = core.verify_thm20(params, ds, spec)
        if not ok:
            raise ScheduleError(f"dspdc parameter check failed at {failing}")
        # the run keeps these params, so the verdict is the run's
        extra["thm20"] = {"ok": bool(ok), "failing": failing, "margins": margins}
    return run_fixed(ds, spec, params, budget, rng), extra


def _condition_report(result: RunResult, ds, spec, cfg: RunConfig, extra: dict) -> dict:
    """The summary's ``conditions``: Lemmas 3 and 14 and dspdc's thm20 from ``extra``.
    ``spec`` and ``cfg`` are unread; they stay for the benchmark's five-argument call."""
    if result.params is None:
        return {}
    ok3, margin3 = core.verify_lemma3(result.params, ds)
    ok14 = core.verify_lemma14(result.params, ds)
    return {"lemma3": {"ok": bool(ok3), "worst_margin": margin3},
            "lemma14": {"ok": bool(ok14)}, **extra}


def run(cfg: RunConfig) -> int:
    """Execute one configuration; writes trace/summary files when paths are set."""
    cfg.validate()
    try:
        ds = load_libsvm(cfg.data, normalize=cfg.normalize)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    lmax, spec, budget, rng = _problem(cfg, ds)
    t0 = time.perf_counter()
    result, extra = _dispatch(cfg, ds, spec, budget, rng)
    wall = time.perf_counter() - t0 if cfg.timing else 0.0
    last = result.trace[-1]
    summary = {
        "config": asdict(cfg),
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
        # every counter but the committed gaps, which stay with the RunResult
        "counters": {k: v for k, v in result.counters.items() if k != "committed_gaps"},
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
            write_trace_csv(result.trace if cfg.timing else
                            [replace(r, seconds=0.0) for r in result.trace], cfg.trace)
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
        try:
            cfg.validate()
            if cfg.normalize not in loaded:
                try:
                    loaded[cfg.normalize] = load_libsvm(data, normalize=cfg.normalize)
                except (*FAILURES, OSError) as exc:
                    loaded[cfg.normalize] = exc
            ds = loaded[cfg.normalize]
            if isinstance(ds, Exception):
                raise ds
            _, spec, budget, rng = _problem(cfg, ds)
            result, _ = _dispatch(cfg, ds, spec, budget, rng)
            last = result.trace[-1]
            outcome = dict(
                status="converged" if result.converged else "budget",
                epochs_to_tol=last.epoch if result.converged else "",
                final_gap=last.gap,
                iterations=result.counters.get("iterations", 0),
            )
        except (*FAILURES, OSError) as exc:
            outcome = dict(status=f"error: {exc}", epochs_to_tol="", final_gap="",
                           iterations="")
        # after validate, which gives the violation-driven algos prob=ovs
        rows.append({"algo": cfg.algo, "prob": cfg.prob, "lambda_scale": cfg.lambda_scale,
                     "a": cfg.a, "seed": cfg.seed, **outcome})
    if out_path:
        with _writing(out_path), open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
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
    skew is one scale per row, so loading with ``normalize=True`` undoes it.
    The output is deterministic in the seed.
    """
    if n < 1 or not 1 <= d <= _MAX_INDEX:
        raise ConfigError(f"n must be >= 1 and d must lie in [1, {_MAX_INDEX}]")
    if not 0.0 <= sparsity <= 1.0:
        raise ConfigError(f"sparsity must lie in [0, 1], got {sparsity}")
    if not 0.0 <= dual_skew <= 1.0:
        raise ConfigError("dual-skew must lie in [0, 1]")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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
    """The flags ``run`` and ``sweep`` share; each names a RunConfig field and
    one left out keeps that field's default."""
    p.add_argument("--data", required=True, help="LIBSVM dataset path")
    p.add_argument("--normalize", action="store_true", help="scale rows to unit norm")
    p.add_argument("--gamma", type=float, help="loss smoothing width")
    p.add_argument("--gap-tol", type=float, help="absolute duality-gap tolerance")
    p.add_argument("--max-epochs", type=float, help="epoch-equivalent budget")
    p.add_argument("--no-timing", action="store_false", dest="timing",
                   help="record zero wall seconds so traces are byte-reproducible")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spdc-bench",
                                     description="Primal-dual coordinate solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one configuration",
                           argument_default=argparse.SUPPRESS)
    _add_run_flags(p_run)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--algo", help=f"one of {ALGOS}")
    p_run.add_argument("--prob", help=f"one of {PROBS}")
    p_run.add_argument("--schedule", help=f"one of {SCHEDULES}")
    p_run.add_argument("-a", "--a", type=int, help="mini-batch size")
    p_run.add_argument("--lambda-scale", type=float,
                       help="lambda as a multiple of lambda_max")
    p_run.add_argument("--trace", help="trace CSV output path")
    p_run.add_argument("--summary", help="summary JSON output path")
    p_run.add_argument("--dspdc-b", type=int,
                       help="dspdc primal block size, in (d/2, d]; default d")

    # no abbreviations, or --seed would be read as --seeds
    p_sweep = sub.add_parser("sweep", help="grid of runs over one dataset",
                             argument_default=argparse.SUPPRESS, allow_abbrev=False)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--algos", help="comma-separated algo list")
    p_sweep.add_argument("--probs", help="comma-separated prob list")
    p_sweep.add_argument("--lambda-scales", help="comma-separated lambda scales")
    p_sweep.add_argument("--batches", help="comma-separated batch sizes")
    p_sweep.add_argument("--seeds", help="comma-separated seeds")
    p_sweep.add_argument("--out", required=True, help="comparison table CSV path")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--sparsity", type=float, default=0.3,
                         help="fraction of nonzero features per instance")
    p_synth.add_argument("--dual-skew", type=float, default=0.0,
                         help="fraction of instances far outside the margin; "
                              "--normalize undoes it, as it rescales every row")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output LIBSVM path")
    return parser


def _config_from_args(args) -> RunConfig:
    """The RunConfig of the given flags; a flag left out keeps its default."""
    names = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in vars(args).items() if k in names})


def _split_flag(args, flag: str, default, kind) -> list:
    """The values of one sweep list flag, each converted by ``kind``, or ``[default]``."""
    text = getattr(args, flag.replace("-", "_"), None)
    if text is None:
        return [default]
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
            base = _config_from_args(args)
            # each list flag, the RunConfig field it sweeps and its value type
            grid = {name: _split_flag(args, flag, getattr(base, name), kind)
                    for flag, name, kind in (
                        ("algos", "algo", str.strip), ("probs", "prob", str.strip),
                        ("lambda-scales", "lambda_scale", float), ("batches", "a", int),
                        ("seeds", "seed", int))}
            configs = [replace(base, **dict(zip(grid, values)))
                       for values in itertools.product(*grid.values())]
            rows = sweep(configs, args.out)
            print(f"wrote {len(rows)} rows to {args.out}")
            return EXIT_OK
        # argparse admits no command but run, sweep and synth
        synth(args.n, args.d, args.sparsity, args.dual_skew, args.seed, args.out)
        print(f"wrote {args.out}")
        return EXIT_OK
    except tuple(FAILURES) as exc:
        prefix, code = next(v for kind, v in FAILURES.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
