"""Solver benchmark: seconds and epochs to a certified duality gap.

Run from the root of a checkout:

    python3 perfbench/run.py --workload highd-sparse --seed 1 --seconds 55 --trace 0

The workload's dataset is generated from ``--seed`` with ``spdc.cli.synth``
(outside the timed region), the solver paths are warmed up on a small copy of
the workload, and then passes over every solve of the workload run until
``--seconds`` is spent: a pass is started only when the previous one
suggests it ends in time, and at least one always runs.  Each pass sets up
and solves every configured solve to its gap tolerance and certifies the
result independently.

``--trace 0`` reports the end-to-end metrics as medians over passes.  Their
times are process CPU seconds at the speed of a fixed reference kernel run
around every solve (see ``reference.py``), so that the drift of a shared
machine's speed cancels; the plain CPU and wall-clock medians and the
kernel's own times are printed beside them.
``peak_rss_rise_mb`` is how far the first pass raised the process's peak
resident memory above its resident memory just before it, so that the
interpreter and its imports do not hide the program's own memory.
``--trace 1`` alternates untraced and traced passes (at least one of each):
the traced passes wrap the ``spdc`` layer functions and give the per-layer
metrics, the untraced ones give the base for the tracing overhead, and
traced and untraced solves must agree bit for bit.

Human-readable lines and a result file under ``perfbench/results/`` carry
medians, quartiles, sample counts, the failed fraction and provenance; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from the
checkout's ``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, fixed before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import ReferenceKernel, at_reference_speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "work"
RESULTS_DIR = HERE / "results"

END_TO_END = (
    ("time_to_tol_s", "s"),
    ("epochs_to_tol", "epochs"),
    ("epoch_s", "s/epoch"),
    ("setup_s", "s"),
    ("peak_rss_rise_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program() -> bool:
    """Import ``spdc`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "spdc" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import spdc

    return Path(spdc.__file__).resolve().parent == SRC / "spdc"


@dataclasses.dataclass
class _Pass:
    traced: bool
    wall_s: float
    outcomes: list
    tracer: object = None
    layers: dict | None = None
    layer_details: dict | None = None

    def total(self, field: str, scaled: bool = False) -> float:
        """Sum of an outcome field over the pass's solves; ``scaled`` puts
        CPU seconds at the reference kernel's nominal speed."""
        return sum(at_reference_speed(getattr(o, field), o.reference_s) if scaled
                   else getattr(o, field) for o in self.outcomes)

    @property
    def time_to_tol_s(self) -> float:
        return self.total("run_s", scaled=True)

    @property
    def epochs_to_tol(self) -> float:
        return self.total("epochs")

    @property
    def setup_s(self) -> float:
        return self.total("setup_s", scaled=True)


def _result_signature(p: _Pass):
    """What must not differ between passes at one seed."""
    return [(o.label, o.epochs, o.iterations, o.primal, o.dual, o.failure is None)
            for o in p.outcomes]


def _rss_mb() -> float:
    """Resident memory of this process now (Linux), in MB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure(wl, data_path, seed, seconds, trace, kernel):
    from layers import traced_layers
    from spans import Tracer
    from workloads import run_pass

    passes: list[_Pass] = []
    last_wall = {}
    gc.collect()
    rss_before = _rss_mb()
    rss_rise = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer = Tracer()
            with traced_layers(tracer):
                outcomes = run_pass(wl, data_path, seed, kernel, tracer)
        else:
            tracer = None
            outcomes = run_pass(wl, data_path, seed, kernel)
        wall = time.perf_counter() - t0
        passes.append(_Pass(traced, wall, outcomes, tracer))
        # the first pass alone, so that the figure does not depend on how
        # many passes fit in the run
        if rss_rise is None:
            rss_rise = _peak_rss_mb() - rss_before
        last_wall[traced] = wall
        kinds = {p.traced for p in passes}
        if trace and kinds != {False, True}:
            continue
        next_traced = bool(trace) and len(passes) % 2 == 1
        if time.perf_counter() + last_wall.get(next_traced, wall) > deadline:
            return passes, rss_rise


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        print(f"error: no spdc package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    import provenance
    from layers import LAYER_METRICS, layer_metrics
    from summary import describe
    from workloads import WORKLOADS, make_data, run_pass, warmup_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    data_path = WORK_DIR / f"{stem}-{os.getpid()}.svm"
    warm_path = WORK_DIR / f"{stem}-{os.getpid()}-warmup.svm"
    try:
        make_data(wl, args.seed, data_path)
        kernel = ReferenceKernel()
        warm = warmup_workload(wl)
        make_data(warm, args.seed, warm_path)
        run_pass(warm, warm_path, args.seed, kernel)
        passes, rss_rise = _measure(wl, data_path, args.seed, args.seconds, args.trace,
                                    kernel)
        from spdc.datamat import load_libsvm

        dataset = provenance.dataset(data_path, load_libsvm(data_path, normalize=True))
    finally:
        for path in (data_path, warm_path):
            path.unlink(missing_ok=True)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(o.failure is not None for o in outcomes)
    reference = _result_signature(passes[0])
    consistent = all(_result_signature(p) == reference for p in passes)
    correct = failed == 0 and consistent

    e2e = {
        "time_to_tol_s": describe(p.time_to_tol_s for p in plain),
        "epochs_to_tol": describe(p.epochs_to_tol for p in plain),
        "epoch_s": describe(p.time_to_tol_s / p.epochs_to_tol
                            if p.epochs_to_tol else 0.0 for p in plain),
        "setup_s": describe(p.setup_s for p in plain),
        "peak_rss_rise_mb": describe([rss_rise]),
    }
    unscaled = {"time_to_tol_cpu_s": describe(p.total("run_s") for p in plain),
                "setup_cpu_s": describe(p.total("setup_s") for p in plain),
                "time_to_tol_wall_s": describe(p.total("run_wall_s") for p in plain),
                "setup_wall_s": describe(p.total("setup_wall_s") for p in plain),
                "reference_s": describe(o.reference_s for p in plain
                                        for o in p.outcomes)}
    peak_rss = _peak_rss_mb()
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": wl.why,
        "rationale": wl.rationale,
        "config": {k: v for k, v in dataclasses.asdict(wl).items()
                   if k not in ("why", "rationale")},
        "provenance": provenance.machine(ROOT),
        "dataset": dataset,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "passes_consistent": consistent,
        "end_to_end": {name: dict(e2e[name], unit=unit) for name, unit in END_TO_END},
        "unscaled": {name: dict(v, unit="s") for name, v in unscaled.items()},
        "peak_rss_mb": peak_rss,
    }
    for name, unit in END_TO_END:
        s = e2e[name]
        print(f"{wl.name} {name}: {s['median']:.6g} {unit} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['count']})")
    for name, st in unscaled.items():
        print(f"{wl.name} {name}: {st['median']:.6g} s (q1 {st['q1']:.6g}, "
              f"q3 {st['q3']:.6g}, n={st['count']})")
    print(f"{wl.name} peak_rss_mb: {peak_rss:.6g} MB (whole process)")
    print(f"{wl.name} failed_frac: {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} solves)")
    for o in outcomes:
        if o.failure is not None:
            print(f"{wl.name} FAILED {o.label}: {o.failure}")
    if not consistent:
        print(f"{wl.name} FAILED: passes at one seed gave different results")
    elif args.trace:
        print(f"{wl.name} passive tracing: traced and untraced solves agree bit for bit")

    if args.trace:
        with_trace = describe(p.time_to_tol_s for p in traced)["median"]
        overhead = with_trace / e2e["time_to_tol_s"]["median"] - 1.0
        for p in traced:
            p.layers, p.layer_details = layer_metrics(p.tracer, p.outcomes, overhead)
        traced[0].tracer.save(RESULTS_DIR / f"{stem}-spans.npz")
        layers = {name: dict(describe(p.layers[name] for p in traced), unit=unit)
                  for name, unit, _ in LAYER_METRICS}
        report["per_layer"] = layers
        report["layer_details"] = traced[0].layer_details
        metrics = {name: {"value": layers[name]["median"], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        shares = traced[0].layer_details["self_share_of_solve_s"]
        print(f"{wl.name} self-time shares of trace.solve_s: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        print(f"{wl.name} trace.overhead_frac: {overhead:.4f}")
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}

    report["passes"] = [
        {"traced": p.traced, "wall_s": p.wall_s,
         "solves": [dataclasses.asdict(o) for o in p.outcomes]}
        for p in passes
    ]
    with open(RESULTS_DIR / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
