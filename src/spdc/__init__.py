"""Stochastic primal-dual coordinate solvers for regularized ERM.

Smoothed hinge loss + elastic net, with uniform, norm-based, and
violation-weighted dual sampling, verifiable step-size rules, and a benchmark
CLI (``spdc-bench``).
"""

from .errors import (
    ConfigError,
    DataError,
    NumericalFailure,
    ScheduleError,
    ZeroViolations,
)
from .datamat import (SparseDataset, density, example_path, lambda_max,
                      load_libsvm, save_libsvm)
from .objective import (
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
from .sampling import (
    AliasTable,
    SamplingPlan,
    alias_build,
    build_data_driven,
    build_ovs,
    build_restricted,
    build_uniform,
    draw_batch,
)
from .core import (
    SolverState,
    StepParams,
    complexity_estimate,
    init_state,
    schedule_thm4,
    schedule_thm5,
    schedule_thm15,
    schedule_vanilla,
    verify_lemma3,
    verify_lemma14,
    verify_thm20,
)
from .trace import TraceRecord
from .variants import (
    Budget,
    RunResult,
    run_fixed,
    run_ovs_exact,
    run_ovsspdc,
    run_ovsspdc_plus,
    run_ovsspdc_plusplus,
)

__version__ = "0.1.0"
