"""Independent correctness checks on finished solves.

A solve passes when its stop was a genuine convergence, the duality gap
recomputed from the returned iterate meets the tolerance, and that gap equals
the gap the run's own trace recorded last.  Across one workload every solve
shares the dataset and the regularization, so every primal value must also
lie within the tolerance of the best dual value any solve reached, and no
dual value may exceed a primal value (weak duality).
"""

from __future__ import annotations

import math

# weak duality holds exactly; this absorbs the rounding of two objective sums
_WEAK_DUALITY_RTOL = 1e-12


def solve_failure(converged: bool, trace_gap: float, recomputed_gap: float,
                  gap_tol: float, epochs: float) -> str | None:
    """Why a single solve fails its certificate, or None when it passes."""
    if not converged:
        return (f"missed gap_tol {gap_tol:g} within the epoch budget: gap "
                f"{trace_gap:.3e} after {epochs:g} epochs")
    if not recomputed_gap <= gap_tol:
        return f"recomputed gap {recomputed_gap!r} exceeds gap_tol {gap_tol:g}"
    if recomputed_gap != trace_gap:
        return (f"recomputed gap {recomputed_gap!r} differs from the trace's "
                f"last gap {trace_gap!r}")
    return None


def workload_failures(primals, duals, gap_tol: float) -> dict[int, str]:
    """Cross-solve check over solves of one problem; maps index to reason.

    ``primals[k]`` and ``duals[k]`` are solve k's final objectives.
    """
    if not primals:
        return {}
    best_dual = max(duals)
    slack = _WEAK_DUALITY_RTOL * max(1.0, abs(best_dual))
    out = {}
    for k, p in enumerate(primals):
        if not math.isfinite(p):
            out[k] = f"primal value {p!r} is not finite"
        elif p - best_dual > gap_tol:
            out[k] = (f"primal {p!r} is {p - best_dual:.3e} above the best dual "
                      f"{best_dual!r} of the workload (gap_tol {gap_tol:g})")
        elif p < best_dual - slack:
            out[k] = f"primal {p!r} lies below the best dual {best_dual!r}"
    return out
