"""Loss and penalty families, conjugates, proximal updates, objectives, violations.

The loss is the smoothed hinge (quadratically smoothed over a band of width
``gamma``); the penalty is the elastic net ``|w|_1 + 0.5 |w|_2^2``.  All
functions are pure and accept scalars or ndarrays where a coordinate form
makes sense.  Region boundaries of the smoothed hinge resolve through the
quadratic branch, so evaluation is deterministic at exact float equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProblemSpec",
    "smoothed_hinge",
    "smoothed_hinge_grad",
    "smoothed_hinge_conj",
    "elastic_net",
    "elastic_net_conj",
    "elastic_net_conj_grad",
    "soft_threshold",
    "dual_prox",
    "primal_prox",
    "primal_objective",
    "dual_objective",
    "duality_gap",
    "dual_violations",
    "primal_violations",
]

# 0-d operands for the prox: a ufunc converts a Python float on every call
_ZERO, _ONE, _MINUS_ONE = (np.array(x) for x in (0.0, 1.0, -1.0))


@dataclass(frozen=True)
class ProblemSpec:
    """Problem parameters: loss smoothness and regularization strength.

    ``gamma`` is the smoothing width of the hinge (the loss gradient is
    1/gamma-Lipschitz); ``lam`` is the elastic-net weight.  Both must be
    strictly positive.
    """

    gamma: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")


def smoothed_hinge(z, y, gamma):
    """Smoothed hinge loss.

    Zero for ``y*z > 1``, linear ``1 - y*z - gamma/2`` for ``y*z < 1 - gamma``,
    quadratic ``(1 - y*z)^2 / (2*gamma)`` in between.
    """
    yz = np.multiply(y, z)
    return np.where(
        yz > 1.0,
        0.0,
        np.where(yz < 1.0 - gamma, 1.0 - yz - gamma / 2.0, (1.0 - yz) ** 2 / (2.0 * gamma)),
    )


def smoothed_hinge_grad(z, y, gamma):
    """Derivative of the smoothed hinge in z; continuous across region boundaries."""
    yz = np.multiply(y, z)
    return np.where(
        yz > 1.0,
        0.0,
        np.where(yz < 1.0 - gamma, -np.asarray(y, dtype=float), -y * (1.0 - yz) / gamma),
    )


def smoothed_hinge_conj(u, y, gamma):
    """Convex conjugate of the smoothed hinge.

    ``(gamma/2) u^2 + y u`` on the feasible strip ``y*u in [-1, 0]``; +inf
    outside (infeasibility is a value, not an error).
    """
    yu = np.multiply(y, u)
    feasible = (yu >= -1.0) & (yu <= 0.0)
    return np.where(feasible, (gamma / 2.0) * np.square(u) + yu, np.inf)


def elastic_net(w) -> float:
    """Elastic net penalty ``|w|_1 + 0.5 |w|_2^2``."""
    w = np.asarray(w, dtype=float)
    return float(np.sum(np.abs(w)) + 0.5 * np.dot(w, w))


def elastic_net_conj(v) -> float:
    """Conjugate of the elastic net: ``0.5 * sum_j max(|v_j| - 1, 0)^2``."""
    v = np.asarray(v, dtype=float)
    t = np.maximum(np.abs(v) - 1.0, 0.0)
    return float(0.5 * np.dot(t, t))


def elastic_net_conj_grad(v):
    """Coordinate gradient of the elastic-net conjugate: soft threshold at 1."""
    return soft_threshold(v, 1.0)


def soft_threshold(s, thr):
    """sign(s) * max(|s| - thr, 0)."""
    return np.sign(s) * np.maximum(np.abs(s) - thr, 0.0)


def dual_prox(s, alpha_old, q, y, gamma):
    """Closed-form dual coordinate update.

    Maximizes ``-beta*s - f*(-beta) - (q/2)(beta - alpha_old)^2`` over the
    conjugate's domain, where ``s`` is the instance's inner product with the
    extrapolated weights and ``q`` is ``p_i * n / sigma_i`` for a drawn dual and
    ``1 / sigma_i`` in the snapshot variants' sweep.  The unconstrained maximizer
    ``(y - s + q*alpha_old) / (gamma + q)`` is projected onto the feasible strip
    ``y*beta in [0, 1]``.

    When the dual optimality violation at ``(s, alpha_old)`` is exactly zero
    the input is returned unchanged, bit for bit, so converged coordinates are
    exact fixed points.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    ys = y * s
    if ys > 1.0:
        g = 0.0
    elif ys < 1.0 - gamma:
        g = -y
    else:
        g = -y * (1.0 - ys) / gamma
    if -alpha_old - g == 0.0:
        return alpha_old
    u = y * (y - s + q * alpha_old) / (gamma + q)
    if u < 0.0:
        u = 0.0
    elif u > 1.0:
        u = 1.0
    return y * u


def primal_prox(u, w_old, tau, lam):
    """Closed-form primal coordinate update (elementwise over coordinates).

    Minimizes ``lam*(|v| + v^2/2) - u*v + (v - w_old)^2 / (2*tau)``; the
    solution is ``soft(u + w_old/tau, lam) / (lam + 1/tau)``.  ``u`` is the
    coordinate of the dual image ``(1/n) X^T alpha``, with the iteration's
    sampled duals extrapolated.

    Coordinates whose primal optimality violation against ``u`` is exactly
    zero and whose tentative update keeps the same sign are returned
    unchanged, bit for bit.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    u, w_old = np.asarray(u, dtype=float), np.asarray(w_old, dtype=float)
    v = prox_arrays(*np.broadcast_arrays(*np.atleast_1d(u, w_old)), tau, lam)
    return float(v[0]) if u.ndim == w_old.ndim == 0 else v


def prox_arrays(u: np.ndarray, w_old: np.ndarray, tau: float, lam: float) -> np.ndarray:
    """:func:`primal_prox`'s arithmetic on float64 arrays of one shape, unchecked."""
    tau, lam, den = np.array(tau), np.array(lam), np.array(lam + 1.0 / tau)
    # the same expressions as soft_threshold, in place and with fewer temporaries
    s = w_old / tau
    s += u
    v = np.abs(s)
    v -= lam
    np.maximum(v, _ZERO, out=v)
    v *= np.sign(s, out=s)
    v /= den
    # the fixed point soft(t, 1) is t - clip(t, -1, 1) but for the sign of 0, which == ignores
    t = np.divide(u, lam, out=s)
    r = np.minimum(t, _ONE)
    np.maximum(r, _MINUS_ONE, out=r)
    np.subtract(t, r, out=r)
    keep = r == w_old
    keep &= np.sign(v, out=s) == np.sign(w_old, out=r)
    np.copyto(v, w_old, where=keep)
    return v


def primal_objective(w, ds, spec: ProblemSpec) -> float:
    """Regularized empirical risk ``(1/n) sum_i f_i(x_i.w) + lam * g(w)``."""
    w = np.asarray(w, dtype=float)
    if w.shape != (ds.d,):
        raise ValueError(f"w has shape {w.shape}, expected ({ds.d},)")
    z = ds.matvec(w)
    losses = smoothed_hinge(z, ds.labels, spec.gamma)
    return float(np.mean(losses) + spec.lam * elastic_net(w))


def dual_objective(alpha, ds, spec: ProblemSpec) -> float:
    """Dual value ``-(1/n) sum_i f*(-alpha_i) - lam * g*(X^T alpha / (lam n))``.

    Returns -inf if any coordinate is outside the conjugate's domain.  The
    matrix product is recomputed from scratch here; solvers maintain their own
    incremental cache, so this evaluation double-checks it.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (ds.n,):
        raise ValueError(f"alpha has shape {alpha.shape}, expected ({ds.n},)")
    conj = smoothed_hinge_conj(-alpha, ds.labels, spec.gamma)
    if np.any(np.isinf(conj)):
        return -np.inf
    v = ds.rmatvec(alpha) / (spec.lam * ds.n)
    return float(-np.mean(conj) - spec.lam * elastic_net_conj(v))


def duality_gap(w, alpha, ds, spec: ProblemSpec) -> float:
    """P(w) - D(alpha); nonnegative by weak duality, +inf for infeasible alpha."""
    d = dual_objective(alpha, ds, spec)
    if d == -np.inf:
        return np.inf
    return primal_objective(w, ds, spec) - d


def dual_violations(w, alpha, ds, spec: ProblemSpec) -> np.ndarray:
    """Per-instance dual optimality violations ``|-alpha_i - f_i'(x_i.w)|``."""
    z = ds.matvec(np.asarray(w, dtype=float))
    g = smoothed_hinge_grad(z, ds.labels, spec.gamma)
    return np.abs(-np.asarray(alpha, dtype=float) - g)


def primal_violations(w, alpha, ds, spec: ProblemSpec) -> np.ndarray:
    """Per-feature primal violations ``|w_j - dg*((1/(lam n)) X_:j . alpha)|``."""
    v = ds.rmatvec(np.asarray(alpha, dtype=float)) / (spec.lam * ds.n)
    return np.abs(np.asarray(w, dtype=float) - elastic_net_conj_grad(v))
