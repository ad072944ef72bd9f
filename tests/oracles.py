"""Brute-force oracles kept independent of the library's closed forms.

Both prox subproblems are piecewise quadratic, so the oracles combine a dense
localization grid with parabolic interpolation through well-separated sample
points: the vertex of a parabola fitted to three function values on one
quadratic piece is that piece's exact extremum up to rounding, which beats
the ~sqrt(eps) plateau a value-comparison grid bottoms out at.

``dense_primal_pass`` is the exception: it reuses the library's prox, because
it is the reference for which coordinates a pass computes, not for the prox.
"""

import numpy as np

from spdc.objective import primal_prox


def _vertex(fun, x, h):
    """Extremum abscissa of the parabola through (x-h, x, x+h)."""
    f0, f1, f2 = fun(x - h), fun(x), fun(x + h)
    denom = 2.0 * (f2 - 2.0 * f1 + f0)
    if denom == 0.0:
        return x
    return x - h * (f2 - f0) / denom


def _grid_argbest(fun, lo, hi, maximize, points=4001):
    xs = np.linspace(lo, hi, points)
    vals = fun(xs)
    k = int(np.argmax(vals) if maximize else np.argmin(vals))
    return float(xs[k]), (hi - lo) / (points - 1)


def dual_prox_oracle(s, alpha_old, q, y, gamma):
    """Maximizer of the dual coordinate subproblem over its domain.

    Parameterized by u = y*beta in [0, 1]; the conjugate there equals
    (gamma/2) u^2 - u, so the objective is a single concave parabola in u.
    """

    def h(u):
        beta = y * u
        return -beta * s - ((gamma / 2.0) * u * u - u) - (q / 2.0) * (beta - alpha_old) ** 2

    vertex = _vertex(h, 0.5, 0.25)
    u_best = min(max(vertex, 0.0), 1.0)
    u_grid, step = _grid_argbest(h, 0.0, 1.0, maximize=True)
    assert abs(u_grid - u_best) <= 2.0 * step, "parabolic and grid maximizers disagree"
    return y * u_best


def primal_prox_oracle(u, w_old, tau, lam):
    """Minimizer of the primal coordinate subproblem.

    The objective is strictly convex and quadratic on each side of the kink
    at zero.  Each side's parabola vertex is fitted from samples inside that
    side; the minimizer is the positive vertex if it is positive, the
    negative vertex if negative, otherwise the kink itself.
    """

    def phi(v):
        return lam * (np.abs(v) + 0.5 * v * v) - u * v + (v - w_old) ** 2 / (2.0 * tau)

    span = (abs(u) + abs(w_old) / tau + lam) / (lam + 1.0 / tau) + abs(w_old) + 1.0
    v_plus = _vertex(phi, span / 2.0, span / 4.0)
    v_minus = _vertex(phi, -span / 2.0, span / 4.0)
    if v_plus > 0.0:
        v_best = v_plus
    elif v_minus < 0.0:
        v_best = v_minus
    else:
        v_best = 0.0
    v_grid, step = _grid_argbest(phi, -span, span, maximize=False)
    assert abs(v_grid - v_best) <= 2.0 * step, "parabolic and grid minimizers disagree"
    return v_best


def central_difference(fun, x, h=1e-6):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def dense_primal_pass(state, tau, lam, theta, primal_coords=None):
    """Whole-vector primal pass: prox every selected weight coordinate from
    scratch, then extrapolate the full vector.

    Reference for the solver's pass, which skips coordinates the prox would
    leave bitwise unchanged and must agree with this one bit for bit.
    """
    w_old = state.w
    if primal_coords is None:
        w_new = primal_prox(state.v_cache, w_old, tau, lam)
    else:
        w_new = w_old.copy()
        w_new[primal_coords] = primal_prox(
            state.v_cache[primal_coords], w_old[primal_coords], tau, lam
        )
    state.w_prev = w_old
    state.w = w_new
    state.w_bar = w_new + theta * (w_new - w_old)
    state.iter += 1
