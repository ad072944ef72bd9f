"""Brute-force oracles kept independent of the library's closed forms.

Both prox subproblems are piecewise quadratic, so the oracles combine a dense
localization grid with parabolic interpolation through well-separated sample
points: the vertex of a parabola fitted to three function values on one
quadratic piece is that piece's exact extremum up to rounding, which beats
the ~sqrt(eps) plateau a value-comparison grid bottoms out at.
``lbfgs_optimum`` is the whole problem's oracle: the primal minimum found by
a quasi-Newton method that shares no code with the coordinate solvers.
``delta_t`` is the paper's primal-dual potential, which a valid step rule
contracts in expectation.

The ``reference_*`` functions and ``dense_primal_pass`` are the exceptions:
they are frozen copies, or (``reference_full_pass``) a row-at-a-time form,
of code the library runs as faster code that must agree with them bit for
bit.  ``reference_primal_prox``, ``dense_primal_pass``,
``reference_row_norms``, ``reference_load_libsvm``, ``reference_full_pass``
and ``reference_alias_build`` are the closed-form prox, the whole-vector
primal pass, the per-row norm loop, the line-by-line LIBSVM loader, the
row-at-a-time dual sweep (which writes a row only when its value changes)
and the Vose loop on numpy arrays; they are the references for the
library's fused prox, its skipping pass, its grouped row norms, its bulk
loader, its sweep of three whole-dataset products (scipy's CSR and CSC
products sum each row in index order, as the row loop does, and the prox
is written back whole) and its alias build on Python floats.
``verify_thm20`` has no reference here: at its one primal block its five
clauses are theta's two rates, theta twice, and Lemma 3, so its tests check
it against ``verify_lemma3`` and the rule's own theta.
"""

import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from spdc import core
from spdc.errors import DataError
from spdc.objective import dual_prox
from spdc.sampling import AliasTable


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


def _soft(s, thr):
    return np.sign(s) * np.maximum(np.abs(s) - thr, 0.0)


def reference_primal_prox(u, w_old, tau, lam):
    """The closed-form primal prox as plain array expressions, with the keep
    rule for exact fixed points; the library's prox must match it bit for bit."""
    u = np.asarray(u, dtype=float)
    w_old = np.asarray(w_old, dtype=float)
    v = _soft(u + w_old / tau, lam) / (lam + 1.0 / tau)
    keep = (w_old - _soft(u / lam, 1.0) == 0.0) & (np.sign(v) == np.sign(w_old))
    out = np.where(keep, w_old, v)
    return float(out) if out.ndim == 0 else out


def dense_primal_pass(state, tau, lam, theta, primal_coords=None):
    """Whole-vector primal pass: prox every selected weight coordinate from
    scratch, then extrapolate the full vector.

    Reference for the solver's pass, which skips coordinates the prox would
    leave bitwise unchanged and must agree with this one bit for bit.
    """
    w_old = state.w
    if primal_coords is None:
        w_new = reference_primal_prox(state.v_cache, w_old, tau, lam)
    else:
        w_new = w_old.copy()
        w_new[primal_coords] = reference_primal_prox(
            state.v_cache[primal_coords], w_old[primal_coords], tau, lam
        )
    state.w_prev = w_old
    state.w = w_new
    state.w_bar = w_new + theta * (w_new - w_old)
    state.iter += 1


def reference_row_norms(indptr, data):
    """Per-row Euclidean norms, one row at a time, scaled by the row's peak."""
    norms = np.empty(len(indptr) - 1)
    for i in range(norms.size):
        vals = data[indptr[i]:indptr[i + 1]]
        if vals.size == 0:
            raise DataError(f"instance {i} has zero norm; all-zero rows are rejected")
        peak = float(np.max(np.abs(vals)))
        norms[i] = peak * math.sqrt(float(np.sum((vals / peak) ** 2)))
    return norms


def _reference_dataset(matrix, labels):
    csr = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    csr.eliminate_zeros()
    csr.sort_indices()
    norms = reference_row_norms(csr.indptr, csr.data)
    return SimpleNamespace(n=csr.shape[0], d=csr.shape[1],
                           labels=np.asarray(labels, dtype=np.float64).copy(),
                           csr=csr, row_norms=norms)


def _reference_parse_line(line, lineno):
    tokens = line.split()
    try:
        label = float(tokens[0])
    except ValueError:
        raise DataError(f"line {lineno}: cannot parse label {tokens[0]!r}") from None
    if not math.isfinite(label):
        raise DataError(f"line {lineno}: label {tokens[0]!r} is not finite")
    if label not in (-1.0, 1.0):
        raise DataError(f"line {lineno}: label {tokens[0]!r} is not +-1")
    idxs, vals = [], []
    prev = 0
    for tok in tokens[1:]:
        try:
            stext, vtext = tok.split(":", 1)
            idx = int(stext)
            val = float(vtext)
        except ValueError:
            raise DataError(f"line {lineno}: malformed feature token {tok!r}") from None
        if idx < 1:
            raise DataError(f"line {lineno}: feature index {idx} is not 1-based")
        if idx == prev:
            raise DataError(f"line {lineno}: duplicate feature index {idx}")
        if idx < prev:
            raise DataError(f"line {lineno}: feature indices must be strictly increasing")
        prev = idx
        if val != 0.0:
            idxs.append(idx - 1)
            vals.append(val)
    return label, idxs, vals


def reference_load_libsvm(path, normalize=False):
    """The line-by-line LIBSVM loader with +-1 labels.

    Returns n, d, labels, the CSR and CSC matrices and the row norms of the
    dataset the library's loader must reproduce bit for bit, or raises the
    ``DataError`` it must raise for a file with one bad line.
    """
    labels, linenos = [], []
    rows_i, rows_j, rows_v = [], [], []
    d = 0
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            label, idxs, vals = _reference_parse_line(line, lineno)
            if not idxs:
                raise DataError(f"line {lineno}: instance has no nonzero features")
            i = len(labels)
            labels.append(label)
            linenos.append(lineno)
            rows_i.extend([i] * len(idxs))
            rows_j.extend(idxs)
            rows_v.extend(vals)
            d = max(d, idxs[-1] + 1)
    if not labels:
        raise DataError(f"{path}: no data lines found")
    mat = sp.coo_matrix(
        (rows_v, (rows_i, rows_j)), shape=(len(labels), d), dtype=np.float64
    ).tocsr()
    bad = np.flatnonzero(~np.isfinite(mat.data))
    if bad.size:
        k = int(bad[0])
        i = int(np.searchsorted(mat.indptr, k, side="right")) - 1
        raise DataError(f"line {linenos[i]}: feature {mat.indices[k] + 1} has "
                        f"non-finite value {float(mat.data[k])!r}")
    ds = _reference_dataset(mat, labels)
    if normalize:
        scale = sp.diags(1.0 / ds.row_norms)
        ds = _reference_dataset(scale @ ds.csr, ds.labels)
    return ds


def reference_full_pass(state, ds, spec, params):
    """The snapshot variants' full sweep, one dual row at a time: each row's
    dot with ``w_bar`` summed left to right in Python floats, the scalar prox
    written back only when it changes the dual, and the dual image rebuilt by
    adding ``data * alpha_i`` row after row into zeros and dividing by n; then
    the full primal pass."""
    n = ds.n
    indptr, indices, data = ds.csr_arrays()
    alpha = state.alpha
    w_bar = state.w_bar
    for i in range(n):
        s = 0.0
        for k in range(indptr[i], indptr[i + 1]):
            s += float(data[k]) * float(w_bar[indices[k]])
        new = dual_prox(s, float(alpha[i]), 1.0 / float(params.sigma[i]),
                        float(ds.labels[i]), spec.gamma)
        if new != alpha[i]:
            alpha[i] = new
    v = np.zeros(ds.d)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        v[indices[lo:hi]] += data[lo:hi] * alpha[i]
    state.v_cache = v / n
    core._primal_pass(state, params.tau, spec.lam, params.theta)


def reference_alias_build(p):
    """Vose's alias construction on numpy arrays and numpy scalars."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("probability vector has a negative entry")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probability vector sums to {total!r}, not 1")
    n = p.size
    scaled = p * n
    prob = np.ones(n)
    alias = np.arange(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in small + large:
        prob[i] = 1.0
    return AliasTable(prob=prob, alias=alias)


def lbfgs_optimum(ds, spec):
    """The primal minimum, by L-BFGS-B.

    The elastic net's l1 term is made smooth by splitting ``w = u - v`` with
    ``u, v >= 0``, where ``||w||_1`` becomes the linear ``sum(u + v)``; the
    smoothed hinge is written from its definition: ``0`` above a margin of 1,
    ``(1 - z)^2 / (2 gamma)`` within ``gamma`` of it, ``1 - z - gamma/2``
    below.
    """
    yx = ds._csr.toarray() * ds.labels[:, None]
    n, d = yx.shape
    gamma, lam = spec.gamma, spec.lam

    def smooth(w):
        """The loss plus the l2 term, and its gradient."""
        t = 1.0 - yx @ w  # how far each margin falls short of 1
        loss = np.where(t >= gamma, t - gamma / 2.0, np.where(t > 0.0, t * t / (2.0 * gamma), 0.0))
        slope = np.where(t >= gamma, 1.0, np.where(t > 0.0, t / gamma, 0.0))
        return loss.mean() + lam * (0.5 * w @ w), -(yx.T @ slope) / n + lam * w

    def split(z):
        f, g = smooth(z[:d] - z[d:])
        return f + lam * z.sum(), np.concatenate([g + lam, lam - g])

    res = minimize(split, np.zeros(2 * d), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * (2 * d),
                   options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 10_000})
    w = res.x[:d] - res.x[d:]
    return float(smooth(w)[0] + lam * np.abs(w).sum())


def delta_t(state, ref_w, ref_alpha, params, ds, spec) -> float:
    """Potential combining primal/dual distances to a reference optimum.

    ``(1/(2 tau) + lam) |w - w*|^2
      + sum_i (1/(2 sigma_i) + gamma/(n p_i)) (alpha_i - alpha_i*)^2 / a
      + |w - w_prev|^2 / (4 tau)
      - (alpha - alpha*)^T X (w - w_prev) / n``.

    A valid schedule contracts its expectation by the momentum factor per step.
    """
    n, plan = params.n_eff, params.plan
    active = plan.p > 0.0
    dw = state.w - ref_w
    da = state.alpha - ref_alpha
    dprev = state.w - state.w_prev
    coeff = 1.0 / (2.0 * params.sigma[active]) + spec.gamma / (n * plan.p[active])
    val = (1.0 / (2.0 * params.tau) + spec.lam) * float(np.dot(dw, dw))
    val += float(np.sum(coeff * da[active] ** 2)) / plan.batch
    val += float(np.dot(dprev, dprev)) / (4.0 * params.tau)
    val -= float(np.dot(da, ds.matvec(dprev))) / ds.n
    return val
