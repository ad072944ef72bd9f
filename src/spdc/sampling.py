"""Discrete sampling machinery and the sampling-probability families.

The alias table gives O(n) preprocessing and O(1) draws from a fixed discrete
distribution.  Plan builders cover uniform sampling, norm-based data-driven
sampling, violation-weighted sampling capped at ``1/(a*sqrt(n))`` through a
uniform mixture, and the restricted distribution that puts zero mass on
coordinates whose violations vanish.

All stochastic operations take a ``numpy.random.Generator`` so runs are
reproducible bit for bit from a seed.  Plans are immutable after build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionNotMetError, ZeroViolations

__all__ = [
    "AliasTable",
    "SamplingPlan",
    "alias_build",
    "draw_batch",
    "build_uniform",
    "build_data_driven",
    "build_ovs",
    "build_restricted",
]


@dataclass(frozen=True)
class AliasTable:
    """Walker alias table: acceptance probabilities plus alias indices."""

    prob: np.ndarray
    alias: np.ndarray

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. indices."""
        n = self.prob.size
        if size == 1:
            # scalar calls read the generator's stream as the array calls do
            k = rng.integers(0, n)
            return np.array([k if rng.random() < self.prob[k] else self.alias[k]])
        ks = rng.integers(0, n, size=size)
        us = rng.random(size)
        return np.where(us < self.prob[ks], ks, self.alias[ks])


def alias_build(p) -> AliasTable:
    """Construct an alias table for probability vector ``p``.

    The construction is deterministic; draws take their own generator.

    Raises
    ------
    ValueError
        If any entry is negative or the vector does not sum to 1 within 1e-9.
    """
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
    # leftovers are numerically 1 after redistribution
    for i in small + large:
        prob[i] = 1.0
    return AliasTable(prob=prob, alias=alias)


@dataclass(frozen=True)
class SamplingPlan:
    """A probability vector over instances plus its alias table.

    ``cap`` is the per-entry upper bound the plan was built to satisfy
    (``1/a`` or ``1/(a*sqrt(n))``); None when no cap applies.  ``kind`` records
    which family built the plan.
    """

    p: np.ndarray
    cap: float | None
    alias: AliasTable
    batch: int
    kind: str

    @property
    def n(self) -> int:
        return self.p.size

    @property
    def active(self) -> np.ndarray:
        """Indices with strictly positive probability."""
        return np.flatnonzero(self.p > 0.0)


def _finalize(p: np.ndarray, cap: float | None, a: int, kind: str) -> SamplingPlan:
    p = np.asarray(p, dtype=np.float64)
    p.setflags(write=False)
    return SamplingPlan(p=p, cap=cap, alias=alias_build(p), batch=a, kind=kind)


def draw_batch(plan: SamplingPlan, rng: np.random.Generator) -> np.ndarray:
    """Draw the plan's mini-batch: ``a`` indices i.i.d. with replacement."""
    return plan.alias.draw(rng, plan.batch)


def build_uniform(n: int, a: int) -> SamplingPlan:
    """Uniform plan, p_i = 1/n."""
    if not 1 <= a <= n:
        raise ValueError(f"batch size {a} must lie in [1, {n}]")
    p = np.full(n, 1.0 / n)
    return _finalize(p, 1.0 / a, a, "uniform")


def build_data_driven(ds, spec, a: int, scheme: str) -> SamplingPlan:
    """Norm-based plan: p_i proportional to ||x_i|| plus a regularization offset.

    ``scheme='cor16'`` uses offset ``sqrt(lam*gamma)`` (pairs with the base
    step-size rule); ``scheme='cor17'`` uses ``sqrt(n*lam*gamma)`` (pairs with
    the sqrt(n)-boosted rule) and requires the norm-spread condition
    ``max_i ||x_i|| <= (1/sqrt(n)) sum_k ||x_k|| + sqrt(lam*gamma)(n - sqrt(n))``.
    Both apply to single draws (a = 1).
    """
    if a != 1:
        raise ValueError(f"data-driven plans require a=1, got a={a}")
    n = ds.n
    norms = ds.row_norms
    lg = spec.lam * spec.gamma
    if scheme == "cor16":
        raw = norms + math.sqrt(lg)
        cap = 1.0 / a
    elif scheme == "cor17":
        bound = np.sum(norms) / math.sqrt(n) + math.sqrt(lg) * (n - math.sqrt(n))
        worst = int(np.argmax(norms))
        if norms[worst] > bound:
            raise ConditionNotMetError(
                f"instance {worst} has norm {norms[worst]:.6g} exceeding the "
                f"data-driven cap {bound:.6g}"
            )
        raw = norms + math.sqrt(n * lg)
        cap = 1.0 / (a * math.sqrt(n))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    p = raw / raw.sum()
    kind = "data16" if scheme == "cor16" else "data17"
    return _finalize(p, cap, a, kind)


def build_ovs(kappa, row_norms, a: int, n: int) -> SamplingPlan:
    """Violation-weighted plan with entries capped at ``1/(a*sqrt(n))``.

    Weights are ``rho_i = kappa_i + min nonzero kappa`` times the instance
    norm, normalized.  If the raw maximum exceeds the cap, the plan is the
    uniform mixture ``(1-zeta)/n + zeta*raw`` with ``zeta`` chosen so the
    maximum lands exactly on the cap.

    Raises
    ------
    ZeroViolations
        If every ``kappa_i`` is zero.  Callers substitute the uniform plan.
    ValueError
        If ``a > sqrt(n)`` (the cap would be infeasible).
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    row_norms = np.asarray(row_norms, dtype=np.float64)
    if kappa.shape != (n,) or row_norms.shape != (n,):
        raise ValueError("kappa and row_norms must both have length n")
    if a * a > n:
        raise ValueError(f"a={a} exceeds sqrt(n)={math.sqrt(n):.6g}")
    nonzero = kappa[kappa != 0.0]
    if nonzero.size == 0:
        raise ZeroViolations("all dual optimality violations are zero")
    rho = kappa + nonzero.min()
    weights = rho * row_norms
    raw = weights / weights.sum()
    cap = 1.0 / (a * math.sqrt(n))
    p_bar = raw.max()
    if p_bar <= cap:
        return _finalize(raw, cap, a, "ovs")
    # mixture written so the max entry lands on the cap exactly:
    # (1-zeta)/n + zeta*raw == 1/n + (cap - 1/n) * (raw - 1/n)/(p_bar - 1/n)
    base = 1.0 / n
    p = base + (cap - base) * (raw - base) / (p_bar - base)
    np.minimum(p, cap, out=p)
    return _finalize(p, cap, a, "ovs")


def build_restricted(kappa, a: int = 1) -> SamplingPlan:
    """Uniform plan over the coordinates with nonzero violations, zero elsewhere.

    Coordinates already satisfying their optimality condition are never drawn.

    Raises
    ------
    ZeroViolations
        If every ``kappa_i`` is zero (the iterate is optimal on the dual side).
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    active = kappa != 0.0
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        raise ZeroViolations("all dual optimality violations are zero")
    p = np.zeros(kappa.size)
    p[active] = 1.0 / n_active
    return _finalize(p, None, a, "restricted")
