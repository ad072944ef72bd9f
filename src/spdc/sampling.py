"""Discrete sampling machinery and the sampling-probability families.

The alias table gives O(n) preprocessing and O(1) draws from a fixed discrete
distribution.  Plan builders cover uniform sampling, norm-based data-driven
sampling, violation-weighted sampling mixed toward uniform within its
``thm5`` bounds, and the restricted distribution that puts zero mass on
coordinates whose violations vanish.

All stochastic operations take a ``numpy.random.Generator`` so runs are
reproducible bit for bit from a seed.  Plans are immutable after build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, ZeroViolations

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

# a violation-weighted plan's thm5 complexity estimate stays within this factor
# of the uniform plan's (the safeguard of AdaSDCA+, Csiba, Qu and Richtarik 2015)
_COMPLEXITY_FACTOR = 2.0


@dataclass(frozen=True)
class AliasTable:
    """Walker alias table: acceptance probabilities plus alias indices."""

    prob: np.ndarray
    alias: np.ndarray

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. indices from one ``integers`` and one ``random`` call."""
        ks = rng.integers(0, self.prob.size, size=size)
        us = rng.random(size)
        return np.where(us < self.prob[ks], ks, self.alias[ks])


def alias_build(p) -> AliasTable:
    """Construct an alias table for probability vector ``p``.

    The construction is deterministic; draws take their own generator.

    Raises
    ------
    ValueError
        If any entry is negative or NaN, or the vector does not sum to 1
        within 1e-9 (so an infinite entry is rejected too).
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all(p >= 0):
        raise ValueError("probability vector has a negative or NaN entry")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probability vector sums to {total!r}, not 1")
    n = p.size
    # Vose's loop on Python floats and lists: the same IEEE operations as on
    # numpy scalars, at a fraction of their cost per operation
    scaled = (p * n).tolist()
    prob = [1.0] * n
    alias = list(range(n))
    small = [i for i, x in enumerate(scaled) if x < 1.0]
    large = [i for i, x in enumerate(scaled) if x >= 1.0]
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
    # the leftovers, numerically 1 after redistribution, keep probability 1
    return AliasTable(prob=np.array(prob), alias=np.array(alias))


@dataclass(frozen=True)
class SamplingPlan:
    """A probability vector over instances plus its alias table.

    ``batch`` is the mini-batch size ``a``; ``kind`` records which family
    built the plan.
    """

    p: np.ndarray
    alias: AliasTable
    batch: int
    kind: str

    @property
    def active(self) -> np.ndarray:
        """Indices with strictly positive probability."""
        return np.flatnonzero(self.p > 0.0)


def boosted_cap(n: int, a: int, rule: str = "thm5") -> float:
    """The probability cap ``1/(a sqrt(n))`` of the sqrt(n)-boosted ``rule`` (thm5,
    cor19) on n instances; a ScheduleError if ``a > sqrt(n)``, the rule's batch limit."""
    if a * a > n:
        raise ScheduleError(f"{rule} requires a <= sqrt(n); got a={a}, n={n}")
    return 1.0 / (a * math.sqrt(n))


def _finalize(p: np.ndarray, a: int, kind: str) -> SamplingPlan:
    p = np.asarray(p, dtype=np.float64)
    p.setflags(write=False)
    return SamplingPlan(p=p, alias=alias_build(p), batch=a, kind=kind)


def draw_batch(plan: SamplingPlan, rng: np.random.Generator, k: int = 1) -> np.ndarray:
    """The mini-batches of k iterations: ``k a`` indices i.i.d. with replacement
    from one :meth:`AliasTable.draw`, iteration j's at ``[j a, (j + 1) a)``."""
    return plan.alias.draw(rng, k * plan.batch)


def build_uniform(n: int, a: int) -> SamplingPlan:
    """Uniform plan, p_i = 1/n."""
    if not 1 <= a <= n:
        raise ValueError(f"batch size {a} must lie in [1, {n}]")
    p = np.full(n, 1.0 / n)
    return _finalize(p, a, "uniform")


def build_data_driven(ds, spec, a: int, scheme: str) -> SamplingPlan:
    """Norm-based plan: p_i proportional to ||x_i|| plus a regularization offset.

    ``scheme='cor16'`` uses offset ``sqrt(lam*gamma)`` (pairs with the base
    step-size rule); ``scheme='cor17'`` uses ``sqrt(n*lam*gamma)`` (pairs with
    the sqrt(n)-boosted rule) and requires the norm-spread condition
    ``max_i ||x_i|| <= (1/sqrt(n)) sum_k ||x_k|| + sqrt(lam*gamma)(n - sqrt(n))``,
    else a ScheduleError names the widest instance.  Both apply to single draws (a = 1).
    """
    if a != 1:
        raise ValueError(f"data-driven plans require a=1, got a={a}")
    n = ds.n
    norms = ds.row_norms
    lg = spec.lam * spec.gamma
    if scheme == "cor16":
        raw = norms + math.sqrt(lg)
    elif scheme == "cor17":
        bound = np.sum(norms) / math.sqrt(n) + math.sqrt(lg) * (n - math.sqrt(n))
        worst = int(np.argmax(norms))
        if norms[worst] > bound:
            raise ScheduleError(
                f"instance {worst} has norm {norms[worst]:.6g} exceeding the "
                f"data-driven cap {bound:.6g}"
            )
        raw = norms + math.sqrt(n * lg)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    p = raw / raw.sum()
    kind = "data16" if scheme == "cor16" else "data17"
    return _finalize(p, a, kind)


def build_ovs(kappa, row_norms, spec, a: int) -> SamplingPlan:
    """Violation-weighted plan over the ``n = len(kappa)`` instances of ``spec``.

    Weights ``rho_i = kappa_i + min nonzero kappa`` times the instance norm,
    normalized, give ``raw``.  The plan is ``(1-zeta)/n + zeta*raw`` with the
    largest ``zeta`` in [0, 1] that keeps every entry under the cap
    ``1/(a*sqrt(n))`` and the thm5 complexity ``max_i c_i/(a p_i)``,
    ``c_i = 1 + ||x_i||/sqrt(n lam gamma)``, within twice uniform's: the floor
    ``p_i >= c_i/(2 n max_k c_k)``, without which one tiny ``p_i`` shrinks every
    step for a whole refresh.  When the cap binds first, the maximum lands on it.

    Raises
    ------
    ScheduleError
        If ``a > sqrt(n)`` (the cap would be infeasible), as thm5 refuses it.
    ZeroViolations
        If every ``kappa_i`` is zero.  Callers substitute the uniform plan.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    row_norms = np.asarray(row_norms, dtype=np.float64)
    n = kappa.size
    if kappa.shape != (n,) or row_norms.shape != (n,):
        raise ValueError("kappa and row_norms must be vectors of one length")
    cap, base = boosted_cap(n, a), 1.0 / n
    nonzero = kappa[kappa != 0.0]
    if nonzero.size == 0:
        raise ZeroViolations("all dual optimality violations are zero")
    rho = kappa + nonzero.min()
    weights = rho * row_norms
    raw = weights / weights.sum()
    p_bar = raw.max()
    c = math.sqrt(n * spec.lam * spec.gamma) + row_norms  # c_i sqrt(n lam gamma)
    floor = c / (_COMPLEXITY_FACTOR * n * c.max())
    # the largest zeta whose floors hold: only entries below 1/n can break one
    low = raw < base
    zeta = float(np.min((base - floor[low]) / (base - raw[low]), initial=1.0))
    if p_bar > cap and cap - base <= zeta * (p_bar - base):
        # the cap binds first; written so the max entry lands on it exactly:
        # (1-zeta)/n + zeta*raw == 1/n + (cap - 1/n) * (raw - 1/n)/(p_bar - 1/n)
        p = np.minimum(base + (cap - base) * (raw - base) / (p_bar - base), cap)
    else:
        p = (1.0 - zeta) * base + zeta * raw  # raw itself at zeta = 1
    return _finalize(p, a, "ovs")


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
    return _finalize(p, a, "restricted")
