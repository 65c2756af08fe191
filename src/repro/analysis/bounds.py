"""The paper's competitive-ratio formulas as code.

Each theorem's bound is a function of the max/min interval length ratio μ
(and the size-class parameter k where applicable), plus helpers asserting
that a measured packing respects a bound.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "theorem3_bound",
    "theorem4_bound",
    "theorem5_bound",
    "mff_bound_unknown_mu",
    "mff_bound_known_mu",
    "mff_optimal_k",
    "mff_generic_bound",
    "BoundCheck",
    "check_bound",
]


def theorem3_bound(k: numbers.Real) -> numbers.Real:
    """Theorem 3: all sizes ≥ W/k ⇒ FF_total ≤ k·OPT_total."""
    if k <= 1:
        raise ValueError(f"Theorem 3 requires k > 1, got {k}")
    return k


def theorem4_bound(mu: numbers.Real, k: numbers.Real) -> numbers.Real:
    """Theorem 4: all sizes < W/k ⇒ FF ratio ≤ (k/(k−1))μ + 6k/(k−1) + 1."""
    if k <= 1:
        raise ValueError(f"Theorem 4 requires k > 1, got {k}")
    if mu < 1:
        raise ValueError(f"μ is a max/min ratio, must be ≥ 1; got {mu}")
    return (k / (k - 1)) * mu + 6 * k / (k - 1) + 1


def theorem5_bound(mu: numbers.Real) -> numbers.Real:
    """Theorem 5: general First Fit ratio ≤ 2μ + 13."""
    if mu < 1:
        raise ValueError(f"μ is a max/min ratio, must be ≥ 1; got {mu}")
    return 2 * mu + 13


def mff_bound_unknown_mu(mu: numbers.Real) -> numbers.Real:
    """Section 4.4, μ unknown (k = 8): MFF ratio ≤ (8/7)μ + 55/7."""
    if mu < 1:
        raise ValueError(f"μ is a max/min ratio, must be ≥ 1; got {mu}")
    if isinstance(mu, (int, Fraction)):
        return Fraction(8, 7) * mu + Fraction(55, 7)
    return (8 * mu + 55) / 7


def mff_bound_known_mu(mu: numbers.Real) -> numbers.Real:
    """Section 4.4, μ known (k = μ + 7): MFF ratio ≤ μ + 8."""
    if mu < 1:
        raise ValueError(f"μ is a max/min ratio, must be ≥ 1; got {mu}")
    return mu + 8


def mff_optimal_k(mu: numbers.Real) -> numbers.Real:
    """The k minimising max{k, (μ+6)/(1−1/k)}; the paper derives k = μ+7."""
    return mu + 7


def mff_generic_bound(mu: numbers.Real, k: numbers.Real) -> numbers.Real:
    """MFF's intermediate bound ``max{k, (μ+6)/(1−1/k)} + 1`` for any k > 1.

    From ``MFF_total ≤ max{k, (μ+6)/(1−1/k)}·C·u(R)/W + C·span(R)`` and the
    two OPT lower bounds.  Specialises to the two published bounds at
    k = 8 and k = μ+7.
    """
    if k <= 1:
        raise ValueError(f"MFF requires k > 1, got {k}")
    return max(k, (mu + 6) / (1 - 1 / k)) + 1


@dataclass(frozen=True, slots=True)
class BoundCheck:
    """Outcome of checking a measured ratio against a theorem bound."""

    measured_ratio: float
    bound: float
    theorem: str

    @property
    def holds(self) -> bool:
        # Allow a hair of float slack: the bound itself is proved exactly,
        # but measured costs/OPT may be float integrals.
        return self.measured_ratio <= self.bound * (1 + 1e-9)

    @property
    def slack(self) -> float:
        """How far below the bound the measurement sits (bound − measured)."""
        return self.bound - self.measured_ratio


def check_bound(
    measured_cost: numbers.Real,
    opt_lower_bound: numbers.Real,
    bound: numbers.Real,
    *,
    theorem: str,
) -> BoundCheck:
    """Check ``measured_cost / opt_lower_bound ≤ bound``.

    Using an OPT *lower* bound makes the measured ratio an upper estimate
    of the true competitive ratio, so a passing check is genuine evidence
    the theorem holds on this instance.
    """
    if opt_lower_bound <= 0:
        raise ValueError("OPT lower bound must be positive")
    return BoundCheck(
        measured_ratio=float(measured_cost / opt_lower_bound),
        bound=float(bound),
        theorem=theorem,
    )
