"""Market primitives, frictionless rates, and buy-and-hold regimes.

One safe asset (normalized to one) and one risky asset following geometric
Brownian motion with excess drift ``mu`` and volatility ``sigma``. Trading is
penalized by a relative half-spread ``epsilon`` (cost linear in turnover) and
a price-impact coefficient ``lam`` (cost quadratic in turnover; ``1/lam`` is
market depth). The investor has constant relative risk aversion ``gamma`` and
maximizes the long-run equivalent safe rate. All rates are per year, entered
as decimal fractions. ``MarketParams`` checks every model constraint when it
is built, so every instance in the program is valid.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

__all__ = [
    "AllocationRegime",
    "MarketParams",
    "ParameterError",
    "buy_and_hold_esr",
    "degenerate_regime",
]


class ParameterError(ValueError):
    """Market parameters violate a model constraint."""


def _real_number(name: str, value) -> float:
    """``value`` as a float, or ``ValueError`` naming the field ``name``: a
    bool or a value that is not a ``numbers.Real`` is refused, and so is one
    that is infinite or beyond the float range. NaN is returned for the
    caller to refuse: it fails every range check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number (got {value!r})")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must be finite (got a value beyond the float range)"
        ) from None
    if math.isinf(number):
        raise ValueError(f"{name} must be finite (got {number!r})")
    return number


@dataclass(frozen=True)
class MarketParams:
    """Annualized market and preference inputs.

    Attributes
    ----------
    mu : float
        Expected excess return of the risky asset.
    sigma : float
        Volatility of the risky asset (per sqrt-year).
    gamma : float
        Relative risk aversion; positive and different from 1.
    epsilon : float
        Relative half-spread (proportional cost per unit traded).
    lam : float
        Price-impact coefficient; the quadratic-cost weight per unit of
        wealth turnover. ``1/lam`` measures market depth.

    Each field must be a finite real number other than a bool, and is
    stored as a float.
    """

    mu: float
    sigma: float
    gamma: float
    epsilon: float
    lam: float

    def __post_init__(self):
        # A field that is refused as not real or not finite reads as NaN in
        # ``finite``, so the checks below skip it.
        problems = []
        finite = {}
        for name in ("mu", "sigma", "gamma", "epsilon", "lam"):
            try:
                value = _real_number(name, getattr(self, name))
            except ValueError as exc:
                problems.append(str(exc))
                value = math.nan
            else:
                object.__setattr__(self, name, value)
                if math.isnan(value):
                    problems.append(f"{name} must be finite (got nan)")
            finite[name] = value
        if finite["sigma"] <= 0.0:
            problems.append("sigma must be positive")
        if finite["gamma"] <= 0.0:
            problems.append("gamma must be positive")
        elif finite["gamma"] == 1.0:
            problems.append(
                "gamma must differ from 1 (utility is power, not log)"
            )
        if finite["epsilon"] < 0.0:
            problems.append("epsilon must be nonnegative")
        if finite["epsilon"] >= 1.0:
            problems.append("epsilon must be below 1")
        if finite["lam"] < 0.0:
            problems.append("lambda must be nonnegative")
        if problems:
            raise ParameterError("; ".join(problems))

    @property
    def merton_weight(self) -> float:
        """Frictionless optimal risky weight mu / (gamma * sigma**2)."""
        return self.mu / (self.gamma * self.sigma**2)

    @property
    def frictionless_esr(self) -> float:
        """Equivalent safe rate of the frictionless optimum."""
        return self.mu**2 / (2.0 * self.gamma * self.sigma**2)

    @property
    def full_risky_esr(self) -> float:
        """Equivalent safe rate of holding only the risky asset."""
        return self.mu - self.gamma * self.sigma**2 / 2.0


class AllocationRegime(enum.Enum):
    """Which long-run policy type applies for the given parameters."""

    INTERIOR = "interior"
    FULL_SAFE = "full_safe"
    FULL_RISKY = "full_risky"


def friction_loss(params: MarketParams) -> float:
    """G, the sum of the two one-friction welfare losses at the frictionless
    weight y*: the pure-spread loss (gamma sigma^2 / 2) hw^2 with half-width
    hw = (3/(4 gamma) y*^2 (1-y*)^2 2 eps)^(1/3) (Janecek & Shreve 2004),
    plus the pure-impact loss C sqrt(lam) with C = v^2 sqrt(2 gamma
    sigma^2) / 2, v = sigma y* (1-y*) (Garleanu & Pedersen 2013). The
    exact loss lies close below it: in [0.64, 1.00] times G on the 203
    sampled inputs of the README's domain table that solve."""
    y = params.merton_weight
    gs2 = params.gamma * params.sigma**2
    v = params.sigma * y * (1.0 - y)
    half_width = (3.0 / (4.0 * params.gamma) * (y * (1.0 - y)) ** 2
                  * 2.0 * params.epsilon) ** (1.0 / 3.0)
    return (0.5 * gs2 * half_width**2
            + 0.5 * v * v * math.sqrt(2.0 * gs2 * params.lam))


def degenerate_regime(params: MarketParams) -> AllocationRegime:
    """Classify the parameters into interior or buy-and-hold regimes.

    When the frictionless weight falls outside (0, 1), holding the
    corresponding corner portfolio without ever trading is long-run optimal;
    the free-boundary problem only applies in the interior regime.
    """
    y_star = params.merton_weight
    if y_star <= 0.0:
        return AllocationRegime.FULL_SAFE
    if y_star >= 1.0:
        return AllocationRegime.FULL_RISKY
    return AllocationRegime.INTERIOR


def _require_interior(params: MarketParams) -> None:
    """Raise ``ParameterError`` unless the parameters are interior."""
    if degenerate_regime(params) is not AllocationRegime.INTERIOR:
        raise ParameterError(
            "parameters are in a buy-and-hold regime; the free-boundary "
            "problem only applies when 0 < mu/(gamma sigma^2) < 1"
        )


def buy_and_hold_esr(params: MarketParams) -> float:
    """Equivalent safe rate of the optimal buy-and-hold corner.

    Only defined in the degenerate regimes; raises ``ValueError`` for
    interior parameters, where the free-boundary solver is required.
    """
    regime = degenerate_regime(params)
    if regime is AllocationRegime.FULL_SAFE:
        return 0.0
    if regime is AllocationRegime.FULL_RISKY:
        return params.full_risky_esr
    raise ValueError(
        "interior regime has no buy-and-hold optimum; solve the free-boundary "
        "problem instead"
    )
