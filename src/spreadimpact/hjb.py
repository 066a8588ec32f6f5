"""The long-run ODE for the marginal-value function q(y), in one place.

q solves a first-order ODE whose right-hand side switches between three
regimes: buying (q above the curve eps/(1+eps*y)), selling (q below
-eps/(1-eps*y)), and no trading in between. Every closure below picks the
regime from the sign of the trade signal w = q -+ eps (1-yq): buy if
q - eps (1-yq) >= 0, else sell if q + eps (1-yq) <= 0. The friction bracket
w^2/(4 lam (1-yq)) vanishes on the regime curves, where w = 0, so the slope
field is continuous. This module holds the one equation twice, nowhere else:

- :func:`make_rhs_jac`, scalar closures for the slope and its q-derivative
  (the integrator's hot path);
- :func:`make_defect`, a scalar closure for its residual relative to its
  largest term: the final legs' per-step defect test and the solution's
  residual check both call it.

The residual could reuse the slope as coef (q' - rhs(y, q)), but its scale
needs the terms one by one: written out it takes 0.94 us per point against
1.40 us through ``rhs`` (2-vCPU Xeon, Python 3.11.7).

It also holds the boundary data at y = 0 and y = 1 and the pointwise
optimal turnover. Integrating the equation is the job of the solver.
"""

from __future__ import annotations

import math

import numpy as np

from .market import MarketParams

__all__ = [
    "BoundaryDataError",
    "band_buy",
    "band_sell",
    "boundary_value_0",
    "boundary_value_1",
    "make_defect",
    "make_rhs_jac",
    "optimal_turnover",
]


class BoundaryDataError(ValueError):
    """Boundary value/derivative formula not usable for these inputs."""


def band_buy(y: float, epsilon: float) -> float:
    """Upper no-trade curve eps / (1 + eps*y)."""
    return epsilon / (1.0 + epsilon * y)


def band_sell(y: float, epsilon: float) -> float:
    """Lower no-trade curve -eps / (1 - eps*y)."""
    return -epsilon / (1.0 - epsilon * y)


def make_rhs_jac(params: MarketParams, beta: float):
    """Fast closures for the slope field and its q-derivative.

    Both branch on the sign of w as :func:`make_defect` does; the bracket's
    derivative is one expression, with dw = 1 +- eps y. Beyond the singular
    curve (q y >= 1, where w > 0) the slope returns -inf, which the
    integrator treats as a failed trial, and the Jacobian 0.
    """
    mu = params.mu
    eps = params.epsilon
    lam = params.lam
    gs2 = params.gamma * params.sigma**2
    s2 = params.sigma**2
    one_minus_gamma = 1.0 - params.gamma

    def rhs(y: float, q: float) -> float:
        one = 1.0 - y * q
        w = q - eps * one
        if w >= 0.0:
            if one <= 0.0:
                return -math.inf
            bracket = w * w / (4.0 * lam * one)
        else:
            w = q + eps * one
            bracket = w * w / (4.0 * lam * one) if w <= 0.0 else 0.0
        coef = 0.5 * s2 * y * y * (1.0 - y) * (1.0 - y)
        alg = (-beta + mu * y - 0.5 * gs2 * y * y
               + y * (1.0 - y) * (mu - gs2 * y) * q + bracket)
        return -alg / coef - one_minus_gamma * q * q

    def jac(y: float, q: float) -> float:
        one = 1.0 - y * q
        w = q - eps * one
        if w >= 0.0:
            if one <= 0.0:
                return 0.0
            dw = 1.0 + eps * y
        else:
            w = q + eps * one
            if w > 0.0:
                w = 0.0  # inside the band nothing trades
            dw = 1.0 - eps * y
        # w = 0 skips the division: a quarter of a call inside the band.
        dbracket = ((2.0 * w * dw * one + w * w * y) / (4.0 * lam * one * one)
                    if w != 0.0 else 0.0)
        coef = 0.5 * s2 * y * y * (1.0 - y) * (1.0 - y)
        return (-(y * (1.0 - y) * (mu - gs2 * y) + dbracket) / coef
                - 2.0 * one_minus_gamma * q)

    return rhs, jac


def make_defect(params: MarketParams, beta: float, tol: float):
    """Fast closure ``(y, q, q') -> ratio``: the equation's residual at a
    point relative to its largest additive term and to ``tol``.

    It serves both the final legs' per-step defect test and the solution's
    residual check. Beyond the singular curve (q y >= 1) the ratio is inf.
    """
    mu = params.mu
    eps = params.epsilon
    lam = params.lam
    gs2 = params.gamma * params.sigma**2
    s2 = params.sigma**2
    one_minus_gamma = 1.0 - params.gamma
    abs_beta = abs(beta)

    def defect(y: float, q: float, q_prime: float) -> float:
        one = 1.0 - y * q
        w = q - eps * one
        if w >= 0.0:
            if one <= 0.0:
                return math.inf
            bracket = w * w / (4.0 * lam * one)
        else:
            w = q + eps * one
            bracket = w * w / (4.0 * lam * one) if w <= 0.0 else 0.0
        coef = 0.5 * s2 * y * y * ((1.0 - y) * (1.0 - y))
        a = mu * y
        b = 0.5 * gs2 * y * y
        c = y * (1.0 - y) * (mu - gs2 * y) * q
        d = coef * (q_prime + one_minus_gamma * q * q)
        return abs(-beta + a - b + c + d + bracket) / (
            tol * max(abs_beta, abs(a), b, abs(c), abs(d), bracket))

    return defect


def boundary_value_0(params: MarketParams, beta: float) -> tuple[float, float]:
    """Value and derivative of q at y = 0+.

    The value eps + 2 sqrt(lam beta) is the root of the equation's leading
    balance at full safe investment; the derivative keeps the trading rate
    finite and positive there. Requires beta > 0 (the derivative formula has
    a 1/sqrt(beta) factor).
    """
    if beta <= 0.0:
        raise BoundaryDataError(
            f"y=0 derivative needs beta > 0 (got {beta!r}); bisect strictly "
            "inside the bracket"
        )
    q0 = params.epsilon + 2.0 * math.sqrt(params.lam * beta)
    dq0 = (
        -math.sqrt(params.lam / beta) * (params.mu + (params.mu + beta) * q0)
        - params.epsilon * q0
    )
    return q0, dq0


def boundary_value_1(params: MarketParams, beta: float) -> float:
    """Value of q at y = 1-, the negative root of the leading balance at
    full risky investment."""
    eps = params.epsilon
    d = -params.gamma * params.sigma**2 - 2.0 * beta + 2.0 * params.mu
    radicand = params.lam * d * (params.lam * d - 2.0 + 2.0 * eps)
    if radicand < 0.0:
        raise BoundaryDataError(
            f"negative radicand at beta={beta!r} (d={d:g}); beta is outside "
            "the admissible bracket for these frictions"
        )
    return (params.lam * d - eps * (1.0 - eps) - math.sqrt(radicand)) / (
        1.0 - eps
    ) ** 2


def optimal_turnover(y, q, epsilon: float, lam: float):
    """Turnover maximizing -lam u^2 - eps|u| + (u + eps|u| y + lam y u^2) q.

    Positive (buying) where the marginal value q/(1 - y q) exceeds the
    half-spread, negative (selling) below -eps, zero in between
    (vectorized). Meaningful under the second-order condition q y < 1.
    """
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    marginal = q / (1.0 - y * q)
    two_lam = 2.0 * lam
    return np.where(marginal >= epsilon, (marginal - epsilon) / two_lam,
                    np.where(marginal <= -epsilon,
                             (marginal + epsilon) / two_lam, 0.0))
