"""Whittaker functions on the ranges the small-cost expansion needs.

The decaying confluent solution W(k, m, x) is evaluated by two routes: its
defining combination of the regular solutions (each a Kummer series), and the
divergent large-argument series truncated at its smallest term. The
combination cancels catastrophically as the argument grows, so it carries a
loss-of-significance monitor, and each series is watched for cancellation
among its own terms: a Kummer series that cancels too far raises
``CancellationError``, and a large-argument sum that does is not certified.
A ``CancellationError`` reaches the caller.
``whittaker_w`` and the ratio ``whittaker_w_ratio`` share one route rule:
above ``X_SWITCH`` the large-argument series wherever it certifies, below it
the combination, unless the certified series has the smaller error estimate.

This is not a general special-function library: real arguments only, second
index away from half-integers (here always +-1/4), accuracy validated on the
parameter ranges produced by the small-cost expansion.
"""

from __future__ import annotations

import math

__all__ = [
    "CancellationError",
    "SpecialFunctionError",
    "whittaker_w",
    "whittaker_w_ratio",
]

# Handoff between the series route and the large-argument route.
X_SWITCH = 30.0
# Decimal digits the combination route may cancel before it is rejected.
CANCELLATION_DIGITS_LIMIT = 10.0
# A series whose largest summed term exceeds this multiple of its sum has
# cancelled too far for its rounded terms to fix the sum: the Kummer series
# raises CancellationError and the large-argument series is not certified.
# Looser than CANCELLATION_DIGITS_LIMIT, because the expansion's accurate
# roots need up to 11.3 digits of it and its wrong ones cancel 13.7 or more.
_SERIES_CANCELLATION_LIMIT = 1e12
# Certification threshold for the truncated large-argument series; stricter
# than the advertised 1e-6 so the handoff test has headroom.
_ASYMPTOTIC_CERTIFY = 1e-7
# Relative rounding error of the combination before its cancellation.
_ROUNDOFF = math.ulp(1.0)
_SERIES_MAX_TERMS = 800
_ASYMPTOTIC_MAX_TERMS = 120


class SpecialFunctionError(ArithmeticError):
    """Base class for special-function evaluation failures."""


class CancellationError(SpecialFunctionError):
    """The defining combination lost more significant digits than allowed."""


def _reciprocal_gamma(x: float) -> float:
    """1 / gamma(x), with the entire-function value 0 at the poles."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _kummer_series(a: float, b: float, x: float) -> float:
    """Defining series of 1F1, its terms summed exactly rounded (fsum).

    The term recurrence term_{n+1} = term_n * (a+n) x / ((b+n)(n+1)) is used
    verbatim; no rearrangement of the summand. The running sum only decides
    where to stop. Raises CancellationError when the largest term exceeds
    _SERIES_CANCELLATION_LIMIT times the sum.
    """
    term = 1.0
    terms = [term]
    total = term
    peak = 1.0
    for n in range(_SERIES_MAX_TERMS):
        term = term * (a + n) * x / ((b + n) * (n + 1))
        terms.append(term)
        total += term
        size = abs(term)
        if size > peak:
            peak = size
        if size <= 1e-17 * abs(total) and n >= 4:
            break
    value = math.fsum(terms)
    if peak > _SERIES_CANCELLATION_LIMIT * abs(value):
        raise CancellationError(
            f"Kummer series cancels: largest term {peak:g} for a sum of "
            f"{value:g} at a={a:g}, b={b:g}, x={x:g}"
        )
    return value


def _m_series(k: float, m: float, x: float) -> float:
    """M(k, m, x) = x^(1/2+m) e^(-x/2) 1F1(1/2+m-k, 1+2m, x) for x > 0, by
    the direct series at any x."""
    return x ** (0.5 + m) * math.exp(-0.5 * x) * _kummer_series(
        0.5 + m - k, 1.0 + 2.0 * m, x
    )


def _w_combination(k: float, m: float, x: float) -> tuple[float, float]:
    """W via its defining M-combination, and the factor (at least 1) by
    which the combination cancels."""
    if x > 600.0:
        # e^(x/2) overflows the combination long before this point.
        raise CancellationError(
            f"combination route unusable at x={x:g} (exponential overflow)"
        )
    t1 = (-_m_series(k, m, x) * _reciprocal_gamma(0.5 - m - k)
          * _reciprocal_gamma(1.0 + 2.0 * m))
    t2 = (_m_series(k, -m, x) * _reciprocal_gamma(0.5 + m - k)
          * _reciprocal_gamma(1.0 - 2.0 * m))
    combined = t1 + t2
    biggest = max(abs(t1), abs(t2))
    if combined == 0.0 and biggest > 0.0:
        raise CancellationError(f"complete cancellation at k={k:g}, x={x:g}")
    cancellation = biggest / abs(combined) if biggest > 0.0 else 1.0
    return math.pi / math.sin(2.0 * m * math.pi) * combined, cancellation


def _refuse_cancellation(cancellation: float, k: float, m: float,
                         x: float) -> None:
    """The cancellation monitor: raise beyond CANCELLATION_DIGITS_LIMIT."""
    digits_lost = math.log10(cancellation)
    if digits_lost > CANCELLATION_DIGITS_LIMIT:
        raise CancellationError(
            f"combination cancels {digits_lost:.1f} digits at "
            f"k={k:g}, m={m:g}, x={x:g}"
        )


def _w_asymptotic_sum(k: float, m: float, x: float) -> tuple[float, float]:
    """Truncated large-argument series for W / (x^k e^(-x/2)).

    Returns (sum, relative error estimate). Terms may grow before they
    shrink when k is large; truncation is at the smallest term after the
    first (the earliest one on a tie), with the error estimated by that
    term, and the kept terms are summed exactly rounded (fsum). The estimate
    is infinite (the sum is not certified) when the largest kept term
    exceeds _SERIES_CANCELLATION_LIMIT times the sum.

    The scan stops at a term above 1e8, below 1e-18, or once the terms can
    only grow. The ratio of term s to term s-1 has size (s-A)(s-B)/(s x),
    A, B = k + 1/2 +- |m|, and for s > A with s^2 > A B that ratio
    increases with s (by more than 1/((s+1) x) per step, far above its
    rounding). A term there no smaller than the one before it therefore
    means that no later term is smaller: the smallest term, and with it
    the sum and its estimate, are fixed, and the scan stops.
    """
    term = 1.0
    terms = [term]
    best, smallest = 0, math.inf
    peak = kept_peak = previous = 1.0
    upper = k + 0.5 + abs(m)
    product = upper * (k + 0.5 - abs(m))
    for s in range(1, _ASYMPTOTIC_MAX_TERMS):
        term = term * (m * m - (k - s + 0.5) ** 2) / (s * x)
        terms.append(term)
        size = abs(term)
        if size > peak:
            peak = size
        if size < smallest:
            best, smallest, kept_peak = s, size, peak
        elif size >= previous and s > upper and s * s > product:
            break
        if size < 1e-18 or size > 1e8:
            break
        previous = size
    total = math.fsum(terms[: best + 1])
    if kept_peak > _SERIES_CANCELLATION_LIMIT * abs(total):
        return total, math.inf
    return total, smallest / abs(total)


def _w_route(ks: tuple[float, ...], m: float,
             x: float) -> tuple[bool, tuple[float, ...]]:
    """The route rule shared by ``whittaker_w`` and ``whittaker_w_ratio``.

    Evaluates W(k, m, x) for each k in ``ks`` by one common route and returns
    (large_argument, values). On the large-argument route the values are the
    truncated sums W / (x^k e^(-x/2)); otherwise they are W itself, from the
    defining combination. Above X_SWITCH the large-argument series is taken
    whenever it certifies 1e-7 relative accuracy. Below it the combination,
    whose rounding error grows with its cancellation (to about 1e-5 relative
    near X_SWITCH at k ~ 1/4), gives way only to a certified series with a
    smaller error estimate. Error estimates and cancellations are maxed over
    ``ks``. A CancellationError is raised if the combination is needed and
    loses more than CANCELLATION_DIGITS_LIMIT digits, and a ValueError
    unless x is finite and x > 0, and m is finite and 2m is not an integer.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"Whittaker W requires finite x > 0, got {x!r}")
    if not math.isfinite(m) or 2.0 * m == math.floor(2.0 * m):
        raise ValueError(
            f"Whittaker W requires finite m with 2m not an integer, got m={m!r}")
    sums, errs = zip(*[_w_asymptotic_sum(k, m, x) for k in ks])
    err = max(errs)
    certified = err <= _ASYMPTOTIC_CERTIFY
    if certified and x > X_SWITCH:
        return True, sums
    try:
        values, cancels = zip(*[_w_combination(k, m, x) for k in ks])
    except CancellationError:
        if certified:
            return True, sums
        raise
    cancellation = max(cancels)
    if certified and err < _ROUNDOFF * cancellation:
        return True, sums
    _refuse_cancellation(cancellation, min(ks), m, x)
    return False, values


def whittaker_w(k: float, m: float, x: float) -> float:
    """Decaying Whittaker function W(k, m, x), for finite x > 0 and finite m
    with 2m not an integer.

    Routed by the rule it shares with ``whittaker_w_ratio`` (``_w_route``),
    which raises CancellationError where the combination is needed but
    cancels too far. On the large-argument route W is x^k e^(-x/2) times the
    truncated series.
    """
    large_argument, (value,) = _w_route((k,), m, x)
    if large_argument:
        return math.exp(k * math.log(x) - 0.5 * x) * value
    return value


def whittaker_w_ratio(k: float, m: float, x: float) -> float:
    """W(k+1, m, x) / W(k, m, x) without forming the huge or tiny factors.

    Both W values take one route, and the same arguments are refused, by
    the rule shared with ``whittaker_w``.
    On the large-argument route the common x^k e^(-x/2) scale cancels
    analytically, keeping the ratio finite far beyond the range where the
    individual W values overflow or underflow.
    """
    large_argument, (num, den) = _w_route((k + 1.0, k), m, x)
    return x * num / den if large_argument else num / den
