"""Gamma, Kummer, and Whittaker functions on the ranges the expansion needs.

The decaying confluent solution ``whittaker_w`` is evaluated by two routes:
below ``X_SWITCH`` through its defining combination of the regular solutions
(each a Kummer series), above it through the divergent large-argument series
truncated at its smallest term. The combination route cancels catastrophically
as the argument grows, so it carries a loss-of-significance monitor; callers
that trip it fall back to direct integration of the underlying Riccati
equation (see the asymptotic module). Below ``X_SWITCH`` both
``whittaker_w`` and the ratio ``whittaker_w_ratio`` take the large-argument
route where its error estimate beats the combination's.

This is not a general special-function library: real arguments only, second
index away from half-integers (here always +-1/4), accuracy validated on the
parameter ranges produced by the small-cost expansion.
"""

from __future__ import annotations

import math

__all__ = [
    "CANCELLATION_DIGITS_LIMIT",
    "CancellationError",
    "GammaPoleError",
    "KummerRangeError",
    "SpecialFunctionError",
    "X_SWITCH",
    "gamma_fn",
    "kummer_1f1",
    "whittaker_m",
    "whittaker_w",
    "whittaker_w_ratio",
]

# Handoff between the series route and the large-argument route.
X_SWITCH = 30.0
# Decimal digits the combination route may cancel before it is rejected.
CANCELLATION_DIGITS_LIMIT = 10.0
# Certification threshold for the truncated large-argument series; stricter
# than the advertised 1e-6 so the handoff test has headroom.
_ASYMPTOTIC_CERTIFY = 1e-7
# Relative rounding error of the combination before its cancellation.
_ROUNDOFF = math.ulp(1.0)
_SERIES_MAX_TERMS = 800
_ASYMPTOTIC_MAX_TERMS = 120


class SpecialFunctionError(ArithmeticError):
    """Base class for special-function evaluation failures."""


class GammaPoleError(SpecialFunctionError):
    """Evaluation requested at (or conditioned on) a gamma-function pole."""


class KummerRangeError(SpecialFunctionError):
    """Argument outside the range where the direct series is certified."""


class CancellationError(SpecialFunctionError):
    """The defining combination lost more significant digits than allowed."""


# Lanczos rational approximation, g = 7, 9 coefficients. Relative accuracy is
# a few ulps on the positive axis; the reflection formula extends it to
# negative non-integer arguments.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _lanczos_positive(x: float) -> float:
    """Gamma(x) for x > 0.5 via the Lanczos sum."""
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


def gamma_fn(x: float) -> float:
    """Euler gamma function for real non-pole arguments.

    Raises
    ------
    GammaPoleError
        If ``x`` is zero or a negative integer.
    """
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"gamma pole at x={x!r}")
    if x >= 0.5:
        return _lanczos_positive(x)
    # Reflection: gamma(x) = pi / (sin(pi x) * gamma(1 - x)).
    return math.pi / (math.sin(math.pi * x) * _lanczos_positive(1.0 - x))


def _reciprocal_gamma(x: float) -> float:
    """1 / gamma(x), with the entire-function value 0 at the poles."""
    if _is_nonpositive_integer(x):
        return 0.0
    if x >= 0.5:
        return 1.0 / _lanczos_positive(x)
    return math.sin(math.pi * x) * _lanczos_positive(1.0 - x) / math.pi


def _kummer_series(a: float, b: float, x: float) -> float:
    """Defining series of 1F1, its terms summed exactly rounded (fsum).

    The term recurrence term_{n+1} = term_n * (a+n) x / ((b+n)(n+1)) is used
    verbatim; no rearrangement of the summand. The running sum only decides
    where to stop.
    """
    term = 1.0
    terms = [term]
    total = term
    for n in range(_SERIES_MAX_TERMS):
        term = term * (a + n) * x / ((b + n) * (n + 1))
        terms.append(term)
        total += term
        if abs(term) <= 1e-17 * abs(total) and n >= 4:
            break
    return math.fsum(terms)


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric function 1F1(a, b, x) by direct series.

    Certified to ~1e-10 relative accuracy for |x| <= X_SWITCH; larger
    arguments are refused so callers switch to the asymptotic route.
    Negative arguments go through the reflection e^x 1F1(b-a, b, -x), whose
    series is free of the cancellation the direct sum suffers for x < 0.
    """
    if _is_nonpositive_integer(b):
        raise GammaPoleError(f"1F1 undefined for b={b!r} (nonpositive integer)")
    if abs(x) > X_SWITCH:
        raise KummerRangeError(
            f"|x|={abs(x):g} exceeds the series range {X_SWITCH:g}; "
            "use the asymptotic route"
        )
    if x < 0.0:
        return math.exp(x) * _kummer_series(b - a, b, -x)
    return _kummer_series(a, b, x)


def _m_series(k: float, m: float, x: float) -> float:
    """M(k, m, x) = x^(1/2+m) e^(-x/2) 1F1(1/2+m-k, 1+2m, x) for x > 0, by
    the direct series at any x."""
    return x ** (0.5 + m) * math.exp(-0.5 * x) * _kummer_series(
        0.5 + m - k, 1.0 + 2.0 * m, x
    )


def whittaker_m(k: float, m: float, x: float) -> float:
    """Regular Whittaker function M(k, m, x) = x^(1/2+m) e^(-x/2) 1F1(...),
    certified like ``kummer_1f1`` for x <= X_SWITCH."""
    if x <= 0.0:
        raise ValueError(f"whittaker_m requires x > 0, got {x!r}")
    if _is_nonpositive_integer(1.0 + 2.0 * m):
        raise GammaPoleError(f"M undefined for 1+2m={1.0 + 2.0 * m!r}")
    if x > X_SWITCH:
        raise KummerRangeError(
            f"x={x:g} exceeds the series range {X_SWITCH:g}; "
            "use the asymptotic route"
        )
    return _m_series(k, m, x)


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
    term, and the kept terms are summed exactly rounded (fsum).
    """
    term = 1.0
    terms = [term]
    best, smallest = 0, math.inf
    for s in range(1, _ASYMPTOTIC_MAX_TERMS):
        term = term * (m * m - (k - s + 0.5) ** 2) / (s * x)
        terms.append(term)
        if abs(term) < smallest:
            best, smallest = s, abs(term)
        if abs(term) < 1e-18:
            break
        if abs(term) > 1e8:
            break
    total = math.fsum(terms[: best + 1])
    if total == 0.0:
        return total, math.inf
    return total, smallest / abs(total)


def whittaker_w(k: float, m: float, x: float) -> float:
    """Decaying Whittaker function W(k, m, x), x > 0, 2m not an integer.

    Routes as ``whittaker_w_ratio`` does: above X_SWITCH the truncated
    large-argument series, matching W ~ x^k e^(-x/2), wherever it certifies
    1e-7 relative accuracy; below it the defining combination, unless the
    certified series has the smaller error estimate. A CancellationError is
    raised if the combination is needed and loses more than
    CANCELLATION_DIGITS_LIMIT digits.
    """
    if x <= 0.0:
        raise ValueError(f"whittaker_w requires x > 0, got {x!r}")
    if 2.0 * m == math.floor(2.0 * m):
        raise ValueError(f"whittaker_w requires 2m not an integer, got m={m!r}")
    total, err = _w_asymptotic_sum(k, m, x)
    certified = err <= _ASYMPTOTIC_CERTIFY
    if not (certified and x > X_SWITCH):
        try:
            value, cancellation = _w_combination(k, m, x)
        except CancellationError:
            if not certified:
                raise
        else:
            if not (certified and err < _ROUNDOFF * cancellation):
                _refuse_cancellation(cancellation, k, m, x)
                return value
    return math.exp(k * math.log(x) - 0.5 * x) * total


def whittaker_w_ratio(k: float, m: float, x: float) -> float:
    """W(k+1, m, x) / W(k, m, x) without forming the huge or tiny factors.

    On the large-argument route the common x^k e^(-x/2) scale cancels
    analytically, keeping the ratio finite far beyond the range where the
    individual W values overflow or underflow. Above X_SWITCH that route is
    taken whenever it certifies. Below it the combination, whose rounding
    error grows with its cancellation (to about 1e-5 relative near
    X_SWITCH at k ~ 1/4), gives way to a certified large-argument series
    with a smaller error estimate.
    """
    if x <= 0.0:
        raise ValueError(f"whittaker_w_ratio requires x > 0, got {x!r}")
    num, err_num = _w_asymptotic_sum(k + 1.0, m, x)
    den, err_den = _w_asymptotic_sum(k, m, x)
    err = max(err_num, err_den) if den != 0.0 else math.inf
    certified = err <= _ASYMPTOTIC_CERTIFY
    if certified and x > X_SWITCH:
        return x * num / den
    try:
        w_num, cancel_num = _w_combination(k + 1.0, m, x)
        w_den, cancel_den = _w_combination(k, m, x)
    except CancellationError:
        if certified:
            return x * num / den
        raise
    cancellation = max(cancel_num, cancel_den)
    if certified and err < _ROUNDOFF * cancellation:
        return x * num / den
    _refuse_cancellation(cancellation, k, m, x)
    return w_num / w_den
