import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spreadimpact.whittaker import (
    _ASYMPTOTIC_MAX_TERMS,
    CancellationError,
    X_SWITCH,
    _kummer_series,
    _m_series,
    _reciprocal_gamma,
    _w_asymptotic_sum,
    whittaker_w,
    whittaker_w_ratio,
)


def kummer_series_exact(a, b, x, terms=200):
    """Independent oracle: the defining series in exact rational arithmetic."""
    a, b, x = Fraction(a), Fraction(b), Fraction(x)
    total = Fraction(1)
    term = Fraction(1)
    for n in range(terms):
        term *= (a + n) * x / ((b + n) * (n + 1))
        total += term
    return float(total)


def asymptotic_sum_exact(k, m, x):
    """Independent oracle: the truncated large-argument series of
    W / (x^k e^(-x/2)) in exact rational arithmetic, with the library's term
    recurrence, stopping rules and truncation at the smallest term after the
    first. Returns (sum, smallest term / |sum|)."""
    k, m, x = Fraction(k), Fraction(m), Fraction(x)
    terms = [Fraction(1)]
    for s in range(1, _ASYMPTOTIC_MAX_TERMS):
        terms.append(terms[-1] * (m * m - (k - s + Fraction(1, 2)) ** 2)
                     / (s * x))
        if abs(terms[-1]) < 1e-18 or abs(terms[-1]) > 1e8:
            break
    best = min(range(1, len(terms)), key=lambda s: abs(terms[s]))
    total = sum(terms[: best + 1])
    return float(total), float(abs(terms[best]) / abs(total))


def asymptotic_sum_full_scan(k, m, x):
    """Reference for the early stop of ``_w_asymptotic_sum``: the same sum
    with the scan run on to a term above 1e8 or below 1e-18, or to
    _ASYMPTOTIC_MAX_TERMS terms, whatever the terms do before that. Returns
    (sum, relative error estimate, index of the smallest term)."""
    term = 1.0
    terms = [term]
    best, smallest = 0, math.inf
    peak = kept_peak = 1.0
    for s in range(1, _ASYMPTOTIC_MAX_TERMS):
        term = term * (m * m - (k - s + 0.5) ** 2) / (s * x)
        terms.append(term)
        size = abs(term)
        if size > peak:
            peak = size
        if size < smallest:
            best, smallest, kept_peak = s, size, peak
        if size < 1e-18 or size > 1e8:
            break
    total = math.fsum(terms[: best + 1])
    if kept_peak > 1e12 * abs(total):
        return total, math.inf, best
    return total, smallest / abs(total), best


def bits(values):
    return [float(v).hex() for v in values]


class TestGamma:
    # The package uses only the reciprocal, 1 / gamma, which is entire.
    def test_classical_values(self):
        assert _reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert _reciprocal_gamma(0.5) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14)
        assert _reciprocal_gamma(6.0) == pytest.approx(1.0 / 120.0, rel=1e-13)

    def test_matches_mpmath_across_working_range(self):
        # [-9.5, 1.5] holds every argument the expansion passes; none of
        # the points is a pole, but some lie within 1e-6 of one.
        mpmath = pytest.importorskip("mpmath")
        xs = np.concatenate([
            np.linspace(0.02, 50.0, 400),
            -np.linspace(0.07, 49.93, 250),
            np.linspace(-9.5, 1.5, 1101)[1::2],
            np.add.outer(-np.arange(50.0), [-1e-6, 1e-6]).ravel(),
        ])
        with mpmath.workdps(40):
            for x in xs:
                want = float(1 / mpmath.gamma(mpmath.mpf(float(x))))
                assert _reciprocal_gamma(float(x)) == pytest.approx(
                    want, rel=1e-14), x

    @pytest.mark.parametrize("x", [0.0, -1.0, -5.0, -40.0])
    def test_pole_error(self, x):
        # No error at a pole: the reciprocal takes its exact value there.
        assert _reciprocal_gamma(x) == 0.0


class TestKummer:
    @given(a=st.floats(-5, 5), b=st.floats(0.25, 6))
    def test_value_at_origin_is_one(self, a, b):
        assert _kummer_series(a, b, 0.0) == 1.0

    def test_exponential_special_case(self):
        assert _kummer_series(1.0, 1.0, 2.0) == pytest.approx(
            math.e**2, rel=1e-12)

    def test_against_exact_series_oracle(self):
        for a, b, x in [(0.75, 0.5, 2.5), (-1.3, 2.25, 7.0), (0.3, 1.5, 25.0)]:
            assert _kummer_series(a, b, x) == pytest.approx(
                kummer_series_exact(a, b, x), rel=1e-10), (a, b, x)

    def test_term_ratio_recurrence_is_followed(self):
        # Rebuild the sum with the literal term recurrence; the library value
        # must agree to within the compensation improvement.
        a, b, x = 0.7, 1.25, 9.0
        total, term = 1.0, 1.0
        for n in range(400):
            term = term * (a + n) * x / ((b + n) * (n + 1))
            total += term
        assert _kummer_series(a, b, x) == pytest.approx(total, rel=1e-12)


class TestWhittakerM:
    def test_vanishing_series_parameter(self):
        # k = m + 1/2 makes the series trivial: M = x^(m+1/2) e^(-x/2).
        for m, x in [(-0.25, 1.0), (0.25, 2.5), (0.1, 7.0)]:
            k = m + 0.5
            assert _m_series(k, m, x) == pytest.approx(
                x ** (m + 0.5) * math.exp(-x / 2), rel=1e-13)

    def test_quarter_index_point(self):
        assert _m_series(0.25, -0.25, 1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-13)

    def test_small_argument_power_law(self):
        k, m = 0.3, -0.25
        for x in (1e-4, 1e-6):
            assert _m_series(k, m, x) / x ** (m + 0.5) == pytest.approx(
                1.0, rel=1e-3)


class TestWhittakerW:
    def test_gamma_pole_kills_one_branch(self):
        # At k = 1/4, m = -1/4 one reciprocal gamma vanishes, leaving
        # W = M(k, -1/4, x) = x^(1/4) e^(-x/2) exactly.
        for x in (0.5, 2.0, 9.0):
            assert whittaker_w(0.25, -0.25, x) == pytest.approx(
                x**0.25 * math.exp(-x / 2), rel=1e-12)

    def test_generic_point_against_combination_oracle(self):
        # Independent reconstruction: exact-series Kummer + libm gamma.
        k, m, x = 0.3, -0.25, 2.0
        m_pos = x ** (0.5 + m) * math.exp(-x / 2) * kummer_series_exact(
            0.5 + m - k, 1 + 2 * m, x)
        m_neg = x ** (0.5 - m) * math.exp(-x / 2) * kummer_series_exact(
            0.5 - m - k, 1 - 2 * m, x)
        expected = math.pi / math.sin(2 * m * math.pi) * (
            -m_pos / (math.gamma(0.5 - m - k) * math.gamma(1 + 2 * m))
            + m_neg / (math.gamma(0.5 + m - k) * math.gamma(1 - 2 * m))
        )
        assert whittaker_w(k, m, x) == pytest.approx(expected, rel=1e-11)

    def test_prefactor_finite_at_quarter_index(self):
        # sin(2 m pi) = -1 at m = -1/4: no pole, value strictly positive.
        assert whittaker_w(0.6, -0.25, 3.0) > 0.0

    @given(k=st.floats(-1.5, 4.0), x=st.floats(0.2, 25.0))
    @settings(max_examples=60)
    def test_symmetric_in_second_index(self, k, x):
        try:
            w_minus = whittaker_w(k, -0.25, x)
            w_plus = whittaker_w(k, 0.25, x)
        except CancellationError:
            return
        assert w_minus == pytest.approx(w_plus, rel=1e-9)

    def test_large_argument_growth(self):
        # W / (x^k e^(-x/2)) -> 1; first correction is O(1/x). (At k = 1/4
        # the corrections vanish identically and only noise remains.)
        for k in (0.25, 0.75, 1.5):
            ratios = []
            for x in (60.0, 240.0, 960.0):
                ratios.append(whittaker_w(k, -0.25, x)
                              / (x**k * math.exp(-x / 2)))
            errs = [abs(r - 1.0) for r in ratios]
            assert errs[0] > errs[1] > errs[2] or max(errs) < 1e-12
            assert errs[2] < 1e-3

    def test_handoff_continuity_between_routes(self):
        # Series route and large-argument route agree on an overlap window.
        from spreadimpact.whittaker import (
            _refuse_cancellation, _w_asymptotic_sum, _w_combination)
        for k in (0.6, 1.7, 3.1):
            checked = 0
            for x in np.geomspace(X_SWITCH / 2, 4 * X_SWITCH, 25):
                x = float(x)
                total, err = _w_asymptotic_sum(k, -0.25, x)
                if err > 1e-7:
                    continue
                via_asym = math.exp(k * math.log(x) - 0.5 * x) * total
                try:
                    via_series, cancellation = _w_combination(k, -0.25, x)
                    _refuse_cancellation(cancellation, k, -0.25, x)
                except CancellationError:
                    continue
                checked += 1
                assert via_series == pytest.approx(via_asym, rel=1e-5), (k, x)
            assert checked >= 5

    @given(k=st.floats(-1.5, 4.0), x=st.floats(30.0, 1500.0))
    @settings(max_examples=100, deadline=None)
    def test_asymptotic_sum_matches_exact_series(self, k, x):
        from spreadimpact.whittaker import _w_asymptotic_sum
        total, err = _w_asymptotic_sum(k, -0.25, x)
        exact_total, exact_err = asymptotic_sum_exact(k, -0.25, x)
        assert total == pytest.approx(exact_total, rel=1e-13)
        assert err == pytest.approx(exact_err, rel=1e-12, abs=1e-300)

    @given(k=st.floats(-60.0, 120.0),
           m=st.one_of(st.sampled_from([0.25, -0.25]),
                       st.floats(-0.5, 0.5, exclude_min=True,
                                 exclude_max=True)),
           x=st.floats(1e-3, 1e4))
    @settings(max_examples=500, deadline=None)
    # Inside the monotone range from term 29 on, still above the smallest
    # term (term 1) and still falling: a stop there would miss term 69.
    @example(k=-28.566420296252208, m=0.23979446190971077,
             x=137.29596274953497)
    def test_early_stop_matches_full_scan(self, k, m, x):
        # The scan stops once its terms can only grow; the sum and its
        # error estimate are bitwise those of the full scan.
        assert bits(_w_asymptotic_sum(k, m, x)) == bits(
            asymptotic_sum_full_scan(k, m, x)[:2])

    def test_early_stop_waits_for_the_monotone_range(self):
        # Past A = k + 1/2 + |m| the terms grow at s = 1 and 2 and only then
        # shrink, to their smallest at term 36: stopping at the first term
        # no smaller than the one before it, without s^2 > A B, would keep
        # term 1 alone.
        k, m, x = -47.685, 0.25, 957.51
        *reference, best = asymptotic_sum_full_scan(k, m, x)
        assert best == 36
        assert (m * m - (k - 0.5) ** 2) / x < -1.0  # |term 1| > term 0
        assert bits(_w_asymptotic_sum(k, m, x)) == bits(reference)

    def test_cancellation_monitor_trips(self):
        # Small first index near the switch: the combination cancels more
        # than ten digits and must be refused rather than returned.
        from spreadimpact.whittaker import _refuse_cancellation, _w_combination
        _, cancellation = _w_combination(0.05, -0.25, 29.5)
        with pytest.raises(CancellationError):
            _refuse_cancellation(cancellation, 0.05, -0.25, 29.5)

    def test_series_cancellation_is_refused(self):
        # Where the expansion's march starts at K = 1e-3 on the base market,
        # the kept large-argument terms peak near 4e6 for a sum of 2e-10 and
        # the Kummer series cancels 16 digits: the ratio came out 127.47
        # against mpmath's 174.21. Neither series may pass such a sum on.
        from spreadimpact.whittaker import _w_asymptotic_sum
        k, m, x = 92.32372984836786, -0.25, 406.16447272510277
        assert _w_asymptotic_sum(k, m, x)[1] == math.inf
        with pytest.raises(CancellationError):
            _kummer_series(0.5 + m - k, 1.0 + 2.0 * m, x)
        with pytest.raises(CancellationError):
            whittaker_w_ratio(k, m, x)

    def test_ratio_survives_extreme_arguments(self):
        # The individual W values underflow near x ~ 1400; the ratio must not.
        r = whittaker_w_ratio(2.0, -0.25, 1421.0)
        assert r == pytest.approx(1421.0, rel=0.02)

    def test_below_switch_against_mpmath(self):
        # Where the combination cancels up to ~12 digits below X_SWITCH, the
        # certified large-argument series takes over: W is accurate to
        # 1e-10 relative, not just the combination's ~1e-5.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in (0.2, 0.2574, 0.3, 0.5):
                for x in np.linspace(20.0, 29.5, 20):
                    want = float(mpmath.whitw(k, -0.25, float(x)))
                    assert whittaker_w(k, -0.25, float(x)) == pytest.approx(
                        want, rel=1e-10), (k, x)

    @pytest.mark.parametrize("evaluate", [whittaker_w, whittaker_w_ratio],
                             ids=lambda f: f.__name__)
    def test_rejects_integer_two_m(self, evaluate):
        for m in (0.5, 0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="2m not an integer"):
                evaluate(0.3, m, 2.0)

    @pytest.mark.parametrize("evaluate", [whittaker_w, whittaker_w_ratio],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("x", [0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_rejects_nonpositive_x(self, evaluate, x):
        with pytest.raises(ValueError, match="x > 0"):
            evaluate(0.3, -0.25, x)
