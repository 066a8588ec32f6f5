import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spreadimpact.hjb import (
    BoundaryDataError,
    band_buy,
    band_sell,
    boundary_value_0,
    boundary_value_1,
    make_defect,
    make_rhs_jac,
    optimal_turnover,
)
from spreadimpact._radau import PiecewisePolynomial
from spreadimpact.market import MarketParams
from spreadimpact.solver import RTOL, _residual_ratio


def make(mu=0.08, sigma=0.16, gamma=5.0, epsilon=0.01, lam=0.01):
    return MarketParams(mu=mu, sigma=sigma, gamma=gamma, epsilon=epsilon,
                        lam=lam)


FRICTIONLESS_RATE = 0.025  # mu^2 / (2 gamma sigma^2) for the base case


def rhs_of(p, beta):
    return make_rhs_jac(p, beta)[0]


def no_trade_slope(p, beta, y, q):
    """The slope with the friction bracket dropped, written out by hand."""
    gs2 = p.gamma * p.sigma**2
    coef = 0.5 * p.sigma**2 * y**2 * (1 - y) ** 2
    return -(-beta + p.mu * y - 0.5 * gs2 * y**2
             + y * (1 - y) * (p.mu - gs2 * y) * q) / coef \
        - (1 - p.gamma) * q * q


def turnover(y, q, p):
    return float(optimal_turnover(y, q, p.epsilon, p.lam))


class TestClassify:
    # The regime at (y, q) is the sign of the optimal turnover there.

    def test_zero_marginal_value_is_no_trade(self):
        assert turnover(0.3, 0.0, make(epsilon=0.01)) == 0.0

    def test_boundary_start_is_buying(self):
        lam, beta = 0.01, 0.025
        q0 = 0.01 + 2 * math.sqrt(lam * beta)
        assert turnover(0.0, q0, make(epsilon=0.01, lam=lam)) > 0.0

    def test_zero_spread_collapses_band(self):
        p = make(epsilon=0.0)
        assert turnover(0.4, 1e-300, p) > 0.0
        assert turnover(0.4, -1e-300, p) < 0.0
        assert turnover(0.4, 0.0, p) == 0.0  # on the curve nothing trades

    def test_band_curves(self):
        y, p = 0.3, make(epsilon=0.02)
        assert turnover(y, band_buy(y, p.epsilon) + 1e-12, p) > 0.0
        assert turnover(y, band_sell(y, p.epsilon) - 1e-12, p) < 0.0
        assert turnover(y, 0.5 * band_sell(y, p.epsilon), p) == 0.0


class TestSlope:
    def test_flat_at_target_with_frictionless_rate(self):
        # At (y*, 0) with beta = mu^2/(2 gamma sigma^2) every term cancels.
        rhs = rhs_of(make(), FRICTIONLESS_RATE)
        assert rhs(0.625, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_pure_impact_reduction(self):
        # With zero spread the buy bracket is q^2 / (4 lam (1 - y q)).
        p = make(epsilon=0.0)
        beta = 0.024
        y, q = 0.4, 0.015
        gs2 = p.gamma * p.sigma**2
        coef = 0.5 * p.sigma**2 * y**2 * (1 - y) ** 2
        alg = (-beta + p.mu * y - 0.5 * gs2 * y**2
               + y * (1 - y) * (p.mu - gs2 * y) * q
               + q * q / (4 * p.lam * (1 - y * q)))
        expected = -alg / coef - (1 - p.gamma) * q * q
        assert rhs_of(p, beta)(y, q) == pytest.approx(expected, rel=1e-14)

    @given(y=st.floats(0.05, 0.95), beta=st.floats(0.016, 0.025))
    @settings(max_examples=50)
    def test_continuous_across_buy_curve(self, y, beta):
        p = make()
        q = band_buy(y, p.epsilon)
        onto = rhs_of(p, beta)(y, q)  # classified as buying; bracket vanishes
        no_trade = no_trade_slope(p, beta, y, q)
        scale = max(1.0, abs(no_trade))
        assert abs(onto - no_trade) <= 1e-12 * scale

    @given(y=st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_continuous_across_sell_curve(self, y):
        p = make()
        rhs = rhs_of(p, 0.02)
        q = band_sell(y, p.epsilon)
        onto = rhs(y, q)
        inside = rhs(y, q + 1e-14)
        assert onto == pytest.approx(inside, rel=1e-6, abs=1e-8)

    @given(y=st.floats(0.05, 0.95), q=st.floats(-0.5, 0.5),
           beta=st.floats(0.016, 0.025))
    @settings(max_examples=80)
    def test_no_trade_slope_dominates(self, y, q, beta):
        # Dropping the nonnegative friction bracket can only raise the slope.
        if y * q >= 1.0:
            return
        p = make()
        assert rhs_of(p, beta)(y, q) <= no_trade_slope(p, beta, y, q) + 1e-12

    def test_diverges_toward_singular_curve(self):
        rhs = rhs_of(make(), 0.02)
        y = 0.5
        values = [rhs(y, (1.0 - gap) / y) for gap in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(v < 0 for v in values)
        assert values[0] > values[1] > values[2] > values[3]

    def test_domain_error_beyond_singular_curve(self):
        # Beyond q y = 1 the slope is -inf, which the integrator treats as a
        # failed trial step, and the Jacobian is zero.
        rhs, jac = make_rhs_jac(make(), 0.02)
        assert rhs(0.5, 2.1) == -math.inf
        assert jac(0.5, 2.1) == 0.0

    @given(y=st.floats(1e-4, 1.0 - 1e-4), q=st.floats(-1.0, 1.0),
           eps=st.floats(1e-4, 3e-2), lam=st.floats(1e-8, 3e-2),
           beta=st.floats(0.016, 0.025))
    @settings(max_examples=300, deadline=None)
    def test_scalar_and_vectorized_forms_agree(self, y, q, eps, lam, beta):
        # The integrator's scalar slope and the residual that the solution's
        # vectorized check evaluates are written independently; they must
        # stay the same equation: the slope leaves no residual, relative to
        # the equation's largest term.
        assume(q * y < 0.99)
        p = make(epsilon=eps, lam=lam)
        assert make_defect(p, beta, 1.0)(y, q, rhs_of(p, beta)(y, q)) <= 1e-14

    @given(knots=st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=2,
                          max_size=6, unique=True),
           coeffs=st.lists(st.floats(-0.3, 0.3), min_size=20, max_size=20),
           falling=st.booleans(), eps=st.floats(1e-4, 3e-2),
           lam=st.floats(1e-8, 3e-2), beta=st.floats(0.016, 0.025))
    @settings(max_examples=100, deadline=None)
    def test_defect_is_the_vectorized_residual(self, knots, coeffs, falling,
                                               eps, lam, beta):
        # The solution's residual check, on arrays of steps, is the final
        # legs' scalar defect test at each step's quarter points, bit for
        # bit, whichever way the knots run.
        knots = np.array(sorted(knots, reverse=falling))
        n = len(knots) - 1
        q = PiecewisePolynomial(knots, np.array(coeffs[:4 * n]).reshape(n, 4))
        p = make(epsilon=eps, lam=lam)
        defect = make_defect(p, beta, 10.0 * RTOL)
        deriv = q.derivative()
        expected = []
        for lo, hi in zip(knots[:-1].tolist(), knots[1:].tolist()):
            points = [lo + theta * (hi - lo) for theta in (0.25, 0.5, 0.75)]
            expected.append(max(defect(y, float(q(y)), float(deriv(y)))
                                for y in points))
        assert _residual_ratio(p, beta, q).tolist() == expected

    def test_defect_beyond_singular_curve(self):
        assert make_defect(make(), 0.02, 1e-9)(0.5, 2.1, 0.0) == math.inf


class TestBoundaryData:
    def test_pure_impact_start_value(self):
        p = make(epsilon=0.0, lam=0.01)
        q0, dq0 = boundary_value_0(p, 0.025)
        assert q0 == pytest.approx(2.0 * math.sqrt(0.00025), rel=1e-14)
        assert dq0 < 0.0

    def test_zero_impact_start_value(self):
        p = make(epsilon=0.01, lam=0.0)
        q0, _ = boundary_value_0(p, 0.02)
        assert q0 == 0.01

    @given(beta=st.floats(1e-4, 0.025), lam=st.floats(1e-8, 0.05),
           eps=st.floats(0.0, 0.05))
    @settings(max_examples=60)
    def test_start_derivative_negative(self, beta, lam, eps):
        p = make(epsilon=eps, lam=lam)
        _, dq0 = boundary_value_0(p, beta)
        assert dq0 < 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(BoundaryDataError):
            boundary_value_0(make(), 0.0)

    def test_terminal_value_zero_impact(self):
        p = make(epsilon=0.01, lam=0.0)
        assert boundary_value_1(p, 0.02) == pytest.approx(-0.01 / 0.99,
                                                          rel=1e-12)

    def test_terminal_value_zero_spread(self):
        p = make(epsilon=0.0, lam=0.01)
        beta = 0.024
        d = -p.gamma * p.sigma**2 - 2 * beta + 2 * p.mu
        expected = p.lam * d - math.sqrt(p.lam * d * (p.lam * d - 2.0))
        assert boundary_value_1(p, beta) == pytest.approx(expected, rel=1e-13)

    @given(beta=st.floats(0.0161, 0.025), lam=st.floats(1e-8, 0.05),
           eps=st.floats(0.0, 0.05))
    @settings(max_examples=60)
    def test_terminal_value_negative_inside_bracket(self, beta, lam, eps):
        p = make(epsilon=eps, lam=lam)
        assert boundary_value_1(p, beta) < 0.0

    def test_terminal_value_vanishes_at_floor_without_spread(self):
        # At beta = mu - gamma sigma^2/2 the constant d is exactly zero, and
        # with no spread the terminal value degenerates to zero.
        p = make(epsilon=0.0, lam=0.01)
        assert boundary_value_1(p, 0.016) == 0.0


class TestTurnover:
    def test_zero_inside_band(self):
        assert turnover(0.4, 0.0, make()) == 0.0

    def test_boundary_start_rate(self):
        p = make(epsilon=0.01, lam=0.01)
        beta = 0.025
        q0 = p.epsilon + 2 * math.sqrt(p.lam * beta)
        u = turnover(0.0, q0, p)
        assert u == pytest.approx(math.sqrt(beta / p.lam), rel=1e-12)
        assert u > 0.0

    def test_zero_spread_merges_branches(self):
        p = make(epsilon=0.0, lam=0.01)
        qs = np.array([-0.3, -0.001, 0.001, 0.3])
        expected = qs / (1 - 0.4 * qs) / (2 * p.lam)
        u = optimal_turnover(0.4, qs, p.epsilon, p.lam)
        np.testing.assert_allclose(u, expected, rtol=1e-14)

    @given(y=st.floats(0.0, 0.9), q=st.floats(-0.8, 0.8),
           eps=st.floats(0.0, 0.05), lam=st.floats(1e-3, 0.05))
    @settings(max_examples=60, deadline=None)
    def test_maximizes_trading_gain(self, y, q, eps, lam):
        # Brute-force oracle: dense grid search over the objective
        # -lam u^2 - eps|u| + (u + eps|u| y + lam y u^2) q.
        if y * q >= 0.99:
            return
        p = make(epsilon=eps, lam=lam)
        u_star = turnover(y, q, p)

        def gain(u):
            return (-lam * u**2 - eps * abs(u)
                    + (u + eps * abs(u) * y + lam * y * u**2) * q)

        bound = max(1.0, 2.0 * abs(u_star))
        grid = np.linspace(-bound, bound, 4001)
        best = grid[np.argmax([gain(u) for u in grid])]
        du = grid[1] - grid[0]
        assert gain(u_star) >= gain(best) - 1e-12 * max(1.0, abs(gain(best)))
        assert abs(u_star - best) <= du + 1e-9
