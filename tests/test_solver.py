import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadimpact._radau import PiecewisePolynomial
from spreadimpact._radau import bracket_root as _bracket_root
from spreadimpact.hjb import band_buy, band_sell, equation_terms
from spreadimpact.market import MarketParams, ParameterError, baseline
from spreadimpact.solver import (
    DELTA,
    HARD_GUARD,
    RTOL,
    TABLE_KNOTS,
    NoMatchError,
    NumericalFailure,
    TradingPolicy,
    _auto_atol,
    _check_solution,
    _fast_guard,
    _stitch,
    policy,
    shoot_leg,
    solve,
)

BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
FRICTIONLESS = 0.025
FLOOR = 0.016

# Matched rates cross-checked in development against an independent stiff
# integrator (scipy Radau at rtol 1e-10); agreement was a few 1e-13.
REFERENCE_BETAS = {
    (1e-3, 1e-4): 0.024957890922425,
    (1e-2, 1e-2): 0.024802933946929,
    (1e-2, 1e-4): 0.024814340224345,
    (5e-2, 5e-2): 0.024475923816727,
}


def params_with(eps, lam):
    return MarketParams(epsilon=eps, lam=lam, **BASE)


def bisection_oracle(params, steps=40):
    """Matched rate by plain bisection on the sign of the shooting surplus,
    with the solver's search tolerances, guards and bracket."""
    base = baseline(params)
    y_mid = base.merton_weight
    lo, hi = max(0.0, base.full_risky_esr), base.frictionless_esr
    atol, guard = _auto_atol(params, hi, RTOL), _fast_guard(params, hi)

    def sign(beta):
        ends = []
        for forward, upper in ((True, 1.0), (False, -1.0)):
            leg, status = shoot_leg(params, beta, forward, y_mid, RTOL, atol,
                                    guard)
            assert status != "stalled"
            if status == "upper":
                return upper
            if status == "lower":
                return -upper
            ends.append(leg.y_end)
        return np.sign(ends[0] - ends[1])

    nudge = 1e-13 * (hi - lo)
    a, b = lo + nudge, hi - nudge
    sign_b = sign(b)
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if sign(mid) == sign_b:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def shoot(params, beta, forward, y_stop):
    """One leg at the advertised tolerance with the hard guards:
    (status, y_end, q_end)."""
    leg, status = shoot_leg(params, beta, forward, y_stop, RTOL,
                            _auto_atol(params, beta, RTOL), HARD_GUARD)
    return status, leg.t_end, leg.y_end


class TestSolve:
    @pytest.mark.parametrize("eps,lam", sorted(REFERENCE_BETAS))
    def test_reference_rates(self, eps, lam, solve_cache):
        sol = solve_cache(eps, lam)
        assert sol.beta == pytest.approx(REFERENCE_BETAS[(eps, lam)],
                                         abs=2e-10)

    @pytest.mark.parametrize("eps,lam", sorted(REFERENCE_BETAS))
    def test_root_search_is_short(self, eps, lam, solve_cache):
        # Brent on the surplus: a dozen evaluations after the two bracket
        # probes, where bisection needs forty.
        sol = solve_cache(eps, lam)
        assert sol.diagnostics["bisection_iterations"] <= 12
        assert sol.diagnostics["beta_bracket_width"] <= 1e-12 * (
            FRICTIONLESS - FLOOR)

    def test_rate_matches_bisection_oracle(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        assert abs(sol.beta - bisection_oracle(sol.params)) <= 1e-13

    def test_rate_bracket_and_boundary_order(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        assert FLOOR <= sol.beta <= FRICTIONLESS
        assert 0.0 <= sol.y_minus <= sol.y_plus <= 1.0

    def test_second_order_condition_on_grid(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        assert np.all(sol.y_grid * sol.q_grid < 1.0)

    def test_value_matching(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        p = sol.params
        assert abs(sol.q_at(sol.y_minus)
                   - band_buy(sol.y_minus, p.epsilon)) <= 1e-8
        assert abs(sol.q_at(sol.y_plus)
                   - band_sell(sol.y_plus, p.epsilon)) <= 1e-8

    def test_band_sandwich_structure(self, solve_cache):
        # Above the buy curve before y-, inside the band between the
        # boundaries, below the sell curve after y+.
        sol = solve_cache(1e-3, 1e-4)
        p = sol.params
        ys = sol.y_grid
        qs = sol.q_grid
        up = np.array([band_buy(y, p.epsilon) for y in ys])
        dn = np.array([band_sell(y, p.epsilon) for y in ys])
        tol = 1e-11
        before = ys < sol.y_minus - 1e-9
        inside = (ys > sol.y_minus + 1e-9) & (ys < sol.y_plus - 1e-9)
        after = ys > sol.y_plus + 1e-9
        assert np.all(qs[before] > up[before] - tol)
        assert np.all((qs[inside] <= up[inside] + tol)
                      & (qs[inside] >= dn[inside] - tol))
        assert np.all(qs[after] < dn[after] + tol)

    def test_matching_residual_small(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        assert abs(sol.diagnostics["matching_residual"]) < 1e-10
        assert sol.diagnostics["bracket_signs_expected"]

    def test_band_collapses_without_spread(self, solve_cache):
        sol = solve_cache(1e-9, 1e-4)
        assert sol.y_plus - sol.y_minus < 1e-3

    def test_pure_impact_accepted(self):
        sol = solve(params_with(0.0, 1e-4))
        assert sol.y_plus == pytest.approx(sol.y_minus, abs=1e-9)

    def test_spread_only_reduction(self, solve_cache):
        # A vanishing impact cost must reproduce the pure-impact run of the
        # same code path to eight digits in the rate.
        with_tiny = solve(params_with(1e-10, 1e-4))
        without = solve(params_with(0.0, 1e-4))
        assert with_tiny.beta == pytest.approx(without.beta, rel=1e-8)

    def test_far_field_turnover_law(self, solve_cache):
        # Far from the band the turnover approaches the square-root-impact
        # law sigma sqrt(gamma/2) (y* - y) / sqrt(lam).
        sol = solve_cache(1e-10, 1e-4)
        p = sol.params
        y_star = p.merton_weight
        for y in (y_star - 0.2, y_star + 0.2):
            law = p.sigma * math.sqrt(p.gamma / 2) * (y_star - y) \
                / math.sqrt(p.lam)
            assert sol.turnover_at(y) == pytest.approx(law, rel=0.02)

    def test_residual_of_interpolant(self, solve_cache):
        # q satisfies the equation at off-knot points to within ten times
        # the integration tolerance, relative to the largest additive term:
        # at random points, and at log-spaced points within 1e-3 of both
        # singular endpoints, where the coefficient of q' vanishes.
        rng = np.random.default_rng(20140221)
        near = np.geomspace(DELTA, 1e-3, 200)
        for eps, lam in ((1e-3, 1e-4), (3.13e-3, 2.23e-7)):
            sol = solve_cache(eps, lam)
            ys = np.concatenate([
                rng.uniform(sol.y_grid[0], sol.y_grid[-1], 1000),
                near, 1.0 - near,
            ])
            terms, _ = equation_terms(sol.params, sol.beta, ys, sol.q_at(ys),
                                      sol.q_prime_at(ys))
            residual = sum(terms)
            scale = np.max(np.abs(np.stack(terms)), axis=0)
            assert np.max(np.abs(residual) / (10.0 * 1e-10 * scale)) <= 1.0

    @pytest.mark.parametrize("eps,lam", [(1e-2, 1e-10), (1e-3, 1e-10)])
    def test_residual_within_half_budget_at_tiny_impact(self, eps, lam,
                                                        solve_cache):
        sol = solve_cache(eps, lam)
        assert sol.diagnostics["residual_ratio_half_budget"] <= 1.0

    def test_residual_check_raises_on_a_perturbed_q(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        coeffs = sol.q.coeffs.copy()
        coeffs[len(coeffs) // 3, 2] += 1e-9  # a bump inside one step
        broken = dataclasses.replace(
            sol, q=PiecewisePolynomial(sol.q.knots, coeffs), diagnostics={})
        with pytest.raises(NumericalFailure, match="residual budget"):
            _check_solution(broken, baseline(sol.params))
        assert _check_solution(sol, baseline(sol.params)) == \
            sol.diagnostics["residual_ratio_half_budget"]

    def test_q_is_one_interpolant_on_increasing_knots(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        assert np.all(np.diff(sol.q.knots) > 0.0)
        assert sol.q.knots[0] == DELTA and sol.q.knots[-1] == 1.0 - DELTA
        assert sol.y_grid[0] == DELTA and sol.y_grid[-1] == 1.0 - DELTA
        assert {sol.y_minus, sol.y_plus} <= set(sol.y_grid)
        assert sol.diagnostics["grid_size"] == len(sol.y_grid)
        np.testing.assert_array_equal(sol.q_grid, sol.q_at(sol.y_grid))

    def test_comparative_statics_impact_narrows_band(self, solve_cache):
        widths = [solve_cache(1e-3, lam).y_plus - solve_cache(1e-3, lam).y_minus
                  for lam in (1e-5, 1e-4, 1e-3)]
        assert widths[0] >= widths[1] >= widths[2]

    def test_comparative_statics_spread_widens_band(self, solve_cache):
        widths = [solve_cache(eps, 1e-4).y_plus - solve_cache(eps, 1e-4).y_minus
                  for eps in (1e-4, 1e-3, 1e-2)]
        assert widths[0] <= widths[1] <= widths[2]

    def test_merton_weight_inside_band_at_figure_scales(self, solve_cache):
        for eps, lam in [(1e-3, 1e-5), (1e-3, 1e-4), (1e-3, 1e-3),
                         (1e-4, 1e-4), (1e-2, 1e-4)]:
            sol = solve_cache(eps, lam)
            assert sol.y_minus <= 0.625 <= sol.y_plus

    def test_deterministic(self):
        a = solve(params_with(1e-3, 1e-3))
        b = solve(params_with(1e-3, 1e-3))
        assert a.beta == b.beta
        assert np.array_equal(a.y_grid, b.y_grid)
        assert np.array_equal(a.q_grid, b.q_grid)

    def test_rejects_degenerate_regime(self):
        with pytest.raises(ParameterError, match="buy-and-hold"):
            solve(MarketParams(mu=-0.02, sigma=0.16, gamma=5.0,
                               epsilon=1e-3, lam=1e-4))

    def test_rejects_zero_impact(self):
        with pytest.raises(ParameterError, match="lambda"):
            solve(params_with(1e-3, 0.0))

    def test_no_match_reported_for_huge_frictions(self):
        with pytest.raises(NoMatchError, match="too large"):
            solve(params_with(0.95, 2.0))


class TestBracketRoot:
    def test_smooth_root(self):
        f = lambda x: x**3 - 2.0 * x - 5.0
        x, other, evaluations = _bracket_root(f, 2.0, 3.0, f(2.0), f(3.0),
                                              1e-13)
        assert x == pytest.approx(2.0945514815423265, abs=1e-13)
        assert abs(other - x) <= 1e-13
        assert evaluations <= 10

    @pytest.mark.parametrize("flip", [False, True])
    def test_root_next_to_divergent_plateau(self, flip):
        # Below 0.3 the "surplus" is a classified divergence (-1); the root
        # sits just beyond the plateau's edge.
        def f(x):
            value = -1.0 if x < 0.3 else 4.0 * (x - 0.31)
            return -value if flip else value

        x, other, evaluations = _bracket_root(f, 0.0, 1.0, f(0.0), f(1.0),
                                              1e-12)
        assert x == pytest.approx(0.31, abs=1e-12)
        assert abs(other - x) <= 1e-12
        assert f(x) * f(other) <= 0.0
        assert evaluations < 40  # bisection to 1e-12 takes 40

    def test_exact_zero_at_a_probe(self):
        f = lambda x: x - 0.25
        assert _bracket_root(f, 0.25, 1.0, 0.0, 0.75, 1e-12) == (0.25, 0.25,
                                                                 0)
        assert _bracket_root(f, 0.0, 0.25, -0.25, 0.0, 1e-12) == (0.25, 0.25,
                                                                  0)

    def test_exact_zero_inside(self):
        # The first secant step lands on the root exactly.
        f = lambda x: x - 0.25
        assert _bracket_root(f, 0.0, 1.0, -0.25, 0.75, 1e-12) == (0.25, 0.25,
                                                                  1)

    @given(root=st.floats(0.01, 0.99), stiffness=st.floats(0.1, 1e4),
           plateau=st.floats(0.0, 1.0), xtol=st.sampled_from([1e-6, 1e-12]))
    @settings(max_examples=200, deadline=None)
    def test_final_bracket_keeps_a_sign_change(self, root, stiffness,
                                               plateau, xtol):
        def f(x):
            if x < root * plateau:
                return -1.0
            return math.tanh(stiffness * (x - root))

        x, other, _ = _bracket_root(f, 0.0, 1.0, f(0.0), f(1.0), xtol)
        assert abs(other - x) <= xtol
        assert min(x, other) <= root <= max(x, other)
        assert f(x) * f(other) <= 0.0
        assert abs(f(x)) <= abs(f(other))


class TestStitch:
    def test_reproduces_both_legs(self):
        # Forward pieces on increasing knots and backward ones on
        # decreasing knots, meeting at 0.5: the stitched polynomial agrees
        # with each leg on its own side, in value and derivative.
        rng = np.random.default_rng(7)
        forward = PiecewisePolynomial(np.array([0.0, 0.2, 0.35, 0.5]),
                                      rng.normal(size=(3, 4)))
        backward = PiecewisePolynomial(np.array([1.0, 0.9, 0.6, 0.5]),
                                       rng.normal(size=(3, 4)))
        q = _stitch(forward, backward)
        np.testing.assert_array_equal(q.knots, [0.0, 0.2, 0.35, 0.5, 0.6,
                                                0.9, 1.0])
        # Off the knots, where the random pieces do not join up.
        left = np.linspace(0.0, 0.5, 41)[:-1] + 0.00625
        right = left + 0.5
        for ours, theirs_f, theirs_b in (
                (q, forward, backward),
                (q.derivative(), forward.derivative(),
                 backward.derivative())):
            np.testing.assert_allclose(ours(left), theirs_f(left),
                                       rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(ours(right), theirs_b(right),
                                       rtol=1e-13, atol=1e-13)


class TestPolicy:
    def test_sign_structure(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        pol = policy(sol)
        ys = np.linspace(sol.y_grid[0], sol.y_grid[-1], 4001)
        us = pol(ys)
        assert np.all(us[ys < sol.y_minus] >= 0.0)
        assert np.all(us[(ys >= sol.y_minus) & (ys <= sol.y_plus)] == 0.0)
        assert np.all(us[ys > sol.y_plus] <= 0.0)

    def test_inward_pointing_at_corners(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        pol = policy(sol)
        assert pol(sol.y_grid[0]) > 0.0
        assert pol(sol.y_grid[-1]) < 0.0

    def test_starts_at_impact_scaled_rate(self, solve_cache):
        # At zero investment the buy rate is sqrt(beta/lam) to first order.
        sol = solve_cache(1e-3, 1e-4)
        expected = math.sqrt(sol.beta / sol.params.lam)
        assert policy(sol)(sol.y_grid[0]) == pytest.approx(expected, rel=1e-3)

    def test_continuous_at_boundaries(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        pol = policy(sol)
        for knot in (sol.y_minus, sol.y_plus):
            just_out = knot - 1e-9 if knot == sol.y_minus else knot + 1e-9
            assert abs(pol(just_out)) < 1e-3

    def test_tabulated_matches_spline(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        pol = policy(sol)
        fast = pol.tabulated()
        ys = np.linspace(0.05, 0.95, 1001)
        assert np.max(np.abs(fast(ys) - pol(ys))) < 1e-4 * max(
            1.0, float(np.max(np.abs(pol(ys)))))

        # Over the whole table range and next to both kinks: exactly zero
        # on the band, the exact sign outside it, and a small error.
        for eps, lam in ((1e-3, 1e-4), (1e-2, 1e-2)):
            sol = solve_cache(eps, lam)
            edges = np.array([sol.y_minus, sol.y_plus])
            ys = np.concatenate([
                np.linspace(sol.y_grid[0], sol.y_grid[-1], 400_001),
                edges, edges - 1e-9, edges + 1e-9])
            band = (ys >= sol.y_minus) & (ys <= sol.y_plus)
            for scale in (0.5, 1.0, 2.0):
                pol = TradingPolicy(sol, scale_outside_band=scale)
                exact, table = pol(ys), pol.tabulated()(ys)
                assert np.all(table[band] == 0.0), (eps, lam, scale)
                assert np.array_equal(np.sign(table[~band]),
                                      np.sign(exact[~band])), (eps, lam, scale)
                assert np.max(np.abs(table - exact)) <= 1e-6 * np.max(
                    np.abs(exact)), (eps, lam, scale)

        # A y_minus whose cell coordinate rounds to just below its knot
        # index (about one width in eight) still starts the exact zero.
        sol = solve_cache(1e-3, 1e-4)
        lo, y_minus, n = sol.y_grid[0], sol.y_minus, TABLE_KNOTS
        while (y_minus - lo) * ((n - 1) / (y_minus - lo)) >= n - 1:
            y_minus = math.nextafter(y_minus, 1.0)
        shifted = dataclasses.replace(sol, y_minus=y_minus)
        assert policy(shifted).tabulated()(np.array([y_minus]))[0] == 0.0

    def test_scaling_wrapper(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        from spreadimpact.solver import TradingPolicy
        doubled = TradingPolicy(sol, scale_outside_band=2.0)
        y = sol.y_minus - 0.05
        assert doubled(y) == pytest.approx(2.0 * policy(sol)(y))
        assert doubled(0.5 * (sol.y_minus + sol.y_plus)) == 0.0


class TestShooting:
    def test_forward_blow_up_classification(self):
        # Above the admissible rate the forward solution either survives
        # (staying above the band the whole way) or diverges upward; far
        # below the root it dives out through the sell region.
        p = params_with(1e-3, 1e-4)
        status, y_end, q_end = shoot(p, FRICTIONLESS * 1.4, True, 0.625)
        assert status in ("reached", "upper")
        if status == "reached":
            assert q_end > band_buy(y_end, p.epsilon)
        status, _, _ = shoot(p, FLOOR * 1.001, True, 0.625)
        assert status == "lower"

    def test_backward_upper_blow_up_below_root(self):
        # Below the matched rate the backward solution climbs toward the
        # singular curve q = 1/y and is classified as an upper divergence.
        p = params_with(1e-3, 1e-4)
        status, y_end, q_end = shoot(p, 0.018, False, 0.3)
        assert status == "upper"
        assert q_end * y_end > 0.5

    def test_backward_reaches_matching_point_near_root(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        status, _, q_end = shoot(sol.params, sol.beta, False, 0.625)
        assert status == "reached"
        assert q_end < 0.0 or abs(q_end) < 1e-3

    def test_backward_starts_negative(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        _, _, q_end = shoot(sol.params, sol.beta, False, 0.9)
        assert q_end < 0.0


class TestSerialization:
    def test_json_document(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        doc = sol.to_json_dict(grid_points=101)
        assert set(doc) == {"beta", "y_minus", "y_plus", "grid", "params",
                            "diagnostics"}
        assert doc["params"]["lambda"] == 1e-4
        grid = np.asarray(doc["grid"])
        assert grid.shape[1] == 3
        json.dumps(doc)  # must be serializable as-is

    def test_csv_export(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        buf = io.StringIO()
        sol.to_csv(buf, grid_points=51)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "y,q,u"
        first = [float(tok) for tok in lines[1].split(",")]
        assert len(first) == 3

    def test_grid_rows_reproduce_interpolant(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        doc = sol.to_json_dict(grid_points=201)
        for y, q, u in doc["grid"][:: 17]:
            assert q == pytest.approx(sol.q_at(y), abs=1e-12)
            assert u == pytest.approx(sol.turnover_at(y), abs=1e-9)
