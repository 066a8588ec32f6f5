import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadimpact._radau import GuardBox, PiecewisePolynomial
from spreadimpact._radau import bracket_root as _bracket_root
from spreadimpact.hjb import band_buy, band_sell, equation_terms, make_rhs_jac
from spreadimpact import solver
from spreadimpact.cli import main
from spreadimpact.market import MarketParams, ParameterError, baseline
from spreadimpact.solver import (
    DELTA,
    RTOL,
    TABLE_KNOTS,
    NoMatchError,
    NumericalFailure,
    TradingPolicy,
    _auto_atol,
    _check_solution,
    _classify_stall,
    _leg_start,
    _locate_boundaries,
    _q_scale,
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


# The acceptance suite's (eps, lam) grid; its solutions are in the session
# cache by the time this module runs.
ACCEPTANCE_GRID = [10.0 ** e for e in (-4.0, -3.5, -3.0, -2.5, -2.0)]
# A divergence box independent of the solver's guard: |q| >= 10, or q y
# within a relative 1e-9 of the singular curve q = 1/y.
HARD_BOX = GuardBox(upper_q=10.0, lower_q=-10.0, upper_qt=1.0 - 1e-9)


def params_with(eps, lam):
    return MarketParams(epsilon=eps, lam=lam, **BASE)


def bisection_oracle(params, steps=40):
    """Matched rate by plain bisection on the sign of the shooting surplus,
    with the solver's search tolerances, leg starts, stall classification
    and bracket, but legs shot to the hard box instead of the solver's
    guard."""
    base = baseline(params)
    y_mid = base.merton_weight
    lo, hi = max(0.0, base.full_risky_esr), base.frictionless_esr
    atol = _auto_atol(params, hi, RTOL)

    def sign(beta):
        rhs, jac = make_rhs_jac(params, beta)
        ends = []
        for forward, upper in ((True, 1.0), (False, -1.0)):
            y0, q0 = _leg_start(params, beta, forward, rhs, jac)
            leg = solver.integrate_guarded(rhs, jac, y0, y_mid, q0, RTOL,
                                           atol, guard=HARD_BOX)
            status = leg.status
            if status == "stalled":
                status = _classify_stall(leg, params, forward)
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


def assert_pure_spread_limit(solutions, tolerances):
    """The pure-spread limit (Janecek & Shreve 2004) at increasing eps: the
    band half-width tends to (3/(4 gamma) y*^2 (1-y*)^2)^(1/3) (2 eps)^(1/3)
    and the welfare loss to (gamma sigma^2 / 2) half-width^2. Each solution
    has its (width, loss) tolerance on the relative gaps; the loss gap is
    negative and shrinks about 10^(2/3) per decade of eps."""
    loss_gaps = []
    for sol, (width_tol, loss_tol) in zip(solutions, tolerances):
        p = sol.params
        y = p.merton_weight
        half = ((3.0 / (4.0 * p.gamma) * y * y * (1.0 - y) ** 2)
                ** (1.0 / 3.0) * (2.0 * p.epsilon) ** (1.0 / 3.0))
        loss = 0.5 * p.gamma * p.sigma ** 2 * half ** 2
        width_gap = (sol.y_plus - sol.y_minus) / (2.0 * half) - 1.0
        loss_gap = (baseline(p).frictionless_esr - sol.beta) / loss - 1.0
        assert abs(width_gap) <= width_tol
        assert -loss_tol <= loss_gap < 0.0
        loss_gaps.append(loss_gap)
    rate = 10.0 ** (2.0 / 3.0)
    for fine, coarse in zip(loss_gaps, loss_gaps[1:]):
        assert 0.75 * rate <= coarse / fine <= 1.25 * rate


def shoot(params, beta, forward, y_stop):
    """One leg at the advertised tolerance inside the solver's guard:
    (status, y_end, q_end)."""
    leg, status = shoot_leg(params, beta, forward, y_stop, RTOL,
                            _auto_atol(params, beta, RTOL))
    return status, leg.t_end, leg.y_end


class TestSolve:
    @pytest.mark.parametrize("eps,lam", sorted(REFERENCE_BETAS))
    def test_reference_rates(self, eps, lam, solve_cache):
        sol = solve_cache(eps, lam)
        assert sol.beta == pytest.approx(REFERENCE_BETAS[(eps, lam)],
                                         abs=1e-12)

    @pytest.mark.parametrize("eps,lam", sorted(REFERENCE_BETAS))
    def test_root_search_is_short(self, eps, lam, solve_cache):
        # Brent on the surplus: a dozen evaluations after the two bracket
        # probes, where bisection needs forty.
        sol = solve_cache(eps, lam)
        assert sol.diagnostics["bisection_iterations"] <= 12
        assert sol.diagnostics["beta_bracket_width"] <= 1e-12 * (
            FRICTIONLESS - FLOOR)

    @pytest.mark.parametrize("eps,lam", sorted(REFERENCE_BETAS))
    def test_search_legs_do_not_waste_newton_work(self, eps, lam):
        # Newton stops at a fixed fraction of the local error tolerance, so
        # at the search's rtol it no longer fails on error it cannot see:
        # about 9 rhs calls per accepted step and one rejected step in ten,
        # where a sqrt(rtol) stopping test took 12-14 calls and rejected
        # about half as many steps as it accepted.
        diagnostics = solve(params_with(eps, lam)).diagnostics
        work = diagnostics["leg_work"]["search"]
        # One forward leg per surplus evaluation; the rest are backward.
        assert work["legs"] > diagnostics["bisection_iterations"] + 2
        assert work["nfev"] <= 11 * work["naccepted"]
        assert 0.03 <= work["nrejected"] / work["naccepted"] <= 0.25

    def test_rate_matches_bisection_oracle(self, solve_cache):
        # The oracle shoots to the hard box, so it checks the solver's
        # divergence guard as well as its root search.
        for eps, lam in sorted(REFERENCE_BETAS):
            sol = solve_cache(eps, lam)
            assert abs(sol.beta - bisection_oracle(sol.params)) <= 1e-13, \
                (eps, lam)

    @pytest.mark.parametrize("eps,lam", [(5e-2, 1e-2)]
                             + sorted(REFERENCE_BETAS))
    def test_guard_sits_well_past_every_reaching_leg(self, eps, lam,
                                                     monkeypatch):
        # Every search leg that reaches y* went less than half as far past
        # its far band curve (the sell curve forward, the buy curve
        # backward) as the leg's guard sits past it. The farthest measured
        # excursion is 0.88 s, at (5e-2, 1e-2), against a guard 3 s out.
        params = params_with(eps, lam)
        worst = {True: [], False: []}
        shoot_pair = solver._shoot_pair

        # Both legs of a pair come back to the caller here, the backward
        # one from the worker; a leg the solver does not read is not seen.
        def checking(*args):
            for forward, (leg, status) in zip((True, False),
                                              shoot_pair(*args)):
                if args[3] == RTOL and status == "reached":
                    ys = leg.sol.knots
                    qs = leg.sol(ys)
                    guard = solver._leg_guard(params, forward)
                    if forward:
                        curve = band_sell(ys, eps)
                        past, guard_past = curve - qs, curve - guard.lower_q
                    else:
                        curve = band_buy(ys, eps)
                        past, guard_past = qs - curve, guard.upper_q - curve
                    worst[forward].append(float(np.max(past / guard_past)))
                yield leg, status

        monkeypatch.setattr(solver, "_shoot_pair", checking)
        solve(params)
        assert worst[True] and worst[False]
        assert max(worst[True] + worst[False]) < 0.5

    def test_rate_falls_with_either_cost(self, solve_cache):
        # beta is non-increasing in eps and in lam, on the acceptance grid
        # (smallest gap 6.5e-7).
        betas = np.array([[solve_cache(eps, lam).beta
                           for lam in ACCEPTANCE_GRID]
                          for eps in ACCEPTANCE_GRID])
        assert np.all(np.diff(betas, axis=0) <= 0.0)
        assert np.all(np.diff(betas, axis=1) <= 0.0)

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

    def test_reversed_bracket_raises(self, monkeypatch):
        # A misclassified leg can flip the surplus's sign; Brent would then
        # converge onto the step it makes.
        surplus = solver._match_surplus
        monkeypatch.setattr(solver, "_match_surplus",
                            lambda *args: -surplus(*args))
        with pytest.raises(NumericalFailure, match="wrong way round"):
            solve(params_with(1e-3, 1e-4))

    def test_jump_at_the_matching_point_raises(self, monkeypatch):
        shoot_real = solver.shoot_leg

        def shoot_with_a_jump(params, beta, forward, y_stop, rtol, *args,
                              **kwargs):
            leg, status = shoot_real(params, beta, forward, y_stop, rtol,
                                     *args, **kwargs)
            if forward and rtol == solver.FINAL_RTOL:
                leg = dataclasses.replace(leg, y_end=leg.y_end + 1e-7)
            return leg, status

        monkeypatch.setattr(solver, "shoot_leg", shoot_with_a_jump)
        with pytest.raises(NumericalFailure, match="jump of 1e-07"):
            solve(params_with(1e-3, 1e-4))

    def test_pure_spread_limit(self, solve_cache):
        # Janecek & Shreve: as lam -> 0 the band half-width tends to
        # (3/(4 gamma) y*^2 (1-y*)^2)^(1/3) (2 eps)^(1/3), and the welfare
        # loss to (gamma sigma^2 / 2) half-width^2. Measured gaps at
        # lam = 1e-12: width +0.014%, +0.47%, +2.3% and loss -0.18%, -0.83%,
        # -3.8%; the loss gap shrinks about 10^(2/3) per decade of eps.
        assert_pure_spread_limit(
            [solve_cache(eps, 1e-12) for eps in (1e-4, 1e-3, 1e-2)],
            [(5e-4, 4e-3), (1e-2, 1.5e-2), (4e-2, 6e-2)])

    @pytest.mark.parametrize("market", [
        dict(mu=0.032, sigma=0.2, gamma=2.0),  # y* = 0.4
        dict(mu=0.06, sigma=0.2, gamma=3.0),   # y* = 0.5
    ])
    def test_pure_spread_limit_off_the_base_market(self, market):
        # The same limit on two other markets, at lam = 1e-12. Measured
        # gaps: width -0.030%, +0.287%, +1.46% and loss -0.154%, -0.714%,
        # -3.24% at y* = 0.4; width -0.015%, +0.384%, +1.92% and loss
        # -0.159%, -0.736%, -3.34% at y* = 0.5. The loss gap shrinks about
        # 4.6x per decade on both.
        assert_pure_spread_limit(
            [solve(MarketParams(epsilon=eps, lam=1e-12, **market))
             for eps in (1e-4, 1e-3, 1e-2)],
            [(5e-4, 4e-3), (1e-2, 1.5e-2), (4e-2, 6e-2)])

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
        for eps, lam in ((1e-3, 1e-4), (3.13e-3, 2.23e-7), (3e-3, 1e-8)):
            sol = solve_cache(eps, lam)
            ys = np.concatenate([
                rng.uniform(sol.y_grid[0], sol.y_grid[-1], 1000),
                near, 1.0 - near,
            ])
            terms, _ = equation_terms(sol.params, sol.beta, ys, sol.q_at(ys),
                                      sol.q.derivative()(ys))
            residual = sum(terms)
            scale = np.max(np.abs(np.stack(terms)), axis=0)
            assert np.max(np.abs(residual) / (10.0 * 1e-10 * scale)) <= 1.0

    def test_final_pass_refines_flagged_steps(self, solve_cache):
        # At this point the uncapped final legs leave a few steps above the
        # refinement target; their re-integrated sub-steps pass, and the
        # splices stay far inside the value-matching bound. The solution
        # also meets the off-quarter-point residual test above.
        sol = solve_cache(3e-3, 1e-8)
        assert sol.diagnostics["refined_steps"] > 0
        assert sol.diagnostics["max_splice_jump"] <= solver.MATCH_TOL
        assert sol.diagnostics["residual_ratio_half_budget"] <= 1.0

    def test_refinement_without_progress_raises(self, monkeypatch):
        # A step above its residual budget whose ratio does not fall when
        # its sub-intervals are halved raises at once, naming where, instead
        # of halving on.
        monkeypatch.setattr(
            solver, "_residual_ratio",
            lambda params, beta, q: np.full(len(q.knots) - 1, 1.5))
        with pytest.raises(NumericalFailure,
                           match=r"no split of the final step at y=.* meets "
                                 r"the residual budget: ratios 1.5, 1.5 "):
            solve(params_with(1e-3, 1e-4))

    def test_refinement_keeps_a_step_within_budget(self, monkeypatch):
        # A flagged step that halving does not improve is kept as it is
        # when it already meets the budget.
        monkeypatch.setattr(
            solver, "_residual_ratio",
            lambda params, beta, q: np.full(len(q.knots) - 1, 0.5))
        sol = solve(params_with(1e-3, 1e-4))
        assert sol.diagnostics["refined_steps"] == 0
        assert sol.diagnostics["residual_ratio_half_budget"] == 0.5 / 0.7

    @pytest.mark.parametrize("eps,lam,bound", [
        # 0.7 x the accepted steps of the final legs when every step was
        # capped at 2.5e-4 (6306, 5904, 5899 and 5623 steps).
        (1e-3, 1e-4, 4414),
        (1e-2, 1e-2, 4132),
        (1e-2, 1e-4, 4129),
        (5e-2, 5e-2, 3936),
    ])
    def test_final_pass_takes_few_steps(self, eps, lam, bound, solve_cache):
        diagnostics = solve_cache(eps, lam).diagnostics
        assert diagnostics["forward_steps"] + diagnostics["backward_steps"] \
            <= bound

    def test_empty_rate_bracket_is_a_parameter_error(self):
        # y* = 0.9999999999999998 is interior, but the frictionless and
        # full-risky rates are the same float, so no rate can be shot.
        with pytest.raises(ParameterError, match="empty"):
            solve(MarketParams(mu=0.08, sigma=0.2, gamma=2.0, epsilon=1e-3,
                               lam=1e-4))

    @pytest.mark.parametrize("eps,lam", [(1e-2, 1e-10), (1e-3, 1e-10)])
    def test_residual_within_half_budget_at_tiny_impact(self, eps, lam,
                                                        solve_cache):
        sol = solve_cache(eps, lam)
        assert sol.diagnostics["residual_ratio_half_budget"] <= 1.0

    def test_small_target_weight_at_small_impact(self):
        # y* = 0.15: the rate bracket's floor is 0, and at small lambda the
        # low probe's forward leg stalls below the sell curve at its start.
        # That stall is a lower divergence, not an unclassified failure.
        betas = []
        for lam in (1e-10, 1e-8, 1e-6):
            sol = solve(MarketParams(mu=0.03, sigma=0.2, gamma=5.0,
                                     epsilon=1e-3, lam=lam))
            p = sol.params
            assert abs(sol.q_at(sol.y_minus)
                       - band_buy(sol.y_minus, p.epsilon)) <= 1e-8
            assert abs(sol.q_at(sol.y_plus)
                       - band_sell(sol.y_plus, p.epsilon)) <= 1e-8
            assert sol.diagnostics["residual_ratio_half_budget"] <= 1.0
            betas.append(sol.beta)
        assert betas[0] >= betas[1] >= betas[2]

    def test_backward_stall_above_the_buy_curve_is_upper(self):
        # A point of the sampled domain box with y* = 0.93 and a tiny
        # impact: at one rate the search tries, the backward leg stalls at
        # y = 0.93 with q = 0.06, above the buy curve, which it can only
        # reach by leaving the band upward.
        sol = solve(MarketParams(mu=0.3676317237664915, sigma=0.2,
                                 gamma=9.929310931103286,
                                 epsilon=0.021498288955334118,
                                 lam=2.2828195114161202e-11))
        assert sol.beta == pytest.approx(0.170031234711, abs=1e-11)
        assert sol.y_minus <= sol.params.merton_weight <= sol.y_plus
        assert abs(sol.diagnostics["matching_residual"]) <= 1e-11
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

    def test_reversed_band_fails_the_order_check(self, solve_cache):
        # A q rising from -0.01 to 0.01 meets the sell curve (near -eps)
        # before the buy curve (near +eps): the crossings come back
        # reversed, and the invariant battery refuses them by name.
        sol = solve_cache(1e-3, 1e-4)
        q = PiecewisePolynomial(np.array([DELTA, 1.0 - DELTA]),
                                np.array([[-0.01, 0.02]]))
        y_minus, y_plus = _locate_boundaries(sol.params, q)
        assert y_minus > y_plus
        reversed_band = dataclasses.replace(sol, q=q, y_minus=y_minus,
                                            y_plus=y_plus, diagnostics={})
        with pytest.raises(NumericalFailure, match="boundaries out of order"):
            _check_solution(reversed_band, baseline(sol.params))

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
        # Below the matched rate the backward solution climbs out of the
        # band past the buy curve and is stopped by its guard, at least 2 s
        # beyond that curve, as an upper divergence.
        p = params_with(1e-3, 1e-4)
        status, y_end, q_end = shoot(p, 0.018, False, 0.3)
        assert status == "upper"
        s = _q_scale(p, baseline(p).frictionless_esr)
        assert q_end - band_buy(y_end, p.epsilon) >= 2.0 * s

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
    def test_json_document(self, solve_cache, capsys):
        sol = solve_cache(1e-3, 1e-4)
        argv = ["solve", "--mu", "0.08", "--sigma", "0.16", "--gamma", "5",
                "--epsilon", "0.001", "--lambda", "0.0001",
                "--format", "json", "--grid-points", "101"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"beta", "y_minus", "y_plus", "grid", "params",
                            "diagnostics"}
        assert doc["params"]["lambda"] == 1e-4
        assert doc["beta"] == sol.beta
        grid = np.asarray(doc["grid"])
        assert grid.shape[1] == 3
        json.dumps(doc)  # must be serializable as-is
