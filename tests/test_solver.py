import dataclasses
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadimpact._radau import GuardBox, PiecewisePolynomial
from spreadimpact._radau import bracket_root as _bracket_root
from spreadimpact.hjb import band_buy, band_sell, make_defect, make_rhs_jac
from spreadimpact import solver
from spreadimpact.asymptotic import AsymptoticInputs, NoRootError, find_z_minus
from spreadimpact.cli import main
from spreadimpact.market import MarketParams, ParameterError, friction_loss
from spreadimpact.montecarlo import TABLE_CELLS
from spreadimpact.solver import (
    DELTA,
    RTOL,
    NoMatchError,
    NumericalFailure,
    TradingPolicy,
    _check_solution,
    _classify_stall,
    _leg_start,
    _locate_boundaries,
    _q_scale,
    _residual_ratio,
    _stitch,
    _tolerances,
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
    y_mid = params.merton_weight
    lo, hi = max(0.0, params.full_risky_esr), params.frictionless_esr
    rtol, atol = _tolerances(params, False)

    def sign(beta):
        rhs, jac = make_rhs_jac(params, beta)
        ends = []
        for forward, upper in ((True, 1.0), (False, -1.0)):
            y0, q0 = _leg_start(params, beta, forward, rhs, jac)
            leg = solver.integrate_guarded(rhs, jac, y0, y_mid, q0, rtol,
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
        loss_gap = (p.frictionless_esr - sol.beta) / loss - 1.0
        assert abs(width_gap) <= width_tol
        assert -loss_tol <= loss_gap < 0.0
        loss_gaps.append(loss_gap)
    rate = 10.0 ** (2.0 / 3.0)
    for fine, coarse in zip(loss_gaps, loss_gaps[1:]):
        assert 0.75 * rate <= coarse / fine <= 1.25 * rate


def shoot(params, beta, forward, y_stop):
    """One search leg, at the solver's search tolerances inside its guard:
    (status, y_end, q_end)."""
    leg = shoot_leg(params, beta, forward, y_stop)
    return leg.status, leg.t_end, leg.y_end


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

        # Both legs of every pair come back to the caller here, the
        # backward one from the worker: every leg shot is seen.
        def checking(*args):
            legs = shoot_pair(*args)
            for forward, leg in zip((True, False), legs):
                if not args[2] and leg.status == "reached":
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
            return legs

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

    def test_reversed_bracket_raises(self, monkeypatch):
        # A misclassified leg can flip the surplus's sign; Brent would then
        # converge onto the step it makes.
        surplus = solver._match_surplus
        monkeypatch.setattr(solver, "_match_surplus",
                            lambda *args: -surplus(*args))
        with pytest.raises(NumericalFailure, match="wrong way round"):
            solve(params_with(1e-3, 1e-4))

    @pytest.mark.parametrize("factor,start", [
        (1.0, "inner"),    # the inner bracket holds the root
        (3.0, "above"),    # the root lies above beta_b
        (0.3, "below"),    # the root lies below beta_a
        (1e3, "full"),     # beta_a and beta_b fall below the floor
        (1.0, "clipped"),  # at box seed 7 point 5 only beta_a does
        (200.0, "above"),  # only beta_a does; the root lies above beta_b
    ])
    def test_search_starts_from_the_narrowest_probed_bracket(
            self, factor, start, no_expansion_probes, monkeypatch):
        # Without the expansion's probes, the search probes [hi - 1.25 G,
        # hi - 0.7 G] first, G the sum of the two one-friction losses,
        # clipped to the admissible floor, and the admissible bracket's
        # ends only when that misses the root. Whichever bracket Brent
        # starts from, the rate is the same.
        if start == "clipped":
            # Box seed 7 point 5 of the README's domain table (y* = 0.957):
            # the loss is 0.715 G, and hi - 1.25 G lies below the floor.
            # The reference starts from the admissible bracket's ends.
            params = MarketParams(mu=0.023724674936252372, sigma=0.2,
                                  gamma=0.6196341792210885,
                                  epsilon=0.014977836300936536,
                                  lam=2.987524228005581e-09)
            monkeypatch.setattr(solver, "friction_loss", lambda p: 1e3)
            reference = solve(params)
        else:
            # Solved here, not taken from the session cache, which must not
            # hold a solve made without the expansion's probes.
            reference = solve(params_with(1e-3, 1e-4))
            params = reference.params
        loss = factor * friction_loss(params)
        monkeypatch.setattr(solver, "friction_loss", lambda p: loss)
        shot, surplus = [], solver._match_surplus
        monkeypatch.setattr(solver, "_match_surplus", lambda p, beta, *args: (
            shot.append(beta) or surplus(p, beta, *args)))
        sol = solve(params)
        lo, hi = max(0.0, params.full_risky_esr), params.frictionless_esr
        nudge = 1e-13 * (hi - lo)
        lo_in, hi_in = lo + nudge, hi - nudge
        beta_a, beta_b = hi - 1.25 * loss, hi - 0.7 * loss
        assert sol.diagnostics["search_bracket"] == {
            "inner": (beta_a, beta_b), "above": (beta_b, hi_in),
            "below": (lo_in, beta_a), "full": (lo_in, hi_in),
            "clipped": (lo_in, beta_b)}[start]
        assert sol.diagnostics["bracket_held"] == (
            "inner" if start in ("inner", "clipped") else "admissible")
        assert abs(sol.beta - reference.beta) <= 1e-13
        assert sol.diagnostics["bisection_iterations"] <= 12
        # No rate is shot twice, a probe shared by two brackets included.
        assert len(set(shot)) == len(shot)
        if start == "clipped":
            # Two probes, and Brent's steps after them (16 from the
            # admissible bracket's ends).
            assert beta_a < lo_in
            assert len(shot) == 2 + sol.diagnostics["bisection_iterations"]
            assert sol.diagnostics["bisection_iterations"] <= 8

    def test_reversed_full_bracket_raises(self, monkeypatch):
        # With the inner bracket outside the admissible one, the
        # orientation check falls to the full bracket's ends.
        surplus = solver._match_surplus
        monkeypatch.setattr(solver, "_match_surplus",
                            lambda *args: -surplus(*args))
        monkeypatch.setattr(solver, "friction_loss", lambda p: 1.0)
        with pytest.raises(NumericalFailure,
                           match=r"wrong way round on the rate bracket "
                                 r"\[0\.016, 0\.025\]"):
            solve(params_with(1e-3, 1e-4))

    def test_search_opens_at_the_expansions_rate(self, solve_cache,
                                                 monkeypatch):
        # Where the small-cost expansion has a root, its rate beta_e places
        # the first two probes, [beta_e - 0.005 G, beta_e + 0.03 G], and at
        # (1e-3, 1e-4) they hold the root: fewer surplus evaluations than
        # from the inner bracket, and the same rate.
        sol = solve_cache(1e-3, 1e-4)
        params = sol.params
        beta_e = find_z_minus(AsymptoticInputs.from_params(params)).beta_approx
        loss = friction_loss(params)
        below, above = sol.diagnostics["search_bracket"]
        assert sol.diagnostics["bracket_held"] == "expansion"
        assert beta_e - 0.005 * loss <= below < above <= beta_e + 0.03 * loss
        monkeypatch.setattr(solver, "_expansion_rate", lambda p: None)
        inner = solve(params)
        assert inner.diagnostics["bracket_held"] == "inner"
        assert (sol.diagnostics["leg_work"]["search"]["legs"]
                < inner.diagnostics["leg_work"]["search"]["legs"])
        assert abs(sol.beta - inner.beta) <= 1e-13

    def test_without_an_expansion_root_nothing_changes(self, monkeypatch):
        # At K = lam/eps^(4/3) < 4.4e-3 the expansion has no verified root;
        # the search then opens at the inner bracket, exactly as without
        # the expansion's probes.
        params = params_with(3.13e-3, 2.23e-7)
        with pytest.raises(NoRootError):
            find_z_minus(AsymptoticInputs.from_params(params))
        sol = solve(params)
        monkeypatch.setattr(solver, "_expansion_rate", lambda p: None)
        reference = solve(params)
        assert (sol.beta, sol.y_minus, sol.y_plus) == (
            reference.beta, reference.y_minus, reference.y_plus)
        assert np.array_equal(sol.q.knots, reference.q.knots)
        assert np.array_equal(sol.q.coeffs, reference.q.coeffs)
        assert sol.diagnostics == reference.diagnostics
        assert sol.diagnostics["bracket_held"] == "inner"

    def test_coupling_beyond_the_float_range_skips_the_probes(self):
        # eps^(4/3) underflows at eps = 1e-250, so K is not finite; the
        # expansion gives no rate and the search opens as before.
        params = params_with(1e-250, 1e-4)
        assert solver._expansion_rate(params) is None
        assert solve(params).diagnostics["bracket_held"] == "inner"

    @pytest.mark.parametrize("loss_fraction", [
        1.2,    # both probes below the root
        0.75,   # both above it
        0.72,   # both above it, the upper one shared with the inner bracket
        150.0,  # far below it, above the admissible floor
        300.0,  # below the floor: no bracket of the expansion
        0.5,    # above beta0 - 0.7 G: no bracket of the expansion
    ])
    def test_expansion_rate_far_from_the_root(self, loss_fraction,
                                              solve_cache, monkeypatch):
        # With the expansion's rate moved to beta0 - loss_fraction G, the
        # search falls through to the inner bracket, reuses every probed
        # rate and still pins the rate.
        reference = solve_cache(1e-3, 1e-4)
        params = reference.params
        beta_e = params.frictionless_esr - loss_fraction * friction_loss(
            params)
        expansion = find_z_minus(AsymptoticInputs.from_params(params))
        monkeypatch.setattr(solver, "find_z_minus", lambda inputs: (
            dataclasses.replace(expansion, beta_approx=beta_e)))
        shot, surplus = [], solver._match_surplus
        monkeypatch.setattr(solver, "_match_surplus", lambda p, beta, *args: (
            shot.append(beta) or surplus(p, beta, *args)))
        sol = solve(params)
        assert sol.diagnostics["bracket_held"] == "inner"
        assert abs(sol.beta - reference.beta) <= 1e-13
        assert len(set(shot)) == len(shot)
        probes = 4 if loss_fraction in (1.2, 0.75, 150.0) else (
            3 if loss_fraction == 0.72 else 2)
        assert len(shot) == (probes
                             + sol.diagnostics["bisection_iterations"])

    def test_jump_at_the_matching_point_raises(self, monkeypatch):
        shoot_real = solver.shoot_leg

        def shoot_with_a_jump(params, beta, forward, y_stop, final=False):
            leg = shoot_real(params, beta, forward, y_stop, final)
            if forward and final:
                leg = dataclasses.replace(leg, y_end=leg.y_end + 1e-7)
            return leg

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

    def test_pure_impact_limit(self):
        # Quadratic costs only (Garleanu & Pedersen 2013; Moreau, Muhle-Karbe
        # & Soner 2017): the weight mean-reverts to y* at the speed
        # kappa = sqrt(gamma sigma^2 / (2 lam)), so -u'(y*) = kappa, and the
        # welfare loss is C sqrt(lam), C = v^2 sqrt(2 gamma sigma^2) / 2 with
        # v = sigma y* (1-y*). Both relative gaps decay like sqrt(lam).
        # Measured gap / sqrt(lam): loss -0.143 to -0.163 on all twelve
        # points; slope (central difference, h = 1e-6) -0.137 to -0.163 at
        # lam >= 1e-4. Below that the difference quotient's noise (-3.4e-4
        # to +6.2e-5 of kappa) swamps the slope gap, so it is not asserted.
        h = 1e-6
        for market in (BASE, dict(mu=0.032, sigma=0.2, gamma=2.0),
                       dict(mu=0.06, sigma=0.2, gamma=3.0)):
            for lam in (1e-2, 1e-4, 1e-6, 1e-8):
                p = MarketParams(epsilon=0.0, lam=lam, **market)
                sol = solve(p)
                y = p.merton_weight
                v = p.sigma * y * (1.0 - y)
                C = 0.5 * v * v * math.sqrt(2.0 * p.gamma * p.sigma**2)
                loss_gap = ((p.frictionless_esr - sol.beta)
                            / (C * math.sqrt(lam)) - 1.0)
                assert -0.18 <= loss_gap / math.sqrt(lam) <= -0.13, (
                    market, lam)
                if lam >= 1e-4:
                    kappa = math.sqrt(p.gamma * p.sigma**2 / (2.0 * lam))
                    slope = (sol.turnover_at(y + h)
                             - sol.turnover_at(y - h)) / (2.0 * h)
                    slope_gap = -slope / kappa - 1.0
                    assert -0.18 <= slope_gap / math.sqrt(lam) <= -0.12, (
                        market, lam)

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
        # singular endpoints, where the coefficient of q' vanishes. The last
        # three points are where the final legs' impact floor on atol is
        # largest against the q scale.
        rng = np.random.default_rng(20140221)
        near = np.geomspace(DELTA, 1e-3, 200)
        for eps, lam in ((1e-3, 1e-4), (3.13e-3, 2.23e-7), (3e-3, 1e-8),
                         (5e-2, 5e-2), (1e-4, 1e-2), (1e-3, 1.0)):
            sol = solve_cache(eps, lam)
            ys = np.concatenate([
                rng.uniform(sol.y_grid[0], sol.y_grid[-1], 1000),
                near, 1.0 - near,
            ])
            defect = make_defect(sol.params, sol.beta, 10.0 * 1e-10)
            ratios = np.fromiter(map(defect, ys.tolist(),
                                     sol.q_at(ys).tolist(),
                                     sol.q.derivative()(ys).tolist()), float)
            assert np.max(ratios) <= 1.0

    @pytest.mark.parametrize("seed,i", [(8, 26), (10, 7)])
    def test_defect_control_keeps_every_step_in_budget(self, seed, i,
                                                       box_point):
        # Two box points whose post-hoc refinement found no split of a final
        # step inside the residual budget (at y = 0.0056 and 0.0019). Under
        # the stepper's defect test every step stays within DEFECT_TARGET,
        # 0.35 of the budget (0.5 on this diagnostic's scale), up to the
        # rounding of the stitched backward pieces.
        sol = solve(box_point(seed, i))
        assert sol.diagnostics["residual_ratio_half_budget"] <= 0.51

    def test_unmeetable_defect_raises_fast_naming_y(self, box_point):
        # Box seed 9 point 1 (lam = 9.3e-12): next to y = 0 q sits only
        # 2 sqrt(lam beta) = 4e-8 above the buy curve, and at y = 1.3e-6 no
        # trial step of the final forward leg meets its residual target. The
        # leg stops once its trials fall below 1e-9 y, well inside a second.
        start = time.perf_counter()
        with pytest.raises(NumericalFailure,
                           match=r"did not reach the matching point at "
                                 r"beta=.*\(forward: stalled at "
                                 r"y=1\.3\d*e-06, q=0\.021\d*; "
                                 r"backward: reached\)"):
            solve(box_point(9, 1))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("eps,lam,bound", [
        # 1.3 x the accepted steps of the final legs with the impact floor
        # on their atol (955, 997, 1388 and 1157 steps; 3709, 3774, 3405
        # and 3863 without it, 6306, 5904, 5899 and 5623 when every step
        # was capped at 2.5e-4).
        (1e-3, 1e-4, 1242),
        (1e-2, 1e-2, 1296),
        (1e-2, 1e-4, 1804),
        (5e-2, 5e-2, 1504),
    ])
    def test_final_pass_takes_few_steps(self, eps, lam, bound, solve_cache):
        diagnostics = solve_cache(eps, lam).diagnostics
        assert diagnostics["forward_steps"] + diagnostics["backward_steps"] \
            <= bound

    @pytest.mark.parametrize("eps,lam,impact_binds", [
        (1e-3, 1e-4, True),
        (1e-2, 1e-10, True),
        (1e-3, 1e-10, True),
        (1e-2, 1e-12, False),
    ])
    def test_final_atol_impact_floor_vanishes_with_lambda(
            self, eps, lam, impact_binds, solve_cache):
        # The final legs' atol has a floor of 0.1 RTOL on the impact part of
        # q(0) = eps + 2 sqrt(lam beta): at lambda = 1e-12 it falls under the
        # q-scale term, and at lambda = 1e-10 it stays below FINAL_RTOL x
        # the q scale, the smallest uniform floor that broke the domain there.
        p = params_with(eps, lam)
        hi = p.frictionless_esr
        q_term = 0.01 * solver.FINAL_RTOL * _q_scale(p)
        floor = 0.1 * RTOL * 2.0 * math.sqrt(lam * hi)
        atol = solve_cache(eps, lam).diagnostics["final_atol"]
        assert atol == (floor if impact_binds else q_term)
        if lam <= 1e-10:
            assert atol < solver.FINAL_RTOL * _q_scale(p)

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
            _check_solution(broken)
        assert _check_solution(sol) == \
            sol.diagnostics["residual_ratio_half_budget"]

    def test_residual_ratio_is_inf_beyond_the_singular_curve(self):
        # A one-piece q = 2.1 on [0.4, 0.6]: its midpoint and upper quarter
        # point lie beyond q y = 1, where the residual has no meaning.
        q = PiecewisePolynomial(np.array([0.4, 0.6]), np.array([[2.1, 0.0]]))
        ratios = _residual_ratio(params_with(1e-3, 1e-4), 0.02, q)
        assert ratios.tolist() == [math.inf]

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
            _check_solution(reversed_band)

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
        # Both legs' pieces on increasing knots, meeting at 0.5: the
        # stitched polynomial agrees with each leg on its own side, in value
        # and derivative.
        rng = np.random.default_rng(7)
        forward = PiecewisePolynomial(np.array([0.0, 0.2, 0.35, 0.5]),
                                      rng.normal(size=(3, 4)))
        backward = PiecewisePolynomial(np.array([0.5, 0.6, 0.9, 1.0]),
                                       rng.normal(size=(3, 4)))
        q = _stitch(forward, backward)
        np.testing.assert_array_equal(q.knots, [0.0, 0.2, 0.35, 0.5, 0.6,
                                                0.9, 1.0])
        # Off the knots, where the random pieces do not join up: each
        # piece is the leg's own, so the values agree bit for bit.
        left = np.linspace(0.0, 0.5, 41)[:-1] + 0.00625
        right = left + 0.5
        for ours, theirs_f, theirs_b in (
                (q, forward, backward),
                (q.derivative(), forward.derivative(),
                 backward.derivative())):
            np.testing.assert_array_equal(ours(left), theirs_f(left))
            np.testing.assert_array_equal(ours(right), theirs_b(right))


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

    @pytest.mark.parametrize("edge", ["y_minus", "y_plus"])
    def test_tabulated_band_edges_read_zero_from_either_cell(self, solve_cache,
                                                             edge):
        # The table's cell coordinate, as tabulated() derives it: the band
        # is cells [below, below + m). Rounding puts some edges in the cell
        # across them (y_minus in the last buy cell, y_plus in the first
        # sell cell). Over 100 one-ulp shifts this edge lands both there
        # and in the band; it reads exactly 0 either way, and the side
        # beyond it keeps its sign.
        sol = solve_cache(1e-3, 1e-4)

        def lands_outside(s):
            width = s.y_plus - s.y_minus
            m = math.floor(width * TABLE_CELLS)
            h = width / m
            below = math.ceil((s.y_minus - s.y_grid[0]) / h)
            t = (getattr(s, edge) - (s.y_minus - below * h)) * (1.0 / h)
            return t < below if edge == "y_minus" else t >= below + m

        seen = set()
        value = getattr(sol, edge)
        side = -1e-9 if edge == "y_minus" else 1e-9
        for _ in range(100):
            value = math.nextafter(value, 1.0)
            shifted = dataclasses.replace(sol, **{edge: value})
            seen.add(lands_outside(shifted))
            u = policy(shifted).tabulated()(np.array([value, value + side]))
            assert u[0] == 0.0, (edge, value)
            assert np.sign(u[1]) == -np.sign(side), (edge, value)
        assert seen == {False, True}

    def test_tabulated_band_edge_off_the_grid_arithmetic(self, solve_cache):
        # For some band widths y_minus + m h misses y_plus by an ulp (none
        # of the solved markets here); the table pins that knot on y_plus,
        # so the band still reads exactly 0 up to its edge.
        sol = solve_cache(1e-3, 1e-4)

        def missed(y_plus):
            width = y_plus - sol.y_minus
            m = math.floor(width * TABLE_CELLS)
            return sol.y_minus + (width / m) * float(m) != y_plus

        rng = random.Random(2)
        y_plus = next(y for y in (sol.y_minus + rng.uniform(0.25, 0.39)
                                  for _ in range(1000)) if missed(y))
        wide = dataclasses.replace(sol, y_plus=y_plus)
        ys = np.append(np.linspace(sol.y_minus, y_plus, 200_001), y_plus)
        assert np.all(policy(wide).tabulated()(ys) == 0.0)
        assert policy(wide).tabulated()(np.array([y_plus + 1e-9]))[0] < 0.0

    @pytest.mark.parametrize("eps,lam", [(1e-3, 1e-4), (1e-2, 1e-8),
                                         (0.0, 1e-2)])
    def test_tabulated_writes_into_buffers_bitwise(self, solve_cache, eps,
                                                   lam):
        # into() writes the lookup into buffers the caller owns, as
        # simulate_paths keeps them per chunk. Its values are those of the
        # allocating call, and of the lookup written out (subtract, scale,
        # truncate, two clip-mode gathers), bit for bit: at delta, 1 -
        # delta, 0 and 1, outside [0, 1], at both band edges and one ulp
        # either side, and on a grid past both ends.
        sol = solve_cache(eps, lam)
        table = policy(sol).tabulated()
        special = [DELTA, 1.0 - DELTA, 0.0, 1.0, -0.25, -1e-300,
                   math.nextafter(1.0, 2.0), 1.5]
        for edge in (sol.y_minus, sol.y_plus):
            special += [math.nextafter(edge, 0.0), edge,
                        math.nextafter(edge, 1.0)]
        ys = np.concatenate([special, np.linspace(-0.1, 1.1, 20_001)])
        out, scratch = np.full_like(ys, np.nan), np.full_like(ys, np.nan)
        cell = np.full(len(ys), -7, dtype=np.intp)
        assert table.into(ys, out, scratch, cell) is out
        t = ys - table.y0
        t *= table.inv_h
        k = t.astype(np.intp)
        want = table.slope.take(k, mode="clip") * ys
        want += table.offset.take(k, mode="clip")
        assert np.array_equal(out, want)
        assert np.array_equal(table(ys), want)
        assert np.array_equal(cell, k)

    @pytest.mark.parametrize("eps,lam", [(1e-8, 1.0), (0.0, 1e-2)])
    def test_tabulated_narrow_band(self, solve_cache, eps, lam):
        # A band 4.5e-8 wide, and one of zero width: a table with both
        # edges on knots would need 2.2e7 cells for the first. The band
        # lies inside one cell of width 1/TABLE_CELLS instead, and the
        # table keeps its two arrays of at most TABLE_CELLS + 1 floats.
        sol = solve_cache(eps, lam)
        assert 0.0 <= sol.y_plus - sol.y_minus < 1.0 / TABLE_CELLS
        pol = policy(sol)
        tracemalloc.start()
        try:
            table = pol.tabulated()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 2 * 8 * (TABLE_CELLS + 1) + 4096
        assert peak <= 4e6
        edges = np.array([sol.y_minus, sol.y_plus])
        ys = np.concatenate([
            np.linspace(sol.y_grid[0], sol.y_grid[-1], 400_001),
            edges, edges - 1e-9, edges + 1e-9])
        band = (ys >= sol.y_minus) & (ys <= sol.y_plus)
        exact, u = pol(ys), table(ys)
        assert np.array_equal(np.sign(u[~band]), np.sign(exact[~band]))
        assert u[ys == sol.y_minus][0] == 0.0
        # Inside the band the table reads the line of the cell it lies in,
        # which runs from 0 at y_minus to the turnover one cell away.
        one_cell = abs(pol(sol.y_minus + 1.0 / TABLE_CELLS))
        assert np.max(np.abs(u[band])) <= one_cell
        assert np.max(np.abs(u - exact)) <= 1e-6 * np.max(np.abs(exact))

    def test_scaling_wrapper(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        from spreadimpact.solver import TradingPolicy
        doubled = TradingPolicy(sol, scale_outside_band=2.0)
        y = sol.y_minus - 0.05
        assert doubled(y) == pytest.approx(2.0 * policy(sol)(y))
        assert doubled(0.5 * (sol.y_minus + sol.y_plus)) == 0.0

    @pytest.mark.parametrize("scale", [
        math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400"),
        True, "2", None, 1j])
    def test_scale_must_be_a_finite_real_number(self, scale, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        with pytest.raises(ValueError, match="scale_outside_band"):
            TradingPolicy(sol, scale)

    def test_integer_scale_is_stored_as_a_float(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        doubled = TradingPolicy(sol, 2)
        assert type(doubled.scale_outside_band) is float
        assert doubled.scale_outside_band == 2.0
        y = sol.y_minus - 0.05
        assert doubled(y) == TradingPolicy(sol, 2.0)(y)


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
        s = _q_scale(p)
        assert q_end - band_buy(y_end, p.epsilon) >= 2.0 * s

    def test_backward_reaches_matching_point_near_root(self, solve_cache):
        sol = solve_cache(1e-3, 1e-4)
        leg = shoot_leg(sol.params, sol.beta, False, 0.625)
        assert leg.status == "reached"
        assert leg.y_end < 0.0 or abs(leg.y_end) < 1e-3
        # Its dense output runs up in y, from where it stopped to its start.
        knots = leg.sol.knots
        assert np.all(np.diff(knots) > 0.0)
        assert leg.t_end == knots[0] == 0.625
        assert knots[-1] == 1.0 - DELTA
        assert leg.sol(leg.t_end) == pytest.approx(leg.y_end, abs=1e-15)

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
