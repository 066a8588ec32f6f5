"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, not computed. Run with ``pytest -s`` to see
the per-criterion lines; the whole module is sized to finish in a few
minutes on a laptop.
"""

import math
import time

import numpy as np
import pytest

from spreadimpact.asymptotic import (
    AsymptoticInputs,
    asymptotic_policy,
    find_z_minus,
    near_boundary_slope,
    r_buy,
    welfare_coefficient,
)
from spreadimpact.hjb import band_buy, band_sell
from spreadimpact.market import MarketParams
from spreadimpact.montecarlo import SimConfig, estimate_esr, simulate_paths
from spreadimpact.solver import TradingPolicy, policy, solve
from spreadimpact.whittaker import whittaker_w

BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
FRICTIONLESS = 0.025
FLOOR = 0.016
Y_STAR = 0.625

FRICTION_GRID = [10.0 ** e for e in (-4.0, -3.5, -3.0, -2.5, -2.0)]


def params_with(eps, lam):
    return MarketParams(epsilon=eps, lam=lam, **BASE)


@pytest.fixture(scope="module")
def grid_solutions(solve_cache):
    return {(eps, lam): solve_cache(eps, lam)
            for eps in FRICTION_GRID for lam in FRICTION_GRID}


def test_criterion_1_frictionless_limit(solve_cache):
    started = time.perf_counter()
    sol = solve(params_with(1e-8, 1e-8))
    elapsed = time.perf_counter() - started
    assert abs(sol.beta - FRICTIONLESS) <= 1e-4
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: frictionless limit beta={sol.beta:.9f} "
          f"(|dev|={abs(sol.beta - FRICTIONLESS):.2e} <= 1e-4) "
          f"in {elapsed:.2f}s < 5s")


def test_criterion_2_rate_bracket_and_matching(grid_solutions):
    worst_match = 0.0
    for (eps, lam), sol in grid_solutions.items():
        assert FLOOR <= sol.beta <= FRICTIONLESS, (eps, lam)
        assert np.all(sol.y_grid * sol.q_grid < 1.0), (eps, lam)
        gap_minus = abs(sol.q_at(sol.y_minus) - band_buy(sol.y_minus, eps))
        gap_plus = abs(sol.q_at(sol.y_plus) - band_sell(sol.y_plus, eps))
        worst_match = max(worst_match, gap_minus, gap_plus)
        assert gap_minus <= 1e-8 and gap_plus <= 1e-8, (eps, lam)
    print(f"\nPASS criterion 2: 25-point friction grid, beta in "
          f"[{FLOOR}, {FRICTIONLESS}] everywhere, q y < 1, worst value "
          f"matching {worst_match:.2e} <= 1e-8")


def test_criterion_3_policy_sign_structure(grid_solutions):
    for (eps, lam), sol in grid_solutions.items():
        pol = policy(sol)
        ys = np.linspace(sol.y_grid[0], sol.y_grid[-1], 2001)
        us = pol(ys)
        assert np.all(us[ys < sol.y_minus] >= 0.0), (eps, lam)
        assert np.all(us[(ys >= sol.y_minus) & (ys <= sol.y_plus)] == 0.0)
        assert np.all(us[ys > sol.y_plus] <= 0.0), (eps, lam)
        assert pol(sol.y_grid[0]) > 0.0, (eps, lam)
        assert pol(sol.y_grid[-1]) < 0.0, (eps, lam)
    print("\nPASS criterion 3: turnover >=0 / ==0 / <=0 across the band and "
          "strictly inward at both endpoints on the full friction grid")


def test_criterion_4_buy_and_hold_rates():
    # Corner starts are stationary from the first step, so a short burn-in
    # suffices and the two-horizon window can sit where the estimator noise
    # is smallest. The zero-weight run's own error bar collapses with the
    # position size, so its comparison uses the criterion's stderr budget.
    started = time.perf_counter()
    frictionless = params_with(0.0, 0.0)
    stderr_budget = 5e-4

    cfg_risky = SimConfig(horizon_T=4.2, dt=1e-3, n_paths=100_000, seed=42,
                          y0=1 - 1e-9, burn_in_T=0.3, antithetic=True)
    report_risky = estimate_esr(simulate_paths(frictionless, None, cfg_risky),
                                BASE["gamma"])
    assert report_risky.esr_stderr <= stderr_budget
    assert abs(report_risky.esr_estimate - FLOOR) <= 2 * report_risky.esr_stderr

    cfg_safe = SimConfig(horizon_T=4.2, dt=1e-3, n_paths=100_000, seed=42,
                         y0=1e-9, burn_in_T=0.3, antithetic=True)
    report_safe = estimate_esr(simulate_paths(frictionless, None, cfg_safe),
                               BASE["gamma"])
    assert report_safe.esr_stderr <= stderr_budget
    assert abs(report_safe.esr_estimate - 0.0) <= 2 * max(
        report_safe.esr_stderr, stderr_budget)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"\nPASS criterion 4: buy-and-hold rates "
          f"{report_risky.esr_estimate:.6f}+-{report_risky.esr_stderr:.1e} "
          f"(target {FLOOR}) and {report_safe.esr_estimate:.2e}"
          f"+-{report_safe.esr_stderr:.1e} (target 0) in {elapsed:.0f}s < 300s")


def test_criterion_5_simulated_optimality(solve_cache):
    started = time.perf_counter()
    sol = solve_cache(1e-3, 1e-4)
    cfg = SimConfig(horizon_T=14.0, dt=1e-3, n_paths=30_000, seed=1,
                    y0=None, burn_in_T=3.5)
    gamma = sol.params.gamma

    optimal = estimate_esr(
        simulate_paths(sol.params, policy(sol).tabulated(), cfg), gamma)
    assert abs(optimal.esr_estimate - sol.beta) <= 2 * optimal.esr_stderr

    lines = [f"optimal {optimal.esr_estimate:.6f}+-{optimal.esr_stderr:.1e} "
             f"vs beta {sol.beta:.6f}"]
    for scale in (0.5, 2.0):
        perturbed = TradingPolicy(sol, scale_outside_band=scale).tabulated()
        report = estimate_esr(simulate_paths(sol.params, perturbed, cfg),
                              gamma)
        tol = 2 * max(optimal.esr_stderr, report.esr_stderr)
        assert report.esr_estimate <= optimal.esr_estimate + tol, scale
        lines.append(f"x{scale} {report.esr_estimate:.6f}")
    elapsed = time.perf_counter() - started
    print("\nPASS criterion 5: " + "; ".join(lines) + f" in {elapsed:.0f}s")


def test_criterion_6_expansion_fit(solve_cache):
    # Large-friction fit of the expansion against the exact solution.
    sol = solve_cache(1e-2, 1e-2)
    expansion = find_z_minus(AsymptoticInputs.from_params(sol.params))
    gap = FRICTIONLESS - sol.beta
    beta_err = abs(sol.beta - expansion.beta_approx)
    assert beta_err <= 0.1 * gap

    eps = sol.params.epsilon
    half = 3.0 * eps ** (1.0 / 3.0)
    ys = np.linspace(max(0.05, Y_STAR - half), min(0.95, Y_STAR + half), 241)
    u_exact = sol.turnover_at(ys)
    u_asym = np.array([asymptotic_policy(float(y), expansion) for y in ys])
    # The two no-trade bands differ at order eps^(2/3), which makes the
    # pointwise quotient meaningless next to the boundaries; the fit is
    # measured relative to the turnover scale on the window.
    rel = float(np.max(np.abs(u_exact - u_asym)) / np.max(np.abs(u_exact)))
    assert rel <= 0.10

    big = solve(params_with(5e-2, 5e-2))
    big_exp = find_z_minus(AsymptoticInputs.from_params(big.params))
    u_big = asymptotic_policy(0.45, big_exp)
    assert math.isfinite(u_big) and math.isfinite(big_exp.beta_approx)
    print(f"\nPASS criterion 6: at 1% frictions |beta err| = {beta_err:.2e} "
          f"<= 10% of gap {gap:.2e}; turnover fit {rel:.1%} <= 10%; "
          f"5% frictions completed")


def test_criterion_7_convergence_orders(solve_cache):
    # Halving eps along lam = eps^(4/3) (coupling fixed at one). The rate
    # error shrinks at first order; the boundary error - measured where it
    # is largest of the two sides, the buy-side coefficient being
    # incidentally tiny at these parameters - at order 2/3.
    errors = []
    for eps in (4e-3, 2e-3, 1e-3):
        lam = eps ** (4.0 / 3.0)
        sol = solve_cache(eps, lam)
        expansion = find_z_minus(AsymptoticInputs.from_params(sol.params))
        errors.append((
            abs(sol.beta - expansion.beta_approx),
            max(abs(sol.y_minus - expansion.y_minus_approx),
                abs(sol.y_plus - expansion.y_plus_approx)),
        ))
    ratios = []
    for i in (0, 1):
        beta_ratio = errors[i][0] / errors[i + 1][0]
        bound_ratio = errors[i][1] / errors[i + 1][1]
        assert 1.5 <= beta_ratio <= 3.0, beta_ratio
        assert 1.3 <= bound_ratio <= 2.2, bound_ratio
        ratios.append((beta_ratio, bound_ratio))
    print(f"\nPASS criterion 7: per-halving error ratios rate="
          f"{ratios[0][0]:.2f}/{ratios[1][0]:.2f} in [1.5,3], boundaries="
          f"{ratios[0][1]:.2f}/{ratios[1][1]:.2f} in [1.3,2.2]")


def test_criterion_8_far_field_law(solve_cache):
    sol = solve_cache(1e-3, 1e-4)
    p = sol.params
    rels = []
    for y in (Y_STAR - 0.2, Y_STAR + 0.2):
        law = p.sigma * math.sqrt(p.gamma / 2.0) * (Y_STAR - y) \
            / math.sqrt(p.lam)
        rel = abs(sol.turnover_at(y) - law) / abs(law)
        assert rel <= 0.05
        rels.append(rel)
    print(f"\nPASS criterion 8: far-field turnover law matched to "
          f"{max(rels):.2%} <= 5% at |y - y*| = 0.2")


def test_criterion_9_near_boundary_slope(solve_cache):
    sol = solve_cache(5e-3, 1e-4)
    expansion = find_z_minus(AsymptoticInputs.from_params(sol.params))
    slope_closed, _ = near_boundary_slope(expansion)
    h = 2.5e-4
    slope_fd = (sol.turnover_at(sol.y_minus - h)
                - sol.turnover_at(sol.y_minus)) / (-h)
    rel = abs(slope_closed - slope_fd) / abs(slope_fd)
    assert rel <= 0.10
    print(f"\nPASS criterion 9: near-boundary slope closed form "
          f"{slope_closed:.2f} vs finite difference {slope_fd:.2f} "
          f"({rel:.1%} <= 10%)")


def test_criterion_10_special_function_oracles():
    worst = 0.0
    for K in (0.1, 1.0, 10.0):
        inputs = AsymptoticInputs.from_params(
            params_with(1e-3, K * 1e-4), K=K)
        z_minus = find_z_minus(inputs).z_minus
        l = welfare_coefficient(z_minus, inputs.params)
        for z in np.linspace(-5.0, -0.5, 10):
            via_w = r_buy(float(z), l, inputs, method="whittaker")
            via_ode = r_buy(float(z), l, inputs, method="riccati")
            rel = abs(via_w - via_ode) / abs(via_ode)
            worst = max(worst, rel)
            assert rel <= 1e-6, (K, z)

    growth_worst = 0.0
    for k in (0.25, 0.75, 1.25):
        for x in (100.0, 200.0, 500.0, 1000.0):
            ratio = whittaker_w(k, -0.25, x) / (x**k * math.exp(-x / 2.0))
            growth_worst = max(growth_worst, abs(ratio - 1.0))
            assert 0.99 <= ratio <= 1.01, (k, x)
    print(f"\nPASS criterion 10: closed form vs integration agree to "
          f"{worst:.1e} <= 1e-6; decaying-solution growth ratio within "
          f"{growth_worst:.1e} of one for x >= 100")
