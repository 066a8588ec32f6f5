import math

import numpy as np
import pytest

from spreadimpact.market import MarketParams
from spreadimpact.montecarlo import (
    DegenerateEnsembleError,
    PathEnsemble,
    SimConfig,
    estimate_esr,
    simulate_paths,
    write_path_summary_csv,
)
from spreadimpact.solver import TradingPolicy, policy

BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
FRICTIONLESS = MarketParams(epsilon=0.0, lam=0.0, **BASE)


def small_cfg(**kw):
    defaults = dict(horizon_T=4.0, dt=2e-3, n_paths=4000, seed=7, y0=0.625,
                    burn_in_T=1.0)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon_T=1.0, burn_in_T=2.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(y0=1.5)
        with pytest.raises(ValueError):
            SimConfig(n_paths=1)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10001, antithetic=True)

    def test_default_start_is_target_weight(self):
        cfg = small_cfg(y0=None, horizon_T=0.1, burn_in_T=0.05, n_paths=16)
        ens = simulate_paths(FRICTIONLESS, None, cfg)
        assert ens.n_paths == 16


class TestEstimator:
    def test_exact_on_deterministic_exponential(self):
        # X_t = e^{rt} for every path: the two-horizon estimator returns r.
        n, r = 500, 0.03
        cfg = small_cfg(n_paths=n)
        ens = PathEnsemble(
            log_wealth_burn_in=np.full(n, r * cfg.burn_in_T),
            log_wealth_final=np.full(n, r * cfg.horizon_T),
            time_in_no_trade=np.zeros(n),
            mean_abs_turnover=np.zeros(n),
            clamp_events=0,
            total_steps=n,
            config=cfg,
        )
        rep = estimate_esr(ens, 5.0)
        assert rep.esr_estimate == pytest.approx(r, abs=1e-12)
        assert rep.esr_stderr == pytest.approx(0.0, abs=1e-12)

    def test_rejects_log_utility(self):
        n = 10
        cfg = small_cfg(n_paths=n)
        ens = PathEnsemble(np.zeros(n), np.zeros(n), np.zeros(n),
                           np.zeros(n), 0, n, cfg)
        with pytest.raises(ValueError):
            estimate_esr(ens, 1.0)

    def test_degenerate_ensemble_reported(self):
        n = 10
        cfg = small_cfg(n_paths=n)
        bad = np.zeros(n)
        bad[3] = np.inf
        ens = PathEnsemble(np.zeros(n), bad, np.zeros(n), np.zeros(n), 0, n,
                           cfg)
        with pytest.raises(DegenerateEnsembleError):
            estimate_esr(ens, 5.0)


class TestBuyAndHold:
    def test_full_risky_rate(self):
        cfg = small_cfg(y0=1 - 1e-9, n_paths=20000, horizon_T=4.0,
                        burn_in_T=0.5, dt=1e-3)
        rep = estimate_esr(simulate_paths(FRICTIONLESS, None, cfg), 5.0)
        assert rep.esr_estimate == pytest.approx(0.016,
                                                 abs=3 * rep.esr_stderr)
        assert rep.fraction_time_in_NT == 1.0
        assert rep.mean_turnover == 0.0

    def test_vanishing_weight_earns_nothing(self):
        cfg = small_cfg(y0=1e-9, n_paths=2000)
        rep = estimate_esr(simulate_paths(FRICTIONLESS, None, cfg), 5.0)
        assert abs(rep.esr_estimate) < 1e-6

    def test_frictionless_rebalancing_recovers_merton_rate(self):
        # Strong mean reversion toward the target weight with zero costs.
        cfg = small_cfg(n_paths=30000, horizon_T=10.0, burn_in_T=2.0,
                        dt=1e-3)
        pull = lambda y: 50.0 * (0.625 - y)
        rep = estimate_esr(simulate_paths(FRICTIONLESS, pull, cfg), 5.0)
        assert rep.esr_estimate == pytest.approx(0.025,
                                                 abs=3 * rep.esr_stderr)


@pytest.fixture(scope="module")
def controlled(solve_cache):
    sol = solve_cache(1e-3, 1e-4)
    pol = policy(sol).tabulated()
    cfg = SimConfig(horizon_T=6.0, dt=1e-3, n_paths=20000, seed=31,
                    y0=None, burn_in_T=1.5)
    ens = simulate_paths(sol.params, pol, cfg)
    return sol, pol, cfg, ens


class TestWithSolverPolicy:

    def test_visits_both_regimes(self, controlled):
        sol, pol, cfg, ens = controlled
        rep = estimate_esr(ens, sol.params.gamma, cfg)
        assert 0.0 < rep.fraction_time_in_NT < 1.0
        assert rep.mean_turnover > 0.0

    def test_weight_clamping_is_rare(self, controlled):
        sol, pol, cfg, ens = controlled
        assert ens.clamp_events / ens.total_steps < 1e-3

    def test_estimate_near_matched_rate(self, controlled):
        sol, pol, cfg, ens = controlled
        rep = estimate_esr(ens, sol.params.gamma, cfg)
        assert rep.esr_estimate == pytest.approx(sol.beta,
                                                 abs=4 * rep.esr_stderr)

    def test_halving_the_step_is_within_noise(self, controlled):
        sol, pol, cfg, ens = controlled
        rep = estimate_esr(ens, sol.params.gamma, cfg)
        cfg_half = SimConfig(horizon_T=cfg.horizon_T, dt=cfg.dt / 2,
                             n_paths=cfg.n_paths, seed=cfg.seed, y0=cfg.y0,
                             burn_in_T=cfg.burn_in_T)
        rep_half = estimate_esr(simulate_paths(sol.params, pol, cfg_half),
                                sol.params.gamma, cfg_half)
        assert abs(rep.esr_estimate - rep_half.esr_estimate) < max(
            rep.esr_stderr, rep_half.esr_stderr)

    def test_overtrading_does_not_beat_the_optimum(self, controlled):
        sol, pol, cfg, ens = controlled
        rep = estimate_esr(ens, sol.params.gamma, cfg)
        scaled = TradingPolicy(sol, scale_outside_band=1.5).tabulated()
        rep_scaled = estimate_esr(simulate_paths(sol.params, scaled, cfg),
                                  sol.params.gamma, cfg)
        tol = 2 * max(rep.esr_stderr, rep_scaled.esr_stderr)
        assert rep_scaled.esr_estimate <= rep.esr_estimate + tol


class TestPolicyTable:
    def test_table_paths_match_exact_policy_paths(self, solve_cache):
        # The tabulated policy against the solution's own cubic, on the same
        # shocks: per-path log wealth agrees far below any Monte Carlo error.
        sol = solve_cache(1e-3, 1e-4)
        cfg = SimConfig(horizon_T=0.5, dt=1e-3, n_paths=2000, seed=11,
                        burn_in_T=0.25)
        table = simulate_paths(sol.params, policy(sol).tabulated(), cfg)
        exact = simulate_paths(sol.params, policy(sol), cfg)
        assert np.max(np.abs(table.log_wealth_final
                             - exact.log_wealth_final)) <= 1e-7
        assert np.max(np.abs(table.log_wealth_burn_in
                             - exact.log_wealth_burn_in)) <= 1e-7


class TestReproducibility:
    def test_bitwise_given_seed(self):
        cfg = small_cfg(n_paths=1000)
        a = simulate_paths(FRICTIONLESS, None, cfg)
        b = simulate_paths(FRICTIONLESS, None, cfg)
        assert np.array_equal(a.log_wealth_final, b.log_wealth_final)
        assert np.array_equal(a.log_wealth_burn_in, b.log_wealth_burn_in)

    def test_zero_policy_matches_hold_fast_path(self):
        cfg = small_cfg(n_paths=512)
        a = simulate_paths(FRICTIONLESS, None, cfg)
        b = simulate_paths(FRICTIONLESS, lambda y: np.zeros_like(y), cfg)
        assert np.array_equal(a.log_wealth_final, b.log_wealth_final)

    def test_antithetic_preserves_the_estimate(self):
        p = FRICTIONLESS
        cfg_plain = small_cfg(y0=1 - 1e-9, n_paths=20000, horizon_T=4.0,
                              burn_in_T=0.5, dt=2e-3, seed=5)
        cfg_anti = small_cfg(y0=1 - 1e-9, n_paths=20000, horizon_T=4.0,
                             burn_in_T=0.5, dt=2e-3, seed=5, antithetic=True)
        rep_plain = estimate_esr(simulate_paths(p, None, cfg_plain), 5.0)
        rep_anti = estimate_esr(simulate_paths(p, None, cfg_anti), 5.0)
        combined = math.hypot(rep_plain.esr_stderr, rep_anti.esr_stderr)
        assert abs(rep_plain.esr_estimate - rep_anti.esr_estimate) <= combined


class TestPathSummary:
    def test_csv_shape(self, tmp_path):
        cfg = small_cfg(n_paths=32, horizon_T=0.5, burn_in_T=0.1)
        ens = simulate_paths(FRICTIONLESS, None, cfg)
        out = tmp_path / "paths.csv"
        with open(out, "w") as fh:
            write_path_summary_csv(ens, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path_id,logX_T,time_in_NT,turnover_avg"
        assert len(lines) == 33
        tokens = lines[1].split(",")
        assert int(tokens[0]) == 0
        for tok in tokens[1:]:
            float(tok)  # plain parseable numbers, no wrapper reprs
