import math
import sys
import threading

import numpy as np
import pytest

from spreadimpact import montecarlo
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


def serial_oracle(params, turnover, cfg):
    """The step-by-step simulation the block-ahead draws must reproduce:
    each step draws its own shocks from the chunk's generator, then applies
    the Euler update and the clamp in the order the engine's arithmetic
    follows."""
    mu, sigma = params.mu, params.sigma
    eps, lam = params.epsilon, params.lam
    s2 = sigma * sigma
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    n_steps = cfg.n_steps
    burn_step = cfg.burn_in_step
    y0 = cfg.y0 if cfg.y0 is not None else params.merton_weight
    total = cfg.n_paths
    lw_burn = np.empty(total)
    lw_final = np.empty(total)
    nt_frac = np.empty(total)
    tu_avg = np.empty(total)
    clamp_events = 0
    done = 0
    chunk_index = 0
    while done < total:
        n = min(montecarlo._CHUNK, total - done)
        rng = np.random.default_rng([cfg.seed, chunk_index])
        log_x = np.zeros(n)
        y = np.full(n, y0)
        nt_steps = np.zeros(n)
        tu_sum = np.zeros(n)
        half = n // 2
        dw = np.empty(n)
        drift = np.empty(n)
        vol = np.empty(n)
        scratch = np.empty(n)
        au = np.empty(n)
        cost = np.empty(n)
        for step in range(n_steps):
            if cfg.antithetic:
                rng.standard_normal(half, out=dw[:half])
                np.negative(dw[:half], out=dw[half:])
            else:
                rng.standard_normal(n, out=dw)
            dw *= sqrt_dt

            if turnover is None:
                u = None
                nt_steps += 1.0
            else:
                u = np.asarray(turnover(y), dtype=float)
                np.abs(u, out=au)
                nt_steps += (au == 0.0)
                tu_sum += au
                np.multiply(u, u, out=cost)
                cost *= lam
                np.multiply(au, eps, out=scratch)
                cost += scratch

            np.multiply(y, y, out=drift)
            drift *= -0.5 * s2
            np.multiply(y, mu, out=scratch)
            drift += scratch
            if u is not None:
                drift -= cost
            drift *= dt
            np.multiply(y, dw, out=vol)
            vol *= sigma
            drift += vol
            log_x += drift

            np.multiply(y, -s2, out=drift)
            drift += mu
            np.subtract(1.0, y, out=scratch)
            drift *= scratch
            drift *= y
            if u is not None:
                drift += u
                np.multiply(y, cost, out=vol)
                drift += vol
            drift *= dt
            np.multiply(y, dw, out=vol)
            vol *= sigma
            np.subtract(1.0, y, out=scratch)
            vol *= scratch
            drift += vol

            y += drift
            clamp_events += int(np.count_nonzero((y < 0.0) | (y > 1.0)))
            np.clip(y, 0.0, 1.0, out=y)

            if step + 1 == burn_step:
                lw_burn[done:done + n] = log_x
        if cfg.antithetic:
            order = np.empty(n, dtype=np.intp)
            order[0::2] = np.arange(half)
            order[1::2] = np.arange(half, n)
            lw_burn[done:done + n] = lw_burn[done:done + n][order]
            lw_final[done:done + n] = log_x[order]
            nt_frac[done:done + n] = (nt_steps / n_steps)[order]
            tu_avg[done:done + n] = (tu_sum / n_steps)[order]
        else:
            lw_final[done:done + n] = log_x
            nt_frac[done:done + n] = nt_steps / n_steps
            tu_avg[done:done + n] = tu_sum / n_steps
        done += n
        chunk_index += 1
    return PathEnsemble(lw_burn, lw_final, nt_frac, tu_avg, clamp_events,
                        n_steps * total, cfg)


def assert_bitwise_equal(got, want):
    for name in ("log_wealth_burn_in", "log_wealth_final",
                 "time_in_no_trade", "mean_abs_turnover"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.clamp_events == want.clamp_events
    assert got.total_steps == want.total_steps


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

    def test_table_paths_at_small_impact(self, solve_cache):
        # At (1e-2, 1e-8) the table misses the turnover by about 1e-4 of its
        # largest value, next to the band edges where the turnover is
        # steep. On the same shocks the per-path log-wealth gap stays below
        # 1e-3 (measured 1.8e-4 final, 2.9e-5 at burn-in), far below the
        # paths' own spread, and the rate estimates agree to 1e-3 of their
        # standard error (measured 1.9e-6 against 4.3e-3).
        sol = solve_cache(1e-2, 1e-8)
        cfg = SimConfig(horizon_T=0.5, dt=1e-3, n_paths=2000, seed=11,
                        burn_in_T=0.25)
        table = simulate_paths(sol.params, policy(sol).tabulated(), cfg)
        exact = simulate_paths(sol.params, policy(sol), cfg)
        assert np.max(np.abs(table.log_wealth_final
                             - exact.log_wealth_final)) <= 1e-3
        assert np.max(np.abs(table.log_wealth_burn_in
                             - exact.log_wealth_burn_in)) <= 1e-3
        rep_table = estimate_esr(table, sol.params.gamma)
        rep_exact = estimate_esr(exact, sol.params.gamma)
        assert abs(rep_table.esr_estimate - rep_exact.esr_estimate) <= (
            1e-3 * rep_exact.esr_stderr)


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


@pytest.fixture(scope="module")
def golden_policies(solve_cache):
    sol = solve_cache(1e-3, 1e-4)
    return sol.params, {
        "table": policy(sol).tabulated(),
        "exact": policy(sol),
        "hold": None,
        # Overshoots the target by more than it corrects: clamps every
        # few steps, so the clamp path is compared too.
        "overshoot": lambda y: 2600.0 * (0.625 - y),
    }


class TestBlockAheadShocks:
    """Shocks drawn a block of steps ahead, on a helper thread, give the
    same ensembles bit for bit as drawing them one step at a time."""

    # 203 steps: not a multiple of the block rows. Burn-in at step 100
    # falls inside a block, at step 96 on a block edge.
    @pytest.mark.parametrize("burn_in_T", [0.1, 0.096])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", ["table", "exact", "hold", "overshoot"])
    def test_matches_serial_draws(self, golden_policies, name, antithetic,
                                  burn_in_T):
        params, policies = golden_policies
        cfg = SimConfig(horizon_T=0.203, dt=1e-3, n_paths=600, seed=17,
                        burn_in_T=burn_in_T, antithetic=antithetic)
        assert cfg.n_steps % montecarlo._BLOCK_ROWS != 0
        got = simulate_paths(params, policies[name], cfg)
        assert_bitwise_equal(got, serial_oracle(params, policies[name], cfg))
        if name == "overshoot":
            assert got.clamp_events > 0

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", ["table", "hold"])
    def test_matches_serial_draws_over_chunks(self, golden_policies,
                                              monkeypatch, name, antithetic):
        params, policies = golden_policies
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        cfg = SimConfig(horizon_T=0.05, dt=1e-3, n_paths=2500, seed=23,
                        burn_in_T=0.021, antithetic=antithetic)
        got = simulate_paths(params, policies[name], cfg)
        assert_bitwise_equal(got, serial_oracle(params, policies[name], cfg))

    def test_concurrent_runs_under_fast_switching(self, golden_policies):
        # More simulations than cores, each with its own helper, and a
        # thread switch forced every microsecond: a buffer handed back
        # before it is read, or filled before it is free, changes the paths.
        params, policies = golden_policies
        cfg = SimConfig(horizon_T=0.203, dt=1e-3, n_paths=400, seed=29,
                        burn_in_T=0.1, antithetic=True)
        want = serial_oracle(params, policies["table"], cfg)
        results = [None] * 4

        def run(i):
            results[i] = simulate_paths(params, policies["table"], cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,))
                       for i in range(len(results))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for got in results:
            assert_bitwise_equal(got, want)

    def test_helper_joined_when_the_policy_raises(self):
        calls = []

        def failing(y):
            calls.append(1)
            if len(calls) == 13:
                raise FloatingPointError("policy failed at step 12")
            return np.zeros_like(y)

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="step 12"):
            simulate_paths(FRICTIONLESS, failing, small_cfg(n_paths=64))
        assert len(calls) == 13
        assert threading.active_count() == before


    def test_draw_error_raised_in_the_calling_thread(self):
        class FailingGenerator:
            def standard_normal(self, out):
                raise MemoryError("no room for the shocks")

        before = threading.active_count()
        with pytest.raises(MemoryError, match="no room"):
            with montecarlo._ShockBlocks(FailingGenerator(), 4, 20, False,
                                         1.0) as shocks:
                list(shocks)
        assert threading.active_count() == before


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
