import contextlib
import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spreadimpact import montecarlo
from spreadimpact.cli import main
from spreadimpact.market import MarketParams
from spreadimpact.montecarlo import (
    DegenerateEnsembleError,
    PathEnsemble,
    SimConfig,
    estimate_esr,
    simulate_paths,
)
from spreadimpact.solver import TradingPolicy, policy

BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
FRICTIONLESS = MarketParams(epsilon=0.0, lam=0.0, **BASE)


def _draw_serially(rng, n, antithetic, out):
    """One step's standard normal shocks, drawn alone: an antithetic step
    draws the first half of its paths and mirrors it into the second."""
    if antithetic:
        half = n // 2
        rng.standard_normal(half, out=out[:half])
        np.negative(out[:half], out=out[half:])
    else:
        rng.standard_normal(n, out=out)


def _pair_adjacently(values, antithetic):
    """Path i of the first half and its mirror as paths 2i and 2i + 1."""
    if not antithetic:
        return values
    half = len(values) // 2
    order = np.empty(len(values), dtype=np.intp)
    order[0::2] = np.arange(half)
    order[1::2] = np.arange(half, len(values))
    return values[order]


def _run_serially(params, turnover, cfg, step):
    """Chunk by chunk, draw each step's shocks from the chunk's generator
    by themselves, then call ``step(y, log_x, z, u)`` with u the turnover
    (None for buy-and-hold) to move log wealth and the weight in place, and
    clamp; the tallies and the ensemble are built as the engine builds
    them."""
    n_steps = cfg.n_steps
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
        z = np.empty(n)
        for k in range(n_steps):
            _draw_serially(rng, n, cfg.antithetic, z)
            if turnover is None:
                u = None
                nt_steps += 1.0
            else:
                u = np.asarray(turnover(y), dtype=float)
                nt_steps += (np.abs(u) == 0.0)
                tu_sum += np.abs(u)
            step(y, log_x, z, u)
            clamp_events += int(np.count_nonzero((y < 0.0) | (y > 1.0)))
            np.clip(y, 0.0, 1.0, out=y)
            if k + 1 == cfg.burn_in_step:
                lw_burn[done:done + n] = log_x
        part = slice(done, done + n)
        lw_burn[part] = _pair_adjacently(lw_burn[part], cfg.antithetic)
        lw_final[part] = _pair_adjacently(log_x, cfg.antithetic)
        nt_frac[part] = _pair_adjacently(nt_steps / n_steps, cfg.antithetic)
        tu_avg[part] = _pair_adjacently(tu_sum / n_steps, cfg.antithetic)
        done += n
        chunk_index += 1
    return PathEnsemble(lw_burn, lw_final, nt_frac, tu_avg, clamp_events,
                        n_steps * total, cfg)


def serial_oracle(params, turnover, cfg):
    """The step-by-step simulation the block-ahead draws must reproduce bit
    for bit: the engine's folded Euler step, operation for operation, with
    e = mu dt + sigma sqrt(dt) z and the cost c = |u| (eps dt + lam dt |u|),
    on shocks drawn one step at a time."""
    dt = cfg.dt
    s2_dt = params.sigma * params.sigma * dt
    scale, shift = params.sigma * math.sqrt(dt), params.mu * dt
    eps_dt, lam_dt = params.epsilon * dt, params.lam * dt

    def step(y, log_x, z, u):
        e = z * scale
        e += shift
        inc = y * (-0.5 * s2_dt)
        inc += e
        inc *= y
        if u is not None:
            cost = np.abs(u) * lam_dt
            cost += eps_dt
            cost *= np.abs(u)
            inc -= cost
        log_x += inc
        inc = y * -s2_dt
        inc += e
        inc *= 1.0 - y
        if u is not None:
            inc += cost
        inc *= y
        if u is not None:
            inc += u * dt
        y += inc

    return _run_serially(params, turnover, cfg, step)


def euler_reference(params, turnover, cfg):
    """The textbook Euler step, with drifts and shocks kept apart. Log
    wealth moves by (mu y - s2 y^2 / 2 - c) dt + sigma y dw. The weight
    moves by (y (1-y)(mu - s2 y) + u + y c) dt + sigma y (1-y) dw. Here
    c = lam u^2 + eps |u| and dw = sqrt(dt) z. This is the engine's
    arithmetic before it folded the constants into fewer operations, so
    the engine agrees with it to rounding, not bit for bit."""
    mu, sigma = params.mu, params.sigma
    s2 = sigma * sigma
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)

    def step(y, log_x, z, u):
        dw = z * sqrt_dt
        if u is not None:
            cost = u * u
            cost *= params.lam
            cost += np.abs(u) * params.epsilon
        drift = y * y
        drift *= -0.5 * s2
        drift += y * mu
        if u is not None:
            drift -= cost
        drift *= dt
        drift += sigma * (y * dw)
        log_x += drift

        drift = y * -s2
        drift += mu
        drift *= 1.0 - y
        drift *= y
        if u is not None:
            drift += u
            drift += y * cost
        drift *= dt
        vol = y * dw
        vol *= sigma
        vol *= 1.0 - y
        drift += vol
        y += drift

    return _run_serially(params, turnover, cfg, step)


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
        for n_paths in (64.0, True):
            with pytest.raises(ValueError, match="n_paths must be an integer"):
                SimConfig(n_paths=n_paths)
        assert SimConfig(n_paths=np.int64(64)).n_paths == 64
        for seed in (1.5, True, "7", None, -1):
            with pytest.raises(ValueError, match="seed must be an integer"):
                SimConfig(seed=seed)
        assert SimConfig(seed=np.int64(7)).seed == 7
        # The real fields follow MarketParams' number rule.
        for name, value, rule in [
                ("dt", True, "a real number (got True)"),
                ("dt", "0.001", "a real number (got '0.001')"),
                ("y0", True, "a real number (got True)"),
                ("horizon_T", math.inf, "finite (got inf)"),
                ("burn_in_T", -math.inf, "finite (got -inf)"),
                ("horizon_T", 10**400,
                 "finite (got a value beyond the float range)")]:
            with pytest.raises(ValueError) as err:
                SimConfig(**{name: value})
            assert str(err.value) == f"{name} must be {rule}"
        cfg = SimConfig(horizon_T=2, dt=np.float64(0.5), burn_in_T=1, y0=0.5)
        assert all(type(x) is float for x in (cfg.horizon_T, cfg.dt,
                                               cfg.burn_in_T, cfg.y0))
        with pytest.raises(ValueError):
            SimConfig(n_paths=10001, antithetic=True)
        # More steps than the float tallies count exactly, or than a float
        # holds, are refused naming the times; 2**53 steps are accepted.
        assert SimConfig(horizon_T=2.0**53, dt=1.0).n_steps == 2**53
        for horizon_T, dt, steps in [(2.0**53 + 2.0, 1.0, "9.01e+15"),
                                     (1e300, 1e-3, "1e+303"),
                                     (1e300, 1e-10, "inf")]:
            with pytest.raises(ValueError) as err:
                SimConfig(horizon_T=horizon_T, dt=dt)
            assert str(err.value) == (
                f"horizon_T of {horizon_T!r} at dt {dt!r} is {steps} steps; "
                "at most 2**53 are counted exactly")
        # Burn-ins that round to step 0 or to the last step leave the
        # estimator without a first horizon.
        with pytest.raises(ValueError, match="rounds to step 0 of 50"):
            SimConfig(horizon_T=0.05, dt=1e-3, burn_in_T=4e-4, n_paths=64)
        with pytest.raises(ValueError, match="rounds to step 50 of 50"):
            SimConfig(horizon_T=0.05, dt=1e-3, burn_in_T=0.0496, n_paths=64)

    def test_default_start_is_target_weight(self):
        cfg = small_cfg(y0=None, horizon_T=0.1, burn_in_T=0.05, n_paths=16)
        ens = simulate_paths(FRICTIONLESS, None, cfg)
        assert ens.n_paths == 16


class TestEstimator:
    def test_exact_on_deterministic_exponential(self):
        # X_t = e^{rt} for every path: the two-horizon estimator returns r.
        # dt = 0.3 does not divide the horizon: the paths stop at step 3
        # (t = 0.9) and the burn-in falls on step 2 (t = 0.6), and the rate
        # is the growth over the 0.3 years simulated between them.
        n, r = 500, 0.03
        cfg = small_cfg(n_paths=n, horizon_T=1.0, dt=0.3, burn_in_T=0.5)
        assert (cfg.burn_in_step, cfg.n_steps) == (2, 3)
        ens = PathEnsemble(
            log_wealth_burn_in=np.full(n, r * cfg.burn_in_step * cfg.dt),
            log_wealth_final=np.full(n, r * cfg.n_steps * cfg.dt),
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
        # gamma follows MarketParams' number rule.
        for gamma, rule in [(math.nan, "positive and different from 1"),
                            (math.inf, "finite (got inf)"),
                            (-math.inf, "finite (got -inf)"),
                            (True, "a real number (got True)"),
                            ("5", "a real number (got '5')")]:
            with pytest.raises(ValueError) as err:
                estimate_esr(ens, gamma)
            assert str(err.value) == f"gamma must be {rule}"

    def test_degenerate_ensemble_reported(self):
        n = 10
        cfg = small_cfg(n_paths=n)
        bad = np.zeros(n)
        bad[3] = np.inf
        ens = PathEnsemble(np.zeros(n), bad, np.zeros(n), np.zeros(n), 0, n,
                           cfg)
        with pytest.raises(DegenerateEnsembleError):
            estimate_esr(ens, 5.0)

    def test_rejects_a_config_not_the_ensembles(self):
        n = 10
        cfg = small_cfg(n_paths=n)
        ens = PathEnsemble(np.zeros(n), np.zeros(n), np.zeros(n),
                           np.zeros(n), 0, n, cfg)
        longer = dataclasses.replace(cfg, horizon_T=2.0 * cfg.horizon_T)
        with pytest.raises(ValueError, match="not the config"):
            estimate_esr(ens, 5.0, longer)
        assert estimate_esr(ens, 5.0, cfg) == estimate_esr(ens, 5.0)


def gather_bootstrap(ensemble, gamma):
    """The bootstrap written out resample by resample: gather each
    resample's paths from the same draws the estimator takes, then take
    their max-shifted certainty-equivalent growth at both horizons."""
    cfg = ensemble.config
    omg = 1.0 - gamma
    span = (cfg.n_steps - cfg.burn_in_step) * cfg.dt
    z1 = omg * ensemble.log_wealth_burn_in
    z2 = omg * ensemble.log_wealth_final

    def growth(z):
        m = float(np.max(z))
        return (m + math.log(float(np.mean(np.exp(z - m))))) / omg

    n = ensemble.n_paths
    rng = np.random.default_rng([cfg.seed, montecarlo._BOOTSTRAP_TAG])
    resampled = []
    for _ in range(montecarlo._BOOTSTRAP_RESAMPLES):
        if cfg.antithetic:
            pairs = rng.integers(0, n // 2, n // 2)
            idx = np.empty(n, dtype=np.intp)
            idx[0::2] = 2 * pairs
            idx[1::2] = 2 * pairs + 1
        else:
            idx = rng.integers(0, n, n)
        resampled.append((growth(z2[idx]) - growth(z1[idx])) / span)
    return (growth(z2) - growth(z1)) / span, float(np.std(resampled, ddof=1))


class TestBootstrapOnCounts:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_matches_the_gather_bootstrap(self, antithetic):
        # The estimator weighs each path by how often a resample drew it
        # (its pair's count, for antithetic paths) against exp(z - max z);
        # the gathered resamples give the same error bar to rounding.
        cfg = small_cfg(n_paths=3000, seed=41, antithetic=antithetic)
        pull = lambda y: 5.0 * (0.625 - y)
        ens = simulate_paths(FRICTIONLESS, pull, cfg)
        rep = estimate_esr(ens, 5.0)
        estimate, stderr = gather_bootstrap(ens, 5.0)
        assert stderr > 0.0
        assert abs(rep.esr_stderr - stderr) <= 1e-12 * stderr
        assert abs(rep.esr_estimate - estimate) <= 1e-12 * stderr


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
        # 1e-3 (measured 7.9e-4 final in one path, 6.1e-6 at the 99th
        # percentile, 1.6e-5 at burn-in), far below the paths' own spread,
        # and the rate estimates agree to 1e-3 of their standard error
        # (measured 1.6e-6 against 4.3e-3).
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
    """Shocks drawn a block of steps ahead, by one worker thread, give the
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
    @pytest.mark.parametrize("name", ["table", "exact", "hold", "overshoot"])
    def test_matches_textbook_euler(self, golden_policies, name, antithetic):
        # The engine folds the step's constants into fewer operations, so it
        # agrees with the textbook step to rounding: per-path log wealth and
        # turnover within 1e-14 of max(1, |value|) (measured 1.4e-16 on
        # the table, exact and hold runs, 4.5e-15 at overshoot's log wealth
        # of about -26, and at most 4.5e-15 over 1,000 steps), with the
        # same no-trade tallies and clamp counts.
        params, policies = golden_policies
        cfg = SimConfig(horizon_T=0.203, dt=1e-3, n_paths=600, seed=17,
                        burn_in_T=0.1, antithetic=antithetic)
        got = simulate_paths(params, policies[name], cfg)
        want = euler_reference(params, policies[name], cfg)
        for field in ("log_wealth_burn_in", "log_wealth_final",
                      "mean_abs_turnover"):
            gap = np.abs(getattr(got, field) - getattr(want, field))
            assert np.all(gap <= 1e-14 * np.maximum(
                1.0, np.abs(getattr(want, field)))), field
        assert np.array_equal(got.time_in_no_trade, want.time_in_no_trade)
        assert got.clamp_events == want.clamp_events
        if name == "overshoot":
            assert got.clamp_events > 0

    def test_a_table_step_allocates_nothing(self, golden_policies):
        # At 16,384 paths one row is 128 KiB. A table run holds five rows
        # more than buy-and-hold: u, |u|, the cost and the table's cell
        # indices, and the bool no-trade flags; adding those flags to the
        # float tally goes through numpy's cast buffer of getbufsize()
        # floats. A step that allocated the lookup's temporaries would add
        # four rows more, as the same table behind a plain callable does.
        params, policies = golden_policies
        cfg = SimConfig(horizon_T=0.02, dt=1e-3, n_paths=16384, seed=3,
                        burn_in_T=0.01)
        n = cfg.n_paths
        table = policies["table"]

        def peak(turnover):
            simulate_paths(params, turnover, cfg)
            tracemalloc.start()
            try:
                simulate_paths(params, turnover, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = (peak(None) + 4 * 8 * n + n + 8 * np.getbufsize()
                 + 4096)
        assert peak(table) <= bound
        assert peak(lambda y: table(y)) > bound

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
        # More simulations than cores, each with its own worker, and a
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

    @pytest.mark.parametrize("fail_at", [None, 13], ids=["returns", "raises"])
    def test_worker_joined_on_every_exit(self, fail_at):
        calls = []

        def policy_under_test(y):
            calls.append(1)
            if len(calls) == fail_at:
                raise FloatingPointError("policy failed at step 12")
            return np.zeros_like(y)

        cfg = small_cfg(n_paths=64)
        outcome = (pytest.raises(FloatingPointError, match="step 12")
                   if fail_at else contextlib.nullcontext())
        before = threading.active_count()
        # A caught error stays bound to `failure`, and its traceback keeps
        # the engine's frame alive: the worker must have been joined before
        # the error left the engine, not when the frame is collected.
        with outcome as failure:
            simulate_paths(FRICTIONLESS, policy_under_test, cfg)
        assert len(calls) == (fail_at or cfg.n_steps)
        assert threading.active_count() == before

    def test_draw_error_raised_in_the_calling_thread(self):
        class FailingGenerator:
            def standard_normal(self, out):
                raise MemoryError("no room for the shocks")

        before = threading.active_count()
        with pytest.raises(MemoryError, match="no room"):
            list(montecarlo._shock_rows(FailingGenerator(), 4, 20, False, 1.0,
                                        0.0))
        assert threading.active_count() == before


class TestPathSummary:
    def test_csv_shape(self, tmp_path, capsys):
        cfg = small_cfg(n_paths=32, horizon_T=0.5, burn_in_T=0.1)
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--mu", "0.08", "--sigma", "0.16", "--gamma", "5",
                "--epsilon", "0", "--lambda", "0", "--policy", "hold",
                "--paths", repr(cfg.n_paths), "--horizon", repr(cfg.horizon_T),
                "--burn-in", repr(cfg.burn_in_T), "--dt", repr(cfg.dt),
                "--seed", repr(cfg.seed), "--y0", repr(cfg.y0),
                "--paths-csv", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path_id,logX_T,time_in_NT,turnover_avg"
        assert len(lines) == 33
        tokens = lines[1].split(",")
        assert int(tokens[0]) == 0
        for tok in tokens[1:]:
            float(tok)  # plain parseable numbers, no wrapper reprs
        ens = simulate_paths(FRICTIONLESS, None, cfg)
        assert float(tokens[1]) == ens.log_wealth_final[0]
