import math
import random

import pytest

from spreadimpact._radau import REACHED, GuardBox, integrate_guarded
from spreadimpact.market import MarketParams
from spreadimpact.solver import FreeBoundarySolution, solve


@pytest.fixture(scope="session")
def base_market() -> dict:
    """Equity-like base case used throughout: 8% drift, 16% vol, gamma 5."""
    return dict(mu=0.08, sigma=0.16, gamma=5.0)


@pytest.fixture(scope="session")
def box_point():
    """Point ``i`` (from 0) of seed ``seed`` of the sampled domain box, drawn
    by ``random.Random(seed)`` in this order: y* uniform in [0.02, 0.98];
    gamma log-uniform in [0.5, 50]; sigma = 0.2; eps log-uniform in
    [1e-5, 5e-2]; lam log-uniform in [1e-12, 1]; mu = y* gamma sigma sigma."""

    def log_uniform(rng, lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def point(seed: int, i: int) -> MarketParams:
        rng = random.Random(seed)
        for _ in range(i + 1):
            y_star = rng.uniform(0.02, 0.98)
            gamma = log_uniform(rng, 0.5, 50.0)
            sigma = 0.2
            eps = log_uniform(rng, 1e-5, 5e-2)
            lam = log_uniform(rng, 1e-12, 1.0)
        return MarketParams(mu=y_star * gamma * sigma * sigma, sigma=sigma,
                            gamma=gamma, epsilon=eps, lam=lam)

    return point


@pytest.fixture(scope="session")
def solve_cache(base_market):
    """Session-wide cache of free-boundary solutions keyed by (eps, lam)."""
    cache: dict[tuple[float, float], FreeBoundarySolution] = {}

    def get(epsilon: float, lam: float) -> FreeBoundarySolution:
        key = (epsilon, lam)
        if key not in cache:
            cache[key] = solve(MarketParams(epsilon=epsilon, lam=lam,
                                            **base_market))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def riccati_r_buy():
    """Oracle for the closed form of the expansion's r_B(z, l), z < 0: the
    buy-region Riccati equation integrated inward from a far-field start
    where the solution is linear, at rtol 1e-10 and atol 1e-12."""

    def r_buy(z, l, inputs):
        S = inputs.growth_slope
        v2 = inputs.curvature_scale
        gs2 = inputs.params.gamma * inputs.params.sigma**2
        four_k = 4.0 * inputs.K
        z_far = -10.0 * max(1.0, abs(z))
        r_far = -S * z_far + 1.0

        def rhs(t, r):
            return (gs2 * t * t / 2.0 - l - (r - 1.0) ** 2 / four_k) / (
                0.5 * v2)

        def jac(t, r):
            return -(r - 1.0) / (2.0 * inputs.K) / (0.5 * v2)

        result = integrate_guarded(rhs, jac, z_far, z, r_far, 1e-10, 1e-12,
                                   GuardBox())
        assert result.status == REACHED, (z, result.status)
        return result.y_end

    return r_buy
