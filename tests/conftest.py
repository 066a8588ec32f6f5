import pytest

from spreadimpact.market import MarketParams
from spreadimpact.solver import FreeBoundarySolution, solve


@pytest.fixture(scope="session")
def base_market() -> dict:
    """Equity-like base case used throughout: 8% drift, 16% vol, gamma 5."""
    return dict(mu=0.08, sigma=0.16, gamma=5.0)


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
