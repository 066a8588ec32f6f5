"""Long-run optimal rebalancing under a bid-ask spread and linear price impact.

The package solves the free-boundary problem characterizing the optimal
policy exactly (``solve``), evaluates its small-cost expansion
(``find_z_minus``/``asymptotic_policy``), and cross-validates both by Monte
Carlo simulation of the controlled wealth dynamics (``simulate_paths``/
``estimate_esr``).
"""

from .asymptotic import (
    AsymptoticInputs,
    AsymptoticSolution,
    NoRootError,
    asymptotic_policy,
    find_z_minus,
    near_boundary_slope,
    r_buy,
    welfare_coefficient,
)
from .market import (
    AllocationRegime,
    MarketParams,
    ParameterError,
    buy_and_hold_esr,
    degenerate_regime,
)
from .montecarlo import (
    PathEnsemble,
    SimConfig,
    SimulationReport,
    estimate_esr,
    simulate_paths,
)
from .solver import (
    FreeBoundarySolution,
    NoMatchError,
    NumericalFailure,
    TradingPolicy,
    policy,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationRegime",
    "AsymptoticInputs",
    "AsymptoticSolution",
    "FreeBoundarySolution",
    "MarketParams",
    "NoMatchError",
    "NoRootError",
    "NumericalFailure",
    "ParameterError",
    "PathEnsemble",
    "SimConfig",
    "SimulationReport",
    "TradingPolicy",
    "asymptotic_policy",
    "buy_and_hold_esr",
    "degenerate_regime",
    "estimate_esr",
    "find_z_minus",
    "near_boundary_slope",
    "policy",
    "r_buy",
    "simulate_paths",
    "solve",
    "welfare_coefficient",
]
