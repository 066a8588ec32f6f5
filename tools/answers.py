"""Fingerprint the exact solver's answers, one line per input.

For the 4 reference points, the 25-point acceptance grid, the 45-point
base grid of the README's domain table and the 12 ``exact`` benchmark
inputs of seeds 1, 3 and 11, it prints a SHA-256 of beta, the band edges,
q's knots and coefficients and the repr of ``diagnostics``, and beside it
the repr of beta, ``y_minus`` and ``y_plus``. For each of
the reference and acceptance points it also prints, for the policy scaled
by 0.5, 1 and 2 outside the band, a SHA-256 of its table
(``TradingPolicy.tabulated()``: ``y0``, ``inv_h``, ``slope`` and
``offset``). For each of the seven known failures, and for the base grid's
one failure, it prints the exception's type and message. Then it prints
the same for every point of box seeds 5-11, 40 per seed, drawn by
``tests/conftest.py``'s ``draw_box_point``: 277 solve and three are the
known box failures.

Last it fingerprints Monte Carlo ensembles: for the optimal, x2 and
buy-and-hold policies at the ``montecarlo`` benchmark's settings (16,384
paths, dt 1e-3, horizon 1, burn-in 0.25, simulation seeds 16-18), then
for the optimal policy with antithetic pairs, and over two chunks (65,536
+ 1,000 paths, 50 steps), it prints a SHA-256 of the four per-path
arrays, ``clamp_events``, ``total_steps`` and the repr of
``estimate_esr``'s report. A change that should leave every answer
bitwise unchanged is checked by one ``diff`` of this script's output
before and after it:

    python3 tools/answers.py > before.txt
    ...
    python3 tools/answers.py > after.txt
    diff before.txt after.txt

A change that may move the answers within a tolerance is checked on the
printed beta, ``y_minus`` and ``y_plus`` of the same two outputs instead.

The package is imported from this checkout's ``src``, and the benchmark
inputs are drawn by ``perfbench/workload.py`` itself. Deleting ``os.fork``
first runs every leg in the caller; the output must not change:

    python3 -c "import os, runpy; del os.fork; runpy.run_path('tools/answers.py', run_name='__main__')"
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
                os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

import spreadimpact as si  # noqa: E402
import workload  # noqa: E402
from conftest import draw_box_point  # noqa: E402

BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
REFERENCE_POINTS = [(1e-3, 1e-4), (1e-2, 1e-2), (1e-2, 1e-4), (5e-2, 5e-2)]
GRID = [10.0 ** e for e in (-4.0, -3.5, -3.0, -2.5, -2.0)]
BASE_GRID_EPS = [1e-4, 1e-3, 3e-3, 1e-2, 5e-2]
BASE_GRID_LAM = [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0]
# The policy's scales outside the band whose tables are fingerprinted.
TABLE_SCALES = (0.5, 1.0, 2.0)
EXACT_SEEDS = (1, 3, 11)
# Seeds of the sampled domain box (tests/conftest.py's draw_box_point) and
# its points per seed, three of which fail like the points of the base
# market below: the final forward leg stalls.
BOX_SEEDS = range(5, 12)
BOX_POINTS = 40
FAILING_BOX_POINTS = [(5, 14), (9, 1), (9, 10)]
FAILING_BASE_POINTS = [(1e-2, 1e-14), (5e-2, 1e-14), (5e-2, 1e-13),
                       (5e-2, 1e-12)]
# The montecarlo benchmark's seed whose simulation seeds are 16-18.
MONTECARLO_SEED = 1


def fingerprint(sol: si.FreeBoundarySolution) -> str:
    digest = hashlib.sha256()
    digest.update(repr((sol.beta, sol.y_minus, sol.y_plus)).encode())
    digest.update(sol.q.knots.tobytes())
    digest.update(sol.q.coeffs.tobytes())
    digest.update(repr(sol.diagnostics).encode())
    return digest.hexdigest()


def table_fingerprint(table) -> str:
    digest = hashlib.sha256()
    digest.update(np.array([table.y0, table.inv_h]).tobytes())
    digest.update(table.slope.tobytes())
    digest.update(table.offset.tobytes())
    return digest.hexdigest()


def ensemble_fingerprint(ensemble: si.PathEnsemble, gamma: float) -> str:
    digest = hashlib.sha256()
    for field in ("log_wealth_burn_in", "log_wealth_final",
                  "time_in_no_trade", "mean_abs_turnover"):
        digest.update(getattr(ensemble, field).tobytes())
    digest.update(repr((ensemble.clamp_events,
                        ensemble.total_steps)).encode())
    digest.update(repr(si.estimate_esr(ensemble, gamma)).encode())
    return digest.hexdigest()


def simulated():
    """Yield (label, fingerprint) of each Monte Carlo ensemble."""
    bench = workload.MonteCarlo(si, np, MONTECARLO_SEED)
    params, optimal = bench.params, bench.tables["optimal"]
    runs = []
    for x in bench.inputs:
        cfg = si.SimConfig(horizon_T=bench.HORIZON, dt=bench.DT,
                           n_paths=bench.PATHS, seed=x["sim_seed"],
                           burn_in_T=bench.BURN_IN)
        runs.append((f"montecarlo {x['policy']} seed={x['sim_seed']}",
                     bench.tables[x["policy"]], cfg))
    cfg = si.SimConfig(horizon_T=bench.HORIZON, dt=bench.DT,
                       n_paths=bench.PATHS, seed=bench.inputs[0]["sim_seed"],
                       burn_in_T=bench.BURN_IN, antithetic=True)
    runs.append(("montecarlo optimal antithetic", optimal, cfg))
    runs.append(("montecarlo optimal two chunks", optimal,
                 si.SimConfig(horizon_T=0.05, dt=bench.DT,
                              n_paths=65536 + 1000, seed=19,
                              burn_in_T=0.02)))
    for label, turnover, cfg in runs:
        yield label, ensemble_fingerprint(
            si.simulate_paths(params, turnover, cfg), params.gamma)


def solved(params: si.MarketParams):
    """(the answer's line, the solution or None where it raised)."""
    try:
        sol = si.solve(params)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}", None
    return (f"{fingerprint(sol)} beta={sol.beta!r} y_minus={sol.y_minus!r} "
            f"y_plus={sol.y_plus!r}"), sol


def main() -> None:
    tabled = [(f"reference eps={eps!r} lam={lam!r}", eps, lam)
              for eps, lam in REFERENCE_POINTS]
    tabled += [(f"grid eps={eps!r} lam={lam!r}", eps, lam)
               for eps in GRID for lam in GRID]
    for label, eps, lam in tabled:
        line, sol = solved(si.MarketParams(epsilon=eps, lam=lam, **BASE))
        print(f"{label}: {line}", flush=True)
        for scale in TABLE_SCALES if sol is not None else ():
            table = si.TradingPolicy(sol, scale).tabulated()
            print(f"table scale={scale!r} {label}: "
                  f"{table_fingerprint(table)}", flush=True)
    inputs = [(f"base eps={eps!r} lam={lam!r}", eps, lam)
              for eps in BASE_GRID_EPS for lam in BASE_GRID_LAM]
    for seed in EXACT_SEEDS:
        for x in workload.Exact(si, np, seed).inputs:
            inputs.append((f"exact seed={seed} eps={x['epsilon']!r} "
                           f"lam={x['lambda']!r}", x["epsilon"], x["lambda"]))
    inputs += [(f"failure eps={eps!r} lam={lam!r}", eps, lam)
               for eps, lam in FAILING_BASE_POINTS]
    for label, eps, lam in inputs:
        params = si.MarketParams(epsilon=eps, lam=lam, **BASE)
        print(f"{label}: {solved(params)[0]}", flush=True)
    for seed, i in FAILING_BOX_POINTS:
        print(f"failure box seed={seed} point={i}: "
              f"{solved(draw_box_point(seed, i))[0]}", flush=True)
    for seed in BOX_SEEDS:
        for i in range(BOX_POINTS):
            print(f"box seed={seed} point={i}: "
                  f"{solved(draw_box_point(seed, i))[0]}", flush=True)
    for label, line in simulated():
        print(f"{label}: {line}", flush=True)


if __name__ == "__main__":
    main()
