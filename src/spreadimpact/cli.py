"""Command-line front end: solve, asymptotic, policy, simulate, sweep, compare.

Every command is deterministic given its full flag set. Exit codes: 0 on
success, 1 for usage, validation or file problems, 2 when the free-boundary
construction reports that the frictions are too large (no matching rate),
3 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import asymptotic as asym
from . import montecarlo as mc
from .market import (
    AllocationRegime,
    MarketParams,
    ParameterError,
    buy_and_hold_esr,
    degenerate_regime,
)
from .solver import NoMatchError, NumericalFailure, _with_edges, policy, solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_MATCH = 2
EXIT_NUMERICAL = 3


# The keys of a parameter document and the ``MarketParams`` field each one
# holds; "lambda" is reserved in Python, so its field is ``lam``.
_PARAM_FIELDS = {"mu": "mu", "sigma": "sigma", "gamma": "gamma",
                 "epsilon": "epsilon", "lambda": "lam"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _positive(kind):
    """An argparse ``type=``: ``kind(text)``, refused naming the flag unless
    it is finite and above 0 (a count at least 1)."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and positive (got {text})")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def _add_market_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", metavar="FILE",
                   help="JSON file with mu, sigma, gamma, epsilon, lambda")
    p.add_argument("--mu", type=float, help="expected excess return per year")
    p.add_argument("--sigma", type=float, help="volatility per sqrt-year")
    p.add_argument("--gamma", type=float, help="relative risk aversion")
    p.add_argument("--epsilon", type=float,
                   help="relative half-spread (decimal, e.g. 0.001)")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="price-impact coefficient (decimal)")


def _add_output_flags(p: argparse.ArgumentParser,
                      default_format: str | None = None) -> None:
    """``--out``, and ``--format`` for a command that writes both formats."""
    p.add_argument("--out", metavar="FILE", default=None,
                   help="output path (default: standard output)")
    if default_format is not None:
        p.add_argument("--format", choices=("csv", "json"),
                       default=default_format)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="spreadimpact",
        description=("Optimal long-run portfolio rebalancing under a bid-ask "
                     "spread and linear price impact."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the free-boundary problem")
    _add_market_flags(p_solve)
    _add_output_flags(p_solve, "json")
    p_solve.add_argument("--grid-points", type=_positive(int), default=2001,
                         help="uniform rows in the emitted grid, to which "
                              "both band edges are added")

    p_asym = sub.add_parser("asymptotic", help="small-cost expansion constants")
    _add_market_flags(p_asym)
    _add_output_flags(p_asym)
    p_asym.add_argument("--k", type=float, default=None,
                        help="override the coupling K = lambda/epsilon^(4/3)")

    p_pol = sub.add_parser("policy", help="emit the optimal turnover on a grid")
    _add_market_flags(p_pol)
    _add_output_flags(p_pol, "csv")
    p_pol.add_argument("--grid-points", type=_positive(int), default=2001)

    p_sim = sub.add_parser("simulate",
                           help="Monte Carlo estimate of the equivalent safe rate")
    _add_market_flags(p_sim)
    _add_output_flags(p_sim)
    p_sim.add_argument("--seed", type=int, default=20140221)
    p_sim.add_argument("--paths", type=int, default=100_000)
    p_sim.add_argument("--horizon", type=float, default=100.0)
    p_sim.add_argument("--burn-in", type=float, default=20.0)
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--y0", type=float, default=None,
                       help="initial risky weight (default: Merton weight)")
    p_sim.add_argument("--policy", choices=("optimal", "hold"),
                       default="optimal",
                       help="'hold' simulates zero turnover (buy and hold)")
    p_sim.add_argument("--antithetic", action="store_true")
    p_sim.add_argument("--paths-csv", metavar="FILE", default=None,
                       help="also write a per-path summary CSV")

    p_sweep = sub.add_parser("sweep",
                             help="solve over a grid of epsilon and/or lambda")
    _add_market_flags(p_sweep)
    _add_output_flags(p_sweep)
    p_sweep.add_argument("--sweep-epsilon", metavar="LIST", default=None,
                         help="comma-separated epsilon values")
    p_sweep.add_argument("--sweep-lambda", metavar="LIST", default=None,
                         help="comma-separated lambda values")
    p_sweep.add_argument("--grid-points", type=_positive(int), default=201)

    p_cmp = sub.add_parser("compare",
                           help="exact versus asymptotic turnover on a window")
    _add_market_flags(p_cmp)
    _add_output_flags(p_cmp)
    p_cmp.add_argument("--points", type=_positive(int), default=201)
    p_cmp.add_argument("--window", type=_positive(float), default=None,
                       help="half-width of the comparison window around the "
                            "Merton weight (default: 3 epsilon^(1/3))")
    return parser


def _resolve_params(args) -> MarketParams:
    # Each inline flag is --<key> of the parameter document, stored under
    # its field's name.
    values = {field: getattr(args, field) for field in _PARAM_FIELDS.values()}
    if args.params is not None:
        if any(v is not None for v in values.values()):
            raise _UsageError("--params cannot be combined with inline flags")
        return _read_params(args.params)
    missing = [f"--{key}" for key, field in _PARAM_FIELDS.items()
               if values[field] is None]
    if missing:
        raise _UsageError(f"missing required flags: {', '.join(missing)}")
    return MarketParams(**values)


def _read_params(path: str) -> MarketParams:
    """The market of a JSON file holding one object with exactly the keys of
    ``_PARAM_FIELDS``; ``MarketParams`` checks the values."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParameterError(
            f"parameter document must be an object, got {doc!r}")
    missing = [k for k in _PARAM_FIELDS if k not in doc]
    extra = [k for k in doc if k not in _PARAM_FIELDS]
    if missing or extra:
        raise ParameterError(
            f"parameter document must contain exactly {tuple(_PARAM_FIELDS)}; "
            f"missing={missing} unknown={extra}"
        )
    return MarketParams(**{field: doc[key]
                           for key, field in _PARAM_FIELDS.items()})


def _params_doc(params: MarketParams) -> dict:
    """The market as a parameter document, the inverse of ``_read_params``."""
    return {key: getattr(params, field)
            for key, field in _PARAM_FIELDS.items()}


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _csv(header: str, rows) -> str:
    """CSV text: the header, then one line per row of Python floats and ints
    written by ``repr`` (numpy arrays go through ``.tolist()`` first, since
    numpy 2 writes ``repr(np.float64(x))`` as ``np.float64(x)``)."""
    return "".join([header + "\n"]
                   + [",".join(map(repr, row)) + "\n" for row in rows])


def _grid_rows(solution, n: int) -> list:
    """(y, q, u) at ``n`` uniform points over [delta, 1-delta] plus both
    band edges."""
    ys = np.linspace(solution.y_grid[0], solution.y_grid[-1], n)
    ys = _with_edges(ys, solution.y_minus, solution.y_plus)
    return list(zip(ys.tolist(), solution.q_at(ys).tolist(),
                    solution.turnover_at(ys).tolist()))


def _degenerate_answer(params: MarketParams) -> dict:
    regime = degenerate_regime(params)
    return {"regime": ("FullSafe" if regime is AllocationRegime.FULL_SAFE
                       else "FullRisky"),
            "esr": buy_and_hold_esr(params)}


def _cmd_solve(args) -> int:
    params = _resolve_params(args)
    if degenerate_regime(params) is not AllocationRegime.INTERIOR:
        _emit(_json_dumps(_degenerate_answer(params)), args.out)
        return EXIT_OK
    solution = solve(params)
    rows = _grid_rows(solution, args.grid_points)
    if args.format == "json":
        _emit(_json_dumps({"beta": solution.beta, "y_minus": solution.y_minus,
                           "y_plus": solution.y_plus, "grid": rows,
                           "params": _params_doc(params),
                           "diagnostics": solution.diagnostics}), args.out)
    else:
        _emit(_csv("y,q,u", rows), args.out)
    return EXIT_OK


def _cmd_asymptotic(args) -> int:
    params = _resolve_params(args)
    inputs = asym.AsymptoticInputs.from_params(params, K=args.k)
    sol = asym.find_z_minus(inputs)
    doc = {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)
           if f.name not in ("inputs", "diagnostics")}
    slope_buy, slope_sell = asym.near_boundary_slope(sol)
    doc.update(K=inputs.K, params=_params_doc(params),
               near_boundary_slope={"buy": slope_buy, "sell": slope_sell})
    _emit(_json_dumps(doc), args.out)
    return EXIT_OK


def _cmd_policy(args) -> int:
    params = _resolve_params(args)
    if degenerate_regime(params) is not AllocationRegime.INTERIOR:
        _emit(_json_dumps(_degenerate_answer(params)), args.out)
        return EXIT_OK
    solution = solve(params)
    ys = np.linspace(solution.y_grid[0], solution.y_grid[-1], args.grid_points)
    rows = list(zip(ys.tolist(), solution.turnover_at(ys).tolist()))
    if args.format == "json":
        doc = {"y_minus": solution.y_minus, "y_plus": solution.y_plus,
               "beta": solution.beta, "policy": rows}
        _emit(_json_dumps(doc), args.out)
    else:
        _emit(_csv("y,u", rows), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = _resolve_params(args)
    cfg = mc.SimConfig(horizon_T=args.horizon, dt=args.dt, n_paths=args.paths,
                       seed=args.seed, y0=args.y0, burn_in_T=args.burn_in,
                       antithetic=args.antithetic)
    if args.policy == "hold":
        turnover = None
    else:
        if degenerate_regime(params) is not AllocationRegime.INTERIOR:
            raise ParameterError(
                "the optimal policy is buy-and-hold for degenerate "
                "parameters; use --policy hold"
            )
        turnover = policy(solve(params)).tabulated()
    ensemble = mc.simulate_paths(params, turnover, cfg)
    report = mc.estimate_esr(ensemble, params.gamma, cfg)
    if args.paths_csv:
        _emit(_csv("path_id,logX_T,time_in_NT,turnover_avg",
                   zip(range(ensemble.n_paths),
                       ensemble.log_wealth_final.tolist(),
                       ensemble.time_in_no_trade.tolist(),
                       ensemble.mean_abs_turnover.tolist())),
              args.paths_csv)
    _emit(_json_dumps(dataclasses.asdict(report)), args.out)
    return EXIT_OK


def _parse_list(text: str | None) -> list[float] | None:
    if text is None:
        return None
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise _UsageError("empty sweep grid")
    return values


def _cmd_sweep(args) -> int:
    params = _resolve_params(args)
    eps_grid = _parse_list(args.sweep_epsilon)
    lam_grid = _parse_list(args.sweep_lambda)
    if eps_grid is None and lam_grid is None:
        raise _UsageError("sweep needs --sweep-epsilon and/or --sweep-lambda")
    eps_grid = eps_grid or [params.epsilon]
    lam_grid = lam_grid or [params.lam]
    points = [dataclasses.replace(params, epsilon=e, lam=l)
              for e in eps_grid for l in lam_grid]
    rows = [(p.epsilon, p.lam, *row) for p in points
            for row in _grid_rows(solve(p), args.grid_points)]
    _emit(_csv("epsilon,lambda,y,q,u", rows), args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    params = _resolve_params(args)
    solution = solve(params)
    inputs = asym.AsymptoticInputs.from_params(params)
    expansion = asym.find_z_minus(inputs)

    half = args.window
    if half is None:
        half = 3.0 * params.epsilon ** (1.0 / 3.0)
    y_star = params.merton_weight
    lo = max(solution.y_grid[0], y_star - half)
    hi = min(solution.y_grid[-1], y_star + half)
    ys = np.linspace(lo, hi, args.points)

    rows = []
    for y, ue in zip(ys.tolist(), solution.turnover_at(ys).tolist()):
        ua = asym.asymptotic_policy(y, expansion)
        err = abs(ue - ua)
        rows.append((y, ue, ua, err, err / abs(ue) if ue != 0.0 else math.nan))
    _emit(_csv(f"# beta_exact={solution.beta!r},"
               f"beta_asym={expansion.beta_approx!r}\n"
               "y,u_exact,u_asym,abs_err,rel_err", rows), args.out)
    return EXIT_OK


_DISPATCH = {
    "solve": _cmd_solve,
    "asymptotic": _cmd_asymptotic,
    "policy": _cmd_policy,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NoMatchError as exc:
        sys.stderr.write(f"no match: {exc}\n")
        return EXIT_NO_MATCH
    except (NumericalFailure, ArithmeticError, asym.NoRootError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
