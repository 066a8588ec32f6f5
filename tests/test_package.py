"""The package's public surface: exactly what the CLI, README and tests use."""

import inspect
import os
import subprocess
import sys
import textwrap

import pytest

import spreadimpact
from spreadimpact import asymptotic, hjb, market, montecarlo, solver, whittaker

PUBLIC = {
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
}

WHITTAKER_PUBLIC = {
    "CancellationError",
    "SpecialFunctionError",
    "whittaker_w",
    "whittaker_w_ratio",
}

MARKET_PUBLIC = {
    "AllocationRegime",
    "MarketParams",
    "ParameterError",
    "buy_and_hold_esr",
    "degenerate_regime",
}

HJB_PUBLIC = {
    "BoundaryDataError",
    "band_buy",
    "band_sell",
    "boundary_value_0",
    "boundary_value_1",
    "make_defect",
    "make_rhs_jac",
    "optimal_turnover",
}


def test_all_is_the_expected_set():
    assert set(spreadimpact.__all__) == PUBLIC
    assert len(spreadimpact.__all__) == len(PUBLIC)


def test_every_exported_name_resolves():
    for module in (spreadimpact, solver):
        for name in module.__all__:
            assert getattr(module, name) is not None


def test_solver_exports_are_public():
    assert set(solver.__all__) <= PUBLIC


def test_solve_takes_only_the_parameters():
    assert list(inspect.signature(spreadimpact.solve).parameters) == ["params"]


def test_shoot_leg_takes_the_pass_not_its_tolerances():
    # A leg looks up its tolerances and its defect test from the pass.
    assert list(inspect.signature(solver.shoot_leg).parameters) == [
        "params", "beta", "forward", "y_stop", "final"]


def run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    this package."""
    src = os.path.dirname(os.path.dirname(spreadimpact.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the package and its CLI
    # must not pull it in.
    out = run_python("import sys, spreadimpact, spreadimpact.cli; "
                     "print(sorted(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.')))")
    assert out.strip() == "[]"


def test_import_loads_no_thread_pool():
    # Only a simulation draws its shocks on a worker thread: importing the
    # package and its CLI, and solving, load no concurrent.futures (nor its
    # logging and queue).
    out = run_python(textwrap.dedent("""
        import sys
        import spreadimpact, spreadimpact.cli
        params = spreadimpact.MarketParams(epsilon=1e-3, lam=1e-4, mu=0.08,
                                           sigma=0.16, gamma=5.0)
        spreadimpact.solve(params)
        print(sorted(m for m in ("concurrent.futures", "logging", "queue")
                     if m in sys.modules))
    """))
    assert out.strip() == "[]"


def test_solve_and_its_grids_load_no_numpy_ma():
    # np.unique imports numpy.ma (16 ms, 1.7 MB) on its first call; the
    # solution's y_grid, the policy table and the CLI grid do without it.
    out = run_python(textwrap.dedent("""
        import contextlib, io, sys
        import spreadimpact, spreadimpact.cli
        params = spreadimpact.MarketParams(epsilon=1e-3, lam=1e-4, mu=0.08,
                                           sigma=0.16, gamma=5.0)
        spreadimpact.policy(spreadimpact.solve(params)).tabulated()
        with contextlib.redirect_stdout(io.StringIO()):
            spreadimpact.cli.main(["solve", "--mu", "0.08", "--sigma", "0.16",
                                   "--gamma", "5", "--epsilon", "0.001",
                                   "--lambda", "0.0001", "--grid-points", "11"])
        print("numpy.ma" in sys.modules)
    """))
    assert out.strip() == "False"


def test_import_starts_no_process_and_solve_starts_one():
    # The backward-leg worker is forked by the first solve, not at import,
    # and without multiprocessing; later solves reuse it.
    if not (hasattr(os, "fork") and os.path.isdir("/proc/self")):
        pytest.skip("needs os.fork and /proc")
    out = run_python(textwrap.dedent("""
        import os, sys
        import spreadimpact, spreadimpact.cli

        def children():
            pids = []
            for name in os.listdir("/proc"):
                try:
                    with open(f"/proc/{name}/stat") as fh:
                        ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
                except (OSError, ValueError, IndexError):
                    continue
                if ppid == os.getpid():
                    pids.append(int(name))
            return pids

        print("multiprocessing" in sys.modules, children())
        params = spreadimpact.MarketParams(epsilon=1e-3, lam=1e-4, mu=0.08,
                                           sigma=0.16, gamma=5.0)
        spreadimpact.solve(params)
        first = children()
        spreadimpact.solve(params)
        print(len(first), first == children())
    """))
    assert out.split("\n")[:2] == ["False []", "1 True"]


def test_expansion_evaluates_r_buy_by_the_closed_form_only():
    # The Riccati integration is a test oracle, not a route of the library.
    assert not hasattr(asymptotic, "integrate_guarded")
    assert list(inspect.signature(asymptotic.r_buy).parameters) == [
        "z", "l", "inputs"]


def test_whittaker_exports_only_what_the_package_uses():
    assert set(whittaker.__all__) == WHITTAKER_PUBLIC
    assert len(whittaker.__all__) == len(WHITTAKER_PUBLIC)
    for name in whittaker.__all__:
        assert getattr(whittaker, name) is not None
    for name in ("gamma_fn", "kummer_1f1", "whittaker_m", "GammaPoleError",
                 "KummerRangeError"):
        assert not hasattr(whittaker, name), name


def test_market_checks_parameters_on_construction_only():
    # MarketParams refuses invalid inputs itself; no free-standing check or
    # copy of its frictionless rates remains.
    assert set(market.__all__) == MARKET_PUBLIC
    assert len(market.__all__) == len(MARKET_PUBLIC)
    for name in ("validate", "baseline", "FrictionlessBaseline"):
        assert not hasattr(market, name), name
        assert not hasattr(spreadimpact, name), name


def test_hjb_holds_the_slope_and_one_residual():
    assert set(hjb.__all__) == HJB_PUBLIC
    assert len(hjb.__all__) == len(HJB_PUBLIC)
    # No public function or class of the module stays outside __all__.
    defined = {name for name, obj in vars(hjb).items()
               if not name.startswith("_")
               and getattr(obj, "__module__", None) == hjb.__name__}
    assert defined == HJB_PUBLIC


def test_output_formats_live_only_in_the_cli():
    owners = (spreadimpact.FreeBoundarySolution,
              spreadimpact.AsymptoticSolution,
              spreadimpact.SimulationReport, asymptotic, montecarlo)
    for owner in owners:
        for name in ("to_json_dict", "to_csv", "sample_points", "q_prime_at",
                     "midfield_r", "write_path_summary_csv"):
            assert not hasattr(owner, name), (owner, name)
    assert "write_path_summary_csv" not in montecarlo.__all__
    # The parameter file's format too: cli.py reads and writes it.
    for name in ("from_dict", "from_json", "from_file", "to_dict"):
        assert not hasattr(spreadimpact.MarketParams, name), name
    assert not hasattr(market, "json")
