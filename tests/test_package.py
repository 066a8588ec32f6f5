"""The package's public surface: exactly what the CLI, README and tests use."""

import inspect
import os
import subprocess
import sys
import textwrap

import pytest

import spreadimpact
from spreadimpact import asymptotic, montecarlo, solver, whittaker

PUBLIC = {
    "AllocationRegime",
    "AsymptoticInputs",
    "AsymptoticSolution",
    "FreeBoundarySolution",
    "FrictionlessBaseline",
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
    "baseline",
    "buy_and_hold_esr",
    "degenerate_regime",
    "estimate_esr",
    "find_z_minus",
    "near_boundary_slope",
    "policy",
    "r_buy",
    "simulate_paths",
    "solve",
    "validate",
    "welfare_coefficient",
}

WHITTAKER_PUBLIC = {
    "CancellationError",
    "SpecialFunctionError",
    "whittaker_w",
    "whittaker_w_ratio",
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


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the package and its CLI
    # must not pull it in.
    src = os.path.dirname(os.path.dirname(spreadimpact.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, spreadimpact, spreadimpact.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_starts_no_process_and_solve_starts_one():
    # The backward-leg worker is forked by the first solve, not at import,
    # and without multiprocessing; later solves reuse it.
    if not (hasattr(os, "fork") and os.path.isdir("/proc/self")):
        pytest.skip("needs os.fork and /proc")
    src = os.path.dirname(os.path.dirname(spreadimpact.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = textwrap.dedent("""
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
    """)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["False []", "1 True"]


def test_whittaker_exports_only_what_the_package_uses():
    assert set(whittaker.__all__) == WHITTAKER_PUBLIC
    assert len(whittaker.__all__) == len(WHITTAKER_PUBLIC)
    for name in whittaker.__all__:
        assert getattr(whittaker, name) is not None
    for name in ("gamma_fn", "kummer_1f1", "whittaker_m", "GammaPoleError",
                 "KummerRangeError"):
        assert not hasattr(whittaker, name), name


def test_output_formats_live_only_in_the_cli():
    owners = (spreadimpact.FreeBoundarySolution,
              spreadimpact.AsymptoticSolution,
              spreadimpact.SimulationReport, asymptotic, montecarlo)
    for owner in owners:
        for name in ("to_json_dict", "to_csv", "sample_points", "q_prime_at",
                     "midfield_r", "write_path_summary_csv"):
            assert not hasattr(owner, name), (owner, name)
    assert "write_path_summary_csv" not in montecarlo.__all__
