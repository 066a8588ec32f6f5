import json

import pytest

from spreadimpact.cli import main

BASE_FLAGS = ["--mu", "0.08", "--sigma", "0.16", "--gamma", "5"]
# The keys of the asymptotic document: the expansion's scalar constants,
# the coupling K, the parameters and the near-boundary slopes.
ASYMPTOTIC_KEYS = {"z_minus", "l", "a", "c", "k", "x_minus", "D", "E", "F",
                   "beta_approx", "y_minus_approx", "y_plus_approx", "K",
                   "params", "near_boundary_slope"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    # Every number the CLI prints is a plain repr: numpy 2 writes
    # repr(np.float64(x)) as "np.float64(x)".
    assert "np." not in captured.out
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "solve", *BASE_FLAGS, "--epsilon", "0.001",
                           "--lambda", "0.0001", "--format", "csv",
                           "--grid-points", "51")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,q,u"
        assert len(lines) > 50
        y, q, u = (float(t) for t in lines[1].split(","))
        assert 0.0 < y < 1e-5 and u > 0.0

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "solve", *BASE_FLAGS, "--epsilon", "0.01",
                           "--lambda", "0.01", "--format", "json",
                           "--grid-points", "21")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"beta", "y_minus", "y_plus", "grid", "params",
                            "diagnostics"}
        assert 0.016 <= doc["beta"] <= 0.025
        assert doc["params"]["lambda"] == 0.01
        assert all(len(row) == 3 for row in doc["grid"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_rows_reproduce_interpolant(self, capsys, solve_cache, fmt):
        code, out, _ = run(capsys, "solve", *BASE_FLAGS, "--epsilon", "0.001",
                           "--lambda", "0.0001", "--format", fmt,
                           "--grid-points", "201")
        assert code == 0
        if fmt == "json":
            rows = json.loads(out)["grid"]
        else:
            rows = [[float(t) for t in line.split(",")]
                    for line in out.splitlines()[1:]]
        assert len(rows) == 203  # 201 uniform points and both band edges
        sol = solve_cache(1e-3, 1e-4)
        ys = [row[0] for row in rows]
        assert sol.y_minus in ys and sol.y_plus in ys
        for y, q, u in rows[::17]:
            assert q == pytest.approx(sol.q_at(y), abs=1e-12)
            assert u == pytest.approx(sol.turnover_at(y), abs=1e-9)

    def test_degenerate_dispatch(self, capsys):
        code, out, _ = run(capsys, "solve", "--mu", "0.2", "--sigma", "0.16",
                           "--gamma", "5", "--epsilon", "0.01",
                           "--lambda", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "FullRisky"
        assert doc["esr"] == pytest.approx(0.136)

    def test_missing_flag_is_usage_error(self, capsys):
        code, out, err = run(capsys, "solve", "--mu", "0.08")
        assert code == 1
        assert "usage" in err.lower()

    def test_invalid_params_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", *BASE_FLAGS[:4], "--gamma", "1",
                           "--epsilon", "0.01", "--lambda", "0.01")
        assert code == 1
        assert "gamma" in err

    def test_empty_rate_bracket_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--mu", "0.08", "--sigma", "0.2",
                           "--gamma", "2", "--epsilon", "0.001",
                           "--lambda", "0.0001")
        assert code == 1
        assert "empty" in err

    @pytest.mark.parametrize("epsilon", ["1", "1.5"])
    def test_spread_of_one_or_more_exit_code(self, capsys, epsilon):
        code, out, err = run(capsys, "solve", *BASE_FLAGS,
                             "--epsilon", epsilon, "--lambda", "0.01")
        assert code == 1
        assert out == ""
        assert "epsilon must be below 1" in err

    def test_no_match_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", *BASE_FLAGS, "--epsilon", "0.95",
                           "--lambda", "2.0")
        assert code == 2

    def test_params_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"mu": 0.08, "sigma": 0.16, "gamma": 5,
                                    "epsilon": 0.01, "lambda": 0.01}))
        code, out, _ = run(capsys, "solve", "--params", str(path),
                           "--format", "json", "--grid-points", "11")
        assert code == 0
        assert json.loads(out)["params"]["epsilon"] == 0.01

    @pytest.mark.parametrize("text", [
        '{"mu": null, "sigma": 0.16, "gamma": 5, "epsilon": 0.01, '
        '"lambda": 0.01}',
        '{"mu": true, "sigma": 0.16, "gamma": 5, "epsilon": 0.01, '
        '"lambda": 0.01}',
        "3",
        # An int too large for a float: an input error, not a numerical
        # failure.
        pytest.param('{"mu": 1' + "0" * 400 + ', "sigma": 0.16, "gamma": 5, '
                     '"epsilon": 0.01, "lambda": 0.01}', id="mu-10**400"),
    ])
    def test_malformed_params_file_exit_code(self, capsys, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, out, err = run(capsys, "solve", "--params", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_params_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--params",
                           str(tmp_path / "absent.json"))
        assert code == 1
        assert err.startswith("error: ") and "absent.json" in err

    def test_unwritable_out_exit_code(self, capsys, tmp_path):
        # A buy-and-hold answer: written at once, without a solve.
        code, _, err = run(capsys, "solve", "--mu", "0.2", "--sigma", "0.16",
                           "--gamma", "5", "--epsilon", "0.01",
                           "--lambda", "0.01", "--out",
                           str(tmp_path / "no" / "dir" / "x.json"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_params_file_conflicts_with_flags(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"mu": 0.08, "sigma": 0.16, "gamma": 5,
                                    "epsilon": 0.01, "lambda": 0.01}))
        code, _, err = run(capsys, "solve", "--params", str(path),
                           "--mu", "0.07")
        assert code == 1


@pytest.mark.parametrize("argv", [
    ("asymptotic", "--epsilon", "0.01", "--lambda", "0.01"),
    ("simulate", "--epsilon", "0", "--lambda", "0", "--policy", "hold",
     "--paths", "50", "--horizon", "1", "--burn-in", "0.2", "--dt", "0.01",
     "--y0", "0.5"),
    ("sweep", "--epsilon", "0.01", "--lambda", "0.01", "--sweep-lambda",
     "0.01", "--grid-points", "11"),
    ("compare", "--epsilon", "0.01", "--lambda", "0.01", "--points", "11"),
])
def test_format_refused_where_unused(capsys, argv):
    # Only solve and policy write more than one format.
    code, out, err = run(capsys, argv[0], *BASE_FLAGS, *argv[1:],
                         "--format", "json")
    assert code == 1
    assert out == ""
    assert "--format" in err


class TestAsymptoticCommand:
    def test_constants_emitted(self, capsys):
        code, out, _ = run(capsys, "asymptotic", *BASE_FLAGS, "--epsilon", "0.01",
                           "--lambda", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == ASYMPTOTIC_KEYS
        assert doc["params"]["lambda"] == 0.01
        assert doc["z_minus"] < 0.0
        assert doc["l"] > 0.0

    def test_coupling_domain_exit_codes(self, capsys):
        flags = ("asymptotic", *BASE_FLAGS, "--epsilon", "0.001",
                 "--lambda", "0.0001")
        code, out, _ = run(capsys, *flags, "--k", "1e4")
        assert code == 0
        assert json.loads(out)["K"] == 1e4
        code, _, err = run(capsys, *flags, "--k", "1e-4")
        assert code == 3
        assert err.startswith("numerical failure:")
        code, out, err = run(capsys, *flags, "--k", "inf")
        assert code == 1
        assert out == ""
        assert err == "error: K must be finite (got inf)\n"

    @pytest.mark.parametrize("mu", ["0.2", "-0.02"])
    def test_buy_and_hold_exit_code(self, capsys, mu):
        code, out, err = run(capsys, "asymptotic", "--mu", mu, "--sigma",
                             "0.16", "--gamma", "5", "--epsilon", "0.001",
                             "--lambda", "0.0001")
        assert code == 1
        assert out == ""
        assert err.startswith("error: parameters are in a buy-and-hold regime")


class TestPolicyCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "policy", *BASE_FLAGS, "--epsilon", "0.001",
                           "--lambda", "0.0001", "--grid-points", "41")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,u"
        assert len(lines) == 42


class TestSimulateCommand:
    def test_hold_policy_report(self, capsys):
        code, out, _ = run(capsys, "simulate", *BASE_FLAGS, "--epsilon", "0",
                           "--lambda", "0", "--policy", "hold",
                           "--paths", "500", "--horizon", "2",
                           "--burn-in", "0.5", "--dt", "0.01",
                           "--y0", "0.999", "--seed", "9")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"esr_estimate", "esr_stderr", "mean_turnover",
                            "fraction_time_in_NT", "y_range_violations"}
        assert doc["fraction_time_in_NT"] == 1.0

    def test_negative_seed_exit_code(self, capsys):
        # Refused by SimConfig, not inside numpy's generator.
        code, out, err = run(capsys, "simulate", *BASE_FLAGS, "--epsilon", "0",
                             "--lambda", "0", "--policy", "hold",
                             "--paths", "50", "--horizon", "1",
                             "--burn-in", "0.5", "--dt", "0.01",
                             "--y0", "0.5", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"

    def test_ensemble_too_large_to_allocate_exit_code(self, capsys):
        # 10**18 paths need 8e18 bytes per summary array, beyond any 64-bit
        # address space: the first allocation fails at once.
        code, out, err = run(capsys, "simulate", *BASE_FLAGS, "--epsilon", "0",
                             "--lambda", "0", "--policy", "hold",
                             "--paths", "1000000000000000000", "--horizon",
                             "1", "--burn-in", "0.5", "--dt", "0.01",
                             "--y0", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: Unable to allocate")
        assert err.count("\n") == 1

    def test_path_summary_file(self, capsys, tmp_path):
        out_file = tmp_path / "paths.csv"
        code, _, _ = run(capsys, "simulate", *BASE_FLAGS, "--epsilon", "0",
                         "--lambda", "0", "--policy", "hold",
                         "--paths", "50", "--horizon", "1",
                         "--burn-in", "0.2", "--dt", "0.01",
                         "--y0", "0.5", "--paths-csv", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert "np." not in text
        lines = text.strip().splitlines()
        assert lines[0] == "path_id,logX_T,time_in_NT,turnover_avg"
        assert len(lines) == 51
        path_id, *values = lines[1].split(",")
        assert path_id == "0"
        for tok in values:
            float(tok)

    @pytest.mark.parametrize("burn_in", ["0.004", "0.996"])
    def test_burn_in_off_the_step_grid_exit_code(self, capsys, burn_in):
        # At dt = 0.01 these round to step 0 and to the last step.
        code, out, err = run(capsys, "simulate", *BASE_FLAGS, "--epsilon", "0",
                             "--lambda", "0", "--policy", "hold",
                             "--paths", "50", "--horizon", "1",
                             "--burn-in", burn_in, "--dt", "0.01",
                             "--y0", "0.5")
        assert code == 1
        assert out == ""
        assert "burn-in" in err

    @pytest.mark.parametrize("flag,value,message", [
        pytest.param("--horizon", "inf", "horizon_T must be finite (got inf)",
                     id="--horizon-horizon_T"),
        pytest.param("--burn-in", "inf", "burn_in_T must be finite (got inf)",
                     id="--burn-in-burn_in_T"),
        pytest.param("--dt", "inf", "dt must be finite (got inf)",
                     id="--dt-dt"),
        # Finite, but 1e302 steps: it would run until killed.
        pytest.param("--horizon", "1e300",
                     "horizon_T of 1e+300 at dt 0.01 is 1e+302 steps; at most "
                     "2**53 are counted exactly", id="--horizon-n_steps")])
    def test_infinite_time_exit_code(self, capsys, flag, value, message):
        times = {"--horizon": "1", "--burn-in": "0.5", "--dt": "0.01",
                 flag: value}
        code, out, err = run(capsys, "simulate", *BASE_FLAGS, "--epsilon",
                             "0", "--lambda", "0", "--policy", "hold",
                             "--paths", "50", "--y0", "0.5",
                             *sum(times.items(), ()))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestSweepCommand:
    def test_long_format(self, capsys):
        code, out, _ = run(capsys, "sweep", *BASE_FLAGS, "--epsilon", "0.001",
                           "--lambda", "0.0001",
                           "--sweep-lambda", "1e-4,1e-3",
                           "--grid-points", "11")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,lambda,y,q,u"
        lams = {line.split(",")[1] for line in lines[1:]}
        assert lams == {"0.0001", "0.001"}

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", *BASE_FLAGS, "--epsilon", "0.001",
                           "--lambda", "0.0001", "--sweep-lambda", ",")
        assert code == 1

    def test_no_axis_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", *BASE_FLAGS, "--epsilon", "0.001",
                         "--lambda", "0.0001")
        assert code == 1


class TestCompareCommand:
    def test_table_and_summary(self, capsys):
        code, out, _ = run(capsys, "compare", *BASE_FLAGS, "--epsilon", "0.01",
                           "--lambda", "0.01", "--points", "21")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# beta_exact=")
        assert lines[1] == "y,u_exact,u_asym,abs_err,rel_err"
        assert len(lines) == 23

    def test_bit_identical_reruns(self, capsys):
        args = ("compare", *BASE_FLAGS, "--epsilon", "0.01", "--lambda", "0.01",
                "--points", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_coupling_override_refused(self, capsys):
        # The exact side solves at --lambda, so the expansion must use the
        # K that --lambda and --epsilon imply; only asymptotic takes --k.
        code, out, err = run(capsys, "compare", *BASE_FLAGS, "--epsilon",
                             "0.01", "--lambda", "0.01", "--k", "5")
        assert code == 1
        assert out == ""
        assert "--k" in err


@pytest.mark.parametrize("command,flags", [
    ("solve", ("--grid-points", "0")),
    ("policy", ("--grid-points", "0")),
    ("policy", ("--grid-points", "-3")),
    ("sweep", ("--sweep-lambda", "0.01", "--grid-points", "0")),
    ("compare", ("--points", "0")),
    ("compare", ("--window", "nan")),
    ("compare", ("--window", "inf")),
    ("compare", ("--window", "0")),
    ("compare", ("--window", "-0.01"))])
def test_out_of_range_grid_flag_is_usage_error(capsys, command, flags):
    # Refused while parsing, before any solve: policy --grid-points 0
    # printed a bare header and -3 failed in numpy; a --window that is not
    # finite and positive used the whole grid, repeated y* or ran down in y.
    code, out, err = run(capsys, command, *BASE_FLAGS, "--epsilon", "0.01",
                         "--lambda", "0.01", *flags)
    flag, value = flags[-2:]
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: argument {flag}: must be finite and "
                          f"positive (got {value})\n")
