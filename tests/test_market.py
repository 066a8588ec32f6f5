import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spreadimpact import cli
from spreadimpact.market import (
    AllocationRegime,
    MarketParams,
    ParameterError,
    buy_and_hold_esr,
    degenerate_regime,
    friction_loss,
)


def make(mu=0.08, sigma=0.16, gamma=5.0, epsilon=0.01, lam=0.01):
    return MarketParams(mu=mu, sigma=sigma, gamma=gamma, epsilon=epsilon,
                        lam=lam)


# make()'s market as a parameter document.
DOC = {"mu": 0.08, "sigma": 0.16, "gamma": 5.0, "epsilon": 0.01,
       "lambda": 0.01}


def run_params_file(tmp_path, capsys, text):
    """``asymptotic --params`` on a file holding ``text``: the exit code,
    stdout and stderr."""
    path = tmp_path / "params.json"
    path.write_text(text)
    code = cli.main(["asymptotic", "--params", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


class TestValidate:
    def test_equity_like_inputs_pass(self):
        make()

    def test_log_utility_rejected(self):
        with pytest.raises(ParameterError, match="gamma"):
            make(gamma=1.0)

    def test_zero_volatility_rejected(self):
        with pytest.raises(ParameterError, match="sigma"):
            make(sigma=0.0)

    def test_all_violations_reported_together(self):
        with pytest.raises(ParameterError) as err:
            make(sigma=-1.0, gamma=-2.0, epsilon=-0.1, lam=-0.5)
        message = str(err.value)
        for name in ("sigma", "gamma", "epsilon", "lambda"):
            assert name in message

    def test_spread_of_one_or_more_rejected(self):
        # At epsilon = 1 the boundary data divide by (1 - epsilon)^2.
        for epsilon in (1.0, 1.5):
            with pytest.raises(ParameterError, match="epsilon must be below 1"):
                make(epsilon=epsilon)
        assert make(epsilon=0.95).epsilon == 0.95

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            make(mu=math.nan)

    @pytest.mark.parametrize("route", ["direct", "from_dict", "replace"])
    def test_every_construction_checks(self, route, tmp_path):
        # However an instance is built, the constraints are checked then,
        # all of them, in one message. "from_dict" is the CLI's reader of
        # --params files.
        bad = {"mu": "0.08", "sigma": -1.0, "gamma": 1.0, "lam": math.inf}
        with pytest.raises(ParameterError) as err:
            if route == "direct":
                make(**bad)
            elif route == "from_dict":
                doc = dict(DOC, mu="0.08", sigma=-1.0, gamma=1.0)
                doc["lambda"] = math.inf
                path = tmp_path / "params.json"
                path.write_text(json.dumps(doc))
                cli._read_params(str(path))
            else:
                dataclasses.replace(make(), **bad)
        assert str(err.value) == (
            "mu must be a real number (got '0.08'); lam must be finite "
            "(got inf); sigma must be positive; "
            "gamma must differ from 1 (utility is power, not log)")

    @pytest.mark.parametrize("value", [True, "0.08", None,
                                       pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("name", ["mu", "sigma", "gamma", "epsilon",
                                      "lam"])
    def test_non_number_refused_by_field(self, name, value):
        # A bool is an int to Python, but no market input, and an int too
        # large for a float is no finite float; the numeric checks skip a
        # refused field.
        with pytest.raises(ParameterError) as err:
            make(**{name: value})
        assert str(err.value) == (
            f"{name} must be finite (got a value beyond the float range)"
            if value == 10**400 else
            f"{name} must be a real number (got {value!r})")

    @pytest.mark.parametrize("value", [5, np.int64(5), np.float64(5.0),
                                       Fraction(5)])
    def test_real_numbers_stored_as_floats(self, value):
        p = make(gamma=value)
        assert type(p.gamma) is float and p.gamma == 5.0


class TestBaseline:
    def test_closed_forms(self):
        b = make()
        assert b.merton_weight == pytest.approx(0.625, abs=1e-15)
        assert b.frictionless_esr == pytest.approx(0.025, abs=1e-15)
        assert b.full_risky_esr == pytest.approx(0.016, abs=1e-15)

    def test_zero_drift(self):
        b = make(mu=0.0)
        assert b.merton_weight == 0.0
        assert b.frictionless_esr == 0.0

    def test_unit_weight_threshold(self):
        # mu = gamma sigma^2 puts the frictionless weight exactly at one.
        b = make(mu=0.128)
        assert b.merton_weight == pytest.approx(1.0, abs=1e-15)


class TestRegimes:
    def test_interior(self):
        assert degenerate_regime(make()) is AllocationRegime.INTERIOR

    def test_full_safe(self):
        p = make(mu=-0.02)
        assert degenerate_regime(p) is AllocationRegime.FULL_SAFE
        assert buy_and_hold_esr(p) == 0.0

    def test_full_risky(self):
        p = make(mu=0.2)
        assert degenerate_regime(p) is AllocationRegime.FULL_RISKY
        assert buy_and_hold_esr(p) == pytest.approx(0.2 - 5 * 0.0256 / 2)

    def test_buy_and_hold_undefined_interior(self):
        with pytest.raises(ValueError):
            buy_and_hold_esr(make())

    @given(mu=st.floats(-0.5, 0.5), sigma=st.floats(0.05, 0.8),
           gamma=st.floats(0.1, 20).filter(lambda g: abs(g - 1) > 1e-6))
    def test_interior_iff_weight_inside_unit_interval(self, mu, sigma, gamma):
        p = make(mu=mu, sigma=sigma, gamma=gamma)
        interior = degenerate_regime(p) is AllocationRegime.INTERIOR
        assert interior == (0.0 < p.merton_weight < 1.0)

    @given(mu=st.floats(0.001, 0.3), sigma=st.floats(0.05, 0.8),
           gamma=st.floats(0.1, 20).filter(lambda g: abs(g - 1) > 1e-6))
    def test_rate_bracket_well_ordered(self, mu, sigma, gamma):
        # The buy-and-hold floor never exceeds the frictionless rate.
        b = make(mu=mu, sigma=sigma, gamma=gamma)
        floor = max(0.0, b.full_risky_esr)
        assert floor <= b.frictionless_esr + 1e-18


class TestJson:
    # The CLI reads --params files and writes the "params" block of solve
    # and asymptotic; the library holds no file format.
    def test_round_trip(self, tmp_path, capsys):
        code, out, _ = run_params_file(tmp_path, capsys, json.dumps(DOC))
        assert code == 0
        written = json.loads(out)["params"]
        assert written == DOC
        code, out, _ = run_params_file(tmp_path, capsys, json.dumps(written))
        assert code == 0
        assert json.loads(out)["params"] == DOC

    def test_loads_decimal_fractions(self, tmp_path, capsys):
        text = ('{"mu": 0.08, "sigma": 0.16, "gamma": 5, '
                '"epsilon": 0.001, "lambda": 0.0001}')
        code, out, _ = run_params_file(tmp_path, capsys, text)
        assert code == 0
        params = json.loads(out)["params"]
        assert params["lambda"] == 0.0001
        assert params["epsilon"] == 0.001
        assert '"gamma": 5.0' in out  # stored as a float

    def test_missing_and_unknown_keys_rejected(self, tmp_path, capsys):
        code, out, err = run_params_file(tmp_path, capsys, '{"mu": 0.08}')
        assert (code, out) == (1, "")
        assert "missing=['sigma', 'gamma', 'epsilon', 'lambda']" in err
        code, out, err = run_params_file(tmp_path, capsys,
                                         json.dumps(dict(DOC, spread=0.01)))
        assert (code, out) == (1, "")
        assert "missing=[] unknown=['spread']" in err

    @pytest.mark.parametrize("value", [None, True, "0.08", [0.08]])
    def test_non_numeric_value_rejected_by_key(self, tmp_path, capsys,
                                               value):
        code, out, err = run_params_file(tmp_path, capsys,
                                         json.dumps(dict(DOC, mu=value)))
        assert (code, out) == (1, "")
        assert err == f"error: mu must be a real number (got {value!r})\n"

    @pytest.mark.parametrize("text", ["3", "null", "[0.08]"])
    def test_document_must_be_an_object(self, tmp_path, capsys, text):
        code, out, err = run_params_file(tmp_path, capsys, text)
        assert (code, out) == (1, "")
        assert err.startswith("error: parameter document must be an object")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(DOC))
        assert cli._read_params(str(path)) == make()


class TestFrictionLoss:
    def test_sum_of_the_two_one_friction_losses(self):
        # Pure spread (Janecek & Shreve 2004): (gamma sigma^2 / 2) hw^2 with
        # hw = (3/(4 gamma) y*^2 (1-y*)^2 2 eps)^(1/3). Pure impact
        # (Garleanu & Pedersen 2013): C sqrt(lam), C = v^2 sqrt(2 gamma
        # sigma^2) / 2 with v = sigma y* (1-y*); 3.5576e-4 on this market.
        y = 0.625
        hw = (3.0 / 20.0 * y * y * (1.0 - y) ** 2 * 2e-3) ** (1.0 / 3.0)
        spread = 0.5 * 5.0 * 0.16**2 * hw * hw
        impact = friction_loss(make(epsilon=0.0, lam=1e-4))
        assert friction_loss(make(epsilon=1e-3, lam=0.0)) == pytest.approx(
            spread, rel=1e-14)
        assert impact == pytest.approx(3.5576e-4 * 1e-2, rel=1e-4)
        assert friction_loss(make(epsilon=1e-3, lam=1e-4)) == pytest.approx(
            spread + impact, rel=1e-15)
