import json
import math
import pickle

import numpy as np
import pytest

from spreadimpact.asymptotic import (
    _ROOT_ACCEPT,
    AsymptoticInputs,
    NoRootError,
    asymptotic_policy,
    find_z_minus,
    near_boundary_slope,
    r_buy,
    welfare_coefficient,
)
from spreadimpact.cli import main
from spreadimpact.market import MarketParams, ParameterError, friction_loss
from spreadimpact.whittaker import CancellationError

BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
# A market with y* = 0.15, below 1/2.
LOW_WEIGHT = dict(mu=0.03, sigma=0.2, gamma=5.0)
FRICTIONLESS = 0.025
# Off-base markets of the small-K oracle test.
Y_STAR_090 = dict(mu=0.072, sigma=0.2, gamma=2.0)
GAMMA_20 = dict(mu=0.04, sigma=0.2, gamma=20.0)
# The oracle's scan: 20,000 points on [-50 (y*(1-y*))^(2/3), -1e-4].
ORACLE_WINDOW = 50.0
ORACLE_POINTS = 20000
ORACLE_Z_MAX = -1e-4


def make_inputs(K, eps=1e-3, market=BASE):
    params = MarketParams(epsilon=eps, lam=K * eps ** (4.0 / 3.0), **market)
    return AsymptoticInputs.from_params(params)


def midfield_r(z, l, params):
    """The explicit odd solution of the mid-band equation,
    (2/v2)(gamma sigma^2 z^3/6 - l z) with v2 = sigma^2 y*^2 (1-y*)^2."""
    y = params.merton_weight
    v2 = params.sigma**2 * y * y * (1.0 - y) ** 2
    gs2 = params.gamma * params.sigma**2
    return (2.0 / v2) * (gs2 * z**3 / 6.0 - l * z)


def bisection_oracle(inp):
    """Roots of r_B(z, l(z)) = 1 as a dense scan and plain bisection find
    them: every sign change of the closed form on the scan is bisected (at
    most 48 halvings, to a width below 1e-12) unless both ends exceed 0.5
    in size (a pole), and its midpoint is kept if it meets the equation to
    find_z_minus's acceptance bound."""
    params = inp.params

    def f_scan(z):
        try:
            return r_buy(z, welfare_coefficient(z, params), inp) - 1.0
        except ArithmeticError:
            return math.nan

    y = inp.y_star
    zs = np.linspace(-ORACLE_WINDOW * (y * (1.0 - y)) ** (2.0 / 3.0),
                     ORACLE_Z_MAX, ORACLE_POINTS)
    fs = [f_scan(float(z)) for z in zs]
    roots = []
    for i in range(len(zs) - 1):
        flo, fhi = fs[i], fs[i + 1]
        if math.isnan(flo) or math.isnan(fhi):
            continue
        if np.signbit(flo) == np.signbit(fhi):
            continue
        if min(abs(flo), abs(fhi)) > 0.5:
            continue
        lo, hi = float(zs[i]), float(zs[i + 1])
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            fmid = f_scan(mid)
            if math.isnan(fmid):
                break
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
        mid = 0.5 * (lo + hi)
        try:
            residual = abs(r_buy(mid, welfare_coefficient(mid, params), inp)
                           - 1.0)
        except ArithmeticError:
            residual = math.inf
        if residual <= _ROOT_ACCEPT:
            roots.append(mid)
    return roots


@pytest.fixture(scope="module")
def expansions():
    """Base-market expansions keyed by K, and one at y* = 0.15 keyed
    ("y*=0.15", K)."""
    cases = {K: make_inputs(K) for K in (0.1, 1.0, 10.0, 1e3, 1e4)}
    cases["y*=0.15", 1.0] = make_inputs(1.0, market=LOW_WEIGHT)
    return {key: (inp, find_z_minus(inp)) for key, inp in cases.items()}


class TestInputs:
    def test_coupling_computed_exactly(self):
        p = MarketParams(epsilon=1e-3, lam=1e-4, **BASE)
        inp = AsymptoticInputs.from_params(p)
        assert inp.K == p.lam / p.epsilon ** (4.0 / 3.0)

    def test_override(self):
        p = MarketParams(epsilon=1e-3, lam=1e-4, **BASE)
        assert AsymptoticInputs.from_params(p, K=2.5).K == 2.5

    def test_positive_coupling_required(self):
        p = MarketParams(epsilon=0.0, lam=1e-4, **BASE)
        with pytest.raises(ValueError):
            AsymptoticInputs.from_params(p)

    @pytest.mark.parametrize("mu", [0.2, -0.02])
    def test_buy_and_hold_parameters_refused(self, mu):
        # y* = 1.5625 and -0.15625: the expansion around y* has no band.
        p = MarketParams(mu=mu, sigma=0.16, gamma=5.0, epsilon=1e-3,
                         lam=1e-4)
        with pytest.raises(ParameterError, match="buy-and-hold regime"):
            AsymptoticInputs.from_params(p)
        with pytest.raises(ParameterError, match="buy-and-hold regime"):
            AsymptoticInputs(p, 1.0)

    @pytest.mark.parametrize("K", [-1.0, 0.0, math.nan])
    def test_direct_construction_refuses_non_positive_coupling(self, K):
        p = MarketParams(epsilon=1e-3, lam=1e-4, **BASE)
        with pytest.raises(ValueError, match="K must be positive"):
            AsymptoticInputs(p, K)

    @pytest.mark.parametrize("K", [True, "1", None])
    def test_direct_construction_refuses_non_real_coupling(self, K):
        p = MarketParams(epsilon=1e-3, lam=1e-4, **BASE)
        with pytest.raises(ValueError, match="K must be a real number"):
            AsymptoticInputs(p, K)

    @pytest.mark.parametrize("K", [math.inf, pytest.param(10**400,
                                                          id="10**400")])
    def test_direct_construction_refuses_infinite_coupling(self, K):
        p = MarketParams(epsilon=1e-3, lam=1e-4, **BASE)
        with pytest.raises(ValueError, match="K must be finite"):
            AsymptoticInputs(p, K)

    def test_coupling_that_overflows_is_refused_as_infinite(self):
        # eps^(4/3) underflows to 0 below eps ~ 1e-243 (it raised
        # ZeroDivisionError), and to a subnormal just above, where lam over
        # it overflows.
        for eps in (1e-250, 1e-240):
            p = MarketParams(epsilon=eps, lam=1.0, **BASE)
            with pytest.raises(ValueError, match="K must be finite"):
                AsymptoticInputs.from_params(p)

    def test_coupling_stored_as_a_float(self):
        p = MarketParams(epsilon=1e-3, lam=1e-4, **BASE)
        assert type(AsymptoticInputs(p, 2).K) is float

    def test_cached_scales_equal_their_formulas(self):
        inp = make_inputs(2.5, market=GAMMA_20)
        p = inp.params
        y = p.mu / (p.gamma * p.sigma**2)
        assert inp.y_star == p.merton_weight == y
        assert inp.curvature_scale == p.sigma**2 * y * y * (1.0 - y) ** 2
        assert inp.growth_slope == math.sqrt(
            2.0 * inp.K * p.gamma * p.sigma**2)

    def test_cached_scales_leave_the_value_unchanged(self):
        # The scales are set on construction: an instance whose scales were
        # read compares, hashes and pickles as one whose were not.
        read, fresh = make_inputs(1.0), make_inputs(1.0)
        scales = (read.y_star, read.curvature_scale, read.growth_slope)
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(read))
        assert copy == read
        assert (copy.y_star, copy.curvature_scale, copy.growth_slope) == scales
        with pytest.raises(AttributeError):
            read.K = 2.0


class TestMidfield:
    def test_odd(self):
        p = MarketParams(epsilon=1e-3, lam=1e-4, **BASE)
        for z in (0.1, 0.37, 2.0):
            assert midfield_r(-z, 0.004, p) == pytest.approx(
                -midfield_r(z, 0.004, p), rel=1e-14)
        assert midfield_r(0.0, 0.004, p) == 0.0

    def test_welfare_coefficient_closes_the_matching(self):
        # l(z-) is defined so the cubic passes through +1 at z- (hence -1 at
        # -z- by oddness).
        p = MarketParams(epsilon=1e-3, lam=1e-4, **BASE)
        for zm in (-0.1, -0.22, -0.5):
            l = welfare_coefficient(zm, p)
            assert midfield_r(zm, l, p) == pytest.approx(1.0, abs=1e-12)
            assert midfield_r(-zm, l, p) == pytest.approx(-1.0, abs=1e-12)


class TestRBuy:
    def test_far_field_growth(self, expansions):
        for K, (inp, sol) in expansions.items():
            S = inp.growth_slope
            errs = [abs(r_buy(z, sol.l, inp) / (-S * z) - 1.0)
                    for z in (-10.0, -40.0, -160.0)]
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 0.05

    def test_routes_agree(self, expansions, riccati_r_buy):
        for K, (inp, sol) in expansions.items():
            for z in np.linspace(-5.0, -0.5, 10):
                w = r_buy(float(z), sol.l, inp)
                rc = riccati_r_buy(float(z), sol.l, inp)
                assert w == pytest.approx(rc, rel=1e-6), (K, z)

    def test_refuses_a_cancelling_series(self):
        # Base market, K = 1e-4, near where the march would start: the
        # Whittaker ratio cannot be computed there, and r_B raises.
        inp = make_inputs(1e-4)
        z = -0.2672
        with pytest.raises(CancellationError):
            r_buy(z, welfare_coefficient(z, inp.params), inp)

    def test_reflection_identity(self, expansions):
        inp, sol = expansions[1.0]
        for z in (0.4, 1.3, 3.0):
            assert r_buy(z, sol.l, inp) == pytest.approx(
                2.0 - r_buy(-z, sol.l, inp), rel=1e-12)

    def test_singular_at_zero(self, expansions):
        inp, sol = expansions[1.0]
        with pytest.raises(ValueError):
            r_buy(0.0, sol.l, inp)


class TestFindZMinus:
    def test_defining_equation(self, expansions):
        for K, (inp, sol) in expansions.items():
            value = r_buy(sol.z_minus, welfare_coefficient(sol.z_minus,
                                                           inp.params), inp)
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_welfare_positive_rate_below_frictionless(self, expansions):
        for K, (inp, sol) in expansions.items():
            assert sol.z_minus < 0.0
            assert sol.l > 0.0
            assert sol.beta_approx < FRICTIONLESS

    def test_z_minus_matches_bisection_oracle(self, expansions):
        for K, (inp, sol) in expansions.items():
            roots = bisection_oracle(inp)
            assert abs(sol.z_minus - min(roots)) <= 1e-12, K

    def test_coupling_domain(self):
        # Below K = 5e-3 the closed form is too noisy to verify a root (at
        # K = 1e-4 it fails where the march starts); up to K = 1e5 the
        # march finds one.
        for K in (1e-4, 1e-3):
            with pytest.raises(NoRootError) as info:
                find_z_minus(make_inputs(K))
            assert info.value.z < 0.0
        for K in (5e-3, 1e4, 1e5):
            inp = make_inputs(K)
            sol = find_z_minus(inp)
            residual = r_buy(sol.z_minus,
                             welfare_coefficient(sol.z_minus, inp.params), inp)
            assert abs(residual - 1.0) <= _ROOT_ACCEPT, K

    def test_whittaker_argument_overflow_is_no_root(self):
        # At K = 1e-306 the argument a S z^2 of the Whittaker ratio
        # overflows: r_B reports an arithmetic failure, which the march
        # turns into NoRootError, as it does a refusal of the closed form.
        inp = make_inputs(1e-306)
        z = -0.5
        with pytest.raises(OverflowError, match="Whittaker argument"):
            r_buy(z, welfare_coefficient(z, inp.params), inp)
        with pytest.raises(NoRootError, match="closed form failed"):
            find_z_minus(inp)

    def test_pure_impact_limit_at_large_coupling(self):
        # As K = lam / eps^(4/3) grows, the expansion tends to the
        # pure-impact limit (Garleanu & Pedersen 2013): l to C sqrt(K), the
        # pure-impact loss over eps^(2/3), and z_minus sqrt(K) to
        # -1/sqrt(2 gamma sigma^2), where the marginal value
        # sqrt(2 gamma sigma^2 lam) |y - y*| meets eps. Measured gaps at
        # K = 1e3, 1e4, 1e5: l 0.160, 0.0296, 0.00531 and z 0.134, 0.0286,
        # 0.00527, each shrinking 4.7-5.6x per decade. C sqrt(K) is the
        # impact half of market.friction_loss.
        l_gaps, z_gaps = [], []
        for K in (1e3, 1e4, 1e5):
            inp = make_inputs(K)
            p = inp.params
            sol = find_z_minus(inp)
            impact_loss = friction_loss(
                MarketParams(mu=p.mu, sigma=p.sigma, gamma=p.gamma,
                             epsilon=0.0, lam=K))
            l_gaps.append(sol.l / impact_loss - 1.0)
            z_gaps.append(1.0 + sol.z_minus * math.sqrt(
                2.0 * K * p.gamma * p.sigma**2))
        assert l_gaps == pytest.approx([0.160, 0.0296, 0.00531], rel=0.1)
        assert z_gaps == pytest.approx([0.134, 0.0286, 0.00527], rel=0.1)
        for gaps in (l_gaps, z_gaps):
            for coarse, fine in zip(gaps, gaps[1:]):
                assert 4.0 <= coarse / fine <= 7.0

    def test_accepted_roots_meet_the_riccati_oracle(self, riccati_r_buy):
        # At small K the series behind the closed form cancel: every root
        # find_z_minus accepts must still solve r_B(z, l(z)) = 1 to
        # _ROOT_ACCEPT on the integrated Riccati equation, and the inputs
        # it cannot certify raise NoRootError. The base market solves at
        # every K here.
        for market in (BASE, LOW_WEIGHT, Y_STAR_090, GAMMA_20):
            for K in (5e-3, 7e-3, 1e-2, 1.5e-2, 2e-2):
                inp = make_inputs(K, market=market)
                try:
                    sol = find_z_minus(inp)
                except NoRootError:
                    assert market is not BASE, K
                    continue
                l = welfare_coefficient(sol.z_minus, inp.params)
                residual = riccati_r_buy(sol.z_minus, l, inp) - 1.0
                assert abs(residual) <= _ROOT_ACCEPT, (market, K, residual)

    def test_slope_constant_matches_riccati_identity(self, expansions):
        # At the matched boundary the quadratic term vanishes, so the slope
        # of r_B there is pinned by the equation itself.
        for K, (inp, sol) in expansions.items():
            gs2 = inp.params.gamma * inp.params.sigma**2
            identity = (gs2 * sol.z_minus**2 - 2 * sol.l) / inp.curvature_scale
            assert sol.F == pytest.approx(identity, rel=1e-9)

    def test_slope_constant_matches_finite_difference(self, expansions):
        for K, (inp, sol) in expansions.items():
            h = 1e-5
            fd = (r_buy(sol.z_minus + h, sol.l, inp)
                  - r_buy(sol.z_minus - h, sol.l, inp)) / (2 * h)
            assert sol.F == pytest.approx(fd, rel=1e-4)

    def test_boundaries_straddle_target(self, expansions):
        inp, sol = expansions[1.0]
        y_star = inp.y_star
        assert sol.y_minus_approx < y_star < sol.y_plus_approx
        assert sol.y_plus_approx - y_star == pytest.approx(
            y_star - sol.y_minus_approx, rel=1e-12)

    def test_serialization_names(self, expansions, capsys):
        # The asymptotic command's document carries the expansion's
        # constants by name, each equal to the solution's own field.
        inp, sol = expansions[1.0]
        p = inp.params
        argv = ["asymptotic", "--mu", repr(p.mu), "--sigma", repr(p.sigma),
                "--gamma", repr(p.gamma), "--epsilon", repr(p.epsilon),
                "--lambda", repr(p.lam), "--k", repr(inp.K)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("z_minus", "l", "a", "c", "k", "x_minus", "D", "E", "F"):
            assert doc[key] == getattr(sol, key)


class TestPolicyExpansion:
    def test_zero_inside_band(self, expansions):
        inp, sol = expansions[1.0]
        eps = inp.params.epsilon
        for z in (sol.z_minus, 0.0, sol.z_plus):
            y = inp.y_star + z * eps ** (1.0 / 3.0)
            assert asymptotic_policy(y, sol) == 0.0

    def test_vanishes_approaching_buy_boundary(self, expansions):
        inp, sol = expansions[1.0]
        eps = inp.params.epsilon
        values = []
        for dz in (0.1, 0.01, 0.001):
            y = inp.y_star + (sol.z_minus - dz) * eps ** (1.0 / 3.0)
            values.append(asymptotic_policy(y, sol))
        assert values[0] > values[1] > values[2] > 0.0
        assert values[2] < 0.05 * values[0]

    def test_antisymmetric_about_target(self, expansions):
        inp, sol = expansions[1.0]
        for dy in (0.05, 0.1, 0.2):
            buy = asymptotic_policy(inp.y_star - dy, sol)
            sell = asymptotic_policy(inp.y_star + dy, sol)
            assert sell == pytest.approx(-buy, rel=1e-9)

    def test_far_field_turnover_law(self, expansions):
        inp, sol = expansions[1.0]
        p = inp.params
        y = inp.y_star - 0.2
        law = p.sigma * math.sqrt(p.gamma / 2) * 0.2 / math.sqrt(p.lam)
        assert asymptotic_policy(y, sol) == pytest.approx(law, rel=0.02)

    def test_near_boundary_slopes_equal_and_negative(self, expansions):
        for K, (inp, sol) in expansions.items():
            slope_buy, slope_sell = near_boundary_slope(sol)
            assert slope_buy == slope_sell
            assert slope_buy < 0.0

    def test_near_boundary_slope_matches_policy_difference(self, expansions):
        inp, sol = expansions[1.0]
        eps = inp.params.epsilon
        slope_buy, _ = near_boundary_slope(sol)
        h = 1e-6
        y_edge = inp.y_star + sol.z_minus * eps ** (1.0 / 3.0)
        fd = (asymptotic_policy(y_edge - h, sol) - 0.0) / (-h)
        assert fd == pytest.approx(slope_buy, rel=1e-3)
