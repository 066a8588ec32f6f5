"""Validation of the scalar stiff integrator and its piecewise-polynomial
evaluator against closed forms and scipy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import PPoly

from spreadimpact import _radau
from spreadimpact._radau import (GuardBox, PiecewisePolynomial,
                                 integrate_guarded)
from spreadimpact.market import MarketParams
from spreadimpact.solver import _leg_start
from spreadimpact import hjb


def assert_last_step_brackets_crossing(res, guard, t_cross):
    """A guard-stopped run ends at its first accepted step point inside the
    guard region: the step before it is outside, and the exact crossing
    lies in between."""
    t_prev = res.sol.knots[-2]
    assert guard.breach(t_prev, float(res.sol(t_prev))) is None
    assert guard.breach(res.t_end, res.y_end) == res.status
    assert res.t_end == res.sol.knots[-1]
    assert t_prev < t_cross <= res.t_end


class TestAgainstClosedForms:
    def test_stiff_relaxation_onto_cosine(self):
        rate = 1e6
        f = lambda t, q: -rate * (q - math.cos(t)) - math.sin(t)
        jac = lambda t, q: -rate
        res = integrate_guarded(f, jac, 0.0, 10.0, 1.0, 1e-10, 1e-12,
                                GuardBox())
        assert res.status == "reached"
        assert res.y_end == pytest.approx(math.cos(10.0), abs=1e-9)

    def test_backward_exponential(self):
        res = integrate_guarded(lambda t, q: q, lambda t, q: 1.0,
                                2.0, 0.0, 1.0, 1e-12, 1e-14, GuardBox())
        assert res.status == "reached"
        assert res.y_end == pytest.approx(math.exp(-2.0), rel=1e-11)

    def test_dense_output_between_steps(self):
        # Forward from t = 0 and backward from t = 6: either way the dense
        # output runs on increasing knots and ends where the run stopped.
        f = lambda t, q: -q + math.sin(t)
        exact = lambda t: (0.5 + 0.5) * np.exp(-t) + 0.5 * (np.sin(t)
                                                            - np.cos(t))
        ts = np.linspace(0.1, 5.9, 200)
        for t0, t_bound, end in ((0.0, 6.0, -1), (6.0, 0.0, 0)):
            res = integrate_guarded(f, lambda t, q: -1.0, t0, t_bound,
                                    float(exact(t0)), 1e-11, 1e-13,
                                    GuardBox())
            assert res.status == "reached"
            knots = res.sol.knots
            assert np.all(np.diff(knots) > 0.0)
            assert (knots[0], knots[-1]) == (0.0, 6.0)
            assert res.t_end == knots[end] == t_bound
            assert res.sol(t0) == pytest.approx(float(exact(t0)), abs=1e-14)
            assert np.max(np.abs(res.sol(ts) - exact(ts))) < 1e-7

    def test_guard_crossing_refined(self):
        res = integrate_guarded(lambda t, q: 1.0, lambda t, q: 0.0,
                                0.0, 2.0, 0.0, 1e-10, 1e-12,
                                guard=GuardBox(upper_q=0.5))
        assert res.status == "upper"
        assert_last_step_brackets_crossing(res, GuardBox(upper_q=0.5), 0.5)

    def test_product_guard(self):
        # q = t - 1 crosses q*t = 0.6 at the positive root of t^2 - t - 0.6.
        res = integrate_guarded(lambda t, q: 1.0, lambda t, q: 0.0,
                                1.0, 3.0, 0.0, 1e-10, 1e-12,
                                guard=GuardBox(upper_qt=0.6))
        expected = 0.5 * (1.0 + math.sqrt(1.0 + 2.4))
        assert res.status == "upper"
        assert_last_step_brackets_crossing(res, GuardBox(upper_qt=0.6),
                                           expected)

    def test_lower_guard(self):
        res = integrate_guarded(lambda t, q: -2.0, lambda t, q: 0.0,
                                0.0, 5.0, 0.0, 1e-10, 1e-12,
                                guard=GuardBox(lower_q=-1.0))
        assert res.status == "lower"
        assert_last_step_brackets_crossing(res, GuardBox(lower_q=-1.0), 0.5)

    def test_nonfinite_region_handled(self):
        # dq/dt = 1/(1-q) blows up at q -> 1; a guard below keeps it clean.
        def f(t, q):
            d = 1.0 - q
            return 1.0 / d if d > 0 else math.inf

        def jac(t, q):
            d = 1.0 - q
            return 1.0 / d**2 if d > 0 else 0.0

        res = integrate_guarded(f, jac, 0.0, 1.0, 0.0, 1e-10, 1e-12,
                                guard=GuardBox(upper_q=0.9))
        assert res.status == "upper"
        assert_last_step_brackets_crossing(res, GuardBox(upper_q=0.9),
                                           (1 - 0.01) / 2)

    def test_rejected_steps_are_counted(self):
        # q' = 1 has a zero error estimate, so the step grows tenfold per
        # accepted step until a trial's stages reach q >= 0.5, where the
        # slope is NaN; Newton fails there and the step is halved. From
        # t = 0.1111 the trials h = 1 and 0.5 fail (0.25 is accepted), and
        # from t = 0.3611 the trials h = 1.6389 (up to t_bound), 0.819, 0.41
        # and 0.205 fail (0.102 is accepted).
        res = integrate_guarded(lambda t, q: 1.0 if q < 0.5 else math.nan,
                                lambda t, q: 0.0, 0.0, 2.0, 0.0, 1e-10,
                                1e-12, guard=GuardBox(upper_q=0.45))
        assert res.status == "upper"
        assert res.naccepted == 6
        assert res.nrejected == 6

        # A slope that does not depend on q never fails Newton; steps grown
        # on the flat part overshoot the turn at t = 1 and fail the error
        # test instead.
        res = integrate_guarded(lambda t, q: math.tanh(50.0 * (t - 1.0)),
                                lambda t, q: 0.0, 0.0, 2.0, 0.0, 1e-8, 1e-10,
                                GuardBox())
        assert res.status == "reached"
        assert res.nrejected > 0


def relax(t, q):
    return 1.0 - q


def relax_jac(t, q):
    return -1.0


def first_accepted_point_call(f, jac, t0, t_bound, q0, rtol, atol):
    """Run once unguarded and return ``(k, t1, q1)``: (t1, q1) is the first
    accepted step point and k the number of slope calls made before the one
    that evaluates it. That call is the last one at exactly (t1, q1): later
    calls sit at later times, or at t1 with an error probe added to q1."""
    calls = []

    def counting(t, q):
        calls.append((t, q))
        return f(t, q)

    res = integrate_guarded(counting, jac, t0, t_bound, q0, rtol, atol,
                            GuardBox())
    assert res.naccepted >= 2
    point = (res.sol.knots[1], res.sol.coeffs[1, 0])
    return len(calls) - 1 - calls[::-1].index(point), *point


def infinite_on_call(f, k):
    """f, except that its call number k (from 0) returns inf."""
    calls = [0]

    def g(t, q):
        calls[0] += 1
        return math.inf if calls[0] == k + 1 else f(t, q)

    return g


class TestExits:
    """Each way a leg can end sets the end state to the last knot."""

    def test_nonfinite_accepted_point_inside_guard_ends_on_guard(self):
        k, t1, q1 = first_accepted_point_call(relax, relax_jac, 0.0, 5.0, 0.0,
                                              1e-10, 1e-12)
        guard = GuardBox(upper_q=q1)
        res = integrate_guarded(infinite_on_call(relax, k), relax_jac, 0.0,
                                5.0, 0.0, 1e-10, 1e-12, guard)
        assert res.status == "upper"
        assert res.naccepted == 1
        assert (res.t_end, res.y_end) == (t1, q1)
        assert res.t_end == res.sol.knots[-1]

    def test_nonfinite_accepted_point_without_guard_stalls(self):
        k, _, _ = first_accepted_point_call(relax, relax_jac, 0.0, 5.0, 0.0,
                                            1e-10, 1e-12)
        res = integrate_guarded(infinite_on_call(relax, k), relax_jac, 0.0,
                                5.0, 0.0, 1e-10, 1e-12, GuardBox())
        assert res.status == "stalled"
        assert res.naccepted == 0
        assert (res.t_end, res.y_end) == (0.0, 0.0)
        assert res.t_end == res.sol.knots[-1]

    def test_step_cap_stalls(self, monkeypatch):
        monkeypatch.setattr(_radau, "_MAX_STEPS", 3)
        res = integrate_guarded(relax, relax_jac, 0.0, 5.0, 0.0, 1e-10,
                                1e-12, GuardBox())
        assert res.status == "stalled"
        assert res.naccepted == 3
        assert len(res.sol.knots) == 4
        assert res.t_end == res.sol.knots[-1]
        assert res.y_end == pytest.approx(1.0 - math.exp(-res.t_end),
                                          rel=1e-9)

    def test_nowhere_finite_slope_gives_one_point_result(self):
        res = integrate_guarded(lambda t, q: 1.0 if t == 0.0 else math.nan,
                                lambda t, q: 0.0, 0.0, 1.0, 0.25, 1e-10,
                                1e-12, GuardBox())
        assert res.status == "stalled"
        assert res.naccepted == 0
        assert res.nrejected > 0
        assert list(res.sol.knots) == [0.0, 0.0]
        assert (res.t_end, res.y_end) == (0.0, 0.25)
        assert res.t_end == res.sol.knots[-1]


def quarter_point_defects(res, defect):
    """The defect at the quarter points of every accepted step."""
    knots = res.sol.knots
    slope = res.sol.derivative()
    return np.array([defect(t, res.sol(t), slope(t))
                     for a, b in zip(knots[:-1], knots[1:])
                     for t in (a + 0.25 * (b - a), a + 0.5 * (b - a),
                               a + 0.75 * (b - a))])


class TestDefectControl:
    def test_trials_rejected_until_every_step_meets_the_defect(self):
        # q' = 1 - q at a loose rtol: the error test accepts steps whose
        # cubics miss the equation by up to 2.3e-6, far above a defect
        # tolerance of 1e-9. The defect test rejects those trials, counts
        # them, and takes shorter steps until every accepted one meets it.
        def defect(t, q, dq):
            return abs(dq - relax(t, q)) / 1e-9

        plain = integrate_guarded(relax, relax_jac, 0.0, 0.9, 0.0, 1e-6,
                                  1e-8, GuardBox())
        controlled = integrate_guarded(relax, relax_jac, 0.0, 0.9, 0.0, 1e-6,
                                       1e-8, GuardBox(), defect=defect)
        assert plain.status == controlled.status == "reached"
        assert np.max(quarter_point_defects(plain, defect)) > 10.0
        assert np.max(quarter_point_defects(controlled, defect)) <= 1.0
        assert controlled.nrejected > plain.nrejected
        assert controlled.naccepted > plain.naccepted
        assert np.max(np.diff(controlled.sol.knots)) < np.max(
            np.diff(plain.sol.knots))
        assert controlled.y_end == pytest.approx(1.0 - math.exp(-0.9),
                                                 rel=1e-9)

    def test_unmeetable_defect_stalls_at_the_stuck_point(self):
        # Past t = 0.5 no step can meet the defect: the trial steps from the
        # first point past it shrink until they are shorter than 1e-9 of
        # that point's distance to t = 1, and the run stalls there.
        def defect(t, q, dq):
            return 2.0 if t > 0.5 else 0.0

        res = integrate_guarded(relax, relax_jac, 0.0, 0.9, 0.0, 1e-10,
                                1e-12, GuardBox(), defect=defect)
        assert res.status == "stalled"
        t_prev = res.sol.knots[-2]
        assert res.t_end == res.sol.knots[-1]
        assert t_prev + 0.75 * (res.t_end - t_prev) <= 0.5 < res.t_end
        assert res.y_end == pytest.approx(1.0 - math.exp(-res.t_end),
                                          rel=1e-9)
        # Each rejection shrinks h by 0.9 * 2^(-1/3) = 0.71: about 40 of them
        # take it from the last step's 2e-4 to 1e-9 (1 - t_end).
        assert 40 <= res.nrejected <= 100


class TestAgainstScipy:
    @pytest.mark.parametrize("eps,lam,beta,forward", [
        (1e-3, 1e-4, 0.0249, True),
        (1e-3, 1e-4, 0.0249578909, False),
        (1e-2, 1e-2, 0.0248, True),
    ])
    def test_shooting_legs_agree(self, eps, lam, beta, forward):
        params = MarketParams(mu=0.08, sigma=0.16, gamma=5.0, epsilon=eps,
                              lam=lam)
        rhs, jac = hjb.make_rhs_jac(params, beta)
        y0, start = _leg_start(params, beta, forward, rhs, jac)
        span = (y0, params.merton_weight)
        mine = integrate_guarded(rhs, jac, span[0], span[1], start,
                                 1e-10, 1e-15, GuardBox())
        ref = solve_ivp(lambda t, q: [rhs(t, q[0])], span, [start],
                        method="Radau", jac=lambda t, q: [[jac(t, q[0])]],
                        rtol=1e-10, atol=1e-15)
        assert mine.status == "reached"
        assert ref.status == 0
        assert mine.y_end == pytest.approx(ref.y[0][-1], rel=1e-7,
                                           abs=1e-12)


@st.composite
def piecewise_data(draw):
    """Increasing knots with arbitrary cubic coefficients in the scaled
    variable of each piece."""
    n = draw(st.integers(2, 12))
    start = draw(st.floats(-10.0, 10.0))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1,
                         max_size=n - 1))
    knots = start + np.concatenate([[0.0], np.cumsum(gaps)])
    coeffs = np.array(draw(st.lists(st.floats(-100.0, 100.0),
                                    min_size=4 * (n - 1),
                                    max_size=4 * (n - 1)))).reshape(n - 1, 4)
    return knots, coeffs


def ppoly_oracle(knots, coeffs):
    """scipy's PPoly of the same function: powers of (t - knots[i]),
    highest first, with the scaling of each piece moved into the
    coefficients."""
    knots = np.asarray(knots, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    h = np.diff(knots)
    powers = np.arange(coeffs.shape[1])
    return PPoly((coeffs / h[:, None] ** powers).T[::-1], knots,
                 extrapolate=True)


class TestPiecewisePolynomial:
    @given(data=piecewise_data(), theta=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_ppoly(self, data, theta):
        # At the knots, inside every piece, and beyond both ends, values and
        # derivatives agree with scipy's PPoly.
        knots, coeffs = data
        mine = PiecewisePolynomial(knots, coeffs)
        ref = ppoly_oracle(knots, coeffs)
        span = knots[-1] - knots[0]
        pts = np.concatenate([
            knots,
            knots[:-1] + theta * np.diff(knots),
            knots[0] - span * np.array([1e-3, 0.1, 1.0]),
            knots[-1] + span * np.array([1e-3, 0.1, 1.0]),
        ])
        for got, want in ((mine(pts), ref(pts)),
                          (mine.derivative()(pts), ref.derivative()(pts))):
            scale = max(1.0, float(np.max(np.abs(want))))
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * scale)

    def test_scalar_evaluation(self):
        poly = PiecewisePolynomial(np.array([0.0, 1.0, 3.0]),
                                   np.array([[1.0, 0.0, 2.0, -1.0],
                                             [2.0, 2.0, -5.0, 1.0]]))
        value = poly(2.0)
        assert isinstance(value, float)
        assert value == poly(np.array([2.0]))[0]
        assert poly(1.0) == 2.0

    def test_decreasing_knots(self):
        # A backward leg's steps come on decreasing knots; reversed, with
        # each cubic rewritten in 1 - x, they give the same function on
        # increasing knots.
        knots = np.array([2.0, 0.5, 0.0])
        coeffs = np.array([[0.0, -1.5, 6.0, -3.5], [1.0, 0.0, -2.0, 1.0]])
        rising = PiecewisePolynomial(knots[::-1],
                                     coeffs[::-1] @ _radau._FLIP.T)
        ref = ppoly_oracle(knots, coeffs)
        pts = np.linspace(-0.5, 2.5, 31)
        np.testing.assert_allclose(rising(pts), ref(pts), rtol=1e-14,
                                   atol=1e-14)
        np.testing.assert_allclose(rising.derivative()(pts),
                                   ref.derivative()(pts), rtol=1e-14,
                                   atol=1e-14)
