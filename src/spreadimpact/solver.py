"""Free-boundary solver: a bracketing root search for the equivalent safe
rate.

For each candidate rate beta the ODE is shot forward from y = delta (using
the y=0 value and derivative) and backward from y = 1 - delta (using the y=1
value), both onto the frictionless weight y*. The surplus q0(y*) - q1(y*)
changes sign exactly once in beta on the admissible bracket; trajectories
that diverge before reaching y* are classified by which side of the band
they left through, and count as a surplus of +-1 with the sign that side
implies. Brent's method on the surplus pins beta in about ten evaluations,
after which a final high-accuracy pass shoots the matched legs and locates
the no-trade boundaries.

The solution's q is the legs' own dense output: the Radau collocation cubic
of every accepted step, forward from y = delta up to y*, then backward from
y* to y = 1 - delta, stitched into one piecewise cubic on increasing knots.
It is checked once against the equation, at the quarter points of every
step; missing the advertised residual budget raises, it is never returned.

Both boundary starts are first refined onto the local algebraic balance of
the equation (the term multiplied by the vanishing coefficient dropped):
the raw boundary data sit a few picounits off the attracting slow manifold,
and resolving that transient would force astronomically small steps.

Every leg, in the root search and in the final pass alike, goes through
:func:`shoot_leg`; the equation itself lives in :mod:`spreadimpact.hjb`.
The same root finder, :func:`._radau.bracket_root`, locates the band
crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hjb
from ._radau import (
    GUARD_LOWER,
    GUARD_UPPER,
    REACHED,
    STALLED,
    GuardBox,
    IntegrationResult,
    PiecewisePolynomial,
    bracket_root,
    integrate_guarded,
)
from .market import (
    AllocationRegime,
    MarketParams,
    ParameterError,
    baseline,
    degenerate_regime,
    validate,
)

__all__ = [
    "FreeBoundarySolution",
    "NoMatchError",
    "NumericalFailure",
    "TradingPolicy",
    "policy",
    "solve",
]

# Numerical controls; they meet the documented tolerances. RTOL is the
# advertised integration tolerance; the final stitched pass runs tighter
# (FINAL_RTOL, with steps capped at FINAL_MAX_STEP) so that its dense output,
# the solution's q, stays well inside the advertised budget. DELTA is the
# offset of both boundary starts. The rate search ends when the beta
# bracket is no wider than BETA_TOL_REL times its initial width.
RTOL = 1e-10
FINAL_RTOL = 1e-13
FINAL_MAX_STEP = 2.5e-4
BETA_TOL_REL = 1e-12
Y_TOL = 1e-12
DELTA = 1e-6
# Hard divergence guards: |q| >= 10, or q y within a relative 1e-9 of the
# singular curve q = 1/y.
HARD_GUARD = GuardBox(upper_q=10.0, lower_q=-10.0, upper_qt=1.0 - 1e-9)
# Knots of each side's table in TradingPolicy.tabulated.
TABLE_KNOTS = 8193


class NoMatchError(RuntimeError):
    """The surplus sign is the same at both bracket ends: the frictions are
    too large for the free-boundary construction. Never silently clamped."""


class NumericalFailure(RuntimeError):
    """An integration leg failed in a way that cannot be classified."""


@dataclass
class FreeBoundarySolution:
    """Matched rate, trading boundaries, and the function q.

    ``q`` is the final stitched pass itself: the collocation cubic of every
    accepted Radau step, on increasing knots from delta through y* to
    1 - delta. ``q_at`` and ``q_prime_at`` evaluate it and its derivative.
    ``y_grid`` is its knots with both boundaries added, and ``q_grid`` its
    values there; ``diagnostics["residual_ratio_half_budget"]`` is its worst
    equation residual at the quarter points of every step, relative to the
    largest additive term and to 0.7 of the 10 x RTOL budget.
    """

    params: MarketParams
    beta: float
    y_minus: float
    y_plus: float
    q: PiecewisePolynomial
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def y_grid(self) -> np.ndarray:
        """The knots of ``q`` plus ``y_minus`` and ``y_plus``."""
        return np.unique(np.concatenate([self.q.knots,
                                         [self.y_minus, self.y_plus]]))

    @cached_property
    def q_grid(self) -> np.ndarray:
        """``q`` on ``y_grid``."""
        return self.q(self.y_grid)

    @cached_property
    def _q_prime(self) -> PiecewisePolynomial:
        return self.q.derivative()

    def q_at(self, y):
        """q at y (scalar or array)."""
        return self.q(y)

    def q_prime_at(self, y):
        """Derivative of q at y (scalar or array)."""
        return self._q_prime(y)

    def turnover_at(self, y):
        """Optimal wealth turnover at y; zero inside [y_minus, y_plus].

        The trading-branch values are clipped at zero so that rounding at
        the boundaries cannot flip the sign the exact solution guarantees.
        """
        y_arr = np.asarray(y, dtype=float)
        u = hjb.optimal_turnover(y_arr, self.q(y_arr),
                                 self.params.epsilon, self.params.lam)
        out = np.where(y_arr < self.y_minus, np.maximum(u, 0.0),
                       np.where(y_arr > self.y_plus, np.minimum(u, 0.0), 0.0))
        return float(out) if np.ndim(y) == 0 else out

    def sample_points(self, n: int | None = None) -> np.ndarray:
        """Output abscissae: ``n`` uniform points over [delta, 1-delta] plus
        both boundaries, or ``y_grid`` when ``n`` is None."""
        if n is None:
            return self.y_grid
        ys = np.linspace(self.y_grid[0], self.y_grid[-1], n)
        return np.unique(np.concatenate([ys, [self.y_minus, self.y_plus]]))

    def to_json_dict(self, grid_points: int | None = None) -> dict:
        ys, qs, us = self._output_grid(grid_points)
        return {
            "beta": self.beta,
            "y_minus": self.y_minus,
            "y_plus": self.y_plus,
            "grid": [[float(a), float(b), float(c)] for a, b, c in zip(ys, qs, us)],
            "params": self.params.to_dict(),
            "diagnostics": self.diagnostics,
        }

    def to_csv(self, fh, grid_points: int | None = None) -> None:
        """Write the grid as CSV with header ``y,q,u``."""
        ys, qs, us = self._output_grid(grid_points)
        fh.write("y,q,u\n")
        for a, b, c in zip(ys, qs, us):
            fh.write(f"{float(a)!r},{float(b)!r},{float(c)!r}\n")

    def _output_grid(self, grid_points: int | None):
        ys = self.sample_points(grid_points)
        return ys, self.q(ys), self.turnover_at(ys)


@dataclass(frozen=True)
class TradingPolicy:
    """Callable wealth-turnover policy derived from a solution."""

    solution: FreeBoundarySolution
    scale_outside_band: float = 1.0

    def __call__(self, y):
        u = self.solution.turnover_at(y)
        if self.scale_outside_band != 1.0:
            u = u * self.scale_outside_band
        return u

    @property
    def y_minus(self) -> float:
        return self.solution.y_minus

    @property
    def y_plus(self) -> float:
        return self.solution.y_plus

    def tabulated(self):
        """Piecewise-linear evaluator for simulation inner loops.

        Turnover is smooth on each trading side and has kinks only at the
        boundaries, so it is tabulated on two uniform grids of
        ``TABLE_KNOTS`` knots: the buy side on [delta, y_minus] and the sell
        side on [y_plus, 1-delta]. Each boundary is a knot of its own table,
        so the kinks are exact, and the result is exactly 0.0 on
        [y_minus, y_plus]. Weights are clipped to [delta, 1-delta]. A call
        computes each weight's cell directly from the uniform spacing and
        gathers that cell's value and slope: O(1) per weight, where a
        binary search over the knots costs several times more.
        """
        sol = self.solution
        lo, hi = float(sol.y_grid[0]), float(sol.y_grid[-1])
        y_minus, y_plus = sol.y_minus, sol.y_plus
        n = TABLE_KNOTS
        # Table coordinate t: knot k of the buy side sits at t = k, the band
        # is the single cell [n-1, n) (zero value, zero slope), and knot k of
        # the sell side sits at t = n + k. The last slope, 0, serves 1-delta.
        values = np.concatenate([self(np.linspace(lo, y_minus, n)),
                                 self(np.linspace(y_plus, hi, n))])
        slopes = np.append(np.diff(values), 0.0)
        inv_h_buy = (n - 1) / (y_minus - lo)
        # y_minus itself must land on the band cell, not at the end of the
        # last buy cell, so that the band is exactly zero from its first
        # point.
        while (y_minus - lo) * inv_h_buy < n - 1:
            inv_h_buy = math.nextafter(inv_h_buy, math.inf)
        inv_h_sell = (n - 1) / (hi - y_plus)

        def turnover_table(y):
            y = np.clip(y, lo, hi)
            t = np.where(y > y_plus, (y - y_plus) * inv_h_sell + n,
                         np.minimum((y - lo) * inv_h_buy, n - 1))
            cell = np.floor(t)
            t -= cell  # exact, since t >= 0
            cell = cell.astype(np.intp)
            u = slopes.take(cell)
            u *= t
            u += values.take(cell)
            return u

        return turnover_table


def policy(solution: FreeBoundarySolution) -> TradingPolicy:
    """Optimal trading policy of a solved free-boundary problem."""
    return TradingPolicy(solution)


# ---------------------------------------------------------------------------
# Shooting legs


def _q_scale(params: MarketParams, beta_hi: float) -> float:
    return params.epsilon + 2.0 * math.sqrt(params.lam * beta_hi) + 1e-12


def _auto_atol(params: MarketParams, beta_hi: float, rtol: float) -> float:
    """Absolute tolerance tied to the natural size of q for these inputs."""
    return max(1e-17, min(1e-13, 100.0 * rtol * _q_scale(params, beta_hi)))


def _fast_guard(params: MarketParams, beta_hi: float) -> GuardBox:
    """Early-exit guards used during the rate search.

    They sit several times beyond the envelope any matched trajectory can
    reach (|q| stays near the boundary data, q y stays far below 1), so a
    crossing has the same meaning as the hard guards but is detected long
    before the integrator grinds into the singular curve.
    """
    scale = _q_scale(params, beta_hi)
    q1 = hjb.boundary_value_1(params, beta_hi)
    upper = min(HARD_GUARD.upper_q, max(0.2, 4.0 * scale))
    lower = max(HARD_GUARD.lower_q, min(-0.25, 5.0 * q1))
    return GuardBox(upper_q=upper, lower_q=lower, upper_qt=0.6)


def _leg_start(params: MarketParams, beta: float, forward: bool, rhs,
               jac) -> tuple[float, float]:
    """Start (y, q) of a leg: the boundary data at y = delta (forward) or
    y = 1 - delta (backward), Newton-refined onto the local algebraic
    balance.

    The balance drops the q' term, whose coefficient vanishes at the
    endpoints: it is the root of rhs + (1-gamma) q^2, in which that
    coefficient cancels. The refined start differs from the raw data by
    O(delta^2) but sits close enough to the slow manifold for the stiff
    integrator to start cleanly.
    """
    if forward:
        q0, dq0 = hjb.boundary_value_0(params, beta)
        y, q_init = DELTA, q0 + DELTA * dq0
    else:
        y, q_init = 1.0 - DELTA, hjb.boundary_value_1(params, beta)
    one_minus_gamma = 1.0 - params.gamma
    q = q_init
    for _ in range(10):
        fval = rhs(y, q) + one_minus_gamma * q * q
        if fval == -math.inf:  # q y >= 1: keep the raw data
            return y, q_init
        fprime = jac(y, q) + 2.0 * one_minus_gamma * q
        if fprime == 0.0:
            break
        step = fval / fprime
        q -= step
        if abs(step) <= 1e-16 * max(1.0, abs(q)):
            break
    return y, q


def _classify_stall(leg: IntegrationResult, params: MarketParams) -> str:
    """Interpret a step-size collapse by where the trajectory got stuck.

    A stall hugging the singular curve q = 1/y is an upper divergence (the
    guard there is asymptotically unreachable); a stall far below the band
    is a lower divergence. Anything else is a genuine failure.
    """
    y, q = leg.t_end, leg.y_end
    if q * y >= 0.5 or q >= 0.15:
        return GUARD_UPPER
    if q <= min(-0.15, 2.0 * hjb.band_sell(y, params.epsilon)):
        return GUARD_LOWER
    return STALLED


def shoot_leg(params: MarketParams, beta: float, forward: bool,
              y_stop: float, rtol: float, atol: float, guard: GuardBox,
              max_step: float = math.inf) -> tuple[IntegrationResult, str]:
    """Shoot one leg onto ``y_stop``, forward from y = delta or backward
    from y = 1 - delta.

    Returns the leg and its status: ``reached``, ``upper`` or ``lower`` (the
    side of the band a diverging trajectory left through, a step-size
    collapse included when its position says which), or ``stalled``.
    """
    rhs, jac = hjb.make_rhs_jac(params, beta)
    y0, q0 = _leg_start(params, beta, forward, rhs, jac)
    leg = integrate_guarded(rhs, jac, y0, y_stop, q0, rtol, atol,
                            guard=guard, max_step=max_step)
    status = leg.status
    if status == STALLED:
        status = _classify_stall(leg, params)
    return leg, status


# ---------------------------------------------------------------------------
# Matching


def _match_surplus(params: MarketParams, beta: float, y_mid: float,
                   atol: float, guard: GuardBox) -> float:
    """Surplus q0(y_mid) - q1(y_mid) of the two legs at rate beta.

    A leg that diverges before y_mid gives a surplus of +-1, with the sign
    its divergence implies: forward above means positive, below negative,
    and the backward leg mirrors both. The sign is exact; the unit size
    (beyond the surplus of matched legs near the root) only steers the
    interpolation of the root search.
    """
    ends = []
    for forward, upper_sign in ((True, 1.0), (False, -1.0)):
        leg, status = shoot_leg(params, beta, forward, y_mid, RTOL, atol,
                                guard)
        if status == STALLED:
            side = "forward" if forward else "backward"
            raise NumericalFailure(
                f"{side} leg stalled unclassifiably at beta={beta!r}, "
                f"y={leg.t_end:.6g}, q={leg.y_end:.6g}"
            )
        if status == GUARD_UPPER:
            return upper_sign
        if status == GUARD_LOWER:
            return -upper_sign
        ends.append(leg.y_end)
    return ends[0] - ends[1]


def solve(params: MarketParams) -> FreeBoundarySolution:
    """Solve the free-boundary problem for interior-regime parameters.

    ``diagnostics["bisection_iterations"]`` counts the surplus evaluations
    of the rate search after the two bracket probes (each is one forward
    and one backward leg); ``beta_bracket_width`` is the width of the final
    sign-change bracket, zero when a surplus was exactly zero.

    Raises
    ------
    ParameterError
        Invalid parameters, a degenerate regime, or lam == 0 (the exact
        construction needs a strictly positive impact cost).
    NoMatchError
        The surplus has the same sign at both ends of the admissible rate
        bracket; the frictions are too large for the construction.
    NumericalFailure
        An integration leg failed in a way that cannot be classified, or
        the stitched q breaks an invariant or misses its residual budget.
    """
    validate(params)
    if degenerate_regime(params) is not AllocationRegime.INTERIOR:
        raise ParameterError(
            "parameters are in a buy-and-hold regime; the free-boundary "
            "problem only applies when 0 < mu/(gamma sigma^2) < 1"
        )
    if params.lam <= 0.0:
        raise ParameterError(
            "the exact solver requires lambda > 0; the pure-spread limit is "
            "approached with a tiny positive lambda"
        )

    base = baseline(params)
    y_mid = base.merton_weight
    lo = max(0.0, base.full_risky_esr)
    hi = base.frictionless_esr
    width0 = hi - lo
    beta_tol = BETA_TOL_REL * width0
    nudge = 1e-13 * width0
    lo_in, hi_in = lo + nudge, hi - nudge

    atol = _auto_atol(params, hi, RTOL)
    guard = _fast_guard(params, hi)

    def surplus(beta_try: float) -> float:
        return _match_surplus(params, beta_try, y_mid, atol, guard)

    surplus_lo = surplus(lo_in)
    surplus_hi = surplus(hi_in)
    sign_lo, sign_hi = np.sign(surplus_lo), np.sign(surplus_hi)
    bracket_as_expected = sign_lo < 0.0 < sign_hi
    if sign_lo == sign_hi:
        raise NoMatchError(
            f"no sign change of the shooting surplus on the rate bracket "
            f"[{lo:.6g}, {hi:.6g}] (signs {sign_lo:+.0f}/{sign_hi:+.0f}); "
            "the frictions are too large for the free-boundary construction"
        )
    beta, beta_other, iterations = bracket_root(
        surplus, lo_in, hi_in, surplus_lo, surplus_hi, beta_tol)

    # Final stitched pass: tighter tolerance, hard guards only, and a step
    # cap so the dense output is uniformly accurate between step points.
    final_atol = max(1e-18, 0.01 * FINAL_RTOL * _q_scale(params, hi))

    (leg_f, status_f), (leg_b, status_b) = (
        shoot_leg(params, beta, forward, y_mid, FINAL_RTOL, final_atol,
                  HARD_GUARD, max_step=FINAL_MAX_STEP)
        for forward in (True, False))
    if status_f != REACHED or status_b != REACHED:
        raise NumericalFailure(
            f"final stitched pass did not reach the matching point "
            f"(forward: {status_f}, backward: {status_b})"
        )

    matching_residual = leg_f.y_end - leg_b.y_end
    q = _stitch(leg_f.sol, leg_b.sol)
    y_minus, y_plus = _locate_boundaries(params, q)

    diagnostics = {
        "bisection_iterations": iterations,
        "matching_residual": matching_residual,
        "bracket_signs_expected": bool(bracket_as_expected),
        "rtol": RTOL,
        "final_rtol": FINAL_RTOL,
        "final_atol": final_atol,
        "forward_steps": int(leg_f.naccepted),
        "backward_steps": int(leg_b.naccepted),
        "beta_bracket_width": abs(beta_other - beta),
    }
    solution = FreeBoundarySolution(
        params=params,
        beta=beta,
        y_minus=y_minus,
        y_plus=y_plus,
        q=q,
        diagnostics=diagnostics,
    )
    diagnostics["grid_size"] = int(len(solution.y_grid))
    diagnostics["residual_ratio_half_budget"] = _check_solution(solution,
                                                                base)
    return solution


def _stitch(forward: PiecewisePolynomial,
            backward: PiecewisePolynomial) -> PiecewisePolynomial:
    """The matched q on increasing knots: the forward leg's step cubics up
    to y*, then the backward leg's, each rewritten on its reversed step.

    Both legs end exactly on y*. A backward piece p(x) runs from its later
    knot (x = 1) down to its earlier one; on the reversed step it is
    p(1 - x) = sum_j x^j (-1)^j sum_k C(k, j) c_k.
    """
    degree = backward.coeffs.shape[1]
    flip = np.array([[(-1.0) ** j * math.comb(k, j) for k in range(degree)]
                     for j in range(degree)])
    return PiecewisePolynomial(
        np.concatenate([forward.knots, backward.knots[-2::-1]]),
        np.concatenate([forward.coeffs, backward.coeffs[::-1] @ flip.T]),
    )


def _locate_boundaries(params: MarketParams,
                       q: PiecewisePolynomial) -> tuple[float, float]:
    """Root-bracket the crossings of q with the two band curves."""
    eps = params.epsilon

    def g_buy(y):
        return q(y) - hjb.band_buy(y, eps)

    def g_sell(y):
        return q(y) - hjb.band_sell(y, eps)

    # Scan on the knots: the accepted step points of both legs.
    mesh = q.knots
    gb = g_buy(mesh)
    gs = g_sell(mesh)

    idx_buy = np.nonzero(np.diff(np.signbit(gb)))[0]
    idx_sell = np.nonzero(np.diff(np.signbit(gs)))[0]
    if len(idx_buy) == 0 or len(idx_sell) == 0:
        raise NumericalFailure(
            "could not bracket a band crossing on the stitched trajectory"
        )
    i = idx_buy[0]
    j = idx_sell[-1]
    y_minus = float(bracket_root(g_buy, mesh[i], mesh[i + 1], gb[i],
                                 gb[i + 1], Y_TOL)[0])
    y_plus = float(bracket_root(g_sell, mesh[j], mesh[j + 1], gs[j],
                                gs[j + 1], Y_TOL)[0])
    if y_minus > y_plus:
        y_minus, y_plus = y_plus, y_minus
    return y_minus, y_plus


def _residual_ratio(params: MarketParams, beta: float,
                    q: PiecewisePolynomial) -> tuple[float, float]:
    """Worst equation residual of q and where it occurs.

    Some error modes of a step cubic vanish at the step's midpoint, so
    every step is checked at its quarter points as well, one quarter at a
    time to keep the temporaries small. The residual is measured against
    the largest additive term and the advertised budget of 10 x RTOL;
    returns ``(ratio, y)`` at the worst point.
    """
    deriv = q.derivative()
    lo = q.knots[:-1]
    width = np.diff(q.knots)
    pts, ratios = [], []
    for theta in (0.25, 0.5, 0.75):
        y = lo + theta * width
        terms, _ = hjb.equation_terms(params, beta, y, q(y), deriv(y))
        scale = np.max(np.abs(np.stack(terms)), axis=0)
        pts.append(y)
        ratios.append(np.abs(sum(terms)) / (10.0 * RTOL * scale))
    ratio = np.concatenate(ratios)
    worst = int(np.argmax(ratio))
    return float(ratio[worst]), float(np.concatenate(pts)[worst])


def _check_solution(solution: FreeBoundarySolution, base) -> float:
    """Post-solve invariant battery; violations raise NumericalFailure.

    Returns the worst residual of q relative to 0.7 of its 10 x RTOL budget
    (the ``residual_ratio_half_budget`` diagnostic); q beyond the budget
    itself raises.
    """
    p = solution.params
    lo = max(0.0, base.full_risky_esr)
    hi = base.frictionless_esr
    if not lo <= solution.beta <= hi:
        raise NumericalFailure(
            f"matched rate {solution.beta!r} escapes [{lo!r}, {hi!r}]"
        )
    if not 0.0 <= solution.y_minus <= solution.y_plus <= 1.0:
        raise NumericalFailure(
            f"boundaries out of order: {solution.y_minus!r}, {solution.y_plus!r}"
        )
    prod = solution.y_grid * solution.q_grid
    if np.any(prod >= 1.0):
        raise NumericalFailure("second-order condition q y < 1 violated")
    for knot in (solution.y_minus, solution.y_plus):
        band = (hjb.band_buy(knot, p.epsilon) if knot == solution.y_minus
                else hjb.band_sell(knot, p.epsilon))
        if abs(solution.q_at(knot) - band) > 1e-8:
            raise NumericalFailure(
                f"value matching violated at y={knot!r}: "
                f"q={solution.q_at(knot)!r} vs band={band!r}"
            )
    ratio, y_worst = _residual_ratio(p, solution.beta, solution.q)
    if not ratio <= 1.0:
        raise NumericalFailure(
            f"q misses its residual budget of 10 x RTOL relative to the "
            f"largest term: ratio {ratio:.3g} at y={y_worst!r}"
        )
    return ratio / 0.7
