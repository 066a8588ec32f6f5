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
The final legs run without a step cap. Each step's cubic is checked against
the equation at its quarter points, and the few steps (a fraction of a
percent) whose residual is above the refinement target are re-integrated on
2, 4, 8, ... equal sub-intervals while that lowers their residual; the best
split tried, the unrefined step included, is kept. The stitched q is checked
once more the same way; missing the advertised residual budget raises, it
is never returned.

Both boundary starts are first refined onto the local algebraic balance of
the equation (the term multiplied by the vanishing coefficient dropped):
the raw boundary data sit a few picounits off the attracting slow manifold,
and resolving that transient would force astronomically small steps.

Every leg, in the root search and in the final pass alike, goes through
:func:`shoot_leg` and stops as diverged by one rule, on its far band curve:
a forward leg at q <= -3 s (past the sell curve), a backward one at
q >= 3 s (past the buy curve), with s = eps + 2 sqrt(lam beta_hi). The
curves lie within eps^2/(1-eps) of -+eps and s >= eps, so this guard is at
least 2 s - eps^2/(1-eps) past the curve; on sampled inputs no leg that
reached y* went 0.9 s past it. A step-size collapse is classified by the
curve itself. The equation lives in :mod:`spreadimpact.hjb`;
:func:`._radau.bracket_root` finds both beta and the band crossings.

The two legs at one rate are independent, so they run at the same time
(``_shoot_pair``, for every surplus evaluation and the final pass): the
caller shoots the forward leg while one worker process (:mod:`._worker`)
shoots the backward one. The worker is forked by the first solve, reused
for the rest of the caller's life, and runs only :func:`shoot_leg`;
refinement, the residual check and boundary location stay in the caller.
Arguments and results are pickled, so the same code runs on the same
floats and the answers are bit-identical to shooting both legs in the
caller, which is what happens where ``os.fork`` is missing, a fork fails
or the worker has died. The legs are read in that serial order: after a
forward leg that diverged, the backward leg's result, or its exception, is
discarded. On Python 3.12+ a fork while other threads run emits a
DeprecationWarning. The worker runs the module as it stood at its fork:
monkeypatches made after the first solve do not reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _worker, hjb
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
# (FINAL_RTOL) so that its dense output, the solution's q, stays well inside
# the advertised budget, and its steps whose residual ratio (relative to the
# 10 x RTOL budget) exceeds REFINE_TARGET are re-integrated on sub-intervals.
# REFINE_TARGET is 0.5 on the scale of residual_ratio_half_budget (0.7 of
# the budget), which leaves room for the rounding of the stitched backward
# pieces. DELTA is the offset of both boundary starts. The rate search ends
# when the beta bracket is no wider than BETA_TOL_REL times its initial
# width.
RTOL = 1e-10
FINAL_RTOL = 1e-13
REFINE_TARGET = 0.5 * 0.7
BETA_TOL_REL = 1e-12
Y_TOL = 1e-12
# Largest jump of the stitched q at y* and at the right end of a refined
# step (and of q against the band curve at each boundary): the
# value-matching bound.
MATCH_TOL = 1e-8
DELTA = 1e-6
# Every leg's divergence guard on its far side, in units of s (see above).
GUARD_MARGIN = 3.0
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
    accepted Radau step of the two uncapped final legs, on increasing knots
    from delta through y* to 1 - delta, where each refined step contributes
    the cubics of its sub-steps instead of its own. ``q_at`` evaluates it.
    ``y_grid`` is its knots with both boundaries added, and ``q_grid`` its
    values there.

    ``diagnostics["residual_ratio_half_budget"]`` is q's worst equation
    residual at the quarter points of every step, relative to the largest
    additive term and to 0.7 of the 10 x RTOL budget.
    ``diagnostics["forward_steps"]`` and ``["backward_steps"]`` count the
    accepted steps of the final legs, ``["refined_steps"]`` how many of them
    were refined, and ``["max_splice_jump"]`` the largest jump in q at the
    right end of a refined step (at most ``MATCH_TOL``).
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

    def q_at(self, y):
        """q at y (scalar or array)."""
        return self.q(y)

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


def _leg_guard(params: MarketParams, forward: bool) -> GuardBox:
    """A leg's divergence guard: GUARD_MARGIN s out on its far side, |q| 10
    on its near side, and q y 0.6 under the singular curve."""
    far = GUARD_MARGIN * _q_scale(params, baseline(params).frictionless_esr)
    if forward:
        return GuardBox(upper_q=10.0, lower_q=-far, upper_qt=0.6)
    return GuardBox(upper_q=far, lower_q=-10.0, upper_qt=0.6)


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


def _classify_stall(leg: IntegrationResult, params: MarketParams,
                    forward: bool) -> str:
    """Interpret a step-size collapse by where the trajectory got stuck:
    the guard's far-curve rule with margin 0. A forward stall at or below
    the sell curve is ``lower``, a backward one at or above the buy curve
    ``upper`` (a leg reaches its far curve only by leaving the band through
    it), and so is a stall hugging the singular curve (q y >= 0.5).
    Anything else is a genuine failure."""
    y, q = leg.t_end, leg.y_end
    if q * y >= 0.5 or (not forward and q >= hjb.band_buy(y, params.epsilon)):
        return GUARD_UPPER
    if forward and q <= hjb.band_sell(y, params.epsilon):
        return GUARD_LOWER
    return STALLED


def shoot_leg(params: MarketParams, beta: float, forward: bool,
              y_stop: float, rtol: float,
              atol: float) -> tuple[IntegrationResult, str]:
    """Shoot one leg onto ``y_stop``, forward from y = delta or backward
    from y = 1 - delta, inside the leg's divergence guard (``_leg_guard``).

    Returns the leg and its status: ``reached``, ``upper`` or ``lower`` (the
    side of the band a diverging trajectory left through, a step-size
    collapse included when its position says which), or ``stalled``.
    """
    rhs, jac = hjb.make_rhs_jac(params, beta)
    y0, q0 = _leg_start(params, beta, forward, rhs, jac)
    leg = integrate_guarded(rhs, jac, y0, y_stop, q0, rtol, atol,
                            guard=_leg_guard(params, forward))
    status = leg.status
    if status == STALLED:
        status = _classify_stall(leg, params, forward)
    return leg, status


# ---------------------------------------------------------------------------
# Leg pairs


def _shoot_pair(params: MarketParams, beta: float, y_stop: float,
                rtol: float, atol: float, work: dict):
    """Yield the forward, then the backward leg's ``(leg, status)`` at rate
    beta, onto ``y_stop``.

    The backward leg is shot in the worker process (:mod:`._worker`) while
    the forward leg is shot here. A backward leg the worker did not return
    (no ``os.fork``, a failed fork, a dead worker, a raising leg) is shot
    here, once it is asked for. Every leg shot is added to ``work``.
    """
    args = (params, beta, False, y_stop, rtol, atol)
    forward, backward = _worker.beside(
        lambda: shoot_leg(params, beta, True, y_stop, rtol, atol),
        shoot_leg, args)
    for shot in (forward, backward):
        if shot:
            _count(work, shot[0])
    yield forward
    if not backward:
        backward = shoot_leg(*args)
        _count(work, backward[0])
    yield backward


def _count(work: dict, leg: IntegrationResult) -> None:
    """Add a leg and its ``nfev``, ``njev``, ``naccepted`` and
    ``nrejected`` to ``work``."""
    work["legs"] += 1
    for key in ("nfev", "njev", "naccepted", "nrejected"):
        work[key] += getattr(leg, key)


# ---------------------------------------------------------------------------
# Matching


def _match_surplus(params: MarketParams, beta: float, y_mid: float,
                   atol: float, work: dict) -> float:
    """Surplus q0(y_mid) - q1(y_mid) of the two legs at rate beta.

    A leg that diverges before y_mid gives a surplus of +-1, with the sign
    its divergence implies: forward above means positive, below negative,
    and the backward leg mirrors both. The sign is exact; the unit size
    (beyond the surplus of matched legs near the root) only steers the
    interpolation of the root search. The forward leg is read first, so
    after a forward divergence the backward leg is never looked at.
    """
    ends = []
    for forward, upper_sign, (leg, status) in zip(
            (True, False), (1.0, -1.0),
            _shoot_pair(params, beta, y_mid, RTOL, atol, work)):
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

    Each surplus evaluation and the final pass shoot their forward leg in
    the calling process and their backward leg, at the same time, in a
    worker process forked by the first solve (see the module docstring);
    without ``os.fork`` both run in the caller, with bit-identical results.

    ``diagnostics["bisection_iterations"]`` counts the surplus evaluations
    of the rate search after the two bracket probes (each is one forward
    and one backward leg); ``beta_bracket_width`` is the width of the final
    sign-change bracket, zero when a surplus was exactly zero.
    ``diagnostics["leg_work"]`` holds, for the ``search``, ``final`` and
    ``refine`` legs, the ``legs`` shot and their ``nfev``, ``njev``,
    ``naccepted`` and ``nrejected`` steps, summed over both processes; a
    backward leg shot beside a forward leg that diverged counts too.

    Raises
    ------
    ParameterError
        Invalid parameters, a degenerate regime, an empty rate bracket (y*
        interior only to rounding), or lam == 0 (the exact construction
        needs a strictly positive impact cost).
    NoMatchError
        The surplus has the same sign at both ends of the admissible rate
        bracket; the frictions are too large for the construction.
    NumericalFailure
        An integration leg failed in a way that cannot be classified, the
        surplus changes sign the wrong way round on the rate bracket, the
        final legs meet at y* with a jump beyond the value-matching bound,
        no split of a flagged final step meets the residual budget, or the
        stitched q breaks an invariant or misses its residual budget.
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
    if not width0 > 0.0:
        raise ParameterError(
            f"the admissible rate bracket [{lo!r}, {hi!r}] is empty: y* = "
            f"{y_mid!r} is interior, but only to rounding"
        )
    beta_tol = BETA_TOL_REL * width0
    nudge = 1e-13 * width0
    lo_in, hi_in = lo + nudge, hi - nudge

    atol = _auto_atol(params, hi, RTOL)
    work = {phase: dict.fromkeys(("legs", "nfev", "njev", "naccepted",
                                  "nrejected"), 0)
            for phase in ("search", "final", "refine")}

    def surplus(beta_try: float) -> float:
        return _match_surplus(params, beta_try, y_mid, atol, work["search"])

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
    if not bracket_as_expected:
        raise NumericalFailure(
            f"the shooting surplus changes sign the wrong way round on the "
            f"rate bracket [{lo:.6g}, {hi:.6g}] (signs "
            f"{sign_lo:+.0f}/{sign_hi:+.0f}); a leg was misclassified"
        )
    beta, beta_other, iterations = bracket_root(
        surplus, lo_in, hi_in, surplus_lo, surplus_hi, beta_tol)

    # Final stitched pass at a tighter tolerance; the steps whose dense
    # output misses REFINE_TARGET are refined before stitching.
    final_atol = max(1e-18, 0.01 * FINAL_RTOL * _q_scale(params, hi))

    (leg_f, status_f), (leg_b, status_b) = _shoot_pair(
        params, beta, y_mid, FINAL_RTOL, final_atol, work["final"])
    if status_f != REACHED or status_b != REACHED:
        raise NumericalFailure(
            f"final stitched pass did not reach the matching point "
            f"(forward: {status_f}, backward: {status_b})"
        )

    matching_residual = leg_f.y_end - leg_b.y_end
    if not abs(matching_residual) <= MATCH_TOL:
        raise NumericalFailure(
            f"the final legs meet y*={y_mid!r} with a jump of "
            f"{matching_residual:.3g} in q at beta={beta!r}, beyond the "
            f"value-matching bound {MATCH_TOL:g}"
        )
    (sol_f, refined_f, jump_f), (sol_b, refined_b, jump_b) = (
        _refine(params, beta, forward, leg, final_atol, work["refine"])
        for forward, leg in ((True, leg_f), (False, leg_b)))
    q = _stitch(sol_f, sol_b)
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
        "refined_steps": refined_f + refined_b,
        "max_splice_jump": max(jump_f, jump_b),
        "beta_bracket_width": abs(beta_other - beta),
        "leg_work": work,
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


def _refine(params: MarketParams, beta: float, forward: bool,
            leg: IntegrationResult, atol: float,
            work: dict) -> tuple[PiecewisePolynomial, int, float]:
    """A final leg's dense output, each step whose residual ratio exceeds
    REFINE_TARGET replaced by the cubics of a finer re-integration.

    A flagged step is re-shot from its starting node on m = 2, 4, 8, ...
    equal sub-intervals (final tolerances, the leg's guard) until the worst
    sub-step meets the target or stops falling; the best split tried, the
    unrefined step included, is kept. It raises if that best misses the
    budget (ratio 1, as in ``_check_solution``) or ends more than MATCH_TOL
    from the step's right node, where it meets the leg's next step. Returns
    ``(dense output, refined steps, largest jump at a splice)``.
    """
    sol = leg.sol
    ratios = _residual_ratio(params, beta, sol)
    flagged = np.nonzero(~(ratios <= REFINE_TARGET))[0]
    if len(flagged) == 0:
        return sol, 0, 0.0
    rhs, jac = hjb.make_rhs_jac(params, beta)
    guard = _leg_guard(params, forward)
    knots, coeffs = sol.knots, sol.coeffs
    right_nodes = np.append(coeffs[1:, 0], leg.y_end)
    parts_k, parts_c = [], []
    start, refined_steps, max_jump = 0, 0, 0.0
    for i in flagged:
        t0 = float(knots[i])
        tried, best, m = [float(ratios[i])], None, 2
        while not tried[-1] <= REFINE_TARGET:
            split = _reshoot(rhs, jac, t0, float(knots[i + 1]),
                             float(coeffs[i, 0]), m, atol, guard, work)
            tried.append(float(np.max(_residual_ratio(params, beta,
                                                      split[0]))))
            if not tried[-1] < min(tried[:-1]):
                break
            best, m = split, 2 * m
        if not min(tried) <= 1.0:
            raise NumericalFailure(
                f"no split of the final step at y={t0!r} meets the residual "
                f"budget: ratios {', '.join(f'{r:.3g}' for r in tried)} on "
                f"1, 2, 4, ... sub-intervals"
            )
        if best is None:
            continue
        refined, q_end = best
        jump = abs(q_end - float(right_nodes[i]))
        if not jump <= MATCH_TOL:
            raise NumericalFailure(
                f"the refined final step at y={t0!r} ends with a jump of "
                f"{jump:.3g} in q, beyond the value-matching bound "
                f"{MATCH_TOL:g}"
            )
        max_jump = max(max_jump, jump)
        parts_k += [knots[start:i], refined.knots[:-1]]
        parts_c += [coeffs[start:i], refined.coeffs]
        start = i + 1
        refined_steps += 1
    parts_k.append(knots[start:])
    parts_c.append(coeffs[start:])
    return (PiecewisePolynomial(np.concatenate(parts_k),
                                np.concatenate(parts_c)),
            refined_steps, max_jump)


def _reshoot(rhs, jac, t0: float, t1: float, q0: float, m: int, atol: float,
             guard: GuardBox,
             work: dict) -> tuple[PiecewisePolynomial, float]:
    """The step from (t0, q0) to t1 integrated again on m equal
    sub-intervals, each to its own end: the sub-steps' dense output and the
    value reached at t1. Each sub-step is added to ``work``."""
    knots, coeffs = [np.array([t0])], []
    a, q_a = t0, q0
    for k in range(1, m + 1):
        b = t1 if k == m else t0 + (t1 - t0) * k / m
        sub = integrate_guarded(rhs, jac, a, b, q_a, FINAL_RTOL, atol,
                                guard=guard)
        _count(work, sub)
        if sub.status != REACHED:
            raise NumericalFailure(
                f"refining the final step at y={t0!r}: a sub-step ended "
                f"{sub.status} at y={sub.t_end!r}"
            )
        knots.append(sub.sol.knots[1:])
        coeffs.append(sub.sol.coeffs)
        a, q_a = b, sub.y_end
    return (PiecewisePolynomial(np.concatenate(knots), np.concatenate(coeffs)),
            q_a)


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
    return y_minus, y_plus


def _residual_ratio(params: MarketParams, beta: float,
                    q: PiecewisePolynomial) -> np.ndarray:
    """Worst equation residual of each step of q.

    Some error modes of a step cubic vanish at the step's midpoint, so
    every step is checked at its quarter points as well, one quarter at a
    time to keep the temporaries small. The residual is measured against
    the largest additive term and the advertised budget of 10 x RTOL;
    returns the worst of the three ratios of every step (NaN where one is
    NaN). The knots may run in either direction.
    """
    deriv = q.derivative()
    lo = q.knots[:-1]
    width = np.diff(q.knots)
    worst = np.zeros(len(width))
    for theta in (0.25, 0.5, 0.75):
        y = lo + theta * width
        terms, _ = hjb.equation_terms(params, beta, y, q(y), deriv(y))
        scale = np.max(np.abs(np.stack(terms)), axis=0)
        np.maximum(worst, np.abs(sum(terms)) / (10.0 * RTOL * scale),
                   out=worst)
    return worst


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
        if abs(solution.q_at(knot) - band) > MATCH_TOL:
            raise NumericalFailure(
                f"value matching violated at y={knot!r}: "
                f"q={solution.q_at(knot)!r} vs band={band!r}"
            )
    ratios = _residual_ratio(p, solution.beta, solution.q)
    worst = int(np.argmax(ratios))
    ratio = float(ratios[worst])
    if not ratio <= 1.0:
        raise NumericalFailure(
            f"q misses its residual budget of 10 x RTOL relative to the "
            f"largest term: ratio {ratio:.3g} in the step at "
            f"y={float(solution.q.knots[worst])!r}"
        )
    return ratio / 0.7
