"""Free-boundary solver: a bracketing root search for the equivalent safe
rate.

For each candidate rate beta the ODE is shot forward from y = delta (using
the y=0 value and derivative) and backward from y = 1 - delta (using the y=1
value), both onto the frictionless weight y*. The surplus q0(y*) - q1(y*)
changes sign exactly once in beta on the admissible bracket; trajectories
that diverge before reaching y* are classified by which side of the band
they left through, and count as a surplus of +-1 with the sign that side
implies. Where the small-cost expansion has a root, the search first
probes [beta_e - 0.005 G, min(beta_e + 0.03 G, beta0 - 0.7 G)] around its
rate beta_e (``asymptotic.find_z_minus``); the expansion only places
these probes, and the answer comes from the shooting alone. Next it probes
the inner bracket [beta0 - 1.25 G, beta0 - 0.7 G]. Both are clipped to the
admissible floor; beta0 is the frictionless rate and G
(``market.friction_loss``) the sum of the pure-spread and pure-impact
losses, and sampled exact losses lie in [0.64, 1.00] G. Only when both
miss the root does it probe the admissible bracket's ends. Brent's method
then runs from the narrowest sign change among the probed rates and pins
beta in six to seven evaluations, the probes included, after which a
final high-accuracy pass shoots the matched legs and locates the no-trade
boundaries.

The solution's q is the legs' own dense output: the Radau collocation cubic
of every accepted step, forward from y = delta up to y*, then backward from
y = 1 - delta down to y*; both legs' knots increase, so q is the one
appended to the other.
The final legs run without a step cap, under defect control: the stepper
accepts a step only once its cubic meets the equation at the step's quarter
points to DEFECT_TARGET of the residual budget, so no step is integrated
twice. A final leg whose steps cannot meet that ends stalled and raises,
naming where. The stitched q is checked once more the same way; missing the
advertised residual budget raises, it is never returned.

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
for the rest of the caller's life, and runs only :func:`shoot_leg`; the
residual check and boundary location stay in the caller. Where the worker
gives no answer (``os.fork`` is missing, a fork fails, the worker has died
or the leg raised there), ``_worker.beside`` shoots the backward leg in the
caller after the forward one. Arguments and results are pickled, so the
same code runs on the same floats: every backward leg is shot and counted,
and the answers and ``diagnostics["leg_work"]`` are bit-identical with and
without ``os.fork``. On Python 3.12+ a fork while other threads run emits a
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
from .asymptotic import AsymptoticInputs, NoRootError, find_z_minus
from .market import (
    MarketParams,
    ParameterError,
    _real_number,
    _require_interior,
    friction_loss,
)
from .montecarlo import _PolicyTable

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
# (FINAL_RTOL), and its stepper rejects every trial step whose cubic's
# residual ratio (relative to the 10 x RTOL budget) exceeds DEFECT_TARGET,
# so that its dense output, the solution's q, stays well inside the budget.
# The final pass's absolute tolerance has a floor of 0.1 RTOL times the
# impact part of q's boundary value q(0) = eps + 2 sqrt(lam beta): q crosses
# zero at y* and is about eps beside the band, where FINAL_RTOL relative to
# |q| alone would resolve it far past the residual budget. The floor
# vanishes as sqrt(lam) because at tiny impact the stiff far regions make
# the dense cubic the binding error, and uniform floors on the q scale broke
# the domain there. DEFECT_TARGET is 0.5 on the scale of
# residual_ratio_half_budget (0.7 of the budget), which leaves room for the
# rounding of the flipped backward pieces. DELTA is the offset of both
# boundary starts. The rate search ends when the beta bracket is no wider
# than BETA_TOL_REL times the admissible bracket's width, whichever bracket
# it started from.
RTOL = 1e-10
FINAL_RTOL = 1e-13
DEFECT_TARGET = 0.5 * 0.7
BETA_TOL_REL = 1e-12
Y_TOL = 1e-12
# Largest jump of the stitched q at y* (and of q against the band curve at
# each boundary): the value-matching bound.
MATCH_TOL = 1e-8
DELTA = 1e-6
# Every leg's divergence guard on its far side, in units of s (see above).
GUARD_MARGIN = 3.0


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
    from delta through y* to 1 - delta. ``q_at`` evaluates it. ``y_grid`` is
    its knots with both boundaries added, and ``q_grid`` its values there.

    ``diagnostics["residual_ratio_half_budget"]`` is q's worst equation
    residual at the quarter points of every step, relative to the largest
    additive term and to 0.7 of the 10 x RTOL budget; the final legs'
    defect test keeps it at about DEFECT_TARGET / 0.7 = 0.5 or below.
    ``diagnostics["forward_steps"]`` and ``["backward_steps"]`` count the
    accepted steps of the final legs.
    ``diagnostics["final_rtol"]`` and ``["final_atol"]`` are what a final
    leg looks up (``_tolerances``): FINAL_RTOL, and 0.01 FINAL_RTOL times
    the q scale eps + 2 sqrt(lam beta0), beta0 the frictionless rate, with
    a floor of 0.1 RTOL times 2 sqrt(lam beta0), which vanishes as sqrt(lam).
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
        return _with_edges(self.q.knots, self.y_minus, self.y_plus)

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
    """Callable wealth-turnover policy derived from a solution, its turnover
    multiplied by ``scale_outside_band``. Construction refuses a scale that
    is not a finite real number or is a bool (``ValueError``) and stores it
    as a float."""

    solution: FreeBoundarySolution
    scale_outside_band: float = 1.0

    def __post_init__(self):
        scale = _real_number("scale_outside_band", self.scale_outside_band)
        if math.isnan(scale):
            raise ValueError("scale_outside_band must be finite (got nan)")
        object.__setattr__(self, "scale_outside_band", scale)

    def __call__(self, y):
        return self.solution.turnover_at(y) * self.scale_outside_band

    def tabulated(self):
        """The policy as a piecewise-linear table for simulation inner
        loops: one uniform grid with both band edges on knots, its layout
        and lookup described by :class:`.montecarlo._PolicyTable`."""
        sol = self.solution
        return _PolicyTable(self, sol.y_minus, sol.y_plus,
                            float(sol.y_grid[0]), float(sol.y_grid[-1]))


def policy(solution: FreeBoundarySolution) -> TradingPolicy:
    """Optimal trading policy of a solved free-boundary problem."""
    return TradingPolicy(solution)


def _with_edges(ys: np.ndarray, y_minus: float, y_plus: float) -> np.ndarray:
    """Increasing ``ys`` with both band edges inserted, each value once: a
    sort and a duplicate mask, where ``np.unique`` would import ``numpy.ma``
    (16 ms) on its first call."""
    ys = np.sort(np.concatenate([ys, [y_minus, y_plus]]))
    return ys[np.append(True, ys[1:] != ys[:-1])]


# ---------------------------------------------------------------------------
# Shooting legs


def _q_scale(params: MarketParams) -> float:
    """q's size eps + 2 sqrt(lam beta0), beta0 the frictionless rate."""
    beta0 = params.frictionless_esr
    return params.epsilon + 2.0 * math.sqrt(params.lam * beta0) + 1e-12


def _tolerances(params: MarketParams, final: bool) -> tuple[float, float]:
    """(rtol, atol) of a search or a ``final`` leg, both atols tied to the
    q scale; the final one's impact floor: see the tolerance constants."""
    scale = _q_scale(params)
    if final:
        impact = math.sqrt(params.lam * params.frictionless_esr)
        return FINAL_RTOL, max(1e-18, 0.01 * FINAL_RTOL * scale,
                               200.0 * FINAL_RTOL * impact)
    return RTOL, max(1e-17, min(1e-13, 100.0 * RTOL * scale))


def _leg_guard(params: MarketParams, forward: bool) -> GuardBox:
    """A leg's divergence guard: GUARD_MARGIN s out on its far side, |q| 10
    on its near side, and q y 0.6 under the singular curve."""
    far = GUARD_MARGIN * _q_scale(params)
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


def shoot_leg(params: MarketParams, beta: float, forward: bool, y_stop: float,
              final: bool = False) -> IntegrationResult:
    """Shoot one leg onto ``y_stop``, forward from y = delta or backward
    from y = 1 - delta, inside the leg's divergence guard (``_leg_guard``).

    The pass sets the tolerances (``_tolerances``). A ``final`` leg also
    runs under the stepper's defect test: each step's cubic must meet the
    equation at its quarter points to DEFECT_TARGET of the 10 x RTOL budget.

    Returns the leg, its dense output on increasing knots like every
    ``integrate_guarded`` result. Its ``status`` is ``reached``, ``upper``
    or ``lower`` (the side of the band a diverging trajectory left through,
    a step-size collapse included when its position says which), or
    ``stalled``.
    """
    rtol, atol = _tolerances(params, final)
    rhs, jac = hjb.make_rhs_jac(params, beta)
    y0, q0 = _leg_start(params, beta, forward, rhs, jac)
    defect = (hjb.make_defect(params, beta, 10.0 * RTOL * DEFECT_TARGET)
              if final else None)
    leg = integrate_guarded(rhs, jac, y0, y_stop, q0, rtol, atol,
                            guard=_leg_guard(params, forward), defect=defect)
    if leg.status == STALLED:
        leg.status = _classify_stall(leg, params, forward)
    return leg


# ---------------------------------------------------------------------------
# Leg pairs


def _shoot_pair(params: MarketParams, beta: float, final: bool,
                work: dict) -> tuple[IntegrationResult, IntegrationResult]:
    """The forward and the backward leg of the search or the ``final`` pass
    at rate beta, onto y*, both added to ``work``.

    The backward leg is shot in the worker process (:mod:`._worker`) while
    the forward leg is shot here; where the worker gives no answer,
    ``_worker.beside`` shoots it here after the forward leg.
    """
    y_stop = params.merton_weight
    legs = _worker.beside(shoot_leg, (params, beta, True, y_stop, final),
                          (params, beta, False, y_stop, final))
    for leg in legs:
        _count(work, leg)
    return legs


def _count(work: dict, leg: IntegrationResult) -> None:
    """Add a leg and its ``nfev``, ``njev``, ``naccepted`` and
    ``nrejected`` to ``work``."""
    work["legs"] += 1
    for key in ("nfev", "njev", "naccepted", "nrejected"):
        work[key] += getattr(leg, key)


# ---------------------------------------------------------------------------
# Matching


def _match_surplus(params: MarketParams, beta: float, work: dict) -> float:
    """Surplus q0(y*) - q1(y*) of the two search legs at rate beta.

    A leg that diverges before y* gives a surplus of +-1, with the sign
    its divergence implies: forward above means positive, below negative,
    and the backward leg mirrors both. The sign is exact; the unit size
    (beyond the surplus of matched legs near the root) only steers the
    interpolation of the root search. The forward leg is read first, so
    after a forward divergence the backward leg is never looked at.
    """
    ends = []
    for forward, upper_sign, leg in zip(
            (True, False), (1.0, -1.0),
            _shoot_pair(params, beta, False, work)):
        if leg.status == STALLED:
            side = "forward" if forward else "backward"
            raise NumericalFailure(
                f"{side} leg stalled unclassifiably at beta={beta!r}, "
                f"y={leg.t_end:.6g}, q={leg.y_end:.6g}"
            )
        if leg.status == GUARD_UPPER:
            return upper_sign
        if leg.status == GUARD_LOWER:
            return -upper_sign
        ends.append(leg.y_end)
    return ends[0] - ends[1]


def _expansion_rate(params: MarketParams) -> float | None:
    """The small-cost expansion's rate beta0 - eps^(2/3) l(z_minus), or
    None where it has none: eps = 0, a coupling K = lam/eps^(4/3) that is
    not finite, or no verified root of the expansion."""
    try:
        inputs = AsymptoticInputs.from_params(params)
    except ValueError:  # K = lam/eps^(4/3) is not a positive finite number
        return None
    try:
        return find_z_minus(inputs).beta_approx
    except NoRootError:
        return None


def solve(params: MarketParams) -> FreeBoundarySolution:
    """Solve the free-boundary problem for interior-regime parameters.

    Each surplus evaluation and the final pass shoot their forward leg in
    the calling process and their backward leg, at the same time, in a
    worker process forked by the first solve (see the module docstring),
    or after the forward one where the worker gives no answer.

    The rate search first probes the expansion's bracket [beta_e - 0.005
    G, min(beta_e + 0.03 G, beta0 - 0.7 G)] (``market.friction_loss``
    gives G), beta_e the rate of ``find_z_minus``, called once here; it is
    skipped where eps = 0, where K = lam/eps^(4/3) is not finite, or where
    the expansion raises ``NoRootError``. The expansion only places these
    two probes: the answer comes from the shooting alone. Next it probes
    the inner bracket [beta0 - 1.25 G, beta0 - 0.7 G]; each has its lower
    end raised to the admissible floor if it falls below, and is skipped
    if its upper end does not lie strictly between its lower one and the
    admissible bracket's top. The admissible bracket's ends are probed
    only when neither holds the root; no rate is shot twice.
    ``diagnostics["bracket_held"]`` names the bracket that held the root
    (``"expansion"``, ``"inner"`` or ``"admissible"``),
    ``["search_bracket"]`` is the narrowest sign-change bracket
    among the probed rates, which Brent starts from, and
    ``["bisection_iterations"]`` counts the surplus evaluations after the
    probes (each is one forward and one backward leg).
    ``beta_bracket_width`` is the width of the final sign-change bracket,
    zero when a surplus was exactly zero; it is at most ``BETA_TOL_REL``
    times the admissible bracket's width, wherever the search started.
    ``diagnostics["leg_work"]`` holds, for the ``search`` and ``final``
    legs, the ``legs`` shot and their ``nfev``, ``njev``, ``naccepted`` and
    ``nrejected`` steps, summed over both processes: every backward leg is
    shot and counted, so ``leg_work``, like the answers, does not depend on
    ``os.fork``.

    Raises
    ------
    ParameterError
        A degenerate regime, an empty rate bracket (y* interior only to
        rounding), or lam == 0 (the exact construction needs a strictly
        positive impact cost). Invalid parameters never get here:
        ``MarketParams`` refuses them when it is built.
    NoMatchError
        The surplus has the same sign at both ends of the admissible rate
        bracket; the frictions are too large for the construction. It is
        raised only after both ends were probed.
    NumericalFailure
        An integration leg failed in a way that cannot be classified, the
        surplus changes sign the wrong way round on a probed rate
        bracket, a final leg does not reach y* (its steps
        cannot meet the defect test), the final legs meet at y* with a jump
        beyond the value-matching bound, or the stitched q breaks an
        invariant or misses its residual budget.
    """
    _require_interior(params)
    if params.lam <= 0.0:
        raise ParameterError(
            "the exact solver requires lambda > 0; the pure-spread limit is "
            "approached with a tiny positive lambda"
        )

    lo = max(0.0, params.full_risky_esr)
    hi = params.frictionless_esr
    width0 = hi - lo
    if not width0 > 0.0:
        raise ParameterError(
            f"the admissible rate bracket [{lo!r}, {hi!r}] is empty: y* = "
            f"{params.merton_weight!r} is interior, but only to rounding"
        )
    beta_tol = BETA_TOL_REL * width0
    nudge = 1e-13 * width0
    lo_in, hi_in = lo + nudge, hi - nudge

    work = {phase: dict.fromkeys(("legs", "nfev", "njev", "naccepted",
                                  "nrejected"), 0)
            for phase in ("search", "final")}

    def surplus(beta_try: float) -> float:
        return _match_surplus(params, beta_try, work["search"])

    # Probe the bracket around the expansion's rate first, then the inner
    # bracket the two friction limits give, both clipped to the admissible
    # floor, and the admissible bracket's ends only when both miss the
    # root; a rate is shot once however many brackets share it, and Brent
    # starts from the narrowest sign change among the probed rates. The
    # expansion's rate lay 0.002-0.022 G below the root on the benchmark
    # inputs; its bracket's widths were chosen on the domain sample.
    loss = friction_loss(params)
    starts = [("inner", hi - 1.25 * loss, hi - 0.7 * loss)]
    beta_e = _expansion_rate(params)
    if beta_e is not None:
        starts.insert(0, ("expansion", beta_e - 0.005 * loss,
                          min(beta_e + 0.03 * loss, hi - 0.7 * loss)))
    brackets = [(name, max(lo_in, a), b) for name, a, b in starts
                if max(lo_in, a) < b < hi_in]
    brackets.append(("admissible", lo_in, hi_in))
    probed = {}
    for held, a, b in brackets:
        for beta_try in (a, b):
            if beta_try not in probed:
                probed[beta_try] = surplus(beta_try)
        sign_a, sign_b = np.sign(probed[a]), np.sign(probed[b])
        if sign_a < 0.0 < sign_b:
            break
        admissible = held == "admissible"
        if admissible and sign_a == sign_b:
            raise NoMatchError(
                f"no sign change of the shooting surplus on the rate bracket "
                f"[{lo:.6g}, {hi:.6g}] (signs {sign_a:+.0f}/{sign_b:+.0f}); "
                "the frictions are too large for the free-boundary "
                "construction"
            )
        if admissible or sign_a > 0.0 > sign_b:
            raise NumericalFailure(
                f"the shooting surplus changes sign the wrong way round on "
                f"the rate bracket [{a:.6g}, {b:.6g}] (signs "
                f"{sign_a:+.0f}/{sign_b:+.0f}); a leg was misclassified"
            )
    below = max(x for x, s in probed.items() if s < 0.0)
    above = min(x for x in probed if x > below)
    beta, beta_other, iterations = bracket_root(
        surplus, below, above, probed[below], probed[above], beta_tol)

    # Final stitched pass at a tighter tolerance, under defect control.
    leg_f, leg_b = _shoot_pair(params, beta, True, work["final"])
    if leg_f.status != REACHED or leg_b.status != REACHED:
        ends = "; ".join(
            f"{side}: {leg.status}" if leg.status == REACHED else
            f"{side}: {leg.status} at y={leg.t_end:.6g}, q={leg.y_end:.6g}"
            for side, leg in (("forward", leg_f), ("backward", leg_b)))
        raise NumericalFailure(
            f"final stitched pass did not reach the matching point at "
            f"beta={beta!r} ({ends})"
        )

    matching_residual = leg_f.y_end - leg_b.y_end
    if not abs(matching_residual) <= MATCH_TOL:
        raise NumericalFailure(
            f"the final legs meet y*={params.merton_weight!r} with a jump of "
            f"{matching_residual:.3g} in q at beta={beta!r}, beyond the "
            f"value-matching bound {MATCH_TOL:g}"
        )
    q = _stitch(leg_f.sol, leg_b.sol)
    y_minus, y_plus = _locate_boundaries(params, q)

    diagnostics = {
        "bisection_iterations": iterations,
        "matching_residual": matching_residual,
        "search_bracket": (below, above),
        "bracket_held": held,
        "rtol": RTOL,
        "final_rtol": FINAL_RTOL,
        "final_atol": _tolerances(params, True)[1],
        "forward_steps": int(leg_f.naccepted),
        "backward_steps": int(leg_b.naccepted),
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
    diagnostics["residual_ratio_half_budget"] = _check_solution(solution)
    return solution


def _stitch(forward: PiecewisePolynomial,
            backward: PiecewisePolynomial) -> PiecewisePolynomial:
    """The matched q: the forward leg's step cubics up to y*, then the
    backward leg's. Both legs' knots increase, and both meet exactly at
    y*, the forward leg's last knot and the backward leg's first."""
    return PiecewisePolynomial(
        np.concatenate([forward.knots, backward.knots[1:]]),
        np.concatenate([forward.coeffs, backward.coeffs]),
    )


def _locate_boundaries(params: MarketParams,
                       q: PiecewisePolynomial) -> tuple[float, float]:
    """Root-bracket the crossings of q with the two band curves: the first
    sign change against the buy curve and the last against the sell curve,
    scanned on q's knots, the accepted step points of both legs."""
    edges = []
    for curve, pick in ((hjb.band_buy, 0), (hjb.band_sell, -1)):
        def gap(y, curve=curve):
            return q(y) - curve(y, params.epsilon)

        g = gap(q.knots)
        crossings = np.nonzero(np.diff(np.signbit(g)))[0]
        if not len(crossings):
            raise NumericalFailure(
                "could not bracket a band crossing on the stitched trajectory"
            )
        i = crossings[pick]
        edges.append(float(bracket_root(gap, q.knots[i], q.knots[i + 1],
                                        g[i], g[i + 1], Y_TOL)[0]))
    return edges[0], edges[1]


def _residual_ratio(params: MarketParams, beta: float,
                    q: PiecewisePolynomial) -> np.ndarray:
    """Worst equation residual of each step of q.

    Some error modes of a step cubic vanish at the step's midpoint, so
    every step is checked at its quarter points as well, one quarter at a
    time to keep the temporaries small. q and q' are evaluated on arrays;
    each point's residual, against the largest additive term and the
    advertised budget of 10 x RTOL, is the final legs' own defect test
    (``hjb.make_defect``). Returns the worst of the three ratios of every
    step (NaN where one is NaN, inf where a point lies beyond q y = 1).
    """
    defect = hjb.make_defect(params, beta, 10.0 * RTOL)
    deriv = q.derivative()
    lo = q.knots[:-1]
    width = np.diff(q.knots)
    worst = np.zeros(len(width))
    for theta in (0.25, 0.5, 0.75):
        y = lo + theta * width
        ratio = map(defect, y.tolist(), q(y).tolist(), deriv(y).tolist())
        np.maximum(worst, np.fromiter(ratio, float, len(width)), out=worst)
    return worst


def _check_solution(solution: FreeBoundarySolution) -> float:
    """Post-solve invariant battery; violations raise NumericalFailure.

    Returns the worst residual of q relative to 0.7 of its 10 x RTOL budget
    (the ``residual_ratio_half_budget`` diagnostic); q beyond the budget
    itself raises.
    """
    p = solution.params
    lo = max(0.0, p.full_risky_esr)
    hi = p.frictionless_esr
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
