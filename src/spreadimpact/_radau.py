"""Adaptive scalar Radau IIA (order 5) integrator with guard events.

The shooting legs of the free-boundary problem are scalar, severely stiff
near the endpoints, and are integrated tens of thousands of times per solve,
so a stepper specialized to scalar problems pays for itself: plain-float
Newton iterations, an analytic Jacobian, terminal guards checked per step,
and per-step cubic dense output. Collocation coefficients, the transformed
Newton solve, and the step-size controller follow the classical RADAU5
construction (Hairer & Wanner, Solving ODEs II, Sec. IV.8), with one
departure: Newton stops once its predicted error is at most kappa = 0.03 of
the scaled local error tolerance, whatever rtol is, as in Hairer & Wanner's
stopping test. RADAU5 and scipy's Radau use min(0.03, sqrt(rtol)), which at
the rate search's rtol = 1e-10 asks for 1e-5 of the tolerance, far below
what the error test can see: Newton then fails on converging iterations and
the step is halved, so the search legs threw away 61 trial steps per 100
accepted, against 13 with the fixed fraction.

Guards terminate integration when the state leaves a caller-supplied box;
both plain thresholds on q and a threshold on the product q*y are supported,
the latter catching trajectories that climb toward the singular curve
q = 1/y whose approach otherwise stalls any error-controlled stepper.

An optional defect test also holds each step's dense cubic to the equation
(Enright 2000, J. Comput. Appl. Math. 125; the residual control of MATLAB's
bvp4c, Shampine & Kierzenka 2001, ACM TOMS 27), so that no accepted step
ever has to be integrated again.

The dense output is a :class:`PiecewisePolynomial`, a searchsorted-plus-
Horner evaluator on increasing knots: a backward run's steps are reversed
once at its end, each cubic rewritten in 1 - x. The solver's q is the two
final legs' dense output joined into one. The package's one bracketing
root finder, :func:`bracket_root` (Brent's method), lives here too: the
rate search, the band edges and the small-cost expansion's boundary root
all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GuardBox", "IntegrationResult", "PiecewisePolynomial",
           "bracket_root", "integrate_guarded"]

_S6 = math.sqrt(6.0)
# Collocation nodes and embedded-error weights.
_C1 = (4.0 - _S6) / 10.0
_C2 = (4.0 + _S6) / 10.0
_E1 = (-13.0 - 7.0 * _S6) / 3.0
_E2 = (-13.0 + 7.0 * _S6) / 3.0
_E3 = -1.0 / 3.0
# Inverse eigenvalues of the Runge-Kutta matrix: one real, one complex pair.
_MU_REAL = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)
_MU_COMPLEX = complex(
    3.0 + 0.5 * (3.0 ** (1.0 / 3.0) - 3.0 ** (2.0 / 3.0)),
    -0.5 * (3.0 ** (5.0 / 6.0) + 3.0 ** (7.0 / 6.0)),
)
# Transformation between stage increments Z and working variables W.
_T11, _T12, _T13 = 0.09443876248897524, -0.14125529502095421, 0.03002919410514742
_T21, _T22, _T23 = 0.25021312296533332, 0.20412935229379994, -0.38294211275726192
_T31, _T32, _T33 = 1.0, 1.0, 0.0
_TI11, _TI12, _TI13 = 4.17871859155190428, 0.32768282076106237, 0.52337644549944951
_TI21, _TI22, _TI23 = -4.17871859155190428, -0.32768282076106237, 0.47662355450055044
_TI31, _TI32, _TI33 = 0.50287263494578682, -2.57192694985560522, 0.59603920482822492
# Dense-output polynomial in the scaled step variable.
_P11, _P12, _P13 = 13.0 / 3.0 + 7.0 * _S6 / 3.0, -23.0 / 3.0 - 22.0 * _S6 / 3.0, 10.0 / 3.0 + 5.0 * _S6
_P21, _P22, _P23 = 13.0 / 3.0 - 7.0 * _S6 / 3.0, -23.0 / 3.0 + 22.0 * _S6 / 3.0, 10.0 / 3.0 - 5.0 * _S6
_P31, _P32, _P33 = 1.0 / 3.0, -8.0 / 3.0, 10.0 / 3.0
# A backward step's cubic p(x) on its reversed step, coeffs @ _FLIP.T:
# p(1 - x) = sum_j x^j (-1)^j sum_k C(k, j) c_k.
_FLIP = np.array([[(-1.0) ** j * math.comb(k, j) for k in range(4)]
                  for j in range(4)])

_NEWTON_MAXITER = 6
# Newton stops once its predicted error is below this fraction of the local
# error tolerance (Hairer & Wanner's kappa; see the module docstring).
_NEWTON_KAPPA = 0.03
# Accepted steps after which an unfinished leg counts as stalled.
_MAX_STEPS = 200000
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# Stall floor of a defect-rejected step (see integrate_guarded).
_DEFECT_MIN_STEP = 1e-9
_EPS = float(np.finfo(float).eps)

REACHED = "reached"
GUARD_UPPER = "upper"
GUARD_LOWER = "lower"
STALLED = "stalled"


@dataclass(frozen=True)
class GuardBox:
    """Terminal region: stop when q >= upper_q, q <= lower_q, or q*t >= upper_qt."""

    upper_q: float = math.inf
    lower_q: float = -math.inf
    upper_qt: float = math.inf

    def breach(self, t: float, q: float) -> str | None:
        if q >= self.upper_q or q * t >= self.upper_qt:
            return GUARD_UPPER
        if q <= self.lower_q:
            return GUARD_LOWER
        return None


class PiecewisePolynomial:
    """Piecewise polynomial on increasing knots, evaluated by searchsorted
    and Horner.

    On the piece from ``knots[i]`` to ``knots[i+1]`` the value is
    ``sum_k coeffs[i, k] * x**k`` with
    ``x = (t - knots[i]) / (knots[i+1] - knots[i])``. Beyond the first and
    last knot the end pieces extend.
    """

    def __init__(self, knots: np.ndarray, coeffs: np.ndarray):
        self.knots = knots
        self.coeffs = coeffs

    def __call__(self, t):
        """Evaluate at t (scalar or array)."""
        t_arr = np.asarray(t, dtype=float)
        knots = self.knots
        idx = np.clip(np.searchsorted(knots, t_arr, side="right") - 1,
                      0, len(knots) - 2)
        t0 = knots[idx]
        x = (t_arr - t0) / (knots[idx + 1] - t0)
        c = self.coeffs[idx]
        out = c[..., -1]
        for k in range(c.shape[-1] - 2, -1, -1):
            out = out * x + c[..., k]
        if np.ndim(t) == 0:
            return float(out)
        return out

    def derivative(self) -> "PiecewisePolynomial":
        """The derivative in t, on the same knots."""
        order = np.arange(1, self.coeffs.shape[1])
        h = np.diff(self.knots)
        return PiecewisePolynomial(self.knots,
                                   self.coeffs[:, 1:] * order / h[:, None])


def bracket_root(f, a: float, b: float, fa: float, fb: float,
                 xtol: float) -> tuple[float, float, int]:
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in
    sign: Brent's method (Brent 1973, ch. 4).

    Each step is an inverse quadratic or secant interpolation when that
    lands well inside the bracket and shrinks it fast enough, and a
    bisection otherwise, so a jump or a plateau in f (a divergence) slows it
    to bisection at worst. Returns ``(x, other, evaluations)``: ``x`` is the
    bracket end with the smaller ``|f|`` and ``other`` the opposite end of a
    sign-change bracket no wider than ``xtol`` (``other == x`` on an exact
    zero); evaluations counts the calls of f. ``xtol`` must exceed a few
    float spacings of the root.
    """
    evaluations = 0
    if fa == 0.0:
        return a, a, evaluations
    c, fc = a, fa
    d = e = b - a
    while fb != 0.0:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = max(0.5 * xtol, 2.0 * math.ulp(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b, c, evaluations
        if abs(e) >= tol and abs(fa) > abs(fb):
            if a == c:
                s = fb / fa
                p, q = 2.0 * m * s, 1.0 - s
            else:
                s, q, r = fb / fa, fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        evaluations += 1
    return b, b, evaluations


@dataclass
class IntegrationResult:
    """Accepted mesh, per-step dense cubics, and the termination status.

    ``sol`` is the dense output: on each accepted step it is the collocation
    cubic, with the accepted step points as knots, increasing whichever way
    the run went. ``t_end``/``y_end`` is where the run stopped:
    ``sol.knots[-1]`` going forward and ``sol.knots[0]`` going backward.
    That is the last accepted step point, or the start point if no step was
    accepted. When the run ended on a guard it is the first step point
    inside the guard region, so the last step brackets the crossing.

    ``nfev`` and ``njev`` count right-hand-side and Jacobian calls,
    ``naccepted`` the accepted steps, and ``nrejected`` the trial steps
    thrown away: because Newton failed to converge (the step is halved),
    because the error test failed (the step is shrunk by the controller), or
    because the defect test failed.
    """

    status: str
    sol: PiecewisePolynomial
    t_end: float
    y_end: float
    nfev: int = 0
    njev: int = 0
    naccepted: int = 0
    nrejected: int = 0


def _initial_step(f, t0, q0, f0, direction, t_bound, rtol, atol):
    """Error-model-based first step (same construction as RADAU5 drivers)."""
    scale = atol + abs(q0) * rtol
    d0 = abs(q0 / scale)
    d1 = abs(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, abs(t_bound - t0))
    q1 = q0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, q1)
    if math.isfinite(f1):
        d2 = abs((f1 - f0) / scale) / h0
    else:
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 4.0)
    return min(100.0 * h0, h1, abs(t_bound - t0))


def integrate_guarded(f, jac, t0, t_bound, q0, rtol, atol, guard: GuardBox,
                      defect=None) -> IntegrationResult:
    """Integrate dq/dt = f(t, q) from t0 to t_bound with terminal guards.

    Parameters
    ----------
    f, jac : callable
        Right-hand side and its dq-derivative, both ``(t, q) -> float``.
        Either may return non-finite values outside the meaningful domain;
        the Newton iteration treats that as a failed trial and retries with
        a smaller step.
    rtol, atol : float
        Local error is kept below ``atol + rtol * |q|`` per step.
    guard : GuardBox
        Terminal region; crossing it ends the run with status "upper" or
        "lower" at the first accepted step point inside the region. A
        ``GuardBox()`` with its default infinite bounds never ends a run.
    defect : callable, optional
        ``(t, q, dq/dt) -> float``, the equation's residual at a point
        relative to its tolerance. It is evaluated on each trial step that
        passes the error test, at the step's quarter points on its
        collocation cubic. If the worst of the three exceeds 1 the trial is
        rejected and h scaled by max(0.2, 0.9 worst^(-1/3)), the cubic's
        defect being O(h^3). It serves equations singular at t = 0 and
        t = 1, whose steps scale with the distance to the nearer of them: a
        rejected trial shorter than 1e-9 of that distance ends the run
        stalled, as shorter steps then no longer lower the defect.

    Each converged trial step gets one size factor from its error estimate,
    by RADAU5's predictive rule. An accepted step scales h by at most 10,
    and keeps h if the factor is below 1.2 and the Jacobian is reused. A
    trial is rejected for one of three reasons, each scaling h by its own
    factor: Newton failed, after one retry with a fresh Jacobian if the
    Jacobian was stale (0.5); the error exceeds the tolerance (the size
    factor, but at least 0.2); or the defect test failed (see ``defect``).
    Every rejected trial is counted in ``nrejected`` and drops the Newton
    matrices.
    """
    direction = 1.0 if t_bound >= t0 else -1.0
    f0 = f(t0, q0)
    nfev = 1
    njev = 0
    if not math.isfinite(f0):
        raise ValueError(f"right-hand side not finite at the start point t={t0!r}")
    h_abs = _initial_step(f, t0, q0, f0, direction, t_bound, rtol, atol)
    nfev += 1

    newton_tol = max(10.0 * _EPS / rtol, _NEWTON_KAPPA)

    t, q, fq = t0, q0, f0
    J = jac(t0, q0)
    njev += 1
    current_jac = True
    lu_real = lu_complex = None
    h_abs_old = error_norm_old = None

    ts = [t0]
    rows = []  # (q, p0, p1, p2) of each accepted step, q at its start
    status = None

    n_rej = 0
    for _ in range(_MAX_STEPS):
        if direction * (t - t_bound) >= 0.0:
            status = REACHED
            break

        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        # Each rejected trial sets its own factor on h, then the next trial
        # applies it and does the bookkeeping all rejections share.
        shrink = None
        while True:
            if shrink is not None:
                h_abs *= shrink
                n_rej += 1
                lu_real = lu_complex = None
            if h_abs < min_step:
                status = STALLED
                break
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            # Stage predictor from the previous dense polynomial.
            if not rows:
                z1_0 = z2_0 = z3_0 = 0.0
            else:
                py_old, pp0, pp1, pp2 = rows[-1]
                pt_old = ts[-2]
                ph = t - pt_old
                def _prev(tt):
                    x = (tt - pt_old) / ph
                    return py_old + x * (pp0 + x * (pp1 + x * pp2))
                z1_0 = _prev(t + _C1 * h) - q
                z2_0 = _prev(t + _C2 * h) - q
                z3_0 = _prev(t + h) - q

            scale = atol + abs(q) * rtol

            # Newton, retried once with a fresh J if a stale one fails.
            converged = False
            for _ in range(2):
                if lu_real is None:
                    lu_real = _MU_REAL / h - J
                    lu_complex = _MU_COMPLEX / h - J
                    if lu_real == 0.0:
                        h_abs *= 0.99
                        break

                z1, z2, z3 = z1_0, z2_0, z3_0
                w1 = _TI11 * z1 + _TI12 * z2 + _TI13 * z3
                w2 = _TI21 * z1 + _TI22 * z2 + _TI23 * z3
                w3 = _TI31 * z1 + _TI32 * z2 + _TI33 * z3
                m_real = _MU_REAL / h
                m_complex = _MU_COMPLEX / h

                dw_norm_old = None
                rate = None
                for k_newton in range(_NEWTON_MAXITER):
                    f1 = f(t + _C1 * h, q + z1)
                    f2 = f(t + _C2 * h, q + z2)
                    f3 = f(t_new, q + z3)
                    nfev += 3
                    if not (math.isfinite(f1) and math.isfinite(f2)
                            and math.isfinite(f3)):
                        break
                    f_real = (_TI11 * f1 + _TI12 * f2 + _TI13 * f3
                              - m_real * w1)
                    f_comp = complex(
                        _TI21 * f1 + _TI22 * f2 + _TI23 * f3,
                        _TI31 * f1 + _TI32 * f2 + _TI33 * f3,
                    ) - m_complex * complex(w2, w3)
                    dw1 = f_real / lu_real
                    dwc = f_comp / lu_complex
                    dw2 = dwc.real
                    dw3 = dwc.imag
                    dw_norm = math.sqrt(
                        (dw1 * dw1 + dw2 * dw2 + dw3 * dw3) / 3.0
                    ) / scale
                    if dw_norm_old is not None and dw_norm_old > 0.0:
                        rate = dw_norm / dw_norm_old
                    if rate is not None and (
                        rate >= 1.0
                        or rate ** (_NEWTON_MAXITER - k_newton) / (1.0 - rate)
                        * dw_norm > newton_tol
                    ):
                        break
                    w1 += dw1
                    w2 += dw2
                    w3 += dw3
                    z1 = _T11 * w1 + _T12 * w2 + _T13 * w3
                    z2 = _T21 * w1 + _T22 * w2 + _T23 * w3
                    z3 = _T31 * w1 + _T32 * w2
                    if dw_norm == 0.0 or (
                        rate is not None
                        and rate / (1.0 - rate) * dw_norm < newton_tol
                    ):
                        converged = True
                        break
                    dw_norm_old = dw_norm
                n_iter = k_newton + 1
                if converged or current_jac:
                    break
                J = jac(t, q)
                njev += 1
                current_jac = True
                lu_real = lu_complex = None

            if not converged:
                shrink = 0.5
                continue

            q_new = q + z3
            ze = (_E1 * z1 + _E2 * z2 + _E3 * z3) / h
            error = (fq + ze) / lu_real
            scale_err = atol + max(abs(q), abs(q_new)) * rtol
            error_norm = abs(error) / scale_err
            safety = 0.9 * (2.0 * _NEWTON_MAXITER + 1.0) / (
                2.0 * _NEWTON_MAXITER + n_iter
            )

            if shrink is not None and error_norm > 1.0:
                f_probe = f(t, q + error)
                nfev += 1
                if math.isfinite(f_probe):
                    error = (f_probe + ze) / lu_real
                    error_norm = abs(error) / scale_err

            if error_norm > 0.0:
                if error_norm_old is None:
                    multiplier = 1.0
                else:
                    multiplier = (h_abs / h_abs_old
                                  * (error_norm_old / error_norm) ** 0.25)
                factor = safety * (min(1.0, multiplier) * error_norm ** -0.25)
            else:
                factor = safety * _MAX_FACTOR

            if error_norm > 1.0:
                shrink = max(_MIN_FACTOR, factor)
                continue

            # Dense cubic for this step.
            p0 = z1 * _P11 + z2 * _P21 + z3 * _P31
            p1 = z1 * _P12 + z2 * _P22 + z3 * _P32
            p2 = z1 * _P13 + z2 * _P23 + z3 * _P33

            if defect is not None:
                worst = 0.0
                for x in (0.25, 0.5, 0.75):
                    ratio = defect(t + x * h,
                                   q + x * (p0 + x * (p1 + x * p2)),
                                   (p0 + x * (2.0 * p1 + 3.0 * x * p2)) / h)
                    if ratio > worst:
                        worst = ratio
                if worst > 1.0:
                    if h_abs < _DEFECT_MIN_STEP * min(abs(t), abs(1.0 - t)):
                        n_rej += 1
                        status = STALLED
                        break
                    shrink = max(_MIN_FACTOR, 0.9 * worst ** (-1.0 / 3.0))
                    continue
            break

        if status is not None:
            break

        recompute_jac = n_iter > 2 and (rate is not None and rate > 1e-3)
        factor = min(_MAX_FACTOR, factor)
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        else:
            lu_real = lu_complex = None

        f_new = f(t_new, q_new)
        nfev += 1
        if not math.isfinite(f_new):
            # Accepted state sits outside the meaningful domain; only
            # acceptable if a guard explains it.
            if guard.breach(t_new, q_new):
                f_new = 0.0
            else:
                status = STALLED
                break
        if recompute_jac:
            J = jac(t_new, q_new)
            njev += 1
        current_jac = recompute_jac

        h_abs_old = h_abs
        error_norm_old = error_norm
        h_abs *= factor

        ts.append(t_new)
        rows.append((q, p0, p1, p2))

        t, q, fq = t_new, q_new, f_new
        status = guard.breach(t, q)
        if status is not None:
            break
    else:
        status = STALLED

    naccepted = len(rows)
    if not rows:
        # No accepted step: degenerate one-point result.
        ts = [t0, t0]
        rows = [(q0, 0.0, 0.0, 0.0)]
    knots = np.asarray(ts)
    coeffs = np.asarray(rows)
    if direction < 0.0:  # x = 0 at each step's upper knot
        knots, coeffs = knots[::-1], coeffs[::-1] @ _FLIP.T
    return IntegrationResult(
        status=status,
        sol=PiecewisePolynomial(knots, coeffs),
        t_end=t,
        y_end=q,
        nfev=nfev,
        njev=njev,
        naccepted=naccepted,
        nrejected=n_rej,
    )
