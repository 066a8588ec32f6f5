"""Small-cost expansion: rescaled Riccati problem and its closed-form pieces.

With the impact cost tied to the spread through lam = K eps^(4/3), the
no-trade band shrinks like eps^(1/3) around the frictionless weight and the
welfare loss like eps^(2/3). In the stretched variable z = (y - y*)/eps^(1/3)
the equation reduces to a Riccati problem whose buy-region solution r_B has a
closed form in terms of the ratio of two decaying Whittaker functions. The
rescaled buy boundary z_minus is the most negative root of
r_B(z, l(z)) = 1, with l(z) the welfare coefficient implied by the explicit
odd cubic solving the mid-band equation.

Everything downstream (approximate rate, boundaries, turnover, and the
near-boundary slope constants) is assembled here from ``AsymptoticInputs``,
which refuses buy-and-hold markets and a K that is not a positive real
number however it is built. The closed form is the only evaluation of r_B:
where the Whittaker functions would lose too many digits they raise
``CancellationError`` (a ``SpecialFunctionError``), and ``find_z_minus``
reports that as ``NoRootError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._radau import bracket_root
from .market import MarketParams, _real_number, _require_interior
from .whittaker import whittaker_w_ratio

__all__ = [
    "AsymptoticInputs",
    "AsymptoticSolution",
    "NoRootError",
    "asymptotic_policy",
    "find_z_minus",
    "near_boundary_slope",
    "r_buy",
    "welfare_coefficient",
]

# Second Whittaker index used throughout the closed form.
_M_INDEX = -0.25
# March for z_minus: start this factor beyond the pure-spread boundary, step
# toward 0 by this factor, and give up inside |z| < _Z_FLOOR, where the
# closed form is singular. The root is refined to _Z_TOL.
_START_MARGIN = 1.05
_STEP_FACTOR = 0.99
_Z_FLOOR = 1e-4
_Z_TOL = 1e-12
_ROOT_ACCEPT = 1e-6


class NoRootError(RuntimeError):
    """No verified root of r_B(z, l(z)) = 1: ``z`` is where the march for
    z_minus stopped and ``f`` the value of r_B(z, l(z)) - 1 there (NaN where
    the closed form failed)."""

    def __init__(self, message: str, z: float = math.nan,
                 f: float = math.nan):
        super().__init__(message)
        self.z = z
        self.f = f


@dataclass(frozen=True)
class AsymptoticInputs:
    """Market parameters plus the spread/impact coupling K = lam/eps^(4/3).

    Construction refuses buy-and-hold parameters (``ParameterError``, as in
    ``solve``) and a K that is not a positive, finite real number or is a
    bool (``ValueError``); K is stored as a float.
    It also sets the scales that every r_buy call reads: ``y_star``,
    ``curvature_scale`` = sigma^2 y*^2 (1 - y*)^2, the diffusion scale at the
    target, and ``growth_slope`` = sqrt(2 K gamma sigma^2), the far-field
    slope of the rescaled solution.
    """

    params: MarketParams
    K: float
    y_star: float = field(init=False)
    curvature_scale: float = field(init=False)
    growth_slope: float = field(init=False)

    def __post_init__(self):
        _require_interior(self.params)
        object.__setattr__(self, "K", _real_number("K", self.K))
        if not self.K > 0.0:
            raise ValueError(f"K must be positive, got {self.K!r}")
        p = self.params
        y = p.merton_weight
        object.__setattr__(self, "y_star", y)
        object.__setattr__(self, "curvature_scale",
                           p.sigma**2 * y * y * (1.0 - y) ** 2)
        object.__setattr__(self, "growth_slope",
                           math.sqrt(2.0 * self.K * p.gamma * p.sigma**2))

    @classmethod
    def from_params(cls, params: MarketParams,
                    K: float | None = None) -> "AsymptoticInputs":
        """The inputs with K = lam/eps^(4/3) unless ``K`` is given."""
        if K is None:
            if params.epsilon <= 0.0 or params.lam <= 0.0:
                _require_interior(params)  # a buy-and-hold market first
                raise ValueError(
                    "the coupling K = lambda/epsilon^(4/3) needs positive "
                    "epsilon and lambda (or pass K explicitly)"
                )
            K = params.lam / params.epsilon ** (4.0 / 3.0)
        return cls(params=params, K=K)


@dataclass(frozen=True)
class AsymptoticSolution:
    """Root of the expansion and every constant derived from it.

    ``a``, ``c``, ``k`` parameterize the Whittaker representation;
    ``x_minus``, ``D``, ``E``, ``F`` are the near-boundary constants, with F
    the slope of r_B - 1 at the buy boundary. First-order formulas:
    rate ~ frictionless - eps^(2/3) l, boundaries ~ y* -+ |z_minus| eps^(1/3).
    """

    inputs: AsymptoticInputs
    z_minus: float
    l: float
    a: float
    c: float
    k: float
    x_minus: float
    D: float
    E: float
    F: float
    beta_approx: float
    y_minus_approx: float
    y_plus_approx: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def z_plus(self) -> float:
        return -self.z_minus


def welfare_coefficient(z_minus: float, params: MarketParams) -> float:
    """l(z_minus): the value of l for which the mid-band cubic
    (2/v2)(gamma sigma^2 z^3/6 - l z), v2 = sigma^2 y*^2 (1-y*)^2, passes
    through 1 at z_minus (equivalently -1 at -z_minus, by oddness)."""
    y = params.merton_weight
    v2 = params.sigma**2 * y * y * (1.0 - y) ** 2
    gs2 = params.gamma * params.sigma**2
    return gs2 * z_minus**2 / 6.0 - v2 / (2.0 * z_minus)


def _whittaker_parameters(z: float, l: float, inputs: AsymptoticInputs
                          ) -> tuple[float, float, float, float, float]:
    """(a, c, k, x, g_const) of the closed form of r_B at (z, l): the
    first Whittaker index k, the argument x = a S z^2, and the constants of
    the algebraic part."""
    S = inputs.growth_slope
    a = 1.0 / (2.0 * inputs.K * inputs.curvature_scale)
    c = 2.0 * l / inputs.curvature_scale
    k = c / (4.0 * S)
    return a, c, k, a * S * z * z, (1.0 + c / S) / (2.0 * a)


def r_buy(z: float, l: float, inputs: AsymptoticInputs) -> float:
    """Buy-region solution r_B(z, l) of the rescaled equation, by the closed
    form.

    Defined for all z != 0 through the reflection r_B(-z) = 2 - r_B(z).
    Raises CancellationError (a SpecialFunctionError) where the Whittaker
    ratio cannot be computed to its advertised accuracy.
    """
    if z == 0.0:
        raise ValueError("r_buy is singular at z = 0")
    if z > 0.0:
        return 2.0 - r_buy(-z, l, inputs)
    a, _, k, x, g_const = _whittaker_parameters(z, l, inputs)
    ratio = whittaker_w_ratio(k, _M_INDEX, x)
    return (-g_const / z + 1.0 + inputs.growth_slope * z
            - (2.0 / (a * z)) * ratio)


def find_z_minus(inputs: AsymptoticInputs) -> AsymptoticSolution:
    """Locate the rescaled buy boundary and assemble the expansion constants.

    The pure-spread limit K -> 0 (Janecek & Shreve 2004) puts the boundary
    at -z0, z0 = (3/(2 gamma) y*^2 (1-y*)^2)^(1/3), and -z_minus/z0 falls
    from about 1 as K grows. The closed form of r_B(z, l(z)) - 1 is positive
    at -_START_MARGIN z0; the march steps toward 0 by the factor _STEP_FACTOR
    until it is not, and the package's Brent search
    (``_radau.bracket_root``, the one the exact solver uses) refines that one
    bracket to _Z_TOL. Right of z_minus the roots alternate with poles of the
    Whittaker ratio, no closer to each other than a few percent of |z|, so
    the first sign change is the most negative root. The root is accepted
    only if r_B(z_minus, l(z_minus)) meets 1 to _ROOT_ACCEPT; every failure,
    a refusal of the closed form included, raises NoRootError.
    """
    params = inputs.params
    y = inputs.y_star
    z = -_START_MARGIN * (1.5 / params.gamma * (y * (1.0 - y)) ** 2) ** (
        1.0 / 3.0)

    def f(z: float) -> float:
        return r_buy(z, welfare_coefficient(z, params), inputs) - 1.0

    def failure(reason: str) -> NoRootError:
        return NoRootError(f"{reason} at z={z:g} (f={fz:g}) for "
                           f"K={inputs.K:g}", z=z, f=fz)

    try:
        fz = f(z)
        evaluations = 1
        if not fz > 0.0:
            raise failure("r_B(z, l(z)) - 1 is not positive where the march "
                          "starts")
        while fz > 0.0:
            if z > -_Z_FLOOR:
                raise failure("the march reached z = 0 without a sign change")
            z_out, f_out = z, fz
            z *= _STEP_FACTOR
            fz = f(z)
            evaluations += 1
        z, _, refinements = bracket_root(f, z_out, z, f_out, fz, _Z_TOL)
        fz = f(z)
    except ArithmeticError as exc:
        fz = math.nan
        raise failure(f"the closed form failed ({exc})") from exc
    if not abs(fz) <= _ROOT_ACCEPT:
        raise failure("the refined root misses r_B(z, l(z)) = 1")

    z_minus = z
    l = welfare_coefficient(z_minus, params)
    S = inputs.growth_slope
    a, c, k, x_minus, g_const = _whittaker_parameters(z_minus, l, inputs)
    m = _M_INDEX
    D = 0.5 * (1.0 - g_const / (S * z_minus**2))
    E = D * (
        D
        - 2.0 / x_minus
        - (1.0 / x_minus**2)
        * (
            (1.0 / D) * (m - (k + 1.0) + 0.5) * (m + (k + 1.0) - 0.5)
            - (2.0 * (k + 1.0) * x_minus - x_minus**2)
        )
    )
    F = (
        g_const / z_minus**2
        + S
        - 2.0 * S * (D + 2.0 * a * S * E * z_minus**2)
    )

    eps = params.epsilon
    frictionless = params.frictionless_esr
    if eps > 0.0:
        beta_approx = frictionless - eps ** (2.0 / 3.0) * l
        y_minus_approx = y + z_minus * eps ** (1.0 / 3.0)
        y_plus_approx = y - z_minus * eps ** (1.0 / 3.0)
    else:
        beta_approx = frictionless
        y_minus_approx = y_plus_approx = y

    return AsymptoticSolution(
        inputs=inputs,
        z_minus=z_minus,
        l=l,
        a=a,
        c=c,
        k=k,
        x_minus=x_minus,
        D=D,
        E=E,
        F=F,
        beta_approx=beta_approx,
        y_minus_approx=y_minus_approx,
        y_plus_approx=y_plus_approx,
        diagnostics={"evaluations": evaluations + refinements + 1},
    )


def asymptotic_policy(y: float, sol: AsymptoticSolution) -> float:
    """Leading-order turnover at risky weight y.

    Buy side: (r_B(z) - 1) eps^(-1/3) / 2K for z below z_minus; sell side
    the mirror image through r_S = r_B - 2; zero in between.
    """
    inputs = sol.inputs
    eps = inputs.params.epsilon
    if eps <= 0.0:
        raise ValueError("the policy expansion needs epsilon > 0")
    z = (y - inputs.y_star) * eps ** (-1.0 / 3.0)
    if sol.z_minus <= z <= sol.z_plus:
        return 0.0
    pref = eps ** (-1.0 / 3.0) / (2.0 * inputs.K)
    if z < sol.z_minus:
        return pref * (r_buy(z, sol.l, inputs) - 1.0)
    # r_S(z) + 1 = r_B(z) - 1 = -(r_B(-z) - 1) by the reflection identity.
    return -pref * (r_buy(-z, sol.l, inputs) - 1.0)


def near_boundary_slope(sol: AsymptoticSolution) -> tuple[float, float]:
    """d(turnover)/dy just outside each trading boundary.

    Both slopes equal F eps^(-2/3) / 2K: the friction bracket vanishes at
    the boundaries, so the rescaled solution leaves them with the same
    slope F on the buy and sell sides.
    """
    inputs = sol.inputs
    eps = inputs.params.epsilon
    if eps <= 0.0:
        raise ValueError("the slope expansion needs epsilon > 0")
    slope = eps ** (-2.0 / 3.0) / (2.0 * inputs.K) * sol.F
    return slope, slope
