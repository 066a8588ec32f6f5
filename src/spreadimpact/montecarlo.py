"""Monte Carlo engine for the controlled wealth and risky-weight dynamics.

Paths follow the joint dynamics of log wealth and the risky weight under a
turnover policy u(y): log wealth earns the risky return on the held weight
minus the linear and quadratic trading costs, while the weight diffuses with
the same Brownian shock and drifts with both the market and the control.
Log wealth keeps the wealth process positive by construction; the weight is
clamped to [0, 1] after each step (the exact process stays inside on its
own; clamping events are counted and reported, not hidden).

The long-run performance functional is estimated by differencing the
certainty-equivalent growth between a burn-in horizon and the final one,
which removes the bounded state-dependent term from the estimate. With risk
aversion above one the relevant power of wealth is dominated by the poorest
paths, so all aggregation happens in the log domain with a max shift.

The Gaussian shocks do not depend on the state, so they are drawn and scaled
a block of steps ahead by the one worker thread of a ``ThreadPoolExecutor``
while the calling thread steps the paths; waiting on the block's future is
the only synchronisation. The worker draws from the same per-chunk generator
in the same order, so the ensembles are bit-identical to drawing each step's
shocks in turn. The overlap needs a second core; on one core the draws and
the steps share it. The step writes only into buffers allocated once per
chunk, a tabulated policy's lookup included, so with a second core the draw
bounds the step (see ``simulate_paths``).

The bootstrap weighs each path by the number of times a resample drew it,
against the weights exp(z - max z) worked out once per horizon.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .market import MarketParams, _real_number

__all__ = [
    "DegenerateEnsembleError",
    "PathEnsemble",
    "SimConfig",
    "SimulationReport",
    "estimate_esr",
    "simulate_paths",
]

# Paths are simulated in fixed-size chunks with per-chunk generator seeds, so
# results are bit-identical for a given SimConfig regardless of memory
# pressure or the number of chunks processed.
_CHUNK = 65536
# Steps of shocks drawn per block; one worker thread draws a block ahead.
_BLOCK_ROWS = 8
_BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_TAG = 0xB00757
# Cells of a policy table (``_PolicyTable``) per unit of weight: its spacing
# is at least 1/TABLE_CELLS, so it holds at most TABLE_CELLS + 1 cells.
TABLE_CELLS = 16384


class DegenerateEnsembleError(RuntimeError):
    """The ensemble cannot support the estimator (non-finite wealth paths)."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    ``horizon_T`` and ``burn_in_T`` are in years, each rounded to a whole
    number of steps of ``dt``; the estimator uses the growth between those
    two steps. ``y0`` is the initial risky weight. With
    ``antithetic`` set, paths come in adjacent pairs: each odd-numbered path
    mirrors the shocks of the path before it. Each real field must be a
    finite real number other than a bool (``y0`` may be None), and is stored
    as a float.
    """

    horizon_T: float = 100.0
    dt: float = 1e-3
    n_paths: int = 100_000
    seed: int = 20140221
    y0: float | None = None  # None: start at the frictionless weight
    burn_in_T: float = 20.0
    antithetic: bool = False

    def __post_init__(self):
        for name in ("horizon_T", "dt", "y0", "burn_in_T"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _real_number(name, value))
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.horizon_T > self.burn_in_T > 0.0:
            raise ValueError("need horizon_T > burn_in_T > 0")
        # The float tallies of no-trade steps, and their fraction, count
        # exactly up to 2**53 steps.
        if not self.horizon_T / self.dt <= 2.0**53:
            raise ValueError(
                f"horizon_T of {self.horizon_T!r} at dt {self.dt!r} is "
                f"{self.horizon_T / self.dt:.3g} steps; at most 2**53 are "
                "counted exactly")
        if not 1 <= self.burn_in_step < self.n_steps:
            raise ValueError(
                f"burn-in of {self.burn_in_T!r} rounds to step "
                f"{self.burn_in_step} of {self.n_steps}; it must fall on a "
                "step strictly between the start and the horizon")
        for name, least in (("n_paths", 2), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))
                    or value < least):
                raise ValueError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if self.y0 is not None and not 0.0 < self.y0 < 1.0:
            raise ValueError("y0 must lie strictly inside (0, 1)")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic pairing needs an even path count")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon_T / self.dt))

    @property
    def burn_in_step(self) -> int:
        return int(round(self.burn_in_T / self.dt))


@dataclass
class PathEnsemble:
    """Per-path summaries retained from a simulation run."""

    log_wealth_burn_in: np.ndarray
    log_wealth_final: np.ndarray
    time_in_no_trade: np.ndarray  # fraction of steps with u == 0, per path
    mean_abs_turnover: np.ndarray  # time average of |u|, per path
    clamp_events: int
    total_steps: int
    config: SimConfig

    @property
    def n_paths(self) -> int:
        return len(self.log_wealth_final)


@dataclass(frozen=True)
class SimulationReport:
    """Long-run rate estimate with error bars and path statistics."""

    esr_estimate: float
    esr_stderr: float
    mean_turnover: float
    fraction_time_in_NT: float
    y_range_violations: int


class _PolicyTable:
    """Piecewise-linear evaluator of a turnover policy for simulation inner
    loops, as ``TradingPolicy.tabulated`` returns it.

    ``turnover`` maps an array of weights to turnover; it is zero on the
    band [y_minus, y_plus], smooth on each trading side and defined on
    [lo, hi] (delta and 1-delta for a solved policy). Its kinks are at the
    band edges, so it is tabulated on one uniform grid over [0, 1] with
    both edges on knots: the spacing h is the smallest that is at least
    1/TABLE_CELLS and cuts the band into a whole number m of cells. Each
    cell holds u = A + B y, the line through its two knots, so a band cell
    holds A = B = 0 and the band reads exactly 0.0. The cells beside the
    band are anchored on its edge (A = -B y_edge), so each edge reads
    exactly 0.0 from either cell and the trading sides keep their sign;
    only a weight within an ulp or two of an edge can land in the cell
    across it. The end knots are moved onto lo and hi, so the end cells
    interpolate the turnover where it is defined and extend that line to 0
    and 1. A band narrower than 1/TABLE_CELLS (m = 0, zero width included)
    lies inside one cell of that width and reads its line, which runs from
    0 at y_minus to the turnover one cell away.

    A call finds each weight's cell by a multiply and a truncation and
    gathers A and B: no search, clip or branch. It allocates its result;
    ``into`` writes it into buffers the caller owns, ``out`` and
    ``scratch`` floats and ``cell`` intp, each the shape of y, so a caller
    that keeps them (as ``simulate_paths`` does per chunk) looks up without
    allocating. Both run the same operations and give the same bits; the
    table holds no buffer, so threads may share it.
    """

    def __init__(self, turnover, y_minus, y_plus, lo, hi):
        m = math.floor((y_plus - y_minus) * TABLE_CELLS)
        h = (y_plus - y_minus) / m if m else 1.0 / TABLE_CELLS
        # Cell 0 holds lo and the last cell hi: weights below cell 0
        # truncate onto it, and take's clip mode in ``into`` puts weights
        # past the last cell on that one. At most TABLE_CELLS + 1 cells.
        below = math.ceil((y_minus - lo) / h)
        x = y_minus + h * np.arange(-below, m + math.ceil((hi - y_plus) / h)
                                    + 1)
        if m:
            x[below + m] = y_plus
        np.clip(x, lo, hi, out=x)
        # In four pieces: one call on all knots gathers 512 KiB of a solved
        # q's coefficients at once, which raised the peak RSS of building
        # the optimal and a scaled table from 0.4 to 1.3 MB.
        values = np.concatenate([turnover(part)
                                 for part in np.array_split(x, 4)])
        slope = np.diff(values) / np.diff(x)
        # Each line through its knot nearer the band: A = -B y_edge beside
        # it.
        offset = values[:-1] - slope * x[:-1]
        offset[:below] = values[1:below + 1] - slope[:below] * x[1:below + 1]
        self.y0, self.inv_h = y_minus - below * h, 1.0 / h
        self.slope, self.offset = slope, offset

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self.into(y, np.empty_like(y), np.empty_like(y),
                         np.empty(y.shape, np.intp))

    def into(self, y, out, scratch, cell):
        np.subtract(y, self.y0, out=scratch)
        scratch *= self.inv_h
        np.copyto(cell, scratch, casting="unsafe")  # truncates, as astype
        self.slope.take(cell, mode="clip", out=out)
        out *= y
        self.offset.take(cell, mode="clip", out=scratch)
        out += scratch
        return out


def _shock_rows(rng: np.random.Generator, n: int, n_steps: int,
                antithetic: bool, scale: float, shift: float):
    """Yield a chunk's shocks shift + scale z, z standard normal, one row of
    n per step.

    One worker thread draws and scales the rows a block of ``_BLOCK_ROWS``
    steps ahead of use, alternating between two buffers;
    ``Generator.standard_normal`` releases the GIL, so with a second core
    the draws cost the caller nothing. Block i+1 is submitted only after
    block i's result has returned, when the caller has finished every row
    of block i-1, whose buffer it reuses. One (rows, n) draw is the same
    stream as rows draws of n, so the rows are those a step-by-step draw
    gives. A draw error is raised in the calling thread; the worker is
    joined when the generator finishes or is closed.
    """
    buffers = (np.empty((_BLOCK_ROWS, n)), np.empty((_BLOCK_ROWS, n)))
    # out= needs a contiguous array, not the strided even columns.
    pairs = np.empty((_BLOCK_ROWS, n // 2)) if antithetic else None

    def draw(start):
        block = buffers[start // _BLOCK_ROWS % 2][:n_steps - start]
        if antithetic:
            half = pairs[:len(block)]
            rng.standard_normal(out=half)
            block[:, 0::2] = half
            np.negative(half, out=block[:, 1::2])
        else:
            rng.standard_normal(out=block)
        block *= scale
        block += shift
        return block

    # Here: importing the package need not load concurrent.futures (and
    # its logging and queue) in a process that never simulates.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(draw, 0)
        for start in range(0, n_steps, _BLOCK_ROWS):
            block = ahead.result()
            if start + _BLOCK_ROWS < n_steps:
                ahead = pool.submit(draw, start + _BLOCK_ROWS)
            yield from block


def simulate_paths(params: MarketParams, turnover, cfg: SimConfig) -> PathEnsemble:
    """Euler scheme in (log wealth, weight) with shared shocks per path.

    ``turnover`` maps an array of weights to an array of turnover rates; it
    must be bounded and continuous on [0, 1]. Passing ``None`` simulates the
    zero-turnover (buy-and-hold) policy on a faster code path. A
    ``turnover`` with an ``into(y, out, scratch, cell)`` method, as
    ``TradingPolicy.tabulated()`` returns, writes into buffers this call
    owns, so a step allocates no array; any other callable is called with
    the weights and its answer copied into the same buffer, so each step
    makes one lookup call either way. Weights are clamped to [0, 1] after
    every step and clamping is counted.

    Each step is the Euler step with its constants folded: with the shock
    e = mu dt + sigma sqrt(dt) z and the cost c = |u| (eps dt + lam dt |u|),
    log wealth moves by y (e - s2 dt y / 2) - c and the weight by
    y ((1 - y)(e - s2 dt y) + c) + u dt, s2 = sigma^2.

    The shocks are drawn a block ahead by one worker thread (see
    ``_shock_rows``), bit-identical to a serial draw; ``turnover`` is only
    ever called from the calling thread, and the worker is joined on every
    exit, a raising ``turnover`` included. With a second core the draw
    bounds the step: at 16,384 paths and 1,000 steps on a shared 2-vCPU
    Xeon VM the draw alone takes 0.20 s (12 ns per value), and a run of the
    optimal, the x2 or the buy-and-hold policy 0.23 s (medians of 7). A
    faster simulation has to make the draw itself cheaper.
    """
    mu, sigma = params.mu, params.sigma
    eps, lam = params.epsilon, params.lam
    dt = cfg.dt
    s2_dt = sigma * sigma * dt
    n_steps = cfg.n_steps
    burn_step = cfg.burn_in_step
    y0 = cfg.y0 if cfg.y0 is not None else params.merton_weight
    if not 0.0 < y0 < 1.0:
        raise ValueError(
            f"initial weight must lie inside (0, 1); got {y0!r} "
            "(pass y0 explicitly for degenerate-regime parameters)"
        )
    into = getattr(turnover, "into", None)
    if into is None and turnover is not None:
        def into(y, out, scratch, cell):
            np.copyto(out, turnover(y))

    total = cfg.n_paths
    lw_burn = np.empty(total)
    lw_final = np.empty(total)
    nt_frac = np.empty(total)
    tu_avg = np.empty(total)
    clamp_events = 0

    done = 0
    chunk_index = 0
    while done < total:
        n = min(_CHUNK, total - done)
        rng = np.random.default_rng([cfg.seed, chunk_index])
        log_x = np.zeros(n)
        y = np.full(n, y0)
        nt_steps = np.zeros(n)
        tu_sum = np.zeros(n)
        # Every buffer a step writes, allocated once per chunk.
        inc = np.empty(n)          # a log-wealth, then a weight increment
        one_minus_y = np.empty(n)
        if turnover is not None:
            u = np.empty(n)
            au = np.empty(n)       # |u|, then u dt
            cost = np.empty(n)     # the table's scratch, then the cost c
            no_trade = np.empty(n, dtype=bool)
            cell = np.empty(n, dtype=np.intp)
        with closing(_shock_rows(rng, n, n_steps, cfg.antithetic,
                                 sigma * math.sqrt(dt), mu * dt)) as shocks:
            for step, e in enumerate(shocks):
                if turnover is not None:
                    into(y, u, cost, cell)
                    np.abs(u, out=au)
                    np.equal(au, 0.0, out=no_trade)
                    nt_steps += no_trade
                    tu_sum += au
                    np.multiply(au, lam * dt, out=cost)
                    cost += eps * dt
                    cost *= au
                    np.multiply(u, dt, out=au)

                np.multiply(y, -0.5 * s2_dt, out=inc)
                inc += e
                inc *= y
                if turnover is not None:
                    inc -= cost
                log_x += inc

                np.multiply(y, -s2_dt, out=inc)
                inc += e
                np.subtract(1.0, y, out=one_minus_y)
                inc *= one_minus_y
                if turnover is not None:
                    inc += cost
                inc *= y
                if turnover is not None:
                    inc += au
                y += inc
                if not (y.min() >= 0.0 and y.max() <= 1.0):
                    clamp_events += int(np.count_nonzero((y < 0.0)
                                                         | (y > 1.0)))
                    np.clip(y, 0.0, 1.0, out=y)

                if step + 1 == burn_step:
                    lw_burn[done:done + n] = log_x
        if turnover is None:
            nt_steps.fill(n_steps)  # every step is a no-trade step
        lw_final[done:done + n] = log_x
        nt_frac[done:done + n] = nt_steps / n_steps
        tu_avg[done:done + n] = tu_sum / n_steps
        done += n
        chunk_index += 1

    return PathEnsemble(
        log_wealth_burn_in=lw_burn,
        log_wealth_final=lw_final,
        time_in_no_trade=nt_frac,
        mean_abs_turnover=tu_avg,
        clamp_events=clamp_events,
        total_steps=n_steps * total,
        config=cfg,
    )


def _certainty_growth(shift: float, mean_weight: float,
                      one_minus_gamma: float) -> float:
    """(1/(1-gamma)) log mean of wealth^(1-gamma), from the mean of the
    weights exp(z - shift), z = (1-gamma) log wealth."""
    return (shift + math.log(mean_weight)) / one_minus_gamma


def estimate_esr(ensemble: PathEnsemble, gamma: float,
                 cfg: SimConfig | None = None) -> SimulationReport:
    """Two-horizon estimate of the equivalent safe rate with bootstrap bars.

    The rate is the certainty-equivalent growth between the burn-in and
    final steps divided by the time simulated between them; this
    differences out the bounded state-dependent contribution. The standard
    error resamples whole paths (200 resamples). The horizons, bootstrap
    seed and pairing come from ``ensemble.config``; a ``cfg`` other than
    that one raises ValueError.
    """
    if cfg is not None and cfg != ensemble.config:
        raise ValueError("cfg is not the config the ensemble was simulated "
                         "with")
    cfg = ensemble.config
    gamma = _real_number("gamma", gamma)
    if not gamma > 0.0 or gamma == 1.0:
        raise ValueError("gamma must be positive and different from 1")
    lw1 = ensemble.log_wealth_burn_in
    lw2 = ensemble.log_wealth_final
    if not (np.all(np.isfinite(lw1)) and np.all(np.isfinite(lw2))):
        raise DegenerateEnsembleError("non-finite log wealth in the ensemble")
    omg = 1.0 - gamma
    span = (cfg.n_steps - cfg.burn_in_step) * cfg.dt
    # Each horizon's paths as weights exp(z - max z), worked out once: a
    # resample's mean weight is then its path counts' dot product with them.
    z = omg * np.stack([lw1, lw2])
    shift = z.max(axis=1)
    weights = np.exp(z - shift[:, None])

    def rate(mean_weights):
        burn, final = (_certainty_growth(s, w, omg)
                       for s, w in zip(shift.tolist(), mean_weights.tolist()))
        return (final - burn) / span

    n = ensemble.n_paths
    estimate = rate(weights.mean(axis=1))
    rng = np.random.default_rng([cfg.seed, _BOOTSTRAP_TAG])
    resampled = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        if cfg.antithetic:
            # Mirrored pairs are stored adjacently; resample whole pairs so
            # their negative covariance survives in the error bar.
            pairs = rng.integers(0, n // 2, n // 2)
            counts = np.repeat(np.bincount(pairs, minlength=n // 2), 2)
        else:
            counts = np.bincount(rng.integers(0, n, n), minlength=n)
        resampled[b] = rate(weights @ counts / n)
    stderr = float(np.std(resampled, ddof=1))

    return SimulationReport(
        esr_estimate=float(estimate),
        esr_stderr=stderr,
        mean_turnover=float(np.mean(ensemble.mean_abs_turnover)),
        fraction_time_in_NT=float(np.mean(ensemble.time_in_no_trade)),
        y_range_violations=int(ensemble.clamp_events),
    )
