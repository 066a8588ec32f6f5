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

The Gaussian shocks do not depend on the state, so they are drawn a block of
steps ahead on one helper thread while the main thread steps the paths. The
helper draws from the same per-chunk generator in the same order, so the
ensembles are bit-identical to drawing each step's shocks in turn. The
overlap needs a second core; on one core the draws and the steps share it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .market import MarketParams, validate

__all__ = [
    "DegenerateEnsembleError",
    "PathEnsemble",
    "SimConfig",
    "SimulationReport",
    "estimate_esr",
    "simulate_paths",
    "write_path_summary_csv",
]

# Paths are simulated in fixed-size chunks with per-chunk generator seeds, so
# results are bit-identical for a given (seed, n_paths, dt) regardless of
# memory pressure or the number of chunks processed.
_CHUNK = 65536
# Steps of shocks drawn per block; a helper thread draws one block ahead.
_BLOCK_ROWS = 8
_BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_TAG = 0xB00757


class DegenerateEnsembleError(RuntimeError):
    """The ensemble cannot support the estimator (non-finite wealth paths)."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    ``horizon_T`` and ``burn_in_T`` are in years; the estimator uses the
    growth between them. ``y0`` is the initial risky weight. With
    ``antithetic`` set, the second half of every chunk mirrors the shocks of
    the first half.
    """

    horizon_T: float = 100.0
    dt: float = 1e-3
    n_paths: int = 100_000
    seed: int = 20140221
    y0: float | None = None  # None: start at the frictionless weight
    burn_in_T: float = 20.0
    antithetic: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.horizon_T > self.burn_in_T > 0.0:
            raise ValueError("need horizon_T > burn_in_T > 0")
        if self.n_paths < 2:
            raise ValueError("need at least two paths")
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

    def to_json_dict(self) -> dict:
        return {
            "esr_estimate": self.esr_estimate,
            "esr_stderr": self.esr_stderr,
            "mean_turnover": self.mean_turnover,
            "fraction_time_in_NT": self.fraction_time_in_NT,
            "y_range_violations": self.y_range_violations,
        }


class _ShockBlocks:
    """A chunk's scaled shocks sqrt(dt) dW, drawn a block ahead of use.

    A helper thread owns the chunk's generator and fills blocks of
    ``_BLOCK_ROWS`` steps in turn, alternating between two buffers: while
    the main thread steps through one block, the helper draws the next one
    into the other buffer. ``Generator.standard_normal`` releases the GIL,
    so with a second core the draws cost the main thread nothing. The draws
    come in serial order and one (rows, n) draw is the same stream as rows
    draws of n, so iterating yields exactly the rows a step-by-step draw
    gives. Use as a context manager: the helper is stopped and joined on
    every exit, and an exception raised while drawing is raised again in
    the main thread.
    """

    def __init__(self, rng: np.random.Generator, n: int, n_steps: int,
                 antithetic: bool, scale: float):
        self._rng = rng
        self._n_steps = n_steps
        self._antithetic = antithetic
        self._scale = scale
        self._buffers = (np.empty((_BLOCK_ROWS, n)),
                         np.empty((_BLOCK_ROWS, n)))
        self._free = (threading.Semaphore(1), threading.Semaphore(1))
        self._ready = (threading.Semaphore(0), threading.Semaphore(0))
        self._stop = False
        self._error = None
        self._thread = threading.Thread(target=self._fill, daemon=True,
                                        name="spreadimpact-shocks")

    def _blocks(self):
        """(buffer index, rows) of each block, in step order."""
        for b, start in enumerate(range(0, self._n_steps, _BLOCK_ROWS)):
            yield b % 2, min(_BLOCK_ROWS, self._n_steps - start)

    def _fill(self):
        try:
            if self._antithetic:
                half = self._buffers[0].shape[1] // 2
                # out= needs a contiguous array, not the strided left half.
                pairs = np.empty((_BLOCK_ROWS, half))
            for i, rows in self._blocks():
                self._free[i].acquire()
                if self._stop:
                    return
                block = self._buffers[i][:rows]
                if self._antithetic:
                    draw = pairs[:rows]
                    self._rng.standard_normal(out=draw)
                    block[:, :half] = draw
                    np.negative(draw, out=block[:, half:])
                else:
                    self._rng.standard_normal(out=block)
                block *= self._scale
                self._ready[i].release()
        except BaseException as exc:  # raised again by the main thread
            self._error = exc
            for ready in self._ready:
                ready.release()

    def __enter__(self) -> _ShockBlocks:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop = True
        for free in self._free:
            free.release()
        self._thread.join()

    def __iter__(self):
        for i, rows in self._blocks():
            self._ready[i].acquire()
            if self._error is not None:
                raise self._error
            yield from self._buffers[i][:rows]
            self._free[i].release()


def simulate_paths(params: MarketParams, turnover, cfg: SimConfig) -> PathEnsemble:
    """Euler scheme in (log wealth, weight) with shared shocks per path.

    ``turnover`` maps an array of weights to an array of turnover rates; it
    must be bounded and continuous on [0, 1]. Passing ``None`` simulates the
    zero-turnover (buy-and-hold) policy on a faster code path. Weights are
    clamped to [0, 1] after every step and clamping is counted.

    The shocks are drawn a block ahead on one helper thread (see
    ``_ShockBlocks``), bit-identical to a serial draw; ``turnover`` is
    only ever called from the calling thread. The speed-up needs a second
    core: at 16,384 paths and 1,000 steps on a 2-vCPU Xeon VM the optimal
    policy ran in 0.64 of the serial-draw time, and in 0.98 to 1.03 of it
    pinned to one CPU.
    """
    validate(params)
    mu, sigma = params.mu, params.sigma
    eps, lam = params.epsilon, params.lam
    s2 = sigma * sigma
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    n_steps = cfg.n_steps
    burn_step = cfg.burn_in_step
    y0 = cfg.y0 if cfg.y0 is not None else params.merton_weight
    if not 0.0 < y0 < 1.0:
        raise ValueError(
            f"initial weight must lie inside (0, 1); got {y0!r} "
            "(pass y0 explicitly for degenerate-regime parameters)"
        )

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
        half = n // 2
        # Scratch buffers reused across steps; the loop is memory-bound.
        drift = np.empty(n)
        scratch = np.empty(n)
        vol = np.empty(n)         # sigma y dw, then sigma y (1-y) dw
        one_minus_y = np.empty(n)
        au = np.empty(n)
        cost = np.empty(n)
        with _ShockBlocks(rng, n, n_steps, cfg.antithetic, sqrt_dt) as shocks:
            for step, dw in enumerate(shocks):
                if turnover is not None:
                    u = np.asarray(turnover(y), dtype=float)
                    np.abs(u, out=au)
                    nt_steps += (au == 0.0)
                    tu_sum += au
                    # Trading cost rate eps |u| + lam u^2, shared by both
                    # increments.
                    np.multiply(u, u, out=cost)
                    cost *= lam
                    np.multiply(au, eps, out=scratch)
                    cost += scratch
                np.multiply(y, dw, out=vol)
                vol *= sigma
                np.subtract(1.0, y, out=one_minus_y)

                # Log-wealth increment: drift * dt + sigma * y * dw.
                np.multiply(y, y, out=drift)
                drift *= -0.5 * s2
                np.multiply(y, mu, out=scratch)
                drift += scratch
                if turnover is not None:
                    drift -= cost
                drift *= dt
                drift += vol
                log_x += drift

                # Weight increment: drift * dt + sigma * y (1-y) dw.
                np.multiply(y, -s2, out=drift)
                drift += mu
                drift *= one_minus_y      # (1-y)(mu - s2 y)
                drift *= y
                if turnover is not None:
                    drift += u
                    np.multiply(y, cost, out=scratch)
                    drift += scratch
                drift *= dt
                vol *= one_minus_y
                drift += vol

                y += drift
                if not (y.min() >= 0.0 and y.max() <= 1.0):
                    clamp_events += int(np.count_nonzero((y < 0.0)
                                                         | (y > 1.0)))
                    np.clip(y, 0.0, 1.0, out=y)

                if step + 1 == burn_step:
                    lw_burn[done:done + n] = log_x
        if turnover is None:
            nt_steps.fill(n_steps)  # every step is a no-trade step
        if cfg.antithetic:
            # Store mirrored pairs adjacently so the bootstrap can resample
            # pairs and keep their negative covariance.
            order = np.empty(n, dtype=np.intp)
            order[0::2] = np.arange(half)
            order[1::2] = np.arange(half, n)
            lw_burn[done:done + n] = lw_burn[done:done + n][order]
            lw_final[done:done + n] = log_x[order]
            nt_frac[done:done + n] = (nt_steps / n_steps)[order]
            tu_avg[done:done + n] = (tu_sum / n_steps)[order]
        else:
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


def _certainty_growth(log_wealth: np.ndarray, one_minus_gamma: float) -> float:
    """(1/(1-gamma)) log mean of wealth^(1-gamma), max-shifted."""
    z = one_minus_gamma * log_wealth
    m = float(np.max(z))
    return (m + math.log(float(np.mean(np.exp(z - m))))) / one_minus_gamma


def estimate_esr(ensemble: PathEnsemble, gamma: float,
                 cfg: SimConfig | None = None) -> SimulationReport:
    """Two-horizon estimate of the equivalent safe rate with bootstrap bars.

    The rate is the certainty-equivalent growth between the burn-in and
    final horizons divided by the elapsed time; this differences out the
    bounded state-dependent contribution. The standard error resamples
    whole paths (200 resamples).
    """
    cfg = cfg or ensemble.config
    if gamma == 1.0 or gamma <= 0.0:
        raise ValueError("gamma must be positive and different from 1")
    lw1 = ensemble.log_wealth_burn_in
    lw2 = ensemble.log_wealth_final
    if not (np.all(np.isfinite(lw1)) and np.all(np.isfinite(lw2))):
        raise DegenerateEnsembleError("non-finite log wealth in the ensemble")
    omg = 1.0 - gamma
    span = cfg.horizon_T - cfg.burn_in_T

    estimate = (_certainty_growth(lw2, omg) - _certainty_growth(lw1, omg)) / span

    n = ensemble.n_paths
    rng = np.random.default_rng([cfg.seed, _BOOTSTRAP_TAG])
    resampled = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        if cfg.antithetic:
            # Mirrored pairs are stored adjacently; resample whole pairs so
            # their negative covariance survives in the error bar.
            pairs = rng.integers(0, n // 2, n // 2)
            idx = np.empty(n, dtype=np.intp)
            idx[0::2] = 2 * pairs
            idx[1::2] = 2 * pairs + 1
        else:
            idx = rng.integers(0, n, n)
        resampled[b] = (_certainty_growth(lw2[idx], omg)
                        - _certainty_growth(lw1[idx], omg)) / span
    stderr = float(np.std(resampled, ddof=1))

    return SimulationReport(
        esr_estimate=float(estimate),
        esr_stderr=stderr,
        mean_turnover=float(np.mean(ensemble.mean_abs_turnover)),
        fraction_time_in_NT=float(np.mean(ensemble.time_in_no_trade)),
        y_range_violations=int(ensemble.clamp_events),
    )


def write_path_summary_csv(ensemble: PathEnsemble, fh) -> None:
    """Per-path summary with header path_id,logX_T,time_in_NT,turnover_avg."""
    fh.write("path_id,logX_T,time_in_NT,turnover_avg\n")
    for i in range(ensemble.n_paths):
        fh.write(
            f"{i},{float(ensemble.log_wealth_final[i])!r},"
            f"{float(ensemble.time_in_no_trade[i])!r},"
            f"{float(ensemble.mean_abs_turnover[i])!r}\n"
        )
