"""Fingerprint the exact solver's answers, one line per input.

For the 4 reference points, the 25-point acceptance grid and the 12
``exact`` benchmark inputs of seeds 1, 3 and 11, it prints a SHA-256 of
beta, the band edges, q's knots and coefficients and the repr of
``diagnostics``. For each of the seven known failures it prints the
exception's type and message. A change that should leave every answer
bitwise unchanged is checked by one ``diff`` of this script's output
before and after it:

    python3 tools/answers.py > before.txt
    ...
    python3 tools/answers.py > after.txt
    diff before.txt after.txt

The package is imported from this checkout's ``src``, and the benchmark
inputs are drawn by ``perfbench/workload.py`` itself.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import spreadimpact as si  # noqa: E402
import workload  # noqa: E402

BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
REFERENCE_POINTS = [(1e-3, 1e-4), (1e-2, 1e-2), (1e-2, 1e-4), (5e-2, 5e-2)]
GRID = [10.0 ** e for e in (-4.0, -3.5, -3.0, -2.5, -2.0)]
EXACT_SEEDS = (1, 3, 11)
# Points of the sampled domain box (tests/conftest.py's box_point) and of
# the base market whose final forward leg stalls.
FAILING_BOX_POINTS = [(5, 14), (9, 1), (9, 10)]
FAILING_BASE_POINTS = [(1e-2, 1e-14), (5e-2, 1e-14), (5e-2, 1e-13),
                       (5e-2, 1e-12)]


def box_point(seed: int, i: int) -> si.MarketParams:
    """Point ``i`` of seed ``seed`` of the domain box, drawn as
    tests/conftest.py's ``box_point`` draws it."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(i + 1):
        y_star = rng.uniform(0.02, 0.98)
        gamma = log_uniform(0.5, 50.0)
        sigma = 0.2
        eps = log_uniform(1e-5, 5e-2)
        lam = log_uniform(1e-12, 1.0)
    return si.MarketParams(mu=y_star * gamma * sigma * sigma, sigma=sigma,
                           gamma=gamma, epsilon=eps, lam=lam)


def fingerprint(sol: si.FreeBoundarySolution) -> str:
    digest = hashlib.sha256()
    digest.update(repr((sol.beta, sol.y_minus, sol.y_plus)).encode())
    digest.update(sol.q.knots.tobytes())
    digest.update(sol.q.coeffs.tobytes())
    digest.update(repr(sol.diagnostics).encode())
    return digest.hexdigest()


def answer(params: si.MarketParams) -> str:
    try:
        return fingerprint(si.solve(params))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def main() -> None:
    inputs = [(f"reference eps={eps!r} lam={lam!r}", eps, lam)
              for eps, lam in REFERENCE_POINTS]
    inputs += [(f"grid eps={eps!r} lam={lam!r}", eps, lam)
               for eps in GRID for lam in GRID]
    for seed in EXACT_SEEDS:
        for x in workload.Exact(si, np, seed).inputs:
            inputs.append((f"exact seed={seed} eps={x['epsilon']!r} "
                           f"lam={x['lambda']!r}", x["epsilon"], x["lambda"]))
    inputs += [(f"failure eps={eps!r} lam={lam!r}", eps, lam)
               for eps, lam in FAILING_BASE_POINTS]
    for label, eps, lam in inputs:
        params = si.MarketParams(epsilon=eps, lam=lam, **BASE)
        print(f"{label}: {answer(params)}", flush=True)
    for seed, i in FAILING_BOX_POINTS:
        print(f"failure box seed={seed} point={i}: "
              f"{answer(box_point(seed, i))}", flush=True)


if __name__ == "__main__":
    main()
