"""One benchmark workload in one fresh, single-threaded process.

Started by ``run.py``; prints one JSON object on its last stdout line. The
process imports the package, builds its inputs from the seed (and, for
``montecarlo``, solves and tabulates the policies), notes the monotonic time
at which work can begin, then times whole passes over the inputs. Every
operation calls only the package's public API, and every output is checked
outside the timed region. See NOTES.md for why each workload and input box
was chosen.

    python3 perfbench/workload.py --workload exact --seed 1 --seconds 30
    python3 perfbench/workload.py --workload exact --seed 1 --setup-only
    python3 perfbench/workload.py --workload exact --trace 1
    python3 perfbench/workload.py --record-references
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
DEFAULT_SEED = 1
BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
# Tolerances against references.json; beta's is the one the tests pin for
# REFERENCE_BETAS.
REF_TOL = {"beta": 2e-10, "y_minus": 1e-8, "y_plus": 1e-8, "z_minus": 1e-9}


def log_cell(rng: random.Random, lo: float, hi: float, cells: int,
             i: int) -> float:
    """A log-uniform draw inside cell ``i`` of ``cells`` equal log-width
    cells of [lo, hi]. Stratifying keeps the total work of a pass nearly
    the same from seed to seed."""
    a, b = math.log10(lo), math.log10(hi)
    return 10.0 ** (a + (i + rng.random()) * (b - a) / cells)


class Workload:
    def reference_answers(self, answers):
        """(inputs, answers) pairs that references.json may hold."""
        return [(x, a) for x, a in answers if a is not None]


class Exact(Workload):
    """solve + policy(sol) on the 2,001-point grid the CLI emits."""

    name = "exact"
    EPS_BOX, EPS_CELLS = (1e-4, 1e-2), 2
    LAM_BOX, LAM_CELLS = (1e-8, 1e-2), 2

    def __init__(self, si, np, seed: int):
        self.si, self.np = si, np
        rng = random.Random(seed)
        self.inputs = []
        for i in range(self.EPS_CELLS):
            for j in range(self.LAM_CELLS):
                eps = log_cell(rng, *self.EPS_BOX, self.EPS_CELLS, i)
                lam = log_cell(rng, *self.LAM_BOX, self.LAM_CELLS, j)
                self.inputs.append({"epsilon": eps, "lambda": lam})

    def params(self, x):
        return self.si.MarketParams(epsilon=x["epsilon"], lam=x["lambda"],
                                    **BASE)

    def run(self, x):
        sol = self.si.solve(self.params(x))
        pol = self.si.policy(sol)
        ys = self.np.linspace(sol.y_grid[0], sol.y_grid[-1], 2001)
        return sol, ys, pol(ys)

    def check(self, x, out):
        np = self.np
        sol, ys, us = out
        eps = x["epsilon"]
        answers = {"beta": sol.beta, "y_minus": sol.y_minus,
                   "y_plus": sol.y_plus}
        bad = []
        if not 0.016 <= sol.beta <= 0.025:
            bad.append(f"beta {sol.beta!r} outside [0.016, 0.025]")
        buy = eps / (1.0 + eps * sol.y_minus)
        sell = -eps / (1.0 - eps * sol.y_plus)
        for y, band in ((sol.y_minus, buy), (sol.y_plus, sell)):
            if not abs(sol.q_at(y) - band) <= 1e-8:
                bad.append(f"value matching {sol.q_at(y) - band!r} at y={y!r}")
        if not np.all(sol.y_grid * sol.q_grid < 1.0):
            bad.append("q*y >= 1 on the grid")
        ratio = sol.diagnostics.get("residual_ratio_half_budget", math.inf)
        if not ratio <= 1.0:
            bad.append(f"residual_ratio_half_budget {ratio!r} > 1")
        inside = (ys >= sol.y_minus) & (ys <= sol.y_plus)
        if not (np.all(us[ys < sol.y_minus] >= 0.0) and np.all(us[inside] == 0.0)
                and np.all(us[ys > sol.y_plus] <= 0.0)
                and us[0] > 0.0 and us[-1] < 0.0):
            bad.append("turnover sign structure broken")
        return answers, bad


class Expansion(Workload):
    """find_z_minus, the 201-point compare window, near_boundary_slope."""

    name = "expansion"
    EPSILON = 1e-3
    K_BOX, K_CELLS = (0.1, 100.0), 8

    def __init__(self, si, np, seed: int):
        self.si, self.np = si, np
        rng = random.Random(seed)
        self.inputs = [{"K": log_cell(rng, *self.K_BOX, self.K_CELLS, i)}
                       for i in range(self.K_CELLS)]

    def run(self, x):
        si = self.si
        eps = self.EPSILON
        params = si.MarketParams(epsilon=eps, lam=x["K"] * eps ** (4.0 / 3.0),
                                 **BASE)
        inputs = si.AsymptoticInputs.from_params(params)
        sol = si.find_z_minus(inputs)
        # The window `compare` uses: y* +- 3 eps^(1/3), 201 points.
        half = 3.0 * eps ** (1.0 / 3.0)
        y_star = params.merton_weight
        ys = self.np.linspace(max(1e-6, y_star - half),
                              min(1.0 - 1e-6, y_star + half), 201)
        us = [si.asymptotic_policy(float(y), sol) for y in ys]
        return inputs, sol, ys, us, si.near_boundary_slope(sol)

    def check(self, x, out):
        inputs, sol, ys, us, slopes = out
        answers = {"z_minus": sol.z_minus}
        bad = []
        if not sol.z_minus < 0.0:
            bad.append(f"z_minus {sol.z_minus!r} not negative")
        else:
            residual = self.si.r_buy(sol.z_minus, sol.l, inputs) - 1.0
            if not abs(residual) <= 1e-6:
                bad.append(f"|r_buy(z_minus, l) - 1| = {abs(residual)!r}")
        if not all(math.isfinite(u) for u in us):
            bad.append("non-finite asymptotic turnover")
        if not all(math.isfinite(s) for s in slopes):
            bad.append("non-finite near-boundary slope")
        return answers, bad


class MonteCarlo(Workload):
    """simulate_paths + estimate_esr for three tabulated policies."""

    name = "montecarlo"
    EPSILON, LAMBDA = 1e-3, 1e-4
    PATHS, DT, HORIZON, BURN_IN = 16384, 1e-3, 1.0, 0.25
    POLICIES = ("optimal", "perturbed", "hold")

    def __init__(self, si, np, seed: int):
        self.si, self.np = si, np
        self.params = si.MarketParams(epsilon=self.EPSILON, lam=self.LAMBDA,
                                      **BASE)
        self.sol = si.solve(self.params)
        self.tables = {
            "optimal": si.policy(self.sol).tabulated(),
            "perturbed": si.TradingPolicy(self.sol, 2.0).tabulated(),
            "hold": None,
        }
        self.inputs = [{"policy": name, "sim_seed": seed * 16 + i}
                       for i, name in enumerate(self.POLICIES)]

    def run(self, x):
        cfg = self.si.SimConfig(horizon_T=self.HORIZON, dt=self.DT,
                                n_paths=self.PATHS, seed=x["sim_seed"],
                                burn_in_T=self.BURN_IN)
        ensemble = self.si.simulate_paths(self.params, self.tables[x["policy"]],
                                          cfg)
        return self.si.estimate_esr(ensemble, self.params.gamma, cfg)

    def check(self, x, report):
        beta = self.sol.beta
        est, err = report.esr_estimate, report.esr_stderr
        answers = {"esr_estimate": est, "esr_stderr": err}
        bad = []
        if not (math.isfinite(est) and err > 0.0):
            bad.append(f"estimate {est!r} +- {err!r} not usable")
        elif x["policy"] == "optimal":
            if not abs(est - beta) <= 4.0 * err:
                bad.append(f"optimal rate {est!r} vs beta {beta!r} "
                           f"> 4 stderr ({err!r})")
        elif not est <= beta + 4.0 * err:
            bad.append(f"{x['policy']} rate {est!r} beats beta {beta!r} "
                       f"by more than 4 stderr ({err!r})")
        return answers, bad

    def reference_answers(self, answers):
        """The solve behind the tables has fixed inputs: it is checked
        against its reference on every seed."""
        return [({"epsilon": self.EPSILON, "lambda": self.LAMBDA},
                 {"beta": self.sol.beta, "y_minus": self.sol.y_minus,
                  "y_plus": self.sol.y_plus})]


WORKLOADS = {w.name: w for w in (Exact, Expansion, MonteCarlo)}


def reference_failures(workload, seed, answers) -> list:
    """Compare answers to the recorded ones wherever the inputs match exactly.

    On the default seed every recorded input must be seen, so a change in
    input generation cannot skip the comparison. Returns one message per
    input that disagrees.
    """
    try:
        with open(REFERENCES, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload, [])
    except (OSError, ValueError) as exc:
        return [f"references unreadable: {exc}"]
    seen = {json.dumps(x, sort_keys=True): a for x, a in answers}
    bad = []
    for ref in recorded:
        got = seen.get(json.dumps(ref["inputs"], sort_keys=True))
        if got is None:
            if seed == DEFAULT_SEED:
                bad.append(f"{ref['inputs']}: default-seed input not generated")
            continue
        off = [f"{key} {got[key]!r} vs reference {ref[key]!r} (tol {tol:g})"
               for key, tol in REF_TOL.items()
               if key in ref and not abs(got[key] - ref[key]) <= tol]
        if off:
            bad.append(f"{ref['inputs']}: " + "; ".join(off))
    return bad


def host_probe(np) -> float:
    """Seconds for a fixed mix of scalar Python and numpy work, timed after
    every operation: it measures how fast the host runs at that moment."""
    t0 = time.perf_counter()
    q = 0.5
    for i in range(60000):
        q = q * 0.999 + 0.001 / (1.0 + q * q) + math.sin(i * 1e-3) * 1e-6
    knots = np.linspace(0.0, 1.0, 8193)
    values = np.sin(knots)
    y = np.linspace(0.0, 1.0, 16384)
    for _ in range(40):
        y = np.clip(y + 1e-4 * (np.interp(y, knots, values) - y), 0.0, 1.0)
    return time.perf_counter() - t0


def timed_pass(w, tracer=None, probes=None):
    """Run every input once; return (op seconds, answers, failures).

    ``answers`` pairs each input with its answers (None if the operation
    raised); ``failures`` has one message per failed operation. With a
    ``probes`` list, a host probe runs after each operation.
    """
    times, answers, failures = [], [], []
    for i, x in enumerate(w.inputs):
        with tracer.operation(i) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = w.run(x)
            except Exception as exc:  # counted as a failed operation
                out = exc
            times.append(time.perf_counter() - t0)
        if isinstance(out, Exception):
            failures.append(f"{x}: raised {type(out).__name__}: {out}")
            answers.append((x, None))
            continue
        got, bad = w.check(x, out)
        answers.append((x, got))
        if bad:
            failures.append(f"{x}: " + "; ".join(bad))
        if probes is not None:
            probes.append(host_probe(w.np))
    return times, answers, failures


def run_times(pass_times) -> tuple[float, float]:
    """(run_s, op_p50_s) from per-pass operation times: the sum over the
    operations of each one's median over the passes, and the median of all
    operation times."""
    run_s = sum(statistics.median(t) for t in zip(*pass_times))
    return run_s, statistics.median(t for times in pass_times for t in times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="CSV file for the spans")
    ap.add_argument("--record-references", action="store_true",
                    help="write the default-seed answers to references.json")
    args = ap.parse_args(argv)
    if args.record_references:
        return record_references()
    if args.workload is None:
        ap.error("--workload is required")

    t0 = time.perf_counter()
    import numpy as np
    import spreadimpact as si
    import spreadimpact.cli  # noqa: F401  (imported by every CLI run)
    import_s = time.perf_counter() - t0

    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(si)
        with tracer.operation("setup"):
            w = cls(si, np, args.seed)
        tracer.uninstall()
    else:
        w = cls(si, np, args.seed)
    ready = time.monotonic()
    setup_rss_mb = _peak_rss_mb()
    setup_probe_s = statistics.median(host_probe(np) for _ in range(3))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_rss_mb": setup_rss_mb,
                          "setup_probe_s": setup_probe_s}))
        return 0

    passes, op_times, failures = [], [], []  # op_times: one list per pass
    probes = []
    first_answers = None
    begin = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes over the same
        # inputs, two of each: the untraced ones are the overhead baseline.
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(si)
        t_pass = time.perf_counter()
        times, answers, bad = timed_pass(w, tracer if traced else None, probes)
        passes.append(time.perf_counter() - t_pass)
        if traced:
            tracer.uninstall()
        op_times.append(times)
        failures.extend(bad)
        if first_answers is None:
            first_answers = answers
            failures.extend(reference_failures(
                cls.name, args.seed, w.reference_answers(answers)))
        if tracer is not None:
            if len(passes) == 4:
                break
        elif time.perf_counter() - begin + passes[-1] > args.seconds:
            break

    run_s, op_p50_s = run_times(op_times[0::2] if tracer else op_times)
    result = {
        "workload": cls.name,
        "seed": args.seed,
        "trace": args.trace,
        "ready": ready,
        "import_s": import_s,
        "run_s": run_s,
        "op_p50_s": op_p50_s,
        "pass_s": passes,
        "op_s": op_times,
        "probe_s": probes,
        "setup_probe_s": setup_probe_s,
        "attempted": sum(map(len, op_times)),
        "failed": min(sum(map(len, op_times)), len(failures)),
        "failures": failures[:20],
        "answers": [dict(x, **(a or {})) for x, a in first_answers],
        "reference_answers": [dict(x, **a) for x, a
                              in w.reference_answers(first_answers)],
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "scipy": _scipy_version()},
    }
    if tracer is not None:
        layers = tracer.summary()
        layers["setup.import_s"] = import_s
        layers["montecarlo.esr_stderr"] = next(
            (a["esr_stderr"] for x, a in first_answers
             if a and x.get("policy") == "optimal"), 0.0)
        traced_run_s = run_times(op_times[1::2])[0]
        layers["trace.overhead_s"] = traced_run_s - run_s
        layers["trace.overhead_frac"] = (traced_run_s - run_s) / run_s
        result["per_layer"] = layers
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scipy_version() -> str:
    try:
        import scipy
    except ImportError:
        return "absent"
    return scipy.__version__


def record_references() -> int:
    """Record the default-seed answers of every workload at this commit."""
    import numpy as np
    import spreadimpact as si
    doc = {}
    for cls in WORKLOADS.values():
        w = cls(si, np, DEFAULT_SEED)
        times, answers, bad = timed_pass(w)
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        doc[cls.name] = [
            {"inputs": x, **{k: a[k] for k in REF_TOL if k in a}}
            for x, a in w.reference_answers(answers)
        ]
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
