"""Benchmark of the spreadimpact package: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Each measurement runs the workload in its own fresh, single-threaded
process (``workload.py``). With ``--trace 0`` the command prints every
end-to-end metric of BENCHMARK.json; ``setup_s`` is the median over five
fresh processes, from the start of the interpreter until work can begin.
Times are divided by the host's slowdown, which a fixed probe measures
during the run; the raw wall times are printed next to them.
With ``--trace 1`` one process alternates untraced and traced passes over
the same inputs, two of each, and the command prints the per-layer metrics. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full report, also written to
``perfbench/out/``. The exit code is 1 when any output check fails and 2
when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("exact", "expansion", "montecarlo")
# Fresh processes that set up without running, on top of the measuring one.
EXTRA_SETUPS = 4
CHILD_TIMEOUT_S = 150
# Median time of workload.host_probe on the host NOTES.md describes, at its
# usual speed. Reported times are in seconds of that host at that speed.
PROBE_REF_S = 0.023


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    """What a result was measured on; results from different machines are
    never compared (see compare.py)."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)),
            "arch": platform.machine(), "python": platform.python_version()}


def child(args: list, timeout: float) -> tuple[float, dict]:
    """Run workload.py in a fresh process; return its start time and result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return started, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            spec: dict) -> dict:
    """Run one workload and return its report."""
    OUT.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)]
    spans = OUT / f"spans-{workload}-seed{seed}.csv"
    setups, setup_probes, setup_rss = [], [], []

    def setup_only():
        started, done = child(common + ["--setup-only"], CHILD_TIMEOUT_S)
        setups.append(done["ready"] - started)
        setup_probes.append(done["setup_probe_s"])
        setup_rss.append(done["setup_rss_mb"])

    # Set-up samples straddle the measuring process, so that their median
    # spans more of the host's speed drift than back-to-back samples would.
    extra = 0 if trace else EXTRA_SETUPS
    for _ in range(extra // 2):
        setup_only()
    measuring = ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        measuring += ["--spans", str(spans)]
    started, res = child(common + measuring, CHILD_TIMEOUT_S)
    setups.append(res["ready"] - started)
    setup_probes.append(res["setup_probe_s"])
    setup_rss.append(res["setup_rss_mb"])
    for _ in range(extra - extra // 2):
        setup_only()

    attempted, failed = res["attempted"], res["failed"]
    # Times are divided by the host's slowdown, measured by the probe that
    # runs after each operation and after each set-up (see NOTES.md).
    slowdown = statistics.median(res["probe_s"]) / PROBE_REF_S
    values = {
        "setup_s": statistics.median(
            wall * PROBE_REF_S / probe
            for wall, probe in zip(setups, setup_probes)),
        "run_s": res["run_s"] / slowdown,
        "op_p50_s": res["op_p50_s"] / slowdown,
        "setup_rss_mb": statistics.median(setup_rss),
        "setup_wall_s": statistics.median(setups),
        "run_wall_s": res["run_s"],
        "op_p50_wall_s": res["op_p50_s"],
        "host_slowdown": slowdown,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if trace:
        values = res["per_layer"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "machine": dict(machine(), **res["versions"]),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "op_samples": len(res["op_s"][0]), "passes": len(res["pass_s"]),
        "setup_samples_s": setups,
        "pass_s": res["pass_s"],
        "op_s": res["op_s"],
        "probe_s": res["probe_s"],
        "setup_probe_s": setup_probes,
        "metrics": metrics,
        "all_metrics": values,
        "answers": res["answers"],
        "reference_answers": res["reference_answers"],
        "failures": res["failures"],
    }
    if trace:
        report["missing"] = res["missing"]
        report["spans"] = str(spans.relative_to(ROOT))
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    return report


def unit(name: str) -> str:
    """Unit of a metric that BENCHMARK.json does not list."""
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ns_per_path_step"):
        return "ns"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "coverage", "slowdown")):
        return "frac"
    return "count"


def print_table(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} "
          f"trace={report['trace']}: {report['attempted']} operations, "
          f"{report['failed']} failed (ops_failed_frac "
          f"{report['ops_failed_frac']:.3g}), {report['passes']} passes")
    units = {m: v["unit"] for m, v in report["metrics"].items()}
    for name, value in report["all_metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {units.get(name) or unit(name)}")
    answers = report["answers"] + [a for a in report["reference_answers"]
                                   if a not in report["answers"]]
    for a in answers:
        print("  answer " + ", ".join(f"{k}={v!r}" for k, v in a.items()))
    for msg in report["failures"]:
        print(f"  FAILED {msg}")
    if report.get("missing"):
        print(f"  missing layers: {', '.join(report['missing'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spreadimpact" / "__init__.py").is_file():
        print(f"error: no spreadimpact sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [measure(w, args.seed, args.seconds, args.trace, spec)
                   for w in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for report in reports:
        print_table(report)
    if len(reports) == 1:
        final = reports[0]
        print(json.dumps(final))
        metrics = final["metrics"]
    else:
        print(json.dumps(reports))
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
