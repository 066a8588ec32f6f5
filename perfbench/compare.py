"""Compare two sets of benchmark reports, metric by metric and workload by
workload, against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*-trace0.json`` reports that run.py writes to
``perfbench/out/`` (copy that directory aside between the two commits). For
every end-to-end metric the command prints both medians, the change, and a
verdict: ``regressed`` when the new median is worse by more than the bound,
``unresolved`` when either side's spread (interquartile range over median)
is wider than the bound, ``ok`` otherwise. It refuses, with exit code 2, to
compare reports measured on different machines or library versions, and
exits 1 when a metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> list:
    reports = [json.loads(p.read_text())
               for p in sorted(Path(directory).glob("*-trace0.json"))]
    if not reports:
        raise SystemExit(f"no *-trace0.json reports in {directory}")
    return reports


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    machines = {json.dumps(r["machine"], sort_keys=True) for r in base + new}
    if len(machines) > 1:
        print("refusing to compare results from different machines:",
              *sorted(machines), sep="\n  ", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    regressed = False
    print(f"{'workload':11s} {'metric':13s} {'base':>10s} {'new':>10s} "
          f"{'change':>8s} {'n':>5s}  verdict")
    for workload in sorted({r["workload"] for r in base}):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["all_metrics"][name] for r in base
                 if r["workload"] == workload]
            b = [r["all_metrics"][name] for r in new
                 if r["workload"] == workload]
            if not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            if max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict, regressed = "regressed", True
            else:
                verdict = "ok"
            print(f"{workload:11s} {name:13s} {ma:10.4g} {mb:10.4g} "
                  f"{change:+8.1%} {len(a):2d}/{len(b):<2d}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
