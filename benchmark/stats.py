#!/usr/bin/env python3
"""Summarises repeated benchmark runs and checks them against BENCHMARK.json.

usage: stats.py BENCHMARK.json RUN_DIR [--baseline SUMMARY.json]

RUN_DIR holds <workload>.<rep>.json files, each the JSON line one untraced
run printed last. For every workload and end-to-end metric this prints the
median, the quartiles (statistics.quantiles, n=4), the quartile spread
(Q3-Q1)/median and the max/min spread (max-min)/median, and writes the
medians to RUN_DIR/summary.json.

Gates (exit 1 when any fails):
  - every run is correct with no failed op;
  - every metric named in BENCHMARK.json end_to_end is present;
  - the quartile spread of every end-to-end metric is within its bound;
  - with --baseline (a summary.json of an earlier set), no median is worse
    than the baseline's by more than its bound.
"""
import json
import statistics
import sys
from pathlib import Path


def main(argv):
    if len(argv) not in (3, 5) or (len(argv) == 5 and argv[3] != "--baseline"):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[1]).read_text())
    run_dir = Path(argv[2])
    baseline = json.loads(Path(argv[4]).read_text()) if len(argv) == 5 else None
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    problems = []
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [json.loads(p.read_text().strip().splitlines()[-1])
                for p in sorted(run_dir.glob(f"{workload}.*.json"))]
        if not runs:
            continue
        for i, run in enumerate(runs):
            if not run["correct"] or run["failed"]:
                problems.append(f"{workload} run {i}: correct={run['correct']} "
                                f"failed={run['failed']}")
        print(f"{workload}  ({len(runs)} runs)")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'max/min':>9}{'bound':>7}")
        summary[workload] = {}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"]
                      for r in runs if name in r["metrics"]]
            if len(values) != len(runs):
                problems.append(f"{workload}: {name} missing from some runs")
                continue
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            iqr = (q3 - q1) / med if med else 0.0
            span = (max(values) - min(values)) / med if med else 0.0
            flag = ""
            if iqr > m["bound"]:
                flag = "  SPREAD > BOUND"
                problems.append(f"{workload}: {name} quartile spread "
                                f"{iqr:.2%} > bound {m['bound']:.0%}")
            elif iqr > m["bound"] / 3:
                flag = "  (spread > bound/3: too little margin)"
            if baseline and name in baseline.get(workload, {}):
                base = baseline[workload][name]
                worse = (med - base) / base if m["better"] == "lower" \
                    else (base - med) / base
                if base and worse > m["bound"]:
                    flag += f"  WORSE THAN BASELINE by {worse:.2%}"
                    problems.append(f"{workload}: {name} median {med:.6g} is "
                                    f"{worse:.2%} worse than {base:.6g}")
            print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{iqr:>9.2%}{span:>9.2%}{m['bound']:>7.0%}{flag}")
            summary[workload][name] = med
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for p in problems:
        print("FAIL:", p)
    print("gate:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
