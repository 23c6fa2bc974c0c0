"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads cli,library --seeds 1-10 [--trace 1] [--out runs.json]

Runs go one after another, never in parallel. For every workload and metric
it takes the median of the runs and their quartiles, as
``statistics.quantiles(values, n=4)`` gives them, and prints the quartile
distance as a share of the median next to the metric's bound in
BENCHMARK.json. ``--out`` writes that summary, every run's result line and
the provenance the first run recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary and every run here (JSON)")
    args = parser.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    report: dict = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
                    "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            began = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - began
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            if "provenance" not in report:
                path = os.path.join(ROOT, ".bench_out", f"run-{workload}-trace{args.trace}.json")
                with open(path, encoding="utf-8") as fh:
                    report["provenance"] = json.load(fh)["provenance"]
            shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                             f"{result['metrics'][m['name']]['unit']}" for m in metrics
                             if "bound" in m or m["name"].startswith("trace."))
            print(f"{workload} seed {seed} ({wall:.1f} s): correct={result['correct']} error_rate="
                  f"{result['failed'] / result['attempted']:.3g} ({result['attempted']} jobs) "
                  f"{shown}", flush=True)
        summary = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in metrics}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for m in metrics:
            s = summary[m["name"]]
            if "bound" not in m and not s["median"]:
                continue
            verdict = "" if "bound" not in m else (
                f"bound {m['bound']}  {'ok' if s['spread'] < m['bound'] / 3 else 'WIDE'}"
                " (below a third of the bound wanted)")
            print(f"  {workload:<10} {m['name']:<28} median {s['median']:.6g} {m['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.2%}  {verdict}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
