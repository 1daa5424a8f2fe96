#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

For every workload, runs `BENCHMARK.json`'s command once per seed and
prints, per metric, the median, the quartiles and the spread (interquartile
distance over the median, as `statistics.quantiles(values, n=4)` gives the
quartiles) next to the metric's bound. `--out` also writes the summary, with
the build and host facts of the first run, as JSON.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 1]
        [--seconds 30] [--out summary.json]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    facts = next((json.loads(l[6:]) for l in lines if l.startswith("facts ")), {})
    problems = [l for l in lines if l.startswith("problem ")]
    return json.loads(lines[-1]), facts, problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out")
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": a.seeds, "seconds": a.seconds, "trace": a.trace, "workloads": {}}
    for workload in a.workloads.split(","):
        values, facts = {}, None
        for seed in seeds(a.seeds):
            result, run_facts, problems = run(bench["command"], workload, seed, a.seconds, a.trace)
            facts = facts or run_facts
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            for line in problems:
                print("  " + line)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, v in values.items():
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": v}
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "ok" if spread < bound / 3 else "within bound" if spread <= bound else "OVER BOUND")
            print(f"  {name:32s} median {median:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}  {verdict}")
        summary["workloads"][workload] = {"facts": facts, "metrics": rows}
    if a.out:
        Path(a.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
