#!/usr/bin/env python3
"""Steadiness of the benchmark: two alternating sets of runs of every workload.

    python3 perfbench/steadiness.py --runs 5

Runs ``run.py`` once per (set, workload, repetition), each with its own
seed, alternating which set goes first in each repetition. For every
end-to-end metric it prints both sets' medians and quartiles, the
spread (quartile distance over median) of each set and of all runs
together, and the drift of set B's median from set A's in the worse
direction, beside the bound in BENCHMARK.json. Raw results go to
perfbench/out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(spec: dict, results: dict) -> None:
    for wl in spec["workloads"]:
        name = wl["name"]
        sets = results[name]
        shares = {s: f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
                  for s, runs in sets.items()}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        print(f"\n{name}: runs A={len(sets['A'])} B={len(sets['B'])}  failed A {shares['A']}, "
              f"B {shares['B']}  correct {correct}")
        print(f"  {'metric':18s} {'unit':4s} {'bound':>5s} | {'med A':>9s} {'q1 A':>9s} "
              f"{'q3 A':>9s} {'sprd A':>6s} | {'med B':>9s} {'q1 B':>9s} {'q3 B':>9s} "
              f"{'sprd B':>6s} | {'drift':>6s} {'sprd all':>8s}")
        for metric in spec["end_to_end"]:
            m = metric["name"]
            a = [r["metrics"][m]["value"] for r in sets["A"]]
            b = [r["metrics"][m]["value"] for r in sets["B"]]
            med_a, q1_a, q3_a, s_a = spread(a)
            med_b, q1_b, q3_b, s_b = spread(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = sign * (med_b - med_a) / med_a
            s_all = spread(a + b)[3]
            print(f"  {m:18s} {metric['unit']:4s} {metric['bound']:5.2f} | {med_a:9.4g} "
                  f"{q1_a:9.4g} {q3_a:9.4g} {s_a:6.3f} | {med_b:9.4g} {q1_b:9.4g} "
                  f"{q3_b:9.4g} {s_b:6.3f} | {drift:+6.3f} {s_all:8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = {w["name"]: {"A": [], "B": []} for w in spec["workloads"]}
    seed = 1
    start = time.perf_counter()
    for i in range(args.runs):
        for set_name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            for wl in spec["workloads"]:
                result = run_once(wl["name"], seed, spec["run_seconds"])
                result["seed"] = seed
                results[wl["name"]][set_name].append(result)
                print(f"[{time.perf_counter() - start:7.1f}s] set {set_name} {wl['name']} "
                      f"seed {seed}: run_s {result['metrics']['run_s']['value']:.3f}", flush=True)
                seed += 1
    out = HERE / "out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    report(spec, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
