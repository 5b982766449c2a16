#!/usr/bin/env python3
"""Covariate-benefit benchmark on the seeded two-period synthetic.

Runs the full pipeline once per seed, with and without spectral
covariates, and prints a per-seed table of 12-step RMSE plus the
lag-72 residual structure. Writes a summary JSON next to the runs; a
lag the run skipped is null there and n/a in the table.
"""

import argparse
import csv
import json
import time
from pathlib import Path

import numpy as np

from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.synthetic import SyntheticSpec


def horizon_rmse(run_dir: Path, which: str, horizon: str = "12") -> float:
    payload = json.loads((run_dir / f"metrics_{which}.json").read_text())
    return payload["horizons"][horizon]["rmse"]


def corr_at(run_dir: Path, which: str, lag: int) -> float | None:
    """Mean |residual correlation| at ``lag``; None when the run skipped the
    lag (the test split is too short for it)."""
    with open(run_dir / f"residual_corr_{which}_test.csv") as fh:
        table = {int(r["lag"]): float(r["mean_abs_corr"]) for r in csv.DictReader(fh)}
    return table.get(lag)


def cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeded repetitions")
    parser.add_argument("--nodes", type=int, default=SyntheticSpec.nodes)
    parser.add_argument("--steps", type=int, default=SyntheticSpec.steps)
    parser.add_argument("--noise", type=float, default=0.1)
    parser.add_argument("--out", default="runs/benchmark", help="output root directory")
    args = parser.parse_args()

    root = Path(args.out)
    rows = []
    start = time.perf_counter()
    for seed in range(1, args.seeds + 1):
        cfg = PipelineConfig(
            synthetic=SyntheticSpec(args.nodes, args.steps, noise=args.noise, seed=seed),
            output_dir=str(root / f"seed{seed}"),
            seed=seed,
        )
        run_dir = run_pipeline(cfg)
        rows.append({
            "seed": seed,
            "rmse12_with": horizon_rmse(run_dir, "with"),
            "rmse12_without": horizon_rmse(run_dir, "without"),
            "corr72_with": corr_at(run_dir, "with", 72),
            "corr72_without": corr_at(run_dir, "without", 72),
        })
        r = rows[-1]
        print(f"seed {seed}: RMSE12 {r['rmse12_with']:.4f} (with) vs "
              f"{r['rmse12_without']:.4f} (without)  "
              f"corr72 {cell(r['corr72_with'])} vs {cell(r['corr72_without'])}")

    mean_with = float(np.mean([r["rmse12_with"] for r in rows]))
    mean_without = float(np.mean([r["rmse12_without"] for r in rows]))
    improvement = 1.0 - mean_with / mean_without
    elapsed = time.perf_counter() - start
    print(f"\nmean 12-step RMSE: {mean_with:.4f} with covariates, "
          f"{mean_without:.4f} without ({improvement:.1%} better), {elapsed:.1f}s total")

    summary = {
        "rows": rows,
        "mean_rmse12_with": mean_with,
        "mean_rmse12_without": mean_without,
        "improvement": improvement,
        "elapsed_seconds": elapsed,
    }
    root.mkdir(parents=True, exist_ok=True)
    (root / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    )
    print(f"summary written to {root / 'summary.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
