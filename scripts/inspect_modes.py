#!/usr/bin/env python3
"""Fit a decomposition on a CSV and print the dominant-mode table.

The fit is a ``dmdembed embed`` run into a temporary directory, and
everything printed is read from that run's files: the manifest, the
decomposition and the selection path. The rows marked kept are the
modes whose eigenvalues the manifest records as selected.

Shows, per mode: period in steps and in hours at the config's
``step_seconds``, growth rate, and amplitude share; then the selection
path: the period of the group each step added and the fit loss after
it. Optionally renders the real covariate channels of the run's
embedding as an SVG.
"""

import argparse
import csv
import json
import tempfile

import numpy as np

from dmdembed.dmd import mode_frequency
from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.svgplot import line_chart, write_svg

# the run's options; values and defaults are PipelineConfig's
FIT_OPTIONS = ("rank", "target_modes", "tau", "step_seconds")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("input", help="time-major CSV")
    for name in FIT_OPTIONS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name)
    parser.add_argument("--svg", default=None, help="optional covariate-channel SVG")
    parser.add_argument("--span", type=int, default=1024,
                        help="steps to render in the SVG (at most the series length)")
    args = parser.parse_args()
    if args.span < 1:
        parser.error(f"--span must be at least 1, got {args.span}")

    options = {name: getattr(args, name) for name in FIT_OPTIONS if getattr(args, name) is not None}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = PipelineConfig.from_mapping({**options, "input_csv": args.input, "output_dir": tmp})
        run_dir = run_pipeline(cfg, until="embed")
        resolved = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["resolved"]
        fit = json.loads((run_dir / "decomposition.json").read_text(encoding="utf-8"))
        with open(run_dir / "spdmd_path.csv", encoding="utf-8", newline="") as fh:
            path = list(csv.DictReader(fh))
        span = min(args.span, resolved["n_steps"])
        kept_groups = resolved["selected_pairs"]
        # columns re_1 .. re_r follow the step column
        channels = np.loadtxt(run_dir / "embedding.csv", delimiter=",", skiprows=1, ndmin=2,
                              max_rows=span, usecols=range(1, kept_groups + 1))

    eigenvalues = np.array([complex(re, im) for re, im in fit["eigenvalues"]])
    amplitudes = np.array([complex(re, im) for re, im in fit["amplitudes"]])
    kept = [pair in resolved["eigenvalues"] for pair in fit["eigenvalues"]]
    total = np.sum(np.abs(amplitudes))
    print(f"training steps {resolved['boundaries'][0]} of {resolved['n_steps']}, "
          f"rank {fit['rank']}, tau {fit['tau']}, kept {kept_groups} pair(s)")
    print(f"{'mode':>4} {'period[steps]':>14} {'period[h]':>10} {'growth':>9} {'amp share':>10} {'kept':>5}")
    for i, lam in enumerate(eigenvalues):
        freq = mode_frequency(lam)
        period = f"{freq.period_steps:.2f}" if freq.period_steps else "-"
        hours = f"{freq.period_steps * cfg.step_seconds / 3600:.2f}" if freq.period_steps else "-"
        share = np.abs(amplitudes[i]) / total
        print(f"{i:>4} {period:>14} {hours:>10} {freq.growth_rate:>9.2e} "
              f"{share:>10.3f} {str(kept[i]):>5}")
    print("selection path: the group each step added and the fit loss after it")
    print(f"{'step':>4} {'period[steps]':>14} {'fit loss':>12}")
    for row in path:
        period_steps = float(row["period_steps"])
        period = f"{period_steps:.2f}" if np.isfinite(period_steps) else "-"
        print(f"{int(row['step']):>4} {period:>14} {float(row['fit_loss']):>12.6g}")

    if args.svg:
        series = [(f"re_{j + 1}", channels[:, j]) for j in range(kept_groups)]
        write_svg(line_chart(np.arange(span), series, "covariate channels (real parts)"), args.svg)
        print(f"wrote {args.svg}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
