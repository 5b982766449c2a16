#!/usr/bin/env python3
"""Fit a decomposition on a CSV and print the dominant-mode table.

The fit is the one ``dmdembed fit`` makes: on the training steps of the
default split, z-scored per node with their own statistics, at the
default tau unless ``--tau`` is given. The rows marked kept are the
modes whose eigenvalues that run records in its manifest.

Shows, per mode: period in steps and hours, growth rate, and amplitude
share; then the selection path: the period of the group each step added
and the fit loss after it. Optionally renders the covariate channels as
an SVG.
"""

import argparse

import numpy as np

from dmdembed.dmd import fit_dmd, mode_frequency
from dmdembed.embedding import build_embedding
from dmdembed.forecaster import split_boundaries, zscore_fit
from dmdembed.hankel import SignalMatrix, build_hankel, default_tau, impute_linear
from dmdembed.pipeline import PipelineConfig, load_csv, parse_rank_policy
from dmdembed.spdmd import gamma_sweep
from dmdembed.svgplot import line_chart, write_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("input", help="time-major CSV")
    parser.add_argument("--rank", default="cep:0.9")
    parser.add_argument("--target-modes", type=int, default=4)
    parser.add_argument("--tau", type=int, default=None)
    parser.add_argument("--step-seconds", type=float, default=900.0)
    parser.add_argument("--svg", default=None, help="optional covariate-channel SVG")
    parser.add_argument("--span", type=int, default=None, help="steps to render in the SVG")
    args = parser.parse_args()

    signal = impute_linear(load_csv(args.input, step_seconds=args.step_seconds))
    b_train, _ = split_boundaries(signal.n_steps, PipelineConfig.split)
    columns = signal.values[:, :b_train]
    normalized = zscore_fit(columns, signal.node_ids).transform(columns)
    train = SignalMatrix.from_values(normalized, signal.node_ids, signal.step_seconds)
    tau = args.tau if args.tau is not None else default_tau(train)
    view = build_hankel(train, tau)
    dec = fit_dmd(view, parse_rank_policy(args.rank))
    sweep = gamma_sweep(dec, target_modes=min(args.target_modes, dec.rank))
    kept = sweep.selected.support
    total = np.sum(np.abs(dec.amplitudes))

    print(f"training steps {b_train} of {signal.n_steps}, rank {dec.rank}, tau {tau}, "
          f"kept {len(sweep.path.solutions)} pair(s)")
    print(f"{'mode':>4} {'period[steps]':>14} {'period[h]':>10} {'growth':>9} {'amp share':>10} {'kept':>5}")
    for i, lam in enumerate(dec.eigenvalues):
        freq = mode_frequency(lam, signal.step_seconds)
        period = f"{freq.period_steps:.2f}" if freq.period_steps else "-"
        hours = f"{freq.period_seconds / 3600:.2f}" if freq.period_seconds else "-"
        share = np.abs(dec.amplitudes[i]) / total
        print(f"{i:>4} {period:>14} {hours:>10} {freq.growth_rate:>9.2e} "
              f"{share:>10.3f} {str(bool(kept[i])):>5}")
    print("selection path: the group each step added and the fit loss after it")
    print(f"{'step':>4} {'period[steps]':>14} {'fit loss':>12}")
    for sol in sweep.path.solutions:
        freq = mode_frequency(dec.eigenvalues[sol.group[0]], signal.step_seconds)
        period = f"{freq.period_steps:.2f}" if freq.period_steps else "-"
        print(f"{sol.pair_count:>4} {period:>14} {sol.fit_loss:>12.6g}")

    if args.svg:
        reps = dec.representatives(kept)
        span = args.span or min(signal.n_steps, 1024)
        emb = build_embedding(reps, span)
        series = []
        for j in range(emb.n_modes):
            series.append((f"re_{j + 1}", emb.table[:, j]))
        write_svg(line_chart(np.arange(span), series, "covariate channels (real parts)"),
                  args.svg)
        print(f"wrote {args.svg}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
