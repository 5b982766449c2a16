"""Command-line entry point.

Subcommands:
    synth     generate a synthetic CSV dataset
    fit       mode decomposition plus sparse selection only
    embed     fit, then export the covariate table
    forecast  full with/without-covariates comparison and diagnostics
    diagnose  residual analysis on externally supplied predictions

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .pipeline import (
    PipelineConfig,
    config_from_manifest,
    convert_options,
    diagnose_residuals,
    load_csv,
    parse_config_file,
    run_pipeline,
    write_signal_csv,
)
from .synthetic import SyntheticSpec, generate_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    # Values stay text here: PipelineConfig.from_mapping converts and
    # checks them together with config-file and manifest values.
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--manifest", help="rerun from a previous run's manifest.json")
    parser.add_argument("--input", dest="input_csv", help="input CSV (time-major)")
    parser.add_argument("--out", dest="output_dir", help="run output directory")
    parser.add_argument("--seed", help="default synth_seed; with --input, no result depends on it")
    parser.add_argument("--tau", help="Hankel block rows (default: auto)")
    parser.add_argument("--rank", help="rank policy, 'fixed:R' or 'cep:F'")
    parser.add_argument("--target-modes", dest="target_modes",
                        help="conjugate groups to keep; a pair and a real mode count once")
    parser.add_argument("--p", help="history window length")
    parser.add_argument("--q", help="forecast horizon")
    parser.add_argument("--split", help="train,val,test ratios, e.g. 0.7,0.1,0.2")
    parser.add_argument("--l2", help="ridge penalty")
    parser.add_argument("--lags", help="diagnostics lags, e.g. 0,72,504")
    parser.add_argument("--acf-max-lag", dest="acf_max_lag")
    parser.add_argument("--step-seconds", dest="step_seconds")
    # inline synthetic source (alternative to --input)
    for f in fields(SyntheticSpec):
        parser.add_argument(f"--synth-{f.name}", dest=f"synth_{f.name}")


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    mapping: dict = {}
    if args.manifest:
        base = config_from_manifest(args.manifest)
        mapping.update(base.to_mapping())
    if args.config:
        mapping.update(parse_config_file(args.config))
    for key, value in vars(args).items():
        if key not in ("command", "config", "manifest") and value is not None:
            mapping[key] = value
    return PipelineConfig.from_mapping(mapping)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmdembed",
        description="Spectral time embeddings for forecasting: fit, export, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV dataset")
    for f in fields(SyntheticSpec):
        p_synth.add_argument(f"--{f.name}", help=f"default {f.default}")
    p_synth.add_argument("--out", required=True, help="destination CSV")

    for name, help_text in (
        ("fit", "mode decomposition and sparse selection"),
        ("embed", "fit and export the covariate table"),
        ("forecast", "full with/without-covariates comparison"),
    ):
        p_cmd = sub.add_parser(name, help=help_text)
        _add_pipeline_flags(p_cmd)

    p_diag = sub.add_parser("diagnose", help="residual analysis on supplied predictions")
    p_diag.add_argument("--predictions", required=True, help="CSV of predictions (time-major)")
    p_diag.add_argument("--actuals", required=True, help="CSV of observed values, same shape")
    # the pipeline's own defaults, which its test-split diagnostics use
    p_diag.add_argument("--lags", default=PipelineConfig.lags)
    p_diag.add_argument("--acf-max-lag", default=PipelineConfig.acf_max_lag, dest="acf_max_lag")
    p_diag.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    options = {k: v for k, v in vars(args).items() if k not in ("command", "out") and v is not None}
    spec = SyntheticSpec(**convert_options(SyntheticSpec, options))
    write_signal_csv(generate_synthetic(spec), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_complete_csv(path):
    """load_csv, refusing blank cells: a residual needs both values."""
    values, node_ids = load_csv(path)
    blank = np.argwhere(np.isnan(values.T))
    if blank.size:
        t, i = blank[0]
        raise DataError(f"{path}: row {t + 2}, column {node_ids[i]!r}: blank cell; "
                        "diagnose needs complete files")
    return values, node_ids


def _cmd_diagnose(args: argparse.Namespace) -> int:
    options = convert_options(PipelineConfig, {"lags": args.lags, "acf_max_lag": args.acf_max_lag})
    preds, _ = _load_complete_csv(args.predictions)
    actual, node_ids = _load_complete_csv(args.actuals)
    if preds.shape != actual.shape:
        raise DataError(f"shape mismatch: predictions {preds.shape} vs actuals {actual.shape}")
    out = diagnose_residuals(
        (actual - preds).T, options["lags"], options["acf_max_lag"], args.out, column_ids=node_ids,
    )
    print(f"diagnostics written to {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        cfg = _pipeline_config(args)
        out = run_pipeline(cfg, until=args.command)
        print(f"run complete: {out}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileExistsError, NotADirectoryError, IsADirectoryError) as exc:
        # inputs are read through Data- or ConfigErrors: only an --out gets here
        print(f"config error: unusable --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:  # pragma: no cover - unexpected crash path
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
