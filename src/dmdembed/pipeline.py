"""End-to-end orchestration: ingest, fit, select, embed, forecast, diagnose.

A run executes ingest -> impute -> split -> normalize -> Hankel ->
mode decomposition -> sparse selection -> embedding -> two ridge fits
(with and without covariates) -> metrics and residual diagnostics,
writing every artifact plus a manifest that records all resolved
parameters. A rerun from the manifest alone reproduces the metric and
embedding files byte for byte.
"""

from __future__ import annotations

import csv
import fcntl
import itertools
import json
import math
import os
import re
import resource
import shutil
import time
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import dmd, spdmd, svgplot
from .embedding import build_embedding, export_embedding
from .errors import ConfigError, DataError, check_finite
from .forecaster import (
    STD_FLOOR,
    ForecastWindows,
    MetricsReport,
    RidgeModel,
    ZScore,
    check_split_ratios,
    evaluate,
    fit_ridge,
    make_windows,
    predict,
    split_boundaries,
    zscore_fit,
)
from .hankel import build_hankel, default_tau, impute_linear
from .synthetic import SyntheticSpec, generate_synthetic

# A run writes its files here, inside the run directory, until every stage is done.
STAGING_DIR = ".dmdembed-partial"


@dataclass
class PipelineConfig:
    """Resolved inputs of one run; defaults mirror the evaluation protocol
    (P=Q=12, 70/10/20 chronological split, diagnostics lags 0/72/504)."""

    input_csv: str | None = None
    synthetic: SyntheticSpec | None = None
    step_seconds: float = 900.0
    tau: int | None = None
    rank: str = "cep:0.9"
    target_modes: int = 4
    p: int = 12
    q: int = 12
    split: tuple[float, float, float] = (0.7, 0.1, 0.2)
    l2: float = 1e-3
    lags: tuple[int, ...] = (0, 72, 504)
    acf_max_lag: int = 144
    output_dir: str = "runs/latest"
    seed: int = 0

    def validate(self) -> None:
        """Check every value that does not depend on the data."""
        check_finite(self)
        parse_rank_policy(self.rank)
        check_split_ratios(self.split)
        if self.split[0] <= 0 or self.split[2] <= 0:
            raise ConfigError(f"train and test shares must be positive, got {self.split}")
        if self.step_seconds <= 0:
            raise ConfigError(f"step_seconds must be positive, got {self.step_seconds}")
        check_diagnostics(self.lags, self.acf_max_lag)
        if self.p < 1 or self.q < 1:
            raise ConfigError(f"P and Q must be positive, got {self.p}, {self.q}")
        if self.target_modes < 1:
            raise ConfigError(f"target_modes must be positive, got {self.target_modes}")
        if self.tau is not None and self.tau < 1:
            raise ConfigError(f"tau must be at least 1, got {self.tau}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be nonnegative, got {self.l2}")
        if (self.input_csv is None) == (self.synthetic is None):
            raise ConfigError("exactly one of input_csv or a synthetic spec is required")

    def to_mapping(self) -> dict:
        """Every field by name, and each field of the synthetic spec as
        ``synth_<field>``; tuples become lists."""
        items = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "synthetic"]
        if self.synthetic is not None:
            items += [(f"synth_{f.name}", getattr(self.synthetic, f.name))
                      for f in fields(SyntheticSpec)]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in items}

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineConfig":
        """Build a config from raw values (text, JSON or flags); the
        ``synth_*`` keys name the fields of ``SyntheticSpec``."""
        synth = {k: v for k, v in mapping.items() if k.startswith("synth_")}
        plain = {k: v for k, v in mapping.items() if k not in synth}
        cfg = cls(**convert_options(cls, plain))
        if synth:
            spec = {"seed": cfg.seed, **convert_options(SyntheticSpec, synth, "synth_")}
            try:
                cfg.synthetic = SyntheticSpec(**spec)
            except ConfigError as exc:
                # the spec's checks name its fields, which the config calls synth_*;
                # a count's unit, as in "2 steps", is left as it is
                names = "|".join(f.name for f in fields(SyntheticSpec))
                raise ConfigError(re.sub(rf"(?<!\d )\b({names})\b", r"synth_\1", str(exc))) from exc
        return cfg


def check_diagnostics(lags: tuple[int, ...], acf_max_lag: int) -> None:
    """Each correlation lag is nonnegative and named once, and the ACF
    needs at least one lag beyond zero."""
    if any(lag < 0 for lag in lags):
        raise ConfigError(f"lags must be nonnegative, got {list(lags)}")
    if len(set(lags)) < len(lags):
        raise ConfigError(f"each lag may be named once, got {list(lags)}")
    if acf_max_lag < 1:
        raise ConfigError(f"acf_max_lag must be at least 1, got {acf_max_lag}")


def convert_options(target, raw: dict, prefix: str = "") -> dict:
    """Convert raw values to the types annotated on ``target`` (a
    dataclass or a function), keyed by name without ``prefix``.

    Text lists are comma- or semicolon-separated; integers must be whole.
    """
    hints = typing.get_type_hints(target)
    out = {}
    for key, value in raw.items():
        name = key[len(prefix):]
        if name not in hints or name == "synthetic":
            raise ConfigError(f"unknown config key {key!r}")
        try:
            out[name] = _convert(hints[name], value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    return out


def _convert(hint, raw):
    args = typing.get_args(hint)
    if type(None) in args:
        if raw is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        items = raw.replace(";", ",").split(",") if isinstance(raw, str) else raw
        return tuple(_convert(args[0], v) for v in items if not isinstance(v, str) or v.strip())
    if hint is int:
        if isinstance(raw, str):
            try:
                return int(raw)
            except ValueError:
                raw = float(raw)
        if isinstance(raw, float) and not raw.is_integer():
            raise ValueError("not a whole number")
        return int(raw)
    return hint(raw)


def parse_rank_policy(text: str) -> dmd.RankPolicy:
    """Parse "fixed:R" or "cep:F" policy strings."""
    try:
        kind, _, value = text.partition(":")
        kind = kind.strip().lower()
        if kind == "fixed":
            return dmd.FixedRank(int(value))
        if kind == "cep":
            return dmd.CepThreshold(float(value) if value else 0.90)
    except ValueError as exc:
        raise ConfigError(f"bad rank policy {text!r}: {exc}") from exc
    raise ConfigError(f"bad rank policy {text!r}; expected 'fixed:R' or 'cep:F'")


def parse_config_file(path) -> dict:
    """Read a human-readable key-value config file.

    One ``key = value`` (or ``key: value``) pair per line; blank lines
    and #-comments ignored.
    """
    mapping: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        sep = "=" if "=" in stripped else (":" if ":" in stripped else None)
        if sep is None:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition(sep)
        mapping[key.strip()] = value.strip()
    return mapping


def load_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read a time-major CSV into node-major storage: the (N, T) values,
    NaN in each blank cell, and the N node ids.

    First row: header with node ids (first cell names the step column).
    Following rows: step label then one value per node. A cell may be
    quoted, and a blank (empty or whitespace-only) cell is a missing
    observation; the step label is never parsed. Every value is the one
    Python's ``float`` reads from the stripped cell; one that reads as NaN
    or an infinity is refused, so a NaN marks a blank cell alone.

    The data rows stream through numpy's C reader, which writes each
    value straight into the array, so no cell becomes a Python object.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path} is empty")
            if len(header) < 2:
                raise DataError(f"{path}: header must name at least one node column")
            try:
                by_step = _read_rows(fh, len(header) - 1)
            except ValueError:
                _raise_first_fault(path, header)
                raise
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return np.ascontiguousarray(by_step.T), [h.strip() for h in header[1:]]


# A data line the C reader takes as written: a label with no comma or
# quote, then plain number characters; group 1 holds the values.
_PLAIN_LINE = re.compile(r'[^,"]*,([-+.0-9eE,]*)\r?\n?')
# Written into each blank cell; no cell the reader accepts reads as NaN.
_BLANK = "nan"


def _read_rows(lines, n_nodes: int) -> np.ndarray:
    """(T, N) values of the data rows that follow the header in
    ``lines``, NaN where blank. Raises ValueError at the first row or
    cell that the per-cell rule refuses, and when fewer than 2 rows."""
    rows = _value_rows(lines, n_nodes)
    head = list(itertools.islice(rows, 2))
    if len(head) < 2:
        raise ValueError("fewer than 2 data rows")
    by_step = np.loadtxt(itertools.chain(head, rows), delimiter=",", comments=None, ndmin=2)
    if np.isinf(by_step).any():
        raise ValueError("non-finite cell")
    return by_step


def _value_rows(lines, n_nodes: int):
    """Each data row's N values as one line for the C reader. A line of
    the plain form goes as written, its blank cells filled; any other
    row is parsed by ``csv`` and each cell rewritten by the per-cell
    rule, ending the stream with a ValueError at a ragged row or a
    non-numeric or non-finite cell."""
    for line in lines:
        plain = _PLAIN_LINE.fullmatch(line)
        if plain and plain[1].count(",") == n_nodes - 1:
            padded = f",{plain[1]},"
            if ",," in padded:  # twice: one pass leaves every other blank of a run
                padded = padded.replace(",,", f",{_BLANK},").replace(",,", f",{_BLANK},")
            yield padded[1:-1]
            continue
        # a quoted cell may hold a line break, so csv reads on from here
        row = next(csv.reader(itertools.chain([line], lines)))
        if len(row) != n_nodes + 1:
            raise ValueError("ragged row")
        yield ",".join(map(_rewrite_cell, row[1:]))


def _rewrite_cell(cell: str) -> str:
    text = cell.strip()
    if not text:
        return _BLANK
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite cell")
    return repr(value)  # the shortest text that reads back as the same float


def _raise_first_fault(path, header: list[str]) -> None:
    """Raise the DataError that names the first fault of the file's data
    rows: fewer than 2 rows, then, row by row, a ragged row or a
    non-numeric cell; a non-finite cell only when neither occurs."""
    n_cells = len(header)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = csv.reader(fh)
        next(records)
        rows = list(itertools.islice(records, 2))
        if len(rows) < 2:
            raise DataError(f"{path}: need at least 2 time steps, got {len(rows)}")
        non_finite = None
        for number, row in enumerate(itertools.chain(rows, records), start=2):
            if len(row) != n_cells:
                raise DataError(f"{path}: row {number} has {len(row)} cells, expected {n_cells}")
            for name, cell in zip(header[1:], row[1:]):
                text = cell.strip()
                where = f"{path}: row {number}, column {name!r}"
                try:
                    value = float(text or 0)
                except ValueError as exc:
                    raise DataError(f"{where}: non-numeric cell {text!r}") from exc
                if non_finite is None and not math.isfinite(value):
                    non_finite = DataError(f"{where}: non-finite cell {text!r}")
    if non_finite is not None:
        raise non_finite


def default_node_ids(n_nodes: int) -> list[str]:
    """The ids of a series that names no nodes: n000, n001, ..."""
    return [f"n{i:03d}" for i in range(n_nodes)]


def write_signal_csv(values: np.ndarray, path, node_ids: list[str] | None = None) -> None:
    """Inverse of load_csv: the (N, T) ``values`` with a blank cell for
    each NaN, under ``node_ids`` or else the default ids. Creates the
    parent directory if needed. ``WRITE_CHUNK_ROWS`` steps are formatted
    at a time."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    n_nodes, n_steps = values.shape
    row = "%d" + ",%.17g" * n_nodes + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        ids = default_node_ids(n_nodes) if node_ids is None else node_ids
        csv.writer(fh, lineterminator="\n").writerow(["step", *ids])
        for first in range(0, n_steps, dg.WRITE_CHUNK_ROWS):
            by_step = values[:, first : first + dg.WRITE_CHUNK_ROWS].T
            cells = np.column_stack([np.arange(first, first + len(by_step)), by_step])
            # %.17g writes "nan" for a NaN and nowhere else
            fh.write((row * len(cells) % tuple(cells.ravel().tolist())).replace("nan", ""))


@dataclass
class _Run:
    """Bookkeeping for one run: staging directory, names written, timings,
    the process's peak memory as each stage ends and each stage's rise
    in it."""

    staging: Path
    files: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    max_rss_mb: dict = field(default_factory=dict)
    rss_rise_mb: dict = field(default_factory=dict)

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.staging / name


def _max_rss_mb() -> float:
    """The process's peak resident memory so far, in MB (``ru_maxrss``
    is in kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _StageTimer:
    """Adds the time spent inside to the stage's time, so a stage entered
    again, such as the per-label forecast and diagnostics, reports its
    total. Records ``ru_maxrss`` as the stage last ended, and adds the
    rise in it over this turn to the stage's rise, so a turn's rise is
    credited to its own stage."""

    def __init__(self, run: _Run, name: str):
        self.run = run
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        self.start_rss_mb = _max_rss_mb()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        self.run.timings[self.name] = self.run.timings.get(self.name, 0.0) + elapsed
        rss_mb = _max_rss_mb()
        self.run.max_rss_mb[self.name] = rss_mb
        rise = rss_mb - self.start_rss_mb
        self.run.rss_rise_mb[self.name] = self.run.rss_rise_mb.get(self.name, 0.0) + rise
        if exc is not None and isinstance(exc, Exception):
            exc.args = (f"[stage {self.name}] {exc}",) + exc.args[1:]
        return False


def _ingest(cfg: PipelineConfig) -> tuple[np.ndarray, list[str]]:
    if cfg.input_csv is not None:
        return load_csv(cfg.input_csv)
    values = generate_synthetic(cfg.synthetic)
    return values, default_node_ids(values.shape[0])


def _test_forecast(
    model: RidgeModel, test: ForecastWindows, zscore: ZScore,
) -> tuple[MetricsReport, np.ndarray]:
    """The test metrics of ``model`` and its test residuals, predictions
    minus targets in original units, as one (A, N, Q) block.

    The prediction block becomes the residuals in place: the normalized
    targets are taken away and each node's difference is scaled by its
    std. The node means cancel, so no target is taken to original units
    and no second block is held."""
    resid = predict(model, test).reshape(test.anchors.size, test.n_nodes, test.q)
    resid -= test.blocks(test.p, test.q)
    resid *= zscore.std[:, np.newaxis]
    return evaluate(resid, test.blocks(test.p, test.q, test.observed)), resid


def run_pipeline(cfg: PipelineConfig, until: str = "forecast") -> Path:
    """Execute the pipeline and return the run directory.

    ``until`` takes "fit" (stop after sparse mode selection), "embed"
    (also export covariates), or "forecast" (everything, including the
    with/without comparison and diagnostics). Any stage error aborts
    with the stage name attached. Files are staged and moved in, the
    manifest last, only once every stage is done, so a failed run
    leaves the directory as it found it: a directory that the run made
    is removed again, one that was there stays. A run that succeeds then
    removes the files that the directory's previous manifest lists and
    that it did not write; other files stay.
    """
    if until not in ("fit", "embed", "forecast"):
        raise ConfigError(f"unknown pipeline target {until!r}")
    cfg.validate()
    out_dir = Path(cfg.output_dir)
    # deepest first, the order a failed run removes them in
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        lock = _lock(out_dir)
        staging = out_dir / STAGING_DIR
        try:
            # a killed run may have left one behind
            shutil.rmtree(staging, ignore_errors=True)
            staging.mkdir()
            run = _Run(staging)
            _write_manifest(cfg, run, _run_stages(cfg, run, until))
            earlier = _listed_files(out_dir / "manifest.json")
            # in the order written, so the manifest comes last
            for name in run.files:
                os.replace(staging / name, out_dir / name)
            # then the earlier run's own files that this run did not replace
            for name in earlier.difference(run.files):
                if (out_dir / name).is_file():
                    (out_dir / name).unlink()
        finally:
            shutil.rmtree(staging, ignore_errors=True)
            # removed while still locked: a run that opened it will see it gone
            (out_dir / ".lock").unlink(missing_ok=True)
            os.close(lock)
    except BaseException:
        # rmdir, never rmtree: a directory that another process wrote into stays
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break
        raise
    return out_dir


def _listed_files(manifest: Path) -> set[str]:
    """The plain file names a run's manifest lists as the run's own;
    none when there is no readable manifest."""
    try:
        files = json.loads(manifest.read_text(encoding="utf-8"))["files"]
        return {name for name in files if isinstance(name, str) and Path(name).name == name}
    except (OSError, ValueError, KeyError, TypeError):
        return set()


def _lock(out_dir: Path) -> int:
    """Take an exclusive flock on ``out_dir/.lock`` and return its descriptor.

    The kernel drops the flock when its holder exits, however it dies.
    A held lock refuses the run, and so does a ``.lock`` that is no
    longer the file locked: a run that just ended removed it.
    """
    path = out_dir / ".lock"
    # opened for writing: NFS emulates an exclusive flock with a write lock
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    held = False
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        held = os.fstat(fd).st_ino == os.stat(path).st_ino
    except (BlockingIOError, FileNotFoundError):
        pass
    finally:
        if not held:
            os.close(fd)
    if not held:
        raise DataError(f"run directory {out_dir} is locked by another process")
    return fd


def _run_stages(cfg: PipelineConfig, run: _Run, until: str) -> dict:
    resolved: dict = {}

    with _StageTimer(run, "ingest"):
        raw, node_ids = _ingest(cfg)
        # the metrics leave out the blank cells, which imputing fills
        observed = ~np.isnan(raw)
        n_steps = raw.shape[1]
        resolved["n_nodes"], resolved["n_steps"] = raw.shape

    with _StageTimer(run, "impute"):
        values = impute_linear(raw, node_ids)
        del raw

    with _StageTimer(run, "split"):
        b_train, b_val = split_boundaries(n_steps, cfg.split)
        resolved["boundaries"] = [b_train, b_val]

    with _StageTimer(run, "normalize"):
        zscore = zscore_fit(values[:, :b_train], node_ids)
        # from here on the series is read in normalized units only
        normalized = zscore.transform(values)
        del values

    with _StageTimer(run, "hankel"):
        train = normalized[:, :b_train]
        tau = cfg.tau if cfg.tau is not None else default_tau(train)
        try:
            view = build_hankel(train, tau)
        except ValueError as exc:
            raise ConfigError(f"{exc}, for {b_train} training steps") from exc
        resolved["tau"] = tau

    with _StageTimer(run, "dmd"):
        dec = dmd.fit_dmd(view, parse_rank_policy(cfg.rank))
        resolved["rank"] = dec.rank
        resolved["svd_products"] = dec.spectrum_solve.products
        resolved["svd_basis"] = dec.spectrum_solve.basis
        resolved["svd_checks"] = dec.spectrum_solve.checks
        resolved["svd_residual"] = dec.spectrum_solve.residual
        run.path("decomposition.json").write_text(dec.to_json(), encoding="utf-8")
        np.save(run.path("modes.npy"), dec.modes)
        del view, train

    with _StageTimer(run, "spdmd"):
        sweep = spdmd.gamma_sweep(dec, target_modes=cfg.target_modes)
        selected_eigs = dec.eigenvalues[sweep.selected.support]
        resolved["selected_pairs"] = len(sweep.path.solutions)
        resolved["target_met"] = sweep.target_met
        resolved["eigenvalues"] = [[float(z.real), float(z.imag)] for z in selected_eigs]

    if until == "fit":
        return resolved

    with _StageTimer(run, "embedding"):
        emb = build_embedding(selected_eigs, n_steps)
        export_embedding(emb, run.path("embedding.csv"))

    if until == "embed":
        return resolved

    # what is left of the fit is its spectrum, for the CEP curve; the modes go
    singular_values, solve = dec.singular_values, dec.spectrum_solve
    del dec, sweep

    with _StageTimer(run, "forecast"):
        # no fit reads validation windows, so none are built
        windows = make_windows(
            normalized, {"train": (0, b_train), "test": (b_val, n_steps)}, cfg.p, cfg.q,
            embedding=emb, exclusion_mask=observed,
        )
        # "without" reads the value channel alone: the same windows without the embedding
        labelled = {
            "with": windows,
            "without": {name: replace(fw, covariates=fw.covariates[:, :0])
                        for name, fw in windows.items()},
        }
        models = {label: fit_ridge(split["train"], l2=cfg.l2) for label, split in labelled.items()}
        tests = {label: split["test"] for label, split in labelled.items()}
        del windows, labelled  # the training windows

    floored = zscore.std == STD_FLOOR
    # one label's residual block at a time: formed, scored, diagnosed, dropped
    for label, model in models.items():
        with _StageTimer(run, "forecast"):
            report, resid = _test_forecast(model, tests.pop(label), zscore)
            resolved[f"l2_{label}"] = cfg.l2
            run.path(f"metrics_{label}.json").write_text(report.to_json(), encoding="utf-8")
        with _StageTimer(run, "diagnostics"):
            # a node floored in training has the floor times its prediction for a
            # residual, which says nothing of the node: both labels diagnose it as constant
            resid[:, floored] = 0.0
            # the labels share their test rows, so they skip the same lags
            resolved["skipped_lags"], resolved["acf_lag_reached"], excluded = _write_residual_diagnostics(
                resid, list(node_ids), cfg.lags, cfg.acf_max_lag, run.path, label, cfg.q,
            )
            resolved.setdefault("acf_excluded", {})[label] = excluded
            del resid

    with _StageTimer(run, "diagnostics"):
        curve = dg.cep_curve(singular_values, solve.total_energy, solve.order)
        dg.write_cep_csv(curve, run.path("cep.csv"))
        svg = svgplot.line_chart(curve.ranks, [("cep", curve.cep)], "cumulative eigenvalue percentage")
        svgplot.write_svg(svg, run.path("cep.svg"))

    return resolved


def _write_manifest(cfg: PipelineConfig, run: _Run, resolved: dict) -> None:
    manifest = {
        "package_version": __version__,
        "config": cfg.to_mapping(),
        "resolved": resolved,
        "stage_seconds": run.timings,
        "stage_max_rss_mb": run.max_rss_mb,
        "stage_rss_rise_mb": run.rss_rise_mb,
        # a byte-identical replay needs these; outside config, so a replay does not set them
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "files": sorted(run.files),
    }
    run.path("manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8"
    )


def config_from_manifest(path) -> PipelineConfig:
    """Rebuild the exact configuration recorded by a previous run."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    if "config" not in manifest:
        raise ConfigError(f"{path} is not a run manifest")
    return PipelineConfig.from_mapping(manifest["config"])


def _write_residual_diagnostics(
    residuals: np.ndarray,
    column_ids: list[str] | None,
    lags,
    acf_max_lag: int,
    destination,
    label: str | None = None,
    horizon: int | None = None,
) -> tuple[list[int], int, list[str]]:
    """Diagnostics of (rows, columns, horizons) residuals: lagged
    correlations between whole rows (one CSV, one heatmap per lag) and
    the ACF of each column at the last horizon (one CSV, one chart of
    the first few columns).

    ``destination`` maps a file name to its path. A run labels the
    residuals of its test split, giving names like
    ``residual_corr_with_lag072_test.svg``; unlabelled ones are named
    like ``residual_corr_lag072.svg``. Returns the lags skipped because
    fewer than two pairs of rows align at them, and the largest ACF lag
    computed: ``acf_max_lag`` clamped to one less than the number of
    rows (0 when no ACF is written), and the ids of the columns it leaves
    out as constant to round-off, by the correlation's rule.
    """
    tag, split, caption = ("", "", "") if label is None else (f"_{label}", "_test", f" ({label}, test)")
    at_horizon = "" if horizon is None else f" at horizon {horizon}"
    n_rows = residuals.shape[0]
    flat = residuals.reshape(n_rows, -1)
    skipped: list[int] = []
    summaries = []
    for lag in lags:
        if n_rows - lag < 2:
            skipped.append(lag)
            continue
        summary = dg.residual_correlation(flat, lag)
        svg = svgplot.heatmap(summary.pooled, f"|residual correlation| lag {lag}{caption}")
        summaries.append(summary)
        svgplot.write_svg(svg, destination(f"residual_corr{tag}_lag{lag:03d}{split}.svg"))
    dg.write_residual_corr_csv(summaries, destination(f"residual_corr{tag}{split}.csv"))

    max_lag = min(acf_max_lag, n_rows - 1)
    block = residuals[:, :, -1]
    # a missing or empty id is named by its column, in the CSV, the chart and the manifest
    names = np.array([name or f"series_{i}" for i, name in enumerate(column_ids or [""] * block.shape[1])])
    # the correlation's keep rule leaves out a column constant to round-off,
    # which has no ACF; with too few rows for any ACF, none is left out
    keep = dg.column_stats(block, block.shape[1])[2] | (max_lag < 1)
    if not keep.any():
        max_lag = 0
    if max_lag >= 1:
        values = dg.acf(block[:, keep], max_lag)
        dg.write_acf_csv(values, names[keep].tolist(), destination(f"acf{tag}{split}.csv"))
        svg = svgplot.line_chart(
            np.arange(max_lag + 1),
            list(zip(names[keep].tolist(), values[: len(svgplot.PALETTE)])),
            f"residual ACF{at_horizon}{caption}",
        )
        svgplot.write_svg(svg, destination(f"acf{tag}{split}.svg"))
    return skipped, max_lag, names[~keep].tolist()


def diagnose_residuals(
    residuals: np.ndarray,
    lags: tuple[int, ...],
    acf_max_lag: int,
    out_dir,
    column_ids: list[str] | None = None,
) -> Path:
    """Standalone residual diagnostics on a (time, columns) matrix."""
    check_diagnostics(lags, acf_max_lag)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resid = np.asarray(residuals, dtype=float)
    if resid.ndim == 1:
        resid = resid[:, np.newaxis]
    _write_residual_diagnostics(
        resid[:, :, np.newaxis], column_ids, lags, acf_max_lag, lambda name: out_dir / name
    )
    return out_dir
