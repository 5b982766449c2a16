"""Checks of a pipeline run directory, made apart from dmdembed.

Nothing here imports dmdembed. Each check compares the run's artifacts
either with numbers the benchmark computes itself from the inputs it
generated (the signal, its observation mask and the planted periods), or
with a property the method must have. ``check_run`` returns one failure
per broken check; an empty list means the run passed.

The forecaster is recomputed with plain numpy: linear imputation, a
z-score fit on the training split, pooled (P history, Q target) windows
with the embedding rows of the whole window appended, and a ridge solve
with the l2 the manifest records. Ridge predictions do not depend on
the order of the feature columns, so the layout may differ from the
program's.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PERIOD_RTOL = 0.005  # the A2 frequency-recovery bound
METRIC_RTOL = 1e-10  # recomputed RMSE and residual correlation (agree to ~1e-15)
UNIT_TOL = 1e-9  # embedding modulus, rotation and eigenvalue agreement
STD_FLOOR = 1e-8
HORIZON = 12
CORR_LAG = 72


@dataclass(frozen=True)
class Inputs:
    """What the benchmark knows about a run's input, independent of the program."""

    values: np.ndarray  # (N, T); entries where mask is False are ignored
    mask: np.ndarray  # (N, T) True where the value was observed
    periods: tuple[float, ...]  # planted periods, in steps


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str


@dataclass(frozen=True)
class Reading:
    """End-to-end quality numbers read from a run directory."""

    rmse12_with: float
    rmse12_without: float
    resid_corr72_with: float


def read_metrics(run_dir) -> Reading:
    run_dir = Path(run_dir)
    with_ = json.loads((run_dir / "metrics_with.json").read_text())
    without = json.loads((run_dir / "metrics_without.json").read_text())
    return Reading(
        rmse12_with=float(with_["horizons"][str(HORIZON)]["rmse"]),
        rmse12_without=float(without["horizons"][str(HORIZON)]["rmse"]),
        resid_corr72_with=_corr_at(run_dir / "residual_corr_with_test.csv", CORR_LAG),
    )


def _corr_at(path: Path, lag: int) -> float:
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if int(row["lag"]) == lag:
                return float(row["mean_abs_corr"])
    raise ValueError(f"{path.name} has no lag {lag}")


def check_run(run_dir, inputs: Inputs) -> list[Failure]:
    """Every check of one finished ``forecast`` run; [] when all pass."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    resolved = manifest["resolved"]
    config = manifest["config"]
    eigenvalues = np.array([complex(re, im) for re, im in resolved["eigenvalues"]])
    steps, table = _load_embedding(run_dir / "embedding.csv")

    failures = check_periods(eigenvalues, inputs.periods)
    failures += check_embedding(steps, table, eigenvalues, inputs.values.shape[1])
    failures += check_cep(run_dir / "cep.csv")
    failures += check_forecast(run_dir, inputs, resolved, config, table)
    return failures


def check_periods(eigenvalues: np.ndarray, periods) -> list[Failure]:
    """Each planted period lies within PERIOD_RTOL of a selected mode's period."""
    found = []
    for lam in eigenvalues:
        angle = abs(math.atan2(lam.imag, lam.real))
        if angle > 0.0:
            found.append(2.0 * math.pi / angle)
    out = []
    for period in periods:
        best = min((abs(f - period) / period for f in found), default=math.inf)
        if best > PERIOD_RTOL:
            shown = ", ".join(sorted({f"{f:.2f}" for f in found})) or "none"
            out.append(Failure("planted_periods", f"period {period:g} not recovered "
                               f"(closest off by {best:.2%}; selected periods: {shown})"))
    return out


def _load_embedding(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    r = (len(header) - 1) // 2
    expected = ["step"] + [f"re_{i + 1}" for i in range(r)] + [f"im_{i + 1}" for i in range(r)]
    if header != expected:
        raise ValueError(f"embedding header {header} is not {expected}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def check_embedding(steps, table, eigenvalues, n_steps: int) -> list[Failure]:
    """Unit modulus, identity row at step 0, one-step rotation between rows,
    and rotations equal to the manifest's selected eigenvalues."""
    out = []
    r = table.shape[1] // 2
    if not np.array_equal(steps, np.arange(n_steps)):
        return [Failure("embedding_steps", f"steps are not 0..{n_steps - 1}")]
    z = table[:, :r] + 1j * table[:, r:]
    modulus_err = float(np.max(np.abs(np.abs(z) - 1.0)))
    if modulus_err > UNIT_TOL:
        out.append(Failure("embedding_modulus", f"|re + i im| deviates from 1 by {modulus_err:.3e}"))
    if not np.array_equal(table[0], np.r_[np.ones(r), np.zeros(r)]):
        out.append(Failure("embedding_origin", f"step-0 row is {table[0].tolist()}"))
    rotation = z[1] / np.abs(z[1])
    rotation_err = float(np.max(np.abs(z[1:] - z[:-1] * rotation)))
    if rotation_err > UNIT_TOL:
        out.append(Failure("embedding_rotation", f"rows break the one-step rotation by {rotation_err:.3e}"))
    # One representative per conjugate group: Im >= 0, projected to the circle.
    reps = eigenvalues[eigenvalues.imag >= -UNIT_TOL * (1.0 + np.abs(eigenvalues))]
    reps = reps / np.abs(reps)
    reps = np.where(np.abs(reps.imag) <= UNIT_TOL, reps.real + 0j, reps)
    if reps.size != r:
        out.append(Failure("embedding_eigenvalues", f"{r} embedding channel pairs for "
                           f"{reps.size} selected conjugate groups"))
    else:
        by_angle = lambda v: v[np.argsort(np.abs(np.angle(v)))]  # noqa: E731
        gap = float(np.max(np.abs(by_angle(reps) - by_angle(rotation)), initial=0.0))
        if gap > UNIT_TOL:
            out.append(Failure("embedding_eigenvalues",
                               f"embedding rotations differ from the selected eigenvalues by {gap:.3e}"))
    return out


def check_cep(path: Path) -> list[Failure]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cep = data[:, 1]
    out = []
    if np.any(np.diff(cep) < 0.0):
        out.append(Failure("cep", "cep.csv decreases"))
    if abs(cep[-1] - 1.0) > 1e-12:
        out.append(Failure("cep", f"cep.csv ends at {cep[-1]!r}, not 1"))
    return out


def _impute(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = values.astype(float).copy()
    steps = np.arange(values.shape[1])
    for i in range(values.shape[0]):
        if not mask[i].all():
            out[i] = np.interp(steps, steps[mask[i]], values[i, mask[i]])
    return out


def _windows(z: np.ndarray, start: int, stop: int, p: int, q: int) -> np.ndarray:
    """(anchors * nodes, P + Q) windows inside [start, stop), anchor-major."""
    block = sliding_window_view(z[:, start:stop], p + q, axis=1)  # (N, anchors, P+Q)
    return block.transpose(1, 0, 2).reshape(-1, p + q)


def _embedding_rows(table: np.ndarray, start: int, stop: int, p: int, q: int, n: int):
    rows = sliding_window_view(table[start:stop], p + q, axis=0)  # (anchors, 2r, P+Q)
    flat = rows.reshape(rows.shape[0], -1)
    return np.repeat(flat, n, axis=0)


def _ridge_residuals(inputs: Inputs, boundaries, p, q, l2, table):
    """Test-split residuals (anchors * nodes, Q) in original units, plus the mask."""
    n, t = inputs.values.shape
    filled = _impute(inputs.values, inputs.mask)
    b_train, b_val = boundaries
    mean = filled[:, :b_train].mean(axis=1)
    std = filled[:, :b_train].std(axis=1)
    std = np.where(std < STD_FLOOR, STD_FLOOR, std)
    z = (filled - mean[:, None]) / std[:, None]

    def design(start, stop):
        win = _windows(z, start, stop, p, q)
        x = win[:, :p]
        if table is not None:
            x = np.hstack([x, _embedding_rows(table, start, stop, p, q, n)])
        return x, win[:, p:]

    x_train, y_train = design(0, b_train)
    x_test, y_test = design(b_val, t)
    gram = x_train.T @ x_train + l2 * np.eye(x_train.shape[1])
    weights = np.linalg.solve(gram, x_train.T @ y_train)
    nodes = np.tile(np.arange(n), x_test.shape[0] // n)
    scale = std[nodes][:, None]
    residuals = (x_test @ weights - y_test) * scale
    mask = _windows(inputs.mask.astype(float), b_val, t, p, q)[:, p:] > 0.5
    return residuals, mask


def _mean_abs_lag_corr(residuals: np.ndarray, n_nodes: int, lag: int) -> float:
    flat = residuals.reshape(-1, n_nodes * residuals.shape[1])  # (anchors, N*Q)
    lead, trail = flat[lag:], flat[: flat.shape[0] - lag]
    lead = (lead - lead.mean(axis=0)) / lead.std(axis=0)
    trail = (trail - trail.mean(axis=0)) / trail.std(axis=0)
    return float(np.mean(np.abs(lead.T @ trail / lead.shape[0])))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= METRIC_RTOL * max(abs(a), abs(b))


def check_forecast(run_dir, inputs: Inputs, resolved, config, table) -> list[Failure]:
    """Recompute the 12-step RMSE with and without covariates, the excluded
    count and the lag-72 residual correlation, and compare with the files."""
    p, q = int(config["p"]), int(config["q"])
    reading = read_metrics(run_dir)
    out = []
    for label, emb, reported in (("without", None, reading.rmse12_without),
                                 ("with", table, reading.rmse12_with)):
        residuals, mask = _ridge_residuals(
            inputs, resolved["boundaries"], p, q, float(resolved[f"l2_{label}"]), emb)
        err = residuals[:, HORIZON - 1][mask[:, HORIZON - 1]]
        rmse = float(np.sqrt(np.mean(err**2)))
        if not _close(rmse, reported):
            out.append(Failure(f"rmse12_{label}", f"file says {reported!r}, recomputed {rmse!r}"))
        metrics = json.loads((Path(run_dir) / f"metrics_{label}.json").read_text())
        blanks = int((~mask).sum())
        if metrics["excluded_count"] != blanks:
            out.append(Failure("excluded_count", f"metrics_{label}.json excludes "
                               f"{metrics['excluded_count']}, the input has {blanks} blank targets"))
        if label == "with" and CORR_LAG in config["lags"]:
            corr = _mean_abs_lag_corr(residuals, inputs.values.shape[0], CORR_LAG)
            if not _close(corr, reading.resid_corr72_with):
                out.append(Failure("resid_corr72_with", f"file says {reading.resid_corr72_with!r}, "
                                   f"recomputed {corr!r}"))
    return out
