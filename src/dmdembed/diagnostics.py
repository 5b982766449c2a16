"""Residual-structure diagnostics: ACF, lagged residual correlation, CEP.

Peaks in the residual autocorrelation at seasonal lags, or nonzero
correlation between residual vectors a season apart, indicate periodic
structure the forecaster failed to capture. The cumulative eigenvalue
percentage (CEP) curve summarizes how much variance a truncated
spectrum retains.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError


# blocks per side of a pooled |correlation| matrix
POOL_DIM = 64
# Upper bound on the entries of one tile of residual_correlation: its
# (tile columns, d) slice of the |correlation| matrix and its standardized
# (rows, tile columns) lead columns. A tile holds whole pool blocks and is
# at least CORR_TILE_COLUMNS wide, or the whole matrix when it is narrower,
# so that wide panels keep efficient products.
CORR_TILE_ELEMENTS = 1 << 16
CORR_TILE_COLUMNS = 128
# A trail column whose mean exceeds this many scales is centred before its
# product: a raw product would lose the digits of its deviations.
CORR_RAW_MEAN_SCALES = 16.0
# Rows of a CSV table that write_table formats at a time.
WRITE_CHUNK_ROWS = 1 << 12


@dataclass(frozen=True)
class ResidualCorrSummary:
    """Mean absolute Pearson correlation between residual vectors at lag S.

    ``pooled`` is the |correlation| matrix in at most POOL_DIM blocks per
    side, each block its largest entry."""

    lag: int
    mean_abs_corr: float
    pooled: np.ndarray
    excluded_columns: int


@dataclass(frozen=True)
class CepCurve:
    """Cumulative squared-singular-value fraction by rank."""

    ranks: np.ndarray
    cep: np.ndarray


def acf(block: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (length-normalized) autocorrelation of each column of a
    (rows, columns) block, as a (columns, max_lag + 1) array: row j
    holds column j's ACF at lags 0 .. max_lag.

    acf[k] = sum_t (x_t - mean)(x_{t+k} - mean) / sum_t (x_t - mean)^2,
    which guarantees |acf[k]| <= 1 and acf[0] = 1. All columns are
    centred at once and each lag is one product over the whole block.
    """
    x = np.asarray(block, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"block must be 2-D (rows, columns), got shape {x.shape}")
    n, n_columns = x.shape
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if n <= max_lag:
        raise DataError(f"series length {n} must exceed max_lag {max_lag}")
    finite = np.isfinite(x).all(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite column
        centered = x - x.mean(axis=0)
    denom = np.einsum("ij,ij->j", centered, centered)
    bad = ~finite | ~(denom > 0.0)
    if bad.any():
        # the first bad column decides the message, as a per-column loop would
        first = int(np.argmax(bad))
        if not finite[first]:
            raise DataError("series contains non-finite values")
        raise DataError("constant series has no autocorrelation")
    values = np.empty((n_columns, max_lag + 1))
    values[:, 0] = 1.0
    for k in range(1, max_lag + 1):
        values[:, k] = np.einsum("ij,ij->j", centered[:-k], centered[k:]) / denom
    return values


def residual_correlation(residuals: np.ndarray, lag: int) -> ResidualCorrSummary:
    """Correlation between residual vectors at times t and t - lag.

    ``residuals`` is (time, d) with d the flattened space-horizon
    dimension. Entry (i, j) of the |correlation| matrix is the absolute
    Pearson correlation of column i at time t with column j at time
    t - lag, over the aligned range, capped at 1. Zero-variance columns
    are excluded from the mean and counted. The matrix is pooled to at
    most POOL_DIM blocks per side, each block its largest entry. The lag
    is nonnegative.

    Each lag's lead rows ``[lag, n)`` and trail rows ``[0, n - lag)``
    have their own column means and scales; at lag 0 they are one block.
    The matrix is held one tile at a time: its rows come in tiles of
    whole pool blocks, each the product of a standardized tile of lead
    columns with the raw trail rows, read in place. The lead tile is
    centred once more first, which takes its column sums times the trail
    means off the product, and each trail column of the product is then
    divided by (n - lag) times its scale. A raw product loses the digits
    of a column whose mean dwarfs its scale, so such trail columns enter
    it centred, from a copy of those columns alone. The tile is made
    absolute and capped, then pooled into its band of ``pooled``, its
    excluded rows and columns zeroed, and summed. At lag 0 the matrix is
    symmetric, so each tile covers only the diagonal square, one
    symmetric product of the standardized tile with itself, and what
    lies right of it; the rest is its mirror.
    """
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    resid = np.asarray(residuals, dtype=float)
    if resid.ndim == 1:
        resid = resid[:, np.newaxis]
    n, d = resid.shape
    if n - lag < 2:
        raise DataError(f"time length {n} must exceed lag {lag} by at least 2")
    # the blocks of each side start every ceil(d / POOL_DIM) entries
    size = -(-d // POOL_DIM)
    # whole pool blocks per tile, so that each tile pools into its own band
    blocks = max(CORR_TILE_ELEMENTS // (max(n, d) * size), -(-min(d, CORR_TILE_COLUMNS) // size))
    width = size * blocks
    lead_rows, trail_rows = resid[lag:], resid[: n - lag]
    lead_stats = column_stats(lead_rows, width)
    trail_mean, trail_scale, trail_keep = lead_stats if lag == 0 else column_stats(trail_rows, width)
    # a column constant in only the lead or the trail rows still has a
    # nonzero column or row, which the heatmap draws but the mean leaves out
    keep = lead_stats[2] & trail_keep
    kept = int(keep.sum())
    if not kept:
        raise DataError("every residual column has zero variance")
    inv = np.zeros(d)
    np.divide(1.0, (n - lag) * trail_scale, out=inv, where=trail_keep)
    guarded = np.flatnonzero(trail_keep & (np.abs(trail_mean) > CORR_RAW_MEAN_SCALES * trail_scale))
    centred = trail_rows[:, guarded] - trail_mean[guarded]
    pooled = np.empty((-(-d // size),) * 2)
    total = 0.0
    for start in range(0, d, width):
        stop = min(start + width, d)
        lead = _standardize(lead_rows[:, start:stop], *(s[start:stop] for s in lead_stats))
        # the tile covers columns from ``first`` on, of which those from
        # ``rest`` on are the raw trail rows' product
        first, rest = (start, stop) if lag == 0 else (0, 0)
        corr = np.empty((stop - start, d - first))
        if lag == 0:
            # the diagonal square is a symmetric product: half the flops
            np.matmul(lead.T, lead, out=corr[:, : stop - start])
            corr[:, : stop - start] /= n
        # its column sums are round-off, but times a trail mean they are not
        lead -= lead.mean(axis=0)
        raw = corr[:, rest - first :]
        np.matmul(lead.T, trail_rows[:, rest:], out=raw)
        near = np.searchsorted(guarded, rest)
        raw[:, guarded[near:] - rest] = lead.T @ centred[:, near:]
        del lead
        raw *= inv[rest:]
        # a column the trail rows exclude may hold a non-finite product
        raw[:, ~trail_keep[rest:]] = 0.0
        np.abs(corr, out=corr)
        np.minimum(corr, 1.0, out=corr)
        band = np.maximum.reduceat(
            np.maximum.reduceat(corr, np.arange(0, stop - start, size), axis=0),
            np.arange(0, d - first, size), axis=1,
        )
        pooled[start // size : -(-stop // size), first // size :] = band
        corr[~keep[start:stop]] = 0.0
        corr[:, ~keep[first:]] = 0.0
        if lag == 0:
            pooled[start // size :, start // size : -(-stop // size)] = band.T
            # each entry right of the diagonal square stands for its mirror too
            total += corr[:, : stop - start].sum() + 2.0 * corr[:, stop - start :].sum()
        else:
            total += corr.sum()
        del corr, raw  # before the next tile's product is made
    return ResidualCorrSummary(
        lag=lag,
        mean_abs_corr=float(total / kept**2),
        pooled=pooled,
        excluded_columns=keep.size - kept,
    )


def column_stats(block: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's mean and scale (root mean square about the mean),
    and whether it is kept, taken ``width`` columns at a time."""
    mean = block.mean(axis=0)
    scale, peak = np.empty_like(mean), np.empty_like(mean)
    for start in range(0, block.shape[1], width):
        cols = slice(start, start + width)
        # one buffer per tile, for the squares and then the magnitudes
        work = block[:, cols] - mean[cols]
        scale[cols] = np.sqrt(np.mean(np.square(work, out=work), axis=0))
        peak[cols] = np.max(np.abs(block[:, cols], out=work), axis=0)
    # relative floor so numerically constant columns are excluded too
    return mean, scale, scale > 1e-12 * np.maximum(1.0, peak)


def _standardize(block: np.ndarray, mean: np.ndarray, scale: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``block`` centred and scaled to unit variance per column, in one
    new array, zero in the columns it excludes."""
    out = block - mean
    np.divide(out, scale, out=out, where=keep)
    out[:, ~keep] = 0.0
    return out


def cep_curve(singular_values: np.ndarray, total_energy: float, order: int) -> CepCurve:
    """Cumulative eigenvalue percentage cep[k] = sum_{i<=k} s_i^2 / total.

    The singular values are the leading part of a spectrum of length
    ``order`` whose squares sum to ``total_energy``. The curve lists the
    given ranks against that total and closes at cep exactly 1: at the
    last given rank when they are the whole spectrum, and otherwise with
    one more row at rank ``order``.
    """
    sigma = np.asarray(singular_values, dtype=float).ravel()
    if sigma.size == 0:
        raise DataError("empty singular spectrum")
    if total_energy <= 0.0:
        raise DataError("all-zero singular spectrum")
    # against an exact total the running sum may overshoot 1 by round-off
    cep = np.minimum(np.cumsum(sigma**2) / total_energy, 1.0)
    ranks = np.arange(1, sigma.size + 1)
    if order > sigma.size:
        cep, ranks = np.append(cep, 1.0), np.append(ranks, order)
    else:
        cep[-1] = 1.0
    return CepCurve(ranks=ranks, cep=cep)


def write_table(path, header: list[str], columns) -> None:
    """Write equal-length columns of numbers as CSV under ``header``.

    Every cell is %.17g: a whole number prints as %d does, and any value
    reads back bit for bit. Only a header cell that needs quotes has them.
    ``WRITE_CHUNK_ROWS`` rows are formatted at a time.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for first in range(0, len(columns[0]), WRITE_CHUNK_ROWS):
            chunk = np.column_stack([c[first : first + WRITE_CHUNK_ROWS] for c in columns])
            fh.write(row * chunk.shape[0] % tuple(chunk.ravel().tolist()))


def write_acf_csv(values: np.ndarray, node_ids: list[str], path) -> None:
    """One lag column plus one ACF column per row of ``values``, headed
    by its id."""
    write_table(path, ["lag", *node_ids], [np.arange(values.shape[1]), *values])


def write_cep_csv(curve: CepCurve, path) -> None:
    write_table(path, ["rank", "cep"], [curve.ranks, curve.cep])


def write_residual_corr_csv(summaries: list[ResidualCorrSummary], path) -> None:
    names = ["lag", "mean_abs_corr", "excluded_columns"]
    write_table(path, names, [[getattr(s, name) for s in summaries] for name in names])
