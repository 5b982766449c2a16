"""Windowed ridge forecaster used to measure covariate benefit.

A deliberately simple stand-in for a sequence model: every (P history,
Q target) window is flattened into one feature vector, node windows are
pooled into a single regularized least-squares fit with shared weights,
and future covariate rows enter as extra features. Metrics follow the
masked MAE/RMSE convention: missing values are excluded, and reporting
is in original units, overall and at every horizon 1..Q.

The series is held once, as one normalized (N, T) array, and the
embedding once, as its (T, c) table. Each split is a ``[start, stop)``
step range over both, from ``split_boundaries``, and its windows are
read as zero-copy views of that range: no window, and no window's
covariate rows, is copied. The W = A·N windows of a split, A anchors
times N nodes, are anchor-major and node-minor; window (a, n) holds
steps a .. a+P+Q-1 of node n, its first P steps the history and the
rest the target. The embedding is a time covariate, the same for every
node, so its rows a .. a+P+Q-1 are anchor a's covariate rows.

The fit never forms a window. Each entry of the value part of its
normal equations is a sum over nodes and anchors of x[n, s+i]·x[n, s+j],
a range sum over one node-summed lagged product
z_d[t] = Σ_n x[n, t]·x[n, t+d], d = |j - i| < P+Q. The covariate blocks
are range sums too, of products of the table's rows with each other and
with the node-summed series Σ_n x[n, t]: one matrix product per step
offset, the other pairs of that offset reached by adding the rows that
enter the range and taking away those that leave it. A prediction
multiplies each anchor's (N, P) history view by the value weights,
straight into one (A, N, Q) block, and adds its anchor's covariate
term, the sum of P+Q shifted (A, c) @ (c, Q) products of the table.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embedding import TimeEmbedding, attach_covariates
from .errors import ConfigError, DataError

STD_FLOOR = 1e-8
# Split ratios may miss a sum of 1 by this much.
SPLIT_SUM_TOL = 1e-9
# Entries of a block of residuals that evaluate reads at a time, so that
# no second block is made.
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ForecastWindows:
    """All windows of one split: A anchors times N nodes, anchor-major and
    node-minor, read from the split's S = A+P+Q-1 steps.

    ``values`` (N, S) and ``observed`` (N, S) are views of the split's
    steps of the normalized series and of its observation mask (metric
    exclusion), and ``covariates`` (S, c) of the embedding table rows of
    the same steps: anchor a's covariate rows are covariates[a : a+P+Q],
    shared by its N windows. ``p`` is the history length P, and
    ``anchors`` (A,) the absolute step of each anchor's last history
    step; its targets cover anchor+1 .. anchor+Q.
    """

    values: np.ndarray
    observed: np.ndarray
    p: int
    covariates: np.ndarray
    anchors: np.ndarray

    def __len__(self) -> int:
        return self.anchors.size * self.n_nodes

    @property
    def n_nodes(self) -> int:
        """Windows per anchor."""
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1] - self.anchors.size - self.p + 1

    @property
    def span(self) -> tuple[int, int]:
        """The split's absolute step range [start, stop)."""
        start = int(self.anchors[0]) - self.p + 1
        return start, start + self.values.shape[1]

    @property
    def layout(self) -> tuple[int, int, int]:
        """(P, history channels, future channels): each history step has
        the value and c covariates, each target step c covariates."""
        c = self.covariates.shape[1]
        return (self.p, 1 + c, c)

    def blocks(self, first: int, width: int, series: np.ndarray | None = None) -> np.ndarray:
        """(A, N, width) view of ``series`` (by default ``values``): row
        (a, n) holds steps a+first .. a+first+width-1 of node n."""
        series = self.values if series is None else series
        view = sliding_window_view(series[:, first:], width, axis=1)
        return view[:, : self.anchors.size].transpose(1, 0, 2)


def check_split_ratios(ratios: tuple[float, ...]) -> None:
    """Split ratios are three nonnegative numbers that sum to 1."""
    if len(ratios) != 3 or min(ratios) < 0:
        raise ConfigError(f"split needs three nonnegative ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > SPLIT_SUM_TOL:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")


def split_boundaries(n_steps: int, ratios: tuple[float, float, float]) -> tuple[int, int]:
    """Boundaries (b_train, b_val) of the contiguous chronological split:
    train is steps [0, b_train), val [b_train, b_val), test [b_val, n_steps).

    Boundary steps are rounded from the ratios; a zero ratio gives an
    empty split. The pipeline refuses an empty train or test split, but
    ``--split`` may set the validation ratio to zero.
    """
    check_split_ratios(ratios)
    n_train = int(round(n_steps * ratios[0]))
    n_val = int(round(n_steps * ratios[1]))
    n_test = n_steps - n_train - n_val
    for name, ratio, size in (("train", ratios[0], n_train), ("val", ratios[1], n_val), ("test", ratios[2], n_test)):
        if ratio > 0 and size <= 0:
            raise DataError(f"{name} split is empty at T={n_steps} with ratios {ratios}")
    if n_train <= 0:
        raise DataError("training split may not be empty")
    return n_train, min(n_train + n_val, n_steps)


@dataclass(frozen=True)
class ZScore:
    """Per-node normalization statistics fit on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        """(N, T) values to normalized units."""
        return (values - self.mean[:, np.newaxis]) / self.std[:, np.newaxis]


def zscore_fit(train: np.ndarray, node_ids: list[str]) -> ZScore:
    """Per-node statistics of the (N, T_train) training columns; a
    zero-variance node is floored and named in a warning."""
    mean = train.mean(axis=1)
    std = train.std(axis=1)
    floored = std < STD_FLOOR
    if floored.any():
        names = [node_ids[i] for i in np.nonzero(floored)[0]]
        warnings.warn(f"zero-variance channels floored to {STD_FLOOR}: {names}")
        std = np.where(floored, STD_FLOOR, std)
    return ZScore(mean=mean, std=std)


def make_windows(
    values: np.ndarray,
    spans: dict[str, tuple[int, int]],
    p: int = 12,
    q: int = 12,
    embedding: TimeEmbedding | None = None,
    exclusion_mask: np.ndarray | None = None,
) -> dict[str, ForecastWindows]:
    """One window per valid anchor per node for each named step range
    ``[start, stop)`` of the (N, T) ``values``, as views of that range.

    Windows never straddle a range's ends. ``exclusion_mask`` is the
    pre-imputation observation mask over the full signal, indexed by
    absolute step; it rides along for metric exclusion.
    """
    if p < 1 or q < 1:
        raise DataError(f"P and Q must be positive, got P={p}, Q={q}")
    out: dict[str, ForecastWindows] = {}
    for name, (start, stop) in spans.items():
        part = values[:, start:stop]
        t = part.shape[1]
        if t < p + q:
            raise DataError(f"{name} split has {t} steps, needs at least P+Q={p + q}")
        if exclusion_mask is not None:
            observed = exclusion_mask[:, start:stop]
        else:
            observed = np.broadcast_to(True, part.shape)
        collection = ForecastWindows(
            values=part,
            observed=observed,
            p=p,
            covariates=np.empty((t, 0)),
            anchors=np.arange(start + p - 1, start + t - q),
        )
        if embedding is not None:
            collection = attach_covariates(collection, embedding)
        out[name] = collection
    return out


@dataclass
class RidgeModel:
    """Closed-form regularized least squares on window features.

    ``weights`` are (P + (P+Q)·c, Q): the P value weights, then one per
    covariate entry, step-major: window step i's channel k is row
    P + i·c + k. ``feature_layout`` is the (P, history channels, future
    channels) layout of the windows it was fit on.
    """

    weights: np.ndarray
    feature_layout: tuple[int, int, int]


def fit_ridge(train: ForecastWindows, l2: float = 1e-3) -> RidgeModel:
    """Deterministic ridge fit of the pooled window regression.

    With H the history, Y the targets and C the covariate rows repeated
    over the nodes, the normal equations are assembled from blocks: HᵀH
    and HᵀY from range sums of the lagged products z_d, and N·CᵀC,
    (Σ_nodes H)ᵀC and Cᵀ(Σ_nodes Y) from range sums of products of the
    table rows and the node-summed series.
    """
    if not len(train):
        raise DataError("no training windows")
    if l2 < 0:
        raise DataError(f"l2 must be nonnegative, got {l2}")
    x, p, q = train.values, train.p, train.q
    n_anchors, steps = train.anchors.size, x.shape[1]
    # moments[i, j]: the sum over windows of steps i and j, for i, j < P+Q
    moments = np.empty((p + q, p + q))
    for lag in range(p + q):
        lagged = np.einsum("nt,nt->t", x[:, : steps - lag], x[:, lag:])
        sums = sliding_window_view(lagged, n_anchors).sum(axis=1)
        first = np.arange(p + q - lag)
        moments[first, first + lag] = moments[first + lag, first] = sums
    summed = x.sum(axis=0)[:, np.newaxis]
    table = train.covariates
    n_cov = (p + q) * table.shape[1]
    # the covariate blocks, step-major: row P + i·c + k is window step i's channel k
    cross = _range_products(summed, table, n_anchors, p, p + q).reshape(p, n_cov)
    cov = _range_products(table, table, n_anchors, p + q, p + q, symmetric=True)
    cov = cov.transpose(0, 2, 1, 3).reshape(n_cov, n_cov)
    future = _range_products(table, summed[p:], n_anchors, p + q, q)
    future = future.transpose(0, 2, 1, 3).reshape(n_cov, q)
    gram = np.block([[moments[:p, :p], cross], [cross.T, train.n_nodes * cov]])
    gram += l2 * np.eye(gram.shape[0])
    rhs = np.vstack([moments[:p, p:], future])
    return RidgeModel(weights=np.linalg.solve(gram, rhs), feature_layout=train.layout)


def _range_products(
    left: np.ndarray, right: np.ndarray, n: int, rows: int, cols: int, symmetric: bool = False,
) -> np.ndarray:
    """(rows, cols, a, b) array whose [i, j] is left[i : i+n]ᵀ right[j : j+n],
    for (S, a) ``left`` and (S, b) ``right`` series of steps.

    One matrix product per offset d = j - i gives its first pair; each
    later pair of that offset adds the outer product of the two rows that
    enter the range and takes away that of the two that leave it. With
    ``symmetric`` (``left`` is ``right``) only d >= 0 is computed and
    the rest is mirrored.
    """
    out = np.empty((rows, cols, left.shape[1], right.shape[1]))
    if not out.size:
        return out
    for d in range(0 if symmetric else 1 - rows, cols):
        i = np.arange(max(0, -d), min(rows, cols - d))
        sums = np.empty((i.size,) + out.shape[2:])
        sums[0] = left[i[0] : i[0] + n].T @ right[i[0] + d : i[0] + d + n]
        enter = np.einsum("tk,tl->tkl", left[i[1:] + n - 1], right[i[1:] + d + n - 1])
        enter -= np.einsum("tk,tl->tkl", left[i[:-1]], right[i[:-1] + d])
        np.cumsum(enter, axis=0, out=sums[1:])
        sums[1:] += sums[0]
        out[i, i + d] = sums
        if symmetric and d:
            out[i + d, i] = sums.transpose(0, 2, 1)
    return out


def predict(model: RidgeModel, fw: ForecastWindows) -> np.ndarray:
    """Q-step predictions per window, in the fitted (normalized) space.

    The (W, Q) result is a view of one (A, N, Q) block, anchor-major."""
    if fw.layout != model.feature_layout:
        raise DataError(
            f"window layout {fw.layout} does not match model layout {model.feature_layout}"
        )
    p, q, table = fw.p, fw.q, fw.covariates
    n_anchors = fw.anchors.size
    # one product per anchor, of its (N, P) history view
    out = np.matmul(fw.blocks(0, p), model.weights[:p])
    # each anchor's covariate term, shared by the windows of all its nodes:
    # one shifted product of the table per window step
    weights = model.weights[p:].reshape(p + q, table.shape[1], q)
    term = np.zeros((n_anchors, q))
    for i in range(p + q):
        term += table[i : i + n_anchors] @ weights[i]
    out += term[:, np.newaxis]
    return out.reshape(len(fw), q)


@dataclass
class MetricsReport:
    """Masked MAE/RMSE overall and at every horizon 1..Q, original units;
    a horizon with no kept entry scores None."""

    horizon_mae: dict[int, float | None]
    horizon_rmse: dict[int, float | None]
    overall_mae: float
    overall_rmse: float
    excluded_count: int

    def to_json(self) -> str:
        """Strict JSON with the horizons in step order; a horizon's None
        is ``null``."""
        payload = {
            "excluded_count": self.excluded_count,
            "horizons": {
                str(h): {"mae": self.horizon_mae[h], "rmse": self.horizon_rmse[h]}
                for h in sorted(self.horizon_mae)
            },
            "overall": {"mae": self.overall_mae, "rmse": self.overall_rmse},
        }
        return json.dumps(payload, indent=2, allow_nan=False)


def evaluate(residuals: np.ndarray, mask: np.ndarray | None = None) -> MetricsReport:
    """Masked MAE/RMSE of (..., Q) residuals, predictions minus targets,
    such as (n_windows, Q) rows or (anchors, nodes, Q) blocks, overall
    and at every horizon 1..Q.

    Horizon k uses only the k-th output column; masked-out entries are
    excluded everywhere and counted. One pass reads ``residuals``, at
    most ``CHUNK_ELEMENTS`` entries of it (or one leading row) at a
    time, zeroes the masked entries of a copy of the chunk and adds up
    each horizon's kept count, |r| and r². Every score comes from these
    sums; ``residuals`` is only read.
    """
    residuals = np.asarray(residuals, dtype=float)
    if mask is None:
        mask = np.ones(residuals.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != residuals.shape:
        raise DataError(f"mask shape {mask.shape} does not match {residuals.shape}")
    q = residuals.shape[-1]
    count = np.zeros(q, dtype=np.int64)
    total_abs, total_sq = np.zeros(q), np.zeros(q)
    step = max(1, CHUNK_ELEMENTS // max(1, residuals[:1].size))
    for first in range(0, len(residuals), step):
        keep = mask[first : first + step].reshape(-1, q)
        kept = np.where(keep, residuals[first : first + step].reshape(-1, q), 0.0)
        count += np.count_nonzero(keep, axis=0)
        total_sq += np.einsum("ij,ij->j", kept, kept)
        total_abs += np.einsum("ij->j", np.abs(kept, out=kept))
    n_kept = int(count.sum())
    if not n_kept:
        raise DataError("all entries masked; no metric can be computed")
    horizons = range(1, q + 1)
    return MetricsReport(
        horizon_mae={h: float(a / n) if n else None for h, a, n in zip(horizons, total_abs, count)},
        horizon_rmse={h: float(np.sqrt(s / n)) if n else None
                      for h, s, n in zip(horizons, total_sq, count)},
        overall_mae=float(total_abs.sum() / n_kept),
        overall_rmse=float(np.sqrt(total_sq.sum() / n_kept)),
        excluded_count=mask.size - n_kept,
    )
