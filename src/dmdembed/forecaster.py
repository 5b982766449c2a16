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

The fit never forms a window. Its normal equations are gathered from
one step-major moment table over each window step's value and its c
covariates: entry (i, k, j, l) sums, over nodes and anchors, step i's
channel k times step j's channel l. One loop over the step offsets
d = j - i < P+Q fills it. An offset's first pair is one product
rows[:A]ᵀ rows[d:d+A] of the (S, 1+c) rows [Σ_n x[n, t], covariates],
with its value entry the range sum of the node-summed lagged product
z_d[t] = Σ_n x[n, t]·x[n, t+d]; each later pair adds the step that
enters the range and takes away the one that leaves it. The covariate
entries count once per node, and offsets below 0 are the mirror.

A prediction multiplies each anchor's (N, P) history view by the value
weights, straight into one (A, N, Q) block, and adds its anchor's
covariate term, the sum of P+Q shifted (A, c) @ (c, Q) products of the
table.
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

    ``gram`` and ``rhs`` are gathered by index from one step-major moment
    table, filled one step offset d = j - i >= 0 at a time: entry
    (i, k, j, l) sums, over windows, step i's channel k times step j's
    channel l, channel 0 the value and 1..c the covariates.
    """
    if not len(train):
        raise DataError("no training windows")
    if l2 < 0:
        raise DataError(f"l2 must be nonnegative, got {l2}")
    x, p, q = train.values, train.p, train.q
    n_anchors, steps, width = train.anchors.size, x.shape[1], p + q
    # each step's node-summed value, then its c covariates
    rows = np.column_stack([x.sum(axis=0), train.covariates])
    channels = rows.shape[1]
    moments = np.empty((width, channels, width, channels))
    for d in range(width):
        pairs = width - d
        lagged = np.einsum("nt,nt->t", x[:, : steps - d], x[:, d:])
        sums = np.empty((pairs, channels, channels))
        sums[0] = rows[:n_anchors].T @ rows[d : d + n_anchors]
        sums[0, 0, 0] = lagged[:n_anchors].sum()
        # each later pair adds the step that enters the range and takes
        # away the one that leaves it
        enter = np.einsum("tk,tl->tkl", rows[n_anchors : steps - d], rows[n_anchors + d :])
        enter -= np.einsum("tk,tl->tkl", rows[: pairs - 1], rows[d : width - 1])
        enter[:, 0, 0] = lagged[n_anchors:] - lagged[: pairs - 1]
        np.cumsum(enter, axis=0, out=sums[1:])
        sums[1:] += sums[0]
        # the covariates are the same for every node
        sums[:, 1:, 1:] *= train.n_nodes
        i = np.arange(pairs)
        moments[i, :, i + d] = sums
        moments[i + d, :, i] = sums.transpose(0, 2, 1)
    moments = moments.reshape(width * channels, width * channels)
    # the weight rows: P values, then every step's covariates, step-major
    values = np.arange(width) * channels
    features = np.concatenate([values[:p], (values[:, np.newaxis] + np.arange(1, channels)).ravel()])
    gram = moments[np.ix_(features, features)]
    gram += l2 * np.eye(features.size)
    rhs = moments[np.ix_(features, values[p:])]
    return RidgeModel(weights=np.linalg.solve(gram, rhs), feature_layout=train.layout)


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
