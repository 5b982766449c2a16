"""Hankel lifting of a multivariate signal.

The lifted matrix H stacks tau shifted copies of the N x T signal into
an (N*tau) x (T - tau + 1) block matrix: block row b, column j holds the
signal at time j + b. H is never formed explicitly: its tall products
H x and H^T y are cross-correlations of the source computed with the
FFT at a fast length L >= T, and the Gram H^T H is only ever applied to
a block of vectors, never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

# Upper bound on the elements of one FFT temporary (frequencies x nodes
# x columns) in the tall products; wider blocks are split into passes.
FFT_CHUNK_ELEMENTS = 1 << 20


@dataclass
class SignalMatrix:
    """An N x T observation matrix with node metadata and a missing mask.

    Rows are spatial nodes, columns are time steps. ``mask`` is True
    where a value was observed; spectral analysis requires an all-true
    mask (impute first), while metrics keep using the original mask.
    """

    values: np.ndarray
    mask: np.ndarray
    node_ids: list[str]
    step_seconds: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2:
            raise DataError(f"values must be 2-D (nodes x steps), got {self.values.shape}")
        n, t = self.values.shape
        if n < 1 or t < 2:
            raise DataError(f"need at least 1 node and 2 steps, got {n} x {t}")
        if self.mask.shape != self.values.shape:
            raise DataError("mask shape must match values shape")
        if len(self.node_ids) != n:
            raise DataError(f"{len(self.node_ids)} node ids for {n} nodes")
        if self.step_seconds <= 0:
            raise DataError(f"step_seconds must be positive, got {self.step_seconds}")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise DataError("observed values must be finite")

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        node_ids: list[str] | None = None,
        step_seconds: float = 900.0,
    ) -> "SignalMatrix":
        values = np.asarray(values, dtype=float)
        if node_ids is None:
            node_ids = [f"n{i:03d}" for i in range(values.shape[0])]
        return cls(
            values=values,
            mask=np.ones(values.shape, dtype=bool),
            node_ids=list(node_ids),
            step_seconds=step_seconds,
        )

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


def impute_linear(signal: SignalMatrix) -> SignalMatrix:
    """Fill missing entries per node by linear interpolation in time.

    Ends are held constant at the nearest observed value. A node with no
    observed value at all cannot be imputed.
    """
    if signal.mask.all():
        return signal
    values = signal.values.copy()
    steps = np.arange(signal.n_steps)
    for i in range(signal.n_nodes):
        seen = signal.mask[i]
        if not seen.any():
            raise DataError(f"node {signal.node_ids[i]!r} has no observed values")
        if seen.all():
            continue
        values[i] = np.interp(steps, steps[seen], values[i, seen])
    return SignalMatrix(
        values=values,
        mask=np.ones_like(signal.mask),
        node_ids=list(signal.node_ids),
        step_seconds=signal.step_seconds,
    )


def fast_length(t: int) -> int:
    """The smallest 2*3*5-smooth length of at least ``t`` (one that
    divides a power of 30), which numpy's FFT transforms fastest."""
    n = t
    while 30 ** n.bit_length() % n:
        n += 1
    return n


@dataclass
class HankelView:
    """Lazy Hankel lifting of a SignalMatrix.

    Element access contract: H[b*N + i, j] = values[i, j + b] for
    0 <= j <= T - tau. Immutable after construction; all operations are
    read-only.
    """

    source: SignalMatrix
    tau: int

    @property
    def columns(self) -> int:
        return self.source.n_steps - self.tau + 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.source.n_nodes * self.tau, self.columns)

    @cached_property
    def fft_length(self) -> int:
        """Correlation length L >= T: every kept index j + b <= T - 1,
        so no product wraps around."""
        return fast_length(self.source.n_steps)

    @cached_property
    def source_spectrum(self) -> np.ndarray:
        """Real FFT of the source along time at the correlation length,
        laid out (frequency, node, 1)."""
        return np.fft.rfft(self.source.values, n=self.fft_length, axis=1).T[:, :, np.newaxis]


def default_tau(signal: SignalMatrix) -> int:
    """Stacking depth: tau = max(ceil(2T / N), ceil(T / 4)), capped at T // 2.

    The first term gives the lifting at least 2T rows; the second keeps
    the delay window at a quarter of the series when many nodes would
    otherwise shrink it below the slow periods (it wins only for N > 8).
    The cap keeps at least half the lifting's columns as snapshots, which
    few nodes (N < 4) would otherwise use up. H is never formed, so tau
    sets no memory cost beyond the N*tau-row tall products.
    """
    n, t = signal.values.shape
    return max(1, min(max(-(-2 * t // n), -(-t // 4)), t // 2))


def build_hankel(signal: SignalMatrix, tau: int) -> HankelView:
    """Construct the Hankel view with ``tau`` stacked block rows.

    Requires an all-true mask (run impute_linear first). Only the N x T
    source is kept.
    """
    t = signal.n_steps
    if not (1 <= tau <= t):
        raise ValueError(f"tau must be in [1, {t}], got {tau}")
    if not signal.mask.all():
        raise DataError("signal has unimputed missing values; impute before lifting")
    return HankelView(source=signal, tau=tau)


def _chunk_columns(view: HankelView) -> int:
    """Columns per FFT pass so the (F, N, columns) temporary stays bounded."""
    return max(1, FFT_CHUNK_ELEMENTS // (view.source.n_nodes * (view.fft_length // 2 + 1)))


def _real_columns(op, view: HankelView, x: np.ndarray) -> np.ndarray:
    """Apply a real linear product to a 1-D, 2-D, real or complex block."""
    single = x.ndim == 1
    if single:
        x = x[:, np.newaxis]
    if np.iscomplexobj(x):
        k = x.shape[1]
        both = op(view, np.concatenate([x.real, x.imag], axis=1))
        out = both[:, :k] + 1j * both[:, k:]
    else:
        out = op(view, np.asarray(x, dtype=float))
    return out[:, 0] if single else out


def _tall(view: HankelView, x: np.ndarray) -> np.ndarray:
    n, length = view.source.n_nodes, view.fft_length
    out = np.empty((view.tau, n, x.shape[1]))
    step = _chunk_columns(view)
    for c in range(0, x.shape[1], step):
        xs = np.conj(np.fft.rfft(x[:, c : c + step], n=length, axis=0))[:, np.newaxis, :]
        corr = np.fft.irfft(view.source_spectrum * xs, n=length, axis=0)  # (L, N, columns)
        out[:, :, c : c + step] = corr[: view.tau]
    return out.reshape(n * view.tau, x.shape[1])


def _tall_transpose(view: HankelView, y: np.ndarray) -> np.ndarray:
    n, length = view.source.n_nodes, view.fft_length
    blocks = y.reshape(view.tau, n, y.shape[1])
    out = np.empty((view.columns, y.shape[1]))
    step = _chunk_columns(view)
    for c in range(0, y.shape[1], step):
        ys = np.conj(np.fft.rfft(blocks[:, :, c : c + step], n=length, axis=0))
        corr = np.fft.irfft(np.sum(view.source_spectrum * ys, axis=1), n=length, axis=0)
        out[:, c : c + step] = corr[: view.columns]
    return out


def apply_tall(view: HankelView, x: np.ndarray) -> np.ndarray:
    """Compute H @ x for x of shape (T - tau + 1, k) without forming H.

    Block row b of the product is the cross-correlation of the signal
    with x at lag b, so every lag comes from one FFT round trip and the
    cost does not depend on tau.
    """
    x = np.asarray(x)
    if x.shape[0] != view.columns:
        raise ValueError(f"x has {x.shape[0]} rows, view has {view.columns} columns")
    return _real_columns(_tall, view, x)


def apply_tall_transpose(view: HankelView, y: np.ndarray) -> np.ndarray:
    """Compute H^T @ y for y of shape (N*tau, k) without forming H.

    Each node's tau block entries, zero-padded to L, are correlated with
    the node's signal; the sum over nodes is taken in frequency space.
    """
    y = np.asarray(y)
    n = view.source.n_nodes
    if y.shape[0] != n * view.tau:
        raise ValueError(f"y has {y.shape[0]} rows, view has {n * view.tau}")
    return _real_columns(_tall_transpose, view, y)


def gram(view: HankelView, x: np.ndarray) -> np.ndarray:
    """The Gram product H^T (H x) for x of shape (T - tau + 1, k), without
    forming the Gram."""
    return apply_tall_transpose(view, apply_tall(view, x))


def column_energies(view: HankelView) -> np.ndarray:
    """Squared 2-norm of every column of H (the diagonal of the Gram)."""
    csum = np.concatenate([[0.0], np.cumsum(np.sum(view.source.values**2, axis=0))])
    return csum[view.tau :] - csum[: view.columns]
