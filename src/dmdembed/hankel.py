"""Circulant Hankel lifting of a multivariate signal.

The lifted matrix H stacks tau cyclically shifted copies of the N x T
signal into an (N*tau) x T block matrix: block row b, column j holds the
signal at time (j + b) mod T. H is never formed explicitly: Gram
matrices and tall products are computed blockwise from the source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Upper bound on logical elements (rows * cols) of the lifting that
# default_tau picks.
MEMORY_CAP_ELEMENTS = 10**8


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


@dataclass
class HankelView:
    """Lazy circulant Hankel lifting of a SignalMatrix.

    Element access contract: H[b*N + i, j] = values[i, (j + b) mod T].
    Immutable after construction; all operations are read-only.
    """

    source: SignalMatrix
    tau: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.source.n_nodes * self.tau, self.source.n_steps)


def default_tau(signal: SignalMatrix, memory_cap: int = MEMORY_CAP_ELEMENTS) -> int:
    """Stacking depth so the lifting has at least 2T rows when affordable.

    tau = ceil(2T / N), capped at T block rows and at ``memory_cap``
    logical elements for the lifted matrix.
    """
    n, t = signal.values.shape
    tau = -(-2 * t // n)
    tau = min(tau, t, max(1, memory_cap // (n * t)))
    return max(1, tau)


def build_hankel(signal: SignalMatrix, tau: int) -> HankelView:
    """Construct the circulant Hankel view with ``tau`` stacked block rows.

    Requires an all-true mask (run impute_linear first). Only the N x T
    source is kept.
    """
    t = signal.n_steps
    if not (1 <= tau <= t):
        raise ValueError(f"tau must be in [1, {t}], got {tau}")
    if not signal.mask.all():
        raise DataError("signal has unimputed missing values; impute before lifting")
    return HankelView(source=signal, tau=tau)


def _wrapped_window_sums(cross: np.ndarray, tau: int, chunk: int | None = None) -> np.ndarray:
    """Gram-type sum G[j, k] = sum_{b < tau} cross[(j+b) % T, (k+b) % T].

    Works one band of cyclic diagonals at a time: along diagonal
    d = k - j (mod T) the sum is a circular sliding window of length tau
    over the diagonal sequence, evaluated with cumulative sums. O(T^2)
    time regardless of tau.
    """
    t = cross.shape[0]
    if tau == 1:
        return cross.copy()
    if chunk is None:
        chunk = max(1, int(4_000_000 // max(t, 1)))
    out = np.empty_like(cross)
    rows = np.arange(t)[:, np.newaxis]
    for d0 in range(0, t, chunk):
        dd = np.arange(d0, min(d0 + chunk, t))[np.newaxis, :]
        cols = (rows + dd) % t
        diag = cross[rows, cols]
        stacked = np.concatenate([diag, diag[: tau - 1]], axis=0)
        csum = np.cumsum(stacked, axis=0)
        windows = csum[tau - 1 : tau - 1 + t].copy()
        windows[1:] -= csum[: t - 1]
        out[rows, cols] = windows
    return out


def gram(view: HankelView) -> np.ndarray:
    """T x T Gram matrix H^T H computed blockwise from the source.

    Exactly symmetric (symmetrized after the blockwise accumulation to
    remove summation-order round-off).
    """
    values = view.source.values
    base = values.T @ values
    g = _wrapped_window_sums(base, view.tau)
    return 0.5 * (g + g.T)


def apply_tall(view: HankelView, x: np.ndarray) -> np.ndarray:
    """Compute H @ x for x of shape (T, k) without forming H.

    Block row b of the product is values @ roll(x, b, axis=0).
    """
    x = np.asarray(x)
    single = x.ndim == 1
    if single:
        x = x[:, np.newaxis]
    t = view.source.n_steps
    if x.shape[0] != t:
        raise ValueError(f"x has {x.shape[0]} rows, view has {t} columns")
    values = view.source.values
    n = view.source.n_nodes
    out = np.empty((n * view.tau, x.shape[1]), dtype=np.result_type(values, x))
    for b in range(view.tau):
        out[b * n : (b + 1) * n] = values @ np.roll(x, b, axis=0)
    return out[:, 0] if single else out


def apply_tall_transpose(view: HankelView, y: np.ndarray) -> np.ndarray:
    """Compute H^T @ y for y of shape (N*tau, k) without forming H."""
    y = np.asarray(y)
    single = y.ndim == 1
    if single:
        y = y[:, np.newaxis]
    n = view.source.n_nodes
    if y.shape[0] != n * view.tau:
        raise ValueError(f"y has {y.shape[0]} rows, view has {n * view.tau}")
    values = view.source.values
    out = np.zeros((view.source.n_steps, y.shape[1]), dtype=np.result_type(values, y))
    for b in range(view.tau):
        out += np.roll(values.T @ y[b * n : (b + 1) * n], -b, axis=0)
    return out[:, 0] if single else out


def column_energies(view: HankelView) -> np.ndarray:
    """Squared 2-norm of every column of H (the diagonal of the Gram)."""
    e = np.sum(view.source.values**2, axis=0)
    stacked = np.concatenate([e, e[: view.tau - 1]]) if view.tau > 1 else e
    csum = np.concatenate([[0.0], np.cumsum(stacked)])
    return csum[view.tau : view.tau + e.size] - csum[: e.size]
