"""Hankel lifting of a multivariate signal.

The lifted matrix H stacks tau shifted copies of the N x T signal into
an (N*tau) x (T - tau + 1) block matrix: block row b, column j holds the
signal at time j + b. H is never formed explicitly: its tall products
H x and H^T y are cross-correlations of the source computed with the
FFT at a fast length L >= T, and the Gram H^T H is only ever applied to
a block of vectors, never built.

Every transform runs along the last, contiguous axis: the source
spectrum is laid out (node, frequency), and a block of k columns is
transformed as k rows. The Gram product is one kernel made of the two
tall products: H x stays in a (k, nodes, tau) array, time last, which
the H^T half reads as it is, so the (N*tau, k) tall block is never
built. Each product runs over ranges of nodes that bound its FFT
temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

# Upper bound on the elements of one FFT temporary (columns x nodes x
# frequencies) in the tall and Gram products: each product runs in
# passes over ranges of nodes, one node at the least.
FFT_CHUNK_ELEMENTS = 1 << 20


@dataclass
class SignalMatrix:
    """An N x T observation matrix with node metadata and a missing mask.

    Rows are spatial nodes, columns are time steps. ``mask`` is True
    where a value was observed; the fit lifts the array that
    ``impute_linear`` fills, while metrics keep using the mask.
    """

    values: np.ndarray
    mask: np.ndarray
    node_ids: list[str]

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
        if not np.all(np.isfinite(self.values), where=self.mask):
            raise DataError("observed values must be finite")

    @classmethod
    def from_values(cls, values: np.ndarray, node_ids: list[str] | None = None) -> "SignalMatrix":
        values = np.asarray(values, dtype=float)
        if node_ids is None:
            node_ids = [f"n{i:03d}" for i in range(values.shape[0])]
        return cls(values=values, mask=np.ones(values.shape, dtype=bool), node_ids=list(node_ids))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


def impute_linear(signal: SignalMatrix) -> np.ndarray:
    """The signal's values with each node's missing entries filled by
    linear interpolation in time: the signal's own array when nothing
    is missing, else a filled copy.

    Ends are held constant at the nearest observed value. A node with no
    observed value at all cannot be imputed.
    """
    if signal.mask.all():
        return signal.values
    values = signal.values.copy()
    steps = np.arange(signal.n_steps)
    for i in range(signal.n_nodes):
        seen = signal.mask[i]
        if not seen.any():
            raise DataError(f"node {signal.node_ids[i]!r} has no observed values")
        if seen.all():
            continue
        values[i] = np.interp(steps, steps[seen], values[i, seen])
    return values


def fast_length(t: int) -> int:
    """The smallest 2*3*5-smooth length of at least ``t`` (one that
    divides a power of 30), which numpy's FFT transforms fastest."""
    n = t
    while 30 ** n.bit_length() % n:
        n += 1
    return n


@dataclass
class HankelView:
    """Lazy Hankel lifting of an all-observed N x T array ``values``.

    Element access contract: H[b*N + i, j] = values[i, j + b] for
    0 <= j <= T - tau. Immutable after construction; all operations are
    read-only. The view carries no node ids, mask or time units: every
    period and rate read from it is in steps.
    """

    values: np.ndarray
    tau: int

    @property
    def columns(self) -> int:
        return self.values.shape[1] - self.tau + 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.values.shape[0] * self.tau, self.columns)

    @cached_property
    def fft_length(self) -> int:
        """Correlation length L >= T: every kept index j + b <= T - 1,
        so no product wraps around."""
        return fast_length(self.values.shape[1])

    @cached_property
    def source_spectrum(self) -> np.ndarray:
        """Real FFT of the source along time at the correlation length,
        laid out (node, frequency)."""
        return np.fft.rfft(self.values, n=self.fft_length, axis=1)


def default_tau(values: np.ndarray) -> int:
    """Stacking depth: tau = max(ceil(2T / N), ceil(T / 4)), capped at T // 2.

    The first term gives the lifting at least 2T rows; the second keeps
    the delay window at a quarter of the series when many nodes would
    otherwise shrink it below the slow periods (it wins only for N > 8).
    The cap keeps at least half the lifting's columns as snapshots, which
    few nodes (N < 4) would otherwise use up. H is never formed, and a
    fit forms no N*tau-row array, so tau sets no memory cost.
    """
    n, t = values.shape
    return max(1, min(max(-(-2 * t // n), -(-t // 4)), t // 2))


def build_hankel(values: np.ndarray, tau: int) -> HankelView:
    """The Hankel view of an all-observed N x T array with ``tau`` block
    rows, for a fit. A fit needs two snapshot pairs, T - tau >= 2, so tau
    must lie in [1, T - 2]; a deeper view, for products alone, is a
    ``HankelView`` built directly."""
    top = values.shape[1] - 2
    if not (1 <= tau <= top):
        raise ValueError(f"tau must be in [1, {top}], got {tau}")
    return HankelView(values, tau)


def _node_ranges(view: HankelView, k: int) -> list[slice]:
    """Node ranges of a product of a k-column block, each small enough
    that its (k, nodes, F) temporaries stay within FFT_CHUNK_ELEMENTS."""
    n = view.values.shape[0]
    step = max(1, FFT_CHUNK_ELEMENTS // (max(k, 1) * (view.fft_length // 2 + 1)))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


# Both halves correlate the signal with a block: sum_j s[j + b] x[j] is
# the convolution of s with x reversed in time, read at step
# b + len(x) - 1. The kept steps end at T - 1 < L, and the entries that
# wrap around at L land below len(x) - 1, where nothing is kept.


def _reversed_spectrum(view: HankelView, x: np.ndarray) -> np.ndarray:
    """Spectra of the columns of x (T - tau + 1, k), reversed in time, as rows (k, F)."""
    return np.fft.rfft(x.T[:, ::-1], n=view.fft_length)


def _first_half(view: HankelView, spectrum: np.ndarray, nodes: slice) -> np.ndarray:
    """H x on the rows of ``nodes``, given x's ``_reversed_spectrum``,
    laid out (k, nodes, tau) with entry [c, i, b] = sum_j values[i, j + b] x_c[j]."""
    spectra = view.source_spectrum[nodes] * spectrum[:, np.newaxis, :]
    return np.fft.irfft(spectra, n=view.fft_length)[..., view.columns - 1 : view.values.shape[1]]


def _second_half(view: HankelView, blocks: np.ndarray, nodes: slice) -> np.ndarray:
    """The spectrum (k, F) of H^T y over the rows of ``nodes``, for each y
    of ``blocks`` (k, nodes, tau), laid out like ``_first_half``'s
    product: the sum over those nodes, taken in frequency space."""
    spectra = np.fft.rfft(blocks[..., ::-1], n=view.fft_length)
    spectra *= view.source_spectrum[nodes]
    return spectra.sum(axis=1)


def _summed(view: HankelView, spectra) -> np.ndarray:
    """H^T y as rows (k, T - tau + 1) from the ``_second_half`` spectra of
    its node ranges. The sum starts from the first, so one range is
    transformed as it is."""
    total = next(spectra)
    for spectrum in spectra:
        total += spectrum
    return np.fft.irfft(total, n=view.fft_length)[:, view.tau - 1 : view.values.shape[1]]


def _real_block(x, rows: int) -> np.ndarray:
    """``x`` as a real 2-D block of ``rows`` rows; a complex or 1-D one is refused."""
    x = np.asarray(x)
    if x.ndim != 2 or np.iscomplexobj(x):
        raise ValueError(f"expected a real 2-D block, got {x.dtype} of shape {x.shape}")
    if x.shape[0] != rows:
        raise ValueError(f"block has {x.shape[0]} rows, the view needs {rows}")
    return np.asarray(x, dtype=float)


def apply_tall(view: HankelView, x: np.ndarray) -> np.ndarray:
    """Compute H @ x for a real x of shape (T - tau + 1, k) without forming H.

    Block row b of the product is the cross-correlation of the signal
    with x at lag b, so every lag comes from one FFT round trip and the
    cost does not depend on tau. This is the first half of ``gram``.
    """
    x = _real_block(x, view.columns)
    spectrum = _reversed_spectrum(view, x)
    ranges = _node_ranges(view, x.shape[1])
    blocks = np.concatenate([_first_half(view, spectrum, nodes) for nodes in ranges], axis=1)
    return blocks.transpose(2, 1, 0).reshape(view.shape[0], x.shape[1])


def apply_tall_transpose(view: HankelView, y: np.ndarray) -> np.ndarray:
    """Compute H^T @ y for a real y of shape (N*tau, k) without forming H.

    Each node's tau block entries, zero-padded to L, are correlated with
    the node's signal; the sum over nodes is taken in frequency space.
    This is the second half of ``gram``.
    """
    y = _real_block(y, view.shape[0])
    # Time-contiguous rows: FFT outputs follow their input's memory order.
    blocks = y.reshape(view.tau, view.values.shape[0], -1).transpose(2, 1, 0)
    blocks = np.ascontiguousarray(blocks)
    ranges = _node_ranges(view, y.shape[1])
    return _summed(view, (_second_half(view, blocks[:, nodes], nodes) for nodes in ranges)).T


def gram(view: HankelView, x: np.ndarray) -> np.ndarray:
    """The Gram product H^T (H x) for a real x of shape (T - tau + 1, k),
    without forming the Gram.

    Both halves run in one pass per range of nodes, with no tall
    (N*tau, k) block between them; the spectra of x are formed once,
    and the ranges' spectra are summed before one inverse transform.
    """
    x = _real_block(x, view.columns)
    spectrum = _reversed_spectrum(view, x)
    ranges = _node_ranges(view, x.shape[1])
    return _summed(view, (_second_half(view, _first_half(view, spectrum, nodes), nodes)
                          for nodes in ranges)).T


def column_energies(view: HankelView) -> np.ndarray:
    """Squared 2-norm of every column of H (the diagonal of the Gram)."""
    v = view.values
    # per-step sums of squares, without a squared copy of the signal
    csum = np.concatenate([[0.0], np.cumsum(np.einsum("nt,nt->t", v, v))])
    return csum[view.tau :] - csum[: view.columns]
