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
buffers. The view keeps one set of buffers for each block width, and
every transform and product of a range writes into it, so repeated
products allocate only their (k, F) sums and their result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError

# Upper bound on the elements of the spectra buffer (columns x nodes x
# frequencies) of the tall and Gram products, whose real rows buffer
# (columns x nodes x 2L - T steps) takes about as many bytes: each
# product runs in passes over ranges of nodes, one node at the least,
# and its buffers are sized for the widest range.
FFT_CHUNK_ELEMENTS = 1 << 20


def impute_linear(values: np.ndarray, node_ids: list[str]) -> np.ndarray:
    """The (N, T) ``values`` with each node's blank (NaN) entries filled
    by linear interpolation in time: the input itself when nothing is
    blank, else a filled copy.

    Ends are held constant at the nearest observed value. A node with no
    observed value at all cannot be imputed; ``node_ids`` name it.
    """
    blank = np.isnan(values)
    if not blank.any():
        return values
    filled = values.copy()
    steps = np.arange(values.shape[1])
    for i in np.flatnonzero(blank.any(axis=1)):
        seen = ~blank[i]
        if not seen.any():
            raise DataError(f"node {node_ids[i]!r} has no observed values")
        filled[i] = np.interp(steps, steps[seen], values[i, seen])
    return filled


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
    0 <= j <= T - tau. The lifting never changes. The view caches its
    source spectrum and, for each block width, the buffers its products
    write into, which live as long as the view: one view serves one
    caller at a time, and a fit runs its products on a view of its own.
    The view carries no node ids or time units: every period and rate
    read from it is in steps.
    """

    values: np.ndarray
    tau: int
    _buffers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    rows, for a fit. A fit needs two snapshot pairs, T - tau >= 2, so a
    series of fewer than 3 steps is a DataError, and tau must lie in
    [1, T - 2]; a deeper view, for products alone, is a ``HankelView``
    built directly."""
    top = values.shape[1] - 2
    if top < 1:
        raise DataError(f"a fit needs at least 3 steps, for two snapshot pairs; got {top + 2}")
    if not (1 <= tau <= top):
        raise ValueError(f"tau must be in [1, {top}], got {tau}")
    return HankelView(values, tau)


def _node_ranges(view: HankelView, k: int) -> list[slice]:
    """Node ranges of a product of a k-column block, each small enough
    that its (k, nodes, F) spectra stay within FFT_CHUNK_ELEMENTS; the
    first range is the widest."""
    n = view.values.shape[0]
    step = max(1, FFT_CHUNK_ELEMENTS // (max(k, 1) * (view.fft_length // 2 + 1)))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


@dataclass
class _Buffers:
    """What every k-column product on one view writes into, sized for its
    widest node range: the (k, F) spectrum of the block, the range's
    (k, nodes, F) spectra, and its rows of 2L - T steps. From step L - T
    on, a row holds a node's window of tau steps, H x or y reversed in
    time, and then zeros to L steps: the input of the second half. No
    half reads the steps before L - T."""

    spectrum: np.ndarray
    spectra: np.ndarray
    rows: np.ndarray


def _buffers(view: HankelView, k: int, ranges: list[slice]) -> _Buffers:
    """The view's buffers for k-column products over ``ranges``, made by
    the first such product."""
    if k not in view._buffers:
        length, frequencies, widest = view.fft_length, view.fft_length // 2 + 1, ranges[0].stop
        view._buffers[k] = _Buffers(np.empty((k, frequencies), dtype=complex),
                                    np.empty((k, widest, frequencies), dtype=complex),
                                    np.zeros((k, widest, 2 * length - view.values.shape[1])))
    return view._buffers[k]


# Both halves correlate the signal with a block: sum_j s[j + b] x[j] is
# the convolution of s with x reversed in time, read at step
# b + len(x) - 1. The kept steps end at T - 1 < L, and the entries that
# wrap around at L land below len(x) - 1, where nothing is kept.


def _window(view: HankelView, buffers: _Buffers, nodes: slice) -> np.ndarray:
    """The buffers' (k, nodes, tau) window on the rows of ``nodes``."""
    lead = view.fft_length - view.values.shape[1]
    return buffers.rows[:, : nodes.stop - nodes.start, lead : lead + view.tau]


def _reversed_spectrum(view: HankelView, x: np.ndarray, ranges: list[slice]) -> _Buffers:
    """The buffers of a product of x (T - tau + 1, k) over ``ranges``,
    holding the spectra of the columns of x, reversed in time, as rows."""
    buffers = _buffers(view, x.shape[1], ranges)
    np.fft.rfft(x.T[:, ::-1], n=view.fft_length, out=buffers.spectrum)
    return buffers


def _first_half(view: HankelView, buffers: _Buffers, nodes: slice) -> np.ndarray:
    """H x on the rows of ``nodes``, given x's ``_reversed_spectrum``,
    reversed in time: the buffers' window, with entry [c, i, tau - 1 - b]
    = sum_j values[i, j + b] x_c[j]. The next product overwrites it."""
    length, steps = view.fft_length, view.values.shape[1]
    spectra = buffers.spectra[:, : nodes.stop - nodes.start]
    np.multiply(view.source_spectrum[nodes], buffers.spectrum[:, np.newaxis, :], out=spectra)
    # Written backwards from step L - 1, the kept steps T - tau .. T - 1
    # land reversed in the window; the wrapped ones behind it are zeroed.
    rows = buffers.rows[:, : nodes.stop - nodes.start]
    np.fft.irfft(spectra, n=length, out=rows[..., length - 1 :: -1])
    rows[..., length - steps + view.tau : length] = 0.0
    return _window(view, buffers, nodes)


def _second_half(view: HankelView, buffers: _Buffers, nodes: slice) -> np.ndarray:
    """The spectrum (k, F) of H^T y over the rows of ``nodes``, for the y
    that the buffers' window holds reversed in time, laid out like
    ``_first_half``'s product: the sum over those nodes, taken in
    frequency space."""
    lead = view.fft_length - view.values.shape[1]
    spectra = buffers.spectra[:, : nodes.stop - nodes.start]
    np.fft.rfft(buffers.rows[:, : nodes.stop - nodes.start, lead:], out=spectra)
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
    ranges = _node_ranges(view, x.shape[1])
    buffers = _reversed_spectrum(view, x, ranges)
    blocks = np.empty((x.shape[1], view.values.shape[0], view.tau))
    for nodes in ranges:
        blocks[:, nodes] = _first_half(view, buffers, nodes)[..., ::-1]
    return blocks.transpose(2, 1, 0).reshape(view.shape[0], x.shape[1])


def apply_tall_transpose(view: HankelView, y: np.ndarray) -> np.ndarray:
    """Compute H^T @ y for a real y of shape (N*tau, k) without forming H.

    Each node's tau block entries, zero-padded to L, are correlated with
    the node's signal; the sum over nodes is taken in frequency space.
    This is the second half of ``gram``.
    """
    y = _real_block(y, view.shape[0])
    blocks = y.reshape(view.tau, view.values.shape[0], -1).transpose(2, 1, 0)
    ranges = _node_ranges(view, y.shape[1])
    buffers = _buffers(view, y.shape[1], ranges)

    def spectra():
        for nodes in ranges:
            _window(view, buffers, nodes)[...] = blocks[:, nodes, ::-1]
            yield _second_half(view, buffers, nodes)

    return _summed(view, spectra()).T


def gram(view: HankelView, x: np.ndarray) -> np.ndarray:
    """The Gram product H^T (H x) for a real x of shape (T - tau + 1, k),
    without forming the Gram.

    Both halves run in one pass per range of nodes, with no tall
    (N*tau, k) block between them; the spectra of x are formed once,
    and the ranges' spectra are summed before one inverse transform.
    """
    x = _real_block(x, view.columns)
    ranges = _node_ranges(view, x.shape[1])
    buffers = _reversed_spectrum(view, x, ranges)

    def spectra():
        for nodes in ranges:
            _first_half(view, buffers, nodes)
            yield _second_half(view, buffers, nodes)

    return _summed(view, spectra()).T


def column_energies(view: HankelView) -> np.ndarray:
    """Squared 2-norm of every column of H (the diagonal of the Gram)."""
    v = view.values
    # per-step sums of squares, without a squared copy of the signal
    csum = np.concatenate([[0.0], np.cumsum(np.einsum("nt,nt->t", v, v))])
    return csum[view.tau :] - csum[: view.columns]
