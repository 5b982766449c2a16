"""Dense reference for the lazy Hankel lifting, for small test instances."""

import numpy as np


def materialize_hankel(values: np.ndarray, tau: int) -> np.ndarray:
    """Explicit (N*tau) x T circulant Hankel matrix: block row b holds the
    signal rolled left by b steps."""
    return np.vstack([np.roll(values, -b, axis=1) for b in range(tau)])


def wrapped_window_sums(cross: np.ndarray, tau: int) -> np.ndarray:
    """Gram-type sum G[j, k] = sum_{b < tau} cross[(j+b) % T, (k+b) % T].

    Along each cyclic diagonal d = k - j (mod T) the sum is a circular
    sliding window of length tau over the diagonal sequence, evaluated
    with cumulative sums.
    """
    t = cross.shape[0]
    if tau == 1:
        return cross.copy()
    rows = np.arange(t)[:, np.newaxis]
    cols = (rows + np.arange(t)[np.newaxis, :]) % t
    diag = cross[rows, cols]
    stacked = np.concatenate([diag, diag[: tau - 1]], axis=0)
    csum = np.cumsum(stacked, axis=0)
    windows = csum[tau - 1 : tau - 1 + t].copy()
    windows[1:] -= csum[: t - 1]
    out = np.empty_like(cross)
    out[rows, cols] = windows
    return out


def dense_gram(values: np.ndarray, tau: int) -> np.ndarray:
    """T x T Gram H^T H of the circulant lifting, built blockwise from the
    N x T source without forming H, and symmetrized."""
    g = wrapped_window_sums(values.T @ values, tau)
    return 0.5 * (g + g.T)
