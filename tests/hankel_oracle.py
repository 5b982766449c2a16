"""Dense references for the lazy Hankel lifting and its Gram products,
for small test instances."""

from types import SimpleNamespace

import numpy as np

from dmdembed.linalg import GramProduct, RankPolicy, leading_spectrum


def materialize_hankel(values: np.ndarray, tau: int) -> np.ndarray:
    """Explicit (N*tau) x (T - tau + 1) Hankel matrix: block row b holds
    the signal from step b on."""
    columns = values.shape[1] - tau + 1
    return np.vstack([values[:, b : b + columns] for b in range(tau)])


def dense_gram(values: np.ndarray, tau: int) -> np.ndarray:
    """Gram H^T H of the lifting, G[j, k] = sum_{b < tau} C[j+b, k+b]
    with C = values^T values, built from the N x T source without
    forming H, and symmetrized."""
    cross = values.T @ values
    columns = values.shape[1] - tau + 1
    g = sum(cross[b : b + columns, b : b + columns] for b in range(tau))
    return 0.5 * (g + g.T)


def gram_product(g: np.ndarray) -> GramProduct:
    """The products of a formed Gram matrix ``g``, with its trace."""
    return GramProduct(lambda x: g @ x, g.shape[0], float(np.trace(g)))


def snapshot_svd(gram: GramProduct, h: np.ndarray, policy: RankPolicy) -> SimpleNamespace:
    """Truncated SVD of a formed ``h`` by the method of snapshots: the
    singular values, the right vectors V and their Gram images from
    ``leading_spectrum`` on ``gram``, the products of h^T h, and the
    left vectors U = h V diag(1/sigma), which no fit forms, formed here."""
    spectrum, right, images, solve = leading_spectrum(gram, policy)
    sigma = spectrum[: right.shape[1]]
    return SimpleNamespace(left_vectors=h @ (right / sigma), singular_values=sigma,
                           right_vectors=right, images=images, spectrum=spectrum,
                           solve=solve, rank=sigma.size)
