"""Dense references for the lazy Hankel lifting and its Gram products,
for small test instances."""

import numpy as np

from dmdembed.linalg import GramProduct


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
