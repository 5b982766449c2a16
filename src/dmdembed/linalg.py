"""Dense linear-algebra kernels shared by the spectral modules.

The central routine is a truncated SVD computed by the method of
snapshots: the factorization of a tall matrix H is recovered from the
eigendecomposition of the small Gram matrix H^T H, so H itself is only
touched through an implicit tall-product callback and is never squared.
The rank policies that decide where that SVD is truncated live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import EigenSolverError, EmptySpectrumError

# Relative singular-value cutoff: sigma below DEFAULT_SVD_TOL * sigma_max
# is treated as numerical zero.
DEFAULT_SVD_TOL = 1e-10

GRAM_ASYMMETRY_TOL = 1e-10


def numerical_rank(sigma: np.ndarray, tol: float = DEFAULT_SVD_TOL) -> int:
    """Count singular values above the truncation cutoff.

    Through a Gram matrix, eigenvalue round-off floors recoverable
    singular values at about sqrt(T * eps) * sigma_max, so the cutoff
    never drops below that regardless of ``tol``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    floor = np.sqrt(sigma.size * np.finfo(float).eps)
    return int(np.count_nonzero(sigma > max(tol, floor) * sigma[0]))


@dataclass(frozen=True)
class FixedRank:
    """Keep exactly ``rank`` modes (clamped to the numerical rank)."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"fixed rank must be positive, got {self.rank}")


@dataclass(frozen=True)
class CepThreshold:
    """Keep the fewest modes whose cumulative squared singular values
    reach ``fraction`` of the total."""

    fraction: float = 0.90

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"cep fraction must be in (0, 1], got {self.fraction}")


RankPolicy = Union[FixedRank, CepThreshold]


def resolve_rank(
    singular_values: np.ndarray,
    policy: RankPolicy,
    tol: float = DEFAULT_SVD_TOL,
) -> int:
    """Resolve a rank policy against a descending singular-value spectrum."""
    sigma = np.asarray(singular_values, dtype=float)
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise EmptySpectrumError("empty singular spectrum")
    n_rank = numerical_rank(sigma, tol)
    if n_rank == 0:
        raise EmptySpectrumError("all singular values below tolerance")
    if isinstance(policy, FixedRank):
        return min(policy.rank, n_rank)
    if isinstance(policy, CepThreshold):
        energy = sigma**2
        cum = np.cumsum(energy) / energy.sum()
        hits = np.nonzero(cum >= policy.fraction)[0]
        k = int(hits[0]) + 1 if hits.size else sigma.size
        return min(k, n_rank)
    raise TypeError(f"unknown rank policy {policy!r}")


@dataclass(frozen=True)
class SnapshotSvd:
    """Truncated SVD factors H ~= left_vectors @ diag(singular_values) @ right_vectors.T.

    left_vectors:    (n_rows, r) orthonormal columns
    singular_values: (r,) strictly positive, descending
    right_vectors:   (n_cols, r) orthonormal columns
    spectrum:        every singular value of the Gram input, descending,
                     including those below the truncation cutoff
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    spectrum: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.size


@dataclass(frozen=True)
class ComplexSpectrum:
    """Eigenpairs of a small dense operator, column-aligned.

    Eigenvalues are sorted by descending modulus, ties broken by
    descending imaginary part.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def gram_spectrum(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD Gram matrix into (sigma, V).

    Returns singular values sigma = sqrt(eigenvalues) in descending
    order (negative round-off eigenvalues clipped to zero) and the
    matching eigenvector columns. Ties keep the eigensolver's original
    column order so repeated runs are deterministic.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram must be square, got shape {gram.shape}")
    scale = max(1.0, float(np.max(np.abs(gram))))
    asym = float(np.max(np.abs(gram - gram.T)))
    if asym > GRAM_ASYMMETRY_TOL * scale:
        raise ValueError(f"gram asymmetric beyond tolerance: max deviation {asym:.3e}")
    sym = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(sym)
    if evals[0] < -GRAM_ASYMMETRY_TOL * max(scale, float(np.trace(sym))):
        raise ValueError(f"gram not positive semidefinite: min eigenvalue {evals[0]:.3e}")
    order = np.argsort(-evals, kind="stable")
    sigma = np.sqrt(np.clip(evals[order], 0.0, None))
    return sigma, evecs[:, order]


TallProduct = Callable[[np.ndarray], np.ndarray]


def snapshot_svd(
    gram: np.ndarray,
    tall: TallProduct,
    rank: int | RankPolicy,
    tol: float = DEFAULT_SVD_TOL,
) -> SnapshotSvd:
    """Truncated SVD of a tall matrix H given its Gram matrix H^T H.

    Right singular vectors and singular values come from the Gram
    eigendecomposition; left singular vectors are recovered as
    U = H V diag(1/sigma) through ``tall``, which must compute H @ X
    for a (n_cols, k) block X without materializing H.

    Args:
        gram: (T, T) symmetric positive semidefinite matrix H^T H.
        tall: callback computing H @ X.
        rank: rank policy, or an int meaning FixedRank(rank); the
            result never exceeds the numerical rank.
        tol: relative cutoff; singular values below tol * sigma_max are
            dropped.

    Raises:
        ValueError: rank < 1, asymmetric or indefinite gram.
        EmptySpectrumError: every singular value is at or below the cutoff.
    """
    policy = rank if isinstance(rank, (FixedRank, CepThreshold)) else FixedRank(rank)
    sigma_all, vecs = gram_spectrum(gram)
    r = resolve_rank(sigma_all, policy, tol)
    # Slices, not copies, and a multiply by 1/sigma: the operator fit
    # reuses these factors, and its floating-point results depend on both.
    sigma = sigma_all[:r]
    right = vecs[:, :r]
    left = np.asarray(tall(right * (1.0 / sigma)), dtype=float)
    # Deterministic sign: largest-magnitude entry of each left vector is
    # nonnegative; the paired right vector flips with it so the product
    # U Sigma V^T is unchanged.
    for j in range(r):
        pivot = int(np.argmax(np.abs(left[:, j])))
        if left[pivot, j] < 0.0:
            left[:, j] = -left[:, j]
            right[:, j] = -right[:, j]
    return SnapshotSvd(
        left_vectors=left,
        singular_values=sigma,
        right_vectors=right,
        spectrum=sigma_all,
    )


def dense_eig(matrix: np.ndarray) -> ComplexSpectrum:
    """Full eigendecomposition of a small dense real or complex matrix.

    For real input the eigenvalue multiset is exactly closed under
    conjugation (LAPACK pairs them). Non-convergence is reported, never
    silently truncated.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValueError(f"matrix must be square and nonempty, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.real)) or (
        np.iscomplexobj(mat) and not np.all(np.isfinite(mat.imag))
    ):
        raise ValueError("matrix contains non-finite entries")
    try:
        evals, evecs = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((-evals.imag, -np.abs(evals)))
    return ComplexSpectrum(eigenvalues=evals[order], eigenvectors=evecs[:, order])
