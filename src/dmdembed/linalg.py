"""Linear-algebra kernels shared by the spectral modules.

The central routine is a truncated SVD by the method of snapshots: the
singular values and right vectors V of a tall matrix H are the leading
eigenpairs of its Gram matrix H^T H. Those come from a block Krylov
solver with Rayleigh-Ritz that needs only Gram *products* G @ X, so
neither H nor the T x T Gram has to exist. The left vectors
U = H V diag(1/sigma) are never formed: what a caller needs of them
it reads off the Gram images G V the solver returns. The solver holds
its basis as rows, while the products keep the column contract of
GramProduct. The rank policies that decide where the SVD is truncated
live here too, resolved against the converged leading values and the
exact trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import EmptySpectrumError

GRAM_ASYMMETRY_TOL = 1e-10

# Block Krylov solver: block width, and the seed of its random start
# block, fixed so that repeated fits are bit-identical. Oscillatory
# spectra come in near-equal pairs, and a block of two holds one pair;
# wider blocks grow the basis faster than they converge it.
KRYLOV_BLOCK = 2
KRYLOV_SEED = 0
# A Ritz pair is converged when ||G v - theta v|| <= RITZ_TOL * theta_1.
RITZ_TOL = 1e-12
# Rayleigh-Ritz runs again once the basis has grown by this factor.
RITZ_GROWTH = 1.25
# A new Krylov direction whose norm after projection is below this share
# of its block's norm is round-off and is replaced by a random direction.
DEFLATION_TOL = 1e-12


def numerical_rank(sigma: np.ndarray, order: int) -> int:
    """Count singular values above the round-off cutoff.

    Through a Gram matrix, eigenvalue round-off floors recoverable
    singular values at about sqrt(T * eps) * sigma_max, where T is the
    Gram's ``order``; values at or below that are numerical zeros.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    floor = np.sqrt(order * np.finfo(float).eps)
    return int(np.count_nonzero(sigma > floor * sigma[0]))


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


def _policy_rank(sigma: np.ndarray, policy: RankPolicy, total: float) -> int:
    """Modes the policy asks for, before the numerical-rank clamp."""
    if isinstance(policy, FixedRank):
        return policy.rank
    if isinstance(policy, CepThreshold):
        cum = np.cumsum(sigma**2) / total
        hits = np.nonzero(cum >= policy.fraction)[0]
        return int(hits[0]) + 1 if hits.size else sigma.size
    raise TypeError(f"unknown rank policy {policy!r}")


def resolve_rank(singular_values: np.ndarray, policy: RankPolicy, total: float, order: int) -> int:
    """Resolve a rank policy against a descending singular-value spectrum.

    The spectrum may be the leading part of a longer one: ``total`` is
    the exact sum of all squared singular values, which the cep fraction
    is measured against, and ``order`` the full length, which sets the
    numerical-rank floor.
    """
    sigma = np.asarray(singular_values, dtype=float)
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise EmptySpectrumError("empty singular spectrum")
    n_rank = numerical_rank(sigma, order)
    if n_rank == 0:
        raise EmptySpectrumError("all singular values below the round-off floor")
    return min(_policy_rank(sigma, policy, total), n_rank)


@dataclass(frozen=True)
class GramProduct:
    """A symmetric PSD Gram matrix G = H^T H known only through products.

    apply: maps an (order, k) block X to G @ X
    order: the number of columns of H
    trace: the exact trace of G, i.e. the total squared singular-value
           energy, which a partial spectrum cannot supply
    """

    apply: Callable[[np.ndarray], np.ndarray]
    order: int
    trace: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


@dataclass(frozen=True)
class SpectrumSolve:
    """How a leading spectrum was computed, for the run's health record.

    total_energy: exact trace of the Gram operator
    order:        its order (the number of fit columns)
    products:     block Gram products applied
    basis:        final size of the Krylov basis
    residual:     largest ||G v - theta v|| / theta_1 among the kept pairs
    """

    total_energy: float
    order: int
    products: int
    basis: int
    residual: float


def gram_spectrum(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a small symmetric PSD matrix into (sigma, V).

    Returns singular values sigma = sqrt(eigenvalues) in descending
    order (negative round-off eigenvalues clipped to zero) and the
    matching eigenvector columns. Ties keep the eigensolver's original
    column order so repeated runs are deterministic. This is the
    Rayleigh-Ritz step of the Krylov solver.
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


def _extend_basis(q: np.ndarray, m: int, block: np.ndarray, rng) -> int:
    """Append the directions of the rows of ``block`` outside the rows
    q[:m] to q, in place.

    Two passes of block Gram-Schmidt, each followed by an orthonormal
    basis of what remains. Directions that were only round-off are
    replaced with fresh random ones, so every call adds
    min(block rows, order - m) rows. Returns the new basis size.
    """
    want = min(block.shape[0], q.shape[1] - m)
    while want > 0:
        basis = q[:m]
        cutoff = DEFLATION_TOL * np.linalg.norm(block)
        for _ in range(2):
            block = block - (block @ basis.T) @ basis
            # LAPACK factors the tall (order, k) form faster than the wide one.
            u, s, _ = np.linalg.svd(block.T, full_matrices=False)
            block = u[:, s > cutoff][:, :want].T
            cutoff = 0.5
        q[m : m + block.shape[0]] = block
        m += block.shape[0]
        want -= block.shape[0]
        block = rng.standard_normal((q.shape[1], want)).T  # drawn as an (order, k) block
    return m


def _ritz_residuals(q, w, vecs, theta) -> np.ndarray:
    """||G v - theta v|| for Ritz vectors v = q.T @ vecs, where the rows
    of w are the Gram images of the rows of q."""
    return np.linalg.norm(vecs.T @ w - theta[:, np.newaxis] * (vecs.T @ q), axis=1)


def _grown(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """An array of ``shape`` with ``a`` in its leading corner; the rest is
    left unwritten until the basis reaches it."""
    out = np.empty(shape)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def leading_spectrum(
    gram: GramProduct, policy: RankPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SpectrumSolve]:
    """Leading eigenpairs of a Gram matrix by block Krylov with Rayleigh-Ritz.

    The Krylov basis grows one block at a time from a fixed-seed random
    start, each new block being the Gram applied to the last.
    Rayleigh-Ritz runs on the projected matrix once the basis reaches
    the requested rank plus a block, and again each time it has grown
    by RITZ_GROWTH. The rank
    policy is resolved against the Ritz values and the exact trace; the
    solve stops when every kept pair has a residual of at most
    RITZ_TOL * theta_1, or when the basis spans all columns (then the
    result is exact). A rank clamped by the numerical-rank floor also
    needs the next pair converged, so no value can still rise above it.

    The basis and its Gram images are held as rows, so that Gram-Schmidt
    and the projections read contiguous memory, and the projected matrix
    grows by the new rows and columns of each block only. Their arrays
    are sized to the next Ritz check, so each interval between checks
    regrows them once and the final arrays hold the final basis.

    The Gram is applied once to each row of the final basis and to
    nothing else, and the basis rows are orthonormal and span the
    columns of V: a caller can read any linear functional of its inputs
    off the products, projected on the basis.

    Returns (spectrum, vectors, images, solve): the converged leading
    singular values sqrt(theta) in descending order, the (order, r) Ritz
    vectors V of the r kept pairs, their Gram images G V, and the solve's
    health record. The images are combined from the rows of w, so they
    are G V to round-off whether or not the pairs converged.

    Raises:
        ValueError: an asymmetric or indefinite projected Gram.
        EmptySpectrumError: every singular value is at or below the round-off floor.
    """
    n = gram.order
    rng = np.random.default_rng(KRYLOV_SEED)
    q = np.empty((0, n))
    w = np.empty_like(q)
    projected = np.empty((0, 0))  # q[:m] @ w[:m].T
    m, products = 0, 0
    block = rng.standard_normal((n, KRYLOV_BLOCK)).T  # drawn as an (order, k) block
    check_at = (policy.rank if isinstance(policy, FixedRank) else 1) + KRYLOV_BLOCK
    while True:
        if m + KRYLOV_BLOCK > q.shape[0]:
            # Room up to the next Ritz check, in whole blocks. The old q
            # is freed before w is copied.
            size = min(n, KRYLOV_BLOCK * math.ceil(max(check_at, m + KRYLOV_BLOCK) / KRYLOV_BLOCK))
            q = _grown(q[:m], (size, n))
            w = _grown(w[:m], (size, n))
            projected = _grown(projected[:m, :m], (size, size))
        newest, m = m, _extend_basis(q, m, block, rng)
        w[newest:m] = gram(q[newest:m].T).T
        projected[:m, newest:m] = q[:m] @ w[newest:m].T
        projected[newest:m, :newest] = q[newest:m] @ w[:newest].T
        products += 1
        if m >= min(check_at, n):
            sigma, vecs = gram_spectrum(projected[:m, :m])
            theta = sigma**2
            r = resolve_rank(sigma, policy, gram.trace, n)
            pairs = min(m, r + 1 if r < _policy_rank(sigma, policy, gram.trace) else r)
            resid = _ritz_residuals(q[:m], w[:m], vecs[:, :pairs], theta[:pairs])
            if m == n or np.all(resid <= RITZ_TOL * theta[0]):
                break
            check_at = max(math.ceil(RITZ_GROWTH * m), r + KRYLOV_BLOCK)
        # a copy: a view would keep an outgrown w alive through the next product
        block = w[newest:m].copy()
    # The reported spectrum extends past the kept pairs while the next
    # pairs are converged too, checked a block at a time.
    converged = m if m == n else r
    while converged < m:
        ahead = slice(converged, min(m, converged + KRYLOV_BLOCK))
        ok = _ritz_residuals(q[:m], w[:m], vecs[:, ahead], theta[ahead])
        ok = ok <= RITZ_TOL * theta[0]
        converged += int(np.argmin(np.append(ok, False)))
        if not ok.all():
            break
    solve = SpectrumSolve(
        total_energy=gram.trace,
        order=n,
        products=products,
        basis=m,
        residual=float(np.max(resid[:r]) / theta[0]),
    )
    return sigma[:converged], q[:m].T @ vecs[:, :r], w[:m].T @ vecs[:, :r], solve


def dense_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of a small dense matrix.

    Eigenvalues are sorted by descending modulus, ties broken by
    descending imaginary part. For real input the eigenvalue multiset is
    exactly closed under conjugation (LAPACK pairs them). A matrix that
    is not square, is not finite or whose solve does not converge raises
    numpy's ``LinAlgError``.
    """
    evals, evecs = np.linalg.eig(matrix)
    order = np.lexsort((-evals.imag, -np.abs(evals)))
    return evals[order], evecs[:, order]
