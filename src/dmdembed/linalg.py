"""Linear-algebra kernels shared by the spectral modules.

The central routine is a truncated SVD by the method of snapshots: the
singular values and right vectors V of a tall matrix H are the leading
eigenpairs of its Gram matrix H^T H. Those come from a block Lanczos
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
    numerical-rank floor: through a Gram matrix, eigenvalue round-off
    floors recoverable singular values at about sqrt(order * eps) *
    sigma_1, and values at or below that are numerical zeros.
    """
    sigma = np.asarray(singular_values, dtype=float)
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise EmptySpectrumError("empty singular spectrum")
    n_rank = int(np.count_nonzero(sigma > np.sqrt(order * np.finfo(float).eps) * sigma[0]))
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


def _extend_basis(q: np.ndarray, m: int, block: np.ndarray, cutoff: float, rng) -> int:
    """Append to q, in place, the directions of the rows of ``block``
    outside the rows q[:m]: two passes of block Gram-Schmidt, each
    followed by an orthonormal basis of what remains, the first keeping
    singular values above ``cutoff``. Directions that were only round-off
    are replaced with fresh random ones, so every call adds
    min(block rows, order - m) rows. Returns the new basis size."""
    want = min(block.shape[0], q.shape[1] - m)
    while want > 0:
        basis = q[:m]
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
        cutoff = DEFLATION_TOL * np.linalg.norm(block)
    return m


def _grown(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """An array of ``shape`` with ``a`` in its leading corner, the rest unwritten."""
    out = np.empty(shape)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def leading_spectrum(
    gram: GramProduct, policy: RankPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SpectrumSolve]:
    """Leading eigenpairs of a Gram matrix by block Lanczos with Rayleigh-Ritz.

    The Krylov basis Q, held as rows, grows one block at a time from a
    fixed-seed random start. Two Gram-Schmidt passes split each block's
    Gram image over the basis: the coefficients are the projected matrix
    T's new rows and, transposed, its new columns, and the remainder's
    orthonormal rows are the next block: G Q^T = Q^T T + R^T E^T, with R
    the last remainder and E selecting the last block (Golub & Underwood
    1977). No image of a basis row is kept. Above its diagonal T holds
    the factors that made each block, which ``gram_spectrum`` holds to
    their mirror. A remainder that deflates goes to ``_extend_basis``;
    its part outside the next block stays in the relation beside R.

    Rayleigh-Ritz runs once the basis reaches the requested rank plus a
    block, and again each time it has grown by RITZ_GROWTH; Q and T are
    sized to the next check. A pair's residual ||G v - theta v|| is
    ||R^T y_last||, from the small Gram R R^T. The rank policy is
    resolved against the Ritz values and the exact trace; the solve
    stops when every kept pair has a residual of at most RITZ_TOL *
    theta_1, or when the basis spans all columns (then the result is
    exact). A rank clamped by the numerical-rank floor also needs the
    next pair converged. The Gram is applied once to each row of the
    final basis, which is orthonormal and spans V, and to nothing else.

    Returns (spectrum, vectors, images, solve): the converged leading
    singular values sqrt(theta) in descending order, the (order, r) Ritz
    vectors V = Q^T Y of the r kept pairs, their Gram images
    G V = Q^T T^T Y + R^T Y_last, to round-off whether or not the pairs
    converged, and the solve's health record.

    Raises:
        ValueError: an asymmetric or indefinite projected Gram.
        EmptySpectrumError: every singular value is at or below the round-off floor.
    """
    n = gram.order
    rng = np.random.default_rng(KRYLOV_SEED)
    q = np.empty((0, n))
    projected = np.empty((0, 0))  # T = q[:m] G q[:m]^T
    m, products = 0, 0
    loose = []  # (a block's rows, its deflated remainder's part outside the next block)
    check_at = (policy.rank if isinstance(policy, FixedRank) else 1) + KRYLOV_BLOCK
    while True:
        if m + KRYLOV_BLOCK > q.shape[0]:
            # Room up to the next Ritz check, in whole blocks.
            size = min(n, KRYLOV_BLOCK * math.ceil(max(check_at, m + KRYLOV_BLOCK) / KRYLOV_BLOCK))
            q = _grown(q[:m], (size, n))
            projected = _grown(projected[:m, :m], (size, size))
        newest = m
        if m == 0:
            start = rng.standard_normal((n, KRYLOV_BLOCK)).T  # drawn as an (order, k) block
            m = _extend_basis(q, 0, start, DEFLATION_TOL * np.linalg.norm(start), rng)
        elif ahead is not None:
            q[m : m + KRYLOV_BLOCK], made = ahead
            m += KRYLOV_BLOCK
        else:
            m = _extend_basis(q, m, remainder, cutoff, rng)
            made = remainder @ q[newest:m].T
            loose.append((last, remainder - made @ q[newest:m]))
        image = gram.apply(q[newest:m].T).T
        products += 1
        cutoff = DEFLATION_TOL * np.linalg.norm(image)
        # Two passes of block classical Gram-Schmidt split the image over the
        # basis, the second on the first remainder's orthonormal rows, so that
        # ill-conditioned rows still end orthogonal to it (block CGS2).
        coef = image @ q[:m].T
        remainder = image - coef @ q[:m]
        block, first = np.linalg.qr(remainder.T)
        ahead = None  # the next block's rows, and the factor with remainder = factor @ rows
        if m + KRYLOV_BLOCK <= n and np.linalg.svd(first, compute_uv=False)[-1] > cutoff:
            block = np.ascontiguousarray(block.T)
            again = block @ q[:m].T
            block -= again @ q[:m]
            coef += first.T @ again
            ahead = (block, first.T)
            # the pass leaves the rows' Gram I - again again^T: I to round-off unless it moved them
            if np.linalg.norm(again) ** 2 > np.finfo(float).eps:
                block, second = np.linalg.qr(block.T)
                ahead = (block.T, first.T @ second.T)
            remainder = ahead[1] @ ahead[0]
        projected[newest:m, :m] = coef
        projected[:newest, newest:m] = coef[:, :newest].T
        if newest:  # gram_spectrum checks it against its mirror in coef
            projected[last, newest:m] = made
        last = slice(newest, m)
        if m >= min(check_at, n):
            sigma, vecs = gram_spectrum(projected[:m, :m])
            theta = sigma**2
            r = resolve_rank(sigma, policy, gram.trace, n)
            pairs = min(m, r + 1 if r < _policy_rank(sigma, policy, gram.trace) else r)
            # G V - V diag(theta) = outside^T ys, one row of outside per row of ys
            parts = [(last, remainder)] + [(rows, d - (d @ q[:m].T) @ q[:m]) for rows, d in loose]
            outside, ys = np.vstack([d for _, d in parts]), np.vstack([vecs[rows] for rows, _ in parts])
            resid = np.sqrt(np.clip(np.sum(ys * ((outside @ outside.T) @ ys), axis=0), 0.0, None))
            if m == n or np.all(resid[:pairs] <= RITZ_TOL * theta[0]):
                break
            check_at = max(math.ceil(RITZ_GROWTH * m), r + KRYLOV_BLOCK)
    # The reported spectrum extends past the kept pairs while the next
    # pairs are converged too.
    ok = resid[r:m] <= RITZ_TOL * theta[0]
    converged = m if m == n else r + int(np.argmin(np.append(ok, False)))
    solve = SpectrumSolve(total_energy=gram.trace, order=n, products=products, basis=m,
                          residual=float(np.max(resid[:r]) / theta[0]))
    kept = vecs[:, :r]
    images = q[:m].T @ (projected[:m, :m].T @ kept) + outside.T @ ys[:, :r]
    return sigma[:converged], q[:m].T @ kept, images, solve


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
