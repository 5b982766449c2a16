"""Reduced-operator mode decomposition of a Hankel-lifted signal.

Fits the small transition operator A = U^T H' V diag(1/sigma) from the
lifted snapshot pair (H, H'), the Hankel lifting without its last and
without its first column. Only Gram products of the whole lifting are
applied: no T x T array, no tall product and no left vectors U = H V
diag(1/sigma) are formed. U enters through U^T U, H^T U and the last
lifted column's c^T U, each read off the Gram products the solver
already runs (H' enters as H'^T U, which is H^T U moved up one row over
c^T U). The fit extracts the operator's eigenpairs, forms the N data
rows of the lifted modes, fits complex amplitudes, and evaluates the
temporal dynamics through a Vandermonde matrix of eigenvalue powers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hankel as hk
from .errors import DataError, NumericalError
# The rank policies live in linalg and are re-exported here.
from .linalg import (  # noqa: F401
    CepThreshold,
    FixedRank,
    GramProduct,
    RankPolicy,
    SpectrumSolve,
    dense_eig,
    leading_spectrum,
    resolve_rank,
)

# Columns per block of vandermonde's blocked power recurrence.
VANDERMONDE_BLOCK = 256


@dataclass
class DmdDecomposition:
    """Eigenvalues, data-space modes, and amplitudes of one fit.

    ``modes`` is (N, r): the first N rows of the unit-norm lifted modes,
    which live in the (N*tau)-dimensional lifted space and are never
    formed. So a mode's norm is at most 1, and equals 1 at tau = 1.
    Amplitudes carry all scale and are real and nonnegative: each mode
    carries its phase. Modes are ordered by descending energy
    contribution |a_i| * sum_j |lambda_i|^j over the fit span.

    ``groups`` holds the conjugate groups in energy order, as the mode
    indices of each pair and each real mode; the positive-imaginary
    member of a pair comes first.

    The singular values and the spectrum solve are not serialized. The
    amplitude problem the fit solved (see ``amplitude_quadratic``) is not
    kept: the mode selection keeps a prefix of ``groups`` and refits
    nothing, so a decomposition read back from a run's
    ``decomposition.json`` and ``modes.npy`` selects as the fit did.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    rank: int
    fit_span: int
    tau: int
    singular_values: np.ndarray | None = field(default=None, repr=False)
    spectrum_solve: SpectrumSolve | None = field(default=None, repr=False)

    def to_json(self) -> str:
        """Every field except the modes, which are stored as an array
        beside it (``modes.npy`` in a run directory)."""
        payload = {
            "eigenvalues": _complex_pairs(self.eigenvalues),
            "amplitudes": _complex_pairs(self.amplitudes),
            "rank": self.rank,
            "tau": self.tau,
            "fit_span": self.fit_span,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @cached_property
    def groups(self) -> list[list[int]]:
        return conjugate_groups(self.eigenvalues)


def _complex_pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in z]


@dataclass(frozen=True)
class ModeFrequency:
    """Oscillation period in steps (None for non-oscillatory) and growth
    rate ln|lambda| per step."""

    period_steps: float | None
    growth_rate: float


def vandermonde(eigenvalues: np.ndarray, length: int) -> np.ndarray:
    """Temporal dynamics matrix, (r, length), with entries[i, j] = lambda_i ** j.

    Columns come from a blocked multiplicative recurrence, with B =
    ``VANDERMONDE_BLOCK``: the first B columns step by lambda, each
    block's first column steps by lambda^B from the last, and column
    kB + j is block k's first column times column j. So the first B
    columns are exactly those of the step-by-step recurrence, and
    entries[:, j+1] = lambda * entries[:, j] holds to rounding that grows
    with B plus the number of blocks, not with j.
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    eigs = np.asarray(eigenvalues, dtype=complex)
    width = min(length, VANDERMONDE_BLOCK)
    head = np.empty((eigs.size, width), dtype=complex)
    head[:, 0] = 1.0
    for j in range(1, width):
        head[:, j] = head[:, j - 1] * eigs
    n_full, tail = divmod(length, width)
    starts = np.empty((eigs.size, n_full + 1), dtype=complex)
    starts[:, 0] = 1.0
    stride = head[:, -1] * eigs
    for k in range(1, n_full + 1):
        starts[:, k] = starts[:, k - 1] * stride
    entries = np.empty((eigs.size, length), dtype=complex)
    full = entries[:, : n_full * width].reshape(eigs.size, n_full, width)
    np.multiply(starts[:, :n_full, np.newaxis], head[:, np.newaxis, :], out=full)
    entries[:, n_full * width :] = starts[:, n_full : n_full + 1] * head[:, :tail]
    return entries


def conjugate_groups(eigenvalues: np.ndarray) -> list[list[int]]:
    """Group eigenvalue indices into conjugate pairs and real singletons,
    in the order of each group's first member.

    A value pairs with its exact conjugate, in either order, and repeated
    values pair one to one. The eigenvalues of a real matrix come from
    LAPACK as exact conjugates, and ``decomposition.json`` keeps every
    bit, so no tolerance is applied: a value with imaginary part 0, or
    with no exact conjugate, is a group of its own.
    """
    groups: list[list[int]] = []
    waiting: dict[complex, list[list[int]]] = {}
    for i, z in enumerate(np.asarray(eigenvalues, dtype=complex).tolist()):
        partners = waiting.get(z.conjugate()) if z.imag else None
        if partners:
            partners.pop(0).append(i)
            continue
        groups.append([i])
        if z.imag:
            waiting.setdefault(z, []).append(groups[-1])
    return groups


def fit_geometry(view: hk.HankelView) -> hk.HankelView:
    """The snapshots H of a fit: the lifting of the view's array without
    its last step (a slice, not a copy), whose T - tau columns are every
    column of the view's lifting but the last. Applies no product."""
    return hk.HankelView(view.values[:, :-1], view.tau)


def amplitude_quadratic(
    eigenvalues: np.ndarray,
    mode_gram: np.ndarray,
    ht_modes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic form of the amplitude fit ||H - modes diag(a) C||_F^2,
    given the modes' Gram modes* modes and H^T modes, one row per fit
    column.

    Returns (P, q) with the residual equal to a* P a - 2 Re(q* a) + s,
    where P = (modes* modes) o conj(C C*), q = conj(diag(C H^T modes))
    and s = ||H||_F^2. The fit solves P a = q for the amplitudes once,
    on every mode; the mode selection refits nothing.
    """
    vand = vandermonde(eigenvalues, ht_modes.shape[0])
    p = mode_gram * np.conj(vand @ vand.conj().T)
    q = np.conj(np.einsum("ij,ji->i", vand, ht_modes))
    return p, q


def solve_hermitian(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve P a = q, falling back to least squares when P is singular."""
    try:
        return np.linalg.solve(p, q)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(p, q, rcond=None)[0]


def _energy_order(eigenvalues: np.ndarray, amplitudes: np.ndarray, span: int) -> np.ndarray:
    moduli = np.abs(eigenvalues)
    profile = np.empty_like(moduli)
    for i, m in enumerate(moduli):
        if abs(m - 1.0) < 1e-12:
            profile[i] = span
        elif m == 0.0:
            profile[i] = 1.0
        else:
            profile[i] = (1.0 - m**span) / (1.0 - m)
    energy = np.abs(amplitudes) * profile
    # The members of a conjugate pair differ in energy only by round-off;
    # one shared key lets the imaginary part put the positive member first.
    for group in conjugate_groups(eigenvalues):
        energy[group] = energy[group].max()
    return np.lexsort((-eigenvalues.imag, -moduli, -energy))


def fit_dmd(view: hk.HankelView, rank_policy: RankPolicy = CepThreshold()) -> DmdDecomposition:
    """Fit the reduced transition operator and its mode decomposition,
    truncated by ``rank_policy``. A view past ``build_hankel``'s tau range
    is refused by it, and a series of non-finite energy is a DataError."""
    hk.build_hankel(view.values, view.tau)
    snapshots = fit_geometry(view)
    span = snapshots.columns
    # Each Gram product runs on the view's whole lifting [H, c], with the
    # block padded by a zero last row: the image's first span rows are
    # G x, and its last is c^T H x. The solver applies it once to each
    # row of an orthonormal basis that spans V, so the sum of each input
    # times its last image entry is H^T c projected on that basis.
    ht_last = np.zeros(span)

    def lifted_gram(x: np.ndarray) -> np.ndarray:
        image = hk.gram(view, np.vstack([x, np.zeros((1, x.shape[1]))]))
        ht_last[:] += x @ image[-1]
        return image[:-1]

    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        energy = float(np.sum(hk.column_energies(snapshots)))
    if not math.isfinite(energy):
        raise DataError(f"the series' energy is {energy}: every value and its square must be finite")
    gram = GramProduct(lifted_gram, span, energy)
    spectrum, right, images, solve = leading_spectrum(gram, rank_policy)
    sigma = spectrum[: right.shape[1]]
    # With U = H V diag(1/sigma), never formed: [H, c]^T U is H^T U =
    # G V diag(1/sigma) over c^T U. Column j of H' is column j + 1 of
    # [H, c], so H'^T U is that from its second row on.
    ht_u = np.vstack([images, ht_last @ right]) / sigma
    eigenvalues, eigenvectors = dense_eig(ht_u[1:].T @ right / sigma)
    # The modes are known by their coordinates on U, whose Gram U^T U is
    # diag(1/sigma) V^T G V diag(1/sigma).
    mode_gram = eigenvectors.conj().T @ (right.T @ images / np.outer(sigma, sigma)) @ eigenvectors
    norms = np.sqrt(np.diag(mode_gram).real)
    if np.any(norms == 0.0):
        raise NumericalError("degenerate zero mode produced by eigendecomposition")
    coords = eigenvectors / norms
    mode_gram = mode_gram / np.outer(norms, norms)
    ht_modes = ht_u[:-1] @ coords

    amplitudes = solve_hermitian(*amplitude_quadratic(eigenvalues, mode_gram, ht_modes))
    # The eigensolver fixes each eigenvector's phase by its largest entry,
    # which round-off picks among near-equal ones. Each mode takes its
    # amplitude's phase instead, so that every amplitude is real and >= 0.
    phase = np.ones_like(amplitudes)
    moving = amplitudes != 0
    phase[moving] = amplitudes[moving] / np.abs(amplitudes[moving])
    coords = coords * phase
    amplitudes = np.abs(amplitudes).astype(complex)

    order = _energy_order(eigenvalues, amplitudes, span)
    # The data rows of U are H's first N rows, the series over the fit
    # span, times V diag(1/sigma). They are real: their product with the
    # coordinates' real and imaginary parts, interleaved, is laid out as
    # the complex modes.
    coords = np.ascontiguousarray(coords[:, order])
    data_rows = view.values[:, :span] @ (right / sigma)
    return DmdDecomposition(
        eigenvalues=eigenvalues[order],
        modes=(data_rows @ coords.view(float)).view(complex),
        amplitudes=amplitudes[order],
        rank=sigma.size,
        fit_span=span,
        tau=view.tau,
        singular_values=spectrum,
        spectrum_solve=solve,
    )


def reconstruct(dec: DmdDecomposition, length: int) -> np.ndarray:
    """The data-space series over ``length`` steps from the fit's start:
    the real part of modes @ diag(amplitudes) @ Vandermonde, (N, length)."""
    vand = vandermonde(dec.eigenvalues, length)
    full = dec.modes @ (dec.amplitudes[:, np.newaxis] * vand)
    return full.real


def mode_frequency(eigenvalue: complex) -> ModeFrequency:
    """Oscillation period and growth rate, in steps, encoded by one eigenvalue."""
    lam = complex(eigenvalue)
    if lam == 0:
        raise ValueError("zero eigenvalue has no frequency interpretation")
    angle = math.atan2(lam.imag, lam.real)
    period = None if angle == 0.0 else 2.0 * math.pi / abs(angle)
    return ModeFrequency(period_steps=period, growth_rate=math.log(abs(lam)))
