"""Reduced-operator mode decomposition of a Hankel-lifted signal.

Fits the small transition operator A = U^T H' V diag(1/sigma) from the
lifted snapshot pair (H, H'), the Hankel lifting without its last and
without its first column, using only products with H and its Gram (no
T x T array is formed; H' enters only as H'^T U, which is H^T U moved
up one row over the last lifted column), extracts its eigenpairs,
lifts eigenvectors to spatial modes, fits complex amplitudes, and
evaluates the temporal dynamics through a Vandermonde matrix of
eigenvalue powers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hankel as hk
from .errors import NumericalError
# The rank policies live in linalg and are re-exported here.
from .linalg import (  # noqa: F401
    CepThreshold,
    FixedRank,
    GramProduct,
    RankPolicy,
    SpectrumSolve,
    dense_eig,
    resolve_rank,
    snapshot_svd,
)

# Two eigenvalues are a conjugate pair, and one is real, within this
# share of 1 + |lambda|.
CONJUGATE_TOL = 1e-8
# Columns per block of vandermonde's blocked power recurrence.
VANDERMONDE_BLOCK = 256


@dataclass
class DmdDecomposition:
    """Eigenvalues, unit-norm lifted modes, and amplitudes of one fit.

    Modes live in the lifted (N*tau)-dimensional space; the data-space
    modes are their first N rows. Amplitudes carry all scale and are real
    and nonnegative: each mode carries its phase. Modes are ordered by
    descending energy contribution |a_i| * sum_j |lambda_i|^j over the
    fit span.

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

    def representatives(self, support: np.ndarray) -> np.ndarray:
        """One eigenvalue per conjugate group of the boolean mode mask
        ``support``, in group order: the member of larger imaginary part,
        with the imaginary part of a real group set to exactly 0.

        The discarded conjugate carries no new real information: its real
        and imaginary channels duplicate the representative's up to sign.
        A support that holds part of a group is refused.
        """
        support = np.asarray(support, dtype=bool)
        if support.shape != self.eigenvalues.shape:
            raise ValueError(f"support of shape {support.shape} for {self.eigenvalues.size} modes")
        reps = []
        for group in self.groups:
            if not support[group].any():
                continue
            if not support[group].all():
                raise ValueError(f"support holds part of the conjugate group {group}")
            members = self.eigenvalues[group]
            pick = members[np.argmax(members.imag)]
            if abs(pick.imag) <= CONJUGATE_TOL * (1.0 + abs(pick)):
                pick = complex(pick.real, 0.0)
            reps.append(pick)
        return np.asarray(reps, dtype=complex)


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
    """Group eigenvalue indices into conjugate pairs and real singletons."""
    eigs = np.asarray(eigenvalues, dtype=complex)
    groups: list[list[int]] = []
    used = np.zeros(eigs.size, dtype=bool)
    for i in range(eigs.size):
        if used[i]:
            continue
        used[i] = True
        scale = 1.0 + abs(eigs[i])
        if abs(eigs[i].imag) <= CONJUGATE_TOL * scale:
            groups.append([i])
            continue
        partner = -1
        best = CONJUGATE_TOL * scale
        for j in range(i + 1, eigs.size):
            if used[j]:
                continue
            dist = abs(eigs[j] - np.conj(eigs[i]))
            if dist <= best:
                partner = j
                best = dist
        if partner >= 0:
            used[partner] = True
            groups.append([i, partner])
        else:
            groups.append([i])
    return groups


def fit_columns(t: int, tau: int) -> int:
    """Snapshot pairs (j -> j+1) in the T - tau + 1 columns of a lifting:
    H is every column but the last and H' every column but the first. At
    tau = 1 this is the classic drop of the last column of H and first
    of H'."""
    span = t - tau
    if span < 2:
        raise ValueError(f"a fit needs tau <= T-2, got tau={tau} with T={t}")
    return span


def fit_geometry(view: hk.HankelView) -> hk.HankelView:
    """The snapshots H of a fit: the lifting of the view's array without
    its last step (a slice, not a copy), whose T - tau columns are every
    column of the view's lifting but the last. Applies no product."""
    fit_columns(view.values.shape[1], view.tau)
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
    truncated by ``rank_policy``."""
    snapshots = fit_geometry(view)
    span = snapshots.columns
    gram = GramProduct(
        lambda x: hk.gram(snapshots, x), span, float(np.sum(hk.column_energies(snapshots)))
    )
    svd = snapshot_svd(gram, lambda x: hk.apply_tall(snapshots, x), rank_policy)
    # Reduced operator (H'^T U)^T V diag(1/sigma). Column j of H' is
    # column j + 1 of H, so H'^T U is H^T U from its second row on, over
    # the last lifted column (the last tau steps, block-row-major) times U.
    last_row = view.values[:, span:].T.reshape(-1) @ svd.left_vectors
    reduced = (
        svd.ht_left[1:].T @ svd.right_vectors[:-1]
        + np.outer(last_row, svd.right_vectors[-1])
    ) / svd.singular_values
    eigenvalues, eigenvectors = dense_eig(reduced)
    # The modes U @ coords are formed once, last: until then they are
    # their coordinates on U, and their Gram is coords* (U^T U) coords.
    mode_gram = eigenvectors.conj().T @ (svd.left_vectors.T @ svd.left_vectors) @ eigenvectors
    norms = np.sqrt(np.diag(mode_gram).real)
    if np.any(norms == 0.0):
        raise NumericalError("degenerate zero mode produced by eigendecomposition")
    coords = eigenvectors / norms
    mode_gram = mode_gram / np.outer(norms, norms)
    ht_modes = svd.ht_left @ coords

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
    # U is real: its product with the coordinates' real and imaginary
    # parts, interleaved, is laid out as the complex modes.
    coords = np.ascontiguousarray(coords[:, order])
    modes = (svd.left_vectors @ coords.view(float)).view(complex)
    return DmdDecomposition(
        eigenvalues=eigenvalues[order],
        modes=modes,
        amplitudes=amplitudes[order],
        rank=svd.rank,
        fit_span=span,
        tau=view.tau,
        singular_values=svd.spectrum,
        spectrum_solve=svd.solve,
    )


def reconstruct(dec: DmdDecomposition, length: int) -> np.ndarray:
    """Real part of modes @ diag(amplitudes) @ Vandermonde over ``length`` steps."""
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
