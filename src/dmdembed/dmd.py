"""Reduced-operator mode decomposition of a Hankel-lifted signal.

Fits the small transition operator A = U^T H' V diag(1/sigma) from the
lifted snapshot pair (H, H'), the Hankel lifting without its last and
without its first column, using only products with H and its Gram (no
T x T array is formed), extracts its eigenpairs, lifts eigenvectors
to spatial modes, fits complex amplitudes, and evaluates the temporal
dynamics through a Vandermonde matrix of eigenvalue powers.
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

    ``amplitude_form`` is the (P, q, s) of the fit's quadratic form (see
    ``amplitude_quadratic``) that it solved for the amplitudes, in the
    order of the modes; the mode selection takes it from here. Like the
    singular values and the spectrum solve it is not serialized.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    rank: int
    sampling_seconds: float
    fit_span: int
    tau: int
    singular_values: np.ndarray | None = field(default=None, repr=False)
    spectrum_solve: SpectrumSolve | None = field(default=None, repr=False)
    amplitude_form: tuple[np.ndarray, np.ndarray, float] | None = field(default=None, repr=False)

    def to_json(self) -> str:
        """Every field except the modes, which are stored as an array
        beside it (``modes.npy`` in a run directory)."""
        payload = {
            "eigenvalues": _complex_pairs(self.eigenvalues),
            "amplitudes": _complex_pairs(self.amplitudes),
            "rank": self.rank,
            "tau": self.tau,
            "sampling_seconds": self.sampling_seconds,
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
    """Oscillation period (None for non-oscillatory) and growth rate ln|lambda|."""

    period_steps: float | None
    period_seconds: float | None
    growth_rate: float


def vandermonde(eigenvalues: np.ndarray, length: int) -> np.ndarray:
    """Temporal dynamics matrix, (r, length), with entries[i, j] = lambda_i ** j.

    Columns are generated by the multiplicative recurrence so that the
    relation entries[:, j+1] = lambda * entries[:, j] holds exactly.
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    eigs = np.asarray(eigenvalues, dtype=complex)
    entries = np.empty((eigs.size, length), dtype=complex)
    entries[:, 0] = 1.0
    for j in range(1, length):
        entries[:, j] = entries[:, j - 1] * eigs
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


class _FitGeometry:
    """Tall and Gram products of the snapshots H, the first ``span``
    columns of the lifting, and of the shifted snapshots H', its last
    ``span`` columns."""

    def __init__(self, view: hk.HankelView):
        self.view = view
        self.span = fit_columns(view.source.n_steps, view.tau)

    def _lift(self, x: np.ndarray, shift: int) -> np.ndarray:
        """Coefficients on the fit columns, offset by ``shift``, as
        coefficients on all columns of the lifting."""
        out = np.zeros((self.view.columns,) + x.shape[1:], dtype=x.dtype)
        out[shift : shift + self.span] = x
        return out

    def _restrict(self, y: np.ndarray) -> np.ndarray:
        """Adjoint of ``_lift`` at shift 0: the rows of the fit columns."""
        return y[: self.span]

    def tall(self, x: np.ndarray) -> np.ndarray:
        return hk.apply_tall(self.view, self._lift(x, 0))

    def shifted_tall(self, x: np.ndarray) -> np.ndarray:
        """H' @ x: H applied to x shifted down one row."""
        return hk.apply_tall(self.view, self._lift(x, 1))

    def data_energy(self) -> float:
        """Squared Frobenius norm of H."""
        return float(np.sum(self._restrict(hk.column_energies(self.view))))

    def gram(self) -> GramProduct:
        """The fit Gram H^T H, as products."""

        def apply(x):
            return self._restrict(hk.gram(self.view, self._lift(x, 0)))

        return GramProduct(apply, self.span, self.data_energy())


def fit_geometry(view: hk.HankelView) -> _FitGeometry:
    """The products of a view's snapshot pair that a fit uses; applies none."""
    return _FitGeometry(view)


def amplitude_quadratic(
    eigenvalues: np.ndarray,
    modes: np.ndarray,
    ht_modes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic form of the amplitude fit ||H - modes diag(a) C||_F^2,
    given H^T modes, one row per fit column.

    Returns (P, q) with the residual equal to a* P a - 2 Re(q* a) + s,
    where P = (modes* modes) o conj(C C*), q = conj(diag(C H^T modes))
    and s = ||H||_F^2. The fit solves it for the amplitudes and keeps it
    for the sparse mode selection.
    """
    vand = vandermonde(eigenvalues, ht_modes.shape[0])
    p = (modes.conj().T @ modes) * np.conj(vand @ vand.conj().T)
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
    geo = fit_geometry(view)
    svd = snapshot_svd(geo.gram(), geo.tall, rank_policy)
    # Reduced operator U^T H' V diag(1/sigma); with U = H V diag(1/sigma)
    # this is diag(1/sigma) (H V)^T (H' V) diag(1/sigma).
    inv_sigma = 1.0 / svd.singular_values
    reduced = (svd.left_vectors.T @ geo.shifted_tall(svd.right_vectors)) * inv_sigma
    eigenvalues, eigenvectors = dense_eig(reduced)
    modes = svd.left_vectors @ eigenvectors
    norms = np.linalg.norm(modes, axis=0)
    if np.any(norms == 0.0):
        raise NumericalError("degenerate zero mode produced by eigendecomposition")
    modes = modes / norms
    ht_modes = (svd.ht_left @ eigenvectors) / norms

    p, q = amplitude_quadratic(eigenvalues, modes, ht_modes)
    amplitudes = solve_hermitian(p, q)
    # The eigensolver fixes each eigenvector's phase by its largest entry,
    # which round-off picks among near-equal ones. Each mode takes its
    # amplitude's phase instead, so that every amplitude is real and >= 0;
    # the quadratic form turns with the modes.
    phase = np.ones_like(amplitudes)
    moving = amplitudes != 0
    phase[moving] = amplitudes[moving] / np.abs(amplitudes[moving])
    modes = modes * phase
    p = phase.conj()[:, np.newaxis] * p * phase
    q = phase.conj() * q
    amplitudes = np.abs(amplitudes).astype(complex)

    order = _energy_order(eigenvalues, amplitudes, geo.span)
    return DmdDecomposition(
        eigenvalues=eigenvalues[order],
        modes=modes[:, order],
        amplitudes=amplitudes[order],
        rank=svd.rank,
        sampling_seconds=view.source.step_seconds,
        fit_span=geo.span,
        tau=view.tau,
        singular_values=svd.spectrum,
        spectrum_solve=svd.solve,
        amplitude_form=(p[np.ix_(order, order)], q[order], svd.solve.total_energy),
    )


def reconstruct(dec: DmdDecomposition, length: int) -> np.ndarray:
    """Real part of modes @ diag(amplitudes) @ Vandermonde over ``length`` steps."""
    vand = vandermonde(dec.eigenvalues, length)
    full = dec.modes @ (dec.amplitudes[:, np.newaxis] * vand)
    return full.real


def mode_frequency(eigenvalue: complex, step_seconds: float) -> ModeFrequency:
    """Oscillation period and growth rate encoded by one eigenvalue."""
    lam = complex(eigenvalue)
    if lam == 0:
        raise ValueError("zero eigenvalue has no frequency interpretation")
    angle = math.atan2(lam.imag, lam.real)
    if angle == 0.0:
        period = None
        seconds = None
    else:
        period = 2.0 * math.pi / abs(angle)
        seconds = period * step_seconds
    return ModeFrequency(
        period_steps=period,
        period_seconds=seconds,
        growth_rate=math.log(abs(lam)),
    )
