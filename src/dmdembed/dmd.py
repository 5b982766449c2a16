"""Reduced-operator mode decomposition of a Hankel-lifted signal.

Fits the small transition operator A = U^T H' V diag(1/sigma) from the
lifted snapshot pair (H, H'), using only products with H and its Gram
(no T x T array is formed), extracts its eigenpairs, lifts eigenvectors
to spatial modes, fits complex amplitudes, and evaluates the temporal
dynamics through a Vandermonde matrix of eigenvalue powers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hankel as hk
from .errors import NumericalError
# The rank policies live in linalg and are re-exported here.
from .linalg import (  # noqa: F401
    DEFAULT_SVD_TOL,
    CepThreshold,
    FixedRank,
    GramProduct,
    RankPolicy,
    SpectrumSolve,
    dense_eig,
    leading_spectrum,
    resolve_rank,
    snapshot_svd,
)

CONJUGATE_TOL = 1e-8


@dataclass
class DmdConfig:
    """Solver choices for a decomposition fit.

    fit_window "circulant" uses all T columns with wraparound shift;
    "truncated" restricts the regression to the T - tau wrap-free
    columns, which is the right choice for decaying dynamics or when
    the fitted span is not a whole number of the dominant periods.
    """

    rank_policy: RankPolicy = field(default_factory=CepThreshold)
    solver: str = "exact"
    fit_window: str = "circulant"
    svd_tol: float = DEFAULT_SVD_TOL

    def __post_init__(self):
        if self.solver not in ("exact", "total"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.fit_window not in ("circulant", "truncated"):
            raise ValueError(f"unknown fit window {self.fit_window!r}")


@dataclass
class DmdDecomposition:
    """Eigenvalues, unit-norm lifted modes, and amplitudes of one fit.

    Modes live in the lifted (N*tau)-dimensional space; the data-space
    modes are their first N rows. Amplitudes carry all scale. Modes are
    ordered by descending energy contribution |a_i| * sum_j |lambda_i|^j
    over the fit span.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    rank: int
    sampling_seconds: float
    fit_span: int
    tau: int
    solver: str
    singular_values: np.ndarray | None = field(default=None, repr=False)
    spectrum_solve: SpectrumSolve | None = field(default=None, repr=False)

    def to_json(self) -> str:
        """The text of json.dumps(payload, sort_keys=True, indent=2).

        The small fields go through json; the two mode matrices are
        formatted in one pass each and spliced in for their empty
        placeholders.
        """
        payload = {
            "eigenvalues": _complex_pairs(self.eigenvalues),
            "amplitudes": _complex_pairs(self.amplitudes),
            "modes_real": [],
            "modes_imag": [],
            "rank": self.rank,
            "tau": self.tau,
            "sampling_seconds": self.sampling_seconds,
            "fit_span": self.fit_span,
            "solver": self.solver,
        }
        text = json.dumps(payload, sort_keys=True, indent=2)
        for key, part in (("modes_real", self.modes.real), ("modes_imag", self.modes.imag)):
            text = text.replace(f'"{key}": []', f'"{key}": {_json_matrix(part)}', 1)
        return text

    @classmethod
    def from_json(cls, text: str) -> "DmdDecomposition":
        data = json.loads(text)
        modes = np.asarray(data["modes_real"], dtype=float) + 1j * np.asarray(
            data["modes_imag"], dtype=float
        )
        return cls(
            eigenvalues=_pairs_complex(data["eigenvalues"]),
            modes=modes,
            amplitudes=_pairs_complex(data["amplitudes"]),
            rank=int(data["rank"]),
            sampling_seconds=float(data["sampling_seconds"]),
            fit_span=int(data["fit_span"]),
            tau=int(data["tau"]),
            solver=str(data["solver"]),
        )


def _json_matrix(matrix: np.ndarray) -> str:
    """json.dumps(matrix.tolist(), indent=2) as a value one level deep.

    A float's repr is json's spelling of it, apart from nan and inf, and
    never contains ", " or "[", so the separators of the list repr can be
    rewritten in place.
    """
    rows = matrix.tolist()
    if matrix.size == 0:
        return json.dumps(rows, indent=2).replace("\n", "\n  ")
    text = (
        repr(rows)
        .replace("], [", "\n    ],\n    [\n      ")
        .replace(", ", ",\n      ")
        .replace("nan", "NaN")
        .replace("inf", "Infinity")
    )
    return "[\n    [\n      " + text[2:-2] + "\n    ]\n  ]"


def _complex_pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in z]


def _pairs_complex(pairs: list[list[float]]) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


@dataclass(frozen=True)
class VandermondeMatrix:
    """Row i holds successive powers 1, lambda_i, lambda_i^2, ..."""

    eigenvalues: np.ndarray
    length: int
    entries: np.ndarray


@dataclass(frozen=True)
class ModeFrequency:
    """Oscillation period (None for non-oscillatory) and growth rate ln|lambda|."""

    period_steps: float | None
    period_seconds: float | None
    growth_rate: float


def vandermonde(eigenvalues: np.ndarray, length: int) -> VandermondeMatrix:
    """Temporal dynamics matrix with entries[i, j] = lambda_i ** j.

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
    return VandermondeMatrix(eigenvalues=eigs, length=length, entries=entries)


def conjugate_groups(eigenvalues: np.ndarray, tol: float = CONJUGATE_TOL) -> list[list[int]]:
    """Group eigenvalue indices into conjugate pairs and real singletons."""
    eigs = np.asarray(eigenvalues, dtype=complex)
    groups: list[list[int]] = []
    used = np.zeros(eigs.size, dtype=bool)
    for i in range(eigs.size):
        if used[i]:
            continue
        used[i] = True
        scale = 1.0 + abs(eigs[i])
        if abs(eigs[i].imag) <= tol * scale:
            groups.append([i])
            continue
        partner = -1
        best = tol * scale
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


def _fit_columns(t: int, tau: int, fit_window: str) -> int:
    if fit_window == "circulant":
        return t
    # Truncated window: regression pairs (j -> j+1) restricted to lifted
    # states free of the circulant wrap, i.e. j+1 <= T - tau. At tau = 1
    # this is the classic drop of the last column of H and first of H'.
    span = t - tau
    if span < 2:
        raise ValueError(
            f"truncated fit window needs tau <= T-2, got tau={tau} with T={t}"
        )
    return span


class _FitGeometry:
    """Tall and Gram products of H restricted to the fit columns, and of
    the shifted snapshots H'.

    Column j of H' is column j + 1 of H: cyclically for the circulant
    window, and within the first span + 1 columns for the truncated one.
    An optional orthonormal column basis (total-least-squares debiasing)
    projects the input of ``tall`` only: mode lifting uses the projected
    snapshots while amplitudes are always fit against the raw data.
    """

    def __init__(self, view: hk.HankelView, fit_window: str):
        t = view.source.n_steps
        if t < 3:
            raise ValueError(f"need at least 3 time steps, got {t}")
        self.view = view
        self.fit_window = fit_window
        self.span = _fit_columns(t, view.tau, fit_window)
        self.basis: np.ndarray | None = None

    def _lift(self, x: np.ndarray, shift: int) -> np.ndarray:
        """Coefficients on the fit columns, offset by ``shift``, as
        coefficients on all T columns of H."""
        t = self.view.source.n_steps
        if self.span == t:
            return np.roll(x, shift, axis=0) if shift else x
        out = np.zeros((t,) + x.shape[1:], dtype=x.dtype)
        out[shift : shift + self.span] = x
        return out

    def _restrict(self, y: np.ndarray, shift: int) -> np.ndarray:
        """Adjoint of ``_lift``: the rows of the fit columns, offset by ``shift``."""
        if self.span == self.view.source.n_steps:
            return np.roll(y, -shift, axis=0) if shift else y
        return y[shift : shift + self.span]

    def tall(self, x: np.ndarray) -> np.ndarray:
        if self.basis is not None:
            x = self.basis @ (self.basis.T @ x)
        return hk.apply_tall(self.view, self._lift(x, 0))

    def shifted_tall(self, x: np.ndarray) -> np.ndarray:
        """H' @ x: H applied to x shifted down one row."""
        return hk.apply_tall(self.view, self._lift(x, 1))

    def tall_transpose(self, y: np.ndarray) -> np.ndarray:
        return self._restrict(hk.apply_tall_transpose(self.view, y), 0)

    def data_energy(self, shift: int = 0) -> float:
        """Squared Frobenius norm of H (or, at shift 1, of H')."""
        return float(np.sum(self._restrict(hk.column_energies(self.view), shift)))

    def gram(self) -> GramProduct:
        """The fit Gram H^T H, as products."""

        def apply(x):
            return self._restrict(hk.gram(self.view, self._lift(x, 0)), 0)

        return GramProduct(apply, self.span, self.data_energy())

    def stacked_gram(self) -> GramProduct:
        """The Gram of the stacked pair [H; H'], H^T H + H'^T H', as products."""

        def apply(x):
            k = x.shape[1]
            both = hk.gram(self.view, np.concatenate([self._lift(x, 0), self._lift(x, 1)], axis=1))
            return self._restrict(both[:, :k], 0) + self._restrict(both[:, k:], 1)

        return GramProduct(apply, self.span, self.data_energy() + self.data_energy(1))


def amplitude_quadratic(
    eigenvalues: np.ndarray,
    modes: np.ndarray,
    geometry: _FitGeometry,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Quadratic form of the amplitude fit ||H - modes diag(a) C||_F^2.

    Returns (P, q, s) with the residual equal to
    a* P a - 2 Re(q* a) + s, where P = (modes* modes) o conj(C C*) and
    q = conj(diag(C H^T modes)). Shared by the amplitude fit and the
    sparse mode selection.
    """
    vand = vandermonde(eigenvalues, geometry.span).entries
    p = (modes.conj().T @ modes) * np.conj(vand @ vand.conj().T)
    ht_modes = geometry.tall_transpose(modes)
    q = np.conj(np.einsum("ij,ji->i", vand, ht_modes))
    return p, q, geometry.data_energy()


def _solve_hermitian(p: np.ndarray, q: np.ndarray) -> np.ndarray:
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


def fit_dmd(view: hk.HankelView, cfg: DmdConfig | None = None) -> DmdDecomposition:
    """Fit the reduced transition operator and its mode decomposition.

    Dispatches to the total-least-squares variant when cfg.solver is
    "total".
    """
    cfg = cfg or DmdConfig()
    if cfg.solver == "total":
        return fit_tdmd(view, cfg)
    geo = _FitGeometry(view, cfg.fit_window)
    return _finish_fit(cfg, geo, geo.gram(), "exact")


def fit_tdmd(view: hk.HankelView, cfg: DmdConfig | None = None) -> DmdDecomposition:
    """Debiased variant: project the snapshot pair onto the leading right
    singular subspace of the vertically stacked pair before regression.

    With noiseless data the projection is the identity on the signal
    subspace and the result matches the exact solver.
    """
    cfg = cfg or DmdConfig()
    geo = _FitGeometry(view, cfg.fit_window)
    basis = leading_spectrum(geo.stacked_gram(), cfg.rank_policy, cfg.svd_tol)[1]
    # The projected Gram P G P with P = basis basis^T, applied through the
    # small matrix (H basis)^T (H basis).
    lifted = geo.tall(basis)
    small = lifted.T @ lifted
    geo.basis = basis
    projected = GramProduct(
        lambda x: basis @ (small @ (basis.T @ x)), geo.span, float(np.trace(small))
    )
    return _finish_fit(cfg, geo, projected, "total")


def _finish_fit(
    cfg: DmdConfig,
    geo: _FitGeometry,
    gram: GramProduct,
    solver: str,
) -> DmdDecomposition:
    svd = snapshot_svd(gram, geo.tall, cfg.rank_policy, cfg.svd_tol)
    # Reduced operator U^T H' V diag(1/sigma); with U = H V diag(1/sigma)
    # this is diag(1/sigma) (H V)^T (H' V) diag(1/sigma).
    inv_sigma = 1.0 / svd.singular_values
    reduced = (svd.left_vectors.T @ geo.shifted_tall(svd.right_vectors)) * inv_sigma
    spectrum = dense_eig(reduced)
    modes = svd.left_vectors @ spectrum.eigenvectors
    norms = np.linalg.norm(modes, axis=0)
    if np.any(norms == 0.0):
        raise NumericalError("degenerate zero mode produced by eigendecomposition")
    modes = modes / norms

    p, q, _ = amplitude_quadratic(spectrum.eigenvalues, modes, geo)
    amplitudes = _solve_hermitian(p, q)

    order = _energy_order(spectrum.eigenvalues, amplitudes, geo.span)
    return DmdDecomposition(
        eigenvalues=spectrum.eigenvalues[order],
        modes=modes[:, order],
        amplitudes=amplitudes[order],
        rank=svd.rank,
        sampling_seconds=geo.view.source.step_seconds,
        fit_span=geo.span,
        tau=geo.view.tau,
        solver=solver,
        singular_values=svd.spectrum,
        spectrum_solve=svd.solve,
    )


def fit_geometry(view: hk.HankelView, fit_span: int) -> _FitGeometry:
    """Rebuild the fit geometry matching a decomposition's fit span.

    Cheap: no Gram product is applied here.
    """
    t = view.source.n_steps
    if fit_span == t:
        return _FitGeometry(view, "circulant")
    if fit_span == t - view.tau:
        return _FitGeometry(view, "truncated")
    raise ValueError(
        f"fit span {fit_span} matches neither window of a view with "
        f"T={t}, tau={view.tau}"
    )


def reconstruct(dec: DmdDecomposition, length: int) -> np.ndarray:
    """Real part of modes @ diag(amplitudes) @ Vandermonde over ``length`` steps."""
    vand = vandermonde(dec.eigenvalues, length).entries
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
