"""Reduced-operator mode decomposition of a Hankel-lifted signal.

Fits the small transition operator A = U^T H' V diag(1/sigma) from the
lifted snapshot pair (H, H'), extracts its eigenpairs, lifts eigenvectors
to spatial modes, fits complex amplitudes, and evaluates the temporal
dynamics through a Vandermonde matrix of eigenvalue powers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import hankel as hk
from .errors import EmptySpectrumError, NumericalError
from .linalg import DEFAULT_SVD_TOL, dense_eig, gram_spectrum, lstsq, numerical_rank

CONJUGATE_TOL = 1e-8


@dataclass(frozen=True)
class FixedRank:
    """Keep exactly ``rank`` modes (clamped to the numerical rank)."""

    rank: int


@dataclass(frozen=True)
class CepThreshold:
    """Keep the fewest modes whose cumulative squared singular values
    reach ``fraction`` of the total."""

    fraction: float = 0.90


RankPolicy = Union[FixedRank, CepThreshold]


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
    amplitude_method: str = "least_squares"
    fit_window: str = "circulant"
    svd_tol: float = DEFAULT_SVD_TOL

    def __post_init__(self):
        if self.solver not in ("exact", "total"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.amplitude_method not in ("least_squares", "first_snapshot"):
            raise ValueError(f"unknown amplitude method {self.amplitude_method!r}")
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

    def to_json(self) -> str:
        payload = {
            "eigenvalues": _complex_pairs(self.eigenvalues),
            "amplitudes": _complex_pairs(self.amplitudes),
            "modes_real": self.modes.real.tolist(),
            "modes_imag": self.modes.imag.tolist(),
            "rank": self.rank,
            "tau": self.tau,
            "sampling_seconds": self.sampling_seconds,
            "fit_span": self.fit_span,
            "solver": self.solver,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

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
        if policy.rank < 1:
            raise ValueError(f"fixed rank must be positive, got {policy.rank}")
        return min(policy.rank, n_rank)
    if isinstance(policy, CepThreshold):
        f = policy.fraction
        if not 0.0 < f <= 1.0:
            raise ValueError(f"cep fraction must be in (0, 1], got {f}")
        energy = sigma**2
        cum = np.cumsum(energy) / energy.sum()
        hits = np.nonzero(cum >= f)[0]
        k = int(hits[0]) + 1 if hits.size else sigma.size
        return min(k, n_rank)
    raise TypeError(f"unknown rank policy {policy!r}")


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
    """Tall products restricted to the fit columns, plus the Gram blocks
    on demand.

    An optional column-space projector (total-least-squares debiasing)
    applies to ``tall`` only: mode lifting uses the projected snapshots
    while amplitudes are always fit against the raw data.
    """

    def __init__(self, view: hk.HankelView, fit_window: str):
        t = view.source.n_steps
        if t < 3:
            raise ValueError(f"need at least 3 time steps, got {t}")
        self.view = view
        self.fit_window = fit_window
        self.span = _fit_columns(t, view.tau, fit_window)
        self.projector: np.ndarray | None = None

    def grams(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full T x T Gram, its fit block H^T H and the cross block H^T H'.

        Builds the Gram once per call; only the operator fits need it.
        """
        full = hk.gram(self.view)
        if self.fit_window == "circulant":
            # H^T H' for the circulant shift is a cyclic column rotation
            # of the Gram: (H^T H')[j, k] = G[j, (k+1) mod T].
            return full, full, np.roll(full, -1, axis=1)
        span = self.span
        gram = np.ascontiguousarray(full[:span, :span])
        cross = np.ascontiguousarray(full[:span, 1 : span + 1])
        return full, gram, cross

    def tall(self, x: np.ndarray) -> np.ndarray:
        if self.projector is not None:
            x = self.projector @ x
        t = self.view.source.n_steps
        if self.span == t:
            return hk.apply_tall(self.view, x)
        padded = np.zeros((t, x.shape[1]), dtype=x.dtype)
        padded[: self.span] = x
        return hk.apply_tall(self.view, padded)

    def tall_transpose(self, y: np.ndarray) -> np.ndarray:
        return hk.apply_tall_transpose(self.view, y)[: self.span]

    def data_energy(self) -> float:
        return float(np.sum(hk.column_energies(self.view)[: self.span]))


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
    gram, cross = geo.grams()[1:]
    sigma_all, vecs = gram_spectrum(gram)
    return _finish_fit(view, cfg, geo, sigma_all, vecs, cross, "exact")


def fit_tdmd(view: hk.HankelView, cfg: DmdConfig | None = None) -> DmdDecomposition:
    """Debiased variant: project the snapshot pair onto the leading right
    singular subspace of the vertically stacked pair before regression.

    With noiseless data the projection is the identity on the signal
    subspace and the result matches the exact solver.
    """
    cfg = cfg or DmdConfig()
    geo = _FitGeometry(view, cfg.fit_window)
    full, gram, cross = geo.grams()
    if cfg.fit_window == "circulant":
        g_shift = np.roll(np.roll(full, -1, axis=0), -1, axis=1)
    else:
        g_shift = full[1 : geo.span + 1, 1 : geo.span + 1]
    stacked = gram + g_shift
    sigma_z, vecs_z = gram_spectrum(stacked)
    r_z = resolve_rank(sigma_z, cfg.rank_policy, cfg.svd_tol)
    basis = vecs_z[:, :r_z]
    projector = basis @ basis.T
    gram_p = projector @ gram @ projector
    cross_p = projector @ cross @ projector
    gram_p = 0.5 * (gram_p + gram_p.T)
    geo.projector = projector
    sigma_all, vecs = gram_spectrum(gram_p)
    return _finish_fit(view, cfg, geo, sigma_all, vecs, cross_p, "total")


def _finish_fit(
    view: hk.HankelView,
    cfg: DmdConfig,
    geo: _FitGeometry,
    sigma_all: np.ndarray,
    vecs: np.ndarray,
    cross_fit: np.ndarray,
    solver: str,
) -> DmdDecomposition:
    rank = resolve_rank(sigma_all, cfg.rank_policy, cfg.svd_tol)
    sigma = sigma_all[:rank]
    right = vecs[:, :rank]
    # Reduced operator U^T H' V 1/sigma with U = H V 1/sigma substituted:
    # diag(1/sigma) V^T (H^T H') V diag(1/sigma).
    inv_sigma = 1.0 / sigma
    reduced = (inv_sigma[:, np.newaxis] * (right.T @ cross_fit @ right)) * inv_sigma
    spectrum = dense_eig(reduced)
    left = geo.tall(right * inv_sigma)
    modes = left @ spectrum.eigenvectors
    norms = np.linalg.norm(modes, axis=0)
    if np.any(norms == 0.0):
        raise NumericalError("degenerate zero mode produced by eigendecomposition")
    modes = modes / norms

    if cfg.amplitude_method == "least_squares":
        p, q, _ = amplitude_quadratic(spectrum.eigenvalues, modes, geo)
        amplitudes = _solve_hermitian(p, q)
    else:
        first_col = np.zeros((view.source.n_steps, 1))
        first_col[0, 0] = 1.0
        h0 = hk.apply_tall(view, first_col)[:, 0]
        amplitudes = lstsq(modes, h0.astype(complex))

    order = _energy_order(spectrum.eigenvalues, amplitudes, geo.span)
    return DmdDecomposition(
        eigenvalues=spectrum.eigenvalues[order],
        modes=modes[:, order],
        amplitudes=amplitudes[order],
        rank=rank,
        sampling_seconds=view.source.step_seconds,
        fit_span=geo.span,
        tau=view.tau,
        solver=solver,
        singular_values=sigma_all,
    )


def fit_geometry(view: hk.HankelView, fit_span: int) -> _FitGeometry:
    """Rebuild the fit geometry matching a decomposition's fit span.

    Cheap: the Gram is built only by the operator fits, not here.
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
