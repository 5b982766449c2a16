"""A dense reference fit of small instances, and the amplitude problem
of a fit rebuilt from it, for checking the fit and the mode selection
against restricted refits.

The fit solves ||H - modes diag(a) C||_F^2 = a*Pa - 2Re(q*a) + s for its
amplitudes over the unit-norm lifted modes, and keeps only their first
N rows. Here H, its SVD, the reduced operator and the lifted modes are
formed densely, and (P, q, s) are built from them.
"""

import numpy as np

from dmdembed import dmd
from hankel_oracle import materialize_hankel


class DenseFit:
    """The fit of ``values`` lifted at ``tau``, at ``rank``, from dense
    arrays: the snapshots H, the eigenvalues of U^T H' V diag(1/sigma),
    and the unit-norm lifted modes U W with their amplitudes, each mode
    phased by its amplitude as the fit phases it, so the amplitudes are
    real and nonnegative. Nothing is ordered."""

    def __init__(self, values: np.ndarray, tau: int, rank: int):
        lifted = materialize_hankel(values, tau)
        self.snapshots = lifted[:, :-1]
        u, sigma, vt = np.linalg.svd(self.snapshots, full_matrices=False)
        u, sigma, v = u[:, :rank], sigma[:rank], vt[:rank].T
        self.condition = sigma[0] / sigma[-1]
        self.eigenvalues, vectors = np.linalg.eig((u.T @ lifted[:, 1:] @ v) / sigma)
        modes = u @ vectors
        modes /= np.linalg.norm(modes, axis=0)
        amplitudes = dmd.solve_hermitian(*self.quadratic(self.eigenvalues, modes))
        phase = np.ones_like(amplitudes)
        moving = amplitudes != 0
        phase[moving] = amplitudes[moving] / np.abs(amplitudes[moving])
        self.modes = modes * phase
        self.amplitudes = np.abs(amplitudes)

    def quadratic(self, eigenvalues: np.ndarray, modes: np.ndarray):
        """(P, q) of the amplitude fit of the snapshots by ``modes``."""
        return dmd.amplitude_quadratic(eigenvalues, modes.conj().T @ modes,
                                       self.snapshots.T @ modes)

    def matched_to(self, eigenvalues: np.ndarray) -> np.ndarray:
        """For each of ``eigenvalues``, the index of the nearest reference
        eigenvalue; each reference eigenvalue is matched once."""
        apart = np.abs(np.asarray(eigenvalues)[:, np.newaxis] - self.eigenvalues[np.newaxis, :])
        order = np.argmin(apart, axis=1)
        assert np.array_equal(np.sort(order), np.arange(self.eigenvalues.size)), apart
        return order


class AmplitudeForm:
    """(P, q, s) of the fit ``dec`` of ``view``, in the fit's mode order,
    over the dense reference's lifted modes matched to the fit's by
    eigenvalue (kept as ``modes``)."""

    def __init__(self, dec: dmd.DmdDecomposition, view):
        ref = DenseFit(view.values, view.tau, dec.rank)
        order = ref.matched_to(dec.eigenvalues)
        self.modes = ref.modes[:, order]
        self.p, self.q = ref.quadratic(ref.eigenvalues[order], self.modes)
        self.s = float(np.sum(ref.snapshots**2))
        self.groups = dec.groups

    def refit_on(self, support: np.ndarray) -> np.ndarray:
        """The least-squares amplitudes restricted to the boolean mode
        mask ``support``: zero off it, the restricted normal equations
        solved on it."""
        idx = np.nonzero(support)[0]
        out = np.zeros(support.size, dtype=complex)
        out[idx] = dmd.solve_hermitian(self.p[np.ix_(idx, idx)], self.q[idx])
        return out

    def loss(self, amplitudes: np.ndarray) -> float:
        """The squared Frobenius residual at ``amplitudes``, floored at 0."""
        quad = np.real(amplitudes.conj() @ (self.p @ amplitudes))
        lin = 2.0 * np.real(self.q.conj() @ amplitudes)
        return max(0.0, self.s + quad - lin)
