"""The amplitude problem of a fit, rebuilt from its modes and its view,
for checking the mode selection against restricted refits on small
instances.

The fit solves ||H - modes diag(a) C||_F^2 = a*Pa - 2Re(q*a) + s for its
amplitudes and keeps none of it; here (P, q, s) are built again, with
H^T modes taken by ``apply_tall_transpose`` over the fit's snapshots.
"""

import numpy as np

from dmdembed import dmd
from dmdembed.hankel import apply_tall_transpose, column_energies


class AmplitudeForm:
    """(P, q, s) of the fit ``dec`` of ``view``, in the fit's mode order."""

    def __init__(self, dec: dmd.DmdDecomposition, view):
        snapshots = dmd.fit_geometry(view)
        ht_modes = (apply_tall_transpose(snapshots, dec.modes.real)
                    + 1j * apply_tall_transpose(snapshots, dec.modes.imag))
        self.p, self.q = dmd.amplitude_quadratic(
            dec.eigenvalues, dec.modes.conj().T @ dec.modes, ht_modes)
        self.s = float(column_energies(snapshots).sum())
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
