"""Per-timestep covariates from selected eigenvalues.

Each retained conjugate group contributes two real channels per step:
the real and imaginary parts of its member with Im >= 0, projected to
the unit circle, raised to the step index. The resulting
L x 2r table extends past the fitted horizon simply by continuing the
power recurrence, so validation and test spans receive covariates
without refitting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .diagnostics import write_table
from .dmd import vandermonde
from .errors import DataError

if TYPE_CHECKING:  # pragma: no cover
    from .forecaster import ForecastWindows


@dataclass(frozen=True)
class TimeEmbedding:
    """Covariate table with rows [Re(l_1^t)...Re(l_r^t), Im(l_1^t)...Im(l_r^t)].

    ``eigenvalues`` are the unit-modulus l_i that are powered. Row t is
    step t, so the table opens with the identity row [1,...,1, 0,...,0].
    """

    eigenvalues: np.ndarray
    table: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def length(self) -> int:
        return self.table.shape[0]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """A view of the table rows of steps start .. stop-1. The table
        must cover them; otherwise the first step it misses is named."""
        if start < 0 or stop > self.length:
            first = self.length if 0 <= start < self.length else start
            raise DataError(f"embedding does not cover absolute step {first}")
        return self.table[start:stop]


def build_embedding(selected: np.ndarray, length: int) -> TimeEmbedding:
    """Generate covariate rows for steps 0 .. length-1.

    ``selected`` holds the kept modes' eigenvalues as a fit lists them:
    whole conjugate groups, or one member of each. The discarded
    conjugate carries no new real information, its channels duplicating
    its partner's up to sign, so each member with Im >= 0 is kept, in
    order. A member with Im < 0 is refused unless its exact conjugate is
    among them. Each kept value is replaced by lambda/|lambda| before
    powering, so extrapolated covariates neither explode nor vanish;
    growth information stays in the decomposition.
    """
    eigs = np.asarray(selected, dtype=complex).ravel()
    if np.any(eigs == 0):
        raise ValueError("zero eigenvalue cannot be embedded")
    lower = eigs.imag < 0
    if not np.isin(np.conj(eigs[lower]), eigs[~lower]).all():
        raise ValueError("an eigenvalue with Im < 0 needs its exact conjugate among the selected")
    eigs = eigs[~lower] / np.abs(eigs[~lower])
    powers = vandermonde(eigs, length)
    table = np.empty((length, 2 * eigs.size))
    table[:, : eigs.size] = powers.real.T
    table[:, eigs.size :] = powers.imag.T
    return TimeEmbedding(eigenvalues=eigs, table=table)


def attach_covariates(windows: "ForecastWindows", emb: TimeEmbedding) -> "ForecastWindows":
    """Set the windows' covariates to a view of the embedding rows of
    their split's steps, which hold every anchor's history and target
    rows; any covariates the windows held are replaced. Nothing is
    copied.

    The embedding span must cover every absolute step any window touches,
    including the future target steps; the first uncovered step, in
    window order, is reported otherwise.
    """
    return replace(windows, covariates=emb.rows(*windows.span))


def export_embedding(emb: TimeEmbedding, path) -> None:
    """Write the table as CSV: step, re_1..re_r, im_1..im_r.

    Values use 17 significant digits, so reading the file back (for
    example with ``np.loadtxt``) gives every entry bit for bit.
    """
    header = ["step"] + [f"{part}_{i + 1}" for part in ("re", "im") for i in range(emb.n_modes)]
    write_table(path, header, [np.arange(emb.length), *emb.table.T])
