"""Per-timestep covariates from selected eigenvalues.

Each retained conjugate-pair representative contributes two real
channels per step: the real and imaginary parts of its eigenvalue,
projected to the unit circle, raised to the absolute step index. The
resulting L x 2r table extends past the fitted horizon simply by
continuing the power recurrence, so validation and test spans receive
covariates without refitting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError

if TYPE_CHECKING:  # pragma: no cover
    from .forecaster import ForecastWindows


@dataclass(frozen=True)
class TimeEmbedding:
    """Covariate table with rows [Re(l_1^t)...Re(l_r^t), Im(l_1^t)...Im(l_r^t)].

    ``eigenvalues`` are the unit-modulus l_i that are powered.
    ``origin_step`` is the absolute data step of table row 0; powers are
    anchored at absolute step 0, so a table starting there opens with
    the identity row [1,...,1, 0,...,0].
    """

    eigenvalues: np.ndarray
    origin_step: int
    table: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def length(self) -> int:
        return self.table.shape[0]

    def rows(self, steps: np.ndarray) -> np.ndarray:
        """Table rows for the given absolute steps (span must cover them)."""
        steps = np.asarray(steps, dtype=int)
        idx = steps - self.origin_step
        bad = (idx < 0) | (idx >= self.length)
        if bad.any():
            first = int(steps.ravel()[int(np.argmax(bad.ravel()))])
            raise DataError(f"embedding does not cover absolute step {first}")
        return self.table[idx]


def build_embedding(selected: np.ndarray, span: tuple[int, int]) -> TimeEmbedding:
    """Generate covariate rows for absolute steps [span[0], span[1]).

    Eigenvalues must be pair representatives (imaginary part >= 0), as
    ``DmdDecomposition.representatives`` gives them. Each is replaced by
    lambda/|lambda| before powering, so extrapolated covariates neither
    explode nor vanish; growth information stays in the decomposition.
    """
    start, end = int(span[0]), int(span[1])
    if end <= start:
        raise ValueError(f"empty span [{start}, {end})")
    eigs = np.asarray(selected, dtype=complex).ravel()
    if np.any(eigs == 0):
        raise ValueError("zero eigenvalue cannot be embedded")
    if np.any(eigs.imag < -1e-12 * (1.0 + np.abs(eigs))):
        raise ValueError("eigenvalues must be pair representatives with Im >= 0")
    eigs = eigs / np.abs(eigs)
    length = end - start
    powers = np.empty((length, eigs.size), dtype=complex)
    if eigs.size:
        powers[0] = eigs**start
        for k in range(1, length):
            powers[k] = powers[k - 1] * eigs
    table = np.hstack([powers.real, powers.imag])
    return TimeEmbedding(eigenvalues=eigs, origin_step=start, table=table)


def attach_covariates(windows: "ForecastWindows", emb: TimeEmbedding) -> "ForecastWindows":
    """Append the embedding rows of each anchor's history and target
    steps to its covariates, once per anchor rather than per window.

    The embedding span must cover every absolute step any window touches,
    including the future target steps; the first uncovered step, in
    window order, is reported otherwise.
    """
    p, steps = windows.p, windows.covariates.shape[1]
    rows = emb.rows(windows.anchors[:, np.newaxis] + np.arange(1 - p, steps - p + 1))
    return replace(windows, covariates=np.concatenate([windows.covariates, rows], axis=2))


def export_embedding(emb: TimeEmbedding, path) -> None:
    """Write the table as CSV: step, re_1..re_r, im_1..im_r.

    Values use 17 significant digits, so reading the file back (for
    example with ``np.loadtxt``) gives every entry bit for bit.
    """
    r = emb.n_modes
    header = ["step"] + [f"re_{i + 1}" for i in range(r)] + [f"im_{i + 1}" for i in range(r)]
    cells = np.empty((emb.length, 1 + emb.table.shape[1]), dtype=object)
    cells[:, 0] = range(emb.origin_step, emb.origin_step + emb.length)
    cells[:, 1:] = emb.table
    row = "%d" + ",%.17g" * emb.table.shape[1] + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row * emb.length % tuple(cells.ravel().tolist()))
