"""Selection of the dominant modes of a fitted decomposition.

The fit's amplitudes minimize the reconstruction loss

    ||H - modes diag(a) Vandermonde||_F^2 = a*Pa - 2Re(q*a) + s

over all r modes. A smaller support keeps the leading conjugate groups
of the fit's energy order (``dec.groups``): step k keeps the first k
groups, with their polished refit (the unregularized fit restricted to
the support) and its loss. A conjugate pair and a real mode each form
one group, so a real-valued embedding never receives half a pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import write_table
from .dmd import DmdDecomposition, mode_frequency, solve_hermitian


@dataclass
class SpdmdSolution:
    """One step of the selection: the polished amplitudes on its support.

    Off-support amplitudes are exactly zero. ``group`` holds the mode
    indices that this step added, and ``fit_loss`` is the squared
    Frobenius residual of the reconstruction at these amplitudes.
    """

    amplitudes: np.ndarray
    support: np.ndarray
    pair_count: int
    fit_loss: float
    group: list[int]
    # perfbench/tracing.py reads these of every step; the selection does not iterate.
    iterations = 0
    converged = True


@dataclass
class SpdmdPath:
    """The selection path: ``solutions[k]`` holds the first k + 1 groups."""

    solutions: list[SpdmdSolution]


@dataclass
class SweepResult:
    path: SpdmdPath
    selected: SpdmdSolution
    target_met: bool


class _AmplitudeProblem:
    """The fit's quadratic form a*Pa - 2Re(q*a) + s and its conjugate groups."""

    def __init__(self, dec: DmdDecomposition):
        if dec.amplitude_form is None:
            raise ValueError("the decomposition carries no amplitude form; refit it with fit_dmd")
        self.p, self.q, self.s = dec.amplitude_form
        self.groups = dec.groups

    def loss(self, amplitudes: np.ndarray) -> float:
        quad = np.real(amplitudes.conj() @ (self.p @ amplitudes))
        lin = 2.0 * np.real(self.q.conj() @ amplitudes)
        return max(0.0, self.s + quad - lin)


def _polish_on(problem: _AmplitudeProblem, support: np.ndarray) -> np.ndarray:
    """Unregularized amplitude refit restricted to the support mask:
    off-support entries are exactly zero, on-support entries solve the
    restricted normal equations."""
    if not support.any():
        raise ValueError("polish requires a nonempty support")
    idx = np.nonzero(support)[0]
    out = np.zeros(support.size, dtype=complex)
    out[idx] = solve_hermitian(problem.p[np.ix_(idx, idx)], problem.q[idx])
    return out


def gamma_sweep(dec: DmdDecomposition, target_modes: int) -> SweepResult:
    """Keep the first ``min(target_modes, groups)`` conjugate groups in energy order.

    ``target_modes`` counts conjugate-pair representatives: a retained
    pair and a retained real mode each count once. Step k polishes the
    amplitudes on the first k groups of ``dec.groups``; the selected
    solution is the last step. The name is the one perfbench traces.
    """
    problem = _AmplitudeProblem(dec)
    if target_modes < 1:
        raise ValueError(f"target_modes must be at least 1, got {target_modes}")
    support = np.zeros(dec.rank, dtype=bool)
    solutions: list[SpdmdSolution] = []
    for step, group in enumerate(problem.groups[:target_modes], start=1):
        support = support.copy()
        support[group] = True
        amplitudes = _polish_on(problem, support)
        solutions.append(SpdmdSolution(amplitudes, support, step, problem.loss(amplitudes), group))
    # every group up to the target is there to take, so the target is always met
    return SweepResult(SpdmdPath(solutions), selected=solutions[-1], target_met=True)


def export_path_csv(path: SpdmdPath, eigenvalues: np.ndarray, destination) -> None:
    """Write the selection path as CSV, one row per added group: its
    period in steps (inf for a real mode) and growth rate, and the fit
    loss once it is added."""
    freqs = [mode_frequency(eigenvalues[sol.group[0]]) for sol in path.solutions]
    write_table(destination, ["step", "period_steps", "growth_rate", "fit_loss"], [
        [sol.pair_count for sol in path.solutions],
        [np.inf if f.period_steps is None else f.period_steps for f in freqs],
        [f.growth_rate for f in freqs],
        [sol.fit_loss for sol in path.solutions],
    ])
