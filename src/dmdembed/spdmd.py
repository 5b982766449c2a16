"""Selection of the dominant modes of a fitted decomposition.

The selection keeps the leading conjugate groups of the fit's energy
order (``dec.groups``): step k keeps the first k groups. A conjugate
pair and a real mode each form one group, so a real-valued embedding
never receives half a pair. Nothing is refitted: the kept modes carry
the fit's own amplitudes, and the selection reads only ``dec.groups``.

The path, sweep and per-step shapes below, with their constant
``iterations`` and ``converged``, are kept for perfbench's tracer,
which reads them from ``gamma_sweep``'s result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import DmdDecomposition


@dataclass
class SpdmdSolution:
    """One step of the selection: the boolean mode mask ``support`` of
    the groups kept so far, and ``group``, the mode indices that this
    step added."""

    support: np.ndarray
    pair_count: int
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


def gamma_sweep(dec: DmdDecomposition, target_modes: int) -> SweepResult:
    """Keep the first ``min(target_modes, groups)`` conjugate groups in energy order.

    ``target_modes`` counts conjugate groups: a retained pair and a
    retained real mode each count once, as each gives the embedding one
    eigenvalue. The selected solution
    is the last step. The name is the one perfbench traces.
    """
    if target_modes < 1:
        raise ValueError(f"target_modes must be at least 1, got {target_modes}")
    support = np.zeros(dec.rank, dtype=bool)
    solutions: list[SpdmdSolution] = []
    for step, group in enumerate(dec.groups[:target_modes], start=1):
        support = support.copy()
        support[group] = True
        solutions.append(SpdmdSolution(support, step, group))
    # every group up to the target is there to take, so the target is always met
    return SweepResult(SpdmdPath(solutions), selected=solutions[-1], target_met=True)
