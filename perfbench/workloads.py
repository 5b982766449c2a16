"""Workload recipes: seeded inputs and the pipeline configuration of each run.

Every workload observes the A1 two-period signal (periods 72 and 504
steps, per-node amplitudes in [0.5, 1.5], noise 0.1 of the signal RMS)
in a different shape or with a different rank policy, so that one layer
of the pipeline dominates its run time.

The planted structure (amplitude profile and phase of each component)
and the training span (the first 70% of steps, which the decomposition
and the sparse selection see) are one fixed draw from ``STRUCTURE_SEED``.
``--seed`` draws the noise and the blank cells of the held-out span,
which the forecaster is scored on. Each input is written as a CSV file
and read by the program through ``input_csv``.

Both choices come from measurements over ten seeds. Drawing the
structure from the seed, as ``dmdembed.synthetic`` does, moved the
lag-72 residual correlation by 28% (quartile distance over median).
Drawing the training noise from the seed moved ``many_modes``' run time
by 16% over ten runs and by 36% over five. The cause is that each grid
point of the ADMM sweep that stops at the 10,000-iteration cap adds
10,000 iterations, and seven to twelve of the 50 points stop there,
depending on the noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Inputs

PERIODS = (72.0, 504.0)
NOISE = 0.1
STRUCTURE_SEED = 0
FIT_SHARE = 0.7  # the pipeline's default training share


@dataclass(frozen=True)
class Recipe:
    n_nodes: int
    n_steps: int
    rank: str
    blank_share: float  # share of cells left blank in the CSV file


RECIPES = {
    # 12 conjugate groups at rank 24: the 50-point ADMM sweep dominates.
    "many_modes": Recipe(8, 2016, "fixed:24", 0.0),
    # 48 nodes with blank cells: ingest, windows, ridge and diagnostics dominate.
    "wide_panel": Recipe(48, 2016, "cep:0.9", 0.05),
    # 6048 steps: the dense T x T Gram and its full eigh set time and memory.
    "long_history": Recipe(8, 6048, "cep:0.9", 0.0),
}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    recipe: Recipe
    inputs: Inputs
    csv_path: Path

    def config(self, output_dir: Path):
        from dmdembed.pipeline import PipelineConfig

        return PipelineConfig(input_csv=str(self.csv_path), rank=self.recipe.rank,
                              target_modes=4, output_dir=str(output_dir), seed=self.seed)


def held_out_start(n_steps: int) -> int:
    return int(round(n_steps * FIT_SHARE))


def signal(n_nodes: int, n_steps: int, seed: int) -> np.ndarray:
    """The A1 recipe: fixed planted components plus Gaussian noise, fixed on
    the training span and drawn from ``seed`` on the held-out span."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    t = np.arange(n_steps)
    values = np.zeros((n_nodes, n_steps))
    for period in PERIODS:
        profile = rng.uniform(0.5, 1.5, n_nodes)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values += profile[:, None] * np.cos(2.0 * np.pi * t[None, :] / period + phase)
    scale = NOISE * float(np.sqrt(np.mean(values**2)))
    noise = np.random.default_rng([STRUCTURE_SEED, 0]).normal(0.0, scale, values.shape)
    start = held_out_start(n_steps)
    noise[:, start:] = np.random.default_rng([seed, 0]).normal(0.0, scale, noise[:, start:].shape)
    return values + noise


def observed(shape: tuple[int, int], blank_share: float, seed: int) -> np.ndarray:
    """Observation mask with ``blank_share`` blank cells, drawn like the noise."""
    mask = np.random.default_rng([STRUCTURE_SEED, 1]).random(shape) >= blank_share
    start = held_out_start(shape[1])
    held = np.random.default_rng([seed, 1]).random((shape[0], shape[1] - start))
    mask[:, start:] = held >= blank_share
    return mask


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """Generate the workload's inputs for ``seed`` and write its CSV file."""
    recipe = RECIPES[name]
    values = signal(recipe.n_nodes, recipe.n_steps, seed)
    mask = observed(values.shape, recipe.blank_share, seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    csv_path = work_dir / f"{name}-seed{seed}.csv"
    write_csv(values, mask, csv_path)
    return Workload(name, seed, recipe, Inputs(values, mask, PERIODS), csv_path)


def write_csv(values: np.ndarray, mask: np.ndarray, path: Path) -> None:
    """Time-major CSV, one column per node, blank where mask is False."""
    header = "step," + ",".join(f"n{i:03d}" for i in range(values.shape[0]))
    lines = [header]
    for t in range(values.shape[1]):
        cells = [f"{v:.17g}" if seen else "" for v, seen in zip(values[:, t], mask[:, t])]
        lines.append(f"{t}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
