"""Seeded synthetic signals with known periodic structure.

Every node mixes the same cosine components with its own random weight,
so the planted periods are exactly recoverable while nodes stay
heterogeneous. Noise is calibrated relative to the noiseless signal
RMS, which makes noise levels comparable across specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hankel import SignalMatrix


@dataclass(frozen=True)
class SyntheticComponent:
    period_steps: float
    amplitude: float = 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible N x T signal.

    noise_sigma is relative to the noiseless signal RMS; trend is an
    additive slope per step shared by all nodes.
    """

    n_nodes: int
    n_steps: int
    components: tuple[SyntheticComponent, ...] = field(default_factory=tuple)
    noise_sigma: float = 0.0
    trend: float = 0.0
    seed: int = 0
    step_seconds: float = 900.0

    def __post_init__(self):
        if self.n_nodes < 1 or self.n_steps < 2:
            raise ConfigError(f"need n_nodes >= 1 and n_steps >= 2, got {self.n_nodes} x {self.n_steps}")
        for comp in self.components:
            if comp.period_steps < 2:
                raise ConfigError(f"component period must be >= 2 steps, got {comp.period_steps}")
            if comp.amplitude <= 0:
                raise ConfigError(f"component amplitude must be positive, got {comp.amplitude}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")


def spec_from_options(
    nodes: int = 8,
    steps: int = 2016,
    periods: tuple[float, ...] = (),
    amplitudes: tuple[float, ...] = (),
    noise: float = 0.0,
    trend: float = 0.0,
    seed: int = 0,
) -> SyntheticSpec:
    """The spec named by the ``synth`` subcommand's options, which are
    also the pipeline's ``synth_*`` config keys; amplitudes default to 1."""
    amplitudes = amplitudes or (1.0,) * len(periods)
    if len(amplitudes) != len(periods):
        raise ConfigError("periods and amplitudes must have the same length")
    return SyntheticSpec(
        n_nodes=nodes,
        n_steps=steps,
        components=tuple(SyntheticComponent(p, a) for p, a in zip(periods, amplitudes)),
        noise_sigma=noise,
        trend=trend,
        seed=seed,
    )


def generate_synthetic(spec: SyntheticSpec) -> SignalMatrix:
    """Draw the seeded signal: per-component random spatial profile in
    [0.5, 1.5] and random phase, plus optional trend and noise."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.n_steps)
    values = np.zeros((spec.n_nodes, spec.n_steps))
    for comp in spec.components:
        profile = rng.uniform(0.5, 1.5, spec.n_nodes)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values += comp.amplitude * profile[:, np.newaxis] * np.cos(
            2.0 * np.pi * t[np.newaxis, :] / comp.period_steps + phase
        )
    if spec.trend != 0.0:
        values += spec.trend * t[np.newaxis, :]
    if spec.noise_sigma > 0.0:
        rms = float(np.sqrt(np.mean(values**2)))
        scale = spec.noise_sigma * (rms if rms > 0 else 1.0)
        values += rng.normal(0.0, scale, size=values.shape)
    return SignalMatrix.from_values(values, step_seconds=spec.step_seconds)


def two_period_spec(
    n_nodes: int = 8,
    n_steps: int = 2016,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> SyntheticSpec:
    """The daily/weekly benchmark layout: periods 72 and 504 steps."""
    return spec_from_options(n_nodes, n_steps, (72.0, 504.0), noise=noise_sigma, seed=seed)
