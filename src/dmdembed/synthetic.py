"""Seeded synthetic signals with known periodic structure.

Every node mixes the same cosine components with its own random weight,
so the planted periods are exactly recoverable while nodes stay
heterogeneous. Noise is calibrated relative to the noiseless signal
RMS, which makes noise levels comparable across specs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_finite
from .hankel import SignalMatrix


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible nodes x steps signal.

    The fields, defaults included, are the ``synth`` subcommand's options
    and the pipeline's ``synth_*`` config keys. Component k has period
    ``periods[k]`` in steps and amplitude ``amplitudes[k]``; empty
    amplitudes resolve to ones. ``noise`` is a sigma relative to the noiseless signal RMS;
    ``trend`` is an additive slope per step shared by all nodes.
    """

    nodes: int = 8
    steps: int = 2016
    periods: tuple[float, ...] = (72.0, 504.0)
    amplitudes: tuple[float, ...] = ()
    noise: float = 0.0
    trend: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.nodes < 1 or self.steps < 2:
            raise ConfigError(f"need nodes >= 1 and steps >= 2, got {self.nodes} x {self.steps}")
        amplitudes = self.amplitudes or (1.0,) * len(self.periods)
        if len(amplitudes) != len(self.periods):
            raise ConfigError("periods and amplitudes must have the same length")
        if any(p < 2 for p in self.periods):
            raise ConfigError(f"component periods must be >= 2 steps, got {list(self.periods)}")
        if any(a <= 0 for a in amplitudes):
            raise ConfigError(f"component amplitudes must be positive, got {list(amplitudes)}")
        if self.noise < 0:
            raise ConfigError(f"noise must be nonnegative, got {self.noise}")
        object.__setattr__(self, "periods", tuple(map(float, self.periods)))
        object.__setattr__(self, "amplitudes", tuple(map(float, amplitudes)))


def generate_synthetic(spec: SyntheticSpec) -> SignalMatrix:
    """Draw the seeded signal: per-component random spatial profile in
    [0.5, 1.5] and random phase, plus optional trend and noise."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.steps)
    values = np.zeros((spec.nodes, spec.steps))
    for period, amplitude in zip(spec.periods, spec.amplitudes):
        profile = rng.uniform(0.5, 1.5, spec.nodes)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values += amplitude * profile[:, np.newaxis] * np.cos(
            2.0 * np.pi * t[np.newaxis, :] / period + phase
        )
    if spec.trend != 0.0:
        values += spec.trend * t[np.newaxis, :]
    if spec.noise > 0.0:
        rms = float(np.sqrt(np.mean(values**2)))
        scale = spec.noise * (rms if rms > 0 else 1.0)
        values += rng.normal(0.0, scale, size=values.shape)
    return SignalMatrix.from_values(values)

