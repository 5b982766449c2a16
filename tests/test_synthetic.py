import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmdembed.dmd import FixedRank, fit_dmd, mode_frequency
from dmdembed.errors import ConfigError
from dmdembed.hankel import build_hankel, default_tau
from dmdembed.synthetic import SyntheticSpec, generate_synthetic


def test_single_component_exact_periodicity():
    spec = SyntheticSpec(nodes=3, steps=60, periods=(12.0,), amplitudes=(2.0,))
    sig = generate_synthetic(spec)
    assert_allclose(sig.values[:, 12:], sig.values[:, :-12], atol=1e-12)


def test_same_seed_same_matrix():
    a = generate_synthetic(SyntheticSpec(noise=0.3, seed=5))
    b = generate_synthetic(SyntheticSpec(noise=0.3, seed=5))
    assert np.array_equal(a.values, b.values)
    c = generate_synthetic(SyntheticSpec(noise=0.3, seed=6))
    assert not np.array_equal(a.values, c.values)


def test_two_period_recovery_within_tenth_step():
    sig = generate_synthetic(SyntheticSpec(noise=0.0, seed=2))
    view = build_hankel(sig.values, tau=default_tau(sig.values))
    dec = fit_dmd(view, FixedRank(4))
    periods = sorted(
        mode_frequency(lam).period_steps
        for lam in dec.eigenvalues
        if lam.imag > 0
    )
    assert periods[0] == pytest.approx(72.0, abs=0.1)
    assert periods[1] == pytest.approx(504.0, abs=0.1)


def test_noise_scales_with_signal_rms():
    quiet = generate_synthetic(SyntheticSpec(noise=0.0, seed=9, steps=504))
    loud = generate_synthetic(SyntheticSpec(noise=0.5, seed=9, steps=504))
    resid = loud.values - quiet.values
    rms = np.sqrt(np.mean(quiet.values**2))
    ratio = np.sqrt(np.mean(resid**2)) / rms
    assert ratio == pytest.approx(0.5, rel=0.1)


def test_trend_component():
    spec = SyntheticSpec(nodes=2, steps=50, periods=(), trend=0.5)
    sig = generate_synthetic(spec)
    assert_allclose(sig.values[0], 0.5 * np.arange(50))


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(nodes=0, steps=10)
    with pytest.raises(ConfigError):
        SyntheticSpec(nodes=1, steps=10, periods=(1.0,), amplitudes=(1.0,))
    with pytest.raises(ConfigError):
        SyntheticSpec(nodes=1, steps=10, periods=(4.0,), amplitudes=(-1.0,))
    with pytest.raises(ConfigError):
        SyntheticSpec(nodes=1, steps=10, noise=-0.1)
