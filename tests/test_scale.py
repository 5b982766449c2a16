"""A long two-period run: the fit scales past the dense T x T Gram."""

import json
import tracemalloc

from dmdembed import dmd
from dmdembed.dmd import mode_frequency
from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.synthetic import two_period_spec


def test_twenty_thousand_step_pipeline(tmp_path, monkeypatch):
    # N = 8, T = 20,000: 14,000 training steps at tau 3,500. The dense
    # Gram alone would be 14,000^2 doubles, 1.6 GB.
    fits = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            dec = fit(*args, **kwargs)
        finally:
            fits.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        fits.append(dec)
        return dec

    fit = dmd.fit_dmd
    monkeypatch.setattr(dmd, "fit_dmd", measured)
    cfg = PipelineConfig(
        synthetic=two_period_spec(n_nodes=8, n_steps=20_000, noise_sigma=0.1, seed=1),
        output_dir=str(tmp_path / "run"),
        seed=1,
    )
    out = run_pipeline(cfg)
    peak_mb, dec = fits
    assert peak_mb <= 200.0, f"fit_dmd peaked at {peak_mb:.0f} MB"
    periods = [mode_frequency(lam, dec.sampling_seconds).period_steps
               for lam in dec.eigenvalues if lam.imag > 0]
    for planted in (72.0, 504.0):
        assert min(abs(p / planted - 1.0) for p in periods) <= 0.005, periods
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert resolved["tau"] == 3_500
    assert (out / "metrics_with.json").exists()
