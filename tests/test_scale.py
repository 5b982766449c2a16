"""Scale: a long two-period run whose fit scales past the dense T x T
Gram, a wide fit that forms no lifted modes, a wide forecast whose memory stays near its prediction block, a
long forecast that copies no covariate rows, and a wide run whose
diagnostics hold one residual block at a time."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np

from dmdembed import dmd, pipeline
from dmdembed.dmd import FixedRank, fit_dmd, mode_frequency
from dmdembed.embedding import build_embedding
from dmdembed.forecaster import fit_ridge, make_windows, predict
from dmdembed.hankel import build_hankel
from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.synthetic import SyntheticSpec, generate_synthetic


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
        synthetic=SyntheticSpec(nodes=8, steps=20_000, noise=0.1, seed=1),
        output_dir=str(tmp_path / "run"),
        seed=1,
    )
    out = run_pipeline(cfg)
    peak_mb, dec = fits
    assert peak_mb <= 200.0, f"fit_dmd peaked at {peak_mb:.0f} MB"
    periods = [mode_frequency(lam).period_steps
               for lam in dec.eigenvalues if lam.imag > 0]
    for planted in (72.0, 504.0):
        assert min(abs(p / planted - 1.0) for p in periods) <= 0.005, periods
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert resolved["tau"] == 3_500
    assert (out / "metrics_with.json").exists()


def test_wide_fit_forms_no_lifted_modes():
    # 64 nodes x 1,400 steps at tau 700 and rank 24: 44,800 lifted rows,
    # whose complex (N*tau, r) modes take 16.4 MB. The fit keeps only
    # their 64 data rows and forms no (N*tau)-row array: its peak measured
    # 0.40 times those bytes, where forming the left vectors and the
    # lifted modes took it to 2.46 times them.
    sig = generate_synthetic(SyntheticSpec(nodes=64, steps=1_400, noise=0.1, seed=1))
    view = build_hankel(sig.values, 700)
    tracemalloc.start()
    try:
        dec = fit_dmd(view, FixedRank(24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lifted = 64 * 700 * dec.rank * np.dtype(complex).itemsize
    assert peak < lifted, f"peak {peak / lifted:.2f} times the lifted modes"
    assert dec.rank == 24 and dec.modes.shape == (64, 24)


def test_wide_forecast_holds_no_per_window_covariates():
    # 64 nodes x 1,000 steps with 4 modes. The windows are views of the
    # series and their covariates views of the embedding table, so what is
    # allocated is the test prediction block and small sums: 1.22 blocks
    # measured. Each anchor's covariate rows took it to 2.46 blocks, and
    # copied value windows and targets would take 10.8.
    rng = np.random.default_rng(0)
    values = rng.normal(size=(64, 1_000))
    observed = rng.random(values.shape) > 0.05
    emb = build_embedding(np.exp(2j * np.pi / np.array([72.0, 504.0, 36.0, 24.0])), 1_000)
    tracemalloc.start()
    try:
        windows = make_windows(values, {"train": (0, 800), "test": (800, 1_000)}, 12, 12,
                               embedding=emb, exclusion_mask=observed)
        predict(fit_ridge(windows["train"]), windows["test"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = len(windows["test"]) * 12 * 8
    assert peak <= 1.5 * block, f"peak {peak / block:.2f} prediction blocks"


def test_long_forecast_copies_no_covariate_rows():
    # 2 nodes x 40,000 steps with 2 modes: 27,977 training anchors, whose
    # covariate rows, A·(P+Q)·2r doubles, would take 20.5 MB. Both labels'
    # windows, fits and test predictions, as a run makes them, allocate
    # 0.14 times that: the prediction block and each anchor's covariate
    # term. Gathering each anchor's rows took 1.41 times it.
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, 40_000))
    emb = build_embedding(np.exp(2j * np.pi / np.array([72.0, 504.0])), 40_000)
    tracemalloc.start()
    try:
        windows = make_windows(values, {"train": (0, 28_000), "test": (32_000, 40_000)}, 12, 12,
                               embedding=emb)
        plain = {name: replace(fw, covariates=fw.covariates[:, :0]) for name, fw in windows.items()}
        for split in (windows, plain):
            predict(fit_ridge(split["train"]), split["test"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = windows["train"].anchors.size * (12 + 12) * 4 * 8
    assert peak <= 0.25 * rows, f"peak {peak / rows:.2f} times the covariate rows"


def test_wide_run_diagnoses_one_residual_block_at_a_time(tmp_path, monkeypatch):
    # 160 nodes x 12 horizons: 1,920 residual columns over 380 test anchors,
    # so one label's (A, N, Q) residual block is 5.6 MB and the 1,920^2
    # |corr| matrix would be 5 blocks. Each label's residuals are scored
    # and diagnosed before the next label's are formed, in tiles of the
    # matrix whose products read the raw trail rows in place, so the
    # forecast and diagnostics stages allocate the block and one tile:
    # 1.5 blocks measured. A standardized copy of the trail rows took it
    # to 3.5, and holding the targets, both labels' blocks and the whole
    # matrix to 8.9.
    def traced(*args, **kwargs):
        tracemalloc.start()
        return make(*args, **kwargs)

    make = pipeline.make_windows
    monkeypatch.setattr(pipeline, "make_windows", traced)
    cfg = PipelineConfig(
        synthetic=SyntheticSpec(nodes=160, steps=2_016, noise=0.1, seed=1),
        output_dir=str(tmp_path / "run"),
        seed=1,
    )
    try:
        out = run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, b_val = json.loads((out / "manifest.json").read_text())["resolved"]["boundaries"]
    block = (2_016 - b_val - cfg.p - cfg.q + 1) * 160 * cfg.q * 8
    assert peak <= 2.5 * block, f"peak {peak / block:.1f} residual blocks"
