"""Acceptance gate: one test per criterion, each printing a PASS line
with the measured margin when it succeeds (run with -s to stream them).

A1/A5 share five seeded end-to-end runs of the daily/weekly benchmark
(N=8, T=2016, periods 72 and 504, noise 10% of signal RMS).
"""

import csv
import itertools
import json
import time

import numpy as np
import pytest

from dmdembed.dmd import FixedRank, fit_dmd, mode_frequency
from dmdembed.embedding import build_embedding
from dmdembed.forecaster import evaluate, make_windows
from dmdembed.hankel import build_hankel, default_tau
from dmdembed.linalg import leading_spectrum
from dmdembed.pipeline import PipelineConfig, config_from_manifest, run_pipeline
from dmdembed.spdmd import gamma_sweep
from dmdembed.synthetic import SyntheticSpec, generate_synthetic

import window_rows
from amplitude_oracle import AmplitudeForm
from hankel_oracle import gram_product

SEEDS = (1, 2, 3, 4, 5)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}", flush=True)


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """Five seeded pipeline runs on the two-period benchmark dataset."""
    base = tmp_path_factory.mktemp("benchmark")
    runs = {}
    start = time.perf_counter()
    for seed in SEEDS:
        cfg = PipelineConfig(
            synthetic=SyntheticSpec(noise=0.1, seed=seed),
            output_dir=str(base / f"seed{seed}"),
            seed=seed,
        )
        runs[seed] = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    return runs, elapsed


def _rmse12(run_dir, which):
    payload = json.loads((run_dir / f"metrics_{which}.json").read_text())
    return payload["horizons"]["12"]["rmse"]


def test_a1_covariate_benefit(benchmark_runs):
    runs, elapsed = benchmark_runs
    with_rmse = np.mean([_rmse12(runs[s], "with") for s in SEEDS])
    without_rmse = np.mean([_rmse12(runs[s], "without") for s in SEEDS])
    improvement = 1.0 - with_rmse / without_rmse
    assert elapsed <= 60.0, f"five benchmark runs took {elapsed:.1f}s"
    assert with_rmse <= 0.90 * without_rmse, (
        f"12-step RMSE with covariates {with_rmse:.4f} not 10% below {without_rmse:.4f}"
    )
    report("A1", f"12-step RMSE {with_rmse:.4f} vs {without_rmse:.4f} "
                 f"({improvement:.1%} better, {elapsed:.1f}s for 5 seeds)")


def test_a2_frequency_recovery():
    start = time.perf_counter()
    values = generate_synthetic(SyntheticSpec(noise=0.0, seed=0))
    view = build_hankel(values, default_tau(values))
    dec = fit_dmd(view, FixedRank(4))
    elapsed = time.perf_counter() - start
    periods = sorted(
        mode_frequency(lam).period_steps
        for lam in dec.eigenvalues if lam.imag > 0
    )
    worst_arg = max(abs(periods[0] / 72.0 - 1.0), abs(periods[1] / 504.0 - 1.0))
    worst_mod = float(np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)))
    assert worst_arg <= 0.005, f"period error {worst_arg:.2e}"
    assert worst_mod <= 1e-3, f"|lambda| deviation {worst_mod:.2e}"
    assert elapsed <= 5.0, f"fit took {elapsed:.2f}s"
    report("A2", f"periods {periods[0]:.4f}/{periods[1]:.4f} steps, "
                 f"arg err {worst_arg:.2e}, ||lam|-1| {worst_mod:.2e}, {elapsed:.2f}s")


def test_a3_snapshot_svd_equivalence():
    rng = np.random.default_rng(2024)
    worst_sigma, worst_recon = 0.0, 0.0
    for _ in range(100):
        rows = int(rng.integers(4, 65))
        cols = int(rng.integers(3, 49))
        h = rng.normal(size=(rows, cols))
        spectrum, v, _, _ = leading_spectrum(gram_product(h.T @ h), FixedRank(min(rows, cols)))
        sigma = spectrum[: v.shape[1]]
        s_ref = np.linalg.svd(h, compute_uv=False)[: sigma.size]
        worst_sigma = max(worst_sigma, float(np.max(np.abs(sigma / s_ref - 1.0))))
        # no fit forms the left vectors U = H V diag(1/sigma): formed here,
        # U diag(sigma) V^T = H V V^T rebuilds H when V spans its row space
        u = h @ (v / sigma)
        rebuilt = u @ (sigma[:, None] * v.T)
        worst_recon = max(worst_recon, float(np.linalg.norm(rebuilt - h) / np.linalg.norm(h)))
    assert worst_sigma <= 1e-8, f"singular value mismatch {worst_sigma:.2e}"
    assert worst_recon <= 1e-8, f"reconstruction error {worst_recon:.2e}"
    report("A3", f"100 matrices: max sigma err {worst_sigma:.2e}, "
                 f"max recon err {worst_recon:.2e}")


def _rank4_instance(seed):
    rng = np.random.default_rng(seed)
    t_steps, n_nodes = 96, 6
    strong_period = float(rng.choice([8.0, 12.0, 16.0]))
    weak_period = float(rng.choice([24.0, 32.0, 48.0]))
    t = np.arange(t_steps)
    values = (
        10.0 * rng.uniform(0.5, 1.5, n_nodes)[:, None]
        * np.cos(2 * np.pi * t / strong_period + rng.uniform(0, 2 * np.pi))
        + 1.0 * rng.uniform(0.5, 1.5, n_nodes)[:, None]
        * np.cos(2 * np.pi * t / weak_period + rng.uniform(0, 2 * np.pi))
    )
    view = build_hankel(values, default_tau(values))
    dec = fit_dmd(view, FixedRank(4))
    return dec, view


def _oracle_support(dec, view, target_pairs):
    problem = AmplitudeForm(dec, view)
    best = None
    for keep in itertools.product([False, True], repeat=len(problem.groups)):
        if sum(keep) != target_pairs:
            continue
        support = np.zeros(dec.rank, dtype=bool)
        for g, k in zip(problem.groups, keep):
            support[g] = k
        if support.any():
            loss = problem.loss(problem.refit_on(support))
        else:
            loss = problem.loss(np.zeros(dec.rank, complex))
        if best is None or loss < best[1]:
            best = (support, loss)
    return best[0]


def test_a4_spdmd_oracle_equivalence():
    matches = 0
    for seed in range(100):
        dec, view = _rank4_instance(seed)
        if dec.rank != 4:
            continue
        result = gamma_sweep(dec, target_modes=1)
        oracle = _oracle_support(dec, view, target_pairs=1)
        if np.array_equal(result.selected.support, oracle):
            matches += 1
    assert matches >= 95, f"sweep matched the exhaustive oracle on {matches}/100"
    report("A4", f"sweep support matched the exhaustive subset oracle on {matches}/100")


def _acf72(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    target = next(r for r in rows[1:] if int(r[0]) == 72)
    return float(np.mean([abs(float(v)) for v in target[1:]]))


def _corr(path, lag):
    with open(path) as fh:
        table = {int(r["lag"]): float(r["mean_abs_corr"]) for r in csv.DictReader(fh)}
    return table[lag]


def test_a5_residual_structure_reduction(benchmark_runs):
    runs, _ = benchmark_runs
    corr_wins = 0
    acf_wins = 0
    for seed in SEEDS:
        out = runs[seed]
        corr_with = _corr(out / "residual_corr_with_test.csv", 72)
        corr_without = _corr(out / "residual_corr_without_test.csv", 72)
        acf_with = _acf72(out / "acf_with_test.csv")
        acf_without = _acf72(out / "acf_without_test.csv")
        corr_wins += corr_with < corr_without
        acf_wins += acf_with < acf_without
    assert corr_wins >= 4, f"lag-72 residual correlation smaller on {corr_wins}/5 seeds"
    assert acf_wins >= 4, f"lag-72 ACF smaller on {acf_wins}/5 seeds"
    report("A5", f"lag-72 residual correlation smaller with covariates on "
                 f"{corr_wins}/5 seeds, lag-72 ACF smaller on {acf_wins}/5")


def test_a6_embedding_contracts():
    mode_bank = {
        1: [np.exp(1j * 2 * np.pi / 72)],
        2: [np.exp(1j * 2 * np.pi / 72), 0.97 * np.exp(1j * 2 * np.pi / 504)],
        4: [
            np.exp(1j * 2 * np.pi / 72),
            0.97 * np.exp(1j * 2 * np.pi / 504),
            1.01 * np.exp(1j * 2 * np.pi / 12),
            np.exp(1j * 2 * np.pi / 36),
        ],
    }
    span = 4032
    for r, lams in mode_bank.items():
        emb = build_embedding(np.array(lams), span)
        assert np.allclose(emb.table[0], [1.0] * r + [0.0] * r, atol=1e-12)
        norms = emb.table[:, :r] ** 2 + emb.table[:, r:] ** 2
        assert np.max(np.abs(norms - 1.0)) <= 1e-10
        z = emb.table[:, :r] + 1j * emb.table[:, r:]
        unit = np.array(lams) / np.abs(lams)
        rel = np.abs(z[1:] - z[:-1] * unit[None, :]) / np.maximum(np.abs(z[1:]), 1e-12)
        assert np.max(rel) <= 1e-8

        rng = np.random.default_rng(r)
        values = rng.normal(size=(2, 64))
        emb_small = build_embedding(np.array(lams), 80)
        fw = make_windows(values, {"train": (0, 64)}, p=12, q=12, embedding=emb_small)["train"]
        assert fw.layout == (12, 1 + 2 * r, 2 * r)
        assert window_rows.history(fw).shape == (len(fw), 12)
        assert fw.covariates.shape == (64, 2 * r)
    report("A6", "row-0 identity, unit-circle norms (1e-10), recurrence (1e-8), "
                 "and m+2r channels hold for r in {1,2,4} over 4032 steps")


def test_a7_metric_exclusion_rule():
    perfect = evaluate(np.array([[1.0, 2.0]]) - np.array([[1.0, 2.0]]))
    assert perfect.overall_mae == 0.0 and perfect.overall_rmse == 0.0
    off = evaluate(np.array([[1.0, 1.0]]) - np.array([[0.0, 0.0]]))
    assert off.overall_mae == 1.0 and off.overall_rmse == 1.0
    masked = evaluate(np.array([[0.0, 0.0]]) - np.array([[0.0, 4.0]]),
                      mask=np.array([[True, False]]))
    assert masked.overall_mae == 0.0 and masked.overall_rmse == 0.0
    assert masked.excluded_count == 1
    report("A7", "hand-computed MAE/RMSE with masked-entry exclusion reproduced exactly")


def test_a8_pipeline_determinism(benchmark_runs, tmp_path):
    runs, _ = benchmark_runs
    first = runs[SEEDS[0]]
    cfg = config_from_manifest(first / "manifest.json")
    cfg.output_dir = str(tmp_path / "replay")
    second = run_pipeline(cfg)
    identical = []
    for name in ("metrics_with.json", "metrics_without.json", "embedding.csv"):
        same = (first / name).read_bytes() == (second / name).read_bytes()
        identical.append(same)
        assert same, f"{name} differs between runs from the same manifest"
    report("A8", "metrics and embedding files byte-identical across manifest replays")
