"""The output checks must reject tampered run artifacts.

    python3 -m pytest perfbench/test_checks.py

One small A1 run (8 x 2016, cep:0.9) is checked as produced, then with
a metrics file and a selected eigenvalue altered.
"""

import cmath
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    from dmdembed.pipeline import PipelineConfig, run_pipeline

    root = tmp_path_factory.mktemp("a1")
    values = workloads.signal(8, 2016, seed=3)
    mask = np.ones(values.shape, dtype=bool)
    csv_path = root / "a1.csv"
    workloads.write_csv(values, mask, csv_path)
    run_dir = root / "run"
    run_pipeline(PipelineConfig(input_csv=str(csv_path), output_dir=str(run_dir)))
    return run_dir, checks.Inputs(values, mask, workloads.PERIODS)


def tampered_copy(clean_run, tmp_path) -> Path:
    copy = tmp_path / "run"
    shutil.copytree(clean_run[0], copy)
    return copy


def test_untouched_run_passes(clean_run):
    assert checks.check_run(*clean_run) == []


def test_tampered_metrics_file_is_rejected(clean_run, tmp_path):
    run_dir = tampered_copy(clean_run, tmp_path)
    path = run_dir / "metrics_with.json"
    payload = json.loads(path.read_text())
    payload["horizons"]["12"]["rmse"] *= 1.000001
    path.write_text(json.dumps(payload))
    failed = {f.check for f in checks.check_run(run_dir, clean_run[1])}
    assert failed == {"rmse12_with"}


def test_shifted_eigenvalue_is_rejected(clean_run, tmp_path):
    run_dir = tampered_copy(clean_run, tmp_path)
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    eigs = manifest["resolved"]["eigenvalues"]
    # Turn the first conjugate pair 1% faster: its period shrinks by 1%.
    first = complex(*eigs[0])
    shifted = cmath.rect(abs(first), cmath.phase(first) * 1.01)
    for pair in eigs:
        if abs(complex(*pair) - first) < 1e-12:
            pair[:] = [shifted.real, shifted.imag]
        elif abs(complex(*pair) - first.conjugate()) < 1e-12:
            pair[:] = [shifted.real, -shifted.imag]
    path.write_text(json.dumps(manifest))
    failed = {f.check for f in checks.check_run(run_dir, clean_run[1])}
    assert failed == {"planted_periods", "embedding_eigenvalues"}


def write_manifest(run_dir: Path, tau: int, eigenvalues) -> Path:
    run_dir.mkdir()
    resolved = {"tau": tau, "boundaries": [1411, 1613], "eigenvalues": eigenvalues}
    (run_dir / "manifest.json").write_text(json.dumps({"resolved": resolved}))
    return run_dir


def pair(period: float, radius: float = 0.999):
    z = cmath.rect(radius, 2.0 * cmath.pi / period)
    return [[z.real, z.imag], [z.real, -z.imag]]


@pytest.mark.parametrize("tau, eigenvalues, expected", [
    # wide_panel as it comes out: tau ceil(2 * 1411 / 48), daily at 74.1, weekly real.
    (59, pair(74.1) + [[0.999, 0.0]], True),
    (60, pair(74.1) + [[0.999, 0.0]], False),  # not the default tau
    (59, pair(80.0) + [[0.999, 0.0]], False),  # daily period lost as well
    (59, pair(74.1) + pair(504.0), False),  # weekly recovered: some other fault
    (59, pair(74.1), False),  # no real mode in place of the weekly one
])
def test_only_the_default_tau_fault_is_known(tmp_path, tau, eigenvalues, expected):
    import run

    inputs = checks.Inputs(np.zeros((48, 2016)), np.ones((48, 2016), dtype=bool), workloads.PERIODS)
    run_dir = write_manifest(tmp_path / "run", tau, eigenvalues)
    assert run.default_tau_fault(run_dir, inputs) is expected
