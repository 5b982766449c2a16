"""The benchmark's tracer wraps package functions by name, so deleting or
renaming a traced function must fail here, not only in the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import dmdembed  # noqa: F401  (the tracer patches the loaded dmdembed modules)
from dmdembed import embedding, pipeline
from dmdembed.synthetic import SyntheticSpec, generate_synthetic

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target(monkeypatch):
    run_pipeline, rows = pipeline.run_pipeline, embedding.TimeEmbedding.__dict__["rows"]
    tracer = load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        assert pipeline.run_pipeline is not run_pipeline
        assert embedding.TimeEmbedding.__dict__["rows"] is not rows
    finally:
        tracer.restore()
    assert pipeline.run_pipeline is run_pipeline
    assert embedding.TimeEmbedding.__dict__["rows"] is rows


def test_traced_round_reads_every_hook(monkeypatch, tmp_path):
    # The hooks read the traced calls' results (build_hankel's .tau,
    # fit_dmd's .rank, make_windows' windows): one spans round of a 3 x 480
    # CSV forecast, checked against the run's own manifest.
    data = tmp_path / "smoke.csv"
    pipeline.write_signal_csv(
        generate_synthetic(SyntheticSpec(nodes=3, steps=480, noise=0.1, seed=1)), data)
    cfg = pipeline.PipelineConfig(input_csv=str(data), output_dir=str(tmp_path / "run"))
    tracer = load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        tracer.reset("spans")
        out = pipeline.run_pipeline(cfg)
        layers = tracer.layer_metrics()
    finally:
        tracer.restore()
    resolved = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["resolved"]
    assert layers["pipeline.tau"] == resolved["tau"]
    assert layers["dmd.rank"] == resolved["rank"]
    assert layers["hankel.gram_calls"] == resolved["svd_products"]
    # one window per node per anchor: P steps back and Q ahead inside the
    # training span and inside the test span
    (b_train, b_val), n = resolved["boundaries"], resolved["n_nodes"]
    anchors = (b_train - cfg.p - cfg.q + 1) + (resolved["n_steps"] - b_val - cfg.p - cfg.q + 1)
    assert layers["forecaster.windows"] == n * anchors
    assert layers["dmd.fit_geometry_calls"] == 1
