"""The benchmark's tracer wraps package functions by name, so deleting or
renaming a traced function must fail here, not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import dmdembed  # noqa: F401  (the tracer patches the loaded dmdembed modules)
from dmdembed import embedding, pipeline

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
