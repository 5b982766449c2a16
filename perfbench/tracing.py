"""Outside-in tracing of dmdembed's public functions.

The package itself is not instrumented. ``Tracer.install`` replaces each
traced function with a wrapper in every ``dmdembed`` module namespace
that binds it, which covers names bound by ``from ... import`` as well
as module attributes, plus the method ``TimeEmbedding.rows``.
``Tracer.restore`` puts the originals back.

A wrapper does nothing while the tracer is off. In "spans" mode it
keeps one span per call in memory (name, start, end, parent) and feeds
the return value to a counter hook. In "memory" mode only the calls
named in ``MEMORY_TARGETS`` run under ``tracemalloc`` and report their
peak; the allocation hooks of tracemalloc would distort every span
timed in the same pass, so the two modes never share a round.

Under tracemalloc the sweep's ADMM loop, which allocates many small
arrays, runs about three times slower. Its peak is reached earlier,
while the fit geometry and the quadratic form are built; the iterations
hold only rank-sized vectors. So the sweep's measurement ends when its
``amplitude_quadratic`` call returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

MB = 1024.0 * 1024.0

# (module, attribute) of every traced callable, named "<module>.<attribute>".
TARGETS = (
    ("pipeline", "run_pipeline"),
    ("pipeline", "load_csv"),
    ("hankel", "impute_linear"),
    ("hankel", "build_hankel"),
    ("hankel", "gram"),
    ("hankel", "apply_tall"),
    ("hankel", "apply_tall_transpose"),
    ("linalg", "gram_spectrum"),
    ("dmd", "fit_dmd"),
    ("dmd", "fit_geometry"),
    ("dmd", "amplitude_quadratic"),
    ("spdmd", "gamma_sweep"),
    ("embedding", "build_embedding"),
    ("embedding", "export_embedding"),
    ("embedding", "attach_covariates"),
    ("embedding", "TimeEmbedding.rows"),
    ("forecaster", "make_windows"),
    ("forecaster", "fit_ridge"),
    ("forecaster", "predict"),
    ("forecaster", "evaluate"),
    ("diagnostics", "residual_correlation"),
    ("diagnostics", "acf"),
    ("svgplot", "heatmap"),
    ("svgplot", "line_chart"),
)

MEMORY_TARGETS = ("dmd.fit_dmd", "spdmd.gamma_sweep")
SWEEP_MEMORY_END = "dmd.amplitude_quadratic"

# Per-layer time metrics: the self time of the named spans, summed.
SELF_TIME_METRICS = {
    "spdmd.gamma_sweep_s": ("spdmd.gamma_sweep",),
    "hankel.gram_s": ("hankel.gram",),
    "hankel.apply_tall_s": ("hankel.apply_tall",),
    "hankel.apply_tall_transpose_s": ("hankel.apply_tall_transpose",),
    "linalg.gram_spectrum_s": ("linalg.gram_spectrum",),
    "dmd.fit_dmd_s": ("dmd.fit_dmd",),
    "forecaster.make_windows_s": ("forecaster.make_windows",),
    "embedding.attach_covariates_s": ("embedding.attach_covariates",),
    "forecaster.fit_ridge_s": ("forecaster.fit_ridge",),
    "forecaster.predict_s": ("forecaster.predict",),
    "forecaster.evaluate_s": ("forecaster.evaluate",),
    "embedding.build_embedding_s": ("embedding.build_embedding",),
    "embedding.export_embedding_s": ("embedding.export_embedding",),
    "pipeline.load_csv_s": ("pipeline.load_csv",),
    "hankel.impute_linear_s": ("hankel.impute_linear",),
    "diagnostics.residual_correlation_s": ("diagnostics.residual_correlation",),
    "diagnostics.acf_s": ("diagnostics.acf",),
    "svgplot.render_s": ("svgplot.heatmap", "svgplot.line_chart"),
}

# Per-layer call counts: the number of spans with the given name.
CALL_COUNT_METRICS = {
    "hankel.gram_calls": "hankel.gram",
    "dmd.fit_geometry_calls": "dmd.fit_geometry",
    "embedding.rows_calls": "embedding.TimeEmbedding.rows",
    "diagnostics.acf_calls": "diagnostics.acf",
}


def _count_sweep(counts, args, result):
    solutions = result.path.solutions
    counts["spdmd.admm_iterations"] += sum(s.iterations for s in solutions)
    counts["spdmd.unconverged_points"] += sum(1 for s in solutions if not s.converged)
    counts["spdmd.target_met"] = int(result.target_met)


def _count_spectrum(counts, args, result):
    order = args[0].shape[0]
    counts["linalg.gram_spectrum_order"] = max(counts["linalg.gram_spectrum_order"], order)


def _count_windows(counts, args, result):
    counts["forecaster.windows"] += sum(len(fw) for fw in result.values())


def _count_svg(counts, args, result):
    counts["svgplot.svg_bytes"] += len(result.encode("utf-8"))


def _set_rank(counts, args, result):
    counts["dmd.rank"] = result.rank


def _set_tau(counts, args, result):
    counts["pipeline.tau"] = result.tau


# Counters read from return values (or arguments) of traced calls.
COUNTER_METRICS = (
    "spdmd.admm_iterations", "spdmd.unconverged_points", "spdmd.target_met",
    "linalg.gram_spectrum_order", "forecaster.windows", "svgplot.svg_bytes",
    "dmd.rank", "pipeline.tau",
)
RETURN_HOOKS = {
    "spdmd.gamma_sweep": _count_sweep,
    "linalg.gram_spectrum": _count_spectrum,
    "forecaster.make_windows": _count_windows,
    "svgplot.heatmap": _count_svg,
    "svgplot.line_chart": _count_svg,
    "dmd.fit_dmd": _set_rank,
    "hankel.build_hankel": _set_tau,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int


class Tracer:
    """Holds the spans, counters and memory peaks of one traced round."""

    def __init__(self):
        self.mode = "off"
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks_mb: dict[str, float] = {}
        self._stack: list[int] = []
        self._measuring: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def reset(self, mode: str) -> None:
        if mode not in ("off", "spans", "memory"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.spans = []
        self.counts = defaultdict(int)
        self.peaks_mb = {}
        self._stack = []
        self._measuring = None

    def _wrap(self, name: str, fn):
        hook = RETURN_HOOKS.get(name)
        measure_memory = name in MEMORY_TARGETS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.mode == "spans":
                parent = self._stack[-1] if self._stack else -1
                span = Span(name, time.perf_counter(), 0.0, parent)
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if hook is not None:
                    hook(self.counts, args, result)
                return result
            if self.mode == "memory" and measure_memory:
                self._measuring = name
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._end_measurement()
            result = fn(*args, **kwargs)
            if self._measuring == "spdmd.gamma_sweep" and name == SWEEP_MEMORY_END:
                self._end_measurement()
            return result

        return wrapper

    def _end_measurement(self) -> None:
        if self._measuring is None:
            return
        peak = tracemalloc.get_traced_memory()[1] / MB
        tracemalloc.stop()
        self.peaks_mb[self._measuring] = max(self.peaks_mb.get(self._measuring, 0.0), peak)
        self._measuring = None

    def install(self) -> None:
        """Wrap every target wherever a dmdembed module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "dmdembed"]
        for module_name, attr in TARGETS:
            module = sys.modules[f"dmdembed.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, bound, original))
                        setattr(mod, bound, wrapper)

    def restore(self) -> None:
        for owner, bound, original in reversed(self._patched):
            setattr(owner, bound, original)
        self._patched = []

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            totals[s.name] += t
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the last "spans" round (times in s)."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for s in self.spans:
            calls[s.name] += 1
        out = {m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIME_METRICS.items()}
        out.update({m: calls.get(n, 0) for m, n in CALL_COUNT_METRICS.items()})
        out.update({m: self.counts.get(m, 0) for m in COUNTER_METRICS})
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")
