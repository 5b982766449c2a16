#!/usr/bin/env python3
"""dmdembed benchmark: whole pipeline runs on seeded workloads, with checks.

    python3 perfbench/run.py --workload many_modes --seed 1 --seconds 20 --trace 0

Each round runs ``dmdembed.pipeline.run_pipeline`` (the library form of
``dmdembed forecast``) on the workload's inputs in a fresh output
directory, then checks the run's artifacts against the benchmark's own
computations (``checks.py``). Rounds repeat until ``--seconds`` have
passed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced rounds.
``--trace 1`` alternates untraced and traced rounds, then runs one
memory round, and reports the per-layer metrics (``tracing.py``).

BLAS runs on one thread, so the process uses one core and its CPU time
equals its wall time.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # per probing; probed twice per run
PROBE_TIMEOUT_S = 60

# How far the shorter planted period may drift under the default-tau
# fault (about 2.9% on wide_panel) before the failure is no longer that fault.
DEFAULT_TAU_DRIFT = 0.05


def default_tau_fault(run_dir: Path, inputs) -> bool:
    """Whether a lost planted period has the default-tau fault's signature.

    The default tau is ceil(2T/N) over the training span: 59 at N=48,
    far below the 504-step period. The longest period then comes back as
    one real mode, with no oscillating mode near it, and the shorter
    period a few percent off. Any other loss of a planted period is a
    real failure.
    """
    resolved = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["resolved"]
    n_nodes = inputs.values.shape[0]
    b_train = resolved["boundaries"][0]
    tau = resolved["tau"]
    if tau != -(-2 * b_train // n_nodes) or tau >= max(inputs.periods):
        return False
    found = [2.0 * math.pi / abs(math.atan2(im, re)) for re, im in resolved["eigenvalues"] if im]
    has_real_mode = any(not im for _, im in resolved["eigenvalues"])

    def near(period: float) -> bool:
        return any(abs(f - period) / period <= DEFAULT_TAU_DRIFT for f in found)

    longest = max(inputs.periods)
    return has_real_mode and not near(longest) and all(near(p) for p in inputs.periods if p != longest)


# Workloads that show a fault of the program on every run, with the
# check it fails and the test that the failure is that fault.
KNOWN_FAULTS = {"wide_panel": ("planted_periods", default_tau_fault)}


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_package():
    """Import dmdembed from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dmdembed" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dmdembed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dmdembed

    if SRC not in Path(dmdembed.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported dmdembed from {dmdembed.__file__}, not {SRC}")
    return dmdembed


@dataclass
class Round:
    mode: str
    run_s: float
    failures: list = field(default_factory=list)
    reading: object = None
    layers: dict = field(default_factory=dict)
    peaks_mb: dict = field(default_factory=dict)
    peak_rss_mb: float = float("nan")
    known_fault: bool = False  # every failure is the workload's known fault


def run_round(workload, tracer, mode: str, index: int) -> Round:
    from checks import Failure, check_run, read_metrics
    from dmdembed.pipeline import run_pipeline

    run_dir = OUT / f"{workload.name}-seed{workload.seed}-{os.getpid()}-r{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = workload.config(run_dir)
    gc.collect()
    tracer.reset(mode)
    start = time.perf_counter()
    try:
        run_pipeline(cfg)
    except Exception:
        tracer.reset("off")
        shutil.rmtree(run_dir, ignore_errors=True)
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return Round(mode, time.perf_counter() - start, [Failure("pipeline_error", detail)])
    result = Round(mode, time.perf_counter() - start, peaks_mb=dict(tracer.peaks_mb))
    # Read before the checks run: they allocate more than some pipelines do.
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "spans":
        result.layers = tracer.layer_metrics()
        # manifest.json is left out: the digits of its stage timings vary.
        result.layers["pipeline.artifact_bytes"] = sum(
            f.stat().st_size for f in run_dir.iterdir() if f.name != "manifest.json")
        tracer.write_spans(OUT / f"{workload.name}-seed{workload.seed}-spans.jsonl")
    tracer.reset("off")
    try:
        result.failures = check_run(run_dir, workload.inputs)
        result.reading = read_metrics(run_dir)
        if workload.name in KNOWN_FAULTS and result.failures:
            check, matches = KNOWN_FAULTS[workload.name]
            result.known_fault = (all(f.check == check for f in result.failures)
                                  and matches(run_dir, workload.inputs))
    except (OSError, ValueError, KeyError) as exc:
        result.failures.append(Failure("unreadable_output", repr(exc)))
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = OUT / f"probe-{os.getpid()}-{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
               workload_name, "--seed", str(seed), "--inputs-dir", str(probe_dir)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=PROBE_TIMEOUT_S)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def setup_probe(args) -> int:
    start = time.perf_counter()
    import_package()
    import workloads

    workloads.build(args.workload, args.seed, Path(args.inputs_dir))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def write_inputs(args) -> int:
    """Write the workload's input signal as a CSV file and print how to run it."""
    import_package()
    import workloads

    out_dir = Path(args.inputs_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, out_dir)
    path = wl.csv_path
    print(f"wrote {path}")
    print(f"dmdembed forecast --input {path} --rank {wl.recipe.rank} --target-modes 4 "
          f"--out runs/{args.workload}-seed{args.seed}")
    return 0


def median(values):
    return statistics.median(values) if values else float("nan")


def benchmark(args) -> int:
    import_package()
    import workloads
    from checks import Failure
    from tracing import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    # Set-up is probed before and after the rounds: a ~0.25 s probe swings
    # by up to 50% with the host's load, which shifts within a run.
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs_dir = OUT / f"inputs-{os.getpid()}"
    tracer = Tracer()
    try:
        workload = workloads.build(args.workload, args.seed, inputs_dir)
        if args.trace:
            tracer.install()
        rounds = run_rounds(workload, tracer, args.seconds, bool(args.trace))
    finally:
        tracer.restore()
        shutil.rmtree(inputs_dir, ignore_errors=True)
    if not args.trace:
        setup_times += measure_setup(args.workload, args.seed)

    first = next((r.reading for r in rounds if r.reading is not None), None)
    for r in rounds:
        if r.reading is not None and r.reading != first:
            r.failures.append(Failure("replay", f"{r.reading} differs from {first}"))
            r.known_fault = False
    failed = sum(1 for r in rounds if r.failures)
    correct = all(r.known_fault or not r.failures for r in rounds)

    if args.trace:
        metrics = trace_metrics(rounds)
    else:
        metrics = {
            "run_s": median([r.run_s for r in rounds]),
            "setup_s": median(setup_times),
            # The first round's: later rounds grow the heap by about 25% more,
            # so the high-water mark would follow the round count.
            "peak_rss_mb": rounds[0].peak_rss_mb,
            "rmse12_with": first.rmse12_with if first else float("nan"),
            "rmse12_without": first.rmse12_without if first else float("nan"),
            "resid_corr72_with": first.resid_corr72_with if first else float("nan"),
        }
    spec = load_spec()["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in spec}:
        raise SystemExit(f"benchmark: metrics {sorted(metrics)} do not match BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec}

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)} "
          f"({', '.join(f'{r.mode} {r.run_s:.2f}s' for r in rounds)})")
    for i, r in enumerate(rounds):
        for f in r.failures:
            tag = "known fault" if r.known_fault else "FAILED"
            print(f"  round {i} {tag}: {f.check}: {f.detail}")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_rounds(workload, tracer, seconds: float, trace: bool) -> list[Round]:
    """Untraced rounds, or untraced/traced pairs plus one memory round."""
    modes = ("off", "spans") if trace else ("off",)
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for mode in modes:
            rounds.append(run_round(workload, tracer, mode, len(rounds)))
    if trace:
        rounds.append(run_round(workload, tracer, "memory", len(rounds)))
    return rounds


def trace_metrics(rounds: list[Round]) -> dict:
    traced = [r for r in rounds if r.mode == "spans" and r.layers]
    plain = [r for r in rounds if r.mode == "off"]
    names = list(traced[0].layers) if traced else []
    out = {n: median([r.layers[n] for r in traced]) for n in names}
    peaks = {}
    for r in rounds:
        peaks.update(r.peaks_mb)
    out["dmd.fit_dmd_peak_mb"] = peaks.get("dmd.fit_dmd", float("nan"))
    out["spdmd.gamma_sweep_peak_mb"] = peaks.get("spdmd.gamma_sweep", float("nan"))
    out["trace.overhead_s"] = median([r.run_s for r in traced]) - median([r.run_s for r in plain])
    return out


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", action="store_true",
                        help="only write the input signal as CSV into --inputs-dir")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs-dir", default=str(OUT / "inputs"))
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.write_inputs:
        return write_inputs(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
