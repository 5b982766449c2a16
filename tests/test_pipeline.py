import argparse
import csv
import dataclasses
import fcntl
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from signal import SIGKILL

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmdembed import pipeline
from dmdembed.cli import build_parser, main as cli_main
from dmdembed.dmd import mode_frequency, vandermonde
from dmdembed.errors import ConfigError, DataError
from dmdembed.forecaster import (
    evaluate,
    fit_ridge,
    make_windows,
    predict,
    split_boundaries,
    zscore_fit,
)
from dmdembed.hankel import SignalMatrix, impute_linear
from dmdembed.linalg import KRYLOV_BLOCK, RITZ_TOL
from dmdembed.pipeline import (
    STAGING_DIR,
    PipelineConfig,
    _test_forecast,
    config_from_manifest,
    convert_options,
    diagnose_residuals,
    load_csv,
    parse_config_file,
    parse_rank_policy,
    run_pipeline,
    write_signal_csv,
)
from dmdembed.synthetic import SyntheticSpec, generate_synthetic


def small_spec(seed=0, noise=0.05):
    # periods 8 and 24 over 360 steps: quick but structurally like the
    # daily/weekly benchmark
    return SyntheticSpec(nodes=4, steps=360, periods=(8.0, 24.0), noise=noise, seed=seed)


def normalized_series(signal, ratios):
    """A run's split and normalization: the split boundaries, the z-score
    fit on the training columns, and the whole series normalized by it."""
    b_train, b_val = split_boundaries(signal.n_steps, ratios)
    zscore = zscore_fit(signal.values[:, :b_train], signal.node_ids)
    return (b_train, b_val), zscore, zscore.transform(signal.values)


def small_config(tmp_path, seed=0, **overrides):
    cfg = PipelineConfig(
        synthetic=small_spec(seed=seed),
        output_dir=str(tmp_path / f"run{seed}"),
        seed=seed,
        lags=(0, 8, 24),
        acf_max_lag=30,
        target_modes=2,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------- load_csv


def test_load_csv_blank_cell_masks(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("step,a,b\n0,1.0,2.0\n1,,3.0\n2,4.0,5.0\n")
    sig = load_csv(path)
    assert sig.values.shape == (2, 3)
    assert sig.mask.sum() == 5
    assert not sig.mask[0, 1]
    assert sig.node_ids == ["a", "b"]


def test_load_csv_wide_station_file(tmp_path):
    n = 159
    header = "step," + ",".join(f"s{i}" for i in range(n))
    rows = [f"{t}," + ",".join("1.5" for _ in range(n)) for t in range(4)]
    path = tmp_path / "metro.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    sig = load_csv(path)
    assert sig.n_nodes == n
    assert sig.n_steps == 4


def test_load_csv_errors(tmp_path):
    # too few rows is found before numpy reads any: no warning of empty input
    short = tmp_path / "h.csv"
    for text, count in (("step,a\n", 0), ("step,a\n0,1\n", 1), ("step,a\n0,1,2\n", 1)):
        short.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as got:
                load_csv(short)
        assert str(got.value) == f"{short}: need at least 2 time steps, got {count}"

    ragged = tmp_path / "r.csv"
    ragged.write_text("step,a,b\n0,1,2\n1,3\n")
    with pytest.raises(DataError):
        load_csv(ragged)

    words = tmp_path / "w.csv"
    words.write_text("step,a\n0,1\n1,apple\n")
    with pytest.raises(DataError):
        load_csv(words)

    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv")


def test_signal_csv_round_trip(tmp_path):
    sig = generate_synthetic(small_spec())
    sig.mask[1, 5] = False
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    back = load_csv(path)
    assert np.array_equal(back.mask, sig.mask)
    assert np.array_equal(back.values[back.mask], sig.values[sig.mask])


def test_a_node_id_with_a_comma_keeps_every_table_rectangular(tmp_path):
    # a header cell that needs quotes is quoted, so each CSV of a run
    # reads back with as many header cells as row cells
    sig = generate_synthetic(small_spec())
    sig.node_ids[0] = "station 7, north"
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    assert load_csv(path).node_ids == sig.node_ids
    out = run_pipeline(small_config(tmp_path, synthetic=None, input_csv=str(path)))
    tables = sorted(out.glob("*.csv"))
    assert out / "acf_with_test.csv" in tables
    for table in tables:
        with open(table, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and {len(row) for row in rows} == {len(header)}, table.name


def test_node_ids_in_svg_text_are_escaped(tmp_path):
    # each chart stays well-formed XML, and an empty id is labelled by
    # its column, in the ACF chart as in the ACF table
    sig = generate_synthetic(small_spec())
    sig.node_ids[:3] = ["north & south", "", "<b>"]
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    out = run_pipeline(small_config(tmp_path, synthetic=None, input_csv=str(path)))
    charts = sorted(out.glob("*.svg"))
    assert out / "acf_with_test.svg" in charts
    for chart in charts:
        ET.parse(chart)
    labels = ["north & south", "series_1", "<b>", sig.node_ids[3]]
    for label in ("with", "without"):
        root = ET.parse(out / f"acf_{label}_test.svg").getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-len(labels):] == labels
        with open(out / f"acf_{label}_test.csv", encoding="utf-8", newline="") as fh:
            assert next(csv.reader(fh)) == ["lag", *labels]


def test_load_csv_names_the_non_finite_cell(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("step,a,b\n0,1.0,2.0\n1,3.0, nan\n2,inf,5.0\n")
    with pytest.raises(DataError) as got:
        load_csv(path)
    assert str(got.value) == f"{path}: row 3, column 'b': non-finite cell 'nan'"
    out = tmp_path / "run"
    assert cli_main(["forecast", "--input", str(path), "--out", str(out)]) == 3


def test_load_csv_memory_is_bounded(tmp_path):
    # no cell becomes a Python object: 16 x 20,000 values with 5% blank
    # cells peak at about twice the arrays returned, where a str per cell
    # took 14 times
    rng = np.random.default_rng(0)
    shape = (16, 20_000)
    signal = SignalMatrix(values=rng.normal(size=shape), mask=rng.random(shape) >= 0.05,
                          node_ids=[f"n{i}" for i in range(shape[0])])
    path = tmp_path / "long.csv"
    write_signal_csv(signal, path)
    tracemalloc.start()
    try:
        back = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.mask, signal.mask)
    assert peak <= 4 * (back.values.nbytes + back.mask.nbytes)


def test_write_signal_csv_memory_is_bounded(tmp_path):
    # WRITE_CHUNK_ROWS steps are formatted at a time: 8 x 20,000 values
    # peak at 6.1 MB, where formatting the whole signal at once took 20.6
    rng = np.random.default_rng(0)
    shape = (8, 20_000)
    signal = SignalMatrix(values=rng.normal(size=shape), mask=rng.random(shape) >= 0.05,
                          node_ids=[f"n{i}" for i in range(shape[0])])
    tracemalloc.start()
    try:
        write_signal_csv(signal, tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    back = load_csv(tmp_path / "long.csv")
    assert np.array_equal(back.mask, signal.mask)
    assert back.values[signal.mask].tobytes() == signal.values[signal.mask].tobytes()


def load_csv_per_cell(path):
    """The per-cell parse behind load_csv: (values, mask, node_ids), or
    the DataError that load_csv raises."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    node_ids = [h.strip() for h in header[1:]]
    values = np.zeros((len(node_ids), len(rows) - 1))
    mask = np.zeros(values.shape, dtype=bool)
    non_finite = None
    for t, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise DataError(f"{path}: row {t + 2} has {len(row)} cells, expected {len(header)}")
        for i, cell in enumerate(row[1:]):
            cell = cell.strip()
            if not cell:
                continue
            where = f"{path}: row {t + 2}, column {header[i + 1]!r}"
            try:
                values[i, t] = float(cell)
            except ValueError as exc:
                raise DataError(f"{where}: non-numeric cell {cell!r}") from exc
            if non_finite is None and not np.isfinite(values[i, t]):
                non_finite = f"{where}: non-finite cell {cell!r}"
            mask[i, t] = True
    if non_finite is not None:
        raise DataError(non_finite)
    return values, mask, node_ids


number_text = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([repr(v), "%.17g" % v, "%g" % v, "%.3e" % v])
)
good_cell = st.one_of(
    number_text,
    st.sampled_from(["", "   ", '""', "-0", "1e3", ".5", "7.", "1_000"]),
    number_text.map(lambda text: f"  {text} "),
    number_text.map(lambda text: f'"{text}"'),
    number_text.map(lambda text: f'" {text}"'),
)
bad_cell = st.sampled_from(
    ["nan", "inf", "-inf", " NaN ", '"Infinity"', "apple", '"1,5"', "1.2.3", "--1"]
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_csv_matches_per_cell_reference(tmp_path_factory, data):
    n_nodes = data.draw(st.integers(1, 5))
    n_steps = data.draw(st.integers(2, 8))
    names = st.sampled_from(["a", " b ", "node 3", '"q,r"'])
    header = ["step"] + data.draw(st.lists(names, min_size=n_nodes, max_size=n_nodes))
    grid = data.draw(st.lists(st.lists(good_cell, min_size=n_nodes, max_size=n_nodes),
                              min_size=n_steps, max_size=n_steps))
    for _ in range(data.draw(st.integers(0, 2))):
        t, i = data.draw(st.integers(0, n_steps - 1)), data.draw(st.integers(0, n_nodes - 1))
        grid[t][i] = data.draw(bad_cell)
    # the step label is never parsed: a count or an ISO timestamp
    iso = data.draw(st.booleans())
    rows = [[f"2024-03-{1 + t // 24:02d}T{t % 24:02d}:15:00" if iso else str(t)] + row
            for t, row in enumerate(grid)]
    shape_fault = data.draw(st.sampled_from(
        ["none", "none", "none", "one row", "first row long", "every row long", "blank line"]))
    t = data.draw(st.integers(0, n_steps - 1))
    if shape_fault == "one row":
        rows[t] = rows[t][:-1] if data.draw(st.booleans()) else rows[t] + ["1"]
    elif shape_fault == "first row long":
        rows[0] = rows[0] + ["1"]
    elif shape_fault == "every row long":
        rows = [row + ["1"] for row in rows]
    elif shape_fault == "blank line":
        rows.insert(t, [])
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(row) for row in [header] + rows)
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    # the last row may end the file without a line break
    path.write_bytes((text + end * data.draw(st.booleans())).encode("utf-8"))
    try:
        values, mask, node_ids = load_csv_per_cell(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_csv(path)
        assert str(got.value) == str(exc)
        return
    sig = load_csv(path)
    assert sig.values.shape == values.shape and sig.values.tobytes() == values.tobytes()
    assert np.array_equal(sig.mask, mask)
    assert sig.node_ids == node_ids


def write_signal_csv_per_cell(signal, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step," + ",".join(signal.node_ids) + "\n")
        for t in range(signal.n_steps):
            cells = [str(t)]
            for i in range(signal.n_nodes):
                cells.append(f"{signal.values[i, t]:.17g}" if signal.mask[i, t] else "")
            fh.write(",".join(cells) + "\n")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_write_signal_csv_matches_per_cell_reference(tmp_path_factory, data):
    shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(2, 10)))
    values = data.draw(arrays(float, shape, elements=st.floats()))
    # masked cells may hold anything; observed ones must be finite
    mask = data.draw(arrays(bool, shape)) & np.isfinite(values)
    signal = SignalMatrix(values=values, mask=mask,
                          node_ids=[f"n{i}" for i in range(shape[0])])
    folder = tmp_path_factory.mktemp("signal")
    write_signal_csv(signal, folder / "fast.csv")
    write_signal_csv_per_cell(signal, folder / "reference.csv")
    assert (folder / "fast.csv").read_bytes() == (folder / "reference.csv").read_bytes()
    back = load_csv(folder / "fast.csv")
    assert np.array_equal(back.mask, mask)
    assert back.values[mask].tobytes() == values[mask].tobytes()


# ------------------------------------------------------------ config layer


def test_parse_rank_policy():
    from dmdembed.dmd import CepThreshold, FixedRank as FR

    assert parse_rank_policy("fixed:6") == FR(6)
    assert parse_rank_policy("cep:0.8") == CepThreshold(0.8)
    assert parse_rank_policy("cep:") == CepThreshold(0.90)
    with pytest.raises(ConfigError):
        parse_rank_policy("magic")
    with pytest.raises(ConfigError):
        parse_rank_policy("fixed:two")
    for out_of_range in ("fixed:0", "fixed:-2", "cep:0", "cep:1.5"):
        with pytest.raises(ConfigError):
            parse_rank_policy(out_of_range)


def test_parse_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment\n"
        "rank = fixed:4\n"
        "split = 0.6,0.2,0.2\n"
        "target_modes: 3\n"
        "seed = 7\n"
    )
    mapping = parse_config_file(cfgfile)
    cfg = PipelineConfig.from_mapping(mapping)
    assert cfg.rank == "fixed:4"
    assert cfg.split == (0.6, 0.2, 0.2)
    assert cfg.target_modes == 3
    assert cfg.seed == 7


def test_from_mapping_rejects_unknown_key():
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"frequency": "high"})
    with pytest.raises(ConfigError, match="synth_colour"):
        PipelineConfig.from_mapping({"synth_colour": "red"})


def test_from_mapping_value_rules():
    cfg = PipelineConfig.from_mapping(
        {"lags": "0; 72,504.0,", "tau": "12", "seed": 7, "split": [0.6, 0.2, 0.2], "l2": "0.5"}
    )
    assert cfg.lags == (0, 72, 504) and all(type(lag) is int for lag in cfg.lags)
    assert (cfg.tau, cfg.seed, cfg.split, cfg.l2) == (12, 7, (0.6, 0.2, 0.2), 0.5)
    assert PipelineConfig.from_mapping({"tau": None}).tau is None
    cfg = PipelineConfig.from_mapping(
        {"synth_nodes": "3", "synth_periods": "8,24", "seed": "5", "step_seconds": "60"}
    )
    spec = cfg.synthetic
    assert (spec.nodes, spec.steps, spec.seed, cfg.step_seconds) == (3, 2016, 5, 60.0)
    assert list(zip(spec.periods, spec.amplitudes)) == [(8.0, 1.0), (24.0, 1.0)]


@pytest.mark.parametrize("key, raw", [
    ("lags", "72.5"), ("lags", "0,x"), ("tau", "12.5"), ("seed", "seven"), ("p", 1.5), ("acf_max_lag", "inf"),
    ("split", "0.7,a,0.2"), ("synth_nodes", "many"), ("synth_steps", "100.5"),
    ("synth_periods", "72,x"), ("synth_noise", "loud"), ("synth_amplitudes", "1"),
])
def test_from_mapping_rejects_bad_values(key, raw):
    with pytest.raises(ConfigError, match=key.removeprefix("synth_")):
        PipelineConfig.from_mapping({key: raw})


def test_pipeline_flags_are_the_config_keys():
    # every config key has a flag, and every flag but --config and
    # --manifest is a config key
    keys = set(PipelineConfig(synthetic=small_spec()).to_mapping())
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("fit", "embed", "forecast"):
        dests = {a.dest for a in sub.choices[command]._actions}
        assert dests - {"help", "config", "manifest"} == keys, command


def test_mapping_round_trip():
    cfg = PipelineConfig(synthetic=small_spec(seed=3), seed=3, tau=5)
    back = PipelineConfig.from_mapping(cfg.to_mapping())
    assert back.synthetic == cfg.synthetic
    assert back.tau == 5


# ------------------------------------------------------------ run_pipeline


def test_run_pipeline_outputs_and_manifest(tmp_path):
    cfg = small_config(tmp_path)
    out = run_pipeline(cfg)
    expected = {
        "manifest.json",
        "decomposition.json",
        "modes.npy",
        "embedding.csv",
        "metrics_with.json",
        "metrics_without.json",
        "cep.csv",
        "cep.svg",
    }
    names = {p.name for p in out.iterdir()}
    assert expected <= names
    # the selection refits nothing, so it writes no path of fit losses
    assert "spdmd_path.csv" not in names
    manifest = json.loads((out / "manifest.json").read_text())
    # every config field is recorded explicitly (synthetic as synth_* keys)
    for field in dataclasses.fields(PipelineConfig):
        if field.name == "synthetic":
            assert "synth_periods" in manifest["config"]
        else:
            assert field.name in manifest["config"]
    for field in ("tau", "rank", "selected_pairs", "target_met", "eigenvalues",
                  "l2_with", "l2_without", "boundaries", "svd_products", "svd_basis",
                  "svd_residual", "acf_lag_reached"):
        assert field in manifest["resolved"]
    resolved = manifest["resolved"]
    # the penalty sweep's fields went with it
    for gone in ("gamma", "spdmd_rho", "spdmd_iterations", "spdmd_unconverged",
                 "spdmd_warnings"):
        assert gone not in resolved
    # 72 test steps leave 49 anchors, enough for every requested ACF lag
    assert resolved["acf_lag_reached"] == cfg.acf_max_lag
    # solver health of the fit's spectrum: the truncated window fits
    # T_train - tau columns; a basis spanning them all is exact
    span = resolved["boundaries"][0] - resolved["tau"]
    assert resolved["rank"] <= resolved["svd_basis"] <= span
    assert resolved["svd_basis"] <= resolved["svd_products"] * KRYLOV_BLOCK
    assert resolved["svd_residual"] <= RITZ_TOL or resolved["svd_basis"] == span
    cep = np.loadtxt(out / "cep.csv", delimiter=",", skiprows=1, ndmin=2)
    assert cep[-1].tolist() == [span, 1.0]
    assert np.all(np.diff(cep[:, 1]) >= 0.0) and cep.shape[0] >= resolved["rank"] + 1
    # the process's peak memory as each stage ends, which never falls
    stages = ["ingest", "impute", "split", "normalize", "hankel", "dmd", "spdmd", "embedding",
              "forecast", "diagnostics"]
    assert sorted(manifest["stage_seconds"]) == sorted(stages)
    assert manifest["stage_max_rss_mb"].keys() == manifest["stage_seconds"].keys()
    rss = [manifest["stage_max_rss_mb"][stage] for stage in stages]
    assert rss[0] > 0 and rss == sorted(rss)
    # each stage's rise in it, summed over its turns: together the run's
    # rise from the value it started at
    rises = manifest["stage_rss_rise_mb"]
    assert rises.keys() == manifest["stage_seconds"].keys() and min(rises.values()) >= 0.0
    assert sum(rises.values()) == rss[-1] - (rss[0] - rises["ingest"])
    assert not (out / ".lock").exists()

    # the modes are saved beside the decomposition, not in its JSON
    text = (out / "decomposition.json").read_text()
    assert not {"modes_real", "modes_imag"} & json.loads(text).keys()
    modes = np.load(out / "modes.npy")
    assert modes.dtype == np.complex128
    assert modes.shape == (resolved["n_nodes"] * resolved["tau"], resolved["rank"])
    # the saved fit reproduces the normalized training signal it was fit
    # to, up to the planted noise (sigma 0.05 against unit-variance
    # sinusoids)
    fit = json.loads(text)
    eigenvalues, amplitudes = (np.array([complex(re, im) for re, im in fit[name]])
                               for name in ("eigenvalues", "amplitudes"))
    _, _, values = normalized_series(generate_synthetic(cfg.synthetic), cfg.split)
    train = values[:, : fit["fit_span"]]
    dynamics = amplitudes[:, np.newaxis] * vandermonde(eigenvalues, fit["fit_span"])
    rec = (modes[: resolved["n_nodes"]] @ dynamics).real
    assert np.linalg.norm(rec - train) <= 0.1 * np.linalg.norm(train)
    # each kept group has one representative, so selected_pairs counts the channels
    assert "embedding_modes" not in resolved


def test_stage_rss_rise_is_credited_to_the_turn_that_made_it(tmp_path, monkeypatch):
    # ru_maxrss as a counter that the ridge fits raise by 3 MB each and the
    # first label's residual correlation by 10 MB. The forecast's last turn
    # ends after that diagnostics turn, so its peak figure cannot tell the
    # two apart; the rises can.
    peak = [100.0]

    def raising(fn, mb, calls):
        def wrapped(*args, **kwargs):
            if calls:
                calls.pop()
                peak[0] += mb
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pipeline, "_max_rss_mb", lambda: peak[0])
    monkeypatch.setattr(pipeline, "fit_ridge", raising(pipeline.fit_ridge, 3.0, [1, 1]))
    monkeypatch.setattr(pipeline.dg, "residual_correlation",
                        raising(pipeline.dg.residual_correlation, 10.0, [1]))
    out = run_pipeline(small_config(tmp_path))
    manifest = json.loads((out / "manifest.json").read_text())
    rises = manifest["stage_rss_rise_mb"]
    assert rises.pop("forecast") == 6.0 and rises.pop("diagnostics") == 10.0
    assert set(rises.values()) == {0.0}
    assert manifest["stage_max_rss_mb"]["forecast"] == manifest["stage_max_rss_mb"]["diagnostics"] == 116.0


def test_run_pipeline_fit_and_embed_stop_early(tmp_path):
    cfg = small_config(tmp_path, seed=1, output_dir=str(tmp_path / "fit_run"))
    out = run_pipeline(cfg, until="fit")
    names = {p.name for p in out.iterdir()}
    assert {"decomposition.json", "modes.npy"} <= names
    assert "metrics_with.json" not in names

    cfg2 = small_config(tmp_path, seed=1, output_dir=str(tmp_path / "embed_run"))
    out2 = run_pipeline(cfg2, until="embed")
    names2 = {p.name for p in out2.iterdir()}
    assert "embedding.csv" in names2
    assert "metrics_with.json" not in names2


def test_run_pipeline_manifest_rerun_byte_identical(tmp_path):
    cfg = small_config(tmp_path, seed=2)
    out1 = run_pipeline(cfg)
    cfg2 = config_from_manifest(out1 / "manifest.json")
    cfg2.output_dir = str(tmp_path / "rerun")
    out2 = run_pipeline(cfg2)
    names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
    assert "decomposition.json" in names and any(name.endswith(".svg") for name in names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_manifest_records_the_blas_thread_setting_outside_config(tmp_path, monkeypatch):
    # a byte-identical replay needs the original run's thread count: the
    # manifest records it, null where a variable is unset, and a replay
    # reads its config alone, so it does not apply the setting
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    cfg = small_config(tmp_path)
    out = run_pipeline(cfg, until="fit")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2",
    }
    assert not {"blas_threads", *manifest["blas_threads"]} & manifest["config"].keys()
    assert config_from_manifest(out / "manifest.json") == cfg


def test_synthetic_run_fits_and_replays_at_the_config_step_length(tmp_path):
    # the step length is the config's alone: the manifest records it, so a
    # replay takes it back, and no other file depends on it, since every
    # period and rate of the fit is in steps
    def files(out):
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    spec = SyntheticSpec(3, 480, noise=0.1, seed=1)
    runs = {}
    for seconds in (60.0, 900.0):
        cfg = PipelineConfig(synthetic=spec, step_seconds=seconds,
                             output_dir=str(tmp_path / f"run{seconds:g}"))
        runs[seconds] = run_pipeline(cfg)
    assert files(runs[60.0]) == files(runs[900.0])
    cfg2 = config_from_manifest(runs[60.0] / "manifest.json")
    assert cfg2.step_seconds == 60.0
    cfg2.output_dir = str(tmp_path / "rerun")
    assert files(run_pipeline(cfg2)) == files(runs[60.0])


def test_synthetic_defaults_are_the_spec_defaults(tmp_path):
    # an inline source names only its size: the spec's periods fill in,
    # as they do for the synth subcommand, rather than an empty signal
    cfg = PipelineConfig.from_mapping({"synth_nodes": "3", "synth_steps": "480",
                                       "output_dir": str(tmp_path / "run")})
    out = run_pipeline(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["synth_periods"] == [72.0, 504.0]
    assert (out / "metrics_with.json").exists()
    assert cli_main(["synth", "--out", str(tmp_path / "cli.csv")]) == 0
    write_signal_csv(generate_synthetic(SyntheticSpec()), tmp_path / "spec.csv")
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "spec.csv").read_bytes()


# Config keys that older manifests carry, with a value they were written with.
REMOVED_KEYS = {"amplitude_method": "least_squares", "fit_window": "truncated",
                "solver": "exact", "unit_circle": True, "l2_auto": False}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_replaying_manifest_with_removed_key_is_config_error(tmp_path, key):
    # Manifests written while the config still had ``key`` carry it;
    # replaying one names it instead of ignoring it.
    cfg = small_config(tmp_path, seed=2)
    manifest = {"config": {**cfg.to_mapping(), key: REMOVED_KEYS[key]}}
    path = tmp_path / "old_manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=key):
        config_from_manifest(path)
    out = tmp_path / "replay"
    assert cli_main(["forecast", "--manifest", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_run_pipeline_skips_lag_with_one_aligned_row(tmp_path):
    # 480 steps split 70/10/20 leave 96 test steps, so P=Q=12 gives 73
    # test anchors: lag 71 still pairs 2 rows, lag 72 only 1.
    spec = SyntheticSpec(nodes=3, steps=480, periods=(8.0, 24.0), noise=0.05, seed=0)
    cfg = PipelineConfig(synthetic=spec, output_dir=str(tmp_path / "run"),
                         lags=(0, 71, 72), acf_max_lag=30, target_modes=2)
    out = run_pipeline(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["skipped_lags"] == [72]
    for label in ("with", "without"):
        lines = (out / f"residual_corr_{label}_test.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "71"]
        assert (out / f"residual_corr_{label}_lag071_test.svg").exists()
        assert not (out / f"residual_corr_{label}_lag072_test.svg").exists()


def test_run_pipeline_records_acf_lag_clamped_to_test_anchors(tmp_path):
    # 480 steps split 70/10/20 leave 73 test anchors: the residual ACF
    # reaches lag 72 however far it is asked to go
    spec = SyntheticSpec(nodes=3, steps=480, periods=(8.0, 24.0), noise=0.05, seed=0)
    cfg = PipelineConfig(synthetic=spec, output_dir=str(tmp_path / "run"),
                         lags=(0, 8), acf_max_lag=500, target_modes=2)
    out = run_pipeline(cfg)
    assert json.loads((out / "manifest.json").read_text())["resolved"]["acf_lag_reached"] == 72
    for label in ("with", "without"):
        acf = np.loadtxt(out / f"acf_{label}_test.csv", delimiter=",", skiprows=1, ndmin=2)
        assert acf[:, 0].tolist() == list(range(73))


def test_diagnose_residuals_skips_lag_with_one_aligned_row(tmp_path):
    resid = np.random.default_rng(0).normal(size=(10, 2))
    out = diagnose_residuals(resid, (0, 8, 9), 5, tmp_path / "diag")
    lines = (out / "residual_corr.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "8"]


def _acf_header(path):
    return path.read_text().splitlines()[0].split(",")


def test_constant_node_is_left_out_of_the_acf(tmp_path):
    # a stuck sensor: the normalization floors the node, and without
    # covariates its prediction and target are both exactly 0, so its
    # residual column has no autocorrelation to report
    sig = generate_synthetic(SyntheticSpec(nodes=3, steps=600, noise=0.1, seed=1))
    sig.values[1] = 5.0
    path = tmp_path / "stuck.csv"
    write_signal_csv(sig, path)
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="zero-variance"):
        assert cli_main(["forecast", "--input", str(path), "--out", str(out)]) == 0
    assert _acf_header(out / "acf_without_test.csv") == ["lag", sig.node_ids[0], sig.node_ids[2]]
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert resolved["acf_excluded"] == {"with": [], "without": [sig.node_ids[1]]}
    # 120 test steps leave 97 anchors
    assert resolved["acf_lag_reached"] == 96


def test_node_blank_to_the_end_is_left_out_of_the_acf(tmp_path):
    # blank from step 450 on, the node is imputed flat over the test split:
    # its residuals without covariates are constant to round-off, which the
    # residual correlation already excludes, and so does the ACF
    sig = generate_synthetic(SyntheticSpec(nodes=3, steps=600, noise=0.1, seed=1))
    sig.mask[1, 450:] = False
    path = tmp_path / "dead_tail.csv"
    write_signal_csv(sig, path)
    out = tmp_path / "run"
    assert cli_main(["forecast", "--input", str(path), "--out", str(out)]) == 0
    assert _acf_header(out / "acf_without_test.csv") == ["lag", sig.node_ids[0], sig.node_ids[2]]
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert resolved["acf_excluded"]["without"] == [sig.node_ids[1]]


def test_diagnose_with_a_prediction_equal_to_its_actuals(tmp_path):
    sig = generate_synthetic(SyntheticSpec(nodes=3, steps=200, noise=0.1, seed=1))
    noise = np.random.default_rng(0).normal(size=sig.values.shape)
    actual = dataclasses.replace(sig, values=sig.values + noise)
    actual.values[2] = sig.values[2]
    write_signal_csv(sig, tmp_path / "predictions.csv")
    write_signal_csv(actual, tmp_path / "actuals.csv")
    out = tmp_path / "diag"
    assert cli_main(["diagnose", "--predictions", str(tmp_path / "predictions.csv"),
                     "--actuals", str(tmp_path / "actuals.csv"), "--out", str(out)]) == 0
    assert _acf_header(out / "acf.csv") == ["lag", *sig.node_ids[:2]]
    lines = (out / "residual_corr.csv").read_text().splitlines()
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_no_acf_is_written_when_every_column_is_constant_at_the_last_horizon(tmp_path):
    resid = np.random.default_rng(0).normal(size=(40, 2, 3))
    resid[:, :, -1] = 3.0
    written = pipeline._write_residual_diagnostics(resid, ["a", "b"], (0,), 5, lambda name: tmp_path / name)
    assert written == ([], 0, ["a", "b"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["residual_corr.csv", "residual_corr_lag000.svg"]


def test_run_pipeline_lock(tmp_path):
    # a second descriptor holding the flock refuses the run, which writes nothing
    cfg = small_config(tmp_path, seed=3)
    out_dir = tmp_path / "run3"
    out_dir.mkdir()
    fd = os.open(out_dir / ".lock", os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(DataError, match="locked by another process"):
            run_pipeline(cfg)
        assert sorted(p.name for p in out_dir.iterdir()) == [".lock"]
    finally:
        os.close(fd)


def test_run_pipeline_reclaims_lock_of_dead_process(tmp_path):
    finished = subprocess.Popen([sys.executable, "-c", "pass"])
    finished.wait()
    cfg = small_config(tmp_path, seed=3)
    out_dir = tmp_path / "run3"
    out_dir.mkdir()
    (out_dir / ".lock").write_text(str(finished.pid))
    out = run_pipeline(cfg, until="fit")
    assert (out / "manifest.json").exists()
    assert not (out / ".lock").exists()


def test_run_pipeline_lock_naming_this_process_does_not_block(tmp_path):
    # a killed run and its rerun may share a PID: a lock's content is not read
    cfg = small_config(tmp_path, seed=3)
    out_dir = tmp_path / "run3"
    out_dir.mkdir()
    (out_dir / ".lock").write_text(str(os.getpid()))
    out = run_pipeline(cfg, until="fit")
    assert (out / "manifest.json").exists()
    assert not (out / ".lock").exists()


HOLD_LOCK = """
import fcntl, os, sys, time
fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
time.sleep(600)
"""


def test_run_pipeline_lock_of_killed_holder_is_released(tmp_path):
    cfg = small_config(tmp_path, seed=3)
    out_dir = tmp_path / "run3"
    out_dir.mkdir()
    holder = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(out_dir / ".lock")],
                              stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline().strip() == "locked"
        with pytest.raises(DataError, match="locked by another process"):
            run_pipeline(cfg, until="fit")
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
    assert holder.returncode == -SIGKILL
    out = run_pipeline(cfg, until="fit")
    assert (out / "manifest.json").exists()
    assert not (out / ".lock").exists()


def test_run_pipeline_refuses_a_lock_replaced_before_its_flock(tmp_path, monkeypatch):
    # a run that ends between this run's open and its flock removes the
    # file this run opened; a new .lock may already stand in its place
    cfg = small_config(tmp_path, seed=3)
    out_dir = tmp_path / "run3"
    out_dir.mkdir()
    flock = fcntl.flock

    def replaced_first(fd, operation):
        (out_dir / ".lock").unlink()
        (out_dir / ".lock").touch()
        return flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", replaced_first)
    with pytest.raises(DataError, match="locked by another process"):
        run_pipeline(cfg, until="fit")
    assert sorted(p.name for p in out_dir.iterdir()) == [".lock"]


def _directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_failed_rerun_leaves_the_earlier_run_unchanged(tmp_path):
    # Q=90 leaves no test window: the rerun fails after its fit stages
    cfg = small_config(tmp_path, seed=3)
    out = run_pipeline(cfg)
    before = _directory_bytes(out)
    with pytest.raises(DataError, match=r"\[stage forecast\]"):
        run_pipeline(dataclasses.replace(cfg, q=90))
    assert _directory_bytes(out) == before


def test_leftover_staging_directory_is_removed_unread(tmp_path):
    cfg = small_config(tmp_path, seed=3)
    out_dir = tmp_path / "run3"
    (out_dir / STAGING_DIR / "nested").mkdir(parents=True)
    (out_dir / STAGING_DIR / "metrics_stale.json").write_text("{}")
    (out_dir / STAGING_DIR / "nested" / "cep.csv").write_text("rank,cep\n")
    out = run_pipeline(cfg, until="fit")
    names = sorted(p.name for p in out.iterdir())
    assert names == ["decomposition.json", "manifest.json", "modes.npy"]


def test_manifest_lists_the_files_of_its_own_run(tmp_path):
    cfg = small_config(tmp_path, seed=3)
    out = run_pipeline(cfg)
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    run_pipeline(cfg, until="fit")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["decomposition.json", "modes.npy"]
    # the earlier run's files that the fit does not write are gone
    assert not (out / "metrics_with.json").exists()
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *manifest["files"]])


def test_a_run_removes_only_the_files_the_earlier_manifest_lists(tmp_path):
    cfg = small_config(tmp_path, seed=3)
    out = run_pipeline(cfg)
    forecast_files = json.loads((out / "manifest.json").read_text())["files"]
    # not the earlier run's: a file of the user and one an older run left unlisted
    (out / "notes.txt").write_text("kept")
    (out / "metrics_old.json").write_text("{}")
    # a failed fit leaves every file where it was
    before = _directory_bytes(out)
    with pytest.raises(ConfigError, match=r"\[stage hankel\]"):
        run_pipeline(dataclasses.replace(cfg, tau=10_000), until="fit")
    assert _directory_bytes(out) == before
    # a fit that succeeds removes the forecast's files it does not write
    run_pipeline(cfg, until="fit")
    fit_files = json.loads((out / "manifest.json").read_text())["files"]
    assert set(fit_files) < set(forecast_files)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["manifest.json", "metrics_old.json", "notes.txt", *fit_files])
    assert (out / "notes.txt").read_text() == "kept"


def test_run_pipeline_stage_error_cleans_partial_outputs(tmp_path):
    cfg = PipelineConfig(input_csv=str(tmp_path / "nope.csv"),
                         output_dir=str(tmp_path / "bad"))
    with pytest.raises(DataError, match=r"\[stage ingest\]"):
        run_pipeline(cfg)
    # the run made the directory, so the failed run removes it again
    assert not (tmp_path / "bad").exists()


def test_run_pipeline_requires_one_source(tmp_path):
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "x")))
    both = PipelineConfig(
        input_csv="a.csv", synthetic=small_spec(), output_dir=str(tmp_path / "y")
    )
    with pytest.raises(ConfigError):
        run_pipeline(both)


def test_run_pipeline_masked_input_metrics_exclusion(tmp_path):
    sig = generate_synthetic(small_spec(seed=4))
    sig.mask[:, 350:] = False  # missing stretch inside the test split
    csv_path = tmp_path / "masked.csv"
    write_signal_csv(sig, csv_path)
    cfg = small_config(tmp_path, seed=4, output_dir=str(tmp_path / "masked_run"))
    cfg.synthetic = None
    cfg.input_csv = str(csv_path)
    out = run_pipeline(cfg)
    metrics = json.loads((out / "metrics_with.json").read_text())
    assert metrics["excluded_count"] > 0


def test_without_covariate_metrics_match_windows_built_without_embedding(tmp_path):
    # the run builds its windows once and drops the embedding channels for
    # the comparison fit; that must equal windows built with no embedding
    sig = generate_synthetic(small_spec(seed=7))
    sig.mask[1, 300:310] = False
    csv_path = tmp_path / "masked.csv"
    write_signal_csv(sig, csv_path)
    cfg = small_config(tmp_path, seed=7)
    cfg.synthetic = None
    cfg.input_csv = str(csv_path)
    out = run_pipeline(cfg)

    loaded = load_csv(csv_path)
    (b_train, b_val), zscore, values = normalized_series(impute_linear(loaded), cfg.split)
    spans = {"train": (0, b_train), "test": (b_val, loaded.n_steps)}
    plain = make_windows(values, spans, cfg.p, cfg.q, embedding=None, exclusion_mask=loaded.mask)
    report, _ = _test_forecast(fit_ridge(plain["train"], l2=cfg.l2), plain["test"], zscore)
    assert report.excluded_count > 0
    assert (out / "metrics_without.json").read_text() == report.to_json()
    assert json.loads((out / "manifest.json").read_text())["resolved"]["l2_without"] == cfg.l2


def test_test_residuals_match_differences_in_original_units(tmp_path):
    # the run scales normalized differences by each node's std; that must
    # match taking prediction and target to original units and subtracting
    sig = generate_synthetic(small_spec(seed=3, noise=0.1))
    sig = dataclasses.replace(sig, values=sig.values * [[3.0], [0.5], [20.0], [1.0]] + 40.0)
    sig.mask[2, 320:330] = False
    (b_train, b_val), zscore, values = normalized_series(sig, (0.7, 0.1, 0.2))
    spans = {"train": (0, b_train), "test": (b_val, sig.n_steps)}
    windows = make_windows(values, spans, 12, 12, exclusion_mask=sig.mask)
    test = windows["test"]
    model = fit_ridge(windows["train"], l2=1e-3)
    report, resid = _test_forecast(model, test, zscore)

    def inverse(blocks):
        return blocks * zscore.std[:, np.newaxis] + zscore.mean[:, np.newaxis]

    pred = predict(model, test).reshape(resid.shape)
    reference = inverse(pred) - inverse(test.blocks(test.p, test.q))
    assert np.max(np.abs(resid - reference)) <= 1e-12 * np.max(np.abs(reference))
    expected = evaluate(reference, test.blocks(test.p, test.q, test.observed))
    assert report.excluded_count == expected.excluded_count > 0
    for h in range(1, test.q + 1):
        assert report.horizon_rmse[h] == pytest.approx(expected.horizon_rmse[h], rel=1e-12)
    assert report.overall_mae == pytest.approx(expected.overall_mae, rel=1e-12)


def test_a_horizon_with_no_kept_target_is_written_as_null(tmp_path):
    # one test anchor (24 test steps) whose third target step, 390, is
    # blank at every node: horizon 3 has no entry to score, and the file
    # must stay strict JSON
    sig = generate_synthetic(SyntheticSpec(nodes=3, steps=400, noise=0.1, seed=1))
    sig.mask[:, 390] = False
    write_signal_csv(sig, tmp_path / "blank.csv")
    cfg = PipelineConfig(input_csv=str(tmp_path / "blank.csv"), output_dir=str(tmp_path / "run"),
                         split=(0.84, 0.1, 0.06), lags=(0,))
    out = run_pipeline(cfg)
    assert json.loads((out / "manifest.json").read_text())["resolved"]["boundaries"] == [336, 376]

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    for label in ("with", "without"):
        metrics = json.loads((out / f"metrics_{label}.json").read_text(), parse_constant=refuse)
        assert metrics["horizons"]["3"] == {"mae": None, "rmse": None}
        assert set(metrics["horizons"]) == {str(h) for h in range(1, 13)}
        assert metrics["excluded_count"] == 3
        assert all(v["rmse"] > 0 for h, v in metrics["horizons"].items() if h != "3")


def test_validation_split_shorter_than_a_window_runs(tmp_path):
    # 18 validation steps, fewer than P+Q = 24: no fit reads validation
    # windows, so none are built and the forecast stage runs
    cfg = small_config(tmp_path, split=(0.7, 0.05, 0.25))
    out = run_pipeline(cfg)
    boundaries = json.loads((out / "manifest.json").read_text())["resolved"]["boundaries"]
    assert boundaries[1] - boundaries[0] == 18 < cfg.p + cfg.q
    for label in ("with", "without"):
        assert json.loads((out / f"metrics_{label}.json").read_text())["overall"]["rmse"] > 0


def test_no_leakage_from_test_split(tmp_path):
    # the run normalizes the whole series at once, with statistics of the
    # training columns alone: later steps cannot move the fit
    sig_a = generate_synthetic(small_spec(seed=5, noise=0.1))
    values = sig_a.values.copy()
    values[:, 300:] += 77.0  # clobber val/test region only
    fits = []
    for name, sig in (("a", sig_a), ("b", dataclasses.replace(sig_a, values=values))):
        write_signal_csv(sig, tmp_path / f"{name}.csv")
        cfg = PipelineConfig(input_csv=str(tmp_path / f"{name}.csv"), output_dir=str(tmp_path / name),
                             tau=20, rank="fixed:4", target_modes=2)
        fits.append((run_pipeline(cfg, until="fit") / "decomposition.json").read_text())
    assert fits[0] == fits[1]


# -------------------------------------------------------------------- CLI


def test_inspect_modes_marks_the_modes_a_fit_run_keeps(tmp_path):
    # the script fits what a run fits: the normalized training steps at
    # the run's tau, so its kept rows are the run's selected eigenvalues
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--nodes", "4", "--steps", "360", "--periods", "8,24",
                     "--noise", "0.1", "--seed", "1", "--out", str(data)]) == 0
    flags = ["--rank", "fixed:8", "--target-modes", "2"]
    run_dir = tmp_path / "fit_run"
    assert cli_main(["fit", "--input", str(data), "--out", str(run_dir), *flags]) == 0
    resolved = json.loads((run_dir / "manifest.json").read_text())["resolved"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(root, "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = [sys.executable, os.path.join(root, "scripts", "inspect_modes.py"), str(data)]
    svg = tmp_path / "modes.svg"
    done = subprocess.run([*script, *flags, "--svg", str(svg), "--span", "5000"],
                          capture_output=True, text=True, env=env, check=True)
    header, _, *rows = done.stdout.splitlines()
    # one real covariate channel per kept group, over the 360 steps of the series
    polylines = list(ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}polyline"))
    assert len(polylines) == resolved["selected_pairs"]
    assert all(len(line.get("points").split()) == 360 for line in polylines)
    assert rows.pop() == f"wrote {svg}"
    # one row per mode of the fit; the kept column is the whole selection
    assert len(rows) == resolved["rank"]
    refused = subprocess.run([*script, "--span", "0"], capture_output=True, text=True, env=env)
    assert refused.returncode == 2 and "--span must be at least 1, got 0" in refused.stderr
    assert f"rank {resolved['rank']}, tau {resolved['tau']}," in header
    kept = [row.split()[1:4:2] for row in rows if row.split()[-1] == "True"]
    expected = []
    for re, im in resolved["eigenvalues"]:
        freq = mode_frequency(complex(re, im))
        period = f"{freq.period_steps:.2f}" if freq.period_steps else "-"
        expected.append([period, f"{freq.growth_rate:.2e}"])
    assert kept == expected
    # the hours column is the period in steps at the config's step length;
    # the fit, and so its eigenvalues, do not depend on it
    done = subprocess.run([*script, *flags, "--step-seconds", "60"],
                          capture_output=True, text=True, env=env, check=True)
    hours = [row.split()[2] for row in done.stdout.splitlines()[2:]]
    expected = []
    for re, im in json.loads((run_dir / "decomposition.json").read_text())["eigenvalues"]:
        steps = mode_frequency(complex(re, im)).period_steps
        expected.append(f"{steps * 60 / 3600:.2f}" if steps else "-")
    assert hours == expected


def test_cli_synth_then_forecast(tmp_path, capsys):
    data = tmp_path / "data.csv"
    code = cli_main([
        "synth", "--nodes", "4", "--steps", "360", "--periods", "8,24",
        "--noise", "0.05", "--seed", "1", "--out", str(data),
    ])
    assert code == 0
    run_dir = tmp_path / "cli_run"
    code = cli_main([
        "forecast", "--input", str(data), "--out", str(run_dir),
        "--lags", "0,8,24", "--acf-max-lag", "30", "--target-modes", "2",
    ])
    assert code == 0
    assert (run_dir / "metrics_with.json").exists()

    replay = tmp_path / "cli_replay"
    code = cli_main(["forecast", "--manifest", str(run_dir / "manifest.json"),
                     "--out", str(replay)])
    assert code == 0
    assert (replay / "metrics_with.json").read_bytes() == \
        (run_dir / "metrics_with.json").read_bytes()


def test_cli_synth_creates_the_output_directory(tmp_path):
    out = tmp_path / "new" / "dir" / "data.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "120", "--out", str(out)]) == 0
    assert load_csv(out).n_steps == 120


def test_cli_fit_and_embed(tmp_path):
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--nodes", "3", "--steps", "240", "--periods", "12",
                     "--seed", "2", "--out", str(data)]) == 0
    fit_dir = tmp_path / "fit_out"
    assert cli_main(["fit", "--input", str(data), "--out", str(fit_dir),
                     "--rank", "fixed:2", "--target-modes", "1"]) == 0
    assert (fit_dir / "decomposition.json").exists()
    embed_dir = tmp_path / "embed_out"
    assert cli_main(["embed", "--input", str(data), "--out", str(embed_dir),
                     "--rank", "fixed:2", "--target-modes", "1"]) == 0
    assert (embed_dir / "embedding.csv").exists()


def test_cli_diagnose(tmp_path):
    rng = np.random.default_rng(0)
    t = 300
    actual = rng.normal(size=(t, 2))
    preds = actual + 0.5 * np.cos(2 * np.pi * np.arange(t) / 24)[:, None]

    def dump(path, mat):
        lines = ["step,a,b"] + [f"{i},{row[0]},{row[1]}" for i, row in enumerate(mat)]
        path.write_text("\n".join(lines) + "\n")

    p_file, a_file = tmp_path / "p.csv", tmp_path / "a.csv"
    dump(p_file, preds)
    dump(a_file, actual)
    out = tmp_path / "diag"
    code = cli_main(["diagnose", "--predictions", str(p_file), "--actuals", str(a_file),
                     "--lags", "0,24", "--acf-max-lag", "48", "--out", str(out)])
    assert code == 0
    assert (out / "acf.csv").exists()
    assert (out / "residual_corr.csv").exists()


def test_cli_diagnose_defaults_are_the_pipeline_defaults():
    args = build_parser().parse_args(["diagnose", "--predictions", "p.csv", "--actuals", "a.csv",
                                      "--out", "diag"])
    options = convert_options(PipelineConfig, {"lags": args.lags, "acf_max_lag": args.acf_max_lag})
    assert options == {"lags": PipelineConfig().lags, "acf_max_lag": PipelineConfig().acf_max_lag}


@pytest.mark.parametrize("blank_in", ["predictions", "actuals"])
def test_cli_diagnose_refuses_blank_cells(tmp_path, capsys, blank_in):
    # load_csv reads a blank cell as a masked zero; a residual against that
    # zero would pass for a real one
    rng = np.random.default_rng(0)
    files = {}
    for name in ("predictions", "actuals"):
        rows = [[f"{v:.17g}" for v in row] for row in rng.normal(size=(200, 2))]
        if name == blank_in:
            for t in range(40, 50):
                rows[t][0] = ""
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text("step,a,b\n" + "".join(
            f"{t},{','.join(row)}\n" for t, row in enumerate(rows)))
    out = tmp_path / "diag"
    code = cli_main(["diagnose", "--predictions", str(files["predictions"]),
                     "--actuals", str(files["actuals"]), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert str(files[blank_in]) in err and "row 42, column 'a'" in err
    assert not out.exists()


@pytest.mark.parametrize("max_lag", ["-1", "0"])
def test_cli_diagnose_refuses_acf_max_lag_below_one(tmp_path, capsys, max_lag):
    # the rule PipelineConfig.validate applies to a run's acf_max_lag
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "120", "--out", str(data)]) == 0
    out = tmp_path / "diag"
    code = cli_main(["diagnose", "--predictions", str(data), "--actuals", str(data),
                     "--acf-max-lag", max_lag, "--out", str(out)])
    assert code == 2
    assert "acf_max_lag must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_diagnose_refuses_repeated_lag(tmp_path, capsys):
    # the rule PipelineConfig.validate applies to a run's lags: a repeated
    # lag would write its correlation row and heatmap twice
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "120", "--out", str(data)]) == 0
    out = tmp_path / "diag"
    code = cli_main(["diagnose", "--predictions", str(data), "--actuals", str(data),
                     "--lags", "0,0", "--out", str(out)])
    assert code == 2
    assert "each lag may be named once, got [0, 0]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_diagnose_refuses_negative_lag(tmp_path, capsys):
    # a negative lag would only draw its positive twin's heatmap transposed
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "120", "--out", str(data)]) == 0
    out = tmp_path / "diag"
    code = cli_main(["diagnose", "--predictions", str(data), "--actuals", str(data),
                     "--lags", "-72", "--out", str(out)])
    assert code == 2
    assert "lags must be nonnegative, got [-72]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_codes(tmp_path):
    # config error: bad rank policy
    assert cli_main(["forecast", "--input", "x.csv", "--rank", "bogus",
                     "--out", str(tmp_path / "a")]) == 2
    # data error: missing input file
    assert cli_main(["forecast", "--input", str(tmp_path / "nothing.csv"),
                     "--out", str(tmp_path / "b")]) == 3
    # config error: no source at all
    assert cli_main(["forecast", "--out", str(tmp_path / "c")]) == 2
    # numerical failure: an all-zero signal has an empty spectrum
    zero = tmp_path / "zero.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "60", "--periods", "",
                     "--out", str(zero)]) == 0
    with pytest.warns(UserWarning):
        code = cli_main(["forecast", "--input", str(zero),
                         "--out", str(tmp_path / "d"), "--lags", "0",
                         "--acf-max-lag", "5"])
    assert code == 4
    # config errors from values that parse wrongly
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "120", "--periods", "12",
                     "--out", str(data)]) == 0
    typo = tmp_path / "typo.cfg"
    typo.write_text(f"input_csv = {data}\ntarget_modes = fuor\n")
    assert cli_main(["forecast", "--config", str(typo), "--out", str(tmp_path / "e")]) == 2
    assert cli_main(["forecast", "--input", str(data), "--lags", "72.5",
                     "--out", str(tmp_path / "f")]) == 2
    assert cli_main(["forecast", "--input", str(data), "--tau", "0",
                     "--out", str(tmp_path / "g")]) == 2
    assert cli_main(["diagnose", "--predictions", str(data), "--actuals", str(data),
                     "--lags", "72.5", "--out", str(tmp_path / "h")]) == 2
    assert cli_main(["synth", "--periods", "72,x", "--out", str(tmp_path / "i.csv")]) == 2
    many = tmp_path / "many.cfg"
    many.write_text("synth_nodes = many\nsynth_periods = 72\n")
    assert cli_main(["forecast", "--config", str(many), "--out", str(tmp_path / "j")]) == 2
    for name in "efghij":
        assert not (tmp_path / name).exists() and not (tmp_path / "i.csv").exists()


@pytest.mark.parametrize("flags", [["--tau", "0"], ["--tau", "-3"], ["--l2", "-1"],
                                   ["--p", "0"], ["--split", "0.7,0.5,0.2"],
                                   ["--split", "1.1,-0.3,0.2"], ["--split", "0.9,0.1,0"],
                                   ["--split", "0,0.5,0.5"], ["--step-seconds", "0"],
                                   ["--acf-max-lag", "-1"], ["--acf-max-lag", "0"],
                                   ["--lags", "0,0"], ["--lags", "0,72,504,72"],
                                   ["--lags", "0,-72"]])
def test_cli_out_of_range_value_is_config_error_before_run_dir(tmp_path, capsys, flags):
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "120", "--periods", "12",
                     "--out", str(data)]) == 0
    out = tmp_path / "run"
    assert cli_main(["forecast", "--input", str(data), *flags, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, key", [
    (["--l2", "nan"], "l2"), (["--l2", "inf"], "l2"), (["--split", "nan,0.5,0.5"], "split"),
    (["--step-seconds", "nan"], "step_seconds"), (["--step-seconds", "inf"], "step_seconds"),
    (["--synth-noise", "nan"], "noise"), (["--synth-periods", "nan"], "periods"),
    (["--synth-trend", "inf"], "trend"), (["--synth-amplitudes", "1,-inf"], "amplitudes"),
])
def test_cli_non_finite_value_is_config_error_before_run_dir(tmp_path, capsys, flags, key):
    # a NaN or an infinity failed in a stage, or reached the manifest,
    # which then was not strict JSON
    out = tmp_path / "new" / "run"
    source = ["--synth-nodes", "3", "--synth-steps", "480", "--synth-periods", "72,24"]
    assert cli_main(["forecast", *source, *flags, "--out", str(out)]) == 2
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_non_finite_value_is_refused_from_every_source(tmp_path, capsys):
    # a config file, a manifest, an object built in code and the synth subcommand
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "3", "--steps", "480", "--out", str(data)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text(f"input_csv = {data}\nl2 = nan\n")
    assert cli_main(["forecast", "--config", str(config), "--out", str(tmp_path / "a")]) == 2
    assert cli_main(["fit", "--input", str(data), "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    manifest["config"]["step_seconds"] = float("inf")
    (tmp_path / "old.json").write_text(json.dumps(manifest))
    assert cli_main(["forecast", "--manifest", str(tmp_path / "old.json"),
                     "--out", str(tmp_path / "b")]) == 2
    assert cli_main(["synth", "--noise", "nan", "--out", str(tmp_path / "c" / "s.csv")]) == 2
    err = capsys.readouterr().err
    for key in ("l2", "step_seconds", "noise"):
        assert f"config error: {key} must be finite" in err
    with pytest.raises(ConfigError, match="l2 must be finite"):
        run_pipeline(PipelineConfig(input_csv=str(data), l2=float("-inf"),
                                    output_dir=str(tmp_path / "d")))
    with pytest.raises(ConfigError, match="periods must be finite"):
        SyntheticSpec(periods=[72.0, float("nan")])
    assert not any((tmp_path / name).exists() for name in "abcd")


@pytest.mark.parametrize("flags, code", [
    (["--tau", "100000"], 2),  # no snapshot pairs left to fit: a config error
    (["--q", "400"], 3),  # no test window: a data error
    (["--p", "300"], 3),
])
def test_failed_run_removes_the_directories_it_made(tmp_path, flags, code):
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "3", "--steps", "480", "--out", str(data)]) == 0
    out = tmp_path / "new" / "run"
    assert cli_main(["forecast", "--input", str(data), *flags, "--out", str(out)]) == code
    assert not (tmp_path / "new").exists()
    # a directory that was there stays, as it was
    (tmp_path / "kept").mkdir()
    assert cli_main(["forecast", "--input", str(data), *flags,
                     "--out", str(tmp_path / "kept")]) == code
    assert list((tmp_path / "kept").iterdir()) == []


@pytest.mark.parametrize("flags", [["--tau", "85"], ["--tau", "83"], ["--tau", "84"]])
def test_cli_tau_beyond_training_span_is_config_error(tmp_path, capsys, flags):
    # 120 steps split 70/10/20 train on 84: two snapshot pairs need
    # tau <= 82
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "120", "--periods", "12",
                     "--out", str(data)]) == 0
    out = tmp_path / "run"
    assert cli_main(["fit", "--input", str(data), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [stage hankel]" in err and "84 training steps" in err
    assert not out.exists()
    assert cli_main(["fit", "--input", str(data), "--tau", "82", "--rank", "fixed:2",
                     "--target-modes", "1", "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("rank", ["fixed:0", "fixed:-2", "cep:0", "cep:1.5"])
def test_cli_out_of_range_rank_is_config_error_before_run_dir(tmp_path, capsys, rank):
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "2", "--steps", "120", "--periods", "12",
                     "--out", str(data)]) == 0
    out = tmp_path / "run"
    assert cli_main(["fit", "--input", str(data), "--rank", rank, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_and_flag_precedence(tmp_path):
    data = tmp_path / "d.csv"
    assert cli_main(["synth", "--nodes", "3", "--steps", "240", "--periods", "12",
                     "--seed", "3", "--out", str(data)]) == 0
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"input_csv = {data}\nrank = fixed:2\ntarget_modes = 1\n")
    run_dir = tmp_path / "cfg_run"
    assert cli_main(["fit", "--config", str(cfgfile), "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["rank"] == "fixed:2"
    assert manifest["config"]["output_dir"] == str(run_dir)
