import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed import forecaster
from dmdembed.embedding import TimeEmbedding, build_embedding
from dmdembed.errors import ConfigError, DataError
from dmdembed.forecaster import (
    ForecastWindows,
    RidgeModel,
    evaluate,
    fit_ridge,
    make_windows,
    predict,
    split_boundaries,
    zscore_fit,
)

import window_rows
from window_rows import loop_windows


def train_windows(values, p, q, **kw):
    """The windows of one range covering every step of ``values``."""
    values = np.asarray(values, dtype=float)
    return make_windows(values, {"train": (0, values.shape[1])}, p, q, **kw)["train"]


def dense_order(p, q, c):
    """Where each feature of the per-window layout (each history step's
    value and c covariates, then each target step's c covariates) sits in
    the block order of the ridge weights (P values, then the anchor's
    (P+Q)·c covariates, step-major)."""
    cov = p + np.arange((p + q) * c).reshape(p + q, c)
    hist = np.hstack([np.arange(p)[:, None], cov[:p]])
    return np.concatenate([hist.ravel(), cov[p:].ravel()])


def dense_features(fw):
    """The W x F per-window feature matrix the blocks stand for."""
    p, q, c = fw.p, fw.q, fw.covariates.shape[1]
    per_window = window_rows.covariates(fw).reshape(len(fw), (p + q) * c)
    blocks = np.hstack([window_rows.history(fw), per_window])
    return blocks[:, dense_order(p, q, c)]


def first_window_error(spans, p, q, span):
    """The DataError message of the first range, in order, that is shorter
    than P+Q or touches a step outside the embedding span [0, end)."""
    for name, (start, stop) in spans.items():
        if stop - start < p + q:
            return f"{name} split has {stop - start} steps, needs at least P+Q={p + q}"
        if span is not None and stop > span[1]:
            return f"embedding does not cover absolute step {span[1]}"
    return None


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except DataError as exc:
        return str(exc)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_make_windows_matches_per_window_loop(data):
    n = data.draw(st.integers(1, 3), label="N")
    p = data.draw(st.integers(1, 6), label="P")
    q = data.draw(st.integers(1, 6), label="Q")
    # split lengths, each empty or of at least 2 steps; T is their sum
    sizes = [data.draw(st.integers(2, 60), label="train steps")] + [
        data.draw(st.one_of(st.just(0), st.integers(2, 30)), label=f"{name} steps")
        for name in ("val", "test")
    ]
    t = sum(sizes)
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
    values = rng.normal(size=(n, t))
    exclusion = rng.random((n, t)) > 0.3 if data.draw(st.booleans(), label="mask") else None
    b_train, b_val = split_boundaries(t, tuple(size / t for size in sizes))
    assert (b_train, b_val) == (sizes[0], sizes[0] + sizes[1])
    ranges = {"train": (0, b_train), "val": (b_train, b_val), "test": (b_val, t)}
    spans = {name: r for name, r in ranges.items() if r[1] > r[0]}
    n_modes = data.draw(st.one_of(st.none(), st.integers(0, 3)), label="modes")
    emb = span = None
    if n_modes is not None:
        angles = data.draw(st.lists(st.floats(0.0, np.pi), min_size=n_modes, max_size=n_modes))
        if data.draw(st.booleans(), label="random span"):
            end = data.draw(st.integers(1, t), label="span end")
        else:
            end = t + data.draw(st.integers(0, 3), label="extra steps")
        span = (0, end)
        emb = build_embedding(np.exp(1j * np.array(angles)), end)

    expected = outcome(loop_windows, values, spans, p, q, emb, exclusion)
    actual = outcome(make_windows, values, spans, p, q, embedding=emb, exclusion_mask=exclusion)
    error = first_window_error(spans, p, q, span)
    if error is not None:
        assert expected == actual == error
        return
    assert list(actual) == list(expected)
    for name, fw in actual.items():
        ref = expected[name]
        assert len(fw) == ref["target"].shape[0]
        assert fw.n_nodes == n
        # each window's covariate rows are its anchor's, shared by its nodes
        ref_rows = np.concatenate([ref["history"][:, :, 1:], ref["future"]], axis=1)
        for key, got, want in (
            ("history", window_rows.history(fw), ref["history"][:, :, 0]),
            ("covariates", window_rows.covariates(fw), ref_rows),
            ("target", window_rows.target(fw), ref["target"]),
            ("mask", window_rows.mask(fw), ref["mask"]),
            # anchor-major, node-minor: the layout fixes each window's node and anchor
            ("node", np.tile(np.arange(n), fw.anchors.size), ref["node"]),
            ("anchor", np.repeat(fw.anchors, n), ref["anchor"]),
        ):
            assert got.shape == want.shape, key
            assert got.dtype == want.dtype, key
            assert np.array_equal(got, want), key
        assert np.array_equal(dense_features(fw), ref["features"])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_blockwise_ridge_matches_dense_features(data):
    n = data.draw(st.integers(1, 4), label="N")
    p = data.draw(st.integers(1, 6), label="P")
    q = data.draw(st.integers(1, 6), label="Q")
    n_train = data.draw(st.integers(p + q, 60), label="train steps")
    n_test = data.draw(st.integers(p + q, 30), label="test steps")
    # the training range need not start at step 0
    offset = data.draw(st.integers(0, 5), label="steps before train")
    t = offset + n_train + n_test
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
    values = rng.normal(size=(n, t))
    blanks = rng.random((n, t)) > 0.3 if data.draw(st.booleans(), label="mask") else None
    # no angles: c = 0, the fit without covariates
    angles = data.draw(st.lists(st.floats(0.0, np.pi), min_size=0, max_size=3), label="angles")
    l2 = 10.0 ** data.draw(st.floats(-8.0, 3.0), label="log10 l2")
    emb = build_embedding(np.exp(1j * np.array(angles)), t)
    spans = {"train": (offset, offset + n_train), "test": (offset + n_train, t)}

    windows = make_windows(values, spans, p, q, embedding=emb, exclusion_mask=blanks)
    model = fit_ridge(windows["train"], l2=l2)
    preds = predict(model, windows["test"])

    ref = loop_windows(values, spans, p, q, emb, blanks)
    x, y = ref["train"]["features"], ref["train"]["target"]
    gram, rhs = x.T @ x + l2 * np.eye(x.shape[1]), x.T @ y
    dense = np.linalg.solve(gram, rhs)
    weights = model.weights[dense_order(p, q, 2 * len(angles))]
    # the blockwise weights solve the dense normal equations to rounding
    scale = np.linalg.norm(gram, 2) * np.linalg.norm(weights) + np.linalg.norm(rhs)
    assert np.linalg.norm(gram @ weights - rhs) <= 1e-13 * scale
    # Two float64 solves can agree only to about cond · eps: over one window
    # a mode's covariate columns span two directions (the rotation
    # recurrence), so a small l2 leaves the normal matrix ill-conditioned.
    rtol = max(1e-9, 1e-14 * np.linalg.cond(gram))
    assert np.linalg.norm(weights - dense) <= rtol * np.linalg.norm(dense)
    dense_preds = ref["test"]["features"] @ dense
    assert np.linalg.norm(preds - dense_preds) <= rtol * np.linalg.norm(dense_preds)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_ridge_from_the_table_matches_per_window_reference(data):
    # fit_ridge gathers its normal equations from one moment table over each
    # step's value and the (T, c) table's covariates, filled one step offset
    # at a time, and predict adds each anchor's covariate term as P+Q
    # shifted products. The reference flattens every window's rows into one
    # dense feature matrix. Any table serves, so c may be odd, and its
    # random columns with l2 >= 0.1 keep the normal matrix well conditioned.
    n = data.draw(st.integers(1, 3), label="N")
    p = data.draw(st.integers(1, 6), label="P")
    q = data.draw(st.integers(1, 6), label="Q")
    c = data.draw(st.integers(0, 6), label="channels")
    # each split down to a single anchor
    n_train = p + q - 1 + data.draw(st.integers(1, 40), label="train anchors")
    n_test = p + q - 1 + data.draw(st.integers(1, 20), label="test anchors")
    offset = data.draw(st.integers(0, 3), label="steps before train")
    t = offset + n_train + n_test
    # the table may end exactly at the last target step
    length = t + data.draw(st.integers(0, 2), label="rows past the series")
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
    values = rng.normal(size=(n, t))
    emb = TimeEmbedding(np.zeros(0, dtype=complex), rng.normal(size=(length, c)))
    l2 = 10.0 ** data.draw(st.floats(-1.0, 2.0), label="log10 l2")
    spans = {"train": (offset, offset + n_train), "test": (offset + n_train, t)}

    windows = make_windows(values, spans, p, q, embedding=emb)
    model = fit_ridge(windows["train"], l2=l2)
    preds = predict(model, windows["test"])

    ref = loop_windows(values, spans, p, q, emb)
    x, y = ref["train"]["features"], ref["train"]["target"]
    dense = np.linalg.solve(x.T @ x + l2 * np.eye(x.shape[1]), x.T @ y)
    weights = model.weights[dense_order(p, q, c)]
    assert np.linalg.norm(weights - dense) <= 1e-10 * np.linalg.norm(dense)
    dense_preds = ref["test"]["features"] @ dense
    assert preds.base.shape == (n_test - p - q + 1, n, q)
    assert np.linalg.norm(preds - dense_preds) <= 1e-10 * np.linalg.norm(dense_preds)


def test_windows_are_views_of_the_series():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(3, 50))
    observed = rng.random(values.shape) > 0.2
    emb = build_embedding(np.exp(2j * np.pi / np.array([7.0, 12.0])), 50)
    windows = make_windows(values, {"train": (2, 30), "test": (30, 50)}, 4, 3,
                           embedding=emb, exclusion_mask=observed)
    for (start, stop), fw in zip(((2, 30), (30, 50)), windows.values()):
        assert np.shares_memory(fw.values, values) and np.shares_memory(fw.observed, observed)
        for block, source in ((fw.blocks(0, fw.p), values), (fw.blocks(fw.p, fw.q), values),
                              (fw.blocks(fw.p, fw.q, fw.observed), observed)):
            assert np.shares_memory(block, source)
        # block (a, n) holds steps a .. a+P-1 of node n, from the range start
        assert np.array_equal(fw.blocks(0, fw.p)[1, 2], values[2, start + 1 : start + 1 + fw.p])
        assert len(fw) == 3 * (stop - start - fw.p - fw.q + 1)
    # the prediction is one (A, N, Q) block, anchor-major
    test = windows["test"]
    preds = predict(fit_ridge(windows["train"]), test)
    assert preds.shape == (len(test), test.q) and preds.base.shape == (test.anchors.size, 3, test.q)


def sine_signal(t_steps=200, period=24.0, n_nodes=1):
    t = np.arange(t_steps)
    return np.tile(np.sin(2 * np.pi * t / period), (n_nodes, 1))


def test_split_boundaries_default_ratios():
    assert split_boundaries(100, (0.7, 0.1, 0.2)) == (70, 80)


def test_split_boundaries_train_only():
    assert split_boundaries(30, (1.0, 0.0, 0.0)) == (30, 30)


def test_split_boundaries_pems_protocol():
    assert split_boundaries(240, (0.6, 0.2, 0.2)) == (144, 192)


def test_split_boundaries_validation():
    # the ratio rules, which PipelineConfig.validate applies too
    for ratios in ((0.5, 0.2, 0.2), (1.1, -0.3, 0.2), (0.5, 0.5)):
        with pytest.raises(ConfigError):
            split_boundaries(10, ratios)
    with pytest.raises(DataError, match="val split is empty"):
        split_boundaries(10, (0.99, 0.005, 0.005))  # nonzero ratios with empty splits
    with pytest.raises(DataError, match="training split may not be empty"):
        split_boundaries(10, (0.0, 0.5, 0.5))


def test_zscore_basic():
    zs = zscore_fit(np.array([[0.0, 2.0]]), ["n0"])
    assert_allclose(zs.mean, [1.0])
    assert_allclose(zs.std, [1.0])
    assert_allclose(zs.transform(np.array([[0.0, 2.0]])), [[-1.0, 1.0]])


def test_zscore_constant_channel_floored():
    with pytest.warns(UserWarning, match="'flat'"):
        zs = zscore_fit(np.full((1, 3), 3.0), ["flat"])
    transformed = zs.transform(np.full((1, 3), 3.0))
    assert_allclose(transformed, np.zeros((1, 3)))


def test_zscore_round_trip():
    # a run takes residuals to original units as (transform(a) - transform(b))
    # * std, where the node means cancel: that must equal a - b
    rng = np.random.default_rng(5)
    values = rng.normal(size=(3, 40)) * 7 + 2
    other = values + rng.normal(size=(3, 40))
    b_train, _ = split_boundaries(40, (0.7, 0.1, 0.2))
    zs = zscore_fit(values[:, :b_train], ["a", "b", "c"])
    back = (zs.transform(values) - zs.transform(other)) * zs.std[:, np.newaxis]
    assert np.max(np.abs(back - (values - other))) <= 1e-10


def test_window_counts():
    fw = train_windows(np.arange(24, dtype=float)[None, :], p=12, q=12)
    assert len(fw) == 1

    fw2 = train_windows(np.arange(25, dtype=float)[None, :], p=12, q=12)
    assert len(fw2) == 2

    fw3 = train_windows(np.random.default_rng(0).normal(size=(3, 30)), p=12, q=12)
    assert len(fw3) == (30 - 24 + 1) * 3
    assert np.array_equal(fw3.anchors, np.arange(11, 30 - 12))


def test_window_channel_contract_with_embedding():
    values = np.random.default_rng(2).normal(size=(1, 40))
    lams = np.array([np.exp(1j * 0.3), np.exp(1j * 0.07)])
    emb = build_embedding(lams, 60)
    fw = train_windows(values, p=12, q=12, embedding=emb)
    assert window_rows.history(fw).shape == (len(fw), 12)
    # a view of the table rows of the split's 40 steps
    assert fw.covariates.shape == (40, 4) and np.shares_memory(fw.covariates, emb.table)
    assert fw.layout == (12, 5, 4)


def test_windows_too_short_split():
    with pytest.raises(DataError):
        train_windows(np.arange(20, dtype=float)[None, :], p=12, q=12)


def test_ridge_fits_sinusoid_from_lags():
    fw = train_windows(sine_signal(), p=12, q=12)
    model = fit_ridge(fw, l2=1e-8)
    preds = predict(model, fw)
    rmse = np.sqrt(np.mean((preds - window_rows.target(fw)) ** 2))
    assert rmse <= 1e-4


def test_ridge_zero_targets_zero_weights():
    # zero signal would break z-scoring; build windows directly on zeros
    fw = train_windows(np.zeros((1, 40)), p=6, q=4)
    model = fit_ridge(fw, l2=0.5)
    assert np.max(np.abs(model.weights)) == 0.0


def test_ridge_large_l2_shrinks_predictions():
    fw = train_windows(sine_signal(120), p=12, q=12)
    model = fit_ridge(fw, l2=1e9)
    preds = predict(model, fw)
    assert np.max(np.abs(preds)) <= 1e-6


def test_ridge_determinism_and_normal_equations():
    rng = np.random.default_rng(9)
    values = rng.normal(size=(2, 60))
    fw = train_windows(values, p=8, q=4)
    m1 = fit_ridge(fw, l2=1e-3)
    m2 = fit_ridge(fw, l2=1e-3)
    assert np.array_equal(m1.weights, m2.weights)
    ref = loop_windows(values, {"train": (0, 60)}, p=8, q=4)["train"]
    x = ref["features"]
    y = ref["target"]
    lhs = (x.T @ x + 1e-3 * np.eye(x.shape[1])) @ m1.weights
    rhs = x.T @ y
    assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(rhs)


def test_predict_layout_mismatch():
    fw_a = train_windows(sine_signal(100), p=12, q=12)
    fw_b = train_windows(sine_signal(100), p=6, q=12)
    model = fit_ridge(fw_a, l2=1e-3)
    with pytest.raises(DataError):
        predict(model, fw_b)


def test_predict_empty_windows():
    model = RidgeModel(weights=np.zeros((3, 2)), feature_layout=(3, 1, 0))
    # a split of no nodes: one anchor, no windows
    empty = make_windows(np.zeros((0, 5)), {"test": (0, 5)}, p=3, q=2)["test"]
    assert isinstance(empty, ForecastWindows) and len(empty) == 0
    out = predict(model, empty)
    assert out.size == 0


def test_evaluate_exact_examples():
    perfect = evaluate(np.array([[1.0, 2.0]]) - np.array([[1.0, 2.0]]))
    assert perfect.overall_mae == 0.0 and perfect.overall_rmse == 0.0

    off = evaluate(np.array([[1.0, 1.0]]) - np.array([[0.0, 0.0]]))
    assert off.overall_mae == 1.0 and off.overall_rmse == 1.0

    masked = evaluate(
        np.array([[0.0, 0.0]]) - np.array([[0.0, 4.0]]),
        mask=np.array([[True, False]]),
    )
    assert masked.overall_mae == 0.0
    assert masked.excluded_count == 1


def masked_horizon_means(resid, mask):
    """Per horizon, the reference (MAE, RMSE) of the kept entries of that
    column alone, or (None, None) when none is kept."""
    out = []
    for h in range(resid.shape[-1]):
        kept = resid[..., h][mask[..., h]]
        if kept.size:
            out.append((np.mean(np.abs(kept)), np.sqrt(np.mean(kept**2))))
        else:
            out.append((None, None))
    return out


def test_evaluate_horizon_isolation():
    # targets differing only at horizon 3 must only move the h=3 metric
    q = 12
    preds = np.zeros((5, q))
    targets = np.zeros((5, q))
    targets[:, 2] = 2.0
    report = evaluate(preds - targets)
    assert sorted(report.horizon_mae) == list(range(1, q + 1))
    for h in range(1, q + 1):
        assert report.horizon_mae[h] == report.horizon_rmse[h] == (2.0 if h == 3 else 0.0)
    # and a horizon scores its own kept entries alone, whatever the others hold
    rng = np.random.default_rng(8)
    resid = rng.normal(size=(7, 3, q))
    mask = rng.random(resid.shape) > 0.3
    mask[..., 4] = False
    report = evaluate(resid, mask)
    for h, (mae, rmse) in enumerate(masked_horizon_means(resid, mask), start=1):
        assert report.horizon_mae[h] == pytest.approx(mae, rel=1e-12)
        assert report.horizon_rmse[h] == pytest.approx(rmse, rel=1e-12)
    assert report.horizon_mae[5] is None and report.horizon_rmse[5] is None


def test_evaluate_rmse_dominates_mae():
    rng = np.random.default_rng(3)
    preds = rng.normal(size=(20, 12))
    targets = rng.normal(size=(20, 12))
    report = evaluate(preds - targets)
    for h in report.horizon_mae:
        assert report.horizon_rmse[h] >= report.horizon_mae[h]
    assert report.overall_rmse >= report.overall_mae


def test_evaluate_peak_memory_is_about_one_block():
    # the residual block, and a bounded chunk of it copied with its masked
    # entries zeroed, whose absolute value is taken in place: 1.09 blocks,
    # where a copy of every kept entry took 1.95
    rng = np.random.default_rng(0)
    shape = (2000, 64, 12)
    preds, targets = rng.normal(size=shape), rng.normal(size=shape)
    mask = rng.random(shape) > 0.05
    tracemalloc.start()
    try:
        evaluate(preds - targets, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * preds.nbytes


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_evaluate_in_chunks_matches_whole_block_means(data):
    # a chunk of a few leading rows at a time, against one mean over the
    # kept entries of the whole block and of each horizon's column; the
    # sums differ only in order
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
    shape = (data.draw(st.integers(1, 30)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12)))
    resid = rng.normal(size=shape)
    mask = rng.random(shape) > 0.2
    mask.flat[0] = True
    with mock.patch.object(forecaster, "CHUNK_ELEMENTS", data.draw(st.integers(1, 50))):
        report = evaluate(resid, mask)
    assert report.overall_mae == pytest.approx(np.mean(np.abs(resid[mask])), rel=1e-12)
    assert report.overall_rmse == pytest.approx(np.sqrt(np.mean(resid[mask] ** 2)), rel=1e-12)
    assert sorted(report.horizon_mae) == list(range(1, shape[2] + 1))
    for h, (mae, rmse) in enumerate(masked_horizon_means(resid, mask), start=1):
        assert report.horizon_mae[h] == (mae if mae is None else pytest.approx(mae, rel=1e-12))
        assert report.horizon_rmse[h] == (rmse if rmse is None else pytest.approx(rmse, rel=1e-12))
    assert report.excluded_count == int((~mask).sum())


def test_evaluate_all_masked_raises():
    with pytest.raises(DataError):
        evaluate(np.zeros((1, 2)) - np.zeros((1, 2)), mask=np.zeros((1, 2), bool))


def test_metrics_json_keys():
    import json
    for q in (12, 3):
        report = evaluate(np.zeros((2, q)) - np.ones((2, q)))
        payload = json.loads(report.to_json())
        assert set(payload["horizons"]) == {str(h) for h in range(1, q + 1)}
        assert payload["excluded_count"] == 0


def test_covariate_null_test():
    # an all-zeros embedding block changes nothing under l2 > 0
    rng = np.random.default_rng(4)
    plain = train_windows(rng.normal(size=(2, 80)), p=8, q=4)
    zeroed = dataclasses.replace(plain, covariates=np.zeros((80, 2)))
    m_plain = fit_ridge(plain, l2=1e-3)
    m_zero = fit_ridge(zeroed, l2=1e-3)
    p_plain = predict(m_plain, plain)
    p_zero = predict(m_zero, zeroed)
    assert np.max(np.abs(p_plain - p_zero)) <= 1e-10


def test_window_masks_and_nodes_helpers():
    rng = np.random.default_rng(6)
    mask = np.ones((2, 40), bool)
    mask[1, 30] = False
    fw = train_windows(rng.normal(size=(2, 40)), p=8, q=4, exclusion_mask=mask)
    assert window_rows.mask(fw).shape == (len(fw), 4)
    assert fw.n_nodes == 2
    # windows are anchor-major and node-minor
    node = np.tile(np.arange(2), fw.anchors.size)
    anchor = np.repeat(fw.anchors, 2)
    # the masked step 30 appears in windows of node 1 whose target range covers it
    hit = (node == 1) & (anchor + 1 <= 30) & (30 <= anchor + 4)
    assert hit.any() and not window_rows.mask(fw)[hit].all()
