import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed.embedding import build_embedding
from dmdembed.errors import DataError
from dmdembed.forecaster import (
    ForecastWindows,
    RidgeModel,
    evaluate,
    fit_ridge,
    make_splits,
    make_windows,
    predict,
    zscore_fit,
    zscore_fit_apply,
)
from dmdembed.hankel import SignalMatrix


def signal(values, **kw):
    return SignalMatrix.from_values(np.asarray(values, dtype=float), **kw)


def loop_windows(splits, p, q, embedding=None, exclusion_mask=None):
    """Reference builder: one (anchor, node) window at a time, anchor-major.

    Per split it returns the stacked window fields and the feature matrix
    made by concatenating each window's flattened history and future rows.
    """
    out = {}
    for part in splits.parts():
        sig = part.signal
        n, t = sig.values.shape
        if t < p + q:
            raise DataError(f"{part.name} split has {t} steps, needs at least P+Q={p + q}")
        wins = []
        for local_anchor in range(p - 1, t - q):
            anchor = part.start + local_anchor
            for node in range(n):
                hist = sig.values[node, local_anchor - p + 1 : local_anchor + 1][:, None]
                target = sig.values[node, local_anchor + 1 : local_anchor + q + 1]
                if exclusion_mask is not None:
                    tmask = exclusion_mask[node, anchor + 1 : anchor + q + 1]
                else:
                    tmask = np.ones(q, dtype=bool)
                fut = np.zeros((q, 0))
                if embedding is not None:
                    hist = np.hstack([hist, embedding.rows(np.arange(anchor - p + 1, anchor + 1))])
                    fut = embedding.rows(np.arange(anchor + 1, anchor + q + 1))
                wins.append((hist, fut, target, tmask, node, anchor))
        hist, fut, target, tmask, node, anchor = zip(*wins)
        out[part.name] = {
            "history": np.stack(hist),
            "future": np.stack(fut),
            "target": np.stack(target),
            "mask": np.stack(tmask),
            "node": np.array(node),
            "anchor": np.array(anchor),
            "features": np.vstack([np.concatenate([h.ravel(), f.ravel()])
                                   for h, f in zip(hist, fut)]),
        }
    return out


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
    p, q, c = fw.history.shape[1], fw.target.shape[1], fw.covariates.shape[2]
    blocks = np.hstack([fw.history, np.repeat(fw.covariate_features(), fw.n_nodes, axis=0)])
    return blocks[:, dense_order(p, q, c)]


def first_window_error(splits, p, q, span):
    """The DataError message of the first split, in order, that is shorter
    than P+Q or touches a step outside the embedding span [start, end)."""
    for part in splits.parts():
        t = part.signal.n_steps
        if t < p + q:
            return f"{part.name} split has {t} steps, needs at least P+Q={p + q}"
        if span is not None and part.start < span[0]:
            return f"embedding does not cover absolute step {part.start}"
        if span is not None and part.start + t > span[1]:
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
    splits = make_splits(signal(values), tuple(size / t for size in sizes))
    assert splits.boundaries == (sizes[0], sizes[0] + sizes[1])
    n_modes = data.draw(st.one_of(st.none(), st.integers(0, 3)), label="modes")
    emb = span = None
    if n_modes is not None:
        angles = data.draw(st.lists(st.floats(0.0, np.pi), min_size=n_modes, max_size=n_modes))
        if data.draw(st.booleans(), label="random span"):
            start = data.draw(st.integers(0, 3), label="span start")
            end = data.draw(st.integers(start + 1, start + t), label="span end")
        else:
            start, end = 0, t + data.draw(st.integers(0, 3), label="extra steps")
        span = (start, end)
        emb = build_embedding(np.exp(1j * np.array(angles)), span=span)

    expected = outcome(loop_windows, splits, p, q, emb, exclusion)
    actual = outcome(make_windows, splits, p, q, embedding=emb, exclusion_mask=exclusion)
    error = first_window_error(splits, p, q, span)
    if error is not None:
        assert expected == actual == error
        return
    assert list(actual) == list(expected)
    for name, fw in actual.items():
        ref = expected[name]
        assert len(fw) == ref["target"].shape[0]
        # each window's covariate rows are its anchor's, shared by its nodes
        per_window_rows = np.repeat(fw.covariates, fw.n_nodes, axis=0)
        ref_rows = np.concatenate([ref["history"][:, :, 1:], ref["future"]], axis=1)
        for key, got, want in (
            ("history", fw.history, ref["history"][:, :, 0]),
            ("covariates", per_window_rows, ref_rows),
            *((key, getattr(fw, key), ref[key]) for key in ("target", "mask", "node", "anchor")),
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
    t = n_train + n_test
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
    values = rng.normal(size=(n, t))
    blanks = rng.random((n, t)) > 0.3 if data.draw(st.booleans(), label="mask") else None
    angles = data.draw(st.lists(st.floats(0.0, np.pi), min_size=0, max_size=3), label="angles")
    l2 = 10.0 ** data.draw(st.floats(-8.0, 3.0), label="log10 l2")
    emb = build_embedding(np.exp(1j * np.array(angles)), span=(0, t))
    splits = make_splits(signal(values), (n_train / t, 0.0, n_test / t))

    windows = make_windows(splits, p, q, embedding=emb, exclusion_mask=blanks)
    model = fit_ridge(windows["train"], l2=l2)
    preds = predict(model, windows["test"])

    ref = loop_windows(splits, p, q, emb, blanks)
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


def sine_signal(t_steps=200, period=24.0, n_nodes=1):
    t = np.arange(t_steps)
    return signal(np.tile(np.sin(2 * np.pi * t / period), (n_nodes, 1)))


def test_make_splits_default_ratios():
    splits = make_splits(signal(np.random.default_rng(0).normal(size=(2, 100))), (0.7, 0.1, 0.2))
    assert splits.boundaries == (70, 80)
    assert splits.train.signal.n_steps == 70
    assert splits.val.start == 70
    assert splits.test.start == 80
    assert splits.test.signal.n_steps == 20


def test_make_splits_train_only():
    splits = make_splits(signal(np.ones((1, 30)) * np.arange(30)), (1.0, 0.0, 0.0))
    assert splits.val is None and splits.test is None
    assert splits.train.signal.n_steps == 30


def test_make_splits_pems_protocol():
    splits = make_splits(signal(np.random.default_rng(1).normal(size=(1, 240))), (0.6, 0.2, 0.2))
    assert splits.boundaries == (144, 192)


def test_make_splits_validation():
    sig = signal(np.ones((1, 10)) * np.arange(10))
    with pytest.raises(DataError):
        make_splits(sig, (0.5, 0.2, 0.2))
    with pytest.raises(DataError):
        make_splits(sig, (0.99, 0.005, 0.005))  # nonzero ratios with empty splits


def test_zscore_basic():
    zs = zscore_fit(signal([[0.0, 2.0]]))
    assert_allclose(zs.mean, [1.0])
    assert_allclose(zs.std, [1.0])
    assert_allclose(zs.transform(np.array([[0.0, 2.0]])), [[-1.0, 1.0]])


def test_zscore_constant_channel_floored():
    with pytest.warns(UserWarning):
        zs = zscore_fit(signal([[3.0, 3.0, 3.0]]))
    transformed = zs.transform(np.full((1, 3), 3.0))
    assert_allclose(transformed, np.zeros((1, 3)))


def test_zscore_round_trip():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(3, 40)) * 7 + 2
    splits = make_splits(signal(values), (0.7, 0.1, 0.2))
    normalized, zs = zscore_fit_apply(splits)
    # one row per node, as windows carry their node index
    back = zs.inverse_rows(normalized.test.signal.values, np.arange(3))
    assert np.max(np.abs(back - splits.test.signal.values)) <= 1e-10


def test_window_counts():
    sig = signal(np.arange(24, dtype=float)[None, :])
    splits = make_splits(sig, (1.0, 0.0, 0.0))
    fw = make_windows(splits, p=12, q=12)["train"]
    assert len(fw) == 1

    sig2 = signal(np.arange(25, dtype=float)[None, :])
    fw2 = make_windows(make_splits(sig2, (1.0, 0.0, 0.0)), p=12, q=12)["train"]
    assert len(fw2) == 2

    multi = signal(np.random.default_rng(0).normal(size=(3, 30)))
    fw3 = make_windows(make_splits(multi, (1.0, 0.0, 0.0)), p=12, q=12)["train"]
    assert len(fw3) == (30 - 24 + 1) * 3


def test_window_channel_contract_with_embedding():
    sig = signal(np.random.default_rng(2).normal(size=(1, 40)))
    splits = make_splits(sig, (1.0, 0.0, 0.0))
    lams = np.array([np.exp(1j * 0.3), np.exp(1j * 0.07)])
    emb = build_embedding(lams, span=(0, 60))
    fw = make_windows(splits, p=12, q=12, embedding=emb)["train"]
    assert fw.history.shape == (len(fw), 12)
    assert fw.covariates.shape == (len(fw), 12 + 12, 4)  # one node: one window per anchor
    assert fw.layout == (12, 5, 4)


def test_windows_too_short_split():
    sig = signal(np.arange(20, dtype=float)[None, :])
    with pytest.raises(DataError):
        make_windows(make_splits(sig, (1.0, 0.0, 0.0)), p=12, q=12)


def test_ridge_fits_sinusoid_from_lags():
    splits = make_splits(sine_signal(), (1.0, 0.0, 0.0))
    fw = make_windows(splits, p=12, q=12)["train"]
    model = fit_ridge(fw, l2=1e-8)
    preds = predict(model, fw)
    rmse = np.sqrt(np.mean((preds - fw.target) ** 2))
    assert rmse <= 1e-4


def test_ridge_zero_targets_zero_weights():
    splits = make_splits(signal(np.zeros((1, 40)) + 0 * np.arange(40)), (1.0, 0.0, 0.0))
    # zero signal would break z-scoring; build windows directly on zeros
    fw = make_windows(splits, p=6, q=4)["train"]
    model = fit_ridge(fw, l2=0.5)
    assert np.max(np.abs(model.weights)) == 0.0


def test_ridge_large_l2_shrinks_predictions():
    splits = make_splits(sine_signal(120), (1.0, 0.0, 0.0))
    fw = make_windows(splits, p=12, q=12)["train"]
    model = fit_ridge(fw, l2=1e9)
    preds = predict(model, fw)
    assert np.max(np.abs(preds)) <= 1e-6


def test_ridge_determinism_and_normal_equations():
    rng = np.random.default_rng(9)
    splits = make_splits(signal(rng.normal(size=(2, 60))), (1.0, 0.0, 0.0))
    fw = make_windows(splits, p=8, q=4)["train"]
    m1 = fit_ridge(fw, l2=1e-3)
    m2 = fit_ridge(fw, l2=1e-3)
    assert np.array_equal(m1.weights, m2.weights)
    ref = loop_windows(splits, p=8, q=4)["train"]
    x = ref["features"]
    y = ref["target"]
    lhs = (x.T @ x + 1e-3 * np.eye(x.shape[1])) @ m1.weights
    rhs = x.T @ y
    assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(rhs)


def test_predict_layout_mismatch():
    splits = make_splits(sine_signal(100), (1.0, 0.0, 0.0))
    fw_a = make_windows(splits, p=12, q=12)["train"]
    fw_b = make_windows(splits, p=6, q=12)["train"]
    model = fit_ridge(fw_a, l2=1e-3)
    with pytest.raises(DataError):
        predict(model, fw_b)


def test_predict_empty_windows():
    model = RidgeModel(weights=np.zeros((3, 2)), l2=0.0, feature_layout=(3, 1, 0))
    empty = ForecastWindows(
        split="test",
        history=np.zeros((0, 3)),
        covariates=np.zeros((0, 3 + 2, 0)),
        target=np.zeros((0, 2)),
        mask=np.ones((0, 2), bool),
        node=np.zeros(0, int),
        anchor=np.zeros(0, int),
    )
    out = predict(model, empty)
    assert out.size == 0


def test_evaluate_exact_examples():
    perfect = evaluate(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    assert perfect.overall_mae == 0.0 and perfect.overall_rmse == 0.0

    off = evaluate(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
    assert off.overall_mae == 1.0 and off.overall_rmse == 1.0

    masked = evaluate(
        np.array([[0.0, 0.0]]),
        np.array([[0.0, 4.0]]),
        mask=np.array([[True, False]]),
    )
    assert masked.overall_mae == 0.0
    assert masked.excluded_count == 1


def test_evaluate_horizon_isolation():
    # targets differing only at horizon 3 must only move the h=3 metric
    q = 12
    preds = np.zeros((5, q))
    targets = np.zeros((5, q))
    targets[:, 2] = 2.0
    report = evaluate(preds, targets)
    assert report.horizon_mae[3] == 2.0
    assert report.horizon_mae[6] == 0.0
    assert report.horizon_mae[12] == 0.0
    assert report.horizon_rmse[3] >= report.horizon_mae[3]


def test_evaluate_rmse_dominates_mae():
    rng = np.random.default_rng(3)
    preds = rng.normal(size=(20, 12))
    targets = rng.normal(size=(20, 12))
    report = evaluate(preds, targets)
    for h in report.horizon_mae:
        assert report.horizon_rmse[h] >= report.horizon_mae[h]
    assert report.overall_rmse >= report.overall_mae


def test_evaluate_all_masked_raises():
    with pytest.raises(DataError):
        evaluate(np.zeros((1, 2)), np.zeros((1, 2)), mask=np.zeros((1, 2), bool))


def test_metrics_json_keys():
    import json
    report = evaluate(np.zeros((2, 12)), np.ones((2, 12)))
    payload = json.loads(report.to_json())
    assert set(payload["horizons"]) == {"3", "6", "12"}
    assert payload["excluded_count"] == 0


def test_covariate_null_test():
    # an all-zeros embedding block changes nothing under l2 > 0
    rng = np.random.default_rng(4)
    splits = make_splits(signal(rng.normal(size=(2, 80))), (1.0, 0.0, 0.0))
    plain = make_windows(splits, p=8, q=4)["train"]
    zeroed = dataclasses.replace(plain, covariates=np.zeros((len(plain) // 2, 8 + 4, 2)))
    m_plain = fit_ridge(plain, l2=1e-3)
    m_zero = fit_ridge(zeroed, l2=1e-3)
    p_plain = predict(m_plain, plain)
    p_zero = predict(m_zero, zeroed)
    assert np.max(np.abs(p_plain - p_zero)) <= 1e-10


def test_window_masks_and_nodes_helpers():
    rng = np.random.default_rng(6)
    sig = signal(rng.normal(size=(2, 40)))
    mask = np.ones((2, 40), bool)
    mask[1, 30] = False
    splits = make_splits(sig, (1.0, 0.0, 0.0))
    fw = make_windows(splits, p=8, q=4, exclusion_mask=mask)["train"]
    assert fw.mask.shape == (len(fw), 4)
    assert set(fw.node) == {0, 1}
    # the masked step 30 appears in windows of node 1 whose target range covers it
    hit = (fw.node == 1) & (fw.anchor + 1 <= 30) & (30 <= fw.anchor + 4)
    assert hit.any() and not fw.mask[hit].all()
