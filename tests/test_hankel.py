import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed.dmd import _FitGeometry
from dmdembed.errors import DataError
from dmdembed.hankel import (
    SignalMatrix,
    apply_tall,
    apply_tall_transpose,
    build_hankel,
    column_energies,
    default_tau,
    gram,
    impute_linear,
)
from hankel_oracle import materialize_hankel


def signal(values, **kw):
    return SignalMatrix.from_values(np.asarray(values, dtype=float), **kw)


def test_build_hankel_scalar_example():
    view = build_hankel(signal([[1, 2, 3, 4]]), tau=2)
    assert_allclose(materialize_hankel(view.source.values, view.tau),
                    [[1, 2, 3, 4], [2, 3, 4, 1]])


def test_build_hankel_tau_one_is_identity():
    sig = signal([[1, 2, 3], [4, 5, 6]])
    view = build_hankel(sig, tau=1)
    assert_allclose(materialize_hankel(view.source.values, 1), sig.values)


def test_build_hankel_full_depth_first_column():
    z = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    view = build_hankel(signal(z), tau=3)
    h = materialize_hankel(view.source.values, 3)
    assert h.shape == (6, 3)
    assert_allclose(h[:, 0], [1, 10, 2, 20, 3, 30])


def test_build_hankel_element_contract():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2, 5))
    view = build_hankel(signal(z), tau=3)
    h = materialize_hankel(z, 3)
    for b in range(3):
        for i in range(2):
            for j in range(5):
                assert h[b * 2 + i, j] == z[i, (j + b) % 5]


def test_build_hankel_errors():
    sig = signal([[1, 2, 3]])
    with pytest.raises(ValueError):
        build_hankel(sig, tau=0)
    with pytest.raises(ValueError):
        build_hankel(sig, tau=4)
    masked = SignalMatrix(
        values=np.ones((1, 3)),
        mask=np.array([[True, False, True]]),
        node_ids=["a"],
        step_seconds=1.0,
    )
    with pytest.raises(DataError):
        build_hankel(masked, tau=1)


def test_gram_identity_and_hand_sum():
    eye = build_hankel(signal(np.eye(2)), tau=1)
    assert_allclose(gram(eye), np.eye(2))
    view = build_hankel(signal([[1, 2, 3, 4]]), tau=2)
    g = gram(view)
    assert g[0, 0] == pytest.approx(5.0)  # 1^2 + 2^2


def test_gram_matches_materialized():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(3, 8))
    view = build_hankel(signal(z), tau=4)
    h = materialize_hankel(z, 4)
    assert np.max(np.abs(gram(view) - h.T @ h)) <= 1e-10
    assert np.max(np.abs(gram(view) - gram(view).T)) <= 1e-12


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 9), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_gram_psd_and_oracle(seed, n, t, tau):
    tau = min(tau, t)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, t))
    view = build_hankel(signal(z), tau=tau)
    g = gram(view)
    h = materialize_hankel(z, tau)
    assert np.max(np.abs(g - h.T @ h)) <= 1e-10 * max(1.0, np.max(np.abs(g)))
    evals = np.linalg.eigvalsh(g)
    assert evals.min() >= -1e-10 * np.trace(g)


@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 6), st.integers(1, 6),
       st.integers(0, 12))
@settings(max_examples=25, deadline=None)
def test_circulant_closure(seed, n, t, tau, shift):
    # Rolling the signal by s rotates the Gram by s along both axes, so
    # a full turn of T steps gives the Gram back.
    tau = min(tau, t)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, t))
    g = gram(build_hankel(signal(z), tau=tau))
    rolled = gram(build_hankel(signal(np.roll(z, -shift, axis=1)), tau=tau))
    expected = np.roll(np.roll(g, -shift, axis=0), -shift, axis=1)
    assert np.max(np.abs(rolled - expected)) <= 1e-10 * max(1.0, np.max(np.abs(g)))
    full_turn = gram(build_hankel(signal(np.roll(z, -t, axis=1)), tau=tau))
    assert np.array_equal(full_turn, g)


def test_apply_tall_examples():
    view = build_hankel(signal([[1, 2, 3, 4]]), tau=2)
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert_allclose(apply_tall(view, e0), [1.0, 2.0])
    assert_allclose(apply_tall(view, np.ones((4, 1))), [[10.0], [10.0]])


def test_apply_tall_matches_dense():
    rng = np.random.default_rng(21)
    z = rng.normal(size=(3, 7))
    view = build_hankel(signal(z), tau=5)
    h = materialize_hankel(z, 5)
    x = rng.normal(size=(7, 4))
    assert np.max(np.abs(apply_tall(view, x) - h @ x)) <= 1e-10
    y = rng.normal(size=(15, 2))
    assert np.max(np.abs(apply_tall_transpose(view, y) - h.T @ y)) <= 1e-10


def test_apply_tall_dimension_mismatch():
    view = build_hankel(signal([[1, 2, 3, 4]]), tau=2)
    with pytest.raises(ValueError):
        apply_tall(view, np.ones((3, 1)))
    with pytest.raises(ValueError):
        apply_tall_transpose(view, np.ones((3, 1)))


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(3, 10), st.integers(1, 10),
       st.sampled_from(["circulant", "truncated"]))
@settings(max_examples=60, deadline=None)
def test_cross_gram_matches_dense(seed, n, t, tau, fit_window):
    # The fit's Gram blocks against dense H^T H and H^T H', where H' is
    # the lift of the signal shifted one step: the circulant window uses
    # every column, the truncated one the T - tau wrap-free columns.
    tau = min(tau, t if fit_window == "circulant" else t - 2)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, t))
    h = materialize_hankel(z, tau)
    hs = materialize_hankel(np.roll(z, -1, axis=1), tau)
    geo = _FitGeometry(build_hankel(signal(z), tau=tau), fit_window)
    full, fit_gram, cross = geo.grams()
    span = t if fit_window == "circulant" else t - tau
    assert geo.span == span
    scale = max(1.0, float(np.max(np.abs(h.T @ h))))
    assert np.max(np.abs(full - h.T @ h)) <= 1e-10 * scale
    assert np.max(np.abs(fit_gram - (h.T @ h)[:span, :span])) <= 1e-10 * scale
    assert np.max(np.abs(cross - (h.T @ hs)[:span, :span])) <= 1e-10 * scale
    if fit_window == "circulant":
        assert np.array_equal(cross, np.roll(full, -1, axis=1))


def test_column_energies_match_gram_diagonal():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(2, 9))
    view = build_hankel(signal(z), tau=4)
    assert_allclose(column_energies(view), np.diag(gram(view)), atol=1e-10)


def test_tau_one_reduces_to_plain_matrix_ops():
    rng = np.random.default_rng(13)
    z = rng.normal(size=(4, 6))
    view = build_hankel(signal(z), tau=1)
    assert_allclose(gram(view), z.T @ z, atol=1e-12)
    x = rng.normal(size=(6, 2))
    assert_allclose(apply_tall(view, x), z @ x, atol=1e-12)


def test_default_tau_policy():
    sig = signal(np.ones((2, 10)))
    # ceil(2T/N) = 10, capped at T
    assert default_tau(sig) == 10
    wide = signal(np.ones((8, 4)))
    assert default_tau(wide) == 1
    capped = default_tau(signal(np.ones((2, 10))), memory_cap=40)
    assert capped == 2  # 40 // (2*10)


def test_impute_linear():
    sig = SignalMatrix(
        values=np.array([[1.0, 0.0, 3.0, 0.0], [5.0, 6.0, 7.0, 8.0]]),
        mask=np.array([[True, False, True, False], [True, True, True, True]]),
        node_ids=["a", "b"],
        step_seconds=1.0,
    )
    out = impute_linear(sig)
    assert out.mask.all()
    assert_allclose(out.values[0], [1.0, 2.0, 3.0, 3.0])  # ends held constant
    assert_allclose(out.values[1], sig.values[1])


def test_impute_linear_all_missing_node():
    sig = SignalMatrix(
        values=np.zeros((1, 3)),
        mask=np.zeros((1, 3), dtype=bool),
        node_ids=["a"],
        step_seconds=1.0,
    )
    with pytest.raises(DataError):
        impute_linear(sig)


def test_signal_matrix_validation():
    with pytest.raises(DataError):
        SignalMatrix(values=np.ones((1, 1)), mask=np.ones((1, 1), bool),
                     node_ids=["a"], step_seconds=1.0)
    with pytest.raises(DataError):
        SignalMatrix(values=np.ones((1, 3)), mask=np.ones((1, 3), bool),
                     node_ids=["a", "b"], step_seconds=1.0)
    with pytest.raises(DataError):
        SignalMatrix(values=np.full((1, 3), np.nan), mask=np.ones((1, 3), bool),
                     node_ids=["a"], step_seconds=1.0)
