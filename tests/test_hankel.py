import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed import hankel
from dmdembed.dmd import fit_geometry
from dmdembed.errors import DataError
from dmdembed.hankel import (
    HankelView,
    SignalMatrix,
    apply_tall,
    apply_tall_transpose,
    build_hankel,
    column_energies,
    default_tau,
    fast_length,
    gram,
    impute_linear,
)
from hankel_oracle import dense_gram, materialize_hankel


def test_build_hankel_scalar_example():
    view = build_hankel(np.array([[1.0, 2.0, 3.0, 4.0]]), tau=2)
    assert view.shape == (2, 3)
    assert_allclose(materialize_hankel(view.values, view.tau),
                    [[1, 2, 3], [2, 3, 4]])


def test_build_hankel_tau_one_is_identity():
    z = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    view = build_hankel(z, tau=1)
    assert_allclose(materialize_hankel(view.values, 1), z)


def test_full_depth_view_first_column():
    # deeper than a fit allows: a view for its products alone
    z = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    view = HankelView(z, tau=3)
    h = materialize_hankel(view.values, 3)
    assert h.shape == view.shape == (6, 1)
    assert_allclose(h[:, 0], [1, 10, 2, 20, 3, 30])


def test_build_hankel_element_contract():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2, 5))
    view = build_hankel(z, tau=3)
    h = materialize_hankel(z, 3)
    assert h.shape == view.shape == (6, 3)
    for b in range(3):
        for i in range(2):
            for j in range(3):
                assert h[b * 2 + i, j] == z[i, j + b]


@given(st.integers(2, 60), st.integers(-3, 64))
@settings(max_examples=80, deadline=None)
def test_build_hankel_accepts_exactly_the_fit_range(t, tau):
    # a fit needs two snapshot pairs, T - tau >= 2
    z = np.arange(float(t))[np.newaxis]
    if 1 <= tau <= t - 2:
        assert build_hankel(z, tau).tau == tau
    else:
        with pytest.raises(ValueError, match=re.escape(f"tau must be in [1, {t - 2}], got {tau}")):
            build_hankel(z, tau)


def gram_matrix(view):
    """The Gram assembled column by column from products with the identity."""
    return gram(view, np.eye(view.columns))


def test_gram_identity_and_hand_sum():
    eye = HankelView(np.eye(2), tau=1)
    assert_allclose(dense_gram(np.eye(2), 1), np.eye(2))
    assert_allclose(gram_matrix(eye), np.eye(2), atol=1e-15)
    view = build_hankel(np.array([[1.0, 2.0, 3.0, 4.0]]), tau=2)
    assert dense_gram(view.values, 2)[0, 0] == pytest.approx(5.0)  # 1^2 + 2^2
    assert gram(view, np.eye(3)[:, :1])[0, 0] == pytest.approx(5.0)


def test_gram_matches_materialized():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(3, 8))
    view = build_hankel(z, tau=4)
    h = materialize_hankel(z, 4)
    g = dense_gram(z, 4)
    assert np.max(np.abs(g - h.T @ h)) <= 1e-10
    assert np.array_equal(g, g.T)
    x = rng.normal(size=(5, 3))
    assert np.max(np.abs(gram(view, x) - g @ x)) <= 1e-10


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 9), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_gram_psd_and_oracle(seed, n, t, tau):
    tau = min(tau, t)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, t))
    g = dense_gram(z, tau)
    h = materialize_hankel(z, tau)
    scale = max(1.0, np.max(np.abs(g)))
    assert np.max(np.abs(g - h.T @ h)) <= 1e-10 * scale
    assert np.max(np.abs(gram_matrix(HankelView(z, tau=tau)) - g)) <= 1e-10 * scale
    evals = np.linalg.eigvalsh(g)
    assert evals.min() >= -1e-10 * np.trace(g)


def test_apply_tall_examples():
    view = build_hankel(np.array([[1.0, 2.0, 3.0, 4.0]]), tau=2)
    e0 = np.zeros((3, 1))
    e0[0] = 1.0
    assert_allclose(apply_tall(view, e0), [[1.0], [2.0]])
    assert_allclose(apply_tall(view, np.ones((3, 1))), [[6.0], [9.0]])


def test_apply_tall_matches_dense():
    rng = np.random.default_rng(21)
    z = rng.normal(size=(3, 7))
    view = build_hankel(z, tau=5)
    h = materialize_hankel(z, 5)
    x = rng.normal(size=(3, 4))
    assert np.max(np.abs(apply_tall(view, x) - h @ x)) <= 1e-10
    y = rng.normal(size=(15, 2))
    assert np.max(np.abs(apply_tall_transpose(view, y) - h.T @ y)) <= 1e-10


def test_apply_tall_dimension_mismatch():
    view = build_hankel(np.array([[1.0, 2.0, 3.0, 4.0]]), tau=2)
    with pytest.raises(ValueError):
        apply_tall(view, np.ones((4, 1)))  # T rows, not T - tau + 1
    with pytest.raises(ValueError):
        apply_tall_transpose(view, np.ones((3, 1)))


@pytest.mark.parametrize("product", [apply_tall, apply_tall_transpose, gram])
def test_products_refuse_complex_and_one_dimensional_blocks(product):
    # The products are real and take real 2-D blocks only: a complex
    # block is refused, not cut to its real part.
    view = build_hankel(np.array([[1.0, 2.0, 3.0, 4.0]]), tau=2)
    rows = view.shape[0] if product is apply_tall_transpose else view.columns
    block = np.arange(2.0 * rows).reshape(rows, 2)
    assert product(view, block).shape[1] == 2
    for bad in (block + 1j, block.astype(complex), block[:, 0], block[np.newaxis]):
        with pytest.raises(ValueError, match="real 2-D block"):
            product(view, bad)


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(3, 10), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_cross_gram_matches_dense(seed, n, t, tau):
    # The fit's snapshots against the dense H, the first T - tau columns
    # of the lifting: the tall product, the Gram product and the trace.
    tau = min(tau, t - 2)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, t))
    span = t - tau
    h = materialize_hankel(z, tau)[:, :span]
    snapshots = fit_geometry(build_hankel(z, tau=tau))
    assert snapshots.shape == h.shape
    x = rng.normal(size=(span, 3))
    scale = max(1.0, float(np.max(np.abs(h.T @ h))))
    assert np.max(np.abs(apply_tall(snapshots, x) - h @ x)) <= 1e-10 * scale
    assert np.max(np.abs(gram(snapshots, x) - h.T @ (h @ x))) <= 1e-10 * scale
    assert column_energies(snapshots).sum() == pytest.approx(np.sum(h**2), rel=1e-12)


def test_column_energies_match_gram_diagonal():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(2, 9))
    view = build_hankel(z, tau=4)
    assert_allclose(column_energies(view), np.diag(dense_gram(z, 4)), atol=1e-10)
    assert_allclose(column_energies(view), np.diag(gram_matrix(view)), atol=1e-10)


def test_column_energies_hold_no_squared_copy_of_the_signal():
    # 8 x 200,000 steps: a squared copy of the signal is 12.8 MB, where
    # the per-step sums and their running total are 1.6 MB each
    steps = 200_000
    view = build_hankel(np.random.default_rng(0).normal(size=(8, steps)), tau=24)
    tracemalloc.start()
    try:
        column_energies(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * steps * 8, peak


def test_tau_one_reduces_to_plain_matrix_ops():
    rng = np.random.default_rng(13)
    z = rng.normal(size=(4, 6))
    view = build_hankel(z, tau=1)
    x = rng.normal(size=(6, 2))
    assert_allclose(gram(view, x), z.T @ (z @ x), atol=1e-12)
    assert_allclose(apply_tall(view, x), z @ x, atol=1e-12)


def close(got, want):
    return np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-300)


def check_products(z, tau, k, rng):
    """The FFT tall products and the Gram product against the dense H,
    on all columns of the lifting and on the fit's snapshots, its first
    T - tau columns."""
    n, t = z.shape
    view = HankelView(z, tau=tau)
    h = materialize_hankel(z, tau)
    x = rng.normal(size=(view.columns, k))
    y = rng.normal(size=(n * tau, k))
    assert close(apply_tall(view, x), h @ x)
    assert close(apply_tall_transpose(view, y), h.T @ y)
    assert close(gram(view, x), h.T @ (h @ x))
    # cumulative sums: round-off relative to the total energy
    assert_allclose(column_energies(view), np.sum(h**2, axis=0), rtol=0, atol=1e-12 * np.sum(h**2))
    if t - tau < 2:
        return  # a fit needs two snapshot pairs
    snapshots = fit_geometry(view)
    fit, xs = h[:, : snapshots.columns], x[: snapshots.columns]
    assert close(apply_tall(snapshots, xs), fit @ xs)
    assert close(gram(snapshots, xs), fit.T @ (fit @ xs))
    assert_allclose(column_energies(snapshots), np.sum(fit**2, axis=0), rtol=0,
                    atol=1e-12 * np.sum(fit**2))


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 40), st.integers(1, 40),
       st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_fft_products_match_oracle(seed, n, t, tau, k):
    check_products(np.random.default_rng(seed).normal(size=(n, t)), min(tau, t), k,
                   np.random.default_rng(seed + 1))


@given(st.integers(0, 10_000), st.sampled_from([1411, 4234, 2017]), st.integers(1, 3),
       st.integers(1, 40), st.booleans())
@settings(max_examples=20, deadline=None)
def test_fft_products_match_oracle_at_slow_lengths(seed, t, n, depth, few_columns):
    # Lengths with large prime factors (17 * 83, 2 * 29 * 73 and a
    # prime) are correlated at the next 2*3*5-smooth length; nothing may
    # wrap around. Either tau or the column count stays small so that
    # the dense H does too.
    tau = t + 1 - depth if few_columns else depth
    rng = np.random.default_rng(seed)
    check_products(rng.normal(size=(n, t)), tau, 2, rng)


@pytest.mark.parametrize("k", [1, 2, 9])
def test_chunked_passes_match_the_dense_lifting(monkeypatch, k):
    # A product whose (k, N, F) temporaries FFT_CHUNK_ELEMENTS does not
    # allow is taken over ranges of three nodes: seven nodes make three
    # ranges, and the last one is partial.
    rng = np.random.default_rng(5)
    n, t, tau = 7, 40, 6
    z = rng.normal(size=(n, t))
    view = build_hankel(z, tau=tau)
    monkeypatch.setattr(hankel, "FFT_CHUNK_ELEMENTS", 3 * k * (view.fft_length // 2 + 1) + 1)
    assert hankel._node_ranges(view, k) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    h = materialize_hankel(z, tau)
    x = rng.normal(size=(view.columns, k))
    y = rng.normal(size=(n * tau, k))
    assert close(apply_tall(view, x), h @ x)
    assert close(apply_tall_transpose(view, y), h.T @ y)
    assert close(gram(view, x), h.T @ (h @ x))


def test_gram_temporaries_stay_within_the_chunk_bound(monkeypatch):
    # 64 nodes and F = 1,001 frequencies: one column's (1, N, F) spectra
    # hold 64,064 elements, eight times the patched bound. Taken over
    # ranges of four nodes, a two-column product peaks at about 3.8
    # bounds of 16-byte elements; one column at a time over all nodes,
    # at 16.5.
    view = build_hankel(np.random.default_rng(2).normal(size=(64, 2000)), tau=30)
    bound = 2 * 4 * (view.fft_length // 2 + 1)
    monkeypatch.setattr(hankel, "FFT_CHUNK_ELEMENTS", bound)
    x = np.random.default_rng(3).normal(size=(view.columns, 2))
    view.source_spectrum  # cached before the trace
    tracemalloc.start()
    try:
        gram(view, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 16 * bound, peak


def test_fast_length_is_the_next_smooth_length():
    assert [fast_length(t) for t in (1, 2, 7, 17, 1411, 4234, 2017, 20_000)] == \
        [1, 2, 8, 18, 1440, 4320, 2025, 20_000]
    for t in range(1, 400):
        assert fast_length(t) == next(m for m in range(t, 2 * t + 1)
                                     if set(prime_factors(m)) <= {2, 3, 5})


def prime_factors(m):
    out, p = [], 2
    while m > 1:
        while m % p == 0:
            out.append(p)
            m //= p
        p += 1
    return out


def test_default_tau_policy():
    # max(ceil(2T/N), ceil(T/4)) = 10, capped at T // 2 to keep half
    # the columns as snapshots
    assert default_tau(np.ones((2, 10))) == 5
    assert default_tau(np.ones((2, 600))) == 300
    assert default_tau(np.ones((1, 3))) == 1
    assert default_tau(np.ones((8, 4))) == 1
    # no memory cap: a long series keeps its full depth
    assert default_tau(np.ones((8, 20_000))) == 5_000
    # many nodes: a quarter of the series, not ceil(2T/N) = 59
    assert default_tau(np.ones((48, 1411))) == 353


def test_impute_linear():
    values = np.array([[1.0, 0.0, 3.0, 0.0], [5.0, 6.0, 7.0, 8.0]])
    sig = SignalMatrix(
        values=values.copy(),
        mask=np.array([[True, False, True, False], [True, True, True, True]]),
        node_ids=["a", "b"],
    )
    out = impute_linear(sig)
    assert out is not sig.values
    assert_allclose(out[0], [1.0, 2.0, 3.0, 3.0])  # ends held constant
    assert_allclose(out[1], values[1])
    # the input is left as it was
    assert np.array_equal(sig.values, values)
    assert not sig.mask[0, 1]


def test_impute_linear_returns_a_complete_signal_as_it_is():
    sig = SignalMatrix.from_values(np.arange(6.0).reshape(2, 3))
    assert impute_linear(sig) is sig.values


def test_impute_linear_all_missing_node():
    sig = SignalMatrix(
        values=np.zeros((1, 3)),
        mask=np.zeros((1, 3), dtype=bool),
        node_ids=["a"],
    )
    with pytest.raises(DataError):
        impute_linear(sig)


def test_signal_matrix_validation():
    with pytest.raises(DataError):
        SignalMatrix(values=np.ones((1, 1)), mask=np.ones((1, 1), bool),
                     node_ids=["a"])
    with pytest.raises(DataError):
        SignalMatrix(values=np.ones((1, 3)), mask=np.ones((1, 3), bool),
                     node_ids=["a", "b"])
    with pytest.raises(DataError):
        SignalMatrix(values=np.full((1, 3), np.nan), mask=np.ones((1, 3), bool),
                     node_ids=["a"])


def test_signal_matrix_checks_only_observed_cells_without_copying_them():
    # 64 x 20,000 with 5% unobserved NaN cells: the finiteness check peaks
    # at one boolean array, where a copy of the observed values took 8.6
    # times the mask
    rng = np.random.default_rng(0)
    shape = (64, 20_000)
    mask = rng.random(shape) >= 0.05
    values = np.where(mask, rng.normal(size=shape), np.nan)
    ids = [f"n{i}" for i in range(shape[0])]
    tracemalloc.start()
    try:
        SignalMatrix(values=values, mask=mask, node_ids=ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * mask.nbytes
    values[3, np.argmax(mask[3])] = np.inf
    with pytest.raises(DataError, match="finite"):
        SignalMatrix(values=values, mask=mask, node_ids=ids)
