import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed import linalg
from dmdembed.errors import EmptySpectrumError
from dmdembed.linalg import (
    KRYLOV_BLOCK,
    RITZ_GROWTH,
    RITZ_TOL,
    CepThreshold,
    FixedRank,
    GramProduct,
    dense_eig,
    gram_spectrum,
    leading_spectrum,
    resolve_rank,
)

from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.synthetic import SyntheticSpec

from hankel_oracle import gram_product, snapshot_svd


def test_snapshot_svd_identity_gram():
    h = np.eye(3)
    out = snapshot_svd(gram_product(h.T @ h), h, FixedRank(3))
    assert_allclose(out.singular_values, [1.0, 1.0, 1.0])
    assert out.left_vectors.shape == (3, 3)
    assert out.right_vectors.shape == (3, 3)


def test_snapshot_svd_diagonal():
    h = np.diag([3.0, 2.0])
    out = snapshot_svd(gram_product(h.T @ h), h, FixedRank(2))
    assert_allclose(out.singular_values, [3.0, 2.0])


def test_snapshot_svd_matches_dense_svd():
    rng = np.random.default_rng(42)
    h = rng.normal(size=(6, 4))
    out = snapshot_svd(gram_product(h.T @ h), h, FixedRank(4))
    rebuilt = out.left_vectors @ np.diag(out.singular_values) @ out.right_vectors.T
    assert np.linalg.norm(rebuilt - h) <= 1e-8 * np.linalg.norm(h)
    u_ref, s_ref, vt_ref = np.linalg.svd(h, full_matrices=False)
    assert_allclose(out.singular_values, s_ref, rtol=1e-8)
    for j in range(4):
        # factors match up to a shared per-column sign
        sign = np.sign(out.left_vectors[:, j] @ u_ref[:, j])
        assert_allclose(out.left_vectors[:, j], sign * u_ref[:, j], atol=1e-8)
        assert_allclose(out.right_vectors[:, j], sign * vt_ref[j], atol=1e-8)


def test_snapshot_svd_orthonormal_columns():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(20, 12))
    out = snapshot_svd(gram_product(h.T @ h), h, FixedRank(12))
    for g in (out.left_vectors, out.right_vectors):
        assert np.linalg.norm(g.T @ g - np.eye(g.shape[1])) <= 1e-8


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_snapshot_svd_subspace_agreement(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(5, 24))
    cols = int(rng.integers(3, min(rows, 16) + 1))
    h = rng.normal(size=(rows, cols))
    out = snapshot_svd(gram_product(h.T @ h), h, FixedRank(cols))
    _, s_ref, vt_ref = np.linalg.svd(h, full_matrices=False)
    assert_allclose(out.singular_values, s_ref[: out.rank], rtol=1e-8)
    # principal angles between right subspaces
    overlap = np.linalg.svd(out.right_vectors.T @ vt_ref[: out.rank].T, compute_uv=False)
    assert np.all(np.abs(overlap - 1.0) <= 1e-8)


def test_snapshot_svd_truncates_numerical_rank():
    h = np.outer(np.arange(1.0, 5.0), np.ones(3))
    out = snapshot_svd(gram_product(h.T @ h), h, FixedRank(3))
    assert out.rank == 1
    assert out.spectrum.size == 3


def test_snapshot_svd_errors():
    h = np.eye(2)
    with pytest.raises(ValueError):
        snapshot_svd(gram_product(h), h, FixedRank(0))
    with pytest.raises(ValueError):
        snapshot_svd(gram_product(np.array([[1.0, 2.0], [0.0, 1.0]])), h, FixedRank(1))
    zero = np.zeros((3, 3))
    with pytest.raises(EmptySpectrumError):
        snapshot_svd(gram_product(zero), np.zeros((5, 3)), FixedRank(2))


def test_snapshot_svd_takes_a_rank_policy():
    rng = np.random.default_rng(17)
    h = rng.normal(size=(10, 6))
    cep = snapshot_svd(gram_product(h.T @ h), h, CepThreshold(0.6))
    whole = (float(np.sum(cep.spectrum**2)), cep.spectrum.size)
    assert cep.rank == resolve_rank(cep.spectrum, CepThreshold(0.6), *whole)
    assert 1 <= cep.rank < 6


def test_gram_spectrum_tie_break_stable():
    sigma, _ = gram_spectrum(np.eye(4))
    assert_allclose(sigma, np.ones(4))


def test_dense_eig_rotation():
    theta = 2 * math.pi / 24
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    eigenvalues, _ = dense_eig(rot)
    expected = np.array([
        complex(0.9659258262890683, 0.25881904510252074),
        complex(0.9659258262890683, -0.25881904510252074),
    ])
    assert_allclose(eigenvalues, expected, atol=1e-12)


def test_dense_eig_identity_and_diagonal():
    assert_allclose(dense_eig(np.eye(3))[0], np.ones(3))
    assert_allclose(dense_eig(np.diag([0.9, 0.5]))[0], [0.9, 0.5])


def test_dense_eig_residuals_and_ordering():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    eigenvalues, eigenvectors = dense_eig(m)
    for lam, vec in zip(eigenvalues, eigenvectors.T):
        assert np.linalg.norm(m @ vec - lam * vec) <= 1e-8 * np.linalg.norm(vec)
    mods = np.abs(eigenvalues)
    assert np.all(np.diff(mods) <= 1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_dense_eig_conjugate_closure(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(5, 5))
    eigs, _ = dense_eig(m)
    remaining = list(eigs)
    for lam in eigs:
        match = min(remaining, key=lambda z: abs(z - np.conj(lam)))
        assert abs(match - np.conj(lam)) <= 1e-10
        remaining.remove(match)


def test_dense_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        dense_eig(np.array([[1.0, np.nan], [0.0, 1.0]]))


def low_rank_plus_noise(rng):
    """A tall matrix with a few strong singular values over a noise floor."""
    rows, cols = int(rng.integers(40, 160)), int(rng.integers(30, 120))
    k = int(rng.integers(1, 8))
    u = np.linalg.qr(rng.normal(size=(rows, k)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, k)))[0]
    signal = (u * np.sort(rng.uniform(1.0, 10.0, k))[::-1]) @ v.T
    noise = 10 ** rng.uniform(-3, -1) * rng.normal(size=(rows, cols)) / np.sqrt(rows)
    return signal + noise, k


def as_product(h):
    return GramProduct(lambda x: h.T @ (h @ x), h.shape[1], float(np.sum(h * h)))


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=40, deadline=None)
def test_product_snapshot_svd_matches_dense_svd(seed, use_cep):
    # Through Gram products only, on low-rank-plus-noise matrices: fixed
    # ranks reach into the noise floor, cep fractions are resolved
    # against the exact trace. Same rank, singular values and subspaces
    # as the dense SVD; subspaces are compared through the gap to the
    # next singular value, which bounds how well they are defined.
    rng = np.random.default_rng(seed)
    h, k = low_rank_plus_noise(rng)
    if use_cep:
        policy = CepThreshold(float(rng.uniform(0.5, 0.999)))
    else:
        policy = FixedRank(int(rng.integers(1, k + 10)))
    out = snapshot_svd(as_product(h), h, policy)
    _, s_ref, vt_ref = np.linalg.svd(h, full_matrices=False)
    assert out.rank == resolve_rank(s_ref, policy, float(np.sum(s_ref**2)), h.shape[1])
    r = out.rank
    assert np.max(np.abs(out.singular_values - s_ref[:r])) <= 1e-10 * s_ref[0]
    ref = vt_ref[:r].T
    distance = np.linalg.norm(out.right_vectors - ref @ (ref.T @ out.right_vectors), 2)
    gap = (s_ref[r - 1] ** 2 - s_ref[r] ** 2) / s_ref[0] ** 2 if r < s_ref.size else 1.0
    assert distance * gap <= 1e-11


@given(st.integers(0, 10_000), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_snapshot_svd_takes_ht_left_from_the_gram_images(seed, use_product, use_cep):
    # H^T U = G V diag(1/sigma) for any V, converged or not: the solver's
    # Gram images give the dense H^T @ U, through a dense Gram and through
    # Gram products alike, so a fit forms no left vectors. A column's
    # round-off is that of G V, about eps * sigma_1^2, scaled by 1 / sigma_j.
    rng = np.random.default_rng(seed)
    h, k = low_rank_plus_noise(rng)
    if use_cep:
        policy = CepThreshold(float(rng.uniform(0.5, 0.999)))
    else:
        policy = FixedRank(int(rng.integers(1, k + 10)))
    gram = as_product(h) if use_product else gram_product(h.T @ h)
    out = snapshot_svd(gram, h, policy)
    want = h.T @ out.left_vectors
    sigma = out.singular_values
    ht_left = out.images / sigma
    assert ht_left.shape == want.shape == (h.shape[1], out.rank)
    err = np.max(np.abs(ht_left - want), axis=0)
    assert np.all(err <= 1e-13 * sigma[0] ** 2 / sigma)


def test_product_snapshot_svd_reports_its_solve():
    rng = np.random.default_rng(8)
    h, _ = low_rank_plus_noise(rng)
    h = np.hstack([h, h])  # 2x the columns, still a few strong values
    out = snapshot_svd(as_product(h), h, CepThreshold(0.9))
    solve = out.solve
    assert solve.order == h.shape[1]
    assert solve.total_energy == pytest.approx(np.sum(h * h))
    assert out.rank <= out.spectrum.size <= solve.basis < solve.order
    assert solve.basis <= solve.products * KRYLOV_BLOCK
    assert solve.residual <= RITZ_TOL
    # the kept pairs are Gram eigenpairs to the reported residual
    g = h.T @ h
    v, theta = out.right_vectors, out.singular_values**2
    assert np.max(np.linalg.norm(g @ v - v * theta, axis=0)) <= 2 * RITZ_TOL * theta[0]


def exactly_low_rank(rng):
    """A wide matrix of a few exact singular values: its Gram's range is
    spanned after a few blocks, and a remainder after that deflates."""
    rank, cols = int(rng.integers(1, 7)), int(rng.integers(10, 80))
    u = np.linalg.qr(rng.normal(size=(rank + int(rng.integers(0, 20)), rank)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, rank)))[0]
    return (u * np.sort(rng.uniform(1.0, 10.0, rank))[::-1]) @ v.T, rank


@given(st.integers(0, 10_000), st.sampled_from(["noisy", "deficient", "whole"]), st.booleans())
@example(186, "noisy", False)  # 41 x 79 at fixed:7: two remainders deflate
@settings(max_examples=60, deadline=None)
def test_leading_spectrum_against_a_dense_gram(seed, kind, use_cep):
    # The residuals and images come off the last remainder and the
    # projected matrix, not off images of the basis rows: checked here
    # against the formed Gram, through products of h, on
    # low-rank-plus-noise matrices, on exactly low-rank ones whose
    # remainders deflate, and on small ones whose basis reaches the order.
    rng = np.random.default_rng(seed)
    if kind == "whole":
        # at a fixed rank of the order, the first Ritz check needs all of it
        h = rng.normal(size=(int(rng.integers(3, 30)), int(rng.integers(1, 13))))
        policy = FixedRank(h.shape[1])
    else:
        h, k = low_rank_plus_noise(rng) if kind == "noisy" else exactly_low_rank(rng)
        if use_cep:
            policy = CepThreshold(float(rng.uniform(0.5, 0.999)))
        else:
            policy = FixedRank(int(rng.integers(1, k + 10)))
    g = h.T @ h
    columns = []

    def product(x):
        columns.append(x.shape[1])
        return h.T @ (h @ x)

    spectrum, v, images, solve = leading_spectrum(GramProduct(product, h.shape[1], float(np.sum(h * h))), policy)
    theta = spectrum[: v.shape[1]] ** 2
    assert sum(columns) == solve.basis and len(columns) == solve.products
    if kind == "whole":
        assert solve.basis == solve.order
    assert np.all(np.linalg.norm(g @ v - v * theta, axis=0) <= RITZ_TOL * theta[0])
    assert np.max(np.abs(images - g @ v)) <= 1e-13 * theta[0]


def test_an_asymmetric_operator_is_refused():
    # No image of a basis row is kept: the projected matrix takes each
    # block's coefficients below the diagonal and the factor that made
    # the block above it, and gram_spectrum holds them to its tolerance.
    rng = np.random.default_rng(4)
    a = rng.normal(size=(40, 40))
    g = a @ a.T + 1e-6 * np.triu(a, 1)
    with pytest.raises(ValueError, match="asymmetric"):
        leading_spectrum(GramProduct(lambda x: g @ x, 40, float(np.trace(g))), FixedRank(4))


@pytest.mark.parametrize("mult", [3, 4, 6])
def test_repeated_leading_eigenvalue_is_found_in_full(mult):
    # The leading eigenvalue is repeated more times than a Krylov block
    # holds, over a fast-decaying tail, so the solve converges early;
    # every copy must still be found.
    n = 120
    rng = np.random.default_rng(mult)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    evals = np.concatenate([np.full(mult, 5.0), 4.0 * 0.5 ** np.arange(n - mult)])
    g = (q * evals) @ q.T
    g = 0.5 * (g + g.T)
    product = GramProduct(lambda x: g @ x, n, float(np.sum(evals)))
    sigma, _, _, solve = leading_spectrum(product, FixedRank(mult + 2))
    assert mult > KRYLOV_BLOCK and solve.basis < n
    want = np.linalg.eigvalsh(g)[::-1][: mult + 2]
    assert_allclose(sigma[: mult + 2] ** 2, want, rtol=1e-12)


def test_krylov_arrays_are_sized_by_the_ritz_checks(monkeypatch, tmp_path):
    # A1 at 8 x 2016, rank fixed:24: before each Ritz check the basis q
    # and the projected matrix regrow once, to exactly the basis that the
    # check reads, so the final arrays hold the final basis. The checks
    # fall on the RITZ_GROWTH schedule until the residuals of the last
    # two predict convergence sooner: after 138 the last check comes at
    # 164, where the schedule put it at 174.
    events = []

    def grown(q, projected, m, size):
        projected = original_grown(q, projected, m, size)
        events.append(("grow", q.shape[0], projected.shape[0]))
        return projected

    def spectrum(projected):
        events.append(("check", projected.shape[0]))
        return original_spectrum(projected)

    original_grown, original_spectrum = linalg._grown, linalg.gram_spectrum
    monkeypatch.setattr(linalg, "_grown", grown)
    monkeypatch.setattr(linalg, "gram_spectrum", spectrum)
    cfg = PipelineConfig(synthetic=SyntheticSpec(noise=0.1, seed=1), rank="fixed:24",
                         output_dir=str(tmp_path / "run"), seed=1)
    out = run_pipeline(cfg, until="fit")
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    checks = [e[1] for e in events if e[0] == "check"]
    assert checks == [26, 34, 44, 56, 70, 88, 110, 138, 164]
    assert resolved["svd_basis"] == checks[-1] and resolved["svd_checks"] == len(checks)
    # each interval between checks regrows both arrays once
    assert events == [e for size in checks for e in [("grow", size, size), ("check", size)]]


def dense_test_spectrum(rng, kind):
    """Eigenvalues of a dense test Gram: clustered (a few tight groups
    over a small tail), deflating (a few positive values and exact
    zeros, so the Krylov space runs out) or geometrically decaying."""
    n = int(rng.integers(6, 120))
    if kind == "clustered":
        sizes = rng.integers(1, 5, size=int(rng.integers(1, 5)))
        centers = np.repeat(0.6 ** np.arange(sizes.size), sizes)
        head = centers * (1.0 + 10 ** rng.uniform(-10, -6) * rng.normal(size=centers.size))
        return np.concatenate([head, 1e-3 * rng.uniform(size=max(n - head.size, 0))])[:n]
    if kind == "deflating":
        head = rng.uniform(0.1, 1.0, size=min(int(rng.integers(1, 9)), n))
        return np.concatenate([head, np.zeros(n - head.size)])
    return 0.8 ** np.arange(n) * rng.uniform(0.5, 1.0, size=n)


@given(st.integers(0, 10_000), st.sampled_from(["clustered", "deflating", "decaying"]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_each_ritz_check_follows_the_last_by_a_block_to_the_growth_cap(seed, kind, use_cep):
    # Each check goes where the last two checks' residuals predict
    # convergence, but never sooner than a block after the last and never
    # later than the RITZ_GROWTH schedule, in whole blocks, would put it
    # (or the rank plus a block, or the order, when that decides).
    rng = np.random.default_rng(seed)
    evals = dense_test_spectrum(rng, kind)
    n = evals.size
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    g = (q * evals) @ q.T
    g = 0.5 * (g + g.T)
    policy = CepThreshold(float(rng.uniform(0.5, 0.999))) if use_cep else FixedRank(int(rng.integers(1, 10)))
    events = []

    def spectrum(projected):
        events.append(projected.shape[0])
        return original_spectrum(projected)

    def rank(*args):
        events.append(original_rank(*args))
        return events[-1]

    original_spectrum, original_rank = linalg.gram_spectrum, linalg.resolve_rank
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "gram_spectrum", spectrum)
        patch.setattr(linalg, "resolve_rank", rank)
        _, _, _, solve = leading_spectrum(GramProduct(lambda x: g @ x, n, float(np.sum(evals))), policy)
    checks, ranks = events[0::2], events[1::2]
    assert solve.checks == len(checks) and solve.basis == checks[-1]
    for m, r, later in zip(checks, ranks, checks[1:]):
        cap = max(math.ceil(RITZ_GROWTH * m), r + KRYLOV_BLOCK)
        assert min(m + KRYLOV_BLOCK, n) <= later <= min(KRYLOV_BLOCK * math.ceil(cap / KRYLOV_BLOCK), n)
