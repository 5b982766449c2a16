import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed import diagnostics
from dmdembed.diagnostics import POOL_DIM, acf, cep_curve, residual_correlation
from dmdembed.errors import DataError


def test_acf_white_noise_bound():
    rng = np.random.default_rng(1234)
    x = rng.normal(size=10_000)
    (report,) = acf(x[:, np.newaxis], max_lag=100)
    inside = np.sum(np.abs(report[1:]) <= 3.0 / np.sqrt(x.size))
    assert inside >= 99
    assert report[0] == 1.0


def test_acf_cosine_peaks_at_period_multiples():
    # A cosine's ACF has local maxima at multiples of its period, where the
    # biased estimate is about (n - lag) / n.
    t = np.arange(1000)
    block = np.column_stack([np.cos(2 * np.pi * t / 72), np.sin(2 * np.pi * t / 72)])
    for report in acf(block, max_lag=150):
        for lag in (72, 144):
            assert report[lag] == np.max(report[lag - 5 : lag + 6])
            assert report[lag] == pytest.approx((t.size - lag) / t.size, abs=0.01)


def test_acf_alternating_series():
    x = np.array([1.0, -1.0] * 50)
    (report,) = acf(x[:, np.newaxis], max_lag=4)
    # biased estimator scales lag k by (n-k)/n
    assert report[1] == pytest.approx(-0.99, abs=1e-12)
    assert report[2] == pytest.approx(0.98, abs=1e-12)


def test_acf_bounded_by_one():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.normal(size=500))
    (report,) = acf(x[:, np.newaxis], max_lag=50)
    assert np.max(np.abs(report)) <= 1.0 + 1e-12


@given(st.integers(0, 10_000), st.floats(-5, 5), st.floats(0.1, 10))
@settings(max_examples=30, deadline=None)
def test_acf_affine_invariance(seed, shift, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(300, 1))
    (base,) = acf(x, max_lag=20)
    (moved,) = acf(scale * x + shift, max_lag=20)
    assert np.max(np.abs(base - moved)) <= 1e-10


def test_acf_errors():
    with pytest.raises(DataError):
        acf(np.ones((50, 1)), max_lag=5)
    with pytest.raises(DataError):
        acf(np.arange(5.0)[:, np.newaxis], max_lag=10)
    with pytest.raises(ValueError):
        acf(np.arange(10.0)[:, np.newaxis], max_lag=0)


def acf_per_column(series, max_lag):
    """One series at a time with np.dot per lag: the per-column reference."""
    x = np.asarray(series, dtype=float)
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for k in range(1, max_lag + 1):
        values[k] = float(np.dot(centered[:-k], centered[k:])) / denom
    return values


@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(2, 300), st.data())
@settings(max_examples=60, deadline=None)
def test_acf_block_matches_per_column_reference(seed, n_columns, n_rows, data):
    max_lag = data.draw(st.integers(1, min(n_rows - 1, 150)))
    rng = np.random.default_rng(seed)
    t = np.arange(n_rows)[:, np.newaxis]
    periods = rng.uniform(2.0, 80.0, size=n_columns)
    wave = np.cos(2 * np.pi * t / periods) + rng.uniform(0, 2) * rng.normal(size=(n_rows, n_columns))
    block = rng.uniform(-50, 50, size=n_columns) + rng.uniform(0.1, 10, size=n_columns) * wave
    reports = acf(block, max_lag)
    assert reports.shape == (n_columns, max_lag + 1)
    for j, report in enumerate(reports):
        values = acf_per_column(block[:, j], max_lag)
        assert report[0] == 1.0
        assert np.max(np.abs(report - values)) <= 1e-13


def test_acf_block_errors():
    rng = np.random.default_rng(4)
    block = rng.normal(size=(40, 3))
    with pytest.raises(ValueError, match="2-D"):
        acf(block[:, 0], max_lag=5)
    with pytest.raises(DataError, match="must exceed max_lag"):
        acf(block, max_lag=40)
    # the first bad column decides the message, as one call per column would
    nonfinite, constant = block.copy(), block.copy()
    nonfinite[7, 1] = np.inf
    nonfinite[:, 2] = 3.0
    constant[:, 1] = 3.0
    constant[7, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        acf(nonfinite, max_lag=5)
    with pytest.raises(DataError, match="constant series"):
        acf(constant, max_lag=5)


def pooled_reference(corr):
    """Each block's largest |entry|, in blocks of ceil(side / POOL_DIM)
    rows and columns; the last block of a side may be short."""
    size_r, size_c = (-(-side // POOL_DIM) for side in corr.shape)
    magnitude = np.abs(corr)
    return np.array([
        [magnitude[i : i + size_r, j : j + size_c].max() for j in range(0, corr.shape[1], size_c)]
        for i in range(0, corr.shape[0], size_r)
    ])


def residual_correlation_lag_zero_reference(resid):
    """Lag 0 with the lead and trail blocks standardized apart."""
    def standardize(block):
        centered = block - block.mean(axis=0)
        scale = np.sqrt(np.mean(centered**2, axis=0))
        floor = 1e-12 * np.maximum(1.0, np.max(np.abs(block), axis=0))
        keep = scale > floor
        out = np.zeros_like(centered)
        out[:, keep] = centered[:, keep] / scale[keep]
        return out, keep

    lead_z, keep_lead = standardize(resid)
    trail_z, keep_trail = standardize(resid.copy())
    keep = keep_lead & keep_trail
    corr = np.clip((lead_z.T @ trail_z) / resid.shape[0], -1.0, 1.0)
    return corr, float(np.mean(np.abs(corr[np.ix_(keep, keep)]))), int((~keep).sum())


# past 2 * POOL_DIM columns, so blocks of up to 4 columns pool, the last
# of them often short
@given(st.integers(0, 2**32 - 1), st.integers(2, 200), st.integers(1, 200), st.data())
@settings(max_examples=60, deadline=None)
def test_residual_correlation_lag_zero_matches_two_standardizations(seed, n_rows, n_columns, data):
    rng = np.random.default_rng(seed)
    resid = rng.normal(size=(n_rows, n_columns)) @ rng.normal(size=(n_columns, n_columns))
    resid += rng.uniform(-100, 100, size=n_columns)
    constant = data.draw(st.lists(st.integers(0, n_columns - 1), max_size=3))
    resid[:, constant] = 2.5
    if len(set(constant)) == n_columns:
        resid[:, 0] = rng.normal(size=n_rows)
    corr, mean_abs, excluded = residual_correlation_lag_zero_reference(resid)
    summary = residual_correlation(resid, lag=0)
    assert np.array_equal(summary.pooled, summary.pooled.T)
    assert np.max(np.abs(summary.pooled - pooled_reference(corr))) <= 1e-13
    assert abs(summary.mean_abs_corr - mean_abs) <= 1e-13
    assert summary.excluded_columns == excluded


def residual_correlation_reference(resid, lag):
    """Each lag's lead and trail rows standardized apart, in two passes."""
    def standardize(block):
        centered = block - block.mean(axis=0)
        scale = np.sqrt(np.mean(centered**2, axis=0))
        floor = 1e-12 * np.maximum(1.0, np.max(np.abs(block), axis=0))
        keep = scale > floor
        out = np.zeros_like(centered)
        out[:, keep] = centered[:, keep] / scale[keep]
        return out, keep

    n = resid.shape[0]
    lead_z, keep_lead = standardize(resid[lag:])
    trail_z, keep_trail = standardize(resid[: n - lag])
    keep = keep_lead & keep_trail
    corr = np.clip((lead_z.T @ trail_z) / (n - lag), -1.0, 1.0)
    mean_abs = float(np.mean(np.abs(corr[np.ix_(keep, keep)]))) if keep.any() else None
    return corr, mean_abs, int((~keep).sum())


# How a column departs from plain noise: none; exactly constant; constant
# up to noise 1e-14 or 1e-6 times its level (clear of the 1e-12 floor on
# either side); constant but for its first rows; or with a level shift a
# million times its noise, so that a lead or trail mean lies far from the
# whole column's.
COLUMN_KINDS = ("noise", "constant", "near 1e-14", "near 1e-6", "spiked head", "level shift")


@given(st.integers(0, 2**32 - 1), st.integers(2, 120), st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_residual_correlation_matches_per_lag_standardization(seed, n_rows, n_columns, data):
    rng = np.random.default_rng(seed)
    resid = rng.normal(size=(n_rows, n_columns)) @ rng.normal(size=(n_columns, n_columns))
    resid += rng.uniform(-100, 100, size=n_columns)
    kinds = data.draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=n_columns, max_size=n_columns))
    for j, kind in enumerate(kinds):
        level = rng.uniform(-100, 100)
        noise = rng.normal(size=n_rows) * max(1.0, abs(level))
        head = rng.integers(1, n_rows) if n_rows > 1 else 1
        if kind == "constant":
            resid[:, j] = level
        elif kind.startswith("near"):
            resid[:, j] = level + float(kind.split()[1]) * noise
        elif kind == "spiked head":
            resid[:, j] = level
            resid[:head, j] = level + noise[:head]
        elif kind == "level shift":
            resid[:, j] = level + 1e-3 * noise
            resid[head:, j] += 1e3 * max(1.0, abs(level))
    with pytest.raises(ValueError, match="nonnegative"):
        residual_correlation(resid, data.draw(st.integers(-n_rows, -1), label="negative lag"))
    lag = data.draw(st.integers(0, n_rows - 2), label="lag")
    corr, mean_abs, excluded = residual_correlation_reference(resid, lag)
    if excluded == n_columns:
        with pytest.raises(DataError, match="zero variance"):
            residual_correlation(resid, lag)
        return
    summary = residual_correlation(resid, lag)
    assert summary.lag == lag
    assert summary.excluded_columns == excluded
    assert np.max(np.abs(summary.pooled - pooled_reference(corr))) <= 1e-12
    assert abs(summary.mean_abs_corr - mean_abs) <= 1e-12
    if lag == 0:
        assert np.array_equal(summary.pooled, summary.pooled.T)


def test_residual_correlation_lag_zero():
    rng = np.random.default_rng(0)
    resid = rng.normal(size=(200, 4))
    summary = residual_correlation(resid, lag=0)
    # four columns pool in blocks of one: the |correlation| matrix itself
    assert summary.pooled.shape == (4, 4)
    assert_allclose(np.diag(summary.pooled), np.ones(4), atol=1e-12)
    single = residual_correlation(rng.normal(size=(100, 1)), lag=0)
    assert single.mean_abs_corr == pytest.approx(1.0)


def test_residual_correlation_independent_noise():
    rng = np.random.default_rng(11)
    resid = rng.normal(size=(10_000, 6))
    summary = residual_correlation(resid, lag=72)
    assert summary.mean_abs_corr <= 0.05


def test_residual_correlation_detects_planted_period():
    rng = np.random.default_rng(5)
    n, d, period = 2000, 5, 72
    noise = rng.normal(size=(n, d))
    planted = noise + 0.8 * np.cos(2 * np.pi * np.arange(n) / period)[:, None]
    with_comp = residual_correlation(planted, lag=period)
    without_comp = residual_correlation(noise, lag=period)
    assert with_comp.mean_abs_corr > without_comp.mean_abs_corr


def test_residual_correlation_refuses_a_negative_lag():
    # a negative lag would only give its positive twin's matrix transposed
    resid = np.random.default_rng(3).normal(size=(300, 3))
    for lag in (-1, -7, -298, -400):
        with pytest.raises(ValueError, match=f"lag must be nonnegative, got {lag}"):
            residual_correlation(resid, lag)


def test_residual_correlation_pools_ragged_blocks():
    # 130 columns pool in blocks of 3: 43 whole blocks and one of a
    # single column
    rng = np.random.default_rng(4)
    resid = rng.normal(size=(400, 130)) @ rng.normal(size=(130, 130))
    for lag in (0, 5):
        corr, _, _ = residual_correlation_reference(resid, lag)
        pooled = residual_correlation(resid, lag).pooled
        assert pooled.shape == (44, 44)
        assert np.max(np.abs(pooled - pooled_reference(corr))) <= 1e-12
        assert pooled.min() >= 0.0 and pooled.max() <= 1.0


def test_residual_correlation_excludes_constant_columns():
    rng = np.random.default_rng(9)
    resid = rng.normal(size=(100, 3))
    resid[:, 1] = 4.2
    summary = residual_correlation(resid, lag=2)
    assert summary.excluded_columns == 1
    assert summary.pooled.shape == (3, 3)
    # the excluded column correlates with nothing
    assert not summary.pooled[1].any() and not summary.pooled[:, 1].any()


def test_residual_correlation_with_a_constant_column_copies_no_matrix():
    # the 2000 x 2000 |corr| matrix, 5 residual blocks, is never held, and
    # the trail rows enter each product raw, in place: the peak is one tile
    # of lead columns and of the matrix, 0.42 times the residual block. A
    # standardized copy of the trail rows took it to 2.33; the excluded
    # column's row and column are zeroed in place in each tile
    rng = np.random.default_rng(6)
    resid = rng.normal(size=(400, 2000))
    resid[:, 17] = 3.0
    for lag in (72, 0):
        tracemalloc.start()
        try:
            summary = residual_correlation(resid, lag=lag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.excluded_columns == 1
        assert peak <= 1.0 * resid.nbytes, f"lag {lag}: peak {peak / resid.nbytes:.2f} blocks"


def tiles_of(patch, columns, elements=1):
    """Set residual_correlation's tile floor to ``columns`` and its tile
    bound to ``elements``, and return the list its tiles append their
    widths to: each tile standardizes its lead columns once."""
    tiles = []

    def counted(block, *stats):
        tiles.append(block.shape[1])
        return standardize(block, *stats)

    standardize = diagnostics._standardize
    patch.setattr(diagnostics, "_standardize", counted)
    patch.setattr(diagnostics, "CORR_TILE_ELEMENTS", elements)
    patch.setattr(diagnostics, "CORR_TILE_COLUMNS", columns)
    return tiles


# 130 to 191 columns pool in blocks of 3, the last one short, and each tile
# holds 1 to 14 of the 44 to 64 blocks: at least 4 tiles. The tile width is
# set by the number of entries or by the width floor.
@given(st.integers(0, 2**32 - 1), st.integers(4, 60),
       st.integers(130, 191).filter(lambda d: d % 3), st.integers(1, 14), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_residual_correlation_tiles_match_the_whole_matrix(seed, n_rows, n_columns, blocks, by_floor, data):
    rng = np.random.default_rng(seed)
    resid = rng.normal(size=(n_rows, n_columns)) @ rng.normal(size=(n_columns, n_columns))
    resid += rng.uniform(-100, 100, size=n_columns)
    lag = data.draw(st.one_of(st.just(0), st.integers(1, n_rows - 2)), label="lag")
    lead_only, trail_only = data.draw(
        st.lists(st.integers(0, n_columns - 1), min_size=2, max_size=2, unique=True), label="constant")
    # constant in the lead rows [lag, n) alone, and in the trail rows [0, n - lag) alone
    resid[lag:, lead_only] = 2.5
    resid[: n_rows - lag, trail_only] = -7.0
    corr, mean_abs, excluded = residual_correlation_reference(resid, lag)
    with pytest.MonkeyPatch.context() as patch:
        if by_floor:
            tiles = tiles_of(patch, columns=3 * blocks - 2)
        else:
            tiles = tiles_of(patch, columns=1, elements=3 * blocks * max(n_rows, n_columns))
        summary = residual_correlation(resid, lag)
    assert len(tiles) >= 4 and tiles[0] == 3 * blocks
    assert summary.excluded_columns == excluded
    assert np.max(np.abs(summary.pooled - pooled_reference(corr))) <= 1e-12
    assert abs(summary.mean_abs_corr - mean_abs) <= 1e-12 * mean_abs
    if lag == 0:
        assert np.array_equal(summary.pooled, summary.pooled.T)


# Columns whose mean is up to 1e8 times their scale in the lead rows
# [lag, n) alone, in the trail rows [0, n - lag) alone, or in both: the
# raw trail product must centre the ones it cannot take raw.
MEAN_PLACES = ("lead", "trail", "both")


@given(st.integers(0, 2**32 - 1), st.integers(4, 80), st.integers(8, 64), st.data())
@settings(max_examples=100, deadline=None)
def test_residual_correlation_keeps_its_digits_under_large_means(seed, n_rows, n_columns, data):
    rng = np.random.default_rng(seed)
    resid = rng.normal(size=(n_rows, n_columns)) @ rng.normal(size=(n_columns, n_columns))
    lag = data.draw(st.one_of(st.just(0), st.integers(1, n_rows - 2)), label="lag")
    columns = data.draw(st.lists(st.integers(0, n_columns - 1), min_size=1, max_size=6, unique=True),
                        label="columns")
    for j in columns:
        place = data.draw(st.sampled_from(MEAN_PLACES), label="place")
        level = data.draw(st.sampled_from((-1.0, 1.0))) * 10 ** data.draw(st.floats(0, 8), label="log level")
        # the other rows stay noise about zero, so that at a lag the other
        # side mixes both and has a scale near the level
        rows = {"lead": slice(lag, None), "trail": slice(0, n_rows - lag), "both": slice(None)}[place]
        resid[rows, j] += level * resid[:, j].std()
    corr, mean_abs, excluded = residual_correlation_reference(resid, lag)
    with pytest.MonkeyPatch.context() as patch:
        tiles = tiles_of(patch, n_columns // 4)
        summary = residual_correlation(resid, lag)
    assert len(tiles) >= 4
    assert summary.excluded_columns == excluded
    assert np.max(np.abs(summary.pooled - pooled_reference(corr))) <= 1e-12
    assert abs(summary.mean_abs_corr - mean_abs) <= 1e-12
    if lag == 0:
        assert np.array_equal(summary.pooled, summary.pooled.T)


def test_residual_correlation_errors():
    with pytest.raises(DataError):
        residual_correlation(np.zeros((5, 2)), lag=5)
    # one aligned pair of rows has no variance to correlate
    with pytest.raises(DataError, match="by at least 2"):
        residual_correlation(np.random.default_rng(0).normal(size=(5, 2)), lag=4)
    with pytest.raises(DataError):
        residual_correlation(np.full((10, 2), 3.0), lag=1)


def test_cep_examples():
    assert_allclose(cep_curve(np.array([1.0]), 1.0, 1).cep, [1.0])
    curve = cep_curve(np.array([3.0, 1.0]), 10.0, 2)
    assert_allclose(curve.cep, [0.9, 1.0])
    padded = cep_curve(np.array([2.0, 1.0, 1e-17, 0.0]), 5.0, 4)
    assert padded.cep[1] == pytest.approx(1.0, abs=1e-10)
    assert padded.cep[-1] == pytest.approx(1.0, abs=1e-10)


@given(st.integers(0, 10_000), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_cep_monotone(seed, n):
    rng = np.random.default_rng(seed)
    sigma = np.sort(rng.uniform(0.0, 4.0, size=n))[::-1]
    if sigma[0] == 0.0:
        sigma[0] = 1.0
    curve = cep_curve(sigma, float(np.sum(sigma**2)), n)
    assert np.all(np.diff(curve.cep) >= -1e-15)
    assert curve.cep[-1] == pytest.approx(1.0, abs=1e-10)
    assert curve.ranks[0] == 1 and curve.ranks[-1] == n


def test_cep_of_a_leading_spectrum_closes_at_full_rank():
    # two of five singular values, against the exact total of all five
    curve = cep_curve(np.array([3.0, 1.0]), total_energy=20.0, order=5)
    assert curve.ranks.tolist() == [1, 2, 5]
    assert_allclose(curve.cep, [0.45, 0.5, 1.0])
    assert curve.cep[-1] == 1.0
    # a whole spectrum whose running sum overshoots the total by round-off
    whole = cep_curve(np.array([1.0, 1.0]), total_energy=2.0 - 1e-15, order=2)
    assert whole.ranks.tolist() == [1, 2] and whole.cep.tolist()[-1] == 1.0


def test_cep_errors():
    with pytest.raises(DataError):
        cep_curve(np.array([]), 0.0, 0)
    with pytest.raises(DataError):
        cep_curve(np.zeros(3), 0.0, 3)


def test_csv_writers(tmp_path):
    from dmdembed.diagnostics import write_acf_csv, write_cep_csv, write_residual_corr_csv

    rng = np.random.default_rng(2)
    reports = acf(rng.normal(size=(200, 2)), max_lag=10)
    write_acf_csv(reports, ["n0", "n1"], tmp_path / "acf.csv")
    lines = (tmp_path / "acf.csv").read_text().splitlines()
    assert lines[0] == "lag,n0,n1"
    assert len(lines) == 12

    write_cep_csv(cep_curve(np.array([3.0, 1.0]), 10.0, 2), tmp_path / "cep.csv")
    assert (tmp_path / "cep.csv").read_text().splitlines()[1] == "1,0.90000000000000002"

    summary = residual_correlation(rng.normal(size=(50, 2)), lag=1)
    write_residual_corr_csv([summary], tmp_path / "corr.csv")
    assert len((tmp_path / "corr.csv").read_text().splitlines()) == 2


def test_svg_renderers():
    from dmdembed.svgplot import heatmap, line_chart

    svg = line_chart(np.arange(10), [("a", np.sin(np.arange(10)))], "demo")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "polyline" in svg
    hm = heatmap(np.array([[1.0, 0.0], [0.25, 0.5]]), "corr")
    assert hm.startswith("<svg") and hm.endswith("</svg>")
    # the background and one cell per entry
    assert hm.count("<rect") == 5
    assert 'fill="rgb(255,0,0)"' in hm and 'fill="rgb(255,255,255)"' in hm
