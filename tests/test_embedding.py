import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed.dmd import FixedRank, fit_dmd
from dmdembed.embedding import TimeEmbedding, build_embedding, export_embedding
from dmdembed.errors import DataError
from dmdembed.forecaster import ForecastWindows
from dmdembed.embedding import attach_covariates
from dmdembed.hankel import build_hankel
from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.spdmd import gamma_sweep
from dmdembed.synthetic import SyntheticSpec

import window_rows


def test_build_embedding_quarter_turn():
    emb = build_embedding(np.array([1j]), 4)
    assert_allclose(emb.table, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)


def test_build_embedding_constant_mode():
    emb = build_embedding(np.array([1.0 + 0j]), 5)
    assert_allclose(emb.table, np.tile([1.0, 0.0], (5, 1)))


def test_projection_strips_modulus():
    lam = 0.9 * np.exp(1j * 2 * np.pi / 24)
    emb = build_embedding(np.array([lam]), 24)
    assert_allclose(emb.table[12], [-1.0, 0.0], atol=1e-8)
    assert_allclose(np.abs(emb.eigenvalues), 1.0)


def test_row_zero_identity_and_unit_circle_norm():
    lams = np.array([np.exp(1j * 2 * np.pi / 72), np.exp(1j * 2 * np.pi / 504)])
    emb = build_embedding(lams, 600)
    r = lams.size
    assert_allclose(emb.table[0], [1.0] * r + [0.0] * r, atol=1e-15)
    norms = emb.table[:, :r] ** 2 + emb.table[:, r:] ** 2
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_recurrence_consistency():
    lams = np.array([np.exp(1j * 0.37), np.exp(1j * 0.011)])
    emb = build_embedding(lams, 300)
    r = lams.size
    z = emb.table[:, :r] + 1j * emb.table[:, r:]
    advanced = z[:-1] * lams[None, :]
    rel = np.abs(z[1:] - advanced) / np.maximum(np.abs(z[1:]), 1e-12)
    assert np.max(rel) <= 1e-8


@given(st.integers(2, 80))
@settings(max_examples=25, deadline=None)
def test_periodicity(p):
    lam = np.exp(1j * 2 * np.pi / p)
    emb = build_embedding(np.array([lam]), 3 * p)
    assert np.max(np.abs(emb.table[p:] - emb.table[:-p])) <= 1e-8


def test_boundedness_under_projection():
    lams = np.array([1.3 * np.exp(1j * 0.5), 0.2 * np.exp(1j * 1.1)])
    emb = build_embedding(lams, 500)
    assert np.max(np.abs(emb.table)) <= 1.0 + 1e-12


def test_extrapolation_consistency():
    lams = np.array([np.exp(1j * 2 * np.pi / 72), np.exp(1j * 2 * np.pi / 504)])
    length = 512
    first = build_embedding(lams, length)
    # the steps past the first table, each power taken directly
    powers = lams ** np.arange(length, 2 * length)[:, np.newaxis]
    joined = np.vstack([first.table, np.hstack([powers.real, powers.imag])])
    direct = build_embedding(lams, 2 * length)
    assert np.max(np.abs(joined - direct.table)) <= 1e-8


def test_build_embedding_errors():
    with pytest.raises(ValueError):
        build_embedding(np.array([1.0 + 0j]), 0)
    with pytest.raises(ValueError):
        build_embedding(np.array([0.0 + 0j]), 2)
    with pytest.raises(ValueError):
        build_embedding(np.array([1.0 - 0.5j]), 2)


def test_build_embedding_keeps_one_member_per_pair():
    # whole groups in either order, or one member each: the Im >= 0
    # members are kept in their order
    lam = 0.9 * np.exp(0.4j)
    unit = lam / abs(lam)
    for selected, want in (([lam, np.conj(lam), 0.5], [unit, 1.0]),
                           ([np.conj(lam), 0.5, lam], [1.0, unit]),
                           ([lam, 0.5], [unit, 1.0])):
        assert np.array_equal(build_embedding(np.array(selected), 3).eigenvalues, want)
    with pytest.raises(ValueError, match="exact conjugate"):
        build_embedding(np.array([lam, np.conj(lam) + 1e-15]), 3)


# The tolerance that grouped conjugates before they were paired exactly.
CONJUGATE_TOL = 1e-8


def representatives_reference(eigenvalues):
    """One eigenvalue per conjugate group, by the rule that chose the
    embedded members before the embedding kept the Im >= 0 ones itself:
    pair each value with its nearest conjugate within CONJUGATE_TOL of
    1 + |lambda|, keep the member of larger imaginary part, and set a
    near-real value's imaginary part to exactly 0."""
    eigs = [complex(z) for z in np.asarray(eigenvalues, dtype=complex)]
    reps = []
    while eigs:
        z = eigs.pop(0)
        tol = CONJUGATE_TOL * (1.0 + abs(z))
        if abs(z.imag) <= tol:
            reps.append(complex(z.real, 0.0))
            continue
        apart = [abs(w - z.conjugate()) for w in eigs]
        if apart and min(apart) <= tol:
            z = max(z, eigs.pop(int(np.argmin(apart))), key=lambda v: v.imag)
        reps.append(z)
    return np.asarray(reps, dtype=complex)


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(4, 60), st.integers(1, 8),
       st.data())
@settings(max_examples=60, deadline=None)
def test_embedding_of_kept_modes_matches_the_representatives_rule(seed, n, t, rank, data):
    # Kept modes as a fit lists them, whole groups in energy order: the
    # embedding of the Im >= 0 members is, bit for bit, that of the
    # members the reference rule picks. Noise fits hold many real modes.
    values = np.random.default_rng(seed).normal(size=(n, t))
    view = build_hankel(values, data.draw(st.integers(1, t - 2)))
    dec = fit_dmd(view, FixedRank(rank))
    sweep = gamma_sweep(dec, data.draw(st.integers(1, len(dec.groups))))
    kept = dec.eigenvalues[sweep.selected.support]
    got, want = build_embedding(kept, 40), build_embedding(representatives_reference(kept), 40)
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.table.tobytes() == want.table.tobytes()


def test_run_embedding_matches_the_representatives_rule(tmp_path):
    # A1 at rank fixed:24 with 8 groups kept, a real mode among them: the
    # run's embedding.csv holds, bit for bit, the embedding of the members
    # the reference rule picks from the kept eigenvalues it records.
    cfg = PipelineConfig(synthetic=SyntheticSpec(noise=0.1, seed=1), rank="fixed:24",
                         target_modes=8, output_dir=str(tmp_path / "run"), seed=1)
    out = run_pipeline(cfg, until="embed")
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    kept = np.array([complex(re, im) for re, im in resolved["eigenvalues"]])
    assert np.sum(kept.imag == 0) >= 1 and np.sum(kept.imag < 0) >= 1
    table = np.loadtxt(out / "embedding.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    want = build_embedding(representatives_reference(kept), resolved["n_steps"])
    assert table.tobytes() == want.table.tobytes()


def test_empty_embedding_allowed():
    emb = build_embedding(np.array([], dtype=complex), 6)
    assert emb.table.shape == (6, 0)
    assert emb.n_modes == 0


def window_fixture(n_windows=3, p=4, q=2, anchor0=3):
    """Single-node windows over a series that counts up from 0; window k
    has anchor anchor0 + k and holds the values k .. k+p-1 as history."""
    steps = n_windows + p + q - 1
    return ForecastWindows(
        values=np.arange(steps, dtype=float)[np.newaxis, :],
        observed=np.ones((1, steps), bool),
        p=p,
        covariates=np.empty((steps, 0)),
        anchors=anchor0 + np.arange(n_windows),
    )


def test_attach_covariates_empty_embedding_keeps_windows():
    fw = window_fixture()
    emb = build_embedding(np.array([], dtype=complex), 20)
    out = attach_covariates(fw, emb)
    assert fw.covariates.shape[1] == 0
    assert window_rows.history(out).shape == window_rows.history(fw).shape == (3, 4)
    assert np.array_equal(window_rows.history(out), window_rows.history(fw))
    assert out.covariates.shape == (3 + 4 + 2 - 1, 0)


def test_attach_covariates_constant_mode_channels():
    fw = window_fixture(n_windows=1, p=1, q=1, anchor0=0)
    emb = build_embedding(np.array([1.0 + 0j]), 4)
    out = attach_covariates(fw, emb)
    assert_allclose(window_rows.history(out)[0], [0.0])
    # the history step, then the target step
    assert_allclose(out.covariates, [[1.0, 0.0], [1.0, 0.0]])


def test_attach_covariates_channel_contract():
    fw = window_fixture(n_windows=2, p=4, q=2)
    lams = np.array([np.exp(1j * 0.3), np.exp(1j * 0.05)])
    emb = build_embedding(lams, 30)
    out = attach_covariates(fw, emb)
    assert window_rows.history(out).shape == (2, 4)
    assert out.covariates.shape == (2 + 4 + 2 - 1, 4)
    assert np.shares_memory(out.covariates, emb.table)
    assert out.layout == (4, 1 + 2 * 2, 4)


def test_attach_covariates_reports_first_uncovered_step():
    fw = window_fixture(n_windows=1, p=2, q=2, anchor0=5)
    emb = build_embedding(np.array([1j]), 6)  # covers 0..5, needs 6,7
    with pytest.raises(DataError, match="step 6"):
        attach_covariates(fw, emb)


def test_export_import_round_trip(tmp_path):
    # a built table, and one of non-finite, negative and whole-number cells
    special = np.array([[np.inf, -np.inf], [np.nan, -2.5], [3.0, -7.0], [-1e300, 5e-324]])
    for emb in (build_embedding(np.array([1j]), 4), TimeEmbedding(np.array([1j]), special)):
        dest = tmp_path / "emb.csv"
        export_embedding(emb, dest)
        data = np.loadtxt(dest, delimiter=",", skiprows=1, ndmin=2)
        steps, table = data[:, 0], data[:, 1:]
        assert np.array_equal(steps, np.arange(4))
        assert np.array_equal(table, emb.table, equal_nan=True)  # bit-identical at 17 digits


def test_export_constant_mode_rows(tmp_path):
    emb = build_embedding(np.array([1.0 + 0j]), 2)
    dest = tmp_path / "emb.csv"
    export_embedding(emb, dest)
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "step,re_1,im_1"
    assert lines[1] == "0,1,0"
    assert lines[2] == "1,1,0"

