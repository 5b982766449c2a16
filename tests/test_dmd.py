import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from dmdembed import dmd, hankel, linalg
from dmdembed.dmd import (
    VANDERMONDE_BLOCK,
    CepThreshold,
    FixedRank,
    conjugate_groups,
    fit_dmd,
    mode_frequency,
    reconstruct,
    resolve_rank,
    vandermonde,
)
from dmdembed.errors import DataError, EmptySpectrumError
from dmdembed.hankel import build_hankel
from amplitude_oracle import AmplitudeForm, DenseFit
from hankel_oracle import materialize_hankel


def rotation_signal(period=24.0, t_steps=48):
    t = np.arange(t_steps)
    return np.vstack([np.cos(2 * np.pi * t / period), np.sin(2 * np.pi * t / period)])


def view_of(values, tau=1):
    return build_hankel(values, tau=tau)


def test_fit_dmd_rotation_recovery():
    view = view_of(rotation_signal())
    dec = fit_dmd(view, FixedRank(2))
    expected = np.exp(1j * 2 * np.pi / 24)
    assert_allclose(sorted(dec.eigenvalues, key=lambda z: -z.imag),
                    [expected, np.conj(expected)], atol=1e-8)
    assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) <= 1e-6
    # amplitudes reconstruct the first snapshot exactly
    first = reconstruct(dec, 1)[:, 0]
    assert_allclose(first, view.values[:, 0], atol=1e-8)


def test_fit_dmd_constant_signal():
    values = np.outer([1.0, 3.0], np.ones(10))
    dec = fit_dmd(view_of(values), FixedRank(1))
    assert_allclose(dec.eigenvalues, [1.0], atol=1e-8)
    mode = dec.modes[:, 0]
    direction = np.array([1.0, 3.0]) / np.linalg.norm([1.0, 3.0])
    assert_allclose(np.abs(mode), direction, atol=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_fit_dmd_refuses_a_series_of_unbounded_energy(bad):
    # a view carries no mask: the fit checks the trace it sums, which a
    # NaN, an infinity or a value whose square overflows leaves
    # non-finite; the refusal is the error alone, with no warning before it
    values = rotation_signal()
    values[1, 5] = bad
    with pytest.raises(DataError, match="energy"):
        fit_dmd(view_of(values, tau=2), FixedRank(2))


@pytest.mark.parametrize("tau", [9, 10])
def test_fit_dmd_refuses_a_view_past_the_fit_range(tau):
    # A view built directly may be deeper than build_hankel allows: at
    # 2 x 10, tau 9 leaves one snapshot pair and tau 10 none. The fit
    # refuses both by build_hankel's own rule and message.
    values = rotation_signal(t_steps=10)
    with pytest.raises(ValueError, match=rf"^tau must be in \[1, 8\], got {tau}$"):
        fit_dmd(hankel.HankelView(values, tau), FixedRank(1))
    assert fit_dmd(hankel.HankelView(values, 8), FixedRank(1)).fit_span == 2


def test_fit_dmd_decay_truncated_window():
    values = np.outer([1.0, 2.0], 0.9 ** np.arange(30))
    dec = fit_dmd(view_of(values), FixedRank(1))
    assert_allclose(dec.eigenvalues, [0.9], atol=1e-6)
    assert dec.fit_span == 29


def test_fit_dmd_unit_norm_modes_and_conjugate_amplitudes():
    rng = np.random.default_rng(8)
    t = np.arange(60)
    values = np.vstack([
        np.cos(2 * np.pi * t / 12 + 0.4) * rng.uniform(0.5, 1.5),
        np.sin(2 * np.pi * t / 12) * rng.uniform(0.5, 1.5),
        np.cos(2 * np.pi * t / 12 + 1.0),
    ])
    dec = fit_dmd(view_of(values), FixedRank(2))
    assert_allclose(np.linalg.norm(dec.modes, axis=0), np.ones(2), atol=1e-10)
    groups = conjugate_groups(dec.eigenvalues)
    assert [len(g) for g in groups] == [2]
    i, j = groups[0]
    assert abs(dec.amplitudes[i] - np.conj(dec.amplitudes[j])) <= 1e-8 * abs(dec.amplitudes[i])


def test_mode_phase_does_not_depend_on_the_eigensolver(monkeypatch):
    # The eigensolver fixes each eigenvector's phase by its largest entry,
    # which round-off picks among near-equal ones. Turning every
    # eigenvector by another phase moves no mode or amplitude, and every
    # amplitude is real and nonnegative.
    rng = np.random.default_rng(3)
    t = np.arange(120)
    values = np.vstack([np.cos(2 * np.pi * t / 17 + 0.3), np.sin(2 * np.pi * t / 40)])
    view = view_of(values + 0.05 * rng.normal(size=values.shape), tau=4)
    base = fit_dmd(view, FixedRank(4))
    assert np.all(base.amplitudes.imag == 0.0) and np.all(base.amplitudes.real >= 0.0)

    def turned(matrix):
        eigenvalues, eigenvectors = linalg.dense_eig(matrix)
        phases = np.exp(1j * np.linspace(0.4, 2.9, eigenvalues.size))
        return eigenvalues, eigenvectors * phases

    monkeypatch.setattr(dmd, "dense_eig", turned)
    moved = fit_dmd(view, FixedRank(4))
    assert np.array_equal(moved.eigenvalues, base.eigenvalues)
    assert_allclose(moved.modes, base.modes, rtol=0, atol=1e-12)
    assert_allclose(moved.amplitudes, base.amplitudes, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pairs=st.integers(1, 4),
    n_real=st.integers(0, 2),
    span=st.integers(2, 4000),
)
def test_energy_order_puts_positive_member_of_each_pair_first(seed, n_pairs, n_real, span):
    # The members of a conjugate pair have equal energy up to round-off:
    # moving one member's amplitude by 1 ulp either way never reorders
    # the pair, and the positive-imaginary member comes first.
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 1.05, n_pairs) * np.exp(1j * rng.uniform(0.05, 3.0, n_pairs))
    amp = rng.normal(size=n_pairs) + 1j * rng.normal(size=n_pairs)
    reals = rng.uniform(-1.05, 1.05, n_real)
    eigs = np.concatenate([lam, np.conj(lam), reals + 0j])
    amps = np.concatenate([amp, np.conj(amp), rng.normal(size=n_real) + 0j])
    perm = rng.permutation(eigs.size)
    eigs, amps = eigs[perm], amps[perm]

    def pairs_in(order):
        ranked = eigs[order]
        return [
            (int(order[k]), int(order[k + 1]))
            for k in range(order.size)
            if ranked[k].imag > 0
        ]

    base = dmd._energy_order(eigs, amps, span)
    expected = pairs_in(base)
    assert len(expected) == n_pairs
    for first, second in expected:
        assert eigs[second] == np.conj(eigs[first])
    for member in np.flatnonzero(eigs.imag != 0):
        for direction in (np.inf, -np.inf):
            nudged = amps.copy()
            nudged[member] = complex(np.nextafter(amps[member].real, direction), amps[member].imag)
            assert pairs_in(dmd._energy_order(eigs, nudged, span)) == expected


def test_fits_take_their_spectrum_from_leading_spectrum(monkeypatch):
    calls = []

    def recording(gram, policy):
        out = linalg.leading_spectrum(gram, policy)
        calls.append(out)
        return out

    monkeypatch.setattr(dmd, "leading_spectrum", recording)
    dec = fit_dmd(view_of(rotation_signal(), tau=2), FixedRank(2))
    assert len(calls) == 1
    spectrum, vectors, _, solve = calls[0]
    assert dec.rank == vectors.shape[1] == 2
    assert dec.singular_values is spectrum and dec.spectrum_solve is solve


def test_a_fit_applies_its_snapshots_once(monkeypatch):
    # One geometry, no tall product and no transposed one: every Gram
    # block runs on the T - tau + 1 columns of the whole lifting.
    rows = {"apply_tall": [], "apply_tall_transpose": [], "gram": []}
    for name in rows:
        def recording(view, x, name=name, original=getattr(hankel, name)):
            rows[name].append(x.shape[0])
            return original(view, x)

        monkeypatch.setattr(hankel, name, recording)
    geometries = []

    def recording_geometry(view, original=dmd.fit_geometry):
        geometries.append(view)
        return original(view)

    monkeypatch.setattr(dmd, "fit_geometry", recording_geometry)
    t, tau = 30, 4
    values = np.random.default_rng(3).normal(size=(3, t))
    dec = fit_dmd(view_of(values, tau=tau), FixedRank(4))
    assert dec.rank == 4 and len(geometries) == 1
    assert rows["apply_tall"] == [] and rows["apply_tall_transpose"] == []
    assert rows["gram"] and set(rows["gram"]) == {t - tau + 1}


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(3, 40), st.data())
@settings(max_examples=200, deadline=None)
def test_reduced_operator_matches_the_dense_reference(seed, n, t, data):
    # H'^T U is read off the Krylov images and the last lifted column;
    # its eigenvalues are those of the dense reduced operator at the same
    # rank, for every tau down to two snapshot pairs. Distances are
    # relative to (1 + max |lambda|) sigma_1 / sigma_rank; over 20,000
    # draws the largest was 9.8e-13. The data-space modes times their
    # amplitudes are the dense lifted modes' first N rows times theirs,
    # matched by eigenvalue, to 1e-9 of the largest: over 3,000 draws the
    # largest distance was 5.4e-12 of it.
    tau = data.draw(st.integers(1, t - 2))
    values = np.random.default_rng(seed).normal(size=(n, t))
    dec = fit_dmd(view_of(values, tau=tau), FixedRank(data.draw(st.integers(1, 6))))
    ref = DenseFit(values, tau, dec.rank)
    want = ref.eigenvalues
    apart = np.abs(dec.eigenvalues[:, np.newaxis] - want[np.newaxis, :])
    distance = max(apart.min(axis=0).max(), apart.min(axis=1).max())
    assert distance <= 1e-10 * ref.condition * (1.0 + np.max(np.abs(want)))
    order = ref.matched_to(dec.eigenvalues)
    scaled = ref.modes[:n, order] * ref.amplitudes[order]
    assert np.max(np.abs(dec.modes * dec.amplitudes - scaled)) <= 1e-9 * np.max(np.abs(scaled))
    # LAPACK gives the real operator's eigenvalues as exact conjugates:
    # every group is a pair, its Im > 0 member first, or a real value.
    for group in dec.groups:
        z = dec.eigenvalues[group]
        if len(group) == 2:
            assert z[0].imag > 0 and z[1] == np.conj(z[0])
        else:
            assert len(group) == 1 and z[0].imag == 0


@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_conjugate_groups_pair_exact_conjugates(seed, n_pairs, n_real, data):
    # Pairs in either member order, pairs and real values that repeat,
    # all permuted: each value pairs one to one with an exact conjugate,
    # each real value is a group of its own, and the groups come in the
    # order of their first members. A partner one ulp off stays a
    # singleton, and so does the member it leaves behind.
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 1.1, n_pairs) * np.exp(1j * rng.uniform(0.05, 3.0, n_pairs))
    lam = np.repeat(lam, rng.integers(1, 3, n_pairs))
    reals = np.repeat(rng.uniform(-1.1, 1.1, n_real), rng.integers(1, 3, n_real))
    eigs = np.concatenate([lam, np.conj(lam), reals])[rng.permutation(2 * lam.size + reals.size)]

    def check(eigs, n_pairs):
        groups = conjugate_groups(eigs)
        assert sorted(i for g in groups for i in g) == list(range(eigs.size))
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        pairs = [g for g in groups if len(g) == 2]
        assert len(pairs) == n_pairs and all(len(g) <= 2 for g in groups)
        for i, j in pairs:
            assert eigs[i].imag != 0 and eigs[j] == np.conj(eigs[i])
        return groups

    check(eigs, lam.size)
    if lam.size:
        i = data.draw(st.sampled_from(np.flatnonzero(eigs.imag).tolist()))
        z, toward = eigs[i], data.draw(st.sampled_from([-2.0, 2.0]))
        nudged = eigs.copy()
        nudged[i] = data.draw(st.sampled_from([complex(np.nextafter(z.real, toward), z.imag),
                                               complex(z.real, np.nextafter(z.imag, toward))]))
        groups = check(nudged, lam.size - 1)
        assert [i] in groups


def test_resolve_rank_examples():
    assert resolve_rank(np.array([3.0, 1.0]), CepThreshold(0.90), 10.0, 2) == 1  # 9/10 >= 0.9
    assert resolve_rank(np.array([1.0, 1.0, 1.0, 1.0]), CepThreshold(0.75), 4.0, 4) == 3
    sigma = np.array([5.0, 3.0, 2.0, 1.0, 1e-14, 1e-15])
    assert resolve_rank(sigma, FixedRank(10), float(np.sum(sigma**2)), 6) == 4
    with pytest.raises(EmptySpectrumError):
        resolve_rank(np.array([0.0, 0.0]), FixedRank(1), 0.0, 2)
    with pytest.raises(ValueError):
        resolve_rank(np.array([1.0]), FixedRank(0), 1.0, 1)
    with pytest.raises(ValueError):
        resolve_rank(np.array([1.0]), CepThreshold(1.5), 1.0, 1)


@given(st.integers(0, 10_000), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_resolve_rank_nondecreasing_in_fraction(seed, f1, f2):
    rng = np.random.default_rng(seed)
    sigma = np.sort(rng.uniform(0.1, 5.0, size=6))[::-1]
    lo, hi = sorted([f1, f2])
    total = float(np.sum(sigma**2))
    assert resolve_rank(sigma, CepThreshold(lo), total, 6) <= resolve_rank(sigma, CepThreshold(hi), total, 6)


def test_vandermonde_examples():
    vm = vandermonde(np.array([1.0, -1.0]), 4)
    assert vm.shape == (2, 4) and vm.dtype == complex
    assert_allclose(vm, [[1, 1, 1, 1], [1, -1, 1, -1]])
    vm_i = vandermonde(np.array([1j]), 4)
    assert_allclose(vm_i[0], [1, 1j, -1, -1j])
    lam = np.exp(1j * 2 * np.pi / 24)
    vm24 = vandermonde(np.array([lam]), 25)
    assert_allclose(vm24[0, 12], -1.0, atol=1e-12)
    assert_allclose(vm24[0, 24], 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        vandermonde(np.array([1.0]), 0)


@given(st.integers(0, 10_000), st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_vandermonde_recurrence_and_ones_column(seed, length):
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=3) + 1j * rng.normal(size=3)
    vm = vandermonde(lam, length)
    assert vm.shape == (3, length)
    assert_allclose(vm[:, 0], np.ones(3))
    expected = vm[:, :-1] * lam[:, None]
    scale = np.maximum(np.abs(vm[:, 1:]), 1e-300)
    assert np.max(np.abs(vm[:, 1:] - expected) / scale) <= 1e-10


def test_vandermonde_blocks_match_the_step_by_step_recurrence():
    # three whole blocks and part of a fourth. The first block is the
    # step-by-step recurrence bit for bit; each later block is its first
    # column times the first block, within rounding of the recurrence.
    rng = np.random.default_rng(3)
    lam = np.exp(1j * rng.uniform(0.0, np.pi, 4)) * (1.0 + 1e-3 * rng.normal(size=4))
    length = 3 * VANDERMONDE_BLOCK + 17
    vm = vandermonde(lam, length)
    steps = np.empty_like(vm)
    steps[:, 0] = 1.0
    for j in range(1, length):
        steps[:, j] = steps[:, j - 1] * lam
    assert np.array_equal(vm[:, :VANDERMONDE_BLOCK], steps[:, :VANDERMONDE_BLOCK])
    assert np.max(np.abs(vm - steps) / np.abs(steps)) <= 1e-12
    assert np.max(np.abs(vm[:, 1:] - vm[:, :-1] * lam[:, None]) / np.abs(vm[:, 1:])) <= 1e-10


def test_reconstruct_examples():
    values = rotation_signal()
    dec = fit_dmd(view_of(values), FixedRank(2))
    rec = reconstruct(dec, 48)
    assert np.linalg.norm(rec - values) <= 1e-6 * np.linalg.norm(values)
    # imaginary residue of the complex product is negligible for real fits
    vm = vandermonde(dec.eigenvalues, 48)
    full = dec.modes @ (dec.amplitudes[:, None] * vm)
    assert np.linalg.norm(full.imag) <= 1e-6 * np.linalg.norm(full.real)

    const = fit_dmd(view_of(np.outer([2.0, 1.0], np.ones(8))), FixedRank(1))
    rec_c = reconstruct(const, 5)
    for j in range(1, 5):
        assert_allclose(rec_c[:, j], rec_c[:, 0], atol=1e-10)


def mode_generated_signal(rng, eigenvalues, n_nodes, t_steps):
    """Real signal with full dynamical rank: random conjugate-consistent
    complex modes applied to the eigenvalue power table."""
    lams = np.asarray(eigenvalues, dtype=complex)
    modes = rng.normal(size=(n_nodes, lams.size)) + 1j * rng.normal(size=(n_nodes, lams.size))
    for k, lam in enumerate(lams):
        if abs(lam.imag) < 1e-12:
            modes[:, k] = modes[:, k].real
        elif k > 0 and abs(lams[k - 1] - np.conj(lam)) < 1e-12:
            modes[:, k] = np.conj(modes[:, k - 1])
    powers = vandermonde(lams, t_steps)
    return (modes @ powers).real


def test_reconstruct_random_low_rank():
    rng = np.random.default_rng(33)
    lam = np.exp(1j * 2 * np.pi / 9)
    values = mode_generated_signal(rng, [lam, np.conj(lam), 1.0], n_nodes=5, t_steps=63)
    dec = fit_dmd(view_of(values), FixedRank(3))
    rec = reconstruct(dec, 63)
    assert np.linalg.norm(rec - values) <= 1e-6 * np.linalg.norm(values)


def test_rank_monotonicity_on_training_error():
    rng = np.random.default_rng(12)
    lams = []
    for p in (6.0, 12.0, 24.0):
        lam = np.exp(1j * 2 * np.pi / p)
        lams += [lam, np.conj(lam)]
    values = mode_generated_signal(rng, lams, n_nodes=8, t_steps=48)
    errors = []
    for r in (2, 4, 6):
        dec = fit_dmd(view_of(values), FixedRank(r))
        errors.append(np.linalg.norm(reconstruct(dec, 48) - values))
    assert errors[0] >= errors[1] - 1e-9
    assert errors[1] >= errors[2] - 1e-9


def test_mode_frequency():
    daily = mode_frequency(np.exp(1j * 2 * np.pi / 72))
    assert daily.period_steps == pytest.approx(72.0)
    flat = mode_frequency(1.0)
    assert flat.period_steps is None and flat.growth_rate == 0.0
    decay = mode_frequency(0.5)
    assert decay.growth_rate == pytest.approx(math.log(0.5))
    assert decay.period_steps is None
    with pytest.raises(ValueError):
        mode_frequency(0.0)


@given(st.integers(0, 10_000), st.integers(1, 2), st.booleans())
@settings(max_examples=20, deadline=None)
def test_shift_consistency_recovers_generating_eigenvalues(seed, n_pairs, add_real):
    # noiseless signal generated by r modes with distinct eigenvalues:
    # a rank-r fit recovers the eigenvalue multiset
    rng = np.random.default_rng(seed)
    lams = []
    for _ in range(n_pairs):
        modulus = rng.uniform(0.9, 1.0)
        angle = rng.uniform(0.2, np.pi - 0.2)
        lams += [modulus * np.exp(1j * angle), modulus * np.exp(-1j * angle)]
    if add_real:
        lams.append(rng.uniform(0.9, 1.0))
    lams = np.array(lams)
    r = lams.size
    n_nodes = 2 * r
    t_steps = 40
    modes = rng.normal(size=(n_nodes, r)) + 1j * rng.normal(size=(n_nodes, r))
    # conjugate-consistent spatial modes so the signal is real
    for k in range(0, 2 * n_pairs, 2):
        modes[:, k + 1] = np.conj(modes[:, k])
    if add_real:
        modes[:, -1] = modes[:, -1].real
    powers = vandermonde(lams, t_steps)
    values = (modes @ powers).real
    dec = fit_dmd(view_of(values), FixedRank(r))
    got = np.sort_complex(dec.eigenvalues)
    want = np.sort_complex(lams)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_deep_tau_truncated_window_drops_wrapped_columns():
    values = np.outer([1.0, 2.0], 0.9 ** np.arange(40))
    view = view_of(values, tau=5)
    dec = fit_dmd(view, FixedRank(1))
    assert dec.fit_span == 35
    assert_allclose(dec.eigenvalues, [0.9], atol=1e-6)


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(8, 40), st.data())
@settings(max_examples=40, deadline=None)
def test_fit_amplitudes_solve_the_rebuilt_normal_equations(seed, n, t, data):
    # The fit keeps no quadratic form. Rebuilt from the dense reference's
    # lifted modes, matched to the fit's by eigenvalue, where the fit reads
    # H^T modes off the Krylov images, its normal equations P a = q hold
    # at the fit's amplitudes to rounding.
    tau = data.draw(st.integers(1, t - 2))
    policy = data.draw(st.one_of(st.builds(FixedRank, st.integers(1, 6)),
                                 st.builds(CepThreshold, st.floats(0.3, 0.99))))
    values = np.random.default_rng(seed).normal(size=(n, t))
    view = view_of(values, tau=tau)
    dec = fit_dmd(view, policy)
    form = AmplitudeForm(dec, view)
    assert np.linalg.norm(form.p @ dec.amplitudes - form.q) <= 1e-10 * np.linalg.norm(form.q)


def saved_modes(modes: np.ndarray) -> np.ndarray:
    """The modes through np.save and np.load, as a run keeps modes.npy."""
    buffer = io.BytesIO()
    np.save(buffer, modes)
    buffer.seek(0)
    return np.load(buffer)


def bits(z: np.ndarray) -> np.ndarray:
    """Every bit of a complex array, so also the sign of each zero and
    each NaN as NaN."""
    return np.ascontiguousarray(z).view(np.uint64)


def test_serialization_round_trip():
    # a fit's two run artifacts: the to_json text and the modes saved with np.save
    dec = fit_dmd(view_of(rotation_signal(), tau=3), FixedRank(2))
    data = json.loads(dec.to_json())
    for name in ("eigenvalues", "amplitudes"):
        back = np.array([complex(re, im) for re, im in data[name]])
        assert np.array_equal(bits(back), bits(getattr(dec, name)))
    assert data["rank"] == dec.rank
    assert data["tau"] == dec.tau
    assert data["fit_span"] == dec.fit_span
    # periods and rates are in steps: the file records no time unit
    assert set(data) == {"eigenvalues", "amplitudes", "rank", "tau", "fit_span"}
    modes = saved_modes(dec.modes)
    assert modes.dtype == np.complex128
    assert np.array_equal(bits(modes), bits(dec.modes))


mode_entries = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.0**-1030]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_round_trip_keeps_every_mode_bit(data):
    rows = data.draw(st.integers(0, 6))
    r = data.draw(st.integers(0, 4))
    modes = np.empty((rows, r), dtype=complex)
    modes.real = data.draw(arrays(float, (rows, r), elements=mode_entries))
    modes.imag = data.draw(arrays(float, (rows, r), elements=mode_entries))
    back = saved_modes(modes)
    assert back.dtype == np.complex128 and back.shape == modes.shape
    assert np.array_equal(bits(back), bits(modes))


def test_fit_dmd_zero_signal_raises():
    with pytest.raises(EmptySpectrumError):
        fit_dmd(view_of(np.zeros((2, 8))), FixedRank(1))


def test_fit_dmd_modes_match_lifted_space():
    # The modes are the data rows of the lifted ones: the series they
    # reconstruct, lifted, is the lifting H.
    values = rotation_signal()
    view = build_hankel(values, tau=3)
    dec = fit_dmd(view, FixedRank(2))
    assert dec.modes.shape == (2, 2)
    h = materialize_hankel(values, 3)
    rec = materialize_hankel(reconstruct(dec, values.shape[1]), 3)
    assert np.linalg.norm(rec - h) <= 1e-6 * np.linalg.norm(h)
