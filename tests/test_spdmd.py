import functools
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed import hankel
from dmdembed.dmd import (
    DmdDecomposition,
    FixedRank,
    conjugate_groups,
    fit_dmd,
    mode_frequency,
    vandermonde,
)
from dmdembed.forecaster import split_boundaries, zscore_fit
from dmdembed.hankel import build_hankel, default_tau
from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.spdmd import gamma_sweep
from dmdembed.synthetic import SyntheticSpec, generate_synthetic

from amplitude_oracle import AmplitudeForm
from hankel_oracle import materialize_hankel


def rank4_view(seed=7, strong=10.0, weak=1.0, t_steps=96, n_nodes=6,
               strong_period=12.0, weak_period=32.0):
    """Two conjugate pairs with a strong/weak energy split (100:1 at the
    default amplitudes), lifted at the default tau."""
    rng = np.random.default_rng(seed)
    t = np.arange(t_steps)
    u1 = rng.uniform(0.5, 1.5, n_nodes)
    u2 = rng.uniform(0.5, 1.5, n_nodes)
    phases = rng.uniform(0, 2 * np.pi, size=2)
    values = (
        strong * u1[:, None] * np.cos(2 * np.pi * t / strong_period + phases[0])
        + weak * u2[:, None] * np.cos(2 * np.pi * t / weak_period + phases[1])
    )
    return build_hankel(values, tau=default_tau(values))


def rank4_fixture(seed=7):
    """The rank-4 fit of ``rank4_view``."""
    return fit_dmd(rank4_view(seed), FixedRank(4))


def exhaustive_pair_oracle(dec, view, target_pairs):
    """Best support over all 2^r zero patterns, restricted to
    pair-consistent patterns with exactly the target pair count and
    ranked by the loss of the restricted refit."""
    problem = AmplitudeForm(dec, view)
    groups = problem.groups
    best = None
    for keep in itertools.product([False, True], repeat=len(groups)):
        if sum(keep) != target_pairs:
            continue
        support = np.zeros(dec.rank, dtype=bool)
        for g, k in zip(groups, keep):
            support[g] = k
        amplitudes = dec.amplitudes * 0.0
        if support.any():
            amplitudes = problem.refit_on(support)
        loss = problem.loss(amplitudes)
        if best is None or loss < best[1]:
            best = (support, loss)
    return best


def test_polish_full_support_is_least_squares():
    # the oracle's refit on every mode is the fit's own amplitude solve
    view = rank4_view()
    dec = fit_dmd(view, FixedRank(4))
    assert_allclose(AmplitudeForm(dec, view).refit_on(np.ones(4, bool)), dec.amplitudes)


def test_polish_single_mode_rank_one_signal():
    values = np.outer([2.0, 1.0], np.ones(16))
    view = build_hankel(values, tau=1)
    dec = fit_dmd(view, FixedRank(1))
    amp = AmplitudeForm(dec, view).refit_on(np.array([True]))
    # generator amplitude: ||first column|| since the fitted mode is unit norm
    assert_allclose(np.abs(amp[0]), np.linalg.norm(values[:, 0]), rtol=1e-8)
    assert_allclose(dec.amplitudes[0], np.linalg.norm(values[:, 0]), rtol=1e-8)


def test_polish_matches_restricted_normal_equations():
    # the oracle's refit on a support is the dense least-squares fit of the
    # formed snapshots by those lifted modes alone, and its loss is that
    # residual
    view = rank4_view()
    dec = fit_dmd(view, FixedRank(4))
    problem = AmplitudeForm(dec, view)
    h = materialize_hankel(view.values[:, :-1], view.tau)
    vand = vandermonde(dec.eigenvalues, dec.fit_span)
    for support in (np.array([True, True, False, False]), np.array([False, False, True, True])):
        idx = np.nonzero(support)[0]
        design = np.stack([np.outer(problem.modes[:, i], vand[i]).ravel() for i in idx], axis=1)
        expected = np.linalg.lstsq(design, h.ravel().astype(complex), rcond=None)[0]
        amp = problem.refit_on(support)
        assert np.all(amp[~support] == 0)
        assert_allclose(amp[idx], expected, rtol=1e-8)
        residual = h - (problem.modes[:, idx] * amp[idx]) @ vand[idx]
        assert problem.loss(amp) == pytest.approx(np.linalg.norm(residual) ** 2, rel=1e-8)


def test_polish_never_increases_loss():
    # on its support the refit is the least-squares optimum, so it is no
    # worse than the fit's own amplitudes cut to that support
    view = rank4_view()
    dec = fit_dmd(view, FixedRank(4))
    problem = AmplitudeForm(dec, view)
    for support in (np.array([True, True, False, False]), np.array([False, False, True, True])):
        cut = np.where(support, dec.amplitudes, 0)
        assert problem.loss(problem.refit_on(support)) <= problem.loss(cut) + 1e-9


def test_objective_descent_bounds():
    # the refit loss of every step's support lies between the full fit's
    # and the empty support's
    view = rank4_view()
    dec = fit_dmd(view, FixedRank(4))
    problem = AmplitudeForm(dec, view)
    res = gamma_sweep(dec, target_modes=2)
    full = problem.loss(dec.amplitudes)
    for sol in res.path.solutions:
        assert full - 1e-9 <= problem.loss(problem.refit_on(sol.support)) <= problem.s + 1e-9


def test_gamma_sweep_targets():
    view = rank4_view()
    dec = fit_dmd(view, FixedRank(4))
    res_full = gamma_sweep(dec, target_modes=2)
    assert res_full.selected.pair_count == 2
    assert res_full.selected.support.all()

    res_one = gamma_sweep(dec, target_modes=1)
    assert res_one.selected.pair_count == 1
    oracle_support, _ = exhaustive_pair_oracle(dec, view, target_pairs=1)
    assert np.array_equal(res_one.selected.support, oracle_support)
    assert res_one.target_met


def test_gamma_sweep_target_one_on_rank_one_signal():
    values = np.outer([2.0, 1.0], np.ones(16))
    view = build_hankel(values, tau=1)
    dec = fit_dmd(view, FixedRank(1))
    res = gamma_sweep(dec, target_modes=1)
    assert res.selected.pair_count == 1
    assert res.selected.support[0]


def test_path_monotone_and_pair_symmetric():
    dec = rank4_fixture(seed=11)
    res = gamma_sweep(dec, target_modes=2)
    groups = conjugate_groups(dec.eigenvalues)
    previous = np.zeros(dec.rank, dtype=bool)
    for step, sol in enumerate(res.path.solutions, start=1):
        assert sol.pair_count == step
        assert np.all(sol.support >= previous)  # each step keeps the last one's groups
        previous = sol.support
        for g in groups:
            assert len({bool(sol.support[i]) for i in g}) == 1


def test_polished_solutions_have_exact_zero_pattern():
    # the oracle's refit on each step's support is exactly zero off it,
    # and no kept mode is refitted to zero
    view = rank4_view(seed=3)
    dec = fit_dmd(view, FixedRank(4))
    problem = AmplitudeForm(dec, view)
    for sol in gamma_sweep(dec, target_modes=2).path.solutions:
        amplitudes = problem.refit_on(sol.support)
        assert np.all(amplitudes[~sol.support] == 0)
        assert np.all(np.abs(amplitudes[sol.support]) > 0)


def test_groups_are_taken_in_energy_order_whatever_their_losses():
    # two real modes, the second of the larger amplitude: the selection
    # takes the groups in the decomposition's own (energy) order and
    # reads nothing else, so a hand-built decomposition selects too
    dec = DmdDecomposition(
        eigenvalues=np.array([0.9, 0.5], dtype=complex), modes=np.eye(2, dtype=complex),
        amplitudes=np.array([1.0, 2.0], complex), rank=2, fit_span=8, tau=1,
    )
    first = gamma_sweep(dec, target_modes=1)
    assert first.selected.support.tolist() == [True, False]
    both = gamma_sweep(dec, target_modes=2)
    assert [sol.group for sol in both.path.solutions] == [[0], [1]]
    # a group of zero amplitude still counts toward the target
    idle = gamma_sweep(replace(dec, amplitudes=np.array([1.0, 0.0], complex)), target_modes=2)
    assert [sol.group for sol in idle.path.solutions] == [[0], [1]]
    assert idle.selected.support.all()


def test_gamma_sweep_validation():
    dec = rank4_fixture()
    with pytest.raises(ValueError, match="at least 1"):
        gamma_sweep(dec, target_modes=0)


def test_target_above_the_rank_selects_every_group():
    # rank 4 holds two conjugate pairs; a target of 9 stops at both
    dec = rank4_fixture()
    res = gamma_sweep(dec, target_modes=9)
    added = sorted(sorted(sol.group) for sol in res.path.solutions)
    assert added == sorted(map(sorted, dec.groups))
    assert res.selected.support.all() and res.selected.pair_count == 2 and res.target_met


def test_sweep_applies_no_hankel_product(monkeypatch):
    # The selection reads the fit's groups; it never touches the data.
    dec = rank4_fixture()

    def refuse(*args, **kwargs):
        raise AssertionError("the selection applied a Hankel product")

    for name in ("apply_tall", "apply_tall_transpose", "gram"):
        monkeypatch.setattr(hankel, name, refuse)
    res = gamma_sweep(dec, target_modes=1)
    assert res.target_met


def test_decomposition_built_from_its_fields_selects_as_the_fit_did():
    # built from a fit's fields, as a reader of its run files would, it
    # selects the same modes as the fit itself
    dec = rank4_fixture()
    hand_built = DmdDecomposition(
        eigenvalues=dec.eigenvalues, modes=dec.modes, amplitudes=dec.amplitudes, rank=dec.rank,
        fit_span=dec.fit_span, tau=dec.tau,
    )
    for target in (1, 2):
        got = gamma_sweep(hand_built, target_modes=target).selected.support
        assert np.array_equal(got, gamma_sweep(dec, target_modes=target).selected.support)


def test_fit_read_back_from_a_forecast_run_selects_the_runs_eigenvalues(tmp_path):
    cfg = PipelineConfig(
        synthetic=SyntheticSpec(noise=0.1, seed=1), rank="fixed:24", target_modes=4,
        output_dir=str(tmp_path / "run"), seed=1,
    )
    out = run_pipeline(cfg)
    fit = json.loads((out / "decomposition.json").read_text())
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    dec = DmdDecomposition(
        eigenvalues=np.array([complex(re, im) for re, im in fit["eigenvalues"]]),
        modes=np.load(out / "modes.npy"),
        amplitudes=np.array([complex(re, im) for re, im in fit["amplitudes"]]),
        rank=fit["rank"], fit_span=fit["fit_span"], tau=fit["tau"],
    )
    selected = dec.eigenvalues[gamma_sweep(dec, 4).selected.support]
    assert [[z.real, z.imag] for z in selected] == resolved["eigenvalues"]
    assert len(resolved["eigenvalues"]) == 7  # two pairs, the real mode and the next pair


def random_decomposition(seed, rank):
    """Fit of a small random signal: one to three sinusoids of random
    period, phase per node, plus noise, at a random tau; returns the fit
    and its view."""
    rng = np.random.default_rng(seed)
    n_nodes, t_steps = int(rng.integers(1, 5)), int(rng.integers(24, 72))
    steps = np.arange(t_steps)
    values = rng.normal(scale=0.3, size=(n_nodes, t_steps))
    for _ in range(int(rng.integers(1, 4))):
        phases = rng.uniform(0, 2 * np.pi, size=(n_nodes, 1))
        values += rng.uniform(0.2, 2.0) * np.cos(2 * np.pi * steps / rng.uniform(3, 30) + phases)
    tau = int(rng.integers(1, t_steps // 3))
    view = build_hankel(values, tau=tau)
    return fit_dmd(view, FixedRank(min(rank, n_nodes * tau, t_steps - tau - 1))), view


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_selection_is_the_energy_order_prefix_with_polish(seed, rank):
    dec, view = random_decomposition(seed, rank)
    problem = AmplitudeForm(dec, view)
    groups = dec.groups

    for target in range(1, dec.rank + 1):
        res = gamma_sweep(dec, target_modes=target)
        kept = min(target, len(groups))
        assert [sol.group for sol in res.path.solutions] == groups[:kept]
        assert res.selected is res.path.solutions[-1]
        assert res.selected.pair_count == kept and res.target_met
        previous = np.zeros(dec.rank, dtype=bool)
        for sol in res.path.solutions:
            # each support is the last one plus this step's whole group
            grown = previous.copy()
            grown[sol.group] = True
            assert np.array_equal(sol.support, grown)
            previous = sol.support
        # the nested supports' refits leave a loss that never rises
        losses = [problem.loss(problem.refit_on(sol.support)) for sol in res.path.solutions]
        assert all(b <= a + 1e-9 * problem.s for a, b in zip(losses, losses[1:]))
        if len(groups) <= target:
            # nothing is left to choose: every group is selected
            assert res.selected.support.all()


@functools.lru_cache(maxsize=None)
def a1_fit(seed):
    """The fit of a run on the A1 signal (8 x 2016, noise 0.1) at rank
    fixed:24: its normalized training span, at the default tau. Returns
    the fit and its view."""
    signal = generate_synthetic(SyntheticSpec(noise=0.1, seed=seed))
    b_train, _ = split_boundaries(signal.n_steps, PipelineConfig().split)
    zscore = zscore_fit(signal.values[:, :b_train], signal.node_ids)
    train = zscore.transform(signal.values)[:, :b_train]
    view = build_hankel(train, default_tau(train))
    return fit_dmd(view, FixedRank(24)), view


def forward_selection(dec, view, target):
    """Reference: each step adds the group whose refit, with the groups
    chosen so far, leaves the lowest loss."""
    problem = AmplitudeForm(dec, view)
    chosen, support = [], np.zeros(dec.rank, dtype=bool)
    for _ in range(min(target, len(problem.groups))):
        def loss_with(group):
            trial = support.copy()
            trial[group] = True
            return problem.loss(problem.refit_on(trial))
        chosen.append(min((g for g in problem.groups if g not in chosen), key=loss_with))
        support[chosen[-1]] = True
    return chosen


@pytest.mark.parametrize("seed", range(1, 6))
def test_energy_order_agrees_with_forward_selection_on_a1(seed):
    # the two orders part only past the default target of 4 groups
    dec, view = a1_fit(seed)
    path = gamma_sweep(dec, target_modes=4).path
    assert [sol.group for sol in path.solutions] == dec.groups[:4] == forward_selection(dec, view, 4)


def test_many_mode_selection_meets_its_target(tmp_path):
    """A1 signal at rank fixed:24: 13 conjugate groups, target 4."""
    cfg = PipelineConfig(
        synthetic=SyntheticSpec(noise=0.1, seed=1),
        rank="fixed:24",
        target_modes=4,
        output_dir=str(tmp_path / "run"),
        seed=1,
    )
    out = run_pipeline(cfg, until="fit")
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert resolved["rank"] == 24
    # 24 singular pairs on a flat noise floor converge in 87 two-column
    # Gram products; a faster fit must make each product cheaper, not fewer.
    assert resolved["svd_products"] <= 87
    assert resolved["svd_basis"] <= 174
    assert resolved["target_met"] is True
    assert resolved["selected_pairs"] == 4
    eigenvalues = np.array([complex(re, im) for re, im in resolved["eigenvalues"]])
    groups = conjugate_groups(eigenvalues)
    assert len(groups) == 4
    periods = sorted(mode_frequency(eigenvalues[g[0]]).period_steps or np.inf for g in groups[:3])
    assert periods[0] == pytest.approx(72.0, rel=5e-3)
    assert periods[1] == pytest.approx(504.0, rel=5e-3)
    assert periods[2] == float("inf")  # the real mode
