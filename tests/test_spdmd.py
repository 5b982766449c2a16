import csv
import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed import hankel, spdmd
from dmdembed.dmd import DmdDecomposition, FixedRank, conjugate_groups, fit_dmd, solve_hermitian
from dmdembed.forecaster import split_boundaries, zscore_fit
from dmdembed.hankel import SignalMatrix, build_hankel, default_tau
from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.spdmd import _AmplitudeProblem, _polish_on, export_path_csv, gamma_sweep
from dmdembed.synthetic import SyntheticSpec, generate_synthetic


def rank4_fixture(seed=7, strong=10.0, weak=1.0, t_steps=96, n_nodes=6,
                  strong_period=12.0, weak_period=32.0):
    """Two conjugate pairs with a strong/weak energy split (100:1 at the
    default amplitudes)."""
    rng = np.random.default_rng(seed)
    t = np.arange(t_steps)
    u1 = rng.uniform(0.5, 1.5, n_nodes)
    u2 = rng.uniform(0.5, 1.5, n_nodes)
    phases = rng.uniform(0, 2 * np.pi, size=2)
    values = (
        strong * u1[:, None] * np.cos(2 * np.pi * t / strong_period + phases[0])
        + weak * u2[:, None] * np.cos(2 * np.pi * t / weak_period + phases[1])
    )
    sig = SignalMatrix.from_values(values)
    view = build_hankel(sig, tau=default_tau(sig))
    return fit_dmd(view, FixedRank(4))


def exhaustive_pair_oracle(dec, target_pairs):
    """Best support over all 2^r zero patterns, restricted to
    pair-consistent patterns with exactly the target pair count and
    ranked by polished loss."""
    problem = _AmplitudeProblem(dec)
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
            amplitudes = _polish_on(problem, support)
        loss = problem.loss(amplitudes)
        if best is None or loss < best[1]:
            best = (support, loss)
    return best


def test_polish_full_support_is_least_squares():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    assert_allclose(_polish_on(problem, np.ones(4, bool)), dec.amplitudes)


def test_polish_single_mode_rank_one_signal():
    values = np.outer([2.0, 1.0], np.ones(16))
    sig = SignalMatrix.from_values(values)
    view = build_hankel(sig, tau=1)
    dec = fit_dmd(view, FixedRank(1))
    amp = _polish_on(_AmplitudeProblem(dec), np.array([True]))
    # generator amplitude: ||first column|| since the fitted mode is unit norm
    assert_allclose(np.abs(amp[0]), np.linalg.norm(values[:, 0]), rtol=1e-8)


def test_polish_matches_restricted_normal_equations():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    support = np.array([True, True, False, False])
    amp = _polish_on(problem, support)
    idx = np.nonzero(support)[0]
    expected = np.linalg.solve(problem.p[np.ix_(idx, idx)], problem.q[idx])
    assert_allclose(amp[idx], expected, rtol=1e-8)
    assert np.all(amp[~support] == 0)


def test_polish_never_increases_loss():
    # on its support the refit is the least-squares optimum, so it is no
    # worse than the fit's own amplitudes cut to that support
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    for support in (np.array([True, True, False, False]), np.array([False, False, True, True])):
        cut = np.where(support, dec.amplitudes, 0)
        assert problem.loss(_polish_on(problem, support)) <= problem.loss(cut) + 1e-9


def test_polish_empty_support_raises():
    dec = rank4_fixture()
    with pytest.raises(ValueError):
        _polish_on(_AmplitudeProblem(dec), np.zeros(4, bool))


def test_objective_descent_bounds():
    # every step's loss lies between the full fit's and the empty support's
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    res = gamma_sweep(dec, target_modes=2)
    full = problem.loss(dec.amplitudes)
    for sol in res.path.solutions:
        assert full - 1e-9 <= sol.fit_loss <= problem.s + 1e-9


def test_gamma_sweep_targets():
    dec = rank4_fixture()
    res_full = gamma_sweep(dec, target_modes=2)
    assert res_full.selected.pair_count == 2
    assert res_full.selected.support.all()

    res_one = gamma_sweep(dec, target_modes=1)
    assert res_one.selected.pair_count == 1
    oracle_support, _ = exhaustive_pair_oracle(dec, target_pairs=1)
    assert np.array_equal(res_one.selected.support, oracle_support)
    assert res_one.target_met


def test_gamma_sweep_target_one_on_rank_one_signal():
    values = np.outer([2.0, 1.0], np.ones(16))
    view = build_hankel(SignalMatrix.from_values(values), tau=1)
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
    losses = [sol.fit_loss for sol in res.path.solutions]
    assert all(a >= b for a, b in zip(losses, losses[1:]))


def test_polished_solutions_have_exact_zero_pattern():
    dec = rank4_fixture(seed=3)
    res = gamma_sweep(dec, target_modes=2)
    for sol in res.path.solutions:
        assert np.all(sol.amplitudes[~sol.support] == 0)
        assert np.all(np.abs(sol.amplitudes[sol.support]) > 0)


def test_groups_are_taken_in_energy_order_whatever_their_losses():
    # two real modes: the second alone would leave the lower loss (6.0
    # against 9.0), but the first comes first in the fit's energy order
    def decomposition(q):
        eigenvalues = np.array([0.9, 0.5], dtype=complex)
        return DmdDecomposition(
            eigenvalues=eigenvalues, modes=np.eye(2, dtype=complex), amplitudes=q,
            rank=2, fit_span=8, tau=1,
            amplitude_form=(np.eye(2, dtype=complex), q, 10.0),
        )

    first = gamma_sweep(decomposition(np.array([1.0, 2.0], complex)), target_modes=1)
    assert first.selected.support.tolist() == [True, False]
    assert first.selected.fit_loss == 9.0
    both = gamma_sweep(decomposition(np.array([1.0, 2.0], complex)), target_modes=2)
    assert [sol.group for sol in both.path.solutions] == [[0], [1]]
    assert [sol.fit_loss for sol in both.path.solutions] == [9.0, 5.0]
    # a group that lowers the loss by nothing still counts toward the target
    idle = gamma_sweep(decomposition(np.array([1.0, 0.0], complex)), target_modes=2)
    assert [sol.group for sol in idle.path.solutions] == [[0], [1]]
    assert idle.selected.support.all() and idle.selected.fit_loss == 9.0


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
    # The selection takes the fit's amplitude form; it never touches the data.
    dec = rank4_fixture()

    def refuse(*args, **kwargs):
        raise AssertionError("the selection applied a Hankel product")

    for name in ("apply_tall", "apply_tall_transpose", "gram"):
        monkeypatch.setattr(hankel, name, refuse)
    res = gamma_sweep(dec, target_modes=1)
    assert res.target_met


def test_decomposition_without_amplitude_form_needs_a_refit():
    # built from a fit's fields, as a reader of its run files would, it
    # has no amplitude form to select from
    dec = rank4_fixture()
    hand_built = DmdDecomposition(
        eigenvalues=dec.eigenvalues, modes=dec.modes, amplitudes=dec.amplitudes, rank=dec.rank,
        fit_span=dec.fit_span, tau=dec.tau,
    )
    with pytest.raises(ValueError, match="no amplitude form; refit"):
        _AmplitudeProblem(hand_built)
    with pytest.raises(ValueError, match="no amplitude form; refit"):
        gamma_sweep(hand_built, target_modes=1)


def test_export_path_csv(tmp_path):
    dec = rank4_fixture()
    res = gamma_sweep(dec, target_modes=2)
    dest = tmp_path / "path.csv"
    export_path_csv(res.path, dec.eigenvalues, dest)
    with open(dest) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["step", "period_steps", "growth_rate", "fit_loss"]
    assert [int(r["step"]) for r in rows] == [1, 2]
    # the strong 12-step pair first, then the weak 32-step pair
    assert [round(float(r["period_steps"])) for r in rows] == [12, 32]
    assert [float(r["fit_loss"]) for r in rows] == [s.fit_loss for s in res.path.solutions]
    assert all(abs(float(r["growth_rate"])) < 1e-3 for r in rows)


def random_decomposition(seed, rank):
    """Fit of a small random signal: one to three sinusoids of random
    period, phase per node, plus noise, at a random tau."""
    rng = np.random.default_rng(seed)
    n_nodes, t_steps = int(rng.integers(1, 5)), int(rng.integers(24, 72))
    steps = np.arange(t_steps)
    values = rng.normal(scale=0.3, size=(n_nodes, t_steps))
    for _ in range(int(rng.integers(1, 4))):
        phases = rng.uniform(0, 2 * np.pi, size=(n_nodes, 1))
        values += rng.uniform(0.2, 2.0) * np.cos(2 * np.pi * steps / rng.uniform(3, 30) + phases)
    tau = int(rng.integers(1, t_steps // 3))
    view = build_hankel(SignalMatrix.from_values(values), tau=tau)
    return fit_dmd(view, FixedRank(min(rank, n_nodes * tau, t_steps - tau - 1)))


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_selection_is_the_energy_order_prefix_with_polish(seed, rank):
    dec = random_decomposition(seed, rank)
    problem = _AmplitudeProblem(dec)
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
            assert np.array_equal(sol.amplitudes, _polish_on(problem, sol.support))
            assert sol.fit_loss == problem.loss(sol.amplitudes)
        losses = [sol.fit_loss for sol in res.path.solutions]
        assert all(b <= a + 1e-9 * problem.s for a, b in zip(losses, losses[1:]))
        if len(groups) <= target:
            # nothing is left to choose: every group is selected
            assert res.selected.support.all()


@functools.lru_cache(maxsize=None)
def a1_fit(seed):
    """The fit of a run on the A1 signal (8 x 2016, noise 0.1) at rank
    fixed:24: its normalized training span, at the default tau."""
    signal = generate_synthetic(SyntheticSpec(noise=0.1, seed=seed))
    b_train, _ = split_boundaries(signal.n_steps, PipelineConfig().split)
    zscore = zscore_fit(signal.values[:, :b_train], signal.node_ids)
    train = SignalMatrix.from_values(zscore.transform(signal.values)[:, :b_train])
    return fit_dmd(build_hankel(train, default_tau(train)), FixedRank(24))


def forward_selection(dec, target):
    """Reference: each step adds the group whose polished refit, with the
    groups chosen so far, leaves the lowest loss."""
    problem = _AmplitudeProblem(dec)
    chosen, support = [], np.zeros(dec.rank, dtype=bool)
    for _ in range(min(target, len(problem.groups))):
        def loss_with(group):
            trial = support.copy()
            trial[group] = True
            return problem.loss(_polish_on(problem, trial))
        chosen.append(min((g for g in problem.groups if g not in chosen), key=loss_with))
        support[chosen[-1]] = True
    return chosen


@pytest.mark.parametrize("seed", range(1, 6))
def test_energy_order_agrees_with_forward_selection_on_a1(seed):
    # the two orders part only past the default target of 4 groups
    dec = a1_fit(seed)
    path = gamma_sweep(dec, target_modes=4).path
    assert [sol.group for sol in path.solutions] == dec.groups[:4] == forward_selection(dec, 4)


def test_each_step_makes_one_polished_solve(monkeypatch):
    # 13 groups, as on the many_modes workload: target 4 takes 4 solves,
    # where a search over every remaining group took 13 + 12 + 11 + 10 = 46
    dec = a1_fit(1)
    assert len(dec.groups) == 13
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_hermitian(*args)

    monkeypatch.setattr(spdmd, "solve_hermitian", counted)
    for target in (1, 4, 13):
        calls.clear()
        gamma_sweep(dec, target_modes=target)
        assert len(calls) == target


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
    with open(out / "spdmd_path.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["step"]) for r in rows] == [1, 2, 3, 4]
    losses = [float(r["fit_loss"]) for r in rows]
    assert all(a >= b for a, b in zip(losses, losses[1:]))
    periods = sorted(float(r["period_steps"]) for r in rows[:3])
    assert periods[0] == pytest.approx(72.0, rel=5e-3)
    assert periods[1] == pytest.approx(504.0, rel=5e-3)
    assert periods[2] == float("inf")  # the real mode
