import csv
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmdembed import hankel
from dmdembed.dmd import DmdDecomposition, FixedRank, conjugate_groups, fit_dmd
from dmdembed.hankel import SignalMatrix, build_hankel, default_tau
from dmdembed.pipeline import PipelineConfig, run_pipeline
from dmdembed.spdmd import (
    AdmmOptions,
    GammaGrid,
    _admm,
    _AmplitudeProblem,
    _make_solution,
    export_path_csv,
    gamma_sweep,
    _polish_on,
    group_threshold,
)
from dmdembed.synthetic import generate_synthetic, two_period_spec


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


def admm_solution(problem, gamma, opts=None):
    """One unpolished ADMM solve at a single gamma, a batch of one row:
    the step gamma_sweep takes at each grid point, from the fit's
    amplitudes."""
    betas, converged, iterations = _admm(problem, np.array([gamma]), opts or AdmmOptions())
    return _make_solution(problem, gamma, betas[0], False, bool(converged[0]), int(iterations[0]))


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


def test_vanishing_penalty_limit_matches_least_squares():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    a_ls = dec.amplitudes
    sol = admm_solution(problem, 1e-12 * problem.gamma_max())
    assert sol.support.all()
    assert np.max(np.abs(sol.amplitudes - a_ls)) <= 1e-6 * np.max(np.abs(a_ls))
    assert sol.converged


def test_full_shrinkage_limit():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    sol = admm_solution(problem, 2.0 * problem.gamma_max())
    assert sol.nonzero_count == 0
    assert not sol.support.any()


def test_midpoint_gamma_keeps_the_strong_pair():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    # per-group shrinkage certificates; the largest is gamma_max, the
    # smallest the point where the weak pair dies
    certs = [2.0 * np.linalg.norm(problem.q[g]) / np.sqrt(len(g)) for g in problem.groups]
    gamma = np.sqrt(min(certs) * max(certs))
    sol = admm_solution(problem, gamma)
    oracle_support, _ = exhaustive_pair_oracle(dec, target_pairs=1)
    assert np.array_equal(sol.support, oracle_support)


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
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    gamma = 0.01 * problem.gamma_max()
    raw = admm_solution(problem, gamma)
    if raw.support.any():
        polished = _polish_on(problem, raw.support)
        assert problem.loss(polished) <= raw.fit_loss + 1e-9


def test_polish_empty_support_raises():
    dec = rank4_fixture()
    with pytest.raises(ValueError):
        _polish_on(_AmplitudeProblem(dec), np.zeros(4, bool))


def test_objective_descent_bounds():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    a_ls = dec.amplitudes
    gamma = 0.05 * problem.gamma_max()
    sol = admm_solution(problem, gamma)
    j_sol = sol.fit_loss + gamma * np.sum(np.abs(sol.amplitudes))
    assert j_sol <= problem.loss(np.zeros(4, complex)) + 1e-9
    assert j_sol <= problem.loss(a_ls) + gamma * np.sum(np.abs(a_ls)) + 1e-9


def test_gamma_sweep_targets():
    dec = rank4_fixture()
    res_full = gamma_sweep(dec, target_modes=2)
    assert res_full.achieved_pairs == 2
    assert res_full.selected.support.all()

    res_one = gamma_sweep(dec, target_modes=1)
    assert res_one.achieved_pairs == 1
    oracle_support, _ = exhaustive_pair_oracle(dec, target_pairs=1)
    assert np.array_equal(res_one.selected.support, oracle_support)
    assert res_one.target_met


def test_gamma_sweep_target_one_on_rank_one_signal():
    values = np.outer([2.0, 1.0], np.ones(16))
    view = build_hankel(SignalMatrix.from_values(values), tau=1)
    dec = fit_dmd(view, FixedRank(1))
    res = gamma_sweep(dec, target_modes=1)
    assert res.achieved_pairs == 1
    assert res.selected.support[0]


def test_path_monotone_and_pair_symmetric():
    dec = rank4_fixture(seed=11)
    res = gamma_sweep(dec, target_modes=1)
    counts = [s.nonzero_count for s in res.path.solutions]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    groups = conjugate_groups(dec.eigenvalues)
    for sol in res.path.solutions:
        for g in groups:
            states = {bool(sol.support[i]) for i in g}
            assert len(states) == 1
    assert res.path.warnings == []


def test_polished_solutions_have_exact_zero_pattern():
    dec = rank4_fixture(seed=3)
    res = gamma_sweep(dec, target_modes=1)
    for sol in res.path.solutions:
        assert sol.polished
        assert np.all(sol.amplitudes[~sol.support] == 0)
        assert np.all(np.abs(sol.amplitudes[sol.support]) > 0)
        assert sol.nonzero_count == int(sol.support.sum())


def test_gamma_grid_spans_limits():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    res = gamma_sweep(dec, target_modes=2, grid=GammaGrid(num=10))
    assert res.path.gammas.size == 10
    assert res.path.gammas[0] == pytest.approx(1e-6 * problem.gamma_max())
    assert res.path.gammas[-1] == pytest.approx(problem.gamma_max())
    assert res.path.solutions[-1].nonzero_count == 0


def test_gamma_sweep_validation():
    dec = rank4_fixture()
    with pytest.raises(ValueError):
        gamma_sweep(dec, target_modes=0)
    with pytest.raises(ValueError):
        gamma_sweep(dec, target_modes=9)
    with pytest.raises(ValueError):
        admm_solution(_AmplitudeProblem(dec), -1.0)


def test_sweep_applies_no_hankel_product(monkeypatch):
    # The sweep takes the fit's amplitude form; it never touches the data.
    dec = rank4_fixture()

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep applied a Hankel product")

    for name in ("apply_tall", "apply_tall_transpose", "gram"):
        monkeypatch.setattr(hankel, name, refuse)
    res = gamma_sweep(dec, target_modes=1)
    assert res.target_met


def test_decomposition_read_from_json_needs_a_refit():
    dec = rank4_fixture()
    back = DmdDecomposition.from_json(dec.to_json(), dec.modes)
    with pytest.raises(ValueError, match="refit"):
        _AmplitudeProblem(back)
    with pytest.raises(ValueError, match="refit"):
        gamma_sweep(back, target_modes=1)


def test_nonconvergence_flagged_not_raised():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    sol = admm_solution(problem, 0.01 * problem.gamma_max(), opts=AdmmOptions(max_iter=2))
    assert not sol.converged
    assert sol.iterations == 2


def test_export_path_csv(tmp_path):
    dec = rank4_fixture()
    res = gamma_sweep(dec, target_modes=1, grid=GammaGrid(num=5))
    dest = tmp_path / "path.csv"
    export_path_csv(res.path, dest)
    with open(dest) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert set(rows[0]) == {"gamma", "nonzero_count", "fit_loss", "polished", "converged"}
    assert [int(r["nonzero_count"]) for r in rows][-1] == 0


def test_sweep_warns_when_a_grid_point_stops_at_the_cap():
    dec = rank4_fixture()
    res = gamma_sweep(dec, target_modes=1, grid=GammaGrid(num=5),
                      opts=AdmmOptions(max_iter=2))
    capped = [s for s in res.path.solutions if not s.converged]
    assert capped
    cap_warnings = [w for w in res.path.warnings if "iteration cap" in w]
    assert len(cap_warnings) == len(capped)


def test_penalty_is_the_mean_diagonal_of_the_quadratic_form():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    assert problem.rho == pytest.approx(np.trace(problem.p).real / dec.rank)
    res = gamma_sweep(dec, target_modes=1, grid=GammaGrid(num=5))
    assert res.path.rho == problem.rho


def _reference_threshold(v, groups, kappa):
    out = np.zeros_like(v)
    for g in groups:
        w = np.sqrt(len(g))
        norm = np.linalg.norm(v[g])
        if norm > kappa * w:
            out[g] = (1.0 - kappa * w / norm) * v[g]
    return out


@given(
    st.lists(st.integers(1, 2), min_size=1, max_size=12),
    st.integers(0, 10_000),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 3.0)), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_group_threshold_matches_per_group_loop(sizes, seed, kappas):
    # one row per kappa, each thresholded at its own limits kappa * w_g
    rng = np.random.default_rng(seed)
    order = rng.permutation(sum(sizes))
    bounds = np.cumsum([0] + sizes)
    groups = [list(order[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    membership = np.zeros((order.size, len(groups)))
    for k, g in enumerate(groups):
        membership[g, k] = 1.0
    weights = np.sqrt(np.array(sizes, dtype=float))
    v = rng.normal(size=(len(kappas), order.size)) + 1j * rng.normal(size=(len(kappas), order.size))
    zeroed = rng.random((len(kappas), len(groups))) < 0.3
    for row, z_row in zip(v, zeroed):
        for g, z in zip(groups, z_row):
            if z:
                row[g] = 0.0
    out = group_threshold(v, membership, np.outer(kappas, weights))
    for row, out_row, kappa, z_row in zip(v, out, kappas, zeroed):
        expected = _reference_threshold(row, groups, kappa)
        assert_allclose(out_row, expected, rtol=1e-12, atol=1e-12)
        for g, z in zip(groups, z_row):
            if z:
                assert np.all(out_row[g] == 0)


def _dense_reference_admm(problem, gamma, max_iter=200_000, tol=1e-6):
    """Plain ADMM from zero at one gamma: unit penalty and a fresh dense
    solve every iteration. Also returns the last input of the threshold."""
    rho = 1.0
    system = problem.p + 0.5 * rho * np.eye(problem.q.size)
    beta = np.zeros(problem.q.size, dtype=complex)
    dual = np.zeros_like(beta)
    for _ in range(max_iter):
        alpha = np.linalg.solve(system, problem.q + 0.5 * rho * (beta - dual))
        beta_prev = beta
        v = alpha + dual
        beta = _reference_threshold(v, problem.groups, gamma / rho)
        dual = dual + alpha - beta
        if (np.linalg.norm(alpha - beta) <= tol
                and rho * np.linalg.norm(beta - beta_prev) <= tol):
            return beta, True, v
    return beta, False, v


def test_admm_matches_dense_reference():
    dec = rank4_fixture()
    problem = _AmplitudeProblem(dec)
    gamma_hi = problem.gamma_max()
    certs = [2.0 * np.linalg.norm(problem.q[g]) / np.sqrt(len(g)) for g in problem.groups]
    gammas = list(np.geomspace(1e-6 * gamma_hi, gamma_hi, 12)) + [np.sqrt(min(certs) * max(certs))]
    betas, converged, _ = _admm(problem, np.array(gammas), AdmmOptions())
    supports = set()
    for gamma, beta, row_converged in zip(gammas, betas, converged):
        expected, ref_converged, _ = _dense_reference_admm(problem, gamma)
        assert row_converged and ref_converged
        assert np.array_equal(beta != 0, expected != 0), gamma
        scale = max(float(np.max(np.abs(expected))), 1e-300)
        assert np.max(np.abs(beta - expected)) <= 1e-6 * scale
        supports.add(int(np.count_nonzero(beta)))
    assert supports == {0, 2, 4}


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
@settings(max_examples=30, deadline=None)
def test_every_grid_row_matches_dense_reference_at_its_gamma(seed, rank):
    # Both solvers stop at 1e-9 within the same iteration budget, so their
    # stopping error stays far below 1e-6 of the amplitude scale (the fit's
    # largest amplitude) even where every amplitude is small.
    tol = 1e-9
    problem = _AmplitudeProblem(random_decomposition(seed, rank))
    scale = float(np.max(np.abs(problem.start)))
    gamma_hi = problem.gamma_max()
    gammas = np.geomspace(1e-6 * gamma_hi, gamma_hi, 8)
    opts = AdmmOptions(max_iter=200_000, tol_primal=tol, tol_dual=tol)
    betas, converged, _ = _admm(problem, gammas, opts)
    assert converged.all()
    weights = np.sqrt([len(g) for g in problem.groups])
    for gamma, beta in zip(gammas, betas):
        expected, ref_converged, prox_input = _dense_reference_admm(problem, gamma, tol=tol)
        assert ref_converged
        # a group on its threshold may fall either way
        limits = gamma * weights
        norms = np.array([np.linalg.norm(prox_input[g]) for g in problem.groups])
        for g, on_edge in zip(problem.groups, np.abs(norms - limits) <= 1e-6 * limits):
            if not on_edge:
                assert np.array_equal(beta[g] != 0, expected[g] != 0), gamma
        assert np.max(np.abs(beta - expected)) <= 1e-6 * scale


def test_grid_row_does_not_depend_on_its_batch():
    sig = generate_synthetic(two_period_spec(n_steps=360, noise_sigma=0.1, seed=1))
    wide = fit_dmd(build_hankel(sig, tau=default_tau(sig)), FixedRank(24))
    for dec in (rank4_fixture(), wide):
        problem = _AmplitudeProblem(dec)
        gamma_hi = problem.gamma_max()
        gammas = np.geomspace(1e-6 * gamma_hi, gamma_hi, 50)
        betas, converged, iterations = _admm(problem, gammas, AdmmOptions())
        assert converged.all()
        for k, gamma in enumerate(gammas):
            alone, alone_converged, alone_iterations = _admm(problem, gammas[k:k + 1], AdmmOptions())
            assert np.array_equal(alone[0] != 0, betas[k] != 0)
            scale = max(float(np.max(np.abs(betas[k]))), 1e-300)
            assert np.max(np.abs(alone[0] - betas[k])) <= 1e-9 * scale
            assert alone_converged[0] and alone_iterations[0] == iterations[k]
        # a cap that half the rows reach: those stop there with their last
        # iterate, and the rest converge as they do uncapped
        cap = int(np.median(iterations))
        capped, capped_converged, capped_iterations = _admm(
            problem, gammas, AdmmOptions(max_iter=cap))
        assert 0 < np.count_nonzero(~capped_converged) < gammas.size
        assert np.array_equal(capped_converged, iterations <= cap)
        assert np.array_equal(capped_iterations, np.minimum(iterations, cap))
        for k, row_converged in enumerate(capped_converged):
            gap = np.max(np.abs(capped[k] - betas[k]))
            if row_converged:
                assert gap <= 1e-9 * np.max(np.abs(betas[k]))
            else:
                assert gap < np.max(np.abs(problem.start - betas[k]))


def test_many_mode_sweep_converges_everywhere(tmp_path):
    """A1 signal at rank fixed:24: twelve conjugate groups over 50 gammas."""
    cfg = PipelineConfig(
        synthetic=two_period_spec(noise_sigma=0.1, seed=1),
        rank="fixed:24",
        output_dir=str(tmp_path / "run"),
        seed=1,
    )
    out = run_pipeline(cfg, until="fit")
    with open(out / "spdmd_path.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    assert all(r["converged"] == "1" for r in rows)
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert resolved["rank"] == 24
    assert resolved["spdmd_unconverged"] == 0
    assert resolved["spdmd_iterations"] < 10_000
