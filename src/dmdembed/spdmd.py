"""Sparsity-promoting amplitude selection for fitted mode decompositions.

Solves the l1-regularized amplitude fit

    minimize  ||H - modes diag(a) Vandermonde||_F^2 + gamma * sum_i |a_i|

by alternating-direction iterations: a closed-form Hermitian solve for
the quadratic block and group soft-thresholding for the l1 block.
The penalty rho is scaled to the quadratic form (trace(P) / r, the mean
diagonal entry) and P is eigendecomposed once per problem, so every
solve of (P + rho/2 I) x = b is a diagonal scale in that eigenbasis.
Conjugate eigenvalue pairs are thresholded jointly on their combined
magnitude so a real-valued embedding never receives half a pair.
Surviving amplitudes are polished by an unregularized refit restricted
to the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dmd import DmdDecomposition, conjugate_groups, solve_hermitian

SUPPORT_EPS = 0.0  # prox produces exact zeros; support is strict nonzero


@dataclass(frozen=True)
class AdmmOptions:
    """Iteration controls for the alternating-direction solver."""

    max_iter: int = 10_000
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6


@dataclass
class SpdmdSolution:
    """One solve at a fixed sparsity weight gamma.

    fit_loss is the squared Frobenius residual of the reconstruction at
    these amplitudes (no penalty term). Pruned entries are exactly zero.
    """

    gamma: float
    amplitudes: np.ndarray
    support: np.ndarray
    nonzero_count: int
    fit_loss: float
    polished: bool
    converged: bool
    iterations: int

    @property
    def pair_count(self) -> int:
        """Number of supported conjugate groups (pairs count once)."""
        return sum(1 for g in self._groups if self.support[g[0]])

    _groups: list[list[int]] = field(default_factory=list, repr=False)


@dataclass
class SpdmdPath:
    """Solutions along an ascending gamma grid, warm-started in order.

    ``rho`` is the ADMM penalty used at every grid point.
    """

    gammas: np.ndarray
    solutions: list[SpdmdSolution]
    rho: float
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class GammaGrid:
    """Geometric gamma grid spanning the two trivial limits."""

    num: int = 50
    lo_ratio: float = 1e-6


@dataclass
class SweepResult:
    path: SpdmdPath
    selected: SpdmdSolution
    achieved_pairs: int
    target_met: bool


class _AmplitudeProblem:
    """The fit's quadratic form a*Pa - 2Re(q*a) + s plus pair structure.

    Also holds the ADMM penalty rho = trace(P) / r and the
    eigendecomposition P = V diag(lam) V* that turns each solve with
    P + rho/2 I into a diagonal scale.
    """

    def __init__(self, dec: DmdDecomposition):
        if dec.amplitude_form is None:
            raise ValueError(
                "the decomposition carries no amplitude form (a decomposition read "
                "back from JSON has none); refit it with fit_dmd"
            )
        self.p, self.q, self.s = dec.amplitude_form
        self.groups = conjugate_groups(dec.eigenvalues)
        self.group_index = np.empty(len(dec.eigenvalues), dtype=np.intp)
        for k, g in enumerate(self.groups):
            self.group_index[g] = k
        # Group-lasso weight sqrt(group size) makes the joint threshold
        # equivalent to the plain l1 penalty on a conjugate-symmetric pair.
        self.group_weights = np.sqrt(np.bincount(self.group_index))
        self.rho = float(np.trace(self.p).real) / self.q.size
        self.eigvals, self.eigvecs = np.linalg.eigh(self.p)

    def loss(self, amplitudes: np.ndarray) -> float:
        quad = np.real(amplitudes.conj() @ (self.p @ amplitudes))
        lin = 2.0 * np.real(self.q.conj() @ amplitudes)
        return max(0.0, self.s + quad - lin)

    def gamma_max(self) -> float:
        """Smallest gamma whose optimum is the all-zero amplitude vector.

        Zero is optimal once gamma >= 2 ||q_g||_2 / w_g for every
        conjugate group g (subgradient certificate of the group-l1
        problem at the origin).
        """
        bound = 0.0
        for g in self.groups:
            norm = float(np.linalg.norm(self.q[g]))
            bound = max(bound, 2.0 * norm / math.sqrt(len(g)))
        return bound


def group_threshold(
    v: np.ndarray, group_index: np.ndarray, group_weights: np.ndarray, kappa: float
) -> np.ndarray:
    """Group soft-thresholding: shrink each group's norm by kappa * w_g.

    Entry i belongs to group ``group_index[i]``; groups whose norm does
    not exceed the threshold become exactly zero.
    """
    norms = np.sqrt(np.bincount(group_index, weights=v.real**2 + v.imag**2,
                                minlength=group_weights.size))
    limits = kappa * group_weights
    scale = np.zeros_like(norms)
    keep = norms > limits
    scale[keep] = 1.0 - limits[keep] / norms[keep]
    return scale[group_index] * v


def _admm(
    problem: _AmplitudeProblem,
    gamma: float,
    opts: AdmmOptions,
    beta0: np.ndarray | None = None,
    dual0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, bool, int]:
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    r = problem.q.size
    rho = problem.rho
    vecs = problem.eigvecs
    vecs_h = vecs.conj().T
    shifted = problem.eigvals + 0.5 * rho
    beta = np.zeros(r, dtype=complex) if beta0 is None else beta0.copy()
    dual = np.zeros(r, dtype=complex) if dual0 is None else dual0.copy()
    kappa = gamma / rho
    converged = False
    iterations = opts.max_iter
    for it in range(1, opts.max_iter + 1):
        alpha = vecs @ ((vecs_h @ (problem.q + 0.5 * rho * (beta - dual))) / shifted)
        beta_prev = beta
        beta = group_threshold(alpha + dual, problem.group_index, problem.group_weights, kappa)
        dual = dual + alpha - beta
        primal = float(np.linalg.norm(alpha - beta))
        dual_res = rho * float(np.linalg.norm(beta - beta_prev))
        if primal <= opts.tol_primal and dual_res <= opts.tol_dual:
            converged = True
            iterations = it
            break
    return beta, dual, converged, iterations


def _make_solution(
    problem: _AmplitudeProblem,
    gamma: float,
    amplitudes: np.ndarray,
    polished: bool,
    converged: bool,
    iterations: int,
) -> SpdmdSolution:
    support = np.abs(amplitudes) > SUPPORT_EPS
    return SpdmdSolution(
        gamma=gamma,
        amplitudes=amplitudes,
        support=support,
        nonzero_count=int(support.sum()),
        fit_loss=problem.loss(amplitudes),
        polished=polished,
        converged=converged,
        iterations=iterations,
        _groups=problem.groups,
    )


def _polish_on(problem: _AmplitudeProblem, support: np.ndarray) -> np.ndarray:
    """Unregularized amplitude refit restricted to the support mask:
    off-support entries are exactly zero, on-support entries solve the
    restricted normal equations."""
    if not support.any():
        raise ValueError("polish requires a nonempty support")
    idx = np.nonzero(support)[0]
    out = np.zeros(support.size, dtype=complex)
    out[idx] = solve_hermitian(problem.p[np.ix_(idx, idx)], problem.q[idx])
    return out


def gamma_sweep(
    dec: DmdDecomposition,
    target_modes: int,
    grid: GammaGrid | None = None,
    opts: AdmmOptions | None = None,
) -> SweepResult:
    """Warm-started sweep over an ascending gamma grid.

    ``target_modes`` counts conjugate-pair representatives: a retained
    pair and a retained real mode each count once. Returns the polished
    solution whose pair count is closest to the target, preferring fewer
    pairs on ties, then lower fit loss. The sweep starts from the
    fit's own amplitudes, the unpenalized optimum.
    """
    grid = grid or GammaGrid()
    opts = opts or AdmmOptions()
    problem = _AmplitudeProblem(dec)
    n_groups = len(problem.groups)
    if not 1 <= target_modes <= dec.rank:
        raise ValueError(f"target_modes must be in [1, {dec.rank}], got {target_modes}")
    gamma_hi = problem.gamma_max()
    if gamma_hi <= 0:
        raise ValueError("degenerate problem: zero data certificate")
    gammas = np.geomspace(grid.lo_ratio * gamma_hi, gamma_hi, grid.num)

    solutions: list[SpdmdSolution] = []
    warnings: list[str] = []
    beta = dec.amplitudes
    dual = np.zeros_like(beta)
    prev_count: int | None = None
    for gamma in gammas:
        beta, dual, converged, iterations = _admm(problem, float(gamma), opts, beta, dual)
        support = np.abs(beta) > SUPPORT_EPS
        if support.any():
            amplitudes = _polish_on(problem, support)
        else:
            amplitudes = np.zeros_like(beta)
        sol = _make_solution(problem, float(gamma), amplitudes, True, converged, iterations)
        if not converged:
            warnings.append(
                f"ADMM stopped at the {opts.max_iter}-iteration cap without converging "
                f"at gamma={gamma:.6g}"
            )
        if prev_count is not None and sol.nonzero_count > prev_count + 1:
            warnings.append(
                f"nonzero count rose from {prev_count} to {sol.nonzero_count} "
                f"at gamma={gamma:.6g}"
            )
        prev_count = sol.nonzero_count
        solutions.append(sol)

    path = SpdmdPath(gammas=gammas, solutions=solutions, rho=problem.rho, warnings=warnings)
    target = min(target_modes, n_groups)

    def sort_key(sol: SpdmdSolution):
        pairs = sol.pair_count
        return (abs(pairs - target), pairs, sol.fit_loss, sol.gamma)

    selected = min(solutions, key=sort_key)
    achieved = selected.pair_count
    return SweepResult(
        path=path,
        selected=selected,
        achieved_pairs=achieved,
        target_met=achieved == target,
    )


def export_path_csv(path: SpdmdPath, destination) -> None:
    """Write the sweep path as CSV: gamma, nonzero_count, fit_loss, flags."""
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write("gamma,nonzero_count,fit_loss,polished,converged\n")
        for sol in path.solutions:
            fh.write(
                f"{sol.gamma:.17g},{sol.nonzero_count},{sol.fit_loss:.17g},"
                f"{int(sol.polished)},{int(sol.converged)}\n"
            )
