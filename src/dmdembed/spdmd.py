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
A sweep solves all its grid points together, one row per gamma, each
stopping at its own convergence. Surviving amplitudes are polished by
an unregularized refit restricted to the support, once per support.
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
    """Solutions along an ascending gamma grid, all solved together from
    the fit's amplitudes, each stopping at its own convergence.

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

    Also holds the fit's amplitudes (where each ADMM solve starts), the
    group membership, the ADMM penalty rho = trace(P) / r and the
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
        self.start = dec.amplitudes
        self.groups = conjugate_groups(dec.eigenvalues)
        self.membership = np.zeros((self.q.size, len(self.groups)))
        for k, g in enumerate(self.groups):
            self.membership[g, k] = 1.0
        # Group-lasso weight sqrt(group size) makes the joint threshold
        # equivalent to the plain l1 penalty on a conjugate-symmetric pair.
        self.group_weights = np.sqrt(self.membership.sum(axis=0))
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


def group_threshold(v: np.ndarray, membership: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Group soft-thresholding of each row of a (K, r) block: row k shrinks
    the norm of group g (column g of the (r, groups) 0/1 ``membership``)
    by ``limits[k, g]``; a group not above its limit becomes exactly zero."""
    norms = np.sqrt((v.real**2 + v.imag**2) @ membership)
    keep = norms > limits
    scale = np.where(keep, 1.0 - limits / np.where(keep, norms, 1.0), 0.0)
    return (scale @ membership.T) * v


def _admm(
    problem: _AmplitudeProblem, gammas: np.ndarray, opts: AdmmOptions
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ADMM at every gamma at once: row k of the (K, r) block solves at
    ``gammas[k]`` from the fit's amplitudes with a zero dual. The rows
    iterate in lockstep and each retires at its own convergence or at
    ``opts.max_iter``. Returns the amplitudes and each row's converged
    flag and iteration count."""
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas <= 0):
        raise ValueError(f"gammas must be positive, got {gammas}")
    rho = problem.rho
    # Row form of V diag(1 / (lam + rho/2)) V* b: (b conj(V) / shifted) V^T.
    vecs_conj, vecs_t = problem.eigvecs.conj(), problem.eigvecs.T.copy()
    shifted = problem.eigvals + 0.5 * rho
    result = np.tile(problem.start, (gammas.size, 1))
    iterations = np.full(gammas.size, opts.max_iter)
    rows = np.arange(gammas.size)
    limits = np.outer(gammas / rho, problem.group_weights)
    beta, dual = result.copy(), np.zeros_like(result)
    for it in range(1, opts.max_iter + 1):
        alpha = ((problem.q + 0.5 * rho * (beta - dual)) @ vecs_conj / shifted) @ vecs_t
        beta_prev = beta
        beta = group_threshold(alpha + dual, problem.membership, limits)
        dual = dual + alpha - beta
        primal = np.linalg.norm(alpha - beta, axis=1)
        dual_res = rho * np.linalg.norm(beta - beta_prev, axis=1)
        done = (primal <= opts.tol_primal) & (dual_res <= opts.tol_dual)
        if done.any():
            result[rows[done]] = beta[done]
            iterations[rows[done]] = it
            rows, beta, dual, limits = rows[~done], beta[~done], dual[~done], limits[~done]
            if not rows.size:
                break
    result[rows] = beta
    return result, ~np.isin(np.arange(gammas.size), rows), iterations


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
    """Sweep over an ascending gamma grid, all grid points together.

    ``target_modes`` counts conjugate-pair representatives: a retained
    pair and a retained real mode each count once. Returns the polished
    solution whose pair count is closest to the target, preferring fewer
    pairs on ties, then lower fit loss. Every grid point starts from the
    fit's own amplitudes and stops at its own convergence.
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

    betas, converged_rows, iteration_rows = _admm(problem, gammas, opts)
    supports, which = np.unique(np.abs(betas) > SUPPORT_EPS, axis=0, return_inverse=True)
    refits = [_polish_on(problem, s) if s.any() else np.zeros(s.size, complex) for s in supports]
    solutions: list[SpdmdSolution] = []
    warnings: list[str] = []
    prev_count: int | None = None
    for gamma, k, converged, iterations in zip(gammas, which, converged_rows, iteration_rows):
        sol = _make_solution(problem, float(gamma), refits[k], True, bool(converged), int(iterations))
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
