"""Local-unitary equivalence decision for multipartite density matrices.

Two states with matching non-degenerate spectra are equivalent exactly when
some diagonal phase matrix D makes V = X D Y^dag tensor decomposable, which
the realignment rank-one criterion detects at every sequential cut.  The
phases are found numerically by minimizing the smooth surrogate

    f(theta) = sum over cuts of (sigma2 / sigma1)^2 of realign(V(theta)),

which is exactly zero at solutions.  Spectra with small degenerate blocks
fall back to a block-unitary search V0 = X blockdiag(A_1..A_r) Y^dag; that
extension of the bipartite criterion is unproven in the multipartite setting,
so verdicts from it are flagged.  Every EQUIVALENT verdict ships an explicit
witness (U_1, ..., U_M) whose conjugation residual is verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decompose import FactorSet, NotDecomposableError, factor_full
from .search import SearchOutcome, run_search
from .spectral import (
    DegeneracyProfile,
    RankOneReport,
    Spectrum,
    degeneracy_profile,
    eig_hermitian,
    rank_one_test,
    spectra_match,
)
from .states import DensityMatrix, validate_density
from .tensor import DimProfile, _realign_matrix, as_cmatrix, kron_all

OBJECTIVE_POLISH = 1e-20


class VerdictStatus(str, Enum):
    EQUIVALENT = "EQUIVALENT"
    INEQUIVALENT_SPECTRUM = "INEQUIVALENT_SPECTRUM"
    NOT_FOUND = "NOT_FOUND"
    DEGENERATE_UNSUPPORTED = "DEGENERATE_UNSUPPORTED"


@dataclass
class SearchConfig:
    """Tolerances and budgets for the equivalence pipeline."""

    seeds: int = 64
    sweeps: int = 200
    restarts: int = 20
    rank_tol: float = 1e-7
    spec_tol: float = 1e-8
    degeneracy_tol: float = 1e-8
    witness_tol: float = 1e-8
    max_block: int = 2
    seed: int = 0

    @property
    def objective_success(self) -> float:
        return self.rank_tol**2

    @property
    def objective_target(self) -> float:
        # polish well below the success level so witnesses verify comfortably
        return min(self.rank_tol**2, OBJECTIVE_POLISH)


@dataclass
class Verdict:
    """Outcome of a check, with enough detail to reproduce and report it.

    NOT_FOUND never asserts inequivalence: the phase search is one-sided and
    only reports that no decomposable element was found within budget.
    """

    status: VerdictStatus
    witness: FactorSet | None = None
    witness_residual: float | None = None
    phases: np.ndarray | None = None
    cut_reports: list[RankOneReport] | None = None
    objective_history: list[tuple[int, float]] = field(default_factory=list)
    best_objective: float | None = None
    used_degenerate_fallback: bool = False
    seed: int | None = None
    restarts_used: int = 0


def build_V(x_basis, y_basis, phases) -> np.ndarray:
    """V = X diag(e^{i theta}) Y^dag."""
    x = as_cmatrix(x_basis)
    y = as_cmatrix(y_basis)
    theta = np.asarray(phases, dtype=float).reshape(-1)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise ValueError(f"bases must be square and congruent, got {x.shape}, {y.shape}")
    if theta.size != x.shape[0]:
        raise ValueError(f"phase vector length {theta.size} != dimension {x.shape[0]}")
    return (x * np.exp(1j * theta)[np.newaxis, :]) @ y.conj().T


def build_V0(x_basis, y_basis, profile: DegeneracyProfile, blocks) -> np.ndarray:
    """V0 = X blockdiag(A_1, ..., A_r) Y^dag with block sizes from the profile."""
    x = as_cmatrix(x_basis)
    y = as_cmatrix(y_basis)
    sizes = profile.multiplicities
    blocks = [as_cmatrix(b) for b in blocks]
    if len(blocks) != len(sizes):
        raise ValueError(f"expected {len(sizes)} blocks, got {len(blocks)}")
    for b, n in zip(blocks, sizes):
        if b.shape != (n, n):
            raise ValueError(f"block shape {b.shape} does not match multiplicity {n}")
    if profile.total != x.shape[0]:
        raise ValueError(f"profile total {profile.total} != dimension {x.shape[0]}")
    out = np.zeros((x.shape[0], x.shape[0]), dtype=np.complex128)
    lo = 0
    for b, n in zip(blocks, sizes):
        sl = slice(lo, lo + n)
        out += x[:, sl] @ b @ y[:, sl].conj().T
        lo += n
    return out


def _cut_splits(profile: DimProfile) -> list[tuple[int, int]]:
    return [profile.split(k) for k in range(1, profile.nsites)]


def _objective_of_v(v: np.ndarray, splits: list[tuple[int, int]]) -> float:
    f = 0.0
    for d_left, d_right in splits:
        sv = np.linalg.svd(_realign_matrix(v, d_left, d_right), compute_uv=False)
        if sv[0] > 0 and sv.size > 1:
            f += float((sv[1] / sv[0]) ** 2)
    return f


def _objective_and_leading_pairs(
    v: np.ndarray, splits: list[tuple[int, int]]
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Objective at V and each cut's leading pair (u1, v1), u1^dag tilde v1 = sigma1.

    One thin SVD per cut gives both.  Full factors of a lopsided cut (4 x 1024
    on 2^6) would build a 1024 x 1024 unitary only to read one column of it.
    """
    f = 0.0
    pairs = []
    for d_left, d_right in splits:
        uu, sv, vh = np.linalg.svd(_realign_matrix(v, d_left, d_right), full_matrices=False)
        if sv[0] > 0 and sv.size > 1:
            f += float((sv[1] / sv[0]) ** 2)
        pairs.append((uu[:, 0], vh[0, :].conj()))
    return f, pairs


class _LeadingPairCache:
    """Leading pairs of the point an alignment pass ended on.

    The next pass usually starts from that exact point; any other parameter
    vector (the line search mutates params in place) is decomposed afresh.
    """

    def __init__(self, build, splits: list[tuple[int, int]]):
        self._build = build
        self._splits = splits
        self._key: np.ndarray | None = None
        self._pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def at(self, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._key is not None and np.array_equal(self._key, params):
            return self._pairs
        return _objective_and_leading_pairs(self._build(params), self._splits)[1]

    def finish(self, params: np.ndarray) -> float:
        """Objective at a pass's new point, keeping its pairs for the next pass."""
        f, self._pairs = _objective_and_leading_pairs(self._build(params), self._splits)
        self._key = params.copy()
        return f


def _objective_of_v_batch(vs: np.ndarray, splits: list[tuple[int, int]]) -> np.ndarray:
    g = vs.shape[0]
    f = np.zeros(g)
    for d_left, d_right in splits:
        tilde = (
            vs.reshape(g, d_left, d_right, d_left, d_right)
            .transpose(0, 1, 3, 2, 4)
            .reshape(g, d_left * d_left, d_right * d_right)
        )
        sv = np.linalg.svd(tilde, compute_uv=False)
        if sv.shape[1] > 1:
            f += (sv[:, 1] / np.maximum(sv[:, 0], 1e-300)) ** 2
    return f


def _realign_rank1_stack(x: np.ndarray, y: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    """T[j] = realignment of outer(x[:, j], conj(y[:, j])), stacked over j."""
    n, d = x.shape
    outers = x.T[:, :, np.newaxis] * y.conj().T[:, np.newaxis, :]  # (d, n, n)
    return (
        outers.reshape(d, d_left, d_right, d_left, d_right)
        .transpose(0, 1, 3, 2, 4)
        .reshape(d, d_left * d_left, d_right * d_right)
    )


class PhaseContext:
    """Precomputed eigenbases and cut splits for the phase objective."""

    def __init__(self, x_basis, y_basis, profile: DimProfile):
        self.x = as_cmatrix(x_basis)
        self.y = as_cmatrix(y_basis)
        self.profile = profile
        self.dim = profile.total
        if self.x.shape != (self.dim, self.dim) or self.y.shape != (self.dim, self.dim):
            raise ValueError("eigenbasis shapes do not match the dimension profile")
        self.splits = _cut_splits(profile)
        self.yh = self.y.conj().T
        self._tensors: list[np.ndarray] | None = None
        self._leading = _LeadingPairCache(self.build, self.splits)

    def build(self, theta: np.ndarray) -> np.ndarray:
        return (self.x * np.exp(1j * theta)[np.newaxis, :]) @ self.yh

    def eval_full(self, theta: np.ndarray) -> float:
        return _objective_of_v(self.build(theta), self.splits)

    def eval_coord_batch(self, theta: np.ndarray, j: int, values: np.ndarray) -> np.ndarray:
        v = self.build(theta)
        r_j = np.outer(self.x[:, j], self.y[:, j].conj())
        delta = np.exp(1j * values) - np.exp(1j * theta[j])
        vs = v[np.newaxis, :, :] + delta[:, np.newaxis, np.newaxis] * r_j[np.newaxis, :, :]
        return _objective_of_v_batch(vs, self.splits)

    def _cut_tensors(self) -> list[np.ndarray]:
        if self._tensors is None:
            self._tensors = [
                _realign_rank1_stack(self.x, self.y, dl, dr) for dl, dr in self.splits
            ]
        return self._tensors

    def align_pass(self, theta: np.ndarray) -> tuple[np.ndarray, float]:
        """One monotone refinement: align phases against leading singular pairs.

        With the leading singular vectors (u_k, v_k) of each realignment held
        fixed, sum_k |u_k^dag Vtilde_k v_k|^2 is a lower bound of sum_k sigma1^2
        that closed-form unit-modulus updates maximize coordinate-wise; raising
        it squeezes the subdominant singular mass toward zero.
        """
        tensors = self._cut_tensors()
        pairs = self._leading.at(theta)
        g = np.stack(
            [
                np.einsum("a,jab,b->j", u1.conj(), t_k, v1)
                for t_k, (u1, v1) in zip(tensors, pairs)
            ]
        )
        c = np.exp(1j * theta)
        for _ in range(3):
            s = g @ c
            for j in range(self.dim):
                w = s - g[:, j] * c[j]
                z = np.vdot(g[:, j].conj(), w.conj())
                if abs(z) > 0:
                    new = np.conj(z) / abs(z)
                    s += g[:, j] * (new - c[j])
                    c[j] = new
        c *= np.conj(c[0]) / abs(c[0])  # keep theta_1 pinned at 0
        theta_new = np.angle(c) % (2.0 * np.pi)
        theta_new[0] = 0.0
        return theta_new, self._leading.finish(theta_new)


def objective(phases, ctx: PhaseContext) -> float:
    """Sum over sequential cuts of (sigma2/sigma1)^2 at V(phases); zero iff rank one."""
    theta = np.asarray(phases, dtype=float).reshape(-1)
    if theta.size != ctx.dim:
        raise ValueError(f"phase vector length {theta.size} != dimension {ctx.dim}")
    return ctx.eval_full(theta)


def phase_search(ctx: PhaseContext, config: SearchConfig) -> SearchOutcome:
    """Find phases driving the objective below rank_tol^2, or report the best.

    Requires a non-degenerate spectrum pairing (the diagonal-phase coset is
    only exhaustive in that case).  theta_1 is pinned to zero: a global phase
    shift never changes the realignment ratios.
    """
    return run_search(
        ctx,
        ctx.dim,
        free=np.arange(1, ctx.dim),
        n_seeds=config.seeds,
        sweeps=config.sweeps,
        restarts=config.restarts,
        f_target=config.objective_target,
        f_success=config.objective_success,
        seed=config.seed,
    )


def _unitary_2x2(phi: float, alpha: float, beta: float, t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.exp(1j * phi) * np.array(
        [
            [np.exp(1j * alpha) * c, np.exp(1j * beta) * s],
            [-np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c],
        ],
        dtype=np.complex128,
    )


def _params_from_2x2(a: np.ndarray) -> tuple[float, float, float, float]:
    phi = 0.5 * float(np.angle(np.linalg.det(a)))
    b = a * np.exp(-1j * phi)
    t = float(np.arctan2(abs(b[0, 1]), abs(b[0, 0])))
    alpha = float(np.angle(b[0, 0])) if abs(b[0, 0]) > 0 else 0.0
    beta = float(np.angle(b[0, 1])) if abs(b[0, 1]) > 0 else 0.0
    return phi, alpha, beta, t


class BlockContext:
    """Torus parameterization of blockdiag(A_1..A_r) for degenerate spectra.

    1x1 blocks contribute one phase; 2x2 blocks contribute four angles
    (phi, alpha, beta, t) covering all of U(2).
    """

    def __init__(self, x_basis, y_basis, profile: DimProfile, deg: DegeneracyProfile):
        self.x = as_cmatrix(x_basis)
        self.y = as_cmatrix(y_basis)
        self.profile = profile
        self.deg = deg
        self.splits = _cut_splits(profile)
        self.yh = self.y.conj().T
        if deg.max_multiplicity > 2:
            raise ValueError("block search supports multiplicities up to 2")
        self.block_slices: list[slice] = []
        self.param_slices: list[slice] = []
        lo = 0
        p = 0
        for _, n in deg.blocks:
            self.block_slices.append(slice(lo, lo + n))
            width = 1 if n == 1 else 4
            self.param_slices.append(slice(p, p + width))
            lo += n
            p += width
        self.n_params = p
        self._tensors: list[list[np.ndarray]] | None = None
        self._leading = _LeadingPairCache(self.build, self.splits)

    def blocks_from(self, params: np.ndarray) -> list[np.ndarray]:
        out = []
        for (_, n), ps in zip(self.deg.blocks, self.param_slices):
            q = params[ps]
            if n == 1:
                out.append(np.array([[np.exp(1j * q[0])]], dtype=np.complex128))
            else:
                out.append(_unitary_2x2(q[0], q[1], q[2], q[3]))
        return out

    def params_from_blocks(self, blocks: list[np.ndarray]) -> np.ndarray:
        params = np.zeros(self.n_params)
        for (_, n), ps, a in zip(self.deg.blocks, self.param_slices, blocks):
            if n == 1:
                params[ps.start] = float(np.angle(a[0, 0]))
            else:
                params[ps] = _params_from_2x2(a)
        # pin the first block's overall phase at zero (global gauge)
        shift = params[0]
        for ps in self.param_slices:
            params[ps.start] -= shift
        return params % (2.0 * np.pi)

    def build(self, params: np.ndarray) -> np.ndarray:
        v = np.zeros((self.profile.total, self.profile.total), dtype=np.complex128)
        for b, sl in zip(self.blocks_from(params), self.block_slices):
            v += self.x[:, sl] @ b @ self.yh[sl, :]
        return v

    def eval_full(self, params: np.ndarray) -> float:
        return _objective_of_v(self.build(params), self.splits)

    def eval_coord_batch(self, params: np.ndarray, j: int, values: np.ndarray) -> np.ndarray:
        # only the block owning parameter j varies across the batch
        owner = next(
            i for i, ps in enumerate(self.param_slices) if ps.start <= j < ps.stop
        )
        sl = self.block_slices[owner]
        base = self.build(params) - self.x[:, sl] @ self.blocks_from(params)[owner] @ self.yh[sl, :]
        work = params.copy()
        stack = []
        for val in values:
            work[j] = val
            blk = self.blocks_from(work)[owner]
            stack.append(self.x[:, sl] @ blk @ self.yh[sl, :])
        vs = base[np.newaxis, :, :] + np.stack(stack)
        return _objective_of_v_batch(vs, self.splits)

    def _cut_tensors(self) -> list[list[np.ndarray]]:
        """tensors[k][b][p, q] = realignment of outer(x_bp, conj(y_bq))."""
        if self._tensors is None:
            self._tensors = []
            for d_left, d_right in self.splits:
                per_block = []
                for sl in self.block_slices:
                    xb = self.x[:, sl]
                    yb = self.y[:, sl]
                    n = xb.shape[1]
                    outers = np.einsum("ip,jq->pqij", xb, yb.conj())
                    per_block.append(
                        outers.reshape(n, n, d_left, d_right, d_left, d_right)
                        .transpose(0, 1, 2, 4, 3, 5)
                        .reshape(n, n, d_left * d_left, d_right * d_right)
                    )
                self._tensors.append(per_block)
        return self._tensors

    def align_pass(self, params: np.ndarray) -> tuple[np.ndarray, float]:
        """One monotone refinement of all blocks against leading singular pairs.

        For fixed (u_k, v_k), each block maximizes sum_k |tr(G_kb A_b) + rest|^2
        over unitaries via a polar-decomposition step (phases for 1x1 blocks).
        """
        tensors = self._cut_tensors()
        blocks = self.blocks_from(params)
        pairs = self._leading.at(params)
        gammas = [
            [np.einsum("a,pqab,b->qp", u1.conj(), t_b, v1) for t_b in per_block]
            for per_block, (u1, v1) in zip(tensors, pairs)
        ]
        ncuts = len(self.splits)
        z = np.array(
            [
                sum(np.trace(gammas[k][b] @ blocks[b]) for b in range(len(blocks)))
                for k in range(ncuts)
            ],
            dtype=np.complex128,
        )
        for _ in range(3):
            for b in range(len(blocks)):
                own = np.array(
                    [np.trace(gammas[k][b] @ blocks[b]) for k in range(ncuts)]
                )
                w = z - own
                cmat = sum(
                    np.conj(z[k]) * gammas[k][b] for k in range(ncuts)
                )
                uc, _, vc = np.linalg.svd(cmat)
                a_new = (vc.conj().T @ uc.conj().T)
                blocks[b] = a_new
                own_new = np.array(
                    [np.trace(gammas[k][b] @ a_new) for k in range(ncuts)]
                )
                z = w + own_new
        params_new = self.params_from_blocks(blocks)
        return params_new, self._leading.finish(params_new)


def verify_witness(rho: DensityMatrix, rho_prime: DensityMatrix, factors: FactorSet) -> float:
    """Frobenius residual ||(kron U_i) rho (kron U_i)^dag - rho_prime||_F."""
    w = kron_all(factors.factors)
    n = rho.dim
    if w.shape != (n, n):
        raise ValueError(f"witness dimension {w.shape} does not match states ({n})")
    return float(np.linalg.norm(w @ rho.matrix @ w.conj().T - rho_prime.matrix))


def _cut_reports(v: np.ndarray, profile: DimProfile, tol: float) -> list[RankOneReport]:
    return [
        rank_one_test(_realign_matrix(v, *profile.split(k)), tol, cut=k)
        for k in range(1, profile.nsites)
    ]


def _witness_from_v(
    v: np.ndarray,
    rho: DensityMatrix,
    rho_prime: DensityMatrix,
    config: SearchConfig,
) -> tuple[FactorSet, float] | None:
    """Factor V and verify the adjoint factors as a conjugation witness."""
    try:
        fs = factor_full(v, rho.profile, config.rank_tol)
    except NotDecomposableError:
        return None
    witness = fs.adjoints()
    residual = verify_witness(rho, rho_prime, witness)
    tol = config.witness_tol * max(1.0, float(np.linalg.norm(rho.matrix)))
    if residual > tol:
        return None
    return FactorSet(factors=witness.factors, residual=fs.residual), residual


def check_equivalence(
    rho: DensityMatrix, rho_prime: DensityMatrix, config: SearchConfig | None = None
) -> Verdict:
    """Decide LU equivalence and produce witness local unitaries when found.

    Pipeline: validate, compare spectra (a mismatch is a conclusive NO),
    then search the diagonal-phase coset (non-degenerate) or the block
    coset (degenerate with multiplicities <= max_block) for a tensor
    decomposable element, factor it, and verify the witness.
    """
    if config is None:
        config = SearchConfig()
    if rho.profile != rho_prime.profile:
        raise ValueError(
            f"dimension profiles differ: {rho.profile.dims} vs {rho_prime.profile.dims}"
        )
    rho = validate_density(rho)
    rho_prime = validate_density(rho_prime)
    s1 = eig_hermitian(rho.matrix)
    s2 = eig_hermitian(rho_prime.matrix)
    if not spectra_match(s1, s2, config.spec_tol):
        return Verdict(status=VerdictStatus.INEQUIVALENT_SPECTRUM, seed=config.seed)

    w_avg = (s1.eigenvalues + s2.eigenvalues) / 2.0
    span = float(w_avg[0] - w_avg[-1])
    deg_tol = config.degeneracy_tol * max(span, 1e-300)
    deg = degeneracy_profile(Spectrum(eigenvalues=w_avg, basis=s1.basis), deg_tol)

    profile = rho.profile
    if deg.is_nondegenerate:
        ctx = PhaseContext(s1.basis, s2.basis, profile)
        outcome = phase_search(ctx, config)
        v_best = ctx.build(outcome.params)
        reports = _cut_reports(v_best, profile, config.rank_tol)
        if outcome.success:
            verified = _witness_from_v(v_best, rho, rho_prime, config)
            if verified is not None:
                witness, residual = verified
                return Verdict(
                    status=VerdictStatus.EQUIVALENT,
                    witness=witness,
                    witness_residual=residual,
                    phases=outcome.params,
                    cut_reports=reports,
                    objective_history=outcome.history,
                    best_objective=outcome.objective,
                    seed=config.seed,
                    restarts_used=outcome.restarts_used,
                )
        return Verdict(
            status=VerdictStatus.NOT_FOUND,
            phases=outcome.params,
            cut_reports=reports,
            objective_history=outcome.history,
            best_objective=outcome.objective,
            seed=config.seed,
            restarts_used=outcome.restarts_used,
        )

    if deg.max_multiplicity > config.max_block:
        return Verdict(
            status=VerdictStatus.DEGENERATE_UNSUPPORTED,
            seed=config.seed,
        )

    ctx = BlockContext(s1.basis, s2.basis, profile, deg)
    outcome = run_search(
        ctx,
        ctx.n_params,
        free=np.arange(1, ctx.n_params),
        n_seeds=config.seeds,
        sweeps=config.sweeps,
        restarts=config.restarts,
        f_target=config.objective_target,
        f_success=config.objective_success,
        seed=config.seed,
    )
    v_best = ctx.build(outcome.params)
    reports = _cut_reports(v_best, profile, config.rank_tol)
    if outcome.success:
        verified = _witness_from_v(v_best, rho, rho_prime, config)
        if verified is not None:
            witness, residual = verified
            return Verdict(
                status=VerdictStatus.EQUIVALENT,
                witness=witness,
                witness_residual=residual,
                cut_reports=reports,
                objective_history=outcome.history,
                best_objective=outcome.objective,
                used_degenerate_fallback=True,
                seed=config.seed,
                restarts_used=outcome.restarts_used,
            )
    return Verdict(
        status=VerdictStatus.NOT_FOUND,
        cut_reports=reports,
        objective_history=outcome.history,
        best_objective=outcome.objective,
        used_degenerate_fallback=True,
        seed=config.seed,
        restarts_used=outcome.restarts_used,
    )
