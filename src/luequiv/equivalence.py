"""Local-unitary equivalence decision for multipartite density matrices.

Two states rho = X Lambda X^dag and rho' = Y Lambda Y^dag with matching
spectra are equivalent exactly when some point of the coset
V = X blockdiag(A_1..A_r) Y^dag, with a unitary block per eigenvalue (a
diagonal phase matrix when the spectrum is non-degenerate), is tensor
decomposable, which the realignment rank-one criterion detects at every
sequential cut.  This holds for blocks of any size and any number of
parties: if rho' = W rho W^dag, then Y^dag W X commutes with Lambda, so
W^dag = X A Y^dag with A block-unitary; conversely, W = Y A^dag X^dag maps
rho to Y A^dag Lambda A Y^dag = rho'.

The rungs of a check, in order: the spectra (a mismatch is the one
conclusive negative); the bound rung, where the one-site marginal spectra
put every product unitary image of rho farther from rho' than the witness
gate lets through, and the verdict is NOT_FOUND on path "bound"; the frame
rung, a local-eigenframe witness guess that verifies before any coset is
built; the lift rung, where one eigensolve of the lifted rank-one system
(_lifted_gram) either proves that no coset point passes the rank-one test
(NOT_FOUND on path "lift") or yields the one solution, which must then
verify; and the coset search, which minimizes the smooth surrogate

    f = sum over cuts of (sigma2 / sigma1)^2 of realign(V),

exactly zero at solutions, through an upper bound of f with the same zero
set (CosetContext.decompose).  Every EQUIVALENT verdict ships an explicit
witness (U_1, ..., U_M) that passed the one witness gate, _verified: each
factor unitary, and the conjugation residual verified.  No NOT_FOUND
claims inequivalence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decompose import FactorSet, NotDecomposableError, cut_reports, factor_full, unitarity_defect
from .oracle import haar_unitary, reduced_density
from .search import run_search
from .spectral import TOL, RankOneReport, degeneracy_profile, spectra_match
from .states import DensityMatrix, validate_density
from .tensor import DimProfile, _realign_matrix, as_cmatrix, kron_all


# The lift rung runs on cosets of at most this many entries S (the sum of
# the squared block sizes).  H costs O(S^4 D^2 / min(d_L, d_R)^2) to build
# and O(S^6) to diagonalize, far more than a search's growth.  Whole checks,
# searched (rung off) -> with the rung, median of six inputs, 2 cores, numpy
# 2.4 / OpenBLAS on one thread; "lift" is H and eigh alone:
#   S = 6  (2,3):      lift 0.2 ms; rho*  5.9 -> 0.8 ms
#   S = 8  (2,2,2):    lift 0.4 ms; rho*  9.6 -> 1.2 ms; plant 3.6 -> 1.5 ms
#   S = 9  (3,3):      lift 0.5 ms; rho*  7.4 -> 1.3 ms
#   S = 12 (2,2,3):    lift 2-3 ms; rho* 12.0 -> 3.8 ms
#   S = 16 (2,2,2,2):  lift 5-12 ms; rho* searched in 20-30 ms, a
#                      locally-mixed plant in 4.3-8.5 ms
# An input the rung hands on pays for H, eigh and one failed certify:
# paper_example (S = 8) about 0.6 ms on 3-4 ms, Werner (2,.) (S = 10)
# about 1.4 ms on 1.7 ms.  The cap is the largest S where the lift costs
# less than every searched class measured; at S = 16 it is slower than a
# searched plant.
LIFT_MAX_SIZE = 12


class VerdictStatus(str, Enum):
    EQUIVALENT = "EQUIVALENT"
    INEQUIVALENT_SPECTRUM = "INEQUIVALENT_SPECTRUM"
    NOT_FOUND = "NOT_FOUND"


@dataclass
class SearchConfig:
    """Tolerances and budgets for the equivalence pipeline.

    ``sweeps`` is the number of alignment passes each restart may run.  A
    value out of range is a ValueError naming the field.  spec_tol starts
    at spectral.TOL, on the absolute eigenvalue scale of its table: it
    decides both whether the spectra match and which eigenvalues share a
    coset block.
    """

    sweeps: int = 1000
    restarts: int = 20
    rank_tol: float = 1e-7
    spec_tol: float = TOL
    seed: int = 0

    def __post_init__(self):
        for name in ("rank_tol", "spec_tol"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        for name in ("sweeps", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Verdict:
    """Outcome of a check, with enough detail to reproduce and report it.

    NOT_FOUND never asserts inequivalence: the coset search is one-sided and
    only reports that no decomposable element was found within budget, the
    bound rung only that no witness could pass the gate, and the lift rung
    only that no coset point passes the rank-one test.
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
    # "frame" (the local-eigenframe guess verified, no search ran; no cut
    # reports or best objective), "bound" (NOT_FOUND with no search: the
    # marginal spectra put every product unitary beyond the witness gate),
    # "lift" (no search ran: NOT_FOUND when the lifted system's least
    # eigenvalue shows that no coset point passes the rank-one test, with no
    # cut reports or best objective; EQUIVALENT when the point read off its
    # least eigenvector verified), "coset" or "coset-block" (the search, over
    # a diagonal or a block-unitary coset); None when the spectra differ
    path: str | None = None
    # a lower bound on min over product unitaries W of ||W rho W^dag - rho'||_F:
    # the larger of ||lambda - lambda'||_2 and the marginal-spectrum bound L
    # (_marginal_distance); the first alone when the spectra differ
    distance_lower: float | None = None


class CosetContext:
    """The coset X blockdiag(A_1..A_r) Y^dag and its realignment objective.

    A point is the complex vector of the blocks' entries, block after block
    and each block row-major, so V = sum_m a_m x_{rows[m]} y_{cols[m]}^dag,
    with x_j, y_j the columns of ``x`` and ``y``.  With every block 1x1 (a
    non-degenerate spectrum) the point is e^{i theta}.  ``build`` adds the
    1x1 entries one by one (``xt``, ``ych``) and the larger blocks as
    X_S A Y_S^dag, with A those blocks on the eigenvector columns S they
    span, so the working memory of a point is O(D^2), not O(size D).  A
    cut's leading pair meets every entry through one D x D kernel
    (``_overlaps``), whatever the block sizes.  It is a search context
    (search.py): ``identity``/``random_point`` give starts, then
    ``decompose``, ``sweep`` (one pass) and ``project`` act on a stack of B
    points, a (B, size) array, and return one result per row.
    """

    def __init__(self, x_basis, y_basis, profile: DimProfile, multiplicities):
        self.x = as_cmatrix(x_basis)
        self.y = as_cmatrix(y_basis)
        dim = profile.total
        if self.x.shape != (dim, dim) or self.y.shape != (dim, dim):
            raise ValueError("eigenbasis shapes do not match the dimension profile")
        self.sizes = tuple(int(n) for n in multiplicities)
        if sum(self.sizes) != dim:
            raise ValueError(f"multiplicities sum to {sum(self.sizes)}, not {dim}")
        # entry m of the point is (row, col) = (lo + j // n, lo + j % n) of its
        # block, with j its index in the block, lo the block's first row and
        # n its size: one set of array calls, not one per block
        n = np.array(self.sizes)
        lo = np.cumsum(n) - n
        ends = np.cumsum(n * n)
        starts = ends - n * n
        self.size = int(ends[-1])
        self.slices = [slice(a, b) for a, b in zip(starts.tolist(), ends.tolist())]
        block = np.repeat(np.arange(len(n)), n * n)
        j = np.arange(self.size) - starts[block]
        self.rows = lo[block] + j // n[block]
        self.cols = lo[block] + j % n[block]
        self.splits = [profile.split(k) for k in range(1, profile.nsites)]
        # the 1x1 entries of a point: a slice when they are all of it, so that
        # a non-degenerate coset reads its points as views, not gathered copies
        phase = starts[n == 1].tolist()
        self.phase_entries = slice(None) if len(phase) == self.size else phase
        self.yh = np.ascontiguousarray(self.y.conj().T)
        # where _overlaps finds entry m in its flattened D x D kernel
        self.at = self.cols * dim + self.rows
        self.xt = np.ascontiguousarray(self.x[:, self.rows[phase]].T)
        self.ych = self.yh[self.rows[phase]]
        # the entries of the blocks larger than 1x1, and where each sits in
        # the flattened A, the |S| x |S| matrix of those blocks on the columns
        # S they span
        wide = n > 1
        self.block_entries = np.flatnonzero(np.repeat(wide, n * n))
        self.span = np.flatnonzero(np.repeat(wide, n))
        i, k = (np.searchsorted(self.span, z[self.block_entries]) for z in (self.rows, self.cols))
        self.block_at = i * len(self.span) + k
        self.xs = np.ascontiguousarray(self.x[:, self.span])

    def identity(self) -> np.ndarray:
        return np.concatenate([np.eye(n, dtype=np.complex128).ravel() for n in self.sizes])

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """Independent Haar blocks; a 1x1 block is a uniform phase."""
        if max(self.sizes) == 1:
            return np.exp(2j * np.pi * rng.random(self.size))
        return np.concatenate([haar_unitary(n, rng).ravel() for n in self.sizes])

    def build(self, points: np.ndarray) -> np.ndarray:
        """V of a point, or the (B, D, D) stack of V of a stack of points."""
        v = 0
        if len(self.xt):
            v = self.xt.T @ (points[..., self.phase_entries, np.newaxis] * self.ych)
        if self.block_entries.size:
            k = len(self.span)
            a = np.zeros(points.shape[:-1] + (k * k,), dtype=np.complex128)
            a[..., self.block_at] = points[..., self.block_entries]
            # Y_S^dag is gathered per call rather than kept beside yh
            v = v + self.xs @ a.reshape(points.shape[:-1] + (k, k)) @ self.yh[self.span]
        return v

    def decompose(self, points: np.ndarray, pairs=None) -> tuple[np.ndarray, list]:
        """Objective bound f of each point and each cut's leading pairs (U, W).

        f has one entry per row of ``points``; each cut's U and W stack the
        rows' unit vectors u, v.  Each realignment R_k takes the pair given in
        ``pairs`` (those of the points the search came from) through one
        alternating power step, v <- R_k^dag u / |.| then u <- R_k v / |.|.
        f is sum_k ||R_k - s_k u v^dag||_F^2 / |s_k|^2 with s_k = u^dag R_k v,
        the residual formed explicitly: ||R_k||^2 - |s_k|^2 would cancel far
        above the polish target.  By Eckart-Young and |s_k| <= sigma1, f
        bounds the surrogate sum (sigma2/sigma1)^2 from above, with the same
        zero set.  Without ``pairs`` (starts) a thin SVD of each cut's stack
        gives the exact pairs; full factors of a lopsided cut (4 x 1024 on
        2^6) would build a 1024 x 1024 unitary only to read one column of it.
        """
        v = self.build(points)
        f = np.zeros(len(points))
        out = []
        for k, (d_left, d_right) in enumerate(self.splits):
            r = _realign_matrix(v, d_left, d_right)
            if pairs is None:
                uu, sv, vh = np.linalg.svd(r, full_matrices=False)
                f += np.sum(sv[:, 1:] ** 2, axis=1) / sv[:, 0] ** 2
                out.append((uu[:, :, 0], vh[:, 0].conj()))
                continue
            # u^dag, v as (B, 1, .) rows, (B, ., 1) columns: batched matmuls
            # with no reshapes (einsum runs no BLAS and lags on 2^6 cuts)
            vh = pairs[k][0].conj()[:, np.newaxis, :] @ r
            vh /= np.sqrt(_sq_norms(vh))
            v_col = vh.conj().transpose(0, 2, 1)
            rv = r @ v_col
            s2 = _sq_norms(rv)
            f += (_sq_norms(r - rv * vh) / s2)[:, 0, 0]
            out.append(((rv / np.sqrt(s2))[:, :, 0], v_col[:, :, 0]))
        return f, out

    def _overlaps(self, pairs) -> np.ndarray:
        """g[b, k, m] = u_k^dag realign(x_{rows[m]} y_{cols[m]}^dag) v_k for the
        pairs (u_k, v_k) of row b, so that s_k = g[b, k] @ point.

        realign(x y^dag) is X kron Ybar, with X and Ybar the d_L x d_R reshapes
        of x and conj(y), so its overlap is sum_ij X_ij (Ubar Ybar W^T)_ij =
        <Ubar^T X, Ybar W^T>, with Ubar and W the reshapes of conj(u) and v and
        <.,.> the sum of the entrywise product.  Ubar^T X_r for every column r
        of x and Ybar_c W^T for every column c of conj(y) are one product each,
        and g is (Q P)[cols, rows] with P and Q those two stacks as D x D
        matrices: one kernel for every entry, whatever its block's size, and
        no D^2-sized realignment is formed.  The D x D product costs O(D^3) a
        cut even where only its diagonal is read (a non-degenerate coset).
        """
        dim = len(self.x)
        g = np.empty((len(pairs[0][0]), len(pairs), self.size), dtype=np.complex128)
        for k, ((d_left, d_right), (u1, v1)) in enumerate(zip(self.splits, pairs)):
            b = len(u1)
            ubar_t = u1.conj().reshape(b, d_left, d_left).transpose(0, 2, 1)
            w_t = v1.reshape(b, d_right, d_right).transpose(0, 2, 1)
            # p[b, (i', j), r] = (Ubar^T X_r)_i'j and q[b, c, (i', j)] = (Ybar_c W^T)_i'j
            p = (ubar_t @ self.x.reshape(d_left, -1)).reshape(b, dim, dim)
            q = (self.yh.reshape(-1, d_right) @ w_t).reshape(b, dim, dim)
            g[:, k] = (q @ p).reshape(b, -1)[:, self.at]
        return g

    def sweep(self, points: np.ndarray, pairs) -> np.ndarray:
        """One monotone step of every block of each point against its leading pairs.

        With the unit pairs (u_k, v_k) of each realignment held fixed,
        s_k = u_k^dag Vtilde_k v_k = g_k . a is linear in the point a, and
        J = sum_k |s_k|^2 is a lower bound of sum_k sigma1^2; raising it
        squeezes the subdominant singular mass toward zero.  J is a convex
        Hermitian quadratic, so it lies above its linearization at a, and the
        coset point maximizing Re <grad, a'> with grad = g^dag s never lowers
        it: project(grad), the phase of each 1x1 entry and the polar factor
        of each larger block, all blocks at once.  A 1x1 entry whose gradient
        is exactly zero keeps its value.  ``pairs`` are the ones decompose
        returned for the points; the step and decompose's power step each
        raise J, so a pass never lowers it.
        """
        g = self._overlaps(pairs)
        s = g @ points[:, :, np.newaxis]
        grad = (g.conj().transpose(0, 2, 1) @ s)[..., 0]
        phase = self.phase_entries
        grad[:, phase] = np.where(grad[:, phase] == 0, points[:, phase], grad[:, phase])
        out = self.project(grad)
        # pin the first block's determinant phase: a global phase never
        # changes the realignment ratios
        n1 = self.sizes[0]
        first = out[:, self.slices[0]]
        det = first[:, 0] if n1 == 1 else np.linalg.det(first.reshape(-1, n1, n1))
        return out * np.exp(-1j * np.angle(det) / n1)[:, np.newaxis]

    def project(self, points: np.ndarray) -> np.ndarray:
        """Nearest coset points: a unit phase per 1x1 block, the polar factor of a larger one."""
        out = points.copy()
        out[:, self.phase_entries] /= np.abs(points[:, self.phase_entries])
        for sl, n in zip(self.slices, self.sizes):
            if n > 1:
                uu, _, vh = np.linalg.svd(points[:, sl].reshape(-1, n, n))
                out[:, sl] = (uu @ vh).reshape(-1, n * n)
        return out


def _lifted_gram(ctx: CosetContext) -> np.ndarray:
    """H = sum_k K_k^H K_k, with K_k the map from the orthonormal coordinates c
    of a complex symmetric S x S matrix E to the 2x2 minors of R_k(E).

    The minors of R_k(a) = sum_m a_m R_km are quadratic in the point a, so
    they are linear in e = a a^T: R_k(E) minors are sum_mn E_mn P(R_km, R_kn)
    with P(A, B)_ijkl = A_ik B_jl - A_il B_jk, the polarized minor.  c holds
    E_mm and sqrt(2) E_mn (m < n), so ||E||_F = ||c||; its entries run over
    np.triu_indices(S).  Summed over every index quadruple (each minor of
    rows i < j and columns k < l appears four times),
    <P(A, B), P(C, E)> = 2 <A, C><B, E> - 2 tr(A^dag C B^dag E), and
    <R_km, R_kp> = delta_mp (realignment permutes the entries of the
    orthonormal x_r y_c^dag), so no minor is formed.  With R_km = X_m kron
    Ybar_m, the d_L x d_R reshapes of x_{rows[m]} and conj(y_{cols[m]}),
    tr(R_a^dag R_c R_b^dag R_d) = tr(X_a^dag X_c X_b^dag X_d)
    tr(Ybar_a^dag Ybar_c Ybar_b^dag Ybar_d), each factor one product of an
    (S^2, q^2) array with its adjoint, q the shorter side of the cut.
    """
    s = ctx.size
    # u[a, c, d, b] = sum_k tr(R_ka^dag R_kc R_kb^dag R_kd)
    u = np.zeros((s * s, s * s), dtype=np.complex128)
    vectors = (ctx.x[:, ctx.rows].T, ctx.yh[ctx.cols])
    for d_left, d_right in ctx.splits:
        traces = []
        for z in vectors:
            z = z.reshape(s, d_left, d_right)
            # transposed reshapes give the same traces with c and d swapped,
            # which a symmetric E cannot tell apart: q is the shorter side
            z = z if d_right <= d_left else z.transpose(0, 2, 1)
            p, q = z.shape[1:]
            zs = z.transpose(1, 0, 2).reshape(p, s * q)
            # f[(a, c), (i, j)] = (Z_a^dag Z_c)_ij; tr(F_ac F_bd) is row (a, c)
            # of f against row (d, b), conjugated, since F_bd^T = conj(F_db)
            f = (zs.conj().T @ zs).reshape(s, q, s, q).transpose(0, 2, 1, 3).reshape(s * s, -1)
            traces.append(f @ f.conj().T)
        traces[0] *= traces[1]
        u += traces[0]
    # entry (mn, pq) of H sums the orderings (m, n), (n, m) times (p, q),
    # (q, p) of the lifted Gram; a trace is cyclic, so u is unchanged by
    # (a, c) <-> (b, d), and the four are two, each twice
    m, n = np.triu_indices(s)
    cols = (m * s * s + n * s)[np.newaxis, :]
    u = u.reshape(-1)
    twice = u[(m * s**3 + n)[:, np.newaxis] + cols] + u[(n * s**3 + m)[:, np.newaxis] + cols]
    # each off-diagonal coordinate weighs sqrt(1/2) per ordering, and the
    # 2x2 minors (rows i < j, columns k < l) are a quarter of the quadruples
    w = np.where(m == n, 0.5, math.sqrt(0.5))
    return 0.5 * len(ctx.splits) * np.eye(len(m)) - twice * np.outer(w, w)


def _lift_floor(ctx: CosetContext, rank_tol: float, h_norm: float) -> float:
    """Lambda = sum_k (r_k - 1) tau^2 (1 + (r_k - 1) tau^2 / 2), r_k = min(d_L^2,
    d_R^2), plus rounding: the least eigenvalue of _lifted_gram above it
    proves that no coset point passes the rank-one test (check_equivalence
    has the proof).

    The rounding covers four errors, with n = S (S + 1) / 2 the order of H
    and eps the unit roundoff.  The rank-one test reads sigma2 / sigma1 off
    a computed V and SVD, within eta = 2 (S sqrt(S) + D) eps of the point's
    own ratio, so tau is rank_tol + eta; and the computed eigenvectors are
    orthonormal to O(D eps), which moves ||R_k||_F^2 = ||a||^2 by a factor
    1 + 4 D eps.  Forming H from the Gram identity errs by at most 4 D eps
    an entry a cut (inner products of length <= D of unit-norm reshapes, and
    the same non-orthonormality in <R_m, R_p> = delta_mp), so by
    4 (M - 1) n D eps in norm.  eigh's backward error moves an
    eigenvalue by at most n eps ||H||_2 (``h_norm``).
    """
    eps = sys.float_info.epsilon
    dim = len(ctx.x)
    n = ctx.size * (ctx.size + 1) // 2
    tau = rank_tol + 2.0 * (ctx.size * math.sqrt(ctx.size) + dim) * eps
    lam = sum(
        (r - 1) * tau**2 * (1.0 + (r - 1) * tau**2 / 2.0)
        for r in (min(d_left, d_right) ** 2 for d_left, d_right in ctx.splits)
    )
    return lam * (1.0 + 4.0 * dim * eps) + n * eps * (h_norm + 4.0 * len(ctx.splits) * dim)


def _lift(ctx: CosetContext, rank_tol: float) -> tuple[bool, np.ndarray | None]:
    """(excluded, point): whether no coset point can pass the rank-one test,
    and else the coset point read off the least eigenvector of H, or None.

    When the kernel is one-dimensional, the least eigenvector is E = mu a a^T
    up to rounding, and a_i = E_ij / sqrt(E_jj), with j the largest |E_jj|,
    is a up to a sign and a scale, which ``project`` removes.  From a larger
    kernel the point is some mix of solutions, which the caller's certify
    rejects.
    """
    w, v = np.linalg.eigh(_lifted_gram(ctx))
    if w[0] > _lift_floor(ctx, rank_tol, float(np.max(np.abs(w)))):
        return True, None
    c = v[:, 0]
    m, n = np.triu_indices(ctx.size)
    e = np.empty((ctx.size, ctx.size), dtype=np.complex128)
    e[m, n] = e[n, m] = c * np.where(m == n, 1.0, math.sqrt(0.5))
    j = np.argmax(np.abs(np.diagonal(e)))
    if e[j, j] == 0:
        return False, None
    point = e[:, j] / np.sqrt(e[j, j])
    if np.any(point[ctx.phase_entries] == 0):
        return False, None
    return False, ctx.project(point[np.newaxis])[0]


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each entry of a stack, shaped (B, 1, 1)."""
    flat = a.reshape(len(a), 1, -1).view(np.float64)
    return flat @ flat.transpose(0, 2, 1)


def _marginal_eighs(rho: DensityMatrix, rho_prime: DensityMatrix) -> list:
    """Per site, eigh of the stacked one-site marginals of rho and rho': an
    (eigenvalues, eigenvectors) pair whose row 0 is rho's and row 1 is rho''s,
    eigenvalues ascending.  The one marginal eigensolve of a check: it feeds
    both _marginal_distance and _frame_factors."""
    return [
        np.linalg.eigh(np.array([reduced_density(r, i) for r in (rho, rho_prime)]))
        for i in range(rho.profile.nsites)
    ]


def _marginal_distance(profile: DimProfile, marginals) -> float:
    """L = max_i ||lambda(rho_i) - lambda(rho'_i)||_2 / sqrt(D / d_i), a lower
    bound on min over product unitaries W of ||W rho W^dag - rho'||_F.

    For a product W the marginal of W rho W^dag - rho' at site i is
    U_i rho_i U_i^dag - rho'_i, at least the eigenvalue distance in Frobenius
    norm (Hoffman-Wielandt), and ||Tr_{other sites} X||_F <= sqrt(D / d_i) ||X||_F.
    """
    gaps = [w[0] - w[1] for w, _ in marginals]
    return max(math.sqrt(float(g @ g) * d / profile.total) for g, d in zip(gaps, profile.dims))


def _gate_distance(rho: DensityMatrix) -> float:
    """G = TOL * max(1, ||rho||_F) + delta (2 + delta) ||rho||_F, with
    delta = (1 + TOL)^M - 1: no witness passes _verified on a pair whose
    distance under product unitaries exceeds G (check_equivalence has the
    proof).  2 D eps ||rho||_F more covers the rounding of the computed L
    and residual.
    """
    norm = float(np.linalg.norm(rho.matrix))
    delta = (1.0 + TOL) ** rho.profile.nsites - 1.0
    rounding = 2.0 * rho.profile.total * sys.float_info.epsilon
    return TOL * max(1.0, norm) + (delta * (2.0 + delta) + rounding) * norm


def _frame_factors(
    rho: DensityMatrix, rho_prime: DensityMatrix, marginals, tol: float
) -> list[np.ndarray] | None:
    """The local-eigenframe witness guess (U_1, ..., U_M), or None when the
    one-site marginals do not fix it.

    A one-site marginal is LU-covariant, rho'_i = U_i rho_i U_i^dag, so a
    non-degenerate marginal fixes U_i = Q_i diag(e^{i phi_i}) P_i^dag, with
    P_i and Q_i the eigenbases of the marginals of rho and rho' in the same
    eigenvalue order (``marginals``, from _marginal_eighs): Kraus's
    local-Schmidt frame (PRL 104, 020504 (2010)).  In the product frames,
    A = P^dag rho P and B = Q^dag rho' Q of an equivalent pair obey
    B_ab = e^{i(phi_a - phi_b)} A_ab, so M_i = Tr_{other sites}(B o conj(A))
    is D_i N_i D_i^dag with N_i entrywise >= 0, and phi_i is the argument of
    M_i's leading (Perron) eigenvector.  B o conj(A) is positive
    semidefinite (Schur), which is why its partial traces are taken as a
    DensityMatrix's.  None when a pair of marginal spectra differ by more
    than tol (spec_tol), a marginal has a gap <= tol, or M_i's top gap is
    within TOL of its span.
    """
    profile = rho.profile
    for w, _ in marginals:
        if np.max(np.abs(w[0] - w[1])) > tol or np.any(np.diff(w[0]) <= tol):
            return None
    # eigh's column phases are a diagonal gauge, which M_i's phases absorb
    frames = [v for _, v in marginals]
    p, q = (kron_all([v[j] for v in frames]) for j in (0, 1))
    a = p.conj().T @ rho.matrix @ p
    b = q.conj().T @ rho_prime.matrix @ q
    overlap = DensityMatrix(matrix=b * a.conj(), profile=profile)
    factors = []
    for i, (pi, qi) in enumerate(frames):
        w, v = np.linalg.eigh(reduced_density(overlap, i))
        if w.size > 1 and w[-1] - w[-2] <= TOL * (w[-1] - w[0]):
            return None
        # U_i as the adjoint of U_i^dag = P_i diag(e^{-i phi_i}) Q_i^dag
        factors.append(((pi * np.exp(-1j * np.angle(v[:, -1]))) @ qi.conj().T).conj().T)
    return factors


def _frame_point(ctx: CosetContext, factors) -> np.ndarray | None:
    """X^dag W^dag Y read on the coset's entries and projected onto the coset,
    or None when it is zero on a 1x1 block, which has no nearest phase."""
    w_dag = kron_all([u.conj().T for u in factors])
    point = (ctx.x.conj().T @ w_dag @ ctx.y)[ctx.rows, ctx.cols]
    if np.any(point[ctx.phase_entries] == 0):
        return None
    return ctx.project(point[np.newaxis])[0]


def verify_witness(rho: DensityMatrix, rho_prime: DensityMatrix, factors: FactorSet) -> float:
    """Frobenius residual ||(kron U_i) rho (kron U_i)^dag - rho_prime||_F.

    ValueError unless the witness has exactly one d_i x d_i factor per site.
    """
    shapes = [np.shape(u) for u in factors.factors]
    if shapes != [(d, d) for d in rho.profile.dims]:
        raise ValueError(f"witness factor shapes {shapes} do not match sites {rho.profile.dims}")
    w = kron_all(factors.factors)
    return float(np.linalg.norm(w @ rho.matrix @ w.conj().T - rho_prime.matrix))


def _verified(rho: DensityMatrix, rho_prime: DensityMatrix, witness: FactorSet):
    """(witness, residual), or None unless every factor is unitary within TOL
    and the residual is within TOL * max(1, ||rho||_F): the one witness gate."""
    if any(unitarity_defect(u) > TOL for u in witness.factors):
        return None
    residual = verify_witness(rho, rho_prime, witness)
    if residual > TOL * max(1.0, float(np.linalg.norm(rho.matrix))):
        return None
    return witness, residual


def _phases(point: np.ndarray) -> np.ndarray:
    """The angles of a non-degenerate coset point, measured from a_1 (theta_1 = 0)."""
    return (np.angle(point) - np.angle(point[0])) % (2.0 * np.pi)


def check_equivalence(
    rho: DensityMatrix, rho_prime: DensityMatrix, config: SearchConfig | None = None
) -> Verdict:
    """Decide LU equivalence and produce witness local unitaries when found.

    Validate, then compare spectra: a mismatch is a conclusive NO.  Then the
    bound rung: one eigensolve of each site's pair of marginals
    (_marginal_eighs) gives L, the largest ||lambda(rho_i) - lambda(rho'_i)||_2
    / sqrt(D / d_i), a lower bound on min over product unitaries W of
    ||W rho W^dag - rho'||_F (Hoffman-Wielandt on the marginals, and
    ||Tr_{other sites} X||_F <= sqrt(D / d_i) ||X||_F).  The gate accepts
    factors with ||U_i U_i^dag - I||_F <= TOL; the polar split U_i = V_i P_i
    puts kron_i P_i within delta = (1 + TOL)^M - 1 of I in operator norm, so
    such a witness has residual >= L - delta (2 + delta) ||rho||_F.  When L
    exceeds G = TOL * max(1, ||rho||_F) + delta (2 + delta) ||rho||_F (plus
    a rounding term, _gate_distance), no point of any search can pass the
    gate, and the verdict is NOT_FOUND on path "bound" with no search: the
    status the search would have returned, and no claim of inequivalence.
    Every verdict past validation reports distance_lower, the larger of L
    and ||lambda - lambda'||_2.  Then three rungs, each ending in the one
    witness gate (_verified: unitary factors, verified residual).  The frame
    rung, from the same marginal eigenbases: the local-eigenframe guess
    W = kron_i U_i, when the marginals fix it and it passes the gate, is
    EQUIVALENT on path "frame", with no coset and no search; its phases are
    those of x_m^dag W^dag y_m, and it has no cut reports or best objective,
    W being a product by construction.  The other two work on the coset
    X blockdiag(A_1..A_r) Y^dag (diagonal phases when the spectrum is
    non-degenerate, a unitary block per repeated eigenvalue otherwise), whose
    point a gives V(a) = sum_m a_m x_{r_m} y_{c_m}^dag.  A point certifies
    when the exact rank-one test sigma2 <= tau sigma1 (tau = rank_tol)
    passes at every cut and its V factors into a witness that passes the
    gate.

    The lift rung, on cosets of at most LIFT_MAX_SIZE entries: every 2x2
    minor of R_k(a) = realign_k(V(a)) is linear in E = a a^T, and H =
    sum_k K_k^H K_k (_lifted_gram) is the Gram matrix of that linear map on
    the orthonormal coordinates of a complex symmetric E.  If the least
    eigenvalue of H exceeds Lambda = sum_k (r_k - 1) tau^2 (1 + (r_k - 1)
    tau^2 / 2), r_k = min(d_L^2, d_R^2), plus a rounding term (_lift_floor),
    no coset point certifies.  Proof: a coset point has ||a||^2 = D, so
    ||E||_F = D, and sigma1(R_k)^2 <= ||R_k||_F^2 = ||V||_F^2 = D.  A point
    with sigma_i <= tau sigma1 for every i >= 2 at a cut of rank at most r
    has sum over minors (i < j, k < l) of |minor|^2 = e_2(sigma^2) <=
    (r - 1) tau^2 sigma1^4 (1 + (r - 1) tau^2 / 2) <= (r - 1) tau^2 D^2
    (1 + (r - 1) tau^2 / 2) by Cauchy-Binet; summed over the cuts that is
    at most Lambda D^2, while it is ||K E||^2 >= lambda_min ||E||_F^2 =
    lambda_min D^2.  So lambda_min <= Lambda.  When it fires, the verdict
    is NOT_FOUND on path "lift" with no search, the status the search would
    have returned (as on "bound"), with no cut reports.  Otherwise the
    point read off the least eigenvector (_lift) is certified: it is the
    solution when the kernel is one-dimensional.  If it passes, the verdict
    is EQUIVALENT on path "lift" with restarts_used 0; soundness rests on
    the gate, whatever the kernel says.  Else the check hands on, unchanged.

    The search rung: search.run_search over the coset from W's coset point,
    or the identity, with ``config.restarts`` starts of up to
    ``config.sweeps`` passes each.  The search stops at the first stalled
    point that certifies, and the point it returns is certified once more
    for the verdict.
    """
    if config is None:
        config = SearchConfig()
    if rho.profile != rho_prime.profile:
        raise ValueError(
            f"dimension profiles differ: {rho.profile.dims} vs {rho_prime.profile.dims}"
        )
    rho, s1 = validate_density(rho)
    rho_prime, s2 = validate_density(rho_prime)
    # Hoffman-Wielandt: no unitary, local or not, maps rho nearer to rho'
    spectral_distance = float(np.linalg.norm(s1.eigenvalues - s2.eigenvalues))
    if not spectra_match(s1, s2, config.spec_tol):
        return Verdict(
            status=VerdictStatus.INEQUIVALENT_SPECTRUM,
            seed=config.seed,
            distance_lower=spectral_distance,
        )

    # eigenvalues closer than spec_tol cannot be paired one to one across
    # spectra that matched within it; a coarser grouping only enlarges the coset
    sizes = degeneracy_profile((s1.eigenvalues + s2.eigenvalues) / 2.0, config.spec_tol)
    fallback = max(sizes) > 1
    marginals = _marginal_eighs(rho, rho_prime)
    marginal_distance = _marginal_distance(rho.profile, marginals)
    distance_lower = max(spectral_distance, marginal_distance)
    if marginal_distance > _gate_distance(rho):
        # every product unitary is farther than the witness gate allows, so no
        # search point could certify: NOT_FOUND, still no claim of inequivalence
        return Verdict(
            status=VerdictStatus.NOT_FOUND,
            used_degenerate_fallback=fallback,
            seed=config.seed,
            path="bound",
            distance_lower=distance_lower,
        )
    factors = _frame_factors(rho, rho_prime, marginals, config.spec_tol)
    if factors is not None:
        verified = _verified(rho, rho_prime, FactorSet(factors=tuple(factors)))
        if verified is not None:
            # x_m^dag W^dag y_m for each m, from one D x D product
            point = None if fallback else np.sum(
                (s1.basis.conj().T @ kron_all([u.conj().T for u in factors])) * s2.basis.T, axis=1
            )
            return Verdict(
                status=VerdictStatus.EQUIVALENT,
                witness=verified[0],
                witness_residual=verified[1],
                phases=None if fallback else _phases(point),
                used_degenerate_fallback=fallback,
                seed=config.seed,
                path="frame",
                distance_lower=distance_lower,
            )

    ctx = CosetContext(s1.basis, s2.basis, rho.profile, sizes)

    def certify(point: np.ndarray):
        """The exact cut reports of a point, and its verified witness or None."""
        v = ctx.build(point)
        reports = cut_reports(v, rho.profile, config.rank_tol)
        # f bounds sum (sigma2/sigma1)^2, so a search success passes this too;
        # soundness rests on the verified witness, not on this gate
        if not all(r.is_rank_one for r in reports):
            return reports, None
        try:
            fs = factor_full(v, rho.profile, config.rank_tol)
        except NotDecomposableError:
            return reports, None
        return reports, _verified(rho, rho_prime, fs.adjoints())

    def coset_verdict(point: np.ndarray, path: str, outcome=None) -> Verdict:
        reports, verified = certify(point)
        witness, residual = verified or (None, None)
        return Verdict(
            status=VerdictStatus.NOT_FOUND if verified is None else VerdictStatus.EQUIVALENT,
            witness=witness,
            witness_residual=residual,
            phases=None if fallback else _phases(point),
            cut_reports=reports,
            objective_history=[] if outcome is None else outcome.history,
            # the paper's surrogate; the search's f only bounds it from above
            best_objective=sum(r.ratio**2 for r in reports),
            used_degenerate_fallback=fallback,
            seed=config.seed,
            restarts_used=0 if outcome is None else outcome.restarts_used,
            path=path,
            distance_lower=distance_lower,
        )

    if ctx.size <= LIFT_MAX_SIZE:
        excluded, point = _lift(ctx, config.rank_tol)
        if excluded:
            # no coset point passes the rank-one test, so no search point
            # could certify: NOT_FOUND, as on "bound", with no search
            return Verdict(
                status=VerdictStatus.NOT_FOUND,
                used_degenerate_fallback=fallback,
                seed=config.seed,
                path="lift",
                distance_lower=distance_lower,
            )
        if point is not None:
            verdict = coset_verdict(point, "lift")
            if verdict.status is VerdictStatus.EQUIVALENT:
                return verdict

    outcome = run_search(
        ctx,
        passes=config.sweeps,
        restarts=config.restarts,
        rank_tol=config.rank_tol,
        seed=config.seed,
        start=None if factors is None else _frame_point(ctx, factors),
        accept=lambda p: certify(p)[1] is not None,
    )
    return coset_verdict(outcome.point, "coset-block" if fallback else "coset", outcome)
