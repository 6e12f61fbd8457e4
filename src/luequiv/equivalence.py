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

check_equivalence wraps that criterion in a ladder of cheaper rungs; its
docstring lists them, and each rung's proof lives in the function that
applies it.  Every EQUIVALENT verdict ships an explicit witness
(U_1, ..., U_M) that passed the one witness gate, _verified.  No NOT_FOUND
claims inequivalence.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decompose import FactorSet, factor_full, unitarity_defect
from .oracle import haar_unitary
from .search import run_search
from .spectral import TOL, RankOneReport, degeneracy_profile, spectra_match
from .states import DensityMatrix, validate_density
from .tensor import DimProfile, _realign_matrix, as_cmatrix, kron_all, partial_trace


# The lift rung runs on cosets of at most this many entries S (the sum of
# the squared block sizes).  H costs O(S^4 D^2 / min(d_L, d_R)^2) to build
# and O(S^6) to factor or diagonalize, far more than a search's growth.
# Its traffic is what the invariant rung and the frame guess leave: states
# with a degenerate marginal.  Whole checks with the rung against the same
# checks searched with it off (LIFT_MAX_SIZE = 0), best of 5, three seeds
# each, 2 cores, numpy 2.4 / OpenBLAS on one thread:
#   one marginal I/2 (with_mixed_marginal), rho against rho*:
#     (2,2), (2,3): 0.3 ms against 4.2-19 ms; (2,2,2), (3,3): 0.4 ms
#     against 4.8-6.7 ms; (2,2,3), S = 12: 1.3 ms against 8.2-8.7 ms
#   the same states against a local rotation: 0.6-1.1 ms against 1.4-2.7
#     ms up to S = 9; (2,2,3): 2.7 ms against 2.6-3.4 ms
#   locally-mixed 3 qubits: rho* 0.4 ms against 6.7-6.9 ms, plant 1.1 ms
#     against 2.7-2.8 ms
# An input the rung hands on pays for H, the failed certificate, eigh and
# one failed certify: Werner (2,2) (S = 10) 1.8-1.9 ms against 1.0 ms, and
# paper_example (S = 8) 3.4 ms against 3.0 ms.  A process's first coset of
# each S also builds _lift_layout, about 0.3 ms.  At S = 16 (2,2,2,2, the
# same two classes) the rung would end rho* in 3.4-3.6 ms against 19-27
# ms searched, but plants would take 8.2-9.4 ms against 5.9-8.3 ms.  The
# cap is the largest S measured at which plants break even or better.
LIFT_MAX_SIZE = 12


class VerdictStatus(str, Enum):
    EQUIVALENT = "EQUIVALENT"
    INEQUIVALENT_SPECTRUM = "INEQUIVALENT_SPECTRUM"
    NOT_FOUND = "NOT_FOUND"


class StateError(ValueError):
    """A state of check_equivalence that fails validate_density; index is 0
    for rho and 1 for rho_prime."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


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

    NOT_FOUND never asserts inequivalence; check_equivalence says what each
    rung that returns it has shown.
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
    # the rung that ended the check, in ladder order (check_equivalence):
    # "bound", "invariant", "frame", "lift", "coset" or "coset-block"; None
    # when the spectra differ
    path: str | None = None
    # a lower bound on min over product unitaries W of ||W rho W^dag - rho'||_F:
    # the larger of ||lambda - lambda'||_2 and L (_marginal_distance), and of
    # d_T (_invariant_distance) on path "invariant"; the first alone when the
    # spectra differ
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

    def nearest(self, point: np.ndarray) -> np.ndarray | None:
        """The coset point nearest one point, or None when it is zero on a 1x1
        entry, which has no nearest phase."""
        if np.any(point[self.phase_entries] == 0):
            return None
        return self.project(point[np.newaxis])[0]

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
    first, second, weights, eye = _lift_layout(s)
    u = u.reshape(-1)
    return 0.5 * len(ctx.splits) * eye - (u[first] + u[second]) * weights


@functools.lru_cache(maxsize=LIFT_MAX_SIZE)
def _lift_layout(s: int) -> tuple[np.ndarray, ...]:
    """(first, second, weights, eye): _lifted_gram's gathers for a coset of s
    entries, which depend on s alone, built once per s (read-only, as every
    caller shares them).

    Coordinate i of c is E_mn with (m, n) = np.triu_indices(s)[:, i].  Entry
    (i, j) of H reads u at first[i, j] (orderings (m, n) then (p, q)) and
    second[i, j] ((n, m) then (p, q)), u flattened from its (s, s, s, s)
    shape.  Each off-diagonal coordinate weighs sqrt(1/2) per ordering, and
    the 2x2 minors (rows i < j, columns k < l) are a quarter of the
    quadruples: weights is the outer product of those factors.
    """
    m, n = np.triu_indices(s)
    cols = (m * s * s + n * s)[np.newaxis, :]
    w = np.where(m == n, 0.5, math.sqrt(0.5))
    layout = (
        (m * s**3 + n)[:, np.newaxis] + cols,
        (n * s**3 + m)[:, np.newaxis] + cols,
        np.outer(w, w),
        np.eye(len(m)),
    )
    for a in layout:
        a.flags.writeable = False
    return layout


def _lift_floor(ctx: CosetContext, rank_tol: float, h: np.ndarray) -> float:
    """Lambda = sum_k (r_k - 1) tau^2 (1 + (r_k - 1) tau^2 / 2), r_k = min(d_L^2,
    d_R^2), plus rounding: the least eigenvalue of H = _lifted_gram(ctx)
    above it proves that no coset point passes the rank-one test
    sigma2 <= tau sigma1 (tau = rank_tol) at every cut.  No eigenvalue is
    needed to form it.

    Proof, in exact arithmetic: a coset point a has ||a||^2 = D, so E = a a^T
    has ||E||_F = D, and sigma1(R_k)^2 <= ||R_k||_F^2 = ||V||_F^2 = D.  A
    point with sigma_i <= tau sigma1 for every i >= 2 at a cut of rank at
    most r has sum over minors (i < j, k < l) of |minor|^2 = e_2(sigma^2) <=
    (r - 1) tau^2 sigma1^4 (1 + (r - 1) tau^2 / 2) <= (r - 1) tau^2 D^2
    (1 + (r - 1) tau^2 / 2) by Cauchy-Binet.  Summed over the cuts that is
    at most Lambda D^2, while it is ||K E||^2 >= lambda_min ||E||_F^2 =
    lambda_min D^2 (K the minors map whose Gram matrix is H), so
    lambda_min <= Lambda.

    The rounding covers four errors, with n = S (S + 1) / 2 the order of H
    and eps = 2^-52 (twice the unit roundoff).  The rank-one test reads
    sigma2 / sigma1 off a computed V and SVD, within eta = 2 (S sqrt(S) + D)
    eps of the point's own ratio, so tau is rank_tol + eta; and the computed
    eigenvectors are orthonormal to O(D eps), which moves ||R_k||_F^2 =
    ||a||^2 by a factor 1 + 4 D eps.  Forming H from the Gram identity errs
    by at most 4 D eps an entry a cut (inner products of length <= D of
    unit-norm reshapes, and the same non-orthonormality in <R_m, R_p> =
    delta_mp), so by 4 (M - 1) n D eps in norm.  n eps ||H||_inf, with
    ||H||_inf the largest absolute row sum (at least ||H||_2), bounds with
    room the rounding of the shifted diagonal that _lift's certificate
    factors, at most eps ||H||_inf an entry.
    """
    eps = sys.float_info.epsilon
    dim = len(ctx.x)
    n = len(h)
    h_norm = float(np.max(np.sum(np.abs(h), axis=1)))
    tau = rank_tol + 2.0 * (ctx.size * math.sqrt(ctx.size) + dim) * eps
    lam = sum(
        (r - 1) * tau**2 * (1.0 + (r - 1) * tau**2 / 2.0)
        for r in (min(d_left, d_right) ** 2 for d_left, d_right in ctx.splits)
    )
    return lam * (1.0 + 4.0 * dim * eps) + n * eps * (h_norm + 4.0 * len(ctx.splits) * dim)


def _lift(ctx: CosetContext, rank_tol: float) -> tuple[bool, np.ndarray | None]:
    """(excluded, point): whether no coset point can pass the rank-one test,
    and else the coset point read off the least eigenvector of H, or None.

    The negative side is a certificate, not an eigensolve: H is excluded
    when the Cholesky factorization of A = H - mu I runs to completion, with
    mu = floor + 2 (n + 1) eps tr(H), the floor from _lift_floor and n the
    order of H.  Proof: the computed factor R then satisfies R^H R = A +
    dA, |dA| <= gamma_{n+1} |R^H| |R| entrywise, gamma_k = k u / (1 - k u),
    u = eps / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., SIAM 2002, Theorem 10.3; its proof uses only that every pivot
    came out positive, not that A is definite).  That theorem counts real
    operations of relative error u.  In complex arithmetic a product errs by
    at most sqrt(2) gamma_2 < 3 u, and a sum, a real square root and the
    division by a real pivot by u (Lemma 3.5 there), so the same proof
    gives gamma = gamma_{3(n+1)}.  Then ||dA||_2 <= ||dA||_F <= gamma
    ||R||_F^2, and ||R||_F^2 = tr(A + dA) <= tr(A) + gamma ||R||_F^2, so
    ||dA||_2 <= gamma tr(A) / (1 - gamma) <= 1.5 (n + 1) eps tr(H) (1 + 1e-10)
    for n <= 78; the rest of the margin covers the rounding of tr(H) and mu.
    R^H R is positive definite, so lambda_min(A) > -||dA||_2, and
    lambda_min(H) > mu - ||dA||_2 - eps ||H||_inf > floor - eps ||H||_inf,
    the last term the rounding of the shift, which the floor's own
    n eps ||H||_inf covers.  A factorization that breaks down proves nothing.

    Only then does eigh run, to read the point.  When the kernel is
    one-dimensional, the least eigenvector is E = s a a^T up to rounding,
    and a_i = E_ij / sqrt(E_jj), with j the largest |E_jj|, is a up to a
    sign and a scale, which ``project`` removes.  From a larger kernel the
    point is some mix of solutions, and from a least eigenvalue between the
    floor and mu it passes no rank-one test; the caller's certify rejects
    both and hands on.
    """
    h = _lifted_gram(ctx)
    margin = 2.0 * (len(h) + 1) * sys.float_info.epsilon * float(np.trace(h).real)
    try:
        np.linalg.cholesky(h - (_lift_floor(ctx, rank_tol, h) + margin) * np.eye(len(h)))
    except np.linalg.LinAlgError:
        pass
    else:
        return True, None
    c = np.linalg.eigh(h)[1][:, 0]
    m, n = np.triu_indices(ctx.size)
    e = np.empty((ctx.size, ctx.size), dtype=np.complex128)
    e[m, n] = e[n, m] = c * np.where(m == n, 1.0, math.sqrt(0.5))
    j = np.argmax(np.abs(np.diagonal(e)))
    if e[j, j] == 0:
        return False, None
    return False, ctx.nearest(e[:, j] / np.sqrt(e[j, j]))


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each entry of a stack, shaped (B, 1, 1)."""
    flat = a.reshape(len(a), 1, -1).view(np.float64)
    return flat @ flat.transpose(0, 2, 1)


def _marginal_eighs(rho: DensityMatrix, rho_prime: DensityMatrix) -> list:
    """Per site, eigh of the stacked one-site marginals of rho and rho': an
    (eigenvalues, eigenvectors) pair whose row 0 is rho's and row 1 is rho''s,
    eigenvalues ascending.  The one marginal eigensolve of a check: it feeds
    the bound, frame and invariant rungs (_marginal_distance, _product_frames,
    _frame_factors and the Davis-Kahan gaps of _invariant_bound)."""
    pair = np.stack((rho.matrix, rho_prime.matrix))
    dims = rho.profile.dims
    return [np.linalg.eigh(partial_trace(pair, dims, i)) for i in range(len(dims))]


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
    distance under product unitaries exceeds G.

    Proof: the gate accepts factors with ||U_i U_i^dag - I||_F <= TOL.  The
    polar split U_i = V_i P_i, V_i unitary, then has ||P_i^2 - I||_2 <= TOL,
    so ||P_i - I||_2 <= TOL, and W = kron_i U_i = V (I + E) with V =
    kron_i V_i an exact product unitary and ||E||_2 <= delta.  So W rho W^dag
    is within delta (2 + delta) ||rho||_F of V rho V^dag, and a residual
    within TOL * max(1, ||rho||_F) puts V rho V^dag within G of rho'.
    2 D eps ||rho||_F more covers the rounding of the computed L and
    residual.
    """
    norm = float(np.linalg.norm(rho.matrix))
    delta = (1.0 + TOL) ** rho.profile.nsites - 1.0
    rounding = 2.0 * rho.profile.total * sys.float_info.epsilon
    return TOL * max(1.0, norm) + (delta * (2.0 + delta) + rounding) * norm


def _product_frames(
    rho: DensityMatrix, rho_prime: DensityMatrix, marginals, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(A, B, conj(A) o B), with A = P^dag rho P and B = Q^dag rho' Q,
    P = kron_i P_i and Q = kron_i Q_i the marginal eigenbases of rho and rho'
    (``marginals``, from _marginal_eighs): the pair read in its product
    frames and their entrywise overlap, which the invariant and frame rungs
    share.  None when degeneracy_profile groups two eigenvalues of a
    marginal of rho at tol (spec_tol), where P_i is not fixed up to
    phases."""
    if any(max(degeneracy_profile(w[0], tol)) > 1 for w, _ in marginals):
        return None
    p, q = (kron_all([v[j] for _, v in marginals]) for j in (0, 1))
    a = p.conj().T @ rho.matrix @ p
    b = q.conj().T @ rho_prime.matrix @ q
    return a, b, a.conj() * b


def _frame_factors(marginals, frames) -> list[np.ndarray]:
    """The local-eigenframe witness guess (U_1, ..., U_M).

    A one-site marginal is LU-covariant, rho'_i = U_i rho_i U_i^dag, so a
    non-degenerate marginal fixes U_i = Q_i diag(e^{i phi_i}) P_i^dag, with
    P_i and Q_i the eigenbases of the marginals of rho and rho' in the same
    eigenvalue order (``marginals``, from _marginal_eighs): Kraus's
    local-Schmidt frame (PRL 104, 020504 (2010)).  In the product frames,
    A = P^dag rho P and B = Q^dag rho' Q (``frames``, from _product_frames,
    with conj(A) o B) of an equivalent pair obey B_ab = e^{i(phi_a - phi_b)}
    A_ab, so M_i = Tr_{other sites}(conj(A) o B) is D_i N_i D_i^dag with
    N_i entrywise >= 0 and D_i = diag(e^{i phi_i}).  The phases are read off
    M_i with no eigensolve: with j the index of M_i's largest diagonal
    entry, (M_i m_j)_k = e^{i(phi_k - phi_j)} (N_i^2)_kj for the column m_j
    of M_i, so phi_i = angle(M_i m_j) up to one global phase, exact wherever
    every index is within two hops of j in N_i's nonzero pattern.  The
    column is not normalised to unit phases: each index then weighs by
    |M_kj|, and an entry at the noise level adds noise of its own size.  A
    wrong guess fails the witness gate, the only soundness check.
    """
    # eigh's column phases are a diagonal gauge, which M_i's phases absorb
    dims = tuple(w.shape[-1] for w, _ in marginals)
    factors = []
    for i, (pi, qi) in enumerate(v for _, v in marginals):
        m = partial_trace(frames[2], dims, i)
        phi = np.angle(m @ m[:, np.argmax(m.diagonal().real)])
        factors.append((qi * np.exp(1j * phi)) @ pi.conj().T)
    return factors


def _cycle_gap(a: np.ndarray, b: np.ndarray, overlap: np.ndarray) -> float:
    """A lower bound on ||T(A) - T(B)||_F, T(X)_abc = X_ab X_bc X_ca, with no
    D^3 tensor formed; ``overlap`` is conj(A) o B, as _product_frames gives it.

    Sum_abc conj(T(X)_abc) T(Y)_abc = tr(Z^3) with Z = conj(X) o Y, so
    ||T(A) - T(B)||^2 = tr(Z_AA^3) + tr(Z_BB^3) - 2 Re tr(Z_AB^3), each trace
    one D x D product and one inner product of length D^2, as every Z is
    Hermitian: tr(Z^3) = sum_ab conj(Z_ab) (Z^2)_ab.  Z_AA = |A|^2 and
    Z_BB = |B|^2 are real.  The sum cancels, so its rounding is bounded by
    the absolute terms: each trace is a sum of D^3 triple products, formed
    with a relative error of at most gamma = (D^2 + 2D + 16) eps a term (an
    inner product of length D, one more product, a sum of D^2 terms, and
    the entrywise products that form Z), and sum |Z_AB terms| <= ||T(A)||
    ||T(B)|| <= (s_A + s_B) / 2 (Cauchy-Schwarz), s_X = tr(Z_XX^3) =
    ||T(X)||^2.  So the computed square errs by at most 2 gamma (s_A + s_B)
    (1 + gamma), and 3 gamma (s_A + s_B) leaves room for the last three sums.
    """

    def tr3(z):
        return np.vdot(z, z @ z).real

    s_a, s_b = tr3(np.abs(a) ** 2), tr3(np.abs(b) ** 2)
    dim = len(a)
    gamma = (dim * dim + 2 * dim + 16) * sys.float_info.epsilon
    square = s_a + s_b - 2.0 * tr3(overlap) - 3.0 * gamma * (s_a + s_b)
    return math.sqrt(max(float(square), 0.0))


def _invariant_bound(rho: DensityMatrix, rho_prime: DensityMatrix, tops, marginals):
    """(slope, offset): every exact product unitary V with ||V rho V^dag -
    rho'||_F <= g has ||T(A) - T(B)||_F <= slope g + offset, with A, B the
    frames of _product_frames and T(X)_abc = X_ab X_bc X_ca, the 3-cycle
    (Bargmann) products.  ``tops`` are the largest eigenvalues lambda,
    lambda' of rho and rho', ``marginals`` from _marginal_eighs.

    Per site, delta_ik = min_{j != k} |lambda_k(rho'_i) - lambda_j(rho_i)|
    (inf when d_i = 1) and S_i = (sum_k delta_ik^-2)^(1/2); with K =
    lambda^2 + lambda lambda' + lambda'^2 and c = 2 sqrt(2) ||rho'||_F,
    slope = K (1 + c sum_i sqrt(D / d_i) S_i) (infinite when a gap is zero)
    and offset = K eta (1 + c sum_i S_i), eta the rounding term below.
    Proof, in exact arithmetic, with eps_V = V rho V^dag - rho':
    1. At site i, V_i rho_i V_i^dag - rho'_i = Tr_{other sites} eps_V, of
       Frobenius norm r_i <= sqrt(D / d_i) g.
    2. Davis-Kahan in residual form: the columns V_i p_j of V_i P_i are
       orthonormal eigenvectors of V_i rho_i V_i^dag (eigenvalues lambda_j),
       so the unit eigenvector q_k of rho'_i (eigenvalue mu_k) expands as
       q_k = sum_j c_j V_i p_j with sum_j |c_j|^2 (lambda_j - mu_k)^2 =
       ||(V_i rho_i V_i^dag - rho'_i) q_k||^2 <= r_i^2.  So the weight off
       V_i p_k is at most r_i^2 / delta_ik^2, and with e^{i phi_k} the phase
       of c_k, ||V_i p_k - e^{i phi_k} q_k||^2 = 2 - 2 |c_k| <= 2 r_i^2 /
       delta_ik^2.  That is, V_i P_i = Q_i D_i + E_i with D_i diagonal
       unitary and ||E_i||_F <= sqrt(2) r_i S_i.  A site of dimension 1
       has S_i = 0: V_i P_i and Q_i are 1x1 unitaries, phases, so E_i = 0.
    3. VP = kron_i V_i P_i and Q Phi = kron_i Q_i D_i are both unitary, so
       telescoping the product, ||VP - Q Phi||_2 <= e = sum_i ||E_i||_F.
    4. A = (VP)^dag (rho' + eps_V) (VP), and X^dag rho' X - Y^dag rho' Y =
       (X - Y)^dag rho' X + Y^dag rho' (X - Y) for X = VP, Y = Q Phi, so
       ||A - Phi^dag B Phi||_F <= g + 2 e ||rho'||_F = G'.
    5. T(Phi^dag B Phi) = T(B): a diagonal phase cancels around a cycle (so
       does eigh's column-phase gauge).
    6. With C = Phi^dag B Phi and Delta = A - C, T(A) - T(C) telescopes into
       Delta_ab A_bc A_ca + C_ab Delta_bc A_ca + C_ab C_bc Delta_ca.  Every
       entry and row norm of A is at most ||A||_2 = lambda, and of C at
       most lambda', so the three terms are at most lambda^2, lambda
       lambda' and lambda'^2 times ||Delta||_F, and ||T(A) - T(B)||_F <=
       K G' = slope g.
    Rounding: eta = 4 D^2 eps (||rho||_F + ||rho'||_F) exceeds, for rho and
    rho' together, the errors of a computed marginal (a sum of D / d_i
    entries), of eigh's backward error on it (exact eigenpairs of a
    Hermitian matrix within a small multiple of d_i eps ||rho_i|| of it,
    with frames orthonormal to working precision; LAPACK Users' Guide, 3rd
    ed., section 4.7), and of kron_all's frames and the products that form
    A and B (at most 2 D eps || |P| ||_2^2 ||rho||_F <= 2 D^2 eps ||rho||_F
    for A, the same with rho' for B), and of the computed lambda and
    lambda'.  So the computed marginals, frames, A and B are exact ones of
    matrices within eta, and eta is added to each r_i, to G', and to
    lambda, lambda' and ||rho'||_F, which gives the offset.
    """
    profile = rho.profile
    dim = profile.total
    norm_prime = float(np.linalg.norm(rho_prime.matrix))
    norms = float(np.linalg.norm(rho.matrix)) + norm_prime
    eta = 4.0 * dim * dim * sys.float_info.epsilon * norms
    spreads = []
    # plain floats: a few d_i^2 scalars, which numpy calls would cost more
    # than; 1.0 / a subnormal gap and its square overflow to inf, silently
    for w, _ in marginals:
        lams, mus = w.tolist()
        total = 0.0
        for k, mu in enumerate(mus):
            gap = min((abs(mu - x) for j, x in enumerate(lams) if j != k), default=math.inf)
            inverse = math.inf if gap == 0.0 else 1.0 / gap
            total += inverse * inverse
        spreads.append(math.sqrt(total))
    lam, lam_prime = (float(t) + eta for t in tops)
    k = lam * lam + lam * lam_prime + lam_prime * lam_prime
    c = 2.0 * math.sqrt(2.0) * (norm_prime + eta)
    slope = k * (1.0 + c * sum(math.sqrt(dim / d) * s for d, s in zip(profile.dims, spreads)))
    return slope, k * eta * (1.0 + c * sum(spreads))


def _invariant_distance(
    rho: DensityMatrix, rho_prime: DensityMatrix, tops, marginals, frames
) -> float:
    """d_T, a lower bound on min over product unitaries W of ||W rho W^dag -
    rho'||_F: _invariant_bound inverted at _cycle_gap's lower value of
    ||T(A) - T(B)||_F, or 0 where that value does not clear the offset.
    The few dozen operations that form the bound and d_T err by a relative
    (D + 20) eps at most, which the last factor removes."""
    gap = _cycle_gap(*frames)
    if gap == 0.0:
        # exact: slope > 0 and offset >= 0, so d_T would be 0 too
        return 0.0
    slope, offset = _invariant_bound(rho, rho_prime, tops, marginals)
    shrink = 1.0 - (rho.profile.total + 20) * sys.float_info.epsilon
    return max(0.0, (gap - offset) / slope * shrink)


def _frame_point(ctx: CosetContext, w: np.ndarray) -> np.ndarray | None:
    """CosetContext.nearest of X^dag W^dag Y read on the coset's entries, for
    the refused frame guess's W = kron_i U_i as the witness gate formed it."""
    return ctx.nearest((ctx.x.conj().T @ w.conj().T @ ctx.y)[ctx.rows, ctx.cols])


def verify_witness(rho: DensityMatrix, rho_prime: DensityMatrix, factors: FactorSet) -> float:
    """Frobenius residual ||(kron U_i) rho (kron U_i)^dag - rho_prime||_F.

    ValueError unless the witness has exactly one d_i x d_i factor per site.
    """
    return _verified(rho, rho_prime, factors)[1]


def _verified(rho: DensityMatrix, rho_prime: DensityMatrix, witness: FactorSet):
    """(passed, residual, W), the one witness gate: W = kron_i U_i and the
    residual ||W rho W^dag - rho'||_F, each formed once, and passed True iff
    every factor is unitary within TOL and the residual is within
    TOL * max(1, ||rho||_F).  ValueError unless the witness has exactly one
    d_i x d_i factor per site."""
    shapes = [np.shape(u) for u in witness.factors]
    if shapes != [(d, d) for d in rho.profile.dims]:
        raise ValueError(f"witness factor shapes {shapes} do not match sites {rho.profile.dims}")
    w = kron_all(witness.factors)
    residual = float(np.linalg.norm(w @ rho.matrix @ w.conj().T - rho_prime.matrix))
    passed = residual <= TOL * max(1.0, float(np.linalg.norm(rho.matrix))) and all(
        unitarity_defect(u) <= TOL for u in witness.factors
    )
    return passed, residual, w


def _phases(point: np.ndarray) -> np.ndarray:
    """The angles of a non-degenerate coset point, measured from a_1 (theta_1 = 0),
    in [0, 2 pi): the modulo rounds a tiny negative difference up to 2 pi."""
    theta = (np.angle(point) - np.angle(point[0])) % (2.0 * np.pi)
    return np.where(theta == 2.0 * np.pi, 0.0, theta)


def check_equivalence(
    rho: DensityMatrix, rho_prime: DensityMatrix, config: SearchConfig | None = None
) -> Verdict:
    """Decide LU equivalence and produce witness local unitaries when found.

    A ValueError when the profiles differ, a StateError when a state fails
    validate_density.
    Then the rungs run in this order, each on what the one before handed on;
    the functions named hold each rung's proof.

    1. Spectra, always: a mismatch at spec_tol (spectra_match) is
       INEQUIVALENT_SPECTRUM with path None, the one conclusive negative.
    2. "bound", always: NOT_FOUND when the marginal-spectrum distance L
       (_marginal_distance) exceeds the gate distance G (_gate_distance).
    3. "invariant", when every marginal of rho is non-degenerate at
       spec_tol (_product_frames): NOT_FOUND when the cycle-invariant
       distance d_T (_invariant_distance, from _cycle_gap and
       _invariant_bound) exceeds G.  It runs before the frame guess, so a
       check it ends pays for neither the guess nor its gate.
    4. "frame", on the same frames: EQUIVALENT when the local-eigenframe
       guess (_frame_factors) passes the witness gate (_verified); a guess
       it refuses hands on the W = kron_i U_i the gate formed.
    5. "lift", on a coset (CosetContext) of at most LIFT_MAX_SIZE entries:
       NOT_FOUND when the Cholesky certificate of _lift shows the least
       eigenvalue of H (_lifted_gram) above the floor (_lift_floor);
       EQUIVALENT when the point _lift reads off H certifies; else it
       hands on.
    6. "coset", or "coset-block" on a degenerate spectrum: search.run_search
       from the refused frame guess's coset point (_frame_point, read from
       that W), or the identity without one, with config.restarts starts
       of up to config.sweeps passes, stopping at the first stalled point
       that certifies: EQUIVALENT when the point it returns certifies,
       else NOT_FOUND.

    A coset point certifies when factor_full's rank-one test passes at every
    cut of its V and the factors pass _verified.  No NOT_FOUND claims
    inequivalence: "bound" and "invariant" show that no witness could pass
    the gate, "lift" that no coset point passes the rank-one test, and the
    search only that it found none within budget; each is the status the
    search would have returned.

    Every verdict past the spectra reports distance_lower (Verdict).  One
    that ran no search has restarts_used 0 and an empty objective_history.
    cut_reports and best_objective (the paper's surrogate, the sum of
    (sigma2/sigma1)^2 over the cuts) belong to the coset point the verdict
    reports, the lift's or the search's, and are None elsewhere.  phases
    are those of that point, or of x_m^dag W^dag y_m on "frame"; they are
    None on a degenerate spectrum and where no point is reported.
    """
    if config is None:
        config = SearchConfig()
    if rho.profile != rho_prime.profile:
        raise ValueError(
            f"dimension profiles differ: {rho.profile.dims} vs {rho_prime.profile.dims}"
        )
    validated = []
    for index, state in enumerate((rho, rho_prime)):
        try:
            validated.append(validate_density(state))
        except ValueError as exc:
            raise StateError(index, str(exc)) from None
    (rho, s1), (rho_prime, s2) = validated
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
    # the fields every verdict past the spectra shares
    verdict = functools.partial(
        Verdict,
        used_degenerate_fallback=fallback,
        seed=config.seed,
        distance_lower=max(spectral_distance, marginal_distance),
    )
    gate = _gate_distance(rho)
    if marginal_distance > gate:
        # every product unitary is farther than the witness gate allows, so no
        # search point could certify: NOT_FOUND, still no claim of inequivalence
        return verdict(VerdictStatus.NOT_FOUND, path="bound")
    frames = _product_frames(rho, rho_prime, marginals, config.spec_tol)
    w = None  # the frame guess's W, once the gate has refused it
    if frames is not None:
        tops = (s1.eigenvalues[0], s2.eigenvalues[0])
        invariant = _invariant_distance(rho, rho_prime, tops, marginals, frames)
        if invariant > gate:
            # the frames' cycle products put every product unitary beyond the
            # gate, as on "bound": NOT_FOUND with no frame guess, coset, lift
            # or search
            return verdict(
                VerdictStatus.NOT_FOUND,
                path="invariant",
                distance_lower=max(spectral_distance, marginal_distance, invariant),
            )
        witness = FactorSet(factors=tuple(_frame_factors(marginals, frames)))
        passed, residual, w = _verified(rho, rho_prime, witness)
        if passed:
            # x_m^dag W^dag y_m for each m, from the gate's W and one D x D product
            point = None if fallback else np.sum(s1.basis.conj() * (w.conj().T @ s2.basis), axis=0)
            return verdict(
                VerdictStatus.EQUIVALENT,
                witness=witness,
                witness_residual=residual,
                phases=None if fallback else _phases(point),
                path="frame",
            )

    ctx = CosetContext(s1.basis, s2.basis, rho.profile, sizes)

    def certify(point: np.ndarray):
        """The exact cut reports of a point, and its verified witness and
        that witness's residual, or None and None."""
        # f bounds sum (sigma2/sigma1)^2, so a search success passes the cut
        # tests too; soundness rests on the verified witness, not on them
        reports, fs = factor_full(ctx.build(point), rho.profile, config.rank_tol)
        if fs is not None:
            witness = fs.adjoints()
            passed, residual, _ = _verified(rho, rho_prime, witness)
            if passed:
                return reports, witness, residual
        return reports, None, None

    def coset_verdict(point: np.ndarray, path: str, outcome=None) -> Verdict:
        reports, witness, residual = certify(point)
        return verdict(
            VerdictStatus.NOT_FOUND if witness is None else VerdictStatus.EQUIVALENT,
            witness=witness,
            witness_residual=residual,
            phases=None if fallback else _phases(point),
            cut_reports=reports,
            objective_history=[] if outcome is None else outcome.history,
            # the paper's surrogate; the search's f only bounds it from above
            best_objective=sum(r.ratio**2 for r in reports),
            restarts_used=0 if outcome is None else outcome.restarts_used,
            path=path,
        )

    if ctx.size <= LIFT_MAX_SIZE:
        excluded, point = _lift(ctx, config.rank_tol)
        if excluded:
            # no coset point passes the rank-one test, so no search point
            # could certify: NOT_FOUND, as on "bound", with no search
            return verdict(VerdictStatus.NOT_FOUND, path="lift")
        if point is not None:
            lifted = coset_verdict(point, "lift")
            if lifted.status is VerdictStatus.EQUIVALENT:
                return lifted

    outcome = run_search(
        ctx,
        passes=config.sweeps,
        restarts=config.restarts,
        rank_tol=config.rank_tol,
        seed=config.seed,
        start=None if w is None else _frame_point(ctx, w),
        accept=lambda p: certify(p)[1] is not None,
    )
    return coset_verdict(outcome.point, "coset-block" if fallback else "coset", outcome)
