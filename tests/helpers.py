"""Independent oracles and fixtures shared across the test modules.

Everything here is deliberately naive (explicit index loops, power iteration)
so it can serve as a cross-check for the library's vectorized paths.
"""

import itertools

import numpy as np

from luequiv import DensityMatrix, DimProfile, kron_all
from luequiv.oracle import haar_unitary, local_unitaries, random_density
from luequiv.tensor import partial_trace


def realign_index_oracle(z: np.ndarray, dims: tuple[int, ...], cut: int) -> np.ndarray:
    """Entry-by-entry realignment from the index formula, via explicit loops.

    (Z~)[(I,I'), (J,J')] = Z[(I,J), (I',J')] with I, I' over the left block
    (row-major composite) and J, J' over the right block.
    """
    profile = DimProfile(dims)
    d_left, d_right = profile.split(cut)
    out = np.zeros((d_left * d_left, d_right * d_right), dtype=complex)
    for i in range(d_left):
        for ip in range(d_left):
            for j in range(d_right):
                for jp in range(d_right):
                    out[i * d_left + ip, j * d_right + jp] = z[
                        i * d_right + j, ip * d_right + jp
                    ]
    return out


def partial_trace_oracle(rho: np.ndarray, dims: tuple[int, ...], site: int) -> np.ndarray:
    """Single-site reduced density matrix by explicit summation."""
    m = len(dims)
    n = dims[site]
    out = np.zeros((n, n), dtype=complex)
    ranges = [range(d) for d in dims]

    def flat(idx):
        r = 0
        for d, i in zip(dims, idx):
            r = r * d + i
        return r

    import itertools

    for a in range(n):
        for b in range(n):
            for rest in itertools.product(*(ranges[:site] + ranges[site + 1:])):
                left = list(rest[:site])
                right = list(rest[site:])
                row = flat(left + [a] + right)
                col = flat(left + [b] + right)
                out[a, b] += rho[row, col]
    return out


def lifted_gram_oracle(ctx) -> np.ndarray:
    """H = K^H K of the lifted rank-one system of a coset context, from the
    explicit 2x2 minors.

    Each cut realigns every x_{rows[m]} y_{cols[m]}^dag with
    realign_index_oracle.  Row (i, j, k, l), i < j and k < l, of K holds the
    coefficients of that minor of R(a) = sum_m a_m R_m in the orthonormal
    coordinates of E = a a^T: Q_mm for E_mm and (Q_mn + Q_nm) / sqrt(2) for
    sqrt(2) E_mn, m < n, with Q_mn = R_m[i, k] R_n[j, l] - R_m[i, l] R_n[j, k].
    """
    s = ctx.size
    x, y = ctx.x[:, ctx.rows], ctx.y[:, ctx.cols]
    rows = []
    for d_left, d_right in ctx.splits:
        r = [
            realign_index_oracle(np.outer(x[:, m], y[:, m].conj()), (d_left, d_right), 1)
            for m in range(s)
        ]
        nr, nc = r[0].shape
        for i, j in itertools.combinations(range(nr), 2):
            for k, l in itertools.combinations(range(nc), 2):
                row = []
                for m in range(s):
                    for n in range(m, s):
                        q_mn = r[m][i, k] * r[n][j, l] - r[m][i, l] * r[n][j, k]
                        q_nm = r[n][i, k] * r[m][j, l] - r[n][i, l] * r[m][j, k]
                        row.append(q_mn if m == n else (q_mn + q_nm) / np.sqrt(2.0))
                rows.append(row)
    k_mat = np.array(rows)
    return k_mat.conj().T @ k_mat


def cycle_products_oracle(x: np.ndarray) -> np.ndarray:
    """T(X)_abc = X_ab X_bc X_ca, the 3-cycle products, as an explicit
    D x D x D tensor."""
    return x[:, :, np.newaxis] * x[np.newaxis, :, :] * x.T[:, np.newaxis, :]


def operator_norm_power_iteration(m: np.ndarray, iters: int = 2000) -> float:
    """Largest singular value via power iteration on m^dag m from a fixed start."""
    g = m.conj().T @ m
    v = np.ones(g.shape[0], dtype=complex) / np.sqrt(g.shape[0])
    for _ in range(iters):
        w = g @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.real(np.vdot(v, g @ v))))


def near_product(dims: tuple[int, ...], eps: float, rng) -> np.ndarray:
    """exp(i eps H) (U_1 kron ... kron U_M), H a Gaussian Hermitian, U_i Haar.

    At eps = 1e-4 every cut realigns to sigma2/sigma1 of about 1e-4, and a
    peeled remainder misses unitarity by about 1e-7.
    """
    n = int(np.prod(dims))
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    product = kron_all([haar_unitary(d, rng) for d in dims])
    return (q * np.exp(1j * eps * w)) @ q.conj().T @ product


def degenerate_plant(dims: tuple[int, ...], seed: int, tie: int = 1, rank: int | None = None):
    """(rho, rho') with rho' a Haar local rotation of rho; rho has a Haar
    eigenbasis and ``rank`` nonzero eigenvalues (all by default), gaps >= 0.5
    before normalization, save that the 2nd to (tie+1)-th are tied.

    rank < D leaves a zero block of multiplicity D - rank; rank 1 is pure.
    """
    profile = DimProfile(dims)
    rng = np.random.default_rng([seed, 0xB10C])
    r = profile.total if rank is None else rank
    lam = np.zeros(profile.total)
    lam[:r] = np.arange(r, 0, -1) + rng.uniform(0.0, 0.5, r)
    lam[1 : 1 + tie] = lam[1 : 1 + tie].mean()
    rho = random_density(profile, lam / lam.sum(), rng)
    return rho, local_rotation(rho, rng)


def local_rotation(rho: DensityMatrix, seed) -> DensityMatrix:
    """(kron U_i) rho (kron U_i)^dag with Haar U_i."""
    w = kron_all(local_unitaries(rho.profile, seed))
    m = w @ rho.matrix @ w.conj().T
    return DensityMatrix(matrix=(m + m.conj().T) / 2.0, profile=rho.profile)


def tied_overlap_state(eps: float) -> DensityMatrix:
    """A diagonal (3, 2) state whose overlap marginal against itself,
    M_1 = diag(sum_j rho_aj^2), has its two largest entries eps times its
    span apart; every marginal gap is far above spec_tol.  Row 0 is
    (s, 0.4 - s) with s^2 + (0.4 - s)^2 the top entry."""
    rows = np.array([[0.0, 0.0], [0.28, 0.15], [0.1, 0.07]])
    m = rows[1:] ** 2 @ np.ones(2)
    top = m[0] + eps * (m[0] - m[1]) / (1.0 - eps)
    rows[0, 0] = (0.8 + np.sqrt(0.64 - 8.0 * (0.16 - top))) / 4.0
    rows[0, 1] = 0.4 - rows[0, 0]
    return DensityMatrix(matrix=np.diag(rows.ravel()).astype(complex), profile=DimProfile((3, 2)))


def conjugate(rho: DensityMatrix) -> DensityMatrix:
    """rho*: the same spectrum and the same marginal spectra as rho."""
    return DensityMatrix(matrix=rho.matrix.conj(), profile=rho.profile)


def with_mixed_marginal(rho: DensityMatrix, site: int = 0) -> DensityMatrix:
    """F rho F^dag with F = rho_i^(-1/2) / sqrt(d_i) at ``site`` i: a state
    whose marginal there is I/d_i (degenerate) and whose other marginals and
    spectrum stay generic."""
    w, v = np.linalg.eigh(partial_trace(rho.matrix, rho.profile.dims, site))
    dims = rho.profile.dims
    factors = [np.eye(d) for d in dims]
    factors[site] = (v / np.sqrt(w * dims[site])) @ v.conj().T
    f = kron_all(factors)
    m = f @ rho.matrix @ f.conj().T
    return DensityMatrix(matrix=(m + m.conj().T) / 2.0, profile=rho.profile)


def locally_mixed_qubits(nsites: int, seed: int) -> DensityMatrix:
    """I/D plus random Pauli strings of weight >= 2: every one-site marginal is I/2."""
    rng = np.random.default_rng(seed)
    paulis = [
        np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    ]
    dim = 2**nsites
    t = np.zeros((dim, dim), dtype=complex)
    for idx in itertools.product(range(4), repeat=nsites):
        if np.count_nonzero(idx) >= 2:
            t += rng.standard_normal() * kron_all([paulis[i] for i in idx])
    # scaled so the least eigenvalue of rho is a tenth of 1/D
    t *= 0.9 / (dim * abs(np.linalg.eigvalsh(t)[0]))
    return DensityMatrix(matrix=np.eye(dim) / dim + t, profile=DimProfile((2,) * nsites))


def werner(d: int, p: float) -> DensityMatrix:
    """p of the normalized antisymmetric projector on d x d, 1 - p of the symmetric."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    anti, sym = (np.eye(d * d) - swap) / 2.0, (np.eye(d * d) + swap) / 2.0
    m = p * anti / np.trace(anti) + (1.0 - p) * sym / np.trace(sym)
    return DensityMatrix(matrix=m.astype(complex), profile=DimProfile((d, d)))


# ---------------------------------------------------------------------------
# fixtures for the corner-coupled 2x2x2 example pair
# ---------------------------------------------------------------------------

WITNESS_SIGNS = np.array([1, -1, 1, -1, -1, 1, -1, 1], dtype=float)


def example_bases(a: float, b: float, c: float):
    """Analytic eigenbases X, Y of the example pair, eigenvalue order
    (2, 0, 1/a, a, 1/b, b, 1/c, c) shared between the two states."""
    s2 = 1.0 / np.sqrt(2.0)
    e = np.eye(8, dtype=complex)
    x = np.stack(
        [(e[0] - e[7]) * s2, (e[0] + e[7]) * s2, e[1], e[6], e[2], e[5], e[3], e[4]],
        axis=1,
    )
    y = np.stack(
        [(e[0] + e[7]) * s2, (e[0] - e[7]) * s2, e[6], e[1], e[5], e[2], e[4], e[3]],
        axis=1,
    )
    lam = np.array([2.0, 0.0, 1 / a, a, 1 / b, b, 1 / c, c])
    return x, y, lam


def reference_basis_pair():
    """Bases X, Y for which X diag(d) Y^dag reproduces the reference V for all d."""
    s2 = 1.0 / np.sqrt(2.0)
    e = np.eye(8, dtype=complex)
    x = np.stack(
        [(e[0] - e[1]) * s2, e[2], e[4], e[6], e[7], e[5], e[3], (e[0] + e[1]) * s2],
        axis=1,
    )
    y = np.stack(
        [(-e[0] + e[1]) * s2, e[3], e[5], e[7], e[6], e[4], e[2], (e[0] + e[1]) * s2],
        axis=1,
    )
    return x, y


def reference_v(d: np.ndarray) -> np.ndarray:
    """The reference 8x8 V pattern as a function of the eight diagonal entries d."""
    d1, d2, d3, d4, d5, d6, d7, d8 = d
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = (-d1 + d8) / 2
    m[0, 1] = (d1 + d8) / 2
    m[1, 0] = (d1 + d8) / 2
    m[1, 1] = (-d1 + d8) / 2
    m[2, 3] = d2
    m[3, 2] = d7
    m[4, 5] = d3
    m[5, 4] = d6
    m[6, 7] = d4
    m[7, 6] = d5
    return m


def reference_cut1(d: np.ndarray) -> np.ndarray:
    """The reference 4x16 realignment across the first cut."""
    d1, d2, d3, d4, d5, d6, d7, d8 = d
    m = np.zeros((4, 16), dtype=complex)
    m[0, :] = [
        (-d1 + d8) / 2, (d1 + d8) / 2, 0, 0,
        (d1 + d8) / 2, (-d1 + d8) / 2, 0, 0,
        0, 0, 0, d2,
        0, 0, d7, 0,
    ]
    m[3, :] = [
        0, d3, 0, 0,
        d6, 0, 0, 0,
        0, 0, 0, d4,
        0, 0, d5, 0,
    ]
    return m


def reference_cut2(d: np.ndarray) -> np.ndarray:
    """The reference 16x4 realignment across the second cut."""
    d1, d2, d3, d4, d5, d6, d7, d8 = d
    m = np.zeros((16, 4), dtype=complex)
    m[0, :] = [(-d1 + d8) / 2, (d1 + d8) / 2, (d1 + d8) / 2, (-d1 + d8) / 2]
    m[5, :] = [0, d2, d7, 0]
    m[10, :] = [0, d3, d6, 0]
    m[15, :] = [0, d4, d5, 0]
    return m
