"""Ground-truth generators: Haar unitaries, random densities, planted pairs.

LU equivalence is easy to construct even though it is hard to decide, so the
test corpus is built by planting: draw a state, conjugate it by known local
unitaries, and keep those unitaries as the certified witness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import TOL, degeneracy_profile
from .states import DensityMatrix
from .tensor import DimProfile, kron_all

# make_spectrum_mismatch_pair moves this much weight between its top two eigenvalues
MISMATCH_SHIFT = 1e-2


@dataclass(frozen=True)
class PairSample:
    rho: DensityMatrix
    rho_prime: DensityMatrix
    planted: tuple[np.ndarray, ...] | None = field(default=None, repr=False)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2: a product that should be Hermitian, with its rounding
    asymmetry removed."""
    return (m + m.conj().T) / 2.0


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary from a QR-decomposed Ginibre matrix."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = _rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))[np.newaxis, :]
    return q


def _generic_spectrum(n: int, rng: np.random.Generator, min_gap: float = 1e-3) -> np.ndarray:
    """Descending eigenvalues summing to 1 with pairwise gaps >= min_gap.

    n eigenvalues fit min_gap only while min_gap * n(n-1)/2 < 1 (n <= 45 at
    the default); past that the gap shrinks to 1/(n(n-1)), which leaves half
    of the mass to the random part.  A linear ramp is added to sorted
    uniforms; its slope is chosen so the gap bound survives the final
    normalization exactly.
    """
    if min_gap * n * (n - 1) / 2.0 >= 1.0:
        min_gap = 1.0 / (n * (n - 1))
    headroom = 1.0 - min_gap * n * (n - 1) / 2.0
    raw = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    slope = min_gap * raw.sum() / headroom
    lam = raw + slope * np.arange(n - 1, -1, -1, dtype=float)
    return lam / lam.sum()


def random_density(
    profile: DimProfile, spectrum_kind="generic-nondegenerate", seed=0
) -> DensityMatrix:
    """U Lambda U^dag with U Haar on the full space.

    spectrum_kind is either the string "generic-nondegenerate" or an explicit
    eigenvalue list (finite, non-negative, summing to 1).
    """
    rng = _rng(seed)
    n = profile.total
    if isinstance(spectrum_kind, str):
        if spectrum_kind != "generic-nondegenerate":
            raise ValueError(f"unknown spectrum kind {spectrum_kind!r}")
        lam = _generic_spectrum(n, rng)
    else:
        lam = np.asarray(spectrum_kind, dtype=float).reshape(-1)
        if lam.size != n:
            raise ValueError(f"planted spectrum has {lam.size} values, expected {n}")
        if not np.all(lam >= 0):  # NaN fails too; the sum test below catches inf
            raise ValueError(f"spectrum_kind eigenvalues must be non-negative, got {lam.tolist()}")
        if abs(lam.sum() - 1.0) > 1e-9:
            raise ValueError(f"planted eigenvalues sum to {lam.sum()}, expected 1")
        lam = np.sort(lam / lam.sum())[::-1]
    u = haar_unitary(n, rng)
    m = _hermitian_part((u * lam[np.newaxis, :]) @ u.conj().T)
    return DensityMatrix(matrix=m, profile=profile)


def local_unitaries(profile: DimProfile, seed) -> tuple[np.ndarray, ...]:
    rng = _rng(seed)
    return tuple(haar_unitary(d, rng) for d in profile.dims)


def _planted_pair(rho: DensityMatrix, rng: np.random.Generator) -> PairSample:
    """rho with rho' = (kron U_i) rho (kron U_i)^dag, Haar U_i drawn from rng."""
    factors = local_unitaries(rho.profile, rng)
    w = kron_all(factors)
    m = _hermitian_part(w @ rho.matrix @ w.conj().T)
    return PairSample(rho, DensityMatrix(matrix=m, profile=rho.profile), planted=factors)


def make_equivalent_pair(profile: DimProfile, seed: int) -> PairSample:
    """Plant rho' = (kron U_i) rho (kron U_i)^dag with Haar local factors."""
    rng = np.random.default_rng([int(seed), 0xE9])
    return _planted_pair(random_density(profile, "generic-nondegenerate", rng), rng)


def make_degenerate_pair(profile: DimProfile, seed: int) -> PairSample:
    """Planted pair whose common spectrum has one multiplicity-2 block.

    ValueError when D < 2: a one-level spectrum has no pair to merge.
    """
    n = profile.total
    if n < 2:
        raise ValueError(f"profile: a degenerate pair needs total dimension >= 2, got {n}")
    rng = np.random.default_rng([int(seed), 0xDE9])
    lam = _generic_spectrum(n, rng)
    k = int(rng.integers(0, n - 1))
    merged = (lam[k] + lam[k + 1]) / 2.0
    lam[k] = lam[k + 1] = merged
    lam = lam / lam.sum()
    return _planted_pair(random_density(profile, lam, rng), rng)


def make_spectrum_mismatch_pair(profile: DimProfile, seed: int) -> PairSample:
    """Same eigenvectors, the top eigenvalue pair shifted by +/- MISMATCH_SHIFT.

    The shift is capped at lambda_2 / 2 of the drawn spectrum, which keeps the
    shifted eigenvalue non-negative at any dimension.  ValueError when D < 2:
    the one unit-trace spectrum of D = 1 has no mismatched partner.
    """
    n = profile.total
    if n < 2:
        raise ValueError(f"profile: a spectrum mismatch needs total dimension >= 2, got {n}")
    rng = np.random.default_rng([int(seed), 0x5B])
    lam = _generic_spectrum(n, rng)
    delta = min(MISMATCH_SHIFT, lam[1] / 2.0)
    u = haar_unitary(n, rng)
    lam2 = lam.copy()
    lam2[0] += delta
    lam2[1] -= delta
    lam2 = lam2 / lam2.sum()
    rho, rho_prime = (
        DensityMatrix(_hermitian_part((u * x[np.newaxis, :]) @ u.conj().T), profile)
        for x in (lam, lam2)
    )
    return PairSample(rho, rho_prime)


def paper_example(a: float, b: float, c: float) -> tuple[DensityMatrix, DensityMatrix]:
    """The 2x2x2 fixture pair: corner-coupled diagonals, trace-normalized.

    The two operators share the unnormalized eigenvalue multiset
    {2, 0, 1/a, a, 1/b, b, 1/c, c}, divided by the trace, their sum.  A
    warning is issued when degeneracy_profile groups two of them at TOL,
    which is when ``check`` at its default spec_tol takes the block search
    instead of the phase criterion.  ValueError unless a, b and c are
    positive and finite and so is the trace, with every 1/p in it.
    """
    if not all(0 < p < np.inf for p in (a, b, c)):  # NaN fails both
        raise ValueError(f"parameters must be positive and finite, got {(a, b, c)}")
    first = np.diag([1.0, 1 / a, 1 / b, 1 / c, c, b, a, 1.0]).astype(np.complex128)
    first[0, 7] = first[7, 0] = -1.0
    second = np.diag([1.0, a, b, c, 1 / c, 1 / b, 1 / a, 1.0]).astype(np.complex128)
    second[0, 7] = second[7, 0] = 1.0
    with np.errstate(over="ignore"):  # an overflow is refused just below
        trace = float(np.trace(first).real)
    if not np.isfinite(trace):  # inf when a 1/p overflows or the sum does
        raise ValueError(
            f"parameters {(a, b, c)} give an eigenvalue or a trace beyond the double range"
        )
    vals = np.sort([2.0, 0.0, 1 / a, a, 1 / b, b, 1 / c, c]) / trace
    if max(degeneracy_profile(vals, TOL)) > 1:
        warnings.warn(
            f"parameters {(a, b, c)} give a degenerate spectrum; "
            "the phase criterion needs distinct eigenvalues",
            stacklevel=2,
        )
    profile = DimProfile((2, 2, 2))
    return (
        DensityMatrix(matrix=first / trace, profile=profile),
        DensityMatrix(matrix=second / trace, profile=profile),
    )
