"""Hermitian eigendecomposition, degeneracy profiling, and rank-one tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import LEAD_RTOL, as_cmatrix

# The one tolerance scale of the package.  Each check below compares its
# quantity with TOL times its scale; spec_tol (SearchConfig, --tol-spec,
# default TOL) sets its two rows, for the states' and the marginals' spectra.
#
#   check                                quantity                   scale
#   Hermiticity (require_hermitian)      ||H - H^dag||_F            max(1, ||H||_F)
#   trace warning (validate_density)     |tr rho - 1|               1
#   PSD (validate_density)               -lambda_min                1
#   unitarity (factor_full input,        ||U U^dag - I||_F          1
#     every witness factor)
#   witness residual                     ||W rho W^dag - rho'||_F   max(1, ||rho||_F)
#   spectra match (spec_tol)             max |lambda - lambda'|     1
#   degeneracy grouping (spec_tol)       adjacent eigenvalue gap    1
#   frame phase gap (M_i, equivalence)   top eigenvalue gap         span of M_i
#
# Four thresholds are not rows: none is TOL times a scale, and none decides
# soundness, which rests on the witness gate (the unitarity and witness
# residual rows) alone.  rank_tol (SearchConfig, --tol-rank) bounds a
# singular-value ratio, sigma2 / sigma1.  search.OBJECTIVE_POLISH and
# search.ESCAPE_LEVEL_PER_CUT set only the search's cost and reach; a point
# it returns must still pass the gate.  tensor.LEAD_RTOL only breaks ties
# between equal magnitudes when a phase convention picks a leading entry.
TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with the pairing eigenvector matrix.

    Column j of ``basis`` is the unit eigenvector for ``eigenvalues[j]``.
    Each column is phase-fixed (largest-magnitude entry real positive) so the
    decomposition is deterministic.
    """

    eigenvalues: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class RankOneReport:
    """Two leading singular values and the rank-one verdict at a tolerance."""

    sigma1: float
    sigma2: float
    ratio: float
    is_rank_one: bool
    cut: int | None = None


def _fix_column_phases(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its leading entry (as ``leading_index`` picks it) is real positive."""
    mags = np.abs(m)
    rows = np.argmax(mags >= mags.max(axis=0) * (1.0 - LEAD_RTOL), axis=0)
    cols = np.arange(m.shape[1])
    lead, size = m[rows, cols], mags[rows, cols]
    keep = size > 0
    out = m.copy()
    out[:, keep] /= lead[keep] / size[keep]
    return out


def require_hermitian(h: np.ndarray, what: str = "matrix") -> None:
    """ValueError unless ||H - H^dag||_F <= TOL * max(1, ||H||_F)."""
    dev = float(np.linalg.norm(h - h.conj().T))
    if dev > TOL * max(1.0, float(np.linalg.norm(h))):
        raise ValueError(f"{what} is not Hermitian: ||H - H^dag||_F = {dev:.3e}")


def eig_hermitian(h) -> Spectrum:
    """Decompose a Hermitian matrix as X diag(lambda) X^dag, lambda descending.

    Deterministic: eigenvector phases are fixed per column and exact eigenvalue
    ties are ordered lexicographically by the resulting vectors.
    """
    h = as_cmatrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got {h.shape}")
    require_hermitian(h)
    return _eig_checked(h)


def _eig_checked(h: np.ndarray) -> Spectrum:
    """eig_hermitian of a square matrix already checked by require_hermitian."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    v = _fix_column_phases(v)
    # exact float ties: order tied columns lexicographically for reproducibility
    j = 0
    n = w.size
    while j < n:
        k = j + 1
        while k < n and w[k] == w[j]:
            k += 1
        if k - j > 1:
            block = v[:, j:k]
            keys = np.concatenate([block.real, block.imag], axis=0)
            order = np.lexsort(keys[::-1])
            v[:, j:k] = block[:, order]
        j = k
    w.setflags(write=False)
    v.setflags(write=False)
    return Spectrum(eigenvalues=w, basis=v)


def degeneracy_profile(eigenvalues: np.ndarray, tol: float) -> tuple[int, ...]:
    """Multiplicities, in order, of the blocks of consecutive sorted
    eigenvalues (descending or ascending) whose gaps are <= tol."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    w = eigenvalues
    sizes: list[int] = []
    j = 0
    while j < w.size:
        k = j + 1
        while k < w.size and abs(w[k - 1] - w[k]) <= tol:
            k += 1
        sizes.append(k - j)
        j = k
    return tuple(sizes)


def spectra_match(s1: Spectrum, s2: Spectrum, tol: float) -> bool:
    """True iff the sorted eigenvalue vectors agree element-wise within tol."""
    if s1.dim != s2.dim:
        raise ValueError(f"spectra have different dimensions: {s1.dim} vs {s2.dim}")
    return bool(np.max(np.abs(s1.eigenvalues - s2.eigenvalues)) <= tol)


def rank_one_report(s1: float, s2: float, tol: float, cut: int | None = None) -> RankOneReport:
    """Rank-one verdict from the two leading singular values sigma1 >= sigma2.

    is_rank_one <=> sigma1 > 0 and sigma2 <= tol * sigma1.  The ratio is
    scale-invariant, so the verdict ignores any overall scalar factor.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    ratio = s2 / s1 if s1 > 0 else 0.0
    return RankOneReport(
        sigma1=s1,
        sigma2=s2,
        ratio=ratio,
        is_rank_one=bool(s1 > 0 and s2 <= tol * s1),
        cut=cut,
    )


def rank_one_test(m, tol: float, cut: int | None = None) -> RankOneReport:
    """Rank-one verdict via the ratio of the two leading singular values of m.

    sigma2 is 0 when min(shape) < 2, so a nonzero single row or column is rank one.
    """
    sv = np.linalg.svd(as_cmatrix(m), compute_uv=False)
    s1 = float(sv[0]) if sv.size else 0.0
    s2 = float(sv[1]) if sv.size > 1 else 0.0
    return rank_one_report(s1, s2, tol, cut=cut)
