"""Hermitian eigendecomposition, degeneracy profiling, and rank-one tests."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensor import as_cmatrix, lead_phases

# The one tolerance scale of the package.  Each check below compares its
# quantity with TOL times its scale; spec_tol (SearchConfig, --tol-spec,
# default TOL) sets its two rows, the states' spectra match and eigenvalue
# grouping.
#
#   check                                quantity                   scale
#   Hermiticity (require_hermitian)      ||H - H^dag||_F            max(1, ||H||_F)
#   trace warning (validate_density)     |tr rho - 1|               1
#   PSD (validate_density)               -lambda_min                1
#   unitarity (factor_full input,        ||U U^dag - I||_F          1
#     once per unitary; every witness
#     factor)
#   witness residual                     ||W rho W^dag - rho'||_F   max(1, ||rho||_F)
#   spectra match (spec_tol)             max |lambda - lambda'|     1
#   degeneracy grouping                  adjacent eigenvalue gap    1
#     (degeneracy_profile, the one
#     grouping rule: coset blocks and
#     marginal frames at spec_tol,
#     paper_example's warning at TOL)
#
# Five thresholds are not rows: none is TOL times a scale, and none decides
# soundness, which rests on the witness gate (the unitarity and witness
# residual rows) alone.  rank_tol (SearchConfig, --tol-rank) bounds a
# singular-value ratio, sigma2 / sigma1, tested once per unitary V at each
# of V's own cut realignments (factor_full).  search.OBJECTIVE_POLISH,
# search.ESCAPE_LEVEL_PER_CUT and search.ALIGN_STALL_REL (the relative gain
# below which a lone descent stalls) set only the search's cost and reach;
# a point it returns must still pass the gate.  tensor.LEAD_RTOL only
# breaks ties between equal magnitudes when tensor.lead_phases, the one
# leading-entry phase convention (eigenvectors, peeled factors), picks a
# column's entry.
# The bound and invariant rungs' slack (equivalence._gate_distance,
# _invariant_bound) is not a row either: it is a proof bound, how far the
# witness gate's two rows let a witness's image sit from an exact product
# image, carried to the marginal spectra and the frames' cycle products,
# with no threshold of its own.
TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with the pairing eigenvector matrix.

    Column j of ``vectors`` is a unit eigenvector for ``eigenvalues[j]``,
    with the phase eigh gave it.  ``basis`` is the same matrix with each
    column phase-fixed (leading entry real positive, tensor.lead_phases), so
    the decomposition is deterministic; it is formed on first read, as only
    the rungs that read an eigenbasis need it.
    """

    eigenvalues: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        basis = self.vectors / lead_phases(self.vectors)
        basis.setflags(write=False)
        return basis


@dataclass(frozen=True)
class RankOneReport:
    """Two leading singular values and the rank-one verdict at a tolerance."""

    sigma1: float
    sigma2: float
    ratio: float
    is_rank_one: bool
    cut: int | None = None


def require_hermitian(h: np.ndarray, what: str = "matrix") -> None:
    """ValueError unless ||H - H^dag||_F <= TOL * max(1, ||H||_F)."""
    dev = float(np.linalg.norm(h - h.conj().T))
    if dev > TOL * max(1.0, float(np.linalg.norm(h))):
        raise ValueError(f"{what} is not Hermitian: ||H - H^dag||_F = {dev:.3e}")


def eig_hermitian(h) -> Spectrum:
    """Decompose a Hermitian matrix as X diag(lambda) X^dag, lambda descending.

    Deterministic: eigh is, and each column of the returned ``basis`` has
    its leading entry made real positive (tensor.lead_phases).
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
    v = v[:, ::-1]
    w.setflags(write=False)
    v.setflags(write=False)
    return Spectrum(eigenvalues=w, vectors=v)


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
    n1, n2 = s1.eigenvalues.size, s2.eigenvalues.size
    if n1 != n2:
        raise ValueError(f"spectra have different dimensions: {n1} vs {n2}")
    return bool(np.max(np.abs(s1.eigenvalues - s2.eigenvalues)) <= tol)


def rank_one_test(m, tol: float, cut: int | None = None) -> RankOneReport:
    """Rank-one verdict via the ratio of the two leading singular values of m.

    is_rank_one <=> sigma1 > 0 and sigma2 <= tol * sigma1.  The ratio is
    scale-invariant, so the verdict ignores any overall scalar factor.
    sigma2 is 0 when min(shape) < 2, so a nonzero single row or column is rank one.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    sv = np.linalg.svd(as_cmatrix(m), compute_uv=False)
    s1 = float(sv[0]) if sv.size else 0.0
    s2 = float(sv[1]) if sv.size > 1 else 0.0
    return RankOneReport(
        sigma1=s1,
        sigma2=s2,
        ratio=s2 / s1 if s1 > 0 else 0.0,
        is_rank_one=bool(s1 > 0 and s2 <= tol * s1),
        cut=cut,
    )
