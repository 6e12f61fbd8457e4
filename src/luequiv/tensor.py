"""Dense complex matrices with multipartite structure: kron and realignment.

Matrices are plain ``numpy.ndarray`` of dtype complex128.  The realignment
of a square operator across a sequential cut 1..k | k+1..M is a pure entry
permutation: row (I, I') of the realigned matrix is the row-major vec of the
(I, I') block when the operator is viewed as a d_L x d_L grid of d_R x d_R
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LEAD_RTOL = 1e-9  # magnitudes this close to a maximum count as tied with it


class ShapeError(ValueError):
    """Raised when a matrix does not conform to the declared dimensions."""


@dataclass(frozen=True)
class DimProfile:
    """Local dimensions (N_1, ..., N_M) of a multipartite system, M >= 2."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValueError(f"need at least two subsystems, got dims={dims}")
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive, got dims={dims}")

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def split(self, cut: int) -> tuple[int, int]:
        """Left/right dimensions (d_L, d_R) of the sequential cut 1..cut | rest."""
        if not 1 <= cut <= self.nsites - 1:
            raise ValueError(
                f"cut must be in [1, {self.nsites - 1}] for {self.nsites} sites, got {cut}"
            )
        d_left = math.prod(self.dims[:cut])
        return d_left, self.total // d_left


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array (no copy when already conforming)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def lead_phases(m: np.ndarray) -> np.ndarray:
    """The unit phase of each column's leading entry, 1 for a zero column.

    The leading entry is the column's first within LEAD_RTOL of its largest
    magnitude: plain argmax is unstable when magnitudes tie up to rounding
    (common for 2x2 unitaries), and the tolerance makes every phase
    convention that divides by these phases reproducible.
    """
    mags = np.abs(m)
    rows = np.argmax(mags >= mags.max(axis=0) * (1.0 - LEAD_RTOL), axis=0)
    cols = np.arange(m.shape[1])
    lead, size = m[rows, cols], mags[rows, cols]
    return np.divide(lead, size, out=np.ones_like(lead), where=size > 0)


def partial_trace(m, dims, site: int) -> np.ndarray:
    """Tr over every site but ``site`` of a square operator on sites of
    dimensions ``dims``, or of each operator of a stack (leading axes).

    The operator need not be a state: any square matrix, Hermitian or not,
    of any trace.
    """
    if not 0 <= site < len(dims):
        raise ValueError(f"site must be in [0, {len(dims) - 1}], got {site}")
    m = np.asarray(m, dtype=np.complex128)
    n = math.prod(dims)
    if m.shape[-2:] != (n, n):
        raise ShapeError(f"operator shape {m.shape} does not match dims {dims}")
    before, d, after = math.prod(dims[:site]), dims[site], math.prod(dims[site + 1 :])
    t = m.reshape(*m.shape[:-2], before, d, after, before, d, after)
    return np.ascontiguousarray(np.einsum("...aibajb->...ij", t))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValueError("kron_all needs at least one matrix")
    out = as_cmatrix(mats[0])
    for m in mats[1:]:
        m = as_cmatrix(m)
        # np.kron's products, without its per-call axis bookkeeping
        out = (out[:, np.newaxis, :, np.newaxis] * m[np.newaxis, :, np.newaxis, :]).reshape(
            out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        )
    return out


def _realign_matrix(z: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    # (Z~)[(I,I'), (J,J')] = Z[(I,J), (I',J')], row-major, for each Z of a stack
    lead = z.shape[:-2]
    return np.ascontiguousarray(
        z.reshape(*lead, d_left, d_right, d_left, d_right)
        .swapaxes(-3, -2)
        .reshape(*lead, d_left * d_left, d_right * d_right)
    )


def realign(z, profile: DimProfile, cut: int) -> np.ndarray:
    """The (d_L^2, d_R^2) realignment of a square operator across the
    sequential cut 1..cut | cut+1..M.

    Row (I, I') of the result is vec of the d_R x d_R block at block-row I,
    block-column I' of ``z``, so a tensor product A kron B realigns to the
    rank-one outer product vec(A) vec(B)^t; vec is the row-major flattening.
    """
    z = as_cmatrix(z)
    d_left, d_right = profile.split(cut)
    n = profile.total
    if z.shape != (n, n):
        raise ShapeError(
            f"realign at cut {cut}: operator shape {z.shape} does not match "
            f"profile {profile.dims} (expected {(n, n)})"
        )
    return _realign_matrix(z, d_left, d_right)
