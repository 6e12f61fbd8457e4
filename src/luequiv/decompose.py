"""Tensor factorization of unitaries whose cut realignments are rank one.

A unitary V on N_1 x ... x N_M decomposes as V_1 kron ... kron V_M exactly
when every sequential-cut realignment has rank one.  ``peel`` factors any V
with no test; ``factor_full`` runs that test once, on V's own
realignments, and peels only when every cut passes.  The factors come from
the leading singular triple of each peeled realignment, rescaled so both
sides are unitary (the positive scale k relating the raw factors is
absorbed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import TOL, RankOneReport, rank_one_test
from .tensor import DimProfile, _realign_matrix, as_cmatrix, kron_all, lead_phases, realign


@dataclass(frozen=True)
class FactorSet:
    """Per-site factors (U_1, ..., U_M) with the reconstruction residual."""

    factors: tuple[np.ndarray, ...] = field(repr=False)
    factorization_residual: float = 0.0

    def adjoints(self) -> "FactorSet":
        return FactorSet(
            factors=tuple(f.conj().T for f in self.factors),
            factorization_residual=self.factorization_residual,
        )


def unitarity_defect(u) -> float:
    u = as_cmatrix(u)
    return float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])))


def _checked_unitary(v, profile: DimProfile, what: str) -> np.ndarray:
    """v as a complex matrix; ValueError unless it is a unitary on the profile's space."""
    v = as_cmatrix(v)
    n = profile.total
    if v.shape != (n, n):
        raise ValueError(f"{what}: operator shape {v.shape} does not match profile {profile.dims}")
    defect = unitarity_defect(v)
    if defect > TOL:
        raise ValueError(f"{what} is not unitary: ||UU^dag - I||_F = {defect:.3e}")
    return v


def cut_reports(v, profile: DimProfile, tol: float) -> list[RankOneReport]:
    """The rank-one test of every sequential-cut realignment of v, cuts 1..M-1."""
    return [
        rank_one_test(realign(v, profile, k), tol, cut=k) for k in range(1, profile.nsites)
    ]


def _split(u: np.ndarray, d_left: int) -> tuple[np.ndarray, np.ndarray]:
    """Split u across its d_left | rest cut into (U_1, U_2).

    From the leading singular triple sigma * x * y^t of the realignment,
    U_1 = s * X and U_2 = (sigma / s) * Y, with X and Y the row-major square
    reshapes of x and y and s > 0 chosen to minimize ||U_1 U_1^dag - I||_F.
    U_1's leading entry, row-major (tensor.lead_phases), is made real
    positive and its phase moved onto U_2.
    """
    d_right = u.shape[0] // d_left
    uu, sv, vh = np.linalg.svd(_realign_matrix(u, d_left, d_right), full_matrices=False)
    a = uu[:, 0].reshape(d_left, d_left)
    b = vh[0, :].reshape(d_right, d_right)
    # least-squares unitarization scale: s^2 = tr(AA^dag) / ||AA^dag||_F^2
    aa = a @ a.conj().T
    s = float(np.sqrt(np.trace(aa).real / np.linalg.norm(aa) ** 2))
    left = s * a
    phase = lead_phases(left.reshape(-1, 1))[0]
    return left / phase, (float(sv[0]) / s) * b * phase


def peel(v: np.ndarray, profile: DimProfile) -> FactorSet:
    """The factors of v peeled left to right across the sequential cuts, and
    their reconstruction residual ||kron_i U_i - v||_F, whatever v's cut
    ratios: no rank-one test runs, and off a product the factors miss
    unitarity, which is the caller's to test.  The phase convention fixes
    every left factor's leading entry real positive, pushing the
    accumulated global phase into the final factor.
    """
    factors: list[np.ndarray] = []
    rest = v
    for d_left in profile.dims[:-1]:
        left, rest = _split(rest, d_left)
        factors.append(left)
    factors.append(rest)
    residual = float(np.linalg.norm(kron_all(factors) - v))
    return FactorSet(factors=tuple(factors), factorization_residual=residual)


def factor_full(
    v, profile: DimProfile, tol: float
) -> tuple[list[RankOneReport], FactorSet | None]:
    """The cut reports of a unitary v, and its peeled factors when every cut
    passes.

    Unitarity is checked once, on v: a remainder is as close to unitary as v
    is to a product, so a near product that passes the rank-one tests
    factors.
    """
    v = _checked_unitary(v, profile, "factor_full input")
    reports = cut_reports(v, profile, tol)
    return reports, peel(v, profile) if all(r.rank_one for r in reports) else None
