"""Tensor factorization of unitaries whose cut realignments are rank one.

A unitary V on N_1 x ... x N_M decomposes as V_1 kron ... kron V_M exactly
when every sequential-cut realignment has rank one.  The factors come from
the leading singular triple of each realignment, rescaled so both sides are
unitary (the positive scale k relating the raw factors is absorbed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import RankOneReport, rank_one_report, rank_one_test
from .tensor import DimProfile, as_cmatrix, kron_all, leading_index, realign, unvec

UNITARY_TOL = 1e-8


class NotDecomposableError(ValueError):
    """Input is not a tensor product; carries the failing cut's report."""

    def __init__(self, report: RankOneReport, message: str | None = None):
        self.report = report
        if message is None:
            message = (
                f"realignment at cut {report.cut} is not rank one: "
                f"sigma2/sigma1 = {report.ratio:.3e}"
            )
        super().__init__(message)


@dataclass(frozen=True)
class FactorSet:
    """Per-site factors (U_1, ..., U_M) with the reconstruction residual."""

    factors: tuple[np.ndarray, ...] = field(repr=False)
    residual: float = 0.0

    def product(self) -> np.ndarray:
        return kron_all(self.factors)

    def adjoints(self) -> "FactorSet":
        return FactorSet(
            factors=tuple(f.conj().T for f in self.factors), residual=self.residual
        )


def unitarity_defect(u) -> float:
    u = as_cmatrix(u)
    return float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])))


def _require_unitary(v: np.ndarray, what: str) -> None:
    defect = unitarity_defect(v)
    if defect > UNITARY_TOL:
        raise ValueError(f"{what} is not unitary: ||UU^dag - I||_F = {defect:.3e}")


def is_decomposable(
    v, profile: DimProfile, tol: float
) -> tuple[bool, list[RankOneReport]]:
    """Rank-one test at every sequential cut of a unitary.

    Returns the overall verdict and the per-cut reports (always all cuts).
    """
    v = as_cmatrix(v)
    _require_unitary(v, "is_decomposable input")
    reports = [
        rank_one_test(realign(v, profile, k).matrix, tol, cut=k)
        for k in range(1, profile.nsites)
    ]
    return all(r.is_rank_one for r in reports), reports


def _fix_leading_phase(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make the largest-magnitude entry of the left factor real positive."""
    lead = left.flat[leading_index(left)]
    if abs(lead) == 0:
        return left, right
    phase = lead / abs(lead)
    return left / phase, right * phase


def factor_pair(u, dim_left: int, dim_right: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Split a unitary on C^dimL x C^dimR into unitary factors (U_1, U_2).

    From the leading singular triple sigma * x * y^t of the realignment,
    U_1 = s * unvec(x) and U_2 = (sigma / s) * unvec(y), with s > 0 chosen to
    minimize ||U_1 U_1^dag - I||_F.  The returned pair satisfies
    u ~ U_1 kron U_2 up to the usual opposite global phases.
    """
    u = as_cmatrix(u)
    if u.shape != (dim_left * dim_right, dim_left * dim_right):
        raise ValueError(
            f"expected a {dim_left * dim_right}-dimensional operator, got {u.shape}"
        )
    profile = DimProfile((dim_left, dim_right))
    _require_unitary(u, "factor_pair input")
    uu, sv, vh = np.linalg.svd(realign(u, profile, 1).matrix, full_matrices=False)
    report = rank_one_report(float(sv[0]), float(sv[1]) if sv.size > 1 else 0.0, tol, cut=1)
    if not report.is_rank_one:
        raise NotDecomposableError(report)
    a = unvec(uu[:, 0], dim_left, dim_left)
    b = unvec(vh[0, :], dim_right, dim_right)
    # least-squares unitarization scale: s^2 = tr(AA^dag) / ||AA^dag||_F^2
    aa = a @ a.conj().T
    s = float(np.sqrt(np.trace(aa).real / np.linalg.norm(aa) ** 2))
    left = s * a
    right = (float(sv[0]) / s) * b
    return _fix_leading_phase(left, right)


def factor_full(v, profile: DimProfile, tol: float) -> FactorSet:
    """Recursively peel unitary factors left to right across sequential cuts.

    Raises NotDecomposableError naming the first failing cut.  The phase
    convention fixes every left factor's leading entry real positive, pushing
    the accumulated global phase into the final factor.
    """
    v = as_cmatrix(v)
    n = profile.total
    if v.shape != (n, n):
        raise ValueError(f"operator shape {v.shape} does not match profile {profile.dims}")
    factors: list[np.ndarray] = []
    rest = v
    rest_profile = profile
    cut_offset = 0
    while rest_profile.nsites > 2:
        d_left, d_right = rest_profile.split(1)
        try:
            left, rest = factor_pair(rest, d_left, d_right, tol)
        except NotDecomposableError as exc:
            report = RankOneReport(
                sigma1=exc.report.sigma1,
                sigma2=exc.report.sigma2,
                ratio=exc.report.ratio,
                is_rank_one=False,
                cut=cut_offset + 1,
            )
            raise NotDecomposableError(report) from None
        factors.append(left)
        rest_profile = rest_profile.drop_left()
        cut_offset += 1
    d_left, d_right = rest_profile.split(1)
    try:
        left, right = factor_pair(rest, d_left, d_right, tol)
    except NotDecomposableError as exc:
        report = RankOneReport(
            sigma1=exc.report.sigma1,
            sigma2=exc.report.sigma2,
            ratio=exc.report.ratio,
            is_rank_one=False,
            cut=cut_offset + 1,
        )
        raise NotDecomposableError(report) from None
    factors.extend([left, right])
    residual = float(np.linalg.norm(kron_all(factors) - v))
    return FactorSet(factors=tuple(factors), residual=residual)
