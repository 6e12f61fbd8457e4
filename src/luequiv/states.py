"""Density matrices carrying their multipartite dimension profile."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import Spectrum, _eig_checked, require_hermitian
from .tensor import DimProfile, as_cmatrix

TRACE_TOL = 1e-8
PSD_TOL = 1e-8


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD operator with local dimensions; unit trace after ingest."""

    matrix: np.ndarray = field(repr=False)
    profile: DimProfile

    def __post_init__(self):
        m = as_cmatrix(self.matrix)
        n = self.profile.total
        if m.shape != (n, n):
            raise ValueError(
                f"matrix shape {m.shape} does not match profile {self.profile.dims}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.profile.total


def validate_density(rho: DensityMatrix) -> tuple[DensityMatrix, Spectrum]:
    """The checked state and its spectrum, from one eigensolve.  Entries must
    be finite, the matrix Hermitian and its eigenvalues at least -PSD_TOL; a
    trace off by more than TRACE_TOL is repaired with a warning."""
    m = rho.matrix
    if not np.isfinite(m).all():
        raise ValueError("density matrix entries are not finite")
    require_hermitian(m, "density matrix")
    tr = float(np.trace(m).real)
    if tr <= 0:
        raise ValueError(f"density matrix has non-positive trace {tr:.3e}")
    if abs(tr - 1.0) > TRACE_TOL:
        warnings.warn(
            f"density matrix trace {tr:.12g} != 1; renormalizing", stacklevel=3
        )
        m = m / tr
    spectrum = _eig_checked(m)
    lam_min = float(spectrum.eigenvalues[-1])
    if lam_min < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lam_min:.3e}")
    return DensityMatrix(matrix=m, profile=rho.profile), spectrum
