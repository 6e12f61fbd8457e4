"""Density matrices carrying their multipartite dimension profile."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import TOL, Spectrum, _eig_checked, require_hermitian
from .tensor import DimProfile, as_cmatrix


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


def validate_density(rho: DensityMatrix) -> tuple[DensityMatrix, Spectrum]:
    """The checked state and its spectrum, from one eigensolve.  Entries must
    be finite, the matrix Hermitian and its eigenvalues at least -TOL; a
    trace off by more than TOL is repaired with a warning (spectral.TOL)."""
    m = rho.matrix
    if not np.isfinite(m).all():
        raise ValueError("density matrix entries are not finite")
    require_hermitian(m, "density matrix")
    tr = float(np.trace(m).real)
    if tr <= 0:
        raise ValueError(f"density matrix has non-positive trace {tr:.3e}")
    if abs(tr - 1.0) > TOL:
        warnings.warn(
            f"density matrix trace {tr:.12g} != 1; renormalizing", stacklevel=3
        )
        m = m / tr
    spectrum = _eig_checked(m)
    lam_min = float(spectrum.eigenvalues[-1])
    if lam_min < -TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lam_min:.3e}")
    return DensityMatrix(matrix=m, profile=rho.profile), spectrum
