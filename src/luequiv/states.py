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


def _checked_matrix(rho: DensityMatrix, normalize: bool) -> np.ndarray:
    """Hermiticity and trace checks; the matrix, its trace repaired if asked."""
    m = rho.matrix
    require_hermitian(m, "density matrix")
    tr = float(np.trace(m).real)
    if tr <= 0:
        raise ValueError(f"density matrix has non-positive trace {tr:.3e}")
    if abs(tr - 1.0) > TRACE_TOL:
        if not normalize:
            raise ValueError(f"density matrix trace {tr} != 1")
        warnings.warn(
            f"density matrix trace {tr:.12g} != 1; renormalizing", stacklevel=3
        )
        m = m / tr
    return m


def _check_psd(lam_min: float) -> None:
    if lam_min < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lam_min:.3e}")


def validate_density(rho: DensityMatrix, normalize: bool = True) -> DensityMatrix:
    """Check Hermiticity, positivity, and trace; renormalize trace if asked.

    A trace off by more than TRACE_TOL is repaired with a warning rather than
    rejected; Hermiticity violations and eigenvalues below -PSD_TOL are errors.
    """
    m = _checked_matrix(rho, normalize)
    _check_psd(float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]))
    return DensityMatrix(matrix=m, profile=rho.profile)


def validated_spectrum(rho: DensityMatrix) -> tuple[DensityMatrix, Spectrum]:
    """``validate_density`` and ``eig_hermitian`` of the result, from one
    eigensolve and one Hermiticity check."""
    m = _checked_matrix(rho, True)
    spectrum = _eig_checked(m)
    _check_psd(float(spectrum.eigenvalues[-1]))
    return DensityMatrix(matrix=m, profile=rho.profile), spectrum
