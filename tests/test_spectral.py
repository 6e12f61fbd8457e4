import warnings

import numpy as np
import pytest

from luequiv import (
    DensityMatrix,
    DimProfile,
    FactorSet,
    SearchConfig,
    check_equivalence,
    degeneracy_profile,
    eig_hermitian,
    factor_full,
    paper_example,
    rank_one_test,
    spectra_match,
    validate_density,
)
from luequiv.equivalence import _verified
from luequiv.oracle import haar_unitary
from luequiv.spectral import TOL, Spectrum, require_hermitian
from luequiv.tensor import kron_all, lead_phases

from helpers import WITNESS_SIGNS, reference_cut1, operator_norm_power_iteration


def test_eig_diagonal_input():
    s = eig_hermitian(np.diag([1.0, 3.0, 2.0]))
    assert np.allclose(s.eigenvalues, [3, 2, 1])
    # basis is the permutation matching the sort
    perm = np.zeros((3, 3))
    perm[1, 0] = perm[2, 1] = perm[0, 2] = 1
    assert np.allclose(s.basis, perm, atol=1e-14)


def test_eig_2x2_closed_form():
    s = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s.eigenvalues, [1, -1])
    r2 = 1 / np.sqrt(2)
    assert np.allclose(s.basis[:, 0], [r2, r2], atol=1e-14)
    assert np.allclose(s.basis[:, 1], [r2, -r2], atol=1e-14)


def test_eig_paper_example_spectrum():
    rho, _ = paper_example(3, 5, 7)
    trace = 2 + (3 + 5 + 7) + (1 / 3 + 1 / 5 + 1 / 7)
    s = eig_hermitian(rho.matrix)
    expected = np.sort([2, 0, 1 / 3, 3, 1 / 5, 5, 1 / 7, 7])[::-1] / trace
    assert np.allclose(s.eigenvalues, expected, atol=1e-12)


def test_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(m)
    with pytest.raises(ValueError, match=r"expected a square matrix, got \(2, 3\)"):
        eig_hermitian(np.zeros((2, 3)))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(23)
    for n in [2, 5, 8]:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        s = eig_hermitian(h)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(s.basis @ np.diag(s.eigenvalues) @ s.basis.conj().T - h) <= 1e-10 * scale
        assert np.linalg.norm(s.basis.conj().T @ s.basis - np.eye(n)) <= 1e-10
        assert np.all(np.diff(s.eigenvalues) <= 1e-15)


def test_eig_deterministic():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (a + a.conj().T) / 2
    s1 = eig_hermitian(h)
    s2 = eig_hermitian(h.copy())
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.basis, s2.basis)


def test_eig_phase_convention():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (a + a.conj().T) / 2
    s = eig_hermitian(h)
    for j in range(5):
        col = s.basis[:, j]
        tied = col[np.abs(col) >= np.abs(col).max() * (1 - 1e-9)]
        assert any(abs(z.imag) < 1e-14 and z.real > 0 for z in tied)


def _lead_phases_loop(m):
    """Each column's leading-entry phase one column at a time: the first
    entry within 1e-9 of the column's largest magnitude, 1 for a zero column."""
    phases = np.ones(m.shape[1], dtype=complex)
    for j in range(m.shape[1]):
        mags = np.abs(m[:, j])
        lead = m[int(np.argmax(mags >= mags.max() * (1.0 - 1e-9))), j]
        if abs(lead) > 0:
            phases[j] = lead / abs(lead)
    return phases


def test_column_phase_fix_matches_the_column_loop_on_magnitude_ties():
    # Hadamard products tie every magnitude up to rounding, so the leading
    # entry rests on the tolerance; random column phases and a zero column too
    rng = np.random.default_rng(37)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(6), np.arange(6)) / 6) / np.sqrt(6)
    zero_column = haar_unitary(4, rng)
    zero_column[:, 2] = 0
    for m in [
        kron_all([h, h, h]).astype(complex),
        kron_all([h] * 6) * np.exp(2j * np.pi * rng.random(64)),
        kron_all([h, haar_unitary(2, rng), h]),
        fourier * np.exp(2j * np.pi * rng.random(6)),
        haar_unitary(16, rng),
        zero_column,
    ]:
        # the same leading entries; the divisions agree to rounding
        assert np.max(np.abs(m / lead_phases(m) - m / _lead_phases_loop(m))) <= 1e-15


def _spectrum_of(values):
    return eig_hermitian(np.diag(np.asarray(values, dtype=float)))


def test_degeneracy_profile_distinct():
    assert degeneracy_profile(_spectrum_of([3, 2, 1]).eigenvalues, 1e-8) == (1, 1, 1)


def test_degeneracy_profile_exact_ties():
    assert degeneracy_profile(_spectrum_of([0.5, 0.5, 0.0, 0.0]).eigenvalues, 1e-8) == (2, 2)
    # numpy's eigvalsh order: the same blocks, in ascending order
    assert degeneracy_profile(np.array([0.0, 0.5, 0.5, 1.0]), 1e-8) == (1, 2, 1)


def test_degeneracy_profile_paper_example():
    rho, _ = paper_example(3, 5, 7)
    s = eig_hermitian(rho.matrix)
    assert degeneracy_profile(s.eigenvalues, 1e-8) == (1,) * 8


def test_degeneracy_profile_requires_positive_tol():
    with pytest.raises(ValueError):
        degeneracy_profile(_spectrum_of([1.0, 0.0]).eigenvalues, 0.0)


def test_spectra_match_identical():
    s = _spectrum_of([0.5, 0.3, 0.2])
    assert spectra_match(s, s, 1e-8)


def test_spectra_match_rejects_gap():
    assert not spectra_match(_spectrum_of([0.6, 0.4]), _spectrum_of([0.7, 0.3]), 1e-8)


def test_spectra_match_paper_pair():
    rho, rho_prime = paper_example(3, 5, 7)
    assert spectra_match(eig_hermitian(rho.matrix), eig_hermitian(rho_prime.matrix), 1e-8)


def test_spectra_match_dimension_mismatch():
    with pytest.raises(ValueError):
        spectra_match(_spectrum_of([1.0, 0.0]), _spectrum_of([1.0, 0.0, 0.0]), 1e-8)


def test_rank_one_outer_product_of_unitaries():
    rng = np.random.default_rng(37)
    u1, u2 = haar_unitary(2, rng), haar_unitary(4, rng)
    report = rank_one_test(np.outer(u1.reshape(-1), u2.reshape(-1)), 1e-7)
    assert report.rank_one and report.ratio < 1e-12


def test_rank_one_identity_is_not():
    report = rank_one_test(np.eye(4), 1e-7)
    assert not report.rank_one
    assert np.isclose(report.sigma1, 1.0) and np.isclose(report.sigma2, 1.0)


def test_rank_one_reference_realignment_at_witness():
    report = rank_one_test(reference_cut1(WITNESS_SIGNS), 1e-7)
    assert report.rank_one and report.ratio < 1e-14


def test_rank_one_zero_matrix():
    report = rank_one_test(np.zeros((3, 3)), 1e-7)
    assert not report.rank_one and report.sigma1 == 0.0 and report.ratio == 0.0


def test_rank_one_single_row_has_no_second_singular_value():
    report = rank_one_test(np.arange(1.0, 17.0).reshape(1, 16), 1e-7)
    assert report.sigma2 == 0.0 and report.ratio == 0.0 and report.rank_one


def test_rank_one_scale_invariant():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    base = rank_one_test(m, 1e-7)
    for alpha in [1e-9, 3.7, -2.0, 1e9]:
        scaled = rank_one_test(alpha * m, 1e-7)
        assert scaled.rank_one == base.rank_one
        assert np.isclose(scaled.ratio, base.ratio, rtol=1e-10)


def test_rank_one_tol_domain():
    with pytest.raises(ValueError):
        rank_one_test(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        rank_one_test(np.eye(2), 1.0)


def test_sigma1_matches_power_iteration():
    rng = np.random.default_rng(43)
    m = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    report = rank_one_test(m, 1e-7)
    assert abs(report.sigma1 - operator_norm_power_iteration(m)) < 1e-10


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return False
    return True


def _state(*diagonal) -> DensityMatrix:
    return DensityMatrix(matrix=np.diag(diagonal).astype(complex), profile=DimProfile((2, 2)))


def _hermitian_within(eps):
    h = np.diag([1.0, 0.0]).astype(complex)
    h[0, 1] = eps / np.sqrt(2)  # ||H - H^dag||_F = eps, ||H||_F ~ 1
    return _accepts(require_hermitian, h)


def _trace_within(eps):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate_density(_state(0.4 + eps, 0.3, 0.2, 0.1))
    return not caught


def _psd_within(eps):
    return _accepts(validate_density, _state(0.5 + eps, 0.5, 0.0, -eps))


def _factor_full_input_within(eps):
    # ||c^2 I_4 - I_4||_F = eps
    return _accepts(factor_full, np.sqrt(1 + eps / 2) * np.eye(4), DimProfile((2, 2)), 1e-7)


def _witness_factor_within(eps):
    # ||c^2 I_2 - I_2||_F = eps for U_1 = c I_2; (c I_2) kron (I_2 / c) = I_4
    c = np.sqrt(1 + eps / np.sqrt(2))
    rho = _state(0.4, 0.3, 0.2, 0.1)
    return _verified(rho, rho, FactorSet(factors=(c * np.eye(2), np.eye(2) / c)))[0]


def _gate_residual_within(eps):
    rho = _state(0.4, 0.3, 0.2, 0.1)
    rho_prime = _state(0.4 + eps / np.sqrt(2), 0.3 - eps / np.sqrt(2), 0.2, 0.1)
    return _verified(rho, rho_prime, FactorSet(factors=(np.eye(2), np.eye(2))))[0]


def _spectra_within(eps):
    def spectrum(*w):
        return Spectrum(eigenvalues=np.array(w), vectors=np.eye(len(w)))

    return spectra_match(spectrum(0.6, 0.4), spectrum(0.6 + eps, 0.4), SearchConfig().spec_tol)


def _degeneracy_within(eps):
    # span 0.25, so a gap relative to the span would group at TOL / 4
    rho = _state(0.32, 0.32 - eps, 0.29 + eps, 0.07)
    return check_equivalence(rho, rho).degenerate_fallback


@pytest.mark.parametrize(
    "within",
    [
        _hermitian_within,
        _trace_within,
        _psd_within,
        _factor_full_input_within,
        _witness_factor_within,
        _gate_residual_within,
        _spectra_within,
        _degeneracy_within,
    ],
    ids=[
        "hermiticity",
        "trace-warning",
        "psd",
        "factor-full-input-unitarity",
        "witness-factor-unitarity",
        "witness-residual",
        "spectra-match",
        "degeneracy-grouping",
    ],
)
def test_tolerance_table_boundary(within):
    # each row of spectral.TOL's table at its own scale: TOL / 2 is within
    # tolerance and 2 TOL is not
    assert within(TOL / 2)
    assert not within(2 * TOL)
