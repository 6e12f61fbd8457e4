import numpy as np
import pytest

from luequiv import DimProfile, factor_full, kron_all
from luequiv.decompose import unitarity_defect
from luequiv.oracle import haar_unitary

from helpers import WITNESS_SIGNS, example_bases, near_product


def _cnot_on_first_two():
    """8x8 permutation entangling sites 1 and 2 of a (2,2,2) system."""
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1
    return np.kron(cnot, np.eye(2)).astype(complex)


def test_is_decomposable_product_true():
    rng = np.random.default_rng(47)
    v = kron_all([haar_unitary(2, rng) for _ in range(3)])
    reports, fs = factor_full(v, DimProfile((2, 2, 2)), 1e-7)
    assert fs is not None
    assert all(r.ratio < 1e-12 for r in reports)
    assert [r.cut for r in reports] == [1, 2]


def test_is_decomposable_entangling_fails_at_cut_one():
    reports, fs = factor_full(_cnot_on_first_two(), DimProfile((2, 2, 2)), 1e-7)
    assert fs is None
    assert not reports[0].is_rank_one
    assert reports[1].is_rank_one  # the gate is a product across the 12|3 cut


def test_is_decomposable_paper_witness_true():
    x, y, _ = example_bases(3, 5, 7)
    v = x @ np.diag(WITNESS_SIGNS.astype(complex)) @ y.conj().T
    reports, fs = factor_full(v, DimProfile((2, 2, 2)), 1e-7)
    assert fs is not None and all(r.ratio < 1e-12 for r in reports)


def test_is_decomposable_rejects_non_unitary():
    # 2 (A kron B) passes the rank-one test at its cut: unitarity is checked first
    rng = np.random.default_rng(43)
    v = 2.0 * np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    with pytest.raises(ValueError, match="factor_full input is not unitary"):
        factor_full(v, DimProfile((2, 2)), 1e-7)


def test_factor_full_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        factor_full(np.diag([1.0, 2.0, 3.0, 4.0]), DimProfile((2, 2)), 1e-7)
    # a unitary off the profile's space is refused before its defect is formed
    with pytest.raises(ValueError, match=r"operator shape \(6, 6\) does not match profile"):
        factor_full(np.eye(6), DimProfile((2, 2)), 1e-7)


def test_factor_pair_recovers_up_to_phase():
    rng = np.random.default_rng(53)
    # (2, 32) realigns to a lopsided 4 x 1024 matrix
    for d_left, d_right in [(2, 3), (2, 32)]:
        a, b = haar_unitary(d_left, rng), haar_unitary(d_right, rng)
        _, fs = factor_full(np.kron(a, b), DimProfile((d_left, d_right)), 1e-7)
        left, right = fs.factors
        assert np.linalg.norm(np.kron(left, right) - np.kron(a, b)) < 1e-10
        # each recovered factor is the original up to one global phase
        phase = left[np.unravel_index(np.argmax(np.abs(a)), a.shape)] / a[
            np.unravel_index(np.argmax(np.abs(a)), a.shape)
        ]
        assert np.allclose(left, phase * a, atol=1e-10)


def test_factor_pair_absorbs_scale():
    rng = np.random.default_rng(59)
    a, b = haar_unitary(2, rng), haar_unitary(2, rng)
    u = np.kron(2.0 * a, b / 2.0)  # unitary overall, factors are not
    left, right = factor_full(u, DimProfile((2, 2)), 1e-7)[1].factors
    assert unitarity_defect(left) < 1e-10
    assert unitarity_defect(right) < 1e-10
    assert np.linalg.norm(np.kron(left, right) - np.kron(a, b)) < 1e-10


def test_factor_pair_not_decomposable():
    (report,), fs = factor_full(np.diag([1.0, 1.0, 1.0, -1.0]), DimProfile((2, 2)), 1e-7)
    assert fs is None
    assert report.cut == 1 and not report.is_rank_one
    assert np.isclose(report.ratio, 1.0)


def test_factor_full_bipartite_delegates():
    rng = np.random.default_rng(61)
    a, b = haar_unitary(2, rng), haar_unitary(3, rng)
    _, fs = factor_full(np.kron(a, b), DimProfile((2, 3)), 1e-7)
    assert len(fs.factors) == 2
    assert fs.residual < 1e-10


def test_factor_full_mixed_dims():
    rng = np.random.default_rng(67)
    dims = (2, 3, 2, 2)
    factors = [haar_unitary(d, rng) for d in dims]
    v = kron_all(factors)
    _, fs = factor_full(v, DimProfile(dims), 1e-7)
    assert len(fs.factors) == 4
    assert fs.residual < 1e-9
    for f, d in zip(fs.factors, dims):
        assert f.shape == (d, d)
        assert unitarity_defect(f) < 1e-8


def test_factor_full_names_failing_cut():
    reports, fs = factor_full(_cnot_on_first_two(), DimProfile((2, 2, 2)), 1e-7)
    assert fs is None
    assert [r.cut for r in reports if not r.is_rank_one] == [1]


def test_factor_full_phase_convention():
    rng = np.random.default_rng(71)
    v = kron_all([haar_unitary(2, rng) for _ in range(3)])
    _, fs = factor_full(v, DimProfile((2, 2, 2)), 1e-7)
    for f in fs.factors[:-1]:
        mags = np.abs(f).reshape(-1)
        tied = f.reshape(-1)[mags >= mags.max() * (1 - 1e-9)]
        assert any(abs(z.imag) < 1e-12 and z.real > 0 for z in tied)


def test_roundtrip_property():
    rng = np.random.default_rng(73)
    for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]:
        v = kron_all([haar_unitary(d, rng) for d in dims])
        _, fs = factor_full(v, DimProfile(dims), 1e-7)
        assert np.linalg.norm(kron_all(fs.factors) - v) < 1e-9


def test_verdict_invariant_under_global_phase():
    rng = np.random.default_rng(79)
    profile = DimProfile((2, 2, 2))
    v = kron_all([haar_unitary(2, rng) for _ in range(3)])
    w = _cnot_on_first_two()
    for phi in [0.3, 2.2]:
        assert factor_full(np.exp(1j * phi) * v, profile, 1e-7)[1] is not None
        assert factor_full(np.exp(1j * phi) * w, profile, 1e-7)[1] is None


def test_factor_full_factors_exactly_when_every_cut_passes():
    rng = np.random.default_rng(83)
    profile = DimProfile((2, 2, 2))
    cases = []
    for trial in range(20):
        if trial % 2 == 0:
            v = kron_all([haar_unitary(2, rng) for _ in range(3)])
        else:
            v = haar_unitary(8, rng)
        cases.append((v, 1e-7))
    # near products accepted at a loose tolerance: their peeled remainders
    # are further from unitary than the input check allows
    cases += [(near_product((2, 2, 2), 1e-4, rng), 1e-3) for _ in range(6)]
    factored = 0
    for v, tol in cases:
        reports, fs = factor_full(v, profile, tol)
        assert [r.cut for r in reports] == [1, 2]
        assert (fs is None) == (not all(r.is_rank_one for r in reports))
        if fs is not None:
            factored += 1
            assert fs.residual < 10 * tol
    assert factored == 16
