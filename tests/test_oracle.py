import warnings

import numpy as np
import pytest

from luequiv import (
    DimProfile,
    FactorSet,
    check_equivalence,
    degeneracy_profile,
    eig_hermitian,
    haar_unitary,
    make_degenerate_pair,
    make_equivalent_pair,
    make_spectrum_mismatch_pair,
    paper_example,
    random_density,
    spectra_match,
    verify_witness,
    SearchConfig,
    VerdictStatus,
)
from luequiv.tensor import partial_trace

from helpers import partial_trace_oracle

PROFILE = DimProfile((2, 2, 2))


def test_haar_scalar():
    u = haar_unitary(1, 0)
    assert u.shape == (1, 1)
    assert np.isclose(abs(u[0, 0]), 1.0)


def test_haar_unitarity():
    for seed in [0, 1, 99]:
        u = haar_unitary(8, seed)
        assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-12


def test_haar_rejects_bad_dim():
    with pytest.raises(ValueError):
        haar_unitary(0, 0)


def test_haar_first_entry_moment():
    # |U_11|^2 follows Beta(1, n-1) under Haar: mean 1/n, var (n-1)/(n^2 (n+1))
    n, draws = 4, 10_000
    rng = np.random.default_rng(12345)
    vals = np.array([abs(haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(draws)])
    se = np.sqrt((n - 1) / (n**2 * (n + 1)) / draws)
    assert abs(vals.mean() - 1 / n) < 3 * se


def test_random_density_planted_pure_state():
    lam = [1.0] + [0.0] * 7
    rho = random_density(PROFILE, lam, 5)
    s = eig_hermitian(rho.matrix)
    assert np.allclose(s.eigenvalues, sorted(lam, reverse=True), atol=1e-12)
    assert np.isclose(np.trace(rho.matrix @ rho.matrix).real, 1.0, atol=1e-12)


def test_random_density_well_formed():
    rho = random_density(PROFILE, "generic-nondegenerate", 7)
    m = rho.matrix
    assert np.linalg.norm(m - m.conj().T) < 1e-12
    assert np.isclose(np.trace(m).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(m).min() > -1e-12


def test_random_density_generic_gaps():
    rho = random_density(PROFILE, "generic-nondegenerate", 11)
    s = eig_hermitian(rho.matrix)
    assert max(degeneracy_profile(s.eigenvalues, 1e-8)) == 1
    assert np.min(-np.diff(s.eigenvalues)) >= 1e-3 - 1e-12
    # 64 levels cannot keep 1e-3 apart; the gap shrinks to 1/(n(n-1))
    s = eig_hermitian(random_density(DimProfile((4, 4, 4)), "generic-nondegenerate", 11).matrix)
    assert np.min(-np.diff(s.eigenvalues)) >= 1.0 / (64 * 63) - 1e-12


def test_random_density_rejects_bad_spectrum():
    with pytest.raises(ValueError):
        random_density(PROFILE, [0.5, 0.5], 0)
    with pytest.raises(ValueError):
        random_density(PROFILE, [-0.1] + [1.1 / 7] * 7, 0)
    with pytest.raises(ValueError, match="unknown spectrum kind 'degenerate'"):
        random_density(PROFILE, "degenerate", 0)
    with pytest.raises(ValueError, match="planted eigenvalues sum to 0.5, expected 1"):
        random_density(PROFILE, [0.25] * 2 + [0.0] * 6, 0)



def test_random_density_rejects_nan_spectrum():
    # NaN is neither negative nor off the unit sum, so only a finiteness check sees it
    with pytest.raises(ValueError, match="spectrum_kind"):
        random_density(PROFILE, [np.nan] + [1.0 / 7] * 7, 0)


def test_degenerate_pair_rejects_one_dimension():
    with pytest.raises(ValueError, match="profile"):
        make_degenerate_pair(DimProfile((1, 1)), 0)


def test_equivalent_pair_planted_witness():
    sample = make_equivalent_pair(PROFILE, 13)
    fs = FactorSet(factors=sample.planted)
    assert verify_witness(sample.rho, sample.rho_prime, fs) < 1e-12


def test_equivalent_pair_spectra_match():
    sample = make_equivalent_pair(PROFILE, 17)
    assert spectra_match(
        eig_hermitian(sample.rho.matrix), eig_hermitian(sample.rho_prime.matrix), 1e-10
    )


def test_equivalent_pair_deterministic():
    a = make_equivalent_pair(PROFILE, 19)
    b = make_equivalent_pair(PROFILE, 19)
    assert a.rho.matrix.tobytes() == b.rho.matrix.tobytes()
    assert a.rho_prime.matrix.tobytes() == b.rho_prime.matrix.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.planted, b.planted))


def test_degenerate_pair_has_double_block():
    sample = make_degenerate_pair(PROFILE, 23)
    sizes = degeneracy_profile(eig_hermitian(sample.rho.matrix).eigenvalues, 1e-8)
    assert max(sizes) == 2
    assert sizes.count(2) == 1
    fs = FactorSet(factors=sample.planted)
    assert verify_witness(sample.rho, sample.rho_prime, fs) < 1e-12


def test_mismatch_pair_detected():
    sample = make_spectrum_mismatch_pair(PROFILE, 29)
    s1 = eig_hermitian(sample.rho.matrix)
    s2 = eig_hermitian(sample.rho_prime.matrix)
    assert not spectra_match(s1, s2, 1e-8)
    assert np.max(np.abs(s1.eigenvalues - s2.eigenvalues)) >= 0.5e-2
    verdict = check_equivalence(
        sample.rho, sample.rho_prime, SearchConfig(sweeps=20, restarts=4)
    )
    assert verdict.status is VerdictStatus.INEQUIVALENT_SPECTRUM
    assert verdict.restarts_used == 0


def test_paper_example_unnormalized_multiset():
    a, b, c = 3.0, 5.0, 7.0
    rho, rho_p = paper_example(a, b, c)
    trace = 2 + a + b + c + 1 / a + 1 / b + 1 / c
    for state in (rho, rho_p):
        ev = np.sort(np.linalg.eigvalsh(state.matrix)) * trace
        assert np.allclose(ev, sorted([2, 0, 1 / a, a, 1 / b, b, 1 / c, c]), atol=1e-10)
        assert np.isclose(np.trace(state.matrix).real, 1.0)


def test_paper_example_warns_on_degenerate_parameters():
    with pytest.warns(UserWarning, match="degenerate"):
        paper_example(2.0, 5.0, 7.0)


@pytest.mark.parametrize(
    "params, degenerate",
    [((3.0, 5.0, 5.0 + 5e-8), True), ((2.0, 3.0, 4.0), True), ((3.0, 5.0, 7.0), False)],
    ids=["near-tie", "tie", "distinct"],
)
def test_paper_example_warns_exactly_when_check_takes_the_block_search(params, degenerate):
    # 5 and 5 + 5e-8 are 3e-9 apart once divided by the trace, within the
    # default spec_tol: the warning and check's coset blocks group alike
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho, rho_prime = paper_example(*params)
    assert len(caught) == degenerate
    verdict = check_equivalence(rho, rho_prime, SearchConfig(sweeps=40, restarts=6))
    assert verdict.degenerate_fallback is degenerate


def test_paper_example_rejects_nonpositive():
    with pytest.raises(ValueError):
        paper_example(-1.0, 5.0, 7.0)


def test_reduced_density_against_loop_oracle():
    rho = random_density(DimProfile((2, 3, 2)), "generic-nondegenerate", 31)
    for site in range(3):
        got = partial_trace(rho.matrix, rho.profile.dims, site)
        want = partial_trace_oracle(rho.matrix, (2, 3, 2), site)
        assert np.allclose(got, want, atol=1e-13)
        assert np.isclose(np.trace(got).real, 1.0, atol=1e-12)


def test_reduced_spectra_agree_for_equivalent_pairs():
    # secondary oracle: local unitaries preserve every single-site spectrum
    for seed in [37, 41]:
        sample = make_equivalent_pair(PROFILE, seed)
        for site in range(3):
            w1, w2 = (
                np.sort(np.linalg.eigvalsh(partial_trace(state.matrix, PROFILE.dims, site)))
                for state in (sample.rho, sample.rho_prime)
            )
            assert np.max(np.abs(w1 - w2)) < 1e-10
