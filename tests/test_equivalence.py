import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from luequiv import (
    DensityMatrix,
    DimProfile,
    FactorSet,
    SearchConfig,
    VerdictStatus,
    check_equivalence,
    cut_reports,
    degeneracy_profile,
    eig_hermitian,
    factor_full,
    kron_all,
    paper_example,
    validate_density,
    verify_witness,
)
from luequiv import equivalence, search, spectral
from luequiv.decompose import unitarity_defect
from luequiv.equivalence import CosetContext
from luequiv.search import (
    ESCAPE_LEVEL_PER_CUT,
    ESCAPE_PASSES,
    OBJECTIVE_POLISH,
    STARTS_PER_ROUND,
    _align_until_stall,
    run_search,
)
from luequiv.spectral import TOL, Spectrum
from luequiv.oracle import (
    haar_unitary,
    local_unitaries,
    make_degenerate_pair,
    make_equivalent_pair,
    random_density,
)
from luequiv.tensor import _realign_matrix, lead_phases

from helpers import (
    WITNESS_SIGNS,
    conjugate,
    cycle_products_oracle,
    degenerate_plant,
    example_bases,
    lifted_gram_oracle,
    local_rotation,
    locally_mixed_qubits,
    realign_index_oracle,
    tied_overlap_state,
    werner,
    with_mixed_marginal,
)

QUICK = SearchConfig(sweeps=40, restarts=6)


def witness_phases() -> np.ndarray:
    return np.where(WITNESS_SIGNS > 0, 0.0, np.pi)


def phase_v(x, y, theta, profile):
    """V = X diag(e^{i theta}) Y^dag, built by the coset context."""
    return CosetContext(x, y, profile, (1,) * profile.total).build(np.exp(1j * theta))


def surrogate(ctx, point, profile):
    """The paper's sum (sigma2/sigma1)^2 at a coset point, from the exact cut reports."""
    return sum(r.ratio**2 for r in cut_reports(ctx.build(point), profile, 1e-7))


def test_build_v_identity():
    assert np.allclose(phase_v(np.eye(4), np.eye(4), np.zeros(4), DimProfile((2, 2))), np.eye(4))


def test_build_v_equal_bases():
    u = haar_unitary(4, 0)
    assert np.allclose(phase_v(u, u, np.zeros(4), DimProfile((2, 2))), np.eye(4), atol=1e-14)


def test_build_v_is_unitary():
    rng = np.random.default_rng(5)
    x, y = haar_unitary(6, rng), haar_unitary(6, rng)
    theta = rng.uniform(0, 2 * np.pi, 6)
    v = phase_v(x, y, theta, DimProfile((2, 3)))
    assert np.linalg.norm(v @ v.conj().T - np.eye(6)) < 1e-10


def test_build_v_dimension_mismatch():
    with pytest.raises(ValueError, match="eigenbasis shapes"):
        CosetContext(np.eye(3), np.eye(3), DimProfile((2, 2)), (1,) * 4)


def test_build_v0_reduces_to_build_v():
    rng = np.random.default_rng(7)
    x, y = haar_unitary(4, rng), haar_unitary(4, rng)
    theta = rng.uniform(0, 2 * np.pi, 4)
    sizes = degeneracy_profile(eig_hermitian(np.diag([4.0, 3.0, 2.0, 1.0])).eigenvalues, 1e-8)
    ctx = CosetContext(x, y, DimProfile((2, 2)), sizes)
    blocks = [np.array([[np.exp(1j * t)]]) for t in theta]
    point = np.concatenate([b.ravel() for b in blocks])
    assert np.allclose(ctx.build(point), x @ np.diag(np.exp(1j * theta)) @ y.conj().T, atol=1e-14)


def test_build_v0_identity_blocks():
    rng = np.random.default_rng(9)
    x, y = haar_unitary(4, rng), haar_unitary(4, rng)
    sizes = degeneracy_profile(eig_hermitian(np.diag([0.5, 0.5, 0.0, 0.0])).eigenvalues, 1e-8)
    ctx = CosetContext(x, y, DimProfile((2, 2)), sizes)
    assert np.allclose(ctx.build(ctx.identity()), x @ y.conj().T, atol=1e-14)


def test_build_v0_degenerate_bell_pair():
    # rho and rho' related by H x H, spectrum (1/2, 1/2, 0, 0): no diagonal D
    # works in general, but a 2x2-block V0 does, and its realignment is rank one
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hh = np.kron(h, h)
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    rho_p = hh @ rho @ hh.conj().T
    assert np.linalg.norm(hh @ rho @ hh.conj().T - rho_p) == 0.0  # construction
    s1, s2 = eig_hermitian(rho), eig_hermitian(rho_p)
    sizes = degeneracy_profile(s1.eigenvalues, 1e-8)
    assert sizes == (2, 2)
    b = s1.basis.conj().T @ hh @ s2.basis
    # the change of basis is block diagonal over the degenerate blocks
    assert np.linalg.norm(b[:2, 2:]) < 1e-12 and np.linalg.norm(b[2:, :2]) < 1e-12
    blocks = [b[:2, :2], b[2:, 2:]]
    for blk in blocks:
        assert np.linalg.norm(blk @ blk.conj().T - np.eye(2)) < 1e-12
    ctx = CosetContext(s1.basis, s2.basis, DimProfile((2, 2)), sizes)
    v0 = ctx.build(np.concatenate([blk.ravel() for blk in blocks]))
    assert np.allclose(v0, hh, atol=1e-12)
    reports, fs = factor_full(v0, DimProfile((2, 2)), 1e-7)
    assert fs is not None and reports[0].ratio < 1e-12


def test_build_v0_size_mismatch():
    with pytest.raises(ValueError, match="multiplicities sum to 5, not 4"):
        CosetContext(np.eye(4), np.eye(4), DimProfile((2, 2)), (2, 3))


def test_objective_zero_at_solution():
    x, y, _ = example_bases(3, 5, 7)
    ctx = CosetContext(x, y, DimProfile((2, 2, 2)), (1,) * 8)
    assert surrogate(ctx, np.exp(1j * witness_phases()), DimProfile((2, 2, 2))) < 1e-20


def test_objective_positive_at_zero_phases():
    x, y, _ = example_bases(3, 5, 7)
    ctx = CosetContext(x, y, DimProfile((2, 2, 2)), (1,) * 8)
    assert surrogate(ctx, ctx.identity(), DimProfile((2, 2, 2))) > 1e-4


def test_objective_invariant_under_global_shift():
    rng = np.random.default_rng(11)
    x, y = haar_unitary(8, rng), haar_unitary(8, rng)
    profile = DimProfile((2, 2, 2))
    ctx = CosetContext(x, y, profile, (1,) * 8)
    theta = rng.uniform(0, 2 * np.pi, 8)
    f0 = surrogate(ctx, np.exp(1j * theta), profile)
    for c in [0.7, np.pi, 5.1]:
        assert np.isclose(surrogate(ctx, np.exp(1j * (theta + c)), profile), f0, rtol=1e-9)


def test_phase_search_identical_state_succeeds_from_zero_seed():
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 3)
    s = eig_hermitian(rho.matrix)
    ctx = CosetContext(s.basis, s.basis, rho.profile, (1,) * 8)
    (f,), _ = ctx.decompose(ctx.identity()[np.newaxis])
    assert f < 1e-14  # the identity start is already a solution
    outcome = run_search(ctx, QUICK)
    assert outcome.objective < 1e-14


def test_phase_search_paper_pair_and_decompose_agreement():
    rho, rho_p = paper_example(3, 5, 7)
    s1, s2 = eig_hermitian(rho.matrix), eig_hermitian(rho_p.matrix)
    ctx = CosetContext(s1.basis, s2.basis, rho.profile, (1,) * 8)
    outcome = run_search(ctx, QUICK)
    assert outcome.objective <= QUICK.rank_tol**2
    theta = np.angle(outcome.point)
    _, fs = factor_full(ctx.build(np.exp(1j * theta)), rho.profile, 1e-7)
    assert fs is not None


def test_coset_build_matches_build_v_and_build_v0():
    rng = np.random.default_rng(13)
    profile = DimProfile((2, 2, 2))
    x, y = haar_unitary(8, rng), haar_unitary(8, rng)
    theta = rng.uniform(0, 2 * np.pi, 8)
    ctx = CosetContext(x, y, profile, (1,) * 8)
    want = x @ np.diag(np.exp(1j * theta)) @ y.conj().T
    assert np.allclose(ctx.build(np.exp(1j * theta)), want, atol=1e-14)
    spectrum = eig_hermitian(np.diag([6, 5, 5, 4, 3, 3, 2, 1.0]))
    sizes = degeneracy_profile(spectrum.eigenvalues, 1e-8)
    assert sizes == (1, 2, 1, 2, 1, 1)
    blocks = [haar_unitary(n, rng) for n in sizes]
    ctx = CosetContext(x, y, profile, sizes)
    point = np.concatenate([b.ravel() for b in blocks])
    blockdiag = np.zeros((8, 8), dtype=complex)
    lo = 0
    for b in blocks:
        blockdiag[lo : lo + len(b), lo : lo + len(b)] = b
        lo += len(b)
    want = x @ blockdiag @ y.conj().T
    assert np.allclose(ctx.build(point), want, atol=1e-14)


def test_check_self_equivalence_identity_witness():
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 17)
    verdict = check_equivalence(rho, rho, QUICK)
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.witness_residual < 1e-8
    for f in verdict.witness.factors:
        phase = f[0, 0] / abs(f[0, 0])
        assert np.allclose(f / phase, np.eye(f.shape[0]), atol=1e-6)


def test_check_perturbed_eigenvalue_is_spectral_mismatch():
    rho = random_density(DimProfile((2, 2)), "generic-nondegenerate", 19)
    s = eig_hermitian(rho.matrix)
    lam = s.eigenvalues.copy()
    lam[0] += 1e-3
    lam /= lam.sum()
    m = (s.basis * lam[np.newaxis, :]) @ s.basis.conj().T
    rho_p = DensityMatrix(matrix=(m + m.conj().T) / 2, profile=rho.profile)
    verdict = check_equivalence(rho, rho_p, QUICK)
    assert verdict.status is VerdictStatus.INEQUIVALENT_SPECTRUM


def test_check_paper_example():
    rho, rho_p = paper_example(3, 5, 7)
    verdict = check_equivalence(rho, rho_p, SearchConfig(seed=0))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.witness_residual < 1e-8
    assert not verdict.degenerate_fallback
    # the marginals make the frame fall back, so the paper's search decides it
    assert verdict.path == "coset"


def test_frame_point_with_a_zero_phase_entry_falls_back():
    # with a = 2 the spectrum has a multiplicity-2 block, and the frame point
    # is zero on a 1x1 block, which has no nearest phase
    with pytest.warns(UserWarning, match="degenerate spectrum"):
        rho, rho_p = paper_example(2, 3, 4)
    verdict = check_equivalence(rho, rho_p, SearchConfig(seed=1))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.witness_residual < 1e-8
    assert verdict.path == "coset-block"


def test_verify_witness_identity():
    rho = random_density(DimProfile((2, 2)), "generic-nondegenerate", 23)
    fs = FactorSet(factors=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    assert verify_witness(rho, rho, fs) == 0.0


def test_verify_witness_planted_construction():
    profile = DimProfile((2, 2, 2))
    rho = random_density(profile, "generic-nondegenerate", 29)
    factors = local_unitaries(profile, 31)
    w = kron_all(factors)
    rho_p = DensityMatrix(matrix=w @ rho.matrix @ w.conj().T, profile=profile)
    assert verify_witness(rho, rho_p, FactorSet(factors=factors)) < 1e-12


def test_verify_witness_dimension_mismatch():
    rho = random_density(DimProfile((2, 2)), "generic-nondegenerate", 37)
    fs = FactorSet(factors=(np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
    with pytest.raises(ValueError):
        verify_witness(rho, rho, fs)


def test_verify_witness_needs_one_factor_per_site():
    # a global unitary conjugates rho onto rho' exactly, yet it is no local witness
    profile = DimProfile((2, 2))
    rho = random_density(profile, "generic-nondegenerate", 37)
    g = haar_unitary(4, 41)
    rho_p = DensityMatrix(matrix=g @ rho.matrix @ g.conj().T, profile=profile)
    with pytest.raises(ValueError, match="do not match sites"):
        verify_witness(rho, rho_p, FactorSet(factors=(g,)))
    # the right sizes in the wrong order make a D x D product too
    rho = random_density(DimProfile((2, 3)), "generic-nondegenerate", 43)
    fs = FactorSet(factors=(np.eye(3, dtype=complex), np.eye(2, dtype=complex)))
    with pytest.raises(ValueError, match="do not match sites"):
        verify_witness(rho, rho, fs)


def test_witness_gate_rejects_non_unitary_search_factors(monkeypatch):
    # (s U_1, U_2 / s, U_3) has the product of (U_1, U_2, U_3), so its residual
    # stays within tolerance: only the gate's unitarity test can reject it
    rho, rho_prime = paper_example(3, 5, 7)
    s = 1 + 1e-6

    def scaled(factors):
        return FactorSet(factors=(s * factors[0], factors[1] / s, *factors[2:]))

    verdict = check_equivalence(rho, rho_prime, QUICK)
    assert verdict.status is VerdictStatus.EQUIVALENT and verdict.path == "coset"
    assert verify_witness(rho, rho_prime, scaled(verdict.witness.factors)) <= TOL
    real = equivalence.peel

    def peel_scaled(*args):
        return scaled(real(*args).factors)

    monkeypatch.setattr(equivalence, "peel", peel_scaled)
    verdict = check_equivalence(rho, rho_prime, QUICK)
    assert verdict.status is VerdictStatus.NOT_FOUND and verdict.witness is None


def test_verdict_gauge_invariant_under_local_conjugation():
    profile = DimProfile((2, 2, 2))
    sample = make_equivalent_pair(profile, 41)
    g = kron_all(local_unitaries(profile, 43))
    conj = DensityMatrix(
        matrix=g @ sample.rho.matrix @ g.conj().T, profile=profile
    )
    v1 = check_equivalence(sample.rho, sample.rho_prime, QUICK)
    v2 = check_equivalence(conj, sample.rho_prime, QUICK)
    assert v1.status is VerdictStatus.EQUIVALENT
    assert v2.status is VerdictStatus.EQUIVALENT


def test_not_found_for_equal_spectrum_inequivalent_pair():
    # Bell-diagonal entangled state vs a separable diagonal state with the
    # same spectrum: no local-unitary map exists, and the marginal spectra
    # (I/2 against diag(0.85, 0.15)) already put every product unitary
    # beyond the witness gate, so no search runs; the verdict is still
    # NOT_FOUND, never a claim of inequivalence
    lam = np.array([0.7, 0.15, 0.1, 0.05])
    bell = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 1, -1, 0],
            [1, 0, 0, -1],
        ]
    ) / np.sqrt(2.0)
    rho = DensityMatrix(
        matrix=(bell * lam[np.newaxis, :]) @ bell.conj().T, profile=DimProfile((2, 2))
    )
    rho_p = DensityMatrix(matrix=np.diag(lam).astype(complex), profile=DimProfile((2, 2)))
    config = SearchConfig(sweeps=20, restarts=4)
    verdict = check_equivalence(rho, rho_p, config)
    assert verdict.status is VerdictStatus.NOT_FOUND
    assert verdict.witness is None
    assert verdict.path == "bound" and verdict.restarts_used == 0
    assert verdict.distance_lower > equivalence._gate_distance(rho)
    # rho* has rho's marginal spectra, so the bound rung passes it on; the
    # cycle products of its marginal eigenframes then put every product
    # unitary beyond the gate, and again no coset is built and no search runs
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 73)
    verdict = check_equivalence(rho, conjugate(rho), config)
    assert verdict.status is VerdictStatus.NOT_FOUND
    assert verdict.witness is None
    assert verdict.path == "invariant" and verdict.restarts_used == 0
    assert verdict.best_objective is None and verdict.cuts is None
    assert verdict.distance_lower > equivalence._gate_distance(rho)


def test_check_degenerate_bell_pair_end_to_end():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    hh = np.kron(h, h)
    profile = DimProfile((2, 2))
    rho = DensityMatrix(matrix=np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), profile=profile)
    rho_p = DensityMatrix(matrix=hh @ rho.matrix @ hh.conj().T, profile=profile)
    verdict = check_equivalence(rho, rho_p, SearchConfig(seed=2))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.degenerate_fallback
    assert verdict.witness_residual < 1e-8


def _maximally_mixed_pair():
    """I/4 twice: one 4-fold block, and any product unitary is a witness."""
    rho = DensityMatrix(matrix=np.eye(4, dtype=complex) / 4.0, profile=DimProfile((2, 2)))
    return rho, rho


def _mixed_marginal_rank_two_plant():
    """A rank-2 2^4 state with the marginal I/2 at site 0, against a local
    rotation: its coset (1 + 1 + 196 entries) is over LIFT_MAX_SIZE, and its
    degenerate marginal gives no frame guess, so only the search decides it."""
    rho = with_mixed_marginal(degenerate_plant((2, 2, 2, 2), 0, rank=2)[0])
    return rho, local_rotation(rho, 0)


@pytest.mark.parametrize(
    "make, config",
    [
        (_maximally_mixed_pair, QUICK),
        (lambda: degenerate_plant((2, 3), 0, rank=1), QUICK),
        (lambda: degenerate_plant((2, 3), 3, tie=0, rank=1), QUICK),
        (lambda: degenerate_plant((2, 2), 0, tie=3), QUICK),
        (lambda: (werner(3, 0.7), local_rotation(werner(3, 0.7), 0)), QUICK),
        # QUICK's 40 passes and 6 starts miss these plants; the default finds them
        (_mixed_marginal_rank_two_plant, SearchConfig()),
    ],
    ids=[
        "maximally-mixed-2x2",
        "pure-2x3",
        "pure-2x3-tie-0",
        "multiplicity-3-2x2",
        "werner-3x3",
        "rank-2-2^4",
    ],
)
def test_blocks_larger_than_two_are_searched(make, config):
    rho, rho_prime = make()
    assert max(degeneracy_profile(eig_hermitian(rho.matrix).eigenvalues, 1e-8)) >= 3
    verdict = check_equivalence(rho, rho_prime, config)
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.path == "coset-block"
    assert verdict.degenerate_fallback
    assert verdict.witness_residual <= TOL
    assert verify_witness(rho, rho_prime, verdict.witness) <= TOL


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2, 2)], ids=["I/4", "I/9", "I/16"])
@pytest.mark.parametrize("seed", [0, 1])
def test_maximally_mixed_against_a_local_rotation_is_one_block(dims, seed):
    # the rotation moves the eigenvalues of I/D by rounding, a gap far below
    # spec_tol: they stay one D-fold block, whose coset holds every witness
    d = int(np.prod(dims))
    rho = DensityMatrix(matrix=np.eye(d, dtype=complex) / d, profile=DimProfile(dims))
    verdict = check_equivalence(rho, local_rotation(rho, seed), SearchConfig(seed=seed))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.path == "coset-block"
    assert verdict.witness_residual <= TOL


def _diagonal_tie_plant():
    """diag(1, 1, 1, 1, 2, 2, 3, 3) / 14 and its image under I kron X kron I."""
    rho = DensityMatrix(
        matrix=np.diag([1, 1, 1, 1, 2, 2, 3, 3]).astype(complex) / 14, profile=DimProfile((2, 2, 2))
    )
    flip = kron_all([np.eye(2), np.array([[0, 1], [1, 0]]), np.eye(2)])
    return rho, DensityMatrix(matrix=flip @ rho.matrix @ flip, profile=rho.profile)


@pytest.mark.parametrize(
    "make",
    [_maximally_mixed_pair, lambda: (werner(3, 0.0), werner(3, 0.0)), _diagonal_tie_plant],
    ids=["I/4", "werner-3x3-p0", "diagonal-2x2x2"],
)
def test_order_of_tied_eigenvectors_leaves_the_verdict(monkeypatch, make):
    # a block's coset is the same set in any basis of its eigenspace, so
    # reversing rho's tied eigenvector columns within each block changes
    # neither the status nor the path
    rho, rho_prime = make()
    config = SearchConfig(seed=1)
    want = check_equivalence(rho, rho_prime, config)
    calls = []

    def validate(state):
        checked, spectrum = validate_density(state)
        calls.append(state)
        if len(calls) > 1:
            return checked, spectrum
        x, start = spectrum.basis.copy(), 0
        for n in degeneracy_profile(spectrum.eigenvalues, TOL):
            x[:, start : start + n] = x[:, start : start + n][:, ::-1]
            start += n
        assert not np.array_equal(x, spectrum.basis)
        return checked, Spectrum(eigenvalues=spectrum.eigenvalues, vectors=x)

    monkeypatch.setattr(equivalence, "validate_density", validate)
    got = check_equivalence(rho, rho_prime, config)
    assert len(calls) == 2
    assert got.degenerate_fallback and want.degenerate_fallback
    assert (got.status, got.path) == (want.status, want.path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_werner_against_a_local_rotation_is_equivalent(seed):
    # eigenvalues 1/10 (x3) and 7/60 (x6), span 1/60: noise of norm 3e-9 on
    # rho' splits each block by less than spec_tol, so the blocks stay whole
    rho = werner(3, 0.3)
    rho_prime = _with_noise(local_rotation(rho, seed), 3e-9, seed)
    verdict = check_equivalence(rho, rho_prime, SearchConfig(seed=seed))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.path == "coset-block"
    assert verdict.witness_residual <= TOL


@pytest.mark.parametrize(
    "make, config, path",
    [
        (
            lambda: with_mixed_marginal(degenerate_plant((2, 2, 2), 0, rank=3)[0]),
            QUICK,
            "coset-block",
        ),
        (
            lambda: with_mixed_marginal(
                random_density(DimProfile((2,) * 4), [0.7, 0.3] + [0.0] * 14, 5)
            ),
            SearchConfig(),
            "coset-block",
        ),
        (lambda: locally_mixed_qubits(5, 5), SearchConfig(), "coset"),
        (lambda: degenerate_plant((2, 2, 2), 3, tie=0, rank=1)[0], SearchConfig(), "coset-block"),
    ],
    ids=["rank-3-2x2x2", "rank-2-2^4", "locally-mixed-2^5", "pure-2x2x2"],
)
def test_degenerate_state_with_a_mixed_marginal_against_its_conjugate_is_not_conclusive(
    make, config, path
):
    # a degenerate spectrum and a marginal I/2, so neither the invariant rung
    # nor the lift (a coset of 3 + 25 or 2 + 196 entries) runs: the block
    # search runs every start and ends NOT_FOUND on an inequivalent pair
    # without a false witness.  A soundness canary for the witness gate,
    # which alone decides each coset point: the locally-mixed 2^5 state
    # (every marginal I/2, 32 coset entries) and the pure (2,2,2) state
    # (the invariant rung cannot tell psi from psi*) reach the search too
    rho = make()
    rho_conj = DensityMatrix(matrix=rho.matrix.conj(), profile=rho.profile)
    verdict = check_equivalence(rho, rho_conj, config)
    assert verdict.status is VerdictStatus.NOT_FOUND
    assert verdict.path == path
    assert verdict.restarts_used == config.restarts
    assert verdict.witness is None


def test_check_rejects_non_hermitian():
    m = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
    m[0, 1] = 0.2  # not mirrored
    rho = DensityMatrix(matrix=m, profile=DimProfile((2, 2)))
    with pytest.raises(ValueError, match="Hermitian"):
        check_equivalence(rho, rho, QUICK)


def test_check_decides_a_state_within_the_hermiticity_tolerance():
    # validation and the eigensolve share one tolerance, so a state that
    # validates is never rejected later as non-Hermitian
    sample = make_equivalent_pair(DimProfile((2, 2)), 3)
    m = sample.rho.matrix.copy()
    m[0, 1] += 1e-9
    rho = DensityMatrix(matrix=m, profile=sample.rho.profile)
    validate_density(rho)
    verdict = check_equivalence(rho, sample.rho_prime, QUICK)
    assert verdict.status in (VerdictStatus.EQUIVALENT, VerdictStatus.NOT_FOUND)


def test_best_objective_is_the_surrogate_of_the_reported_cuts():
    # the paper's pair is decided by the search, whose verdict reports its cuts
    rho, rho_p = paper_example(3, 5, 7)
    verdict = check_equivalence(rho, rho_p, SearchConfig(seed=5))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.path == "coset"
    assert [r.cut for r in verdict.cuts] == [1, 2]
    assert verdict.best_objective == sum(r.ratio**2 for r in verdict.cuts)


def test_exact_cut_reports_gate_the_witness_when_the_search_bound_stalls():
    # with noise of norm 1e-9 on rho', the search's bound f stalls just above
    # rank_tol^2 while every exact cut ratio is below rank_tol: the best point
    # still factors into a witness that verifies
    sample = make_equivalent_pair(DimProfile((2,) * 6), 0)
    rng = np.random.default_rng(100)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    noise = g + g.conj().T
    noise *= 1e-9 / np.linalg.norm(noise)
    rho_prime = DensityMatrix(sample.rho_prime.matrix + noise, sample.rho_prime.profile)
    verdict = check_equivalence(sample.rho, rho_prime, SearchConfig(seed=0))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.witness_residual <= 1e-8


def _with_noise(state: DensityMatrix, eta: float, seed: int) -> DensityMatrix:
    """A state plus Hermitian noise of Frobenius norm eta, drawn from seed."""
    n = state.profile.total
    rng = np.random.default_rng(100 + seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    noise = g + g.conj().T
    noise *= eta / np.linalg.norm(noise)
    return DensityMatrix(state.matrix + noise, state.profile)


def _noisy_pair(dims, seed, eta=1e-9):
    """A planted pair with Hermitian noise of norm eta on rho'."""
    sample = make_equivalent_pair(DimProfile(dims), seed)
    return sample.rho, _with_noise(sample.rho_prime, eta, seed)


def _noisy_six_qubit_pair(seed):
    """A planted 2^6 pair with Hermitian noise of norm 1e-9 on rho'."""
    return _noisy_pair((2,) * 6, seed)


def test_search_stops_at_a_verified_stalled_start(monkeypatch):
    # without the product frames there is no frame guess (which verifies on
    # this pair before any search), so the search starts at the identity;
    # the lone descent stalls above rank_tol^2 at a point that passes the
    # exact cut test and verifies, so the first round's starts are the only
    # ones used
    monkeypatch.setattr(equivalence, "_product_frames", lambda *args: None)
    rho, rho_prime = _noisy_six_qubit_pair(1)
    config = SearchConfig(seed=1)
    verdict = check_equivalence(rho, rho_prime, config)
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.witness_residual <= 1e-8
    assert verdict.objective_history[-1][1] > config.rank_tol**2
    assert verdict.restarts_used == STARTS_PER_ROUND


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_witness_gate_alone_certifies_a_noisy_locally_mixed_plant(seed):
    # every marginal is I/2, so there is no frame guess, and 64 coset
    # entries are past the lift; with noise of norm 3e-9 on rho' the search
    # point's outer cut ratios stay above rank_tol, yet the factors peeled
    # from its V pass the witness gate, which alone decides the point
    rho = locally_mixed_qubits(6, seed)
    rho_prime = _with_noise(local_rotation(rho, 7), 3e-9, seed)
    verdict = check_equivalence(rho, rho_prime, SearchConfig())
    assert verdict.status is VerdictStatus.EQUIVALENT and verdict.path == "coset"
    assert verdict.witness_residual <= 1e-8
    assert not all(r.rank_one for r in verdict.cuts)


def _hand_on_to_the_search(monkeypatch):
    """Make the invariant and lift rungs hand every input on, so that the
    search decides it."""
    monkeypatch.setattr(equivalence, "_invariant_distance", lambda *args: 0.0)
    monkeypatch.setattr(equivalence, "_lift", lambda ctx, rank_tol: (False, None))


def _check_with_frame(monkeypatch, rho, rho_prime, config, hand_on=False):
    """check_equivalence's verdict, its frame factors and the search's frame
    start point (None when the frame gave none or no coset was built; the
    factors also None when the bound rung ended the check first).  With
    ``hand_on`` the invariant and lift rungs hand on, so a check past the
    frame reaches the search."""
    seen = {}
    if hand_on:
        _hand_on_to_the_search(monkeypatch)

    def spy(name):
        real = getattr(equivalence, name)

        def wrapped(*args):
            seen[name] = real(*args)
            return seen[name]

        monkeypatch.setattr(equivalence, name, wrapped)

    spy("_frame_factors")
    spy("_frame_point")
    verdict = check_equivalence(rho, rho_prime, config)
    monkeypatch.undo()
    return verdict, seen.get("_frame_factors"), seen.get("_frame_point")


def _coset_point(rho, rho_prime, factors):
    """A pair's coset context and the search's start point from the frame factors."""
    s1, s2 = eig_hermitian(rho.matrix), eig_hermitian(rho_prime.matrix)
    sizes = degeneracy_profile(s1.eigenvalues, 1e-8)
    ctx = CosetContext(s1.basis, s2.basis, rho.profile, sizes)
    return ctx, equivalence._frame_point(ctx, kron_all(factors))


def _frame_samples():
    samples = [
        make_equivalent_pair(DimProfile(dims), 31)
        for dims in [(2, 3), (2, 2, 2), (3, 3, 3), (2,) * 6]
    ]
    samples.append(make_degenerate_pair(DimProfile((2, 2, 2)), 31))
    return samples


def test_frame_point_decides_planted_pairs_without_a_search(monkeypatch):
    # the guess the frame rung verifies is a coset solution: its coset point,
    # the search's start when the rung does not decide, is already at f <= rank_tol^2
    config = SearchConfig(seed=4)
    for sample in _frame_samples():
        searches = []
        monkeypatch.setattr(equivalence, "run_search", lambda *a, **k: searches.append(a))
        verdict, factors, start = _check_with_frame(
            monkeypatch, sample.rho, sample.rho_prime, config
        )
        label = sample.rho.profile
        assert searches == [] and start is None, label
        ctx, point = _coset_point(sample.rho, sample.rho_prime, factors)
        (f,), _ = ctx.decompose(point[np.newaxis])
        assert f <= config.rank_tol**2, label
        assert verdict.status is VerdictStatus.EQUIVALENT, label
        assert verdict.path == "frame", label
        assert verdict.objective_history == [] and verdict.restarts_used == 0, label
        for got, want in zip(verdict.witness.factors, factors):
            assert np.array_equal(got, want), label


def test_frame_rung_skips_the_coset(monkeypatch):
    # a frame guess that verifies decides the check with no coset machinery:
    # no CosetContext, no cut reports, no factoring, no search; the invariant
    # rung before it finds a cycle gap of exactly 0, so it hands on without
    # forming its bound
    config = SearchConfig(seed=4)
    for sample in _frame_samples():
        label = sample.rho.profile
        calls = []
        real_init = CosetContext.__init__

        def init(self, *args, **kwargs):
            calls.append("CosetContext")
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(CosetContext, "__init__", init)
        for name in ("cut_reports", "peel", "run_search"):
            monkeypatch.setattr(equivalence, name, lambda *a, _n=name, **k: calls.append(_n))
        monkeypatch.setattr(equivalence, "_invariant_bound", _raiser("_invariant_bound"))
        verdict, factors, _ = _check_with_frame(monkeypatch, sample.rho, sample.rho_prime, config)
        assert calls == [], (label, calls)
        assert verdict.status is VerdictStatus.EQUIVALENT, label
        assert verdict.path == "frame", label
        assert verdict.cuts is None and verdict.best_objective is None, label
        assert verdict.witness.factorization_residual == 0.0, label
        assert all(unitarity_defect(u) <= TOL for u in verdict.witness.factors), label
        assert verdict.witness_residual <= TOL, label
        assert verify_witness(sample.rho, sample.rho_prime, verdict.witness) <= TOL
        if verdict.degenerate_fallback:
            assert verdict.phases is None, label
            continue
        # the phases of the projected frame point the search would start from,
        # angle(x_m^dag W^dag y_m) measured from theta_1
        _, point = _coset_point(sample.rho, sample.rho_prime, factors)
        want = np.angle(point) - np.angle(point[0])
        assert verdict.phases[0] == 0.0, label
        assert np.max(np.abs(np.exp(1j * verdict.phases) - np.exp(1j * want))) <= 1e-12, label


@pytest.mark.parametrize("eps", [0.0, TOL / 2], ids=["tied", "half-tol"])
def test_frame_rung_decides_a_tied_overlap_marginal(eps):
    # M_1's two largest entries tie, or sit TOL / 2 of its span apart: its
    # phases are read off with no eigenvalue gap to need, so the frame guess
    # verifies against the state itself and against a local rotation
    rho = tied_overlap_state(eps)
    for partner in (rho, local_rotation(rho, 5)):
        verdict = check_equivalence(rho, partner, SearchConfig(seed=0))
        assert verdict.status is VerdictStatus.EQUIVALENT
        assert verdict.path == "frame"


def test_frame_verdict_builds_its_witness_operator_once(monkeypatch):
    # kron_all runs for the two marginal frames and for W = kron_i U_i, whose
    # one copy gives both the gate's residual and the phases
    real = equivalence.kron_all
    for sample in _frame_samples():
        label = sample.rho.profile
        calls = []
        monkeypatch.setattr(equivalence, "kron_all", lambda mats: calls.append(1) or real(mats))
        verdict = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=4))
        monkeypatch.undo()
        assert verdict.path == "frame", label
        assert len(calls) == 3, label
        residual = verify_witness(sample.rho, sample.rho_prime, verdict.witness)
        assert verdict.witness_residual == residual, label


@pytest.mark.parametrize(
    "dims", [(2, 2), (2, 2, 2), (2, 3), (3, 3)], ids=["2x2", "2x2x2", "2x3", "3x3"]
)
def test_phases_of_a_state_against_itself_are_zero_and_below_two_pi(dims):
    # (angle - angle_1) mod 2 pi rounds a tiny negative difference up to
    # exactly 2 pi, which _phases folds to 0
    for seed in range(20):
        rho = random_density(DimProfile(dims), seed=seed)
        phases = check_equivalence(rho, rho).phases
        assert np.all((phases >= 0.0) & (phases < 2.0 * np.pi)), seed
        assert np.max(phases) <= 1e-12, seed


@pytest.mark.parametrize(
    "dims, seeds", [((2, 2, 2), range(10)), ((2,) * 6, range(4))], ids=["2x2x2", "2^6"]
)
def test_frame_rung_decides_pairs_with_noise_near_the_witness_tolerance(dims, seeds):
    # at noise 3e-9 on rho' the frame guess's residual is within 1e-8 while
    # its coset point can fail the rank-one test (sigma2/sigma1 > rank_tol):
    # the frame rung verifies the guess itself, so none of these ends NOT_FOUND
    for seed in seeds:
        rho, rho_prime = _noisy_pair(dims, seed, eta=3e-9)
        verdict = check_equivalence(rho, rho_prime, SearchConfig(seed=0))
        assert verdict.status is VerdictStatus.EQUIVALENT, seed
        assert verdict.path == "frame", seed
        assert verdict.witness_residual <= 1e-8, seed
        assert verify_witness(rho, rho_prime, verdict.witness) <= 1e-8, seed


def test_search_starts_from_the_w_the_gate_formed_for_the_refused_frame_guess(monkeypatch):
    # on the noisy (3,3) plant the second marginal's gap of 7.2e-3 amplifies
    # the noise of norm 3e-9 about 13x: the gate refuses the frame guess and
    # hands back its residual and W = kron_i U_i, and the search's start is
    # read from that same W, with no second Kronecker product
    rho, rho_prime = _noisy_pair((3, 3), 7, eta=3e-9)
    gated, starts = [], []
    verified, frame_point = equivalence._verified, equivalence._frame_point

    def spy_verified(rho, rho_prime, witness):
        gated.append((witness, verified(rho, rho_prime, witness)))
        return gated[-1][1]

    def spy_frame_point(ctx, w):
        starts.append(w)
        with monkeypatch.context() as m:
            m.delattr(equivalence, "kron_all")
            return frame_point(ctx, w)

    monkeypatch.setattr(equivalence, "_verified", spy_verified)
    monkeypatch.setattr(equivalence, "_frame_point", spy_frame_point)
    verdict = check_equivalence(rho, rho_prime, SearchConfig(seed=0))
    guess, (passed, residual, w) = gated[0]
    assert not passed
    assert TOL * max(1.0, np.linalg.norm(rho.matrix)) == TOL
    assert 3.8e-8 < residual < 3.9e-8
    assert np.array_equal(w, kron_all(guess.factors))
    assert len(starts) == 1 and starts[0] is w
    assert verdict.path == "coset"
    # a NOT_FOUND reports no residual, an EQUIVALENT its witness's
    assert (verdict.witness_residual is None) is (verdict.status is VerdictStatus.NOT_FOUND)


def test_frame_falls_back_to_the_identity(monkeypatch):
    config = SearchConfig(sweeps=20, seed=2)
    # a Bell pair's marginals are I/2: degenerate
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    hh = np.kron(h, h)
    profile = DimProfile((2, 2))
    bell = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    rho = DensityMatrix(matrix=bell, profile=profile)
    rho_p = DensityMatrix(matrix=hh @ bell @ hh.conj().T, profile=profile)
    verdict, factors, start = _check_with_frame(monkeypatch, rho, rho_p, config)
    assert factors is None and start is None
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.path == "coset-block"
    # a locally-mixed state against its conjugate: every marginal is I/2, so
    # the frame gives no guess and the search starts at the identity and
    # fails (the lift rung, which ends this check on its own, hands on)
    rho = locally_mixed_qubits(3, 5)
    verdict, factors, start = _check_with_frame(
        monkeypatch, rho, conjugate(rho), config, hand_on=True
    )
    assert factors is None and start is None
    assert verdict.status is VerdictStatus.NOT_FOUND
    assert verdict.path == "coset" and verdict.restarts_used >= 1
    assert verdict.best_objective > 1e-6
    # an independent Haar rotation keeps the spectrum, not the marginal
    # spectra: the bound rung ends the check before the frame is built
    profile = DimProfile((2, 2, 2))
    rho = random_density(profile, "generic-nondegenerate", 71)
    rotated = random_density(profile, eig_hermitian(rho.matrix).eigenvalues, 72)
    verdict, factors, start = _check_with_frame(monkeypatch, rho, rotated, config)
    assert factors is None and start is None
    assert verdict.status is VerdictStatus.NOT_FOUND
    assert verdict.path == "bound" and verdict.restarts_used == 0
    assert verdict.distance_lower > equivalence._gate_distance(rho)


def test_frame_start_on_the_conjugate_stays_not_found(monkeypatch):
    # rho* has rho's marginal spectra, so the frame is built, fails to
    # verify, and the search from its coset point (the invariant and lift
    # rungs handing on) still finds no decomposable V
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 73)
    conj = DensityMatrix(matrix=rho.matrix.conj(), profile=rho.profile)
    verdict, factors, start = _check_with_frame(
        monkeypatch, rho, conj, SearchConfig(sweeps=20, seed=2), hand_on=True
    )
    assert factors is not None and start is not None
    assert verdict.status is VerdictStatus.NOT_FOUND
    assert verdict.witness is None


def test_frame_start_is_deterministic_given_seed(monkeypatch):
    # the same seed gives the same frame factors, phases and witness
    sample = make_equivalent_pair(DimProfile((3, 3, 3)), 37)
    runs = [
        _check_with_frame(monkeypatch, sample.rho, sample.rho_prime, SearchConfig(seed=5))
        for _ in "ab"
    ]
    (v1, factors1, _), (v2, factors2, _) = runs
    assert factors1 is not None
    assert v1.status is v2.status is VerdictStatus.EQUIVALENT
    assert v1.path == v2.path == "frame"
    assert np.array_equal(v1.phases, v2.phases)
    for f1, f2, w1, w2 in zip(factors1, factors2, v1.witness.factors, v2.witness.factors):
        assert np.array_equal(f1, f2) and np.array_equal(w1, w2)
    # and, where the frame does not verify, the same search start and outcome
    # (the invariant and lift rungs handing on)
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 73)
    conj = DensityMatrix(matrix=rho.matrix.conj(), profile=rho.profile)
    runs = [
        _check_with_frame(monkeypatch, rho, conj, SearchConfig(sweeps=20, seed=5), hand_on=True)
        for _ in "ab"
    ]
    (v1, _, start1), (v2, _, start2) = runs
    assert start1 is not None and np.array_equal(start1, start2)
    assert np.array_equal(v1.phases, v2.phases)
    assert v1.objective_history == v2.objective_history


def _nonlocal_rotation(rho: DensityMatrix, eps: float) -> DensityMatrix:
    """exp(i eps K) rho exp(-i eps K) for a fixed random Hermitian K: rho's
    spectrum, with marginal spectra that move linearly in eps."""
    rng = np.random.default_rng(5)
    n = rho.profile.total
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(k + k.conj().T)
    u = (v * np.exp(1j * eps * w)) @ v.conj().T
    return DensityMatrix(matrix=u @ rho.matrix @ u.conj().T, profile=rho.profile)


def _marginal_bound(rho, rho_prime) -> float:
    return equivalence._marginal_distance(
        rho.profile, equivalence._marginal_eighs(rho, rho_prime)
    )


def _gate_slack(rho) -> float:
    """delta (2 + delta) ||rho||_F: how far a witness whose factors pass the
    unitarity gate can bring rho nearer to rho' than any product unitary."""
    delta = (1.0 + TOL) ** rho.profile.nsites - 1.0
    return delta * (2.0 + delta) * float(np.linalg.norm(rho.matrix))


def _rho_star_states():
    """States whose conjugate the invariant rung decides, from D = 8 to D = 64."""
    profiles = [(2, 2, 2), (2,) * 4, (3, 3, 3), (2,) * 6, (4, 4, 4)]
    return [random_density(DimProfile(d), "generic-nondegenerate", 73) for d in profiles]


def _invariant_parts(rho, rho_prime):
    """The product frames (A, B, conj(A) o B), d_T and the (slope, offset)
    of the invariant bound of a pair whose marginals of rho are
    non-degenerate."""
    tops = tuple(eig_hermitian(r.matrix).eigenvalues[0] for r in (rho, rho_prime))
    marginals = equivalence._marginal_eighs(rho, rho_prime)
    frames = equivalence._product_frames(rho, rho_prime, marginals, TOL)
    d_t = equivalence._invariant_distance(rho, rho_prime, tops, marginals, frames)
    return frames, d_t, equivalence._invariant_bound(rho, rho_prime, tops, marginals)


def _explicit_cycle_gap(frames) -> float:
    a, b = (cycle_products_oracle(x) for x in frames[:2])
    return float(np.linalg.norm(a - b))


def test_bound_rung_fires_only_above_the_gate_distance():
    # L aimed at 0.99 G and 1.01 G: the first pair still runs the search, the
    # second ends on "bound"; both are NOT_FOUND
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 71)
    gate = equivalence._gate_distance(rho)
    slope = _marginal_bound(rho, _nonlocal_rotation(rho, 1e-6)) / 1e-6
    for ratio, path in ((0.99, "coset"), (1.01, "bound")):
        rho_p = _nonlocal_rotation(rho, ratio * gate / slope)
        bound = _marginal_bound(rho, rho_p)
        assert abs(bound / gate - ratio) < 1e-3, ratio
        verdict = check_equivalence(rho, rho_p, SearchConfig(sweeps=20, restarts=3))
        assert verdict.status is VerdictStatus.NOT_FOUND, ratio
        assert verdict.path == path, ratio
        assert (verdict.restarts_used > 0) == (path == "coset"), ratio
        assert verdict.distance_lower == pytest.approx(bound, rel=1e-6), ratio


def test_distance_lower_is_below_every_verified_residual():
    # distance_lower bounds min over product unitaries of ||W rho W^dag - rho'||_F,
    # and a witness that passes the gate is within _gate_slack of a product unitary
    samples = [(s.rho, s.rho_prime) for s in _frame_samples()]
    samples += [_noisy_six_qubit_pair(seed) for seed in range(4)]
    for rho, rho_prime in samples:
        label = rho.profile
        verdict = check_equivalence(rho, rho_prime, SearchConfig(seed=0))
        assert verdict.status is VerdictStatus.EQUIVALENT, label
        assert verdict.distance_lower >= 0.0, label
        assert verdict.distance_lower <= verdict.witness_residual + _gate_slack(rho), label


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3)], ids=["2x2x2", "2x3"])
def test_noisy_planted_pairs_never_end_on_bound(dims):
    # Hermitian noise of norm eta moves every product-unitary distance by at
    # most eta, so at and below the witness tolerance the gate is never
    # crossed, by the marginal spectra or by the cycle invariants (d_T, read
    # directly, since distance_lower reports it only on path "invariant")
    for eta in (1e-9, 3e-9, 1e-8):
        for seed in range(5):
            rho, rho_prime = _noisy_pair(dims, seed, eta=eta)
            verdict = check_equivalence(rho, rho_prime, SearchConfig(sweeps=20, restarts=3))
            assert verdict.path not in ("bound", "invariant"), (eta, seed)
            assert verdict.distance_lower <= eta, (eta, seed)
            assert _invariant_parts(rho, rho_prime)[1] <= eta, (eta, seed)


def _haar_rotated_pair():
    """Two Haar states of one spectrum on (2,2,2): the bound rung ends them."""
    lam = np.arange(8, 0, -1) / 36.0
    profile = DimProfile((2, 2, 2))
    return random_density(profile, lam, 1), random_density(profile, lam, 2)


def _rho_star_pair():
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 73)
    return rho, conjugate(rho)


def _sample_pair(make):
    sample = make(DimProfile((2, 2, 2)), 3)
    return sample.rho, sample.rho_prime


@pytest.mark.parametrize(
    "make, path, calls",
    [
        (_haar_rotated_pair, "bound", 0),
        (_rho_star_pair, "invariant", 0),
        (lambda: _sample_pair(make_degenerate_pair), "frame", 0),
        (lambda: _sample_pair(make_equivalent_pair), "frame", 2),
    ],
    ids=["bound", "invariant", "degenerate-frame", "frame"],
)
def test_a_basis_is_phase_fixed_only_where_a_rung_reads_it(monkeypatch, make, path, calls):
    # the eigenbases X and Y are read only for a coset point: the frame
    # rung's phases on a non-degenerate spectrum, and CosetContext; bound,
    # invariant and a degenerate-spectrum frame verdict read neither
    rho, rho_prime = make()
    count = []

    def counted(m):
        count.append(m.shape)
        return lead_phases(m)

    monkeypatch.setattr(spectral, "lead_phases", counted)
    verdict = check_equivalence(rho, rho_prime, SearchConfig(seed=1))
    assert verdict.path == path
    assert len(count) == calls


@pytest.mark.parametrize(
    "make, path",
    [
        (lambda: _sample_pair(make_equivalent_pair), "frame"),
        (_rho_star_pair, "invariant"),
        (lambda: _sample_pair(make_degenerate_pair), "frame"),
    ],
    ids=["plant", "rho-star", "degenerate-plant"],
)
def test_a_site_of_dimension_one_changes_no_verdict(make, path):
    # a site of dimension 1 carries only a phase, so a 1 inserted at any
    # position of dims leaves every verdict's status and path as they are
    rho, rho_prime = make()
    config = SearchConfig(seed=1)
    want = check_equivalence(rho, rho_prime, config)
    assert want.path == path
    dims = rho.profile.dims
    for k in range(len(dims) + 1):
        profile = DimProfile(dims[:k] + (1,) + dims[k:])
        pair = (DensityMatrix(matrix=r.matrix, profile=profile) for r in (rho, rho_prime))
        got = check_equivalence(*pair, config)
        assert (got.status, got.path) == (want.status, want.path), profile.dims


def test_bound_rung_adds_no_eigensolve(monkeypatch):
    # a planted (2,2,2) check: one eigh per state for the spectra and one
    # stacked eigh per site shared by the bound, invariant and frame rungs,
    # whose phases are read off the overlap marginals with no eigensolve; one
    # partial trace of the stacked pair per site and one of the overlap per site
    counts = {"eigh": 0, "partial_trace": 0}

    def counted(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(
        equivalence, "partial_trace", counted("partial_trace", equivalence.partial_trace)
    )
    sample = make_equivalent_pair(DimProfile((2, 2, 2)), 7)
    verdict = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=0))
    assert verdict.path == "frame"
    assert counts == {"eigh": 5, "partial_trace": 6}


def test_invariant_rung_ends_a_state_against_its_conjugate_without_a_coset(monkeypatch):
    # rho* has rho's spectrum and marginal spectra; the cycle products of the
    # marginal eigenframes put every product unitary beyond the gate, so the
    # check ends before the frame guess is formed or gated, no coset is
    # built and neither the lift nor the search runs, up to D = 64; a rank-3
    # state, whose marginals stay non-degenerate, is decided the same way
    _without_search(monkeypatch)
    for name in ("CosetContext", "_lift", "_frame_factors", "_verified"):
        monkeypatch.setattr(equivalence, name, _raiser(name))
    rank_three, _ = degenerate_plant((2, 2, 2), 0, rank=3)
    for rho in [*_rho_star_states(), rank_three]:
        verdict = check_equivalence(rho, conjugate(rho), SearchConfig(seed=1))
        label = rho.profile
        assert verdict.status is VerdictStatus.NOT_FOUND, label
        assert verdict.path == "invariant" and verdict.restarts_used == 0, label
        assert verdict.witness is None and verdict.phases is None, label
        assert verdict.cuts is None and verdict.best_objective is None, label
        assert verdict.objective_history == [], label
        assert verdict.distance_lower > equivalence._gate_distance(rho), label


def test_distance_lower_on_invariant_is_below_the_frame_guess_distance():
    # d_T bounds min over product unitaries of ||V rho V^dag - rho'||_F from
    # below: on each rho* state it lies between the gate distance and the
    # distance of the frame guess, made exactly unitary by its polar factor,
    # and distance_lower reports it; the check itself ends before the guess
    for rho in _rho_star_states():
        label = rho.profile
        rho_conj = conjugate(rho)
        verdict = check_equivalence(rho, rho_conj, SearchConfig(seed=1))
        assert verdict.path == "invariant", label
        marginals = equivalence._marginal_eighs(rho, rho_conj)
        frames = equivalence._product_frames(rho, rho_conj, marginals, TOL)
        factors = equivalence._frame_factors(marginals, frames)
        polar = tuple(u @ vh for u, _, vh in map(np.linalg.svd, factors))
        residual = verify_witness(rho, rho_conj, FactorSet(factors=polar))
        _, d_t, _ = _invariant_parts(rho, rho_conj)
        assert verdict.distance_lower == d_t, label
        assert equivalence._gate_distance(rho) < d_t <= residual, label


def test_cycle_gap_is_a_lower_value_of_the_explicit_tensor_norm():
    # the trace identity against the D^3 tensor: never above it, and on rho*
    # pairs within 1e-6 of it, far above its cancellation's rounding term
    for rho in _rho_star_states():
        frames, _, _ = _invariant_parts(rho, conjugate(rho))
        exact = _explicit_cycle_gap(frames)
        assert exact * (1.0 - 1e-6) <= equivalence._cycle_gap(*frames) <= exact, rho.profile


def test_invariant_bound_is_far_above_the_cycle_gap_of_plants():
    # a soundness canary: on plants the frame rung decides, the explicit
    # cycle-product difference stays below 1e-3 of the bound at the gate
    # distance, and d_T below the gate
    for dims in [(2, 3), (2, 2, 2), (2,) * 4, (3, 3, 3), (2,) * 6]:
        for seed in range(3):
            sample = make_equivalent_pair(DimProfile(dims), 900 + seed)
            verdict = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=seed))
            assert verdict.path == "frame", (dims, seed)
            frames, d_t, (slope, offset) = _invariant_parts(sample.rho, sample.rho_prime)
            gate = equivalence._gate_distance(sample.rho)
            assert _explicit_cycle_gap(frames) < 1e-3 * (slope * gate + offset), (dims, seed)
            assert d_t <= gate, (dims, seed)


def test_invariant_rung_does_not_run_with_a_degenerate_marginal(monkeypatch):
    # a marginal of rho grouped at spec_tol leaves no product frames: rho*
    # of a locally-mixed state, or of a state with one marginal I/2, goes on
    # to the lift rung, which ends it
    calls = []
    monkeypatch.setattr(equivalence, "_invariant_distance", lambda *args: calls.append(1) or 0.0)
    generic = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 73)
    for rho in (locally_mixed_qubits(3, 5), with_mixed_marginal(generic)):
        verdict = check_equivalence(rho, conjugate(rho), SearchConfig(seed=1))
        assert verdict.status is VerdictStatus.NOT_FOUND
        assert verdict.path == "lift"
    assert calls == []


def test_check_rejects_non_finite_entries():
    m = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    m[3, 3] = np.inf
    rho = DensityMatrix(matrix=m, profile=DimProfile((2, 2)))
    with pytest.raises(ValueError, match="entries are not finite"):
        check_equivalence(rho, rho, QUICK)


def test_density_matrix_rejects_a_shape_off_its_profile():
    with pytest.raises(ValueError, match=r"matrix shape \(4, 4\) does not match profile \(2, 3\)"):
        DensityMatrix(matrix=np.eye(4) / 4.0, profile=DimProfile((2, 3)))


def test_validate_density_returns_the_repaired_state_and_its_spectrum():
    rho = random_density(DimProfile((2, 2)), "generic-nondegenerate", 47)
    doubled = DensityMatrix(matrix=2.0 * rho.matrix, profile=rho.profile)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state, spectrum = validate_density(doubled)
    assert np.allclose(state.matrix, rho.matrix, atol=1e-15)
    assert np.allclose(spectrum.eigenvalues, eig_hermitian(rho.matrix).eigenvalues, atol=1e-14)


def test_check_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    rho = DensityMatrix(matrix=m, profile=DimProfile((2, 2)))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        check_equivalence(rho, rho, QUICK)


def test_check_normalizes_trace_with_warning():
    rho = random_density(DimProfile((2, 2)), "generic-nondegenerate", 47)
    doubled = DensityMatrix(matrix=2.0 * rho.matrix, profile=rho.profile)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = check_equivalence(doubled, rho, QUICK)
    assert any("renormalizing" in str(w.message) for w in caught)
    assert verdict.status is VerdictStatus.EQUIVALENT


def test_check_runs_one_eigensolve_per_state(monkeypatch):
    # only D x D eigensolves count: the start point's frame solves d_i x d_i
    # marginals and phase matrices
    calls = []
    profile = DimProfile((2, 2, 2))
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            if np.shape(a)[-2:] == (profile.total, profile.total):
                calls.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    sample = make_equivalent_pair(profile, 113)
    verdict = check_equivalence(sample.rho, sample.rho_prime, QUICK)
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert calls == ["eigh", "eigh"]


def test_check_profile_mismatch():
    rho = random_density(DimProfile((2, 2)), "generic-nondegenerate", 53)
    other = DensityMatrix(matrix=rho.matrix, profile=DimProfile((4, 1)))
    with pytest.raises(ValueError, match="profiles differ"):
        check_equivalence(rho, other, QUICK)


def test_check_deterministic_given_seed():
    sample = make_equivalent_pair(DimProfile((2, 2, 2)), 111)
    v1 = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=9))
    v2 = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=9))
    assert v1.status is v2.status is VerdictStatus.EQUIVALENT
    assert np.array_equal(v1.phases, v2.phases)
    for f1, f2 in zip(v1.witness.factors, v2.witness.factors):
        assert np.array_equal(f1, f2)


def _coset_of(rho, rho_prime):
    """The coset context of a pair, on the degeneracy profile check_equivalence uses."""
    s1, s2 = eig_hermitian(rho.matrix), eig_hermitian(rho_prime.matrix)
    sizes = degeneracy_profile(s1.eigenvalues, 1e-8)
    return CosetContext(s1.basis, s2.basis, rho.profile, sizes)


def _context_factories():
    """(label, make_context): all-1x1 contexts, with odd-sized cuts and cuts
    where d_L != d_R among them, one multiplicity-2 context, and the rank-2
    six-qubit state against its conjugate, whose zero eigenvalue is one
    62-fold block."""
    rng = np.random.default_rng(61)
    out = []
    for dims in [(2, 2, 2), (2,) * 6, (2, 3), (3, 2, 2)]:
        profile = DimProfile(dims)
        x, y = haar_unitary(profile.total, rng), haar_unitary(profile.total, rng)
        ones = (1,) * profile.total
        out.append((dims, lambda p=profile, x=x, y=y, m=ones: CosetContext(x, y, p, m)))
    sample = make_degenerate_pair(DimProfile((2, 2, 2)), 23)
    assert max(_coset_of(sample.rho, sample.rho_prime).sizes) == 2
    out.append(("block", lambda: _coset_of(sample.rho, sample.rho_prime)))
    rank_two, _ = degenerate_plant((2,) * 6, 0, rank=2)
    assert _coset_of(rank_two, conjugate(rank_two)).sizes == (1, 1, 62)
    out.append(("block-62", lambda: _coset_of(rank_two, conjugate(rank_two))))
    return out


def _oracle_overlaps(ctx, pairs):
    """g[b, k, m] = u_k^dag realign(x_{rows m} y_{cols m}^dag) v_k, each
    realignment taken from realign_index_oracle.

    The oracle is a fixed map of entries, realign(Z) = Z.flat[index]: it is
    run once per cut on the matrix of entry numbers, and checked against a
    direct call on one x_m y_m^dag.  Then u^dag realign(Z) v = sum_pq Z_pq K_pq
    with K.flat[index] = conj(u) v^T, so g_m = x_m^T K conj(y_m).
    """
    x, y = ctx.x[:, ctx.rows], ctx.y[:, ctx.cols].conj()
    dim = len(ctx.x)
    g = np.empty((len(pairs[0][0]), len(pairs), ctx.size), dtype=complex)
    for k, ((dl, dr), (us, vs)) in enumerate(zip(ctx.splits, pairs)):
        numbers = np.arange(dim * dim).reshape(dim, dim)
        index = realign_index_oracle(numbers, (dl, dr), 1).real.astype(int)
        z = np.outer(x[:, -1], y[:, -1])
        assert np.array_equal(z.ravel()[index], realign_index_oracle(z, (dl, dr), 1))
        for b, (u1, v1) in enumerate(zip(us, vs)):
            kernel = np.empty(dim * dim, dtype=complex)
            kernel[index] = np.outer(u1.conj(), v1)
            g[b, k] = np.sum(x * (kernel.reshape(dim, dim) @ y), axis=0)
    return g


def _reference_align_pass(ctx, points):
    """An alignment pass of each row of a (B, size) stack in plain numpy: with
    s = g a and grad = g^dag s, the phase of each 1x1 entry of grad (or the
    entry itself where grad is zero) and the SVD polar factor of each larger
    block, then the first block's determinant phase pinned to zero."""
    _, pairs = ctx.decompose(points)
    g = _oracle_overlaps(ctx, pairs)
    out = np.empty_like(points)
    for a, gr, new in zip(points, g, out):
        grad = gr.conj().T @ (gr @ a)
        for sl, n in zip(ctx.slices, ctx.sizes):
            if n == 1:
                z = grad[sl.start]
                new[sl] = a[sl] if z == 0 else z / abs(z)
            else:
                uu, _, vh = np.linalg.svd(grad[sl].reshape(n, n))
                new[sl] = (uu @ vh).ravel()
        n1 = ctx.sizes[0]
        new *= np.exp(-1j * np.angle(np.linalg.det(new[ctx.slices[0]].reshape(n1, n1))) / n1)
    return out


def test_build_and_overlaps_match_the_explicit_realignments():
    # V = sum_m a_m x_{rows m} y_{cols m}^dag, and each overlap is u^dag R v
    # of the oracle's realignment of x_m y_m^dag, on every context
    rng = np.random.default_rng(137)
    for label, make in _context_factories():
        ctx = make()
        points = np.array([ctx.random_point(rng) for _ in range(3)])
        for point, v in zip(points, ctx.build(points)):
            want = (ctx.x[:, ctx.rows] * point) @ ctx.y[:, ctx.cols].conj().T
            assert np.max(np.abs(v - want)) <= 1e-14, label
        _, pairs = ctx.decompose(points)
        got = ctx._overlaps(pairs)
        assert np.max(np.abs(got - _oracle_overlaps(ctx, pairs))) <= 1e-14, label


def test_align_pass_matches_the_numpy_reference_sweep():
    rng = np.random.default_rng(79)
    for label, make in _context_factories():
        ctx = make()
        points = np.array([ctx.random_point(rng) for _ in range(3)])
        expected = _reference_align_pass(ctx, points)
        got = ctx.sweep(points, ctx.decompose(points)[1])
        assert np.max(np.abs(got - expected)) <= 1e-12, label


def test_align_pass_keeps_a_1x1_entry_whose_gradient_is_zero(monkeypatch):
    # a zero column of g zeroes that entry's gradient, which has no phase:
    # the entry keeps its value up to the global pin, with no 0/0 warning
    rng = np.random.default_rng(89)
    for label, make in _context_factories():
        ctx = make()
        m = ctx.slices[1].start
        assert ctx.sizes[:2] == (1, 1), label
        real_overlaps = ctx._overlaps

        def overlaps(pairs):
            g = real_overlaps(pairs)
            g[:, :, m] = 0
            return g

        monkeypatch.setattr(ctx, "_overlaps", overlaps)
        points = np.array([ctx.random_point(rng) for _ in range(3)])
        _, pairs = ctx.decompose(points)
        g = overlaps(pairs)
        grad = np.einsum("bk,bk->b", g[:, :, 0].conj(), (g @ points[:, :, np.newaxis])[..., 0])
        # the first block is 1x1, so the pin turns its new entry grad/|grad| to 1
        pin = np.exp(-1j * np.angle(grad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            swept = ctx.sweep(points, pairs)
        assert np.max(np.abs(swept[:, m] - pin * points[:, m])) <= 1e-14, label


def _leading_mass(ctx, point):
    v = ctx.build(point)
    return sum(
        np.linalg.svd(_realign_matrix(v, dl, dr), compute_uv=False)[0] ** 2
        for dl, dr in ctx.splits
    )


def test_align_pass_never_lowers_the_leading_singular_mass():
    # the pass raises a lower bound of sum over cuts of sigma1^2 that is tight
    # where it starts, so that sum can only grow from pass to pass
    rng = np.random.default_rng(83)
    for label, make in _context_factories():
        ctx = make()
        dim = ctx.xt.shape[1]
        for _ in range(20):
            point = ctx.random_point(rng)[np.newaxis]
            mass = _leading_mass(ctx, point[0])
            for _ in range(10):
                point = ctx.sweep(point, ctx.decompose(point)[1])
                new_mass = _leading_mass(ctx, point[0])
                assert new_mass >= mass - 1e-12 * dim, label
                mass = new_mass


def test_project_keeps_coset_points_and_returns_unitary_blocks():
    rng = np.random.default_rng(101)
    for label, make in _context_factories():
        ctx = make()
        point = ctx.random_point(rng)[np.newaxis]
        assert np.max(np.abs(ctx.project(point) - point)) <= 1e-14, label
        noise = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
        (near,) = ctx.project(point + 0.1 * noise)
        for sl, n in zip(ctx.slices, ctx.sizes):
            block = near[sl].reshape(n, n)
            assert np.allclose(block @ block.conj().T, np.eye(n), atol=1e-14), label


def test_stacked_calls_match_the_calls_on_each_row_alone():
    # decompose (cold and warm), sweep and project of a stack of three
    # points give, row by row, what the same call gives that row alone
    rng = np.random.default_rng(131)
    for label, make in _context_factories():
        ctx = make()
        points = np.array([ctx.random_point(rng) for _ in range(3)])
        f, pairs = ctx.decompose(points)
        swept = ctx.sweep(points, pairs)
        f_warm, warm = ctx.decompose(swept, pairs)
        noise = rng.standard_normal(points.shape) + 1j * rng.standard_normal(points.shape)
        near = ctx.project(points + 0.1 * noise)
        for i in range(3):
            row = points[i : i + 1]
            row_f, row_pairs = ctx.decompose(row)
            row_swept = ctx.sweep(row, row_pairs)
            row_f_warm, row_warm = ctx.decompose(row_swept, row_pairs)
            assert abs(f[i] - row_f[0]) <= 1e-12 and abs(f_warm[i] - row_f_warm[0]) <= 1e-12
            for stacked, alone in [(pairs, row_pairs), (warm, row_warm)]:
                for (u, w), (row_u, row_w) in zip(stacked, alone):
                    assert np.max(np.abs(u[i] - row_u[0])) <= 1e-12, label
                    assert np.max(np.abs(w[i] - row_w[0])) <= 1e-12, label
            assert np.max(np.abs(swept[i] - row_swept[0])) <= 1e-12, label
            row_near = ctx.project(row + 0.1 * noise[i])
            assert np.max(np.abs(near[i] - row_near[0])) <= 1e-12, label


def _planted_contexts():
    """(label, context) of planted pairs: all-1x1 on (2,2,2) and 2^6, multiplicity-2 on (2,2,2)."""
    out = []
    for label, sample in [
        ((2, 2, 2), make_equivalent_pair(DimProfile((2, 2, 2)), 3)),
        ((2,) * 6, make_equivalent_pair(DimProfile((2,) * 6), 5)),
        ("block", make_degenerate_pair(DimProfile((2, 2, 2)), 23)),
    ]:
        s1 = eig_hermitian(sample.rho.matrix)
        s2 = eig_hermitian(sample.rho_prime.matrix)
        sizes = degeneracy_profile(s1.eigenvalues, 1e-8)
        out.append((label, CosetContext(s1.basis, s2.basis, sample.rho.profile, sizes)))
    return out


def _escaped_starts(ctx, count, seed):
    """The first ``count`` (point, f, pairs) below the escape level that plain
    passes from random starts reach within ESCAPE_PASSES; each point is a
    stack of one."""
    rng = np.random.default_rng(seed)
    f_escape = ESCAPE_LEVEL_PER_CUT * len(ctx.splits)
    out = []
    while len(out) < count:
        point = ctx.random_point(rng)[np.newaxis]
        (f,), pairs = ctx.decompose(point)
        for _ in range(ESCAPE_PASSES):
            if f <= f_escape:
                out.append((point, f, pairs))
                break
            point = ctx.sweep(point, pairs)
            (f,), pairs = ctx.decompose(point)
    return out


def test_solo_descent_objective_never_rises():
    # a mixed step is kept only when it lowers f, and below the escape level
    # a plain pass lowers it too
    for label, ctx in _planted_contexts():
        for point, f, pairs in _escaped_starts(ctx, 3, 89):
            trace = [f]
            _align_until_stall(ctx, point, f, pairs, 200, OBJECTIVE_POLISH, trace)
            assert all(b <= a for a, b in zip(trace, trace[1:])), label


class _SpoiledMixContext:
    """A coset context whose projection throws every mix to a random point."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.rng = np.random.default_rng(103)
        self.mixes = 0

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def project(self, points):
        self.mixes += 1
        return self.ctx.random_point(self.rng)[np.newaxis]


def test_solo_descent_drops_mixes_that_do_not_lower_the_objective():
    # with every mix spoiled, the descent is the plain passes, step for step,
    # and each dropped mix clears the history, so only every second pass mixes
    for label, ctx in _planted_contexts():
        for point, f, pairs in _escaped_starts(ctx, 2, 107):
            spoiled = _SpoiledMixContext(ctx)
            trace = []
            _align_until_stall(spoiled, point, f, pairs, 200, OBJECTIVE_POLISH, trace)
            assert spoiled.mixes == len(trace) // 2, label
            plain = []
            for _ in trace:
                point = ctx.sweep(point, pairs)
                (f,), pairs = ctx.decompose(point, pairs)
                plain.append(f)
            assert trace == plain, label


def test_mixed_descent_reaches_the_target_in_fewer_passes_than_plain_passes():
    for label, ctx in _planted_contexts():
        mixed = plain = 0
        for point, f, pairs in _escaped_starts(ctx, 3, 97):
            trace = []
            _, f_mixed = _align_until_stall(ctx, point, f, pairs, 1000, OBJECTIVE_POLISH, trace)
            assert f_mixed <= OBJECTIVE_POLISH, label
            mixed += len(trace)
            for _ in range(1000):
                point = ctx.sweep(point, pairs)
                (f,), pairs = ctx.decompose(point)
                plain += 1
                if f <= OBJECTIVE_POLISH:
                    break
            assert f <= OBJECTIVE_POLISH, label
        assert mixed < plain, (label, mixed, plain)


class _CheckedContext:
    """A coset context that records each point's decomposition and checks
    that every sweep gets the pairs decompose returned for its point; a
    decompose or sweep of B stacked points counts as B of them."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.sweeps = 0
        self.cold = 0
        self.decomposed = {}

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def decompose(self, points, pairs=None):
        self.cold += len(points) if pairs is None else 0
        f, out = self.ctx.decompose(points, pairs)
        for i, point in enumerate(points):
            self.decomposed[point.tobytes()] = (f[i], [(u[i], w[i]) for u, w in out])
        return f, out

    def sweep(self, points, pairs):
        for i, point in enumerate(points):
            _, carried = self.decomposed[point.tobytes()]
            assert len(pairs) == len(carried)
            for (u1, v1), (carried_u1, carried_v1) in zip(pairs, carried):
                assert np.array_equal(u1[i], carried_u1) and np.array_equal(v1[i], carried_v1)
        self.sweeps += len(points)
        return self.ctx.sweep(points, pairs)


def test_race_carries_the_decomposition_of_its_points():
    # the race and the solo descent hand every sweep the warm pairs of the
    # point it starts from, and report the objective of the point they
    # return as those pairs gave it; only a start is decomposed cold
    contexts = [(label, make()) for label, make in _context_factories()]
    for label, ctx in contexts + _planted_contexts():
        checked = _CheckedContext(ctx)
        outcome = run_search(checked, SearchConfig(sweeps=60, restarts=4, seed=3))
        assert checked.sweeps == len(outcome.history), label
        assert checked.cold == outcome.restarts_used, label
        assert outcome.objective == checked.decomposed[outcome.point.tobytes()][0], label


def _profile(label):
    """The dimension profile of a context from _context_factories or _planted_contexts."""
    return DimProfile({"block": (2, 2, 2), "block-62": (2,) * 6}.get(label, label))


class _BoundContext:
    """A coset context that records (reported f, sum (sigma2/sigma1)^2) at
    every point it decomposes."""

    def __init__(self, ctx, profile):
        self.ctx = ctx
        self.profile = profile
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def decompose(self, points, pairs=None):
        f, out = self.ctx.decompose(points, pairs)
        self.seen.extend(zip(f, (surrogate(self.ctx, p, self.profile) for p in points)))
        return f, out


def test_reported_objective_never_understates_the_surrogate():
    # f from warm pairs is an upper bound of the paper's surrogate at every
    # pass of a lone descent and at every point the search returns
    for label, ctx in _planted_contexts():
        for point, f, pairs in _escaped_starts(ctx, 2, 109):
            bounded = _BoundContext(ctx, _profile(label))
            trace = []
            _align_until_stall(bounded, point, f, pairs, 200, OBJECTIVE_POLISH, trace)
            assert len(bounded.seen) >= len(trace), label
            assert all(f >= paper - 1e-24 for f, paper in bounded.seen), label
    contexts = [(label, make()) for label, make in _context_factories()]
    for label, ctx in contexts + _planted_contexts():
        outcome = run_search(ctx, SearchConfig(sweeps=60, restarts=4, seed=5))
        paper = surrogate(ctx, outcome.point, _profile(label))
        assert outcome.objective >= paper - 1e-24, label


def _alignment(ctx, point, pairs):
    """J = sum over cuts of |u^dag realign(V) v| ^ 2 for the given unit pairs,
    at a stack of one point."""
    v = ctx.build(point[0])
    return sum(
        abs(u[0].conj() @ _realign_matrix(v, dl, dr) @ w[0]) ** 2
        for (dl, dr), (u, w) in zip(ctx.splits, pairs)
    )


def test_warm_pass_never_lowers_the_alignment():
    # the sweep raises J with the pairs fixed, then decompose's power step
    # raises it with the point fixed
    rng = np.random.default_rng(113)
    for label, make in _context_factories():
        ctx = make()
        tol = 1e-12 * ctx.xt.shape[1]
        for _ in range(10):
            point = ctx.random_point(rng)[np.newaxis]
            _, pairs = ctx.decompose(point)
            j = _alignment(ctx, point, pairs)
            for _ in range(15):
                point = ctx.sweep(point, pairs)
                swept = _alignment(ctx, point, pairs)
                _, pairs = ctx.decompose(point, pairs)
                refined = _alignment(ctx, point, pairs)
                assert swept >= j - tol and refined >= swept - tol, label
                j = refined


class _ScriptedContext:
    """A point is (start, passes taken); its objective follows the start's
    script.  Its pairs are an empty list, and its one split puts the escape
    level at ESCAPE_LEVEL_PER_CUT."""

    splits = [None]

    def __init__(self, scripts):
        self.scripts = scripts
        self.started = 0

    def _start(self):
        point = np.array([self.started, 0])
        self.started += 1
        return point

    def identity(self):
        return self._start()

    def random_point(self, rng):
        return self._start()

    def decompose(self, points, pairs=None):
        return np.array([self.scripts[start](taken) for start, taken in points]), []

    def sweep(self, points, pairs):
        return points + np.array([0, 1])

    def project(self, points):
        return points


def _search(ctx, restarts, passes=1000):
    return run_search(ctx, SearchConfig(sweeps=passes, restarts=restarts))


def test_race_goes_on_after_an_escaped_start_stalls():
    # start 0 escapes the bulk first but stalls in a local minimum; the race
    # then goes on, and start 1, escaping one pass later, succeeds
    ctx = _ScriptedContext(
        [lambda k: 1.0 if k == 0 else 1e-2, lambda k: 1.0 if k < 2 else 10.0 ** (-3 * k)]
        + [lambda k: 1.0] * (STARTS_PER_ROUND - 2)
    )
    outcome = _search(ctx, restarts=STARTS_PER_ROUND)
    assert outcome.objective <= 1e-14
    assert outcome.point[0] == 1
    assert outcome.restarts_used == STARTS_PER_ROUND
    # a racing pass per start, 3 stalled passes of start 0, a racing pass
    # per other start, then start 1 polishes from 1e-6 to 1e-21
    assert len(outcome.history) == STARTS_PER_ROUND + 3 + (STARTS_PER_ROUND - 1) + 5


def test_search_stops_at_the_first_stall_accept_takes():
    # start 0 stalls above f_success and is accepted: the race ends there;
    # points still in the bulk are never offered
    ctx = _ScriptedContext(
        [lambda k: 1.0 if k == 0 else 1e-2] + [lambda k: 1.0] * (2 * STARTS_PER_ROUND - 1)
    )
    offered = []
    outcome = run_search(
        ctx,
        SearchConfig(sweeps=1000, restarts=2 * STARTS_PER_ROUND),
        accept=lambda point: offered.append(point.copy()) or True,
    )
    assert outcome.point[0] == 0 and outcome.objective == 1e-2
    assert outcome.restarts_used == STARTS_PER_ROUND
    assert [p[0] for p in offered] == [0]


def test_start_stuck_in_the_bulk_costs_a_fixed_number_of_passes():
    ctx = _ScriptedContext([lambda k: 1.0 - 1e-3 * k] * 6)
    outcome = _search(ctx, restarts=6)
    assert outcome.restarts_used == 6
    assert len(outcome.history) == 6 * ESCAPE_PASSES
    assert outcome.objective == pytest.approx(1.0 - 1e-3 * ESCAPE_PASSES)
    # a pass budget below ESCAPE_PASSES caps the race too
    outcome = _search(_ScriptedContext([lambda k: 1.0] * 6), restarts=6, passes=3)
    assert len(outcome.history) == 6 * 3


class _CountingContext(_ScriptedContext):
    """A scripted context that logs (method, number of stacked points) per call."""

    def __init__(self, scripts):
        super().__init__(scripts)
        self.calls = []

    def decompose(self, points, pairs=None):
        self.calls.append(("decompose", len(points)))
        return super().decompose(points, pairs)

    def sweep(self, points, pairs):
        self.calls.append(("sweep", len(points)))
        return super().sweep(points, pairs)


def test_racing_round_is_one_sweep_and_one_decompose():
    # however many starts race, a round is one stacked sweep and one
    # stacked decompose of all of them
    for racing in range(1, STARTS_PER_ROUND + 1):
        ctx = _CountingContext([lambda k: 1.0] * racing)
        _search(ctx, restarts=racing)
        rounds = [("sweep", racing), ("decompose", racing)] * ESCAPE_PASSES
        assert ctx.calls == [("decompose", racing)] + rounds, racing
    # start 0 escapes after two passes and stalls alone, in stacks of one;
    # the rounds before it race three starts, the rounds after it two
    ctx = _CountingContext(
        [lambda k: 1.0 if k < 2 else 1e-2] + [lambda k: 1.0] * (STARTS_PER_ROUND - 1)
    )
    _search(ctx, restarts=STARTS_PER_ROUND)
    racing_sweeps = [b for name, b in ctx.calls if name == "sweep" and b > 1]
    assert racing_sweeps == [STARTS_PER_ROUND] * 2 + [STARTS_PER_ROUND - 1] * (ESCAPE_PASSES - 2)


def test_second_round_races_every_remaining_start_in_one_stack():
    # round 1 races STARTS_PER_ROUND starts; when none succeeds, round 2
    # races all the others as one stack
    restarts = 10
    later = restarts - STARTS_PER_ROUND
    ctx = _CountingContext([lambda k: 1.0] * restarts)
    outcome = _search(ctx, restarts=restarts)
    assert outcome.restarts_used == restarts
    first = [("sweep", STARTS_PER_ROUND), ("decompose", STARTS_PER_ROUND)] * ESCAPE_PASSES
    second = [("sweep", later), ("decompose", later)] * ESCAPE_PASSES
    assert ctx.calls == (
        [("decompose", STARTS_PER_ROUND)] + first + [("decompose", later)] + second
    )
    # a success in round 1 launches no other start
    ctx = _CountingContext(
        [lambda k: 1.0, lambda k: 1.0 if k < 2 else 10.0 ** (-3 * k)]
        + [lambda k: 1.0] * (restarts - 2)
    )
    outcome = _search(ctx, restarts=restarts)
    assert outcome.objective <= 1e-14 and outcome.point[0] == 1
    assert outcome.restarts_used == STARTS_PER_ROUND
    assert max(b for _, b in ctx.calls) == STARTS_PER_ROUND


def test_a_second_round_start_decides_a_locally_mixed_plant(monkeypatch):
    # every round-1 start of this plant stays in the bulk; a start of the
    # stacked second round escapes and its success ends the search (the lift
    # rung, which decides this plant on its own, hands on)
    _hand_on_to_the_search(monkeypatch)
    rho = locally_mixed_qubits(3, 9)
    verdict = check_equivalence(rho, local_rotation(rho, 109), SearchConfig(seed=9))
    assert verdict.status is VerdictStatus.EQUIVALENT and verdict.path == "coset"
    assert verdict.restarts_used == SearchConfig().restarts
    assert verdict.witness_residual <= 1e-8


def test_stacked_starts_end_as_each_start_raced_alone(monkeypatch):
    # a start's passes do not depend on its stack-mates, so racing each start
    # alone gives the same verdict, surrogate and history values in some order
    # (the invariant rung, which ends this check on its own, hands on)
    _hand_on_to_the_search(monkeypatch)
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 71)
    config = SearchConfig(seed=3)
    stacked = check_equivalence(rho, conjugate(rho), config)
    real_race = search._race

    def race_alone(ctx, points, *args):
        outcomes = [real_race(ctx, points[i : i + 1], *args) for i in range(len(points))]
        return min(outcomes, key=lambda outcome: outcome[1])

    monkeypatch.setattr(search, "_race", race_alone)
    alone = check_equivalence(rho, conjugate(rho), config)
    assert stacked.status is alone.status is VerdictStatus.NOT_FOUND
    assert stacked.path == "coset" and stacked.restarts_used == alone.restarts_used == 20
    assert stacked.best_objective == alone.best_objective
    history = [sorted(f for _, f in v.objective_history) for v in (stacked, alone)]
    assert history[0] == history[1]


def test_block_pass_memory_is_quadratic_in_the_dimension():
    # one stacked pass at B = 17 on the 62-fold block, 3,846 entries a point:
    # V and the overlaps cost O(D^2) a point, where (B, size, D)
    # intermediates would take over 130 MB
    ctx = dict(_context_factories())["block-62"]()
    rng = np.random.default_rng(139)
    points = np.array([ctx.random_point(rng) for _ in range(17)])
    _, pairs = ctx.decompose(points)
    tracemalloc.start()
    try:
        ctx.decompose(ctx.sweep(points, pairs), pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


def test_lifted_gram_matches_the_explicit_minors():
    # the Gram form, which forms no minor, against K^H K from index loops on
    # every context within the lift rung's size rule
    checked = []
    for label, make in _context_factories():
        ctx = make()
        if ctx.size > equivalence.LIFT_MAX_SIZE:
            continue
        h = equivalence._lifted_gram(ctx)
        assert np.max(np.abs(h - lifted_gram_oracle(ctx))) <= 1e-12, label
        checked.append(label)
    assert checked == [(2, 2, 2), (2, 3), (3, 2, 2), "block"]


def _raiser(name):
    def raises(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return raises


def _without_search(monkeypatch):
    monkeypatch.setattr(equivalence, "run_search", _raiser("the search"))


def test_lift_rung_ends_a_state_against_its_conjugate_without_a_search(monkeypatch):
    # rho* has rho's spectrum and marginal spectra, so neither the spectra nor
    # the bound rung end the check, and a degenerate marginal keeps the
    # frame and invariant rungs out; the lifted system's least eigenvalue is
    # far above its floor, so no coset point passes the rank-one test
    _without_search(monkeypatch)
    states = [
        with_mixed_marginal(random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", s))
        for s in (73, 79)
    ]
    # (2,2,3) has 12 coset entries, the largest the size rule lets through
    states += [
        locally_mixed_qubits(3, 5),
        with_mixed_marginal(random_density(DimProfile((2, 2, 3)), "generic-nondegenerate", 5)),
    ]
    for rho in states:
        verdict = check_equivalence(rho, conjugate(rho), SearchConfig(seed=1))
        label = rho.profile
        assert verdict.status is VerdictStatus.NOT_FOUND, label
        assert verdict.path == "lift" and verdict.restarts_used == 0, label
        assert verdict.witness is None and verdict.phases is None, label
        assert verdict.cuts is None and verdict.best_objective is None, label
        assert verdict.objective_history == [], label
        assert verdict.distance_lower is not None, label


def test_lift_rung_decides_locally_mixed_plants_without_a_search(monkeypatch):
    # every one-site marginal is I/2, so the frame gives no guess; the lifted
    # kernel is one-dimensional, and the point read off it verifies
    _without_search(monkeypatch)
    for seed in (0, 1, 9):
        rho = locally_mixed_qubits(3, seed)
        rho_prime = local_rotation(rho, 100 + seed)
        verdict = check_equivalence(rho, rho_prime, SearchConfig(seed=seed))
        assert verdict.status is VerdictStatus.EQUIVALENT, seed
        assert verdict.path == "lift" and verdict.restarts_used == 0, seed
        assert verdict.objective_history == [], seed
        assert all(unitarity_defect(u) <= TOL for u in verdict.witness.factors), seed
        assert verdict.witness_residual <= TOL, seed
        assert verify_witness(rho, rho_prime, verdict.witness) <= TOL, seed
        assert [r.cut for r in verdict.cuts] == [1, 2], seed
        assert all(r.rank_one for r in verdict.cuts), seed
        assert verdict.best_objective == sum(r.ratio**2 for r in verdict.cuts)


def test_lift_rung_hands_larger_kernels_and_cosets_on_to_the_search(monkeypatch):
    # the paper's pair has a 19-dimensional lifted kernel: the point read off
    # its least eigenvector mixes solutions, fails certify, and the search
    # decides the pair
    rho, rho_p = paper_example(3, 5, 7)
    ctx = _coset_of(rho, rho_p)
    assert ctx.size <= equivalence.LIFT_MAX_SIZE
    w = np.linalg.eigvalsh(equivalence._lifted_gram(ctx))
    assert np.sum(w <= 1e-12) == 19
    verdict = check_equivalence(rho, rho_p, SearchConfig(seed=5))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.path == "coset" and verdict.restarts_used >= 1
    # a 4-qubit coset has 16 entries, over the size rule: the rung does not
    # run, and the search decides a locally-mixed plant
    calls = []
    monkeypatch.setattr(equivalence, "_lift", lambda *args: calls.append(args))
    rho = locally_mixed_qubits(4, 2)
    rho_p = local_rotation(rho, 102)
    assert _coset_of(rho, rho_p).size > equivalence.LIFT_MAX_SIZE
    verdict = check_equivalence(rho, rho_p, SearchConfig(seed=2))
    assert calls == []
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.path == "coset" and verdict.restarts_used >= 1


def test_lift_reads_no_point_off_an_eigenvector_with_a_zero_diagonal(monkeypatch):
    # with E's diagonal zero, a_i = E_ij / sqrt(E_jj) divides by zero: the
    # rung reads no point, so the check hands on; an eigh whose least
    # eigenvector has only off-diagonal coordinates shows it
    rho = locally_mixed_qubits(3, 9)
    ctx = _coset_of(rho, local_rotation(rho, 2))
    assert ctx.size == 8
    excluded, point = equivalence._lift(ctx, 1e-7)
    assert not excluded and point is not None
    m, n = np.triu_indices(ctx.size)
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        w, v = real_eigh(a, *args, **kwargs)
        v[m == n, 0] = 0.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert equivalence._lift(ctx, 1e-7) == (False, None)


def _certificate_margin(h):
    """The Cholesky certificate's margin over the floor, as _lift documents it."""
    return 2.0 * (len(h) + 1) * sys.float_info.epsilon * float(np.trace(h).real)


def test_lift_rung_fires_only_above_its_floor(monkeypatch):
    # H shifted so that its least eigenvalue sits half a margin above the
    # certificate's shift mu = floor + margin: the Cholesky of H - mu I
    # completes and the check ends on "lift".  Half a margin below mu (still
    # above the floor, so an eigenvalue test would have fired) the rung reads
    # a point that does not certify and hands on to the search, which fails.
    # The marginal at site 1 is I/2, so the invariant rung does not run
    rho = with_mixed_marginal(random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 73))
    config = SearchConfig(sweeps=20, restarts=4, seed=2)
    ctx = _coset_of(rho, conjugate(rho))
    h = equivalence._lifted_gram(ctx)
    lam = np.linalg.eigvalsh(h)[0]
    floor = equivalence._lift_floor(ctx, config.rank_tol, h)
    assert 0 < floor < 1e-11 < lam
    for above, path in ((1.5, "lift"), (0.5, "coset")):
        shifted = h
        # mu depends on the shifted H's trace and row sums, weakly: a few
        # rounds of the fixed point settle the shift
        for _ in range(3):
            target = equivalence._lift_floor(ctx, config.rank_tol, shifted)
            target += above * _certificate_margin(shifted)
            shifted = h - (lam - target) * np.eye(len(h))
        w = np.linalg.eigvalsh(shifted)
        assert w[0] > equivalence._lift_floor(ctx, config.rank_tol, shifted), above
        monkeypatch.setattr(equivalence, "_lifted_gram", lambda ctx, _h=shifted: _h)
        verdict = check_equivalence(rho, conjugate(rho), config)
        assert verdict.status is VerdictStatus.NOT_FOUND, above
        assert verdict.path == path, above
        assert (verdict.restarts_used == 0) == (path == "lift"), above


def test_lift_certificate_fires_only_where_the_least_eigenvalue_clears_the_floor(monkeypatch):
    # rho* on every profile within the size rule, Haar-rotated pairs (which
    # the bound rung ends before the lift, so _lift runs on their coset
    # directly), and plants: the certificate fires on no plant, and wherever
    # it fires, its shift clears the floor by the Cholesky backward-error
    # bound 1.5 (n + 1) eps tr(H) and the least eigenvalue of H exceeds the
    # floor
    shifts = []
    real_cholesky = np.linalg.cholesky

    def cholesky(a, *args, **kwargs):
        shifts.append(a)
        return real_cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)

    def fired(rho, rho_prime):
        ctx = _coset_of(rho, rho_prime)
        assert ctx.size <= equivalence.LIFT_MAX_SIZE
        shifts.clear()
        excluded, _ = equivalence._lift(ctx, 1e-7)
        h = equivalence._lifted_gram(ctx)
        floor = equivalence._lift_floor(ctx, 1e-7, h)
        if excluded:
            (a,) = shifts
            mu = float(np.min(np.diagonal(h - a).real))
            bound = 1.5 * (len(h) + 1) * sys.float_info.epsilon * float(np.trace(h).real)
            assert mu - floor >= bound
            assert np.linalg.eigvalsh(h)[0] > floor
        return excluded

    profiles = [DimProfile(d) for d in ((2, 3), (3, 3), (2, 2, 2), (2, 2, 3))]
    for p in profiles:
        for seed in range(3):
            rho = random_density(p, "generic-nondegenerate", 200 + seed)
            assert fired(rho, conjugate(rho)), (p, seed)
        for seed in range(2):
            rho = random_density(p, "generic-nondegenerate", 300 + seed)
            lam = eig_hermitian(rho.matrix).eigenvalues
            assert fired(rho, random_density(p, lam, 400 + seed)), (p, seed)
            sample = make_equivalent_pair(p, 500 + seed)
            assert not fired(sample.rho, sample.rho_prime), (p, seed)
    for eta in (0.0, 1e-9, 3e-9):
        for seed in range(3):
            rho = locally_mixed_qubits(3, 700 + seed)
            rho_prime = _with_noise(local_rotation(rho, 800 + seed), eta, seed)
            assert not fired(rho, rho_prime), (eta, seed)
    sample = make_degenerate_pair(DimProfile((2, 2)), 3)
    assert not fired(sample.rho, sample.rho_prime)


def test_lift_rung_runs_no_eigensolve_of_h_on_a_certified_check(monkeypatch):
    # a (2,2,2) rho* check with a degenerate marginal ends on the
    # certificate: no 36 x 36 eigh; a locally-mixed plant's certificate
    # fails and one eigh reads its point
    calls = []
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    rho = with_mixed_marginal(random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 79))
    verdict = check_equivalence(rho, conjugate(rho), SearchConfig(seed=1))
    assert verdict.path == "lift" and verdict.status is VerdictStatus.NOT_FOUND
    assert (36, 36) not in calls
    calls.clear()
    rho = locally_mixed_qubits(3, 1)
    verdict = check_equivalence(rho, local_rotation(rho, 101), SearchConfig(seed=1))
    assert verdict.path == "lift" and verdict.status is VerdictStatus.EQUIVALENT
    assert calls.count((36, 36)) == 1


@pytest.mark.parametrize("eta", [1e-9, 3e-9])
def test_lift_rung_decides_noisy_locally_mixed_plants(eta):
    # Hermitian noise of norm eta on rho' lifts the least eigenvalue off zero
    # by far less than its floor, and the point read off it still verifies
    for seed in range(3):
        rho = locally_mixed_qubits(3, 500 + seed)
        rho_prime = _with_noise(local_rotation(rho, 600 + seed), eta, seed)
        verdict = check_equivalence(rho, rho_prime, SearchConfig(seed=seed))
        assert verdict.status is VerdictStatus.EQUIVALENT, seed
        assert verdict.path == "lift", seed
        assert verify_witness(rho, rho_prime, verdict.witness) <= 1e-8, seed


def test_planted_pair_on_six_qubits():
    sample = make_equivalent_pair(DimProfile((2,) * 6), 7)
    verdict = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=7))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.witness_residual <= 1e-8
    assert verdict.path == "frame"
    assert verdict.restarts_used == 0


def test_planted_pairs_beyond_three_qubits():
    for dims in [(2, 2, 2, 2), (3, 3, 3)]:
        profile = DimProfile(dims)
        for seed in range(3):
            sample = make_equivalent_pair(profile, 500 + seed)
            verdict = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=seed))
            assert verdict.status is VerdictStatus.EQUIVALENT, (dims, seed)
            assert verdict.witness_residual < 1e-8
            assert len(verdict.witness.factors) == len(dims)


def test_planted_success_rate_small():
    profile = DimProfile((2, 2, 2))
    wins = 0
    for seed in range(20):
        sample = make_equivalent_pair(profile, 1000 + seed)
        verdict = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=seed))
        if verdict.status is VerdictStatus.EQUIVALENT:
            assert verdict.witness_residual < 1e-8
            wins += 1
    assert wins >= 19


def test_multiplicity_two_pairs_within_the_default_pass_budget():
    # a 200-pass cap leaves seeds 0 and 11 short of the polish target
    profile = DimProfile((2, 2))
    for seed in range(20):
        sample = make_degenerate_pair(profile, seed)
        verdict = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=seed))
        assert verdict.status is VerdictStatus.EQUIVALENT, seed
        assert verdict.witness_residual < 1e-8
