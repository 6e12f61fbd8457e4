import warnings

import numpy as np
import pytest

from luequiv import (
    DensityMatrix,
    DimProfile,
    FactorSet,
    SearchConfig,
    VerdictStatus,
    build_V,
    build_V0,
    check_equivalence,
    coset_search,
    degeneracy_profile,
    eig_hermitian,
    is_decomposable,
    kron_all,
    objective,
    paper_example,
    verify_witness,
)
from luequiv.equivalence import BLOCK_ROUNDS, CosetContext, _leading_overlaps
from luequiv.search import ESCAPE_PASSES, STARTS_PER_ROUND, run_search
from luequiv.oracle import (
    haar_unitary,
    local_unitaries,
    make_degenerate_pair,
    make_equivalent_pair,
    random_density,
)
from luequiv.tensor import _realign_matrix

from helpers import WITNESS_SIGNS, example_bases

QUICK = SearchConfig(sweeps=40, restarts=6)


def witness_phases() -> np.ndarray:
    return np.where(WITNESS_SIGNS > 0, 0.0, np.pi)


def test_build_v_identity():
    assert np.allclose(build_V(np.eye(3), np.eye(3), np.zeros(3)), np.eye(3))


def test_build_v_equal_bases():
    u = haar_unitary(4, 0)
    assert np.allclose(build_V(u, u, np.zeros(4)), np.eye(4), atol=1e-14)


def test_build_v_is_unitary():
    rng = np.random.default_rng(5)
    x, y = haar_unitary(6, rng), haar_unitary(6, rng)
    theta = rng.uniform(0, 2 * np.pi, 6)
    v = build_V(x, y, theta)
    assert np.linalg.norm(v @ v.conj().T - np.eye(6)) < 1e-10


def test_build_v_dimension_mismatch():
    with pytest.raises(ValueError):
        build_V(np.eye(3), np.eye(3), np.zeros(4))


def test_build_v0_reduces_to_build_v():
    rng = np.random.default_rng(7)
    x, y = haar_unitary(4, rng), haar_unitary(4, rng)
    theta = rng.uniform(0, 2 * np.pi, 4)
    prof = degeneracy_profile(eig_hermitian(np.diag([4.0, 3.0, 2.0, 1.0])), 1e-8)
    blocks = [np.array([[np.exp(1j * t)]]) for t in theta]
    assert np.allclose(build_V0(x, y, prof, blocks), build_V(x, y, theta), atol=1e-14)


def test_build_v0_identity_blocks():
    rng = np.random.default_rng(9)
    x, y = haar_unitary(4, rng), haar_unitary(4, rng)
    prof = degeneracy_profile(eig_hermitian(np.diag([0.5, 0.5, 0.0, 0.0])), 1e-8)
    blocks = [np.eye(2), np.eye(2)]
    assert np.allclose(build_V0(x, y, prof, blocks), x @ y.conj().T, atol=1e-14)


def test_build_v0_degenerate_bell_pair():
    # rho and rho' related by H x H, spectrum (1/2, 1/2, 0, 0): no diagonal D
    # works in general, but a 2x2-block V0 does, and its realignment is rank one
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hh = np.kron(h, h)
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    rho_p = hh @ rho @ hh.conj().T
    assert np.linalg.norm(hh @ rho @ hh.conj().T - rho_p) == 0.0  # construction
    s1, s2 = eig_hermitian(rho), eig_hermitian(rho_p)
    prof = degeneracy_profile(s1, 1e-8)
    assert prof.multiplicities == (2, 2)
    b = s1.basis.conj().T @ hh @ s2.basis
    # the change of basis is block diagonal over the degenerate blocks
    assert np.linalg.norm(b[:2, 2:]) < 1e-12 and np.linalg.norm(b[2:, :2]) < 1e-12
    blocks = [b[:2, :2], b[2:, 2:]]
    for blk in blocks:
        assert np.linalg.norm(blk @ blk.conj().T - np.eye(2)) < 1e-12
    v0 = build_V0(s1.basis, s2.basis, prof, blocks)
    assert np.allclose(v0, hh, atol=1e-12)
    ok, reports = is_decomposable(v0, DimProfile((2, 2)), 1e-7)
    assert ok and reports[0].ratio < 1e-12


def test_build_v0_size_mismatch():
    prof = degeneracy_profile(eig_hermitian(np.diag([0.5, 0.5, 0.0, 0.0])), 1e-8)
    with pytest.raises(ValueError):
        build_V0(np.eye(4), np.eye(4), prof, [np.eye(2), np.eye(3)])


def test_objective_zero_at_solution():
    x, y, _ = example_bases(3, 5, 7)
    ctx = CosetContext(x, y, DimProfile((2, 2, 2)), (1,) * 8)
    assert objective(np.exp(1j * witness_phases()), ctx) < 1e-20


def test_objective_positive_at_zero_phases():
    x, y, _ = example_bases(3, 5, 7)
    ctx = CosetContext(x, y, DimProfile((2, 2, 2)), (1,) * 8)
    assert objective(ctx.identity(), ctx) > 1e-4


def test_objective_invariant_under_global_shift():
    rng = np.random.default_rng(11)
    x, y = haar_unitary(8, rng), haar_unitary(8, rng)
    ctx = CosetContext(x, y, DimProfile((2, 2, 2)), (1,) * 8)
    theta = rng.uniform(0, 2 * np.pi, 8)
    f0 = objective(np.exp(1j * theta), ctx)
    for c in [0.7, np.pi, 5.1]:
        assert np.isclose(objective(np.exp(1j * (theta + c)), ctx), f0, rtol=1e-9)


def test_phase_search_identical_state_succeeds_from_zero_seed():
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 3)
    s = eig_hermitian(rho.matrix)
    ctx = CosetContext(s.basis, s.basis, rho.profile, (1,) * 8)
    assert ctx.eval_full(ctx.identity()) < 1e-14  # the identity start is already a solution
    outcome = coset_search(ctx, QUICK)
    assert outcome.success and outcome.objective < 1e-14


def test_phase_search_paper_pair_and_decompose_agreement():
    rho, rho_p = paper_example(3, 5, 7)
    s1, s2 = eig_hermitian(rho.matrix), eig_hermitian(rho_p.matrix)
    ctx = CosetContext(s1.basis, s2.basis, rho.profile, (1,) * 8)
    outcome = coset_search(ctx, QUICK)
    assert outcome.success
    theta = np.angle(outcome.point)
    ok, _ = is_decomposable(build_V(s1.basis, s2.basis, theta), rho.profile, 1e-7)
    assert ok


def test_coset_build_matches_build_v_and_build_v0():
    rng = np.random.default_rng(13)
    profile = DimProfile((2, 2, 2))
    x, y = haar_unitary(8, rng), haar_unitary(8, rng)
    theta = rng.uniform(0, 2 * np.pi, 8)
    ctx = CosetContext(x, y, profile, (1,) * 8)
    assert np.allclose(ctx.build(np.exp(1j * theta)), build_V(x, y, theta), atol=1e-14)
    deg = degeneracy_profile(eig_hermitian(np.diag([6, 5, 5, 4, 3, 3, 2, 1.0])), 1e-8)
    assert deg.multiplicities == (1, 2, 1, 2, 1, 1)
    blocks = [haar_unitary(n, rng) for n in deg.multiplicities]
    ctx = CosetContext(x, y, profile, deg.multiplicities)
    point = np.concatenate([b.ravel() for b in blocks])
    assert np.allclose(ctx.build(point), build_V0(x, y, deg, blocks), atol=1e-14)


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
    assert not verdict.used_degenerate_fallback


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
    # same spectrum: no local-unitary map exists, so the one-sided search
    # must come back NOT_FOUND (never a claim of inequivalence)
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
    verdict = check_equivalence(rho, rho_p, SearchConfig(sweeps=20, restarts=4))
    assert verdict.status is VerdictStatus.NOT_FOUND
    assert verdict.witness is None
    assert verdict.best_objective > 1e-6


def test_check_degenerate_bell_pair_end_to_end():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    hh = np.kron(h, h)
    profile = DimProfile((2, 2))
    rho = DensityMatrix(matrix=np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), profile=profile)
    rho_p = DensityMatrix(matrix=hh @ rho.matrix @ hh.conj().T, profile=profile)
    verdict = check_equivalence(rho, rho_p, SearchConfig(seed=2))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.used_degenerate_fallback
    assert verdict.witness_residual < 1e-8


def test_degenerate_unsupported_for_large_blocks():
    rho = DensityMatrix(matrix=np.eye(4, dtype=complex) / 4.0, profile=DimProfile((2, 2)))
    verdict = check_equivalence(rho, rho, QUICK)
    assert verdict.status is VerdictStatus.DEGENERATE_UNSUPPORTED


def test_check_rejects_non_hermitian():
    m = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
    m[0, 1] = 0.2  # not mirrored
    rho = DensityMatrix(matrix=m, profile=DimProfile((2, 2)))
    with pytest.raises(ValueError, match="Hermitian"):
        check_equivalence(rho, rho, QUICK)


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


def _context_factories():
    """(label, make_context): two all-1x1 contexts and one multiplicity-2 context."""
    rng = np.random.default_rng(61)
    out = []
    for dims in [(2, 2, 2), (2,) * 6]:
        profile = DimProfile(dims)
        x, y = haar_unitary(profile.total, rng), haar_unitary(profile.total, rng)
        ones = (1,) * profile.total
        out.append((dims, lambda p=profile, x=x, y=y, m=ones: CosetContext(x, y, p, m)))
    sample = make_degenerate_pair(DimProfile((2, 2, 2)), 23)
    s1 = eig_hermitian(sample.rho.matrix)
    s2 = eig_hermitian(sample.rho_prime.matrix)
    deg = degeneracy_profile(s1, 1e-8)
    assert deg.max_multiplicity == 2

    def block():
        return CosetContext(s1.basis, s2.basis, sample.rho.profile, deg.multiplicities)

    out.append(("block", block))
    return out


def test_align_pass_objective_is_eval_full_at_returned_params():
    rng = np.random.default_rng(67)
    for label, make in _context_factories():
        ctx = make()
        point = ctx.random_point(rng)
        for _ in range(4):
            point, f = ctx.align_pass(point)
            expected = make().eval_full(point)  # a fresh context keeps no pairs
            assert abs(f - expected) <= 1e-12 * expected, label


def test_align_pass_reuse_matches_a_fresh_decomposition():
    # a pass reuses the pairs of the point the previous pass ended on; that
    # must give exactly what decomposing afresh gives, and a point mutated in
    # place must not hit the stale pairs
    rng = np.random.default_rng(71)
    for label, make in _context_factories():
        ctx = make()
        point, _ = ctx.align_pass(ctx.random_point(rng))
        for mutate in (False, True):
            if mutate:
                point[1] *= np.exp(0.7j)
            fresh_point, fresh_f = make().align_pass(point.copy())
            point, f = ctx.align_pass(point)
            assert np.array_equal(point, fresh_point), (label, mutate)
            assert f == fresh_f, (label, mutate)


def test_align_pass_reuse_with_starts_taken_in_turn():
    # racing starts take passes in turn; each must still reuse its own pairs
    # and match a fresh decomposition
    rng = np.random.default_rng(73)
    for label, make in _context_factories():
        ctx = make()
        points = [ctx.random_point(rng) for _ in range(STARTS_PER_ROUND)]
        for _ in range(3):
            for i, point in enumerate(points):
                fresh_point, fresh_f = make().align_pass(point.copy())
                points[i], f = ctx.align_pass(point)
                assert np.array_equal(points[i], fresh_point), label
                assert f == fresh_f, label


def _reference_align_pass(ctx, point):
    """An alignment pass with its block sweep on length-K numpy vectors."""
    _, pairs = ctx._decompose(point)
    g = np.stack(
        [
            _leading_overlaps(ctx.xt, ctx.ych, u1, v1, dl, dr)
            for (dl, dr), (u1, v1) in zip(ctx.splits, pairs)
        ]
    )
    a = point.copy()
    s = g @ a
    for _ in range(BLOCK_ROUNDS):
        for sl, n in zip(ctx.slices, ctx.sizes):
            gb = g[:, sl]
            if n == 1:
                w = s - gb[:, 0] * a[sl.start]
                z = gb[:, 0] @ w.conj()
                if z == 0:
                    continue
                new = np.conj(z) / abs(z)
            else:
                uu, _, vh = np.linalg.svd((s.conj() @ gb).reshape(n, n).conj())
                new = (uu @ vh).ravel()
            s += gb @ (new - a[sl])
            a[sl] = new
    n1 = ctx.sizes[0]
    a *= np.exp(-1j * np.angle(np.linalg.det(a[ctx.slices[0]].reshape(n1, n1))) / n1)
    return a


def test_align_pass_matches_the_numpy_reference_sweep():
    rng = np.random.default_rng(79)
    for label, make in _context_factories():
        ctx = make()
        for _ in range(3):
            point = ctx.random_point(rng)
            expected = _reference_align_pass(ctx, point)
            got, _ = ctx.align_pass(point)
            assert np.max(np.abs(got - expected)) <= 1e-12, label


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
            point = ctx.random_point(rng)
            mass = _leading_mass(ctx, point)
            for _ in range(10):
                point, _ = ctx.align_pass(point)
                new_mass = _leading_mass(ctx, point)
                assert new_mass >= mass - 1e-12 * dim, label
                mass = new_mass


class _ScriptedContext:
    """A point is (start, passes taken); its objective follows the start's script."""

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

    def eval_full(self, point):
        return self.scripts[point[0]](point[1])

    def align_pass(self, point):
        nxt = point + np.array([0, 1])
        return nxt, self.eval_full(nxt)


def _search(ctx, restarts, passes=1000):
    return run_search(
        ctx, passes=passes, restarts=restarts, f_escape=0.1, f_target=1e-20, f_success=1e-14
    )


def test_race_goes_on_after_an_escaped_start_stalls():
    # start 0 escapes the bulk first but stalls in a local minimum; the race
    # then goes on, and start 1, escaping one pass later, succeeds
    ctx = _ScriptedContext(
        [lambda k: 1.0 if k == 0 else 1e-2, lambda k: 1.0 if k < 2 else 10.0 ** (-3 * k)]
        + [lambda k: 1.0] * (STARTS_PER_ROUND - 2)
    )
    outcome = _search(ctx, restarts=STARTS_PER_ROUND)
    assert outcome.success
    assert outcome.point[0] == 1
    assert outcome.restarts_used == STARTS_PER_ROUND
    # a racing pass per start, 3 stalled passes of start 0, a racing pass
    # per other start, then start 1 polishes from 1e-6 to 1e-21
    assert len(outcome.history) == STARTS_PER_ROUND + 3 + (STARTS_PER_ROUND - 1) + 5


def test_start_stuck_in_the_bulk_costs_a_fixed_number_of_passes():
    ctx = _ScriptedContext([lambda k: 1.0 - 1e-3 * k] * 6)
    outcome = _search(ctx, restarts=6)
    assert not outcome.success
    assert outcome.restarts_used == 6
    assert len(outcome.history) == 6 * ESCAPE_PASSES
    assert outcome.objective == pytest.approx(1.0 - 1e-3 * ESCAPE_PASSES)
    # a pass budget below ESCAPE_PASSES caps the race too
    outcome = _search(_ScriptedContext([lambda k: 1.0] * 6), restarts=6, passes=3)
    assert len(outcome.history) == 6 * 3


def test_planted_pair_on_six_qubits():
    sample = make_equivalent_pair(DimProfile((2,) * 6), 7)
    verdict = check_equivalence(sample.rho, sample.rho_prime, SearchConfig(seed=7))
    assert verdict.status is VerdictStatus.EQUIVALENT
    assert verdict.witness_residual <= 1e-8
    assert verdict.restarts_used >= 1


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
