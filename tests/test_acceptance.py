"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time
from contextlib import contextmanager

import numpy as np

import luequiv as lq

from helpers import (
    WITNESS_SIGNS,
    degenerate_plant,
    reference_basis_pair,
    reference_cut1,
    reference_cut2,
    reference_v,
    example_bases,
    realign_index_oracle,
)

TRIPLES = [(3.0, 5.0, 7.0), (4.0, 9.0, 13.0), (0.3, 5.0, 11.0)]
TRIPARTITE = lq.DimProfile((2, 2, 2))


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def _witness_phases() -> np.ndarray:
    return np.where(WITNESS_SIGNS > 0, 0.0, np.pi)


def _build_v(x, y, phases) -> np.ndarray:
    """V = X diag(e^{i theta}) Y^dag, built by the search's coset context."""
    return lq.CosetContext(x, y, TRIPARTITE, (1,) * 8).build(np.exp(1j * phases))


def _assert_gauge_equivalent_to_paper_signs(verdict: lq.Verdict, a, b, c) -> None:
    """Check the found witness lies on the gauge orbit of the reference signs.

    The decomposable unitaries commuting with the example state form a
    two-phase family (per-site diagonal phases with the corner pair locked),
    so the per-slot ratios h_i of found vs reference phases must factor as
    h = (1, 1, w, uv, v, uw, vw, u) with u v w = 1.
    """
    x, y, _ = example_bases(a, b, c)
    v_found = lq.kron_all(verdict.witness.factors).conj().T
    d_found = np.diagonal(x.conj().T @ v_found @ y).copy()
    assert np.linalg.norm(x @ np.diag(d_found) @ y.conj().T - v_found) < 1e-6
    assert np.all(np.abs(np.abs(d_found) - 1.0) < 1e-6)
    signs = WITNESS_SIGNS.astype(complex)
    h = (d_found / d_found[0]) * np.conj(signs / signs[0])
    u, v, w = h[7], h[4], h[2]
    assert abs(h[1] - 1.0) < 1e-6
    assert abs(h[3] - u * v) < 1e-6
    assert abs(h[5] - u * w) < 1e-6
    assert abs(h[6] - v * w) < 1e-6
    assert abs(u * v * w - 1.0) < 1e-6


def test_criterion_1_paper_example_reproduction():
    with criterion(1, "paper example EQUIVALENT with gauge-matched phases, < 5 s"):
        for a, b, c in TRIPLES:
            rho, rho_prime = lq.paper_example(a, b, c)
            start = time.perf_counter()
            verdict = lq.check_equivalence(rho, rho_prime, lq.SearchConfig(seed=1))
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, f"triple {(a, b, c)} took {elapsed:.2f}s"
            assert verdict.status is lq.VerdictStatus.EQUIVALENT, (a, b, c)
            assert verdict.witness_residual < 1e-8
            _assert_gauge_equivalent_to_paper_signs(verdict, a, b, c)


def test_criterion_2_reference_matrix_regression():
    with criterion(2, "reference V / realignment regression and rank-one ratios"):
        x_disp, y_disp = reference_basis_pair()
        rng = np.random.default_rng(2)
        random_d = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 8))
        for d in [WITNESS_SIGNS.astype(complex), random_d]:
            v = _build_v(x_disp, y_disp, np.angle(d))
            assert np.allclose(v, reference_v(d), atol=1e-12)
            assert np.allclose(
                lq.realign(v, TRIPARTITE, 1), reference_cut1(d), atol=1e-12
            )
            assert np.allclose(
                lq.realign(v, TRIPARTITE, 2), reference_cut2(d), atol=1e-12
            )
        # witness phases: zero pattern matches and both realignments are rank one
        v_w = _build_v(x_disp, y_disp, _witness_phases())
        mask_got = np.abs(v_w) > 1e-12
        mask_want = np.abs(reference_v(WITNESS_SIGNS.astype(complex))) > 1e-12
        assert np.array_equal(mask_got, mask_want)
        for cut in (1, 2):
            report = lq.rank_one_test(lq.realign(v_w, TRIPARTITE, cut), 1e-7, cut=cut)
            assert report.rank_one and report.ratio < 1e-10
        # same rank-one claim for the eigenvalue-paired bases of the actual states
        for a, b, c in TRIPLES:
            x, y, _ = example_bases(a, b, c)
            v_true = _build_v(x, y, _witness_phases())
            for cut in (1, 2):
                ratio = lq.rank_one_test(
                    lq.realign(v_true, TRIPARTITE, cut), 1e-7
                ).ratio
                assert ratio < 1e-10
            rho, rho_prime = lq.paper_example(a, b, c)
            assert (
                np.linalg.norm(
                    v_true.conj().T @ rho.matrix @ v_true - rho_prime.matrix
                )
                < 1e-12
            )


def test_criterion_3_planted_pair_suite():
    with criterion(3, ">= 95% verified EQUIVALENT on planted pairs, < 2 min"):
        start = time.perf_counter()
        for dims, count in [((2, 2, 2), 100), ((2, 2, 3), 50)]:
            profile = lq.DimProfile(dims)
            wins = 0
            for seed in range(count):
                sample = lq.make_equivalent_pair(profile, seed)
                verdict = lq.check_equivalence(
                    sample.rho, sample.rho_prime, lq.SearchConfig(seed=seed)
                )
                assert verdict.status is not lq.VerdictStatus.INEQUIVALENT_SPECTRUM
                if verdict.status is lq.VerdictStatus.EQUIVALENT:
                    assert verdict.witness_residual < 1e-8
                    wins += 1
            assert wins >= 0.95 * count, f"dims {dims}: {wins}/{count}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"suite took {elapsed:.1f}s"


def test_criterion_4_negative_suite():
    with criterion(4, "100/100 spectrum-mismatch plants flagged INEQUIVALENT_SPECTRUM"):
        for seed in range(100):
            sample = lq.make_spectrum_mismatch_pair(TRIPARTITE, seed)
            verdict = lq.check_equivalence(
                sample.rho, sample.rho_prime, lq.SearchConfig(seed=seed)
            )
            assert verdict.status is lq.VerdictStatus.INEQUIVALENT_SPECTRUM, seed


def _random_profile(rng) -> lq.DimProfile:
    while True:
        m = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(m))
        if np.prod(dims) <= 24:
            return lq.DimProfile(dims)


def test_criterion_5_decomposability_oracle_equivalence():
    with criterion(5, "rank-one criterion vs construction on 400 unitaries"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            profile = _random_profile(rng)
            v = lq.kron_all([lq.haar_unitary(d, rng) for d in profile.dims])
            reports, fs = lq.factor_full(v, profile, 1e-7)
            assert fs is not None and all(r.ratio < 1e-12 for r in reports), profile.dims
            assert fs.factorization_residual < 1e-9, profile.dims
        for _ in range(200):
            profile = _random_profile(rng)
            v = lq.haar_unitary(profile.total, rng)
            reports, fs = lq.factor_full(v, profile, 1e-7)
            assert fs is None, profile.dims
            assert max(r.ratio for r in reports) > 1e-2, profile.dims


def test_criterion_6_realignment_index_oracle():
    with criterion(6, "realign equals the naive index-formula oracle exactly"):
        rng = np.random.default_rng(6)
        dims_pool = [(2, 2), (2, 3), (2, 2, 2), (2, 3, 2)]
        for trial in range(50):
            dims = dims_pool[trial % len(dims_pool)]
            profile = lq.DimProfile(dims)
            n = profile.total
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for cut in range(1, profile.nsites):
                got = lq.realign(z, profile, cut)
                want = realign_index_oracle(z, dims, cut)
                assert np.array_equal(got, want), (dims, cut)


def test_criterion_7_soundness_of_equivalent_verdicts():
    with criterion(7, "every EQUIVALENT verdict ships a verified witness"):
        cases = []
        rho, rho_prime = lq.paper_example(3, 5, 7)
        cases.append((rho, rho_prime, lq.SearchConfig(seed=7)))
        for seed in range(15):
            s = lq.make_equivalent_pair(TRIPARTITE, 700 + seed)
            cases.append((s.rho, s.rho_prime, lq.SearchConfig(seed=seed)))
        for seed in range(5):
            s = lq.make_equivalent_pair(lq.DimProfile((2, 3)), 730 + seed)
            cases.append((s.rho, s.rho_prime, lq.SearchConfig(seed=seed)))
        for seed in range(10):
            s = lq.make_degenerate_pair(TRIPARTITE, 740 + seed)
            cases.append((s.rho, s.rho_prime, lq.SearchConfig(seed=seed)))
        equivalents = 0
        for rho, rho_prime, config in cases:
            verdict = lq.check_equivalence(rho, rho_prime, config)
            if verdict.status is lq.VerdictStatus.EQUIVALENT:
                equivalents += 1
                assert verdict.witness is not None
                residual = lq.verify_witness(rho, rho_prime, verdict.witness)
                bound = 1e-8 * max(1.0, float(np.linalg.norm(rho.matrix)))
                assert residual < bound
                assert np.isclose(residual, verdict.witness_residual, atol=1e-12)
        assert equivalents >= 25  # the property must not hold vacuously


def _multiplicity_two(dims, seed):
    sample = lq.make_degenerate_pair(lq.DimProfile(dims), seed)
    return sample.rho, sample.rho_prime


def test_criterion_8_degenerate_fallback():
    label = (
        ">= 80% verified EQUIVALENT on multiplicity-2, multiplicity-3 and rank-2 plants "
        "(block-unitary coset)"
    )
    with criterion(8, label):
        classes = [
            ("multiplicity-2 (2,2)", lambda seed: _multiplicity_two((2, 2), seed)),
            ("multiplicity-2 (2,2,2)", lambda seed: _multiplicity_two((2, 2, 2), seed)),
            ("multiplicity-3 (2,2,2)", lambda seed: degenerate_plant((2, 2, 2), seed, tie=3)),
            ("rank-2 (2,2,2)", lambda seed: degenerate_plant((2, 2, 2), seed, rank=2)),
        ]
        for name, make in classes:
            wins = 0
            for seed in range(50):
                rho, rho_prime = make(seed)
                verdict = lq.check_equivalence(rho, rho_prime, lq.SearchConfig(seed=seed))
                if verdict.status is lq.VerdictStatus.EQUIVALENT:
                    assert verdict.degenerate_fallback
                    assert verdict.witness_residual < 1e-8
                    wins += 1
            assert wins >= 40, f"{name}: {wins}/50"
