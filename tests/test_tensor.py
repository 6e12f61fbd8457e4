import math

import numpy as np
import pytest

from luequiv import DimProfile, ShapeError, kron_all, realign
from luequiv.oracle import haar_unitary
from luequiv.tensor import as_cmatrix, partial_trace

from helpers import partial_trace_oracle, realign_index_oracle


# a unit-dimension site shows the row-major vec convention directly: across
# (N, 1) the realignment is vec(Z) as a column, across (1, N) as a row


def test_vec_row_major():
    got = realign([[1, 2], [3, 4]], DimProfile((2, 1)), 1)
    assert np.array_equal(got, [[1], [2], [3], [4]])


def test_vec_scalar_matrix():
    assert np.array_equal(realign([[2.5 - 1j]], DimProfile((1, 1)), 1), [[2.5 - 1j]])


def test_vec_complex_entries():
    got = realign([[0, 1j], [-1j, 0]], DimProfile((1, 2)), 1)
    assert np.array_equal(got, [[0, 1j, -1j, 0]])


def test_kron_identity():
    assert np.array_equal(kron_all([np.eye(2), np.eye(2)]), np.eye(4))


def test_kron_block_expansion():
    sx = np.array([[0, 1], [1, 0]])
    got = kron_all([[[1, 2], [3, 4]], sx])
    expected = np.array(
        [
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(got, expected)


def test_kron_associative():
    rng = np.random.default_rng(3)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    left = kron_all([kron_all([a, b]), c])
    right = kron_all([a, kron_all([b, c])])
    assert np.allclose(left, right, atol=1e-14)
    assert np.allclose(kron_all([a, b, c]), left, atol=1e-14)
    assert np.allclose(np.kron(np.kron(a, b), c), left, atol=1e-14)


def test_realign_identity_rank_one():
    got = realign(np.eye(4), DimProfile((2, 2)), 1)
    expected = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex)
    assert np.array_equal(got, expected)
    assert np.linalg.matrix_rank(got) == 1


def test_realign_kron_is_outer_product():
    rng = np.random.default_rng(11)
    for _ in range(10):
        v1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = realign(np.kron(v1, v2), DimProfile((2, 2)), 1)
        assert np.array_equal(got, np.outer(v1.reshape(-1), v2.reshape(-1)))


def test_realign_matches_index_oracle():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = realign(z, DimProfile((2, 2)), 1)
    assert np.array_equal(got, realign_index_oracle(z, (2, 2), 1))


def test_realign_shape_error_names_cut():
    with pytest.raises(ShapeError, match="cut 1"):
        realign(np.eye(3), DimProfile((2, 2)), 1)


def test_realign_bad_cut():
    with pytest.raises(ValueError, match="cut"):
        realign(np.eye(4), DimProfile((2, 2)), 2)


def test_realign_all_bipartite_length():
    profile = DimProfile((2, 2))
    out = [realign(np.eye(4), profile, k) for k in range(1, profile.nsites)]
    assert len(out) == 1 and out[0].shape == (4, 4)


def test_realign_all_tripartite_shapes():
    profile = DimProfile((2, 2, 2))
    out = [realign(np.eye(8), profile, k) for k in range(1, profile.nsites)]
    assert [o.shape for o in out] == [(4, 16), (16, 4)]


def test_realign_all_four_qubit_shapes():
    profile = DimProfile((2, 2, 2, 2))
    out = [realign(np.eye(16), profile, k) for k in range(1, profile.nsites)]
    assert [o.shape for o in out] == [(4, 64), (16, 16), (64, 4)]


def test_realign_preserves_frobenius_norm():
    rng = np.random.default_rng(17)
    z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    profile = DimProfile((2, 3, 2))
    for r in [realign(z, profile, k) for k in range(1, profile.nsites)]:
        assert np.isclose(np.linalg.norm(r), np.linalg.norm(z), atol=0)


def test_realign_all_product_unitary_rank_one_everywhere():
    rng = np.random.default_rng(19)
    factors = [haar_unitary(2, rng), haar_unitary(2, rng), haar_unitary(2, rng)]
    v = kron_all(factors)
    profile = DimProfile((2, 2, 2))
    for r in [realign(v, profile, k) for k in range(1, profile.nsites)]:
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[1] / sv[0] < 1e-12


def test_realign_tolerates_unit_dimensions():
    profile = DimProfile((1, 4))
    out = [realign(np.eye(4), profile, k) for k in range(1, profile.nsites)]
    assert [o.shape for o in out] == [(1, 16)]
    assert np.linalg.matrix_rank(out[0]) == 1


def test_as_cmatrix_and_kron_all_refuse_what_forms_no_matrix():
    with pytest.raises(ShapeError, match="expected a 2-D matrix, got ndim=1"):
        as_cmatrix(np.ones(3))
    with pytest.raises(ValueError, match="kron_all needs at least one matrix"):
        kron_all([])


def test_dim_profile_validation():
    with pytest.raises(ValueError):
        DimProfile((4,))
    with pytest.raises(ValueError):
        DimProfile((2, 0))
    p = DimProfile((2, 3, 2))
    assert p.total == 12
    assert p.split(1) == (2, 6)
    assert p.split(2) == (6, 2)


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 1, 3), (1, 2, 2)], ids=["2x3x2", "2x1x3", "1x2x2"])
def test_partial_trace_of_a_matrix_and_a_stack_against_loop_oracle(dims):
    # any square operator, not only a state: a complex Gaussian matrix is
    # neither Hermitian nor of unit trace, and a (2, D, D) stack is traced
    # matrix by matrix
    rng = np.random.default_rng(11)
    n = math.prod(dims)
    stack = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    for site in range(len(dims)):
        want = np.array([partial_trace_oracle(m, dims, site) for m in stack])
        assert np.allclose(partial_trace(stack[0], dims, site), want[0], rtol=0, atol=1e-12)
        assert np.allclose(partial_trace(stack, dims, site), want, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="site must be in"):
        partial_trace(stack, dims, len(dims))
    with pytest.raises(ShapeError):
        partial_trace(stack[:, 1:], dims, 0)
