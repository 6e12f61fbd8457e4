import numpy as np
import pytest

from luequiv import DimProfile, MatrixFileError, load_matrix, save_matrix
from luequiv.matfile import dump_matrix, parse_matrix
from luequiv.oracle import haar_unitary, random_density


def test_roundtrip_value_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    save_matrix(path, m, dims=(2, 2), label="x", seed=9)
    back = load_matrix(path)
    assert np.array_equal(back.matrix, m)
    assert back.dims == (2, 2)
    assert back.label == "x" and back.seed == 9


def test_roundtrip_rectangular_shape(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    path = tmp_path / "r.json"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back.matrix, m)
    assert back.dims is None


def test_density_conversion(tmp_path):
    rho = random_density(DimProfile((2, 3)), "generic-nondegenerate", 7)
    path = tmp_path / "rho.json"
    save_matrix(path, rho.matrix, dims=(2, 3))
    dm = load_matrix(path).density()
    assert dm.profile.dims == (2, 3)
    assert np.array_equal(dm.matrix, rho.matrix)


def test_density_requires_dims():
    text = dump_matrix(np.eye(4))
    with pytest.raises(MatrixFileError, match="dims"):
        parse_matrix(text).density()


def test_parse_rejects_bad_json():
    with pytest.raises(MatrixFileError, match="JSON"):
        parse_matrix("{not json")


def test_parse_rejects_length_mismatch():
    text = '{"dims": [2, 2], "data": [[1, 0], [0, 0]]}'
    with pytest.raises(MatrixFileError, match="length"):
        parse_matrix(text)


def test_parse_rejects_bad_pairs():
    cases = [
        ('{"shape": [1, 2], "data": [[1, 0], [0]]}', "pairs"),
        ('{"shape": [1, 1], "data": "x"}', "pairs"),
        ('{"shape": [1, 1], "data": [["1", "0"]]}', "numbers"),
        ('{"shape": [1, 1], "data": [[null, 0]]}', "numbers"),
        ('{"shape": [1, 1], "data": [[true, false]]}', "numbers"),
        ('{"shape": [1, 1], "data": [[NaN, 0]]}', "finite"),
        ('{"shape": [1, 1], "data": [[0, -Infinity]]}', "finite"),
    ]
    for text, match in cases:
        with pytest.raises(MatrixFileError, match=match):
            parse_matrix(text)


def test_parse_rejects_bad_headers():
    cases = [
        ('{"dims": ["a", 2], "data": [[1, 0]]}', "dims"),
        ('{"dims": 2, "data": [[1, 0]]}', "dims"),
        ('{"shape": [1], "data": [[1, 0]]}', "shape"),
        ('{"shape": [1, 1], "seed": "s", "data": [[1, 0]]}', "seed"),
    ]
    for text, match in cases:
        with pytest.raises(MatrixFileError, match=match):
            parse_matrix(text)


def test_parse_requires_header():
    with pytest.raises(MatrixFileError, match="header"):
        parse_matrix('{"data": [[1, 0]]}')


def test_dump_checks_dims():
    with pytest.raises(MatrixFileError):
        dump_matrix(np.eye(3), dims=(2, 2))


def test_dump_deterministic_bytes():
    u = haar_unitary(4, 11)
    assert dump_matrix(u, dims=(2, 2)) == dump_matrix(u.copy(), dims=(2, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_save_rejects_non_finite_and_writes_no_file(tmp_path, bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    path = tmp_path / "m.json"
    with pytest.raises(MatrixFileError, match="finite"):
        save_matrix(path, m, dims=(2, 2))
    assert not path.exists()
