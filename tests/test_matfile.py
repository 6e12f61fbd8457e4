import gc
import json

import numpy as np
import pytest

from luequiv import DimProfile, MatrixFileError, load_matrix, save_matrix
from luequiv import matfile
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
    # random finite bit patterns, subnormals, +-0.0 and the largest double,
    # compared bit for bit
    bits = rng.integers(0, 2**64, size=2 * 64 * 64, dtype=np.uint64).view(np.float64)
    parts = np.where(np.isfinite(bits), bits, 1.0)
    parts[:8] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                 1.7976931348623157e308, -1.7976931348623157e308, 1e-310]
    m = parts.view(np.complex128).reshape(64, 64)
    save_matrix(path, m, dims=(4, 4, 4))
    back = load_matrix(path)
    assert np.array_equal(back.matrix.view(np.uint64), m.view(np.uint64))


def test_roundtrip_rectangular_shape(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    path = tmp_path / "r.json"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back.matrix, m)
    assert back.dims is None


def test_crlf_copy_loads_bit_identically(tmp_path):
    # files are read as bytes, with no newline translation: JSON reads a CR
    # between tokens as whitespace
    rng = np.random.default_rng(11)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    path = tmp_path / "m.json"
    save_matrix(path, m, dims=(2, 2, 2), label="x", seed=4)
    pretty = json.dumps(json.loads(path.read_text()), indent=1)
    for i, text in enumerate([path.read_text(), pretty]):
        copy = tmp_path / f"crlf{i}.json"
        copy.write_bytes(text.replace("\n", "\r\n").encode())
        assert copy.read_bytes().count(b"\r\n") == text.count("\n") > 0
        back = load_matrix(copy)
        assert np.array_equal(back.matrix.view(np.uint64), m.view(np.uint64))
        assert (back.dims, back.label, back.seed) == ((2, 2, 2), "x", 4)


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


def test_parse_refuses_a_label_packed_with_brackets():
    # the nesting bound counts the brackets of strings too: a text of
    # NEST_CHARS characters whose label holds 216,000 "[" is refused, with or
    # without JSON whitespace, and as a str, although it is no deeper than a
    # file of pairs
    head = b'{"dims": [1, 1], "label": "' + b"[" * 216_000 + b'", "data": '
    texts = (head + b"[[1, 0]]}", head.replace(b" ", b"") + b"[[1,0]]}")
    for text in (*texts, texts[0].decode()):
        assert len(text) >= matfile.NEST_CHARS
        with pytest.raises(MatrixFileError, match="^not valid JSON: nested too deeply$"):
            parse_matrix(text)


def _no_json(*args, **kwargs):
    raise AssertionError("stdlib json decoded the text")


def test_parse_reads_the_longest_64x64_file_with_orjson_and_no_count(monkeypatch):
    # every entry one of orjson's two 24-character spellings (a sign and 17
    # digits, behind "0.0000" or before a three-digit negative exponent), the
    # longest dims header of D = 64 and a 20-digit seed: the longest file
    # dump_matrix writes for D = 64 without a label, shorter than NEST_CHARS,
    # so the nesting count never runs, and orjson decodes it
    m = np.full((64, 64), complex(-2.2250738585072014e-308, -1.2345678901234567e-05))
    text = dump_matrix(m, dims=(2,) * 6, seed=2**64 - 1)
    assert "[-2.2250738585072014e-308,-0.000012345678901234568]" in text
    assert len(text) == 213_052 < matfile.NEST_CHARS
    monkeypatch.setattr(matfile.json, "loads", _no_json)
    assert np.array_equal(parse_matrix(text).matrix, m)


def _random_file(n: int, dims: tuple[int, ...]):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m, dump_matrix(m, dims=dims).encode()


def test_parse_reads_a_file_of_330_levels_with_orjson(monkeypatch):
    # one "[" per entry pair puts the text over 2 * count("[") >= NEST_CHARS,
    # but a "],[" between each two pairs takes the guard's bound down to 11:
    # orjson decodes it, bit for bit
    m, text = _random_file(330, (10, 33))
    assert 2 * text.count(b"[") >= matfile.NEST_CHARS
    monkeypatch.setattr(matfile.json, "loads", _no_json)
    back = parse_matrix(text)
    assert back.dims == (10, 33)
    assert np.array_equal(back.matrix.view(np.uint64), m.view(np.uint64))


@pytest.mark.parametrize("indent", [None, 1], ids=["default-separators", "indent-1"])
def test_load_reads_a_file_of_330_levels_that_json_dumps_wrote(tmp_path, monkeypatch, indent):
    # json.dumps writes "], [" or "],\n  [" between pairs, which the bound of
    # the text as written does not take off; with its whitespace removed the
    # bound stays small, and orjson decodes the file, bit for bit
    m, text = _random_file(330, (10, 33))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(json.loads(text), indent=indent))
    assert b"],[" not in path.read_bytes()
    assert matfile._nesting_bound(path.read_bytes()) >= matfile.NEST_CHARS
    monkeypatch.setattr(matfile.json, "loads", _no_json)
    back = load_matrix(path)
    assert back.dims == (10, 33)
    assert np.array_equal(back.matrix.view(np.uint64), m.view(np.uint64))


def test_parse_reads_a_512x512_file(monkeypatch):
    m, text = _random_file(512, (8, 8, 8))
    monkeypatch.setattr(matfile.json, "loads", _no_json)
    back = parse_matrix(text)
    assert back.dims == (8, 8, 8) and np.array_equal(back.matrix, m)


def test_parse_starts_no_garbage_collection():
    # orjson builds 4,097 lists for a 64x64 file; with the collector running,
    # five parses start 25 collections that free nothing
    rho = random_density(DimProfile((4, 4, 4)), "generic-nondegenerate", 1)
    text = dump_matrix(rho.matrix, dims=(4, 4, 4))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        for _ in range(5):
            parse_matrix(text)
    finally:
        gc.callbacks.remove(hook)
    assert starts == []


def _parse_outcome(text: bytes | str):
    try:
        parse_matrix(text)
    except MatrixFileError as exc:
        return str(exc)
    return "parsed"


@pytest.mark.parametrize(
    "text, outcome",
    [
        ('{"shape": [1, 1], "data": [[1, 0.5]]}', "parsed"),
        ('{"shape": [1, 1], "data": [[true, 0.5]]}', "'data' entries must be JSON numbers"),
        ('{"shape": [1, 1], "data": [[NaN, 0.5]]}', "not valid JSON"),
        ("{not json", "not valid JSON"),
        # refused by the nesting guard, before orjson reads it
        (b'{"dims":[2,2],"data":' + b"[" * matfile.NEST_CHARS, "not valid JSON: nested too deeply"),
    ],
    ids=["parsed", "entries-error", "fallback-entries-error", "fallback-json-error", "nested"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_parse_restores_the_collector_state(text, outcome, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _parse_outcome(text).startswith(outcome)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_parse_rejects_length_mismatch():
    text = '{"dims": [2, 2], "data": [[1, 0], [0, 0]]}'
    with pytest.raises(MatrixFileError, match="length"):
        parse_matrix(text)


def test_parse_rejects_bad_pairs():
    cases = [
        ('{"shape": [1, 2], "data": [[1, 0], [0]]}', "pairs"),
        ('{"shape": [1, 1], "data": "x"}', "pairs"),
        ('{"shape": [1, 1], "data": []}', "pairs"),
        ('{"shape": [1, 1], "data": [[1, 0, 0]]}', "pairs"),
        ('{"shape": [1, 2], "data": [[1, 0], [0, 0, 0]]}', "pairs"),
        ('{"shape": [1, 2], "data": [[1, 0], "10"]}', "pairs"),
        ('{"shape": [1, 2], "data": [[1, 0], {"a": 1, "b": 0}]}', "pairs"),
        ('{"shape": [1, 1], "data": {"ab": 1, "cd": 0}}', "pairs"),
        ('{"shape": [1, 1], "data": [[[1], [0]]]}', "pairs"),
        ('{"shape": [1, 1], "data": [["1", "0"]]}', "numbers"),
        ('{"shape": [1, 1], "data": [[null, 0]]}', "numbers"),
        ('{"shape": [1, 1], "data": [[true, false]]}', "numbers"),
        ('{"shape": [1, 1], "data": [[true, 0.5]]}', "numbers"),
        ('{"shape": [1, 1], "data": [[0, false]]}', "numbers"),
        ('{"shape": [1, 1], "data": [[NaN, 0]]}', "not valid JSON"),
        ('{"shape": [1, 1], "data": [[0, -Infinity]]}', "not valid JSON"),
        ('{"shape": [1, 1], "data": [[1e400, 0]]}', "not valid JSON"),
    ]
    for text, match in cases:
        with pytest.raises(MatrixFileError, match=match):
            parse_matrix(text)
    # orjson reads no non-finite number, so only a decoded list can hold one
    for bad in (float("nan"), float("inf")):
        with pytest.raises(MatrixFileError, match="'data' entries must be finite"):
            matfile._entries([[1.0, 0.0], [bad, 0.0]])


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


def test_integers_beyond_64_bits_read_as_doubles():
    mf = parse_matrix(
        '{"shape": [1, 1], "seed": 18446744073709551615,'
        ' "data": [[1000000000000000000000000000000, -9223372036854775808]]}'
    )
    assert mf.matrix[0, 0] == complex(1e30, -(2.0**63))
    assert mf.seed == 2**64 - 1
    text = '{"shape": [1, 1], "label": "x", "seed": 18446744073709551616, "data": [[1, 0]]}'
    with pytest.raises(MatrixFileError, match="'seed' must be an integer"):
        parse_matrix(text)
    # orjson refuses a lone surrogate, escaped or as a character of a str
    for surrogate in ('"\\ud800"', '"\ud800"'):
        with pytest.raises(MatrixFileError, match="^not valid JSON: "):
            parse_matrix(text.replace('"x"', surrogate))


def test_parse_requires_header():
    with pytest.raises(MatrixFileError, match="header"):
        parse_matrix('{"data": [[1, 0]]}')


def test_dump_checks_dims():
    with pytest.raises(MatrixFileError):
        dump_matrix(np.eye(3), dims=(2, 2))


def _assert_round_trip(m, head: dict, **meta) -> str:
    """dump_matrix's text of m: one ASCII line, the header json.dumps gives,
    and data that parse_matrix and stdlib json both read back bit for bit."""
    text = dump_matrix(m, **meta)
    assert text.isascii() and text.endswith("\n") and text.count("\n") == 1
    assert text.startswith(json.dumps(head, separators=(",", ":"))[:-1] + ',"data":[')
    bits = np.asarray(m, dtype=complex).view(np.uint64)
    back = parse_matrix(text.encode())
    assert np.array_equal(back.matrix.view(np.uint64), bits)
    stdlib = np.array(json.loads(text)["data"], dtype=np.float64).view(np.complex128)
    assert np.array_equal(stdlib.reshape(m.shape).view(np.uint64), bits)
    return text


def test_dump_round_trips_every_value_bitwise():
    m = np.array([[-0.0, 5e-324 - 1e-310j], [1.7976931348623157e308j, complex(0.1, -0.0)]])
    text = _assert_round_trip(m, {"shape": [2, 2]})
    assert dump_matrix(m.T.copy().T) == text  # column-major storage
    # orjson writes the data as it spells it: a dims file of 131,072 seeded
    # random bit patterns (1.0 for a non-finite one) ...
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, size=2 * 256 * 256, dtype=np.uint64).view(np.float64)
    m = np.where(np.isfinite(bits), bits, 1.0).view(np.complex128).reshape(256, 256)
    _assert_round_trip(m, {"dims": [2] * 8, "seed": 29}, dims=(2,) * 8, seed=29)
    # ... and a shape file of every power of two and of ten with both
    # neighbours, zeros, subnormals and the places where orjson's layout
    # differs from repr's: the [1e-5, 1e-4) decade, one-digit and positive
    # exponents, and numbers whose text holds "0.0000" but which are no
    # decade numbers
    powers = np.array([2.0**k for k in range(-1074, 1024)]
                      + [float(f"1e{k}") for k in range(-323, 309)])
    edges = [0.0, 5e-324, 1e-323, 2.225073858507201e-308, 1e-310,
             1e-5, 9.999999999999999e-05, 1e-4, 1.5e-05, 1e-07, 1.2e-09,
             9999999999999998.0, 1e16, 1.5e16, 10.00002785, 100000.00001234]
    values = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), edges]
    )
    values = values[np.isfinite(values)]
    m = np.concatenate([values, -values]).view(np.complex128).reshape(1, -1)
    _assert_round_trip(m, {"shape": list(m.shape)})


def test_dump_keeps_a_non_ascii_label_escaped(tmp_path):
    # json writes the header, so the label is escaped and the file stays
    # ASCII, even where the label reads like the numbers orjson writes
    label = "ρ′ 1e16 0.00001 e-7 [0.00001,1e-7]"
    m = np.diag([1e16, 1e-5j, 1e-7, 0.25])
    _assert_round_trip(m, {"dims": [2, 2], "label": label}, dims=(2, 2), label=label)
    path = tmp_path / "l.json"
    save_matrix(path, m, dims=(2, 2), label=label)
    assert path.read_bytes().isascii()
    assert load_matrix(path).label == label


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
