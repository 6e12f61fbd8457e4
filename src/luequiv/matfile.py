"""Text file format for complex matrices: JSON with [re, im] entry pairs.

Square multipartite operators carry a ``dims`` header (data length is the
square of the product of dims); general rectangular matrices (realignment
output) carry an explicit ``shape`` instead.  Floats are written with their
shortest round-trip digits, so a write/read round trip is bit-exact.

load_matrix reads a file as bytes, which must all be ASCII, with no newline
translation (JSON reads a CR as whitespace).  orjson decodes every file: it
is several times faster than the stdlib on 17-digit floats, and reads an
integer beyond 64 bits as a double.  A text it rejects (``NaN``,
``Infinity``, a number beyond the double range, a lone surrogate escape) is
not valid JSON, and so is a text that may be nested deeply enough to crash
it (NEST_CHARS).

A file's header (``dims`` or ``shape``, ``label``, ``seed``) is written by
stdlib ``json``, which escapes a non-ASCII label, so the file stays ASCII.
Its data is written by orjson, in orjson's layout of those digits (``1e16``,
``1e-7``, ``0.0000123``), which every JSON reader reads as the same doubles.

The [re, im] pairs are decoded column-wise: one type pass over the pairs,
zip(*data, strict=True) splits them into a real and an imaginary column
(a pair not of length 2 stops it), one type pass over the two columns
rejects anything but an int or a float, and one float64 fill interleaves
them into the complex vector.

parse_matrix pauses the cyclic garbage collector while the decoded document
is alive.  orjson builds one list per entry pair (4,097 lists for a 64x64
file), and every 700 new containers would start a collection that walks the
still-live tree and frees nothing: a decoded JSON tree holds no reference
cycles.  The caller's collector state is restored on every exit.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field

import numpy as np
import orjson

from .states import DensityMatrix
from .tensor import DimProfile, as_cmatrix


class MatrixFileError(ValueError):
    """Malformed matrix file."""


@dataclass(frozen=True)
class MatrixFile:
    """A parsed matrix file: either a dims-tagged operator or a plain matrix."""

    matrix: np.ndarray = field(repr=False)
    dims: tuple[int, ...] | None = None
    label: str | None = None
    seed: int | None = None

    @property
    def profile(self) -> DimProfile:
        if self.dims is None or len(self.dims) < 2:
            raise MatrixFileError("file does not declare a multipartite dims header")
        return DimProfile(self.dims)

    def density(self) -> DensityMatrix:
        return DensityMatrix(matrix=self.matrix, profile=self.profile)


def entry_pairs(m) -> np.ndarray:
    """The row-major [re, im] pairs of a matrix as a C-contiguous (n, 2)
    float64 array, a view of m when m is already C-contiguous complex128."""
    return np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).reshape(-1, 2)


def dump_matrix(
    m,
    dims: tuple[int, ...] | list[int] | None = None,
    label: str | None = None,
    seed: int | None = None,
) -> str:
    """Serialize a matrix; square operators should pass their dims.

    One ASCII line ending in a newline: a JSON object whose keys are dims
    or shape, label, seed and data, in that order.  The header is
    ``json.dumps(header, separators=(",", ":"))`` and data is orjson's
    text of the [re, im] pairs, which parse_matrix reads back bit for bit.
    A seed outside [-2**63, 2**64), which parse_matrix would refuse, is a
    MatrixFileError.
    """
    m = as_cmatrix(m)
    if not np.isfinite(m).all():  # orjson would write NaN or Infinity as null
        raise MatrixFileError("matrix entries must be finite")
    header: dict = {}
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        n = int(np.prod(dims))
        if m.shape != (n, n):
            raise MatrixFileError(f"matrix shape {m.shape} does not match dims {dims}")
        header["dims"] = list(dims)
    else:
        header["shape"] = [int(m.shape[0]), int(m.shape[1])]
    if label is not None:
        header["label"] = label
    if seed is not None:
        header["seed"] = int(seed)
        if not -(2**63) <= header["seed"] < 2**64:
            raise MatrixFileError(f"seed must lie in [-2**63, 2**64), got {seed}")
    data = orjson.dumps(entry_pairs(m), option=orjson.OPT_SERIALIZE_NUMPY)
    head = json.dumps(header, separators=(",", ":"))[:-1]  # without its "}"
    return f'{head},"data":{data.decode()}}}\n'


def save_matrix(path, m, dims=None, label=None, seed=None) -> None:
    """Write dump_matrix's text to path; a matrix or seed it rejects leaves no file."""
    text = dump_matrix(m, dims=dims, label=label, seed=seed)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _int_list(doc: dict, key: str) -> tuple[int, ...]:
    value = doc[key]
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value
    ):
        raise MatrixFileError(f"'{key}' must be a list of positive integers")
    return tuple(value)


def _entries(data) -> np.ndarray:
    """The [re, im] pairs of 'data' as a flat complex vector.

    Each entry must be an int or a float: a bool is not a number here,
    although numpy would read true as 1.
    """
    if not isinstance(data, list) or set(map(type, data)) != {list}:
        raise MatrixFileError("'data' must be a list of [re, im] pairs")
    try:  # no pairs, or one not of length 2
        reals, imags = zip(*data, strict=True)
    except ValueError:
        raise MatrixFileError("'data' must be a list of [re, im] pairs") from None
    kinds = set(map(type, reals)) | set(map(type, imags))
    if list in kinds:  # nested deeper than pairs
        raise MatrixFileError("'data' must be a list of [re, im] pairs")
    if not kinds <= {int, float}:
        raise MatrixFileError("'data' entries must be JSON numbers")
    values = np.empty(2 * len(reals))
    values[0::2] = reals
    values[1::2] = imags
    # orjson refuses NaN, Infinity and 1e400; a file is outside input, so its
    # entries are checked whatever the decoder reads
    if not np.isfinite(values).all():
        raise MatrixFileError("'data' entries must be finite")
    return values.view(np.complex128)


# orjson 3.8.3 builds the decoded tree recursively on the C stack, about 32
# bytes per character of nesting syntax: 2 for an array level ("[" "]"), at
# least 5 for an object level ('{"":' "}").  On the 8 MB stack of a Linux
# main thread it dies with SIGSEGV on a complete document holding about
# 261,000 such characters: 131,000 nested arrays, 52,000 nested objects, or
# 37,400 of each in turn (measured in child processes).  An unclosed text is
# a clean JSONDecodeError.  A text that can hold NEST_CHARS of them, 1.2 times
# fewer, is refused as nested too deeply (_decode).  That margin assumes an
# 8 MB decoding stack with at most 1.3 MB of it in use.  orjson writes a
# finite double in at most 24 characters (a sign and 17 digits, as
# -0.000012345678901234568 or -2.2250738585072014e-308), so a 64x64 file
# without a label has at most 213,052 (with a (2,)*6 dims header and a
# 20-digit seed).  NEST_CHARS exceeds that, so no such file pays for the
# count.
NEST_CHARS = 216_000


def _nesting_bound(text: bytes) -> int:
    """An upper bound on the characters of nesting syntax open at any one
    point of a complete JSON document with this text (_decode)."""
    return 2 * (text.count(b"[") - text.count(b"],[")) + 5 * text.count(b"{")


def _decode(text: bytes):
    """The JSON document of an ASCII text's bytes."""
    # a complete document with NEST_CHARS characters of nesting syntax is at
    # least that long, and each of its levels opens with a "[" or a "{".
    # At any point p the open array levels number the "[" before p less the
    # "]" before p.  Each real "],[" has its "]" before p or its "[" after p,
    # so they number at most the text's "[" less its "],[" (a "],[" inside a
    # string takes back a "[" that the same string added).  A file of
    # D >= 329 has one "[" per entry pair but a "],[" between pairs, so its
    # bound stays small.  Removing JSON whitespace keeps every "[" and "{"
    # and the document's structure, and a "],[" it joins lies between two
    # values or inside one string, so the bound of the stripped text holds
    # too; it takes the "], [" between pairs that json.dumps writes.
    if (
        len(text) >= NEST_CHARS
        and _nesting_bound(text) >= NEST_CHARS
        and _nesting_bound(text.translate(None, b" \t\n\r")) >= NEST_CHARS
    ):
        raise MatrixFileError("not valid JSON: nested too deeply")
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise MatrixFileError(f"not valid JSON: {exc}") from None


def parse_matrix(text: bytes | str) -> MatrixFile:
    """The matrix file of an ASCII text's bytes, decoded with the cyclic
    collector paused.  A str is encoded to UTF-8 first, so the nesting guard
    counts it as it counts bytes (a lone surrogate stays not valid JSON)."""
    if isinstance(text, str):
        text = text.encode(errors="surrogatepass")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:  # on a return, _parse's frame and its decoded tree are freed already
        if enabled:
            gc.enable()


def _parse(text: bytes) -> MatrixFile:
    doc = _decode(text)
    if not isinstance(doc, dict) or "data" not in doc:
        raise MatrixFileError("matrix file must be a JSON object with a 'data' field")
    flat = _entries(doc["data"])
    if "dims" in doc:
        dims = _int_list(doc, "dims")
        n = math.prod(dims)
        if flat.size != n * n:
            raise MatrixFileError(
                f"data length {flat.size} != (product of dims)^2 = {n * n}"
            )
        m = flat.reshape(n, n)
    elif "shape" in doc:
        shape = _int_list(doc, "shape")
        if len(shape) != 2:
            raise MatrixFileError("'shape' must be [rows, cols]")
        rows, cols = shape
        if flat.size != rows * cols:
            raise MatrixFileError(f"data length {flat.size} != shape {rows}x{cols}")
        m = flat.reshape(rows, cols)
        dims = None
    else:
        raise MatrixFileError("matrix file needs a 'dims' or 'shape' header")
    label = doc.get("label")
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise MatrixFileError("'seed' must be an integer")
    return MatrixFile(
        matrix=m,
        dims=dims,
        label=None if label is None else str(label),
        seed=seed,
    )


def load_matrix(path) -> MatrixFile:
    """The matrix file at path, read as bytes, which must all be ASCII."""
    with open(path, "rb") as fh:
        text = fh.read()
    if not text.isascii():
        start = next(i for i, byte in enumerate(text) if byte > 127)
        raise MatrixFileError(f"not ASCII: ordinal not in range(128) at byte {start}")
    return parse_matrix(text)
