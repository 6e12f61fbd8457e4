"""Text file format for complex matrices: JSON with [re, im] entry pairs.

Square multipartite operators carry a ``dims`` header (data length is the
square of the product of dims); general rectangular matrices (realignment
output) carry an explicit ``shape`` instead.  Floats are written with repr
precision, so a write/read round trip is value-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

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


def _encode_data(m: np.ndarray) -> list[list[float]]:
    flat = m.reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def dump_matrix(
    m,
    dims: tuple[int, ...] | list[int] | None = None,
    label: str | None = None,
    seed: int | None = None,
) -> str:
    """Serialize a matrix; square operators should pass their dims."""
    m = as_cmatrix(m)
    doc: dict = {}
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        n = int(np.prod(dims))
        if m.shape != (n, n):
            raise MatrixFileError(f"matrix shape {m.shape} does not match dims {dims}")
        doc["dims"] = list(dims)
    else:
        doc["shape"] = [int(m.shape[0]), int(m.shape[1])]
    if label is not None:
        doc["label"] = label
    if seed is not None:
        doc["seed"] = int(seed)
    doc["data"] = _encode_data(m)
    return json.dumps(doc, indent=None, separators=(",", ":")) + "\n"


def save_matrix(path, m, dims=None, label=None, seed=None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_matrix(m, dims=dims, label=label, seed=seed))


def _int_list(doc: dict, key: str) -> tuple[int, ...]:
    value = doc[key]
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value
    ):
        raise MatrixFileError(f"'{key}' must be a list of positive integers")
    return tuple(value)


def _entries(data) -> np.ndarray:
    """The [re, im] pairs of 'data' as a flat complex vector, in one conversion."""
    try:
        pairs = np.array(data)
    except ValueError:  # ragged nesting
        pairs = None
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise MatrixFileError("'data' must be a list of [re, im] pairs")
    if pairs.dtype.kind not in "iuf":
        raise MatrixFileError("'data' entries must be JSON numbers")
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128).reshape(-1)


def parse_matrix(text: str) -> MatrixFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"not valid JSON: {exc}") from None
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
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixFileError(f"not ASCII: {exc.reason} at byte {exc.start}") from None
    return parse_matrix(text)
