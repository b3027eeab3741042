"""File formats: matrix JSON, report JSON, CSV.

Matrix interchange format is a JSON object

    { "n": <int>, "entries": [[re, im], ...], "frame": <base64> }

with exactly n^2 [re, im] pairs in row-major order. Parsers reject
wrong-length arrays and non-finite numbers. The optional `frame` is a
unitary matrix whose columns are eigenvectors of the matrix, as `gen`
writes them: base64 of its n^2 little-endian complex128 values in
row-major order, exact and cheap to read. A frame is only a hint, the
eigensolver's starting point: it is checked for length, finite entries
and unitarity on reading, and a frame of another matrix costs Jacobi
sweeps, never accuracy. All writers are deterministic (sorted keys, fixed
float formatting), so identical inputs produce byte-identical files. A
matrix goes through json's C encoder, which writes the bytes of its
pure-Python one; a file without a frame has the bytes it had before
frames were written.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from itertools import chain
from typing import Iterable

import numpy as np

from .linalg import as_matrix, _checked_frame

__all__ = [
    "MatrixFormatError",
    "load_matrix",
    "matrix_payload",
    "save_matrix",
    "format_float",
    "write_csv",
    "save_json",
]


class MatrixFormatError(ValueError):
    """Matrix JSON file violates the interchange schema."""


def load_matrix(path: str, with_frame: bool = False):
    """Read one matrix, raising MatrixFormatError with file and field context;
    with `with_frame`, the matrix and its frame, or None where the file has
    none. A frame is checked whether it is returned or not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past 4300 digits
        raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise MatrixFormatError(f"{path}: top level must be an object")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFormatError(f"{path}: field 'n' must be a positive integer, got {n!r}")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise MatrixFormatError(f"{path}: field 'entries' must be an array")
    if len(entries) != n * n:
        raise MatrixFormatError(
            f"{path}: field 'entries' must hold n^2 = {n * n} pairs, got {len(entries)}"
        )
    flat = None
    try:  # a well-formed file converts in one step
        if set(map(type, chain.from_iterable(entries))) <= {int, float}:
            flat = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int no float holds
        pass
    if flat is None or flat.shape != (n * n, 2) or not np.isfinite(flat).all():
        for idx, pair in enumerate(entries):  # name the first entry refused
            if not isinstance(pair, list) or len(pair) != 2:
                raise MatrixFormatError(f"{path}: entries[{idx}] must be a [re, im] pair")
            if not {type(pair[0]), type(pair[1])} <= {int, float}:
                raise MatrixFormatError(f"{path}: entries[{idx}] must hold two numbers")
            try:
                finite = math.isfinite(pair[0]) and math.isfinite(pair[1])
            except OverflowError:  # an integer literal beyond the double range
                finite = False
            if not finite:
                raise MatrixFormatError(f"{path}: entries[{idx}] must be finite")
    m, frame = flat.view(np.complex128).reshape(n, n), _frame(path, data.get("frame"), n)
    return (m, frame) if with_frame else m


def _frame(path: str, text, n: int) -> np.ndarray | None:
    """The field 'frame' decoded and checked, or None where it is absent."""
    if text is None:
        return None
    if not isinstance(text, str):
        raise MatrixFormatError(f"{path}: field 'frame' must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise MatrixFormatError(f"{path}: field 'frame' is not base64: {exc}") from exc
    if len(raw) != 16 * n * n:
        raise MatrixFormatError(
            f"{path}: field 'frame' must hold n^2 = {n * n} complex128 values, got {len(raw)} bytes")
    try:
        return _checked_frame(np.frombuffer(raw, dtype="<c16").reshape(n, n), (n, n))
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: field 'frame': {exc}") from exc


def matrix_payload(m, frame=None) -> dict:
    """One matrix as the interchange object, ready for json, with its frame
    where one is given."""
    m = np.ascontiguousarray(as_matrix(m))
    payload = {"entries": m.view(np.float64).reshape(-1, 2).tolist(), "n": m.shape[0]}
    if frame is not None:
        payload["frame"] = base64.b64encode(np.asarray(frame, dtype="<c16").tobytes()).decode("ascii")
    return payload


def save_matrix(path: str, m, frame=None) -> None:
    """Write one matrix in the interchange format, with its frame where one is given."""
    text = json.dumps(matrix_payload(m, frame), sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def format_float(x: float) -> str:
    """17 significant digits, '.' decimal separator."""
    return format(x, ".17g")


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write rows of floats/ints/strings; floats via format_float."""
    def cell(x) -> str:
        return format_float(x) if isinstance(x, float) else str(x)

    text = "\n".join([",".join(header), *(",".join(map(cell, row)) for row in rows)]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def save_json(path: str | None, obj) -> str:
    """Serialize deterministically, raising ValueError on a NaN or infinity,
    which JSON has no literal for; write to path when given. Returns the text."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
