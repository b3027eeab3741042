"""File formats: matrix JSON, report JSON, CSV.

Matrix interchange format is a JSON object

    { "n": <int>, "entries": [[re, im], ...] }

with exactly n^2 [re, im] pairs in row-major order. Parsers reject
wrong-length arrays and non-finite numbers. All writers are deterministic
(sorted keys, fixed float formatting), so identical inputs produce
byte-identical files. A matrix goes through json's C encoder, which
writes the bytes of its pure-Python one.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Iterable

import numpy as np

from .linalg import as_matrix

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


def load_matrix(path: str) -> np.ndarray:
    """Read one matrix, raising MatrixFormatError with file and field context."""
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
    return flat.view(np.complex128).reshape(n, n)


def matrix_payload(m) -> dict:
    """One matrix as the interchange object, ready for json."""
    m = np.ascontiguousarray(as_matrix(m))
    return {"entries": m.view(np.float64).reshape(-1, 2).tolist(), "n": m.shape[0]}


def save_matrix(path: str, m) -> None:
    """Write one matrix in the interchange format."""
    text = json.dumps(matrix_payload(m), sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def format_float(x: float) -> str:
    """17 significant digits, '.' decimal separator."""
    return format(x, ".17g")


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write rows of floats/ints/strings; floats via format_float."""
    def cell(x) -> str:
        if isinstance(x, float):
            return format_float(x)
        return str(x)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(x) for x in row) + "\n")


def save_json(path: str | None, obj) -> str:
    """Serialize deterministically, raising ValueError on a NaN or infinity,
    which JSON has no literal for; write to path when given. Returns the text."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
