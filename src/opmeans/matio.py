"""File formats: matrix JSON, report JSON, CSV.

Matrix interchange format is a JSON object

    { "n": <int>, "entries": [[re, im], ...] }

with exactly n^2 [re, im] pairs in row-major order. Parsers reject
wrong-length arrays and non-finite numbers. All writers are deterministic
(sorted keys, fixed float formatting), so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
    flat = np.empty(n * n, dtype=np.complex128)
    for idx, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise MatrixFormatError(f"{path}: entries[{idx}] must be a [re, im] pair")
        re, im = pair
        if not (_is_number(re) and _is_number(im)):
            raise MatrixFormatError(f"{path}: entries[{idx}] must hold two numbers")
        try:
            finite = math.isfinite(re) and math.isfinite(im)
        except OverflowError:  # an integer literal beyond the double range
            finite = False
        if not finite:
            raise MatrixFormatError(f"{path}: entries[{idx}] must be finite")
        flat[idx] = complex(re, im)
    return flat.reshape(n, n)


def matrix_payload(m) -> dict:
    """One matrix as the interchange object, ready for json."""
    m = as_matrix(m)
    return {
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel(order="C")],
        "n": m.shape[0],
    }


def save_matrix(path: str, m) -> None:
    """Write one matrix in the interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_payload(m), fh, sort_keys=True)
        fh.write("\n")


def format_float(x: float) -> str:
    """17 significant digits, '.' decimal separator."""
    return format(x, ".17g")


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write rows of floats/ints/strings; floats via format_float."""
    def cell(x) -> str:
        if isinstance(x, bool):
            return str(x).lower()
        if isinstance(x, float):
            return format_float(x)
        return str(x)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(x) for x in row) + "\n")


def save_json(path: str | None, obj) -> str:
    """Serialize deterministically; write to path when given. Returns the text."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
