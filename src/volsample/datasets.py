"""Dataset ingestion: dense CSV and sparse libsvm-style text files.

CSV: one row per line, comma separated, last column is the response; a
header line is auto-detected (any non-numeric token in the first line).
The body is parsed by one bulk ``np.loadtxt`` call.  Only when that call
refuses the body, or finds fewer than two columns, does a line-by-line
loop run: it names the first bad line in the error, or, for values that
Python's ``float()`` accepts but numpy's parser does not (``1_0``,
non-ASCII digits, whitespace-only lines), returns the same array.
LibSVM: ``<label> <index>:<value> ...`` with 1-based indices, densified to
0-based columns with missing entries as 0.0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, TooLarge
from .regression import RegressionProblem

FORMATS = ("csv", "libsvm")


@dataclass(frozen=True)
class Dataset:
    problem: RegressionProblem
    source: str
    format: str
    feature_count: int
    row_count: int


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _numbered(lines, start: int = 1):
    """Yield (line number, line) for the non-blank lines, the first one
    numbered ``start``."""
    return ((no, ln) for no, ln in enumerate(lines, start=start) if ln.strip())


def _reject_non_finite(values: np.ndarray, text: str, first: int) -> None:
    """Raise ParseError at the first row holding a nan or an infinity.

    Row r of ``values`` came from non-blank line ``first + r`` of ``text``.
    """
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        index = first + int(bad.argmax())
        lineno, _ = next(itertools.islice(_numbered(text.splitlines()), index, None))
        raise ParseError("non-finite value", line=lineno)


def _parse_csv_lines(lines) -> np.ndarray:
    """Parse numbered CSV lines one at a time with ``float()``.

    The error path of ``parse_csv_text``: raises the ParseError or
    DimensionMismatch naming the first bad line, or returns the rows when
    every value is one ``float()`` accepts.
    """
    rows = []
    width = None
    for lineno, line in lines:
        tokens = [t.strip() for t in line.split(",")]
        try:
            vals = [float(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if width is None:
            width = len(vals)
            if width < 2:
                raise ParseError("need at least one feature column and a "
                                 "response column", line=lineno)
        elif len(vals) != width:
            raise DimensionMismatch(
                f"line {lineno}: expected {width} columns, got {len(vals)}")
        rows.append(vals)
    if not rows:
        raise ParseError("no data rows")
    return np.asarray(rows)


def parse_csv_text(text: str, source: str = "<string>") -> Dataset:
    lines = text.splitlines()
    head = next(_numbered(lines), None)
    if head is None:
        raise ParseError("empty file")
    first = [t.strip() for t in head[1].split(",")]
    header = not all(_is_float(t) for t in first)
    skip = head[0] if header else head[0] - 1  # lines before the body
    body = lines[skip:]
    arr = None
    if any(map(str.strip, body)):  # loadtxt warns on a body with no data
        try:
            arr = np.loadtxt(body, delimiter=",", comments=None,
                             dtype=np.float64, ndmin=2)
        except ValueError:
            pass
    if arr is None or arr.shape[1] < 2:
        arr = _parse_csv_lines(_numbered(body, start=skip + 1))
    _reject_non_finite(arr, text, int(header))
    problem = RegressionProblem(X=arr[:, :-1], y=arr[:, -1])
    return Dataset(problem=problem, source=source, format="csv",
                   feature_count=arr.shape[1] - 1, row_count=arr.shape[0])


def parse_libsvm_text(text: str, source: str = "<string>") -> Dataset:
    labels = []
    entries = []  # per-row {0-based col: value}
    max_col = 0
    for lineno, line in _numbered(text.splitlines()):
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", line=lineno) from None
        row = {}
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ParseError(f"expected index:value, got {tok!r}", line=lineno)
            idx_s, val_s = tok.split(":", 1)
            try:
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ParseError(f"bad pair {tok!r}", line=lineno) from None
            if idx < 1:
                raise ParseError(f"libsvm indices are 1-based, got {idx}",
                                 line=lineno)
            row[idx - 1] = val
            max_col = max(max_col, idx)
        entries.append(row)
    if not entries:
        raise ParseError("empty file")
    if max_col == 0:
        raise ParseError("no features found")
    try:
        X = np.zeros((len(entries), max_col))
    except (MemoryError, ValueError):  # refused, or past numpy's size limit
        raise TooLarge(f"feature index {max_col} needs a dense {len(entries)} x "
                       f"{max_col} matrix, which cannot be allocated") from None
    for r, row in enumerate(entries):
        for c, v in row.items():
            X[r, c] = v
    y = np.asarray(labels)
    _reject_non_finite(np.column_stack([X, y]), text, 0)
    problem = RegressionProblem(X=X, y=y)
    return Dataset(problem=problem, source=source, format="libsvm",
                   feature_count=max_col, row_count=len(entries))


def parse_dataset(path, format: str) -> Dataset:
    if format not in FORMATS:
        raise ParseError(f"unknown format {format!r}")
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if format == "csv":
        return parse_csv_text(text, source=str(path))
    return parse_libsvm_text(text, source=str(path))

