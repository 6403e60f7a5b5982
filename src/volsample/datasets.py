"""Dataset ingestion: dense CSV and sparse libsvm-style text files.

CSV: one row per line, comma separated, last column is the response; a
header line is auto-detected (any non-numeric token in the first line).
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


def _numbered(text: str):
    """Yield (1-based line number, line) for the non-blank lines of text."""
    return ((no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip())


def _reject_non_finite(values: np.ndarray, text: str, first: int) -> None:
    """Raise ParseError at the first row holding a nan or an infinity.

    Row r of ``values`` came from non-blank line ``first + r`` of ``text``.
    """
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        index = first + int(bad.argmax())
        lineno, _ = next(itertools.islice(_numbered(text), index, None))
        raise ParseError("non-finite value", line=lineno)


def parse_csv_text(text: str, source: str = "<string>") -> Dataset:
    lines = _numbered(text)
    head = next(lines, None)
    if head is None:
        raise ParseError("empty file")
    start = 0
    first = [t.strip() for t in head[1].split(",")]
    if all(_is_float(t) for t in first):
        lines = itertools.chain([head], lines)
    else:
        start = 1  # header line
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
    arr = np.asarray(rows)
    _reject_non_finite(arr, text, start)
    problem = RegressionProblem(X=arr[:, :-1], y=arr[:, -1])
    return Dataset(problem=problem, source=source, format="csv",
                   feature_count=arr.shape[1] - 1, row_count=arr.shape[0])


def parse_libsvm_text(text: str, source: str = "<string>") -> Dataset:
    labels = []
    entries = []  # per-row {0-based col: value}
    max_col = 0
    for lineno, line in _numbered(text):
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
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if format == "csv":
        return parse_csv_text(text, source=str(path))
    return parse_libsvm_text(text, source=str(path))

