"""Prediction-file ingestion and serialization (CSV and JSONL).

CSV files carry a ``score,label[,weight]`` header; JSONL files carry one
object per line with ``score``, ``label``, and optional ``weight`` keys.
Labels are arbitrary text (or JSON scalars); ingestion maps the configured
positive label to 1 and the single remaining value to 0.  Floats are written
with shortest round-trip precision, so write -> ingest reproduces scores and
weights bit-exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteValueError,
    NonPositiveWeightError,
    ParseError,
    PredictionFileError,
    UnknownLabelError,
)
from .metrics import Curve
from .model import Dataset, DecisionSpec, make_abs_spec

__all__ = [
    "PredictionColumns",
    "read_prediction_rows",
    "build_dataset",
    "ingest",
    "write_prediction_file",
    "write_curve_csv",
]

FORMATS = ("csv", "jsonl")


@dataclass(frozen=True, eq=False)
class PredictionColumns:
    """A parsed prediction file: float score and weight arrays (a missing
    weight reads as 1.0) and the label texts, one entry per data row.
    """

    scores: np.ndarray
    labels: list[str]
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def _check_format(format: str) -> str:
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    return format


def _check_values(scores, weights, path: str) -> None:
    """Raise for the first data row with a non-finite score or weight, or a weight <= 0.

    A reader that stops inside a row leaves ``weights`` one shorter than ``scores``.
    """
    weights = np.asarray(weights, dtype=float)
    bad = ~np.isfinite(np.asarray(scores, dtype=float))
    bad[: len(weights)] |= ~(np.isfinite(weights) & (weights > 0.0))
    if not bad.any():
        return
    index = int(np.argmax(bad))
    value, row = float(scores[index]), index + 1
    if not math.isfinite(value):
        raise NonFiniteValueError(f"score must be finite, got {value!r}", path=path, row=row)
    value = float(weights[index])
    if not math.isfinite(value):
        raise NonFiniteValueError(f"weight must be finite, got {value!r}", path=path, row=row)
    raise NonPositiveWeightError(f"weight must be > 0, got {value!r}", path=path, row=row)


def _csv_float(text: str, column: str, path: str, row: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse {column} value {text!r}", path=path, row=row) from None


def _json_float(value, column: str, path: str, row: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{column} must be a number, got {value!r}", path=path, row=row)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range reads as '1e400' does in CSV
        return math.inf if value > 0 else -math.inf


def _label_text(value, path: str, row: int) -> str:
    if isinstance(value, str):
        text = value.strip()
    elif isinstance(value, int) and not isinstance(value, bool):
        text = str(value)
    elif isinstance(value, float):
        text = repr(value)
    else:
        raise ParseError(f"label must be text or a number, got {value!r}", path=path, row=row)
    if not text:
        raise ParseError("label is empty", path=path, row=row)
    return text


class _NotUtf8(Exception):
    """A line of the file is not UTF-8 text (raised by :func:`_utf8_lines`)."""


def _utf8_lines(handle, size: int = 1 << 16):
    """The lines of a binary file, decoded one at a time, so that text that is
    not UTF-8 fails at its own line, not at a block read ahead of the parser.
    Lines end at CR, LF or CRLF, as in text mode with ``newline=""``.
    """
    pieces: list[bytes] = []
    try:
        while block := handle.read(size):
            pieces.append(block)
            if b"\n" not in block and b"\r" not in block:
                continue  # inside a long line: join its pieces once, when it ends
            lines = b"".join(pieces).splitlines(keepends=True)
            pieces = [lines.pop()]  # unfinished, or a CR whose LF is in the next block
            yield from map(bytes.decode, lines)
        yield from map(bytes.decode, b"".join(pieces).splitlines(keepends=True))
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise _NotUtf8(f"not UTF-8 text: byte {bad:#04x} ({exc.reason})") from None


def _read_csv(lines, path: str, scores: list, labels: list, weights: list) -> None:
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except (csv.Error, _NotUtf8) as exc:
        raise ParseError(f"cannot read the header: {exc}", path=path) from None
    if header is None:
        raise ParseError("file is empty (missing header)", path=path)
    names = [cell.strip().lower().lstrip("﻿") for cell in header]
    if "score" not in names or "label" not in names:
        raise ParseError(
            f"header must contain 'score' and 'label' columns, got {header!r}", path=path
        )
    score_col = names.index("score")
    label_col = names.index("label")
    weight_col = names.index("weight") if "weight" in names else None

    try:
        for cells in reader:
            if not cells or all(not cell.strip() for cell in cells):
                continue
            row = len(labels) + 1
            if len(cells) < len(names):
                raise ParseError(f"expected {len(names)} cells, got {len(cells)}", path=path, row=row)
            scores.append(_csv_float(cells[score_col].strip(), "score", path, row))
            labels.append(_label_text(cells[label_col], path, row))
            weight = cells[weight_col].strip() if weight_col is not None else ""
            weights.append(_csv_float(weight, "weight", path, row) if weight else 1.0)
    except (csv.Error, _NotUtf8) as exc:  # met while reading the next data row
        raise ParseError(str(exc), path=path, row=len(labels) + 1) from None


def _read_jsonl(lines, path: str, scores: list, labels: list, weights: list) -> None:
    try:
        for line in lines:
            if not line.strip():
                continue
            row = len(labels) + 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", path=path, row=row) from None
            if not isinstance(obj, dict):
                raise ParseError("each line must be a JSON object", path=path, row=row)
            if "score" not in obj or "label" not in obj:
                raise ParseError("object needs 'score' and 'label' keys", path=path, row=row)
            scores.append(_json_float(obj["score"], "score", path, row))
            labels.append(_label_text(obj["label"], path, row))
            weight = obj.get("weight")
            weights.append(1.0 if weight is None else _json_float(weight, "weight", path, row))
    except _NotUtf8 as exc:
        raise ParseError(str(exc), path=path, row=len(labels) + 1) from None


def read_prediction_rows(path, format: str = "csv") -> PredictionColumns:
    """Parse a prediction file into columns, validating cells but not labels.

    One pass parses the cells, then the score and weight columns are checked
    whole.  An error names the first bad data row; text that is not UTF-8 is
    a :class:`ParseError` too.
    """
    read = _read_csv if _check_format(format) == "csv" else _read_jsonl
    path = str(path)
    scores: list[float] = []
    labels: list[str] = []
    weights: list[float] = []
    # the readers append cell by cell, so on a ParseError the lists hold every cell before it
    try:
        with open(path, "rb") as handle:
            read(_utf8_lines(handle), path, scores, labels, weights)
    except ParseError:
        _check_values(scores, weights, path)  # a bad value in an earlier cell comes first
        raise
    except OSError as exc:
        raise PredictionFileError(f"cannot open: {exc.strerror or exc}", path=path) from None
    rows = PredictionColumns(np.array(scores, dtype=float), labels, np.array(weights, dtype=float))
    _check_values(rows.scores, rows.weights, path)
    return rows


def build_dataset(
    rows: PredictionColumns,
    positive_label: str,
    s_star: float = 0.0,
    *,
    path: str | None = None,
) -> tuple[Dataset, DecisionSpec, str | None]:
    """Turn parsed columns into a dataset; returns the negative label text too.

    At most two distinct label values may appear, and if two do, one must be
    ``positive_label``.  A file whose only label differs from
    ``positive_label`` is a legal all-negative dataset (AUROC is undefined
    there, not an error).
    """
    if not len(rows):
        raise ParseError("file contains no data rows", path=path)
    seen = list(dict.fromkeys(rows.labels))  # distinct labels in order of first appearance
    if len(seen) > 2:
        raise UnknownLabelError(
            f"more than two distinct labels; third value {seen[2]!r}",
            path=path,
            row=rows.labels.index(seen[2]) + 1,
        )
    if len(seen) == 2 and positive_label not in seen:
        raise UnknownLabelError(
            f"positive label {positive_label!r} not among file labels {sorted(seen)!r}",
            path=path,
        )
    negative = next((name for name in seen if name != positive_label), None)
    is_positive = np.fromiter(map(positive_label.__eq__, rows.labels), dtype=bool, count=len(rows))
    dataset = Dataset(rows.scores, is_positive, rows.weights)
    return dataset, make_abs_spec(s_star), negative


def ingest(
    path,
    format: str = "csv",
    positive_label: str = "1",
    s_star: float = 0.0,
) -> tuple[Dataset, DecisionSpec]:
    """Read a prediction file into a dataset plus its threshold spec."""
    rows = read_prediction_rows(path, format)
    dataset, spec, _ = build_dataset(rows, positive_label, s_star, path=str(path))
    return dataset, spec


def _float_texts(values):
    # repr of a Python float is the shortest string that round-trips exactly
    return map(repr, np.asarray(values, dtype=float).tolist())


def _csv_quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes it between two other cells."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(["", text, ""])
    return buffer.getvalue()[1:-1]


def write_prediction_file(
    path,
    dataset: Dataset,
    format: str = "csv",
    positive_label: str = "1",
    negative_label: str = "0",
) -> None:
    """Serialize a dataset so that ingesting it back is lossless."""
    _check_format(format)
    if positive_label == negative_label:
        raise ValueError("positive and negative label names must differ")
    if format == "csv":
        quote, header, template = _csv_quote, "score,label,weight\r\n", "{},{},{}\r\n"
    else:
        quote, header, template = json.dumps, "", '{{"score": {}, "label": {}, "weight": {}}}\n'
    names = np.array([quote(negative_label), quote(positive_label)], dtype=object)
    columns = (_float_texts(dataset.scores), names[dataset.labels], _float_texts(dataset.weights))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header)
        handle.writelines(map(template.format, *columns))


def write_curve_csv(path, curve: Curve) -> None:
    """Write a curve's exact breakpoints as x,y rows (no resampling)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("x,y\r\n")
        handle.writelines(map("{},{}\r\n".format, _float_texts(curve.x), _float_texts(curve.y)))
