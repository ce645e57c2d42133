"""Whole-file row readers: the reference that ``lxcim.io`` is tested against.

Each reads a prediction file from its start, one row at a time, and raises
the error of its first bad row, as ``read_prediction_rows`` must.  They share
the per-cell rules of ``lxcim.io`` (``_csv_float``, ``_json_float``,
``_label_text``, the header and the UTF-8 line decoder), but not its block
reading, its column checks or its block-local error locator, which is what
the tests compare.
"""

import codecs
import csv
import json

import numpy as np

from lxcim.errors import ParseError
from lxcim.io import (
    PredictionColumns,
    _check_values,
    _csv_float,
    _csv_header,
    _json_float,
    _label_text,
    _NotUtf8,
    _utf8_lines,
)


def _read_csv(lines, path: str, scores: list, labels: list, weights: list) -> None:
    reader = csv.reader(lines)
    width, score_col, label_col, weight_col = _csv_header(reader, path)
    try:
        for cells in reader:
            if not cells or all(not cell.strip() for cell in cells):
                continue
            row = len(labels) + 1
            if len(cells) < width:
                raise ParseError(f"expected {width} cells, got {len(cells)}", path=path, row=row)
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
            except (ValueError, RecursionError) as exc:  # also too many digits, or nesting too deep
                raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", path=path, row=row) from None
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


def _lines(handle, format: str):
    """The decoded lines of an open prediction file, from its start.

    A JSONL file's leading byte order mark is skipped (RFC 8259, section 8.1).
    """
    handle.seek(0)
    if format == "jsonl" and handle.read(3) != codecs.BOM_UTF8:
        handle.seek(0)
    return _utf8_lines(handle)


def _read_by_rows(handle, path: str, format: str) -> PredictionColumns:
    """Read the file one row at a time, raising for the first bad row.

    The reference that the column readers must agree with, on every file.
    """
    scores: list[float] = []
    labels: list[str] = []
    weights: list[float] = []
    read = _read_csv if format == "csv" else _read_jsonl
    # the readers append cell by cell, so on a ParseError the lists hold every cell before it
    try:
        read(_lines(handle, format), path, scores, labels, weights)
    except ParseError:
        _check_values(scores, weights, path)  # a bad value in an earlier cell comes first
        raise
    rows = PredictionColumns(np.array(scores, dtype=float), labels, np.array(weights, dtype=float))
    _check_values(rows.scores, rows.weights, path)
    return rows


def read_by_rows(path, format="csv"):
    """``read_prediction_rows`` by the row reference."""
    with open(path, "rb") as handle:
        return _read_by_rows(handle, str(path), format)
