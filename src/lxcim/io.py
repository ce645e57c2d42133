"""Prediction-file ingestion and serialization (CSV and JSONL).

CSV files carry a ``score,label[,weight]`` header; JSONL files carry one
object per line with ``score``, ``label``, and optional ``weight`` keys.
Labels are arbitrary text (or JSON scalars); ingestion maps the configured
positive label to 1 and the single remaining value to 0.  A byte order mark
at the start of a JSONL file is skipped (RFC 8259, section 8.1), as one at
the start of a CSV header cell is.

A file is read once, from start to end, by columns, a block of rows at a
time: ``csv.reader`` or the ``json`` C scanner parses each row of a block,
once per line exactly as ``json.loads`` would, and ``float``, ``str.strip`` and
the label rules then run over whole columns.  A block those column checks
reject is checked again in memory, one row at a time with the per-cell rules,
to name its first bad row.  Nothing seeks or reads a file twice, so a pipe is
read as it comes, never copied whole.

Floats are written with shortest round-trip precision, the text of ``repr``,
so write -> ingest reproduces scores and weights bit-exactly.  Rows are
written a block at a time.  Each float column of a block is formatted by
numpy, with an exact scaled product (Dekker's TwoProduct) deciding the
digits, and each value that product cannot decide is sent to ``repr`` (see
:func:`_float_cells`): on continuous scores, weights and curves, about one
value in 1e4.  Each part of a row is a fixed-width byte cell padded with
0xFF, a byte no UTF-8 text holds, so a block's rows are laid side by side and
one pass drops the padding.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import (
    NonFiniteValueError,
    NonPositiveWeightError,
    ParseError,
    PredictionFileError,
    UnknownLabelError,
)
from .metrics import Curve
from .model import Dataset, DecisionSpec, _threshold, make_abs_spec

__all__ = [
    "PredictionColumns",
    "read_prediction_rows",
    "build_dataset",
    "ingest",
    "write_prediction_file",
    "write_curve_csv",
]

FORMATS = ("csv", "jsonl")

# rows parsed or written per step: enough to make the per-call cost of the
# column functions small, few enough that one block's objects stay small
# (on 3e4 JSONL rows, 4096 took 4 MB more peak RSS than 1024, and no less time)
_BLOCK_ROWS = 1024


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


def _csv_header(reader, path: str) -> tuple[int, int, int, int | None]:
    """The header's width and the score, label and weight column indices (weight may be absent)."""
    try:
        header = next(reader, None)
    except (csv.Error, _NotUtf8) as exc:
        raise ParseError(f"cannot read the header: {exc}", path=path) from None
    if header is None:
        raise ParseError("file is empty (missing header)", path=path)
    names = [cell.strip().lower().lstrip("\ufeff") for cell in header]
    if "score" not in names or "label" not in names:
        raise ParseError(
            f"header must contain 'score' and 'label' columns, got {header!r}", path=path
        )
    weight_col = names.index("weight") if "weight" in names else None
    return len(names), names.index("score"), names.index("label"), weight_col


class _Irregular(Exception):
    """A column check failed: some row of the block is bad."""


# what a column check meets in a block with a bad row; the block's rows are then checked one by one
_IRREGULAR = (_Irregular, ValueError, OverflowError, KeyError, RecursionError)

_LABEL_TEXT = {str: str.strip, int: str, float: repr}  # _label_text of a valid label, by type
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads skips around a value
_scan_json = json.JSONDecoder().scan_once


def _float_column(values: list) -> np.ndarray:
    return np.fromiter(map(float, values), dtype=float, count=len(values))


def _number_column(values: list) -> np.ndarray:
    """``_json_float`` of each value, for a column that holds only JSON numbers."""
    if not set(map(type, values)).issubset((float, int)):
        raise _Irregular
    return _float_column(values)  # an integer beyond the float range raises OverflowError


def _label_texts(values: list) -> list[str]:
    """``_label_text`` of each value, for a column with no bad label."""
    kinds = set(map(type, values))
    if not kinds.issubset(_LABEL_TEXT):
        raise _Irregular
    if len(kinds) == 1:
        texts = list(map(_LABEL_TEXT[kinds.pop()], values))
    else:
        texts = [_LABEL_TEXT[type(value)](value) for value in values]
    if "" in texts:
        raise _Irregular
    return texts


def _csv_block(header: tuple, rows: list) -> tuple:
    """The score, label and weight columns of a block of CSV rows."""
    width, score_col, label_col, weight_col = header
    score, label = itemgetter(score_col), itemgetter(label_col)
    # a blank row is short or has a blank score cell: only then test each row
    if min(map(len, rows)) < width or "" in map(str.strip, map(score, rows)):
        rows = [cells for cells in rows if any(map(str.strip, cells))]
        if rows and min(map(len, rows)) < width:
            raise _Irregular
    scores = _float_column(list(map(str.strip, map(score, rows))))
    labels = _label_texts(list(map(label, rows)))
    if weight_col is None:
        return scores, labels, np.ones(len(rows))
    texts = list(map(str.strip, map(itemgetter(weight_col), rows)))
    return scores, labels, _float_column([text or "1" for text in texts] if "" in texts else texts)


def _jsonl_block(lines: list) -> tuple:
    """The score, label and weight columns of a block of JSONL lines."""
    texts = list(map(str.strip, filter(str.strip, lines), repeat(_JSON_SPACE)))
    # a line with no value ends the map early, with a shorter list
    parsed = list(map(_scan_json, texts, repeat(0)))
    if list(map(itemgetter(1), parsed)) != list(map(len, texts)):
        raise _Irregular  # no value, or text after it
    objects = list(map(itemgetter(0), parsed))
    if not set(map(type, objects)).issubset((dict,)):
        raise _Irregular
    scores = _number_column(list(map(itemgetter("score"), objects)))
    labels = _label_texts(list(map(itemgetter("label"), objects)))
    given = list(map(dict.get, objects, repeat("weight")))
    if None in given:
        given = [1.0 if weight is None else weight for weight in given]
    return scores, labels, _number_column(given)


def _csv_cells(header: tuple, rows: list, path: str, row: int):
    """The row number, score, label and weight cells of each data row of a CSV
    block, numbered after ``row``; raises for a row with too few cells."""
    width, score_col, label_col, weight_col = header
    for row, cells in enumerate((cells for cells in rows if any(map(str.strip, cells))), row + 1):
        if len(cells) < width:
            raise ParseError(f"expected {width} cells, got {len(cells)}", path=path, row=row)
        weight = cells[weight_col].strip() if weight_col is not None else ""
        yield row, cells[score_col].strip(), cells[label_col], weight or None


def _jsonl_cells(lines: list, path: str, row: int):
    """The row number, score, label and weight of each data line of a JSONL
    block, numbered after ``row``; raises for a line that is not such an object."""
    for row, line in enumerate(filter(str.strip, lines), row + 1):
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too many digits, or nesting too deep
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", path=path, row=row) from None
        if not isinstance(obj, dict):
            raise ParseError("each line must be a JSON object", path=path, row=row)
        if "score" not in obj or "label" not in obj:
            raise ParseError("object needs 'score' and 'label' keys", path=path, row=row)
        yield row, obj["score"], obj["label"], obj.get("weight")


def _first_bad_row(cells, as_float, stop, path: str, scores: list, weights: list) -> ParseError:
    """The error of a rejected block, from its ``cells`` checked one row at a time.

    ``as_float`` is the format's number rule.  ``stop``, the error that ended
    the block's reading if one did, follows the block's rows.  As in a file
    read row by row, a bad value in the columns of the blocks before
    (``scores``, ``weights``), or in a cell before the error, is raised first.
    """
    block_scores, block_weights, error = [], [], None
    try:
        for row, score, label, weight in cells:
            block_scores.append(as_float(score, "score", path, row))
            _label_text(label, path, row)
            block_weights.append(1.0 if weight is None else as_float(weight, "weight", path, row))
    except ParseError as exc:
        error = exc
    scores = np.concatenate([*scores, block_scores])
    _check_values(scores, np.concatenate([*weights, block_weights]), path)
    if error is not None:
        return error
    if stop is not None:
        return ParseError(str(stop), path=path, row=len(scores) + 1)
    return ParseError("the column reader rejected the file, but no row is bad", path=path)


def _read_columns(lines, path: str, format: str) -> PredictionColumns:
    """Read a file's decoded lines by columns, a block of rows at a time.

    A block that a column check rejects, or whose reading fails, is checked
    again one row at a time, and the error of its first bad row is raised.
    """
    if format == "csv":
        lines = csv.reader(lines)
        header = _csv_header(lines, path)
        columns, cells, as_float = partial(_csv_block, header), partial(_csv_cells, header), _csv_float
    else:
        # one byte order mark at the start of the file is skipped (RFC 8259, section 8.1)
        lines = chain(map(str.removeprefix, islice(lines, 1), ["\ufeff"]), lines)
        columns, cells, as_float = _jsonl_block, _jsonl_cells, _json_float
    scores, labels, weights = [np.empty(0)], [], [np.empty(0)]
    while True:
        block, stop = [], None
        try:
            block.extend(islice(lines, _BLOCK_ROWS))  # an error keeps the rows read before it
        except (csv.Error, _NotUtf8) as exc:
            stop = exc
        if not block and stop is None:
            return PredictionColumns(np.concatenate(scores), labels, np.concatenate(weights))
        try:
            if stop is not None:
                raise _Irregular
            score, label, weight = columns(block)
        except _IRREGULAR:
            cells_by_row = cells(block, path, len(labels))
            raise _first_bad_row(cells_by_row, as_float, stop, path, scores, weights) from None
        scores.append(score)
        labels += label
        weights.append(weight)


def read_prediction_rows(path, format: str = "csv") -> PredictionColumns:
    """Parse a prediction file into columns, validating cells but not labels.

    The file is read once, from start to end, a block of rows at a time, and
    checked by columns; a pipe is read as it comes, never copied whole.  An
    error names the first bad data row; text that is not UTF-8 is a
    :class:`ParseError` too.
    """
    _check_format(format)
    path = str(path)
    try:
        with open(path, "rb") as handle:
            rows = _read_columns(_utf8_lines(handle), path, format)
    except OSError as exc:
        raise PredictionFileError(f"cannot open: {exc.strerror or exc}", path=path) from None
    _check_values(rows.scores, rows.weights, path)
    return rows


def build_dataset(
    rows: PredictionColumns,
    positive_label: str,
    s_star: float = 0.0,
    *,
    path: str | None = None,
) -> tuple[Dataset, DecisionSpec, str | None]:
    """Turn parsed columns into a dataset centred at ``s_star``; returns the spec and the negative label too.

    The dataset's scores are ``s - s_star`` (see :func:`_centred`), and the
    spec is the library's one spec, at 0.  At most two distinct label values
    may appear, and if two do, one must be ``positive_label``.  A file whose
    only label differs from ``positive_label`` is a legal all-negative
    dataset (AUROC is undefined there, not an error).  ``positive_label`` must be a ``str``, as the
    file's labels are: ValueError otherwise.
    """
    if not isinstance(positive_label, str):
        raise ValueError(f"positive_label must be a str, got {positive_label!r}")
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
    return _centred(dataset, s_star, path), make_abs_spec(0.0), negative


def ingest(
    path,
    format: str = "csv",
    positive_label: str = "1",
    s_star: float = 0.0,
) -> tuple[Dataset, DecisionSpec]:
    """Read a prediction file into a dataset centred at ``s_star``, plus the spec at 0."""
    rows = read_prediction_rows(path, format)
    dataset, spec, _ = build_dataset(rows, positive_label, s_star, path=str(path))
    return dataset, spec


def _centred(dataset: Dataset, s_star: float, path: str | None = None) -> Dataset:
    """The dataset with each score s read as ``s - s_star``; the dataset itself at 0.

    IEEE subtraction with gradual underflow gives ``s - s_star == 0`` only
    when ``s == s_star``, and it rounds monotonically, so each row keeps its
    class and its confidence ``abs(s - s_star)`` bit for bit.  ``s_star``
    must be a finite number, not a boolean (ValueError); a shift that
    overflows raises NonFiniteValueError naming its row.
    """
    a = _threshold(s_star)
    if a == 0.0:
        return dataset
    scores = _shifted(
        dataset.scores, -a, path, lambda i: f"score {float(dataset.scores[i])!r} minus s_star {a!r} is not finite"
    )
    return Dataset._from_valid(scores, dataset.labels, dataset.weights)


def _shifted(scores: np.ndarray, by: float, path: str | None, message) -> np.ndarray:
    """``scores + by``, a new array; NonFiniteValueError for the first row where that
    overflows, with the text ``message(index)``."""
    with np.errstate(over="ignore"):
        shifted = scores + by
    finite = np.isfinite(shifted)
    if not finite.all():
        index = int(finite.argmin())
        raise NonFiniteValueError(message(index), path=path, row=index + 1)
    return shifted


# Writing.  Each float is written as its ``repr`` (see the module docstring).
_WRITE_ROWS = 4096  # rows formatted and assembled per step: about 2 MB of arrays at once
_PAD = 0xFF  # never a byte of UTF-8 text: a row's padding, dropped in one pass
_PAD_BYTES = bytes([_PAD])

_POW10 = np.array([float(10**k) for k in range(23)])  # each exact: 10**k is a float for k <= 22
_SPLITTER = 2.0**27 + 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as ``hi + lo``, exactly, with 26 significant bits each (Veltkamp's split)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _scaled(v: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``v * 10**k`` as ``p + e``, exactly: the rounded product and its error (Dekker's TwoProduct)."""
    p = v * _POW10[k]
    hi, lo = _halves(v)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((hi * b_hi - p) + hi * b_lo + lo * b_hi) + lo * b_lo


# A float's cell holds "-0.000" and then its 17 digits, each followed by a
# point: 40 bytes.  Its text is the cell with some bytes set to _PAD: the sign
# of a value that has none, "0." and the zeros a value below 1 does not show,
# the trailing zero digits, and every point but the one after the units digit.
_CELL = 40
_DIGIT_WORDS = np.full((10_000, 8), ord("."), dtype=np.uint8)  # 0..9999 as 4 digits, each then a point
_DIGIT_WORDS[:, ::2] = np.arange(10_000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10 + 48
_DIGIT_WORDS = _DIGIT_WORDS.view(np.uint64).ravel()
_HEADS = np.frombuffer(b"\xff0.000\x00.-0.000\x00.", dtype=np.uint64)  # without and with the sign


def _cell_pads() -> np.ndarray:
    """The bytes to pad in a fast-path cell, as 5 words, at row ``18 * (E + 4) + s``
    for the decimal exponent ``E`` in -4..15 and ``s`` significant digits."""
    exponent, digits = np.arange(-4, 16)[:, None, None], np.arange(18)[None, :, None]
    column = np.arange(_CELL)
    index, point = (column - 6) // 2, (column >= 6) & (column % 2 == 1)
    keep = (
        (column == 0)  # the sign byte, set with the head
        | (exponent < 0) & (column >= 1) & (column < 2 - exponent)  # "0." and -E-1 zeros: 0.0012
        | (column >= 6) & ~point & (index < np.where(exponent < 0, digits, np.maximum(digits, exponent + 2)))
        | point & (index == exponent)  # the point after the units digit, for E >= 0: 120.0
    )
    return np.where(keep, 0, _PAD).astype(np.uint8).reshape(20 * 18, _CELL).view(np.uint64)


_CELL_PADS = _cell_pads()
_MARGIN = 1e-9  # far above the rounding error of the distances below, which is under 1e-13


def _float_cells(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float of ``values``: an (n, 40) uint8 array padded with ``_PAD``.

    ``repr`` writes the shortest decimal that reads back as the float, and of
    those the nearest; from 1e-4 to below 1e16 it writes fixed notation.
    For a magnitude v there, let E = floor(log10 v) and N = v * 10**(16 - E),
    a real in [1e16, 1e17).  TwoProduct gives N = p + e exactly, so the
    17-digit integer N17 = p + rint(e) and the rest f = e - rint(e) are exact.
    So is H, half the gap from v to the next float, scaled by the same power
    of ten: the decimals within H of N read back as v.  H exceeds 0.55, and at
    most one 15-digit decimal (a multiple of 100 here) lies that close.  So the
    digits are those of the nearest multiple of 100 if it lies within H, else
    of the nearest multiple of 10 if it does, else N17.  The gap below a power
    of two is half as wide; but each power of two in this range, 2**-13 to
    2**53, is a decimal of at most 16 digits, and for each of them the rule
    picks those digits (the tests check all 67).  Every value this does not
    decide is written by ``repr``: zero, magnitudes
    outside [1e-4, 1e16), a distance within ``_MARGIN`` of H, an exact tie
    between two nearest decimals, and a nearest decimal that carries into the
    next power of ten (which cannot read back as v, so is only guarded).
    """
    magnitudes = np.abs(values)
    fast = (magnitudes >= 1e-4) & (magnitudes < 1e16)
    v = np.where(fast, magnitudes, 1.5)
    exponent = np.floor(np.log10(v)).astype(np.intp)
    p, e = _scaled(v, 16 - exponent)
    # log10 can be off by one next to a power of ten: correct E where N is outside [1e16, 1e17)
    low, high = (p < 1e16) | ((p == 1e16) & (e < 0)), (p > 1e17) | ((p == 1e17) & (e >= 0))
    off = np.flatnonzero(low | high)
    if len(off):
        exponent[off] += high[off].astype(np.intp) - low[off]
        p[off], e[off] = _scaled(v[off], 16 - exponent[off])
    units = np.rint(e)
    rest = e - units
    n17 = p.astype(np.int64) + units.astype(np.int64)
    half = np.spacing(v) * 0.5 * _POW10[16 - exponent]
    below100 = n17 % 100
    to100 = below100 + rest  # N less the multiple of 100 below N17, in [-0.5, 99.5]
    up100 = to100 > 50
    far100 = np.where(up100, 100 - to100, to100)
    below10 = below100 % 10
    to10 = below10 + rest
    up10 = to10 > 5
    far10 = np.where(up10, 10 - to10, to10)
    in100, in10 = far100 < half - _MARGIN, far10 < half - _MARGIN
    out100, out10 = far100 > half + _MARGIN, far10 > half + _MARGIN
    digits = np.where(in100, n17 - below100 + 100 * up100, np.where(in10, n17 - below10 + 10 * up10, n17))
    decided = in100 | out100 & (in10 & (to10 != 5) | out10 & (np.abs(rest) != 0.5))
    slow = np.flatnonzero(~(fast & decided) | (digits >= 10**17))

    words = np.empty((len(values), _CELL // 8), dtype=np.uint64)
    lead, high8 = np.divmod(digits, 10**16)
    high8, low8 = np.divmod(high8, 10**8)
    signed = np.signbit(values) & ~np.isnan(values)  # repr(-x) is "-" + repr(x), but for NaN
    words[:, 0] = _HEADS[signed.view(np.uint8)] | (lead.astype(np.uint64) + 48) << np.uint64(48)
    for column, group in enumerate((*np.divmod(high8, 10**4), *np.divmod(low8, 10**4)), 1):
        words[:, column] = _DIGIT_WORDS[group]
    cells = words.view(np.uint8)
    significant = 17 - (cells[:, -2:5:-2] != ord("0")).argmax(axis=1)
    words |= _CELL_PADS[18 * (exponent + 4) + significant]
    if len(slow):
        # one repr per distinct magnitude: a column of weights 1e-5 or a curve's run of zeros repeats one
        slow_magnitudes, inverse = np.unique(magnitudes[slow], return_inverse=True)
        texts = np.array(list(map(repr, slow_magnitudes.tolist())), dtype="S23").view(np.uint8)
        cells[slow, 1:24] = np.where(texts == 0, _PAD, texts).reshape(-1, 23)[inverse]
        cells[slow, 24:] = _PAD
    return cells


def _csv_quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes it between two other cells."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(["", text, ""])
    return buffer.getvalue()[1:-1]


def _write_rows(path, header: bytes, rows: int, parts: tuple) -> None:
    """Write ``header``, then ``rows`` rows, each the concatenation of the parts' bytes.

    A part is constant bytes, or a function from a slice of rows to their
    cells: a uint8 array, a row of bytes per row, padded with ``_PAD``.  A
    block's rows are laid side by side in one byte array, and one pass drops
    the padding.
    """
    parts = [np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part for part in parts]
    with open(path, "wb") as handle:
        handle.write(header)
        for start in range(0, rows, _WRITE_ROWS):
            block = slice(start, min(start + _WRITE_ROWS, rows))
            size = block.stop - start
            cells = [part(block) if callable(part) else np.broadcast_to(part, (size, len(part)))
                     for part in parts]
            handle.write(np.hstack(cells).tobytes().translate(None, _PAD_BYTES))


def _float_part(values: np.ndarray):
    return lambda block: _float_cells(values[block])


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
    names = (negative_label, positive_label)
    if format == "csv":
        labels = [f",{_csv_quote(name)},".encode() for name in names]
        header, head, tail = b"score,label,weight\r\n", (), b"\r\n"
    else:
        labels = [f', "label": {json.dumps(name)}, "weight": '.encode() for name in names]
        header, head, tail = b"", (b'{"score": ',), b"}\n"
    width = max(map(len, labels))
    labels = np.frombuffer(b"".join(text.ljust(width, _PAD_BYTES) for text in labels), dtype=np.uint8)
    labels = labels.reshape(2, width)
    parts = (
        *head,
        _float_part(dataset.scores),
        lambda block: labels[dataset.labels[block]],
        _float_part(dataset.weights),
        tail,
    )
    _write_rows(path, header, len(dataset), parts)


def write_curve_csv(path, curve: Curve) -> None:
    """Write a curve's exact breakpoints as x,y rows (no resampling)."""
    _write_rows(path, b"x,y\r\n", len(curve), (_float_part(curve.x), b",", _float_part(curve.y), b"\r\n"))
