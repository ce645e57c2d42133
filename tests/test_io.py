import codecs
import csv
import io
import json
import math
import os
import re
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lxcim.io
from lxcim import (
    Curve,
    CurveKind,
    Dataset,
    NonFiniteValueError,
    NonPositiveWeightError,
    ParseError,
    PredictionFileError,
    UnknownLabelError,
    accuracy_rate_curve,
    cumulative_accuracy_curve,
    duplicate_dataset,
    ingest,
    make_abs_spec,
    rank_by_confidence,
    roc_curve,
    write_curve_csv,
    write_prediction_file,
)
from lxcim.verify import GeneratorConfig, GeneratorKind, WeightMode, generate
from lxcim.io import (
    PredictionColumns,
    _centred,
    _NotUtf8,
    _utf8_lines,
    build_dataset,
    read_prediction_rows,
)

from conftest import random_dataset
from rows import read_by_rows


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class ByRows:
    """Mixed into a test class: its cases read files with the row reference,
    through ``lxcim.io.read_prediction_rows`` (which ``ingest`` calls too)."""

    @pytest.fixture(autouse=True)
    def by_rows(self, monkeypatch):
        monkeypatch.setattr(lxcim.io, "read_prediction_rows", read_by_rows)


class TestCsvIngest:
    def test_two_column_file(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\n2,XtoY\n-4,YtoX\n")
        dataset, spec = ingest(path, "csv", positive_label="XtoY")
        assert dataset == Dataset([2.0, -4.0], [1, 0])
        assert spec.s_star == 0.0

    def test_weight_column(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label,weight\n1,1,2.5\n-1,0,0.5\n")
        dataset, _ = ingest(path)
        assert dataset == Dataset([1.0, -1.0], [1, 0], [2.5, 0.5])

    def test_missing_weight_cell_defaults_to_one(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label,weight\n1,1,\n-1,0,2\n")
        dataset, _ = ingest(path)
        assert dataset.weights.tolist() == [1.0, 2.0]

    def test_s_star_is_threaded_through(self, tmp_path):
        # the scores are centred once, and the spec stays at 0
        path = write(tmp_path / "p.csv", "score,label\n0.9,1\n0.2,0\n")
        dataset, spec = ingest(path, s_star=0.5)
        assert spec.s_star == 0.0
        assert dataset == Dataset([0.9 - 0.5, 0.2 - 0.5], [1, 0])

    def test_parse_error_reports_row(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\nabc,XtoY\n-4,YtoX\n")
        with pytest.raises(ParseError) as err:
            ingest(path, positive_label="XtoY")
        assert err.value.row == 1

    def test_header_required(self, tmp_path):
        path = write(tmp_path / "p.csv", "1,0\n2,1\n")
        with pytest.raises(ParseError):
            ingest(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "p.csv", "")
        with pytest.raises(ParseError):
            ingest(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\n")
        with pytest.raises(ParseError):
            ingest(path)

    def test_three_labels_rejected(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\n1,a\n-1,b\n2,c\n")
        with pytest.raises(UnknownLabelError) as err:
            ingest(path, positive_label="a")
        assert err.value.row == 3

    def test_positive_label_must_be_present_when_two_classes(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\n1,a\n-1,b\n")
        with pytest.raises(UnknownLabelError):
            ingest(path, positive_label="c")

    def test_single_foreign_label_is_all_negative(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\n1,b\n-1,b\n")
        dataset, _ = ingest(path, positive_label="a")
        assert dataset.labels.tolist() == [0, 0]

    def test_weight_validation(self, tmp_path):
        bad_zero = write(tmp_path / "w0.csv", "score,label,weight\n1,1,0\n")
        with pytest.raises(NonPositiveWeightError):
            ingest(bad_zero)
        bad_inf = write(tmp_path / "winf.csv", "score,label,weight\n1,1,inf\n")
        with pytest.raises(NonFiniteValueError):
            ingest(bad_inf)

    def test_non_finite_score_rejected(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\nnan,1\n")
        with pytest.raises(NonFiniteValueError):
            ingest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PredictionFileError) as err:
            ingest(tmp_path / "nope.csv")
        assert "cannot open" in str(err.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\n1,1\n\n-1,0\n")
        dataset, _ = ingest(path)
        assert len(dataset) == 2


class TestJsonlIngest:
    def test_basic(self, tmp_path):
        lines = [
            json.dumps({"score": 2.0, "label": "XtoY"}),
            json.dumps({"score": -4.0, "label": "YtoX", "weight": 2.0}),
        ]
        path = write(tmp_path / "p.jsonl", "\n".join(lines) + "\n")
        dataset, _ = ingest(path, "jsonl", positive_label="XtoY")
        assert dataset == Dataset([2.0, -4.0], [1, 0], [1.0, 2.0])

    def test_numeric_labels(self, tmp_path):
        path = write(
            tmp_path / "p.jsonl",
            '{"score": 1.0, "label": 1}\n{"score": -1.0, "label": 0}\n',
        )
        dataset, _ = ingest(path, "jsonl")
        assert dataset.labels.tolist() == [1, 0]

    def test_invalid_json_reports_row(self, tmp_path):
        path = write(tmp_path / "p.jsonl", '{"score": 1.0, "label": 1}\n{bad}\n')
        with pytest.raises(ParseError) as err:
            ingest(path, "jsonl")
        assert err.value.row == 2

    def test_missing_keys(self, tmp_path):
        path = write(tmp_path / "p.jsonl", '{"score": 1.0}\n')
        with pytest.raises(ParseError):
            ingest(path, "jsonl")

    def test_boolean_score_rejected(self, tmp_path):
        path = write(tmp_path / "p.jsonl", '{"score": true, "label": 1}\n')
        with pytest.raises(ParseError):
            ingest(path, "jsonl")

    @pytest.mark.parametrize("key", ["score", "weight"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, key, sign):
        huge = sign + "1" + "0" * 400
        row = {"score": "-1.0", "label": "0", "weight": "2.0", key: huge}
        line = '{{"score": {score}, "label": {label}, "weight": {weight}}}\n'.format(**row)
        path = write(tmp_path / "p.jsonl", '{"score": 1.0, "label": 1}\n' + line)
        with pytest.raises(NonFiniteValueError) as err:
            ingest(path, "jsonl")
        assert err.value.row == 2
        assert f"{key} must be" in str(err.value)

    @pytest.mark.parametrize(
        "value,reason",
        [("1" * 5000, "Exceeds the limit (4300 digits)"), ("[" * 100_000 + "]" * 100_000, "maximum recursion depth")],
        ids=["5000-digit-integer", "nested-1e5-deep"],
    )
    def test_value_json_cannot_parse_is_parse_error(self, tmp_path, value, reason):
        # json.loads raises a bare ValueError on an integer past Python's
        # int-string digit limit, and RecursionError on deep nesting
        path = write(tmp_path / "p.jsonl", '{"score": 1.0, "label": 1}\n{"score": %s, "label": 0}\n' % value)
        with pytest.raises(ParseError, match="invalid JSON: " + re.escape(reason)) as err:
            lxcim.io.read_prediction_rows(path, "jsonl")
        assert err.value.row == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        read = lxcim.io.read_prediction_rows
        text = '{"score": 2.0, "label": "a"}\r\n{"score": -1.0, "label": "b", "weight": 3}\n'
        plain = read(write(tmp_path / "plain.jsonl", text), "jsonl")
        for data in (codecs.BOM_UTF8 + text.encode(), codecs.BOM_UTF8 + b"\n \n" + text.encode()):
            (tmp_path / "bom.jsonl").write_bytes(data)
            rows = read(tmp_path / "bom.jsonl", "jsonl")
            assert rows.labels == plain.labels
            assert rows.scores.tobytes() == plain.scores.tobytes()
            assert rows.weights.tobytes() == plain.weights.tobytes()

    def test_byte_order_mark_past_the_start_is_invalid(self, tmp_path):
        read = lxcim.io.read_prediction_rows
        # only the first character of the file may be a byte order mark
        for data in (
            codecs.BOM_UTF8 * 2 + b'{"score": 1, "label": "a"}\n',
            b'{"score": 1, "label": "a"}\n' + codecs.BOM_UTF8 + b'{"score": 2, "label": "a"}\n',
        ):
            (tmp_path / "bom.jsonl").write_bytes(data)
            with pytest.raises(ParseError, match="invalid JSON: Unexpected UTF-8 BOM"):
                read(tmp_path / "bom.jsonl", "jsonl")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_exact_float_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(31)
        d = random_dataset(rng, 64)
        path = tmp_path / f"roundtrip.{fmt}"
        write_prediction_file(path, d, fmt)
        back, _ = ingest(path, fmt)
        assert back == d

    def test_awkward_values_survive(self, tmp_path):
        d = Dataset(
            [1e-308, -1.0000000000000002, 0.1 + 0.2, 12345678901234.567],
            [1, 0, 1, 0],
            [1e-12, 3.0000000000000004, 0.30000000000000004, 7.0],
        )
        path = tmp_path / "edge.csv"
        write_prediction_file(path, d)
        back, _ = ingest(path)
        assert back == d

    def test_custom_label_names(self, tmp_path):
        d = Dataset([1.0, -1.0], [1, 0])
        path = tmp_path / "named.csv"
        write_prediction_file(path, d, positive_label="cause", negative_label="effect")
        back, _ = ingest(path, positive_label="cause")
        assert back == d

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("names", [("a\x00", "b"), ("a", "b\x00")], ids=repr)
    def test_labels_with_a_nul_survive(self, tmp_path, fmt, names):
        d = random_dataset(np.random.default_rng(5), 50)
        path = tmp_path / f"nul.{fmt}"
        write_prediction_file(path, d, fmt, *names)
        back, _ = ingest(path, fmt, positive_label=names[0])
        assert back == d

    def test_identical_label_names_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_prediction_file(tmp_path / "x.csv", Dataset([1.0], [1]), "csv", "a", "a")


class TestRowNumbers:
    """``row`` is the 1-based data-row index; blank lines are not counted."""

    CASES = {
        "bad-score": (
            ParseError, 2,
            "score,label\n1,a\n\nabc,b\n",
            '{"score": 1, "label": "a"}\n\n{"score": "abc", "label": "b"}\n',
        ),
        "bad-weight": (
            NonPositiveWeightError, 2,
            "score,label,weight\n1,a,1\n\n-1,b,0\n",
            '{"score": 1, "label": "a"}\n\n{"score": -1, "label": "b", "weight": 0}\n',
        ),
        "unparsable-weight": (
            ParseError, 2,
            "score,label,weight\n1,a,1\n\n-1,b,x\n",
            '{"score": 1, "label": "a"}\n\n{"score": -1, "label": "b", "weight": "x"}\n',
        ),
        "third-label": (
            UnknownLabelError, 3,
            "score,label\n1,a\n\n-1,b\n2,c\n",
            '{"score": 1, "label": "a"}\n\n{"score": -1, "label": "b"}\n{"score": 2, "label": "c"}\n',
        ),
        "bad-score-after-labels": (
            ParseError, 3,
            "score,label\n1,a\n\n-1,b\nxyz,c\n",
            '{"score": 1, "label": "a"}\n\n{"score": -1, "label": "b"}\n{"score": "xyz", "label": "c"}\n',
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_blank_line_not_counted(self, tmp_path, case, fmt):
        error, row, csv_text, jsonl_text = self.CASES[case]
        path = write(tmp_path / f"p.{fmt}", csv_text if fmt == "csv" else jsonl_text)
        with pytest.raises(error) as err:
            ingest(path, fmt, positive_label="a")
        assert err.value.row == row
        assert f"row {row}: " in str(err.value)

    @pytest.mark.parametrize(
        "text, error, row",
        [
            ("score,label\nnan,a\nabc,b\n", NonFiniteValueError, 1),
            ("score,label,weight\n1,a,0\n1,,1\n", NonPositiveWeightError, 1),
            ("score,label,weight\n1,a,1\n-1,a\n1,b,-1\n", ParseError, 2),
            # within a row: score, then label, then weight
            ("score,label\ninf,\n", NonFiniteValueError, 1),
            ("score,label,weight\n1,,0\n", ParseError, 1),
        ],
        ids=["value-before-parse", "weight-before-label", "parse-before-value", "score-first", "label-first"],
    )
    def test_first_bad_row_decides(self, tmp_path, text, error, row):
        with pytest.raises(error) as err:
            ingest(write(tmp_path / "p.csv", text), positive_label="a")
        assert type(err.value) is error and err.value.row == row


class TestUnreadableText:
    """Text that is not UTF-8, or a CSV cell beyond the field limit, is a ParseError."""

    def write_bytes(self, path, data):
        path.write_bytes(data)
        return path

    def test_header_has_no_row(self, tmp_path):
        for data in (b"sc\xffore,label\n1,a\n", b'score,label,"' + b"x" * 200_000 + b'"\n1,a,b\n'):
            with pytest.raises(ParseError) as err:
                lxcim.io.read_prediction_rows(self.write_bytes(tmp_path / "p.csv", data))
            assert err.value.row is None and "header" in str(err.value)

    @pytest.mark.parametrize(
        "data, error, row",
        [
            (b"score,label\n1,a\nabc,b\n" + b"2,a\n" * 100 + b"1,\xff\n", ParseError, 2),
            (b"score,label\n1,a\ninf,b\n" + b"2,a\n" * 100 + b"1,\xff\n", NonFiniteValueError, 2),
            (b"score,label\n" + b"2,a\n" * 100 + b"-1,\xff\n3,a\n", ParseError, 101),
            (b"score,label\r1,a\r\r2,\xe9\r", ParseError, 2),
            (b'score,label\n1,"a\n\xff"\n', ParseError, 1),
        ],
        ids=["parse-error-first", "value-error-first", "late-row", "cr-lines", "quoted-newline"],
    )
    def test_first_bad_row_decides(self, tmp_path, data, error, row):
        # the decoder reads ahead of the parser; the earlier problem still wins
        with pytest.raises(error) as err:
            lxcim.io.read_prediction_rows(self.write_bytes(tmp_path / "p.csv", data))
        assert type(err.value) is error and err.value.row == row

    def test_jsonl_row(self, tmp_path):
        data = b'{"score": 1, "label": "a"}\n\n{"score": 2, "label": "\xe9"}\n'
        with pytest.raises(ParseError) as err:
            lxcim.io.read_prediction_rows(self.write_bytes(tmp_path / "p.jsonl", data), "jsonl")
        assert err.value.row == 2 and "not UTF-8 text: byte 0xe9" in str(err.value)

    def test_utf8_text_reads_as_before(self, tmp_path):
        path = self.write_bytes(tmp_path / "p.csv", "score,label\r\n1,é\r-1,ü\n".encode("utf-8"))
        assert lxcim.io.read_prediction_rows(path).labels == ["é", "ü"]

    def test_lines_match_text_mode_at_every_block_size(self):
        # CRLF, CR and LF ends, a multi-byte character, a long line and no final line end,
        # split at every possible block boundary
        data = "a,é\r\nb\rc\n\r\n\n".encode("utf-8") + b"x" * 40 + b"\r\r\ny,\xe2\x82\xac"
        expected = list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        for size in range(1, len(data) + 2):
            assert list(_utf8_lines(io.BytesIO(data), size)) == expected, size

    def test_bad_line_fails_after_the_lines_before_it(self):
        data = b"a\r\nb\r" + b"x" * 20 + b"\n\xe9\nc\n"
        for size in range(1, len(data) + 2):
            lines = []
            with pytest.raises(_NotUtf8, match="byte 0xe9"):
                lines.extend(_utf8_lines(io.BytesIO(data), size))
            assert lines == ["a\r\n", "b\r", "x" * 20 + "\n"], size


# cells and JSON values for generated files: the first list of each pair
# valid, the second not.  Half of the files are drawn from valid items only,
# the other half with at most one invalid item, so that the first bad row is
# often the only one, and a reader that accepts it shows
BLANKS = ["", " ", "\t", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", " \x0c "]
CSV_HEADERS = (
    ["score,label", "score,label,weight", "label,weight,score", " Score ,LABEL,extra",
     "\ufeffscore,label,weight", '"score","label"'],
    ["score,lbl", ""],
)
CSV_CELLS = {
    "score": (["1", "-2.5", "0", "-0.0", " 3 ", "1_0", "5e-324", "1e16", "2.2250738585072014e-308",
               "\x0b4\xa0"], ["1e400", "nan", "-inf", "abc", ""]),
    "label": (["a", "b", " a ", "a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", "\u2028a", "é",
               "\ufeffa", 'a"b'], ["", "  "]),
    "weight": (["1", "2.5", "", " ", "1e-300"], ["0", "-1", "x", "inf", "1e400"]),
    "": (["z", ""], []),
}
JSON_VALUES = {
    "score": (["1", "-2.5", "0", "-0.0", "5e-324", "1e16", "12345678901234567890"],
              ["1e400", "1" + "0" * 400, "-1" + "0" * 400, "NaN", "-Infinity", '"1.5"', "true",
               "null", "[1]"]),
    "label": (['"a"', '"b"', '" a "', "1", "0", "1.5", "-0.0", "1e400", '"\\u2028a"', '"\u2028b"',
               '"\u00e9"', '"x\\"y"'], ['""', '"  "', "true", "null", "[]", "{}"]),
    "weight": (["1", "2.5", "null"], ["0", "-1", '"2"', "false", "1e400"]),
}
JSON_JUNK = ["{bad}", "[1, 2]", "1", '"text"', '{"score": 1,', "}", "\ufeff{}"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def pick(draw, pools, invalid):
    """An item of ``pools``; while ``invalid[0]`` is set, perhaps the invalid one it then spends."""
    good, bad = pools
    if bad and invalid[0] and draw(st.integers(0, 3)) == 0:
        invalid[0] = False
        return draw(st.sampled_from(bad))
    return draw(st.sampled_from(good))


@st.composite
def csv_files(draw, invalid):
    header = pick(draw, CSV_HEADERS, invalid)
    names = [cell.strip().lower().lstrip("\ufeff").strip('"') for cell in header.split(",")]
    names = [name if name in CSV_CELLS else "" for name in names]
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = pick(draw, (["row"] * 6 + ["blank"], ["short", "long"]), invalid)
        if kind == "blank":
            lines.append(",".join(draw(st.lists(st.sampled_from(BLANKS), min_size=1, max_size=3))))
            continue
        width = len(names) - (kind == "short") + (kind == "long")
        cells = [pick(draw, CSV_CELLS[names[i] if i < len(names) else ""], invalid) for i in range(width)]
        quote = draw(st.booleans())
        lines.append(",".join(
            '"' + cell.replace('"', '""') + '"' if quote or any(c in cell for c in ',"\r\n') else cell
            for cell in cells
        ))
    return lines


@st.composite
def jsonl_files(draw, invalid):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = pick(draw, (["object"] * 8 + ["blank"], ["junk"]), invalid)
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANKS)))
            continue
        if kind == "junk":
            lines.append(draw(st.sampled_from(JSON_JUNK)))
            continue
        keys = draw(st.lists(st.sampled_from(["score", "label", "weight"]), max_size=3))
        if pick(draw, ([True], [False]), invalid):
            keys = ["score", "label", *keys]  # both required keys, some repeated
        pairs = [f'"{key}": {pick(draw, JSON_VALUES[key], invalid)}' for key in keys]
        space = pick(draw, (["", " ", "\t ", " \r"], ["\x0b", "\xa0", "\x1c", "\u2028"]), invalid)
        after = pick(draw, (["", " ", "\t"], [" x", "}", "{}", ","]), invalid)
        lines.append(space + "{" + ", ".join(pairs) + "}" + after)
    return lines


@st.composite
def file_bytes(draw, fmt):
    invalid = [draw(st.booleans())]
    lines = draw(csv_files(invalid) if fmt == "csv" else jsonl_files(invalid))
    data = bytearray("".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines).encode())
    if draw(st.integers(0, 7)) == 0:
        data[:0] = codecs.BOM_UTF8
    if data and pick(draw, ([False], [True]), invalid):
        data.insert(draw(st.integers(0, len(data))), draw(st.sampled_from([0xFF, 0xE9, 0x80])))
    return bytes(data)


def outcome(read, path, fmt):
    try:
        rows = read(path, fmt)
    except PredictionFileError as exc:
        return type(exc), exc.row, str(exc)
    return rows.scores.tobytes(), rows.labels, rows.weights.tobytes()


class TestColumnsMatchRows:
    """Reading by columns accepts and rejects what the row reference does.

    An accepted file gives the same column bytes, a rejected one the same
    error class, row and message, at several block sizes.
    """

    @given(st.sampled_from([1, 2, 3, 4096]), st.data())
    @settings(max_examples=250, derandomize=True, deadline=None)
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_same_outcome(self, tmp_path_factory, fmt, block, data):
        path = tmp_path_factory.mktemp("differential") / f"p.{fmt}"
        path.write_bytes(data.draw(file_bytes(fmt)))
        with mock.patch.object(lxcim.io, "_BLOCK_ROWS", block):
            assert outcome(read_prediction_rows, path, fmt) == outcome(read_by_rows, path, fmt)

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("csv", 'score,label,weight\r\n1,"a\r\nb",\r\n\x0b, ,\n\xa0\r-2,b,2,extra\n'),
            ("csv", "label,score\n a ,1_0\n\n\n b,-0.0\r"),
            ("jsonl", '{"score": 1, "label": "a", "weight": null}\r\n\x1c\n\u2028\r'
                      ' {"score": 12345678901234567890, "label": 7, "label": "b", "weight": 2}\t\n'),
            ("jsonl", '{"score": -0.0, "label": 1.5}\n{"score": 1e-300, "label": "\u2028x"}'),
        ],
        ids=["csv-quoted-and-blank", "csv-reordered", "jsonl-null-weight-and-blank", "jsonl-no-final-end"],
    )
    def test_irregular_but_valid_files_read_by_columns(self, tmp_path, monkeypatch, fmt, text):
        # a block is checked row by row only to name a bad row, never in a valid file
        path = write(tmp_path / f"p.{fmt}", text)
        expected = outcome(read_by_rows, path, fmt)
        assert isinstance(expected[0], bytes)

        def fail(*args):
            raise AssertionError("a block was checked row by row")

        monkeypatch.setattr(lxcim.io, "_first_bad_row", fail)
        assert outcome(read_prediction_rows, path, fmt) == expected


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="opens a pipe by its /dev/fd path")
class TestPipe:
    """A file that cannot seek is read as it comes, and its error still names its row."""

    def read_pipe(self, data, fmt):
        read_end, write_end = os.pipe()

        def feed():  # on a thread, as a pipe holds less than a large file
            try:
                with open(write_end, "wb") as pipe:
                    pipe.write(data)
            except BrokenPipeError:  # the reader stopped at an error
                pass

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            return read_prediction_rows(f"/dev/fd/{read_end}", fmt)
        finally:
            os.close(read_end)
            writer.join()

    def test_holds_no_copy_of_the_file(self, tmp_path):
        # read through a pipe, a file takes about the memory it takes read from disk
        path = tmp_path / "p.csv"
        write_prediction_file(path, random_dataset(np.random.default_rng(3), 2**15), "csv")
        data = path.read_bytes()
        peaks = []
        for read in (lambda: read_prediction_rows(path), lambda: self.read_pipe(data, "csv")):
            tracemalloc.start()
            try:
                read()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + len(data) // 4

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bad_row_is_named(self, fmt):
        data = (b"score,label\n1,a\nabc,b\n" if fmt == "csv"
                else b'{"score": 1, "label": "a"}\n{"score": "abc", "label": "b"}\n')
        with pytest.raises(ParseError) as err:
            self.read_pipe(data, fmt)
        assert err.value.row == 2 and "score" in str(err.value)

    def test_valid_file_reads_as_from_disk(self, tmp_path):
        data = b"score,label,weight\r\n1.5,a,\r\n-2,b,3\r\n"
        (tmp_path / "p.csv").write_bytes(data)
        assert outcome(lambda path, fmt: self.read_pipe(data, fmt), None, "csv") == outcome(
            read_prediction_rows, tmp_path / "p.csv", "csv"
        )

    def test_jsonl_byte_order_mark_is_skipped(self, tmp_path):
        data = codecs.BOM_UTF8 + b'{"score": 1.5, "label": "a"}\n{"score": -2, "label": "b", "weight": 3}\n'
        (tmp_path / "p.jsonl").write_bytes(data)
        piped = outcome(lambda path, fmt: self.read_pipe(data, fmt), None, "jsonl")
        assert piped == outcome(read_by_rows, tmp_path / "p.jsonl", "jsonl")
        assert piped[1] == ["a", "b"]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_text_not_utf8_in_the_middle_of_a_block(self, tmp_path, fmt):
        # rows 1-9 of the block are good, the 10th holds a byte that is not UTF-8
        row = b"1,a\n" if fmt == "csv" else b'{"score": 1, "label": "a"}\n'
        data = (b"score,label\n" if fmt == "csv" else b"") + row * 9 + row.replace(b"a", b"\xff") + row * 5
        (tmp_path / f"p.{fmt}").write_bytes(data)
        with mock.patch.object(lxcim.io, "_BLOCK_ROWS", 16), pytest.raises(ParseError) as err:
            self.read_pipe(data, fmt)
        message = str(err.value).removeprefix(f"{err.value.path}: ")
        assert err.value.row == 10 and message.startswith("row 10: not UTF-8 text: byte 0xff")
        error, row, text = outcome(read_by_rows, tmp_path / f"p.{fmt}", fmt)
        assert (error, row, text) == (ParseError, 10, f"{tmp_path / f'p.{fmt}'}: {message}")


class TestJsonlIngestByRows(ByRows):
    test_value_json_cannot_parse_is_parse_error = TestJsonlIngest.test_value_json_cannot_parse_is_parse_error
    test_byte_order_mark_is_skipped = TestJsonlIngest.test_byte_order_mark_is_skipped
    test_byte_order_mark_past_the_start_is_invalid = (
        TestJsonlIngest.test_byte_order_mark_past_the_start_is_invalid
    )


class TestRowNumbersByRows(ByRows, TestRowNumbers):
    pass


class TestUnreadableTextByRows(ByRows, TestUnreadableText):
    # these two test the line decoder, and read no file
    test_lines_match_text_mode_at_every_block_size = None
    test_bad_line_fails_after_the_lines_before_it = None


class TestBuildDataset:
    def test_negative_label_reported(self, tmp_path):
        path = write(tmp_path / "p.csv", "score,label\n1,yes\n-1,no\n")
        rows = read_prediction_rows(path)
        _, _, negative = build_dataset(rows, "yes")
        assert negative == "no"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_rows_are_columns(self, tmp_path, fmt):
        d = Dataset([0.5, -2.0, 3.0], [1, 0, 1], [2.0, 1.0, 0.25])
        path = tmp_path / f"p.{fmt}"
        write_prediction_file(path, d, fmt, positive_label="yes", negative_label="no")
        rows = read_prediction_rows(path, fmt)
        assert isinstance(rows, PredictionColumns) and len(rows) == 3
        assert rows.scores.tolist() == [0.5, -2.0, 3.0]
        assert rows.weights.tolist() == [2.0, 1.0, 0.25]
        assert rows.labels == ["yes", "no", "yes"]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            read_prediction_rows(tmp_path / "p.xml", "xml")

    @pytest.mark.parametrize("positive", [1, 0, np.int64(1), b"1", None], ids=repr)
    @pytest.mark.parametrize("only", ["0", "1"])
    def test_positive_label_must_be_text(self, tmp_path, only, positive):
        # labels are read as text: the int 1 equals no label, and its __eq__ gives
        # NotImplemented, which would count as a match on every row
        path = write(tmp_path / "p.csv", f"score,label\n0.5,{only}\n-0.5,{only}\n")
        with pytest.raises(ValueError, match="positive_label must be a str"):
            build_dataset(read_prediction_rows(path), positive)
        with pytest.raises(ValueError, match="positive_label must be a str"):
            ingest(path, "csv", positive)
        dataset, _, negative = build_dataset(read_prediction_rows(path), "1")
        assert dataset.labels.tolist() == [int(only)] * 2 and negative == (None if only == "1" else "0")


def raw_ranking(scores, labels, weights, s_star):
    """The ranking of rows judged against ``s_star`` as they were read: confidence
    ``abs(s - s_star)``, class ``s > s_star``, and the canonical tie suborder of
    ``RankedView`` (wrong first, then light first, then side, then position)."""
    conf = np.abs(scores - s_star)
    predicted = scores > s_star
    correct = predicted == labels.astype(bool)
    order = np.lexsort((predicted, weights, correct, -conf))
    weight = weights[order]
    return order, correct[order], weight.cumsum(), (weight * correct[order]).cumsum()


def centring_scores(kind, s_star, rng, n=400):
    if kind == "probabilities":
        scores = np.round(rng.random(n), 2)
    elif kind == "below-1e-17":
        scores = np.round(rng.random(n), 2) * np.where(rng.random(n) < 0.3, 1e-17, 1.0)
    elif kind == "subnormal":
        scores = rng.integers(-40, 40, n) * 5e-324
    elif kind == "wide":
        scores = rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, n)
    else:  # a few ulps either side of the threshold
        scores = s_star + rng.integers(-6, 7, n) * np.spacing(s_star)
    scores[rng.random(n) < 0.05] = s_star
    return scores


class TestCentring:
    """Scores read against a threshold a are centred once, t = s - a, with the class and confidence of s."""

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0, np.float64(0.0)], ids=repr)
    def test_zero_threshold_returns_the_dataset_itself(self, zero):
        d = Dataset([0.5, -0.0, 2.0], [1, 0, 0])
        assert _centred(d, zero) is d

    @pytest.mark.parametrize("kind", ["probabilities", "below-1e-17", "subnormal", "wide", "ulps"])
    @pytest.mark.parametrize("s_star", [0.5, 0.3, -0.25, 3.0, 1e-300, 5e-324, -1e300])
    def test_ranking_is_that_of_the_scores_as_read(self, s_star, kind, spec0):
        # s - a is 0 only where s == a, and rounds monotonically: the same classes, ties and order
        rng = np.random.default_rng(list(f"{s_star!r} {kind}".encode()))
        scores = centring_scores(kind, s_star, rng)
        labels, weights = rng.integers(0, 2, len(scores)), rng.choice([0.5, 1.0, 2.0], len(scores))
        d = _centred(Dataset(scores, labels, weights), s_star)
        assert np.array_equal(d.scores == 0.0, scores == s_star)
        assert np.array_equal(d.scores > 0.0, scores > s_star)
        view = rank_by_confidence(d, spec0)
        expected = raw_ranking(scores, labels, weights, s_star)
        for got, want in zip((view.order, view.correct, view.cum_weight, view.cum_correct_weight), expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s_star, row", [(-1e308, 2), (1e308, 1)])
    def test_overflowing_shift_names_the_row(self, tmp_path, s_star, row):
        path = write(tmp_path / "far.csv", "score,label\n-1e308,1\n1e308,0\n")
        score = "-1e+308" if row == 1 else "1e+308"
        message = f"{path}: row {row}: score {score} minus s_star {s_star!r} is not finite"
        with pytest.raises(NonFiniteValueError, match=f"^{re.escape(message)}$") as raised:
            ingest(path, s_star=s_star)
        assert raised.value.row == row

    @pytest.mark.parametrize("bad", [True, "0.5", float("nan"), float("inf")], ids=repr)
    def test_threshold_must_be_a_finite_number(self, tmp_path, bad):
        path = write(tmp_path / "p.csv", "score,label\n0.9,1\n0.2,0\n")
        with pytest.raises(ValueError, match="must be a finite number"):
            ingest(path, s_star=bad)


def reference_prediction_file(path, dataset, fmt, positive_label="1", negative_label="0"):
    """The row-at-a-time writer that the column writer must match byte for byte."""
    names = (negative_label, positive_label)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            writer = csv.writer(handle)
            writer.writerow(["score", "label", "weight"])
            for s, y, w in zip(dataset.scores, dataset.labels, dataset.weights):
                writer.writerow([repr(float(s)), names[int(y)], repr(float(w))])
        else:
            for s, y, w in zip(dataset.scores, dataset.labels, dataset.weights):
                record = {"score": float(s), "label": names[int(y)], "weight": float(w)}
                handle.write(json.dumps(record) + "\n")


def reference_curve_csv(path, curve):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y"])
        for x, y in zip(curve.x, curve.y):
            writer.writerow([repr(float(x)), repr(float(y))])


AWKWARD_FLOATS = [5e-324, 1e-308, 1e16, -0.0, 0.1 + 0.2]
AWKWARD_LABELS = [
    ("cause", 'eff,"ect'),
    ("a,b", 'say "hi"'),
    ("naïve", "Ω→∞ ünïcödé"),
    (" spaced ", "  lead"),
    ("1", "0"),
    ("a\x00", "b"),
    ("a", "b\x00"),
]


class TestWrittenBytes:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("labels", AWKWARD_LABELS, ids=lambda pair: repr(pair))
    def test_prediction_file_matches_row_writer(self, tmp_path, fmt, labels):
        scores = AWKWARD_FLOATS + [-x for x in AWKWARD_FLOATS] + [1.5]
        weights = [abs(x) or 1.0 for x in AWKWARD_FLOATS] * 2 + [2.0]
        d = Dataset(scores, [1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1], weights)
        ours, theirs = tmp_path / f"ours.{fmt}", tmp_path / f"theirs.{fmt}"
        write_prediction_file(ours, d, fmt, *labels)
        reference_prediction_file(theirs, d, fmt, *labels)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_curve_matches_row_writer(self, tmp_path):
        xs = np.sort(AWKWARD_FLOATS + [-1.0, 1.0])
        curve = Curve(CurveKind.ACC_RATE, xs, -xs[::-1])
        write_curve_csv(tmp_path / "ours.csv", curve)
        reference_curve_csv(tmp_path / "theirs.csv", curve)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()

    def test_signed_nan_curve_matches_row_writer(self, tmp_path):
        # a NaN's repr has no sign, whatever its sign bit; roc_curve gives NaN on one class
        xs = np.array([0.0, 1.0, np.nan, -np.nan])
        curve = Curve(CurveKind.ACC_RATE, xs, np.array([-np.nan, -np.inf, np.nan, -0.0]))
        write_curve_csv(tmp_path / "ours.csv", curve)
        reference_curve_csv(tmp_path / "theirs.csv", curve)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()

    def test_empty_dataset_writes_header_only(self, tmp_path):
        d = Dataset([], [])
        for fmt in ("csv", "jsonl"):
            write_prediction_file(tmp_path / f"ours.{fmt}", d, fmt)
            reference_prediction_file(tmp_path / f"theirs.{fmt}", d, fmt)
            assert (tmp_path / f"ours.{fmt}").read_bytes() == (tmp_path / f"theirs.{fmt}").read_bytes()

    # more than 2**12 rows, so that the files span several write blocks
    LARGE = 5000
    EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 2.2250738585072014e-308, -1.3626318486375751e-292]

    @classmethod
    def large_dataset(cls, kind):
        rng = np.random.default_rng(17)
        if kind == "duplicate":
            return duplicate_dataset(random_dataset(rng, cls.LARGE), make_abs_spec(0.0))
        if kind == "uniform-weights":
            return random_dataset(rng, cls.LARGE, weighted=False)
        edge = rng.choice(cls.EDGE, cls.LARGE)
        scores = np.where(rng.random(cls.LARGE) < 0.5, edge, rng.normal(size=cls.LARGE))
        weights = rng.choice([5e-324, 1e16, 2.2250738585072014e-308, 1.7976931348623157e308, 1.0], cls.LARGE)
        return Dataset(scores, rng.integers(0, 2, cls.LARGE), weights)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("kind", ["duplicate", "uniform-weights", "signed-zeros-and-extremes"])
    def test_large_prediction_file_matches_row_writer(self, tmp_path, fmt, kind):
        d = self.large_dataset(kind)
        assert len(d) >= 2**12
        write_prediction_file(tmp_path / f"ours.{fmt}", d, fmt, "cause", 'eff,"ect')
        reference_prediction_file(tmp_path / f"theirs.{fmt}", d, fmt, "cause", 'eff,"ect')
        assert (tmp_path / f"ours.{fmt}").read_bytes() == (tmp_path / f"theirs.{fmt}").read_bytes()

    @pytest.mark.parametrize("kind", ["roc", "cumulative"])
    def test_tied_curves_match_row_writer(self, tmp_path, kind):
        rng = np.random.default_rng(23)
        d = random_dataset(rng, self.LARGE)
        tied = Dataset(np.round(d.scores, 1), d.labels, d.weights)
        curve = roc_curve(tied) if kind == "roc" else cumulative_accuracy_curve(tied, make_abs_spec(0.0))
        write_curve_csv(tmp_path / "ours.csv", curve)
        reference_curve_csv(tmp_path / "theirs.csv", curve)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()


def written_texts(values) -> list[str]:
    """The text that ``write_curve_csv`` writes for each of ``values``, in order."""
    values = np.asarray(values, dtype=float)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "texts.csv")
        write_curve_csv(path, Curve(CurveKind.ACC_RATE, np.zeros(len(values)), values))
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    assert rows[0] == ["x", "y"] and all(x == "0.0" for x, _ in rows[1:])
    return [y for _, y in rows[1:]]


def _neighbours(edge: float):
    """The floats up to 4 steps away from ``edge``, either way."""
    return st.integers(-4, 4).map(lambda steps: float((np.array(edge).view(np.int64) + steps).view(float)))


WRITTEN_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # any finite float, subnormals and zeros too
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals and zeros
    st.sampled_from([0.0, -0.0]),
    st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023)),  # powers of two
    st.sampled_from([1e-4, -1e-4, 1e16, -1e16]).flatmap(_neighbours),  # where repr changes notation
    st.builds(lambda k, d: k / 10**d, st.integers(-(10**17), 10**17), st.integers(0, 22)),  # decimals k/10^d
)


def _float_corpus(seed: int, n: int) -> dict:
    """Columns of ``n`` floats of the shapes a writer meets, and some it rarely does."""
    rng = np.random.default_rng(seed)
    shapes = {
        "uniform": rng.random(n) - 0.5,
        "cumulative ratios": np.cumsum(rng.random(n)) / n,
        "k/n": np.arange(1, n + 1) / rng.integers(n, 2 * n),
        "short decimals": np.round(rng.random(n) * 1000, 3) / 10.0 ** rng.integers(0, 8, n),
        "integers": np.floor(rng.random(n) * 10.0 ** rng.integers(1, 17, n)),
        "bit patterns": rng.integers(0, 2**64, n, dtype=np.uint64).view(float),
        "powers of two": np.ldexp(np.repeat([1.0, -1.0], 2098), np.tile(np.arange(-1074, 1024), 2)),
        "large with a fraction": rng.random(n) * 10.0 ** rng.integers(13, 17, n),  # ties at 17 digits
        "decade neighbours": np.nextafter(10.0 ** rng.integers(-5, 18, n), rng.choice([0, np.inf], n)),
        "nines next to a carry": np.array(
            [float(f"9.99999999999999{d}5e{e}") for d in range(10) for e in range(-5, 17)]
        ),
    }
    shapes["bit patterns"] = shapes["bit patterns"][np.isfinite(shapes["bit patterns"])]
    return shapes


class TestFloatText:
    """Each written float is its ``repr``, and few values need ``repr`` itself to get there."""

    @given(st.lists(WRITTEN_FLOATS, min_size=1, max_size=64))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_written_text_is_repr(self, values):
        assert written_texts(values) == list(map(repr, values))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corpus_written_as_repr(self, seed):
        corpus = _float_corpus(seed, 13_000)
        values = np.concatenate(list(corpus.values()))
        assert len(values) >= 10**5
        texts = written_texts(values)
        wrong = [(text, repr(value)) for text, value in zip(texts, values.tolist()) if text != repr(value)]
        assert wrong == []

    def test_fast_path_is_taken(self, tmp_path, monkeypatch):
        config = GeneratorConfig(GeneratorKind.BIASED, 30_000, 3, 0.7, WeightMode.RANDOM_POSITIVE)
        data, spec = generate(config), make_abs_spec(0.0)
        curves = [cumulative_accuracy_curve(data, spec), accuracy_rate_curve(data, spec), roc_curve(data)]
        calls = []
        monkeypatch.setattr(lxcim.io, "repr", lambda value: calls.append(value) or repr(value), raising=False)
        write_prediction_file(tmp_path / "data.csv", data)
        for curve in curves:
            write_curve_csv(tmp_path / "curve.csv", curve)
        values = 2 * len(data) + sum(2 * len(curve) for curve in curves)
        assert 0 < len(calls) <= values / 1000


def test_peak_memory_is_a_few_columns(tmp_path):
    # writing and reading 2**16 rows keeps less than five times the columns read
    # back (two float arrays and the label list) alive at once; the text of the
    # whole file, or a Python object per cell, would not fit
    data = random_dataset(np.random.default_rng(3), 2**16)
    peaks = []
    for fmt in ("csv", "jsonl"):
        tracemalloc.start()
        try:
            write_prediction_file(tmp_path / f"p.{fmt}", data, fmt)
            rows = read_prediction_rows(tmp_path / f"p.{fmt}", fmt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rows.scores.tobytes() == data.scores.tobytes()
    columns = rows.scores.nbytes + rows.weights.nbytes + 8 * len(rows.labels)
    assert max(peaks) < 5 * columns


class TestCurveCsv:
    def test_exact_breakpoints(self, tmp_path):
        curve = Curve(CurveKind.ACC_RATE, np.array([0.1, 0.30000000000000004]), np.array([1.0, 2 / 3]))
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        ys = [float(line.split(",")[1]) for line in lines[1:]]
        assert xs == list(curve.x) and ys == list(curve.y)
