import csv
import json

import numpy as np
import pytest

from lxcim import (
    Curve,
    CurveKind,
    Dataset,
    NonFiniteValueError,
    NonPositiveWeightError,
    ParseError,
    PredictionFileError,
    UnknownLabelError,
    ingest,
    write_curve_csv,
    write_prediction_file,
)
from lxcim.io import PredictionColumns, build_dataset, read_prediction_rows

from conftest import random_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


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
        path = write(tmp_path / "p.csv", "score,label\n0.9,1\n0.2,0\n")
        _, spec = ingest(path, s_star=0.5)
        assert spec.s_star == 0.5
        assert spec.confidence_at(0.9) == pytest.approx(0.4)

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

    def test_empty_dataset_writes_header_only(self, tmp_path):
        d = Dataset([], [])
        for fmt in ("csv", "jsonl"):
            write_prediction_file(tmp_path / f"ours.{fmt}", d, fmt)
            reference_prediction_file(tmp_path / f"theirs.{fmt}", d, fmt)
            assert (tmp_path / f"ours.{fmt}").read_bytes() == (tmp_path / f"theirs.{fmt}").read_bytes()


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
