import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lxcim
from lxcim import Dataset, ingest, write_prediction_file
from lxcim.cli import main

from conftest import random_dataset, subnormal_weight_datasets, underflowing_datasets

UNDERFLOWING = {**underflowing_datasets(), **subnormal_weight_datasets()}


@pytest.fixture()
def d0_csv(tmp_path):
    path = tmp_path / "d0.csv"
    path.write_text("score,label\n-4,0\n-3,1\n1,0\n2,1\n", encoding="utf-8")
    return path


def run(argv):
    return main([str(part) for part in argv])


def child_env():
    """The environment for a child Python that imports this package's sources."""
    src = str(Path(lxcim.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestEval:
    def test_json_report(self, d0_csv, capsys):
        assert run(["eval", "--input", d0_csv, "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "lxcim": 0.625,
            "accuracy": 0.5,
            "auroc": 0.75,
            "audrc": pytest.approx(2 / 3),
            "n": 4,
            "total_weight": 4.0,
        }
        assert list(payload) == ["lxcim", "accuracy", "auroc", "audrc", "n", "total_weight"]

    def test_table_report(self, d0_csv, capsys):
        assert run(["eval", "--input", d0_csv]) == 0
        out = capsys.readouterr().out
        rows = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(rows["lxcim"]) == pytest.approx(0.625)
        assert float(rows["auroc"]) == pytest.approx(0.75)
        assert float(rows["audrc"]) == pytest.approx(2 / 3, abs=1e-4)

    def test_single_class_reports_null_auroc(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("score,label\n1,1\n-2,1\n", encoding="utf-8")
        assert run(["eval", "--input", path, "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["auroc"] is None

    def test_prob_threshold(self, tmp_path, capsys):
        path = tmp_path / "prob.csv"
        path.write_text("score,label\n0.9,1\n0.1,0\n", encoding="utf-8")
        assert run(["eval", "--input", path, "--s-star", "0.5", "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0

    def test_removed_prob_and_nan_s_star_are_usage_errors(self, d0_csv, capsys):
        # --prob was a second spelling of --s-star 0.5
        with pytest.raises(SystemExit) as err:
            run(["eval", "--input", d0_csv, "--prob"])
        assert err.value.code == 2
        assert "usage: lxcim" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            run(["eval", "--input", d0_csv, "--s-star", "nan"])
        assert err.value.code == 2

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run(["eval", "--input", tmp_path / "absent.csv"]) == 3
        assert "cannot open" in capsys.readouterr().err

    def test_parse_failure_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\nabc,1\n", encoding="utf-8")
        assert run(["eval", "--input", path]) == 3
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("good_rows", [0, 3000])
    def test_text_not_utf8_is_data_error(self, tmp_path, capsys, fmt, good_rows):
        # 3000 rows put the bad one past the decoder's first chunk, and a
        # blank line sits before it; the row is the data row all the same
        if fmt == "csv":
            head, line, bad = b"score,label\n", b"%d,a\n", b"1,\xff\xfe\n"
        else:
            head, line = b"", b'{"score": %d, "label": "a"}\n'
            bad = b'{"score": 1, "label": "\xff\xfe"}\n'
        path = tmp_path / f"latin.{fmt}"
        path.write_bytes(head + b"".join(line % i for i in range(good_rows)) + b"\n" + bad)
        assert run(["eval", "--input", path, "--format", fmt]) == 3
        assert f"{path}: row {good_rows + 1}: not UTF-8 text: byte 0xff" in capsys.readouterr().err

    def test_csv_cell_beyond_field_limit_is_data_error(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text(f'score,label\n1,a\n\n2,"{"x" * 200_000}"\n', encoding="utf-8")
        assert run(["eval", "--input", path]) == 3
        err = capsys.readouterr().err
        assert f"{path}: row 2: field larger than field limit ({limit})" in err
        assert csv.field_size_limit() == limit

    def test_curve_artifacts(self, d0_csv, tmp_path, capsys):
        curves = tmp_path / "curves"
        assert run(["eval", "--input", d0_csv, "--curves-dir", curves]) == 0
        names = sorted(p.name for p in curves.iterdir())
        assert names == [
            "accuracy_rate.csv",
            "accuracy_rate.svg",
            "cumulative_accuracy.csv",
            "cumulative_accuracy.svg",
            "roc.csv",
            "roc.svg",
        ]
        rows = (curves / "cumulative_accuracy.csv").read_text().strip().splitlines()
        points = [tuple(map(float, row.split(","))) for row in rows[1:]]
        assert points == [(0.0, 0.0), (0.25, 0.25), (0.5, 0.25), (0.75, 0.5), (1.0, 0.5)]
        svg = (curves / "roc.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg and "random" in svg

    @pytest.mark.parametrize("key", ["score", "weight"])
    def test_integer_beyond_float_range_is_data_error(self, tmp_path, capsys, key):
        path = tmp_path / "huge.jsonl"
        huge = "1" + "0" * 400
        path.write_text(
            '{"score": -1, "label": 0}\n' + f'{{"score": 1, "label": 1, "{key}": {huge}}}\n',
            encoding="utf-8",
        )
        assert run(["eval", "--input", path, "--format", "jsonl"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: row 2: {key} must be finite" in captured.err

    @pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000 + "]" * 100_000], ids=["digits", "nesting"])
    def test_json_the_parser_refuses_is_data_error(self, tmp_path, capsys, value):
        # not exit 2 (usage) for the int-string digit limit, nor exit 1 and a
        # traceback for a RecursionError: both are invalid JSON, exit 3
        path = tmp_path / "bad.jsonl"
        path.write_text('{"score": -1, "label": 0}\n{"score": %s, "label": 1}\n' % value, encoding="utf-8")
        assert run(["eval", "--input", path, "--format", "jsonl"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"lxcim: {path}: row 2: invalid JSON: ")
        assert "Traceback" not in captured.err

    def test_jsonl_byte_order_mark_is_skipped(self, d0_csv, tmp_path, capsys):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(
            b"\xef\xbb\xbf" + b"".join(
                b'{"score": %d, "label": %d}\n' % pair for pair in ((-4, 0), (-3, 1), (1, 0), (2, 1))
            )
        )
        assert run(["eval", "--input", path, "--format", "jsonl", "--output", "json"]) == 0
        assert run(["eval", "--input", d0_csv, "--output", "json"]) == 0
        with_bom, from_csv = capsys.readouterr().out.splitlines()
        assert with_bom == from_csv

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("output", ["json", "table"])
    @pytest.mark.parametrize("weight", ["1e300", "1e308"], ids=["metric-overflow", "total-overflow"])
    def test_non_finite_result_is_data_error(self, tmp_path, capsys, weight, output):
        # squared totals overflow to inf; two 1e308 weights sum to inf
        path = tmp_path / "huge.csv"
        path.write_text(
            f"score,label,weight\n0.5,1,{weight}\n-0.5,0,{weight}\n0.2,0,{weight}\n",
            encoding="utf-8",
        )
        assert run(["eval", "--input", path, "--output", output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lxcim: the weights overflow float arithmetic\n"

    def test_tie_group_lost_to_rounding_is_finite(self, tmp_path, capsys):
        path = tmp_path / "lost.csv"
        path.write_text("score,label,weight\n5,1,1e20\n1,1,1\n-1,1,1\n", encoding="utf-8")
        assert run(["eval", "--input", path, "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["lxcim"], payload["accuracy"], payload["audrc"]) == (1.0, 1.0, 1.0)

    def test_single_class_skips_roc_artifacts(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("score,label\n1,1\n-2,1\n", encoding="utf-8")
        curves = tmp_path / "curves"
        assert run(["eval", "--input", path, "--curves-dir", curves]) == 0
        names = sorted(p.name for p in curves.iterdir())
        assert "roc.csv" not in names and "cumulative_accuracy.csv" in names


class TestCheck:
    def test_invariant_metric_exits_zero(self, d0_csv, capsys):
        assert run(["check", "--input", d0_csv, "--metric", "lxcim", "--trials", 64]) == 0
        assert "invariant holds" in capsys.readouterr().out

    def test_auroc_violation_exits_one_with_witness(self, d0_csv, capsys):
        code = run(["check", "--input", d0_csv, "--metric", "auroc", "--seed", 7])
        out = capsys.readouterr().out
        assert code == 1
        assert "mask" in out and "witness" in out

    def test_witness_is_reproducible(self, d0_csv, capsys):
        run(["check", "--input", d0_csv, "--metric", "auroc", "--seed", 7])
        first = capsys.readouterr().out
        run(["check", "--input", d0_csv, "--metric", "auroc", "--seed", 7])
        second = capsys.readouterr().out
        assert first == second

    def test_zero_trials_is_usage_error(self, d0_csv):
        with pytest.raises(SystemExit) as err:
            run(["check", "--input", d0_csv, "--metric", "lxcim", "--trials", 0])
        assert err.value.code == 2

    def test_audrc_and_accuracy_hold(self, d0_csv, capsys):
        for metric in ("audrc", "accuracy"):
            assert run(["check", "--input", d0_csv, "--metric", metric, "--trials", 32]) == 0
        capsys.readouterr()


def probability_csvs(directory: Path):
    """2000 two-decimal probabilities with fair-coin labels, as written and shifted by -0.5."""
    rng = np.random.default_rng(0)
    p, labels = np.round(rng.random(2000), 2), rng.integers(0, 2, 2000)
    write_prediction_file(directory / "prob.csv", Dataset(p, labels))
    write_prediction_file(directory / "centred.csv", Dataset(p - 0.5, labels))
    return directory / "prob.csv", directory / "centred.csv"


class TestProbabilityThreshold:
    """At --s-star 0.5 the scores are centred once, so every exchange is exact."""

    @pytest.mark.parametrize("metric", ["lxcim", "audrc", "accuracy"])
    def test_check_holds_exactly(self, tmp_path, capsys, metric):
        prob, centred = probability_csvs(tmp_path)
        assert run(["check", "--input", prob, "--s-star", 0.5, "--trials", 20, "--metric", metric]) == 0
        out = capsys.readouterr().out
        assert "max_deviation=0.000e+00" in out and "invariant holds" in out
        # the same report as the scores shifted by -0.5 and checked at 0
        assert run(["check", "--input", centred, "--trials", 20, "--metric", metric]) == 0
        assert capsys.readouterr().out == out

    def test_auroc_check_finds_a_witness(self, tmp_path, capsys):
        prob, _ = probability_csvs(tmp_path)
        assert run(["check", "--input", prob, "--s-star", 0.5, "--trials", 20, "--metric", "auroc"]) == 1
        out = capsys.readouterr().out
        deviation = float(out.split("max_deviation=")[1].split()[0])
        assert 1e-9 < deviation < 1.0 and "violation witness: trial 0, mask [" in out

    def test_eval_sweeps_the_scores_as_read(self, tmp_path, capsys):
        # 1e-18 and 2e-18 both centre to -0.5: ranked as one tie group, but AUROC tells them apart
        path = tmp_path / "tiny.csv"
        path.write_text("score,label\n2e-18,1\n1e-18,0\n0.9,1\n0.2,0\n", encoding="utf-8")
        assert run(["eval", "--input", path, "--s-star", 0.5, "--output", "json", "--curves-dir", tmp_path / "c"]) == 0
        payload = json.loads(capsys.readouterr().out)
        read, spec = ingest(path)
        centred, _ = ingest(path, s_star=0.5)
        assert centred.scores[0] == centred.scores[1]
        assert payload["auroc"] == lxcim.auroc(read) == 0.75 and lxcim.auroc(centred) == 0.625
        assert payload["lxcim"] == lxcim.lxcim(centred, spec) and payload["accuracy"] == 0.75
        lxcim.write_curve_csv(tmp_path / "roc.csv", lxcim.roc_curve(read))
        assert (tmp_path / "c" / "roc.csv").read_bytes() == (tmp_path / "roc.csv").read_bytes()

    def test_auroc_check_probes_the_centred_scores(self, tmp_path, capsys):
        # the rows above: eval's AUROC of the scores as read is 0.75, the check's of the centred 0.625
        path = tmp_path / "tiny.csv"
        path.write_text("score,label\n2e-18,1\n1e-18,0\n0.9,1\n0.2,0\n", encoding="utf-8")
        assert run(["eval", "--input", path, "--s-star", 0.5, "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["auroc"] == 0.75
        assert run(["check", "--input", path, "--s-star", 0.5, "--metric", "auroc", "--trials", 20]) == 1
        assert capsys.readouterr().out.startswith("metric=auroc baseline=0.625 trials=20 ")

    @pytest.mark.parametrize("s_star", [0.5, 0.3, 0.07])
    def test_duplicate_writes_the_mirror_about_s_star(self, tmp_path, capsys, s_star):
        # the rows as read, then s_star + m for each centred mirror m: the bytes of s_star - (s - s_star)
        prob, _ = probability_csvs(tmp_path)
        out_path = tmp_path / "doubled.csv"
        assert run(["duplicate", "--input", prob, "--s-star", s_star, "--output", out_path]) == 0
        read, _ = ingest(prob)
        doubled, _ = ingest(out_path)
        s = read.scores
        at = s == s_star
        assert np.any(at)
        expected = np.concatenate((s, np.where(at, s, s_star - (s - s_star))))
        assert doubled.scores.tobytes() == expected.tobytes()
        assert doubled.labels.tolist() == read.labels.tolist() + np.where(at, read.labels, 1 - read.labels).tolist()


class TestDuplicate:
    def test_doubles_rows_and_hits_lxcim_as_auroc(self, d0_csv, tmp_path, capsys):
        out_path = tmp_path / "doubled.csv"
        assert run(["duplicate", "--input", d0_csv, "--output", out_path]) == 0
        assert len(out_path.read_text().strip().splitlines()) == 9  # header + 8 rows
        capsys.readouterr()
        assert run(["eval", "--input", out_path, "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["auroc"] == pytest.approx(0.625, abs=1e-12)
        assert payload["n"] == 8

    def test_label_names_survive(self, tmp_path, capsys):
        src = tmp_path / "named.csv"
        src.write_text("score,label\n2,cause\n-1,effect\n", encoding="utf-8")
        out_path = tmp_path / "doubled.csv"
        assert (
            run(
                [
                    "duplicate",
                    "--input",
                    src,
                    "--positive-label",
                    "cause",
                    "--output",
                    out_path,
                ]
            )
            == 0
        )
        text = out_path.read_text()
        assert "cause" in text and "effect" in text
        back, _ = ingest(out_path, positive_label="cause")
        assert back.labels.tolist() == [1, 0, 0, 1]

    def test_rows_at_zero_keep_their_bits(self, tmp_path, capsys):
        # a row at the threshold is its own exchange: a -0.0 is written as -0.0 both times
        src = tmp_path / "zeros.csv"
        src.write_text("score,label\n-0.0,1\n0.0,0\n-1.5,0\n", encoding="utf-8")
        out_path = tmp_path / "doubled.csv"
        assert run(["duplicate", "--input", src, "--output", out_path]) == 0
        rows = ["-0.0,1", "0.0,0", "-1.5,0", "-0.0,1", "0.0,0", "1.5,1"]
        assert out_path.read_text().splitlines()[1:] == [row + ",1.0" for row in rows]

    def test_unwritable_output(self, d0_csv, tmp_path, capsys):
        output = tmp_path / "no" / "x.csv"
        assert run(["duplicate", "--input", d0_csv, "--output", output]) == 3
        assert str(output) in capsys.readouterr().err


class TestSynth:
    def test_unwritable_output(self, tmp_path, capsys):
        output = tmp_path / "no" / "x.csv"
        assert run(["synth", "--kind", "random", "--n", 5, "--output", output]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and str(output) in captured.err

    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out_path in (a, b):
            assert run(["synth", "--kind", "random", "--n", 20, "--seed", 5, "--output", out_path]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ideal_evaluates_to_one(self, tmp_path, capsys):
        path = tmp_path / "ideal.csv"
        assert run(["synth", "--kind", "ideal", "--n", 30, "--output", path]) == 0
        capsys.readouterr()
        assert run(["eval", "--input", path, "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["lxcim"] == 1.0

    def test_biased_requires_valid_p(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["synth", "--kind", "biased", "--n", 10, "--p", 1.5, "--output", tmp_path / "x.csv"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            run(["synth", "--kind", "biased", "--n", 10, "--output", tmp_path / "x.csv"])
        assert err.value.code == 2

    def test_p_rejected_for_other_kinds(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["synth", "--kind", "random", "--n", 10, "--p", 0.5, "--output", tmp_path / "x.csv"])
        assert err.value.code == 2

    def test_jsonl_format(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        assert run(["synth", "--kind", "random", "--n", 8, "--format", "jsonl", "--output", path]) == 0
        capsys.readouterr()
        assert run(["eval", "--input", path, "--format", "jsonl", "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 8


class TestStudy:
    def test_table_output(self, capsys):
        assert run(["study", "--sizes", "10,100", "--seeds", 5]) == 0
        out = capsys.readouterr().out
        assert "size" in out and "10" in out and "100" in out

    def test_json_output_decreasing(self, capsys):
        assert run(["study", "--sizes", "10,200", "--seeds", 8, "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        assert rows[0]["mean_sup_cum_deviation"] > rows[1]["mean_sup_cum_deviation"]

    def test_curves_dir(self, tmp_path, capsys):
        curves = tmp_path / "study"
        assert run(["study", "--sizes", "10,20", "--seeds", 2, "--curves-dir", curves]) == 0
        names = {p.name for p in curves.iterdir()}
        assert "cumulative_accuracy_n10.svg" in names
        assert "accuracy_rate_n20.csv" in names

    def test_bad_sizes(self):
        with pytest.raises(SystemExit) as err:
            run(["study", "--sizes", "100,10"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            run(["study", "--sizes", "ten"])
        assert err.value.code == 2


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["eval"])
        assert err.value.code == 2

    def test_installed_entry_point(self, d0_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "lxcim.cli", "eval", "--input", str(d0_csv), "--output", "json"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["lxcim"] == 0.625


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="reads its input from /dev/stdin")
class TestPipedInput:
    """``--input /dev/stdin`` reads a pipe once, as it comes, with no copy to read it again."""

    @staticmethod
    def run_piped(argv, data):
        return subprocess.run(
            [sys.executable, "-m", "lxcim.cli", *argv], input=data, capture_output=True, env=child_env()
        )

    def test_eval_reads_a_pipe_as_the_file(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = tmp_path / "p.csv"
        write_prediction_file(path, random_dataset(rng, 3000), "csv")
        proc = self.run_piped(["eval", "--input", "/dev/stdin", "--output", "json"], path.read_bytes())
        assert proc.returncode == 0, proc.stderr
        assert run(["eval", "--input", path, "--output", "json"]) == 0
        assert proc.stdout.decode() == capsys.readouterr().out

    def test_bad_row_past_the_first_block(self):
        lines = [json.dumps({"score": i - 749.5, "label": i % 2}) for i in range(1500)]
        lines[1299] = '{"score": "abc", "label": 1}'
        data = "\n".join(lines).encode()
        proc = self.run_piped(["eval", "--input", "/dev/stdin", "--format", "jsonl"], data)
        assert proc.returncode == 3, proc.stderr
        assert "row 1300: score must be a number, got 'abc'" in proc.stderr.decode()


class TestChartBytes:
    """The SVG and CSV files that ``eval`` and ``study`` write, pinned by sha256."""

    EVAL_SVG = {
        "roc.svg": "9a3bac540d5929dd6a05e9b370dc0a1f0f44118587c2043a8fe73288aee54abc",
        "cumulative_accuracy.svg": "94ed4eb8bad6a418627d74ab4629b8460742f7adee397ab57cd10ba54875d1fd",
        "accuracy_rate.svg": "f47adffdb79237a8c5c328b0a45a8d7bfd9446a51be1126c0732c141b446d151",
    }
    STUDY_SVG = {
        "cumulative_accuracy_n6.svg": "25d83aaa6fc2ff45388a72b6a89a7f1580ed0f857e8678d1c1044bb05549cffe",
        "accuracy_rate_n6.svg": "5cfeaebca7231040ca10e8966b08011b56b2503baeffb98bfc59b3dae508c137",
        "cumulative_accuracy_n25.svg": "1ea5a6c0b8d41f4ffe93f92d507634092c74a57d5aa7aefb8219987538c52702",
        "accuracy_rate_n25.svg": "bf31b9c846c72c89c484431e54c160b60923cc76b75a754b804ec845066e56e9",
    }

    EVAL_CSV = {
        "roc.csv": "825c409c0e3ff7b3b22772b1c7732d186b440ffcf315463ae86ee6d8668fa4ed",
        "cumulative_accuracy.csv": "b6b6942a115cb9bb27075fdb203d292faeae0280f1c0100e21c7c4e67a5a9eef",
        "accuracy_rate.csv": "fbdc089a03fa304f4fde58c55fe77c074eeeff34dcde81d8a87aeda3f140878b",
    }
    STUDY_CSV = {
        "cumulative_accuracy_n6.csv": "5c10198d5314625ebf30952a12e538d0d6acc17d305b04385ea042399d74946c",
        "accuracy_rate_n6.csv": "9b84ac1103eaa9db865acf620a0fe829351e6c8c2f56bb26184d4555591e8184",
        "cumulative_accuracy_n25.csv": "6632737632c67e66af26c9136a977c0984667d5caf39e2b46ebe3629f6f61f6f",
        "accuracy_rate_n25.csv": "9b062d7088e3cf09b1ed1d1b2f2d4dde5d14d9a7bba13c65cae6d041af0ff4f9",
    }

    @staticmethod
    def digests(directory, suffix=".svg"):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()
            if p.suffix == suffix
        }

    def test_eval_charts(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        path.write_text(
            "score,label,weight\n-4,0,1\n-3,1,0.5\n1,0,2\n2,1,1\n3,1,1.25\n-3,0,1\n0.5,1,3\n",
            encoding="utf-8",
        )
        curves = tmp_path / "curves"
        assert run(["eval", "--input", path, "--curves-dir", curves]) == 0
        assert self.digests(curves) == self.EVAL_SVG
        assert self.digests(curves, ".csv") == self.EVAL_CSV

    def test_study_charts(self, tmp_path, capsys):
        curves = tmp_path / "study"
        assert run(["study", "--sizes", "6,25", "--seeds", 2, "--seed", 3, "--curves-dir", curves]) == 0
        assert self.digests(curves) == self.STUDY_SVG
        assert self.digests(curves, ".csv") == self.STUDY_CSV

    def test_eval_csvs_are_the_public_writers(self, tmp_path, capsys):
        # tie-free: every row is a breakpoint, so both decision-rate CSVs share a 30000-value x
        data = random_dataset(np.random.default_rng(23), 30_000)
        assert len(np.unique(np.abs(data.scores))) == len(data)
        path = tmp_path / "scores.csv"
        write_prediction_file(path, data)
        curves = tmp_path / "curves"
        assert run(["eval", "--input", path, "--curves-dir", curves]) == 0
        spec = lxcim.make_abs_spec(0.0)
        builders = {
            "cumulative_accuracy": lxcim.cumulative_accuracy_curve(data, spec),
            "accuracy_rate": lxcim.accuracy_rate_curve(data, spec),
            "roc": lxcim.roc_curve(data),
        }
        assert len(builders["accuracy_rate"]) == len(data)
        for name, curve in builders.items():
            expected = tmp_path / f"{name}.csv"
            lxcim.write_curve_csv(expected, curve)
            assert (curves / f"{name}.csv").read_bytes() == expected.read_bytes(), name


class TestNonFiniteMap:
    """A threshold whose shift of a score, or of its written exchange, overflows is a data error, exit 3."""

    CENTRING = "lxcim: far.csv: row 1: score 1e+308 minus s_star -1e+308 is not finite\n"

    @pytest.mark.parametrize(
        "command, scores, s_star, message",
        [
            (["duplicate", "--output", "out.csv"], ("1.0", "-2.0"), "1e308",
             "lxcim: far.csv: row 1: the exchange of score 1.0 about s_star 1e+308 is not finite\n"),
            (["eval"], ("1e308", "-2.0"), "-1e308", CENTRING),
            (["check", "--metric", "lxcim"], ("1e308", "-2.0"), "-1e308", CENTRING),
        ],
        ids=["duplicate", "eval", "check"],
    )
    def test_exit_three_without_warning_or_usage(
        self, tmp_path, monkeypatch, capsys, command, scores, s_star, message
    ):
        monkeypatch.chdir(tmp_path)
        Path("far.csv").write_text(f"score,label\n{scores[0]},1\n{scores[1]},0\n", encoding="utf-8")
        assert run(command + ["--input", "far.csv", f"--s-star={s_star}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
        assert "RuntimeWarning" not in captured.err and "usage:" not in captured.err
        assert not (tmp_path / "out.csv").exists()


class TestUnderflowingWeights:
    """Weights whose squared total underflows are a data error, exit 3."""

    @pytest.mark.parametrize("name", sorted(UNDERFLOWING))
    @pytest.mark.parametrize(
        "command",
        [["eval"], ["check", "--metric", "lxcim"], ["check", "--metric", "audrc"]],
        ids=["eval", "check", "check-audrc"],
    )
    def test_exit_three_with_one_line(self, tmp_path, capsys, name, command):
        path = tmp_path / "tiny.csv"
        write_prediction_file(path, UNDERFLOWING[name])
        assert run(command + ["--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lxcim: the weights underflow float arithmetic\n"


class TestWeightOverflow:
    """Weights whose total, or whose product of totals, overflows: check exits 3, as eval does."""

    @staticmethod
    def write(tmp_path, weight):
        path = tmp_path / "huge.csv"
        path.write_text(f"score,label,weight\n1.0,1,{weight}\n-0.5,1,{weight}\n0.3,0,{weight}\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("metric", ["lxcim", "audrc", "accuracy", "auroc"])
    def test_check_exits_three(self, tmp_path, capsys, metric):
        # the total weight is inf; accuracy and AUDRC once read 0.0 here and exited 0
        assert run(["check", "--metric", metric, "--input", self.write(tmp_path, "1e308")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lxcim: the weights overflow float arithmetic\n"

    @pytest.mark.parametrize("metric", ["lxcim", "audrc", "accuracy", "auroc"])
    def test_only_the_products_overflow(self, tmp_path, capsys, metric):
        # a total of 3e200 is finite, its square is not: LxCIM and AUROC once read nan
        code = run(["check", "--metric", metric, "--trials", "5", "--input", self.write(tmp_path, "1e200")])
        captured = capsys.readouterr()
        if metric in ("lxcim", "auroc"):
            assert (code, captured.out) == (3, "")
            assert captured.err == "lxcim: the weights overflow float arithmetic\n"
        else:
            assert code == 0
            baseline = float(captured.out.split("baseline=")[1].split()[0])
            assert baseline == pytest.approx(1 / 3 if metric == "accuracy" else 11 / 18, rel=1e-15)


class TestStartup:
    def test_cli_import_adds_no_network_or_xml_modules(self):
        # measured against numpy, so modules a site .pth preloads do not count
        code = (
            "import json, sys, numpy\n"
            "before = set(sys.modules)\n"
            "import lxcim.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        added = json.loads(proc.stdout)
        assert "lxcim.cli" in added and "lxcim.svg" in added
        heavy = {"urllib", "http", "email", "ssl", "socket", "xml", "html"}
        assert [name for name in added if name.split(".")[0] in heavy] == []
