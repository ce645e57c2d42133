"""The CLI's exit-code contract over generated prediction files.

Every run exits 0, 2 or 3, and 1 only from ``check``, never with a
traceback.  Exit 3 comes with exactly one ``lxcim:`` line on stderr.  Every
number ``eval`` prints, and ``check``'s baseline, is finite.  The files draw
scores and weights from the whole finite float range, subnormals included,
labels with quotes, BOMs and separators, and rows cut short at any byte.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from lxcim.cli import main

from conftest import subnormal_weight_datasets, underflowing_datasets

LABELS = ("1", "0", "yes", "a,b", 'say "no"', '"', "\ufeff1", " 1 ", "", "é")
SPECIAL = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-170, 1.0, 1e300, 1e308, 1.7976931348623157e308)
COMMANDS = (
    ["eval"],
    ["eval", "--output", "json"],
    ["check", "--metric", "lxcim"],
    ["check", "--metric", "audrc"],
    ["check", "--metric", "accuracy"],
    ["check", "--metric", "auroc"],
    ["duplicate"],
)

finite = st.floats(allow_nan=False, allow_infinity=False)
ties = st.sampled_from((-1.0, -0.5, 0.5, 1.0))
values = st.one_of(finite, ties, st.sampled_from(SPECIAL), st.sampled_from(SPECIAL).map(lambda v: -v))
positive = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False), st.floats(0.5, 2.0), st.sampled_from(SPECIAL[2:])
)


def csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def csv_text(rows, weighted: bool = True) -> str:
    lines = ["score,label,weight" if weighted else "score,label"]
    for score, label, weight in rows:
        cells = [repr(score), csv_cell(label)] + ([repr(weight)] if weighted else [])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def jsonl_text(rows) -> str:
    return "".join(json.dumps({"score": s, "label": y, "weight": w}) + "\n" for s, y, w in rows)


@st.composite
def prediction_files(draw):
    """(format, file bytes, positive label) for rows of one to three labels.

    One file in four draws its weights from all finite values, zero and
    negatives included; one in four loses its label quoting, or is cut at
    some byte.
    """
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    weights = values if draw(st.integers(0, 3)) == 0 else positive
    rows = draw(st.lists(st.tuples(values, st.sampled_from(labels), weights), min_size=1, max_size=8))
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    if fmt == "csv":
        text = csv_text(rows, weighted=draw(st.booleans()))
        if draw(st.integers(0, 3)) == 0:  # commas and quotes in labels stay raw
            text = text.replace('"', "")
        if draw(st.booleans()):
            text = "\ufeff" + text
    else:
        text = jsonl_text(rows)
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    return fmt, data, labels[0]


def pinned(dataset):
    rows = zip(dataset.scores.tolist(), dataset.labels.astype(str).tolist(), dataset.weights.tolist())
    return "csv", csv_text(rows).encode("utf-8"), "1"


HUGE = ("csv", b"score,label,weight\n0.5,1,1e308\n-0.5,0,1e308\n0.2,0,1e308\n", "1")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(command, code, out, err):
    allowed = {0, 1, 2, 3} if command[0] == "check" else {0, 2, 3}
    assert code in allowed, (code, out, err)
    assert "Traceback" not in err
    if code == 3:
        assert out == ""
        assert err.startswith("lxcim: ") and err.count("\n") == 1, err
    if code != 0 or command[0] == "duplicate":
        return
    if command[0] == "check":
        baseline = re.search(r"baseline=(\S+)", out).group(1)
        assert math.isfinite(float(baseline)), out
    elif "json" in command:
        payload = json.loads(out)
        assert all(v is None or math.isfinite(v) for v in payload.values()), out
    else:
        for line in out.splitlines():
            value = line.split()[-1]
            assert value == "n/a" or math.isfinite(float(value)), out


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(file=prediction_files(), threshold=st.one_of(st.none(), st.just(0.5), values))
@example(file=pinned(underflowing_datasets()["four-1e-170"]), threshold=None)
@example(file=pinned(underflowing_datasets()["scaled-2^-540"]), threshold=None)
@example(file=HUGE, threshold=None)
@example(file=pinned(subnormal_weight_datasets()["2^-1066"]), threshold=None)
def test_exit_codes_and_output(file, threshold):
    fmt, data, positive_label = file
    options = [] if threshold is None else [f"--s-star={threshold!r}"]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"predictions.{fmt}"
        path.write_bytes(data)
        for command in COMMANDS:
            argv = [*command, "--input", str(path), "--format", fmt, f"--positive-label={positive_label}", *options]
            if command == ["duplicate"]:
                argv += ["--output", str(Path(directory) / "doubled")]
            code, out, err = run(argv)
            assert_contract(command, code, out, err)
