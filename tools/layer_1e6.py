"""Layer timings at 1e6 rows and on many small datasets, for the BENCH_*.json ``layer_1e6`` records.

Run from a checkout, once per side and alternating sides, e.g.:

    python3 tools/layer_1e6.py                      # this checkout's src/
    python3 tools/layer_1e6.py --root ../parent     # another checkout's src/

The last line of standard output is one JSON object of timings for the
package under ``ROOT/src``.  The data is the ROADMAP Baseline's, of fixed
shape and seed: ``generate(GeneratorConfig(BIASED, 10**6, 1, 0.7,
RANDOM_POSITIVE))``, continuous as drawn and "tied" with the scores rounded
to 2 decimals.  The CLI check runs ``lxcim check --trials 100`` on the
check-tied data of ``ROOT/perfbench`` at seed 1, written as CSV.  Timings
are the best of a few calls in this one process: 5 rankings, 3 reports,
verifications and duplications, 2 twenty-trial checks, and 1 of each file
and CLI step.

The ``child_read_*`` keys time one ``read_prediction_rows`` of the 1e6-row
continuous CSV and JSONL files in a fresh process, read from disk and through
a pipe (``cat FILE |`` the process, which opens ``/dev/stdin``), with that
process's peak RSS (its ``VmHWM``); and the CSV once more with the score of
its last row made ``abc``, with the row its error names.

The ``roundtrip_*`` keys time the curve artifacts of ``lxcim eval
--curves-dir`` on the file-roundtrip data of ``ROOT/perfbench`` at seed 1
(30000 continuous rows): ``write_curve_csv`` and a one-series ``line_chart``
of each of the three public curves, in this process, the best of 5 calls; and
the wall time of ``python -m lxcim.cli eval --output json --curves-dir`` on
that data written as CSV, the best of 5 runs.

The ``float_text_*`` keys time the float formatter of the writers alone,
``lxcim.io._float_cells`` over the 1e6 continuous scores a write block at a
time, with the number of its ``repr`` calls; and, for scale, one
``repr`` per score.  Both are the best of 3 calls.

The ``small_*_us`` keys time the fixed cost of each call instead, on the
thousand datasets of 8 to 512 rows of the many-small workload at seed 1
(``workloads._setup_small(1, FULL)``): the ranking, ``report``, each curve
builder, each verifier and a 3-trial ``lxcim`` check.  Each is the median of
5 passes over all the datasets, a pass giving its mean microseconds per
dataset.  Beside the package and its benchmark, numpy and the standard
library only; the tests do not run it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

ROWS = 10**6
SEED = 1
AGREEMENT = 0.7
SMALL_PASSES = 5


def best_of(repeats: int, call) -> float:
    """The shortest wall time of ``repeats`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


# one read_prediction_rows call in a fresh process: its seconds, the process's peak RSS, and the
# data row that an error names (None for a file that reads).  Linux carries ru_maxrss over fork
# and exec, so a child of this large process would report at least this one's RSS; the peak of
# the child's own memory is VmHWM, which exec starts afresh.
CHILD_READ = """
import json, resource, sys, time
from lxcim.io import read_prediction_rows
from lxcim.errors import PredictionFileError
start, row = time.perf_counter(), None
try:
    read_prediction_rows(sys.argv[1], sys.argv[2])
except PredictionFileError as exc:
    row = exc.row
seconds = time.perf_counter() - start
try:
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
print(json.dumps({"s": seconds, "maxrss_mb": kib / 1024.0, "row": row}))
"""


def read_in_child(path: Path, fmt: str, piped: bool, env: dict) -> dict:
    """Read ``path`` in a child process, from disk or through a pipe fed by ``cat``."""
    command = [sys.executable, "-c", CHILD_READ]
    if not piped:
        done = subprocess.run([*command, str(path), fmt], env=env, check=True, capture_output=True)
        return json.loads(done.stdout)
    with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as cat:
        done = subprocess.run([*command, "/dev/stdin", fmt], stdin=cat.stdout, env=env, check=True,
                              capture_output=True)
        cat.stdout.close()
    return json.loads(done.stdout)


def with_bad_last_row(path: Path, bad: Path) -> Path:
    """A copy of the CSV file ``path`` whose last row has the score ``abc``."""
    shutil.copyfile(path, bad)
    with open(bad, "r+b") as handle:
        handle.seek(-512, os.SEEK_END)
        tail = handle.read()
        start = tail.rindex(b"\n", 0, len(tail) - 1) + 1  # after the line end before the last row
        handle.seek(start - len(tail), os.SEEK_END)
        handle.write(b"abc" + tail[tail.index(b",", start):])
        handle.truncate()
    return bad


def measure(root: Path, workdir: Path) -> dict:
    import lxcim
    import workloads
    from lxcim.verify import GeneratorConfig, GeneratorKind, WeightMode

    spec = lxcim.make_abs_spec(0.0)
    metric = partial(lxcim.lxcim, spec=spec)
    continuous = lxcim.generate(
        GeneratorConfig(GeneratorKind.BIASED, ROWS, SEED, AGREEMENT, WeightMode.RANDOM_POSITIVE)
    )
    shapes = {
        "continuous": continuous,
        "tied": lxcim.Dataset(np.round(continuous.scores, 2), continuous.labels, continuous.weights),
    }
    out: dict = {"rows": ROWS, "seed": SEED}
    for shape, data in shapes.items():
        out[f"{shape}_rank_ms"] = 1e3 * best_of(5, lambda: lxcim.rank_by_confidence(data, spec))
        out[f"{shape}_report_ms"] = 1e3 * best_of(3, lambda: lxcim.report(data, spec))
        out[f"{shape}_check20_s"] = best_of(
            2, lambda: lxcim.check_rank_lxc_invariance(metric, data, spec, trials=20, seed=SEED)
        )
        out[f"{shape}_verifiers_ms"] = 1e3 * best_of(
            3, lambda: (lxcim.verify_doubling_identity(data, spec), lxcim.verify_crossing_point(data, spec))
        )
        out[f"{shape}_duplicate_ms"] = 1e3 * best_of(3, lambda: lxcim.duplicate_dataset(data, spec))

    out.update(measure_float_text(continuous.scores))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for fmt in ("csv", "jsonl"):
        path = workdir / f"continuous.{fmt}"
        out[f"write_{fmt}_s"] = best_of(1, lambda: lxcim.write_prediction_file(path, continuous, fmt))
        out[f"ingest_{fmt}_s"] = best_of(1, lambda: lxcim.ingest(path, fmt))
        for source in ("disk", "pipe"):
            read = read_in_child(path, fmt, source == "pipe", env)
            out[f"child_read_{fmt}_{source}_s"] = read["s"]
            out[f"child_read_{fmt}_{source}_maxrss_mb"] = read["maxrss_mb"]
    bad = with_bad_last_row(workdir / "continuous.csv", workdir / "bad-last-row.csv")
    read = read_in_child(bad, "csv", False, env)
    out["child_read_csv_bad_last_row_s"], out["child_read_csv_bad_last_row_row"] = read["s"], read["row"]

    (check_tied,) = workloads._setup_tied(SEED, workloads.FULL, workdir)
    tied_csv = workdir / "check-tied.csv"
    lxcim.write_prediction_file(tied_csv, check_tied.data, "csv")
    for name in ("lxcim", "accuracy"):
        command = [sys.executable, "-m", "lxcim.cli", "check", "--input", str(tied_csv), "--metric", name,
                   "--trials", "100"]
        out[f"check_tied_cli_check100_{name}_s"] = best_of(
            1, lambda: subprocess.run(command, env=env, check=True, capture_output=True)
        )
    out.update(measure_roundtrip(spec, workdir, env))
    out.update(measure_small(spec, metric, workdir))
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return {k: round(v, 4) if isinstance(v, float) else v for k, v in out.items()}


def measure_float_text(column: np.ndarray) -> dict:
    """Seconds to format a column's floats as the writers do, a block at a time, and how many
    calls of ``repr`` that takes; and seconds of one ``repr`` per float, for scale.

    The formatter keys are None for a package without ``lxcim.io._float_cells``.
    """
    from lxcim import io

    out = {"float_text_values": len(column)}
    out["float_text_repr_s"] = best_of(3, lambda: list(map(repr, column.tolist())))
    if not hasattr(io, "_float_cells"):
        return {**out, "float_text_format_s": None, "float_text_format_repr_calls": None}
    blocks = [column[start : start + io._WRITE_ROWS] for start in range(0, len(column), io._WRITE_ROWS)]
    out["float_text_format_s"] = best_of(3, lambda: list(map(io._float_cells, blocks)))
    calls = []
    io.repr = lambda value: calls.append(value) or repr(value)
    try:
        list(map(io._float_cells, blocks))
    finally:
        del io.repr
    out["float_text_format_repr_calls"] = len(calls)
    return out


def measure_roundtrip(spec, workdir: Path, env: dict) -> dict:
    """Milliseconds to write each curve's CSV and chart, and seconds of the eval CLI that writes them."""
    import lxcim
    import workloads
    from lxcim.svg import Series, line_chart

    (case,) = workloads._setup_roundtrip(SEED, workloads.FULL, workdir)
    curves = {
        "cumulative_accuracy": lxcim.cumulative_accuracy_curve(case.data, spec),
        "accuracy_rate": lxcim.accuracy_rate_curve(case.data, spec),
        "roc": lxcim.roc_curve(case.data),
    }
    out: dict = {"roundtrip_rows": len(case.data)}
    for kind, curve in curves.items():
        path = workdir / f"{kind}.csv"
        out[f"roundtrip_write_curve_csv_{kind}_ms"] = 1e3 * best_of(5, lambda: lxcim.write_curve_csv(path, curve))
        out[f"roundtrip_line_chart_{kind}_ms"] = 1e3 * best_of(
            5, lambda: line_chart([Series(kind, curve.x, curve.y)])
        )
    command = [sys.executable, "-m", "lxcim.cli", "eval", "--input", str(case.csv), "--output", "json",
               "--curves-dir", str(workdir / "curves")]
    out["roundtrip_cli_eval_curves_s"] = best_of(
        5, lambda: subprocess.run(command, env=env, check=True, capture_output=True)
    )
    return out


def measure_small(spec, metric, workdir: Path) -> dict:
    """Median over passes of the mean microseconds per many-small dataset, per call."""
    import lxcim
    import workloads

    datasets = [case.data for case in workloads._setup_small(SEED, workloads.FULL, workdir)]
    calls = {
        "rank": lambda d: lxcim.rank_by_confidence(d, spec),
        "report": lambda d: lxcim.report(d, spec),
        "cumulative_accuracy_curve": lambda d: lxcim.cumulative_accuracy_curve(d, spec),
        "accuracy_rate_curve": lambda d: lxcim.accuracy_rate_curve(d, spec),
        "roc_curve": lxcim.roc_curve,
        "verify_doubling": lambda d: lxcim.verify_doubling_identity(d, spec),
        "verify_crossing": lambda d: lxcim.verify_crossing_point(d, spec),
        "check3": lambda d: lxcim.check_rank_lxc_invariance(metric, d, spec, trials=3, seed=SEED),
    }
    out = {"small_datasets": len(datasets), "small_rows": sum(len(d) for d in datasets)}
    for name, call in calls.items():
        passes = []
        for _ in range(SMALL_PASSES):
            start = time.perf_counter()
            for data in datasets:
                call(data)
            passes.append((time.perf_counter() - start) / len(datasets))
        out[f"small_{name}_us"] = 1e6 * float(np.median(passes))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is timed (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    for needed in (root / "src" / "lxcim" / "__init__.py", root / "perfbench" / "workloads.py"):
        if not needed.is_file():
            parser.error(f"no {needed.relative_to(root)} under {root}")
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    with tempfile.TemporaryDirectory() as workdir:
        result = measure(root, Path(workdir))
    print(json.dumps({"root": str(root), **result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
