"""The benchmark's three workloads: inputs from a seed, timed operations, checks.

Every workload runs the same six operation kinds, each at its own data shape:

* ``eval``: what ``lxcim eval --curves-dir`` computes, the metrics report and
  the three curves.  On file-roundtrip it is the CLI itself, reading the CSV
  and writing curve CSVs and SVG charts; elsewhere it is the library calls.
* ``duplicate``: the dataset unioned with its full class exchange.  The CLI
  on the JSONL file on file-roundtrip, ``duplicate_dataset`` elsewhere.
* ``report``, ``check`` (``check_rank_lxc_invariance``), ``verify`` (both
  duplication identities) and ``study`` (one ``convergence_study`` per pass).

A pass runs every operation once on every dataset of the workload.  Each
operation's output is checked right after it, outside its timer: the first
output gets the full correctness check, later ones must equal it exactly.
Traced passes add probe calls of single public functions, so that each layer
gets its own span.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lxcim import (
    Dataset,
    ExchangeMask,
    accuracy_rate_curve,
    audrc,
    auroc,
    brute_auroc,
    check_rank_lxc_invariance,
    convergence_study,
    cumulative_accuracy_curve,
    duplicate_dataset,
    exchange_subset,
    generate,
    ingest,
    lxcim,
    make_abs_spec,
    rank_by_confidence,
    report,
    roc_curve,
    verify_crossing_point,
    verify_doubling_identity,
    write_curve_csv,
    write_prediction_file,
)
from lxcim.io import build_dataset, read_prediction_rows
from lxcim.svg import Series, line_chart
from lxcim.verify import GeneratorConfig, GeneratorKind, WeightMode

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

AGREEMENT = 0.7  # BIASED generator: a label agrees with the decision with probability p
SMALL_SIZES = (8, 512)  # many-small dataset sizes, log-uniform between these
STUDY_SIZES = (8, 32, 128, 512)
SPEC = make_abs_spec(0.0)
# set-up is repeated until it has taken SETUP_BUDGET_S, within these counts
SETUP_REPEATS = (5, 25)
SETUP_BUDGET_S = 1.0
CLI_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "eval_rows_per_s": "rows/s",
    "duplicate_rows_per_s": "rows/s",
    "report_rows_per_s": "rows/s",
    "check_trials_per_s": "trials/s",
    "verify_rows_per_s": "rows/s",
    "study_datasets_per_s": "datasets/s",
    "peak_rss_mb": "MB",
}
RATE_OF_KIND = {
    "eval": "eval_rows_per_s",
    "duplicate": "duplicate_rows_per_s",
    "report": "report_rows_per_s",
    "check": "check_trials_per_s",
    "verify": "verify_rows_per_s",
    "study": "study_datasets_per_s",
}

LAYERS = ("io", "model", "metrics", "exchange", "verify", "svg", "cli")
TIMED_CALLS = (
    "io.read_csv", "io.read_jsonl", "io.build_dataset", "io.write_jsonl", "io.write_curve_csv",
    "model.dataset", "model.rank",
    "metrics.report", "metrics.lxcim", "metrics.auroc", "metrics.curves",
    "exchange.mask", "exchange.subset", "exchange.duplicate", "exchange.check",
    "verify.doubling", "verify.crossing", "verify.generate", "verify.study",
    "svg.chart",
    "cli.startup",
)
COUNTED = {"io.rows_read": "count", "io.bytes_written": "bytes", "exchange.trials": "count",
           "svg.bytes": "bytes"}
PER_LAYER = {
    **{f"{call}_s": "s" for call in TIMED_CALLS},
    **COUNTED,
    "model.tie_groups": "count",
    "model.max_tie_share": "share",
    "model.rows_at_threshold": "count",
    "metrics.report_per_rank": "ratio",
    "exchange.check_overhead_share": "share",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_share": "share",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test runs the same workloads at tiny ones."""

    roundtrip_rows: int = 30_000
    tied_rows: int = 200_000
    small_datasets: int = 1_000
    study_seeds: int = 100


FULL = Sizes()
TINY = Sizes(roundtrip_rows=300, tied_rows=3_000, small_datasets=8, study_seeds=3)


@dataclass
class Case:
    """One dataset of a workload, with the files it was written to, if any."""

    data: Dataset
    config: GeneratorConfig
    tied: bool
    csv: Path | None = None
    jsonl: Path | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Sizes, Path], list[Case]]
    through_cli: bool
    check_metrics: tuple[str, ...]
    check_trials: int
    # cheap operations run several times a pass, so each kind gets enough time
    repeats: tuple[tuple[str, int], ...] = ()


def round_away(scores: np.ndarray) -> np.ndarray:
    """Two decimals, rounded away from zero: ties, and no score lands on s* = 0."""
    return np.sign(scores) * np.ceil(np.abs(scores) * 100.0) / 100.0


def _draw(config: GeneratorConfig, tied: bool) -> Dataset:
    data = generate(config)
    return Dataset(round_away(data.scores), data.labels, data.weights) if tied else data


def _setup_roundtrip(seed: int, sizes: Sizes, workdir: Path) -> list[Case]:
    config = GeneratorConfig(GeneratorKind.BIASED, sizes.roundtrip_rows, seed, AGREEMENT,
                             WeightMode.RANDOM_POSITIVE)
    data = generate(config)
    csv_path, jsonl_path = workdir / "input.csv", workdir / "input.jsonl"
    write_prediction_file(csv_path, data, "csv")
    write_prediction_file(jsonl_path, data, "jsonl")
    return [Case(data, config, False, csv_path, jsonl_path)]


def _setup_tied(seed: int, sizes: Sizes, workdir: Path) -> list[Case]:
    config = GeneratorConfig(GeneratorKind.BIASED, sizes.tied_rows, seed, AGREEMENT,
                             WeightMode.RANDOM_POSITIVE)
    return [Case(_draw(config, True), config, True)]


def _setup_small(seed: int, sizes: Sizes, workdir: Path) -> list[Case]:
    # one log-uniform size in each of `small_datasets` equal strata, so that
    # every seed gets nearly the same mix of sizes and the same total work
    rng = np.random.default_rng(seed)
    count = sizes.small_datasets
    strata = (np.arange(count) + rng.random(count)) / count
    low, high = map(math.log, SMALL_SIZES)
    lengths = np.rint(np.exp(low + strata * (high - low))).astype(int)
    cases = []
    for index, n in enumerate(lengths):
        tied = index % 2 == 1
        mode = WeightMode.RANDOM_POSITIVE if index // 2 % 2 else WeightMode.UNIFORM
        # redraw the rare tiny dataset that holds one class only, on which
        # AUROC is undefined and report() degrades instead of answering
        for draw in range(1000):
            sub_seed = int(np.random.SeedSequence((seed, index, draw)).generate_state(1)[0])
            config = GeneratorConfig(GeneratorKind.BIASED, int(n), sub_seed, AGREEMENT, mode)
            data = _draw(config, tied)
            if 0 < int(data.labels.sum()) < len(data):
                break
        cases.append(Case(data, config, tied))
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "file-roundtrip",
            "CLI eval and duplicate on CSV/JSONL files of continuous scores: io and svg "
            "dominate, curves have ~n points, no ties in ranking",
            _setup_roundtrip, True, ("lxcim", "audrc", "auroc"), 1,
            (("report", 5), ("check", 3), ("verify", 3), ("study", 2)),
        ),
        Workload(
            "check-tied",
            "one large in-memory dataset in ~100 tie groups, no I/O: model, metrics, exchange "
            "and verify do all the work, and the canonical tie suborder is exercised",
            _setup_tied, False, ("lxcim", "audrc", "auroc"), 3,
            (("duplicate", 5), ("study", 3)),
        ),
        Workload(
            "many-small",
            "a thousand in-memory datasets of 8..512 rows, mixed ties and weights: "
            "the fixed cost of each call dominates, not numpy bulk work",
            _setup_small, False, ("lxcim",), 3, (("study", 2),),
        ),
    )
}


# ---- correctness checks ----------------------------------------------------


def _weighted_auroc(data: Dataset) -> float:
    """Mann-Whitney AUROC by score groups, ties counting one half."""
    scores, inverse = np.unique(data.scores, return_inverse=True)
    pos = np.bincount(inverse, weights=data.weights * (data.labels == 1), minlength=len(scores))
    neg = np.bincount(inverse, weights=data.weights * (data.labels == 0), minlength=len(scores))
    neg_below = np.concatenate(([0.0], np.cumsum(neg)[:-1]))
    return float(np.sum(pos * (neg_below + 0.5 * neg)) / (pos.sum() * neg.sum()))


def _report_problems(rep, case: Case) -> list[str]:
    data = case.data
    correct = (data.scores > 0.0) == (data.labels == 1)
    problems = []
    if abs(rep.accuracy - data.weights[correct].sum() / data.weights.sum()) > 1e-12:
        problems.append(f"accuracy {rep.accuracy!r} disagrees with the weighted share")
    if rep.auroc is None or abs(rep.auroc - _weighted_auroc(data)) > 1e-12:
        problems.append(f"auroc {rep.auroc!r} disagrees with the Mann-Whitney count")
    if len(data) <= 512 and rep.auroc is not None and abs(rep.auroc - brute_auroc(data)) > 1e-12:
        problems.append(f"auroc {rep.auroc!r} disagrees with brute_auroc")
    # a perfect dataset's lxcim can round to one ulp above 1
    if not all(-1e-12 <= v <= 1.0 + 1e-12 for v in (rep.lxcim, rep.audrc)):
        problems.append(f"lxcim or audrc outside [0, 1]: {rep}")
    return problems


def _curve_problems(rep, curves) -> list[str]:
    cum, rate, roc = curves
    problems = []
    if cum.x[-1] != 1.0 or cum.y[-1] != rep.accuracy or rate.y[-1] != rep.accuracy:
        problems.append("cumulative or rate curve does not end at the accuracy")
    if (roc.x[0], roc.y[0], roc.x[-1], roc.y[-1]) != (0.0, 0.0, 1.0, 1.0):
        problems.append("ROC curve does not run from (0, 0) to (1, 1)")
    doubled_area = float(np.sum(np.diff(cum.x) * (cum.y[1:] + cum.y[:-1])))
    if abs(doubled_area - rep.lxcim) > 1e-12:
        problems.append(f"lxcim {rep.lxcim!r} is not twice the area under G ({doubled_area!r})")
    return problems


def _duplicate_problems(doubled: Dataset, data: Dataset) -> list[str]:
    n = len(data)
    head = (doubled.scores[:n], doubled.labels[:n], doubled.weights[:n])
    tail = (doubled.scores[n:], doubled.labels[n:], doubled.weights[n:])
    if len(doubled) != 2 * n or not all(
        np.array_equal(a, b) for a, b in zip(head, (data.scores, data.labels, data.weights))
    ):
        return ["duplicate does not start with the original rows"]
    if not all(np.array_equal(a, b)
               for a, b in zip(tail, (-data.scores, 1 - data.labels, data.weights))):
        return ["duplicate's second half is not the exchanged original"]
    return []


def _check_problems(reports, metrics: tuple[str, ...]) -> list[str]:
    problems = []
    for name, rep in zip(metrics, reports):
        if name == "auroc":
            if rep.witness is None:
                problems.append("auroc check found no witness")
        elif not rep.passed or rep.max_deviation != 0.0:
            problems.append(f"{name} moved under exchange: max deviation {rep.max_deviation!r}")
    return problems


def _verify_problems(out) -> list[str]:
    doubling, crossing = out
    problems = []
    if not doubling.passed:
        problems.append(f"doubling identity off by {doubling.doubling_deviation!r}"
                        f" / {doubling.area_identity_deviation!r}")
    if not crossing.passed:
        problems.append(f"crossing point off by {crossing.deviation!r}")
    return problems


def _study_problems(result) -> list[str]:
    rows = result.rows
    if tuple(r.size for r in rows) != STUDY_SIZES:
        return ["study rows do not match the requested sizes"]
    values = [v for r in rows for v in (r.mean_sup_cum_deviation, r.mean_sup_rate_deviation)]
    if not all(0.0 <= v <= 0.5 for v in values):
        return [f"study deviations outside [0, 0.5]: {values}"]
    if not rows[0].mean_sup_cum_deviation > rows[-1].mean_sup_cum_deviation:
        return ["chance-level cumulative curve does not converge as size grows"]
    return []


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Op:
    """One timed operation plus the check applied to its output.

    ``check`` runs the full check on the first output that has no reference
    yet; every later output must have the same fingerprint as that one.
    """

    def __init__(self, kind: str, units: int, run, full_check, fingerprint):
        self.kind = kind
        self.units = units
        self.run = run
        self._full_check = full_check
        self._fingerprint = fingerprint
        self._reference = None

    def check(self, out) -> list[str]:
        fingerprint = self._fingerprint(out)
        if self._reference is None:
            problems = self._full_check(out)
            if not problems:
                self._reference = fingerprint
            return problems
        return [] if fingerprint == self._reference else ["output differs from the checked one"]


# ---- operations --------------------------------------------------------------


CURVE_BUILDERS = (
    ("cumulative_accuracy", lambda d: cumulative_accuracy_curve(d, SPEC)),
    ("accuracy_rate", lambda d: accuracy_rate_curve(d, SPEC)),
    ("roc", roc_curve),
)
METRIC_FNS = {
    "lxcim": functools.partial(lxcim, spec=SPEC),
    "audrc": functools.partial(audrc, spec=SPEC),
    "auroc": auroc,
}


def _cli(tracer: Tracer, span: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC),
                                                                     os.environ.get("PYTHONPATH")))))
    return tracer.call(span, subprocess.run, [sys.executable, "-m", "lxcim.cli", *args],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)


def _report_fingerprint(rep) -> tuple:
    return tuple(rep.as_dict().values())


def _eval_op(case: Case, tracer: Tracer, workdir: Path) -> Op:
    n = len(case.data)
    if not case.csv:
        def run():
            rep = tracer.call("metrics.report", report, case.data, SPEC)
            curves = tuple(tracer.call("metrics.curves", b, case.data) for _, b in CURVE_BUILDERS)
            return rep, curves

        def full(out):
            return _report_problems(out[0], case) + _curve_problems(*out)

        def fingerprint(out):
            return _report_fingerprint(out[0]), _digest(*(a for c in out[1] for a in (c.x, c.y)))

        return Op("eval", n, run, full, fingerprint)

    curves_dir = workdir / "curves"

    def run():
        return _cli(tracer, "cli.eval", "eval", "--input", str(case.csv), "--output", "json",
                    "--curves-dir", str(curves_dir))

    def full(proc):
        if proc.returncode != 0:
            return [f"eval exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        rep = report(case.data, SPEC)
        expected = {**rep.as_dict(), "n": n, "total_weight": case.data.total_weight}
        if json.loads(proc.stdout) != expected:
            return [f"eval printed {proc.stdout.strip()!r}, report gives {expected!r}"]
        problems = []
        for kind, builder in CURVE_BUILDERS:
            curve = builder(case.data)
            written = np.loadtxt(curves_dir / f"{kind}.csv", delimiter=",", skiprows=1, ndmin=2)
            if not (np.array_equal(written[:, 0], curve.x) and np.array_equal(written[:, 1], curve.y)):
                problems.append(f"{kind}.csv differs from the curve builder's breakpoints")
            if not (curves_dir / f"{kind}.svg").read_text(encoding="utf-8").startswith("<svg"):
                problems.append(f"{kind}.svg is not an SVG document")
        return problems

    def fingerprint(proc):
        files = sorted(curves_dir.iterdir()) if proc.returncode == 0 else []
        return proc.returncode, proc.stdout, tuple((p.name, _file_digest(p)) for p in files)

    return Op("eval", n, run, full, fingerprint)


def _duplicate_op(case: Case, tracer: Tracer, workdir: Path) -> Op:
    n = len(case.data)
    if not case.jsonl:
        def run():
            return tracer.call("exchange.duplicate", duplicate_dataset, case.data, SPEC)

        return Op("duplicate", n, run, lambda d: _duplicate_problems(d, case.data),
                  lambda d: _digest(d.scores, d.labels, d.weights))

    output = workdir / "duplicate.jsonl"

    def run():
        return _cli(tracer, "cli.duplicate", "duplicate", "--input", str(case.jsonl),
                    "--format", "jsonl", "--output", str(output))

    def full(proc):
        if proc.returncode != 0:
            return [f"duplicate exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        doubled, _ = ingest(output, "jsonl")
        if doubled != duplicate_dataset(case.data, SPEC):
            return ["duplicate file, read back, differs from duplicate_dataset"]
        return _duplicate_problems(doubled, case.data)

    def fingerprint(proc):
        return proc.returncode, _file_digest(output) if proc.returncode == 0 else None

    return Op("duplicate", n, run, full, fingerprint)


def _case_ops(case: Case, workload: Workload, tracer: Tracer, workdir: Path, seed: int) -> list[Op]:
    data, n = case.data, len(case.data)
    metrics = workload.check_metrics

    def run_check():
        reports = []
        for name in metrics:
            fn = METRIC_FNS[name]
            if tracer.enabled:
                fn = functools.partial(tracer.call, f"metrics.{name}", fn)
            reports.append(tracer.call("exchange.check", check_rank_lxc_invariance, fn, data, SPEC,
                                       trials=workload.check_trials, seed=seed))
            tracer.add("exchange.trials", workload.check_trials)
        return reports

    def run_verify():
        return (tracer.call("verify.doubling", verify_doubling_identity, data, SPEC),
                tracer.call("verify.crossing", verify_crossing_point, data, SPEC))

    return [
        _eval_op(case, tracer, workdir),
        _duplicate_op(case, tracer, workdir),
        Op("report", n, lambda: tracer.call("metrics.report", report, data, SPEC),
           lambda rep: _report_problems(rep, case), _report_fingerprint),
        Op("check", len(metrics) * workload.check_trials, run_check,
           lambda out: _check_problems(out, metrics),
           lambda out: tuple((r.baseline, r.max_deviation,
                              r.witness.mask.as_tuple() if r.witness else None) for r in out)),
        Op("verify", n, run_verify, _verify_problems,
           lambda out: (out[0].doubling_deviation, out[0].area_identity_deviation,
                        out[1].deviation)),
    ]


def _study_op(sizes: Sizes, tracer: Tracer, seed: int) -> Op:
    def run():
        return tracer.call("verify.study", convergence_study, STUDY_SIZES, sizes.study_seeds,
                           base_seed=seed)

    return Op("study", len(STUDY_SIZES) * sizes.study_seeds, run, _study_problems,
              lambda r: tuple((x.mean_sup_cum_deviation, x.mean_sup_rate_deviation)
                              for x in r.rows))


# ---- probes: single public calls, run in traced passes only ------------------


def _probe_case(case: Case, tracer: Tracer, rng: np.random.Generator) -> None:
    data = case.data
    tracer.call("model.dataset", Dataset, data.scores, data.labels, data.weights)
    tracer.call("model.rank", rank_by_confidence, data, SPEC)
    tracer.call("metrics.lxcim", lxcim, data, SPEC)
    tracer.call("metrics.auroc", auroc, data)
    mask = tracer.call("exchange.mask", ExchangeMask, np.nonzero(rng.random(len(data)) < 0.5)[0])
    tracer.call("exchange.subset", exchange_subset, data, mask, SPEC)
    tracer.call("verify.generate", generate, case.config)


def _probe_files(case: Case, tracer: Tracer, workdir: Path) -> None:
    """The calls ``lxcim eval`` and ``lxcim duplicate`` make, one span each."""
    rows = tracer.call("io.read_csv", read_prediction_rows, case.csv, "csv")
    tracer.add("io.rows_read", len(rows))
    data, spec, _ = tracer.call("io.build_dataset", build_dataset, rows, "1", 0.0)
    tracer.call("metrics.report", report, data, spec)
    for kind, builder in CURVE_BUILDERS:
        curve = tracer.call("metrics.curves", builder, data)
        path = workdir / f"probe-{kind}.csv"
        tracer.call("io.write_curve_csv", write_curve_csv, path, curve)
        tracer.add("io.bytes_written", path.stat().st_size)
        chart = tracer.call("svg.chart", line_chart, [Series(kind, curve.x, curve.y)], title=kind)
        tracer.add("svg.bytes", len(chart.encode("utf-8")))

    rows = tracer.call("io.read_jsonl", read_prediction_rows, case.jsonl, "jsonl")
    tracer.add("io.rows_read", len(rows))
    data, spec, _ = tracer.call("io.build_dataset", build_dataset, rows, "1", 0.0)
    doubled = tracer.call("exchange.duplicate", duplicate_dataset, data, spec)
    path = workdir / "probe-duplicate.jsonl"
    tracer.call("io.write_jsonl", write_prediction_file, path, doubled, "jsonl")
    tracer.add("io.bytes_written", path.stat().st_size)

    proc = _cli(tracer, "cli.startup", "--help")
    if proc.returncode != 0:
        raise RuntimeError(f"lxcim --help exited {proc.returncode}")


# ---- diagnostics -------------------------------------------------------------


def _shape(data: Dataset) -> dict:
    confidence = np.abs(data.scores - SPEC.s_star)
    _, inverse, counts = np.unique(confidence, return_inverse=True, return_counts=True)
    group_weight = np.bincount(inverse, weights=data.weights)
    total = float(data.weights.sum())
    return {
        "n": len(data),
        "total_weight": total,
        "positive_weight_share": float(data.weights[data.labels == 1].sum()) / total,
        "tie_groups": len(counts),
        "max_tie_share": float(group_weight.max()) / total,
        "rows_at_threshold": int(np.sum(data.scores == SPEC.s_star)),
    }


def diagnostics(cases: list[Case]) -> dict:
    """Dataset shape: what decides ranking cost and whether identities are exact."""
    shapes = [_shape(c.data) for c in cases]
    if len(shapes) == 1:
        return shapes[0]
    sizes = [s["n"] for s in shapes]
    total = sum(s["total_weight"] for s in shapes)
    return {
        "datasets": len(shapes),
        "n": sum(sizes),
        "n_min": min(sizes),
        "n_median": statistics.median(sizes),
        "n_max": max(sizes),
        "tied_datasets": sum(c.tied for c in cases),
        "total_weight": total,
        "positive_weight_share": sum(s["positive_weight_share"] * s["total_weight"]
                                     for s in shapes) / total,
        "tie_groups": sum(s["tie_groups"] for s in shapes),
        "max_tie_share": max(s["max_tie_share"] for s in shapes),
        "rows_at_threshold": sum(s["rows_at_threshold"] for s in shapes),
    }


# ---- the run -----------------------------------------------------------------


@dataclass
class PassRecord:
    traced: bool
    kinds: dict  # kind -> [units, seconds]
    first_span: int
    last_span: int
    counts: dict


class Run:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def _run_pass(ops: list[Op], probes, tracer: Tracer, traced: bool, run: Run) -> PassRecord:
    tracer.enabled = traced
    tracer.counts.clear()
    first = len(tracer.spans)
    kinds: dict = {}
    for op_id, op in enumerate(ops):
        tracer.op = op_id
        start = time.perf_counter()
        try:
            out = tracer.call(f"op.{op.kind}", op.run)
        except Exception:
            run.record(op.kind, [traceback.format_exc(limit=3).strip()])
            continue
        seconds = time.perf_counter() - start
        units_seconds = kinds.setdefault(op.kind, [0, 0.0])
        units_seconds[0] += op.units
        units_seconds[1] += seconds
        run.record(op.kind, op.check(out))
    if traced:
        for probe_id, probe in enumerate(probes, start=len(ops)):
            tracer.op = probe_id
            try:
                probe()
            except Exception:
                run.record("probe", [traceback.format_exc(limit=3).strip()])
    tracer.enabled = False
    return PassRecord(traced, kinds, first, len(tracer.spans), dict(tracer.counts))


def _rates(records: list[PassRecord]) -> dict:
    """Units done over the wall time they took, per kind, across all timed passes.

    The total rather than a median of per-pass rates: on a shared host the
    machine's speed drifts in phases of several seconds, and the total
    averages over them where a median jumps between them.
    """
    rates = {}
    for kind, metric in RATE_OF_KIND.items():
        done = [r.kinds[kind] for r in records if kind in r.kinds]
        if done:
            rates[metric] = sum(u for u, _ in done) / sum(s for _, s in done)
    return rates


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _layer_metrics(tracer: Tracer, records: list[PassRecord], shape: dict) -> dict:
    traced = [r for r in records if r.traced]
    per_pass = []
    for r in traced:
        totals: dict = {}
        calls: dict = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        check_children = 0.0
        spans = tracer.spans[r.first_span:r.last_span]
        for (name, start, end, parent, _), own in zip(spans, tracer.self_times(r.first_span,
                                                                                r.last_span)):
            totals[name] = totals.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own
            if parent >= 0 and tracer.spans[parent][0] == "exchange.check":
                check_children += end - start
        values = {f"{call}_s": totals.get(call, 0.0) for call in TIMED_CALLS}
        values.update({name: float(r.counts.get(name, 0)) for name in COUNTED})
        values.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
        values["metrics.report_per_rank"] = (
            (totals["metrics.report"] / calls["metrics.report"])
            / (totals["model.rank"] / calls["model.rank"]))
        values["exchange.check_overhead_share"] = 1.0 - check_children / totals["exchange.check"]
        values["trace.spans"] = float(len(spans))
        per_pass.append(values)

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["model.tie_groups"] = float(shape["tie_groups"])
    metrics["model.max_tie_share"] = shape["max_tie_share"]
    metrics["model.rows_at_threshold"] = float(shape["rows_at_threshold"])
    op_seconds = {t: [sum(s for _, s in r.kinds.values()) for r in records if r.traced == t]
                  for t in (False, True)}
    metrics["trace.overhead_share"] = (statistics.median(op_seconds[True])
                                       / statistics.median(op_seconds[False]) - 1.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
                 spans_path: Path | None = None, scratch: Path | None = None) -> dict:
    """Set up, warm up, measure for ``seconds`` and check one workload.

    Returns the result line (``correct``, ``attempted``, ``failed``,
    ``metrics``) plus ``diagnostics``, ``failed_share`` and ``failures``.
    With ``trace`` the metrics are the per-layer ones; passes alternate
    between untraced and traced so that the tracing overhead is measured.
    """
    workload = WORKLOADS[name]
    tracer = Tracer()
    run = Run()
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=scratch) as tmp:
        workdir = Path(tmp)
        setup_times: list[float] = []
        least, most = SETUP_REPEATS
        while len(setup_times) < least or (len(setup_times) < most
                                           and sum(setup_times) < SETUP_BUDGET_S):
            start = time.perf_counter()
            cases = workload.setup(seed, sizes, workdir)
            setup_times.append(time.perf_counter() - start)

        shape = diagnostics(cases)
        # the duplication identities are exact only with no row at s*
        run.record("precondition", [] if shape["rows_at_threshold"] == 0
                   else [f"{shape['rows_at_threshold']} rows at the threshold"])

        ops = [op for index, case in enumerate(cases)
               for op in _case_ops(case, workload, tracer, workdir, seed + index)]
        ops.append(_study_op(sizes, tracer, seed))
        repeats = dict(workload.repeats)
        ops = [op for op in ops for _ in range(repeats.get(op.kind, 1))]
        rng = np.random.default_rng(seed)
        probes = [functools.partial(_probe_case, case, tracer, rng) for case in cases]
        if workload.through_cli:
            probes += [functools.partial(_probe_files, case, tracer, workdir) for case in cases]

        _run_pass(ops, probes, tracer, False, run)  # warm-up, fully checked, not measured
        records: list[PassRecord] = []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or (trace and not any(r.traced for r in records))):
            records.append(_run_pass(ops, probes, tracer, trace and len(records) % 2 == 1, run))

    if trace:
        metrics = _layer_metrics(tracer, records, shape)
        units = PER_LAYER
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    else:
        metrics = {"setup_s": statistics.median(setup_times), **_rates(records),
                   "peak_rss_mb": _peak_rss_mb()}
        units = END_TO_END
    failed = len(run.failures)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics},
        "failed_share": failed / run.attempted,
        "passes": len(records),
        "pass_seconds": [{kind: s for kind, (_, s) in r.kinds.items()} for r in records],
        "diagnostics": shape,
        "failures": run.failures,
    }
