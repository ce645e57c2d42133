"""Benchmark of the lxcim package, measured from outside through its CLI and API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-tied --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

With ``--workload`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it, each
workload runs in a child process, first untraced and then traced, and a table
of every metric is printed.  Results, and the spans of traced runs, are
written under ``perfbench/out/``.  The package is imported from ``src/`` of
the checkout; the benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("file-roundtrip", "check-tied", "many-small")


def use_checkout_package() -> None:
    if not (SRC / "lxcim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lxcim sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")


def run_one(args) -> int:
    use_checkout_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=OUT / f"{args.workload}.spans.jsonl", scratch=OUT,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_share {result['failed_share']:g} share")
    print("diagnostics " + json.dumps(result["diagnostics"]))
    _print_metrics("metrics", result["metrics"])
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, in turn."""
    use_checkout_package()
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not proc.stdout.strip():
                raise SystemExit(f"perfbench: {name} --trace {trace} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print(f"== {name}, trace {trace}")
            print("\n".join(lines[:2]))
            results[f"{name}.trace{trace}"] = json.loads(lines[-1])
            _print_metrics("metrics", results[f"{name}.trace{trace}"]["metrics"])
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key}.{name}": m for key, r in results.items()
                    for name, m in r["metrics"].items() if key.endswith("trace0")},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
