"""Compare the CLI outputs of two checkouts, run for run, and print the comparison as JSON.

    python3 tools/same_outputs.py --parent ../parent --change .

Each side runs ``python -m lxcim.cli`` in child processes with ``PYTHONPATH``
set to its ``DIR/src``, in its own working directory, on the same input
files.  The commands are ``eval --output json --curves-dir``, ``check
--trials 20`` for each of the four metrics, and ``duplicate``, each at
``--s-star`` 0 and 0.5.  The inputs are written once, by ``--change``:

- the file-roundtrip CSVs of ``perfbench`` at seeds 1 and 3 (30000
  continuous rows each);
- a tied CSV: ``generate(BIASED, 3000, seed 1, p 0.7, RANDOM_POSITIVE)``
  with its scores rounded to 2 decimals, so that rows sit at 0 and at 0.5;
- 2000 two-decimal probabilities with fair-coin labels (``default_rng(0)``).

A run is the same on both sides when its exit code, standard output,
standard error and the sha256 of every file it wrote are.  The last line of
standard output is one JSON object: each run with both sides' exit codes
and digests, and a summary of the runs that differ, by command and
threshold.  Numpy and the standard library only; the tests do not run it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

THRESHOLDS = ("0", "0.5")
METRICS = ("lxcim", "audrc", "accuracy", "auroc")


def write_inputs(change: Path, directory: Path) -> dict[str, Path]:
    """The input CSVs, written by the package and benchmark of ``change``."""
    sys.path[:0] = [str(change / "src"), str(change / "perfbench")]
    import workloads
    from lxcim import Dataset, write_prediction_file
    from lxcim.verify import GeneratorConfig, GeneratorKind, WeightMode, generate

    inputs = {}
    for seed in (1, 3):
        seed_dir = directory / f"roundtrip-{seed}"
        seed_dir.mkdir(parents=True)
        (case,) = workloads._setup_roundtrip(seed, workloads.FULL, seed_dir)
        inputs[f"roundtrip-{seed}"] = case.csv
    drawn = generate(GeneratorConfig(GeneratorKind.BIASED, 3000, 1, 0.7, WeightMode.RANDOM_POSITIVE))
    inputs["tied"] = directory / "tied.csv"
    write_prediction_file(inputs["tied"], Dataset(np.round(drawn.scores, 2), drawn.labels, drawn.weights))
    rng = np.random.default_rng(0)
    inputs["probabilities"] = directory / "probabilities.csv"
    write_prediction_file(inputs["probabilities"], Dataset(np.round(rng.random(2000), 2), rng.integers(0, 2, 2000)))
    return inputs


def commands(path: Path, s_star: str) -> dict[str, list[str]]:
    common = ["--input", str(path), "--s-star", s_star]
    out = {"eval": ["eval", *common, "--output", "json", "--curves-dir", "curves"]}
    for metric in METRICS:
        out[f"check-{metric}"] = ["check", *common, "--metric", metric, "--trials", "20"]
    out["duplicate"] = ["duplicate", *common, "--output", "doubled.csv"]
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_side(root: Path, workdir: Path, argv: list[str]) -> dict:
    """One CLI run in an empty ``workdir``: its exit code, output digests and written files."""
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "lxcim.cli", *argv], cwd=workdir, env=env, capture_output=True)
    files = {str(p.relative_to(workdir)): digest(p.read_bytes()) for p in sorted(workdir.rglob("*")) if p.is_file()}
    return {
        "exit": done.returncode,
        "stdout": digest(done.stdout),
        "stderr": digest(done.stderr),
        "stdout_head": done.stdout.decode(errors="replace")[:200],
        "stderr_head": done.stderr.decode(errors="replace")[:200],
        "files": files,
    }


def compare(parent: Path, change: Path, workdir: Path) -> dict:
    inputs = write_inputs(change, workdir / "inputs")
    runs, differ = [], {}
    for name, path in inputs.items():
        for s_star in THRESHOLDS:
            for command, argv in commands(path, s_star).items():
                key = f"{name}/{s_star}/{command}"
                sides = {side: run_side(root, workdir / side / key, argv)
                         for side, root in (("parent", parent), ("change", change))}
                same = all(sides["parent"][k] == sides["change"][k] for k in ("exit", "stdout", "stderr", "files"))
                runs.append({"input": name, "s_star": s_star, "command": command, "same": same, **sides})
                if not same:
                    group = f"{command} at {s_star}"
                    differ[group] = differ.get(group, 0) + 1
    return {
        "runs": runs,
        "summary": {
            "runs": len(runs),
            "same": sum(run["same"] for run in runs),
            "files_compared": sum(len(run["change"]["files"]) for run in runs),
            "differ_by_command_and_s_star": differ,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        result = compare(args.parent.resolve(), args.change.resolve(), Path(workdir))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
