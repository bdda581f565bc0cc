"""Repeat a workload over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload NAME [--workload NAME ...] --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` untraced for ``run_seconds`` from BENCHMARK.json,
once per seed, one run at a time, and prints for
every metric its median, first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median.  For end-to-end metrics the
spread is set against the metric's bound in BENCHMARK.json; this is how the
bounds were chosen.  Also prints the share of failed operations per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(workload: str, results: list[dict], bounds: dict[str, float]) -> None:
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print(f"{workload}: {len(results)} runs, correct={correct}, failed shares {shares}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        verdict = "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "WIDE"
        print(f"  {name:14s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} "
              f"(bound {bound:.3f}: {verdict})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload:
        results = [run_once(workload, args.first_seed + i, spec["run_seconds"]) for i in range(args.runs)]
        summarise(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
