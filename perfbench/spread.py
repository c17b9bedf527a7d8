"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds 20]

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median, the quartiles and (Q3 - Q1) / median next to the bound
in BENCHMARK.json.  Use it to check that a metric is steady enough for its
bound before comparing two commits.
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
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import median, quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print("seed %d failed (exit %d)" % (seed, proc.returncode), file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})))
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        print("%-14s median %12.5g  Q1 %12.5g  Q3 %12.5g  spread %.4f  bound %s"
              % (name, median(xs), q1, q3, quartile_spread(xs), bounds.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
