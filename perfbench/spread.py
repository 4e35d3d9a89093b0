"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload deep_slices --seeds 1-10 [--seconds 20]

Runs run.py once per seed, one run at a time, and prints for each metric
the median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the bound in
BENCHMARK.json.  The raw results go to .perfbench_out/spread-<workload>.json.
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


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds",
                               str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        vals = " ".join(f"{k}={v['value']:.3f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {vals}", flush=True)

    (ROOT / ".perfbench_out" / f"spread-{args.workload}.json").write_text(
        json.dumps(runs, indent=1))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:14} median {med:10.4f}  spread {(q3 - q1) / med:7.2%}  "
              f"bound {bound:.0%}  (a third: {bound / 3:.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
