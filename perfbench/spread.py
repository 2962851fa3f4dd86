"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload batch --seeds 1-10 --seconds 35

Prints, per end-to-end metric, the median over the runs and the
interquartile distance as a share of that median (``statistics.quantiles``
with n=4), next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import the benchmark as the ``perfbench`` package

from perfbench.stats import quartile_spread  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}"
                                          for k, v in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        print(f"{name}: median {statistics.median(vals):.5g} spread {quartile_spread(vals):.4f} "
              f"(bound {bounds.get(name)}, n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
