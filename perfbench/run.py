"""Benchmark entry point.

    python3 perfbench/run.py --workload {train,batch,serve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The workload's inputs come from ``--seed``;
the program runs for about ``--seconds``; its outputs are checked against
references. Human-readable lines (environment, input properties, sha256
digests, span table) come first, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics from a traced
run (``--trace 1``). The full record is also written to
``.perfbench/<workload>-seed<N>-trace<T>.json``. The exit code is 0 when
every output matched; 1 when an output differed or the program crashed,
hung or did not start (the result line then says ``"correct": false``);
and 2, with no result line, when there is no ``src/aisoc`` to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import the benchmark as the ``perfbench`` package


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    from perfbench.loadgen import cpu_count

    return {"nproc": cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": git_commit(root), "source_sha256": source_sha256(root / "src"),
            "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "batch", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aisoc" / "__init__.py").is_file():
        print(f"error: no aisoc source tree under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench import workloads

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir))
    run = workloads.Run(root=ROOT, seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), workdir=workdir)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    except Exception as exc:  # any failure of the program is a failed run, not a crash
        traceback.print_exc()
        print(f"failure: {type(exc).__name__}: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}),
              flush=True)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fails = outcome.fails
    units = outcome.units()
    env = environment(ROOT, args.seed)
    env["client_threads"] = env["client_connections"] = outcome.info.get("connections", 0)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, **outcome.info, "fail_ratio": fails.ratio, "failures": fails.reasons}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for key in ("env", "inputs", "sha256", "aliases", "client", "spans", "tracing_overhead"):
        if key in record:
            print(f"{key} {json.dumps(record[key], sort_keys=True)}")
    print(f"fail_ratio {fails.ratio:.6f} ({fails.failed}/{fails.attempted})"
          + (f" first failures: {fails.reasons}" if fails.reasons else ""))
    for name, value in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    result = {"correct": fails.failed == 0 and fails.attempted > 0,
              "attempted": fails.attempted, "failed": fails.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in outcome.metrics.items()}}
    record["result"] = result
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
