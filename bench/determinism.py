"""Check that the traced run's work counters repeat exactly.

    python3 bench/determinism.py [--seed 7] [--seconds 5] [workload ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares every per-layer metric whose unit is ``count`` or ``ratio``
(AST tree and DAG nodes, models enumerated, early-exit ratio, star rounds,
image models, instances checked, schemes truncated, spans).  Exits 1 if
any differs, or if a run fails or gives a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def counters(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: wrong answers\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)

    same = True
    for workload in args.workloads:
        first = counters(workload, args.seed, args.seconds)
        second = counters(workload, args.seed, args.seconds)
        for name in sorted(first.keys() | second.keys()):
            a, b = first.get(name), second.get(name)
            status = "same" if a == b else "DIFFERS"
            same &= a == b
            print(f"{workload:7s} {name:32s} {a!s:>22s} {b!s:>22s}  {status}")
    print("counters repeat exactly" if same else "counters differ between runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
