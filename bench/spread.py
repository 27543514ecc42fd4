"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--out FILE] [workload ...]

Runs ``run.py --trace 0`` once per seed for each workload, one run at a
time, and prints per metric the median, the quartiles and the spread: the
distance between the quartiles (``statistics.quantiles(values, n=4)``) as
a share of the median, next to the metric's bound in ``BENCHMARK.json``.
It also prints the spread of the times as measured, before they are
scaled to the reference speed (see ``calibrate.py``).  ``--out`` writes the
same summary, with every run's values and the environment, as JSON;
``bench/baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n{proc.stdout}")
    with open(BENCH_DIR / "out" / f"result-{workload}-seed{seed}-trace0.json",
              encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "unit": runs[0]["metrics"][name]["unit"],
                          "values": values}
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:7s} {name:14s} median {median:12.6g} {rows[name]['unit']:4s} "
                  f"spread {spread:7.2%} bound {bound:.0%}{flag}", flush=True)
        # The same times as measured, before scaling to the reference speed.
        measured = {name: [r["raw"][name] for r in runs] for name in runs[0]["raw"]}
        measured["setup_s"] = [statistics.median(m for m, _ in r["setup_runs_s"]) for r in runs]
        raw_rows = {}
        for name, values in measured.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            raw_rows[name] = {"median": median, "spread": (q3 - q1) / median, "values": values}
        print(f"{workload:7s} as measured, spread: " + ", ".join(
            f"{name} {row['spread']:.2%}" for name, row in raw_rows.items()), flush=True)
        summary[workload] = {"seeds": [r["seed"] for r in runs],
                             "attempted": [r["attempted"] for r in runs],
                             "error_rate": [r["error_rate"] for r in runs],
                             "metrics": rows, "measured": raw_rows}
    if args.out:
        record = {"run_seconds": spec["run_seconds"], "env": runs[0]["env"],
                  "workloads": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
