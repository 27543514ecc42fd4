"""Benchmark entry point: one workload, one seed, one result.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ``src/``; no
install is needed.  The run starts ``worker.py`` several times, one process
at a time:

* ``SETUP_RUNS`` set-up-only workers, half before and half after the
  measuring worker.  ``setup_s`` is the median time from
  starting one to its ``ready`` line: interpreter start, ``import propctl``,
  input generation and parsing, and warm-up.  Each time is scaled to the
  reference speed by reference processes run around it (see
  ``calibrate.py``).
* one measuring worker, which runs the workload's queries in a closed loop
  (one client, one query at a time) and checks every answer.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics from a traced run, whose spans go to
``bench/out/``.  A human-readable summary (metric, value, unit, sample
count, and the environment) is printed first; the last line of standard
output is the JSON result.  The same record, with the environment, is
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_RUNS = 8
#: Reference processes run before and after each set-up worker.
SETUP_REFERENCES = 2
#: A run must end inside three minutes; workers still running at this age
#: of the run are stopped.
RUN_DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def time_left(args) -> float:
    return max(0.0, args.deadline - perf_counter())


def start_worker(args, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it and the
    time that took."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = ""
    if select.select([proc.stdout], [], [], time_left(args))[0]:
        line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        finish(args, proc)
        raise WorkerError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(args, proc: subprocess.Popen) -> str:
    """Collect a worker's remaining output; stop it at the run's deadline."""
    try:
        out, _ = proc.communicate(timeout=time_left(args))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker stopped at the run's deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def set_up(args, runs: int) -> list[tuple[float, float]]:
    """Times of ``runs`` set-up-only workers, started one after another, as
    (measured, scaled to the reference speed).  The scale comes from the
    reference processes run just before and just after each worker."""
    times = []
    for _ in range(runs):
        reference = [calibrate.process_time() for _ in range(SETUP_REFERENCES)]
        proc, ready = start_worker(args, "--setup-only")
        finish(args, proc)
        reference += [calibrate.process_time() for _ in range(SETUP_REFERENCES)]
        times.append((ready, ready * calibrate.REFERENCE_PROCESS_S / statistics.median(reference)))
    return times


def compile_sources() -> bool:
    """Write the bytecode of the library and of the benchmark, as installing
    a package does.  Without it, whether every worker and CLI process
    compiles them from source would depend on ``PYTHONDONTWRITEBYTECODE``
    and on what ran in the checkout before."""
    return all(compileall.compile_dir(directory, maxlevels=0, quiet=1)
               for directory in (ROOT / "src" / "propctl", BENCH_DIR))


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "propctl").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
        "src_sha256": sources.hexdigest()[:16],
    }


def main(argv=None) -> int:
    # BENCHMARK.json names the workloads and the metrics with their units.
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = perf_counter() + RUN_DEADLINE_S

    if not (ROOT / "src" / "propctl" / "__init__.py").is_file():
        print(f"error: no propctl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if not compile_sources():
        print("error: the sources do not compile", file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # Half the set-up samples before the measurement and half after, so
        # that their median sees the host at the same times as the queries.
        setups = set_up(args, SETUP_RUNS // 2)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--trace-file", str(OUT_DIR / f"spans-{tag}.json")]
        proc, _ = start_worker(args, *extra)
        record = json.loads(finish(args, proc).strip().splitlines()[-1])
        setups += set_up(args, SETUP_RUNS - SETUP_RUNS // 2)
    except (WorkerError, ValueError, IndexError, subprocess.CalledProcessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failed = record["attempted"], record["failed"]
    values = dict(record["metrics"], setup_s=statistics.median(s for _, s in setups))
    samples = {}
    if not args.trace:
        queries = record["queries_per_pass"]
        samples = {"setup_s": SETUP_RUNS, "queries_per_s": queries,
                   "query_p50_ms": queries, "query_p90_ms": queries, "peak_rss_mb": 1}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    except KeyError as err:
        print(f"error: the worker did not measure {err}", file=sys.stderr)
        return 1
    correct = failed == 0 and record["warmup_failed"] == 0
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {record['input_hash']}  passes {record['passes']}  "
          f"queries/pass {record['queries_per_pass']}  measured {record['elapsed_s']:.2f} s")
    for name, m in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{count}")
    print(f"  {'error_rate':36s} {failed / attempted:14.6g} share  (n={attempted}, failed={failed})")
    if not args.trace:
        raw = record["raw"]
        print(f"  times above are scaled to the reference speed ({record['reference_samples']} "
              f"reference samples, median {1e3 * record['reference_median_s']:.4f} ms against "
              f"{1e3 * record['reference_s']:.4f} ms); as measured: "
              f"{raw['queries_per_s']:.6g} queries/s, p50 {raw['query_p50_ms']:.6g} ms, "
              f"p90 {raw['query_p90_ms']:.6g} ms, "
              f"setup {statistics.median(r for r, _ in setups):.6g} s")
        print(f"  all passes: {record['mean_queries_per_s']:.6g} queries/s over "
              f"{record['passes']} passes; each query's median of {record['passes']} runs "
              f"gives the metrics above")
    print(f"  setup runs (s, measured/scaled): "
          f"{' '.join(f'{r:.4f}/{s:.4f}' for r, s in setups)}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, samples=samples, setup_runs_s=setups, env=env,
                       error_rate=failed / attempted,
                       **{k: record[k] for k in ("workload", "seed", "input_hash", "passes",
                                                 "queries_per_pass", "elapsed_s") + (
                           () if args.trace else ("pass_s", "mean_queries_per_s", "raw",
                                                  "reference_samples", "reference_median_s",
                                                  "reference_s"))}),
                  handle, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
