"""One measured process of the benchmark; ``run.py`` starts it.

The worker sets up one workload (imports, input generation and parsing,
warm-up), prints ``ready``, and then either exits (``--setup-only``) or
measures: whole passes over the workload's queries in a closed loop, one
query at a time, for at most ``--seconds``.  The last line it prints is a
JSON record of what it measured.

With ``--trace 1`` the passes alternate untraced and traced, and a probe
round times the layers the queries do not reach (see ``layer_metrics``).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import calibrate  # noqa: E402  (needs the paths above)
import workloads as wl  # noqa: E402
from propctl import axioms, decision, model, semantics, syntax  # noqa: E402
from tracing import NULL, Tracer, dump, self_times  # noqa: E402

LAYERS = ("syntax", "model", "semantics", "decision", "normalform", "control", "axioms", "cli")

#: Library calls whose time the traced run reports; the queries make them
#: on some workloads, the probe round makes them on the others.
TIMED_CALLS = (
    "semantics.evaluate", "semantics.program_image", "decision.satisfiable",
    "decision.counterexample", "normalform.normal_form", "normalform.equivalent",
    "control.characterize_second_order", "control.grand_coalition_control",
)

#: Corpus items of ``decide`` and ``check`` that the probe round runs.
PROBE_ITEMS = 5
PROBE_REPEATS = 3

MAX_REPORTED_FAILURES = 5


def run_query(query, tracer, failures: list) -> bool:
    """Whether the query's answer matched.  A wrong answer and an exception
    both count as a failure; neither stops the run."""
    try:
        ok = tracer.query(query)
    except Exception:
        ok = False
        if len(failures) < MAX_REPORTED_FAILURES:
            failures.append(f"{query.qid}: {traceback.format_exc()}")
    else:
        if not ok and len(failures) < MAX_REPORTED_FAILURES:
            failures.append(f"{query.qid}: wrong answer")
    return ok


def run_pass(order, tracer, failures: list) -> int:
    """Run every query once; return how many failed."""
    return sum(not run_query(query, tracer, failures) for query in order)


def peak_rss_mb(workload) -> float:
    # The ``cli`` workload's queries run in child processes.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, seconds: float, failures: list) -> dict:
    """Whole passes in a closed loop, with the workload's reference sampled
    between queries (see ``calibrate``).  Each run of a query is scaled to
    the reference speed by the samples around it; a query's time is the
    median of its scaled runs.  The latency percentiles are taken over
    the queries, and the rate is that of one client that meets every query
    at that time."""
    # Per pass, each query's start and time, in ``all_queries`` order.  Flat
    # arrays of fixed size keep the memory of a run the same however many
    # passes fit in it, so that ``peak_rss_mb`` does not follow the host's speed.
    slot = {query.qid: i for i, query in enumerate(workload.all_queries)}
    passes: list[tuple[array, array]] = []
    pass_times: list[float] = []
    gauge = calibrate.Gauge(in_process=workload.in_process)
    failed = attempted = 0
    order = workload.first_order
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        starts, took = array("d", bytes(8 * len(slot))), array("d", bytes(8 * len(slot)))
        for query in order:
            gauge.tick()
            t0 = perf_counter()
            ok = run_query(query, NULL, failures)
            took[slot[query.qid]] = perf_counter() - t0
            starts[slot[query.qid]] = t0
            failed += not ok
        passes.append((starts, took))
        attempted += len(order)
        now = perf_counter()
        pass_times.append(now - pass_start)
        # Stop at a pass boundary, so that every run measures whole passes
        # and the seed changes the order, not the mix, of what is timed.
        if now - start + pass_times[-1] > seconds:
            break
        order = workload.shuffled()
    gauge.sample()
    scaled = [statistics.median(took[i] * gauge.scale(starts[i]) for starts, took in passes)
              for i in range(len(slot))]
    raw = [statistics.median(took[i] for _, took in passes) for i in range(len(slot))]
    return {
        "passes": len(pass_times),
        "attempted": attempted,
        "failed": failed,
        "elapsed_s": now - start,
        "pass_s": pass_times,
        "mean_queries_per_s": attempted / (now - start),
        "reference_samples": len(gauge.took),
        "reference_median_s": statistics.median(gauge.took),
        "reference_s": gauge.reference,
        "raw": latency_metrics(raw),
        "metrics": dict(latency_metrics(scaled), peak_rss_mb=peak_rss_mb(workload)),
    }


def latency_metrics(latencies: list[float]) -> dict:
    return {
        "queries_per_s": len(latencies) / math.fsum(latencies),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
    }


# ---------------------------------------------------------------------------
# Traced run.

def timed_subprocess(argv: list[str], env: dict | None = None) -> None:
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def count_models(sigs) -> int:
    return sum(1 for sig in sigs for _ in model.enumerate_models(sig))


def probe_round(workload, t: Tracer) -> None:
    """Time each layer from outside on this workload's inputs, plus the
    fixed probe items for library calls the workload's queries never make."""
    inputs = workload.probe_inputs()
    for kind, text, sig in inputs.texts:
        if kind == "model":
            t.call("syntax.parse_model", syntax.parse_model, text)
        else:
            parse = syntax.parse_formula if kind == "formula" else syntax.parse_program
            t.call("syntax.parse_" + kind, parse, text, sig)
        t.count("syntax.parse_chars", len(text))
    for f, sig in inputs.formulas:
        t.call("syntax.ensure_fits", syntax.ensure_fits, f, sig)
        tree, dag = wl.ast_sizes(f)
        t.count("syntax.ast_tree_nodes", tree)
        t.count("syntax.ast_dag_nodes", dag)
        t.call("decision.default_signature", decision.default_signature, f)
    for m, p in inputs.programs:
        t.count("semantics.star_depth_rounds",
                t.call("semantics.star_depth", semantics.star_depth, m, p))
    for rep in range(PROBE_REPEATS):
        models = t.call("model.enumerate_models", count_models, inputs.signatures)
        if rep == 0:
            t.count("model.models_enumerated", models)
        ctx = t.call("axioms.make_context", axioms.make_context, wl.AXIOM_SIG, wl.AXIOM_BUDGET)
    instances, truncated = wl.catalogue(ctx)
    t.count("axioms.instances_checked", len(instances))
    t.count("axioms.schemes_truncated", truncated)

    env = wl.cli_env()
    for _ in range(PROBE_REPEATS):
        t.call("cli.interpreter", timed_subprocess, [sys.executable, "-c", "pass"])
        t.call("cli.import", timed_subprocess, [sys.executable, "-c", "import propctl.cli"], env)
    for item in wl.load("cli")["items"]:
        t.call("cli.main", wl.run_cli_main, item["argv"])

    sigs: dict = {}
    for n, item in enumerate(wl.load("decide")["items"][:PROBE_ITEMS]):
        queries, f, sig = wl.decide_item(n, item, sigs)
        for query in queries:
            t.query(query)
        t.call("decision.counterexample", decision.counterexample, f, sig)
    for n, item in enumerate(wl.load("check")["items"][:PROBE_ITEMS]):
        t.query(wl.Query(f"probe{n}", item["kind"], wl.check_query(item)))


def layer_metrics(passes: list[Tracer], probe: Tracer) -> dict:
    def durations(name: str) -> list[float]:
        found = [d for t in passes for d in t.durations(name)]
        return found or probe.durations(name)

    def counted(name: str) -> list:
        return passes[0].counts.get(name) or probe.counts.get(name, [])

    parse = [d for kind in ("formula", "program", "model")
             for d in probe.durations("syntax.parse_" + kind)]
    interpreter = statistics.median(probe.durations("cli.interpreter"))
    early = counted("decision.early_exit")
    out = {
        "syntax.parse_s": statistics.median(parse),
        "syntax.parse_chars_per_s": sum(probe.counts["syntax.parse_chars"]) / sum(parse),
        "syntax.fit_s": statistics.median(probe.durations("syntax.ensure_fits")),
        "syntax.ast_tree_nodes": sum(probe.counts["syntax.ast_tree_nodes"]),
        "syntax.ast_dag_nodes": sum(probe.counts["syntax.ast_dag_nodes"]),
        "model.enumerate_s": statistics.median(probe.durations("model.enumerate_models")),
        "model.models_enumerated": sum(probe.counts["model.models_enumerated"]),
        "semantics.image_models": sum(counted("semantics.image_models")),
        "semantics.star_depth_rounds": sum(probe.counts["semantics.star_depth_rounds"]),
        "decision.default_signature_s": statistics.median(
            probe.durations("decision.default_signature")),
        "decision.early_exit_ratio": math.fsum(early) / len(early),
        "axioms.make_context_s": statistics.median(probe.durations("axioms.make_context")),
        "axioms.instances_checked": probe.counts["axioms.instances_checked"][0],
        "axioms.schemes_truncated": probe.counts["axioms.schemes_truncated"][0],
        "cli.interpreter_s": interpreter,
        "cli.import_s": statistics.median(probe.durations("cli.import")) - interpreter,
        "cli.main_s": statistics.median(probe.durations("cli.main")),
    }
    for name in TIMED_CALLS:
        out[name + "_s"] = statistics.median(durations(name))
    # Self time of one traced pass plus the probe round.
    per_pass = self_times(passes)
    probe_self = self_times([probe])
    for layer in LAYERS:
        out[layer + ".self_s"] = per_pass.get(layer, 0.0) / len(passes) + probe_self.get(layer, 0.0)
    return out


def traced(workload, seconds: float, failures: list, trace_path: Path) -> dict:
    plain = timed = 0.0
    tracers = []
    failed = attempted = 0
    order = workload.first_order
    start = perf_counter()
    while True:
        tracer = Tracer()
        pass_start = perf_counter()
        for i, query in enumerate(order):
            # Each query runs untraced and traced back to back, in alternating
            # order, so that drift in machine speed cancels out of the overhead.
            for t in ((NULL, tracer) if i % 2 else (tracer, NULL)):
                t0 = perf_counter()
                failed += not run_query(query, t, failures)
                elapsed = perf_counter() - t0
                if t is NULL:
                    plain += elapsed
                else:
                    timed += elapsed
        attempted += 2 * len(order)
        tracers.append(tracer)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
        order = workload.shuffled()
    probe = Tracer()
    probe_round(workload, probe)
    metrics = layer_metrics(tracers, probe)
    metrics["trace.overhead_s"] = (timed - plain) / len(tracers)
    metrics["trace.spans"] = len(tracers[0].spans)
    dump(trace_path, {"passes": tracers, "probes": [probe]})
    return {"passes": len(tracers), "attempted": attempted, "failed": failed,
            "elapsed_s": perf_counter() - start, "metrics": metrics,
            "untraced_pass_s": plain / len(tracers), "traced_pass_s": timed / len(tracers)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measurement time; not for --setup-only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload](args.seed)
    failures: list[str] = []
    warm_failed = run_pass(workload.warmup, NULL, failures)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(workload, args.seconds, failures, args.trace_file)
    else:
        result = measure(workload, args.seconds, failures)
    result.update(workload=workload.name, seed=args.seed, input_hash=workload.input_hash,
                  queries_per_pass=len(workload.all_queries), warmup_failed=warm_failed,
                  failures=failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
