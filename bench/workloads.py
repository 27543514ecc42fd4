"""The benchmark's four workloads and their verdict checks.

Each workload is built from the stored corpora (see ``gen.py``) and the
run's seed.  Building it is the run's set-up: load the inputs, draw the
query order from the seed, and parse what the workload parses up front.
A query is one closed-loop request: it calls into the library through a
tracer (``tracing.NULL`` when tracing is off) and returns whether the
answer matched the recorded expected answer.

Why each workload exists, and its query mix, is recorded in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import propctl as pc
from propctl import axioms, cli, control, decision, model, normalform, semantics, syntax

from gen import DATA_DIR, ROOT, digest

#: Signature of the ``axioms`` workload: the CLI's ``axioms --agents 2 --vars 2``.
AXIOM_SIG = pc.Signature(("1", "2"), ("p1", "p2"))

#: The ``axioms`` workload's budget, pinned here so that a change to the
#: library's default ``Budget`` changes the library, not this input.
AXIOM_BUDGET = axioms.Budget(formula_limit=24, objective_limit=16, program_limit=12,
                             per_scheme=300, formula_depth=2)

DECIDE_KINDS = ("valid", "satisfiable", "equivalent", "normal_form", "grand_coalition_control")

#: Corpus items used for warm-up; the same for every seed so that set-up
#: time does not depend on which queries a seed draws.
WARMUP_ITEMS = 2


@dataclass(frozen=True)
class Query:
    qid: str
    kind: str
    run: Callable  # run(tracer) -> bool: whether the answer matched


def load(name: str) -> dict:
    with open(DATA_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def signature(item: dict) -> pc.Signature:
    return pc.Signature(tuple(item["agents"]), tuple(item["vars"]))


def ast_children(node):
    return [v for v in (getattr(node, f.name) for f in fields(node))
            if isinstance(v, (syntax.Formula, syntax.Program))]


def ast_sizes(root) -> tuple[int, int]:
    """Node count of the AST as a tree and as a DAG (shared nodes once)."""
    tree: dict[int, int] = {}

    def size(node) -> int:
        key = id(node)
        if key not in tree:
            tree[key] = 1 + sum(size(child) for child in ast_children(node))
        return tree[key]

    return size(root), len(tree)


def sub_programs(root) -> list:
    """Programs of the AST's program diamonds, outermost first, once each."""
    seen, out, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, syntax.DiaProg):
            out.append(node.program)
        stack.extend(reversed(ast_children(node)))
    return out


class Workload:
    """Inputs of one workload: the queries and what the traced run probes."""

    name = ""
    #: Whether the queries run in the measuring process; see ``calibrate``.
    in_process = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.all_queries: list[Query] = []
        self.warmup: list[Query] = []
        self.data_hash = ""

    def finish(self) -> None:
        """Draw the first pass's order from the seed and hash the inputs."""
        self.first_order = self.shuffled()
        self.input_hash = digest([self.name, self.data_hash,
                                  [q.qid for q in self.first_order]])

    def shuffled(self) -> list[Query]:
        order = list(self.all_queries)
        self.rng.shuffle(order)
        return order

    def probe_inputs(self) -> ProbeInputs:
        """What the traced run's probe round parses, fit-checks and iterates."""
        raise NotImplementedError


@dataclass
class ProbeInputs:
    texts: list = field(default_factory=list)     # (kind, text, signature or None)
    formulas: list = field(default_factory=list)  # (formula, signature)
    programs: list = field(default_factory=list)  # (model, program)
    signatures: list = field(default_factory=list)


def first_model(sig: pc.Signature) -> pc.DirectModel:
    return next(model.enumerate_models(sig))


class Decide(Workload):
    """Whole-signature decisions on random formulas at 2x3, 3x3 and 3x4."""

    name = "decide"

    def __init__(self, seed: int):
        super().__init__(seed)
        data = load("decide")
        self.data_hash = data["hash"]
        sigs: dict[tuple, pc.Signature] = {}
        self.parsed = []
        for n, item in enumerate(data["items"]):
            queries, f, sig = decide_item(n, item, sigs)
            self.all_queries.extend(queries)
            if n < WARMUP_ITEMS:
                self.warmup.extend(queries)
            self.parsed.append((item, f, sig))
        self.finish()

    def probe_inputs(self) -> ProbeInputs:
        out = ProbeInputs()
        for item, f, sig in self.parsed:
            if sig not in out.signatures:
                out.signatures.append(sig)
            out.texts += [("formula", item["formula"], sig), ("formula", item["partner"], sig)]
            out.formulas.append((f, sig))
            out.programs += [(first_model(sig), p) for p in sub_programs(f)]
        return out


def decide_item(n: int, item: dict, sigs: dict) -> tuple[list[Query], object, pc.Signature]:
    """The fixed query mix for one corpus formula, which is parsed here."""
    sig = sigs.setdefault((tuple(item["agents"]), tuple(item["vars"])), signature(item))
    f = pc.parse_formula(item["formula"], sig)
    g = pc.parse_formula(item["partner"], sig)
    queries = [Query(f"d{n}.{kind}", kind, decide_query(kind, f, g, sig, item["expected"]))
               for kind in DECIDE_KINDS]
    return queries, f, sig


def decide_query(kind: str, f, g, sig: pc.Signature, expected: dict) -> Callable:
    if kind == "valid":
        return lambda t: t.call("decision.valid", decision.valid, f, sig) == expected["valid"]
    if kind == "satisfiable":
        def run(t) -> bool:
            witness = t.call("decision.satisfiable", decision.satisfiable, f, sig)
            if witness is None:
                return expected["witness"] is None
            t.count("decision.early_exit", (witness.index() + 1) / model.model_count(sig))
            return witness.index() == expected["witness"]
        return run
    if kind == "equivalent":
        return lambda t: t.call("normalform.equivalent", normalform.equivalent,
                                f, g, sig) == expected["equivalent"]
    if kind == "normal_form":
        return lambda t: list(t.call("normalform.normal_form", normalform.normal_form,
                                     f, sig).rows) == expected["rows"]
    return lambda t: t.call("control.grand_coalition_control", control.grand_coalition_control,
                            f, sig) == expected["grand_coalition_control"]


class Axioms(Workload):
    """One ``counterexample`` call per instance of the scheme catalogue at 2x2."""

    name = "axioms"

    def __init__(self, seed: int):
        super().__init__(seed)
        sig = AXIOM_SIG
        self.ctx = axioms.make_context(sig, AXIOM_BUDGET)
        self.instances, _ = catalogue(self.ctx)
        for name, n, instance in self.instances:
            query = Query(f"{name}.{n}", name, axiom_query(instance, sig))
            self.all_queries.append(query)
            if n < WARMUP_ITEMS:
                self.warmup.append(query)
        self.data_hash = digest([syntax.render(f) for _, _, f in self.instances])
        self.finish()

    def probe_inputs(self) -> ProbeInputs:
        sig = AXIOM_SIG
        return ProbeInputs(
            texts=[("formula", syntax.render(f), sig) for _, _, f in self.instances[::10]],
            formulas=[(f, sig) for _, _, f in self.instances],
            programs=[(first_model(sig), p) for p in self.ctx.programs],
            signatures=[sig],
        )


def catalogue(ctx) -> tuple[list, int]:
    """Instances ``axioms.check_scheme`` would check under the pinned budget,
    as (scheme name, position, formula), and the number of schemes cut off."""
    out, truncated = [], 0
    for scheme in axioms.SCHEMES:
        for n, instance in enumerate(scheme.instances(ctx)):
            if n >= AXIOM_BUDGET.per_scheme:
                truncated += 1
                break
            out.append((scheme.name, n, instance))
    return out, truncated


def axiom_query(instance, sig: pc.Signature) -> Callable:
    # Every catalogue instance is valid: any counterexample is a wrong answer.
    return lambda t: t.call("decision.counterexample", decision.counterexample,
                            instance, sig) is None


class Check(Workload):
    """Single-model queries read as text, the way ``propctl check`` reads them."""

    name = "check"

    def __init__(self, seed: int):
        super().__init__(seed)
        data = load("check")
        self.data_hash = data["hash"]
        self.items = data["items"]
        seen_kinds: set[str] = set()
        for n, item in enumerate(self.items):
            query = Query(f"c{n}", item["kind"], check_query(item))
            self.all_queries.append(query)
            if item["kind"] not in seen_kinds:
                seen_kinds.add(item["kind"])
                self.warmup.append(query)
        self.finish()

    def probe_inputs(self) -> ProbeInputs:
        out = ProbeInputs()
        for item in self.items:
            m = pc.parse_model(item["model"])
            if m.sig not in out.signatures:
                out.signatures.append(m.sig)
            out.texts.append(("model", item["model"], None))
            if item["kind"] == "program_image":
                p = pc.parse_program(item["text"], m.sig)
                out.texts.append(("program", item["text"], m.sig))
                out.programs.append((m, p))
                out.formulas.append((syntax.DiaProg(p, syntax.TOP), m.sig))
            else:
                out.texts.append(("formula", item["text"], m.sig))
                out.formulas.append((pc.parse_formula(item["text"], m.sig), m.sig))
        return out


def check_query(item: dict) -> Callable:
    kind, text, expected = item["kind"], item["text"], item["expected"]

    def run(t) -> bool:
        m = t.call("syntax.parse_model", syntax.parse_model, item["model"])
        if kind == "program_image":
            p = t.call("syntax.parse_program", syntax.parse_program, text, m.sig)
            image = t.call("semantics.program_image", semantics.program_image, m, p)
            t.count("semantics.image_models", len(image))
            return [r.index() for r in image] == expected
        f = t.call("syntax.parse_formula", syntax.parse_formula, text, m.sig)
        if kind == "evaluate":
            goal = f
        elif kind == "controls":
            goal = syntax.controls(item["coalition"].split(",") if item["coalition"] else (), f)
        elif kind == "second_order_direct":
            goal = syntax.second_order_controls(item["agent"], f, m.sig)
        else:
            return t.call("control.characterize_second_order", control.characterize_second_order,
                          m.sig, m.alloc, m.val, item["agent"], f) == expected
        return t.call("semantics.evaluate", semantics.evaluate, m, goal) == expected

    return run


class Cli(Workload):
    """One ``python -m propctl.cli`` process per query, checked against goldens."""

    name = "cli"
    in_process = False

    def __init__(self, seed: int):
        super().__init__(seed)
        data = load("cli")
        self.data_hash = data["hash"]
        env = cli_env()
        self.items = data["items"]
        for n, item in enumerate(self.items):
            query = Query(f"l{n}", item["argv"][0], cli_query(item, env))
            self.all_queries.append(query)
            if n < WARMUP_ITEMS:
                self.warmup.append(query)
        self.finish()

    def probe_inputs(self) -> ProbeInputs:
        out = ProbeInputs()
        for item in self.items:
            for kind, text, sig in cli_inputs(item["argv"]):
                if sig not in out.signatures:
                    out.signatures.append(sig)
                out.texts.append((kind, text, sig))
                node = (pc.parse_formula if kind == "formula" else pc.parse_program)(text, sig)
                out.formulas.append((node if kind == "formula"
                                     else syntax.DiaProg(node, syntax.TOP), sig))
                if kind == "program":
                    out.programs.append((first_model(sig), node))
        return out


def cli_inputs(argv: list[str]) -> list[tuple[str, str, pc.Signature]]:
    """The formula and program texts a CLI command parses, with their signature."""
    def flag(name):
        return argv[argv.index(name) + 1] if name in argv else None

    if flag("--model"):
        sig = pc.parse_model((ROOT / flag("--model")).read_text(encoding="utf-8")).sig
        if argv[0] == "run":
            return [("program", flag("--program"), sig)]
        return [("formula", flag("--formula"), sig)]
    if argv[0] == "axioms":
        return []
    sig = pc.Signature(tuple(flag("--agents").split(",")), tuple(flag("--vars").split(",")))
    texts = argv[1:3] if argv[0] == "equiv" else argv[1:2]
    return [("formula", text, sig) for text in texts]


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(argv: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "propctl.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def cli_query(item: dict, env: dict) -> Callable:
    golden = (item["exit"], item["stdout"])
    return lambda t: t.call("cli.process", run_cli, item["argv"], env) == golden


def run_cli_main(argv: list[str]) -> int:
    """``cli.main`` in this process, with its stdout discarded."""
    real = sys.stdout
    with open(os.devnull, "w", encoding="utf-8") as sink:
        sys.stdout = sink
        try:
            return cli.main(argv)
        finally:
            sys.stdout = real


WORKLOADS = {w.name: w for w in (Decide, Axioms, Check, Cli)}
