"""Seeded input generator and expected-answer recorder for the benchmark.

Two jobs live here:

* ``Generator`` builds random formulas, programs and models as concrete
  syntax from a ``random.Random``; the library only ever sees the text.
* ``python3 bench/gen.py`` regenerates the stored corpora under
  ``bench/data/`` from the fixed corpus seed below.  Expected answers for
  ``decide`` and ``check`` come from the possible-worlds evaluator
  (``propctl.kripke``), which shares no evaluation code with the direct
  evaluator that the benchmark times.  The ``cli`` goldens are the stdout
  and exit code of each command; where the command prints a verdict, its
  exit code is also checked against the possible-worlds answer.

A run of the benchmark never calls this recorder: it draws its queries
from the stored corpora with its own ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA_DIR = BENCH_DIR / "data"

#: Seed of the stored corpora.  Changing it changes every workload's input.
CORPUS_SEED = 20140115

AGENT_NAMES = ("1", "2", "3")
VAR_NAMES = ("p", "q", "r", "s")


def sig_names(agents: int, variables: int) -> tuple[list[str], list[str]]:
    return list(AGENT_NAMES[:agents]), list(VAR_NAMES[:variables])


def digest(obj) -> str:
    """Short stable hash of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Random concrete syntax.

class Generator:
    """Random formula and program text over fixed agent and variable names.

    ``second_order`` allows ``CONTROLS``; it is kept off at signatures where
    its expansion (an iterated give-away program over every variable) makes
    a whole-signature query take seconds.
    """

    def __init__(self, rng: random.Random, agents, variables, second_order: bool):
        self.rng = rng
        self.agents = list(agents)
        self.vars = list(variables)
        self.second_order = second_order
        self.owner: dict[str, str] = {}  # of the last model drawn, to steer gives

    def coalition(self) -> str:
        members = [a for a in self.agents if self.rng.random() < 0.4]
        if len(members) == 1 and self.rng.random() < 0.5:
            return members[0]
        return "{" + ",".join(members) + "}"

    def atom(self) -> str:
        return self.rng.choice(self.vars)

    def objective(self, depth: int) -> str:
        if depth <= 0 or self.rng.random() < 0.35:
            return self.atom() if self.rng.random() < 0.85 else self.rng.choice(["true", "false"])
        op = self.rng.choice(["~", "&", "|", "->"])
        if op == "~":
            return "~" + self.objective(depth - 1)
        return f"({self.objective(depth - 1)} {op} {self.objective(depth - 1)})"

    def formula(self, depth: int) -> str:
        r = self.rng.random()
        if depth <= 0 or r < 0.15:
            return self.objective(1)
        kinds = ["~", "&", "|", "->", "dia", "box", "dp", "bp", "controls"]
        weights = [2, 3, 3, 1, 3, 2, 2, 2, 2]
        if self.second_order:
            kinds.append("CONTROLS")
            weights.append(1)
        kind = self.rng.choices(kinds, weights)[0]
        sub = depth - 1
        if kind == "~":
            return "~" + self.formula(sub)
        if kind in ("&", "|", "->"):
            return f"({self.formula(sub)} {kind} {self.formula(sub)})"
        if kind == "dia":
            return f"dia{self.braced()}{self.unary(sub)}"
        if kind == "box":
            return f"box{self.braced()}{self.unary(sub)}"
        if kind == "dp":
            return f"<{self.program(2)}>{self.unary(sub)}"
        if kind == "bp":
            return f"[{self.program(2)}]{self.unary(sub)}"
        if kind == "controls":
            return f"controls({self.coalition()}, {self.formula(sub - 1)})"
        # Second-order control over a small objective body.
        return f"CONTROLS({self.rng.choice(self.agents)}, {self.objective(1)})"

    def braced(self) -> str:
        c = self.coalition()
        return c if c.startswith("{") else "{" + c + "}"

    def unary(self, depth: int) -> str:
        text = self.formula(depth)
        return text if text[0] in "(~<[" or text.isalnum() else f"({text})"

    def give(self) -> str:
        # Mostly hand over from the current owner, so that runs can proceed.
        p = self.atom()
        i = self.owner.get(p) if self.rng.random() < 0.7 else None
        return f"give({i or self.rng.choice(self.agents)},{p},{self.rng.choice(self.agents)})"

    def program(self, depth: int) -> str:
        if depth <= 0 or self.rng.random() < 0.4:
            return self.give() if self.rng.random() < 0.8 else f"({self.objective(1)})?"
        kind = self.rng.choices(["+", ";", "*", "test"], [3, 3, 2, 1])[0]
        if kind == "*":
            return f"({self.program(depth - 1)})*"
        if kind == "test":
            return f"({self.formula(1)})?"
        return f"({self.program(depth - 1)} {kind} {self.program(depth - 1)})"

    def iff_chain(self, operands: int) -> str:
        # The sugar copies both operands at every link, so the expanded tree
        # doubles per operand; objective operands keep evaluation in bounds.
        return " <-> ".join(self.objective(1) for _ in range(operands))

    def nested_tests(self, levels: int) -> str:
        prog = self.give()
        for _ in range(levels):
            prog = f"((<{prog}>{self.atom()})?; skip)"
        return f"<{prog}>{self.atom()}"

    def model_text(self) -> str:
        owners = {a: [] for a in self.agents}
        for p in self.vars:
            self.owner[p] = self.rng.choice(self.agents)
            owners[self.owner[p]].append(p)
        lines = ["agents: " + " ".join(self.agents), "vars: " + " ".join(self.vars)]
        for a in self.agents:
            lines.append(f"owns {a}:" + "".join(" " + p for p in owners[a]))
        true_vars = [p for p in self.vars if self.rng.random() < 0.5]
        lines.append("true:" + "".join(" " + p for p in true_vars))
        return "\n".join(lines) + "\n"


def equivalent_rewrite(rng: random.Random, text: str, variables) -> str:
    """A partner formula for ``equivalent``: half the time a rewrite that
    preserves meaning, otherwise one atom renamed (which usually breaks
    equivalence)."""
    if rng.random() < 0.5:
        return rng.choice([f"~~({text})", f"({text}) & true", f"~(~({text}) | false)"])
    names = [i for i, ch in enumerate(text)
             if ch in variables and not text[i - 1].isalnum() and not text[i + 1:i + 2].isalnum()]
    if not names:
        return f"~({text})"
    at = rng.choice(names)
    return text[:at] + rng.choice([v for v in variables if v != text[at]] or [text[at]]) + text[at + 1:]


# ---------------------------------------------------------------------------
# Corpora.

DECIDE_SIGS = ((2, 3), (3, 3), (3, 4))
DECIDE_PER_SIG = 16
CHECK_SIGS = ((3, 3), (3, 4))
CHECK_PER_SIG = 60


def decide_items(rng: random.Random) -> list[dict]:
    items = []
    for n, k in DECIDE_SIGS:
        agents, variables = sig_names(n, k)
        gen = Generator(rng, agents, variables, second_order=(n, k) != (3, 4))
        for _ in range(DECIDE_PER_SIG):
            text = gen.formula(3)
            items.append({"agents": agents, "vars": variables, "formula": text,
                          "partner": equivalent_rewrite(rng, text, variables)})
    return items


def check_items(rng: random.Random) -> list[dict]:
    items = []
    kinds = ["evaluate", "program_image", "controls", "second_order_direct",
             "second_order_table"]
    for n, k in CHECK_SIGS:
        agents, variables = sig_names(n, k)
        gen = Generator(rng, agents, variables, second_order=True)
        # Second-order control of a second-order body takes seconds at 3x4
        # through the table; keep those bodies first-order.
        body_gen = Generator(rng, agents, variables, second_order=False)
        body_gen.owner = gen.owner
        for i in range(CHECK_PER_SIG):
            kind = kinds[i % len(kinds)]
            item = {"agents": agents, "vars": variables, "kind": kind,
                    "model": gen.model_text()}
            if kind == "evaluate":
                # Two in three evaluations read a long text that stresses the parser.
                if i % 3 == 0:
                    item["text"] = gen.iff_chain(rng.randint(8, 12))
                elif i % 3 == 1:
                    item["text"] = gen.nested_tests(rng.randint(7, 9))
                else:
                    item["text"] = gen.formula(4)
            elif kind == "program_image":
                item["text"] = gen.program(3)
            elif kind == "controls":
                item["coalition"] = gen.coalition().strip("{}")
                item["text"] = gen.formula(2)
            else:
                item["agent"] = rng.choice(agents)
                item["text"] = body_gen.formula(1)
            items.append(item)
    return items


#: Model files of the CLI commands, relative to the repository root.  Two
#: commands per subcommand keep the pass short, so that every command runs
#: many times in one run.
CLI_MODELS = ("cli_a.model", "cli_b.model")


def cli_items(rng: random.Random) -> list[dict]:
    items = []
    for name, (n, k) in zip(CLI_MODELS, ((2, 3), (3, 3))):
        agents, variables = sig_names(n, k)
        gen = Generator(rng, agents, variables, second_order=False)
        path = f"bench/data/{name}"
        items.append({"argv": ["check", "--model", path, "--formula", gen.formula(3)]})
        items.append({"argv": ["run", "--model", path, "--program", gen.program(2)]})
        items.append({"argv": ["controls", "--model", path, "--second-order",
                               "--agent", rng.choice(agents), "--formula", gen.objective(1)]})
    agents, variables = sig_names(2, 3)
    gen = Generator(rng, agents, variables, second_order=False)
    flags = ["--agents", ",".join(agents), "--vars", ",".join(variables)]
    for _ in range(2):
        items.append({"argv": ["sat", gen.formula(2)] + flags})
        items.append({"argv": ["valid", gen.formula(2)] + flags})
        text = gen.formula(2)
        items.append({"argv": ["equiv", text, equivalent_rewrite(rng, text, variables)] + flags})
        items.append({"argv": ["nf", gen.formula(2), "--emit-formula"] + flags})
    for limit in (1, 2):
        items.append({"argv": ["axioms", "--agents", "2", "--vars", "2", "--limit", str(limit)]})
    return items


# ---------------------------------------------------------------------------
# Expected answers from the possible-worlds evaluator.

def kripke_rows(pc, formula, sig) -> list[int]:
    """Per-allocation rows of satisfying valuations, by the worlds semantics."""
    from propctl import kripke
    from propctl.model import enumerate_allocations

    rows = []
    for alloc in enumerate_allocations(sig):
        row = 0
        for bits in range(1 << len(sig.vars)):
            pm = kripke.PointedKripkeModel(sig, alloc, pc.Valuation(sig, bits))
            if kripke.evaluate(pm, formula):
                row |= 1 << bits
        rows.append(row)
    return rows


def expect_decide(pc, item: dict) -> dict:
    sig = pc.Signature(tuple(item["agents"]), tuple(item["vars"]))
    rows = kripke_rows(pc, pc.parse_formula(item["formula"], sig), sig)
    partner = kripke_rows(pc, pc.parse_formula(item["partner"], sig), sig)
    full = (1 << (1 << len(sig.vars))) - 1
    width = 1 << len(sig.vars)
    first = next((a * width + (row & -row).bit_length() - 1
                  for a, row in enumerate(rows) if row), None)
    return {
        "rows": rows,
        "valid": all(row == full for row in rows),
        "witness": first,
        "equivalent": rows == partner,
        "grand_coalition_control": all(0 < row < full for row in rows),
    }


def model_description(pc, model) -> str:
    """Formula text true exactly at this model (allocation and valuation)."""
    parts = [p if model.val.value(p) else f"~{p}" for p in model.sig.vars]
    parts += [f"controls({model.alloc.owner(p)}, {p})" for p in model.sig.vars]
    return " & ".join(parts)


def expect_check(pc, item: dict) -> object:
    from propctl import kripke
    from propctl.model import enumerate_allocations

    model = pc.parse_model(item["model"])
    sig = model.sig
    pm = kripke.pointed_of(model)
    kind = item["kind"]
    if kind == "evaluate":
        return kripke.evaluate(pm, pc.parse_formula(item["text"], sig))
    if kind == "program_image":
        # Programs never change the valuation, so the image lies among the
        # models that share it; test each through a program diamond.
        program = item["text"]
        reached = []
        for alloc in enumerate_allocations(sig):
            target = pc.DirectModel(sig, alloc, model.val)
            goal = pc.parse_formula(f"<{program}>({model_description(pc, target)})", sig)
            if kripke.evaluate(pm, goal):
                reached.append(target.index())
        return reached
    if kind == "controls":
        coalition = "{" + item["coalition"] + "}"
        return kripke.evaluate(pm, pc.parse_formula(f"controls({coalition}, {item['text']})", sig))
    return kripke.evaluate(pm, pc.parse_formula(f"CONTROLS({item['agent']}, {item['text']})", sig))


def cli_answer(pc, argv: list[str]) -> bool | None:
    """The possible-worlds verdict a CLI command reports, when it has one."""
    from propctl import kripke

    cmd = argv[0]
    if cmd in ("check", "controls"):
        model = pc.parse_model((ROOT / argv[argv.index("--model") + 1]).read_text())
        text = argv[argv.index("--formula") + 1]
        if cmd == "controls":
            text = f"CONTROLS({argv[argv.index('--agent') + 1]}, {text})"
        return kripke.evaluate(kripke.pointed_of(model), pc.parse_formula(text, model.sig))
    if cmd in ("sat", "valid", "equiv"):
        sig = pc.Signature(tuple(argv[argv.index("--agents") + 1].split(",")),
                           tuple(argv[argv.index("--vars") + 1].split(",")))
        full = (1 << (1 << len(sig.vars))) - 1
        rows = kripke_rows(pc, pc.parse_formula(argv[1], sig), sig)
        if cmd == "sat":
            return any(rows)
        if cmd == "valid":
            return all(row == full for row in rows)
        return rows == kripke_rows(pc, pc.parse_formula(argv[2], sig), sig)
    return None


def run_cli(argv: list[str]) -> tuple[int, str]:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-m", "propctl.cli", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def record() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import propctl as pc

    rng = random.Random(CORPUS_SEED)
    decide = decide_items(rng)
    for item in decide:
        item["expected"] = expect_decide(pc, item)
    check = check_items(rng)
    for item in check:
        item["expected"] = expect_check(pc, item)

    models_rng = random.Random(CORPUS_SEED + 1)
    for name, (n, k) in zip(CLI_MODELS, ((2, 3), (3, 3))):
        gen = Generator(models_rng, *sig_names(n, k), second_order=False)
        (DATA_DIR / name).write_text(gen.model_text())
    cli = cli_items(rng)
    for item in cli:
        code, out = run_cli(item["argv"])
        verdict = cli_answer(pc, item["argv"])
        if verdict is not None and code != (0 if verdict else 1):
            raise SystemExit(f"exit code {code} disagrees with the worlds semantics: {item['argv']}")
        item["exit"] = code
        item["stdout"] = out

    for name, items in (("decide", decide), ("check", check), ("cli", cli)):
        payload = {"corpus_seed": CORPUS_SEED, "hash": digest(items), "items": items}
        (DATA_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(f"{name}: {len(items)} items, hash {payload['hash']}")


if __name__ == "__main__":
    record()
