"""Write ``parse_golden.json``: seeded formula, program and model-file texts,
valid and invalid, each with what the parser makes of it.

Run from the repository root, with the ``propctl`` whose behaviour is to be
pinned on the path:

    PYTHONPATH=src python tests/data/make_parse_golden.py > tests/data/parse_golden.json

A formula or program text is parsed with no signature and with ``SIG``; an
outcome is ``["ok", render(ast)]``, ``["parse", message, line, column]`` or
``["signature", message]``; a rendering longer than ``SHORT`` characters
is kept as its SHA-256 (``<->`` renders exponentially long).  A model
file's outcome is ``["ok", serialize_model(model)]`` or a ``"parse"``
refusal.  ``test_parse_golden.py``
reads the file and requires the same outcomes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from propctl import render, serialize_model
from propctl.axioms import SCHEMES, make_context
from propctl.model import Signature, SignatureError
from propctl.syntax import ParseError, parse_formula, parse_model, parse_program

SEED = 21
SIG = Signature(("1", "2", "3"), ("p", "q", "r"))
ROOT = Path(__file__).resolve().parents[2]
SHORT = 300

_AGENTS = ["1", "2", "3", "a"]
_VARS = ["p", "q", "r", "x_1"]
_BLANKS = [" ", " ", " ", "", "  ", "\t", "\n", "\r\n", " # note\n"]


class _Texts:
    """Random surface syntax: every sugar form, with random blanks."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def blank(self) -> str:
        return self.rng.choice(_BLANKS)

    def join(self, *parts: str) -> str:
        return "".join(p + self.blank() for p in parts).rstrip(" ")

    def coalition(self) -> str:
        rng = self.rng
        if rng.random() < 0.3:
            return rng.choice(_AGENTS)
        return "{" + ",".join(rng.sample(_AGENTS, rng.randrange(0, 3))) + "}"

    def formula(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return rng.choice(_VARS + ["true", "false"])
        roll = rng.randrange(13)
        if roll < 4:
            op = rng.choice(["&", "|", "->", "<->"])
            return self.join(self.formula(depth - 1), op, self.formula(depth - 1))
        if roll == 4:
            return self.join("~", self.formula(depth - 1))
        if roll == 5:
            return self.join(rng.choice(["dia", "box"]), self.coalition(), self.formula(depth - 1))
        if roll == 6:
            return self.join("<", self.program(depth - 1), ">", self.formula(depth - 1))
        if roll == 7:
            return self.join("[", self.program(depth - 1), "]", self.formula(depth - 1))
        if roll == 8:
            return self.join("(", self.formula(depth - 1), ")")
        if roll == 9:
            return self.join("controls", "(", self.coalition(), ",", self.formula(depth - 1), ")")
        if roll == 10:
            return self.join("CONTROLS", "(", rng.choice(_AGENTS), ",", self.formula(depth - 1),
                             ")")
        return self.join("~", "~", self.formula(depth - 1))

    def program(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            roll = rng.randrange(4)
            if roll == 0:
                return self.join("give", "(", rng.choice(_AGENTS), ",", rng.choice(_VARS), ",",
                                 rng.choice(_AGENTS), ")")
            return rng.choice(["skip", "fail", self.join("(", rng.choice(_VARS), ")", "?")])
        roll = rng.randrange(12)
        if roll < 3:
            return self.join(self.program(depth - 1), rng.choice([";", "+"]),
                             self.program(depth - 1))
        if roll == 3:
            return self.join(self.program(depth - 1), "*")
        if roll == 4:
            return self.join("(", self.program(depth - 1), ")")
        if roll == 5:
            return self.join("(", self.formula(depth - 1), ")", "?")
        if roll == 6:
            return self.join("test", "(", self.formula(depth - 1), ")")
        if roll == 7:
            return self.join("if", self.formula(depth - 1), "then", self.program(depth - 1),
                             "else", self.program(depth - 1))
        if roll == 8:
            return self.join("while", self.formula(depth - 1), "do", self.program(depth - 1))
        if roll == 9:
            return self.join("repeat", self.program(depth - 1), "until", self.formula(depth - 1))
        if roll == 10:
            if rng.random() < 0.4:
                return self.join("giveall", "(", rng.choice(_AGENTS), ")")
            return self.join("giveall", "(", self.coalition(), "->", self.coalition(), ")")
        return self.join("(", "(", self.program(depth - 1), ")", ")", "*")


# What a mutation inserts: lexemes, blanks, and what the lexer refuses.
_PIECES = [
    "p", "q", "1", "12ab", "pé", "é", "true", "dia", "give", "giveall", "CONTROLS", "then",
    "else", "do", "until", "(", ")", "{", "}", "[", "]", "<", ">", "<->", "->", "<-", "-",
    "~", "&", "|", ";", "+", "*", "?", ",", " ", "\t", "\n", "\r\n", "\r", "\x0c", "# c\n",
    "#", "$",
]


def _lexemes(text: str) -> list[str]:
    import re
    return re.findall(r"<->|->|\w+|\s+|#[^\n]*|.", text)


def _mutate(rng: random.Random, text: str) -> str:
    parts = _lexemes(text)
    if not parts:
        return rng.choice(_PIECES)
    i = rng.randrange(len(parts))
    roll = rng.randrange(5)
    if roll == 0:
        del parts[i]
    elif roll == 1:
        parts.insert(i, rng.choice(_PIECES))
    elif roll == 2:
        parts = parts[:i]
    elif roll == 3 and i + 1 < len(parts):
        parts[i], parts[i + 1] = parts[i + 1], parts[i]
    else:
        parts[i] = rng.choice(_PIECES)
    return "".join(parts)


# Hand-picked cases: every refusal of the grammar, and deep nesting.
_FORMULAS = [
    "p & # comment", "p\t&\tq\t)", "p &\r\n q )", "p & é", "pé", "-", "p <- q", "x\n\t# c\n  y #",
    "", "   ", "# only a comment", "(", ")", "()", "(p", "p)", "~", "~~", "dia", "dia p",
    "dia{1 p", "dia{1,}p", "dia{}p", "box{1,2}(p", "<", "<>p", "<skip", "<skip>", "<skip]p",
    "[skip>p", "[skip]", "true false", "p q", "controls", "controls(", "controls(1)",
    "controls(1 p)", "controls({1,}, p)", "controls(1, p", "controls({}, p)", "controls({1,2},p)q",
    "CONTROLS(1, p)", "CONTROLS(1)", "CONTROLS({1}, p)", "CONTROLS(zz, p)", "CONTROLS(1, p) &",
    "CONTROLS(zz, p", "<giveall({1} ->)>p", "<giveall(zz)>p", "<giveall({1} -> {zz})>p",
    "<giveall(1)>p", "<giveall({} -> 2)>p", "<giveall({}->{})>p", "while", "then", "p -> -> q",
    "p <-> <-> q", "p & & q", "~(p | q", "dia{1}(p) box{2}(q)", "<(p)?>q", "<(p)>q",
    "<((p))?>q", "<((p)?)>q", "<((p) | q)?>r", "<((p)?; skip)>q", "<(((give(1,p,2))))*>q",
    "<((<((p)?)*>q) -> r)?>r", "<(skip)?>p", "<(skip; skip)?>p", "<(p)? ?>q", "<(p)?*>q",
    "<((p)*)>q", "<(~p)?>q", "<(<skip>p)?>q", "<()>p", "<(>p", "<((>p", "<(())>p",
    "<if p then skip else fail>q", "<if p then skip>q", "<if p skip>q", "<while p skip>q",
    "<repeat skip p>q", "<repeat skip until>q", "<while do skip>q", "<if then skip else skip>q",
    "<test(p)>q", "<test p>q", "<test(p, q)>q", "<test(p>q", "<give(1,p)>q", "<give(1,p,2>q",
    "<give 1,p,2)>q", "<give(1,,2)>q", "<give(p q)>q", "<skip + >p", "<skip ; >p", "<*>p",
    "<skip**>p", "<+skip>p", "<skip;skip+skip;skip>p", "p\r\nq", "p\rq", "p\x0bq", "p q",
    "1 & 12 & 12ab", "p_ & _p & _", "x$", "p # a\n# b\n& q", "~dia{1}<give(1,p,2)>[skip]box{2}p",
    "p <-> q <-> r & s | ~p -> q", "dia{1,1,2}(p)", "(((((p)))))", "~ ~ ~ p",
]
_PROGRAMS = [
    "give(1,p)", "give(1,p,2", "give 1,p,2)", "give(1,,2)", "give(p q)", "test(p", "test p",
    "test(p, q)", "if p then skip", "if p skip", "while p skip", "repeat skip p",
    "giveall({} -> 2)", "giveall()", "giveall(1)", "giveall(1 2)", "giveall({1} 2)",
    "giveall(1 -> 2", "giveall({}->{})", "giveall(1 -> {})", "giveall({1,2} -> 3)",
    "giveall(zz)", "giveall", "giveall 1", "(p)", "(p)?", "((p))?", "((p) | q)?", "((p)?; skip)",
    "(((give(1,p,2))))*", "((<((p)?)*>q) -> r)?", "(skip)", "(skip)?", "((skip))", "(p ? )",
    "(skip; (p)?)*", "skip*;fail**+(q)?", "if p then skip else fail", "if p then if q then skip "
    "else fail else skip", "while p do while q do skip", "repeat repeat skip until p until q",
    "if p then skip else fail*", "while p do skip; skip", "repeat skip + skip until p ; skip",
    "(if p then skip else fail)*", "(while p do skip)?", "", "*", "skip skip", "skip )", "(",
    "()", "(()", "(())", "(skip", "skip;", "+skip", "p", "true", "dia{1}p", "then",
    "if p then skip else", "while p do", "repeat until p", "test()", "test(p))",
    "skip\r\n;\tfail # end", "give(1,p,2);\t\r\n  give(1,p,2", "skip;\r\n\tgiveall({} -> 2)",
]


def _outcome(read, text: str, sig):
    try:
        node = read(text, sig)
    except ParseError as err:
        return ["parse", err.message, err.line, err.col]
    except SignatureError as err:
        return ["signature", str(err)]
    return ["ok", digest(render(node))]


def digest(text: str) -> str:
    """The text, or its SHA-256 if it is longer than ``SHORT``."""
    return text if len(text) <= SHORT else "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _model_outcome(text: str):
    try:
        return ["ok", serialize_model(parse_model(text))]
    except ParseError as err:
        return ["parse", err.message, err.line, err.col]


def _model_texts(rng: random.Random) -> list[str]:
    """Model files: well formed, then each line kind broken in turn."""
    out = []
    for _ in range(160):
        agents = rng.sample(["1", "2", "3", "a", "b_2", "10"], rng.randrange(1, 4))
        props = rng.sample(["p", "q", "r", "s", "x_1", "7"], rng.randrange(1, 5))
        owners = {a: [] for a in agents}
        for p in props:
            owners[rng.choice(agents)].append(p)
        lines = [f"agents: {' '.join(agents)}", f"vars: {' '.join(props)}"]
        lines += [f"owns {a}:" + "".join(" " + p for p in ps) for a, ps in owners.items()]
        lines.append("true:" + "".join(" " + p for p in props if rng.random() < 0.5))
        rng.shuffle(lines)
        if rng.random() < 0.3:
            lines.insert(rng.randrange(len(lines) + 1), "# comment")
        end = rng.choice(["\n", "\n", "\r\n"])
        text = end.join(lines) + end
        out.append(text)
        out.append(_break_model(rng, lines, end))
        out.append(_mutate(rng, text))
    return out + [
        "agents: 1 2x-\nvars: p\n", "agents: 1\nvars p\n", "agents: 1\nagents: 2\n",
        "vars: p\n# gap\nvars: q\n", "true: p\ntrue:\n", "owns 1: p\nowns 1: q\n",
        "owns 1-2: p\n", "agents: 1\nowners 1: p\n", "agents: 1\nowns1: p\n",
        "vars: p\nowns 1: p\ntrue:\n", "agents: 1\nvars:\nowns 1: p\ntrue:\n",
        "agents:\nvars:\n", "agents: 1\nvars: p\nowns 1: p\n", "", "\n\n",
        "agents: 1\nvars: p\nowns 2: p\ntrue:\n",
        "agents: 1 1\nvars: p p\nowns 1: p p\ntrue: p p\n",
        "agents: 1\nvars: p\nowns 1: p\ntrue: z\n", "agents: 1\nvars: p q\nowns 1: p\ntrue:\n",
        "agents: 1 2\nvars: p\nowns 1: p\nowns 2: p\ntrue:\n",
        "agents: 1\nvars: p\nowns 1: q\ntrue:\n",
        "agents: 1\nvars: p\nowns 1: p\ntrue: p\nextra\n",
        "agents: 1 # c\nvars: p#c\nowns 1:p\ntrue:p",
        "  agents :  1 \n vars : p \n owns  1 : p \n true : \n",
        "agents: 1\nvars: p\nowns : p\ntrue:\n",
        "agents: 1\nvars: p\nowns 1 2: p\ntrue:\n", "agents: 1\nvars: p\nowns 1: p\ntrue: é\n",
        "agents: 1\nvars: p\nowns 1: p\ntrue:\n\x00", "agents: 1\rvars: p\nowns 1: p\ntrue:\n",
        "agents: 1\nvars: p\nOWNS 1: p\ntrue:\n",
        "agents: true\nvars: dia\nowns true: dia\ntrue: dia\n",
    ]


def _break_model(rng: random.Random, lines: list[str], end: str) -> str:
    lines = list(lines)
    roll = rng.randrange(7)
    i = rng.randrange(len(lines))
    if roll == 0:
        del lines[i]
    elif roll == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif roll == 2:
        lines[i] = lines[i] + " " + rng.choice(["p", "zz", "1", "é", "-", "a b"])
    elif roll == 3:
        lines[i] = lines[i].replace(":", "", 1)
    elif roll == 4:
        lines[i] = lines[i].split(":")[0] + ":"
    elif roll == 5:
        lines[i] = rng.choice(["owns zz: p", "owns: p", "true p", "owns 1 q", "vars:"])
    else:
        lines.insert(i, rng.choice(["# c", "", "   ", "\t# x"]))
    return end.join(lines) + end


def _corpus_texts() -> list[tuple[str, str]]:
    """The benchmark corpora's texts and every fifth axiom instance of 2x2, rendered."""
    out = []
    check = json.loads((ROOT / "bench" / "data" / "check.json").read_text(encoding="utf-8"))
    for item in check["items"]:
        out.append(("program" if item["kind"] == "program_image" else "formula", item["text"]))
    decide = json.loads((ROOT / "bench" / "data" / "decide.json").read_text(encoding="utf-8"))
    for item in decide["items"]:
        out += [("formula", item["formula"]), ("formula", item["partner"])]
    ctx = make_context(Signature(("1", "2"), ("p1", "p2")))
    n = 0
    for scheme in SCHEMES:
        for k, inst in enumerate(scheme.instances(ctx)):
            if k >= 40:
                break
            if n % 5 == 0:
                out.append(("formula", render(inst)))
            n += 1
    return out


def main() -> None:
    rng = random.Random(SEED)
    gen = _Texts(rng)
    texts = [("formula", t) for t in _FORMULAS] + [("program", t) for t in _PROGRAMS]
    texts += _corpus_texts()
    valid = [("formula", gen.formula(rng.randrange(1, 6))) for _ in range(400)]
    valid += [("program", gen.program(rng.randrange(1, 6))) for _ in range(400)]
    texts += valid
    texts += [(sort, _mutate(rng, text)) for sort, text in valid for _ in range(2)]
    texts += [(rng.choice(["formula", "program"]),
               "".join(rng.choice(_PIECES) for _ in range(rng.randrange(1, 20))))
              for _ in range(400)]
    # nesting: deep enough that a recursive reader runs out of stack
    for n in (50, 300, 2000):
        texts += [("formula", "(" * n + "p" + ")" * n), ("program", "(" * n + "skip" + ")" * n),
                  ("formula", "<" + "(skip; " * n + "skip" + ")" * n + ">true"),
                  ("formula", "dia{1}(" * n + "p" + ")" * n)]
    readers = {"formula": parse_formula, "program": parse_program}
    items = [{"sort": sort, "text": text, "bare": _outcome(readers[sort], text, None),
              "sig": _outcome(readers[sort], text, SIG)} for sort, text in texts]
    items += [{"sort": "model", "text": text, "outcome": _model_outcome(text)}
              for text in _model_texts(rng)]
    json.dump({"seed": SEED, "signature": [list(SIG.agents), list(SIG.vars)], "items": items},
              sys.stdout, indent=0, ensure_ascii=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
