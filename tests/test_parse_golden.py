"""The parser's outcomes on a seeded corpus of formula, program and model-file
texts, valid and invalid, pinned: the AST (as its rendering) or the refusal's
message, line and column of every text, with no signature and with one.

``data/parse_golden.json`` was written by ``data/make_parse_golden.py`` with
the recursive-descent parser that the frame-stack parser replaced, so these
outcomes are that parser's.  Only nesting differs on purpose: that parser
refused any text nested past its Python stack ("nested too deeply"), where
the frame-stack parser reads formulas and programs nested without bound.
So a text refused that way must now give the AST built directly.
"""

import hashlib
import json
from pathlib import Path

from propctl import render, serialize_model
from propctl.model import Signature, SignatureError
from propctl.syntax import (TOP, Atom, Dia, DiaProg, ParseError, Seq, Test, parse_formula,
                            parse_model, parse_program)

DATA = Path(__file__).parent / "data"


def _sha(text: str) -> str:
    """The text's SHA-256, which the corpus keeps for a rendering over 300
    characters (``<->`` renders exponentially long)."""
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def outcome(read, text, sig):
    try:
        node = read(text, sig)
    except ParseError as err:
        return ["parse", err.message, err.line, err.col]
    except SignatureError as err:
        return ["signature", str(err)]
    out = render(node)
    return ["ok", out if len(out) <= 300 else _sha(out)]


def model_outcome(text):
    try:
        return ["ok", serialize_model(parse_model(text))]
    except ParseError as err:
        return ["parse", err.message, err.line, err.col]


def nested(text):
    """The AST of a corpus text nested past the recording parser's stack,
    built directly: ``(`` or ``dia{1}(`` taken n times around ``p``, ``(``
    taken n times around ``skip``, or ``<`` and n times ``(skip; `` around
    ``skip``, then ``>true``."""
    skip = Test(TOP)
    for before, opener, core, node, wrap, after in (
            ("", "(", "p", Atom("p"), lambda f: f, ""),
            ("", "dia{1}(", "p", Atom("p"), lambda f: Dia({"1"}, f), ""),
            ("", "(", "skip", skip, lambda p: p, ""),
            ("<", "(skip; ", "skip", skip, lambda p: Seq(skip, p), ">true")):
        n = text.count(opener)
        if text == before + opener * n + core + ")" * n + after:
            for _ in range(n):
                node = wrap(node)
            return DiaProg(node, TOP) if before else node
    raise AssertionError(f"no known nesting: {text[:60]}")


def test_parse_golden_corpus():
    data = json.loads((DATA / "parse_golden.json").read_text(encoding="utf-8"))
    sig = Signature(*map(tuple, data["signature"]))
    readers = {"formula": parse_formula, "program": parse_program}
    compared = deep = 0
    for item in data["items"]:
        text = item["text"]
        if item["sort"] == "model":
            assert model_outcome(text) == item["outcome"], text
            compared += 1
            continue
        for key, scope in (("bare", None), ("sig", sig)):
            read, want = readers[item["sort"]], item[key]
            if want[:2] == ["parse", "nested too deeply"]:  # past the recording parser's stack
                assert read(text, scope) == nested(text), text[:60]
                deep += 1
                continue
            assert outcome(read, text, scope) == want, (key, text)
            compared += 1
    assert compared > 7000 and deep == 14
