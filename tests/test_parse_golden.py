"""The parser's outcomes on a seeded corpus of formula, program and model-file
texts, valid and invalid, pinned: the AST (as its rendering) or the refusal's
message, line and column of every text, with no signature and with one.

``data/parse_golden.json`` was written by ``data/make_parse_golden.py`` with
the recursive-descent parser that the frame-stack parser replaced, so these
outcomes are that parser's.  Only nesting differs on purpose: that parser
refused any text nested past its Python stack ("nested too deeply"), where
the frame-stack parser reads formulas nested without bound and refuses only
programs nested over ``syntax._PROGRAM_DEPTH`` program frames.  So a text
refused that way must now give the AST built directly or be refused at the
bound, and the one program that parser read and the bound refuses (300
wrapper groups) is named.
"""

import hashlib
import json
from pathlib import Path

from propctl import render, serialize_model, syntax
from propctl.model import Signature, SignatureError
from propctl.syntax import Atom, Dia, ParseError, parse_formula, parse_model, parse_program

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
    built directly: ``(`` or ``dia{1}(`` taken n times around ``p``."""
    for opener, wrap in (("(", lambda f: f), ("dia{1}(", lambda f: Dia({"1"}, f))):
        n = text.count(opener)
        if text == opener * n + "p" + ")" * n:
            f = Atom("p")
            for _ in range(n):
                f = wrap(f)
            return f
    raise AssertionError(f"no known nesting: {text[:60]}")


def test_parse_golden_corpus():
    data = json.loads((DATA / "parse_golden.json").read_text(encoding="utf-8"))
    sig = Signature(*map(tuple, data["signature"]))
    readers = {"formula": parse_formula, "program": parse_program}
    bound = ["parse", f"nested too deeply: over {syntax._PROGRAM_DEPTH} program frames"]
    compared = deep = 0
    for item in data["items"]:
        text = item["text"]
        if item["sort"] == "model":
            assert model_outcome(text) == item["outcome"], text
            compared += 1
            continue
        for key, scope in (("bare", None), ("sig", sig)):
            read, want = readers[item["sort"]], item[key]
            if want[:2] == ["parse", "nested too deeply"]:
                # past the recording parser's stack: a formula nesting is
                # read, a program nested over the bound is refused
                try:
                    node = read(text, scope)
                except ParseError as err:
                    assert [err.message, err.line] == [*bound[1:], 1], text[:60]
                else:
                    assert node == nested(text), text[:60]
                deep += 1
                continue
            got = outcome(read, text, scope)
            if got[:2] == bound and want[0] == "ok":
                # the one text the recording parser read and the bound refuses:
                # 300 pure wrapper groups in a program
                assert text == "(" * 300 + "skip" + ")" * 300
                deep += 1
                continue
            assert got == want, (key, text)
            compared += 1
    assert compared > 7000 and deep == 16
