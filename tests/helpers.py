"""Shared test utilities: sample models, seeded random AST generators, and
reference readings of the library that only tests use."""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from propctl.kripke import PointedKripkeModel, _eval_k, _pointed_image
from propctl.model import (DirectModel, Signature, Valuation, enumerate_allocations,
                           enumerate_models, is_valid_name)
from propctl.semantics import program_image, truth_rows
from propctl.syntax import (
    Atom,
    Choice,
    Dia,
    DiaProg,
    Formula,
    Give,
    KEYWORDS,
    Not,
    Or,
    ParseError,
    Program,
    Seq,
    Star,
    Test,
    TOP,
    _walk,
    conj_all,
    parse_formula,
    parse_model,
    parse_program,
)

SAMPLE_MODEL_TEXT = """\
agents: 1 2
vars: p q r
owns 1: p q
owns 2: r
true: p q
"""


# The reference lexer: one named alternative per kind of lexeme, read one
# match at a time with a running line and column.  "<->" and "->" are tried
# before "<".
_LEXEME = (r"(?P<symbol><->|->|[(){}\[\]<>~&|;+*?,])|(?P<word>\w+)|(?P<space>[^\S\n]+)"
           r"|(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<other>.)")


class Token(NamedTuple):
    kind: str  # "name", "keyword", symbol text, or "end"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The text's tokens, then an "end" token, or the ``ParseError`` of its
    first bad identifier or stray character.  A column counts characters; a
    comment moves no column."""
    tokens: list[Token] = []
    line, col = 1, 1
    for match in re.finditer(_LEXEME, text, re.DOTALL):
        kind, lexeme = match.lastgroup, match.group()
        if kind == "symbol":
            tokens.append(Token(lexeme, lexeme, line, col))
        elif kind == "word":
            if lexeme in KEYWORDS:
                tokens.append(Token("keyword", lexeme, line, col))
            elif is_valid_name(lexeme):
                tokens.append(Token("name", lexeme, line, col))
            else:
                raise ParseError(f"bad identifier {lexeme!r}", line, col)
        elif kind == "newline":
            line, col = line + 1, 1
            continue
        elif kind == "comment":
            continue
        elif kind == "other":
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
        col += len(lexeme)
    tokens.append(Token("end", "", line, col))
    return tokens


def sample_model() -> DirectModel:
    """Two agents; agent 1 owns p and q (both true), agent 2 owns r (false)."""
    return parse_model(SAMPLE_MODEL_TEXT)


def models_of(sig: Signature) -> list[DirectModel]:
    return list(enumerate_models(sig))


def enumerate_valuations(sig: Signature) -> list[Valuation]:
    return [Valuation(sig, bits) for bits in range(1 << len(sig.vars))]


def postorder(node) -> list:
    """Every node object of a formula or program once, children first (see
    ``syntax._walk``)."""
    return _walk(node)[0]


def in_relation(start: DirectModel, end: DirectModel, program: Program) -> bool:
    """Whether some run of the program takes the first model to the second."""
    return end in program_image(start, program)


def cross_check(sig: Signature, formula: Formula) -> bool:
    """Whether both evaluators agree on every (allocation, valuation) pair."""
    rows = truth_rows(formula, sig)
    for alloc, row in zip(enumerate_allocations(sig), rows):
        for bits in range(1 << len(sig.vars)):
            pm = PointedKripkeModel(sig, alloc, Valuation(sig, bits))
            if bool(row >> bits & 1) != _eval_k(pm, formula):
                return False
    return True


def random_coalition(rng: random.Random, sig: Signature) -> frozenset[str]:
    return frozenset(a for a in sig.agents if rng.random() < 0.5)


def random_program(rng: random.Random, sig: Signature, depth: int) -> Program:
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.6:
            return Give(rng.choice(sig.agents), rng.choice(sig.vars),
                        rng.choice(sig.agents))
        if roll < 0.8:
            return Test(random_formula(rng, sig, 0))
        return Test(TOP)
    roll = rng.random()
    if roll < 0.3:
        return Seq(random_program(rng, sig, depth - 1),
                   random_program(rng, sig, depth - 1))
    if roll < 0.6:
        return Choice(random_program(rng, sig, depth - 1),
                      random_program(rng, sig, depth - 1))
    if roll < 0.8:
        return Star(random_program(rng, sig, depth - 1))
    return Test(random_formula(rng, sig, depth - 1))


def random_formula(rng: random.Random, sig: Signature, depth: int) -> Formula:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.1:
            return TOP
        return Atom(rng.choice(sig.vars))
    roll = rng.random()
    if roll < 0.25:
        return Not(random_formula(rng, sig, depth - 1))
    if roll < 0.5:
        return Or(random_formula(rng, sig, depth - 1),
                  random_formula(rng, sig, depth - 1))
    if roll < 0.75:
        return Dia(random_coalition(rng, sig), random_formula(rng, sig, depth - 1))
    return DiaProg(random_program(rng, sig, min(depth - 1, 2)),
                   random_formula(rng, sig, depth - 1))


def deep_texts(n: int) -> list[tuple]:
    """Texts that nest n levels deep, each with its parser: an n-operand
    ``->`` chain (right-nested), n right-nested ``|`` and ``&`` groups, and
    n-level ``if``, ``while``, sequence and starred choice programs."""
    return [
        (parse_formula, " -> ".join(["p"] * n)),
        (parse_formula, "(p | " * n + "p" + ")" * n),
        (parse_formula, "(p & " * n + "p" + ")" * n),
        (parse_program, "if q then give(1,p,2) + " * n + "skip" + " else give(2,p,1)" * n),
        (parse_program, "while p do " * n + "give(1,p,2)"),
        (parse_program, "(give(1,p,2); " * n + "give(1,p,2)" + ")" * n),
        (parse_program, "(give(1,p,2) + skip; " * n + "skip" + ")*" * n),
    ]


def naming_everything(sig: Signature) -> Formula:
    """A formula naming every agent and variable, so that no table is cut."""
    return Dia(frozenset(sig.agents), conj_all(Atom(p) for p in sig.vars))


def kripke_depth(pointed, body) -> int:
    """Rounds of the body's image, iterated from the pointed model, that find new models."""
    reached, frontier, rounds = {pointed}, {pointed}, 0
    while frontier := set().union(*(_pointed_image(x, body) for x in frontier)) - reached:
        reached |= frontier
        rounds += 1
    return rounds


def random_objective(rng: random.Random, sig: Signature, depth: int) -> Formula:
    if depth <= 0:
        return Atom(rng.choice(sig.vars)) if rng.random() < 0.9 else TOP
    if rng.random() < 0.5:
        return Not(random_objective(rng, sig, depth - 1))
    return Or(random_objective(rng, sig, depth - 1),
              random_objective(rng, sig, depth - 1))
