"""Shared test utilities: sample models and seeded random AST generators."""

from __future__ import annotations

import random

from propctl.model import DirectModel, Signature, enumerate_models
from propctl.syntax import (
    Atom,
    Choice,
    Dia,
    DiaProg,
    Formula,
    Give,
    Not,
    Or,
    Program,
    Seq,
    Star,
    Test,
    TOP,
    conj_all,
    parse_model,
)

SAMPLE_MODEL_TEXT = """\
agents: 1 2
vars: p q r
owns 1: p q
owns 2: r
true: p q
"""


def sample_model() -> DirectModel:
    """Two agents; agent 1 owns p and q (both true), agent 2 owns r (false)."""
    return parse_model(SAMPLE_MODEL_TEXT)


def models_of(sig: Signature) -> list[DirectModel]:
    return list(enumerate_models(sig))


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


def naming_everything(sig: Signature) -> Formula:
    """A formula naming every agent and variable, so that no table is cut."""
    return Dia(frozenset(sig.agents), conj_all(Atom(p) for p in sig.vars))


def random_objective(rng: random.Random, sig: Signature, depth: int) -> Formula:
    if depth <= 0:
        return Atom(rng.choice(sig.vars)) if rng.random() < 0.9 else TOP
    if rng.random() < 0.5:
        return Not(random_objective(rng, sig, depth - 1))
    return Or(random_objective(rng, sig, depth - 1),
              random_objective(rng, sig, depth - 1))
