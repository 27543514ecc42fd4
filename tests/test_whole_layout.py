"""Answers from the whole layout equal those from the cut and model layouts.

A signature of at most ``semantics._WHOLE_SHAPE`` agents and variables
tables every query, with or without a model, in its one cached whole layout.
Each answer here is computed with that limit as it is and with it set to
(0, 0), which sends every query to the roots' cut layout or the model's own
layout, and both are checked against the possible-worlds evaluator where
that is cheap.
"""

import random

import pytest

from helpers import kripke_depth, random_formula, random_program
from propctl import kripke, semantics
from propctl.control import characterize_second_order, grand_coalition_control
from propctl.decision import satisfiable, valid
from propctl.model import Allocation, DirectModel, Signature, SignatureError, Valuation
from propctl.normalform import equivalent, normal_form
from propctl.syntax import (TOP, Atom, Dia, DiaProg, Formula, Give, Or, Star, parse_formula,
                            postorder, render)

SHAPES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)] + [(2, 6)]
OFF = (0, 0)  # no signature is this small: the whole layout off


def signature(agents: int, variables: int) -> Signature:
    return Signature(tuple(str(i + 1) for i in range(agents)),
                     tuple(f"p{j}" for j in range(variables)))


def bits(sig: Signature) -> int:
    return len(sig.agents) ** len(sig.vars) << len(sig.vars)


def answers(sig, formulas, programs, models):
    """Per formula, its model-free answers and its answers at each model;
    per program, its image and star depth at each model."""
    out = []
    for f, g in zip(formulas, formulas[1:] + formulas[:1]):
        out.append((valid(f, sig), satisfiable(f, sig), normal_form(f, sig).rows,
                    equivalent(f, g, sig), grand_coalition_control(f, sig),
                    [(semantics.evaluate(m, f), characterize_second_order(
                        sig, m.alloc, m.val, sig.agents[i % len(sig.agents)], f))
                     for i, m in enumerate(models)]))
    for p in programs:
        out.append([(semantics.program_image(m, p), semantics.star_depth(m, p)) for m in models])
    return out


@pytest.mark.parametrize("shape", SHAPES)
def test_whole_layout_answers_as_the_cut_and_model_layouts(monkeypatch, shape):
    sig = signature(*shape)
    rng = random.Random(100 * shape[0] + shape[1])
    formulas = [random_formula(rng, sig, 3) for _ in range(6)]
    programs = [random_program(rng, sig, 2) for _ in range(4)] + [Star(random_program(rng, sig, 1))]
    models = [DirectModel(sig, Allocation.from_index(sig, rng.randrange(len(sig.agents) ** shape[1])),
                          Valuation(sig, rng.randrange(1 << shape[1]))) for _ in range(3)]
    whole_shape = tuple(map(max, semantics._WHOLE_SHAPE, shape))  # the whole layout over 2x6 too
    monkeypatch.setattr(semantics, "_WHOLE_SHAPE", whole_shape)
    tables = semantics._Tables(sig, formulas[:1], models[0])
    assert (len(tables.domain), tables.width) == (len(sig.agents) ** shape[1], 1 << shape[1])
    whole = answers(sig, formulas, programs, models)
    monkeypatch.setattr(semantics, "_WHOLE_SHAPE", OFF)
    assert answers(sig, formulas, programs, models) == whole
    if bits(sig) <= 256:  # every model, against the possible-worlds evaluator
        monkeypatch.setattr(semantics, "_WHOLE_SHAPE", whole_shape)
        for alloc in range(len(sig.agents) ** shape[1]):
            for val in range(1 << shape[1]):
                m = DirectModel(sig, Allocation.from_index(sig, alloc), Valuation(sig, val))
                pointed = kripke.pointed_of(m)
                for f in formulas:
                    assert semantics.evaluate(m, f) == kripke.evaluate(pointed, f), render(f)
                for p in programs:
                    assert [kripke.pointed_of(r) for r in semantics.program_image(m, p)] == sorted(
                        kripke._pointed_image(pointed, p), key=lambda pm: pm.alloc.index())
                    assert semantics.star_depth(m, p) == kripke_depth(pointed, p)


def test_shared_nodes_are_tabled_once_in_the_whole_walk(monkeypatch):
    # <-> uses each operand twice, and repeat its body twice: 2**12 paths
    sig = signature(2, 2)
    f = parse_formula(" <-> ".join(["p0", "dia{1} p1"] * 6) + " | <repeat (repeat give(1,p0,2) "
                      "until p1) until dia{2}(p0 <-> p1)> p0", sig)
    m = DirectModel(sig, Allocation.from_index(sig, 2), Valuation(sig, 1))
    built = []
    real = semantics._Tables.build

    def counting(self, node):
        built.append(node)
        return real(self, node)

    monkeypatch.setattr(semantics._Tables, "build", counting)
    for query in (lambda: normal_form(f, sig), lambda: semantics.evaluate(m, f)):
        built.clear()
        query()
        assert sorted(map(id, built)) == sorted(
            id(node) for node in postorder(f) if isinstance(node, Formula))


def test_the_limit_sends_small_signatures_to_the_whole_layout():
    f = Dia({"1"}, Atom("p0"))  # names one variable and one agent
    most_agents, most_vars = semantics._WHOLE_SHAPE
    for shape in SHAPES + [(1, 5), (2, 5), (4, 1), (4, 2)]:
        sig = signature(*shape)
        whole = shape[0] <= most_agents and shape[1] <= most_vars
        assert len(semantics._Tables(sig, [f]).domain) == (len(sig.agents) ** shape[1] if whole
                                                           else min(2, len(sig.agents)))


@pytest.mark.parametrize("make", [
    lambda: Or(Atom("zz"), Dia({"9", "1"}, Atom("yy"))),  # every bad name, sorted
    lambda: Dia({"8"}, TOP),
    lambda: DiaProg(Give("1", "zz", "2"), TOP),
    lambda: DiaProg(Star(Give("7", "p0", "1")), TOP),
    lambda: DiaProg(Give("1", "p0", "6"), Atom("xx")),
])
def test_names_outside_the_signature_are_refused_alike(monkeypatch, make):
    sig = signature(2, 2)
    m = DirectModel(sig, Allocation.from_index(sig, 1), Valuation(sig, 2))
    f = make()
    program = f.program if isinstance(f, DiaProg) else Star(Give("1", "p0", "2"))
    errors = []
    for whole_shape in (semantics._WHOLE_SHAPE, OFF):
        monkeypatch.setattr(semantics, "_WHOLE_SHAPE", whole_shape)
        for query in (lambda: valid(f, sig), lambda: normal_form(f, sig),
                      lambda: equivalent(TOP, f, sig), lambda: semantics.evaluate(m, f),
                      lambda: semantics.program_image(m, program)):
            try:
                query()
                errors.append(None)
            except SignatureError as err:
                errors.append(str(err))
    half = len(errors) // 2
    assert errors[:half] == errors[half:]
    assert errors[0].startswith("outside the signature: ")


@pytest.mark.parametrize("f", [Or(TOP, 3), Or(Atom("zz"), 3), Dia({"1"}, Or(3, Atom("p0")))])
def test_objects_that_are_no_node_are_refused_alike(monkeypatch, f):
    sig = signature(2, 2)
    m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation(sig, 0))
    errors = []
    for whole_shape in (semantics._WHOLE_SHAPE, OFF):
        monkeypatch.setattr(semantics, "_WHOLE_SHAPE", whole_shape)
        for query in (lambda: valid(f, sig), lambda: semantics.evaluate(m, f)):
            with pytest.raises(TypeError) as err:
                query()
            errors.append(str(err.value))
    assert errors == [errors[0]] * 4 and errors[0] == "not a formula or program: 3"
