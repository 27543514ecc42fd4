"""Negation-heavy input on every table path, against the possible-worlds evaluator.

A negation gets no table of its own: whatever reads it reads the table of
its base, the first node below its run of negations that is not one,
complemented if the run is odd.  Each test here runs on the three table
paths: the signature's whole layout, the cut and model layouts
(``_WHOLE_SHAPE`` off), and the large path (``_DROP_BITS`` at 0 too, so
``_spent`` drops every base table once its last reader is built).
"""

import random
import time

import pytest

from helpers import kripke_depth, models_of, random_formula, random_program
from propctl import kripke, semantics
from propctl.control import characterize_second_order, grand_coalition_control
from propctl.decision import counterexample, satisfiable, valid
from propctl.model import Signature
from propctl.normalform import equivalent, normal_form
from propctl.syntax import (Choice, Dia, DiaProg, Formula, Not, Or, Seq, Star, Test, box,
                            box_prog, conj, parse_formula, parse_program, second_order_controls)

SIGS = [Signature(("1", "2"), ("p", "q")), Signature(("1", "2"), ("p", "q", "r")),
        Signature(("1", "2", "3"), ("p", "q"))]


@pytest.fixture(params=["whole", "cut", "large"])
def dropped(request, monkeypatch):
    """The table path under test; on the large one, what each ``_spent`` call drops."""
    out = []
    if request.param != "whole":
        monkeypatch.setattr(semantics, "_WHOLE_SHAPE", (0, 0))
    if request.param == "large":
        monkeypatch.setattr(semantics, "_DROP_BITS", 0)
        real = semantics._spent

        def recording(nodes, roots):
            spent = real(nodes, roots)
            # tables are dropped where one is built, and a negation has none to drop
            assert all(pos == len(nodes) or type(nodes[pos]) is not Not for pos in spent)
            assert {id(n) for n in nodes if type(n) is Not}.isdisjoint(
                key for keys in spent.values() for key in keys)
            out.append(spent)
            return spent

        monkeypatch.setattr(semantics, "_spent", recording)
    semantics._cut.cache_clear()  # cached layouts hold their size class
    yield out
    semantics._cut.cache_clear()
    assert request.param != "large" or any(any(spent.values()) for spent in out)


def negated(rng: random.Random, node):
    """The node with a run of zero to three negations over each formula
    node, and now and then a formula ``x`` read twice, as ``x & ~~x``."""
    kind = type(node)
    if kind is Not:
        node = Not(negated(rng, node.body))
    elif kind is Or:
        node = Or(negated(rng, node.left), negated(rng, node.right))
    elif kind is Dia:
        node = Dia(node.coalition, negated(rng, node.body))
    elif kind is DiaProg:
        node = DiaProg(negated(rng, node.program), negated(rng, node.body))
    elif kind is Seq:
        node = Seq(negated(rng, node.first), negated(rng, node.second))
    elif kind is Choice:
        node = Choice(negated(rng, node.left), negated(rng, node.right))
    elif kind is Star:
        node = Star(negated(rng, node.body))
    elif kind is Test:
        node = Test(negated(rng, node.condition))
    if isinstance(node, Formula):
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            node = Not(node)
        if rng.random() < 0.2:
            node = conj(node, Not(Not(node)))
    return node


def truth(f, sig) -> list[bool]:
    """The formula's truth at every model of the signature, by the oracle."""
    return [kripke.evaluate(kripke.pointed_of(m), f) for m in models_of(sig)]


def image(m, p) -> list:
    return sorted(kripke._pointed_image(kripke.pointed_of(m), p), key=lambda pm: pm.alloc.index())


def test_negation_roots_agree_with_kripke(dropped):
    # counterexample tables Not(f); characterize_second_order tables dia{a} ~f
    rng = random.Random(20)
    for sig in SIGS:
        models = models_of(sig)
        for _ in range(6):
            f = negated(rng, random_formula(rng, sig, 3))
            expected = truth(f, sig)
            assert counterexample(f, sig) == next(
                (m for m, holds in zip(models, expected) if not holds), None)
            assert satisfiable(Not(Not(Not(f))), sig) == counterexample(f, sig)
            assert valid(Not(f), sig) == (not any(expected))
            for m, holds in zip(models, expected):
                assert semantics.evaluate(m, Not(f)) is not holds
                assert semantics.evaluate(m, Not(Not(f))) is holds
            for m in rng.sample(models, 4):
                agent = rng.choice(sig.agents)
                goal = second_order_controls(agent, f, sig)
                assert characterize_second_order(sig, m.alloc, m.val, agent, f) == kripke.evaluate(
                    kripke.pointed_of(m), goal)


def test_negated_tests_under_stars_agree_with_kripke(dropped):
    # while, if and repeat test a negated condition; so does a random star
    rng = random.Random(21)
    for sig in SIGS:
        programs = [parse_program(text, sig) for text in (
            "while ~~p do give(1,p,2)",
            "while ~(p & dia{2} ~q) do (give(1,q,2) + give(2,p,1))",
            "if ~(p & q) then give(1,q,2) else (~~~q)?",
            "repeat give(2,p,1) + give(1,q,2) until ~dia{1} ~p")]
        for _ in range(3):
            body = negated(rng, random_program(rng, sig, 2))
            cond = negated(rng, random_formula(rng, sig, 2))
            programs.append(Star(Seq(Test(Not(cond)), body)))
        goal = negated(rng, random_formula(rng, sig, 1))
        for p in programs:
            for f in (DiaProg(p, goal), box_prog(p, Not(goal))):
                rows = normal_form(f, sig).rows
                assert [bool(rows[m.alloc.index()] >> m.val.bits & 1)
                        for m in models_of(sig)] == truth(f, sig)
                for m in rng.sample(models_of(sig), 6):
                    assert semantics.evaluate(m, f) == kripke.evaluate(kripke.pointed_of(m), f)
            for m in rng.sample(models_of(sig), 4):
                assert [kripke.pointed_of(r) for r in semantics.program_image(m, p)] == image(m, p)
                assert semantics.star_depth(m, p) == kripke_depth(kripke.pointed_of(m), p)


def test_diamonds_of_negations_boxes_and_several_roots_agree_with_kripke(dropped):
    # dia{C} ~f, boxes over coalitions and programs, and equivalent's two roots
    rng = random.Random(22)
    for sig in SIGS:
        for _ in range(5):
            f = negated(rng, random_formula(rng, sig, 2))
            g = negated(rng, random_formula(rng, sig, 2))
            c = frozenset(rng.sample(sig.agents, rng.randrange(len(sig.agents) + 1)))
            p = negated(rng, random_program(rng, sig, 2))
            for h in (Dia(c, Not(f)), Dia(c, Not(Not(Not(g)))), box(c, Not(f)),
                      box_prog(p, Not(Not(g))), Or(Not(f), Dia(c, Not(f)))):
                expected = truth(h, sig)
                assert valid(h, sig) == all(expected)
                assert grand_coalition_control(h, sig) == all(
                    any(expected[i:i + (1 << len(sig.vars))]) and not all(
                        expected[i:i + (1 << len(sig.vars))])
                    for i in range(0, len(expected), 1 << len(sig.vars)))
                for m, holds in zip(models_of(sig), expected):
                    assert semantics.evaluate(m, h) is holds
            assert equivalent(f, Not(Not(f)), sig)
            assert not equivalent(f, Not(f), sig)
            assert equivalent(Not(f), Not(g), sig) == (truth(f, sig) == truth(g, sig))
            assert equivalent(Dia(c, Not(f)), Not(box(c, f)), sig)


def test_long_negation_runs_are_read_in_linear_time(dropped):
    # every reader follows the run below it, so each run is walked a few
    # times, not once per negation in it
    sig = SIGS[0]
    long = parse_formula(" <-> ".join(["~" * 3000 + "p", "~" * 3001 + "q"] * 4), sig)
    short = parse_formula(" <-> ".join(["p", "~q"] * 4), sig)
    start = time.perf_counter()
    answers = (valid(long, sig), normal_form(long, sig).rows, equivalent(long, short, sig),
               [semantics.evaluate(m, long) for m in models_of(sig)])
    took = time.perf_counter() - start
    assert answers == (valid(short, sig), normal_form(short, sig).rows, True,
                       truth(short, sig))
    assert took < 5.0
