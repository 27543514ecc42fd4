"""Answers decided in a formula's cut layout, over the part of the
signature it names and lifted to the rest, equal those of the walk over the
whole signature.

The reference walk gives ``semantics`` the cut layout that names every
variable and agent of the signature, so that nothing is cut and every table
is built over all of its allocations.  The whole layout that small
signatures use by default is turned off, so the cut layouts are tested.
"""

import random

import pytest

from helpers import random_formula
from propctl import semantics
from propctl.axioms import formula_pool
from propctl.control import characterize_second_order, grand_coalition_control
from propctl.decision import counterexample, satisfiable, valid
from propctl.kripke import cross_check
from propctl.model import Allocation, Signature, enumerate_allocations, enumerate_models
from propctl.normalform import equivalent, normal_form
from propctl.syntax import parse_formula, render


@pytest.fixture(autouse=True)
def cut_layouts(monkeypatch):
    """Every signature here but 3x9 is small enough for the whole layout,
    which would serve both sides; turned off, the cut is what is tested."""
    monkeypatch.setattr(semantics, "_WHOLE_SHAPE", (0, 0))


def whole_signature(monkeypatch):
    cut = semantics._cut
    monkeypatch.setattr(semantics, "_cut", lambda sig, props, agents: cut(
        sig, frozenset(sig.vars), frozenset(sig.agents)))


def signature(agents: int, variables: int) -> Signature:
    return Signature(tuple(str(i + 1) for i in range(agents)),
                     tuple(f"p{j}" for j in range(variables)))


def answers(formulas, sig, models):
    """Per formula: validity, the first witness, equivalence with the next
    formula, the normal form's rows, grand-coalition control and second-order
    control of each agent at each of the models."""
    return [(valid(f, sig), satisfiable(f, sig), equivalent(f, g, sig), normal_form(f, sig).rows,
             grand_coalition_control(f, sig),
             [characterize_second_order(sig, m.alloc, m.val, a, f)
              for m in models for a in sig.agents])
            for f, g in zip(formulas, formulas[1:] + formulas[:1])]


def assert_agree(monkeypatch, formulas, sig, models):
    reduced = answers(formulas, sig, models)
    with monkeypatch.context() as patch:
        whole_signature(patch)
        whole = answers(formulas, sig, models)
    for f, mine, theirs in zip(formulas, reduced, whole):
        assert mine == theirs, render(f)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
def test_formula_pool_agrees_with_the_whole_signature(monkeypatch, shape):
    sig = signature(*shape)
    formulas = list(formula_pool(sig, 10**6, depth=3))
    models = random.Random(len(formulas)).sample(list(enumerate_models(sig)), 2)
    assert_agree(monkeypatch, formulas, sig, models)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_random_formulas_agree_with_the_whole_signature(monkeypatch, shape):
    rng = random.Random(sum(shape))
    sig = signature(*shape)
    formulas = []
    for _ in range(60):  # each over a random part of the signature, so that some is cut
        part = Signature(tuple(rng.sample(sig.agents, rng.randint(1, len(sig.agents)))),
                         tuple(rng.sample(sig.vars, rng.randint(1, len(sig.vars)))))
        formulas.append(random_formula(rng, part, 3))
    models = rng.sample(list(enumerate_models(sig)), 2)
    assert_agree(monkeypatch, formulas, sig, models)
    for f in formulas[:4]:
        assert cross_check(sig, f), render(f)


@pytest.mark.parametrize("agents, variables, text", [
    (("1", "2", "3"), ("p", "q"), "~controls(1, p) & <give(1,q,1)>q"),  # the class is agent 2
    (("1", "2", "3"), ("p", "q"), "dia{1}(q & ~p) & ~q"),
    (("a", "b"), ("p", "q", "r"), "r & ~controls(b, r)"),  # p and q sort below r
    (("1", "2", "3"), ("p", "q"), "dia{1}true"),  # names no variable
    (("1", "2", "3"), ("p", "q"), "~dia{}(q | ~p)"),  # names no agent
    (("1", "2", "3"), ("p", "q"), "false"),
    (("a",), ("p", "q", "r"), "controls(a, q) & <give(a,q,a)>~q"),  # one agent
])
def test_first_witness_is_the_whole_signature_scan(monkeypatch, agents, variables, text):
    sig = Signature(agents, variables)
    f = parse_formula(text, sig)
    found = satisfiable(f, sig), counterexample(f, sig)
    with monkeypatch.context() as patch:
        whole_signature(patch)
        assert (satisfiable(f, sig), counterexample(f, sig)) == found


def test_class_agent_owns_like_the_lowest_unnamed_agent():
    sig = Signature(("1", "2", "3"), ("p", "q"))
    witness = satisfiable(parse_formula("~controls(1, p) & q", sig), sig)
    assert witness.alloc == Allocation.from_map(sig, {"p": "2", "q": "1"})
    assert witness.val.true_vars() == ("q",)


def test_tables_cover_only_the_named_part(monkeypatch):
    sizes = []
    build = semantics._Tables.__init__

    def counting(self, *args):
        build(self, *args)
        sizes.append(len(self.domain))

    monkeypatch.setattr(semantics._Tables, "__init__", counting)
    sig = signature(3, 9)
    f = parse_formula("dia{1}(p0 & <give(1,p1,2)*>controls(2,p1)) | ~p0", sig)
    assert not valid(f, sig)
    assert sizes == [9]


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_cut_positions_and_row_bits_map_to_the_signature_and_back(shape):
    rng = random.Random(10 * shape[0] + shape[1])
    sig = signature(*shape)
    names = [(sig.vars[:1], sig.agents[:1])]  # the first agent named, any others not
    for _ in range(6):
        names.append((rng.sample(sig.vars, rng.randint(0, len(sig.vars))),
                      rng.sample(sig.agents, rng.randint(0, len(sig.agents)))))
    for props, agents in names:
        layout = semantics._cut.__wrapped__(sig, frozenset(props), frozenset(agents))
        for a in layout.domain:
            for u in range(layout.width):
                assert layout.project(layout.allocation(a), layout.bits(u)) == (a, u)
        rest = min((i for i, a in enumerate(sig.agents) if a not in agents), default=None)
        first = {}  # per position, the first allocation projecting to it
        for alloc in enumerate_allocations(sig):
            a = layout.project(alloc, 0)[0]
            first.setdefault(a, alloc)
            # a named variable keeps a named owner and goes to the stand-in from any
            # other; an unnamed one goes to agent index 0
            assert layout.allocation(a).owners == tuple(
                (o if sig.agents[o] in agents else rest) if p in props else 0
                for p, o in zip(sig.vars, alloc.owners))
        assert [first[a] for a in layout.domain] == [layout.allocation(a) for a in layout.domain]
        rows = [rng.randrange(1 << layout.width) for _ in layout.domain]
        lifted = layout.lift(rows)
        assert len(lifted) == len(sig.agents) ** len(sig.vars)
        for alloc in enumerate_allocations(sig):
            for bits in range(1 << len(sig.vars)):
                a, u = layout.project(alloc, bits)
                assert lifted[alloc.index()] >> bits & 1 == rows[a] >> u & 1
