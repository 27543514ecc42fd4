import random

import pytest

from propctl import semantics
from propctl.kripke import PointedKripkeModel, evaluate, pointed_of
from propctl.model import Allocation, Signature, SignatureError, Valuation
from propctl.syntax import TOP, Atom, DiaProg, Give, conj, parse_formula

from helpers import (cross_check, kripke_depth, models_of, naming_everything, random_formula,
                     random_program, sample_model)

SIG22 = Signature(("1", "2"), ("p", "q"))


def test_sample_model_agrees_on_box():
    pm = pointed_of(sample_model())
    assert evaluate(pm, parse_formula("box{1}(~r)"))


def test_top_holds_everywhere():
    for m in models_of(SIG22):
        assert evaluate(pointed_of(m), TOP)


def test_both_semantics_agree_on_random_formulas():
    rng = random.Random(101)
    for _ in range(200):
        f = random_formula(rng, SIG22, 3)
        for m in models_of(SIG22):
            assert semantics.evaluate(m, f) == evaluate(pointed_of(m), f)


def test_cross_check_on_scheme_instances():
    instances = [
        "box{}(p) <-> p",
        "box{1}box{2}(p | q) <-> box{1,2}(p | q)",
        "controls(1,p) <-> <give(1,p,2)>true",
        "controls(1,p) -> <give(1,p,2)>controls(2,p)",
    ]
    for text in instances:
        assert cross_check(SIG22, parse_formula(text))


def test_cross_check_single_atom_tiny_signature():
    sig = Signature(("1",), ("p",))
    assert cross_check(sig, parse_formula("p"))


def test_cross_check_control_is_transferability_one_var():
    sig = Signature(("i", "j"), ("p",))
    assert cross_check(sig, parse_formula("controls(i,p) <-> <give(i,p,j)>true"))


def test_vertical_moves_fix_the_world():
    from propctl.kripke import _pointed_image

    rng = random.Random(19)
    for _ in range(50):
        prog = random_program(rng, SIG22, 3)
        for m in models_of(SIG22)[:6]:
            pm = pointed_of(m)
            for reached in _pointed_image(pm, prog):
                assert reached.world == pm.world


def test_coalition_clause_uses_union_of_variables():
    # With both variables split between the two agents, the pair coalition
    # must reach every valuation, which the union reading gives.
    sig = SIG22
    f = parse_formula("dia{1,2}(p & q)")
    for m in models_of(sig):
        assert evaluate(pointed_of(m), f)


def test_exhaustive_agreement_small_signatures():
    rng = random.Random(7)
    for agents, variables in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]:
        sig = Signature(tuple(str(i) for i in range(1, agents + 1)),
                        tuple(f"v{i}" for i in range(variables)))
        for _ in range(30):
            assert cross_check(sig, random_formula(rng, sig, 3))
    # rows 16 bits wide: a formula naming every agent and variable is not cut;
    # conjoined, that valid part leaves the answer to the random formula
    sig = Signature(("1", "2"), ("v0", "v1", "v2", "v3"))
    for _ in range(6):
        assert cross_check(sig, conj(random_formula(rng, sig, 3), naming_everything(sig)))


def test_program_images_agree_small_signatures():
    from propctl.kripke import _pointed_image

    rng = random.Random(43)
    for agents, variables in [(2, 2), (3, 2), (2, 3)]:
        sig = Signature(tuple(str(i) for i in range(1, agents + 1)),
                        tuple(f"v{i}" for i in range(variables)))
        models = models_of(sig)
        for _ in range(30):
            prog = random_program(rng, sig, 3)
            for m in rng.sample(models, 3):
                image = [pointed_of(r) for r in semantics.program_image(m, prog)]
                expected = sorted(_pointed_image(pointed_of(m), prog),
                                  key=lambda pm: pm.alloc.index())
                assert image == expected
                assert semantics.star_depth(m, prog) == kripke_depth(pointed_of(m), prog)


def test_pointed_model_refuses_parts_over_another_signature():
    m, other = sample_model(), Signature(("1",), ("p",))
    for alloc, world in ((Allocation(other, (0,)), m.val), (m.alloc, Valuation(other, 0))):
        with pytest.raises(SignatureError, match="disagree on the signature"):
            PointedKripkeModel(m.sig, alloc, world)


def test_a_node_of_the_other_sort_is_refused():
    pointed = pointed_of(sample_model())
    with pytest.raises(TypeError, match="not a core formula"):
        evaluate(pointed, Give("1", "p", "2"))
    with pytest.raises(TypeError, match="not a core program"):
        evaluate(pointed, DiaProg(Atom("p"), TOP))
