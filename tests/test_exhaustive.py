"""Every core formula and program of at most 5 nodes, over 2 agents x 1
variable and over 1 agent x 2 variables, and of at most 4 nodes over 2
agents x 2 variables, checked exhaustively.  The last scope is the one
with a star that needs a second round: over two allocations a star closes
in one.

The direct evaluator must agree with the possible-worlds one at every model
on each table path: the signature's whole layout, the cut and model
layouts (``_WHOLE_SHAPE`` off), and the large path (``_DROP_BITS`` at 0
too), as in ``test_negation.py``.  Every term must also parse back from
its rendering, every formula's normal form must rebuild an equivalent
formula, and the table characterization of second-order control must
agree with the formula that defines it, at every model and agent.
"""

import pytest

from helpers import models_of, small_terms
from propctl import kripke, semantics
from propctl.control import characterize_second_order
from propctl.model import Signature
from propctl.normalform import equivalent, nf_to_formula, normal_form
from propctl.syntax import parse_formula, parse_program, render, second_order_controls

# per signature and most nodes, the number of formulas and of programs
COUNTS = {(Signature(("1", "2"), ("p",)), 5): (3238, 1712),
          (Signature(("1",), ("p", "q")), 5): (1434, 676),
          (Signature(("1", "2"), ("p", "q")), 4): (909, 787)}


@pytest.fixture(scope="module")
def cases():
    """Per signature and most nodes: the models, the terms, and the
    oracle's truth of each formula and image of each program at each model."""
    out = []
    for sig, most in COUNTS:
        models = models_of(sig)
        formulas, programs = small_terms(sig, most)
        pointed = [kripke.pointed_of(m) for m in models]
        truths = [[kripke.evaluate(pm, f) for pm in pointed] for f in formulas]
        images = [[sorted(kripke._pointed_image(pm, p), key=lambda x: x.alloc.index())
                   for pm in pointed] for p in programs]
        out.append((sig, most, models, formulas, programs, truths, images))
    return out


def test_term_counts_are_pinned(cases):
    assert {(sig, most): (len(formulas), len(programs))
            for sig, most, _, formulas, programs, _, _ in cases} == COUNTS


@pytest.mark.parametrize("path", ["whole", "cut", "large"])
def test_direct_evaluation_and_images_agree_with_kripke(cases, path, monkeypatch):
    if path != "whole":
        monkeypatch.setattr(semantics, "_WHOLE_SHAPE", (0, 0))
    if path == "large":
        monkeypatch.setattr(semantics, "_DROP_BITS", 0)
    semantics._cut.cache_clear()  # cached layouts hold their size class
    try:
        for _, _, models, formulas, programs, truths, images in cases:
            for f, truth in zip(formulas, truths):
                assert [semantics.evaluate(m, f) for m in models] == truth, render(f)
            for p, image in zip(programs, images):
                assert [[kripke.pointed_of(r) for r in semantics.program_image(m, p)]
                        for m in models] == image, render(p)
    finally:
        semantics._cut.cache_clear()


def test_every_term_parses_back_from_its_rendering(cases):
    for sig, _, _, formulas, programs, _, _ in cases:
        assert [parse_formula(render(f), sig) for f in formulas] == formulas
        assert [parse_program(render(p), sig) for p in programs] == programs


def test_normal_forms_rebuild_equivalent_formulas(cases):
    for sig, _, _, formulas, _, _, _ in cases:
        for f in formulas:
            assert equivalent(f, nf_to_formula(normal_form(f, sig)), sig), render(f)


def test_second_order_characterization_agrees_with_its_definition(cases):
    for sig, _, models, formulas, _, _, _ in cases:
        for f in formulas:
            for agent in sig.agents:
                goal = second_order_controls(agent, f, sig)
                assert [characterize_second_order(sig, m.alloc, m.val, agent, f)
                        for m in models] == [semantics.evaluate(m, goal) for m in models], \
                    (agent, render(f))
