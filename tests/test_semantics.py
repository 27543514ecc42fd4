import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from propctl import semantics
from propctl.model import (
    Allocation,
    DirectModel,
    Signature,
    SignatureError,
    Valuation,
    atomic_transfer,
)
from propctl.semantics import evaluate, in_relation, program_image, star_depth
from propctl.syntax import (
    Atom,
    Choice,
    Dia,
    DiaProg,
    Formula,
    Give,
    Not,
    Or,
    Seq,
    Star,
    Test,
    TOP,
    box_prog,
    give_program,
    parse_formula,
    parse_program,
    postorder,
)

from helpers import models_of, random_formula, random_program, sample_model

SIG22 = Signature(("1", "2"), ("p", "q"))


# --- worked examples on the sample model -----------------------------------

def test_coalition_can_reach_mixed_assignment():
    assert evaluate(sample_model(), parse_formula("dia{1,2}(p & r & ~q)"))


def test_outsider_cannot_touch_foreign_variable():
    assert evaluate(sample_model(), parse_formula("box{1}(~r)"))


def test_after_either_handover_receiver_gains_ability():
    f = parse_formula("[give(1,p,2) + give(1,q,2)] dia{2}((p | q) & r)")
    assert evaluate(sample_model(), f)


def test_unexecutable_transfer_has_no_run():
    assert not evaluate(sample_model(), parse_formula("<give(1,r,2)>true"))


def test_empty_coalition_diamond_is_identity():
    from propctl.syntax import Dia

    rng = random.Random(11)
    for _ in range(25):
        f = random_formula(rng, SIG22, 2)
        for m in models_of(SIG22):
            assert evaluate(m, Dia(frozenset(), f)) == evaluate(m, f)


def test_conjunction_control_via_lucky_outside_value():
    # Variable z is true and owned by agent 2: agent 1 controls (p & z)
    # by toggling p, yet does not control z.
    from propctl.syntax import parse_model

    m = parse_model("agents: 1 2\nvars: p z\nowns 1: p\nowns 2: z\ntrue: z\n")
    assert evaluate(m, parse_formula("controls(1, p & z)"))
    assert not evaluate(m, parse_formula("controls(1, z)"))


# --- program images ---------------------------------------------------------

def test_image_of_choice_between_handovers():
    m = sample_model()
    image = program_image(m, parse_program("give(1,p,2) + give(1,q,2)"))
    partitions = {tuple(sorted(mm.alloc.owned_by("1"))) for mm in image}
    assert partitions == {("q",), ("p",)}
    assert all(mm.val == m.val for mm in image)
    assert len(image) == 2


def test_image_of_guarded_handover():
    m = sample_model()
    image = program_image(m, parse_program("(p)?; give(1,p,2)"))
    assert image == [atomic_transfer(m, "1", "p", "2")]


def test_image_of_skip_star_is_identity():
    for m in models_of(SIG22):
        assert program_image(m, parse_program("skip*")) == [m]


def test_image_of_give_star_matches_atomic_closure():
    # Oracle: closure under single atomic handovers by agent 1, computed
    # directly on models without the program machinery.
    m = sample_model()
    sig = m.sig
    frontier = [m]
    closure = {m}
    while frontier:
        nxt = []
        for cur in frontier:
            for p in sig.vars:
                for j in sig.agents:
                    if cur.alloc.owner(p) == "1":
                        moved = atomic_transfer(cur, "1", p, j)
                        if moved is not None and moved not in closure:
                            closure.add(moved)
                            nxt.append(moved)
        frontier = nxt
    prog = Star(give_program({"1"}, sig.agents, sig))
    assert set(program_image(m, prog)) == closure
    assert all(mm.val == m.val for mm in closure)


def test_in_relation_golden():
    m = sample_model()
    moved = atomic_transfer(m, "1", "p", "2")
    assert in_relation(m, moved, parse_program("give(1,p,2)"))
    assert not in_relation(m, m, parse_program("give(1,r,2)"))


def test_star_relation_is_reflexive():
    rng = random.Random(5)
    for m in models_of(SIG22)[:4]:
        for _ in range(10):
            prog = random_program(rng, SIG22, 2)
            assert in_relation(m, m, Star(prog))


def test_in_relation_rejects_mismatched_signatures():
    other = Signature(("1", "2"), ("p", "q", "z"))
    with pytest.raises(SignatureError):
        in_relation(sample_model(), next(iter(models_of(other))), Test(TOP))


# --- semantic properties ----------------------------------------------------

def test_images_never_change_the_valuation():
    rng = random.Random(23)
    for _ in range(60):
        prog = random_program(rng, SIG22, 3)
        for m in models_of(SIG22):
            for reached in program_image(m, prog):
                assert reached.val == m.val


def test_owned_handover_is_functional():
    for m in models_of(SIG22):
        for p in SIG22.vars:
            i = m.alloc.owner(p)
            for j in SIG22.agents:
                assert len(program_image(m, Give(i, p, j))) == 1


def test_unowned_handover_is_empty():
    for m in models_of(SIG22):
        for p in SIG22.vars:
            for i in SIG22.agents:
                for j in SIG22.agents:
                    image = program_image(m, Give(i, p, j))
                    assert (image == []) == (m.alloc.owner(p) != i)


def test_star_fixpoint_depth_is_bounded_by_allocation_count():
    rng = random.Random(31)
    bound = len(SIG22.agents) ** len(SIG22.vars)
    for _ in range(60):
        prog = random_program(rng, SIG22, 3)
        for m in models_of(SIG22)[:4]:
            assert star_depth(m, prog) <= bound


def test_star_box_equals_bounded_conjunction():
    rng = random.Random(37)
    for _ in range(40):
        prog = random_program(rng, SIG22, 2)
        body = random_formula(rng, SIG22, 2)
        for m in models_of(SIG22)[:4]:
            depth = star_depth(m, prog)
            expected = evaluate(m, body)
            boxed = body
            for _ in range(depth):
                boxed = box_prog(prog, boxed)
                expected = expected and evaluate(m, boxed)
            assert evaluate(m, box_prog(Star(prog), body)) == expected


_sig_agents = st.sampled_from(SIG22.agents)
_sig_vars = st.sampled_from(SIG22.vars)
_sig_formulas = st.deferred(
    lambda: st.one_of(
        st.just(TOP),
        st.builds(Atom, _sig_vars),
        st.builds(Not, _sig_formulas),
        st.builds(Or, _sig_formulas, _sig_formulas),
        st.builds(Dia, st.frozensets(_sig_agents, max_size=2), _sig_formulas),
        st.builds(DiaProg, _sig_programs, _sig_formulas),
    )
)
_sig_programs = st.deferred(
    lambda: st.one_of(
        st.builds(Give, _sig_agents, _sig_vars, _sig_agents),
        st.builds(Seq, _sig_programs, _sig_programs),
        st.builds(Choice, _sig_programs, _sig_programs),
        st.builds(Star, _sig_programs),
        st.builds(Test, _sig_formulas),
    )
)


@settings(max_examples=150, deadline=None)
@given(_sig_programs, st.integers(min_value=0, max_value=15))
def test_property_images_fix_valuations(prog, which):
    m = models_of(SIG22)[which]
    for reached in program_image(m, prog):
        assert reached.val == m.val
        assert reached.sig == m.sig


@settings(max_examples=100, deadline=None)
@given(_sig_programs, _sig_formulas, st.integers(min_value=0, max_value=15))
def test_property_box_diamond_duality(prog, body, which):
    m = models_of(SIG22)[which]
    image = program_image(m, prog)
    exists = evaluate(m, DiaProg(prog, body))
    forall = evaluate(m, box_prog(prog, body))
    assert exists == any(evaluate(r, body) for r in image)
    assert forall == all(evaluate(r, body) for r in image)


def test_out_of_signature_identifier_is_error():
    with pytest.raises(SignatureError):
        evaluate(sample_model(), Atom("zz"))
    with pytest.raises(SignatureError):
        program_image(sample_model(), Give("1", "zz", "2"))


def test_evaluation_matches_sugarfree_construction():
    # the "if" sugar runs exactly one branch per model
    m = sample_model()
    prog = parse_program("if p then give(1,p,2) else give(1,q,2)")
    image = program_image(m, prog)
    assert image == [atomic_transfer(m, "1", "p", "2")]
    flipped = parse_program("if ~p then give(1,p,2) else give(1,q,2)")
    assert program_image(m, flipped) == [atomic_transfer(m, "1", "q", "2")]


def test_shared_subformulas_are_tabled_once(monkeypatch):
    # <-> uses each operand twice: 2**17 root-to-leaf paths over 154 formula nodes
    sig = Signature(("1",), tuple(f"p{i}" for i in range(18)))
    chain = parse_formula(" <-> ".join(f"p{i}" for i in range(18)))
    m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation(sig, (1 << 18) - 1))
    built = []
    real = semantics._Tables.build

    def counting(self, f):
        built.append(f)
        return real(self, f)

    monkeypatch.setattr(semantics._Tables, "build", counting)
    assert evaluate(m, chain)
    formulas = [node for node in postorder(chain) if isinstance(node, Formula)]
    assert len(formulas) < 200
    assert len(built) == len(formulas)


def test_single_model_rows_cover_only_what_diamonds_can_flip():
    # 40 variables: a row over every valuation would take 2**40 bits
    sig = Signature(("1", "2"), tuple(f"p{i}" for i in range(40)))
    m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation.from_true_vars(sig, ["p0", "p39"]))
    step = parse_program("give(1,p0,2) + give(1,p1,2)", sig)
    tracemalloc.start()
    try:
        assert evaluate(m, parse_formula("p0 & p39 & dia{1}(~p0 & p1) & ~dia{2}(~p39)", sig))
        assert evaluate(m, parse_formula("<give(1,p1,2)*> dia{2} p1", sig))
        assert program_image(m, step) == [atomic_transfer(m, "1", "p0", "2"),
                                          atomic_transfer(m, "1", "p1", "2")]
        assert star_depth(m, step) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_large_tables_are_dropped_without_changing_answers():
    # 256 allocations of 256 valuations: large enough that spent tables are
    # dropped, both over the signature and at a model whose handovers reach
    # every allocation
    sig = Signature(("1", "2"), tuple(f"p{i}" for i in range(8)))
    rng = random.Random(8)
    for _ in range(6):
        f = DiaProg(Star(give_program({"1"}, sig.agents, sig)), random_formula(rng, sig, 3))
        rows = semantics.truth_rows(f, sig)
        for bits in rng.sample(range(256), 3):
            m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation(sig, bits))
            assert evaluate(m, f) == bool(rows[0] >> bits & 1)


def test_long_program_chains_are_answered():
    # 1,000 steps, arms or stars: walked in loops, not a frame per link
    m = sample_model()
    skips = parse_formula("<" + "; ".join(["skip"] * 1000) + ">true", m.sig)
    assert evaluate(m, skips)
    assert semantics.truth_rows(skips, m.sig) == semantics.truth_rows(TOP, m.sig)
    assert program_image(m, skips.program) == [m]
    give = Give("1", "p", "2")
    for text, same in (("; ".join(["skip"] * 999 + ["give(1,p,2)"]), give),
                       (" + ".join(["fail"] * 999 + ["give(1,p,2)"]), give),
                       ("give(1,p,2)" + "*" * 1000, Star(give))):
        program = parse_program(text, m.sig)
        assert program_image(m, program) == program_image(m, same)
        assert star_depth(m, program) == star_depth(m, same)
        assert (semantics.truth_rows(DiaProg(program, Atom("p")), m.sig)
                == semantics.truth_rows(DiaProg(same, Atom("p")), m.sig))
