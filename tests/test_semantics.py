import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from propctl import kripke, semantics
from propctl.control import grand_coalition_control
from propctl.decision import satisfiable, valid
from propctl.model import (
    Allocation,
    DirectModel,
    Signature,
    SignatureError,
    Valuation,
    atomic_transfer,
)
from propctl.normalform import equivalent, normal_form
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
    choice_all,
    conj,
    controls,
    give_program,
    parse_formula,
    parse_program,
    postorder,
    second_order_controls,
)

from helpers import (kripke_depth, models_of, naming_everything, random_formula, random_program,
                     sample_model)

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


def test_large_diamonds_hold_one_variables_masks_at_a_time():
    # 3x8: 6,561 positions of 256 bits, so a table is 205 KB.  The peak is
    # about 12 tables; holding the atom table and ownership mask of every
    # variable dia{1} flips, all at once, would take it to about 24.
    sig = Signature(("1", "2", "3"), tuple(f"p{j}" for j in range(8)))
    f = parse_formula("dia{1}(" + " & ".join(sig.vars) + ") | dia{2,3} ~p0", sig)
    semantics._cut.cache_clear()
    tracemalloc.start()
    try:
        tables = semantics._Tables(sig, [f])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables.large and not tables.layout.masks
    assert peak < 16 * len(tables.domain) * tables.width // 8
    assert semantics.truth_rows(f, sig)[0] == (1 << 256) - 1  # 1 owns every variable


def test_large_tables_are_dropped_without_changing_answers():
    # 256 allocations of 256 valuations: large enough that spent tables are
    # dropped, both over the signature and at a model whose handovers reach
    # every allocation.  The body names every variable under a diamond, so
    # rows at the model are full width; conjoined, that valid part leaves
    # the answer to the random formula.  The same body as a test after each
    # handover of a star gives forward images over a large table.
    sig = Signature(("1", "2"), tuple(f"p{i}" for i in range(8)))
    rng = random.Random(8)
    for _ in range(6):
        body = conj(random_formula(rng, sig, 3), naming_everything(sig))
        f = DiaProg(Star(give_program({"1"}, sig.agents, sig)), body)
        rows = semantics.truth_rows(f, sig)
        assert semantics._Tables(sig, [f]).large
        for bits in rng.sample(range(256), 3):
            m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation(sig, bits))
            assert semantics._Tables(sig, [f], m).large
            assert evaluate(m, f) == bool(rows[0] >> bits & 1)
    step = Seq(give_program({"1"}, sig.agents, sig), Test(body))
    for bits in rng.sample(range(256), 2):
        m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation(sig, bits))
        assert semantics._Tables(sig, [Star(step)], m).large
        pointed = kripke.pointed_of(m)
        assert [kripke.pointed_of(r) for r in program_image(m, Star(step))] == sorted(
            kripke._pointed_image(pointed, Star(step)), key=lambda pm: pm.alloc.index())
        # the step's depth, since a star's own is at most 1
        assert star_depth(m, step) == kripke_depth(pointed, step)


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


# --- the packed layout: row widths, the drop threshold, the product domain --

@pytest.mark.parametrize("text, width", [
    ("p & <give(1,q,2)>~s", 1),  # no diamond: nothing is free
    ("dia{2} r & q", 2),  # 2 never owns q
    ("dia{1}(p & ~q) & r", 4),
    ("<give(2,r,1)> dia{1}(p & ~q & r)", 8),  # 1 can own r after the handover
    ("dia{1,2}(p & q & ~r & s)", 16),
])
def test_rows_of_each_width_agree_with_kripke_at_every_model(text, width, monkeypatch):
    monkeypatch.setattr(semantics, "_WHOLE_SHAPE", (0, 0))  # the model's own layout, not the whole one
    sig = Signature(("1", "2"), ("p", "q", "r", "s"))
    f = parse_formula(text, sig)
    here = DirectModel(sig, Allocation.from_map(sig, {"p": "1", "q": "1", "r": "2", "s": "2"}),
                       Valuation.from_true_vars(sig, ["p", "r"]))
    assert semantics._Tables(sig, [f], here).width == width
    for m in models_of(sig):
        assert evaluate(m, f) == kripke.evaluate(kripke.pointed_of(m), f), m


def test_giveall_rows_are_as_wide_as_the_body_reads():
    # agent 1 owns every variable and can pass each to 2 or 3: the domain
    # is 3**6 positions, and a row is over p0 and p1 alone
    sig = Signature(("1", "2", "3"), tuple(f"p{j}" for j in range(6)))
    m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation.from_true_vars(sig, ["p0"]))
    f = parse_formula("CONTROLS(1, p0 & p1)", sig)
    tables = semantics._Tables(sig, [f], m)
    assert (len(tables.domain), tables.width) == (3 ** 6, 4)
    assert evaluate(m, f)


@pytest.mark.parametrize("agents, variables, large", [(2, 7, False), (3, 6, True)])
def test_tables_on_either_side_of_the_drop_threshold_agree_with_kripke(agents, variables, large):
    sig = Signature(tuple(str(i + 1) for i in range(agents)),
                    tuple(f"p{j}" for j in range(variables)))
    rng = random.Random(agents * variables)
    for _ in range(3):
        f = conj(random_formula(rng, sig, 2), naming_everything(sig))
        tables = semantics._Tables(sig, [f])
        assert tables.large == large
        assert (len(tables.domain) * tables.width > semantics._DROP_BITS) == large
        rows = semantics.truth_rows(f, sig)
        for _ in range(30):
            alloc = Allocation.from_index(sig, rng.randrange(len(rows)))
            val = Valuation(sig, rng.randrange(1 << variables))
            pointed = kripke.PointedKripkeModel(sig, alloc, val)
            assert bool(rows[alloc.index()] >> val.bits & 1) == kripke.evaluate(pointed, f)
            assert evaluate(DirectModel(sig, alloc, val), f) == kripke.evaluate(pointed, f)


def test_layouts_kept_with_the_reduction_answer_as_fresh_ones(monkeypatch):
    # A model-free table's layout is made once per cached cut, with a
    # small table's atom and ownership masks, diamond flips and handover
    # steps; a large table keeps its masks for the query, and a table at a
    # model makes its own layout.  The signatures' whole layouts are off.
    monkeypatch.setattr(semantics, "_WHOLE_SHAPE", (0, 0))
    rng = random.Random(15)
    cases = []  # 2x2, 3x3 and one large table, interleaved
    for _ in range(3):
        for agents, variables in ((2, 2), (3, 3)):
            sig = Signature(tuple(str(i + 1) for i in range(agents)),
                            tuple(f"p{j}" for j in range(variables)))
            cases.append((random_formula(rng, sig, 3), random_formula(rng, sig, 3), sig))
    large = Signature(("1", "2", "3"), tuple(f"p{j}" for j in range(6)))
    f, g = (conj(random_formula(rng, large, 2), naming_everything(large)) for _ in range(2))
    f = DiaProg(Star(Give("1", "p0", "2")), f)  # its ownership mask is kept for the query
    cases.insert(3, (f, g, large))
    assert semantics._Tables(large, [f]).large
    small = []  # a diamond over every coalition, and handovers read backwards
    for agents, variables in ((2, 2), (3, 3)):
        sig = Signature(tuple(str(i + 1) for i in range(agents)),
                        tuple(f"p{j}" for j in range(variables)))
        small.append(sig)
        for bits in range(1 << agents):
            c = {a for i, a in enumerate(sig.agents) if bits >> i & 1}
            cases.append((Dia(c, random_formula(rng, sig, 2)), Dia(c, naming_everything(sig)),
                          sig))
        for giver in sig.agents:
            steps = [Give(giver, p, receiver) for p in sig.vars for receiver in sig.agents]
            for step in (*steps, Star(choice_all(steps))):
                cases.append((DiaProg(step, random_formula(rng, sig, 2)),
                              box_prog(step, naming_everything(sig)), sig))

    def answers(f, g, sig):
        return (valid(f, sig), satisfiable(f, sig), normal_form(f, sig).rows,
                equivalent(f, g, sig), grand_coalition_control(f, sig))

    cold = []
    for f, g, sig in cases:
        semantics._cut.cache_clear()
        cold.append(answers(f, g, sig))
    semantics._cut.cache_clear()
    kept = {}  # every cut layout a query reads, by identity
    real = semantics._cut

    def recording(*key):
        out = real(*key)
        kept[id(out)] = out
        return out

    monkeypatch.setattr(semantics, "_cut", recording)

    def entries():
        return sum(len(layout.masks) for layout in kept.values())

    for _ in range(2):  # the first pass fills the layouts, the second reads them warm
        for case, expected in zip(cases, cold):
            before = entries()
            assert answers(*case) == expected
            if case[2] is large:
                assert entries() == before
    assert real.cache_info().hits and entries()
    assert not any(layout.masks for layout in kept.values() if layout.large)

    def no_cut(*key):
        raise AssertionError("a query at a model read a cut layout")

    monkeypatch.setattr(semantics, "_cut", no_cut)
    before = entries()
    for f, _, sig in cases:
        alloc = Allocation.from_index(sig, rng.randrange(len(sig.agents) ** len(sig.vars)))
        m = DirectModel(sig, alloc, Valuation(sig, rng.randrange(1 << len(sig.vars))))
        pointed = kripke.pointed_of(m)
        assert evaluate(m, f) == kripke.evaluate(pointed, f)
        program = random_program(rng, sig, 2)
        assert [kripke.pointed_of(r) for r in program_image(m, program)] == sorted(
            kripke._pointed_image(pointed, program), key=lambda pm: pm.alloc.index())
    for sig in small:  # handovers read forwards, at every allocation
        valuation = Valuation(sig, rng.randrange(1 << len(sig.vars)))
        steps = [Give(i, p, j) for i in sig.agents for p in sig.vars for j in sig.agents]
        for a in range(len(sig.agents) ** len(sig.vars)):
            m = DirectModel(sig, Allocation.from_index(sig, a), valuation)
            pointed = kripke.pointed_of(m)
            for program in (*rng.sample(steps, 3), choice_all(steps),
                            Star(choice_all(steps[::2]))):
                assert [kripke.pointed_of(r) for r in program_image(m, program)] == sorted(
                    kripke._pointed_image(pointed, program), key=lambda pm: pm.alloc.index())
                assert star_depth(m, program) == kripke_depth(pointed, program)
    assert entries() == before


def test_tables_and_lifts_over_the_limit_are_refused(monkeypatch):
    # each size at the limit is built, and one bit over it is refused
    monkeypatch.setattr(semantics, "_WHOLE_SHAPE", (0, 0))  # the cut and the model's own layout
    sig = Signature(("1", "2", "3"), ("p", "q", "r"))
    f = parse_formula("<give(1,p,2) ; give(2,q,3)> dia{2}(p & ~q) | controls(3, r)", sig)
    m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation(sig, 5))
    for model in (None, m):
        tables = semantics._Tables(sig, [f], model)
        size = len(tables.domain) * tables.width
        for limit, fits in ((size, True), (size - 1, False)):
            monkeypatch.setattr(semantics, "_MAX_BITS", limit)
            semantics._cut.cache_clear()
            if fits:
                semantics._Tables(sig, [f], model)
            else:
                with pytest.raises(SignatureError, match="too large to tabulate"):
                    semantics._Tables(sig, [f], model)
    p = parse_formula("p", sig)  # its table is one row of 2 bits, its lift 27 rows of 8
    for limit, fits in ((27 * 8, True), (27 * 8 - 1, False)):
        monkeypatch.setattr(semantics, "_MAX_BITS", limit)
        semantics._cut.cache_clear()
        if fits:
            assert len(semantics.truth_rows(p, sig)) == 27
        else:
            with pytest.raises(SignatureError, match="too large to tabulate"):
                semantics.truth_rows(p, sig)
            assert not valid(p, sig)
    semantics._cut.cache_clear()


def test_product_positions_no_run_reaches_are_never_reported(monkeypatch):
    # p can pass to 2 and q to 3, so the domain has four positions; from
    # (p: 1, q: 2), a run of the chain reaches only (p: 2, q: 3)
    monkeypatch.setattr(semantics, "_WHOLE_SHAPE", (0, 0))  # the model's own layout, not the whole one
    sig = Signature(("1", "2", "3"), ("p", "q"))
    chain = parse_program("give(1,p,2); give(2,q,3)", sig)
    start = DirectModel(sig, Allocation.from_map(sig, {"p": "1", "q": "2"}),
                        Valuation.from_true_vars(sig, ["p"]))
    assert len(semantics._Tables(sig, [chain], start).domain) == 4
    assert program_image(start, Star(chain)) == [start, DirectModel(
        sig, Allocation.from_map(sig, {"p": "2", "q": "3"}), start.val)]
    programs = [chain, Star(chain), Choice(chain, Test(parse_formula("dia{1} ~p", sig))),
                *(parse_program(text, sig) for text in (
                    "give(1,p,2); (controls(2,p))?; give(2,q,3)",
                    "(p & dia{1} ~q)?; give(1,p,2)",  # the test reads the model's valuation
                    "give(1,p,2); give(2,p,3)"))]  # p passes on twice
    formulas = [parse_formula(text, sig) for text in (
        "<(give(1,p,2); give(2,q,3))*>(controls(3,q) & dia{2} ~p)",
        "[give(1,p,2); give(2,q,3)] dia{3} ~q",
        "<give(1,p,2); give(2,q,3)> dia{1} ~p")]
    for m in models_of(sig):
        pointed = kripke.pointed_of(m)
        for program in programs:
            assert ({r.alloc for r in program_image(m, program)}
                    == {k.alloc for k in kripke._pointed_image(pointed, program)})
            assert star_depth(m, program) == kripke_depth(pointed, program)
        for f in formulas:
            assert evaluate(m, f) == kripke.evaluate(pointed, f)


def guarded_give_program(givers, receivers, sig: Signature):
    """``give_program`` as first written: each (giver, variable) arm runs
    only after a test that the giver controls the variable."""
    return choice_all(
        Seq(Test(controls({i}, Atom(p))),
            choice_all(Give(i, p, j) for j in sorted(set(receivers) | {i})))
        for i in sorted(set(givers)) for p in sig.vars)


@pytest.mark.parametrize("agents, text, givers, receivers", [
    (2, "giveall(1)", {"1"}, ("1", "2")),
    (2, "giveall(2)", {"2"}, ("1", "2")),
    (3, "giveall(1)", {"1"}, ("1", "2", "3")),
    (3, "giveall({1,2} -> {3})", {"1", "2"}, {"3"}),
])
def test_giveall_answers_as_the_guarded_expansion(agents, text, givers, receivers):
    # a handover runs only where its giver owns the variable, so the
    # controls test on each arm changes no answer
    sig = Signature(tuple(str(i + 1) for i in range(agents)), ("p", "q"))
    new, old = parse_program(text, sig), guarded_give_program(givers, receivers, sig)
    assert new == give_program(givers, receivers, sig) != old
    rng = random.Random(agents)
    bodies = [random_formula(rng, sig, 2) for _ in range(4)]
    bodies += [parse_formula(t, sig) for t in ("controls(2, p)", "dia{1}(p & ~q)", "false")]
    for m in models_of(sig):
        for program, reference in ((new, old), (Star(new), Star(old))):
            assert program_image(m, program) == program_image(m, reference)
            assert star_depth(m, program) == star_depth(m, reference)
        for body in bodies:
            assert evaluate(m, DiaProg(Star(new), body)) == evaluate(m, DiaProg(Star(old), body))
        for agent in sig.agents:
            goal = second_order_controls(agent, bodies[0], sig)
            assert evaluate(m, goal) == kripke.evaluate(kripke.pointed_of(m), goal)
