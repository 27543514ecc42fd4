import itertools
import random

import pytest

from propctl import semantics
from propctl.control import (
    characterize_second_order,
    delegation_can_achieve,
    geq,
    grand_coalition_control,
)
from propctl.decision import satisfiable, valid
from propctl.model import (
    Allocation,
    DirectModel,
    Signature,
    SignatureError,
    Valuation,
    enumerate_allocations,
    enumerate_models,
)
from propctl.semantics import evaluate, program_image
from propctl.syntax import (
    Atom,
    Dia,
    DiaProg,
    Not,
    Star,
    TOP,
    conj,
    conj_all,
    controls,
    give_program,
    implies,
    parse_formula,
    second_order_controls,
    signature_of,
)

from helpers import models_of, naming_everything, random_formula, random_objective, sample_model

SIG22 = Signature(("1", "2"), ("p", "q"))


# --- first-order control ----------------------------------------------------

def test_individual_control_is_ownership():
    sig = Signature(("1", "2"), ("p", "q"))
    for m in enumerate_models(sig):
        for i in sig.agents:
            for p in sig.vars:
                assert evaluate(m, controls({i}, Atom(p))) == (m.alloc.owner(p) == i)


def test_coalition_control_is_membership():
    sig = Signature(("1", "2", "3"), ("p",))
    coalitions = [set(c) for r in range(4) for c in itertools.combinations(sig.agents, r)]
    for m in enumerate_models(sig):
        for c in coalitions:
            got = evaluate(m, controls(c, Atom("p")))
            assert got == (m.alloc.owner("p") in c)


def test_nobody_controls_a_tautology():
    for m in models_of(SIG22):
        assert not evaluate(m, controls({"1", "2"}, TOP))


# --- give programs ----------------------------------------------------------

def test_give_star_image_contains_start():
    m = sample_model()
    prog = Star(give_program({"1"}, m.sig.agents, m.sig))
    assert m in program_image(m, prog)


def test_objective_goal_coalition_ability_equals_delegate_to_one():
    # a coalition can reach an objective goal iff it can funnel everything
    # to a dedicated member who then reaches it alone
    rng = random.Random(43)
    c = {"1", "2"}
    for _ in range(25):
        goal = random_objective(rng, SIG22, 2)
        funnel = Star(give_program(c, {"1"}, SIG22))
        lhs = Dia(frozenset(c), goal)
        rhs = DiaProg(funnel, Dia(frozenset({"1"}), goal))
        for m in models_of(SIG22):
            assert evaluate(m, lhs) == evaluate(m, rhs)


def test_ability_implies_ability_after_redistribution():
    rng = random.Random(47)
    for _ in range(20):
        goal = random_formula(rng, SIG22, 2)
        chain = implies(Dia(frozenset({"1"}), goal),
                        DiaProg(Star(give_program({"1"}, SIG22.agents, SIG22)),
                                Dia(frozenset({"1"}), goal)))
        assert valid(chain, SIG22)


# --- second-order control ---------------------------------------------------

def test_second_order_over_ownership_fact():
    sig = Signature(("1", "2"), ("p", "q"))
    for m in enumerate_models(sig):
        for i, j in itertools.product(sig.agents, repeat=2):
            f = second_order_controls(i, controls({j}, Atom("p")), sig)
            assert evaluate(m, f) == (m.alloc.owner("p") == i)


def test_control_implies_second_order_control_of_delegation():
    sig = SIG22
    f = implies(controls({"1"}, Atom("p")),
                second_order_controls("1", controls({"2"}, Atom("p")), sig))
    assert valid(f, sig)


def test_control_excludes_first_order_control_of_delegation():
    sig = SIG22
    f = implies(controls({"1"}, Atom("p")),
                Not(controls({"1"}, controls({"2"}, Atom("p")))))
    assert valid(f, sig)


def test_incomparability_witnesses():
    from propctl.syntax import Give

    sig = SIG22
    g12 = Give("1", "p", "2")
    take_back = parse_formula("<give(2,p,1)>true")
    first = implies(controls({"1"}, Atom("p")),
                    conj(DiaProg(g12, take_back),
                         Not(Dia(frozenset({"1", "2"}), take_back))))
    assert valid(first, sig)

    hand_on = parse_formula("<give(1,p,2)>true")
    second = implies(controls({"1"}, Atom("p")),
                     conj(Not(DiaProg(g12, hand_on)),
                          Dia(frozenset({"1", "2"}), hand_on)))
    assert valid(second, sig)


# --- the giving-away order --------------------------------------------------

def test_geq_is_reflexive():
    for alloc in enumerate_allocations(SIG22):
        for i in SIG22.agents:
            assert geq(alloc, alloc, i)


def test_geq_subset_direction():
    m = sample_model()
    moved = m.alloc.move("p", "2")
    assert geq(m.alloc, moved, "1")
    assert not geq(moved, m.alloc, "1")


def test_geq_rejects_foreign_signatures():
    other = Signature(("1", "2"), ("p", "q", "z"))
    with pytest.raises(SignatureError):
        geq(sample_model().alloc, next(iter(enumerate_allocations(other))), "1")


def test_second_order_rejects_a_foreign_valuation():
    # the valuation's low bits must not be read as the signature's variables
    sig = SIG22
    wide = Signature(sig.agents, ("p", "q", "r", "s"))
    alloc = next(iter(enumerate_allocations(sig)))
    for decide in (characterize_second_order, delegation_can_achieve):
        with pytest.raises(SignatureError):
            decide(sig, alloc, Valuation(wide, 12), "1", Atom("p"))


def test_geq_matches_give_star_reachability():
    # oracle: allocations reachable through the redistribution program
    sig = SIG22
    prog = Star(give_program({"1"}, sig.agents, sig))
    for start in enumerate_allocations(sig):
        m = DirectModel(sig, start, Valuation(sig, 0))
        reachable = {reached.alloc for reached in program_image(m, prog)}
        for target in enumerate_allocations(sig):
            assert geq(start, target, "1") == (target in reachable)


# --- the table characterization --------------------------------------------

def _demo_state():
    sig = Signature(("1", "2", "3"), ("p", "q", "r"))
    alloc = Allocation.from_map(sig, {"p": "1", "q": "2", "r": "2"})
    val = Valuation.from_true_vars(sig, ["p", "r"])
    return sig, alloc, val


def test_delegation_demo_flip_own_variable():
    # staying in place and flipping p reaches (~p & ~q & r)
    sig, alloc, val = _demo_state()
    goal = parse_formula("~p & ~q & r")
    assert delegation_can_achieve(sig, alloc, val, "1", goal)
    direct = DiaProg(Star(give_program({"1"}, sig.agents, sig)),
                     Dia(frozenset({"1"}), goal))
    assert evaluate(DirectModel(sig, alloc, val), direct)


def test_delegation_demo_giving_away_loses_the_flip():
    # requiring agent 3 to own p forces giving p away, after which agent 1
    # can no longer make p false
    sig, alloc, val = _demo_state()
    goal = parse_formula("~p & ~q & r & controls(3,p)")
    assert not delegation_can_achieve(sig, alloc, val, "1", goal)
    direct = DiaProg(Star(give_program({"1"}, sig.agents, sig)),
                     Dia(frozenset({"1"}), goal))
    assert not evaluate(DirectModel(sig, alloc, val), direct)


def test_unknown_agent_is_refused_whatever_the_formula():
    sig, alloc, val = _demo_state()
    for decide in (delegation_can_achieve, characterize_second_order):
        for formula in (Atom("p"), Not(TOP)):  # with a model, and without one
            with pytest.raises(SignatureError, match="unknown agent 'zz'"):
                decide(sig, alloc, val, "zz", formula)


def test_characterization_agrees_with_direct_evaluation():
    rng = random.Random(53)
    for _ in range(40):
        f = random_formula(rng, SIG22, 2)
        for m in models_of(SIG22):
            for agent in SIG22.agents:
                table = characterize_second_order(m.sig, m.alloc, m.val, agent, f)
                direct = evaluate(m, second_order_controls(agent, f, m.sig))
                assert table == direct


def test_characterization_agrees_with_direct_evaluation_on_large_tables():
    # 2x8: both sides build tables large enough to be dropped once spent.
    # The formula names every variable under a diamond, so the tables over
    # the signature are not cut and the rows at the model are full width;
    # conjoined, that valid part leaves the answer to the random formula.
    sig = Signature(("1", "2"), tuple(f"p{i}" for i in range(8)))
    rng = random.Random(54)
    for _ in range(4):
        f = conj(random_formula(rng, sig, 2), naming_everything(sig))
        m = DirectModel(sig, Allocation.from_index(sig, 0), Valuation(sig, rng.randrange(256)))
        goal = second_order_controls("1", f, sig)
        assert semantics._Tables(sig, [Dia(frozenset({"1"}), f)]).large
        assert semantics._Tables(sig, [goal], m).large
        table = characterize_second_order(sig, m.alloc, m.val, "1", f)
        assert table == evaluate(m, goal)


# --- validity-level characterization ----------------------------------------

def test_grand_coalition_controls_contingent_atom():
    assert grand_coalition_control(Atom("p"), SIG22)
    assert valid(controls(set(SIG22.agents), Atom("p")), SIG22)


def test_grand_coalition_cannot_control_ownership_alone():
    f = controls({"1"}, Atom("p"))
    assert not grand_coalition_control(f, SIG22)
    assert not valid(controls(set(SIG22.agents), f), SIG22)


def test_grand_coalition_controls_mixed_fact():
    # Holds when the whole agent set is {1}: any outside agent could own p
    # and freeze the control fact, making both sides false (still agreeing).
    solo = Signature(("1",), ("p", "q"))
    f = conj(Atom("p"), controls({"1"}, Atom("p")))
    assert grand_coalition_control(f, solo)
    assert valid(controls({"1"}, f), solo)
    assert grand_coalition_control(f, SIG22) == valid(controls(set(SIG22.agents), f), SIG22)
    assert not grand_coalition_control(f, SIG22)


def test_validity_level_agreement_on_corpus():
    rng = random.Random(59)
    for _ in range(30):
        f = random_formula(rng, SIG22, 2)
        assert grand_coalition_control(f, SIG22) == valid(controls(set(SIG22.agents), f), SIG22)


def test_no_strict_subcoalition_validly_controls():
    rng = random.Random(61)
    subcoalitions = [set(), {"1"}, {"2"}]
    for _ in range(20):
        f = random_formula(rng, SIG22, 2)
        for c in subcoalitions:
            assert not valid(controls(c, f), SIG22)


# --- objective goals --------------------------------------------------------

def test_grand_coalition_achieves_any_consistent_objective():
    rng = random.Random(67)
    for _ in range(30):
        f = random_objective(rng, SIG22, 3)
        if satisfiable(f, SIG22) is None:
            continue
        assert valid(Dia(frozenset(SIG22.agents), f), SIG22)


def test_owning_every_variable_of_a_feasible_objective_gives_control():
    rng = random.Random(71)
    checked = 0
    while checked < 15:
        f = random_objective(rng, SIG22, 3)
        if satisfiable(f, SIG22) is None or valid(f, SIG22):
            continue  # needs a feasible goal
        props, _ = signature_of(f)
        for c in [{"1"}, {"1", "2"}]:
            owning = conj_all([controls(c, Atom(p)) for p in sorted(props)])
            assert valid(implies(owning, controls(c, f)), SIG22)
        checked += 1


def test_coalition_monotonicity():
    rng = random.Random(73)
    for _ in range(20):
        f = random_formula(rng, SIG22, 2)
        grow = implies(Dia(frozenset({"1"}), f), Dia(frozenset({"1", "2"}), f))
        assert valid(grow, SIG22)
