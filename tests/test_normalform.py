import random

import pytest

from propctl import semantics
from propctl.model import (
    Allocation,
    DirectModel,
    Signature,
    SignatureError,
    Valuation,
    enumerate_allocations,
)
from propctl.normalform import (
    allocation_description,
    equivalent,
    nf_to_formula,
    normal_form,
    valuation_description,
)
from propctl.syntax import (
    Atom,
    Dia,
    Not,
    Or,
    TOP,
    bottom,
    conj,
    parse_formula,
)

from helpers import random_formula

SIG22 = Signature(("1", "2"), ("p", "q"))


def test_worked_example_two_branch_table():
    # The table for <give(i,p,j)>(q & dia{j}(p & r)) over agents {i,j} and
    # vars {p,q,r}: empty where i lacks p; valuations satisfying q where j
    # holds r; valuations satisfying q and r where i also holds r.
    sig = Signature(("i", "j"), ("p", "q", "r"))
    phi = parse_formula("<give(i,p,j)>(q & dia{j}(p & r))")
    nf = normal_form(phi, sig)
    q_bit = 1 << sig.var_index["q"]
    r_bit = 1 << sig.var_index["r"]
    k = len(sig.vars)
    sat_q = {bits for bits in range(1 << k) if bits & q_bit}
    sat_qr = {bits for bits in sat_q if bits & r_bit}
    for alloc in enumerate_allocations(sig):
        got = {v.bits for v in nf.satisfying(alloc)}
        if alloc.owner("p") != "i":
            assert got == set()
        elif alloc.owner("r") == "j":
            assert got == sat_q
        else:
            assert got == sat_qr


def test_top_table_is_full_everywhere():
    nf = normal_form(TOP, SIG22)
    assert all(row == nf.full_row for row in nf.rows)


def test_bottom_table_is_empty_everywhere():
    nf = normal_form(bottom(), SIG22)
    assert all(row == 0 for row in nf.rows)


def test_negation_complements_each_row():
    rng = random.Random(3)
    for _ in range(40):
        f = random_formula(rng, SIG22, 3)
        nf = normal_form(f, SIG22)
        neg = normal_form(Not(f), SIG22)
        assert neg.rows == tuple(nf.full_row ^ row for row in nf.rows)


def test_disjunction_unions_rows_pointwise():
    rng = random.Random(5)
    for _ in range(30):
        f = random_formula(rng, SIG22, 2)
        g = random_formula(rng, SIG22, 2)
        left = normal_form(Or(f, g), SIG22).rows
        a = normal_form(f, SIG22).rows
        b = normal_form(g, SIG22).rows
        assert left == tuple(x | y for x, y in zip(a, b))


def test_diamond_rows_close_under_coalition_variables():
    # Row of dia_C(f) at an allocation = valuations reachable from a
    # satisfying valuation by rewriting only the coalition's variables.
    rng = random.Random(9)
    for _ in range(25):
        f = random_formula(rng, SIG22, 2)
        coalition = frozenset(a for a in SIG22.agents if rng.random() < 0.6)
        nf_f = normal_form(f, SIG22)
        nf_dia = normal_form(Dia(coalition, f), SIG22)
        k = len(SIG22.vars)
        for idx, alloc in enumerate(enumerate_allocations(SIG22)):
            mask = alloc.controlled_mask(coalition)
            want = 0
            for bits in range(1 << k):
                if nf_f.rows[idx] >> bits & 1:
                    sub = mask
                    while True:
                        want |= 1 << ((bits & ~mask) | sub)
                        if sub == 0:
                            break
                        sub = (sub - 1) & mask
            assert nf_dia.rows[idx] == want


def test_rebuilt_formula_is_equivalent_small():
    sig = Signature(("1",), ("p",))
    nf = normal_form(Atom("p"), sig)
    rebuilt = nf_to_formula(nf)
    assert equivalent(rebuilt, parse_formula("p & controls(1,p)"), sig)
    assert equivalent(rebuilt, Atom("p"), sig)


def test_rebuilt_full_table_is_tautology():
    nf = normal_form(TOP, SIG22)
    assert equivalent(nf_to_formula(nf), TOP, SIG22)


def test_round_trip_random_formulas():
    rng = random.Random(13)
    for _ in range(30):
        f = random_formula(rng, SIG22, 3)
        assert equivalent(f, nf_to_formula(normal_form(f, SIG22)), SIG22)


def test_descriptions_pin_down_their_objects():
    sig = SIG22
    for alloc in enumerate_allocations(sig):
        ad = allocation_description(alloc)
        for other in enumerate_allocations(sig):
            m = DirectModel(sig, other, Valuation(sig, 0))
            assert semantics.evaluate(m, ad) == (other == alloc)
    some_alloc = next(iter(enumerate_allocations(sig)))
    for bits in range(1 << len(sig.vars)):
        vd = valuation_description(sig, Valuation(sig, bits))
        for other_bits in range(1 << len(sig.vars)):
            m = DirectModel(sig, some_alloc, Valuation(sig, other_bits))
            assert semantics.evaluate(m, vd) == (other_bits == bits)


def test_equivalence_examples():
    # ability over owned variables reads off unowned values; pin the
    # allocation with a controls context to make the claim signature-level
    sig = Signature(("i", "j"), ("p", "q", "r"))
    context = parse_formula("controls(i,p) & controls(i,q) & controls(j,r)")
    lhs = conj(context, parse_formula("dia{i}(~p & r)"))
    rhs = conj(context, parse_formula("(p & r) | (~p & r)"))
    assert equivalent(lhs, rhs, sig)

    f = parse_formula("dia{1}(p | q)")
    assert equivalent(f, f, SIG22)


def test_ability_absorbs_control_facts():
    # dia_C(f & zeta) is the same as zeta & dia_C(f) for control literals zeta
    rng = random.Random(17)
    for _ in range(20):
        f = random_formula(rng, SIG22, 2)
        zeta = parse_formula("controls(1,p) & ~controls(2,q)")
        c = frozenset({"1"})
        assert equivalent(Dia(c, conj(f, zeta)), conj(zeta, Dia(c, f)), SIG22)


def test_distinct_tables_bounded_by_description_count():
    sig = Signature(("1",), ("p",))
    rng = random.Random(21)
    tables = {normal_form(random_formula(rng, sig, 3), sig) for _ in range(60)}
    assert len(tables) <= 4  # true, false, p and ~p


@pytest.mark.parametrize("index", [1, 3])
def test_satisfying_refuses_an_allocation_of_another_signature(index):
    # a 2x2 allocation against a 2x1 normal form: index 1 names a row of the
    # table, index 3 none
    nf = normal_form(parse_formula("p"), Signature(("1", "2"), ("p",)))
    with pytest.raises(SignatureError):
        nf.satisfying(Allocation.from_index(SIG22, index))
