import hashlib
import itertools
import random

from propctl import semantics, syntax
from propctl.axioms import (
    Budget,
    Scheme,
    SCHEMES,
    allocation_axiom,
    axiom_suite,
    check_scheme,
    formula_pool,
    make_context,
    objective_pool,
    program_pool,
)
from propctl.control import (
    characterize_second_order,
    delegation_can_achieve,
    grand_coalition_control,
)
from propctl.decision import (
    counterexample,
    default_signature,
    satisfiable,
    valid,
)
from propctl.model import Signature, enumerate_models
from propctl.normalform import equivalent, normal_form
from propctl.semantics import evaluate, program_image
from propctl.syntax import (
    Atom,
    Choice,
    Dia,
    DiaProg,
    Give,
    Not,
    Or,
    Seq,
    Star,
    TOP,
    Test,
    bottom,
    box,
    box_prog,
    conj,
    controls,
    disj_all,
    give_program,
    iff,
    implies,
    nabla,
    parse_formula,
    parse_program,
)

from helpers import random_formula

SIG22 = Signature(("1", "2"), ("p", "q"))


# --- default signatures ------------------------------------------------------

def test_default_signature_adds_spare_agent():
    f = parse_formula("dia{1,2}(p & r & ~q)")
    sig = default_signature(f)
    assert set(sig.agents) == {"1", "2", "_env"}
    assert set(sig.vars) == {"p", "q", "r"}
    assert len(sig.agents) + len(sig.vars) == 6


def test_default_signature_for_closed_formula():
    sig = default_signature(TOP)
    assert sig.agents == ("_env",)
    assert sig.vars == ("_aux",)


def test_default_signature_counts_program_identifiers():
    f = parse_formula("<give(i,p,j)>true")
    sig = default_signature(f)
    assert set(sig.agents) == {"i", "j", "_env"}
    assert sig.vars == ("p",)


def test_default_signature_freshens_on_collision():
    f = parse_formula("dia{_env}(p)")
    sig = default_signature(f)
    assert "_env" in sig.agents
    assert len(sig.agents) == 2  # _env plus a fresh spare


def test_default_signature_spare_variable_ignores_agent_names():
    sig = default_signature(parse_formula("dia{_aux} true"))
    assert sig.agents == ("_aux", "_env")
    assert sig.vars == ("_aux",)


# --- satisfiability and validity ---------------------------------------------

def test_contradiction_unsatisfiable():
    assert satisfiable(parse_formula("p & ~p")) is None


def test_control_plus_value_witness():
    witness = satisfiable(parse_formula("controls(i,p) & ~p"))
    assert witness is not None
    assert witness.alloc.owner("p") == "i"
    assert not witness.val.value("p")


def test_transfer_without_control_unsatisfiable():
    assert satisfiable(parse_formula("<give(i,p,j)>true & ~controls(i,p)")) is None


def test_witness_is_deterministic_first_in_enumeration():
    f = parse_formula("p | q")
    first = satisfiable(f)
    again = satisfiable(f)
    assert first == again
    sig = default_signature(f)
    for m in enumerate_models(sig):
        if evaluate(m, f):
            assert m == first
            break


def test_one_fit_check_per_query(monkeypatch):
    # the formula walk (fit check, or default signature, and tables) runs once
    # per query, not once per model
    calls = []

    def counting(node):
        calls.append(node)
        return real(node)

    real = syntax._walk  # what ensure_fits calls: one walk lists the nodes and names
    monkeypatch.setattr(syntax, "_walk", counting)
    real_walk = semantics._Tables.walk  # over a small signature, one walk also builds the tables

    def counting_walk(tables, node):
        calls.append(node)
        return real_walk(tables, node)

    monkeypatch.setattr(semantics._Tables, "walk", counting_walk)
    sig = Signature(("1", "2"), ("p", "q"))
    f = parse_formula("dia{1}(p) -> <give(1,p,2)*>dia{2}(p | q)")
    m = next(enumerate_models(sig))
    program = parse_program("give(1,p,2)* ; ((p)? + give(1,q,2))", sig)
    for whole_shape in (semantics._WHOLE_SHAPE, (0, 0)):  # the whole layout's walk, then the others'
        monkeypatch.setattr(semantics, "_WHOLE_SHAPE", whole_shape)
        for query in (valid, satisfiable, counterexample, normal_form, grand_coalition_control):
            calls.clear()
            query(f, sig)
            assert len(calls) == 1, query.__name__
        for name, query in [
            ("valid without a signature", lambda: valid(f)),
            ("satisfiable without a signature", lambda: satisfiable(f)),
            ("counterexample without a signature", lambda: counterexample(f)),
            ("equivalent", lambda: equivalent(f, Not(Not(f)), sig)),
            ("characterize_second_order",
             lambda: characterize_second_order(sig, m.alloc, m.val, "1", f)),
            ("delegation_can_achieve", lambda: delegation_can_achieve(sig, m.alloc, m.val, "1", f)),
            ("evaluate", lambda: evaluate(m, f)),
            ("program_image", lambda: program_image(m, program)),
        ]:
            calls.clear()
            query()
            assert len(calls) == 1, name


def test_validity_goldens():
    assert valid(parse_formula("dia{}(p) <-> p"))
    assert valid(parse_formula("box{1}box{2}(p) <-> box{1,2}(p)"))
    assert not valid(parse_formula("p"))


def test_counterexample_reverifies():
    f = parse_formula("p -> q")
    cex = counterexample(f)
    assert cex is not None
    assert not evaluate(cex, f)


# --- normal-form agreement ---------------------------------------------------

def test_decision_agrees_with_table():
    rng = random.Random(77)
    for _ in range(40):
        f = random_formula(rng, SIG22, 3)
        nf = normal_form(f, SIG22)
        assert (satisfiable(f, SIG22) is not None) == any(row for row in nf.rows)
        assert valid(f, SIG22) == all(row == nf.full_row for row in nf.rows)


# --- exactly-one and covering laws -------------------------------------------

def test_valuation_descriptions_partition_truth():
    from propctl.model import enumerate_valuations
    from propctl.normalform import valuation_description

    pis = [valuation_description(SIG22, v) for v in enumerate_valuations(SIG22)]
    assert valid(nabla(pis), SIG22)


def test_allocation_descriptions_partition_truth():
    from propctl.model import enumerate_allocations
    from propctl.normalform import allocation_description

    vs = [allocation_description(a) for a in enumerate_allocations(SIG22)]
    assert valid(nabla(vs), SIG22)


def test_formula_splits_over_allocations():
    from propctl.model import enumerate_allocations
    from propctl.normalform import allocation_description

    rng = random.Random(79)
    vs = [allocation_description(a) for a in enumerate_allocations(SIG22)]
    for _ in range(10):
        f = random_formula(rng, SIG22, 2)
        split = disj_all(conj(f, v) for v in vs)
        assert valid(implies(f, split), SIG22)


# --- the scheme suite --------------------------------------------------------

def test_axiom_suite_all_valid_two_by_two():
    report = axiom_suite(SIG22, Budget(per_scheme=80))
    assert report.ok, "\n".join(r.line() for r in report.results if not r.ok)
    assert len(report.results) == len(SCHEMES)
    assert all(r.checked > 0 for r in report.results)


def test_allocation_axiom_has_one_disjunct_per_agent():
    sig = Signature(("1", "2", "3"), ("p", "q"))
    axiom = allocation_axiom(sig)
    assert valid(axiom, sig)
    # per variable, the exactly-one block disjoins one control fact per
    # agent; each control fact contributes two ability diamonds, and the
    # pairwise exclusions re-mention each fact (n-1) times
    dia_per_agent = {a: 0 for a in sig.agents}
    stack = [axiom]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Dia):
            for a in cur.coalition:
                dia_per_agent[a] += 1
            stack.append(cur.body)
        elif isinstance(cur, Not):
            stack.append(cur.body)
        elif isinstance(cur, Or):
            stack.extend([cur.left, cur.right])
    n, k = len(sig.agents), len(sig.vars)
    expected = 2 * k * (1 + (n - 1))  # one direct + (n-1) exclusion mentions
    assert all(count == expected for count in dia_per_agent.values())


def test_truncation_is_reported_not_silent():
    report = axiom_suite(SIG22, Budget(per_scheme=2))
    assert report.ok
    big = [r for r in report.results if r.truncated]
    assert big, "tiny budgets must flag truncated schemes"
    assert all(r.checked == 2 for r in big)


#: Per scheme, in ``SCHEMES`` order: its instance count in the uncapped 2x2
#: suite, and a sha256 prefix over its rendered instances, in order, at 1x1,
#: 2x2 and 3x2, formula depths 2 and 3.
CATALOGUE = [
    ("prop-tautology", 1536, "1bdb1be1d86ee73e"),
    ("k-program", 6336, "e2200e0117138ad6"),
    ("union-program", 2904, "4402e3da97a5bcfb"),
    ("comp-program", 2904, "ca51d60d3dd418f7"),
    ("test-program", 576, "00e46cd14c470a94"),
    ("mix-star", 264, "2b99194d3b10c9f2"),
    ("ind-star", 264, "54ef0de39a25609e"),
    ("k-agent", 1152, "e9ed0c8a2a9b779e"),
    ("t-agent", 48, "6b995066e4d80472"),
    ("b-agent", 48, "2db1123c2d264888"),
    ("empty-coalition", 24, "d85bb27e70c0bb4c"),
    ("atom-control", 4, "cc242651a5021a7f"),
    ("allocation-partition", 1, "e87769ce4b913b58"),
    ("effect", 64, "2076ba32c94f398f"),
    ("coalition-composition", 384, "bde3554e1429139f"),
    ("value-permanence", 16, "b17610e81d85e519"),
    ("control-persistence-valuation", 8, "93d77f3e1b846299"),
    ("control-persistence-transfer", 24, "714841d58d7e0417"),
    ("transfer-precondition", 8, "2f2292fd97d2cbd9"),
    ("transfer-grants-control", 8, "f9654da205cfa0bc"),
    ("transfer-functional", 192, "2115c13696179840"),
    ("flip-own-literal", 8, "6a1f2e2dcd1ba63c"),
    ("outsider-fixed-literal", 8, "cc76ee387ab8b4c9"),
    ("non-effect", 8, "b6d0320a3d603c02"),
    ("non-control-persistence", 8, "9ee1a6fab0a11841"),
    ("objective-permanence-atomic", 128, "f0cd4053273f9914"),
    ("objective-permanence", 176, "edf406dfb14f2bbe"),
    ("round-trip-transfer", 192, "7649facc280ca6fe"),
    ("commute-transfers", 960, "0b10f75d5a6a5d2c"),
]


def test_catalogue_instances_are_pinned():
    digests = {name: hashlib.sha256() for name, _, _ in CATALOGUE}
    counts = {}
    for n, k in [(1, 1), (2, 2), (3, 2)]:
        sig = Signature(tuple(str(i) for i in range(1, n + 1)),
                        tuple(f"p{i}" for i in range(1, k + 1)))
        for depth in (2, 3):
            ctx = make_context(sig, Budget(formula_depth=depth))
            for scheme in SCHEMES:
                rendered = [syntax.render(f) for f in scheme.instances(ctx)]
                digests[scheme.name].update("".join(r + "\n" for r in rendered).encode() + b"\n")
                if (n, k, depth) == (2, 2, 2):
                    counts[scheme.name] = len(rendered)
    assert [s.name for s in SCHEMES] == [name for name, _, _ in CATALOGUE]
    assert sum(counts.values()) == 18253
    assert [(name, counts[name], digests[name].hexdigest()[:16]) for name, _, _ in CATALOGUE] \
        == CATALOGUE


def _eager_dedup(items, limit):
    return tuple(itertools.islice(dict.fromkeys(items), limit))


def _eager_formula_pool(sig, limit, depth):
    # The pool as first written: every layer and every padding disjunction
    # built before the first ``limit`` distinct items are taken.
    a0, a1 = sig.agents[0], sig.agents[-1]
    p0, p1 = Atom(sig.vars[0]), Atom(sig.vars[-1])
    g = Give(a0, sig.vars[0], a1)
    everyone = frozenset(sig.agents)
    items = [
        TOP, p0, p1, Not(p0), bottom(), Or(p0, Not(p1)), conj(p0, p1),
        Dia(frozenset(), p0), Dia(frozenset({a0}), conj(p0, Not(p1))),
        box(frozenset({a1}), Or(p0, p1)), controls({a0}, p1), DiaProg(g, TOP),
        DiaProg(g, Dia(frozenset({a1}), p0)), box_prog(g, Not(p1)),
        DiaProg(Star(g), controls({a1}, p0)),
        Or(Dia(frozenset({a0}), p0), Not(Dia(everyone, p1))),
        implies(p0, Dia(frozenset({a1}), p1)), Not(DiaProg(Test(p0), p1)),
        Dia(everyone, Or(p0, Not(p0))),
        conj(controls({a0}, p0), Not(controls({a1}, p0))),
    ]
    layer = list(items)
    for _ in range(max(0, depth - 2)):
        layer = [Dia(frozenset({a0}), f) for f in layer[:6]] + \
                [box_prog(g, f) for f in layer[:3]]
        items.extend(layer)
    for left, right in itertools.product(list(items), repeat=2):
        items.append(Or(left, right))
        if len(items) >= 3 * limit:
            break
    return _eager_dedup(items, limit)


def _eager_objective_pool(sig, limit):
    atoms = [Atom(p) for p in sig.vars]
    items = [TOP, bottom(), *atoms, *(Not(a) for a in atoms),
             Or(atoms[0], Not(atoms[-1])), conj(atoms[0], atoms[-1]),
             implies(atoms[0], atoms[-1]), Or(Not(atoms[0]), conj(atoms[0], atoms[-1]))]
    for left, right in itertools.product(list(items), repeat=2):
        items.append(Or(left, right))
        if len(items) >= 3 * limit:
            break
    return _eager_dedup(items, limit)


def _eager_program_pool(sig, objectives, limit):
    a0, a1 = sig.agents[0], sig.agents[-1]
    p0, p1 = sig.vars[0], sig.vars[-1]
    give0, give_back = Give(a0, p0, a1), Give(a1, p0, a0)
    items = [give0, give_back, Give(a0, p1, a0), Test(TOP),
             Test(objectives[2] if len(objectives) > 2 else TOP), Seq(Test(Atom(p0)), give0),
             Choice(give0, Give(a0, p1, a1)), Seq(give0, give_back), Star(give0),
             Star(Choice(give0, give_back)), give_program({a0}, sig.agents, sig)]
    return _eager_dedup(items, limit)


def test_lazy_pools_equal_the_eager_ones():
    for n, k in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        sig = Signature(tuple(str(i) for i in range(1, n + 1)),
                        tuple(f"p{i}" for i in range(1, k + 1)))
        for depth in range(9):
            for limit in range(1, 61):
                assert formula_pool(sig, limit, depth) == \
                    _eager_formula_pool(sig, limit, depth), (n, k, depth, limit)
        for limit in range(1, 41):
            objectives = objective_pool(sig, limit)
            assert objectives == _eager_objective_pool(sig, limit), (n, k, limit)
            for cap in range(1, 21):
                assert program_pool(sig, objectives, cap) == \
                    _eager_program_pool(sig, objectives, cap), (n, k, limit, cap)


def test_corrupted_transfer_scheme_is_caught():
    # dropping the controls guard from the handover axiom must produce a
    # counterexample: any model where the giver lacks the variable
    def bad_instances(ctx):
        for i, p, j in itertools.product(ctx.agents, ctx.vars, ctx.agents):
            yield DiaProg(Give(i, p, j), controls({j}, Atom(p)))

    ctx = make_context(SIG22)
    result = check_scheme(Scheme("corrupted-transfer", bad_instances), ctx, 50)
    assert not result.ok
    instance, model = result.counterexample
    assert not evaluate(model, instance)


def test_unguarded_functionality_scheme_is_caught():
    # without the controls guard, the two program modalities disagree on
    # models where the handover is not executable
    def bad_instances(ctx):
        for i, p, j in itertools.product(ctx.agents, ctx.vars, ctx.agents):
            move = Give(i, p, j)
            yield iff(DiaProg(move, TOP), box_prog(move, TOP))

    ctx = make_context(SIG22)
    result = check_scheme(Scheme("unguarded-functionality", bad_instances), ctx, 50)
    assert not result.ok
    instance, model = result.counterexample
    assert not evaluate(model, instance)
