import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from propctl import syntax
from propctl.axioms import formula_pool
from propctl.model import Signature, SignatureError
from propctl.syntax import (
    Atom,
    Choice,
    Dia,
    DiaProg,
    Give,
    Not,
    Or,
    ParseError,
    Seq,
    Star,
    Test,
    TOP,
    bottom,
    box,
    conj,
    controls,
    give_program,
    iff,
    implies,
    nabla,
    parse_formula,
    parse_model,
    parse_program,
    postorder,
    render,
    signature_of,
)

from helpers import random_coalition, random_formula, random_program

P, Q, R = Atom("p"), Atom("q"), Atom("r")


# --- formula parsing -------------------------------------------------------

def test_parse_coalition_diamond_with_conjunction():
    got = parse_formula("dia{1,2}(p & r & ~q)")
    assert got == Dia(frozenset({"1", "2"}), conj(conj(P, R), Not(Q)))


def test_parse_true_is_top():
    assert parse_formula("true") == TOP


def test_parse_controls_macro_expands():
    assert parse_formula("controls(i, p)") == controls({"i"}, P)
    assert parse_formula("controls({1,2}, p)") == controls({"1", "2"}, P)


def test_parse_box_is_negated_diamond():
    assert parse_formula("box{1}(~r)") == Not(Dia(frozenset({"1"}), Not(Not(R))))


def test_parse_program_diamond_and_box():
    g = Give("1", "p", "2")
    assert parse_formula("<give(1,p,2)>true") == DiaProg(g, TOP)
    assert parse_formula("[give(1,p,2)]p") == Not(DiaProg(g, Not(P)))


def test_empty_coalition_is_legal():
    assert parse_formula("dia{}(p)") == Dia(frozenset(), P)


def test_implication_right_associative():
    assert parse_formula("p -> q -> r") == implies(P, implies(Q, R))


def test_iff_binds_weakest():
    assert parse_formula("p <-> q -> r") == iff(P, implies(Q, R))


def test_and_binds_tighter_than_or():
    assert parse_formula("p | q & r") == Or(P, conj(Q, R))


def test_prefix_binds_tighter_than_and():
    got = parse_formula("dia{1}p & q")
    assert got == conj(Dia(frozenset({"1"}), P), Q)


def test_prefix_run_applies_innermost_first():
    got = parse_formula("~dia{1}<give(1,p,2)>[skip]box{2}p")
    want = Not(Dia(frozenset({"1"}), DiaProg(Give("1", "p", "2"),
                                              Not(DiaProg(Test(TOP), Not(box({"2"}, P)))))))
    assert got == want
    assert parse_formula("p <-> q <-> r & s | ~p -> q") == iff(
        P, iff(Q, implies(Or(conj(R, Atom("s")), Not(P)), Q)))


def test_deep_nesting_parses_or_is_refused():
    f = parse_formula("~" * 3000 + "p")
    for _ in range(3000):
        f = f.body
    assert f == P
    for parse, inner in ((parse_formula, "p"), (parse_program, "skip")):
        with pytest.raises(ParseError, match="nested too deeply") as err:
            parse("(" * 2000 + inner + ")" * 2000)
        assert err.value.line == 1 and 1 < err.value.col <= 2000


def test_lexer_positions_golden():
    # a tab or a "\r" is one column; a comment moves no column
    text = "dia{1}\t(p <-> q)  # c\r\n  -> <give(1,p,2)>x_1 # end"
    assert [(t.kind, t.text, t.line, t.col) for t in syntax._tokenize(text)] == [
        ("keyword", "dia", 1, 1), ("{", "{", 1, 4), ("name", "1", 1, 5), ("}", "}", 1, 6),
        ("(", "(", 1, 8), ("name", "p", 1, 9), ("<->", "<->", 1, 11), ("name", "q", 1, 15),
        (")", ")", 1, 16), ("->", "->", 2, 3), ("<", "<", 2, 6), ("keyword", "give", 2, 7),
        ("(", "(", 2, 11), ("name", "1", 2, 12), (",", ",", 2, 13), ("name", "p", 2, 14),
        (",", ",", 2, 15), ("name", "2", 2, 16), (")", ")", 2, 17), (">", ">", 2, 18),
        ("name", "x_1", 2, 19), ("end", "", 2, 23)]
    sig3 = Signature(("1", "2", "3"), ("p", "q"))
    for parse, text, sig, want in [
        (parse_formula, "p & # comment", None, ("expected a formula, got 'end of input'", 1, 5)),
        (parse_formula, "p\t&\tq\t)", None, ("unexpected trailing input ')'", 1, 7)),
        (parse_formula, "p &\r\n q )", None, ("unexpected trailing input ')'", 2, 4)),
        (parse_formula, "p & é", None, ("bad identifier 'é'", 1, 5)),
        (parse_formula, "pé", None, ("bad identifier 'pé'", 1, 1)),
        (parse_formula, "-", None, ("unexpected character '-'", 1, 1)),
        (parse_formula, "p <- q", None, ("unexpected character '-'", 1, 4)),
        (parse_formula, "x\n\t# c\n  y #", None, ("unexpected trailing input 'y'", 3, 3)),
        # call-shaped constructs, and bodies after a keyword
        (parse_program, "give(1,p)", None, ("expected ',', got ')'", 1, 9)),
        (parse_program, "give(1,p,2", None, ("expected ')', got 'end of input'", 1, 11)),
        (parse_program, "give 1,p,2)", None, ("expected '(', got '1'", 1, 6)),
        (parse_program, "give(1,,2)", None, ("expected variable name, got ','", 1, 8)),
        (parse_program, "give(p q)", None, ("expected ',', got 'q'", 1, 8)),
        (parse_formula, "CONTROLS(1)", sig3, ("expected ',', got ')'", 1, 11)),
        (parse_formula, "CONTROLS(1, p)", None, ("CONTROLS needs a signature in scope", 1, 9)),
        (parse_formula, "CONTROLS({1}, p)", sig3, ("expected agent name, got '{'", 1, 10)),
        (parse_formula, "controls(1 p)", None, ("expected ',', got 'p'", 1, 12)),
        (parse_formula, "controls({1,}, p)", None, ("expected agent name, got '}'", 1, 13)),
        (parse_formula, "controls(1, p", None, ("expected ')', got 'end of input'", 1, 14)),
        (parse_program, "test(p", None, ("expected ')', got 'end of input'", 1, 7)),
        (parse_program, "test p", None, ("expected '(', got 'p'", 1, 6)),
        (parse_program, "test(p, q)", None, ("expected ')', got ','", 1, 7)),
        (parse_program, "if p then skip", None, ("expected 'else'", 1, 15)),
        (parse_program, "if p skip", None, ("expected 'then'", 1, 6)),
        (parse_program, "while p skip", None, ("expected 'do'", 1, 9)),
        (parse_program, "repeat skip p", None, ("expected 'until'", 1, 13)),
        (parse_program, "giveall({} -> 2)", sig3,
         ("giveall needs a non-empty giving coalition", 1, 1)),
        (parse_program, "giveall()", sig3, ("expected agent name, got ')'", 1, 9)),
        (parse_program, "giveall(1)", None, ("giveall needs a signature in scope", 1, 8)),
        (parse_program, "giveall(1 2)", sig3, ("expected '->', got '2'", 1, 11)),
        (parse_program, "giveall({1} 2)", sig3, ("expected '->', got '2'", 1, 13)),
        (parse_program, "giveall(1 -> 2", sig3, ("expected ')', got 'end of input'", 1, 15)),
        (parse_formula, "<giveall({1} ->)>p", sig3, ("expected agent name, got ')'", 1, 16)),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text, sig)
        assert (err.value.message, err.value.line, err.value.col) == want, text


def test_duplicate_coalition_members_collapse():
    assert parse_formula("dia{1,1,2}(p)") == parse_formula("dia{2,1}(p)")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p &")
    assert err.value.line == 1
    assert err.value.col >= 3


def test_reserved_word_is_not_an_atom():
    with pytest.raises(ParseError):
        parse_formula("while")


def test_controls_upper_needs_signature():
    with pytest.raises(ParseError):
        parse_formula("CONTROLS(1, p)")
    sig = Signature(("1", "2"), ("p",))
    from propctl.syntax import second_order_controls

    assert parse_formula("CONTROLS(1, p)", sig) == second_order_controls("1", P, sig)


# --- program parsing -------------------------------------------------------

def test_parse_sequence():
    got = parse_program("give(1,p,2) ; give(2,r,1)")
    assert got == Seq(Give("1", "p", "2"), Give("2", "r", "1"))


def test_parse_skip_and_fail():
    assert parse_program("skip") == Test(TOP)
    assert parse_program("fail") == Test(bottom())


def test_parse_test_forms():
    assert parse_program("(p)?") == Test(P)
    assert parse_program("test(p)") == Test(P)
    assert parse_program("(p & q)?") == Test(conj(P, Q))


def test_parenthesized_groups_golden():
    assert parse_program("((p) | q)?") == Test(Or(P, Q))
    assert parse_program("((p)?; skip)") == Seq(Test(P), Test(TOP))
    assert parse_program("((p))?") == Test(P)
    assert parse_program("(((give(1,p,2))))*") == Star(Give("1", "p", "2"))
    assert parse_program("((<((p)?)*>q) -> r)?") == Test(implies(DiaProg(Star(Test(P)), Q), R))
    with pytest.raises(ParseError):
        parse_program("(p)")


def test_nested_groups_parse_in_linear_time(monkeypatch):
    calls = 0
    base = syntax._Parser.base

    def counting_base(parser):
        nonlocal calls
        calls += 1
        return base(parser)

    monkeypatch.setattr(syntax._Parser, "base", counting_base)
    for levels in (10, 14, 40):
        text = "skip"
        for _ in range(levels):
            text = f"((<{text}>true)?; skip)"
        calls = 0
        parse_program(text)
        # a parser that backtracks at "(" doubles the count per level
        assert calls <= 4 * levels, (levels, calls)


def test_choice_binds_weaker_than_seq():
    a, b, c, d = (Give("1", "p", "2"), Give("2", "p", "1"),
                  Give("1", "q", "2"), Give("2", "q", "1"))
    got = parse_program("give(1,p,2); give(2,p,1) + give(1,q,2); give(2,q,1)")
    assert got == Choice(Seq(a, b), Seq(c, d))


def test_star_is_postfix_on_base():
    g = Give("1", "p", "2")
    assert parse_program("give(1,p,2)*") == Star(g)
    assert parse_program("(give(1,p,2); skip)*") == Star(Seq(g, Test(TOP)))


def test_while_expansion_is_mechanical():
    cond = parse_formula("~dia{j}(f)")
    body = Choice(Give("i", "p", "j"), Give("i", "q", "j"))
    got = parse_program("while ~dia{j}(f) do (give(i,p,j) + give(i,q,j))")
    assert got == Seq(Star(Seq(Test(cond), body)), Test(Not(cond)))


def test_if_expansion():
    got = parse_program("if p then give(1,p,2) else skip")
    assert got == Choice(Seq(Test(P), Give("1", "p", "2")),
                         Seq(Test(Not(P)), Test(TOP)))


def test_repeat_expansion():
    body = Give("1", "p", "2")
    got = parse_program("repeat give(1,p,2) until q")
    assert got == Seq(Seq(body, Star(Seq(Test(Not(Q)), body))), Test(Q))


def test_giveall_single_agent_expansion():
    sig = Signature(("i", "j"), ("p",))
    got = parse_program("giveall(i)", sig)
    want = Choice(Give("i", "p", "i"), Give("i", "p", "j"))
    assert got == want
    assert got == give_program({"i"}, sig.agents, sig)


def test_giveall_coalition_form():
    sig = Signature(("1", "2", "3"), ("p",))
    got = parse_program("giveall({1,2} -> {3})", sig)
    assert got == give_program({"1", "2"}, {"3"}, sig)


def test_unknown_agent_in_signature_sugar_is_signature_error():
    sig = Signature(("1", "2"), ("p",))
    for text in ("CONTROLS(zz, p)", "<giveall(zz)>p", "<giveall({1} -> {zz})>p"):
        with pytest.raises(SignatureError, match="unknown agent 'zz'"):
            parse_formula(text, sig)


def test_giveall_requires_signature():
    with pytest.raises(ParseError):
        parse_program("giveall(1)")


def test_give_program_rejects_empty_coalition():
    sig = Signature(("1", "2"), ("p",))
    with pytest.raises(SignatureError):
        give_program(set(), {"1"}, sig)


# --- derived connectives ---------------------------------------------------

def test_nabla_structure_two_formulas():
    assert nabla([P, Q]) == conj(Or(P, Q), Not(conj(P, Q)))


def test_nabla_single_formula_is_identity():
    assert nabla([P]) == P


def test_nabla_pairwise_count():
    out = nabla([P, Q, R])
    # disjunction part plus 3 pairwise exclusions
    assert out == conj(Or(Or(P, Q), R),
                       conj(conj(Not(conj(P, Q)), Not(conj(P, R))),
                            Not(conj(Q, R))))


# --- signature extraction --------------------------------------------------

def test_signature_of_counts_program_atoms():
    f = parse_formula("<give(i,p,j)>true")
    assert signature_of(f) == (frozenset({"p"}), frozenset({"i", "j"}))


def test_signature_of_top_is_empty():
    assert signature_of(TOP) == (frozenset(), frozenset())


def test_signature_of_walks_coalitions():
    f = parse_formula("dia{1,2}(p & r & ~q)")
    assert signature_of(f) == (frozenset({"p", "q", "r"}), frozenset({"1", "2"}))


def test_signature_of_walks_shared_nodes_once():
    # 60 doublings: 61 distinct nodes, 2**60 root-to-leaf paths
    f = DiaProg(Give("i", "p", "j"), Dia(frozenset({"1"}), Q))
    for _ in range(60):
        f = Or(f, f)
    assert signature_of(f) == (frozenset({"p", "q"}), frozenset({"1", "i", "j"}))
    # <-> sugar uses each operand twice
    chain = parse_formula(" <-> ".join(f"p{i}" for i in range(18)))
    assert signature_of(chain) == (frozenset(f"p{i}" for i in range(18)), frozenset())


def two_pass_walk(node):
    """The node walk as two passes, kept as the reference: each node comes
    off the stack twice and is listed the second time, then a second loop
    over the list collects the names."""
    out, done, stack = [], {}, [node]  # done: visited node -> whether it is in ``out``
    while stack:
        cur = stack.pop()
        state = done.get(id(cur))
        if state is None:
            children = syntax.CHILDREN.get(type(cur))
            if children is None:
                raise TypeError(f"not a formula or program: {cur!r}")
            done[id(cur)] = False
            stack.append(cur)
            stack.extend(children(cur))
        elif not state:
            done[id(cur)] = True
            out.append(cur)
    props, agents = set(), set()
    for n in out:
        if type(n) is Atom:
            props.add(n.name)
        elif type(n) is Dia:
            agents.update(n.coalition)
        elif type(n) is Give:
            agents.update((n.giver, n.receiver))
            props.add(n.var)
    return out, frozenset(props), frozenset(agents)


def shared_nodes(rng, sig, steps):
    """Random formulas and programs, then ``steps`` more, each built over
    nodes drawn from those made so far, so subtrees are shared."""
    formulas = [random_formula(rng, sig, 2) for _ in range(3)]
    programs = [random_program(rng, sig, 2) for _ in range(3)]
    for _ in range(steps):
        f, g = rng.choice(formulas), rng.choice(formulas)
        p, q = rng.choice(programs), rng.choice(programs)
        formulas.append(rng.choice([Or(f, g), Not(f), Dia(random_coalition(rng, sig), f),
                                    DiaProg(p, g)]))
        programs.append(rng.choice([Seq(p, q), Choice(p, q), Star(p), Test(f)]))
    return formulas + programs


def test_one_pass_walk_lists_what_the_two_pass_walk_lists():
    sig = Signature(("1", "2"), ("p", "q"))
    rng = random.Random(15)
    nodes = [*formula_pool(sig, 10**6, depth=3), *shared_nodes(rng, sig, 60),
             parse_formula(" <-> ".join(f"p{i}" for i in range(18))),
             parse_formula(" | ".join(f"p{i}" for i in range(2000)))]  # no recursion
    kinds = set()
    for node in nodes:  # ids, not nodes, in the asserts: a chain's repr is exponential
        listed, props, agents = two_pass_walk(node)
        walked, walked_props, walked_agents = syntax._walk(node)
        ids, named = [id(n) for n in listed], signature_of(node)
        assert [id(n) for n in walked] == ids
        assert [id(n) for n in postorder(node)] == ids
        assert (walked_props, walked_agents) == (props, agents) == named
        kinds.update(type(n) for n in walked)
    assert kinds == set(syntax.CHILDREN)  # so a kind the walk skips would show above
    for bad in (Or(TOP, 3), Seq(Give("1", "p", "2"), "x"), Not(Dia({"1"}, [P]))):
        with pytest.raises(TypeError) as expected:
            two_pass_walk(bad)
        with pytest.raises(TypeError) as got:
            syntax._walk(bad)
        assert str(got.value) == str(expected.value)


def test_walk_refuses_what_is_not_a_node():
    with pytest.raises(TypeError):
        postorder(42)
    with pytest.raises(TypeError):
        signature_of(Not(3))


# --- rendering -------------------------------------------------------------

def test_render_goldens():
    assert render(Dia(frozenset({"1"}), Not(R))) == "dia{1}(~r)"
    assert render(Seq(Give("1", "p", "2"), Give("2", "r", "1"))) == "give(1,p,2); give(2,r,1)"
    assert render(Star(Test(TOP))) == "skip*"


def test_render_preserves_program_grouping():
    right_nested = Choice(Give("1", "p", "2"), Choice(Give("2", "p", "1"), Test(TOP)))
    text = render(right_nested)
    assert parse_program(text) == right_nested


def test_render_long_chains():
    for text, parse in ((" | ".join(["p"] * 3000), parse_formula),
                        ("; ".join(["give(1,p,2)"] * 3000), parse_program),
                        (" + ".join(["skip"] * 3000), parse_program),
                        ("~" * 3000 + "p", parse_formula),
                        ("skip" + "*" * 3000, parse_program)):
        node = parse(text)
        assert render(node) == text
        assert parse(render(node)) == node


def test_hash_and_eq_are_linear_on_shared_sugar():
    # Each "<->" uses both operands twice, so the tree grows fourfold per two
    # operands while the parse has a few hundred node objects.
    text = " <-> ".join(f"p{i}" for i in range(22))
    left, right, other = (parse_formula(t) for t in (text, text, text.replace("p21", "q")))
    start = time.perf_counter()
    assert left == right and left != other  # before any hash is cached
    assert hash(left) == hash(right)
    assert {left, right, other} == {left, other}
    assert time.perf_counter() - start < 0.5


_names = st.sampled_from(["p", "q", "r"])
_agents = st.sampled_from(["1", "2", "a"])

_formulas = st.deferred(
    lambda: st.one_of(
        st.just(TOP),
        st.builds(Atom, _names),
        st.builds(Not, _formulas),
        st.builds(Or, _formulas, _formulas),
        st.builds(Dia, st.frozensets(_agents, max_size=3), _formulas),
        st.builds(DiaProg, _programs, _formulas),
    )
)
_programs = st.deferred(
    lambda: st.one_of(
        st.builds(Give, _agents, _names, _agents),
        st.builds(Seq, _programs, _programs),
        st.builds(Choice, _programs, _programs),
        st.builds(Star, _programs),
        st.builds(Test, _formulas),
    )
)


@settings(max_examples=300, deadline=None)
@given(_formulas)
def test_formula_render_round_trip(f):
    assert parse_formula(render(f)) == f


@settings(max_examples=300, deadline=None)
@given(_programs)
def test_program_render_round_trip(p):
    assert parse_program(render(p)) == p


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="pq12 dia{}()<>~&|;+*?-truewhilegivecontrols,[]", max_size=40))
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises the positioned error, nothing else
    for parse in (parse_formula, parse_program):
        try:
            parse(text)
        except ParseError:
            pass


# --- model files -----------------------------------------------------------

MODEL = """\
# comment line
agents: 1 2
vars: p q r
owns 1: p q   # trailing comment
owns 2: r
true: p q
"""


def test_parse_model_golden():
    m = parse_model(MODEL)
    assert m.sig == Signature(("1", "2"), ("p", "q", "r"))
    assert m.alloc.owned_by("1") == ("p", "q")
    assert m.alloc.owned_by("2") == ("r",)
    assert m.val.value("p") and m.val.value("q") and not m.val.value("r")


def test_parse_model_empty_true_line():
    m = parse_model("agents: a\nvars: p\nowns a: p\ntrue:\n")
    assert not m.val.value("p")


def test_parse_model_doubly_owned_is_error():
    bad = "agents: 1 2\nvars: p\nowns 1: p\nowns 2: p\ntrue:\n"
    with pytest.raises(ParseError, match="owned twice"):
        parse_model(bad)


def test_parse_model_unowned_is_error():
    bad = "agents: 1\nvars: p q\nowns 1: p\ntrue:\n"
    with pytest.raises(ParseError, match="unowned"):
        parse_model(bad)


def test_parse_model_unknown_true_var_is_error():
    bad = "agents: 1\nvars: p\nowns 1: p\ntrue: z\n"
    with pytest.raises(ParseError, match="unknown variable"):
        parse_model(bad)


def test_parse_model_empty_agents_is_error():
    bad = "agents:\nvars: p\nowns 1: p\ntrue:\n"
    with pytest.raises(ParseError):
        parse_model(bad)


_MODEL_REFUSALS = [
    # (text, message, line); every refusal is reported at column 1
    ("agents: 1 2x-\nvars: p\n", "bad identifier '2x-'", 1),
    ("agents: 1\nvars p\n", "expected 'keyword: ...', got 'vars p'", 2),
    ("agents: 1\nagents: 2\n", "duplicate agents line", 2),
    ("agents: 1\nagents: 2-\n", "duplicate agents line", 2),
    ("vars: p\n# gap\nvars: q\n", "duplicate vars line", 3),
    ("true: p\ntrue:\n", "duplicate true line", 2),
    ("owns 1: p\nowns 1: q\n", "duplicate owns line for agent '1'", 2),
    ("owns 1-2: p\n", "bad agent name '1-2' in owns line", 1),
    ("agents: 1\nowners 1: p\n", "unknown line kind 'owners 1'", 2),
    ("agents: 1\nowns1: p\n", "unknown line kind 'owns1'", 2),
    ("vars: p\nowns 1: p\ntrue:\n", "model needs a non-empty agents line", 1),
    ("agents: 1\nvars:\nowns 1: p\ntrue:\n", "model needs a non-empty vars line", 1),
    ("agents: 1\nowns 1: p\ntrue:\n", "model needs a non-empty vars line", 1),
    ("agents:\nvars:\n", "model needs a non-empty agents line", 1),
    ("agents: 1\nvars: p\nowns 1: p\n", "model needs a true line (possibly empty)", 1),
    ("agents: 1\nvars: p\nowns 2: p\ntrue:\n", "owns entry for unknown agent '2'", 1),
]


@pytest.mark.parametrize("text, message, line", _MODEL_REFUSALS)
def test_parse_model_refusals(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, 1)
