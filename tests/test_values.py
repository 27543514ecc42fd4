"""Value semantics of the immutable value classes: repr, structural equality
and hashing, frozen fields, and the constructors' keywords, defaults,
conversions and checks."""

import copy
import dataclasses
import pickle
import time

import pytest

from propctl.axioms import Budget, Scheme, SchemeResult, SuiteContext
from propctl import model
from propctl.kripke import PointedKripkeModel
from propctl.model import (
    Allocation,
    CValuation,
    DirectModel,
    Signature,
    SignatureError,
    Valuation,
)
from propctl.normalform import NormalForm
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
    Test,
    TOP,
)


def samples() -> list:
    """One fresh instance of every value class."""
    p, q = Atom("p"), Atom("q")
    sig = Signature(("2", "1"), ("q", "p"))
    alloc, val = Allocation(sig, (0, 1)), Valuation(sig, 2)
    g = Give("1", "p", "2")
    return [TOP, p, Not(p), Or(p, q), Dia(["1", "1"], p), DiaProg(g, q), g, Seq(g, g),
            Choice(g, Test(p)), Star(g), Test(TOP), sig, alloc, val,
            DirectModel(sig, alloc, val), CValuation({"1"}, ["p"], {"p"}),
            NormalForm(sig, (1, 2, 3, 0)), PointedKripkeModel(sig, alloc, val),
            Budget(**{"per_scheme": 5}), SuiteContext(sig, (TOP, p), (p,), (g,)),
            Scheme("k", len), SchemeResult("k", 3, True)]


_SIG = "Signature(agents=('1', '2'), vars=('p', 'q'))"
_ALLOC = f"Allocation(sig={_SIG}, owners=(0, 1))"
_VAL = f"Valuation(sig={_SIG}, bits=2)"
_GIVE = "Give(giver='1', var='p', receiver='2')"

# The reprs the dataclass versions of these classes printed.
REPRS = [
    "Top()",
    "Atom(name='p')",
    "Not(body=Atom(name='p'))",
    "Or(left=Atom(name='p'), right=Atom(name='q'))",
    "Dia(coalition=frozenset({'1'}), body=Atom(name='p'))",
    f"DiaProg(program={_GIVE}, body=Atom(name='q'))",
    _GIVE,
    f"Seq(first={_GIVE}, second={_GIVE})",
    f"Choice(left={_GIVE}, right=Test(condition=Atom(name='p')))",
    f"Star(body={_GIVE})",
    "Test(condition=Top())",
    _SIG,
    _ALLOC,
    _VAL,
    f"DirectModel(sig={_SIG}, alloc={_ALLOC}, val={_VAL})",
    "CValuation(coalition=frozenset({'1'}), domain=frozenset({'p'}), "
    "true_vars=frozenset({'p'}))",
    f"NormalForm(sig={_SIG}, rows=(1, 2, 3, 0))",
    f"PointedKripkeModel(sig={_SIG}, alloc={_ALLOC}, world={_VAL})",
    "Budget(formula_limit=24, objective_limit=16, program_limit=12, per_scheme=5, "
    "formula_depth=2)",
    f"SuiteContext(sig={_SIG}, formulas=(Top(), Atom(name='p')), "
    f"objectives=(Atom(name='p'),), programs=({_GIVE},))",
    "Scheme(name='k', instances=<built-in function len>)",
    "SchemeResult(name='k', checked=3, truncated=True, counterexample=None, refused=None)",
]


def test_repr_of_every_class():
    assert [repr(value) for value in samples()] == REPRS


def test_repr_of_deep_or_shared_values_is_bounded():
    # a 60-fold doubling has 2^60 paths, and 3,000 nested negations are
    # deeper than the interpreter's recursion limit
    doubled, nested = Atom("p"), Atom("p")
    for _ in range(60):
        doubled = Or(doubled, doubled)
    for _ in range(3000):
        nested = Not(nested)
    for value, whole in ((doubled, False), (nested, True)):
        start = time.perf_counter()
        text = repr(value)
        assert time.perf_counter() - start < 1
        assert len(text) <= model._REPR_LIMIT + 3
        assert text.endswith(")" * 3001 if whole else "...")


def test_repr_through_a_tuple_of_values_is_bounded_in_time():
    # the builtin tuple repr would write each copy's capped text first
    doubled = Atom("p")
    for _ in range(60):
        doubled = Or(doubled, doubled)
    ctx = SuiteContext(Signature(("1",), ("p",)), (doubled,) * 200, (), ())
    start = time.perf_counter()
    text = repr(ctx)
    assert time.perf_counter() - start < 0.25
    assert len(text) <= model._REPR_LIMIT + 3
    assert text.startswith("SuiteContext(sig=Signature(agents=('1',), vars=('p',)), "
                           "formulas=(Or(left=Or(") and text.endswith("...")
    nested = SuiteContext(ctx.sig, (TOP, (1, "a", (2,)), ()), (Atom("q"),), ())
    assert repr(nested) == ("SuiteContext(sig=Signature(agents=('1',), vars=('p',)), "
                            "formulas=(Top(), (1, 'a', (2,)), ()), "
                            "objectives=(Atom(name='q'),), programs=())")


def test_equal_fields_are_equal_with_equal_hashes():
    for value, twin in zip(samples(), samples()):
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)


def test_kinds_differ_even_with_the_same_fields():
    p, q = Atom("p"), Atom("q")
    assert Or(p, q) != Choice(p, q)
    assert Not(p) != Star(p) and Not(p) != Test(p)
    sig = Signature(("1",), ("p",))
    alloc, val = Allocation.from_index(sig, 0), Valuation(sig, 1)
    assert DirectModel(sig, alloc, val) != PointedKripkeModel(sig, alloc, val)
    assert Or(p, q) != Or(q, p) and Dia({"1"}, p) != Dia({"2"}, p)


def test_fields_cannot_be_assigned_or_deleted():
    for value in samples():
        for name in [f.name for f in dataclasses.fields(value)]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_keywords_and_defaults():
    assert Budget(**{"per_scheme": 5}) == Budget(24, 16, 12, 5, 2)
    assert Budget().per_scheme == 300
    assert Or(right=Atom("q"), left=Atom("p")) == Or(Atom("p"), Atom("q"))
    assert SchemeResult("k", 1, False).counterexample is None
    with pytest.raises(TypeError):
        Or(Atom("p"))


def test_constructors_convert_and_check():
    coalition = Dia(["b", "a", "a"], TOP).coalition
    assert type(coalition) is frozenset and coalition == {"a", "b"}
    cval = CValuation(["1"], ["p", "q"], ["p"])
    assert all(type(part) is frozenset for part in (cval.coalition, cval.domain, cval.true_vars))
    with pytest.raises(SignatureError, match="outside its domain"):
        CValuation(["1"], ["p"], ["q"])
    sig = Signature(("b", "a", "b"), ["q", "p"])
    assert (sig.agents, sig.vars) == (("a", "b"), ("p", "q"))
    assert sig.agent_index == {"a": 0, "b": 1} and sig.var_index == {"p": 0, "q": 1}
    assert sig == Signature(("a", "b"), ("p", "q"))
    for agents, variables, message in (((), ("p",), "at least one agent"),
                                       (("a",), (), "at least one variable"),
                                       (("a",), ("p-q",), "bad identifier")):
        with pytest.raises(SignatureError, match=message):
            Signature(agents, variables)
    with pytest.raises(SignatureError, match="every variable"):
        Allocation(sig, (0,))
    with pytest.raises(SignatureError, match="unknown agent"):
        Allocation(sig, (0, 2))
    with pytest.raises(SignatureError, match="out of range"):
        Valuation(sig, 4)


def test_copy_pickle_and_dataclass_fields():
    for value in samples():
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    # Introspection through dataclasses, as the dataclass versions allowed.
    assert [f.name for f in dataclasses.fields(Or(TOP, TOP))] == ["left", "right"]
    assert [f.name for f in dataclasses.fields(Signature)] == ["agents", "vars"]
    assert dataclasses.replace(Atom("p"), name="q") == Atom("q")
