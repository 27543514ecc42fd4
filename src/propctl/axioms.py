"""Executable soundness suite: validity schemes checked by enumeration.

Each scheme is a row of one table: the pools its variables range over and
a template that builds the closed instances of each combination.  Every
instance is checked for validity over all models of the signature; the
first counterexample, if any, is reported together with the falsifying
model.  Schemes whose instance space exceeds the per-scheme budget are
truncated and flagged, never silently skipped.  A scheme with an instance
too large to tabulate is refused at that instance and flagged with the
refusal, and the other schemes are still checked.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .decision import counterexample
from .model import Signature, SignatureError, Value, serialize_model
from .syntax import (
    Atom,
    Choice,
    Dia,
    DiaProg,
    Formula,
    Give,
    Not,
    Or,
    Program,
    Seq,
    Star,
    Test,
    TOP,
    bottom,
    box,
    box_prog,
    conj,
    conj_all,
    controls,
    give_program,
    iff,
    implies,
    nabla,
    render,
    signature_of,
)


class Budget(Value):
    """Instantiation limits for the suite."""

    __slots__ = ("formula_limit", "objective_limit", "program_limit", "per_scheme",
                 "formula_depth")
    _defaults = (24, 16, 12, 300, 2)


class SuiteContext(Value):
    """The signature and the pools of formulas, objective formulas and
    programs that schemes instantiate."""

    __slots__ = ("sig", "formulas", "objectives", "programs")

    @property
    def agents(self) -> tuple[str, ...]:
        return self.sig.agents

    @property
    def vars(self) -> tuple[str, ...]:
        return self.sig.vars


def _dedup(items: Iterable, limit: int) -> tuple:
    """The first ``limit`` distinct items, in order.  Reads no item past the
    last one it takes, so a pool built lazily stops growing there."""
    seen: set = set()
    fresh = (item for item in items if item not in seen and not seen.add(item))
    return tuple(itertools.islice(fresh, limit))


def _padding(items: list, limit: int) -> Iterator[Formula]:
    """Disjunctions of pairs of the items, in order: enough to make
    ``3 * limit`` items in all, and at least one."""
    pairs = itertools.product(items, repeat=2)
    return itertools.starmap(Or, itertools.islice(pairs, max(1, 3 * limit - len(items))))


def formula_pool(sig: Signature, limit: int, depth: int = 2) -> tuple[Formula, ...]:
    """Deterministic, structurally diverse formulas up to the given modal depth."""
    a0, a1 = sig.agents[0], sig.agents[-1]
    p0, p1 = Atom(sig.vars[0]), Atom(sig.vars[-1])
    g = Give(a0, sig.vars[0], a1)
    everyone = frozenset(sig.agents)
    items = [
        TOP,
        p0,
        p1,
        Not(p0),
        bottom(),
        Or(p0, Not(p1)),
        conj(p0, p1),
        Dia(frozenset(), p0),
        Dia(frozenset({a0}), conj(p0, Not(p1))),
        box(frozenset({a1}), Or(p0, p1)),
        controls({a0}, p1),
        DiaProg(g, TOP),
        DiaProg(g, Dia(frozenset({a1}), p0)),
        box_prog(g, Not(p1)),
        DiaProg(Star(g), controls({a1}, p0)),
        Or(Dia(frozenset({a0}), p0), Not(Dia(everyone, p1))),
        implies(p0, Dia(frozenset({a1}), p1)),
        Not(DiaProg(Test(p0), p1)),
        Dia(everyone, Or(p0, Not(p0))),
        conj(controls({a0}, p0), Not(controls({a1}, p0))),
    ]

    def grown():  # read by ``_dedup`` only until it has ``limit`` formulas
        # Each extra depth level wraps the most recent layer in one more modality.
        layer = list(items)
        yield from layer
        for _ in range(max(0, depth - 2)):
            layer = [Dia(frozenset({a0}), f) for f in layer[:6]] + \
                    [box_prog(g, f) for f in layer[:3]]
            items.extend(layer)
            yield from layer
        yield from _padding(items, limit)  # fresh disjunctions, if the limit asks for more

    return _dedup(grown(), limit)


def objective_pool(sig: Signature, limit: int) -> tuple[Formula, ...]:
    atoms = [Atom(p) for p in sig.vars]
    items: list[Formula] = [TOP, bottom()]
    items.extend(atoms)
    items.extend(Not(a) for a in atoms)
    items.append(Or(atoms[0], Not(atoms[-1])))
    items.append(conj(atoms[0], atoms[-1]))
    items.append(implies(atoms[0], atoms[-1]))
    items.append(Or(Not(atoms[0]), conj(atoms[0], atoms[-1])))
    return _dedup(itertools.chain(items, _padding(items, limit)), limit)


def program_pool(sig: Signature, objectives, limit: int) -> tuple[Program, ...]:
    a0, a1 = sig.agents[0], sig.agents[-1]
    p0, p1 = sig.vars[0], sig.vars[-1]
    give0 = Give(a0, p0, a1)
    give_back = Give(a1, p0, a0)
    items = [
        give0,
        give_back,
        Give(a0, p1, a0),
        Test(TOP),
        Test(objectives[2] if len(objectives) > 2 else TOP),
        Seq(Test(Atom(p0)), give0),
        Choice(give0, Give(a0, p1, a1)),
        Seq(give0, give_back),
        Star(give0),
        Star(Choice(give0, give_back)),
        give_program({a0}, sig.agents, sig),
    ]
    return _dedup(items, limit)


def make_context(sig: Signature, budget: Budget | None = None) -> SuiteContext:
    budget = budget or Budget()
    objectives = objective_pool(sig, budget.objective_limit)
    return SuiteContext(
        sig=sig,
        formulas=formula_pool(sig, budget.formula_limit, budget.formula_depth),
        objectives=objectives,
        programs=program_pool(sig, objectives, budget.program_limit),
    )


# ---------------------------------------------------------------------------
# Scheme definitions.

class Scheme(Value):
    """A named generator of instances: ``instances(ctx)`` yields formulas."""

    __slots__ = ("name", "instances")


def allocation_axiom(sig: Signature) -> Formula:
    """Every variable is controlled by exactly one agent."""
    return conj_all(
        nabla(controls({i}, Atom(p)) for i in sig.agents)
        for p in sig.vars
    )


def _literals(ctx: SuiteContext):
    """Each literal, its complement, and its atom."""
    for p in ctx.vars:
        atom, other = Atom(p), Atom(p)
        yield atom, Not(other), atom
        yield Not(atom), other, atom


#: What a scheme's variables range over, by name.
_POOLS = {
    "sig": lambda ctx: (ctx.sig,),
    "agents": lambda ctx: ctx.agents,
    "vars": lambda ctx: ctx.vars,
    "formulas": lambda ctx: ctx.formulas,
    "objectives": lambda ctx: ctx.objectives,
    "programs": lambda ctx: ctx.programs,
    "moves": lambda ctx: (Give(i, p, j) for i, p, j in
                          itertools.product(ctx.agents, ctx.vars, ctx.agents)),
    "coalitions": lambda ctx: (frozenset(c) for r in range(len(ctx.agents) + 1)
                               for c in itertools.combinations(ctx.agents, r)),
    "literals": _literals,
}


def _extend(combos: Iterable[tuple], pool, ctx: SuiteContext) -> Iterator[tuple]:
    """Each combination followed by each item of the pool, read anew for each
    combination and only as far as asked for: ``itertools.product`` would
    build every pool in full first, and ``coalitions`` has 2^n items."""
    return (combo + (item,) for combo in combos for item in pool(ctx))


def _scheme(name: str, pools: str, template) -> Scheme:
    """The scheme whose instances are ``template``'s, over every combination
    of the named pools in ``itertools.product`` order; a combination the
    template gives no instance for is skipped."""
    def instances(ctx: SuiteContext) -> Iterator[Formula]:
        combos: Iterable[tuple] = ((),)
        for pool in pools.split():
            combos = _extend(combos, _POOLS[pool], ctx)
        for combo in combos:
            yield from template(*combo)
    return Scheme(name, instances)


# Templates that unpack a literal triple, or skip combinations by a longer test.

def _effect(i, literal, psi):
    lit, flipped, atom = literal
    if atom.name in signature_of(psi)[0]:
        return []
    return [implies(conj_all([psi, lit, controls({i}, Atom(atom.name))]),
                    Dia(frozenset({i}), conj(psi, flipped)))]


def _flip_own_literal(i, literal):
    lit, flipped, atom = literal
    return [implies(conj(lit, controls({i}, atom)), Dia(frozenset({i}), flipped))]


def _outsider_fixed_literal(i, j, literal):
    lit, flipped, _ = literal
    return [] if i == j else [implies(lit, implies(Dia(frozenset({i}), flipped), box({j}, lit)))]


def _non_effect(i, literal):
    lit, _, atom = literal
    return [implies(conj(Dia(frozenset({i}), lit), Not(controls({i}, atom))), box({i}, lit))]


def _commute_transfers(first, second, f):
    # Transfers of one variable need not commute when one hands it to the other's giver.
    if first.var == second.var and (first.receiver == second.giver
                                    or first.giver == second.receiver):
        return []
    return [iff(box_prog(first, box_prog(second, f)), box_prog(second, box_prog(first, f)))]


#: Validity schemes: the base system first, derived consequences after.
#: Each row: name, the pools its variables range over, and its template.
SCHEMES: tuple[Scheme, ...] = tuple(itertools.starmap(_scheme, [
    ("prop-tautology", "objectives objectives", lambda f, g: [
        Or(f, Not(f)),
        Not(conj(f, Not(f))),
        implies(f, implies(g, f)),
        implies(conj(f, g), f),
        implies(implies(implies(f, g), f), f),
        iff(Not(Not(f)), f),
    ]),
    ("k-program", "programs formulas formulas", lambda t, f, g: [
        implies(box_prog(t, implies(f, g)), implies(box_prog(t, f), box_prog(t, g)))]),
    ("union-program", "programs programs formulas", lambda t1, t2, f: [
        iff(box_prog(Choice(t1, t2), f), conj(box_prog(t1, f), box_prog(t2, f)))]),
    ("comp-program", "programs programs formulas", lambda t1, t2, f: [
        iff(box_prog(Seq(t1, t2), f), box_prog(t1, box_prog(t2, f)))]),
    ("test-program", "formulas formulas", lambda f, g: [
        iff(box_prog(Test(f), g), implies(f, g))]),
    ("mix-star", "programs formulas", lambda t, f: [
        iff(conj(f, box_prog(t, box_prog(Star(t), f))), box_prog(Star(t), f))]),
    ("ind-star", "programs formulas", lambda t, f: [
        implies(conj(f, box_prog(Star(t), implies(f, box_prog(t, f)))), box_prog(Star(t), f))]),
    ("k-agent", "agents formulas formulas", lambda i, f, g: [
        implies(box({i}, implies(f, g)), implies(box({i}, f), box({i}, g)))]),
    ("t-agent", "agents formulas", lambda i, f: [implies(box({i}, f), f)]),
    ("b-agent", "agents formulas", lambda i, f: [implies(f, box({i}, Dia(frozenset({i}), f)))]),
    ("empty-coalition", "formulas", lambda f: [iff(box(frozenset(), f), f)]),
    ("atom-control", "agents vars", lambda i, p: [
        iff(controls({i}, Atom(p)),
            conj(Dia(frozenset({i}), Atom(p)), Dia(frozenset({i}), Not(Atom(p)))))]),
    ("allocation-partition", "sig", lambda sig: [allocation_axiom(sig)]),
    ("effect", "agents literals objectives", _effect),
    ("coalition-composition", "coalitions coalitions formulas", lambda c1, c2, f: [
        iff(box(c1, box(c2, f)), box(c1 | c2, f))]),
    ("value-permanence", "moves vars", lambda move, q: [
        implies(DiaProg(move, TOP), iff(box_prog(move, Atom(q)), Atom(q)))]),
    ("control-persistence-valuation", "agents vars agents", lambda i, p, j: [
        implies(controls({i}, Atom(p)), box({j}, controls({i}, Atom(p))))]),
    ("control-persistence-transfer", "agents vars agents vars agents", lambda i, p, j, q, h:
        [] if i == j and p == q else
        [implies(controls({i}, Atom(p)), box_prog(Give(j, q, h), controls({i}, Atom(p))))]),
    ("transfer-precondition", "agents vars agents", lambda i, p, j: [
        implies(DiaProg(Give(i, p, j), TOP), controls({i}, Atom(p)))]),
    ("transfer-grants-control", "agents vars agents", lambda i, p, j: [
        implies(controls({i}, Atom(p)), DiaProg(Give(i, p, j), controls({j}, Atom(p))))]),
    ("transfer-functional", "moves formulas", lambda move, f: [
        implies(controls({move.giver}, Atom(move.var)),
                iff(DiaProg(move, f), box_prog(move, f)))]),
    ("flip-own-literal", "agents literals", _flip_own_literal),
    ("outsider-fixed-literal", "agents agents literals", _outsider_fixed_literal),
    ("non-effect", "agents literals", _non_effect),
    ("non-control-persistence", "agents vars agents", lambda i, p, j: [
        iff(Not(controls({i}, Atom(p))), box({j}, Not(controls({i}, Atom(p)))))]),
    ("objective-permanence-atomic", "moves objectives", lambda move, f: [
        implies(DiaProg(move, TOP), iff(f, box_prog(move, f)))]),
    ("objective-permanence", "programs objectives", lambda t, f: [
        implies(DiaProg(t, TOP), iff(f, box_prog(t, f)))]),
    ("round-trip-transfer", "agents vars agents formulas", lambda i, p, j, f: [
        implies(controls({i}, Atom(p)), iff(f, box_prog(Seq(Give(i, p, j), Give(j, p, i)), f)))]),
    ("commute-transfers", "moves moves formulas", _commute_transfers),
]))


class SchemeResult(Value):
    """Instances checked, whether the budget cut the scheme off, the first
    (instance, falsifying model), if any, and the message of the refusal
    that stopped the scheme, if any.  ``ok`` says that no instance checked
    is falsified."""

    __slots__ = ("name", "checked", "truncated", "counterexample", "refused")
    _defaults = (None, None)

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def line(self) -> str:
        if self.refused is not None:
            return f"{self.name}: refused after {self.checked} instance(s): {self.refused}"
        status = "ok" if self.ok else "COUNTEREXAMPLE"
        note = " (truncated)" if self.truncated else ""
        out = f"{self.name}: {status}, {self.checked} instance(s){note}"
        if self.counterexample is not None:
            inst, model = self.counterexample
            out += f"\n  instance: {render(inst)}\n" + _indent(serialize_model(model))
        return out


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.rstrip("\n").split("\n"))


class SuiteReport(Value):
    __slots__ = ("sig", "results")

    def __init__(self, sig: Signature, results: list[SchemeResult] | None = None) -> None:
        self._assign(sig, [] if results is None else results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        header = (f"signature: agents {', '.join(self.sig.agents)}; "
                  f"vars {', '.join(self.sig.vars)}")
        return [header] + [r.line() for r in self.results]


def check_scheme(scheme: Scheme, ctx: SuiteContext, per_scheme: int) -> SchemeResult:
    checked = 0
    truncated = False
    found = refused = None
    for instance in scheme.instances(ctx):
        if checked >= per_scheme:
            truncated = True
            break
        try:
            model = counterexample(instance, ctx.sig)
        except SignatureError as err:  # too large to tabulate
            refused = str(err)
            break
        checked += 1
        if model is not None:
            found = (instance, model)
            break
    return SchemeResult(scheme.name, checked, truncated, found, refused)


def axiom_suite(sig: Signature, budget: Budget | None = None) -> SuiteReport:
    """Check every scheme over the signature within the budget."""
    budget = budget or Budget()
    ctx = make_context(sig, budget)
    report = SuiteReport(sig)
    for scheme in SCHEMES:
        report.results.append(check_scheme(scheme, ctx, budget.per_scheme))
    return report
