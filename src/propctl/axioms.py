"""Executable soundness suite: validity schemes checked by enumeration.

Each scheme is a generator of closed formula instances over a signature,
built from deterministic pools of formulas, objective formulas, and
programs.  Every instance is checked for validity over all models of the
signature; the first counterexample, if any, is reported together with the
falsifying model.  Schemes whose instance space exceeds the per-scheme
budget are truncated and flagged, never silently skipped.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .decision import counterexample
from .model import Signature, Value, serialize_model
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

    def coalitions(self) -> list[frozenset[str]]:
        out = []
        for r in range(len(self.agents) + 1):
            out.extend(frozenset(c) for c in itertools.combinations(self.agents, r))
        return out


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


def _literals(ctx: SuiteContext):
    for p in ctx.vars:
        yield Atom(p), Not(Atom(p))
        yield Not(Atom(p)), Atom(p)


def _prop_tautologies(ctx: SuiteContext) -> Iterator[Formula]:
    for f, g in itertools.product(ctx.objectives, repeat=2):
        yield Or(f, Not(f))
        yield Not(conj(f, Not(f)))
        yield implies(f, implies(g, f))
        yield implies(conj(f, g), f)
        yield implies(implies(implies(f, g), f), f)
        yield iff(Not(Not(f)), f)


def _k_program(ctx: SuiteContext) -> Iterator[Formula]:
    for t, (f, g) in itertools.product(ctx.programs, itertools.product(ctx.formulas, repeat=2)):
        yield implies(box_prog(t, implies(f, g)), implies(box_prog(t, f), box_prog(t, g)))


def _union_program(ctx: SuiteContext) -> Iterator[Formula]:
    for (t1, t2), f in itertools.product(itertools.product(ctx.programs, repeat=2), ctx.formulas):
        yield iff(box_prog(Choice(t1, t2), f), conj(box_prog(t1, f), box_prog(t2, f)))


def _comp_program(ctx: SuiteContext) -> Iterator[Formula]:
    for (t1, t2), f in itertools.product(itertools.product(ctx.programs, repeat=2), ctx.formulas):
        yield iff(box_prog(Seq(t1, t2), f), box_prog(t1, box_prog(t2, f)))


def _test_program(ctx: SuiteContext) -> Iterator[Formula]:
    for f, g in itertools.product(ctx.formulas, repeat=2):
        yield iff(box_prog(Test(f), g), implies(f, g))


def _mix_star(ctx: SuiteContext) -> Iterator[Formula]:
    for t, f in itertools.product(ctx.programs, ctx.formulas):
        yield iff(conj(f, box_prog(t, box_prog(Star(t), f))), box_prog(Star(t), f))


def _ind_star(ctx: SuiteContext) -> Iterator[Formula]:
    for t, f in itertools.product(ctx.programs, ctx.formulas):
        yield implies(conj(f, box_prog(Star(t), implies(f, box_prog(t, f)))),
                      box_prog(Star(t), f))


def _k_agent(ctx: SuiteContext) -> Iterator[Formula]:
    for i, (f, g) in itertools.product(ctx.agents, itertools.product(ctx.formulas, repeat=2)):
        yield implies(box({i}, implies(f, g)), implies(box({i}, f), box({i}, g)))


def _t_agent(ctx: SuiteContext) -> Iterator[Formula]:
    for i, f in itertools.product(ctx.agents, ctx.formulas):
        yield implies(box({i}, f), f)


def _b_agent(ctx: SuiteContext) -> Iterator[Formula]:
    for i, f in itertools.product(ctx.agents, ctx.formulas):
        yield implies(f, box({i}, Dia(frozenset({i}), f)))


def _empty_coalition(ctx: SuiteContext) -> Iterator[Formula]:
    for f in ctx.formulas:
        yield iff(box(frozenset(), f), f)


def _atom_control(ctx: SuiteContext) -> Iterator[Formula]:
    for i, p in itertools.product(ctx.agents, ctx.vars):
        yield iff(controls({i}, Atom(p)),
                  conj(Dia(frozenset({i}), Atom(p)), Dia(frozenset({i}), Not(Atom(p)))))


def allocation_axiom(sig: Signature) -> Formula:
    """Every variable is controlled by exactly one agent."""
    return conj_all(
        nabla(controls({i}, Atom(p)) for i in sig.agents)
        for p in sig.vars
    )


def _allocation(ctx: SuiteContext) -> Iterator[Formula]:
    yield allocation_axiom(ctx.sig)


def _effect(ctx: SuiteContext) -> Iterator[Formula]:
    for i, p in itertools.product(ctx.agents, ctx.vars):
        for lit, flipped in [(Atom(p), Not(Atom(p))), (Not(Atom(p)), Atom(p))]:
            for psi in ctx.objectives:
                props, _ = signature_of(psi)
                if p in props:
                    continue
                yield implies(conj_all([psi, lit, controls({i}, Atom(p))]),
                              Dia(frozenset({i}), conj(psi, flipped)))


def _comp_union(ctx: SuiteContext) -> Iterator[Formula]:
    coalitions = ctx.coalitions()
    for (c1, c2), f in itertools.product(itertools.product(coalitions, repeat=2), ctx.formulas):
        yield iff(box(c1, box(c2, f)), box(c1 | c2, f))


def _value_permanence(ctx: SuiteContext) -> Iterator[Formula]:
    for i, p, j, q in itertools.product(ctx.agents, ctx.vars, ctx.agents, ctx.vars):
        move = Give(i, p, j)
        yield implies(DiaProg(move, TOP), iff(box_prog(move, Atom(q)), Atom(q)))


def _control_persistence_valuation(ctx: SuiteContext) -> Iterator[Formula]:
    for i, p, j in itertools.product(ctx.agents, ctx.vars, ctx.agents):
        yield implies(controls({i}, Atom(p)), box({j}, controls({i}, Atom(p))))


def _control_persistence_transfer(ctx: SuiteContext) -> Iterator[Formula]:
    for i, p in itertools.product(ctx.agents, ctx.vars):
        for j, q, h in itertools.product(ctx.agents, ctx.vars, ctx.agents):
            if i == j and p == q:
                continue
            yield implies(controls({i}, Atom(p)),
                          box_prog(Give(j, q, h), controls({i}, Atom(p))))


def _transfer_precondition(ctx: SuiteContext) -> Iterator[Formula]:
    for i, p, j in itertools.product(ctx.agents, ctx.vars, ctx.agents):
        yield implies(DiaProg(Give(i, p, j), TOP), controls({i}, Atom(p)))


def _transfer_grants_control(ctx: SuiteContext) -> Iterator[Formula]:
    for i, p, j in itertools.product(ctx.agents, ctx.vars, ctx.agents):
        yield implies(controls({i}, Atom(p)),
                      DiaProg(Give(i, p, j), controls({j}, Atom(p))))


def _transfer_functional(ctx: SuiteContext) -> Iterator[Formula]:
    for (i, p, j), f in itertools.product(
            itertools.product(ctx.agents, ctx.vars, ctx.agents), ctx.formulas):
        move = Give(i, p, j)
        yield implies(controls({i}, Atom(p)),
                      iff(DiaProg(move, f), box_prog(move, f)))


def _flip_own_literal(ctx: SuiteContext) -> Iterator[Formula]:
    for i in ctx.agents:
        for lit, flipped in _literals(ctx):
            p = lit if isinstance(lit, Atom) else lit.body
            yield implies(conj(lit, controls({i}, p)), Dia(frozenset({i}), flipped))


def _outsider_fixed_literal(ctx: SuiteContext) -> Iterator[Formula]:
    for i, j in itertools.product(ctx.agents, repeat=2):
        if i == j:
            continue
        for lit, flipped in _literals(ctx):
            yield implies(lit, implies(Dia(frozenset({i}), flipped), box({j}, lit)))


def _non_effect(ctx: SuiteContext) -> Iterator[Formula]:
    for i in ctx.agents:
        for lit, _ in _literals(ctx):
            p = lit if isinstance(lit, Atom) else lit.body
            yield implies(conj(Dia(frozenset({i}), lit), Not(controls({i}, p))),
                          box({i}, lit))


def _non_control_persistence(ctx: SuiteContext) -> Iterator[Formula]:
    for i, p, j in itertools.product(ctx.agents, ctx.vars, ctx.agents):
        yield iff(Not(controls({i}, Atom(p))), box({j}, Not(controls({i}, Atom(p)))))


def _objective_permanence_atomic(ctx: SuiteContext) -> Iterator[Formula]:
    for (i, p, j), f in itertools.product(
            itertools.product(ctx.agents, ctx.vars, ctx.agents), ctx.objectives):
        move = Give(i, p, j)
        yield implies(DiaProg(move, TOP), iff(f, box_prog(move, f)))


def _objective_permanence(ctx: SuiteContext) -> Iterator[Formula]:
    for t, f in itertools.product(ctx.programs, ctx.objectives):
        yield implies(DiaProg(t, TOP), iff(f, box_prog(t, f)))


def _round_trip_transfer(ctx: SuiteContext) -> Iterator[Formula]:
    for (i, p, j), f in itertools.product(
            itertools.product(ctx.agents, ctx.vars, ctx.agents), ctx.formulas):
        there_and_back = Seq(Give(i, p, j), Give(j, p, i))
        yield implies(controls({i}, Atom(p)), iff(f, box_prog(there_and_back, f)))


def _commute_transfers(ctx: SuiteContext) -> Iterator[Formula]:
    quads = itertools.product(ctx.agents, ctx.vars, ctx.agents,
                              ctx.agents, ctx.vars, ctx.agents)
    for (i, p, j, k, q, h), f in itertools.product(quads, ctx.formulas):
        if not ((j != k and h != i) or p != q):
            continue
        first, second = Give(i, p, j), Give(k, q, h)
        yield iff(box_prog(first, box_prog(second, f)),
                  box_prog(second, box_prog(first, f)))


#: Validity schemes: the base system first, derived consequences after.
SCHEMES: tuple[Scheme, ...] = (
    Scheme("prop-tautology", _prop_tautologies),
    Scheme("k-program", _k_program),
    Scheme("union-program", _union_program),
    Scheme("comp-program", _comp_program),
    Scheme("test-program", _test_program),
    Scheme("mix-star", _mix_star),
    Scheme("ind-star", _ind_star),
    Scheme("k-agent", _k_agent),
    Scheme("t-agent", _t_agent),
    Scheme("b-agent", _b_agent),
    Scheme("empty-coalition", _empty_coalition),
    Scheme("atom-control", _atom_control),
    Scheme("allocation-partition", _allocation),
    Scheme("effect", _effect),
    Scheme("coalition-composition", _comp_union),
    Scheme("value-permanence", _value_permanence),
    Scheme("control-persistence-valuation", _control_persistence_valuation),
    Scheme("control-persistence-transfer", _control_persistence_transfer),
    Scheme("transfer-precondition", _transfer_precondition),
    Scheme("transfer-grants-control", _transfer_grants_control),
    Scheme("transfer-functional", _transfer_functional),
    Scheme("flip-own-literal", _flip_own_literal),
    Scheme("outsider-fixed-literal", _outsider_fixed_literal),
    Scheme("non-effect", _non_effect),
    Scheme("non-control-persistence", _non_control_persistence),
    Scheme("objective-permanence-atomic", _objective_permanence_atomic),
    Scheme("objective-permanence", _objective_permanence),
    Scheme("round-trip-transfer", _round_trip_transfer),
    Scheme("commute-transfers", _commute_transfers),
)


class SchemeResult(Value):
    """Instances checked, whether the budget cut the scheme off, and the
    first (instance, falsifying model), if any."""

    __slots__ = ("name", "checked", "truncated", "counterexample")
    _defaults = (None,)

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def line(self) -> str:
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
    found = None
    for instance in scheme.instances(ctx):
        if checked >= per_scheme:
            truncated = True
            break
        checked += 1
        model = counterexample(instance, ctx.sig)
        if model is not None:
            found = (instance, model)
            break
    return SchemeResult(scheme.name, checked, truncated, found)


def axiom_suite(sig: Signature, budget: Budget | None = None) -> SuiteReport:
    """Check every scheme over the signature within the budget."""
    budget = budget or Budget()
    ctx = make_context(sig, budget)
    report = SuiteReport(sig)
    for scheme in SCHEMES:
        report.results.append(check_scheme(scheme, ctx, budget.per_scheme))
    return report
