"""Semantic normal forms: per-allocation tables of satisfying valuations.

Every formula over a fixed signature is equivalent to a disjunction, over
all allocations, of "the allocation holds and the valuation is one of
these".  The table of satisfying valuations per allocation is that normal
form with the syntax stripped away; it is computed exactly over every
model, so equality of tables is exactly semantic equivalence over the
signature.

Rows are bitmasks over the canonical valuation order, indexed by the
canonical allocation order, which makes complement, union, and equality
single word operations per row.
"""

from __future__ import annotations

from . import semantics
from .model import Allocation, Signature, Valuation, Value, enumerate_allocations
from .syntax import (
    Atom,
    Formula,
    Not,
    conj,
    conj_all,
    controls,
    disj_all,
)


class NormalForm(Value):
    """Total map from allocations to their sets of satisfying valuations:
    ``rows`` holds one valuation bitmask per allocation, in canonical order."""

    __slots__ = ("sig", "rows")

    @property
    def full_row(self) -> int:
        return (1 << (1 << len(self.sig.vars))) - 1

    def satisfying(self, alloc: Allocation) -> tuple[Valuation, ...]:
        row = self.rows[alloc.index()]
        return tuple(
            Valuation(self.sig, bits)
            for bits in range(1 << len(self.sig.vars))
            if row >> bits & 1
        )


def normal_form(formula: Formula, sig: Signature) -> NormalForm:
    """The formula's truth table over every allocation of the signature."""
    return NormalForm(sig, tuple(semantics.truth_rows(formula, sig)))


def valuation_description(sig: Signature, val: Valuation) -> Formula:
    """The complete literal conjunction pinning down one valuation."""
    literals = [
        Atom(p) if val.value(p) else Not(Atom(p))
        for p in sig.vars
    ]
    return conj_all(literals)


def allocation_description(alloc: Allocation) -> Formula:
    """The controls conjunction pinning down one allocation."""
    facts = [controls({alloc.owner(p)}, Atom(p)) for p in alloc.sig.vars]
    return conj_all(facts)


def nf_to_formula(nf: NormalForm) -> Formula:
    """Rebuild a formula from the table: a disjunction over allocations of
    (satisfying valuation descriptions, conjoined with the allocation
    description).  An empty row contributes a falsum disjunct."""
    return disj_all(
        conj(disj_all(valuation_description(nf.sig, val) for val in nf.satisfying(alloc)),
             allocation_description(alloc))
        for alloc in enumerate_allocations(nf.sig)
    )


def equivalent(left: Formula, right: Formula, sig: Signature) -> bool:
    """Whether the two formulas agree on every model of the signature."""
    rows, other = semantics._rows([left, right], sig)[1]  # lifting keeps rows apart
    return rows == other

