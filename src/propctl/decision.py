"""Satisfiability and validity by small-model enumeration.

A satisfiable formula has a model built from exactly the variables and
agents it mentions plus one extra agent, so deciding it means enumerating
the finitely many models of that signature.  Validity is unsatisfiability
of the negation and is always relative to a signature; results name the
signature they were decided over.

Over a larger signature the same argument cuts the search: the tables
range over the formula's own sub-signature (see ``semantics``), and the
first witness of the larger signature, in its enumeration order, is read
off the first satisfiable allocation of the sub-signature, with the
unnamed variables false and owned by agent index 0.
"""

from __future__ import annotations

from . import semantics
from .model import DirectModel, Signature, Valuation
from .syntax import Formula, Not, signature_of


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def default_signature(formula: Formula) -> Signature:
    """Smallest search signature for the formula: its own variables and
    agents, one spare agent to absorb foreign ownership, and a spare
    variable only when the formula mentions none (signatures must be
    non-empty)."""
    props, agents = signature_of(formula)
    return Signature(tuple(agents) + (_fresh("_env", agents),), tuple(props) or ("_aux",))


def satisfiable(formula: Formula, sig: Signature | None = None) -> DirectModel | None:
    """First witness model in enumeration order, or ``None``.

    Searches the given signature, or the formula's default signature.
    """
    if sig is None:
        sig = default_signature(formula)
    tables, (table,) = semantics._tables([formula], sig)
    if not table:
        return None
    position, bits = tables.first(table)  # the first satisfying valuation of the first row
    cut = tables.reduction
    return DirectModel(sig, cut.allocation(position), Valuation(sig, cut.bits(bits)))


def valid(formula: Formula, sig: Signature | None = None) -> bool:
    """Whether the formula holds in every model of the signature (default:
    the formula's own default signature)."""
    return counterexample(formula, sig) is None


def counterexample(formula: Formula, sig: Signature | None = None) -> DirectModel | None:
    """A model falsifying the formula, or ``None`` when it is valid.  The
    negation names what the formula does, so it has the same default signature."""
    return satisfiable(Not(formula), sig)

