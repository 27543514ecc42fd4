"""Satisfiability and validity by small-model enumeration.

A satisfiable formula has a model built from exactly the variables and
agents it mentions plus one extra agent, so deciding it means enumerating
the finitely many models of that signature.  Validity is unsatisfiability
of the negation and is always relative to a signature; results name the
signature they were decided over.

Over a larger signature the same argument cuts the search: unless the
signature is small enough for its whole layout, the tables range over the
part of the signature the formula names (see ``semantics._cut``), and the
first witness in enumeration order is read off the first satisfiable
position, with the unnamed variables false and owned by agent index 0.
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


def _default(props: frozenset[str], agents: frozenset[str]) -> Signature:
    """The default signature of a formula naming these variables and agents."""
    return Signature(tuple(agents) + (_fresh("_env", agents),), tuple(props) or ("_aux",))


def default_signature(formula: Formula) -> Signature:
    """Smallest search signature for the formula: its own variables and
    agents, one spare agent to absorb foreign ownership, and a spare
    variable only when the formula mentions none (signatures must be
    non-empty)."""
    return _default(*signature_of(formula))


def satisfiable(formula: Formula, sig: Signature | None = None) -> DirectModel | None:
    """First witness model in enumeration order, or ``None``.

    Searches the given signature, or the formula's default signature, made
    from the names of the one walk the tables take.
    """
    tables, (table,) = semantics._tables([formula], _default if sig is None else sig)
    if not table:
        return None
    position, bits = tables.first(table)  # the first satisfying valuation of the first row
    layout = tables.layout
    return DirectModel(layout.sig, layout.allocation(position),
                       Valuation(layout.sig, layout.bits(bits)))


def valid(formula: Formula, sig: Signature | None = None) -> bool:
    """Whether the formula holds in every model of the signature (default:
    the formula's own default signature)."""
    return counterexample(formula, sig) is None


def counterexample(formula: Formula, sig: Signature | None = None) -> DirectModel | None:
    """A model falsifying the formula, or ``None`` when it is valid.  The
    negation names what the formula does, so it has the same default signature."""
    return satisfiable(Not(formula), sig)

