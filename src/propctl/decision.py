"""Satisfiability and validity by small-model enumeration.

A satisfiable formula has a model built from exactly the variables and
agents it mentions plus one extra agent, so deciding it means enumerating
the finitely many models of that signature.  Validity is unsatisfiability
of the negation and is always relative to a signature; results name the
signature they were decided over.
"""

from __future__ import annotations

from .model import Allocation, DirectModel, Signature, Valuation
from .semantics import truth_rows
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
    for idx, row in enumerate(truth_rows(formula, sig)):
        if row:
            # lowest set bit: the first satisfying valuation in this row
            return DirectModel(sig, Allocation.from_index(sig, idx),
                               Valuation(sig, (row & -row).bit_length() - 1))
    return None


def valid(formula: Formula, sig: Signature | None = None) -> bool:
    """Whether the formula holds in every model of the signature (default:
    the formula's own default signature)."""
    return counterexample(formula, sig) is None


def counterexample(formula: Formula, sig: Signature | None = None) -> DirectModel | None:
    """A model falsifying the formula, or ``None`` when it is valid.  The
    negation names what the formula does, so it has the same default signature."""
    return satisfiable(Not(formula), sig)

