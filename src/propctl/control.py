"""First- and second-order control analysis.

First-order control is the ability to settle a formula's truth by assigning
values to owned variables.  Second-order control adds delegation: an agent
may first redistribute its variables among the other agents and only then
assign values to whatever it kept.  The characterization here decides
second-order control from the normal-form table alone: the agent needs a
reachable allocation and a satisfying valuation it can still steer to, on
both the formula and its complement.
"""

from __future__ import annotations

from . import normalform
from .model import Allocation, Signature, SignatureError, Valuation, enumerate_allocations
from .syntax import Formula

__all__ = [
    "geq",
    "delegation_can_achieve",
    "characterize_second_order",
    "grand_coalition_control",
]


def geq(alloc: Allocation, other: Allocation, agent: str) -> bool:
    """Whether the second allocation is obtainable from the first by the
    agent giving variables away: the agent keeps a subset of its variables
    and every other agent keeps all of its own."""
    if alloc.sig != other.sig:
        raise SignatureError("allocations live over different signatures")
    if agent not in alloc.sig.agent_index:
        raise SignatureError(f"unknown agent {agent!r}")
    me = alloc.sig.agent_index[agent]
    for before, after in zip(alloc.owners, other.owners):
        if before != after and before != me:
            return False
    return True


def _row_reachable(sig: Signature, alloc: Allocation, val: Valuation,
                   agent: str, rows: tuple[int, ...]) -> bool:
    # A target allocation must be reachable by giving away, and some
    # satisfying valuation there must agree with the current one outside
    # the variables the agent still holds at the target.
    for idx, target in enumerate(enumerate_allocations(sig)):
        row = rows[idx]
        if row == 0 or not geq(alloc, target, agent):
            continue
        kept = target.controlled_mask({agent})
        base = val.bits & ~kept
        s = 0
        while True:
            if row >> (base | s) & 1:
                return True
            if s == kept:
                break
            s = (s - kept) & kept
    return False


def delegation_can_achieve(sig: Signature, alloc: Allocation, val: Valuation,
                           agent: str, formula: Formula) -> bool:
    """Whether the agent can reach a position to make the formula true by
    first giving variables away and then assigning its remaining ones."""
    nf = normalform.normal_form(formula, sig)
    return _row_reachable(sig, alloc, val, agent, nf.rows)


def characterize_second_order(sig: Signature, alloc: Allocation, val: Valuation,
                              agent: str, formula: Formula) -> bool:
    """Table-based decision of second-order control: the delegation move
    must be available both for the formula and for its complement."""
    nf = normalform.normal_form(formula, sig)
    return (
        _row_reachable(sig, alloc, val, agent, nf.rows)
        and _row_reachable(sig, alloc, val, agent, nf.complement().rows)
    )


def grand_coalition_control(formula: Formula, sig: Signature) -> bool:
    """Whether the whole agent set controls the formula in every model:
    each allocation's row must be neither empty nor full."""
    nf = normalform.normal_form(formula, sig)
    full = nf.full_row
    return all(0 < row < full for row in nf.rows)
