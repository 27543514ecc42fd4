"""First- and second-order control analysis.

First-order control is the ability to settle a formula's truth by assigning
values to owned variables.  Second-order control adds delegation: an agent
may first redistribute its variables among the other agents and only then
assign values to whatever it kept.  The characterization here decides
second-order control from truth tables alone: the agent needs a reachable
allocation and a satisfying valuation it can still steer to, on both the
formula and its complement.
"""

from __future__ import annotations

from . import semantics
from .model import Allocation, Signature, SignatureError, Valuation
from .syntax import Dia, Formula, Not

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


def _reach(sig: Signature, alloc: Allocation, val: Valuation, agent: str,
           formulas: list[Formula]) -> bool:
    """Whether the agent can reach a position to make each formula true.

    For each formula, some allocation reachable by giving away must have
    the current valuation in its row of ``dia{agent} formula``: the agent
    can then steer to a satisfying valuation with the variables it still
    holds.  The tables come from one walk over all the formulas, in their
    cut layout, where the agent is named.  The allocations reachable by
    giving away are those where every variable the agent does not own keeps
    its owner, so one packed query per formula answers: its table, cut to
    those rows and to the current valuation's column, is not empty.
    """
    geq(alloc, Allocation.from_index(sig, 0), agent)  # refuses an unknown agent, a foreign allocation
    if val.sig != sig:
        raise SignatureError("valuation built over a different signature")
    tables, packed = semantics._tables([Dia(frozenset({agent}), f) for f in formulas], sig)
    layout, me = tables.layout, sig.agent_index[agent]
    position, bits = layout.project(alloc, val.bits)
    reachable = tables.tiled(1 << bits)  # the valuation's column, cut to the reachable rows
    for j, owner in enumerate(layout.allocation(position).owners):
        if owner != me:
            reachable &= tables.own(frozenset({sig.agents[owner]}), j)
    return all(table & reachable for table in packed)


def delegation_can_achieve(sig: Signature, alloc: Allocation, val: Valuation,
                           agent: str, formula: Formula) -> bool:
    """Whether the agent can reach a position to make the formula true by
    first giving variables away and then assigning its remaining ones."""
    return _reach(sig, alloc, val, agent, [formula])


def characterize_second_order(sig: Signature, alloc: Allocation, val: Valuation,
                              agent: str, formula: Formula) -> bool:
    """Table-based decision of second-order control: the delegation move
    must be available both for the formula and for its complement."""
    return _reach(sig, alloc, val, agent, [formula, Not(formula)])


def grand_coalition_control(formula: Formula, sig: Signature) -> bool:
    """Whether the whole agent set controls the formula in every model:
    each allocation's row must be neither empty nor full."""
    tables, (table,) = semantics._tables([formula], sig)
    return tables.mixed(table)  # lifting keeps a row empty, or full
