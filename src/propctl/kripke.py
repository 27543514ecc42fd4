"""Possible-worlds semantics, used as an independent second evaluator.

Worlds are the valuations over the signature; they never need to be
materialized, because world accessibility is a predicate: two worlds are
related for a coalition when they agree outside the coalition's variables.
Ownership transfers move between whole Kripke structures (one per
allocation) while fixing the current world.

The coalition clause is read as "the worlds agree outside the union of the
coalition members' variables".  Evaluation here deliberately shares no code
with the direct evaluator: agreement between the two is checked by tests,
so each side must earn it separately.
"""

from __future__ import annotations

from .model import (
    Allocation,
    DirectModel,
    Signature,
    SignatureError,
    Valuation,
    Value,
)
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
    Top,
    ensure_fits,
)


class PointedKripkeModel(Value):
    """An allocation together with a distinguished world (valuation)."""

    __slots__ = ("sig", "alloc", "world")

    def __init__(self, sig: Signature, alloc: Allocation, world: Valuation) -> None:
        if alloc.sig != sig or world.sig != sig:
            raise SignatureError("pointed model components disagree on the signature")
        self._assign(sig, alloc, world)


def _eval_k(pm: PointedKripkeModel, f: Formula) -> bool:
    if isinstance(f, Atom):
        return pm.world.value(f.name)
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not _eval_k(pm, f.body)
    if isinstance(f, Or):
        return _eval_k(pm, f.left) or _eval_k(pm, f.right)
    if isinstance(f, Dia):
        changeable = pm.alloc.controlled_mask(f.coalition)
        outside = pm.world.bits & ~changeable
        for bits in range(1 << len(pm.sig.vars)):
            if bits & ~changeable != outside:
                continue  # worlds must agree outside the coalition's variables
            other = Valuation(pm.sig, bits)
            if _eval_k(PointedKripkeModel(pm.sig, pm.alloc, other), f.body):
                return True
        return False
    if isinstance(f, DiaProg):
        for reached in _pointed_image(pm, f.program):
            if _eval_k(reached, f.body):
                return True
        return False
    raise TypeError(f"not a core formula: {f!r}")


def _pointed_image(pm: PointedKripkeModel, p: Program) -> set[PointedKripkeModel]:
    if isinstance(p, Give):
        if pm.alloc.owner(p.var) != p.giver:
            return set()
        if p.giver == p.receiver:
            return {pm}
        # The world is fixed; only the allocation (which structure we are in) moves.
        return {PointedKripkeModel(pm.sig, pm.alloc.move(p.var, p.receiver), pm.world)}
    if isinstance(p, Test):
        return {pm} if _eval_k(pm, p.condition) else set()
    if isinstance(p, Seq):
        out: set[PointedKripkeModel] = set()
        for mid in _pointed_image(pm, p.first):
            out |= _pointed_image(mid, p.second)
        return out
    if isinstance(p, Choice):
        return _pointed_image(pm, p.left) | _pointed_image(pm, p.right)
    if isinstance(p, Star):
        reached = {pm}
        frontier = {pm}
        while frontier:
            new: set[PointedKripkeModel] = set()
            for m in frontier:
                new |= _pointed_image(m, p.body)
            frontier = new - reached
            reached |= frontier
        return reached
    raise TypeError(f"not a core program: {p!r}")


def evaluate(pm: PointedKripkeModel, formula: Formula) -> bool:
    """Truth of the formula at the pointed model under the worlds semantics."""
    ensure_fits(formula, pm.sig)
    return _eval_k(pm, formula)


def pointed_of(model: DirectModel) -> PointedKripkeModel:
    return PointedKripkeModel(model.sig, model.alloc, model.val)
