"""Direct semantics: formula evaluation and program relations.

A coalition diamond holds when some assignment to the coalition's variables
makes the body true; a program diamond holds when some model in the
program's image satisfies the body.  Evaluation and program images are
mutually recursive through tests, and well-founded because a test's
condition is structurally smaller than the formula that mentions it.

Iteration is computed as an exact breadth-first fixpoint over the reachable
models rather than a depth-bounded search: programs never change the
valuation, so the reachable set varies only in the allocation and the
fixpoint closes within (number of allocations) rounds.

``truth_rows`` is the one pass that evaluates a formula over every model of
a signature; satisfiability, validity, normal forms and the evaluator
cross-check are all queries on the rows it yields.
"""

from __future__ import annotations

from typing import Iterator

from .model import DirectModel, Signature, SignatureError, Valuation, enumerate_allocations
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


def _sub_masks(mask: int):
    """All subsets of a bitmask, ascending, starting with 0."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _with_bits(model: DirectModel, bits: int) -> DirectModel:
    return DirectModel(model.sig, model.alloc, Valuation(model.sig, bits))


def _eval(model: DirectModel, f: Formula) -> bool:
    if isinstance(f, Atom):
        return bool(model.val.bits >> model.sig.var_index[f.name] & 1)
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not _eval(model, f.body)
    if isinstance(f, Or):
        return _eval(model, f.left) or _eval(model, f.right)
    if isinstance(f, Dia):
        mask = model.alloc.controlled_mask(f.coalition)
        base = model.val.bits & ~mask
        for s in _sub_masks(mask):
            if _eval(_with_bits(model, base | s), f.body):
                return True
        return False
    if isinstance(f, DiaProg):
        for reached in _image(model, f.program):
            if _eval(reached, f.body):
                return True
        return False
    raise TypeError(f"not a core formula: {f!r}")


def _image(model: DirectModel, p: Program) -> set[DirectModel]:
    if isinstance(p, Give):
        owner_idx = model.alloc.owners[model.sig.var_index[p.var]]
        if model.sig.agents[owner_idx] != p.giver:
            return set()
        if p.giver == p.receiver:
            return {model}
        return {DirectModel(model.sig, model.alloc.move(p.var, p.receiver), model.val)}
    if isinstance(p, Test):
        return {model} if _eval(model, p.condition) else set()
    if isinstance(p, Seq):
        out: set[DirectModel] = set()
        for mid in _image(model, p.first):
            out |= _image(mid, p.second)
        return out
    if isinstance(p, Choice):
        return _image(model, p.left) | _image(model, p.right)
    if isinstance(p, Star):
        return set().union(*_frontiers(model, p.body))
    raise TypeError(f"not a core program: {p!r}")


def _frontiers(model: DirectModel, program: Program) -> Iterator[set[DirectModel]]:
    """Breadth-first frontiers of iterating the program from the model:
    first ``{model}``, then each round's newly reached models, until a
    round reaches nothing new."""
    reached = {model}
    frontier = {model}
    while frontier:
        yield frontier
        new: set[DirectModel] = set()
        for m in frontier:
            new |= _image(m, program)
        frontier = new - reached
        reached |= frontier


def evaluate(model: DirectModel, formula: Formula) -> bool:
    """Truth of the formula in the model under the direct semantics."""
    ensure_fits(formula, model.sig)
    return _eval(model, formula)


def program_image(model: DirectModel, program: Program) -> list[DirectModel]:
    """All models one run of the program can reach, in canonical order."""
    ensure_fits(program, model.sig)
    return sorted(_image(model, program), key=DirectModel.index)


def in_relation(start: DirectModel, end: DirectModel, program: Program) -> bool:
    """Whether some run of the program takes the first model to the second."""
    if start.sig != end.sig:
        raise SignatureError("models live over different signatures")
    ensure_fits(program, start.sig)
    return end in _image(start, program)


def star_depth(model: DirectModel, program: Program) -> int:
    """Rounds the iteration fixpoint needs to close from this model.

    Iterating the program's single-step image from the model stabilizes at
    some breadth-first depth B; a box over the iterated program then equals
    the conjunction of the 0..B-fold boxed bodies.
    """
    ensure_fits(program, model.sig)
    return sum(1 for _ in _frontiers(model, program)) - 1


def truth_rows(formula: Formula, sig: Signature) -> Iterator[int]:
    """Per allocation, in canonical order, the bitmask of the valuations
    satisfying the formula (bit ``b`` for ``Valuation(sig, b)``).

    The fit check runs once, here; rows are computed lazily, so a caller
    that stops early skips the remaining allocations.
    """
    ensure_fits(formula, sig)
    return _rows(formula, sig)


def _rows(formula: Formula, sig: Signature) -> Iterator[int]:
    valuations = [Valuation(sig, bits) for bits in range(1 << len(sig.vars))]
    for alloc in enumerate_allocations(sig):
        row = 0
        for val in valuations:
            if _eval(DirectModel(sig, alloc, val), formula):
                row |= 1 << val.bits
        yield row
