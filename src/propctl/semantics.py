"""Direct semantics: one table evaluator behind every query.

A formula's table gives, per allocation of a domain, the bitmask of the
valuations satisfying it.  Tables are built bottom up, as in the global
labelling of Clarke, Emerson & Sistla: one walk lists each node object
once, children first, and each formula node's table is computed once from
its children's.  An atom is a fixed mask; negation and disjunction are word
operations; a coalition diamond projects each row over the bits the
coalition owns in that allocation.  Programs act by pre-image, as in PDL:
``pre(give(i,p,j), T)`` reads the row of the allocation the handover moves
to, a test is a conjunction, sequencing composes, choice is a disjunction,
and iteration is the least fixpoint of ``X = T | pre(body, X)``.  Programs
never change the valuation, so a pre-image moves whole rows, and a model's
program image follows the same handovers forwards.

Without a model, the tables range over the formulas' own sub-signature:
the variables they name, the agents they name, and one agent standing for
all the others.  Truth depends on nothing else, so an answer over the
sub-signature is exact, and a row is lifted to the signature asked for
only where a caller reads rows over it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_

from .model import Allocation, DirectModel, Signature, SignatureError
from .syntax import (CHILDREN, Atom, Choice, Dia, Formula, Give, Not, Or, Program, Seq, Star,
                     Test, Top, _fit, disj_all, operands)


def _step(sig: Signature, give: Give):
    """The handover as a map on allocation indices: the index it moves to,
    or ``None`` where the giver does not own the variable."""
    n = len(sig.agents)
    weight = n ** sig.var_index[give.var]
    giver = sig.agent_index[give.giver]
    shift = (sig.agent_index[give.receiver] - giver) * weight
    return lambda a: a + shift if a // weight % n == giver else None


def _union(x: list[int], y: list[int]) -> list[int]:
    """Row by row, the disjunction of two tables."""
    return list(map(or_, x, y))


def _spent(nodes: list, roots: list) -> dict[int, list[int]]:
    """Per position in ``nodes``, the nodes no later position reads: a
    formula node is read by its formula parents, and through a test by
    every diamond over a program around it; the roots are read at the end."""
    last = {id(r): len(nodes) for r in roots}
    for pos in range(len(nodes) - 1, -1, -1):
        node = nodes[pos]
        at = pos if isinstance(node, Formula) else last[id(node)]
        for child in CHILDREN[type(node)](node):
            last[id(child)] = max(last.get(id(child), -1), at)
    spent: dict[int, list[int]] = {}
    for key, pos in last.items():
        spent.setdefault(pos, []).append(key)
    return spent


class _Reduction:
    """A signature ``sig`` cut to the part some formulas can tell apart.

    ``sub`` keeps the variables the formulas name, in signature order (the
    first variable when they name none), the agents they name, and the
    lowest-indexed agent they do not name, if any, as the class standing for
    all of those.  An allocation and a valuation of ``sig`` project to ``sub``
    by dropping the unnamed variables and giving the class whatever an
    unnamed agent owns.  The formulas hold at a pair exactly when they hold
    at its projection: no atom reads an unnamed variable, no coalition or
    handover names an unnamed agent, and a handover commutes with the
    projection.  When nothing is cut, ``sub`` is ``sig`` itself.
    """

    def __init__(self, sig: Signature, props: frozenset[str], agents: frozenset[str]):
        unnamed = [a for a in sig.agents if a not in agents]
        kept = tuple(p for p in sig.vars if p in props) or sig.vars[:1]
        cut = len(kept) < len(sig.vars) or len(unnamed) > 1
        self.sig, self.sub = sig, Signature((*agents, *unnamed[:1]), kept) if cut else sig
        self.agent = [sig.agent_index[a] for a in self.sub.agents]  # sub agent -> sig agent
        self.var = [sig.var_index[p] for p in self.sub.vars]  # sub variable -> sig variable
        self.rest = self.sub.agent_index[unnamed[0]] if unnamed else None  # the class

    def owner(self) -> list[int]:
        """Per agent of ``sig``, the agent of ``sub`` standing for it."""
        place = {i: k for k, i in enumerate(self.agent)}
        return [place.get(i, self.rest) for i in range(len(self.sig.agents))]

    def allocation(self, s: int) -> Allocation:
        """The first allocation of ``sig``, in canonical order, projecting to
        allocation ``s`` of ``sub``: the unnamed variables go to agent index
        0.  The map is increasing, so the first allocation of ``sub`` with a
        property gives the first allocation of ``sig`` with it."""
        m, n = len(self.sub.agents), len(self.sig.agents)
        return Allocation.from_index(self.sig, sum(self.agent[s // m**j % m] * n**i
                                                   for j, i in enumerate(self.var)))

    def bits(self, u: int) -> int:
        """The first valuation of ``sig`` projecting to valuation ``u`` of
        ``sub``: the unnamed variables false."""
        return sum(1 << i for j, i in enumerate(self.var) if u >> j & 1)

    def project(self, alloc: Allocation, bits: int) -> tuple[Allocation, int]:
        """An allocation and a valuation of ``sig`` projected to ``sub``."""
        owner = self.owner()
        return (Allocation(self.sub, tuple(owner[alloc.owners[i]] for i in self.var)),
                sum((bits >> i & 1) << j for j, i in enumerate(self.var)))

    def lift(self, rows: list[int]) -> list[int]:
        """Rows over ``sub`` read over ``sig``: per allocation, the
        valuations whose projections the row of its projection holds."""
        if self.sub is self.sig:
            return rows
        # per allocation of ``sig``, in canonical order, the index of its projection
        m, owner, index = len(self.sub.agents), self.owner(), [0]
        place = {i: j for j, i in enumerate(self.var)}
        for i in range(len(self.sig.vars)):  # variable i's digit, above those of 0 .. i-1
            j = place.get(i)
            digits = [0] * len(owner) if j is None else [o * m**j for o in owner]
            index = [x + d for d in digits for x in index]
        spread = 1  # bit ``w`` for each valuation ``w`` of the unnamed variables alone
        for i in set(range(len(self.sig.vars))) - set(self.var):
            spread |= spread << (1 << i)
        lifted: dict[int, int] = {}
        for row in rows:
            if row not in lifted:  # each set bit's valuation times every unnamed one
                lifted[row] = sum(1 << self.bits(u) for u in range(row.bit_length())
                                  if row >> u & 1) * spread
        return [lifted[rows[s]] for s in index]


# `propctl axioms` asks about one signature thousands of times over a few name
# sets, and remaking a cut reduction each time costs it about a tenth of its rate.
_reduction = lru_cache(maxsize=256)(_Reduction)


class _Tables:
    """The fit check of the roots (formulas, or one program) over the
    signature, then, from one walk over them, the table of each formula node.

    Without a model, the tables are over the roots' ``reduction`` of the
    signature: the domain is every allocation of ``reduction.sub``, and bit
    ``b`` of a row stands for ``Valuation(reduction.sub, b)``.  At a model,
    the domain is the allocations the handovers reach from the model's, the
    model's first, and a row has a bit per valuation of the free variables
    only: those an atom names and a diamond's coalition owns in some domain
    allocation.  Every other atom keeps the model's value; ``point`` is the
    model's bit.
    """

    def __init__(self, sig: Signature, roots: list, model: DirectModel | None = None):
        nodes, props, agents = _fit(disj_all(roots), sig)
        if model is None:
            self.reduction = _reduction(sig, props, agents)
            sig = self.reduction.sub
        self.sig, n = sig, len(sig.agents)
        steps = {(g.giver, g.var, g.receiver): _step(sig, g) for g in nodes if type(g) is Give}
        if model is None:
            self.domain = position = range(n ** len(sig.vars))  # its own position map
            free, self.val = range(len(sig.vars)), 0
        else:
            self.domain, self.val = [model.alloc.index()], model.val.bits
            position = {self.domain[0]: 0}
            for a in self.domain:  # the list grows while it is read
                for b in (step(a) for step in steps.values()):
                    if b is not None and b not in position:
                        position[b] = len(self.domain)
                        self.domain.append(b)
            owners = {frozenset(sig.agent_index[i] for i in f.coalition) for f in nodes
                      if type(f) is Dia}
            free = [j for j in sorted({sig.var_index[f.name] for f in nodes if type(f) is Atom})
                    if any(a // n**j % n in c for c in owners for a in self.domain)]
        # per handover and domain position, the position it moves to
        self.moves = {key: [None if (b := step(a)) is None else position[b] for a in self.domain]
                      for key, step in steps.items()}
        masks, width = [], 1  # masks[i]: the row bits where free variable i is true
        for _ in free:  # double the row: copy each mask up, add the new variable's
            masks = [m | m << width for m in masks] + [((1 << width) - 1) << width]
            width <<= 1
        self.full, self.free = (1 << width) - 1, dict(zip(free, masks))
        self.point = sum(1 << i for i, j in enumerate(free) if self.val >> j & 1)
        self._flips: dict[frozenset, list] = {}
        # A table takes about 64 + width bits per domain allocation.  Large
        # ones are dropped once read for the last time; counting the readers
        # of small ones would cost more than they hold.
        spent = _spent(nodes, roots) if len(self.domain) * (64 + width) > 1 << 16 else {}
        self.table: dict[int, list[int]] = {}
        for pos, node in enumerate(nodes):
            if isinstance(node, Formula):
                self.table[id(node)] = self.build(node)
                if spent:
                    for key in spent.get(pos, ()):
                        self.table.pop(key, None)

    def build(self, f: Formula) -> list[int]:
        kind, table = type(f), self.table
        if kind is Not:
            return [self.full ^ row for row in table[id(f.body)]]
        if kind is Or:
            return _union(table[id(f.left)], table[id(f.right)])
        if kind is Atom:
            j = self.sig.var_index[f.name]
            mask = self.free.get(j, self.full if self.val >> j & 1 else 0)
            return [mask] * len(self.domain)
        if kind is Top:
            return [self.full] * len(self.domain)
        if kind is Dia:
            out = []
            for row, flips in zip(table[id(f.body)], self.flips(f.coalition)):
                for true, false, shift in flips:
                    row |= (row & true) >> shift | (row & false) << shift
                out.append(row)
            return out
        return self.pre(f.program, table[id(f.body)])  # DiaProg

    def flips(self, coalition: frozenset) -> list[list[tuple[int, int, int]]]:
        """Per domain allocation and free variable the coalition owns there:
        the row bits with the variable true, those with it false, and the
        distance between the two."""
        if coalition not in self._flips:
            n, members = len(self.sig.agents), {self.sig.agent_index[a] for a in coalition}
            self._flips[coalition] = [[(true, self.full ^ true, 1 << i)
                                       for i, (j, true) in enumerate(self.free.items())
                                       if a // n**j % n in members]
                                      for a in self.domain]
        return self._flips[coalition]

    def pre(self, p: Program, table: list[int]) -> list[int]:
        """Per domain allocation, the join of the table's rows at the
        allocations one run of the program reaches, each masked by the
        tables of the tests on the way."""
        kind = type(p)
        if kind is Give:
            return [0 if t is None else table[t] for t in self.moves[p.giver, p.var, p.receiver]]
        if kind is Test:
            return [g & row for g, row in zip(self.table[id(p.condition)], table)]
        if kind is Seq:  # a chain of steps in a loop, the last one first
            for step in reversed(operands(p)):
                table = self.pre(step, table)
            return table
        if kind is Choice:
            return reduce(_union, (self.pre(arm, table) for arm in operands(p)))
        while type(p.body) is Star:  # Star: (x*)* is x*, so a run of stars costs no recursion
            p = p.body
        x = table
        while (step := _union(table, self.pre(p.body, x))) != x:
            x = step
        return x

    def post(self, p: Program, reached: set[int]) -> set[int]:
        """The domain positions one run of the program reaches from those
        in ``reached``: the pre-image read forwards, for one set of
        positions rather than every position's own."""
        kind = type(p)
        if kind is Give:
            moves = self.moves[p.giver, p.var, p.receiver]
            return {t for a in reached if (t := moves[a]) is not None}
        if kind is Test:
            gate = self.table[id(p.condition)]
            return {a for a in reached if gate[a] >> self.point & 1}
        if kind is Seq:  # a chain of steps in a loop
            for step in operands(p):
                reached = self.post(step, reached)
            return reached
        if kind is Choice:
            return set().union(*(self.post(arm, reached) for arm in operands(p)))
        while type(p.body) is Star:  # Star, as in pre
            p = p.body
        return self.closure(p.body, reached)[0]

    def closure(self, body: Program, reached: set[int]) -> tuple[set[int], int]:
        """The positions any number of runs of the body reach from those in
        ``reached``, and the number of rounds that found new ones."""
        out, frontier, rounds = set(reached), reached, 0
        while frontier := self.post(body, frontier) - out:
            out |= frontier
            rounds += 1
        return out, rounds


def evaluate(model: DirectModel, formula: Formula) -> bool:
    """Truth of the formula in the model under the direct semantics."""
    tables = _Tables(model.sig, [formula], model)
    return bool(tables.table[id(formula)][0] >> tables.point & 1)


def program_image(model: DirectModel, program: Program) -> list[DirectModel]:
    """All models one run of the program can reach, in canonical order."""
    tables = _Tables(model.sig, [program], model)
    return [DirectModel(model.sig, Allocation.from_index(model.sig, a), model.val)
            for a in sorted(tables.domain[t] for t in tables.post(program, {0}))]


def in_relation(start: DirectModel, end: DirectModel, program: Program) -> bool:
    """Whether some run of the program takes the first model to the second."""
    if start.sig != end.sig:
        raise SignatureError("models live over different signatures")
    return end in program_image(start, program)


def star_depth(model: DirectModel, program: Program) -> int:
    """Rounds the iteration fixpoint needs to close from this model.

    Iterating the program's single-step image from the model stabilizes at
    some breadth-first depth B; a box over the iterated program then equals
    the conjunction of the 0..B-fold boxed bodies.
    """
    return _Tables(model.sig, [program], model).closure(program, {0})[1]


def truth_rows(formula: Formula, sig: Signature) -> list[int]:
    """Per allocation, in canonical order, the bitmask of the valuations
    satisfying the formula (bit ``b`` for ``Valuation(sig, b)``), all
    computed before the list is returned."""
    return truth_rows_each([formula], sig)[0]


def truth_rows_each(formulas: list[Formula], sig: Signature) -> list[list[int]]:
    """``truth_rows`` of each formula, from one walk over all of them."""
    tables, rows = _rows(formulas, sig)
    return [tables.reduction.lift(r) for r in rows]


def _rows(formulas: list[Formula], sig: Signature) -> tuple[_Tables, list[list[int]]]:
    """The formulas' tables over their ``reduction`` of the signature, and
    each formula's rows over its ``sub``, from one walk over all of them."""
    tables = _Tables(sig, formulas)
    return tables, [tables.table[id(f)] for f in formulas]
