"""Direct semantics: one table evaluator behind every query.

A formula's table gives, per position of a domain of allocations, the
bitmask of the valuations satisfying it (its row), and packs the rows into
one integer: the row of position ``a`` sits at bits ``[a*W, (a+1)*W)``.
Tables are built bottom up, as in the global labelling of Clarke, Emerson &
Sistla: one walk lists each node object once, children first, and each
formula node's table is computed once from its children's.  Every operator
is a few whole-table operations.  An atom is its row mask tiled over the
table; negation and disjunction are one operation each; a coalition diamond
flips, one variable at a time, the rows where the coalition owns it.
Programs act by pre-image, as in PDL: ``pre(give(i,p,j), T)`` shifts the
table by the distance between the positions the handover links and keeps
the rows where ``i`` owns ``p``; a test is a conjunction, sequencing
composes, choice is a disjunction, and iteration is the least fixpoint of
``X = T | pre(body, X)``.  Programs never change the valuation, so a
pre-image moves whole rows, and a model's program image follows the same
handovers forwards, position by position.

The domain is a product over the variables of the agents that can own
each, and a position is a mixed-radix number: variable ``j``'s digit, the
rank of its owner among those agents, weighs the product of the earlier
variables' counts.  A handover then moves a position by a fixed distance.
Without a model, the tables range over the formulas' own sub-signature (the
variables they name, the agents they name, and one agent standing for all
the others), every agent can own every variable, and a position is the
canonical index of an allocation.  Truth depends on nothing else, so an
answer over the sub-signature is exact, and a row is lifted to the
signature asked for only where a caller reads rows over it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_

from .model import Allocation, DirectModel, Signature, SignatureError
from .syntax import (CHILDREN, Atom, Choice, Dia, Formula, Give, Not, Or, Program, Seq, Star,
                     Test, Top, _fit, disj_all, operands)


def _tile(pattern: int, width: int, count: int) -> int:
    """``count`` copies of a ``width``-bit pattern side by side, made by
    doubling: no table-sized product, and work linear in the result."""
    out, copies = pattern, 1
    for bit in bin(count)[3:]:
        out |= out << copies * width
        copies <<= 1
        if bit == "1":
            out |= pattern << copies * width
            copies += 1
    return out


# A table of more bits than this is large.  A large table's inputs are
# dropped once read for the last time, its atom and coalition masks are
# remade where read (a handover's is kept: a star reads it every round), and
# a diamond flips only the variables its body reads.  At 3x10, where a table
# is 7.6 MB, flipping every variable takes 3.5 times as long, and keeping
# every mask 30% more memory for 30% less time.  On the small tables of the
# benchmark's queries, remaking atom or coalition masks would cost up to 9%
# of the query rate, and finding what each body reads up to 16% (2 vCPUs,
# Python 3.11).
_DROP_BITS = 1 << 15


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


def _support(nodes: list, sig: Signature) -> dict[int, int]:
    """Per node, the variables whose values its truth can read (bit ``j``
    for ``sig.vars[j]``): flipping any other variable leaves its table as
    it is, since programs never change the valuation."""
    support: dict[int, int] = {}
    for node in nodes:
        kind = type(node)
        support[id(node)] = (1 << sig.var_index[node.name] if kind is Atom else
                             reduce(or_, [support[id(c)] for c in CHILDREN[kind](node)], 0))
    return support


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
    signature: every agent of ``reduction.sub`` can own every variable, so
    position ``a`` is ``Allocation.from_index(reduction.sub, a)``, and bit
    ``b`` of a row stands for ``Valuation(reduction.sub, b)``.  At a model,
    a variable's possible owners are the model's owner, at rank 0, and every
    agent the roots' handovers can pass it on to, so position 0 is the
    model's allocation.  Positions no run reaches are tabled too, but never
    read from position 0.  A row then has a bit per valuation of the free
    variables only: those an atom names and a diamond's coalition can own.
    Every other atom keeps the model's value; ``point`` is the model's bit.
    """

    def __init__(self, sig: Signature, roots: list, model: DirectModel | None = None):
        nodes, props, agents = _fit(disj_all(roots), sig)
        if model is None:
            self.reduction = _reduction(sig, props, agents)
            sig = self.reduction.sub
            owners = [range(len(sig.agents))] * len(sig.vars)
            free, self.val = range(len(sig.vars)), 0
        else:
            gives = {(g.giver, sig.var_index[g.var], g.receiver) for g in nodes if type(g) is Give}
            reach = [{sig.agents[o]} for o in model.alloc.owners]
            while grown := {(j, k) for i, j, k in gives if i in reach[j] and k not in reach[j]}:
                for j, k in grown:
                    reach[j].add(k)
            owners = [[o, *sorted(sig.agent_index[a] for a in r if a != sig.agents[o])]
                      for o, r in zip(model.alloc.owners, reach)]
            coalitions = {f.coalition for f in nodes if type(f) is Dia}
            free = [j for j in sorted({sig.var_index[f.name] for f in nodes if type(f) is Atom})
                    if any(c.intersection(reach[j]) for c in coalitions)]
            self.val = model.val.bits
        # per variable, its possible owners (agent indices), each owner's
        # rank among them by name, and the weight of its digit in a position
        self.sig, self.owners, self.stride, size = sig, owners, [], 1
        for agents_of in owners:
            self.stride.append(size)
            size *= len(agents_of)
        self.rank = [{sig.agents[a]: r for r, a in enumerate(agents_of)} for agents_of in owners]
        masks, width = [], 1  # masks[i]: the row bits where free variable i is true
        for _ in free:  # double the row: copy each mask up, add the new variable's
            masks = [m | m << width for m in masks] + [((1 << width) - 1) << width]
            width <<= 1
        self.domain, self.width, self.full = range(size), width, (1 << size * width) - 1
        # per free variable: its distance within a row, and the row bits where it is true
        self.free = {j: (1 << i, m) for i, (j, m) in enumerate(zip(free, masks))}
        self.point = sum(1 << i for i, j in enumerate(free) if self.val >> j & 1)
        self._masks: dict = {}  # atom tables by variable, ownership masks by (agents, variable)
        self.large = size * width > _DROP_BITS
        spent = _spent(nodes, roots) if self.large else {}
        self.support = _support(nodes, sig) if self.large else {}
        self.table: dict[int, int] = {}
        for pos, node in enumerate(nodes):
            if isinstance(node, Formula):
                self.table[id(node)] = self.build(node)
                if spent:
                    for key in spent.get(pos, ()):
                        self.table.pop(key, None)

    def build(self, f: Formula) -> int:
        kind, table = type(f), self.table
        if kind is Not:
            return self.full ^ table[id(f.body)]
        if kind is Or:
            return table[id(f.left)] | table[id(f.right)]
        if kind is Atom:
            j = self.sig.var_index[f.name]
            return self.atom(j) if j in self.free else self.full if self.val >> j & 1 else 0
        if kind is Top:
            return self.full
        if kind is Dia:  # per free variable the body reads, flip the rows the coalition owns it in
            t, reads = table[id(f.body)], self.support.get(id(f.body), -1)  # -1: every variable
            for j, (shift, _) in self.free.items():
                if reads >> j & 1 and (own := self.own(f.coalition, j)):
                    true = self.atom(j)
                    flipped = (t & true) >> shift | (t << shift) & true
                    t |= flipped if own is self.full else flipped & own
            return t
        return self.pre(f.program, table[id(f.body)])  # DiaProg

    def tiled(self, row: int) -> int:
        """The table holding ``row`` at every position."""
        return _tile(row, self.width, len(self.domain))

    def atom(self, j: int) -> int:
        """The table of free variable ``j``: kept for the query if small,
        remade where read if large, since it is read only a few times."""
        if (mask := self._masks.get(j)) is None:
            mask = self.tiled(self.free[j][1])
            if not self.large:
                self._masks[j] = mask
        return mask

    def own(self, agents: frozenset[str], j: int, keep: bool = False) -> int:
        """The table whose rows are full where one of the agents owns
        variable ``j``, and empty elsewhere: kept for the query if small,
        or if ``keep`` asks (a handover's, which a star reads every round)."""
        if (mask := self._masks.get((agents, j))) is None:
            rank = self.rank[j]
            ranks = [r for a, r in rank.items() if a in agents]
            if len(ranks) == len(rank):
                mask = self.full
            elif not ranks:
                mask = 0
            else:  # one run of rows per digit value, the run of each owner's rank full
                run = self.stride[j] * self.width
                cycle = reduce(or_, (((1 << run) - 1) << r * run for r in ranks))
                cycles = len(self.domain) // (len(rank) * self.stride[j])
                mask = _tile(cycle, len(rank) * run, cycles)
            if keep or not self.large:
                self._masks[agents, j] = mask
        return mask

    def pre(self, p: Program, table: int) -> int:
        """Per domain position, the join of the table's rows at the
        positions one run of the program reaches, each masked by the tables
        of the tests on the way."""
        kind = type(p)
        if kind is Give:
            j = self.sig.var_index[p.var]
            if p.giver not in (rank := self.rank[j]):
                return 0
            shift = (rank[p.receiver] - rank[p.giver]) * self.stride[j] * self.width
            moved = table >> shift if shift >= 0 else table << -shift
            return moved & self.own(frozenset({p.giver}), j, keep=True)
        if kind is Test:
            return self.table[id(p.condition)] & table
        if kind is Seq:  # a chain of steps in a loop, the last one first
            for step in reversed(operands(p)):
                table = self.pre(step, table)
            return table
        if kind is Choice:
            return reduce(or_, (self.pre(arm, table) for arm in operands(p)))
        while type(p.body) is Star:  # Star: (x*)* is x*, so a run of stars costs no recursion
            p = p.body
        x = table
        while (step := table | self.pre(p.body, x)) != x:
            x = step
        return x

    def post(self, p: Program, reached: set[int]) -> set[int]:
        """The domain positions one run of the program reaches from those
        in ``reached``: the pre-image read forwards, for one set of
        positions rather than every position's own."""
        kind = type(p)
        if kind is Give:
            j = self.sig.var_index[p.var]
            if p.giver not in (rank := self.rank[j]):
                return set()
            stride, here = self.stride[j], rank[p.giver]
            step = (rank[p.receiver] - here) * stride
            return {a + step for a in reached if a // stride % len(rank) == here}
        if kind is Test:
            gate, width = self.to_bytes(self.table[id(p.condition)]), self.width
            return {a for a in reached
                    if gate[(b := a * width + self.point) >> 3] >> (b & 7) & 1}
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

    def allocation(self, a: int) -> Allocation:
        """The allocation at domain position ``a``."""
        return Allocation(self.sig, tuple(agents_of[a // stride % len(agents_of)]
                                          for agents_of, stride in zip(self.owners, self.stride)))

    def to_bytes(self, t: int) -> bytes:
        """The table's bits, little-endian, eight to a byte."""
        return t.to_bytes(-(-len(self.domain) * self.width // 8), "little")

    def rows(self, t: int) -> list[int]:
        """The table's rows, position by position."""
        data, width = self.to_bytes(t), self.width
        if width >= 8:  # whole bytes per row
            step = width >> 3
            return [int.from_bytes(data[b:b + step], "little") for b in range(0, len(data), step)]
        mask = (1 << width) - 1  # several rows per byte
        return [byte >> b & mask for byte in data for b in range(0, 8, width)][:len(self.domain)]

    def first(self, t: int) -> tuple[int, int]:
        """The position of a non-empty table's first non-empty row, and the
        lowest bit of that row."""
        return divmod((t ^ t - 1).bit_length() - 1, self.width)

    def mixed(self, t: int) -> bool:
        """Whether every row of the table holds some valuation and misses some."""
        low = self.tiled(1)

        def nonempty(x: int) -> int:  # bit 0 of each row becomes the OR of its row
            shift = 1
            while shift < self.width:
                x |= x >> shift
                shift <<= 1
            return x & low
        return nonempty(t) == low == nonempty(self.full ^ t)


def evaluate(model: DirectModel, formula: Formula) -> bool:
    """Truth of the formula in the model under the direct semantics."""
    tables = _Tables(model.sig, [formula], model)
    return bool(tables.table[id(formula)] & 1 << tables.point)  # row 0 is the model's


def program_image(model: DirectModel, program: Program) -> list[DirectModel]:
    """All models one run of the program can reach, in canonical order."""
    tables = _Tables(model.sig, [program], model)
    return [DirectModel(model.sig, alloc, model.val)
            for alloc in sorted(map(tables.allocation, tables.post(program, {0})),
                                key=Allocation.index)]


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
    tables, packed = _tables(formulas, sig)
    return [tables.reduction.lift(tables.rows(t)) for t in packed]


def _tables(formulas: list[Formula], sig: Signature) -> tuple[_Tables, list[int]]:
    """The formulas' tables over their ``reduction`` of the signature, and
    each formula's table, from one walk over all of them."""
    tables = _Tables(sig, formulas)
    return tables, [tables.table[id(f)] for f in formulas]
