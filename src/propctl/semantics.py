"""Direct semantics: one table evaluator behind every query.

A formula's table gives, per position of a domain of allocations, the
bitmask of the valuations satisfying it (its row), and packs the rows into
one integer: the row of position ``a`` sits at bits ``[a*W, (a+1)*W)``.
Tables are built bottom up, as in the global labelling of Clarke, Emerson &
Sistla: one walk lists each node object once, children first, and each
formula node but a negation gets its table once, from its children's.  A
negation is read through and never tabled: its table is that of its base,
the first node below its run of negations that is not one, complemented if
the run is odd.  Most nodes of expanded sugar are negations, so only the
nodes whose tables are read get one.  Every operator is a few whole-table
operations.  An atom is its row mask tiled over the table; disjunction is
one operation; a coalition diamond flips, one variable at a time, the rows
where the coalition owns it.
Programs act by pre-image, as in PDL: ``pre(give(i,p,j), T)`` shifts the
table by the distance between the positions the handover links and keeps
the rows where ``i`` owns ``p``; a test is a conjunction, sequencing
composes, choice is a disjunction, and iteration is the least fixpoint of
``X = T | pre(body, X)``.  Programs never change the valuation, so a
pre-image moves whole rows, and a model's program image is the same
operator read forwards, from a table holding only the model's row.

One ``_Layout`` gives the domain and row format of tables over the
signature asked for.  The domain is a product over the variables of the
agents that can own each, and a position is a mixed-radix number: variable
``j``'s digit, the rank of its owner among those agents, weighs the product
of the earlier variables' counts.  A handover then moves a position by a
fixed distance.  A row has a bit per valuation of the free variables, and
every other variable keeps one value.  Which layout serves a query:

- over a signature of at most ``_WHOLE_SHAPE`` agents and variables, every
  query, with or without a model, is in the signature's whole layout, the
  cached ``_cut`` that names every variable and agent: position ``a`` is
  the allocation of canonical index ``a`` and row bit ``u`` the valuation
  of bits ``u``, so a model's truth is bit ``alloc.index() * W + val.bits``;
  atoms and ``true`` read the layout's tables (each variable's atom table,
  kept with it, and the full table), so no leaf is built per query;
- over a larger signature, a query without a model is in the formulas'
  cached ``_cut``, where truth depends on nothing else, so an answer in it
  is exact, and rows are lifted to the whole signature only where a caller
  reads them; a query at a model makes its own layout, for the query.

No table of more than ``_MAX_BITS`` bits is built.
"""

from __future__ import annotations

import struct
from functools import lru_cache, reduce
from operator import or_

from . import syntax
from .model import Allocation, DirectModel, Signature, SignatureError
from .syntax import (_END, CHILDREN, Atom, Choice, Dia, DiaProg, Formula, Give, Not, Or, Program,
                     Seq, Star, Test, Top, disj_all, ensure_fits, operands)


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


# A table of more bits than this is large.  A small table's layout keeps
# what its operators read: atom tables, ownership masks, each coalition's
# diamond flips and each handover's step.  A large table's inputs are dropped
# once read for the last time, its atom and ownership masks are remade where
# read, and a diamond flips, one at a time, only the variables its body
# reads; only its handover steps, with their ownership masks, are kept, for
# the query alone, since a star reads them every round.  At 3x10, where a
# table is 7.6 MB, flipping every variable takes 3.5 times as long, and
# keeping every mask 30% more memory for 30% less time.  On the small tables
# of the benchmark's queries, then in cut and model layouts, remaking atom or
# ownership masks would cost up to 9% of the query rate, and finding what
# each body reads up to 16% (2 vCPUs, Python 3.11).  A whole layout (at most
# ``_WHOLE_SHAPE``) is always small.
_DROP_BITS = 1 << 15


def _base(f):
    """The first node below ``f``'s run of negations that is not one (``f``
    itself if it is no negation)."""
    while type(f) is Not:
        f = f.body
    return f


def _spent(nodes: list, roots: list) -> dict[int, list[int]]:
    """Per position in ``nodes``, the nodes no later position reads: a
    formula node is read by its formula parents, and through a test by
    every diamond over a program around it; the roots are read at the end.
    A negation has no table, so whatever reads it reads its base, which is
    kept until the last reader of any negation above it."""
    last = {id(_base(r)): len(nodes) for r in roots}
    for pos in range(len(nodes) - 1, -1, -1):
        node = nodes[pos]
        kind = type(node)
        if kind is Not:
            continue
        at = pos if isinstance(node, Formula) else last[id(node)]
        for child in CHILDREN[kind](node):
            key = id(_base(child))
            last[key] = max(last.get(key, -1), at)
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


# A table or a lifted list of rows of more bits than this is refused before
# any of it is built.  It admits, with room, the largest table and lift the
# tests build (2^16 and 2^20 bits) and a 3x10 table at a model (3^10 rows of
# 1,024 bits); at 3x12, a body naming every variable under a diamond is over it.
_MAX_BITS = 1 << 28


def _fit(positions: int, width: int) -> None:
    """Refuse ``positions`` rows of ``width`` bits if they are too many."""
    if positions * width > _MAX_BITS:
        raise SignatureError(f"too large to tabulate: {positions} rows of {width} bits "
                             f"are over the limit of {_MAX_BITS} bits")


# A signature of at most this many agents and variables tables every query,
# with or without a model, in its cached whole layout (at most 3^4
# allocations of 2^4 valuations, 1,296 bits).  It is the largest shape the
# benchmark measures.  Beyond it the whole layout is not measured, and in
# direct calls it costs model-free queries that name a few variables more
# than their cut: `valid` of a formula naming 2 variables took 1.06-1.12
# times as long at 2x5, 55 us against 35 at 2x6 and 152 against 44 at 2x7,
# while `evaluate` at a model took 0.5 times as long at 2x5 but 1.7 at 2x7
# (2 vCPUs, Python 3.11.7).
_WHOLE_SHAPE = (3, 4)


class _Layout:
    """The domain and row format of tables over ``sig``.

    Variable ``j`` can be owned by the agents ``owners[j]`` (indices), a row
    has a bit per valuation of the ``free`` variables (indices, ascending),
    and every other variable keeps its bit of ``val``; ``point`` is the row
    bit of ``val``.  A small table's ``masks`` are kept with the layout:
    atom tables, ownership masks, diamond flips and handover steps (see
    ``_Tables``); a large table keeps its own, for the query alone, and
    leaves this one empty.  A cut layout (``_cut``) also has ``digit``: per
    agent of ``sig``, the digit of the agent standing for it, which
    ``project`` and ``lift`` read.  The whole layout's ``leaves`` holds each
    variable's atom table by name, the one ``masks`` holds by index.
    """

    def __init__(self, sig: Signature, owners: list, free, val: int = 0, digit=None) -> None:
        # per variable, each owner's rank among them by name and its digit's weight
        self.sig, self.owners, self.val, self.digit, self.stride, size = (
            sig, owners, val, digit, [], 1)
        for agents_of in owners:
            self.stride.append(size)
            size *= len(agents_of)
        _fit(size, 1 << len(free))
        self.rank = [{sig.agents[a]: r for r, a in enumerate(agents_of)} for agents_of in owners]
        rows, width = [], 1  # rows[i]: the row bits where free variable i is true
        for _ in free:  # double the row: copy each mask up, add the new variable's
            rows = [m | m << width for m in rows] + [((1 << width) - 1) << width]
            width <<= 1
        self.domain, self.width, self.full = range(size), width, (1 << size * width) - 1
        # per free variable: its distance within a row, and the row bits where it is true
        self.free = {j: (1 << i, m) for i, (j, m) in enumerate(zip(free, rows))}
        self.large = size * width > _DROP_BITS
        self.point = sum(1 << i for i, j in enumerate(free) if val >> j & 1)
        # atom tables by variable, ownership masks by (agents, variable), diamond
        # flips by coalition, handover steps by (giver, variable, receiver, forward),
        # and "low", the table of each row's bit 0
        self.masks: dict = {}
        self.leaves: dict[str, int] = {}

    def allocation(self, a: int) -> Allocation:
        """The first allocation, in canonical order, at domain position ``a``.
        In a cut layout it is increasing in ``a``, as ``bits`` is in ``u``, so
        the first position and row bit with a property give the first model
        with it."""
        return Allocation(self.sig, tuple(agents_of[a // stride % len(agents_of)]
                                          for agents_of, stride in zip(self.owners, self.stride)))

    def bits(self, u: int) -> int:
        """The valuation at row bit ``u``: the free variables as ``u`` reads
        them, every other as ``val`` does."""
        kept = self.val & ~sum(1 << j for j in self.free)
        return kept | sum(1 << j for j, (shift, _) in self.free.items() if u & shift)

    def project(self, alloc: Allocation, bits: int) -> tuple[int, int]:
        """The position and row bit of an allocation and a valuation, in a
        cut layout: the inverse of ``allocation`` and ``bits``."""
        return (sum(self.digit[alloc.owners[j]] * self.stride[j] for j in self.free),
                sum(shift for j, (shift, _) in self.free.items() if bits >> j & 1))

    def lift(self, rows: list[int]) -> list[int]:
        """A cut layout's rows read over the whole signature: per
        allocation, in canonical order, the valuations whose projections
        the row at its projection holds."""
        n, k = len(self.sig.agents), len(self.sig.vars)
        _fit(n**k, 1 << k)
        if len(self.domain) * self.width == n**k << k:  # nothing is cut
            return rows
        index = [0]  # per allocation, in canonical order, its position
        for j, stride in enumerate(self.stride):  # variable j's digit, above those of 0 .. j-1
            digits = [d * stride for d in self.digit] if j in self.free else [0] * n
            index = [x + d for d in digits for x in index]
        spread = 1  # bit ``w`` for each valuation ``w`` of the variables not free alone
        for j in set(range(k)) - set(self.free):
            spread |= spread << (1 << j)
        lifted: dict[int, int] = {}
        for row in rows:
            if row not in lifted:  # each set bit's valuation times every other one
                lifted[row] = sum(1 << self.bits(u) for u in range(row.bit_length())
                                  if row >> u & 1) * spread
        return [lifted[rows[a]] for a in index]


# A small signature's whole layout is one entry, read by every query over the
# signature; a larger signature's cut layouts are one per name set the
# queries use.  Remaking the whole layout, with its masks, per query took 2.1
# times as long a pass on the `axioms` and `decide` workloads and 1.3 on
# `check` (in-process alternating rounds, best of six, 2 vCPUs, Python 3.11.7).
@lru_cache(maxsize=256)
def _cut(sig: Signature, props: frozenset[str] | None, agents: frozenset[str] | None) -> _Layout:
    """The layout of model-free tables over ``sig`` of roots naming the
    variables ``props`` and the agents ``agents`` (every one if ``None``).

    A named variable can be owned by the named agents and by the
    lowest-indexed unnamed agent, if any, standing for all of those; an
    unnamed variable has the single owner index 0 and is false.  An
    allocation and a valuation project to a position and a row bit by
    dropping the unnamed variables and giving the stand-in whatever an
    unnamed agent owns.  The roots hold at a pair exactly when they hold at
    its projection: no atom reads an unnamed variable, no coalition or
    handover names an unnamed agent, and a handover commutes with the
    projection.  Naming every variable and agent (``None``), it is the
    signature's whole layout, which also serves queries at a model (see
    ``_Tables``), and it keeps every variable's atom table in ``leaves``.
    """
    whole = props is None
    if whole:
        props, agents = sig.var_index, sig.agent_index
    rest = next((i for i, a in enumerate(sig.agents) if a not in agents), None)
    kept = [i for i, a in enumerate(sig.agents) if a in agents or i == rest]
    digit = [kept.index(i if a in agents else rest) for i, a in enumerate(sig.agents)]
    layout = _Layout(sig, [kept if p in props else [0] for p in sig.vars],
                     [j for j, p in enumerate(sig.vars) if p in props], digit=digit)
    if whole:
        for j, (_, true) in layout.free.items():
            layout.leaves[sig.vars[j]] = layout.masks[j] = _tile(true, layout.width,
                                                                 len(layout.domain))
    return layout


# The little-endian ``struct`` code of a row of each width that has one.
_UNPACK = {8: "B", 16: "H", 32: "I", 64: "Q"}


class _Tables:
    """The fit check of the roots (formulas, or one program) over the
    signature, and the table of each formula node but a negation, from one
    walk over all the roots: no table joins them.  Tables are read through
    ``value``, which reads a negation as its base.

    Over a signature of at most ``_WHOLE_SHAPE`` agents and variables, with
    or without a model, the tables are in the cached whole layout, the
    signature's ``_cut`` that names every variable and agent: a position is
    an allocation's canonical index and a row bit a valuation's bits.  One
    walk (``walk``) checks the fit and builds each table but the leaves',
    which the layout holds; at a model, ``point`` is the model's bit, its
    allocation's row and its valuation's bit in it.

    Otherwise one walk lists the nodes and names, and the tables are built
    after it.  Without a model, they are in the roots' ``_cut`` layout of
    the signature.  ``sig`` may also be a default-signature rule, which
    makes the signature from the names the roots use, so it fits them.  At
    a model, the layout is made for the query: a variable's possible owners
    are the model's owner, at rank 0, and every agent the roots' handovers
    can pass it on to, so position 0 is the model's allocation.  Positions
    no run reaches are tabled too, but never read from position 0.  A row
    then has a bit per valuation of the free variables only: those an atom
    names and a diamond's coalition can own.  Every other atom keeps the
    model's value; ``point`` is the model's bit.
    """

    def __init__(self, sig, roots: list, model: DirectModel | None = None):
        if (isinstance(sig, Signature) and len(sig.agents) <= _WHOLE_SHAPE[0]
                and len(sig.vars) <= _WHOLE_SHAPE[1]):
            self.use(_cut(sig, None, None))
            self.walk(*roots)
            if model is not None:
                self.point = model.alloc.index() * self.width + model.val.bits
            return
        nodes, props, agents = syntax._walk(*roots)
        if not isinstance(sig, Signature):
            sig = sig(props, agents)
        elif not (props.issubset(sig.var_index) and agents.issubset(sig.agent_index)):
            ensure_fits(disj_all(roots), sig)  # raises, naming what every root names outside it
        if model is None:
            layout = _cut(sig, props, agents)
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
            layout = _Layout(sig, owners, free, model.val.bits)
        self.use(layout)
        spent = _spent(nodes, roots) if self.large else {}
        self.support = _support(nodes, self.sig) if self.large else {}
        for pos, node in enumerate(nodes):
            if isinstance(node, Formula) and type(node) is not Not:
                self.table[id(node)] = self.build(node)
                if spent:
                    for key in spent.get(pos, ()):
                        self.table.pop(key, None)

    def use(self, layout: _Layout) -> None:
        """Make the tables over ``layout``, none built yet."""
        self.layout, self.sig, self.val, self.stride, self.rank, self.point = (
            layout, layout.sig, layout.val, layout.stride, layout.rank, layout.point)
        self.domain, self.width, self.full, self.free, self.large = (
            layout.domain, layout.width, layout.full, layout.free, layout.large)
        self.masks = {} if self.large else layout.masks  # large: kept for the query alone
        self.table: dict[int, int] = {}

    def walk(self, *roots) -> None:
        """The fit check of the roots and the table of each of their formula
        nodes but the negations, in the whole layout, from one walk.  As in
        ``syntax._walk``, every node object is visited once, children first,
        on a stack of its own, except that a run of negations is passed
        through in a loop to its base, each time a parent reaches it.  A
        formula node's table is built when the walk leaves it, so a formula
        node other than a negation is seen once it has a table, and a
        program node once it is in ``programs``.  An atom's table is the
        layout's leaf, and ``true``'s is ``full``: neither is built.  Each
        name is looked up in the signature (a variable among the leaves) as
        it is met; at a name outside it, or an object that is no node,
        ``ensure_fits`` walks the roots' join (made only then) and raises its
        error, naming what every root names outside the signature."""
        table, build, full, programs = self.table, self.build, self.full, set()
        leaves, agents = self.layout.leaves, self.sig.agent_index.keys()
        add, stack = programs.add, list(roots)
        pop, extend = stack.pop, stack.extend
        while stack:
            cur = pop()
            if cur is _END:
                cur = pop()
                table[id(cur)] = build(cur)
                continue
            kind = type(cur)
            while kind is Not:  # a run of negations: only its base gets a table
                cur = cur.body
                kind = type(cur)
            key = id(cur)
            if key in table:
                continue
            if kind is Or:
                extend((cur, _END, cur.left, cur.right))
            elif kind is Atom:
                try:
                    table[key] = leaves[cur.name]
                except KeyError:
                    break
            elif kind is Dia:
                if not cur.coalition <= agents:
                    break
                extend((cur, _END, cur.body))
            elif kind is DiaProg:
                extend((cur, _END, cur.program, cur.body))
            elif kind is Top:
                table[key] = full
            elif key in programs:
                continue
            elif kind is Give:
                if not (cur.var in leaves and cur.giver in agents and cur.receiver in agents):
                    break
            elif kind in CHILDREN:  # a compound program
                add(key)
                extend(CHILDREN[kind](cur))
            else:
                break
        else:
            return
        ensure_fits(disj_all(roots), self.sig)  # raises, as the fit check of every other path does

    def value(self, f: Formula) -> int:
        """The table of formula ``f``: a negation's is its base's,
        complemented if the run of negations down to it is odd."""
        odd = False
        while type(f) is Not:
            f, odd = f.body, not odd
        return self.full ^ self.table[id(f)] if odd else self.table[id(f)]

    def build(self, f: Formula) -> int:
        """The table of a formula node that is no negation, from its
        children's."""
        kind, value = type(f), self.value
        if kind is Or:
            return value(f.left) | value(f.right)
        if kind is Atom:
            j = self.sig.var_index[f.name]
            return self.atom(j) if j in self.free else self.full if self.val >> j & 1 else 0
        if kind is Top:
            return self.full
        if kind is Dia:  # join the table with its flip, one variable at a time
            t, flips = value(f.body), self.masks.get(f.coalition)
            for shift, true, own in self.flips(f) if flips is None else flips:
                flipped = (t & true) >> shift | (t << shift) & true
                t |= flipped if own is None else flipped & own
            return t
        return self.pre(f.program, value(f.body))  # DiaProg

    def tiled(self, row: int) -> int:
        """The table holding ``row`` at every position."""
        return _tile(row, self.width, len(self.domain))

    def atom(self, j: int) -> int:
        """The table of free variable ``j``: kept with the layout if small,
        remade where read if large, since it is read only a few times."""
        if (mask := self.masks.get(j)) is None:
            mask = self.tiled(self.free[j][1])
            if not self.large:
                self.masks[j] = mask
        return mask

    def flips(self, f: Dia):
        """The diamond's flips: per free variable the coalition can own, its
        distance within a row, its atom table, and the rows where the
        coalition owns it (``None`` if all); flipping it swaps, in those
        rows, the bits where it is true with the bits that distance below.
        A small table keeps the list with the layout, by coalition.  A large
        table makes each flip where read, only for the variables ``f``'s
        body reads, so it never holds every variable's masks at once."""
        reads = self.support[id(f.body)] if self.large else -1  # -1: every variable
        flips = ((shift, self.atom(j), None if own is self.full else own)
                 for j, (shift, _) in self.free.items()
                 if reads >> j & 1 and (own := self.own(f.coalition, j)))
        if not self.large:
            flips = self.masks[f.coalition] = list(flips)
        return flips

    def own(self, agents: frozenset[str], j: int, keep: bool = False) -> int:
        """The table whose rows are full where one of the agents owns
        variable ``j``, and empty elsewhere: kept with the layout if small,
        and for the query if ``keep`` asks (a handover's, which every
        handover of the variable from the same agent shares)."""
        if (mask := self.masks.get((agents, j))) is None:
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
                self.masks[agents, j] = mask
        return mask

    def pre(self, p: Program, table: int, forward: bool = False) -> int:
        """Per domain position, the join of the table's rows at the
        positions one run of the program reaches, each masked by the tables
        of the tests on the way.  ``forward`` reads the program the other
        way round: per position, the join of the rows at the positions a
        run reaches it from, so a table holding only the model's row gives
        the positions a run reaches from the model.

        It keeps its own stack, so programs nest without bound and no
        nesting costs a Python frame.  A frame ``[kind, parts, start, join]``
        is a compound program that ``p`` is in: the parts of its chain still
        to apply, popped from the end, the table its arms start from and
        their join; a star's holds its body and what its rounds reached.  A
        round applies the body only to what the last one added, which is
        exact since ``pre`` of a join is the join of the ``pre``s; applying
        it to all reached would at least double the time per nested star."""
        masks, frames = self.masks, []
        while True:  # apply ``p`` to the table, or push its frame
            kind = type(p)
            if kind is Give:
                key = p.giver, p.var, p.receiver, forward
                shift, own = masks.get(key) or self.step(key)
                table = (table >> shift if shift >= 0 else table << -shift) & own
            elif kind is Test:
                table &= self.value(p.condition)
            elif kind is Star:  # (x*)* is x*, so a run of stars is one frame
                while type(p) is Star:
                    p = p.body
                frames.append([Star, p, table, 0])
                continue
            else:  # a chain of arms, or of steps: the last step first unless forward
                parts = operands(p)
                if forward and kind is Seq:
                    parts.reverse()
                p = parts.pop()
                frames.append([kind, parts, table, 0])
                continue
            while frames:  # the top frame's part is done: its next part, or its end
                kind, parts, start, join = frame = frames[-1]
                if kind is Star:  # another round, on what the last one added
                    if table := table & ~start:
                        frame[2], p = start | table, parts
                        break
                    table = start
                elif parts:  # the next step, or the next arm, from the start
                    if kind is Choice:
                        frame[3], table = join | table, start
                    p = parts.pop()
                    break
                else:
                    table |= join  # a choice's arms joined (a chain of steps keeps 0)
                frames.pop()
            else:
                return table

    def step(self, key: tuple) -> tuple[int, int]:
        """The step of the handover ``(giver, var, receiver, forward)``: the
        distance ``pre`` shifts a table by, and the ownership mask of the
        rows the shift lands on.  It is kept in ``masks``, so for the query
        alone if the table is large, since a star reads it every round."""
        giver, var, receiver, forward = key
        j = self.sig.var_index[var]
        if giver not in (rank := self.rank[j]):  # no run; else the receiver is an owner too
            step = 0, 0
        else:
            source, target = (receiver, giver) if forward else (giver, receiver)
            step = ((rank[target] - rank[source]) * self.stride[j] * self.width,
                    self.own(frozenset({source}), j, keep=True))
        self.masks[key] = step
        return step

    def rows(self, t: int) -> list[int]:
        """The table's rows, position by position."""
        width, count = self.width, len(self.domain)
        data = t.to_bytes(-(-count * width // 8), "little")
        if width in _UNPACK:  # 1, 2, 4 or 8 bytes per row, read in one call
            return list(struct.unpack(f"<{count}{_UNPACK[width]}", data))
        if width > 64:  # wider rows: a slice each
            step = width >> 3
            return [int.from_bytes(data[b:b + step], "little") for b in range(0, len(data), step)]
        mask = (1 << width) - 1  # several rows per byte
        return [byte >> b & mask for byte in data for b in range(0, 8, width)][:count]

    def first(self, t: int) -> tuple[int, int]:
        """The position of a non-empty table's first non-empty row, and the
        lowest bit of that row."""
        return divmod((t ^ t - 1).bit_length() - 1, self.width)

    def mixed(self, t: int) -> bool:
        """Whether every row of the table holds some valuation and misses some."""
        if (low := self.masks.get("low")) is None:  # kept with the layout if small
            low = self.masks["low"] = self.tiled(1)

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
    return bool(tables.value(formula) & 1 << tables.point)


def program_image(model: DirectModel, program: Program) -> list[DirectModel]:
    """All models one run of the program can reach, in canonical order."""
    tables = _Tables(model.sig, [program], model)
    reached = tables.rows(tables.pre(program, 1 << tables.point, forward=True))
    allocs = sorted((tables.layout.allocation(a) for a, row in enumerate(reached) if row),
                    key=Allocation.index)
    return [DirectModel(model.sig, alloc, model.val) for alloc in allocs]


def star_depth(model: DirectModel, program: Program) -> int:
    """Rounds the iteration fixpoint needs to close from this model.

    Iterating the program's single-step image from the model stabilizes at
    some breadth-first depth B; a box over the iterated program then equals
    the conjunction of the 0..B-fold boxed bodies.
    """
    tables = _Tables(model.sig, [program], model)
    reached, rounds = 1 << tables.point, 0
    while (grown := reached | tables.pre(program, reached, forward=True)) != reached:
        reached, rounds = grown, rounds + 1
    return rounds


def truth_rows(formula: Formula, sig: Signature) -> list[int]:
    """Per allocation, in canonical order, the bitmask of the valuations
    satisfying the formula (bit ``b`` for ``Valuation(sig, b)``), all
    computed before the list is returned."""
    tables, (table,) = _tables([formula], sig)
    return tables.layout.lift(tables.rows(table))


def _tables(formulas: list[Formula], sig) -> tuple[_Tables, list[int]]:
    """The formulas' tables in a ``_cut`` layout of the signature (or of the
    one a default-signature rule makes): the whole one if it is small, else
    the one of the names they use; and each formula's table, from one walk
    over all of them."""
    tables = _Tables(sig, formulas)
    return tables, [tables.value(f) for f in formulas]
