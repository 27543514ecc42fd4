"""Syntax: ASTs, concrete grammar, desugaring, and pretty-printing.

The core formula constructors are truth, atoms, negation, disjunction,
coalition diamonds, and program diamonds; the core program constructors are
atomic handovers, sequencing, choice, iteration, and tests.  Everything
else (and/implies/iff, box duals, skip/fail/if/while/repeat, the controls
macros, giveall) is surface sugar expanded at parse time, so downstream
code only ever sees the core constructors.

Concrete formula grammar, precedence low to high:

    iff     ::= imp ("<->" iff)?
    imp     ::= or ("->" imp)?
    or      ::= and ("|" and)*
    and     ::= unary ("&" unary)*
    unary   ::= "~" unary | "dia" "{" names "}" unary | "box" "{" names "}" unary
              | "<" program ">" unary | "[" program "]" unary | primary
    primary ::= "true" | "false" | name | "(" iff ")"
              | "controls" "(" coalition "," iff ")" | "CONTROLS" "(" name "," iff ")"

Concrete program grammar, precedence low to high:

    choice  ::= seq ("+" seq)*
    seq     ::= star (";" star)*
    star    ::= base "*"*
    base    ::= "give" "(" name "," name "," name ")" | "test" "(" iff ")"
              | "(" iff ")" "?" | "(" choice ")" | "skip" | "fail"
              | "if" iff "then" choice "else" choice
              | "while" iff "do" choice
              | "repeat" choice "until" iff
              | "giveall" "(" name ")" | "giveall" "(" coalition "->" coalition ")"

The bodies of if/while/repeat extend as far right as possible.  A coalition
is a single name or a brace-enclosed comma list (possibly empty).

The parser is one operator-precedence loop over an explicit stack (see
``_read``): a prefix run and the infix operators waiting for an operand are
entries on it, and every construct that nests (a group, ``<p>``/``[p]``, a
call's formula argument, the parts of if/while/repeat) is a frame on it, so
nesting costs no Python frame.  Formulas and programs nest without bound,
as the program interpreter keeps its own stack too.  ``render`` writes them
back in one loop over a stack of its own: it follows each node's first
part, and what comes after that part waits on the stack.
"""

from __future__ import annotations

import re
from functools import partial, reduce

from .model import (
    DirectModel,
    Signature,
    SignatureError,
    Value,
    _NAME_RE,
    is_valid_name,
    model_from_dict,
)


class Formula(Value):
    __slots__ = ()


class Program(Value):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)


class Not(Formula):
    __slots__ = ("body",)


class Or(Formula):
    __slots__ = ("left", "right")


class Dia(Formula):
    """Coalition ability: some assignment to the coalition's variables makes
    the body true.  The coalition may be empty."""

    __slots__ = ("coalition", "body")

    def __init__(self, coalition, body: Formula) -> None:
        self._assign(frozenset(coalition), body)


class DiaProg(Formula):
    """Program ability: some terminating run of the program reaches a state
    where the body is true."""

    __slots__ = ("program", "body")


class Give(Program):
    __slots__ = ("giver", "var", "receiver")


class Seq(Program):
    __slots__ = ("first", "second")


class Choice(Program):
    __slots__ = ("left", "right")


class Star(Program):
    __slots__ = ("body",)


class Test(Program):
    __test__ = False  # keep pytest from collecting the AST class
    __slots__ = ("condition",)


TOP = Top()


# ---------------------------------------------------------------------------
# Derived forms.  Each expansion follows the defining equation exactly;
# n-ary folds associate to the left.

def bottom() -> Formula:
    return Not(TOP)


def conj(left: Formula, right: Formula) -> Formula:
    return Not(Or(Not(left), Not(right)))


def implies(premise: Formula, conclusion: Formula) -> Formula:
    return Or(Not(premise), conclusion)


def iff(left: Formula, right: Formula) -> Formula:
    return conj(implies(left, right), implies(right, left))


def disj_all(formulas) -> Formula:
    items = list(formulas)
    return reduce(Or, items) if items else bottom()


def conj_all(formulas) -> Formula:
    items = list(formulas)
    return reduce(conj, items) if items else TOP


def box(coalition, body: Formula) -> Formula:
    return Not(Dia(frozenset(coalition), Not(body)))


def box_prog(program: Program, body: Formula) -> Formula:
    return Not(DiaProg(program, Not(body)))


def nabla(formulas) -> Formula:
    """Exactly one of the given formulas holds: their disjunction, conjoined
    with the negation of every pairwise conjunction."""
    items = list(formulas)
    any_part = disj_all(items)
    pairs = [
        Not(conj(items[i], items[j]))
        for i in range(len(items))
        for j in range(i + 1, len(items))
    ]
    if not pairs:
        return any_part
    return conj(any_part, conj_all(pairs))


def controls(coalition, body: Formula) -> Formula:
    """The coalition can make the body true and can make it false."""
    c = frozenset(coalition)
    return conj(Dia(c, body), Dia(c, Not(body)))


def choice_all(programs) -> Program:
    items = list(programs)
    return reduce(Choice, items) if items else Test(bottom())


def give_program(givers, receivers, sig: Signature) -> Program:
    """Nondeterministic handover: any giver passes any variable it currently
    controls to any receiver, or keeps it.

    Every handover of every variable of the signature is an arm, so the
    same program text is correct under every allocation: a handover runs
    only where its giver owns the variable, so an arm needs no test.
    """
    giver_list, targets = sorted(set(givers)), set(receivers)
    if not giver_list:
        raise SignatureError("give program needs a non-empty giving coalition")
    for a in giver_list + sorted(targets):
        if a not in sig.agent_index:
            raise SignatureError(f"unknown agent {a!r}")
    return choice_all(Give(i, p, j) for i in giver_list for p in sig.vars
                      for j in sorted(targets | {i}))


def second_order_controls(agent: str, body: Formula, sig: Signature) -> Formula:
    """The agent can redistribute its variables so that it can then make the
    body true, and can also redistribute so that it can make it false."""
    redistribute = Star(give_program({agent}, sig.agents, sig))
    return conj(
        DiaProg(redistribute, Dia(frozenset({agent}), body)),
        DiaProg(redistribute, Dia(frozenset({agent}), Not(body))),
    )


# ---------------------------------------------------------------------------
# Signature extraction and fit checking.

# Each node kind's children, in order.  ``_walk`` reads them inline, in this
# order; ``semantics._Tables.walk`` reads a compound program's from here.
CHILDREN = {
    Top: lambda n: (), Atom: lambda n: (), Give: lambda n: (),
    Not: lambda n: (n.body,), Dia: lambda n: (n.body,), Star: lambda n: (n.body,),
    Test: lambda n: (n.condition,), Or: lambda n: (n.left, n.right),
    Choice: lambda n: (n.left, n.right), Seq: lambda n: (n.first, n.second),
    DiaProg: lambda n: (n.program, n.body),
}


_END = object()  # pushed between a node and its children: the node is next off the stack


def _walk(*roots) -> tuple[list, frozenset[str], frozenset[str]]:
    """Every node object of the formulas or programs once, children first,
    and the variables and agents named anywhere in them, from one walk.

    Sugar shares subtrees (``<->`` uses each operand twice), so nodes are
    keyed on identity: a node object is listed once however many parents
    it has, in one root or several.  A leaf is listed when first seen; a
    node with children when the end marker pushed below them comes off the
    stack.  The walk keeps its own stack, so depth costs no recursion.  It
    reads the children ``CHILDREN`` lists in one chain of tests on the
    kind, the kinds most frequent in expanded sugar first.
    """
    out, seen, props, agents, stack = [], set(), set(), set(), list(roots)
    pop, append, extend, add = stack.pop, out.append, stack.extend, seen.add
    while stack:
        cur = pop()
        if cur is _END:
            append(pop())
            continue
        key = id(cur)
        if key in seen:
            continue
        add(key)
        kind = type(cur)
        if kind is Not:
            extend((cur, _END, cur.body))
        elif kind is Or:
            extend((cur, _END, cur.left, cur.right))
        elif kind is Atom:
            append(cur)
            props.add(cur.name)
        elif kind is Dia:
            agents.update(cur.coalition)
            extend((cur, _END, cur.body))
        elif kind is DiaProg:
            extend((cur, _END, cur.program, cur.body))
        elif kind is Give:
            append(cur)
            agents.update((cur.giver, cur.receiver))
            props.add(cur.var)
        elif kind is Top:
            append(cur)
        elif kind is Choice:
            extend((cur, _END, cur.left, cur.right))
        elif kind is Star:
            extend((cur, _END, cur.body))
        elif kind is Test:
            extend((cur, _END, cur.condition))
        elif kind is Seq:
            extend((cur, _END, cur.first, cur.second))
        else:
            raise TypeError(f"not a formula or program: {cur!r}")
    return out, frozenset(props), frozenset(agents)


def operands(node) -> list:
    """The operands of the left-leaning chain of the node's kind that the
    node heads, left to right (``a, b, c`` for ``(a | b) | c``), found in a
    loop: a chain's length costs no recursion."""
    kind, out = type(node), []
    while type(node) is kind:
        node, right = CHILDREN[kind](node)
        out.append(right)
    out.append(node)
    out.reverse()
    return out


def signature_of(node) -> tuple[frozenset[str], frozenset[str]]:
    """All variables and agents named anywhere in a formula or program,
    including inside programs and tests."""
    return _walk(node)[1:]


def ensure_fits(node, sig: Signature) -> None:
    """Raise ``SignatureError`` if the node names anything outside the
    signature."""
    props, agents = _walk(node)[1:]
    parts = [f"{kind}(s) " + ", ".join(sorted(bad)) for kind, bad in
             (("variable", props.difference(sig.var_index)),
              ("agent", agents.difference(sig.agent_index))) if bad]
    if parts:
        raise SignatureError("outside the signature: " + "; ".join(parts))


# ---------------------------------------------------------------------------
# Lexer.

KEYWORDS = {
    "true", "false", "dia", "box", "controls", "CONTROLS",
    "give", "giveall", "test", "skip", "fail",
    "if", "then", "else", "while", "do", "repeat", "until",
}

_PROGRAM_KEYWORDS = {"give", "giveall", "test", "skip", "fail", "if", "while", "repeat"}

# One lexer reads every formula and program text.  ``_CLEAN`` matches a
# text's clean prefix: blanks, symbols, ``#`` comments (to the end of the
# line) and names that ``is_valid_name`` accepts, none followed by a word
# character.  A text that is clean as a whole is read by one call of
# ``_LEXEME``, which finds its symbols, words and comments and skips the
# blanks; any other text is refused where its clean prefix ends.  A line
# ends at "\n" only.  Both regexes are built from ``_SYMBOL``, which reads
# a text one way only (a "<" is never the start of "<->"), so they read a
# text alike, and in linear time.  Positions are found from the lexemes'
# offsets, and only for an error.
_SYMBOL = r"<->|->|<(?!->)|[(){}\[\]>~&|;+*?,]"
_CLEAN = re.compile(rf"(?:\s|{_SYMBOL}|(?:{_NAME_RE.pattern})(?!\w)|#[^\n]*)*")
_LEXEME = re.compile(rf"{_SYMBOL}|\w+|#[^\n]*")


class ParseError(Exception):
    """Syntax error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _place(text: str, offset: int) -> tuple[int, int]:
    """The line and column of the text's character at ``offset``.  A column
    counts characters: a tab or a carriage return is one."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _offsets(text: str) -> list[int]:
    """The offset of each lexeme of a clean text, as ``_lex`` lists them.  The
    end of input is at the end of the text, or where a comment on its last
    line starts: a comment moves no column."""
    offsets = [match.start() for match in _LEXEME.finditer(text) if match[0][0] != "#"]
    end = text.find("#", text.rfind("\n") + 1)
    offsets.append(len(text) if end < 0 else end)
    return offsets


def _lex(text: str) -> list[str]:
    """The text's lexemes, then ``""`` for the end, read by one regex call
    once ``_CLEAN`` has matched the whole text.  A lexeme is its own kind: a
    symbol or a keyword is itself, any other word a name."""
    end = _CLEAN.match(text).end()
    if end < len(text):  # a word there is not a name; anything else, no lexeme
        word = _LEXEME.match(text, end)
        raise ParseError(f"bad identifier {word[0]!r}" if word else
                         f"unexpected character {text[end]!r}", *_place(text, end))
    lexemes = _LEXEME.findall(text)
    if "#" in text:
        lexemes = [lexeme for lexeme in lexemes if lexeme[0] != "#"]
    lexemes.append("")
    return lexemes


# ---------------------------------------------------------------------------
# Parser.
#
# One loop reads the lexemes left to right over an explicit stack, so no
# nesting costs a Python frame.  The stack holds frames and, above each,
# the operators of the expression the frame reads that still wait for
# their right operand: an infix operator with its left operand, or a
# prefix one (``~``, ``dia{C}``, ``<p>``...) with its coalition or program.
# An operator entry is a tuple ``(level, constructor, left)``; ``left`` is
# None for ``~``, and a prefix run is a run of entries of ``_PREFIX_LEVEL``.
# A frame is a list ``[0, tag, data, sort]``: level 0 stops every
# reduction, ``data`` is what the frame has read or will apply, and
# ``sort`` is that of the frame below it, which its end restores.  A frame
# is one of: the whole text; a parenthesized formula, or a call's formula
# argument; a program between ``<`` and ``>`` (or ``[`` and ``]``); a group
# in program position; and the parts of an ``if``, ``while`` or ``repeat``.
#
# The loop alternates two steps.  It reads an operand: a prefix operator is
# pushed, an opening token pushes a frame, and a flat token (a name, a
# ``give(...)`` or a ``giveall(...)``) is the operand.  Then, with the
# operand in hand, it reads the stars after a program, and the next
# lexeme: an infix operator of the frame's sort first applies the entries
# above the frame that bind at least as tightly, as in Dijkstra's
# shunting-yard, and is pushed; anything else applies all of them and ends
# the frame's expression.  The frame then checks its closing lexeme and
# makes the operand of the frame below it, or goes on to its next part.

# Infix operators: token -> (sort, level, constructor, binds right).  A
# higher level binds tighter.
_INFIX = {
    "<->": ("formula", 1, iff, True), "->": ("formula", 2, implies, True),
    "|": ("formula", 3, Or, False), "&": ("formula", 4, conj, False),
    "+": ("program", 1, Choice, False), ";": ("program", 2, Seq, False),
}

# Prefix operators: token text -> constructor, given what follows the token
# (a coalition or a program) and then the operand.  They bind tighter than
# every infix operator.
_PREFIX = {"~": Not, "dia": Dia, "box": box, "<": DiaProg, "[": box_prog}
_PREFIX_LEVEL = 5

# A sort is read as its infix operators: token -> (level, constructor, the
# lowest level that the operator applies before it is pushed).
_FORMULA, _PROGRAM = ({tok: (level, build, level + right)
                       for tok, (of, level, build, right) in _INFIX.items() if of == sort}
                      for sort in ("formula", "program"))

# Every lexeme that is not a name: the symbols, the keywords, and the end.
_NOT_NAME = frozenset(("<->", "->", *"(){}[]<>~&|;+*?,", *KEYWORDS, ""))

# Frame tags.  An ``if`` frame reads its condition, then (_THEN) its
# then-branch and (_ELSE) its else-branch; ``while`` its condition and (_DO)
# its body; ``repeat`` its body and (_UNTIL) its condition.
_WHOLE, _PAREN, _DIAMOND, _GROUP, _IF, _THEN, _ELSE, _WHILE, _DO, _REPEAT, _UNTIL = range(11)
_BODIES = {"if": (_IF, _FORMULA), "while": (_WHILE, _FORMULA), "repeat": (_REPEAT, _PROGRAM)}
# per part that ends at a keyword: the keyword, the next part and what it reads
_PARTS = {_IF: ("then", _THEN, _PROGRAM), _THEN: ("else", _ELSE, _PROGRAM),
          _WHILE: ("do", _DO, _PROGRAM), _REPEAT: ("until", _UNTIL, _FORMULA)}


class _Refusal(Exception):
    """A syntax error at a lexeme index; ``_parse`` finds its position."""


def _expected(lexemes: list[str], i: int, what: str) -> _Refusal:
    return _Refusal(f"expected {what}, got {lexemes[i] or 'end of input'!r}", i)


def _skip(lexemes: list[str], i: int, symbol: str) -> int:
    """The index after lexeme ``i``, which must be the symbol."""
    if lexemes[i] != symbol:
        raise _expected(lexemes, i, repr(symbol))
    return i + 1


def _name(lexemes: list[str], i: int, what: str) -> str:
    """Lexeme ``i``, which must be a name."""
    if lexemes[i] in _NOT_NAME:
        raise _expected(lexemes, i, what)
    return lexemes[i]


def _coalition(lexemes: list[str], i: int) -> tuple[frozenset[str], int]:
    """The coalition at lexeme ``i``, a name or a braced comma list, and the
    index after it."""
    if lexemes[i] != "{":
        return frozenset((_name(lexemes, i, "agent name"),)), i + 1
    names, i = set(), i + 1
    if lexemes[i] != "}":
        names.add(_name(lexemes, i, "agent name"))
        i += 1
        while lexemes[i] == ",":
            names.add(_name(lexemes, i + 1, "agent name"))
            i += 2
    return frozenset(names), _skip(lexemes, i, "}")


def _read(lexemes: list[str], sig: Signature | None, sort: dict):
    """The AST of all of the lexemes, read as a ``sort`` (see above)."""
    # ``sort`` is what the top frame reads now, _FORMULA or _PROGRAM (None
    # in a group that its leading group decides)
    stack = [[0, _WHOLE, None, None]]
    push, pop, i = stack.append, stack.pop, 0
    while True:
        tok = lexemes[i]
        if sort is _FORMULA:  # a prefix operator, an opening token or a primary
            if tok not in _NOT_NAME:
                x, i = Atom(tok), i + 1
            elif tok == "(":
                push([0, _PAREN, None, sort])
                i += 1
                continue
            elif tok == "~":
                push((_PREFIX_LEVEL, Not, None))
                i += 1
                continue
            elif tok == "<" or tok == "[":
                push([0, _DIAMOND, tok, sort])
                sort, i = _PROGRAM, i + 1
                continue
            elif tok == "dia" or tok == "box":
                if lexemes[i + 1] != "{":
                    raise _Refusal(f"expected '{{' after {tok}", i + 1)
                coalition, i = _coalition(lexemes, i + 1)
                push((_PREFIX_LEVEL, _PREFIX[tok], coalition))
                continue
            elif tok == "true":
                x, i = TOP, i + 1
            elif tok == "false":
                x, i = bottom(), i + 1
            elif tok == "controls":
                coalition, i = _coalition(lexemes, _skip(lexemes, i + 1, "("))
                push([0, _PAREN, partial(controls, coalition), sort])
                i = _skip(lexemes, i, ",")
                continue
            elif tok == "CONTROLS":
                if sig is None:
                    raise _Refusal("CONTROLS needs a signature in scope", i + 1)
                i = _skip(lexemes, i + 1, "(")
                agent = _name(lexemes, i, "agent name")
                i = _skip(lexemes, i + 1, ",")
                push([0, _PAREN, partial(second_order_controls, agent, sig=sig), sort])
                continue
            else:
                raise _Refusal(f"expected a formula, got {tok or 'end of input'!r}", i)
        elif tok == "(":  # a group: a program, or a formula that "?" makes a test
            push([0, _GROUP, None, sort])
            tok, i = lexemes[i + 1], i + 1  # a leading "(" opens a group its value decides
            sort = None if tok == "(" else _PROGRAM if tok in _PROGRAM_KEYWORDS else _FORMULA
            continue
        elif tok == "give":
            i = _skip(lexemes, i + 1, "(")
            giver = _name(lexemes, i, "agent name")
            i = _skip(lexemes, i + 1, ",")
            var = _name(lexemes, i, "variable name")
            i = _skip(lexemes, i + 1, ",")
            receiver = _name(lexemes, i, "agent name")
            x, i = Give(giver, var, receiver), _skip(lexemes, i + 1, ")")
        elif tok == "skip":
            x, i = Test(TOP), i + 1
        elif tok == "test":
            i = _skip(lexemes, i + 1, "(")
            push([0, _PAREN, Test, sort])
            sort = _FORMULA
            continue
        elif tok == "fail":
            x, i = Test(bottom()), i + 1
        elif tok == "giveall":
            if sig is None:
                raise _Refusal("giveall needs a signature in scope", i + 1)
            start, i = i, _skip(lexemes, i + 1, "(")
            if lexemes[i] not in _NOT_NAME and lexemes[i + 1] == ")":  # one agent, to anyone
                givers, receivers, i = frozenset((lexemes[i],)), sig.agents, i + 1
            else:
                givers, i = _coalition(lexemes, i)
                receivers, i = _coalition(lexemes, _skip(lexemes, i, "->"))
            i = _skip(lexemes, i, ")")
            if not givers:
                raise _Refusal("giveall needs a non-empty giving coalition", start)
            x = give_program(givers, receivers, sig)
        elif tok in _BODIES:
            tag, part = _BODIES[tok]
            push([0, tag, None, sort])
            sort, i = part, i + 1
            continue
        else:
            raise _Refusal(f"expected a program, got {tok or 'end of input'!r}", i)

        while True:  # ``x`` is an operand of the top frame's expression
            tok = lexemes[i]
            if sort is _PROGRAM:
                while tok == "*":
                    x, i = Star(x), i + 1
                    tok = lexemes[i]
            op = sort.get(tok)
            if op is not None:
                level, build, binds = op
                while stack[-1][0] >= binds:  # apply what binds at least as tightly
                    _, apply, left = pop()
                    x = apply(x) if left is None else apply(left, x)
                push((level, build, x))
                i += 1
                break
            while stack[-1][0]:  # the expression ends: apply every operator to it
                _, apply, left = pop()
                x = apply(x) if left is None else apply(left, x)
            frame = stack[-1]
            tag = frame[1]
            if tag == _PAREN:
                i = _skip(lexemes, i, ")")
                pop()
                if frame[2] is not None:
                    x = frame[2](x)
            elif tag == _DIAMOND:  # the program becomes a prefix operator's
                i = _skip(lexemes, i, ">" if frame[2] == "<" else "]")
                pop()
                push((_PREFIX_LEVEL, _PREFIX[frame[2]], x))
                sort = frame[3]
                break
            elif tag == _GROUP:
                i = _skip(lexemes, i, ")")
                pop()
                if frame[3] is None:  # the leading group of a group
                    if isinstance(x, Formula) and lexemes[i] == "?":
                        x, i = Test(x), i + 1
                    sort = _PROGRAM if isinstance(x, Program) else _FORMULA
                    continue
                if isinstance(x, Formula):
                    x, i = Test(x), _skip(lexemes, i, "?")
            elif tag == _WHOLE:
                if tok:
                    raise _Refusal(f"unexpected trailing input {tok!r}", i)
                return x
            elif tag in _PARTS:
                word, frame[1], sort = _PARTS[tag]
                if tok != word:
                    raise _Refusal(f"expected {word!r}", i)
                frame[2] = x if frame[2] is None else (frame[2], x)
                i += 1
                break
            else:
                pop()
                if tag == _ELSE:
                    cond, then = frame[2]
                    x = Choice(Seq(Test(cond), then), Seq(Test(Not(cond)), x))
                elif tag == _DO:
                    cond = frame[2]
                    x = Seq(Star(Seq(Test(cond), x)), Test(Not(cond)))
                else:  # _UNTIL
                    body = frame[2]
                    x = Seq(Seq(body, Star(Seq(Test(Not(x)), body))), Test(x))
            sort = frame[3]


def _parse(text: str, sig: Signature | None, sort: dict):
    """All of the text as a ``sort``; a refusal's position is found from its
    lexeme's offset, only then."""
    try:
        return _read(_lex(text), sig, sort)
    except _Refusal as refusal:
        message, index = refusal.args
        raise ParseError(message, *_place(text, _offsets(text)[index])) from None


def parse_formula(text: str, sig: Signature | None = None) -> Formula:
    """Parse concrete formula syntax into the core AST, expanding all sugar.

    A signature is only required for constructs that quantify over it
    (CONTROLS and giveall).
    """
    return _parse(text, sig, _FORMULA)


def parse_program(text: str, sig: Signature | None = None) -> Program:
    """Parse concrete program syntax into the core AST, expanding all sugar."""
    return _parse(text, sig, _PROGRAM)


# ---------------------------------------------------------------------------
# Model files.

def parse_model(text: str) -> DirectModel:
    """Parse the line-oriented model file format.

    Expected lines: ``agents: a b``, ``vars: p q``, one ``owns a: p q`` per
    agent, and ``true: p``.  ``#`` starts a comment.  Every variable must be
    owned by exactly one agent; ``model_from_dict`` checks that.  A line
    ends at ``\\n`` only, as in the formula lexer: any other line or page
    break (``\\r``, ``\\v``, ``\\f``, ``\\x85``, ``\\u2028``, ...) is a blank.
    Each name is checked once, where it is first read.
    """
    lists: dict = {}  # the agents, vars and true lines, then the owns lines
    owns: dict[str, list[str]] = {}
    checked: set[str] = set()  # the names found valid so far
    for line_no, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        head, sep, body = line.partition(":")
        head = head.strip()
        if not sep:
            if head:
                raise ParseError(f"expected 'keyword: ...', got {head!r}", line_no, 1)
            continue
        if head in _MODEL_LISTS:
            if head in lists:
                raise ParseError(f"duplicate {head} line", line_no, 1)
            into, key = lists, head
        elif head[:4] == "owns" and (len(head) == 4 or head[4].isspace()):
            key = head[4:].lstrip()
            if key not in checked:
                if not is_valid_name(key):
                    raise ParseError(f"bad agent name {key!r} in owns line", line_no, 1)
                checked.add(key)
            if key in owns:
                raise ParseError(f"duplicate owns line for agent {key!r}", line_no, 1)
            into = owns
        else:
            raise ParseError(f"unknown line kind {head!r}", line_no, 1)
        names = into[key] = body.split()
        if not checked.issuperset(names):
            for name in names:
                if name not in checked:
                    if not is_valid_name(name):
                        raise ParseError(f"bad identifier {name!r}", line_no, 1)
                    checked.add(name)

    for head in ("agents", "vars"):
        if not lists.get(head):
            raise ParseError(f"model needs a non-empty {head} line", 1, 1)
    if "true" not in lists:
        raise ParseError("model needs a true line (possibly empty)", 1, 1)
    lists["owns"] = owns
    try:
        return model_from_dict(lists)
    except SignatureError as err:
        raise ParseError(str(err), 1, 1) from None


_MODEL_LISTS = frozenset(("agents", "vars", "true"))


# ---------------------------------------------------------------------------
# Rendering, in one loop over an explicit stack (see ``render``).
# parse(render(x)) is structurally equal to x at any depth.

# A level says how tightly a place binds, and so whether a node there needs
# parentheses; formula and program levels differ, so a level gives the sort.
# Per chain kind: the separator, every operand's level (the first is not of
# the chain's kind), and the loosest level that needs no parentheses.
_F_OR, _F_UNARY, _P_CHOICE, _P_SEQ, _P_STAR, _P_BASE = range(1, 7)
_CHAINS = {Or: (" | ", _F_UNARY, _F_OR), Seq: ("; ", _P_STAR, _P_SEQ),
           Choice: (" + ", _P_SEQ, _P_CHOICE)}


def render(node) -> str:
    """Concrete syntax for a core formula or program, minimally parenthesized,
    that parses back to it at any depth: one loop follows each node's first
    part, and what comes after that part waits on a stack, as a text or as
    a later part ``(text before it, node, level)``.  A shared subtree is
    written once per path: an n-operand ``<->`` chain (154 nodes at n = 18)
    renders as text exponential in n, 3.8 MB at 18.
    """
    if not isinstance(node, (Formula, Program)):
        raise TypeError(f"not a formula or program: {node!r}")
    out, stack, level = [], [None], _F_OR if isinstance(node, Formula) else _P_CHOICE
    write, push, pop = out.append, stack.append, stack.pop
    while True:
        kind = type(node)
        if level <= _F_UNARY:  # a formula's place
            if kind is Not:
                write("~")
                node, level = node.body, _F_UNARY
                continue
            if kind is Top or kind is Atom:
                write("true" if kind is Top else node.name)
            elif kind is Dia:
                write("dia{" + ",".join(sorted(node.coalition)) + "}(")
                push(")")
                node, level = node.body, _F_OR
                continue
            elif kind is DiaProg:
                write("<")
                stack += ")", (">(", node.body, _F_OR)
                node, level = node.program, _P_CHOICE
                continue
            elif kind is not Or:
                raise TypeError(f"not a core formula: {node!r}")
        elif kind is Give:
            write(f"give({node.giver},{node.var},{node.receiver})")
        elif kind is Test and node.condition != TOP and node.condition != Not(TOP):
            write("(")
            push(")?")
            node, level = node.condition, _F_OR
            continue
        elif kind is Test:
            write("skip" if node.condition == TOP else "fail")
        elif kind is Star:  # a run of stars needs no parentheses: x** is Star(Star(x))
            push("*")
            node, level = node.body, _P_BASE
            continue
        elif kind is not Seq and kind is not Choice:
            raise TypeError(f"not a core program: {node!r}")
        if kind in _CHAINS:  # the node heads a chain of its kind
            sep, inner, loosest = _CHAINS[kind]
            if level > loosest:
                write("(")
                push(")")
            node, last = node._values()
            push((sep, last, inner))
            if type(node) is kind:  # a call per link renders the catalogue 40% slower
                node, *rest = operands(node)
                stack += [(sep, part, inner) for part in reversed(rest)]
            level = inner
            continue
        item = pop()  # a leaf: write the texts that wait, up to the next part
        while type(item) is str:
            write(item)
            item = pop()
        if item is None:
            return "".join(out)
        text, node, level = item
        write(text)
