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
"""

from __future__ import annotations

import re
from functools import partial, reduce
from itertools import repeat
from typing import NamedTuple

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

# Each node kind's children, in order (``_walk`` reads them inline, in this order).
CHILDREN = {
    Top: lambda n: (), Atom: lambda n: (), Give: lambda n: (),
    Not: lambda n: (n.body,), Dia: lambda n: (n.body,), Star: lambda n: (n.body,),
    Test: lambda n: (n.condition,), Or: lambda n: (n.left, n.right),
    Choice: lambda n: (n.left, n.right), Seq: lambda n: (n.first, n.second),
    DiaProg: lambda n: (n.program, n.body),
}


_END = object()  # pushed between a node and its children: the node is next off the stack


def _walk(node) -> tuple[list, frozenset[str], frozenset[str]]:
    """Every node object of a formula or program once, children first, and
    the variables and agents named anywhere in it, from one walk.

    Sugar shares subtrees (``<->`` uses each operand twice), so nodes are
    keyed on identity: a node object is listed once however many parents
    it has.  A leaf is listed when first seen; a node with children when
    the end marker pushed below them comes off the stack.  The walk keeps
    its own stack, so depth costs no recursion.  It reads the children
    ``CHILDREN`` lists in one chain of tests on the kind, the kinds most
    frequent in expanded sugar first.
    """
    out, seen, props, agents, stack = [], set(), set(), set(), [node]
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


def postorder(node) -> list:
    """Every node object of a formula or program once, children first (see
    ``_walk``)."""
    return _walk(node)[0]


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


def ensure_fits(node, sig: Signature) -> tuple[list, frozenset[str], frozenset[str]]:
    """Raise ``SignatureError`` if the node names anything outside the
    signature; otherwise return ``postorder(node)`` and the variables and
    agents it names, all from one ``_walk``, so that a caller walking the
    node next needs no second walk."""
    nodes, props, agents = _walk(node)
    parts = [f"{kind}(s) " + ", ".join(sorted(bad)) for kind, bad in
             (("variable", props.difference(sig.var_index)),
              ("agent", agents.difference(sig.agent_index))) if bad]
    if parts:
        raise SignatureError("outside the signature: " + "; ".join(parts))
    return nodes, props, agents


# ---------------------------------------------------------------------------
# Lexer.

KEYWORDS = {
    "true", "false", "dia", "box", "controls", "CONTROLS",
    "give", "giveall", "test", "skip", "fail",
    "if", "then", "else", "while", "do", "repeat", "until",
}

_PROGRAM_KEYWORDS = {"give", "giveall", "test", "skip", "fail", "if", "while", "repeat"}

# One alternative per kind of lexeme; "<->" and "->" are tried before "<".
# Only ``_tokenize`` reads it, which only a text with a comment or an error
# reaches (see below), so ``re`` compiles it when first used, not at import.
_SYMBOL = r"<->|->|[(){}\[\]<>~&|;+*?,]"
_LEXEME = (rf"(?P<symbol>{_SYMBOL})|(?P<word>\w+)|(?P<space>[^\S\n]+)"
           r"|(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<other>.)")

# The parser reads a text's tokens from one regex call: ``_WORD_OR_SYMBOL``
# finds the lexemes, skipping the blanks between them, and ``_KIND`` gives
# each one's kind (a symbol is its own kind; a word not in it is a name).
# That reading is exact only for a clean text, which ``_CLEAN`` matches
# whole: blanks, symbols, and names that ``is_valid_name`` accepts, none
# followed by a word character.  Any other text (a comment, a stray
# character, a bad identifier) is read by ``_tokenize``, which raises the
# positioned error.  ``_tokenize`` alone gives token positions; the parser
# reads them only to report an error.  ``_CLEAN`` reads a text in one way
# only (a "<" is never the start of "<->"), so refusing a text backtracks
# in linear time.
_CLEAN = re.compile(r"(?:\s|<->|->|<(?!->)|[(){}\[\]>~&|;+*?,]"
                    rf"|(?:{_NAME_RE.pattern})(?!\w))*")
_WORD_OR_SYMBOL = re.compile(rf"{_SYMBOL}|\w+")
_KIND = {**{s: s for s in ("<->", "->", *"(){}[]<>~&|;+*?,")},
         **dict.fromkeys(KEYWORDS, "keyword")}


class ParseError(Exception):
    """Syntax error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # "name", "keyword", symbol text, or "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    """The text's tokens, then an "end" token.  A column counts characters;
    a comment moves no column."""
    tokens: list[_Token] = []
    line, col = 1, 1
    for match in re.finditer(_LEXEME, text, re.DOTALL):
        kind, lexeme = match.lastgroup, match.group()
        if kind == "symbol":
            tokens.append(_Token(lexeme, lexeme, line, col))
        elif kind == "word":
            if lexeme in KEYWORDS:
                tokens.append(_Token("keyword", lexeme, line, col))
            elif is_valid_name(lexeme):
                tokens.append(_Token("name", lexeme, line, col))
            else:
                raise ParseError(f"bad identifier {lexeme!r}", line, col)
        elif kind == "newline":
            line, col = line + 1, 1
            continue
        elif kind == "comment":
            continue
        elif kind == "other":
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
        col += len(lexeme)
    tokens.append(_Token("end", "", line, col))
    return tokens


def _lex(text: str) -> list[tuple[str, str]]:
    """The text's tokens as ``(kind, text)`` pairs, then ``("end", "")``: what
    ``_tokenize`` gives without the positions, from one regex call when the
    text is clean, or else from ``_tokenize``, which raises its errors."""
    if _CLEAN.fullmatch(text):
        lexemes = _WORD_OR_SYMBOL.findall(text)
        return [*zip(map(_KIND.get, lexemes, repeat("name")), lexemes), ("end", "")]
    return [tok[:2] for tok in _tokenize(text)]


# ---------------------------------------------------------------------------
# Parser.

# Infix operators: token -> (sort, level, constructor, binds right).  A
# higher level binds tighter.
_INFIX = {
    "<->": ("formula", 1, iff, True), "->": ("formula", 2, implies, True),
    "|": ("formula", 3, Or, False), "&": ("formula", 4, conj, False),
    "+": ("program", 1, Choice, False), ";": ("program", 2, Seq, False),
}

# Prefix operators: token text -> constructor, given what follows the token
# (a coalition or a program) and then the operand.
_PREFIX = {"~": Not, "dia": Dia, "box": box, "<": DiaProg, "[": box_prog}


class _Parser:
    """Recursive descent over ``_lex``'s ``(kind, text)`` pairs; ``pos`` is
    the index of the current token."""

    def __init__(self, text: str, sig: Signature | None):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.sig = sig

    def fail(self, message: str, index: int | None = None) -> ParseError:
        """An error at token ``index``, by default the current one.  Its line
        and column come from ``_tokenize``, run only now."""
        tok = _tokenize(self.text)[self.pos if index is None else index]
        return ParseError(message, tok.line, tok.col)

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok[0] == kind and (text is None or tok[1] == text)

    def accept(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        if tok[0] == kind and (text is None or tok[1] == text):
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str | None = None) -> str:
        """The current token's text, which must be of the kind; moves past it."""
        tok_kind, text = self.tokens[self.pos]
        if tok_kind != kind:
            raise self.fail(f"expected {what or repr(kind)}, got {text or 'end of input'!r}")
        self.pos += 1
        return text

    def name(self, what: str) -> str:
        return self.expect("name", what)

    def agent(self) -> str:
        return self.name("agent name")

    def coalition(self) -> frozenset[str]:
        if self.accept("{"):
            names: set[str] = set()
            if not self.at("}"):
                names.add(self.agent())
                while self.accept(","):
                    names.add(self.agent())
            self.expect("}")
            return frozenset(names)
        return frozenset({self.agent()})

    def call(self, *readers) -> list:
        """A parenthesized, comma-separated argument list: what each reader
        reads, in order."""
        self.expect("(")
        out = [readers[0]()]
        for read in readers[1:]:
            self.expect(",")
            out.append(read())
        self.expect(")")
        return out

    def keyword(self, word: str, read):
        """The keyword, then what ``read`` reads."""
        if not self.accept("keyword", word):
            raise self.fail(f"expected {word!r}")
        return read()

    def handovers(self) -> tuple:
        """The argument of ``giveall``, once a signature is known to be in
        scope: one agent, who may pass to every agent, or a giving
        coalition ``->`` a receiving one."""
        if self.at("name") and self.tokens[self.pos + 1][0] == ")":
            return frozenset({self.agent()}), self.sig.agents
        givers = self.coalition()
        self.expect("->")
        return givers, self.coalition()

    def need_sig(self, construct: str) -> Signature:
        if self.sig is None:
            raise self.fail(f"{construct} needs a signature in scope")
        return self.sig

    def whole(self, read):
        """All of the text as what ``read`` reads.  Nesting too deep for the
        interpreter's stack is a syntax error at the token reached."""
        try:
            out = read()
        except RecursionError:
            raise self.fail("nested too deeply") from None
        kind, text = self.tokens[self.pos]
        if kind != "end":
            raise self.fail(f"unexpected trailing input {text!r}")
        return out

    def formula(self) -> Formula:
        return self.infix("formula", 1)

    def program(self) -> Program:
        return self.infix("program", 1)

    def infix(self, sort: str, level: int, first=None):
        """Operands of the sort joined by its infix operators of at least
        the given level: precedence climbing over ``_INFIX``.  ``first`` is
        the leftmost operand (before any star) if it has been read already."""
        if sort == "program":
            out = self.star(first)
        else:
            out = self.unary() if first is None else first
        while ((op := _INFIX.get(self.tokens[self.pos][0]))
               and op[0] == sort and op[1] >= level):
            self.pos += 1
            _, at, build, right = op
            out = build(out, self.infix(sort, at if right else at + 1))
        return out

    def unary(self) -> Formula:
        """A run of prefix operators, applied innermost first, then a primary."""
        run = []  # the constructors read, outermost first
        while (build := _PREFIX.get(self.tokens[self.pos][1])) is not None:
            kind, text = self.tokens[self.pos]
            self.pos += 1
            if kind == "keyword":  # dia, box
                if not self.at("{"):
                    raise self.fail(f"expected '{{' after {text}")
                build = partial(build, self.coalition())
            elif kind != "~":  # <, [
                build = partial(build, self.program())
                self.expect(">" if kind == "<" else "]")
            run.append(build)
        out = self.primary()
        for build in reversed(run):
            out = build(out)
        return out

    # ``primary`` and ``base`` branch on the current token, the most frequent
    # cases first.  A keyword's text is never a name's or a symbol's, so a
    # test of the text alone finds the keyword.

    def primary(self) -> Formula:
        kind, text = self.tokens[self.pos]
        self.pos += 1
        if kind == "name":
            return Atom(text)
        if kind == "(":
            out = self.formula()
            self.expect(")")
            return out
        if text == "true":
            return TOP
        if text == "false":
            return bottom()
        if text == "controls":
            return controls(*self.call(self.coalition, self.formula))
        if text == "CONTROLS":
            sig = self.need_sig("CONTROLS")
            return second_order_controls(*self.call(self.agent, self.formula), sig)
        raise self.fail(f"expected a formula, got {text or 'end of input'!r}", self.pos - 1)

    def star(self, out: Program | None = None) -> Program:
        if out is None:
            out = self.base()
        while self.accept("*"):
            out = Star(out)
        return out

    def base(self) -> Program:
        start = self.pos
        kind, text = self.tokens[start]
        if kind == "(":
            out = self.group()
            if isinstance(out, Program):
                return out
            self.expect("?")
            return Test(out)
        self.pos += 1
        if text == "give":
            return Give(*self.call(self.agent, partial(self.name, "variable name"), self.agent))
        if text == "skip":
            return Test(TOP)
        if text == "test":
            return Test(*self.call(self.formula))
        if text == "fail":
            return Test(bottom())
        if text == "giveall":
            sig = self.need_sig("giveall")
            [(givers, receivers)] = self.call(self.handovers)
            if not givers:
                raise self.fail("giveall needs a non-empty giving coalition", start)
            return give_program(givers, receivers, sig)
        if text == "if":
            cond = self.formula()
            then_branch = self.keyword("then", self.program)
            else_branch = self.keyword("else", self.program)
            return Choice(Seq(Test(cond), then_branch),
                          Seq(Test(Not(cond)), else_branch))
        if text == "while":
            cond = self.formula()
            body = self.keyword("do", self.program)
            return Seq(Star(Seq(Test(cond), body)), Test(Not(cond)))
        if text == "repeat":
            body = self.program()
            cond = self.keyword("until", self.formula)
            return Seq(Seq(body, Star(Seq(Test(Not(cond)), body))), Test(cond))
        raise self.fail(f"expected a program, got {text or 'end of input'!r}", start)

    def group(self) -> Formula | Program:
        """A parenthesized group in program position, read in one pass: a
        program, or a formula that the caller makes a test with the "?"
        after the group.  The first token decides, except for a leading
        "(": that inner group is read first and becomes the leftmost
        operand of whichever kind it turned out to be."""
        self.expect("(")
        kind, text = self.tokens[self.pos]
        if kind == "(":
            inner = self.group()
            if isinstance(inner, Formula) and self.accept("?"):
                inner = Test(inner)
            out = self.infix("program" if isinstance(inner, Program) else "formula", 1, inner)
        elif kind == "keyword" and text in _PROGRAM_KEYWORDS:
            out = self.program()
        else:
            out = self.formula()
        self.expect(")")
        return out


def parse_formula(text: str, sig: Signature | None = None) -> Formula:
    """Parse concrete formula syntax into the core AST, expanding all sugar.

    A signature is only required for constructs that quantify over it
    (CONTROLS and giveall).
    """
    parser = _Parser(text, sig)
    return parser.whole(parser.formula)


def parse_program(text: str, sig: Signature | None = None) -> Program:
    """Parse concrete program syntax into the core AST, expanding all sugar."""
    parser = _Parser(text, sig)
    return parser.whole(parser.program)


# ---------------------------------------------------------------------------
# Model files.

def parse_model(text: str) -> DirectModel:
    """Parse the line-oriented model file format.

    Expected lines: ``agents: a b``, ``vars: p q``, one ``owns a: p q`` per
    agent, and ``true: p``.  ``#`` starts a comment.  Every variable must be
    owned by exactly one agent; ``model_from_dict`` checks that.  A line
    ends at ``\\n`` only, as in the formula lexer: any other line or page
    break (``\\r``, ``\\v``, ``\\f``, ``\\x85``, ``\\u2028``, ...) is a blank.
    """
    lists: dict[str, list[str]] = {}  # the agents, vars and true lines
    owns: dict[str, list[str]] = {}
    checked: set[str] = set()  # the names found valid so far

    def split_names(body: str, line_no: int) -> list[str]:
        names = body.split()
        for name in names:
            if name not in checked:
                if not is_valid_name(name):
                    raise ParseError(f"bad identifier {name!r}", line_no, 1)
                checked.add(name)
        return names

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, body = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'keyword: ...', got {line!r}", line_no, 1)
        head = head.strip()
        if head in ("agents", "vars", "true"):
            if head in lists:
                raise ParseError(f"duplicate {head} line", line_no, 1)
            lists[head] = split_names(body, line_no)
        elif head.split(maxsplit=1)[:1] == ["owns"]:
            agent = head[len("owns"):].strip()
            if agent not in checked:
                if not is_valid_name(agent):
                    raise ParseError(f"bad agent name {agent!r} in owns line", line_no, 1)
                checked.add(agent)
            if agent in owns:
                raise ParseError(f"duplicate owns line for agent {agent!r}", line_no, 1)
            owns[agent] = split_names(body, line_no)
        else:
            raise ParseError(f"unknown line kind {head!r}", line_no, 1)

    for head in ("agents", "vars"):
        if not lists.get(head):
            raise ParseError(f"model needs a non-empty {head} line", 1, 1)
    if "true" not in lists:
        raise ParseError("model needs a true line (possibly empty)", 1, 1)

    data = {**lists, "owns": owns}
    try:
        return model_from_dict(data)
    except SignatureError as err:
        raise ParseError(str(err), 1, 1) from None


# ---------------------------------------------------------------------------
# Rendering.  parse(render(x)) is structurally equal to x.

_F_OR, _F_UNARY = 1, 2
_P_CHOICE, _P_SEQ, _P_STAR, _P_BASE = 1, 2, 3, 4

# A chain's first operand is not of the chain's kind, so all of its operands
# render at the level of a right operand.


def _render_formula(f: Formula, level: int) -> str:
    """The formula's text.  Its left spine, through runs of negations and
    the first operands of disjunctions, is walked in a loop: ``&`` is
    ``~(~a | ~b)``, so a chain of ``&`` costs no frame per link."""
    head, tail = [], []  # text before the spine's next node, and after it (reversed)
    while True:
        kind = type(f)
        if kind is Not:
            head.append("~")
            f, level = f.body, _F_UNARY
        elif kind is Or:
            if level > _F_OR:
                head.append("(")
                tail.append(")")
            # a single link skips the call: with it, the axiom catalogue renders 11% slower
            first, *rest = operands(f) if type(f.left) is Or else (f.left, f.right)
            tail.append("".join([" | " + _render_formula(g, _F_UNARY) for g in rest]))
            f, level = first, _F_UNARY
        else:
            break
    if kind is Top:
        text = "true"
    elif kind is Atom:
        text = f.name
    elif kind is Dia:
        text = "dia{" + ",".join(sorted(f.coalition)) + "}(" + _render_formula(f.body, _F_OR) + ")"
    elif kind is DiaProg:
        text = ("<" + _render_program(f.program, _P_CHOICE) + ">("
                + _render_formula(f.body, _F_OR) + ")")
    else:
        raise TypeError(f"not a core formula: {f!r}")
    tail.reverse()
    return "".join(head) + text + "".join(tail)


def _render_program(p: Program, level: int) -> str:
    if isinstance(p, Give):
        return f"give({p.giver},{p.var},{p.receiver})"
    if isinstance(p, Test):
        if p.condition == TOP:
            return "skip"
        if p.condition == Not(TOP):
            return "fail"
        return "(" + _render_formula(p.condition, _F_OR) + ")?"
    if isinstance(p, Star):  # a run of stars, in a loop like negations
        run = 0
        while type(p) is Star:
            p, run = p.body, run + 1
        return _render_program(p, _P_BASE) + "*" * run
    if isinstance(p, Seq):
        if type(p.first) is Seq:
            text = "; ".join([_render_program(q, _P_STAR) for q in operands(p)])
        else:
            text = _render_program(p.first, _P_STAR) + "; " + _render_program(p.second, _P_STAR)
        return "(" + text + ")" if level > _P_SEQ else text
    if isinstance(p, Choice):
        if type(p.left) is Choice:
            text = " + ".join([_render_program(q, _P_SEQ) for q in operands(p)])
        else:
            text = _render_program(p.left, _P_SEQ) + " + " + _render_program(p.right, _P_SEQ)
        return "(" + text + ")" if level > _P_CHOICE else text
    raise TypeError(f"not a core program: {p!r}")


def render(node) -> str:
    """Concrete syntax for a core formula or program, minimally parenthesized.

    A shared subtree is written once per path: an n-operand ``<->`` chain
    (154 nodes at n = 18) renders as text exponential in n, 3.8 MB at 18.
    """
    if isinstance(node, Formula):
        return _render_formula(node, _F_OR)
    if isinstance(node, Program):
        return _render_program(node, _P_CHOICE)
    raise TypeError(f"not a formula or program: {node!r}")
