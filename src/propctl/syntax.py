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

from dataclasses import dataclass

from .model import (
    DirectModel,
    Signature,
    SignatureError,
    is_valid_name,
    model_from_dict,
)


class Formula:
    __slots__ = ()


class Program:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Dia(Formula):
    """Coalition ability: some assignment to the coalition's variables makes
    the body true.  The coalition may be empty."""

    coalition: frozenset[str]
    body: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "coalition", frozenset(self.coalition))


@dataclass(frozen=True)
class DiaProg(Formula):
    """Program ability: some terminating run of the program reaches a state
    where the body is true."""

    program: Program
    body: Formula


@dataclass(frozen=True)
class Give(Program):
    giver: str
    var: str
    receiver: str


@dataclass(frozen=True)
class Seq(Program):
    first: Program
    second: Program


@dataclass(frozen=True)
class Choice(Program):
    left: Program
    right: Program


@dataclass(frozen=True)
class Star(Program):
    body: Program


@dataclass(frozen=True)
class Test(Program):
    __test__ = False  # keep pytest from collecting the AST class

    condition: Formula


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
    if not items:
        return bottom()
    out = items[0]
    for f in items[1:]:
        out = Or(out, f)
    return out


def conj_all(formulas) -> Formula:
    items = list(formulas)
    if not items:
        return TOP
    out = items[0]
    for f in items[1:]:
        out = conj(out, f)
    return out


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
    if not items:
        return Test(bottom())
    out = items[0]
    for p in items[1:]:
        out = Choice(out, p)
    return out


def seq_all(programs) -> Program:
    items = list(programs)
    if not items:
        return Test(TOP)
    out = items[0]
    for p in items[1:]:
        out = Seq(out, p)
    return out


def give_program(givers, receivers, sig: Signature) -> Program:
    """Nondeterministic handover: any giver passes any variable it currently
    controls to any receiver, or keeps it.

    Every variable of the signature is mentioned, guarded by a controls
    test, so the same program text is correct under every allocation.
    """
    giver_list = sorted(set(givers))
    if not giver_list:
        raise SignatureError("give program needs a non-empty giving coalition")
    for a in list(giver_list) + sorted(set(receivers)):
        if a not in sig.agent_index:
            raise SignatureError(f"unknown agent {a!r}")
    arms = []
    for i in giver_list:
        targets = sorted(set(receivers) | {i})
        for p in sig.vars:
            hand_over = choice_all(Give(i, p, j) for j in targets)
            arms.append(Seq(Test(controls({i}, Atom(p))), hand_over))
    return choice_all(arms)


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

def signature_of(node) -> tuple[frozenset[str], frozenset[str]]:
    """All variables and agents named anywhere in a formula or program,
    including inside programs and tests.

    Sugar shares subtrees (``<->`` uses each operand twice), so the walk
    visits each node object once, keyed on identity: hashing the frozen
    dataclasses would itself walk the whole tree.
    """
    props: set[str] = set()
    agents: set[str] = set()
    seen: set[int] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        if isinstance(cur, Top):
            pass
        elif isinstance(cur, Atom):
            props.add(cur.name)
        elif isinstance(cur, Not):
            stack.append(cur.body)
        elif isinstance(cur, Or):
            stack.append(cur.left)
            stack.append(cur.right)
        elif isinstance(cur, Dia):
            agents.update(cur.coalition)
            stack.append(cur.body)
        elif isinstance(cur, DiaProg):
            stack.append(cur.program)
            stack.append(cur.body)
        elif isinstance(cur, Give):
            agents.add(cur.giver)
            agents.add(cur.receiver)
            props.add(cur.var)
        elif isinstance(cur, (Seq, Choice)):
            stack.append(cur.left if isinstance(cur, Choice) else cur.first)
            stack.append(cur.right if isinstance(cur, Choice) else cur.second)
        elif isinstance(cur, Star):
            stack.append(cur.body)
        elif isinstance(cur, Test):
            stack.append(cur.condition)
        else:
            raise TypeError(f"not a formula or program: {cur!r}")
    return frozenset(props), frozenset(agents)


def ensure_fits(node, sig: Signature) -> None:
    """Raise ``SignatureError`` if the node names anything outside the signature."""
    props, agents = signature_of(node)
    bad_props = sorted(props - set(sig.vars))
    bad_agents = sorted(agents - set(sig.agents))
    if bad_props or bad_agents:
        parts = []
        if bad_props:
            parts.append("variable(s) " + ", ".join(bad_props))
        if bad_agents:
            parts.append("agent(s) " + ", ".join(bad_agents))
        raise SignatureError("outside the signature: " + "; ".join(parts))


# ---------------------------------------------------------------------------
# Lexer.

KEYWORDS = {
    "true", "false", "dia", "box", "controls", "CONTROLS",
    "give", "giveall", "test", "skip", "fail",
    "if", "then", "else", "while", "do", "repeat", "until",
}

_PROGRAM_KEYWORDS = {"give", "giveall", "test", "skip", "fail", "if", "while", "repeat"}

_SYMBOLS = ("<->", "->", "(", ")", "{", "}", "[", "]", "<", ">",
            "~", "&", "|", ";", "+", "*", "?", ",")


class ParseError(Exception):
    """Syntax error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "keyword", symbol text, or "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if ch.isalnum() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = "keyword" if word in KEYWORDS else "name"
                if kind == "name" and not is_valid_name(word):
                    raise ParseError(f"bad identifier {word!r}", line, col)
                tokens.append(_Token(kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser.

class _Parser:
    def __init__(self, text: str, sig: Signature | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        # A group that group() has already read; the next unary() or base()
        # returns it as its operand.
        self.read_ahead: Formula | Program | None = None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = what or repr(kind)
            got = tok.text or "end of input"
            raise ParseError(f"expected {shown}, got {got!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "name":
            got = tok.text or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", tok.line, tok.col)
        return self.next().text

    def coalition(self) -> frozenset[str]:
        if self.accept("{"):
            names: set[str] = set()
            if not self.at("}"):
                names.add(self.name("agent name"))
                while self.accept(","):
                    names.add(self.name("agent name"))
            self.expect("}")
            return frozenset(names)
        return frozenset({self.name("agent name")})

    def need_sig(self, construct: str) -> Signature:
        if self.sig is None:
            raise self.fail(f"{construct} needs a signature in scope")
        return self.sig

    # Formulas, lowest precedence first.

    def formula(self) -> Formula:
        left = self.imp()
        if self.accept("<->"):
            return iff(left, self.formula())
        return left

    def imp(self) -> Formula:
        left = self.disjunction()
        if self.accept("->"):
            return implies(left, self.imp())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.accept("|"):
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.accept("&"):
            out = conj(out, self.unary())
        return out

    def unary(self) -> Formula:
        if self.read_ahead is not None:
            out, self.read_ahead = self.read_ahead, None
            return out
        if self.accept("~"):
            return Not(self.unary())
        if self.at("keyword", "dia"):
            self.next()
            if not self.at("{"):
                raise self.fail("expected '{' after dia")
            return Dia(self.coalition(), self.unary())
        if self.at("keyword", "box"):
            self.next()
            if not self.at("{"):
                raise self.fail("expected '{' after box")
            return box(self.coalition(), self.unary())
        if self.accept("<"):
            prog = self.program()
            self.expect(">")
            return DiaProg(prog, self.unary())
        if self.accept("["):
            prog = self.program()
            self.expect("]")
            return box_prog(prog, self.unary())
        return self.primary()

    def primary(self) -> Formula:
        if self.accept("keyword", "true"):
            return TOP
        if self.accept("keyword", "false"):
            return bottom()
        if self.at("keyword", "controls"):
            self.next()
            self.expect("(")
            c = self.coalition()
            self.expect(",")
            body = self.formula()
            self.expect(")")
            return controls(c, body)
        if self.at("keyword", "CONTROLS"):
            self.next()
            sig = self.need_sig("CONTROLS")
            self.expect("(")
            agent = self.name("agent name")
            self.expect(",")
            body = self.formula()
            self.expect(")")
            return second_order_controls(agent, body, sig)
        if self.accept("("):
            out = self.formula()
            self.expect(")")
            return out
        if self.at("name"):
            return Atom(self.next().text)
        raise self.fail(f"expected a formula, got {self.peek().text or 'end of input'!r}")

    # Programs, lowest precedence first.

    def program(self) -> Program:
        out = self.seq()
        while self.accept("+"):
            out = Choice(out, self.seq())
        return out

    def seq(self) -> Program:
        out = self.star()
        while self.accept(";"):
            out = Seq(out, self.star())
        return out

    def star(self) -> Program:
        out = self.base()
        while self.accept("*"):
            out = Star(out)
        return out

    def base(self) -> Program:
        if self.read_ahead is not None:
            out, self.read_ahead = self.read_ahead, None
            return out
        if self.at("keyword", "give"):
            self.next()
            self.expect("(")
            giver = self.name("agent name")
            self.expect(",")
            var = self.name("variable name")
            self.expect(",")
            receiver = self.name("agent name")
            self.expect(")")
            return Give(giver, var, receiver)
        if self.at("keyword", "giveall"):
            tok = self.next()
            sig = self.need_sig("giveall")
            self.expect("(")
            if self.at("name") and self.tokens[self.pos + 1].kind == ")":
                agent = self.name("agent name")
                self.expect(")")
                return give_program({agent}, sig.agents, sig)
            givers = self.coalition()
            self.expect("->")
            receivers = self.coalition()
            self.expect(")")
            if not givers:
                raise ParseError("giveall needs a non-empty giving coalition",
                                 tok.line, tok.col)
            return give_program(givers, receivers, sig)
        if self.at("keyword", "test"):
            self.next()
            self.expect("(")
            cond = self.formula()
            self.expect(")")
            return Test(cond)
        if self.accept("keyword", "skip"):
            return Test(TOP)
        if self.accept("keyword", "fail"):
            return Test(bottom())
        if self.accept("keyword", "if"):
            cond = self.formula()
            if not self.accept("keyword", "then"):
                raise self.fail("expected 'then'")
            then_branch = self.program()
            if not self.accept("keyword", "else"):
                raise self.fail("expected 'else'")
            else_branch = self.program()
            return Choice(Seq(Test(cond), then_branch),
                          Seq(Test(Not(cond)), else_branch))
        if self.accept("keyword", "while"):
            cond = self.formula()
            if not self.accept("keyword", "do"):
                raise self.fail("expected 'do'")
            body = self.program()
            return Seq(Star(Seq(Test(cond), body)), Test(Not(cond)))
        if self.accept("keyword", "repeat"):
            body = self.program()
            if not self.accept("keyword", "until"):
                raise self.fail("expected 'until'")
            cond = self.formula()
            return Seq(Seq(body, Star(Seq(Test(Not(cond)), body))), Test(cond))
        if self.at("("):
            out = self.group()
            if isinstance(out, Program):
                return out
            self.expect("?")
            return Test(out)
        raise self.fail(f"expected a program, got {self.peek().text or 'end of input'!r}")

    def group(self) -> Formula | Program:
        """A parenthesized group in program position, read in one pass: a
        program, or a formula that the caller makes a test with the "?"
        after the group.  The first token decides, except for a leading
        "(": that inner group is read first and becomes the leftmost
        operand of whichever kind it turned out to be."""
        self.expect("(")
        if self.at("("):
            inner = self.group()
            if isinstance(inner, Formula) and self.accept("?"):
                inner = Test(inner)
            self.read_ahead = inner
            out = self.program() if isinstance(inner, Program) else self.formula()
        elif self.peek().kind == "keyword" and self.peek().text in _PROGRAM_KEYWORDS:
            out = self.program()
        else:
            out = self.formula()
        self.expect(")")
        return out

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)


def parse_formula(text: str, sig: Signature | None = None) -> Formula:
    """Parse concrete formula syntax into the core AST, expanding all sugar.

    A signature is only required for constructs that quantify over it
    (CONTROLS and giveall).
    """
    parser = _Parser(text, sig)
    out = parser.formula()
    parser.done()
    return out


def parse_program(text: str, sig: Signature | None = None) -> Program:
    """Parse concrete program syntax into the core AST, expanding all sugar."""
    parser = _Parser(text, sig)
    out = parser.program()
    parser.done()
    return out


# ---------------------------------------------------------------------------
# Model files.

def parse_model(text: str) -> DirectModel:
    """Parse the line-oriented model file format.

    Expected lines: ``agents: a b``, ``vars: p q``, one ``owns a: p q`` per
    agent, and ``true: p``.  ``#`` starts a comment.  Every variable must be
    owned by exactly one agent; ``model_from_dict`` checks that.
    """
    agents: list[str] | None = None
    variables: list[str] | None = None
    owns: dict[str, list[str]] = {}
    true_vars: list[str] | None = None

    def split_names(body: str, line_no: int) -> list[str]:
        names = body.split()
        for name in names:
            if not is_valid_name(name):
                raise ParseError(f"bad identifier {name!r}", line_no, 1)
        return names

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, body = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'keyword: ...', got {line!r}", line_no, 1)
        head = head.strip()
        if head == "agents":
            if agents is not None:
                raise ParseError("duplicate agents line", line_no, 1)
            agents = split_names(body, line_no)
        elif head == "vars":
            if variables is not None:
                raise ParseError("duplicate vars line", line_no, 1)
            variables = split_names(body, line_no)
        elif head == "true":
            if true_vars is not None:
                raise ParseError("duplicate true line", line_no, 1)
            true_vars = split_names(body, line_no)
        elif head.startswith("owns"):
            agent = head[len("owns"):].strip()
            if not is_valid_name(agent):
                raise ParseError(f"bad agent name {agent!r} in owns line", line_no, 1)
            if agent in owns:
                raise ParseError(f"duplicate owns line for agent {agent!r}", line_no, 1)
            owns[agent] = split_names(body, line_no)
        else:
            raise ParseError(f"unknown line kind {head!r}", line_no, 1)

    if agents is None or not agents:
        raise ParseError("model needs a non-empty agents line", 1, 1)
    if variables is None or not variables:
        raise ParseError("model needs a non-empty vars line", 1, 1)
    if true_vars is None:
        raise ParseError("model needs a true line (possibly empty)", 1, 1)

    data = {"agents": agents, "vars": variables, "owns": owns, "true": true_vars}
    try:
        return model_from_dict(data)
    except SignatureError as err:
        raise ParseError(str(err), 1, 1) from None


# ---------------------------------------------------------------------------
# Rendering.  parse(render(x)) is structurally equal to x.

_F_OR, _F_UNARY, _F_PRIM = 1, 2, 3
_P_CHOICE, _P_SEQ, _P_STAR, _P_BASE = 1, 2, 3, 4


def _render_formula(f: Formula, level: int) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _render_formula(f.body, _F_UNARY)
    if isinstance(f, Dia):
        inner = _render_formula(f.body, _F_OR)
        text = "dia{" + ",".join(sorted(f.coalition)) + "}(" + inner + ")"
    elif isinstance(f, DiaProg):
        inner = _render_formula(f.body, _F_OR)
        text = "<" + _render_program(f.program, _P_CHOICE) + ">(" + inner + ")"
    elif isinstance(f, Or):
        text = _render_formula(f.left, _F_OR) + " | " + _render_formula(f.right, _F_UNARY)
        if level > _F_OR:
            return "(" + text + ")"
        return text
    else:
        raise TypeError(f"not a core formula: {f!r}")
    return text


def _render_program(p: Program, level: int) -> str:
    if isinstance(p, Give):
        return f"give({p.giver},{p.var},{p.receiver})"
    if isinstance(p, Test):
        if p.condition == TOP:
            return "skip"
        if p.condition == Not(TOP):
            return "fail"
        return "(" + _render_formula(p.condition, _F_OR) + ")?"
    if isinstance(p, Star):
        return _render_program(p.body, _P_BASE) + "*"
    if isinstance(p, Seq):
        text = _render_program(p.first, _P_SEQ) + "; " + _render_program(p.second, _P_STAR)
        if level > _P_SEQ:
            return "(" + text + ")"
        return text
    if isinstance(p, Choice):
        text = _render_program(p.left, _P_CHOICE) + " + " + _render_program(p.right, _P_SEQ)
        if level > _P_CHOICE:
            return "(" + text + ")"
        return text
    raise TypeError(f"not a core program: {p!r}")


def render(node) -> str:
    """Concrete syntax for a core formula or program, minimally parenthesized."""
    if isinstance(node, Formula):
        return _render_formula(node, _F_OR)
    if isinstance(node, Program):
        return _render_program(node, _P_CHOICE)
    raise TypeError(f"not a formula or program: {node!r}")


def is_objective(f: Formula) -> bool:
    """True when the formula contains no ability or program modality."""
    if isinstance(f, (Top, Atom)):
        return True
    if isinstance(f, Not):
        return is_objective(f.body)
    if isinstance(f, Or):
        return is_objective(f.left) and is_objective(f.right)
    return False
