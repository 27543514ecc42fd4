"""Ownership models for propositional control.

A model fixes a finite signature (agents and propositional variables), an
allocation saying which agent owns each variable, and a valuation giving
every variable a truth value.  Values are immutable; every operation
returns a fresh model, so models can be hashed, stored in sets, and
compared structurally.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from typing import Iterator, Mapping


__all__ = [
    "SignatureError", "Signature", "Allocation", "Valuation", "DirectModel",
    "CValuation", "apply_cvaluation", "atomic_transfer",
    "enumerate_allocations", "enumerate_models",
    "model_count", "serialize_model", "model_to_dict", "model_from_dict",
    "is_valid_name",
]


class SignatureError(ValueError):
    """An identifier or component does not fit the signature in scope."""


# Plain identifiers, or purely numeric agent/variable names such as "1".
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")


def is_valid_name(name: str) -> bool:
    return bool(_NAME_RE.fullmatch(name))


def _position(index: Mapping[str, int], name: str, kind: str) -> int:
    """``index[name]``, or a ``SignatureError`` naming the unknown ``kind``."""
    try:
        return index[name]
    except KeyError:
        raise SignatureError(f"unknown {kind} {name!r}") from None


# The repr of a 60-fold ``Or(f, f)`` would have 2^60 copies of ``f``.
_REPR_LIMIT = 1 << 16

_set = object.__setattr__  # sets a slot past the frozen ``Value.__setattr__``


class _DataclassFields:
    """``dataclasses.fields`` of a value class: those of a dataclass with the
    same field names, made on first use.  Only a caller that has imported
    ``dataclasses`` asks, so the package never imports it."""

    made: dict[type, dict] = {}

    def __get__(self, obj, cls):
        if "dataclasses" not in sys.modules:
            raise AttributeError("__dataclass_fields__")
        if cls not in self.made:
            made = sys.modules["dataclasses"].make_dataclass(cls.__name__, cls._fields)
            self.made[cls] = made.__dataclass_fields__
        return self.made[cls]


class Value:
    """Base of the package's immutable value classes.

    A subclass names its fields once, as its ``__slots__`` (as ``_fields``
    if other slots hold derived values).  The base compiles, once per class,
    ``_assign``, which sets the fields from arguments given in order or by
    keyword, the last ones defaulting to ``_defaults``.  It is the
    constructor, unless the class writes an ``__init__`` that checks or
    converts its arguments and then calls it.  Fields cannot be reassigned.

    The repr is ``Kind(field=value, ...)``, cut off after ``_REPR_LIMIT``
    characters, since it writes a shared subtree once per path; it writes
    a tuple field item by item, so the cut bounds its time too.  ``==`` and
    ``hash`` are over the kind and the field values.  A value caches its
    hash, computed from the cached hashes of the values in its fields.
    ``==`` compares each pair of values once, and stops at a pair of
    different kinds or of different cached hashes.  None of the three
    recurses, and ``==`` and ``hash`` take time linear in the number of
    value objects however much a formula shares its subtrees.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        fields = cls._fields = cls.__dict__.get("_fields", cls.__dict__["__slots__"])
        scope = {f"_set_{f}": getattr(cls, f).__set__ for f in ("_hash", *fields)}
        sets = "".join(f"\n    _set_{f}(self, {f})" for f in fields)
        exec(f"def _assign(self, {', '.join(fields)}):{sets}\n    _set__hash(self, None)\n"
             f"def _values(self): return ({''.join(f'self.{f}, ' for f in fields)})", scope)
        cls._assign, cls._values = scope["_assign"], scope["_values"]
        cls._assign.__defaults__ = cls.__dict__.get("_defaults")
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._assign

    def __repr__(self) -> str:
        def piece(v):  # a value or a tuple stays whole on the stack until popped
            return v if isinstance(v, Value) or type(v) is tuple else repr(v)

        out, size, stack = [], 0, [self]
        while stack and size <= _REPR_LIMIT:  # a value or a tuple becomes its pieces of text
            item = stack.pop()
            if isinstance(item, Value):
                parts = [f"{type(item).__qualname__}("]
                for i, (f, v) in enumerate(zip(item._fields, item._values())):
                    parts += [f"{', ' if i else ''}{f}=", piece(v)]
                stack += reversed([*parts, ")"])
            elif type(item) is tuple:  # as the builtin repr writes it, one item at a time
                parts = [text for v in item for text in (", ", piece(v))][1:]
                stack += reversed(["(", *parts, ",)" if len(item) == 1 else ")"])
            else:
                out.append(item)
                size += len(item)
        return "".join(out)[:_REPR_LIMIT] + "..." if stack else "".join(out)

    def __hash__(self) -> int:
        if self._hash is not None:
            return self._hash
        stack = [self]
        while stack:  # a value is hashed once the values in its fields are
            value = stack[-1]
            values = value._values()
            todo = [v for v in values if isinstance(v, Value) and v._hash is None]
            if todo:
                stack.extend(todo)
            else:
                _set(stack.pop(), "_hash", hash((type(value), *values)))
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            x, y = stack.pop()
            if x is y or (id(x), id(y)) in seen:
                continue
            if type(x) is not type(y):
                return False
            if x._hash is not None and y._hash is not None and x._hash != y._hash:
                return False
            seen.add((id(x), id(y)))
            for u, v in zip(x._values(), y._values()):
                if isinstance(u, Value):
                    stack.append((u, v))
                elif u != v:
                    return False
        return True

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()


class Signature(Value):
    """Fixed, finite, non-empty agent and variable sets, canonically sorted,
    with each name's position."""

    __slots__ = ("agents", "vars", "agent_index", "var_index")
    _fields = ("agents", "vars")

    def __init__(self, agents: tuple[str, ...], vars: tuple[str, ...]) -> None:
        agents, variables = tuple(sorted(set(agents))), tuple(sorted(set(vars)))
        if not agents:
            raise SignatureError("signature needs at least one agent")
        if not variables:
            raise SignatureError("signature needs at least one variable")
        for name in agents + variables:
            if not is_valid_name(name):
                raise SignatureError(f"bad identifier {name!r}")
        self._assign(agents, variables)
        _set(self, "agent_index", {a: i for i, a in enumerate(agents)})
        _set(self, "var_index", {p: i for i, p in enumerate(variables)})


class Allocation(Value):
    """Total assignment of every variable to exactly one owning agent.

    Stored as a tuple of agent indices aligned with ``sig.vars``; each
    agent's share of the partition (``owned_by``) is derived.
    Totality of the owner map is what makes the partition property
    structural: a variable cannot be unowned or doubly owned.
    """

    __slots__ = ("sig", "owners")

    def __init__(self, sig: Signature, owners: tuple[int, ...]) -> None:
        if len(owners) != len(sig.vars):
            raise SignatureError("allocation must cover every variable exactly once")
        n = len(sig.agents)
        if any(not (0 <= o < n) for o in owners):
            raise SignatureError("allocation references an unknown agent")
        self._assign(sig, owners)

    @classmethod
    def from_map(cls, sig: Signature, owner_by_var: Mapping[str, str]) -> Allocation:
        if owner_by_var.keys() != sig.var_index.keys():
            missing = [p for p in sig.vars if p not in owner_by_var]
            if missing:
                raise SignatureError(f"unowned variable(s): {', '.join(missing)}")
            extra = [p for p in owner_by_var if p not in sig.var_index]
            raise SignatureError(f"unknown variable(s): {', '.join(sorted(extra))}")
        agent_index = sig.agent_index
        try:
            return cls(sig, tuple(agent_index[owner_by_var[p]] for p in sig.vars))
        except KeyError:  # name the first unknown owner
            return cls(sig, tuple(_position(agent_index, owner_by_var[p], "agent")
                                  for p in sig.vars))

    def owner(self, var: str) -> str:
        return self.sig.agents[self.owners[_position(self.sig.var_index, var, "variable")]]

    def owned_by(self, agent: str) -> tuple[str, ...]:
        i = _position(self.sig.agent_index, agent, "agent")
        return tuple(p for p, o in zip(self.sig.vars, self.owners) if o == i)

    def controlled_mask(self, coalition) -> int:
        """Bitmask over variable positions owned by members of the coalition."""
        idxs = {_position(self.sig.agent_index, a, "agent") for a in coalition}
        mask = 0
        for j, o in enumerate(self.owners):
            if o in idxs:
                mask |= 1 << j
        return mask

    def move(self, var: str, to_agent: str) -> Allocation:
        j = _position(self.sig.var_index, var, "variable")
        owners = list(self.owners)
        owners[j] = _position(self.sig.agent_index, to_agent, "agent")
        return Allocation(self.sig, tuple(owners))

    def index(self) -> int:
        """Canonical position among all allocations (variable 0 least significant)."""
        n = len(self.sig.agents)
        return sum(owner * n**j for j, owner in enumerate(self.owners))

    @classmethod
    def from_index(cls, sig: Signature, idx: int) -> Allocation:
        """The allocation at a canonical position; the inverse of ``index``."""
        n = len(sig.agents)
        if not (isinstance(idx, int) and 0 <= idx < n ** len(sig.vars)):
            raise SignatureError("allocation index out of range for the signature")
        return cls(sig, tuple(idx // n**j % n for j in range(len(sig.vars))))


class Valuation(Value):
    """Total truth assignment, encoded as a bit pattern over the variable order."""

    __slots__ = ("sig", "bits")

    def __init__(self, sig: Signature, bits: int) -> None:
        if not (0 <= bits < (1 << len(sig.vars))):
            raise SignatureError("valuation bits out of range for the signature")
        self._assign(sig, bits)

    @classmethod
    def from_true_vars(cls, sig: Signature, true_vars) -> Valuation:
        bits = 0
        for p in true_vars:
            bits |= 1 << _position(sig.var_index, p, "variable")
        return cls(sig, bits)

    def value(self, var: str) -> bool:
        return bool(self.bits >> _position(self.sig.var_index, var, "variable") & 1)

    def true_vars(self) -> tuple[str, ...]:
        return tuple(p for j, p in enumerate(self.sig.vars) if self.bits >> j & 1)


class DirectModel(Value):
    """Signature plus allocation plus valuation: one complete state of the world."""

    __slots__ = ("sig", "alloc", "val")

    def __init__(self, sig: Signature, alloc: Allocation, val: Valuation) -> None:
        if alloc.sig is not sig and alloc.sig != sig:
            raise SignatureError("allocation built over a different signature")
        if val.sig is not sig and val.sig != sig:
            raise SignatureError("valuation built over a different signature")
        self._assign(sig, alloc, val)

    def index(self) -> int:
        """Canonical position in enumeration order (allocation major)."""
        return self.alloc.index() * (1 << len(self.sig.vars)) + self.val.bits


class CValuation(Value):
    """Partial valuation on exactly the variables a coalition controls."""

    __slots__ = ("coalition", "domain", "true_vars")

    def __init__(self, coalition, domain, true_vars) -> None:
        self._assign(frozenset(coalition), frozenset(domain), frozenset(true_vars))
        if not self.true_vars <= self.domain:
            raise SignatureError("coalition valuation assigns outside its domain")


def apply_cvaluation(model: DirectModel, cval: CValuation) -> DirectModel:
    """Overwrite the coalition's variables with the given values, keep the rest.

    The partial valuation's domain must be exactly the set of variables the
    coalition controls under the model's allocation.
    """
    mask = model.alloc.controlled_mask(cval.coalition)
    expected = {p for j, p in enumerate(model.sig.vars) if mask >> j & 1}
    if cval.domain != expected:
        raise SignatureError(
            "coalition valuation domain mismatch: "
            f"got {sorted(cval.domain)}, coalition controls {sorted(expected)}"
        )
    override = 0
    for p in cval.true_vars:
        override |= 1 << model.sig.var_index[p]
    bits = (model.val.bits & ~mask) | override
    return DirectModel(model.sig, model.alloc, Valuation(model.sig, bits))


def atomic_transfer(model: DirectModel, giver: str, var: str, receiver: str) -> DirectModel | None:
    """One ownership handover; ``None`` when the giver does not own the variable.

    Giving a variable to yourself is legal and leaves the model unchanged.
    The valuation is never touched: transfers move control, not truth values.
    """
    if giver not in model.sig.agent_index or receiver not in model.sig.agent_index:
        raise SignatureError(f"unknown agent in transfer ({giver!r} or {receiver!r})")
    if var not in model.sig.var_index:
        raise SignatureError(f"unknown variable {var!r}")
    if model.alloc.owner(var) != giver:
        return None
    if giver == receiver:
        return model
    return DirectModel(model.sig, model.alloc.move(var, receiver), model.val)


def enumerate_allocations(sig: Signature) -> Iterator[Allocation]:
    for idx in range(len(sig.agents) ** len(sig.vars)):
        yield Allocation.from_index(sig, idx)


def enumerate_models(sig: Signature) -> Iterator[DirectModel]:
    """Every (allocation, valuation) pair exactly once, allocation major."""
    for alloc in enumerate_allocations(sig):
        for bits in range(1 << len(sig.vars)):
            yield DirectModel(sig, alloc, Valuation(sig, bits))


def model_count(sig: Signature) -> int:
    n = len(sig.agents)
    k = len(sig.vars)
    return n**k * 2**k


def serialize_model(model: DirectModel) -> str:
    """Canonical model-file text (sorted identifiers, one owns line per agent)."""
    lines = [
        "agents: " + " ".join(model.sig.agents),
        "vars: " + " ".join(model.sig.vars),
    ]
    for agent in model.sig.agents:
        owned = model.alloc.owned_by(agent)
        lines.append(f"owns {agent}:" + ("" if not owned else " " + " ".join(owned)))
    true_vars = model.val.true_vars()
    lines.append("true:" + ("" if not true_vars else " " + " ".join(true_vars)))
    return "\n".join(lines) + "\n"


def model_to_dict(model: DirectModel) -> dict:
    return {
        "agents": list(model.sig.agents),
        "vars": list(model.sig.vars),
        "owns": {a: list(model.alloc.owned_by(a)) for a in model.sig.agents},
        "true": list(model.val.true_vars()),
    }


# Equal agent and variable lists make one shared ``Signature``, kept in a
# bounded cache as ``semantics._cut`` keeps layouts: a repeated model skips
# the sorting and the name checks, and a cache keyed on the signature then
# finds it by identity.  A signature is a value, so sharing it changes no
# answer, ``==``, hash, repr or pickle.
_signature = lru_cache(maxsize=256)(Signature)


def model_from_dict(data: Mapping) -> DirectModel:
    sig = _signature(tuple(data["agents"]), tuple(data["vars"]))
    owner_by_var: dict[str, str] = {}
    for agent, owned in data["owns"].items():
        if agent not in sig.agent_index:
            raise SignatureError(f"owns entry for unknown agent {agent!r}")
        for p in owned:
            if p in owner_by_var:
                raise SignatureError(f"variable {p!r} owned twice")
            owner_by_var[p] = agent
    return DirectModel(sig, Allocation.from_map(sig, owner_by_var),
                       Valuation.from_true_vars(sig, data["true"]))
