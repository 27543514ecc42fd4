"""Ownership models for propositional control.

A model fixes a finite signature (agents and propositional variables), an
allocation saying which agent owns each variable, and a valuation giving
every variable a truth value.  Values are immutable; every operation
returns a fresh model, so models can be hashed, stored in sets, and
compared structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping


__all__ = [
    "SignatureError", "Signature", "Allocation", "Valuation", "DirectModel",
    "CValuation", "apply_cvaluation", "c_valuations", "atomic_transfer",
    "enumerate_allocations", "enumerate_valuations", "enumerate_models",
    "model_count", "model_size", "serialize_model", "model_to_dict",
    "model_from_dict", "is_valid_name",
]


class SignatureError(ValueError):
    """An identifier or component does not fit the signature in scope."""


# Plain identifiers, or purely numeric agent/variable names such as "1".
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")


def is_valid_name(name: str) -> bool:
    return bool(_NAME_RE.fullmatch(name))


@dataclass(frozen=True)
class Signature:
    """Fixed, finite, non-empty agent and variable sets, canonically sorted."""

    agents: tuple[str, ...]
    vars: tuple[str, ...]

    def __post_init__(self) -> None:
        agents = tuple(sorted(set(self.agents)))
        variables = tuple(sorted(set(self.vars)))
        if not agents:
            raise SignatureError("signature needs at least one agent")
        if not variables:
            raise SignatureError("signature needs at least one variable")
        for name in agents + variables:
            if not is_valid_name(name):
                raise SignatureError(f"bad identifier {name!r}")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "vars", variables)

    @cached_property
    def agent_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.agents)}

    @cached_property
    def var_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.vars)}


@dataclass(frozen=True)
class Allocation:
    """Total assignment of every variable to exactly one owning agent.

    Stored as a tuple of agent indices aligned with ``sig.vars``; the
    partition view (which agent owns which set of variables) is derived.
    Totality of the owner map is what makes the partition property
    structural: a variable cannot be unowned or doubly owned.
    """

    sig: Signature
    owners: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.owners) != len(self.sig.vars):
            raise SignatureError("allocation must cover every variable exactly once")
        n = len(self.sig.agents)
        if any(not (0 <= o < n) for o in self.owners):
            raise SignatureError("allocation references an unknown agent")

    @classmethod
    def from_map(cls, sig: Signature, owner_by_var: Mapping[str, str]) -> Allocation:
        missing = [p for p in sig.vars if p not in owner_by_var]
        if missing:
            raise SignatureError(f"unowned variable(s): {', '.join(missing)}")
        extra = [p for p in owner_by_var if p not in sig.var_index]
        if extra:
            raise SignatureError(f"unknown variable(s): {', '.join(sorted(extra))}")
        owners = []
        for p in sig.vars:
            a = owner_by_var[p]
            if a not in sig.agent_index:
                raise SignatureError(f"unknown agent {a!r}")
            owners.append(sig.agent_index[a])
        return cls(sig, tuple(owners))

    def owner(self, var: str) -> str:
        try:
            j = self.sig.var_index[var]
        except KeyError:
            raise SignatureError(f"unknown variable {var!r}") from None
        return self.sig.agents[self.owners[j]]

    def owned_by(self, agent: str) -> tuple[str, ...]:
        if agent not in self.sig.agent_index:
            raise SignatureError(f"unknown agent {agent!r}")
        i = self.sig.agent_index[agent]
        return tuple(p for p, o in zip(self.sig.vars, self.owners) if o == i)

    def partition(self) -> dict[str, tuple[str, ...]]:
        return {a: self.owned_by(a) for a in self.sig.agents}

    def controlled_vars(self, coalition) -> frozenset[str]:
        idxs = {self.sig.agent_index[a] for a in coalition}
        return frozenset(p for p, o in zip(self.sig.vars, self.owners) if o in idxs)

    def controlled_mask(self, coalition) -> int:
        """Bitmask over variable positions owned by members of the coalition."""
        idxs = {self.sig.agent_index[a] for a in coalition}
        mask = 0
        for j, o in enumerate(self.owners):
            if o in idxs:
                mask |= 1 << j
        return mask

    def reassignments(self, coalition, bits: int) -> Iterator[int]:
        """Every valuation, as bits, that the coalition can make from ``bits``
        by assigning its own variables; the other variables keep their
        values.  Ascending, starting with all of the coalition's false."""
        mask = self.controlled_mask(coalition)
        base = bits & ~mask
        s = 0
        while True:
            yield base | s
            if s == mask:
                return
            s = (s - mask) & mask

    def move(self, var: str, to_agent: str) -> Allocation:
        j = self.sig.var_index[var]
        i = self.sig.agent_index[to_agent]
        owners = list(self.owners)
        owners[j] = i
        return Allocation(self.sig, tuple(owners))

    def index(self) -> int:
        """Canonical position among all allocations (variable 0 least significant)."""
        n = len(self.sig.agents)
        idx = 0
        for j in range(len(self.owners) - 1, -1, -1):
            idx = idx * n + self.owners[j]
        return idx


@dataclass(frozen=True)
class Valuation:
    """Total truth assignment, encoded as a bit pattern over the variable order."""

    sig: Signature
    bits: int

    def __post_init__(self) -> None:
        if not (0 <= self.bits < (1 << len(self.sig.vars))):
            raise SignatureError("valuation bits out of range for the signature")

    @classmethod
    def from_true_vars(cls, sig: Signature, true_vars) -> Valuation:
        bits = 0
        for p in true_vars:
            if p not in sig.var_index:
                raise SignatureError(f"unknown variable {p!r}")
            bits |= 1 << sig.var_index[p]
        return cls(sig, bits)

    def value(self, var: str) -> bool:
        try:
            j = self.sig.var_index[var]
        except KeyError:
            raise SignatureError(f"unknown variable {var!r}") from None
        return bool(self.bits >> j & 1)

    def true_vars(self) -> tuple[str, ...]:
        return tuple(p for j, p in enumerate(self.sig.vars) if self.bits >> j & 1)


@dataclass(frozen=True)
class DirectModel:
    """Signature plus allocation plus valuation: one complete state of the world."""

    sig: Signature
    alloc: Allocation
    val: Valuation

    def __post_init__(self) -> None:
        if self.alloc.sig is not self.sig and self.alloc.sig != self.sig:
            raise SignatureError("allocation built over a different signature")
        if self.val.sig is not self.sig and self.val.sig != self.sig:
            raise SignatureError("valuation built over a different signature")

    def index(self) -> int:
        """Canonical position in enumeration order (allocation major)."""
        return self.alloc.index() * (1 << len(self.sig.vars)) + self.val.bits


@dataclass(frozen=True)
class CValuation:
    """Partial valuation on exactly the variables a coalition controls."""

    coalition: frozenset[str]
    domain: frozenset[str]
    true_vars: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coalition", frozenset(self.coalition))
        object.__setattr__(self, "domain", frozenset(self.domain))
        object.__setattr__(self, "true_vars", frozenset(self.true_vars))
        if not self.true_vars <= self.domain:
            raise SignatureError("coalition valuation assigns outside its domain")


def apply_cvaluation(model: DirectModel, cval: CValuation) -> DirectModel:
    """Overwrite the coalition's variables with the given values, keep the rest.

    The partial valuation's domain must be exactly the set of variables the
    coalition controls under the model's allocation.
    """
    expected = model.alloc.controlled_vars(cval.coalition)
    if cval.domain != expected:
        raise SignatureError(
            "coalition valuation domain mismatch: "
            f"got {sorted(cval.domain)}, coalition controls {sorted(expected)}"
        )
    mask = model.alloc.controlled_mask(cval.coalition)
    override = 0
    for p in cval.true_vars:
        override |= 1 << model.sig.var_index[p]
    bits = (model.val.bits & ~mask) | override
    return DirectModel(model.sig, model.alloc, Valuation(model.sig, bits))


def c_valuations(model: DirectModel, coalition) -> Iterator[CValuation]:
    """All assignments to the coalition's variables, in canonical order."""
    domain = model.alloc.controlled_vars(coalition)
    ordered = [p for p in model.sig.vars if p in domain]
    coalition = frozenset(coalition)
    for bits in range(1 << len(ordered)):
        true_vars = frozenset(p for j, p in enumerate(ordered) if bits >> j & 1)
        yield CValuation(coalition, domain, true_vars)


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
    n = len(sig.agents)
    k = len(sig.vars)
    for idx in range(n**k):
        owners = []
        rest = idx
        for _ in range(k):
            owners.append(rest % n)
            rest //= n
        yield Allocation(sig, tuple(owners))


def enumerate_valuations(sig: Signature) -> Iterator[Valuation]:
    for bits in range(1 << len(sig.vars)):
        yield Valuation(sig, bits)


def enumerate_models(sig: Signature) -> Iterator[DirectModel]:
    """Every (allocation, valuation) pair exactly once, allocation major."""
    for alloc in enumerate_allocations(sig):
        for val in enumerate_valuations(sig):
            yield DirectModel(sig, alloc, val)


def model_count(sig: Signature) -> int:
    n = len(sig.agents)
    k = len(sig.vars)
    return n**k * 2**k


def model_size(model: DirectModel) -> int:
    """Agent count plus variable count."""
    return len(model.sig.agents) + len(model.sig.vars)


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


def model_from_dict(data: Mapping) -> DirectModel:
    sig = Signature(tuple(data["agents"]), tuple(data["vars"]))
    owner_by_var: dict[str, str] = {}
    for agent, owned in data["owns"].items():
        if agent not in sig.agent_index:
            raise SignatureError(f"owns entry for unknown agent {agent!r}")
        for p in owned:
            if p in owner_by_var:
                raise SignatureError(f"variable {p!r} owned twice")
            owner_by_var[p] = agent
    alloc = Allocation.from_map(sig, owner_by_var)
    val = Valuation.from_true_vars(sig, data["true"])
    return DirectModel(sig, alloc, val)
