import random

import pytest

from propctl.model import (
    Allocation,
    CValuation,
    Signature,
    SignatureError,
    Valuation,
    apply_cvaluation,
    atomic_transfer,
    c_valuations,
    enumerate_models,
    model_count,
    model_from_dict,
    model_size,
    model_to_dict,
    serialize_model,
)
from propctl.syntax import ParseError, parse_model

from helpers import SAMPLE_MODEL_TEXT, sample_model


def test_signature_is_canonically_sorted():
    sig = Signature(("2", "1", "2"), ("q", "p"))
    assert sig.agents == ("1", "2")
    assert sig.vars == ("p", "q")


def test_signature_rejects_empty_sets():
    with pytest.raises(SignatureError):
        Signature((), ("p",))
    with pytest.raises(SignatureError):
        Signature(("1",), ())


def test_allocation_partition_is_total():
    m = sample_model()
    part = m.alloc.partition()
    seen = [p for owned in part.values() for p in owned]
    assert sorted(seen) == list(m.sig.vars)


def test_allocation_from_map_rejects_gaps():
    sig = Signature(("1",), ("p", "q"))
    with pytest.raises(SignatureError, match="unowned"):
        Allocation.from_map(sig, {"p": "1"})


def test_apply_cvaluation_overrides_only_owned_vars():
    m = sample_model()
    cv = CValuation(frozenset({"1"}), frozenset({"p", "q"}), frozenset({"p"}))
    out = apply_cvaluation(m, cv)
    assert out.val.value("p") and not out.val.value("q")
    assert not out.val.value("r")
    assert out.alloc == m.alloc


def test_apply_empty_coalition_valuation_is_identity():
    m = sample_model()
    cv = CValuation(frozenset(), frozenset(), frozenset())
    assert apply_cvaluation(m, cv) == m


def test_apply_current_values_is_identity():
    m = sample_model()
    cv = CValuation(frozenset({"1"}), frozenset({"p", "q"}), frozenset({"p", "q"}))
    assert apply_cvaluation(m, cv) == m


def test_apply_cvaluation_domain_mismatch_is_error():
    m = sample_model()
    cv = CValuation(frozenset({"1"}), frozenset({"p"}), frozenset())
    with pytest.raises(SignatureError, match="domain mismatch"):
        apply_cvaluation(m, cv)


def test_apply_cvaluation_idempotent():
    m = sample_model()
    for cv in c_valuations(m, {"1", "2"}):
        once = apply_cvaluation(m, cv)
        assert apply_cvaluation(once, cv) == once


def test_atomic_transfer_moves_ownership_only():
    m = sample_model()
    out = atomic_transfer(m, "1", "p", "2")
    assert out is not None
    assert out.alloc.owned_by("1") == ("q",)
    assert out.alloc.owned_by("2") == ("p", "r")
    assert out.val == m.val


def test_atomic_transfer_requires_ownership():
    m = sample_model()
    assert atomic_transfer(m, "1", "r", "2") is None


def test_atomic_transfer_to_self_is_identity():
    m = sample_model()
    assert atomic_transfer(m, "1", "p", "1") == m


def test_atomic_transfer_unknown_ids_raise():
    m = sample_model()
    with pytest.raises(SignatureError):
        atomic_transfer(m, "9", "p", "2")
    with pytest.raises(SignatureError):
        atomic_transfer(m, "1", "z", "2")


def test_transfer_then_inverse_restores_model():
    sig = Signature(("1", "2", "3"), ("p", "q"))
    for m in enumerate_models(sig):
        for p in sig.vars:
            i = m.alloc.owner(p)
            for j in sig.agents:
                if j == i:
                    continue
                there = atomic_transfer(m, i, p, j)
                assert there is not None
                assert atomic_transfer(there, j, p, i) == m


@pytest.mark.parametrize(
    "agents,variables,expected",
    [(1, 1, 2), (2, 2, 16), (3, 2, 36)],
)
def test_enumeration_counts(agents, variables, expected):
    sig = Signature(tuple(str(i) for i in range(1, agents + 1)),
                    tuple(f"v{i}" for i in range(variables)))
    models = list(enumerate_models(sig))
    # Oracle: dedup; every yielded model is distinct and the count matches n^k 2^k.
    assert len(set(models)) == len(models) == expected == model_count(sig)


def test_enumeration_is_deterministic_and_allocation_major():
    sig = Signature(("1", "2"), ("p",))
    first = [serialize_model(m) for m in enumerate_models(sig)]
    second = [serialize_model(m) for m in enumerate_models(sig)]
    assert first == second
    owners = [m.alloc.owner("p") for m in enumerate_models(sig)]
    assert owners == ["1", "1", "2", "2"]


def test_model_size():
    assert model_size(sample_model()) == 5
    tiny = parse_model("agents: a\nvars: p\nowns a: p\ntrue:\n")
    assert model_size(tiny) == 2
    # a search signature with 2 vars, 2 agents, and the spare agent has size 5
    sig = Signature(("i", "j", "_env"), ("p", "q"))
    assert len(sig.agents) + len(sig.vars) == 5


def test_serialize_parse_round_trip():
    sig = Signature(("1", "2"), ("p", "q"))
    for m in enumerate_models(sig):
        assert parse_model(serialize_model(m)) == m


def test_serialize_golden():
    assert serialize_model(sample_model()) == SAMPLE_MODEL_TEXT


def test_dict_round_trip():
    m = sample_model()
    assert model_from_dict(model_to_dict(m)) == m


def test_owns_entry_for_unknown_agent_is_rejected():
    data = model_to_dict(sample_model())
    data["owns"]["zz"] = []
    with pytest.raises(SignatureError, match="unknown agent 'zz'"):
        model_from_dict(data)
    with pytest.raises(ParseError, match="unknown agent 'zz'"):
        parse_model(SAMPLE_MODEL_TEXT + "owns zz:\n")


def test_models_are_hashable_values():
    m = sample_model()
    again = parse_model(serialize_model(m))
    assert hash(m) == hash(again)
    assert len({m, again}) == 1


def test_valuation_bit_encoding_matches_names():
    sig = Signature(("1",), ("a", "b", "c"))
    rng = random.Random(7)
    for _ in range(20):
        names = frozenset(v for v in sig.vars if rng.random() < 0.5)
        val = Valuation.from_true_vars(sig, names)
        assert frozenset(val.true_vars()) == names
