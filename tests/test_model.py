import copy
import itertools
import pickle
import random

import pytest

from propctl.model import (
    Allocation,
    CValuation,
    DirectModel,
    Signature,
    SignatureError,
    Valuation,
    apply_cvaluation,
    atomic_transfer,
    enumerate_allocations,
    enumerate_models,
    model_count,
    model_from_dict,
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


def test_allocation_from_map_rejects_gaps():
    sig = Signature(("1",), ("p", "q"))
    with pytest.raises(SignatureError, match="unowned"):
        Allocation.from_map(sig, {"p": "1"})


def test_allocation_from_map_names_the_first_unknown_owner():
    sig = Signature(("1", "2"), ("p", "q", "r"))
    with pytest.raises(SignatureError, match="^unknown agent 'y'$"):
        Allocation.from_map(sig, {"r": "x", "q": "y", "p": "1"})


def test_direct_model_refuses_parts_over_another_signature():
    sig = Signature(("1", "2"), ("p",))
    alloc, val = Allocation(sig, (1,)), Valuation(sig, 1)
    with pytest.raises(SignatureError, match="allocation built over a different signature"):
        DirectModel(sig, Allocation(Signature(("1",), ("p",)), (0,)), val)
    with pytest.raises(SignatureError, match="valuation built over a different signature"):
        DirectModel(sig, alloc, Valuation(Signature(("1", "2"), ("q",)), 1))
    # an equal signature built apart is no other signature
    same = Signature(("2", "1"), ("p",))
    assert DirectModel(sig, Allocation(same, (1,)), Valuation(same, 1)) == DirectModel(
        sig, alloc, val)


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
    domain = m.sig.vars  # agents 1 and 2 together own every variable
    for r in range(len(domain) + 1):
        for true_vars in itertools.combinations(domain, r):
            cv = CValuation({"1", "2"}, domain, true_vars)
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


@pytest.mark.parametrize("call, message", [
    (lambda m: apply_cvaluation(m, CValuation({"zz"}, (), ())), "unknown agent 'zz'"),
    (lambda m: m.alloc.controlled_mask({"zz"}), "unknown agent 'zz'"),
    (lambda m: m.alloc.move("zz", "1"), "unknown variable 'zz'"),
    (lambda m: m.alloc.move("p", "zz"), "unknown agent 'zz'"),
], ids=["apply_cvaluation", "controlled_mask", "move-var", "move-agent"])
def test_allocation_refuses_unknown_ids(call, message):
    with pytest.raises(SignatureError, match=message):
        call(sample_model())


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


def test_direct_model_index_is_its_enumeration_position():
    sig = Signature(("1", "2", "3"), ("p", "q"))
    assert [m.index() for m in enumerate_models(sig)] == list(range(model_count(sig)))


def test_allocation_index_round_trip():
    sig = Signature(("1", "2", "3"), ("p", "q"))
    allocs = list(enumerate_allocations(sig))
    assert [a.index() for a in allocs] == list(range(9))
    assert all(Allocation.from_index(sig, a.index()) == a for a in allocs)
    # variable 0 is the least significant digit
    assert Allocation.from_index(sig, 5).owners == (2, 1)


@pytest.mark.parametrize("idx", [4, 99, -1, 1.5, 1.0, "1", None])
def test_allocation_index_out_of_range_is_refused(idx):
    sig = Signature(("1", "2"), ("p", "q"))
    with pytest.raises(SignatureError, match="allocation index out of range"):
        Allocation.from_index(sig, idx)


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


def test_equal_signatures_from_model_files_are_one_object():
    a = parse_model("agents: 1 2\nvars: p q\nowns 1: p\nowns 2: q\ntrue: p\n")
    b = parse_model("vars: p q # reordered\nagents: 1 2\ntrue:\nowns 2: p q\nowns 1:\n")
    assert a.sig is b.sig and a != b
    assert model_from_dict(model_to_dict(b)).sig is a.sig
    # sharing changes nothing else: a signature made afresh is equal, hashes,
    # prints and pickles alike, and so does a model over it
    fresh = Signature(("2", "1"), ("q", "p"))
    assert fresh is not a.sig and fresh == a.sig and hash(fresh) == hash(a.sig)
    assert repr(fresh) == repr(a.sig) == "Signature(agents=('1', '2'), vars=('p', 'q'))"
    same = DirectModel(fresh, Allocation(fresh, a.alloc.owners), Valuation(fresh, a.val.bits))
    assert same == a and hash(same) == hash(a) and repr(same) == repr(a)
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
        assert pickle.dumps(twin) == pickle.dumps(same)
