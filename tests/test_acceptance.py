"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager
from functools import reduce

from propctl import kripke, semantics
from propctl.axioms import Scheme, axiom_suite, check_scheme, make_context
from propctl.control import (
    characterize_second_order,
    delegation_can_achieve,
    grand_coalition_control,
)
from propctl.decision import satisfiable, valid
from propctl.model import (
    Allocation,
    DirectModel,
    Signature,
    Valuation,
    atomic_transfer,
    enumerate_models,
)
from propctl.normalform import equivalent, nf_to_formula, normal_form
from propctl.semantics import evaluate, program_image, star_depth
from propctl.syntax import (
    Atom,
    Dia,
    DiaProg,
    Give,
    Seq,
    Star,
    TOP,
    box_prog,
    conj,
    controls,
    give_program,
    iff,
    implies,
    parse_formula,
    parse_program,
    second_order_controls,
)

from helpers import SAMPLE_MODEL_TEXT, random_formula, random_program, sample_model

SIG22 = Signature(("1", "2"), ("p", "q"))
SIG33 = Signature(("1", "2", "3"), ("x", "y", "z"))


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS ({description}) [{elapsed:.2f}s]")


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_worked_examples(tmp_path, capsys):
    with criterion(1, "worked examples on the two-agent sample model"):
        start = time.perf_counter()
        m = sample_model()
        assert evaluate(m, parse_formula("dia{1,2}(p & r & ~q)"))
        assert evaluate(m, parse_formula("box{1}(~r)"))
        assert evaluate(m, parse_formula(
            "[give(1,p,2) + give(1,q,2)] dia{2}((p | q) & r)"))
        assert not evaluate(m, parse_formula("<give(1,r,2)>true"))
        # the transfer result: same values, p moved from agent 1 to agent 2
        image = program_image(m, parse_program("give(1,p,2)", m.sig))
        assert len(image) == 1
        moved = image[0]
        assert moved == atomic_transfer(m, "1", "p", "2")
        assert moved.alloc.owned_by("1") == ("q",)
        assert moved.alloc.owned_by("2") == ("p", "r")
        assert moved.val == m.val
        # and the CLI run command prints exactly that model
        from propctl.cli import main
        from propctl.syntax import parse_model

        path = tmp_path / "sample.model"
        path.write_text(SAMPLE_MODEL_TEXT)
        assert main(["run", "--model", str(path), "--program", "give(1,p,2)"]) == 0
        out = capsys.readouterr().out
        assert parse_model(out) == moved
        assert time.perf_counter() - start < 1.0


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_axiom_soundness():
    with criterion(2, "all validity schemes hold up to 2 agents, 2 vars"):
        start = time.perf_counter()
        for n, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            sig = Signature(tuple(str(i) for i in range(1, n + 1)),
                            tuple(f"p{i}" for i in range(1, k + 1)))
            report = axiom_suite(sig)
            bad = [r for r in report.results if not r.ok]
            assert not bad, "\n".join(r.line() for r in bad)

        # mutation checks: dropping guards must surface counterexamples
        ctx = make_context(SIG22)

        def transfer_without_guard(c):
            for i, p, j in itertools.product(c.agents, c.vars, c.agents):
                yield DiaProg(Give(i, p, j), controls({j}, Atom(p)))

        def functionality_without_guard(c):
            for i, p, j in itertools.product(c.agents, c.vars, c.agents):
                move = Give(i, p, j)
                yield iff(DiaProg(move, TOP), box_prog(move, TOP))

        for name, gen in [("transfer-no-guard", transfer_without_guard),
                          ("func-no-guard", functionality_without_guard)]:
            result = check_scheme(Scheme(name, gen), ctx, 64)
            assert result.counterexample is not None
            instance, model = result.counterexample
            assert not evaluate(model, instance)
        assert time.perf_counter() - start < 60.0


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_semantics_equivalence():
    with criterion(3, "direct and worlds evaluators agree everywhere"):
        rng = random.Random(2024)
        models22 = list(enumerate_models(SIG22))
        assert len(models22) == 16
        for _ in range(500):
            f = random_formula(rng, SIG22, 3)
            for m in models22:
                assert semantics.evaluate(m, f) == kripke.evaluate(kripke.pointed_of(m), f)
        models33 = list(enumerate_models(SIG33))
        assert len(models33) == 216
        for _ in range(50):
            f = random_formula(rng, SIG33, 3)
            for m in models33:
                assert semantics.evaluate(m, f) == kripke.evaluate(kripke.pointed_of(m), f)


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_normal_form_round_trip():
    with criterion(4, "normal-form tables rebuild equivalent formulas"):
        rng = random.Random(404)
        for _ in range(500):
            f = random_formula(rng, SIG22, 3)
            assert equivalent(f, nf_to_formula(normal_form(f, SIG22)), SIG22)

        # the two-branch worked example
        sig = Signature(("i", "j"), ("p", "q", "r"))
        phi = parse_formula("<give(i,p,j)>(q & dia{j}(p & r))")
        nf = normal_form(phi, sig)
        q_bit = 1 << sig.var_index["q"]
        r_bit = 1 << sig.var_index["r"]
        sat_q = {bits for bits in range(8) if bits & q_bit}
        sat_qr = {bits for bits in sat_q if bits & r_bit}
        from propctl.model import enumerate_allocations

        for alloc in enumerate_allocations(sig):
            got = {v.bits for v in nf.satisfying(alloc)}
            if alloc.owner("p") != "i":
                assert got == set()
            elif alloc.owner("r") == "j":
                assert got == sat_q
            else:
                assert got == sat_qr


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_star_elimination():
    with criterion(5, "iteration equals its bounded unfolding at fixpoint depth"):
        rng = random.Random(505)
        bound = len(SIG22.agents) ** len(SIG22.vars)
        pairs = 0
        while pairs < 100:
            prog = random_program(rng, SIG22, 3)
            body = random_formula(rng, SIG22, 2)
            pairs += 1
            for m in enumerate_models(SIG22):
                depth = star_depth(m, prog)
                assert depth <= bound
                expected = evaluate(m, body)
                boxed = body
                for _ in range(depth):
                    boxed = box_prog(prog, boxed)
                    expected = expected and evaluate(m, boxed)
                assert evaluate(m, box_prog(Star(prog), body)) == expected


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_control_characterizations():
    with criterion(6, "first- and second-order control characterizations"):
        # ownership is exactly individual control, exhaustively at 3x3
        for m in enumerate_models(SIG33):
            for i in SIG33.agents:
                for p in SIG33.vars:
                    assert evaluate(m, controls({i}, Atom(p))) == (m.alloc.owner(p) == i)

        # first-order control of p coincides with being able to hand p over
        for i, j, p in itertools.product(SIG22.agents, SIG22.agents, SIG22.vars):
            f = iff(controls({i}, Atom(p)), DiaProg(Give(i, p, j), TOP))
            assert valid(f, SIG22)

        # second-order control of someone's control fact is ownership
        for m in enumerate_models(SIG22):
            for i, j in itertools.product(SIG22.agents, repeat=2):
                f = second_order_controls(i, controls({j}, Atom("p")), SIG22)
                assert evaluate(m, f) == (m.alloc.owner("p") == i)

        # the table characterization matches direct evaluation everywhere
        rng = random.Random(606)
        corpus = [random_formula(rng, SIG22, 2) for _ in range(200)]
        for f in corpus:
            for m in enumerate_models(SIG22):
                for agent in SIG22.agents:
                    table = characterize_second_order(m.sig, m.alloc, m.val, agent, f)
                    direct = evaluate(m, second_order_controls(agent, f, m.sig))
                    assert table == direct

        # the two delegation demo verdicts
        sig = Signature(("1", "2", "3"), ("p", "q", "r"))
        alloc = Allocation.from_map(sig, {"p": "1", "q": "2", "r": "2"})
        val = Valuation.from_true_vars(sig, ["p", "r"])
        reachable_goal = parse_formula("~p & ~q & r")
        blocked_goal = parse_formula("~p & ~q & r & controls(3,p)")
        assert delegation_can_achieve(sig, alloc, val, "1", reachable_goal)
        assert not delegation_can_achieve(sig, alloc, val, "1", blocked_goal)
        demo_model = DirectModel(sig, alloc, val)
        spread = Star(give_program({"1"}, sig.agents, sig))
        assert evaluate(demo_model, DiaProg(spread, Dia(frozenset({"1"}), reachable_goal)))
        assert not evaluate(demo_model, DiaProg(spread, Dia(frozenset({"1"}), blocked_goal)))

        # validity-level characterization agrees on the corpus
        everyone = set(SIG22.agents)
        for f in corpus:
            assert grand_coalition_control(f, SIG22) == valid(controls(everyone, f), SIG22)

        # no strict sub-coalition validly controls anything in the corpus
        for f in corpus:
            for c in [set(), {"1"}, {"2"}]:
                assert not valid(controls(c, f), SIG22)


# -- 7 -----------------------------------------------------------------------

def _cyclic(agents, start, offset):
    idx = agents.index(start)
    return agents[(idx + offset) % len(agents)]


def test_criterion_7_delegation_scenarios():
    with criterion(7, "resource hand-off round and server invariant scenarios"):
        start_time = time.perf_counter()

        # Scenario A: agents pass a resource along a ring of requesters.
        agents = ("1", "2", "3")
        sig = Signature(agents, ("p", "r1", "r2", "r3"))

        def grant_req(i):
            s1, s2 = _cyclic(agents, i, 1), _cyclic(agents, i, 2)
            text = (f"if ~controls({i},p) then skip else "
                    f"(if r{s1} then give({i},p,{s1}) else "
                    f"(if r{s2} then give({i},p,{s2}) else skip))")
            return parse_program(text, sig)

        def pass_on(i, j):
            steps = []
            cur = i
            while cur != j:
                steps.append(grant_req(cur))
                cur = _cyclic(agents, cur, 1)
            return reduce(Seq, steps)

        for i, j in itertools.permutations(agents, 2):
            arc = []
            cur = i
            while cur != j:
                arc.append(cur)
                cur = _cyclic(agents, cur, 1)
            antecedent = conj(Atom(f"r{j}"), controls(set(arc), Atom("p")))
            claim = implies(antecedent, box_prog(pass_on(i, j), controls({j}, Atom("p"))))
            assert valid(claim, sig)

        for i in agents:
            round_trip = pass_on(_cyclic(agents, i, 1), i)
            ends_in_control = conj(DiaProg(round_trip, controls({i}, Atom("p"))),
                                   box_prog(round_trip, controls({i}, Atom("p"))))
            assert valid(implies(Atom(f"r{i}"), ends_in_control), sig)

        # Scenario B: a server and two clients rotate variables while an
        # invariant is maintained.
        sig2 = Signature(("s", "c1", "c2"), ("p1", "p2"))
        inv = parse_formula(
            "(controls(s,p1) | controls(s,p2)) & (controls(c1,p1) | controls(c2,p2))")
        beta = parse_program(
            "((controls(s,p1))?; give(s,p1,c1); give(c2,p2,s)"
            " + (controls(s,p2))?; give(s,p2,c2); give(c1,p1,s))*", sig2)
        assert valid(implies(inv, box_prog(beta, inv)), sig2)
        goal = parse_formula("dia{s}(~(p1 & p2)) & dia{c1,c2}(p1 | p2)")
        assert valid(implies(inv, box_prog(beta, goal)), sig2)

        assert time.perf_counter() - start_time < 30.0


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_decision_agreement():
    with criterion(8, "decision procedure agrees with the normal-form table"):
        rng = random.Random(2024)  # same corpus seed as criterion 3
        for _ in range(500):
            f = random_formula(rng, SIG22, 3)
            nf = normal_form(f, SIG22)
            witness = satisfiable(f, SIG22)
            assert (witness is not None) == any(nf.rows)
            if witness is not None:
                assert evaluate(witness, f)
            assert valid(f, SIG22) == all(row == nf.full_row for row in nf.rows)
