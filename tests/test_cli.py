import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from propctl import cli, semantics
from propctl.cli import main
from propctl.decision import default_signature
from propctl.model import Signature, model_from_dict
from propctl.syntax import parse_formula, parse_model, parse_program

from helpers import SAMPLE_MODEL_TEXT, sample_model


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "sample.model"
    path.write_text(SAMPLE_MODEL_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_true(model_file, capsys):
    code, out, _ = run_cli(capsys, "check", "--model", model_file,
                           "--formula", "box{1}(~r)")
    assert code == 0
    assert out.strip() == "true"


def test_check_false_exits_one(model_file, capsys):
    code, out, _ = run_cli(capsys, "check", "--model", model_file,
                           "--formula", "r")
    assert code == 1
    assert out.strip() == "false"


def test_check_matches_library(model_file, capsys):
    for text in ["p & q", "dia{2}(r)", "<give(1,p,2)>controls(2,p)"]:
        code, out, _ = run_cli(capsys, "check", "--model", model_file,
                               "--formula", text)
        m = sample_model()
        want = semantics.evaluate(m, parse_formula(text, m.sig))
        assert (code == 0) == want
        assert out.strip() == ("true" if want else "false")


def test_check_formula_file(model_file, tmp_path, capsys):
    ffile = tmp_path / "f.txt"
    ffile.write_text("dia{1,2}(p & r & ~q)\n")
    code, out, _ = run_cli(capsys, "check", "--model", model_file,
                           "--formula-file", str(ffile))
    assert code == 0 and out.strip() == "true"


def test_run_empty_image(model_file, capsys):
    code, out, _ = run_cli(capsys, "run", "--model", model_file,
                           "--program", "give(1,r,2)")
    assert code == 0
    assert out.strip() == ""


def test_run_blocks_reparse(model_file, capsys):
    code, out, _ = run_cli(capsys, "run", "--model", model_file,
                           "--program", "give(1,p,2) + give(1,q,2)")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    m = sample_model()
    expected = semantics.program_image(m, parse_program("give(1,p,2) + give(1,q,2)", m.sig))
    assert [parse_model(b + "\n") for b in blocks] == expected


def test_run_accepts_signature_sugar(model_file, capsys):
    code, out, _ = run_cli(capsys, "run", "--model", model_file,
                           "--program", "giveall(1)")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    # agent 1 may keep, or hand p or q to agent 2: 1 + 2 distinct results
    assert len(blocks) == 3


def test_run_json_round_trip(model_file, capsys):
    code, out, _ = run_cli(capsys, "run", "--model", model_file, "--json",
                           "--program", "give(1,p,2) + give(1,q,2)")
    assert code == 0
    record = json.loads(out)
    m = sample_model()
    expected = semantics.program_image(m, parse_program("give(1,p,2) + give(1,q,2)", m.sig))
    assert [model_from_dict(d) for d in record["models"]] == expected


def test_valid_empty_coalition_axiom(capsys):
    code, out, _ = run_cli(capsys, "valid", "dia{}(p) <-> p",
                           "--agents", "1", "--vars", "p")
    assert code == 0
    assert out.splitlines()[0] == "valid"


def test_valid_counterexample_listed(capsys):
    code, out, _ = run_cli(capsys, "valid", "p", "--agents", "1", "--vars", "p")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not valid"
    assert lines[1].startswith("signature:")
    cex = parse_model("\n".join(lines[2:]) + "\n")
    assert not cex.val.value("p")


def test_sat_witness_reverifies(capsys):
    code, out, _ = run_cli(capsys, "sat", "controls(i,p) & ~p", "--json")
    assert code == 0
    record = json.loads(out)
    witness = model_from_dict(record["witness"])
    assert semantics.evaluate(witness, parse_formula("controls(i,p) & ~p", witness.sig))


def test_sat_unsat_exit(capsys):
    code, out, _ = run_cli(capsys, "sat", "p & ~p")
    assert code == 1
    assert "unsatisfiable" in out


def test_partial_flags_keep_spare_agent(capsys):
    # only --vars given: agents come from the formula plus a spare
    code, out, _ = run_cli(capsys, "valid", "box{1}(p) -> p",
                           "--vars", "p,q", "--json")
    assert code == 0
    record = json.loads(out)
    assert "_env" in record["signature"]["agents"]
    assert record["signature"]["vars"] == ["p", "q"]


def test_signature_flags_enable_signature_sugar(capsys):
    # CONTROLS and giveall expand over the flag-built signature
    code, out, _ = run_cli(capsys, "sat", "CONTROLS(i, controls(j,p))",
                           "--agents", "i,j", "--vars", "p", "--json")
    assert code == 0
    witness = model_from_dict(json.loads(out)["witness"])
    assert witness.alloc.owner("p") == "i"
    code, _, _ = run_cli(capsys, "valid", "dia{1}(p) -> <giveall(1)*>dia{1}(p)",
                         "--agents", "1,2", "--vars", "p,q")
    assert code == 0


def test_default_signature_agrees_across_commands(capsys):
    # an agent named like the spare variable must not rename the variable
    text = "dia{_aux} true"
    sig = default_signature(parse_formula(text))
    expected = {"agents": list(sig.agents), "vars": list(sig.vars)}
    assert expected == {"agents": ["_aux", "_env"], "vars": ["_aux"]}
    for argv in (["valid", text], ["sat", text], ["equiv", text, "true"]):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["signature"] == expected, argv[0]


def test_empty_flag_means_spare_name_with_or_without_the_other(capsys):
    # the other flag names what the default signature would give anyway
    cases = (
        ("p", ["--agents", ""], ["--vars", "p"], {"agents": ["_env"], "vars": ["p"]}),
        ("dia{1} true", ["--vars", ""], ["--agents", "1,_env"],
         {"agents": ["1", "_env"], "vars": ["_aux"]}),
    )
    for text, empty, other, expected in cases:
        for extra in ([], other):
            code, out, _ = run_cli(capsys, "valid", text, *empty, *extra, "--json")
            assert code in (0, 1), (empty, extra)
            assert json.loads(out)["signature"] == expected, (empty, extra)


def test_equiv(capsys):
    code, out, _ = run_cli(capsys, "equiv", "p -> q", "~p | q")
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run_cli(capsys, "equiv", "p", "q")
    assert code == 1 and out.strip() == "not equivalent"


def test_nf_table_shape(capsys):
    code, out, _ = run_cli(capsys, "nf", "p & controls(1,p)",
                           "--agents", "1,2", "--vars", "p")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2  # one line per allocation
    assert lines[0].startswith("controls(1,p) :")


def test_nf_emit_formula_reparses(capsys):
    code, out, _ = run_cli(capsys, "nf", "p", "--agents", "1", "--vars", "p",
                           "--emit-formula")
    assert code == 0
    formula_line = [l for l in out.splitlines() if l.startswith("formula: ")][0]
    parse_formula(formula_line[len("formula: "):])


def test_controls_first_order(model_file, capsys):
    code, out, _ = run_cli(capsys, "controls", "--model", model_file,
                           "--coalition", "1", "--formula", "p & q")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "controls", "--model", model_file,
                           "--coalition", "1", "--formula", "r")
    assert code == 1 and out.strip() == "false"


def test_controls_second_order_reports_agreement(model_file, capsys):
    code, out, _ = run_cli(capsys, "controls", "--model", model_file,
                           "--second-order", "--agent", "1",
                           "--formula", "controls(2,p)", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["result"] is True
    assert record["agreement"] is True


@pytest.mark.parametrize("flags, message", [
    (["--second-order"], "--second-order needs --agent"),
    (["--agent", "1"], "first-order check needs --coalition"),
])
def test_controls_missing_flag_is_a_usage_error(model_file, capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["controls", "--model", model_file, "--formula", "p", *flags])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: propctl controls")
    assert f"propctl controls: error: {message}" in captured.err


def test_axioms_command(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--agents", "1", "--vars", "1",
                           "--limit", "10", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert len(record["schemes"]) > 20


@pytest.mark.parametrize("flag, value", [  # the --limit cases keep their bare-value ids
    pytest.param(flag, value, id=value if flag == "--limit" else f"{flag}={value}")
    for flag in ("--limit", "--agents", "--vars") for value in ("0", "-1", "x")])
def test_axioms_limit_must_be_positive(capsys, flag, value):
    argv = {"--agents": "1", "--vars": "1", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["axioms", *(f"{k}={v}" for k, v in argv.items())])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: expected a positive integer, got '{value}'" in captured.err


@pytest.mark.parametrize("depth", ["1", "0", "-3", "x"])
def test_axioms_depth_below_two_is_refused(capsys, depth):
    # depths below 2 would build the depth-2 pool, so they are refused, not run as 2
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--agents", "1", "--vars", "1", f"--depth={depth}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --depth: expected an integer of at least 2, got '{depth}'" in captured.err


def test_axioms_reports_a_counterexample(capsys, monkeypatch):
    from propctl import axioms
    unsound = axioms.Scheme("unsound", lambda ctx: iter([parse_formula("p1 -> box{1} p1")]))
    monkeypatch.setattr(axioms, "SCHEMES", (unsound,))
    argv = ["axioms", "--agents", "1", "--vars", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out == ("signature: agents 1; vars p1\n"
                   "unsound: COUNTEREXAMPLE, 1 instance(s)\n"
                   "  instance: ~p1 | ~dia{1}(~p1)\n"
                   "  agents: 1\n  vars: p1\n  owns 1: p1\n  true: p1\n")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    [scheme] = json.loads(out)["schemes"]
    assert scheme["ok"] is False
    assert scheme["counterexample"] == {
        "instance": "~p1 | ~dia{1}(~p1)",
        "model": {"agents": ["1"], "vars": ["p1"], "owns": {"1": ["p1"]}, "true": ["p1"]},
    }


def test_axioms_deep_pool_is_cut_at_its_limit():
    # Layers past the pool's limit are never built, so the depth costs nothing.
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["axioms", "--agents", "1", "--vars", "1", "--depth", "20000", "--limit", "1"]
    proc = subprocess.run([sys.executable, "-m", "propctl.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("signature: agents 1; vars p1\n")


def test_axioms_reads_the_coalition_pool_only_as_far_as_needed():
    # 24 agents have 2^24 coalitions; building them all ends in a MemoryError
    # under the child's 1 GiB address-space limit within seconds.
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["axioms", "--agents", "24", "--vars", "1", "--limit", "5"]
    proc = subprocess.run([sys.executable, "-m", "propctl.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
                          preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr
    assert "coalition-composition: ok, 5 instance(s) (truncated)" in proc.stdout


def test_axioms_refuses_the_partition_axiom_before_building_it():
    # At 100 agents the partition axiom holds 4,950 control pairs per
    # variable; building all of them before refusing the table ends in a
    # MemoryError under the child's 400 MiB address-space limit.
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["axioms", "--agents", "100", "--vars", "100"]
    proc = subprocess.run([sys.executable, "-m", "propctl.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
                          preexec_fn=limit_memory)
    refused = "union-program, comp-program, mix-star, ind-star, allocation-partition, " \
              "objective-permanence"
    assert (proc.returncode, proc.stderr) == (
        3, f"signature error: 6 of 29 scheme(s) refused: {refused}\n")
    sig = Signature(tuple(map(str, range(1, 101))), tuple(f"p{i}" for i in range(1, 101)))
    lines = proc.stdout.splitlines()
    assert lines[0] == f"signature: agents {', '.join(sig.agents)}; vars {', '.join(sig.vars)}"
    assert lines[0].startswith("signature: agents 1, 10, 100, 11,")  # in the signature's order
    [partition] = [line for line in lines if line.startswith("allocation-partition")]
    assert partition == ("allocation-partition: refused after 0 instance(s): too large to "
                         f"tabulate: {100 ** 100} rows of {1 << 100} bits are over the limit "
                         f"of {semantics._MAX_BITS} bits")


def test_import_leaves_out_dataclasses_and_the_axiom_suite(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, propctl.cli; print(sorted("
             "{'dataclasses', 'inspect', 'json', 'propctl.axioms'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "[]"
    # The one command that loads the suite still prints its golden output.
    argv = ["axioms", "--agents", "2", "--vars", "2", "--limit", "1"]
    golden = json.loads((src.parent / "bench" / "data" / "cli.json").read_text(encoding="utf-8"))
    [item] = [item for item in golden["items"] if item["argv"] == argv]
    assert run_cli(capsys, *argv)[:2] == (item["exit"], item["stdout"])


def test_parse_error_exit_two(model_file, capsys):
    code, _, err = run_cli(capsys, "check", "--model", model_file,
                           "--formula", "p &")
    assert code == 2
    assert "parse error" in err
    assert "line 1" in err


def test_signature_error_exit_three(model_file, capsys):
    code, _, err = run_cli(capsys, "check", "--model", model_file,
                           "--formula", "zz")
    assert code == 3
    assert "signature error" in err


def test_too_large_to_tabulate_exit_three(model_file, monkeypatch, capsys):
    # the limit lowered so that these small signatures are over it
    monkeypatch.setattr(semantics, "_MAX_BITS", 1 << 4)
    semantics._cut.cache_clear()
    five = ("--agents", "1,2", "--vars", "p0,p1,p2,p3,p4")  # 32 allocations of 32 valuations
    at_model = ("check", "--model", model_file, "--formula", "<giveall(1)*>dia{1,2}(p & q & r)")
    whole = ("valid", "dia{1,2}(p0 & p1 & p2 & p3 & p4)", *five)
    for argv in (("nf", "p0", *five), whole, at_model):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("signature error: too large to tabulate") and err.count("\n") == 1
    assert run_cli(capsys, "valid", "p0 | ~p0", *five)[0] == 0  # its cut is small
    semantics._cut.cache_clear()


def test_axioms_refuses_schemes_one_at_a_time(capsys, monkeypatch):
    # the limit lowered so that two schemes' instances are over it at 2x5
    from propctl import axioms
    monkeypatch.setattr(semantics, "_MAX_BITS", 1 << 5)
    semantics._cut.cache_clear()
    argv = ["axioms", "--agents", "2", "--vars", "5", "--limit", "10"]
    whole, cut = (f"too large to tabulate: {n} rows of {n} bits are over the limit of 32 bits"
                  for n in (32, 8))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err == ("signature error: 2 of 29 scheme(s) refused: "
                   "allocation-partition, commute-transfers\n")
    lines = out.splitlines()
    assert len(lines) == 30
    assert f"allocation-partition: refused after 0 instance(s): {whole}" in lines
    assert f"commute-transfers: refused after 2 instance(s): {cut}" in lines
    assert "prop-tautology: ok, 10 instance(s) (truncated)" in lines  # the others are checked
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 3 and err.count("\n") == 1
    record = json.loads(out)
    refused = {s["name"]: (s["checked"], s["refused"]) for s in record["schemes"] if s["refused"]}
    assert refused == {"allocation-partition": (0, whole), "commute-transfers": (2, cut)}
    assert record["ok"] is True  # no counterexample among the instances checked
    # a counterexample outranks a refusal
    unsound = axioms.Scheme("unsound", lambda ctx: iter([parse_formula("p1 -> box{1} p1")]))
    partition = next(s for s in axioms.SCHEMES if s.name == "allocation-partition")
    monkeypatch.setattr(axioms, "SCHEMES", (partition, unsound))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    assert out.splitlines()[1:3] == [
        f"allocation-partition: refused after 0 instance(s): {whole}",
        "unsound: COUNTEREXAMPLE, 1 instance(s)"]
    semantics._cut.cache_clear()


def test_model_file_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("agents: 1\nvars: p\nowns 1: p\nowns 1: p\ntrue:\n")
    code, _, err = run_cli(capsys, "check", "--model", str(bad), "--formula", "p")
    assert code == 2


def test_unknown_agent_in_signature_sugar_exit_three(model_file, capsys):
    for text in ("CONTROLS(zz,p)", "<giveall(zz)>p", "<giveall({1} -> {zz})>p"):
        code, _, err = run_cli(capsys, "check", "--model", model_file, "--formula", text)
        assert code == 3, text
        assert "unknown agent 'zz'" in err
    code, _, err = run_cli(capsys, "controls", "--model", model_file, "--formula", "p",
                           "--second-order", "--agent", "zz")
    assert code == 3
    assert "unknown agent 'zz'" in err


def test_missing_file_exit_four(tmp_path, model_file, capsys):
    missing = str(tmp_path / "missing.model")
    code, _, err = run_cli(capsys, "check", "--model", missing, "--formula", "p")
    assert code == 4
    assert "missing.model" in err
    code, _, err = run_cli(capsys, "check", "--model", model_file, "--formula-file", missing)
    assert code == 4


def test_unexpected_failure_exit_five_without_traceback(model_file, capsys, monkeypatch):
    def overflow(model, formula):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(semantics, "evaluate", overflow)
    code, out, err = run_cli(capsys, "check", "--model", model_file, "--formula", "p")
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "RecursionError" in err and "Traceback" not in err


def test_long_conjunction_chain_is_answered(model_file, capsys):
    # 600 operands nest 1,800 nodes deep; the evaluator keeps its own stack
    code, out, err = run_cli(capsys, "check", "--model", model_file,
                             "--formula", " & ".join(["p"] * 600))
    assert (code, out, err) == (0, "true\n", "")


def test_deep_nesting_is_answered_or_refused(model_file, capsys):
    # prefix runs and chains are read in loops; parentheses nest frames
    for formula in ("~" * 3000 + "p", "<" + "; ".join(["skip"] * 1000) + ">true",
                    "<give(1,p,2)" + "*" * 1500 + ">true"):
        code, out, err = run_cli(capsys, "check", "--model", model_file, "--formula", formula)
        assert (code, err) == (0, "") and out == "true\n"
    # the parser and the program interpreter keep their own stacks, so
    # formulas and programs nest without bound.  Each case: the text, then
    # the exit codes of check and controls.
    depth = 2000
    for formula, check_code, controls_code in (
            ("(" * depth + "p" + ")" * depth, 0, 0),
            ("dia{1}(" * depth + "p" + ")" * depth, 0, 1),
            ("<" + "(skip; " * depth + "skip" + ")" * depth + ">true", 0, 1),
            ("<" + "if p then skip + " * depth + "skip" + " else skip" * depth + ">true", 0, 1),
            ("<" + "while p do skip + skip; " * depth + "skip" + "*" * depth + ">true", 1, 0),
            ("<" + "(give(1,p,2) + skip; " * depth + "skip" + ")*" * depth + ">true", 0, 1)):
        code, out, err = run_cli(capsys, "check", "--model", model_file, "--formula", formula)
        assert (code, out, err) == (check_code, ("true\n", "false\n")[check_code], ""), formula[:40]
        code, out, err = run_cli(capsys, "controls", "--second-order", "--agent", "1",
                                 "--model", model_file, "--formula", formula)
        answer = ("true", "false")[controls_code]
        assert (code, err) == (controls_code, ""), formula[:40]
        assert out == (f"second-order control: {answer}\ncharacterization: {answer}\n"
                       "agreement: true\n"), formula[:40]
    # 500 nested stars: run reaches what the one-level program reaches (the
    # forward image of nested stars takes time superlinear in their depth)
    depth = 500
    code, out, err = run_cli(capsys, "run", "--model", model_file, "--program",
                             "(give(1,p,2) + skip; " * depth + "skip" + ")*" * depth)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "run", "--model", model_file,
                          "--program", "(give(1,p,2) + skip)*")[1]


def test_nf_of_many_allocations_emits_its_formula(capsys):
    # 1,024 allocations: the rebuilt formula is a 1,024-operand "|" chain
    code, out, _ = run_cli(capsys, "nf", "false", "--agents", "1,2",
                           "--vars", ",".join(f"p{i}" for i in range(10)), "--emit-formula")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1025
    assert lines[-1].startswith("formula: ") and lines[-1].count("~(~~true | ") == 1024


def test_model_with_forty_variables_is_answered(tmp_path, capsys):
    names = " ".join(f"p{i}" for i in range(40))
    path = tmp_path / "wide.model"
    path.write_text(f"agents: 1 2\nvars: {names}\nowns 1: {names}\ntrue: p0 p39\n")
    code, out, _ = run_cli(capsys, "check", "--model", str(path), "--formula",
                           "p0 & ~dia{2}(~p39) & <give(1,p1,2)> dia{2} p1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "run", "--model", str(path), "--program", "give(1,p39,2)")
    assert code == 0
    assert "owns 2: p39" in out


_FUZZ_TOKENS = [
    "p", "q", "1", "2", "zz", "true", "false", "~", "&", "|", "->", "<->",
    "(", ")", "?", "<", ">", "[", "]", "{", "}", ",", ";", "+", "*",
    "dia", "box", "controls", "CONTROLS", "give", "giveall", "test", "skip",
    "fail", "if", "then", "else", "while", "do", "repeat", "until", "#", "$",
]


@pytest.fixture(scope="module")
def fuzz_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "two.model"
    path.write_text("agents: 1 2\nvars: p q\nowns 1: p\nowns 2: q\ntrue: p\n")
    return str(path)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["check", "sat", "valid"]),
       tokens=st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=16),
       joiner=st.sampled_from([" ", ""]),
       agents=st.sampled_from([None, "1", "1,2"]),
       variables=st.sampled_from([None, "p", "p,q"]))
def test_cli_fuzz_exits_with_documented_code(fuzz_model_file, command, tokens, joiner,
                                             agents, variables):
    text = joiner.join(tokens)
    if command == "check":
        argv = ["check", "--model", fuzz_model_file, f"--formula={text}"]
    else:
        argv = [command]
        if agents is not None:
            argv += ["--agents", agents]
        if variables is not None:
            argv += ["--vars", variables]
        argv += ["--", text]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code >= 2:
        assert len(err.getvalue().splitlines()) == 1


_FUZZ_NAMES = ["", "0", "1", "2", "-1", "1,2", "zz", "1,zz", ","]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["axioms", "nf", "run", "controls"]), data=st.data(),
       as_json=st.booleans())
def test_cli_fuzz_subcommand_flags(fuzz_model_file, command, data, as_json):
    small, names = st.integers(-2, 3).map(str), st.sampled_from(_FUZZ_NAMES)
    if command == "axioms":
        argv = ["axioms", f"--agents={data.draw(small)}", f"--vars={data.draw(small)}",
                f"--depth={data.draw(small)}",
                f"--limit={data.draw(st.integers(-2, 2).map(str))}"]  # at most 2: fast
    elif command == "nf":
        argv = ["nf", data.draw(st.sampled_from(["p", "controls(1,p)", "CONTROLS(2,p)", "zz"])),
                f"--agents={data.draw(names)}",
                f"--vars={data.draw(st.sampled_from(['', '0', 'p', 'p,q', 'zz']))}"]
    elif command == "run":
        program = data.draw(st.sampled_from(["give(1,p,2)", "giveall(1)", "giveall(zz)",
                                             "giveall({} -> {1,2})", "give(zz,p,1)"]))
        argv = ["run", "--model", fuzz_model_file, "--program", program]
    else:
        argv = ["controls", "--model", fuzz_model_file,
                "--formula", data.draw(st.sampled_from(["p", "q", "controls(2,p)", "zz"]))]
        for flag in ["--coalition", "--agent"]:
            value = data.draw(st.none() | names)
            if value is not None:
                argv.append(f"{flag}={value}")
        if data.draw(st.booleans()):
            argv.append("--second-order")
    if as_json:
        argv.append("--json")
    out, err, refused = io.StringIO(), io.StringIO(), False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag value, after its usage lines
            code, refused = exc.code, True
    assert code in range(6), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code >= 2 and not refused:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    if command == "axioms" and code == 0:
        # A pass has checked something: no scheme is cut off before its first instance.
        if as_json:
            cut = [s["name"] for s in json.loads(out.getvalue())["schemes"]
                   if s["truncated"] and not s["checked"]]
        else:
            cut = [line for line in out.getvalue().splitlines()
                   if line.endswith(" 0 instance(s) (truncated)")]
        assert not cut, (argv, cut)


def test_nf_refuses_a_formula_over_the_emit_limit(capsys, monkeypatch):
    # 2x2, "p0": 2 of 4 valuations per row, 4 rows, 2 literals per valuation
    # and 4 per allocation (controls writes p and ~p): 32 literals in all
    code, out, _ = run_cli(capsys, "nf", "p0", "--agents", "1,2", "--vars", "p0,p1",
                           "--emit-formula")
    formula = out.splitlines()[-1].removeprefix("formula: ")
    assert code == 0 and len(re.findall(r"\bp[01]\b", formula)) == 32
    monkeypatch.setattr(cli, "_EMIT_LIMIT", 31)
    code, out, err = run_cli(capsys, "nf", "p0", "--agents", "1,2", "--vars", "p0,p1",
                             "--emit-formula")
    assert (code, out) == (3, "")
    assert err == "signature error: formula too large to emit: 32 literals (limit 31)\n"
    monkeypatch.undo()
    # 2x8 "p0 | ~p0": 256 rows of 256 valuations, 528,384 literals
    code, out, err = run_cli(capsys, "nf", "p0 | ~p0", "--agents", "1,2",
                             "--vars", ",".join(f"p{i}" for i in range(8)), "--emit-formula")
    assert (code, out) == (3, "")
    assert err == ("signature error: formula too large to emit: 528384 literals "
                   "(limit 131072)\n")
