import contextlib
import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from propctl import semantics
from propctl.cli import main
from propctl.decision import default_signature
from propctl.model import model_from_dict
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


def test_axioms_command(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--agents", "1", "--vars", "1",
                           "--limit", "10", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert len(record["schemes"]) > 20


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


def test_unexpected_failure_exit_five_without_traceback(model_file, capsys):
    # parses, but evaluating 600 nested conjunctions exceeds the recursion limit
    code, out, err = run_cli(capsys, "check", "--model", model_file,
                             "--formula", " & ".join(["p"] * 600))
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "RecursionError" in err and "Traceback" not in err


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
