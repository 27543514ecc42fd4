"""Command-line front end.

Every subcommand is a thin shell over one library call.  Exit codes:
0 for a positive answer (true / satisfiable / valid / equivalent),
1 for the negative answer, 2 for syntax errors in any input (formula,
program or model file), 3 for signature violations (identifiers outside
the model or signature in scope, including an unknown agent inside
``CONTROLS`` or ``giveall``), 4 for a file that cannot be read, and 5 for
any other failure, reported in one line on stderr without a traceback.
``--json`` switches each command to a machine-readable record.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import control, decision, normalform, semantics
from .axioms import Budget, axiom_suite
from .model import (
    Signature,
    SignatureError,
    model_to_dict,
    serialize_model,
)
from .syntax import (
    ParseError,
    controls,
    disj_all,
    parse_formula,
    parse_model,
    parse_program,
    render,
    second_order_controls,
)


def _read_model(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def _split_names(raw: str) -> tuple[str, ...]:
    return tuple(name for name in raw.replace(",", " ").split() if name)


def _emit(args, record: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _verdict_exit(answer: bool) -> int:
    return 0 if answer else 1


def _cmd_check(args) -> int:
    model = _read_model(args.model)
    if args.formula_file:
        with open(args.formula_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = args.formula
    formula = parse_formula(text, model.sig)
    answer = semantics.evaluate(model, formula)
    _emit(args, {"command": "check", "result": answer}, ["true" if answer else "false"])
    return _verdict_exit(answer)


def _cmd_run(args) -> int:
    model = _read_model(args.model)
    program = parse_program(args.program, model.sig)
    image = semantics.program_image(model, program)
    if args.json:
        record = {"command": "run", "models": [model_to_dict(m) for m in image]}
        print(json.dumps(record, sort_keys=True))
    else:
        blocks = [serialize_model(m) for m in image]
        print("\n".join(blocks), end="")
    return 0


def _parse_with_signature(texts, agents: str | None, variables: str | None):
    """Parse the formulas and pick the signature to decide them over.

    A flag replaces its part of the signature with the names it lists, or
    with the spare name (``_env`` or ``_aux``) if it lists none.  With both
    flags, that signature is in scope while parsing (signature-dependent
    sugar needs the full signature).  Otherwise the formulas' default
    signature supplies the part no flag names.
    """
    agent_names = None if agents is None else _split_names(agents) or ("_env",)
    var_names = None if variables is None else _split_names(variables) or ("_aux",)
    if agent_names is not None and var_names is not None:
        sig = Signature(agent_names, var_names)
        return [parse_formula(text, sig) for text in texts], sig
    formulas = [parse_formula(text) for text in texts]
    sig = decision.default_signature(disj_all(formulas))
    return formulas, Signature(agent_names or sig.agents, var_names or sig.vars)


def _cmd_sat(args) -> int:
    [formula], sig = _parse_with_signature([args.formula], args.agents, args.vars)
    witness = decision.satisfiable(formula, sig)
    record = {
        "command": "sat",
        "satisfiable": witness is not None,
        "signature": {"agents": list(sig.agents), "vars": list(sig.vars)},
        "witness": model_to_dict(witness) if witness else None,
    }
    lines = []
    if witness is None:
        lines.append(f"unsatisfiable over agents {{{','.join(sig.agents)}}}, vars {{{','.join(sig.vars)}}}")
    else:
        lines.append(f"satisfiable over agents {{{','.join(sig.agents)}}}, vars {{{','.join(sig.vars)}}}")
        lines.append(serialize_model(witness).rstrip("\n"))
    _emit(args, record, lines)
    return _verdict_exit(witness is not None)


def _cmd_valid(args) -> int:
    [formula], sig = _parse_with_signature([args.formula], args.agents, args.vars)
    cex = decision.counterexample(formula, sig)
    record = {
        "command": "valid",
        "valid": cex is None,
        "signature": {"agents": list(sig.agents), "vars": list(sig.vars)},
        "counterexample": model_to_dict(cex) if cex else None,
    }
    lines = ["valid" if cex is None else "not valid",
             f"signature: agents {{{','.join(sig.agents)}}}, vars {{{','.join(sig.vars)}}}"]
    if cex is not None:
        lines.append(serialize_model(cex).rstrip("\n"))
    _emit(args, record, lines)
    return _verdict_exit(cex is None)


def _cmd_equiv(args) -> int:
    [left, right], sig = _parse_with_signature([args.left, args.right],
                                               args.agents, args.vars)
    answer = normalform.equivalent(left, right, sig)
    record = {"command": "equiv", "equivalent": answer,
              "signature": {"agents": list(sig.agents), "vars": list(sig.vars)}}
    _emit(args, record, ["equivalent" if answer else "not equivalent"])
    return _verdict_exit(answer)


def _cmd_nf(args) -> int:
    sig = Signature(_split_names(args.agents), _split_names(args.vars))
    formula = parse_formula(args.formula, sig)
    nf = normalform.normal_form(formula, sig)
    from .model import enumerate_allocations

    rows = []
    for alloc in enumerate_allocations(sig):
        alloc_text = " & ".join(f"controls({alloc.owner(p)},{p})" for p in sig.vars)
        sats = nf.satisfying(alloc)
        if not sats:
            val_text = "false"
        else:
            val_text = " | ".join(
                " & ".join(p if val.value(p) else f"~{p}" for p in sig.vars)
                for val in sats
            )
        rows.append((alloc_text, val_text))
    record = {
        "command": "nf",
        "rows": [{"allocation": a, "valuations": v} for a, v in rows],
    }
    lines = [f"{a} : {v}" for a, v in rows]
    if args.emit_formula:
        rebuilt = render(normalform.nf_to_formula(nf))
        record["formula"] = rebuilt
        lines.append(f"formula: {rebuilt}")
    _emit(args, record, lines)
    return 0


def _cmd_controls(args) -> int:
    model = _read_model(args.model)
    formula = parse_formula(args.formula, model.sig)
    if args.second_order:
        if not args.agent:
            raise SignatureError("--second-order needs --agent")
        direct = semantics.evaluate(
            model, second_order_controls(args.agent, formula, model.sig))
        table = control.characterize_second_order(
            model.sig, model.alloc, model.val, args.agent, formula)
        record = {"command": "controls", "second_order": True, "agent": args.agent,
                  "result": direct, "characterization": table,
                  "agreement": direct == table}
        lines = [
            f"second-order control: {'true' if direct else 'false'}",
            f"characterization: {'true' if table else 'false'}",
            f"agreement: {'true' if direct == table else 'false'}",
        ]
        _emit(args, record, lines)
        return _verdict_exit(direct)
    if args.coalition is None:
        raise SignatureError("first-order check needs --coalition "
                             "(an empty list means the empty coalition)")
    coalition = _split_names(args.coalition)
    answer = semantics.evaluate(model, controls(coalition, formula))
    record = {"command": "controls", "second_order": False,
              "coalition": sorted(coalition), "result": answer}
    _emit(args, record, ["true" if answer else "false"])
    return _verdict_exit(answer)


def _cmd_axioms(args) -> int:
    agents = tuple(str(i) for i in range(1, args.agents + 1))
    variables = tuple(f"p{i}" for i in range(1, args.vars + 1))
    sig = Signature(agents, variables)
    overrides = {"formula_depth": args.depth}
    if args.limit:
        overrides["per_scheme"] = args.limit
    report = axiom_suite(sig, Budget(**overrides))
    if args.json:
        schemes = []
        for r in report.results:
            entry = {"name": r.name, "ok": r.ok, "checked": r.checked,
                     "truncated": r.truncated, "counterexample": None}
            if r.counterexample is not None:
                instance, model = r.counterexample
                entry["counterexample"] = {"instance": render(instance),
                                           "model": model_to_dict(model)}
            schemes.append(entry)
        record = {"command": "axioms", "ok": report.ok, "schemes": schemes}
        print(json.dumps(record, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propctl",
        description="Model checking and decision procedures for a logic of "
                    "propositional control and its transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="evaluate a formula on a model file")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--formula-file")
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("run", help="print every model a program can reach")
    p.add_argument("--model", required=True)
    p.add_argument("--program", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sat", help="search for a satisfying model")
    p.add_argument("formula")
    p.add_argument("--agents", help="comma/space separated agent names")
    p.add_argument("--vars", help="comma/space separated variable names")
    add_json(p)
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("valid", help="decide validity over a signature")
    p.add_argument("formula")
    p.add_argument("--agents")
    p.add_argument("--vars")
    add_json(p)
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("equiv", help="decide equivalence of two formulas")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--agents")
    p.add_argument("--vars")
    add_json(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("nf", help="print the per-allocation normal form table")
    p.add_argument("formula")
    p.add_argument("--agents", required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--emit-formula", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("controls", help="first- or second-order control checks")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--coalition", help="agents exercising first-order control")
    p.add_argument("--second-order", action="store_true")
    p.add_argument("--agent", help="agent for the second-order check")
    add_json(p)
    p.set_defaults(func=_cmd_controls)

    p = sub.add_parser("axioms", help="run the validity scheme suite")
    p.add_argument("--agents", type=int, required=True, help="number of agents")
    p.add_argument("--vars", type=int, required=True, help="number of variables")
    p.add_argument("--depth", type=int, default=2,
                   help="modal depth of the instantiation formula pool")
    p.add_argument("--limit", type=int, help="instance cap per scheme")
    add_json(p)
    p.set_defaults(func=_cmd_axioms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except SignatureError as err:
        print(f"signature error: {err}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except Exception as err:
        # The command boundary: no input may end in a traceback or in exit 1.
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
