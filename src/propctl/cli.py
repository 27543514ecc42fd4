"""Command-line front end.

Every subcommand is a thin shell over one library call.  Exit codes:
0 for a positive answer (true / satisfiable / valid / equivalent),
1 for the negative answer, 2 for syntax errors in any input (formula,
program or model file) and for a missing or bad flag, 3 for signature
violations (identifiers outside the model or signature in scope, including
an unknown agent inside ``CONTROLS`` or ``giveall``) and for a table, or an
``nf --emit-formula`` formula, too large to build (see ``_EMIT_LIMIT``;
``axioms`` refuses such a table per scheme, checks the other schemes, and
exits 3 only if none has a counterexample), 4
for a file that cannot be read, and 5 for any other failure, reported in
one line on stderr without a traceback.
``--json`` switches each command to a machine-readable record.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from . import control, decision, normalform, semantics
from .model import (
    Signature,
    SignatureError,
    enumerate_allocations,
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


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _split_names(raw: str) -> tuple[str, ...]:
    return tuple(name for name in raw.replace(",", " ").split() if name)


def _emit(args, record: dict, text_lines: Iterable[str]) -> None:
    """Print the record as JSON (a model as ``model_to_dict`` gives it), or
    else the text lines, in one write."""
    if args.json:
        import json  # only --json output needs it
        print(json.dumps(record, sort_keys=True, default=model_to_dict))
    else:
        sys.stdout.write("".join(line + "\n" for line in text_lines))


def _at_least(minimum: int, kind: str):
    """An argparse type: a whole number of at least ``minimum``; argparse
    refuses anything else (exit 2), naming the ``kind`` it expected."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        return value
    return parse


def _signature(sig: Signature) -> tuple[dict, str]:
    """The signature as a JSON record and as text."""
    return ({"agents": list(sig.agents), "vars": list(sig.vars)},
            f"agents {{{','.join(sig.agents)}}}, vars {{{','.join(sig.vars)}}}")


def _verdict_exit(answer: bool) -> int:
    return 0 if answer else 1


def _cmd_check(args) -> int:
    model = parse_model(_read(args.model))
    text = _read(args.formula_file) if args.formula_file else args.formula
    formula = parse_formula(text, model.sig)
    answer = semantics.evaluate(model, formula)
    _emit(args, {"command": "check", "result": answer}, ["true" if answer else "false"])
    return _verdict_exit(answer)


def _cmd_run(args) -> int:
    model = parse_model(_read(args.model))
    program = parse_program(args.program, model.sig)
    image = semantics.program_image(model, program)
    # the models' blocks, a blank line apart; built only for text output
    blocks = (("\n" if k else "") + serialize_model(m).rstrip("\n") for k, m in enumerate(image))
    _emit(args, {"command": "run", "models": image}, blocks)
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
    signature, over = _signature(sig)
    record = {"command": "sat", "satisfiable": witness is not None, "signature": signature,
              "witness": witness}
    lines = [f"{'unsatisfiable' if witness is None else 'satisfiable'} over {over}"]
    if witness is not None:
        lines.append(serialize_model(witness).rstrip("\n"))
    _emit(args, record, lines)
    return _verdict_exit(witness is not None)


def _cmd_valid(args) -> int:
    [formula], sig = _parse_with_signature([args.formula], args.agents, args.vars)
    cex = decision.counterexample(formula, sig)
    signature, over = _signature(sig)
    record = {"command": "valid", "valid": cex is None, "signature": signature,
              "counterexample": cex}
    lines = ["valid" if cex is None else "not valid", f"signature: {over}"]
    if cex is not None:
        lines.append(serialize_model(cex).rstrip("\n"))
    _emit(args, record, lines)
    return _verdict_exit(cex is None)


def _cmd_equiv(args) -> int:
    [left, right], sig = _parse_with_signature([args.left, args.right],
                                               args.agents, args.vars)
    answer = normalform.equivalent(left, right, sig)
    record = {"command": "equiv", "equivalent": answer, "signature": _signature(sig)[0]}
    _emit(args, record, ["equivalent" if answer else "not equivalent"])
    return _verdict_exit(answer)


# The most literals ``nf --emit-formula`` writes (about 2 MB of text).  The
# rebuilt formula writes each satisfying valuation with a literal per
# variable, and each allocation with two (``controls`` writes p and ~p).
_EMIT_LIMIT = 1 << 17


def _cmd_nf(args) -> int:
    sig = Signature(_split_names(args.agents), _split_names(args.vars))
    formula = parse_formula(args.formula, sig)
    nf = normalform.normal_form(formula, sig)
    if args.emit_formula:
        literals = len(sig.vars) * sum(row.bit_count() + 2 for row in nf.rows)
        if literals > _EMIT_LIMIT:
            raise SignatureError(f"formula too large to emit: {literals} literals "
                                 f"(limit {_EMIT_LIMIT})")
    rows, names = [], list(enumerate(sig.vars))
    for alloc, row in zip(enumerate_allocations(sig), nf.rows):
        alloc_text = " & ".join(f"controls({alloc.owner(p)},{p})" for p in sig.vars)
        val_text = " | ".join(" & ".join(p if bits >> j & 1 else f"~{p}" for j, p in names)
                              for bits in range(1 << len(names)) if row >> bits & 1)
        rows.append((alloc_text, val_text or "false"))
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
    if args.second_order and not args.agent:
        args.usage_error("--second-order needs --agent")
    if not args.second_order and args.coalition is None:
        args.usage_error("first-order check needs --coalition "
                         "(an empty list means the empty coalition)")
    model = parse_model(_read(args.model))
    formula = parse_formula(args.formula, model.sig)
    if args.second_order:
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
    coalition = _split_names(args.coalition)
    answer = semantics.evaluate(model, controls(coalition, formula))
    record = {"command": "controls", "second_order": False,
              "coalition": sorted(coalition), "result": answer}
    _emit(args, record, ["true" if answer else "false"])
    return _verdict_exit(answer)


def _cmd_axioms(args) -> int:
    from .axioms import Budget, axiom_suite  # only this command needs the suite
    agents = tuple(str(i) for i in range(1, args.agents + 1))
    variables = tuple(f"p{i}" for i in range(1, args.vars + 1))
    sig = Signature(agents, variables)
    overrides = {"formula_depth": args.depth}
    if args.limit:
        overrides["per_scheme"] = args.limit
    report = axiom_suite(sig, Budget(**overrides))
    schemes = []
    for r in report.results:
        entry = {"name": r.name, "ok": r.ok, "checked": r.checked,
                 "truncated": r.truncated, "counterexample": None, "refused": r.refused}
        if r.counterexample is not None:
            instance, model = r.counterexample
            entry["counterexample"] = {"instance": render(instance), "model": model}
        schemes.append(entry)
    _emit(args, {"command": "axioms", "ok": report.ok, "schemes": schemes}, report.lines())
    if not report.ok:
        return 1
    refused = [r.name for r in report.results if r.refused is not None]
    if refused:  # the other schemes were checked, and their lines printed
        print(f"signature error: {len(refused)} of {len(schemes)} scheme(s) refused: "
              f"{', '.join(refused)}", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propctl",
        description="Model checking and decision procedures for a logic of "
                    "propositional control and its transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags several subcommands share, each declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="machine-readable output")
    names = argparse.ArgumentParser(add_help=False, parents=[output])
    names.add_argument("--agents", help="comma/space separated agent names")
    names.add_argument("--vars", help="comma/space separated variable names")

    p = sub.add_parser("check", parents=[output], help="evaluate a formula on a model file")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--formula-file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("run", parents=[output], help="print every model a program can reach")
    p.add_argument("--model", required=True)
    p.add_argument("--program", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sat", parents=[names], help="search for a satisfying model")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("valid", parents=[names], help="decide validity over a signature")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("equiv", parents=[names], help="decide equivalence of two formulas")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("nf", parents=[output], help="print the per-allocation normal form table")
    p.add_argument("formula")
    p.add_argument("--agents", required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--emit-formula", action="store_true")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("controls", parents=[output], help="first- or second-order control checks")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--coalition", help="agents exercising first-order control")
    p.add_argument("--second-order", action="store_true")
    p.add_argument("--agent", help="agent for the second-order check")
    p.set_defaults(func=_cmd_controls, usage_error=p.error)

    p = sub.add_parser("axioms", parents=[output], help="run the validity scheme suite")
    p.add_argument("--agents", type=_at_least(1, "a positive integer"), required=True,
                   help="number of agents")
    p.add_argument("--vars", type=_at_least(1, "a positive integer"), required=True,
                   help="number of variables")
    p.add_argument("--depth", type=_at_least(2, "an integer of at least 2"), default=2,
                   help="modal depth of the instantiation formula pool (at least 2)")
    p.add_argument("--limit", type=_at_least(1, "a positive integer"),
                   help="instance cap per scheme")
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
