"""The public API, pinned: adding or removing a public name fails here, so
the change shows in review.

A module's public names are those it defines at top level without a leading
underscore (those in ``__all__``, where it has one); a class's are its
attributes without one (fields, properties and methods).  The package root's
are the names ``from propctl import *`` binds, less its submodules.
"""

import ast
import importlib
import inspect
from pathlib import Path

import propctl


def defined_names(module) -> list[str]:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    names = {n for n in names if not n.startswith("_")}
    if hasattr(module, "__all__"):
        names &= set(module.__all__)
    out = []
    for name in sorted(names):
        out.append(name)
        value = getattr(module, name)
        if inspect.isclass(value):
            out += [f"{name}.{a}" for a in sorted(vars(value)) if not a.startswith("_")]
    return out


def root_names() -> list[str]:
    return sorted(n for n, v in vars(propctl).items()
                  if not n.startswith("_") and not inspect.ismodule(v))


API = {
    "propctl": """
        Allocation Atom CValuation Choice Dia DiaProg DirectModel Formula Give
        NormalForm Not Or ParseError PointedKripkeModel Program Seq Signature
        SignatureError Star TOP Test Top Valuation apply_cvaluation atomic_transfer
        characterize_second_order controls counterexample
        default_signature delegation_can_achieve enumerate_allocations
        enumerate_models equivalent evaluate geq give_program
        grand_coalition_control nf_to_formula normal_form parse_formula
        parse_model parse_program pointed_of program_image render satisfiable
        second_order_controls serialize_model signature_of star_depth valid
    """,
    "axioms": """
        Budget Budget.formula_depth Budget.formula_limit Budget.objective_limit
        Budget.per_scheme Budget.program_limit SCHEMES Scheme Scheme.instances
        Scheme.name SchemeResult SchemeResult.checked SchemeResult.counterexample
        SchemeResult.line SchemeResult.name SchemeResult.ok SchemeResult.refused
        SchemeResult.truncated
        SuiteContext SuiteContext.agents SuiteContext.formulas
        SuiteContext.objectives SuiteContext.programs
        SuiteContext.sig SuiteContext.vars SuiteReport SuiteReport.lines
        SuiteReport.ok SuiteReport.results SuiteReport.sig allocation_axiom
        axiom_suite check_scheme formula_pool make_context objective_pool
        program_pool
    """,
    "cli": """
        build_parser main
    """,
    "control": """
        characterize_second_order delegation_can_achieve geq grand_coalition_control
    """,
    "decision": """
        counterexample default_signature satisfiable valid
    """,
    "kripke": """
        PointedKripkeModel PointedKripkeModel.alloc PointedKripkeModel.sig
        PointedKripkeModel.world evaluate pointed_of
    """,
    "model": """
        Allocation Allocation.controlled_mask
        Allocation.from_index Allocation.from_map Allocation.index Allocation.move
        Allocation.owned_by Allocation.owner Allocation.owners Allocation.sig
        CValuation CValuation.coalition CValuation.domain CValuation.true_vars
        DirectModel DirectModel.alloc DirectModel.index DirectModel.sig
        DirectModel.val Signature Signature.agent_index Signature.agents
        Signature.var_index Signature.vars SignatureError Valuation Valuation.bits
        Valuation.from_true_vars Valuation.sig Valuation.true_vars Valuation.value
        apply_cvaluation atomic_transfer enumerate_allocations enumerate_models
        is_valid_name model_count model_from_dict model_to_dict
        serialize_model
    """,
    "normalform": """
        NormalForm NormalForm.full_row NormalForm.rows NormalForm.satisfying
        NormalForm.sig allocation_description equivalent nf_to_formula normal_form
        valuation_description
    """,
    "semantics": """
        evaluate program_image star_depth truth_rows
    """,
    "syntax": """
        Atom Atom.name CHILDREN Choice Choice.left Choice.right Dia Dia.body
        Dia.coalition DiaProg DiaProg.body DiaProg.program Formula Give Give.giver
        Give.receiver Give.var KEYWORDS Not Not.body Or Or.left Or.right ParseError
        Program Seq Seq.first Seq.second Star Star.body TOP Test Test.condition Top
        bottom box box_prog choice_all conj conj_all controls disj_all ensure_fits
        give_program iff implies nabla operands parse_formula parse_model
        parse_program render second_order_controls signature_of
    """,
}


def test_package_root_names_are_pinned():
    assert root_names() == API["propctl"].split()


def test_module_names_are_pinned():
    modules = sorted(set(API) - {"propctl"})
    assert modules == sorted(p.stem for p in Path(propctl.__file__).parent.glob("*.py")
                             if not p.stem.startswith("_"))
    for name in modules:
        module = importlib.import_module(f"propctl.{name}")
        assert defined_names(module) == API[name].split(), name
