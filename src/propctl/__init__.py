"""Model checking, satisfiability, and control analysis for a modal logic
where every propositional variable is owned by one agent: coalition
modalities quantify over assignments to owned variables, and program
modalities move ownership between agents."""

from .control import (
    characterize_second_order,
    delegation_can_achieve,
    geq,
    grand_coalition_control,
)
from .decision import (
    counterexample,
    default_signature,
    satisfiable,
    valid,
)
from .kripke import PointedKripkeModel, pointed_of
from .model import (
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
    serialize_model,
)
from .normalform import (
    NormalForm,
    equivalent,
    nf_to_formula,
    normal_form,
)
from .semantics import evaluate, program_image, star_depth
from .syntax import (
    Atom,
    Choice,
    Dia,
    DiaProg,
    Formula,
    Give,
    Not,
    Or,
    ParseError,
    Program,
    Seq,
    Star,
    Test,
    Top,
    TOP,
    controls,
    give_program,
    parse_formula,
    parse_model,
    parse_program,
    render,
    second_order_controls,
    signature_of,
)

__version__ = "0.1.0"
