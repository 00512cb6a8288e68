"""Lantern: the alternate staging backend (paper §8).

An S-expression IR supporting *re-entrant staged function calls* — and
therefore recursive models — which the graph IR cannot express.  The same
AutoGraph front-end stages Python into this IR (backend-agnostic SCT),
and a one-time compile step lowers it to executable code with
continuation-based back-propagation.
"""

from .compiler import CompiledProgram, compile_program
from .ir import (
    Block,
    Builder,
    FunctionDef,
    Param,
    Program,
    StagedBool,
    StagedTensor,
    StagedTree,
    StagedValue,
)
from .lowering import LanternLoweringError, lower_op_call
from .models import LanternTreeLSTM, stage_tree_prod, tree_prod
from .serialize import (
    LanternSerializationError,
    program_from_payload,
    program_to_payload,
)
from .sexpr import Sym, format_sexpr, parse_sexpr
from .staging import ReentrantStagingError, StagedArityError, Stager
from . import ops

__all__ = [
    "Stager",
    "Program",
    "Builder",
    "Block",
    "FunctionDef",
    "Param",
    "StagedValue",
    "StagedTensor",
    "StagedBool",
    "StagedTree",
    "compile_program",
    "CompiledProgram",
    "tree_prod",
    "stage_tree_prod",
    "LanternTreeLSTM",
    "Sym",
    "format_sexpr",
    "parse_sexpr",
    "ops",
    "LanternLoweringError",
    "lower_op_call",
    "ReentrantStagingError",
    "StagedArityError",
    "LanternSerializationError",
    "program_to_payload",
    "program_from_payload",
]
