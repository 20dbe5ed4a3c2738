"""SIMD tensor permutation: planning, IR generation, validation VM, backends."""

from .core import (
    LayoutError,
    PermutationMap,
    TensorLayout,
    compute_strides,
    from_numpy_convention,
    naive_permute,
    permuted_layout,
    to_numpy_convention,
)
from .machine import MachineConfig
from .planner import BlockPlan, merge_dimensions, select_block
from .ir import IRProgram, build_ir, build_program, dump_ir, optimize, parse_ir
from .vm import audit_complexity, execute
from .emit import emit_source, kernel_name, verify_native

__version__ = "0.1.0"
