#!/usr/bin/env python3
# From plan to program: build IR with its register report, execute on the
# validating VM, and audit the instruction complexity.

import numpy as np

from vecperm import MachineConfig, PermutationMap, TensorLayout, naive_permute
from vecperm.ir import build_ir, build_program, dump_ir
from vecperm.planner import merge_dimensions, select_block
from vecperm.vm import audit_complexity, execute, format_counters

machine = MachineConfig(bit_width=512)  # 16 lanes
lay = TensorLayout((3, 32, 32, 7))      # shape (7,32,32,3) outer-to-inner
pm = PermutationMap((2, 0, 1, 3))       # numpy axes (0,2,3,1)

ir = build_program(lay, pm, machine)
print("loops:", [(l.name, l.trips, "unroll", l.unroll) for l in ir.loops])
demand = max(s["demand"] for s in ir.metadata["loop_stats"])
print("register footprint:", ir.metadata["total_registers"],
      f"({demand} data + {ir.metadata['index_tables']} tables)")

data = np.random.default_rng(0).integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
out, counters = execute(ir, data)
print("matches naive_permute:       ", np.array_equal(out, naive_permute(data, lay, pm)))
print("matches numpy transpose:     ", np.array_equal(
    out, np.transpose(data.reshape(7, 32, 32, 3), (0, 2, 3, 1)).ravel()))

print("\ncounters:")
print(format_counters(counters))

rep = audit_complexity(counters, lay, machine, float(ir.metadata["utilization"]))
print(f"\nvector ops per {machine.lanes} elements: {rep['ops_per_w_elements']:.3f}"
      f" (cap {rep['bound']:.3f}, within: {rep['within_bound']})")

# The IR itself is a small text artifact; here is a single-block program,
# as build_ir writes it (optimize only adds the register report).
lay4, pm4 = TensorLayout((2,) * 4), PermutationMap((3, 2, 1, 0))
small = build_ir(select_block(*merge_dimensions(lay4, pm4), MachineConfig(bit_width=128)))
print("\n--- IR text form (4x4 bit-matrix transpose) ---")
print(dump_ir(small))
