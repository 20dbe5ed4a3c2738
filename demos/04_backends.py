#!/usr/bin/env python3
# Lowering to real instruction sets, and compiling/running the kernels
# against the reference when the host supports it.

import re

from vecperm import MachineConfig, PermutationMap, TensorLayout
from vecperm.emit import emit_source, verify_native
from vecperm.ir import build_program

lay = TensorLayout((5, 7, 3))
pm = PermutationMap((2, 0, 1))

for isa, bits in (("x86-avx", 512), ("arm-sve", 512), ("sunway-simd", 512)):
    machine = MachineConfig(isa, bits, 4, 32)
    src = emit_source(build_program(lay, pm, machine))
    # body statements define x<i> values (the x86 prelude's #defines do not)
    head = [ln for ln in src.splitlines() if re.match(r"\s+\S+ x\d+ = ", ln)]
    print(f"--- {isa}: {len(src.splitlines())} lines, first lowered ops:")
    for ln in head[:3]:
        print("   ", ln.strip())

# Sunway machines get the portable lowering: GCC/Clang vector extensions,
# one __builtin_shufflevector per 16-byte part shuffle (not tested with Sunway's own
# compiler or hardware).  As the scalar target it compiles on any host with
# GCC >= 12 or Clang.
machine = MachineConfig("x86-avx", 512, 4, 32)
ir = build_program(lay, pm, machine)
for target in ("scalar", "x86-avx"):
    res = verify_native(emit_source(ir, target=target), lay, pm, machine,
                        target=target, cases=10)
    print(f"{target}: {res['status']}" + (f" ({res.get('reason')})" if res["status"] != "pass" else f" on {res['cases']} random buffers"))

# 64-bit elements ride the same 32-bit shuffle tables, just doubled.
lay8 = TensorLayout((5, 7, 3), 8)
m8 = MachineConfig("x86-avx", 512, 8, 32)
res = verify_native(emit_source(build_program(lay8, pm, m8)), lay8, pm, m8, cases=5)
print("x86, 8-byte elements:", res["status"])
