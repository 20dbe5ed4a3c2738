#!/usr/bin/env python3
# The in-register exchange network of one block: pairwise shuffles,
# selector vectors, store order, and what padding prunes away.

from vecperm import MachineConfig, PermutationMap, TensorLayout, select_block
from vecperm.shuffle import build_block_ops


def block_ops(dims, sigma, machine):
    plan = select_block(TensorLayout(dims, machine.elem_width), PermutationMap(sigma), machine)
    return plan, build_block_ops(plan)[0]  # the first phase's BlockOps


w4 = MachineConfig(bit_width=128)  # 4 lanes

# Worst case at w=4: disjoint trailing pairs, log2(4) = 2 exchange steps;
# step k shuffles register i with register i ^ (1 << k).
plan, ops = block_ops((2,) * 4, (3, 2, 1, 0), w4)
for step in sorted({r.step for r in ops.shuffles}):
    pairs = list(dict.fromkeys((r.in_lo, r.in_hi) for r in ops.shuffles if r.step == step))
    print(f"step {step}: register pairs {pairs} (distance {1 << step})")

# Each step needs just two selector vectors, one per side of every pair;
# lanes >= w select from the second register.  At 4-byte elements, where
# lane bits 0 and 1 both move into register numbers, step 0 is a zip,
# [a0,b0,a1,b1] and [a2,b2,a3,b3] (one unpack instruction each on SSE2),
# and step 1 swaps lane bit 1, [a0,a1,b0,b1] and [a2,a3,b2,b3].
for r in ops.shuffles:
    side = "lo" if r.out_slot == r.in_lo else "hi"
    print(f"  step {r.step} -> slot {r.out_slot} ({side}): {r.vec}")

# A common trailing index halves the work: one step instead of two.
plan_b = select_block(TensorLayout((2,) * 4), PermutationMap((0, 3, 1, 2)), w4)
print("\nshared innermost dim -> steps:", plan_b.shuffle_steps,
      "registers:", plan_b.num_registers)

# Stores go out in destination-offset order, so the store-side register
# numbering absorbs the order in which the steps promote dims, with zero
# extra shuffles.  The zip promotes dim 1 (destination stride 4) before
# dim 0 (stride 8), so the slots store in order; at 8-byte elements two
# swaps promote dim 0 first, and the slots store as 0, 2, 1, 3.
print("\nstore order (slot @ offset):", [(st.slot, st.offset) for st in ops.stores])
_, ops8 = block_ops((2,) * 4, (3, 2, 1, 0), MachineConfig(bit_width=256, elem_width=8))
print("8-byte store order (slot @ offset):", [(st.slot, st.offset) for st in ops8.stores])

# Padding analysis: destination rows of 5 padded to 8 leave three register
# slots empty; their shuffles are dropped or folded into self-shuffles.
w8 = MachineConfig(bit_width=256)
plan_pad, pad = block_ops((8, 5), (1, 0), w8)
full = plan_pad.shuffle_steps * plan_pad.num_registers
print(f"\nshuffles kept: {len(pad.shuffles)} of {full}")
print("self-shuffles (step, out slot, source slot):",
      [(r.step, r.out_slot, r.in_lo) for r in pad.shuffles if r.in_hi is None])

print("loads:", [(ld.slot, ld.offset) for ld in pad.loads])
print("store modes:", [(st.offset, st.mode, st.valid_count) for st in pad.stores])
# 'borrow' stores fill their overhang with the next register's data;
# the final 'reserve' store rewrites memory content so nothing is lost.
