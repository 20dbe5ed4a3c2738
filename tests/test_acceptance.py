"""Acceptance suite: one test class per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import numpy as np
import pytest

from vecperm.cli import run_campaign
from vecperm.core import PermutationMap, TensorLayout, naive_permute
from vecperm.emit import emit_source, verify_native
from vecperm.ir import Addr, build_ir, build_program, optimize
from vecperm.machine import MachineConfig
from vecperm.planner import merge_dimensions, select_block
from vecperm.vm import audit_complexity, execute

W_GRID = {4: MachineConfig(bit_width=128), 8: MachineConfig(bit_width=256), 16: MachineConfig(bit_width=512)}


def disjoint_reversal(rank):
    return PermutationMap(tuple(range(rank - 1, -1, -1)))


class TestCriterion1OracleCampaign:
    def test_thousand_randomized_cases(self):
        summary = run_campaign(1000, max_rank=16, seed=2024, max_elems=1 << 16)
        assert summary["passed"] == summary["cases"] == 1000, summary["mismatches"][:5]
        assert all(n > 0 for n in summary["per_family"].values())
        print(
            f"\ncriterion 1 PASS: {summary['passed']}/1000 bitwise matches "
            f"(families {summary['per_family']})"
        )

    def test_full_size_case(self):
        # one case at the N = 2^20 envelope
        rng = np.random.default_rng(60)
        lay = TensorLayout((1024, 1024))
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, W_GRID[16])
        data = rng.integers(0, 2**32 - 1, size=1 << 20, dtype=np.uint32)
        out, _ = execute(ir, data)
        assert np.array_equal(out, naive_permute(data, lay, pm))
        print("criterion 1 PASS: N=2^20 case bitwise equal")


class TestCriterion2ComplexityBound:
    def test_all2_disjoint_exact_integer_count(self):
        # loads + stores + shuffle steps: exactly 2 + log2(w) per w elements
        rng = np.random.default_rng(50)
        for w, machine in W_GRID.items():
            lb = machine.lane_bits
            rank = 2 * lb
            lay = TensorLayout((2,) * rank)
            pm = disjoint_reversal(rank)
            ir = build_program(lay, pm, machine)
            data = rng.integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
            _, counters = execute(ir, data)
            vec_ops = counters["vload"] + counters["vstore"] + counters["vshuf"]
            per_w = vec_ops * w / lay.num_elements
            assert per_w == float(2 + lb), (w, per_w)
        print("criterion 2a PASS: all-2 disjoint cost is exactly 2 + log2(w) per w elements")

    # representative padded shapes: merged (5,3) -> 15, merged (9,8) -> 72,
    # and single-sided pads 3->4, 5->8, 6->8, 10->16, 12->16
    PADDED = [
        ((15, 16), (1, 0), 512),
        ((72, 4), (1, 0), 256),
        ((6, 32), (1, 0), 256),
        ((3, 16, 16), (1, 0, 2), 512),
        ((5, 8, 8), (1, 0, 2), 256),
        ((12, 16), (1, 0), 512),
        ((10, 24), (1, 0), 256),
        ((6, 4, 8), (2, 1, 0), 256),
    ]

    def test_padded_cases_within_scaled_bound(self):
        rng = np.random.default_rng(51)
        for dims, sigma, bits in self.PADDED:
            lay = TensorLayout(dims)
            pm = PermutationMap(sigma)
            machine = MachineConfig(bit_width=bits)
            ir = build_program(lay, pm, machine)
            data = rng.integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
            out, counters = execute(ir, data)
            assert np.array_equal(out, naive_permute(data, lay, pm))
            util = float(ir.metadata["utilization"])
            assert util < 1.0 or dims == (72, 4)
            rep = audit_complexity(counters, lay, machine, util)
            assert rep["within_bound"], (dims, rep)
        print("criterion 2b PASS: padded cases within (2 + log2 w)/utilization")

    def test_random_padded_envelope(self):
        # broad randomized audit: c_pad plus the constant for spread, gather
        # and tail handling; reports the worst observed ratio
        rng = np.random.default_rng(52)
        worst = 0.0
        checked = 0
        for _ in range(150):
            rank = int(rng.integers(2, 6))
            dims = tuple(int(rng.integers(2, 10)) for _ in range(rank))
            n = int(np.prod(dims))
            bits = int(rng.choice([128, 256, 512]))
            machine = MachineConfig(bit_width=bits)
            w = machine.lanes
            if n > 6000 or n < w * w:
                continue
            lay = TensorLayout(dims)
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            ir = build_program(lay, pm, machine)
            data = rng.integers(0, 2**32 - 1, size=n, dtype=np.uint32)
            _, counters = execute(ir, data)
            util = float(ir.metadata["utilization"])
            rep = audit_complexity(counters, lay, machine, util)
            envelope = (4 + machine.lane_bits) / util
            assert rep["ops_per_w_elements"] <= envelope + 1e-9, (dims, pm.sigma, rep)
            worst = max(worst, rep["ops_per_w_elements"] / rep["bound"])
            checked += 1
        assert checked > 80
        print(
            f"criterion 2 note: {checked} random padded audits within the +2-op envelope; "
            f"worst strict-bound ratio {worst:.2f}"
        )


class TestCriterion3ShuffleStepLaw:
    def test_step_counts_match_common_index_law(self):
        rng = np.random.default_rng(53)
        for w, machine in W_GRID.items():
            lb = machine.lane_bits
            for _ in range(40):
                rank = int(rng.integers(lb, 13))
                sigma = tuple(int(x) for x in rng.permutation(rank))
                lay = TensorLayout((2,) * rank)
                pm = PermutationMap(sigma)
                expected = lb - sum(1 for j in range(lb) if sigma[j] < lb)
                l2, p2 = merge_dimensions(lay, pm)
                plan = select_block(l2, p2, machine)
                assert plan.shuffle_steps == expected, (w, sigma)
        print("criterion 3 PASS: steps = log2(w) - common indices on all-2 tensors")

    def test_sigma0_zero_at_w4_single_step(self):
        plan = select_block(TensorLayout((2,) * 4), PermutationMap((0, 3, 1, 2)), W_GRID[4])
        assert plan.shuffle_steps == 1

    def test_identical_sets_zero_steps(self):
        plan = select_block(TensorLayout((2,) * 4), PermutationMap((0, 1, 3, 2)), W_GRID[4])
        assert plan.shuffle_steps == 0
        print("criterion 3 PASS: sigma0=0 gives one step; identical sets give zero")


class TestCriterion4MergingUtilization:
    def test_5_3_unmerged_15_over_32(self):
        from fractions import Fraction

        lay = TensorLayout((3, 5, 16))
        pm = PermutationMap((2, 0, 1))
        plan = select_block(lay, pm, W_GRID[16])
        assert plan.utilization == Fraction(15, 32)

    def test_5_3_merged_15_over_16(self):
        from fractions import Fraction

        lay, pm = merge_dimensions(TensorLayout((3, 5, 16)), PermutationMap((2, 0, 1)))
        plan = select_block(lay, pm, W_GRID[16])
        assert plan.utilization == Fraction(15, 16)

    def test_9_8_merged_exactly_one(self):
        from fractions import Fraction

        lay, pm = merge_dimensions(TensorLayout((9, 8, 4)), PermutationMap((2, 0, 1)))
        assert lay.dims == (72, 4)
        plan = select_block(lay, pm, W_GRID[8])
        assert plan.utilization == Fraction(1)
        print(
            "criterion 4 PASS: utilization 15/32 unmerged, 15/16 merged, "
            "1 for the merged 72 run"
        )


class TestCriterion5RegisterBudget:
    def test_w16_four_step_plans_within_26(self):
        rng = np.random.default_rng(54)
        machine = W_GRID[16]
        checked = 0
        for _ in range(20):
            rank = int(rng.integers(8, 13))
            # construct a disjoint (4-step) map: the new trailing indices all
            # come from outside the old trailing four
            high = list(rng.permutation(np.arange(4, rank)))
            rest = list(rng.permutation(high[4:] + list(range(4))))
            sigma = tuple(int(x) for x in high[:4] + rest)
            lay = TensorLayout((2,) * rank)
            ir = build_program(lay, PermutationMap(sigma), machine)
            assert ir.metadata["shuffle_steps"] == 4
            assert ir.metadata["index_tables"] == 8
            assert ir.metadata["total_registers"] <= 26, ir.metadata
            checked += 1
        assert checked == 20
        print(f"criterion 5 PASS: {checked} four-step w=16 plans allocated <= 26 registers")


class TestCriterion6OptimizerPreservation:
    def test_100_cases_bitwise_equal_and_unroll_rule(self):
        # the optimizer keeps one block per loop trip: each build_ir loop
        # comes back as one loop with the same walk, unroll 1 and the same
        # body, and the program's output is unchanged
        rng = np.random.default_rng(55)
        budget = 32
        done = 0
        multi_trip = 0
        while done < 100:
            rank = int(rng.integers(1, 8))
            dims = tuple(int(rng.integers(1, 9)) for _ in range(rank))
            n = int(np.prod(dims))
            if not (2 <= n <= 4096):
                continue
            bits = int(rng.choice([128, 256, 512]))
            machine = MachineConfig(bit_width=bits, num_vector_registers=budget)
            lay = TensorLayout(dims)
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            l2, p2 = merge_dimensions(lay, pm)
            plan = select_block(l2, p2, machine)
            raw = build_ir(plan)
            opt = optimize(raw)
            data = rng.integers(0, 2**32 - 1, size=n, dtype=np.uint32)
            o_raw, _ = execute(raw, data)
            o_opt, _ = execute(opt, data)
            assert np.array_equal(o_raw, o_opt), (dims, pm.sigma)
            assert len(opt.loops) == len(raw.loops), (dims, pm.sigma)
            for lo, lr in zip(opt.loops, raw.loops):
                walk = (lr.name, lr.digits, lr.ranges, lr.trips)
                assert (lo.name, lo.digits, lo.ranges, lo.trips) == walk
                assert lo.unroll == 1 and isinstance(lo.body[0], Addr), (dims, lo.name)
                assert lo.body == lr.body, (dims, lo.name)
                multi_trip += lo.trips >= 2
            done += 1
        assert multi_trip > 20
        print(
            f"criterion 6 PASS: 100 optimized programs bitwise equal; "
            f"{multi_trip} multi-trip loops kept one block per trip"
        )


class TestCriterion7TailStoreSafety:
    def test_rows_of_five_overhang_at_w8(self):
        rng = np.random.default_rng(56)
        lay = TensorLayout((8, 5))  # destination rows of 5 at w=8
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, W_GRID[8])
        data = rng.integers(0, 2**32 - 1, size=40, dtype=np.uint32)
        out, counters = execute(ir, data)  # VM raises if the guards corrupt
        assert np.array_equal(out, naive_permute(data, lay, pm))
        assert counters["vload_dst"] >= 1  # the reserve path actually ran

    def test_ragged_destination_sweep(self):
        rng = np.random.default_rng(57)
        checked = 0
        for _ in range(60):
            rank = int(rng.integers(1, 5))
            dims = tuple(int(rng.integers(1, 10)) for _ in range(rank))
            n = int(np.prod(dims))
            if n > 4000:
                continue
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            for w, machine in W_GRID.items():
                lay2, pm2 = merge_dimensions(TensorLayout(dims), pm)
                if lay2.dims[pm2.sigma[0]] % w == 0:
                    continue  # only ragged destination rows
                lay = TensorLayout(dims)
                ir = build_program(lay, pm, machine)
                data = rng.integers(0, 2**32 - 1, size=n, dtype=np.uint32)
                out, _ = execute(ir, data)
                assert np.array_equal(out, naive_permute(data, lay, pm)), (dims, pm.sigma, w)
                checked += 1
        assert checked >= 50
        print(
            f"criterion 7 PASS: {checked} ragged-destination cases, guards intact, "
            "no element lost"
        )


class TestCriterion8CrossTarget:
    SHAPES = [
        ((5, 7, 3), (2, 0, 1)),
        ((2, 16, 8, 4), (3, 1, 2, 0)),
    ]

    def test_emission_deterministic(self):
        for dims, sigma in self.SHAPES:
            for isa, bits in (("x86-avx", 512), ("arm-sve", 256), ("sunway-simd", 512)):
                machine = MachineConfig(isa, bits, 4, 32)
                lay = TensorLayout(dims)
                pm = PermutationMap(sigma)
                a = emit_source(build_program(lay, pm, machine))
                b = emit_source(build_program(lay, pm, machine))
                assert a == b
        print("criterion 8 PASS: emitted source byte-identical across runs")

    def test_native_kernels_or_skipped(self):
        results = {}
        rng_shapes = self.SHAPES + [((9, 4, 5), (1, 2, 0))]
        for target, isa, bits in (
            ("scalar", "abstract", 256),
            ("x86-avx", "x86-avx", 512),
            ("arm-sve", "arm-sve", 512),
        ):
            statuses = []
            for dims, sigma in rng_shapes:
                machine = MachineConfig(isa, bits, 4, 32)
                lay = TensorLayout(dims)
                pm = PermutationMap(sigma)
                ir = build_program(lay, pm, machine)
                src = emit_source(ir, target=target)
                res = verify_native(src, lay, pm, machine, target=target, cases=20)
                assert res["status"] in ("pass", "skipped"), (target, dims, res)
                statuses.append(res["status"])
            results[target] = statuses
        # the scalar reference must actually run when a compiler exists
        if results["scalar"][0] == "skipped":
            pytest.skip("no C compiler available")
        assert all(s == "pass" for s in results["scalar"])
        print(f"criterion 8 PASS: native verification {results}")

    def test_unaligned_share_metric_reported(self):
        # stands in for the wall-clock claims: alignment handling is a small
        # share of memory operations on a padded case
        rng = np.random.default_rng(58)
        lay = TensorLayout((6, 32, 4))
        pm = PermutationMap((1, 0, 2))
        machine = W_GRID[8]
        ir = build_program(lay, pm, machine)
        data = rng.integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
        _, counters = execute(ir, data)
        rep = audit_complexity(counters, lay, machine, float(ir.metadata["utilization"]))
        assert 0.0 <= rep["unaligned_fraction"] <= 1.0
        print(f"criterion 8 note: unaligned op share {rep['unaligned_fraction']:.2f}")
