from collections import Counter

import numpy as np
import pytest

from vecperm.cli import MACHINE_GRID
from vecperm.core import PermutationMap, TensorLayout, from_numpy_convention, naive_permute
from vecperm.ir import VLoad, VShuf, build_program
from vecperm.machine import MachineConfig
from vecperm.planner import merge_dimensions, select_block, walk_counter
from vecperm.shuffle import build_block_ops
from vecperm.vm import execute


def mini_execute(lay, pm, machine, data):
    """Independent interpreter over the shuffle-layer records only,
    bypassing the IR and optimizer entirely."""
    w = machine.lanes
    n = lay.num_elements
    plan = select_block(lay, pm, machine)
    src = np.zeros(n + 2 * w, dtype=lay.dtype)
    src[w:n + w] = data
    dst = np.full(n + 2 * w, 0xAB, dtype=lay.dtype)
    guard = dst[:w].copy()
    for ops in build_block_ops(plan):
        phase = ops.phase
        bsrc, bdst = walk_counter(plan.counter_digits, phase.ranges)
        for base_src, base_dst in zip(bsrc.tolist(), bdst.tolist()):
            regs = {}
            for ld in ops.loads:
                v = src[w + base_src + ld.offset: w + base_src + ld.offset + w].copy()
                if ld.spread is not None:
                    v = v[list(ld.spread)]
                regs[ld.slot] = v
            steps = sorted({r.step for r in ops.shuffles})
            for s in steps:
                nxt = dict(regs)
                for rec in ops.shuffles:
                    if rec.step != s:
                        continue
                    if rec.in_hi is None:
                        nxt[rec.out_slot] = regs[rec.in_lo][list(rec.vec)]
                    else:
                        ab = np.concatenate((regs[rec.in_lo], regs[rec.in_hi]))
                        nxt[rec.out_slot] = ab[list(rec.vec)]
                regs = nxt
            for st in ops.stores:
                at = w + base_dst + st.offset
                if st.mode == "plain":
                    dst[at:at + w] = regs[st.slot]
                elif st.mode == "borrow":
                    ab = np.concatenate((regs[st.slot], regs[st.borrow_slot]))
                    dst[at:at + w] = ab[list(st.vec)]
                else:
                    ab = np.concatenate((regs[st.slot], dst[at:at + w]))
                    dst[at:at + w] = ab[list(st.vec)]
    assert np.array_equal(dst[:w], guard) and np.array_equal(dst[n + w:], guard), "guard"
    return dst[w:n + w]


def w_of(bits=128, ew=4):
    return MachineConfig(bit_width=bits, elem_width=ew)


def main_ops(dims, sigma, bits=128, ew=4):
    """Block records of the untruncated phase."""
    plan = select_block(TensorLayout(dims, ew), PermutationMap(sigma), w_of(bits, ew))
    ops = build_block_ops(plan)[0]
    assert ops.phase.name == "main"
    return ops


def step_pairs(ops):
    """Step -> register pairs (in_lo, in_hi) in emission order."""
    pairs = {}
    for rec in ops.shuffles:
        pairs.setdefault(rec.step, {})[(rec.in_lo, rec.in_hi)] = None
    return {k: list(v) for k, v in pairs.items()}


class TestBlockOps:
    def test_one_block_ops_per_phase_in_order(self):
        most = 0
        for dims, sigma, bits in (
            ((3, 3, 5), (2, 1, 0), 256),
            ((5, 6, 7, 9), (2, 0, 3, 1), 128),
            ((2,) * 4, (3, 2, 1, 0), 128),
        ):
            plan = select_block(TensorLayout(dims), PermutationMap(sigma), w_of(bits))
            assert [o.phase for o in build_block_ops(plan)] == list(plan.phases())
            most = max(most, len(plan.phases()))
        assert most >= 2


class TestButterflySchedule:
    def test_two_step_worst_case(self):
        # w=4, disjoint trailing pairs: two steps at distances 1 then 2
        ops = main_ops((2,) * 4, (3, 2, 1, 0))
        assert step_pairs(ops) == {0: [(0, 1), (2, 3)], 1: [(0, 2), (1, 3)]}
        # both outputs of every pair, low output first
        assert [(r.step, r.out_slot) for r in ops.shuffles] == [
            (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 1), (1, 3)
        ]

    def test_sigma0_common_single_step(self):
        ops = main_ops((2,) * 4, (0, 3, 1, 2))
        assert step_pairs(ops) == {0: [(0, 1)]}

    def test_rows_equal_cols_empty(self):
        assert main_ops((2,) * 4, (0, 1, 3, 2)).shuffles == ()


class TestShuffleIndices:
    def test_identity_no_vectors(self):
        lay, pm = merge_dimensions(TensorLayout((4, 4, 4)), PermutationMap((0, 1, 2)))
        plan = select_block(lay, pm, w_of())
        (ops,) = build_block_ops(plan)
        assert ops.shuffles == ()
        assert all(ld.spread is None for ld in ops.loads)
        assert all(st.vec is None for st in ops.stores)

    def test_pair_symmetry_non_composite(self):
        # a non-composite step swaps or zips.  Swap partners follow
        # sel_hi[l] = sel_lo[l ^ m] ^ (w | m), where m is the exchanged lane
        # bit: the first lane taken from the partner.  A zip's low output
        # is [a0,b0,a1,b1] per 4-lane group and its high output reads two
        # lanes higher, sel_hi[l] = sel_lo[l] + 2
        rng = np.random.default_rng(20)
        forms = Counter()
        for _ in range(20):
            rank = int(rng.integers(4, 9))
            sigma = tuple(int(x) for x in rng.permutation(rank))
            ops = main_ops((2,) * rank, sigma, bits=256)
            w = 8
            last = max((r.step for r in ops.shuffles), default=-1)
            vecs = {}
            for r in ops.shuffles:
                assert r.in_hi is not None  # no padding, so no self-shuffles
                vecs.setdefault((r.step, r.in_lo), {})[r.out_slot == r.in_lo] = r.vec
            for (step, _), pair in vecs.items():
                if step == last:
                    continue
                lo, hi = pair[True], pair[False]
                if lo[:4] == (0, w, 1, w + 1):
                    assert all(hi[l] == lo[l] + 2 for l in range(w))
                    forms["zip"] += 1
                else:
                    mask = next(l for l in range(w) if lo[l] >= w)
                    assert mask & (mask - 1) == 0
                    assert all(hi[l] == lo[l ^ mask] ^ (w | mask) for l in range(w))
                    forms["swap"] += 1
        assert forms["zip"] and forms["swap"], forms

    def test_w4_disjoint_block_contents(self):
        # w=4 all-2 disjoint block: after both steps each register holds one
        # destination row, grouped by the old in-register indices
        lay = TensorLayout((2,) * 4)
        pm = PermutationMap((3, 2, 1, 0))
        m = w_of()
        data = np.arange(16, dtype=np.uint32)
        out = mini_execute(lay, pm, m, data)
        assert np.array_equal(out, naive_permute(data, lay, pm))

    def test_random_all2_blocks_route_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            rank = int(rng.integers(2, 9))
            lay = TensorLayout((2,) * rank)
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            m = w_of(256)  # w = 8
            data = rng.integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
            out = mini_execute(lay, pm, m, data)
            assert np.array_equal(out, naive_permute(data, lay, pm)), (lay.dims, pm.sigma)

    def test_random_general_blocks_route_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            rank = int(rng.integers(1, 5))
            dims = tuple(int(rng.integers(1, 10)) for _ in range(rank))
            if int(np.prod(dims)) > 4096:
                continue
            lay = TensorLayout(dims)
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            m = w_of(512)
            data = rng.integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
            out = mini_execute(lay, pm, m, data)
            assert np.array_equal(out, naive_permute(data, lay, pm)), (dims, pm.sigma)


def promoted_store_order(sigma, promoted):
    """Store slots in ascending destination offset, for extents of 2, when
    register-number bit k carries source dim ``promoted[k]``."""
    stride = {dim: 1 << j for j, dim in enumerate(sigma)}
    offsets = [sum(stride[dim] for k, dim in enumerate(promoted) if slot >> k & 1)
               for slot in range(1 << len(promoted))]
    return sorted(range(len(offsets)), key=offsets.__getitem__)


class TestRegisterRename:
    # stores are emitted in destination-offset order, so the store-side
    # register numbering absorbs the order of the promoted dims.  Lane bit
    # p of a loaded register carries dim p; the steps promote lane bits
    # innermost first, except that at 4-byte elements, where lane bits 0
    # and 1 both retire, the zip promotes bit 1 before bit 0
    def test_swapped_pair(self):
        # destination order of the two promoted dims is swapped: the 4-byte
        # zip promotes them in destination order, the 8-byte swaps do not
        sigma = (3, 2, 1, 0)
        ops = main_ops((2,) * 4, sigma)
        assert [st.slot for st in ops.stores] == promoted_store_order(sigma, (1, 0))
        ops = main_ops((2,) * 4, sigma, bits=256, ew=8)
        assert [st.slot for st in ops.stores] == promoted_store_order(sigma, (0, 1))
        assert promoted_store_order(sigma, (0, 1)) == [0, 2, 1, 3]

    def test_identity_order(self):
        sigma = (3, 2, 0, 1)
        ops = main_ops((2,) * 4, sigma)
        assert [st.slot for st in ops.stores] == promoted_store_order(sigma, (1, 0))
        ops = main_ops((2,) * 4, sigma, bits=256, ew=8)
        assert [st.slot for st in ops.stores] == promoted_store_order(sigma, (0, 1))
        assert promoted_store_order(sigma, (0, 1)) == [0, 1, 2, 3]

    def test_reversed_triple_is_bit_reversal(self):
        # the swaps at 8 bytes number the stores in bit-reversed order; at 4
        # bytes the zip trades the places of register bits 0 and 1
        sigma = (5, 4, 3, 2, 1, 0)
        ops = main_ops((2,) * 6, sigma, bits=512, ew=8)
        assert [st.slot for st in ops.stores] == [0, 4, 2, 6, 1, 5, 3, 7]
        assert promoted_store_order(sigma, (0, 1, 2)) == [0, 4, 2, 6, 1, 5, 3, 7]
        ops = main_ops((2,) * 6, sigma, bits=256)
        assert [st.slot for st in ops.stores] == promoted_store_order(sigma, (1, 0, 2))


class TestZipStep:
    def test_plans_retiring_lane_bits_0_and_1_zip_then_swap(self):
        # a 4-byte plan whose lane bits 0 and 1 both retire (neither is a
        # common bit) zips them, [a0,b0,a1,b1] and [a2,b2,a3,b3] per 4-lane
        # group, then swaps lane bit 1, [a0,a1,b0,b1] and [a2,a3,b2,b3],
        # unless that is the final, composite step; every other
        # non-composite step, and every 8-byte one, is a swap
        from jobsets import campaign_jobs, general_jobs, roadmap_jobs
        from vecperm import shuffle

        def groups(w, *lanes):
            # a selector repeating per 4-lane group; lane + w reads register b
            return tuple(base + lane for base in range(0, w, 4) for lane in lanes)

        seen = Counter()
        for lay, pm, m in roadmap_jobs() + campaign_jobs() + general_jobs():
            plan = select_block(*merge_dimensions(lay, pm), m)
            geo = shuffle._Geometry(plan)
            w = plan.machine.lanes
            rows = [(e.dim, b) for e in plan.row_entries for b in range(e.bits)]
            cols = {(e.dim, b) for e in plan.col_entries for b in range(e.bits)}
            sels = [(outs[0][3], outs[1][3]) for outs in geo.steps[:-1]]
            zipped = [k for k, sel in enumerate(sels) if w >= 4 and sel == (
                groups(w, 0, w, 1, w + 1), groups(w, 2, w + 2, 3, w + 3))]
            if m.elem_width == 4 and len(rows) >= 2 and not {rows[0], rows[1]} & cols:
                (k,) = zipped
                if k + 1 < len(sels):
                    assert sels[k + 1] == (groups(w, 0, 1, w, w + 1),
                                           groups(w, 2, 3, w + 2, w + 3))
                seen[m.elem_width, "zip"] += 1
            else:
                assert zipped == []
                seen[m.elem_width, "swap"] += 1
        assert seen[4, "zip"] and seen[4, "swap"] and seen[8, "swap"], seen

class TestPrunePadded:
    def test_no_padding_unchanged(self):
        # three steps over eight registers, every output kept and two-source
        ops = main_ops((2,) * 6, (5, 4, 3, 2, 1, 0), bits=256)
        assert len(ops.shuffles) == 3 * 8
        assert all(r.in_hi is not None for r in ops.shuffles)

    def test_five_of_eight_registers(self):
        # destination trailing product 5 padded to 8: three of the plan's 8
        # register slots never materialize, their shuffles drop or fold to
        # self-shuffles
        plan = select_block(TensorLayout((8, 5)), PermutationMap((1, 0)), w_of(256))
        ops = build_block_ops(plan)[0]
        assert plan.num_registers == 8
        slots = [r.slot for r in ops.loads + ops.stores] + [r.out_slot for r in ops.shuffles]
        assert set(slots) <= set(range(8))
        assert len(ops.shuffles) < 3 * 8
        folded = [r for r in ops.shuffles if r.in_hi is None]
        assert folded and all(max(r.vec) < 8 for r in folded)
        assert len(ops.loads) == 5

    def test_final_store_lane_masks(self):
        # destination rows of extent 3 padded to 4 at w=4: every store
        # carries exactly 3 valid lanes
        lay = TensorLayout((4, 3))
        pm = PermutationMap((1, 0))
        plan = select_block(lay, pm, w_of())
        (ops,) = build_block_ops(plan)
        assert all(st.valid_count == 3 for st in ops.stores)


class TestRoutingOracle:
    def test_corrupted_selector_is_a_routing_failure(self, monkeypatch):
        # lane 0 of the final step's low selector reads lane 1's source
        # instead, so element 0, valid in every phase, misses its lane:
        # the check that ends each phase must raise, here on a padded
        # two-phase job
        from vecperm import shuffle

        real = shuffle._composite_selectors

        def corrupted(*args):
            lo, hi = real(*args)
            assert lo[1] != lo[0]
            return [lo[1]] + lo[1:], hi

        # a routing cached before would hide the corrupted selector, and the
        # corrupted one must not outlive this test
        shuffle._routing.cache_clear()
        monkeypatch.setattr(shuffle, "_composite_selectors", corrupted)
        try:
            plan = select_block(TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0)), w_of(256))
            assert len(plan.phases()) == 2 and plan.shuffle_steps
            with pytest.raises(AssertionError, match="routing failure at slot 0 lane 0"):
                build_block_ops(plan)
        finally:
            shuffle._routing.cache_clear()


class TestRoutingCache:
    def test_plans_of_one_structure_share_a_read_only_routing(self):
        # 40x24 and 33x17 transposes at 16 lanes both carry dim 0's low 4
        # bits in the lanes and dim 1's in the register numbers: one
        # routing, while offsets and padding stay the plan's own
        from vecperm import shuffle

        a, b = (shuffle._Geometry(select_block(TensorLayout(dims), PermutationMap((1, 0)),
                                               w_of(512)))
                for dims in ((40, 24), (33, 17)))
        assert a.routing is b.routing
        assert a.load_offsets[1] == 40 and b.load_offsets[1] == 33
        assert a.steps is a.routing.steps and isinstance(a.steps, tuple)
        for table in (a.traj, a.final, a.misrouted, *(val for _, val in a.routing.dim_values)):
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    def test_cleared_cache_rebuilds_an_equal_routing(self):
        from vecperm import shuffle

        plan = select_block(TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0)), w_of(256))
        old = shuffle._Geometry(plan).routing
        shuffle._routing.cache_clear()
        new = shuffle._Geometry(plan).routing
        assert new is not old
        for name in ("traj", "final", "misrouted"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name
        assert (new.steps, new.init_regs, new.promote, new.order) == (
            old.steps, old.init_regs, old.promote, old.order)
        assert [(d, v.tolist()) for d, v in new.dim_values] == [
            (d, v.tolist()) for d, v in old.dim_values]

    def test_cache_is_bounded(self):
        # one more structure than the bound (dim 0's low 4 bits in the
        # lanes, dim d's in the register numbers, d = 1, 2, ...) evicts the
        # least recently used one
        from vecperm import shuffle

        bound = shuffle.ROUTING_CACHE_SIZE
        assert shuffle._routing.cache_info().maxsize == bound
        lanes = tuple((0, b) for b in range(4))
        keys = [(16, 4, True, 4, lanes, tuple((d, b) for b in range(4)))
                for d in range(1, bound + 2)]
        shuffle._routing.cache_clear()
        try:
            for key in keys:
                shuffle._routing(*key)
            assert shuffle._routing.cache_info().currsize == bound
            shuffle._routing(*keys[-1])
            assert shuffle._routing.cache_info().hits == 1
            shuffle._routing(*keys[0])
            assert shuffle._routing.cache_info().misses == bound + 2
        finally:
            shuffle._routing.cache_clear()


class TestPlanIO:
    def test_load_bases_3x7(self):
        # one register per column value of the 3-extent dim, covering a
        # 7-wide row run: load bases 0, 7, 14
        ops = main_ops((7, 3), (1, 0), bits=256)
        assert [ld.offset for ld in ops.loads] == [0, 7, 14]
        assert all(not ld.aligned for ld in ops.loads[1:])

    def test_spread_6_2_to_3_1_3_1(self):
        # two row dims 2x3 pad to 2x4 in a w=8 register: six contiguous
        # elements spread to three-valid-one-idle twice
        ops = main_ops((3, 2, 8), (2, 0, 1), bits=256)
        spread = ops.loads[0].spread
        assert spread is not None
        assert spread[0:3] == (0, 1, 2)
        assert spread[4:7] == (3, 4, 5)

    def test_full_multiples_all_aligned_plain(self):
        ops = main_ops((16, 16), (1, 0), bits=256)
        assert all(ld.aligned and ld.spread is None for ld in ops.loads)
        assert all(st.aligned and st.mode == "plain" and st.vec is None for st in ops.stores)
        assert not any(st.mode == "reserve" for st in ops.stores)

    def test_overhang_store_modes_d5_w8(self):
        # five valid lanes per store: all but the last borrow the next
        # register's leading elements; the last reserves memory content
        ops = main_ops((8, 5), (1, 0), bits=256)
        assert [st.mode for st in ops.stores] == ["borrow"] * (len(ops.stores) - 1) + ["reserve"]
        assert ops.stores[0].vec == (0, 1, 2, 3, 4, 8, 9, 10)
        assert ops.stores[-1].vec == (0, 1, 2, 3, 4, 13, 14, 15)
        assert ops.stores[-1].mode == "reserve"

    def test_narrow_valid_reserves_everywhere(self):
        # neighbors too narrow to lend a full tail: every store runs the
        # reserve-and-reorganize path
        ops = main_ops((3, 5), (1, 0), bits=512)  # w = 16
        assert len(ops.stores) > 0
        assert all(st.mode == "reserve" for st in ops.stores)


class TestElemWidth8:
    def test_round_trip_w4(self):
        rng = np.random.default_rng(23)
        lay = TensorLayout((5, 3, 4), 8)
        pm = PermutationMap((2, 0, 1))
        m = w_of(256, 8)  # w = 4
        data = rng.integers(0, 2**63, size=lay.num_elements, dtype=np.uint64)
        out = mini_execute(lay, pm, m, data)
        assert np.array_equal(out, naive_permute(data, lay, pm))


def self_shuffles(loop):
    return [op for op in loop.body if isinstance(op, VShuf) and op.a == op.b]


class TestLoadSelector:
    def test_padded_reorder_takes_one_self_shuffle(self):
        # NumPy (2,3) transposed at w=8: no exchange step, rows of 3 padded
        # to 4 and lanes reordered into destination order, all by the
        # load's one selector
        lay, pm = TensorLayout((3, 2)), from_numpy_convention((1, 0))
        m = MachineConfig("abstract", 256, 4, 32)
        (ops,) = build_block_ops(select_block(*merge_dimensions(lay, pm), m))
        assert ops.shuffles == () and len(ops.loads) == 1
        assert ops.loads[0].spread[:6] == (0, 3, 1, 4, 2, 5)
        ir = build_program(lay, pm, m)
        (loop,) = ir.loops
        assert len(self_shuffles(loop)) == 1
        data = np.arange(6, dtype=np.uint32)
        out, counters = execute(ir, data)
        assert np.array_equal(out, naive_permute(data, lay, pm))
        assert counters["vshuf"] == 2  # the load's selector and the reserve store's

    def test_rank2_extents_1_to_9_match_reference(self):
        # every rank-2 shape with extents 1-9, both maps, on every machine
        # of the grid; a plan without exchange steps gives each load at
        # most one self-shuffle
        rng = np.random.default_rng(24)
        cases = folded = 0
        for bits, elem in MACHINE_GRID:
            m = MachineConfig("abstract", bits, elem, 32)
            for a in range(1, 10):
                for b in range(1, 10):
                    lay = TensorLayout((a, b), elem)
                    data = rng.integers(0, np.iinfo(lay.dtype).max, size=a * b,
                                        dtype=lay.dtype, endpoint=True)
                    for sigma in ((0, 1), (1, 0)):
                        pm = PermutationMap(sigma)
                        ir = build_program(lay, pm, m)
                        out, _ = execute(ir, data)
                        assert np.array_equal(out, naive_permute(data, lay, pm)), (a, b, sigma, m)
                        if ir.metadata["shuffle_steps"] == 0:
                            for loop in ir.loops:
                                loads = [op for op in loop.body
                                         if isinstance(op, VLoad) and op.space == "src"]
                                assert len(self_shuffles(loop)) <= len(loads), (a, b, sigma, m)
                                folded += bool(self_shuffles(loop))
                        cases += 1
        assert cases == 810 and folded > 0
