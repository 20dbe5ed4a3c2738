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
        # partner selectors follow sel_hi[l] = sel_lo[l ^ m] ^ (w | m), where
        # m is the exchanged lane bit: the first lane taken from the partner
        rng = np.random.default_rng(20)
        checked = 0
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
                mask = next(l for l in range(w) if lo[l] >= w)
                assert mask & (mask - 1) == 0
                assert all(hi[l] == lo[l ^ mask] ^ (w | mask) for l in range(w))
                checked += 1
        assert checked

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


class TestRegisterRename:
    # stores are emitted in destination-offset order, so the store-side
    # register numbering absorbs the order of the promoted dims
    def test_swapped_pair(self):
        # destination order of the two promoted indices is swapped, so the
        # register numbering changes 00,01,10,11 -> 00,10,01,11
        ops = main_ops((2,) * 4, (3, 2, 1, 0))
        assert [st.slot for st in ops.stores] == [0, 2, 1, 3]

    def test_identity_order(self):
        ops = main_ops((2,) * 4, (3, 2, 0, 1))
        assert [st.slot for st in ops.stores] == [0, 1, 2, 3]

    def test_reversed_triple_is_bit_reversal(self):
        ops = main_ops((2,) * 6, (5, 4, 3, 2, 1, 0), bits=256)
        assert [st.slot for st in ops.stores] == [0, 4, 2, 6, 1, 5, 3, 7]


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

        monkeypatch.setattr(shuffle, "_composite_selectors", corrupted)
        plan = select_block(TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0)), w_of(256))
        assert len(plan.phases()) == 2 and plan.shuffle_steps
        with pytest.raises(AssertionError, match="routing failure at slot 0 lane 0"):
            build_block_ops(plan)


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
