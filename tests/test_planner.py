import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from vecperm import planner
from vecperm.core import (
    LayoutError,
    PermutationMap,
    TensorLayout,
    naive_permute,
    random_elements,
)
from vecperm.emit import emit_source, verify_native
from vecperm.ir import build_program
from vecperm.machine import MachineConfig
from vecperm.planner import format_plan, merge_dimensions, select_block, walk_counter
from vecperm.vm import execute

from jobsets import (
    campaign_jobs,
    campaign_programs,
    general_jobs,
    roadmap_job,
    roadmap_jobs,
    roadmap_programs,
)


def bijection_equal(lay1, pm1, lay2, pm2, rng):
    """The two (layout, map) pairs move every element identically."""
    assert lay1.num_elements == lay2.num_elements
    data = rng.integers(0, 2**32 - 1, size=lay1.num_elements, dtype=np.uint32)
    return np.array_equal(naive_permute(data, lay1, pm1), naive_permute(data, lay2, pm2))


class TestMerge:
    def test_trailing_3_5(self):
        # d0=3, d1=5 kept adjacent and ordered by the map: fuse into 15
        lay = TensorLayout((3, 5, 7))
        pm = PermutationMap((2, 0, 1))  # dest order: d2, then the (d1 d0) pair
        ml, mp = merge_dimensions(lay, pm)
        assert ml.dims == (15, 7)
        assert mp.sigma == (1, 0)

    def test_9_8_gives_72(self):
        # d0=9, d1=8 adjacency preserved: merged dim 72, divisible by 8
        lay = TensorLayout((9, 8, 4))
        pm = PermutationMap((2, 0, 1))
        ml, mp = merge_dimensions(lay, pm)
        assert ml.dims == (72, 4)
        assert ml.dims[0] % 8 == 0

    def test_identity_collapses_to_rank1(self):
        lay = TensorLayout((3, 4, 5))
        ml, mp = merge_dimensions(lay, PermutationMap((0, 1, 2)))
        assert ml.dims == (60,)
        assert mp.sigma == (0,)

    def test_size1_dims_do_not_block_merging(self):
        lay = TensorLayout((3, 1, 5, 2))
        pm = PermutationMap((3, 0, 1, 2))  # d3 innermost in dest; (d0 1 d2) run kept
        ml, mp = merge_dimensions(lay, pm)
        assert ml.dims == (15, 2)

    def test_bijection_preserved_random(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            rank = int(rng.integers(1, 7))
            dims = tuple(int(rng.integers(1, 6)) for _ in range(rank))
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            lay = TensorLayout(dims)
            ml, mp = merge_dimensions(lay, pm)
            assert bijection_equal(lay, pm, ml, mp, rng)


def w4() -> MachineConfig:
    return MachineConfig(bit_width=128, elem_width=4)  # w = 4


def w16() -> MachineConfig:
    return MachineConfig(bit_width=512, elem_width=4)  # w = 16


def side_dims(entries):
    return tuple(e.dim for e in entries)


def common_dims(plan):
    """Dims with block bits on both sides, in destination order."""
    rows = {e.dim for e in plan.row_entries if e.bits}
    return tuple(e.dim for e in plan.col_entries if e.bits and e.dim in rows)


class TestSelectBlock:
    def test_all2_disjoint_two_steps(self):
        lay = TensorLayout((2,) * 6)
        pm = PermutationMap((5, 4, 3, 2, 1, 0))
        plan = select_block(lay, pm, w4())
        assert side_dims(plan.row_entries) == (0, 1)
        assert side_dims(plan.col_entries) == (5, 4)
        assert common_dims(plan) == ()
        assert plan.shuffle_steps == 2

    def test_all2_sigma0_common_one_step(self):
        # sigma_0 = 0: one common index, a single exchange step remains
        lay = TensorLayout((2,) * 4)
        pm = PermutationMap((0, 3, 1, 2))
        plan = select_block(lay, pm, w4())
        assert common_dims(plan) == (0,)
        assert plan.shuffle_steps == 1
        assert plan.num_registers == 2

    def test_rows_equal_cols_zero_steps(self):
        lay = TensorLayout((2,) * 4)
        pm = PermutationMap((0, 1, 3, 2))  # trailing pair fixed, outer pair swapped
        plan = select_block(lay, pm, w4())
        assert plan.shuffle_steps == 0
        assert plan.num_registers == 1

    def test_utilization_3_5_unmerged(self):
        # trailing (5,3) at w=16 without merging: 15/32
        lay = TensorLayout((3, 5, 16))
        pm = PermutationMap((2, 0, 1))
        plan = select_block(lay, pm, w16())
        assert plan.utilization == Fraction(15, 32)

    def test_utilization_3_5_merged(self):
        # same tensor after merging: dim 15 padded to 16, 15/16
        lay, pm = merge_dimensions(TensorLayout((3, 5, 16)), PermutationMap((2, 0, 1)))
        assert lay.dims == (15, 16)
        plan = select_block(lay, pm, w16())
        assert plan.utilization == Fraction(15, 16)

    def test_utilization_9_8_merged_full(self):
        # (9,8) merged to 72, divisible by w=8: no padding waste at all
        m = MachineConfig(bit_width=256, elem_width=4)  # w = 8
        lay, pm = merge_dimensions(TensorLayout((9, 8, 4)), PermutationMap((2, 0, 1)))
        assert lay.dims == (72, 4)
        plan = select_block(lay, pm, m)
        assert plan.utilization == Fraction(1)

    def test_matrix_tile_fallback_flag(self):
        m = MachineConfig(bit_width=256, elem_width=4)  # w = 8
        plan = select_block(TensorLayout((9, 5)), PermutationMap((1, 0)), m)
        assert plan.fallback_mode == "matrix-tile"
        plan2 = select_block(TensorLayout((5, 9)), PermutationMap((1, 0)), m)
        assert plan2.fallback_mode == "matrix-tile"
        plan3 = select_block(TensorLayout((5, 9)), PermutationMap((0, 1)), m)
        assert plan3.fallback_mode == "none"

    @pytest.mark.parametrize(
        "dims,sigma",
        [
            ((2, 12, 8), (2, 0, 1)),  # row chain 2 x (12 split by 4) is exact
            ((24, 8), (1, 0)),        # 24 = 3 full vectors of 8
            ((4, 4, 16), (2, 0, 1)),
            ((48, 16), (1, 0)),
        ],
    )
    def test_exact_chains_have_full_utilization(self, dims, sigma):
        # whenever both trailing chains split into whole vectors, no lane
        # is ever idle
        m = MachineConfig(bit_width=256)  # w = 8
        plan = select_block(TensorLayout(dims), PermutationMap(sigma), m)
        assert plan.utilization == Fraction(1)

    def test_elem_width_mismatch(self):
        with pytest.raises(LayoutError):
            select_block(TensorLayout((4, 4), 8), PermutationMap((1, 0)), w4())

    def test_format_plan_mentions_key_facts(self):
        plan = select_block(TensorLayout((2,) * 6), PermutationMap((5, 4, 3, 2, 1, 0)), w4())
        text = format_plan(plan)
        assert "shuffle steps: 2" in text
        assert "utilization" in text
        key = "digit strides (source/destination, walk sorted by the smaller): "
        assert key + "d3 8/4, d2 4/8\n" in text
        assert "tiled walk: none" in text
        tiled = format_plan(_roadmap_plan((1024, 1024), (1, 0), 4))
        assert "counter digits (fastest first): d1x2, d0x4, d1x32, d0x16" in tiled
        assert key + "d1 16384/16, d0 16/16384, d1 32768/32, d0 64/65536\n" in tiled
        assert "tiled walk: d1 split into tiles of 2 (32 source rows), d0 split into tiles of 4" \
            in tiled.splitlines()
        # an 8-register block keeps 4-step tiles on both digits
        tiled = format_plan(_roadmap_plan((1024, 1024), (1, 0), 8))
        assert "tiled walk: d1 split into tiles of 4 (32 source rows), d0 split into tiles of 4" \
            in tiled.splitlines()


def _blocks(plan):
    """(source, destination) base of every block, in counter order."""
    digits = plan.counter_digits
    src, dst = walk_counter(digits, tuple((0, d.extent) for d in digits))
    return list(zip(src.tolist(), dst.tolist()))


class TestEnumerateBlocks:
    def test_single_block(self):
        lay = TensorLayout((8,))
        pm = PermutationMap((0,))
        plan = select_block(lay, pm, MachineConfig(bit_width=256))
        assert _blocks(plan) == [(0, 0)]

    def test_all2_rank3_w2_offsets(self):
        # block = {i_0} on the row side, {i_2} on the column side; the outer
        # loop walks i_1, so source bases are 0,2 and dest bases 0,2
        pm = PermutationMap((2, 1, 0))
        m = MachineConfig(bit_width=128, elem_width=8)  # w = 2
        lay8 = TensorLayout((2, 2, 2), 8)
        plan = select_block(lay8, pm, m)
        assert side_dims(plan.row_entries) == (0,) and side_dims(plan.col_entries) == (2,)
        assert _blocks(plan) == [(0, 0), (2, 2)]

    def test_walk_matches_nested_loops(self):
        # digit 0 runs fastest over the sub-range, from its first block
        plan = select_block(TensorLayout((5, 6, 7, 9)), PermutationMap((2, 0, 3, 1)),
                            MachineConfig(bit_width=128))
        digits = plan.counter_digits
        assert len(digits) >= 2
        ranges = tuple((1, d.extent) for d in digits)
        want = [
            tuple(reversed(p))
            for p in itertools.product(*(range(lo, hi) for lo, hi in reversed(ranges)))
        ]
        src, dst = walk_counter(digits, ranges)
        assert len(src) == len(dst) == len(want)
        for i, p in enumerate(want):
            assert src[i] == sum(d.src_stride * x for d, x in zip(digits, p))
            assert dst[i] == sum(d.dst_stride * x for d, x in zip(digits, p))

    def test_walk_bases_match_formula_on_every_program_loop(self):
        # every loop of the ROADMAP and campaign programs: the walk's bases
        # at step t are sum(stride * position), with t unravelled digit 0
        # fastest, and a loop's trips are its sub-range's steps
        loops = 0
        for *_, ir in roadmap_programs() + campaign_programs():
            for loop in ir.loops:
                loops += 1
                sizes = tuple(hi - lo for lo, hi in loop.ranges)
                assert loop.trips == loop.steps == int(np.prod(sizes)), loop.name
                steps = np.arange(loop.trips)
                digit_steps = np.unravel_index(steps, sizes[::-1])[::-1] if sizes else ()
                pos = [lo + p for (lo, _), p in zip(loop.ranges, digit_steps)]
                src = sum((d.src_stride * p for d, p in zip(loop.digits, pos)), np.zeros_like(steps))
                dst = sum((d.dst_stride * p for d, p in zip(loop.digits, pos)), np.zeros_like(steps))
                got_src, got_dst = walk_counter(loop.digits, loop.ranges)
                assert np.array_equal(got_src, src), loop.name
                assert np.array_equal(got_dst, dst), loop.name
        assert loops > 1012

    def test_coverage_3_5_7(self):
        # valid store runs tile 0..104 exactly; the source side follows by
        # pulling the tiling through the element bijection
        assert _dest_coverage(TensorLayout((7, 5, 3)), PermutationMap((1, 2, 0))) == list(range(105))

    def test_dest_coverage_exact_random(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            rank = int(rng.integers(1, 5))
            dims = tuple(int(rng.integers(1, 8)) for _ in range(rank))
            n = int(np.prod(dims))
            if n > 3000:
                continue
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            lay = TensorLayout(dims)
            assert _dest_coverage(lay, pm) == list(range(n)), (dims, pm.sigma)


def _dest_coverage(lay, pm):
    """Sorted list of destination offsets covered by valid store lanes."""
    from vecperm.shuffle import build_block_ops

    plan = select_block(lay, pm, MachineConfig(bit_width=256))
    covered = []
    for ops in build_block_ops(plan):
        phase = ops.phase
        _, dst = walk_counter(plan.counter_digits, phase.ranges)
        for base_dst in dst.tolist():
            for st in ops.stores:
                start = base_dst + st.offset
                covered.extend(range(start, start + st.valid_count))
    return sorted(covered)


def _roadmap_plan(shape, axes, elem):
    lay, pm, m = roadmap_job(shape, axes, elem)
    return select_block(*merge_dimensions(lay, pm), m)


def _is_tiled(plan):
    return len({d.dim for d in plan.counter_digits}) < len(plan.counter_digits)


def _program_blocks(ir):
    """Sorted (source, destination) base of every block the program's loops
    visit, counted with multiplicity."""
    pairs = []
    for loop in ir.loops:
        src, dst = walk_counter(loop.digits, loop.ranges)
        pairs.extend(zip(src.tolist(), dst.tolist()))
    return sorted(pairs)


def _tiled_jobs():
    """The ROADMAP and campaign jobs whose walk ``_tile_walk`` splits."""
    jobs = roadmap_jobs() + campaign_jobs()
    return [job for job in jobs if _is_tiled(select_block(*merge_dimensions(*job[:2]), job[2]))]


def _split_walk(digits, tiles):
    """An untiled walk with the first two non-ragged digits split into
    inner tiles of ``tiles`` steps where a tile divides a longer digit;
    inner tiles first, then their outer digits, then the rest."""
    pick = [d for d in digits if not d.ragged][:2]
    split = [(d, t) for d, t in zip(pick, tiles) if t < d.extent and d.extent % t == 0]
    if len(pick) < 2 or not split:
        return digits
    inner = [replace(d, extent=t, full_extent=t) if (d, t) in split else d
             for d, t in zip(pick, tiles)]
    outer = [replace(d, extent=d.extent // t, full_extent=d.extent // t,
                     src_stride=d.src_stride * t, dst_stride=d.dst_stride * t) for d, t in split]
    return tuple(inner + outer + [d for d in digits if d not in pick])


def _untile(monkeypatch):
    monkeypatch.setattr(planner, "_tile_walk", lambda digits, registers: digits)


class TestTiledWalk:
    @pytest.mark.parametrize("shape,axes,elem,walk", [
        pytest.param((1024, 1024), (1, 0), 4, "d1x2, d0x4, d1x32, d0x16", id="1024x1024-e4"),
        pytest.param((1024, 1024), (1, 0), 8, "d1x4, d0x4, d1x32, d0x32", id="1024x1024-e8"),
        pytest.param((64, 32, 32, 4), (2, 1, 0, 3), 4, "d3x4, d1x4, d3x4, d1x2, d2x32", id="64x32x32x4-e4"),
        pytest.param((64, 32, 32, 4), (2, 1, 0, 3), 8, "d3x4, d1x4, d3x8, d1x4, d2x32", id="64x32x32x4-e8"),
        pytest.param((7, 32, 32, 3), (0, 2, 3, 1), 4, "d1x2, d0x6, d2x7", id="7x32x32x3-e4"),
        pytest.param((7, 32, 32, 3), (0, 2, 3, 1), 8, "d1x4, d0x4, d0x3, d2x7", id="7x32x32x3-e8"),
        pytest.param((256, 256, 16), (2, 1, 0), 4, "d2x2, d1x4, d2x8, d1x64", id="256x256x16-e4"),
        pytest.param((256, 256, 16), (2, 1, 0), 8, "d2x4, d0x2, d2x8, d1x256", id="256x256x16-e8"),
        pytest.param((96, 96, 96), (2, 0, 1), 4, "d1x2, d0x6, d1x288", id="96x96x96-e4"),
        pytest.param((96, 96, 96), (2, 0, 1), 8, "d1x4, d0x4, d1x288, d0x3", id="96x96x96-e8"),
        pytest.param((15, 1000, 33), (1, 2, 0), 4, "d0x2063r", id="15x1000x33-e4"),
        pytest.param((15, 1000, 33), (1, 2, 0), 8, "d1x2r, d0x4125", id="15x1000x33-e8"),
    ])
    def test_digit_order_and_splits(self, shape, axes, elem, walk):
        # digits sorted by their smaller stride, the two fastest split into
        # tiles unless ragged (r), at most a tile or not a multiple of it:
        # 2 steps (32 source rows) for the first digit of a 16-register
        # block when no ragged digit runs before them, 4 otherwise; the
        # contiguous digits of both buffers run innermost
        plan = _roadmap_plan(shape, axes, elem)
        got = ", ".join(f"d{d.dim}x{d.extent}" + "r" * d.ragged for d in plan.counter_digits)
        assert got == walk

    def test_split_digits_and_order(self):
        # 1024^2 at w=16, 16 registers: the 64-step digit that moves the
        # source by 16 rows becomes 2-step tiles (32 rows), the other 4-step
        # tiles, walked first; then the outer digits, strides times the tile
        plan = _roadmap_plan((1024, 1024), (1, 0), 4)
        got = [(d.dim, d.extent, d.src_stride, d.dst_stride, d.full_extent)
               for d in plan.counter_digits]
        assert got == [(1, 2, 16384, 16, 2), (0, 4, 16, 16384, 4),
                       (1, 32, 32768, 32, 32), (0, 16, 64, 65536, 16)]
        # 96^3 at w=16: the 6-step digit is not a multiple of 4 and stays
        # whole, between the inner tile and the outer digit of the other
        plan = _roadmap_plan((96, 96, 96), (2, 0, 1), 4)
        assert [(d.dim, d.extent) for d in plan.counter_digits] == [(1, 2), (0, 6), (1, 288)]

    def test_first_tile_within_tile_rows(self, monkeypatch):
        # over every ROADMAP, campaign and general plan whose two split
        # digits run first: the first, which moves the source by one block
        # of rows a step, tiles at most 32 source rows.  A 16-register block
        # there splits the first into 2-step tiles; every other plan (8
        # registers or fewer, or a ragged digit first) tiles both by 4 as
        # before
        untiled = []
        tile_walk = planner._tile_walk

        def spy(digits, registers):
            untiled.append(digits)
            return tile_walk(digits, registers)

        monkeypatch.setattr(planner, "_tile_walk", spy)
        changed = 0
        for lay, pm, m in roadmap_jobs() + campaign_jobs() + general_jobs():
            plan = select_block(*merge_dimensions(lay, pm), m)
            digits, regs, walk = plan.counter_digits, plan.num_registers, untiled[-1]
            runs_first = len(walk) >= 2 and not walk[0].ragged and not walk[1].ragged
            if runs_first and any(d.dim == digits[0].dim for d in digits[1:]):
                assert digits[0].extent * regs <= planner.TILE_ROWS
            assert regs <= 16
            tiles = (2, 4) if runs_first and regs == 16 else (4, 4)
            assert digits == _split_walk(walk, tiles), (lay.dims, pm.sigma, m)
            changed += digits != _split_walk(walk, (4, 4))
        # 3 ROADMAP, 18 campaign and 1 general plan change their walk
        assert changed == 22

    def test_every_block_visited_once(self, monkeypatch):
        # tiling reorders the walk: over all loops of the optimized program
        # the block bases are the untiled walk's, each exactly once
        tiled = _tiled_jobs()
        assert len(tiled) >= 200
        got = [_program_blocks(build_program(*job)) for job in tiled]
        _untile(monkeypatch)
        for job, blocks in zip(tiled, got):
            want = _program_blocks(build_program(*job))
            assert len(set(want)) == len(want)
            assert blocks == want, job

    def test_tiling_keeps_vm_counters(self, monkeypatch):
        # only the block order moves: every tiled job's program executes the
        # same per-opcode counts and output as its untiled walk (an untiled
        # plan is its own untiled walk)
        tiled = _tiled_jobs()
        data = [random_elements(np.random.default_rng(i), job[0]) for i, job in enumerate(tiled)]
        got = [execute(build_program(*job), x) for job, x in zip(tiled, data)]
        _untile(monkeypatch)
        for (lay, pm, m), x, (out, counters) in zip(tiled, data, got):
            want_out, want = execute(build_program(lay, pm, m), x)
            assert counters == want, (lay.dims, pm.sigma)
            assert np.array_equal(out, want_out)

    TILED_512 = (TensorLayout((512, 512)), PermutationMap((1, 0)),
                 MachineConfig("x86-avx", 512, 4, 32))

    def test_tiled_plan_matches_reference_on_vm(self):
        lay, pm, m = self.TILED_512
        assert _is_tiled(select_block(lay, pm, m))
        data = random_elements(np.random.default_rng(7), lay)
        out, _ = execute(build_program(lay, pm, m), data)
        assert np.array_equal(out, naive_permute(data, lay, pm))

    @pytest.mark.parametrize("target", ["x86-avx", "scalar"])
    def test_tiled_plan_native(self, target):
        lay, pm, m = self.TILED_512
        ir = build_program(lay, pm, m)
        res = verify_native(emit_source(ir, target=target), lay, pm, m, target=target, cases=2)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "pass", res
