import re
from dataclasses import replace

import numpy as np
import pytest

from vecperm.core import (
    LayoutError,
    PermutationMap,
    TensorLayout,
    from_numpy_convention,
    naive_permute,
)
from vecperm.ir import (
    Addr,
    AllocationError,
    IRProgram,
    Loop,
    VLoad,
    VShuf,
    VStore,
    build_ir,
    build_program,
    dump_ir,
    optimize,
    parse_ir,
)
from vecperm.machine import MachineConfig
from vecperm.planner import merge_dimensions, select_block, walk_counter
from vecperm.vm import VMError, audit_complexity, execute


def m_of(bits=512, ew=4, regs=32):
    return MachineConfig(bit_width=bits, elem_width=ew, num_vector_registers=regs)


def count_ops(loop, kind):
    return sum(isinstance(op, kind) for op in loop.body)


def store_addresses(ir):
    """Destination address of every executed store: trip t of a loop runs
    the block at counter step t of its sub-range."""
    out = []
    for loop in ir.loops:
        assert isinstance(loop.body[0], Addr) and count_ops(loop, Addr) == 1
        _, _, dst = walk_counter(loop.digits, loop.ranges, np.arange(loop.trips))
        offsets = [op.offset for op in loop.body if isinstance(op, VStore)]
        out.extend(int(base) + off for base in dst for off in offsets)
    return out


class TestBuildIR:
    def test_identity_is_pure_copy(self):
        ir = build_program(TensorLayout((4, 8, 2)), PermutationMap((0, 1, 2)), m_of())
        for loop in ir.loops:
            assert count_ops(loop, VShuf) == 0
        data = np.arange(64, dtype=np.uint32)
        out, counters = execute(ir, data)
        assert np.array_equal(out, data)
        assert counters["vshuf"] == 0 and "vselfshuf" not in counters

    def test_w4_disjoint_op_counts(self):
        # w=4, all-2, disjoint: 4 loads, 2 steps x 4 shuffles, 4 stores
        lay = TensorLayout((2,) * 4)
        pm = PermutationMap((3, 2, 1, 0))
        plan = select_block(lay, pm, m_of(128))
        ir = build_ir(plan)
        (loop,) = ir.loops
        assert count_ops(loop, VLoad) == 4
        assert count_ops(loop, VShuf) == 8
        assert count_ops(loop, VStore) == 4

    def test_one_geometry_per_program(self, monkeypatch):
        # the block geometry depends only on the plan, so a two-phase
        # program builds it once, not once per phase
        from vecperm import shuffle

        built = []

        class Counted(shuffle._Geometry):
            def __init__(self, plan):
                built.append(plan)
                super().__init__(plan)

        monkeypatch.setattr(shuffle, "_Geometry", Counted)
        ir = build_program(TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0)), m_of(256))
        assert len({loop.name for loop in ir.loops}) == 2
        assert len(built) == 1

    def test_pow2_shape_vs_oracle(self):
        rng = np.random.default_rng(30)
        lay = TensorLayout((4, 4, 8, 8, 4, 4))
        for _ in range(5):
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(6)))
            ir = build_program(lay, pm, m_of())
            data = rng.integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
            out, _ = execute(ir, data)
            assert np.array_equal(out, naive_permute(data, lay, pm))


class TestOptimize:
    def test_semantics_preserved_random(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            rank = int(rng.integers(1, 7))
            dims = tuple(int(rng.integers(1, 8)) for _ in range(rank))
            n = int(np.prod(dims))
            if n > 4096:
                continue
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            lay = TensorLayout(dims)
            l2, p2 = merge_dimensions(lay, pm)
            plan = select_block(l2, p2, m_of())
            raw = build_ir(plan)
            opt = optimize(raw)
            data = rng.integers(0, 2**32 - 1, size=n, dtype=np.uint32)
            o1, _ = execute(raw, data)
            o2, _ = execute(opt, data)
            assert np.array_equal(o1, o2)

    def test_store_multiset_preserved_by_unrolling(self):
        from collections import Counter

        lay = TensorLayout((2,) * 8)
        pm = PermutationMap((7, 6, 5, 4, 3, 2, 1, 0))
        l2, p2 = merge_dimensions(lay, pm)
        plan = select_block(l2, p2, m_of(128))
        raw = build_ir(plan)
        opt = optimize(raw)
        # stores of many trips, so the multisets below span more than one block
        assert any(l.trips > 1 for l in opt.loops)
        data = np.arange(256, dtype=np.uint32)
        o1, c1 = execute(raw, data)
        o2, c2 = execute(opt, data)
        assert np.array_equal(o1, o2)
        a1, a2 = store_addresses(raw), store_addresses(opt)
        # one address per executed store, so equal multisets are not vacuous
        assert len(a1) == c1["vstore"] > 0
        assert len(a2) == c2["vstore"] > 0
        assert Counter(a1) == Counter(a2)

    def test_register_budget_w16_four_steps(self):
        # square 16-register block with 4 exchange steps: 16 data + 8 index
        # tables + 2 scratch = 26 registers at most
        lay = TensorLayout((2,) * 8)
        pm = PermutationMap((7, 6, 5, 4, 3, 2, 1, 0))
        ir = build_program(lay, pm, m_of(512))
        assert ir.metadata["index_tables"] == 8
        assert ir.metadata["total_registers"] <= 26

    def test_unroll_factor_low_pressure(self):
        # map (2,1,0,3) on shape (64,32,32,4): few registers per iteration,
        # yet the optimizer keeps one block per trip; each optimized body
        # holds the same multiset of op kinds as its raw body, so the VM
        # counters are equal
        from collections import Counter

        def kinds(loop):
            return Counter((type(op).__name__, getattr(op, "space", None)) for op in loop.body)

        lay = TensorLayout((4, 32, 32, 64))
        pm = from_numpy_convention((2, 1, 0, 3))
        l2, p2 = merge_dimensions(lay, pm)
        raw = build_ir(select_block(l2, p2, m_of()))
        ir = optimize(raw)
        assert len(ir.loops) == len(raw.loops) and any(l.trips > 1 for l in ir.loops)
        for lo, lr in zip(ir.loops, raw.loops):
            assert lo.unroll == 1 and lo.trips == lr.trips
            assert kinds(lo) == kinds(lr)
        data = np.arange(lay.num_elements, dtype=np.uint32)
        assert execute(ir, data)[1] == execute(raw, data)[1]

    def test_unrolled_equals_oracle(self):
        rng = np.random.default_rng(32)
        lay = TensorLayout((4, 32, 32, 64))
        pm = from_numpy_convention((2, 1, 0, 3))
        ir = build_program(lay, pm, m_of())
        data = rng.integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
        out, _ = execute(ir, data)
        assert np.array_equal(out, naive_permute(data, lay, pm))

    def test_zero_shuffle_reorder_noop(self):
        ir = build_program(TensorLayout((64,)), PermutationMap((0,)), m_of())
        data = np.arange(64, dtype=np.uint32)
        out, counters = execute(ir, data)
        assert np.array_equal(out, data)
        assert counters["vshuf"] == 0

    def test_allocated_register_ids_within_budget(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            rank = int(rng.integers(1, 7))
            dims = tuple(int(rng.integers(1, 8)) for _ in range(rank))
            if int(np.prod(dims)) > 4096:
                continue
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            machine = m_of(int(rng.choice([128, 256, 512])))
            ir = build_program(TensorLayout(dims), pm, machine)
            for loop in ir.loops:
                for op in loop.body:
                    for r in [getattr(op, f) for f in ("dst", "src", "a", "b") if hasattr(op, f)]:
                        assert r < machine.num_vector_registers

    def test_num_vregs_is_physical_count(self):
        # 1024^2 transpose at w=16: 18 data registers after allocation
        ir = build_program(TensorLayout((1024, 1024)), PermutationMap((1, 0)), m_of())
        assert ir.num_vregs == 18
        assert "\nvregs 18\n" in dump_ir(ir)

    def test_vm_enforces_register_budget(self):
        # 4 pinned tables on 32 registers leave r0..r27; renaming r5 to r28
        # keeps the program's meaning but breaks the budget
        ir = build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128))
        assert ir.metadata["loop_stats"][0]["tables"] == 4
        data = np.arange(16, dtype=np.uint32)
        (loop,) = ir.loops
        body = tuple(
            replace(op, **{f: 28 for f in ("dst", "src", "a", "b") if getattr(op, f, None) == 5})
            for op in loop.body
        )
        assert body != loop.body
        over = replace(ir, loops=(replace(loop, body=body),))
        with pytest.raises(VMError, match="r28"):
            execute(over, data)
        # without optimize's loop stats (raw programs) there is no budget to check
        out, _ = execute(replace(over, metadata={}), data)
        assert np.array_equal(out, naive_permute(data, ir.layout, ir.pmap))

    def test_allocation_error_reports_demand(self):
        lay = TensorLayout((2,) * 8)
        pm = PermutationMap((7, 6, 5, 4, 3, 2, 1, 0))
        with pytest.raises(AllocationError) as exc:
            build_program(lay, pm, m_of(512, regs=8))
        assert "registers" in str(exc.value)


class TestVM:
    def test_determinism(self):
        rng = np.random.default_rng(33)
        lay = TensorLayout((5, 7, 3))
        pm = PermutationMap((2, 0, 1))
        ir = build_program(lay, pm, m_of(256))
        data = rng.integers(0, 2**32 - 1, size=105, dtype=np.uint32)
        o1, c1 = execute(ir, data)
        o2, c2 = execute(ir, data)
        assert np.array_equal(o1, o2) and c1 == c2

    def test_input_size_mismatch(self):
        ir = build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128))
        with pytest.raises(Exception):
            execute(ir, np.zeros(7, dtype=np.uint32))

    def test_read_before_write_detected(self):
        ir = build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128))
        loop = ir.loops[0]
        bad = Loop(
            loop.name, loop.digits, loop.ranges, loop.trips, loop.unroll,
            (Addr(), VStore(5, 0, False)), 1,
        )
        broken = IRProgram(ir.machine, ir.layout, ir.pmap, ir.constants, (bad,), ir.num_vregs)
        with pytest.raises(VMError):
            execute(broken, np.zeros(16, dtype=np.uint32))

    def test_unresolved_table_detected(self):
        ir = build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128))
        loop = ir.loops[0]
        bad_body = (Addr(), VLoad(0, 0, False, "src"), VShuf(0, 0, 99, 1))
        bad = Loop(loop.name, loop.digits, loop.ranges, loop.trips, loop.unroll, bad_body, 3)
        broken = IRProgram(ir.machine, ir.layout, ir.pmap, ir.constants, (bad,), ir.num_vregs)
        with pytest.raises(VMError):
            execute(broken, np.zeros(16, dtype=np.uint32))

    def test_out_of_guard_band_detected(self):
        ir = build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128))
        loop = ir.loops[0]
        bad_body = (Addr(), VLoad(0, 400, False, "src"))
        bad = Loop(loop.name, loop.digits, loop.ranges, loop.trips, loop.unroll, bad_body, 2)
        broken = IRProgram(ir.machine, ir.layout, ir.pmap, ir.constants, (bad,), ir.num_vregs)
        with pytest.raises(VMError):
            execute(broken, np.zeros(16, dtype=np.uint32))

    def _edited(self, edit):
        """Unoptimized 4x4 transpose at w=4 with its store section edited:
        stores write offsets 0, 4, 8, 12 of one block."""
        lay, pm = TensorLayout((4, 4)), PermutationMap((1, 0))
        ir = build_ir(select_block(*merge_dimensions(lay, pm), m_of(128)))
        (loop,) = ir.loops
        body = loop.body[: loop.store_start] + edit(loop.body[loop.store_start:])
        broken = replace(ir, loops=(replace(loop, body=body),))
        return lambda: execute(broken, np.arange(16, dtype=np.uint32))

    def test_load_before_data_detected(self):
        # the kernel contract gives slack only past the data: a load one
        # element before the buffer fails even though no lane of it is stored
        run = self._edited(lambda st: (VLoad(12, -1, False, "src"),) + st)
        with pytest.raises(VMError, match="load at -1"):
            run()

    def test_conflicting_writes_detected(self):
        run = self._edited(lambda st: (st[0], replace(st[1], offset=0)) + st[2:])
        with pytest.raises(VMError, match="conflicting writes"):
            run()

    def test_unwritten_destination_detected(self):
        run = self._edited(lambda st: st[:-1])
        with pytest.raises(VMError, match="never written"):
            run()

    def test_guard_write_detected(self):
        # the last store moved up one element: its top lane lands in the guard
        run = self._edited(lambda st: st[:-1] + (replace(st[-1], offset=13),))
        with pytest.raises(VMError, match="guard address 16"):
            run()

    def test_destination_lane_to_other_address_detected(self):
        # destination elements 0..3 read back and stored to 4..7
        run = self._edited(lambda st: st + (VLoad(12, 0, True, "dst"), VStore(12, 4, True)))
        with pytest.raises(VMError, match="destination-space lane"):
            run()

    def test_write_back_dropped(self):
        # the same read stored back to where it came from is a no-op
        run = self._edited(lambda st: st + (VLoad(12, 4, True, "dst"), VStore(12, 4, True)))
        out, counters = run()
        data = np.arange(16, dtype=np.uint32)
        assert np.array_equal(out, naive_permute(data, TensorLayout((4, 4)), PermutationMap((1, 0))))
        assert counters["vload_dst"] == 1 and counters["vstore"] == 5

    def test_body_starts_with_its_one_addr(self):
        # every trip runs one block, so a body's op 0 is its one ADDR op: a
        # missing, late or second one is a fault, even where the program
        # would still write the right elements (one trip, as here)
        lay, pm = TensorLayout((4, 4)), PermutationMap((1, 0))
        ir = build_ir(select_block(*merge_dimensions(lay, pm), m_of(128)))
        (loop,) = ir.loops
        assert loop.trips == 1 and isinstance(loop.body[0], Addr)
        data = np.arange(16, dtype=np.uint32)
        assert execute(ir, data)[1]["addr"] == 1
        head, rest = loop.body[:1], loop.body[1:]
        for body in (rest, rest[:2] + head + rest[2:], head + rest[:2] + head + rest[2:],
                     head + rest + head, ()):
            broken = replace(ir, loops=(replace(loop, body=body),))
            with pytest.raises(VMError, match="does not start with its one addr op"):
                execute(broken, data)

    def test_guard_bands_survive_ragged_tails(self):
        # destination rows of 5 at w=8 overhang into the guard on the final
        # store; the reserve sequence must leave the sentinels intact
        rng = np.random.default_rng(34)
        lay = TensorLayout((8, 5))
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, m_of(256))
        data = rng.integers(0, 2**32 - 1, size=40, dtype=np.uint32)
        out, _ = execute(ir, data)  # raises on guard corruption
        assert np.array_equal(out, naive_permute(data, lay, pm))


class TestAudit:
    def test_all2_exact_count(self):
        # disjoint all-2 block at w=4: per block 4 loads + 8 shuffles +
        # 4 stores moving 16 elements = (2 + log2 w) ops per w elements
        lay = TensorLayout((2,) * 6)
        pm = PermutationMap((5, 4, 3, 2, 1, 0))
        ir = build_ir(select_block(*merge_dimensions(lay, pm), m_of(128)))
        data = np.arange(64, dtype=np.uint32)
        _, counters = execute(ir, data)
        rep = audit_complexity(counters, lay, m_of(128))
        assert rep["ops_per_w_elements"] == 4.0
        assert rep["within_bound"]

    def test_identity_two_ops_per_vector(self):
        lay = TensorLayout((64,))
        ir = build_program(lay, PermutationMap((0,)), m_of(128))
        _, counters = execute(ir, np.arange(64, dtype=np.uint32))
        rep = audit_complexity(counters, lay, m_of(128))
        assert rep["ops_per_w_elements"] == 2.0

    def test_padded_bound_scales_with_utilization(self):
        # merged dim 15 padded to 16: the cap scales by 16/15
        lay = TensorLayout((15, 16))
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, m_of(512))
        data = np.arange(240, dtype=np.uint32)
        _, counters = execute(ir, data)
        util = float(ir.metadata["utilization"])
        assert util == 15 / 16
        rep = audit_complexity(counters, lay, m_of(512), utilization=util)
        assert rep["within_bound"]
        assert rep["bound"] == pytest.approx(6 * 16 / 15)


class TestTextForm:
    def test_round_trip_execution(self):
        rng = np.random.default_rng(35)
        lay = TensorLayout((5, 3, 4))
        pm = PermutationMap((2, 0, 1))
        ir = build_program(lay, pm, m_of(256))
        text = dump_ir(ir)
        back = parse_ir(text)
        assert dump_ir(back) == text
        data = rng.integers(0, 2**32 - 1, size=60, dtype=np.uint32)
        o1, c1 = execute(ir, data)
        o2, c2 = execute(back, data)
        assert np.array_equal(o1, o2) and c1 == c2

    def test_parsed_program_keeps_register_budget(self):
        # the pinned-table count survives dump -> parse, so an over-budget
        # body (r5 renamed to r28 beside 4 pinned tables) is still rejected
        ir = build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128))
        (loop,) = ir.loops
        body = tuple(
            replace(op, **{f: 28 for f in ("dst", "src", "a", "b") if getattr(op, f, None) == 5})
            for op in loop.body
        )
        back = parse_ir(dump_ir(replace(ir, loops=(replace(loop, body=body),))))
        assert back.metadata["loop_stats"] == [{"name": "main", "tables": 4}]
        with pytest.raises(VMError, match="r28"):
            execute(back, np.arange(16, dtype=np.uint32))

    def test_v1_dump_rejected(self):
        # the v1 form carried a scalar base on every addr, load and store
        # and a start on every loop, the v2 form a second shuffle op
        # (vselfshuf, one register read once); neither is read as v3
        text = dump_ir(build_program(TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0)), m_of(256)))
        assert text.startswith("vecperm-ir v3\n")
        v1 = re.sub(r"^(  (?:addr|vload v\d+|vstore v\d+))", r"\1 s0", text, flags=re.M)
        v1 = v1.replace(" trips ", " start 0 trips ").replace("vecperm-ir v3", "vecperm-ir v1")
        assert "\n  addr s0\n" in v1 and " start 0 trips " in v1
        v2, n = re.subn(r"^  vshuf (v\d+) \1 ", r"  vselfshuf \1 ", text, flags=re.M)
        assert n > 0
        for old in (v1, v2.replace("vecperm-ir v3", "vecperm-ir v2")):
            with pytest.raises(LayoutError, match="not a vecperm IR dump"):
                parse_ir(old)
        with pytest.raises(LayoutError, match=r"cannot parse IR line: +vselfshuf v\d+ c\d+ v\d+"):
            parse_ir(v2)

    def test_malformed_op_line_is_coded(self):
        # a v1 load line (scalar base token) under a v3 header
        text = dump_ir(build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128)))
        v1, n = re.subn(r"^(  vload v\d+) src ", r"\1 s0 src ", text, count=1, flags=re.M)
        assert n == 1
        with pytest.raises(LayoutError, match=r"cannot parse IR line: +vload v\d+ s0 src "):
            parse_ir(v1)

    def test_loop_line_without_stores_is_coded(self):
        text = dump_ir(build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128)))
        # without the keyword, and without the keyword and its value
        for pattern in (r" stores(?= \d+)", r" stores \d+"):
            broken, n = re.subn(pattern, "", text)
            assert n == 1
            with pytest.raises(LayoutError, match="cannot parse IR line: loop main "):
                parse_ir(broken)

    def test_unterminated_loop_is_coded(self):
        text = dump_ir(build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128)))
        assert text.endswith("endloop\n") and text.count("endloop") == 1
        with pytest.raises(LayoutError, match="IR loop main has no endloop"):
            parse_ir(text[: -len("endloop\n")])

    def test_golden_dump_stable(self, tmp_path):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "bit4x4.ir"
        lay = TensorLayout((2,) * 4)
        pm = PermutationMap((3, 2, 1, 0))
        plan = select_block(lay, pm, m_of(128))
        text = dump_ir(build_ir(plan))
        assert text == golden.read_text()

    def test_golden_padded_dump_stable(self):
        # two phases with spread loads, self-shuffles, borrow and reserve
        # stores, through the optimizer
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "pad5x3x3.ir"
        ir = build_program(TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0)), m_of(256))
        assert dump_ir(ir) == golden.read_text()


class TestBenchmarkTrace:
    def test_spans_resolve_and_record_each_phase(self):
        # the benchmark's tracer wraps pipeline names by module attribute;
        # build_ir must reach build_block_ops through vecperm.ir, once per
        # plan, and get one BlockOps per phase back
        import importlib.util
        import pathlib

        import vecperm.ir

        path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        lay, pm = TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0))
        phases = select_block(*merge_dimensions(lay, pm), m_of(256)).phases()
        assert len(phases) == 2
        tracer = spans.Tracer()
        tracer.install()
        try:
            ir = vecperm.ir.build_program(lay, pm, m_of(256))
        finally:
            tracer.uninstall()
        names = [s[0] for s in tracer.spans]
        assert names.count("build_block_ops") == 1
        assert {loop.name for loop in ir.loops} == {p.name for p in phases}
        assert names.count("build_program") == 1
        assert vecperm.ir.build_block_ops is vecperm.shuffle.build_block_ops
