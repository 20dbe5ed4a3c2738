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
from vecperm.emit import emit_source
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

from jobsets import campaign_programs, loop_bodies, peak_live, roadmap_jobs


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
    def test_optimize_returns_bodies_as_built(self):
        # build_ir writes each body in its final order: optimize adds the
        # register report and changes no loop, over the ROADMAP and
        # campaign programs
        jobs = roadmap_jobs() + [(lay, pm, m) for lay, pm, m, _ in campaign_programs()]
        loops = 0
        for lay, pm, m in jobs:
            raw = build_ir(select_block(*merge_dimensions(lay, pm), m))
            opt = optimize(raw)
            assert opt.loops == raw.loops, (lay.dims, pm.sigma, m)
            assert len(opt.metadata["loop_stats"]) == len(raw.loops)
            loops += len(raw.loops)
        assert loops == 1273

    def test_register_budget_w16_four_steps(self):
        # square 16-register block with 4 exchange steps: 16 data + 8 index
        # tables + 2 scratch = 26 registers at most
        lay = TensorLayout((2,) * 8)
        pm = PermutationMap((7, 6, 5, 4, 3, 2, 1, 0))
        ir = build_program(lay, pm, m_of(512))
        assert ir.metadata["index_tables"] == 8
        assert ir.metadata["total_registers"] <= 26

    def test_low_pressure_job_equals_oracle(self):
        # map (2,1,0,3) on shape (64,32,32,4): few registers per block
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

    def test_demand_fits_budget_and_is_the_kernels_peak(self):
        # the reported demand and tables fit the budget, and demand is what
        # the emitted x86 kernel needs: its body's peak of live values
        rng = np.random.default_rng(36)
        for _ in range(20):
            rank = int(rng.integers(1, 7))
            dims = tuple(int(rng.integers(1, 8)) for _ in range(rank))
            if int(np.prod(dims)) > 4096:
                continue
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
            machine = m_of(int(rng.choice([128, 256, 512])))
            ir = build_program(TensorLayout(dims), pm, machine)
            bodies = loop_bodies(emit_source(ir, target="x86-avx"))
            for stats, body in zip(ir.metadata["loop_stats"], bodies, strict=True):
                assert stats["demand"] + stats["tables"] <= machine.num_vector_registers
                assert peak_live(body) == stats["demand"], stats

    def test_transpose_1024_demand_is_18(self):
        # 1024^2 transpose at w=16: 16 data registers + 2 scratch, and the
        # emitted x86 body holds 18 values at its peak
        ir = build_program(TensorLayout((1024, 1024)), PermutationMap((1, 0)), m_of())
        assert ir.metadata["loop_stats"][0]["demand"] == 18
        assert peak_live(loop_bodies(emit_source(ir, target="x86-avx"))[0]) == 18

    def test_emitted_peak_live_equals_demand(self):
        # every loop of the ROADMAP and campaign jobs: the x86 kernel body's
        # peak of live values is the reported demand, neither above nor below
        progs = [build_program(*job) for job in roadmap_jobs()]
        progs += [ir for *_, ir in campaign_programs()]
        checked = 0
        for ir in progs:
            bodies = loop_bodies(emit_source(ir, target="x86-avx"))
            for stats, body in zip(ir.metadata["loop_stats"], bodies, strict=True):
                assert peak_live(body) == stats["demand"], (ir.layout, ir.pmap, stats)
                checked += 1
        assert checked == 1273

    def test_reported_tables_rule(self):
        # a loop reports its distinct tables, or 1 where they do not fit
        # beside its demand; no lowering reads the count
        def distinct(loop):
            return len({op.table for op in loop.body if isinstance(op, VShuf)})

        progs = campaign_programs()
        for *_, ir in progs:
            budget = ir.machine.num_vector_registers
            for loop, stats in zip(ir.loops, ir.metadata["loop_stats"], strict=True):
                n = distinct(loop)
                assert stats["tables"] == (1 if stats["demand"] + n > budget else n)
        for case, n in ((111, 15), (620, 15), (904, 16)):
            ir = progs[case][3]
            loop, stats = ir.loops[0], ir.metadata["loop_stats"][0]
            assert loop.name == stats["name"] == "main"
            assert (stats["demand"], distinct(loop), stats["tables"]) == (18, n, 1)

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
            (Addr(), VStore(5, 0, False)),
        )
        broken = IRProgram(ir.machine, ir.layout, ir.pmap, ir.constants, (bad,))
        with pytest.raises(VMError):
            execute(broken, np.zeros(16, dtype=np.uint32))

    def test_unresolved_table_detected(self):
        ir = build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128))
        loop = ir.loops[0]
        bad_body = (Addr(), VLoad(0, 0, False, "src"), VShuf(0, 0, 99, 1))
        bad = Loop(loop.name, loop.digits, loop.ranges, loop.trips, loop.unroll, bad_body)
        broken = IRProgram(ir.machine, ir.layout, ir.pmap, ir.constants, (bad,))
        with pytest.raises(VMError):
            execute(broken, np.zeros(16, dtype=np.uint32))

    def test_out_of_guard_band_detected(self):
        ir = build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128))
        loop = ir.loops[0]
        bad_body = (Addr(), VLoad(0, 400, False, "src"))
        bad = Loop(loop.name, loop.digits, loop.ranges, loop.trips, loop.unroll, bad_body)
        broken = IRProgram(ir.machine, ir.layout, ir.pmap, ir.constants, (bad,))
        with pytest.raises(VMError):
            execute(broken, np.zeros(16, dtype=np.uint32))

    def _edited(self, edit, constants=()):
        """Unoptimized 4x4 transpose at w=4 with its store section, its four
        plain stores, edited and ``constants`` added: stores write offsets
        0, 4, 8, 12 of one block."""
        lay, pm = TensorLayout((4, 4)), PermutationMap((1, 0))
        ir = build_ir(select_block(*merge_dimensions(lay, pm), m_of(128)))
        (loop,) = ir.loops
        cut = next(i for i, op in enumerate(loop.body) if isinstance(op, VStore))
        body = loop.body[:cut] + edit(loop.body[cut:])
        broken = replace(ir, constants=ir.constants + constants,
                         loops=(replace(loop, body=body),))
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

    def test_exact_write_count_with_overlap_detected(self):
        # store 1 moved up one element: 16 writes, element 8 twice from
        # different sources and element 4 never
        run = self._edited(lambda st: (st[0], replace(st[1], offset=5)) + st[2:])
        with pytest.raises(VMError, match="conflicting writes to destination element 8"):
            run()

    def test_same_source_duplicate_write_passes(self):
        # a borrow-style store: lanes 2, 3 of store 0's register and lanes
        # 0, 1 of store 1's, written again to elements 2..5
        def edit(st):
            return st + (VShuf(st[0].src, st[1].src, 99, 12), VStore(12, 2, False))

        out, counters = self._edited(edit, constants=((99, (2, 3, 4, 5)),))()
        data = np.arange(16, dtype=np.uint32)
        assert np.array_equal(out, naive_permute(data, TensorLayout((4, 4)), PermutationMap((1, 0))))
        assert counters["vstore"] == 5

    def test_stored_lane_past_data_detected(self):
        # the last store copies a load from element 13, whose top lane reads
        # element 16, the first of the guard band
        run = self._edited(lambda st: st[:-1] + (VLoad(12, 13, False, "src"), VStore(12, 12, True)))
        with pytest.raises(VMError, match="stored lane reads past the data"):
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

    def test_dropped_or_shifted_store_detected(self):
        # oracle strength: every store of a generated program carries a
        # source lane some element takes from it alone, so dropping any
        # store must raise; so must moving a store that holds no destination
        # lane by one element, which writes one element twice or the guard
        # band and leaves another unwritten
        for lay, _, _, ir in campaign_programs()[:50]:
            data = np.arange(lay.num_elements, dtype=lay.dtype)
            for li, loop in enumerate(ir.loops):
                dst_regs = set()
                for op in loop.body:
                    if isinstance(op, VLoad) and op.space == "dst":
                        dst_regs.add(op.dst)
                    elif isinstance(op, VShuf) and {op.a, op.b} & dst_regs:
                        dst_regs.add(op.dst)
                for i, op in enumerate(loop.body):
                    if not isinstance(op, VStore):
                        continue
                    edits = [()] + ([(replace(op, offset=op.offset + 1),)]
                                    if op.src not in dst_regs else [])
                    for edit in edits:
                        body = loop.body[:i] + edit + loop.body[i + 1:]
                        loops = ir.loops[:li] + (replace(loop, body=body),) + ir.loops[li + 1:]
                        with pytest.raises(VMError):
                            execute(replace(ir, loops=loops), data)

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
        # store; the reserve sequence must store no lane of the guard band
        rng = np.random.default_rng(34)
        lay = TensorLayout((8, 5))
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, m_of(256))
        data = rng.integers(0, 2**32 - 1, size=40, dtype=np.uint32)
        out, _ = execute(ir, data)  # raises on a guard-band write
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

    def test_v1_dump_rejected(self):
        # the v1 form carried a scalar base on every addr, load and store
        # and a start on every loop, the v2 form a second shuffle op
        # (vselfshuf, one register read once), the v3 form a register count
        # (vregs) and each loop's pinned tables, the v4 form each loop's
        # store section index (stores); none is read as v5
        text = dump_ir(build_program(TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0)), m_of(256)))
        assert text.startswith("vecperm-ir v5\n")
        v1 = re.sub(r"^(  (?:addr|vload v\d+|vstore v\d+))", r"\1 s0", text, flags=re.M)
        v1 = v1.replace(" trips ", " start 0 trips ").replace("vecperm-ir v5", "vecperm-ir v1")
        assert "\n  addr s0\n" in v1 and " start 0 trips " in v1
        v2, n = re.subn(r"^  vshuf (v\d+) \1 ", r"  vselfshuf \1 ", text, flags=re.M)
        assert n > 0
        v3 = re.sub(r"^(map .*)$", r"\1\nvregs 18", text, flags=re.M)
        v3, n = re.subn(r"^(loop .*)$", r"\1 tables 4", v3, flags=re.M)
        assert n == 2 and "\nvregs 18\n" in v3
        v4, n = re.subn(r"^(loop .*)$", r"\1 stores 9", text, flags=re.M)
        assert n == 2
        for old in (v1, v2.replace("vecperm-ir v5", "vecperm-ir v2"),
                    v3.replace("vecperm-ir v5", "vecperm-ir v3"),
                    v4.replace("vecperm-ir v5", "vecperm-ir v4")):
            with pytest.raises(LayoutError, match="not a vecperm IR dump"):
                parse_ir(old)
        with pytest.raises(LayoutError, match=r"cannot parse IR line: +vselfshuf v\d+ c\d+ v\d+"):
            parse_ir(v2)
        with pytest.raises(LayoutError, match="cannot parse IR line: vregs 18"):
            parse_ir(v3)
        with pytest.raises(LayoutError, match=r"cannot parse IR line: loop main .* tables 4"):
            parse_ir(v3.replace("\nvregs 18\n", "\n"))
        with pytest.raises(LayoutError, match=r"cannot parse IR line: loop main .* stores 9"):
            parse_ir(v4)

    def test_malformed_op_line_is_coded(self):
        # a v1 load line (scalar base token) under a v5 header
        text = dump_ir(build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128)))
        v1, n = re.subn(r"^(  vload v\d+) src ", r"\1 s0 src ", text, count=1, flags=re.M)
        assert n == 1
        with pytest.raises(LayoutError, match=r"cannot parse IR line: +vload v\d+ s0 src "):
            parse_ir(v1)

    def test_loop_line_without_unroll_is_coded(self):
        text = dump_ir(build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), m_of(128)))
        # without the keyword, and without the keyword and its value
        for pattern in (r" unroll(?= \d+)", r" unroll \d+"):
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
        # stores, through the optimizer, which leaves the bodies as built
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
