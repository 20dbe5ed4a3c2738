import pathlib
import platform
import re
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from vecperm.cli import MACHINE_GRID
from vecperm.core import LayoutError, PermutationMap, TensorLayout
from vecperm.emit import LOWERINGS, emit_source, kernel_name, verify_native
from vecperm.ir import Addr, VLoad, VShuf, VStore, build_program, dump_ir, parse_ir
from vecperm.machine import MachineConfig
from vecperm.planner import select_block, walk_counter
from vecperm.vm import VMError, execute

from jobsets import (campaign_programs, interleave_digit, kernel_sources, kernel_walks,
                     loop_bodies, peak_live, roadmap_jobs, roadmap_programs)


def x86(bits=512, ew=4):
    return MachineConfig("x86-avx", bits, ew, 32)


def ir_op_counts(ir):
    counts = {"load": 0, "store": 0, "shuf2": 0, "shuf1": 0}
    for loop in ir.loops:
        for op in loop.body:
            if isinstance(op, VLoad):
                counts["load"] += 1
            elif isinstance(op, VStore):
                counts["store"] += 1
            elif isinstance(op, VShuf):
                counts["shuf1" if op.a == op.b else "shuf2"] += 1
    return counts


def body_stores(loop):
    """The stores of a loop body, which holds one block."""
    return [op for op in loop.body if isinstance(op, VStore)]


def store_line_offsets(loop, lanes):
    """Element offsets that name every line one block's stores write: each
    aligned store's offset, each unaligned store's first and last element."""
    offsets = set()
    for st in body_stores(loop):
        offsets.add(st.offset)
        if not st.aligned:
            offsets.add(st.offset + lanes - 1)
    return sorted(offsets)


# the statements of a loop body, in the portable and the x86-avx spelling
VALUE = re.compile(r"(?:vp_v|__m\d+i) x(\d+) = (.*);")
LOAD = re.compile(r"(?:vp_ld|_mm\d*_loadu_epi32)\((src|dst) \+ s0_[sd] \+ (-?\d+)\)")
# pattern; groups of operand a, operand b and the selector, which is inline
# lanes or an x86 table t<c> (permutexvar reads a twice: its index bits wrap)
SHUFFLES = (
    (re.compile(r"__builtin_shufflevector\(x(\d+), x(\d+), ([\d, ]+)\)"), 1, 2, 3, True),
    (re.compile(r"_mm\d*_permutex2var_epi32\(x(\d+), t(\d+), x(\d+)\)"), 1, 3, 2, False),
    (re.compile(r"_mm\d*_permutexvar_epi32\(t(\d+), x(\d+)\)"), 2, 2, 1, False),
)
STORE = re.compile(r"(?:vp_st|_mm\d*_storeu_epi32)\(dst \+ s0_d \+ (-?\d+), x(\d+)\);")


def x86_selectors(src, wpl):
    """{t<c>: lane selector} of an x86 kernel, read back from the word table
    ``vp_tab`` each ``t<c>`` loads; a lane whose words are not one element's
    words in order selects None."""
    words = {c: [int(x) for x in body.split(", ")] for c, body in
             re.findall(r"static const uint32_t vp_tab(\d+)\[\d+\] = \{([^}]*)\};", src)}
    selectors = {}
    for t, c in re.findall(r"const __m\d+i t(\d+) = _mm\d*_loadu_epi32\(vp_tab(\d+)\);", src):
        lanes = [words[c][k:k + wpl] for k in range(0, len(words[c]), wpl)]
        selectors[t] = [ws[0] // wpl if ws == list(range(ws[0], ws[0] + wpl)) and ws[0] % wpl == 0
                        else None for ws in lanes]
    return selectors


def run_body(statements, part, selectors=None):
    """The destination map one kernel body leaves, run statement by
    statement on tags: lane j of a source load at element offset o holds
    ("src", o + j), a destination load reads the current map (("dst", e)
    where nothing is stored yet), and a store writes the map.  Checks on the
    way that each statement is a load, a shuffle or a store, each value is
    defined once before it is read, and each shuffle indexes the lanes of
    its operands.  An x86 shuffle's ``t<c>`` selects by ``selectors``; a
    None lane reads ("bad",)."""
    env, dst = {}, {}
    for text in statements:
        m = VALUE.fullmatch(text)
        if m is None:
            m = STORE.fullmatch(text)
            assert m, text
            off, x = int(m[1]), int(m[2])
            assert x in env, text
            dst.update((off + j, tag) for j, tag in enumerate(env[x]))
            continue
        x, expr = int(m[1]), m[2]
        assert x not in env, text
        if ld := LOAD.fullmatch(expr):
            off = int(ld[2])
            env[x] = [("src", off + j) if ld[1] == "src" else dst.get(off + j, ("dst", off + j))
                      for j in range(part)]
            continue
        for pattern, a, b, sel, inline in SHUFFLES:
            if sh := pattern.fullmatch(expr):
                break
        else:
            raise AssertionError(text)
        a, b = int(sh[a]), int(sh[b])
        assert a in env and b in env, text
        both = env[a] + env[b]
        idx = [int(i) for i in sh[sel].split(", ")] if inline else selectors[sh[sel]]
        assert len(idx) == part and all(i is None or 0 <= i < len(both) for i in idx), text
        env[x] = [("bad",) if i is None else both[i] for i in idx]
    return dst


def run_ir_body(loop, tables, w):
    """The destination map one IR body leaves, run op by op on the tags of
    ``run_body``."""
    regs, dst = {}, {}
    for op in loop.body[1:]:
        if isinstance(op, VLoad):
            regs[op.dst] = [("src", op.offset + j) if op.space == "src"
                            else dst.get(op.offset + j, ("dst", op.offset + j)) for j in range(w)]
        elif isinstance(op, VStore):
            dst.update((op.offset + j, tag) for j, tag in enumerate(regs[op.src]))
        else:
            both = regs[op.a] + regs[op.b]
            regs[op.dst] = [both[s] for s in tables[op.table]]
    return dst


def in_ir_order(src, ir):
    """Whether every loop body of the x86-avx kernel ``src`` is its IR body
    op for op after the ADDR op: the op at place i (from 0) is statement i,
    a load or a shuffle that defines ``x<i>``, or a store of the value its
    register holds to its offset."""
    for loop, stmts in zip(ir.loops, loop_bodies(src), strict=True):
        if len(stmts) != len(loop.body) - 1:
            return False
        value = {}  # register -> the x<i> it holds
        for i, (op, text) in enumerate(zip(loop.body[1:], stmts)):
            if isinstance(op, VStore):
                m = STORE.fullmatch(text)
                if m is None or (int(m[1]), int(m[2])) != (op.offset, value[op.src]):
                    return False
                continue
            m = VALUE.fullmatch(text)
            if m is None or int(m[1]) != i or bool(LOAD.fullmatch(m[2])) != isinstance(op, VLoad):
                return False
            value[op.dst] = i
    return True


def written(dst):
    """A destination map without the elements that hold their own prior
    value: writing one back is no write."""
    return {e: tag for e, tag in dst.items() if tag != ("dst", e)}


def law_breaks(src, ir):
    """Names of the loops of ``ir`` whose body in the portable or x86-avx
    kernel ``src`` leaves a destination map other than the IR body's."""
    m = ir.machine
    if " * target: x86-avx " in src:
        part, selectors = m.lanes, x86_selectors(src, m.elem_width // 4)
    else:
        part, selectors = min(m.lanes, 16 // m.elem_width), None
    tables = dict(ir.constants)
    bodies = loop_bodies(src)
    assert len(bodies) == len(ir.loops)
    return [loop.name for loop, body in zip(ir.loops, bodies)
            if written(run_body(body, part, selectors))
            != written(run_ir_body(loop, tables, m.lanes))]


def emitted_selectors(ir):
    """{constant id: lanes} that the portable lowering's part shuffles
    realise, read off one probe body over ``ir``'s constants: registers 0
    and 1 load source elements [0, 2w), and each constant shuffles them and
    stores the result to its own destination vector, so the tag law reads
    back, lane by lane, which source element each lane of the selector
    picks."""
    w = ir.machine.lanes
    body = [Addr(), VLoad(0, 0, False), VLoad(1, w, False)]
    for k, (cid, _) in enumerate(ir.constants):
        body += [VShuf(0, 1, cid, 2 + k), VStore(2 + k, k * w, False)]
    probe = replace(ir, loops=(replace(ir.loops[0], body=tuple(body)),))
    (stmts,) = loop_bodies(emit_source(probe, target="scalar"))
    dst = run_body(stmts, min(w, 16 // ir.machine.elem_width))
    return {cid: tuple(dst[k * w + j][1] for j in range(w))
            for k, (cid, _) in enumerate(ir.constants)}


class TestEmission:
    def test_deterministic_bytes(self):
        lay = TensorLayout((5, 7, 3))
        pm = PermutationMap((2, 0, 1))
        ir = build_program(lay, pm, x86())
        a = emit_source(ir)
        b = emit_source(build_program(lay, pm, x86()))
        assert a == b

    def test_kernel_name_scheme(self):
        lay = TensorLayout((4, 4))
        pm = PermutationMap((1, 0))
        name = kernel_name(lay, pm, x86())
        assert re.fullmatch(r"permute_[0-9a-f]{16}", name)
        assert name != kernel_name(TensorLayout((4, 8)), PermutationMap((1, 0)), x86())

    def test_x86_statement_counts_match_ir(self):
        # one lowered statement per vector op, no duplication or elision
        lay = TensorLayout((2,) * 4)
        pm = PermutationMap((3, 2, 1, 0))
        plan = select_block(lay, pm, MachineConfig("x86-avx", 128, 4, 32))
        from vecperm.ir import build_ir

        ir = build_ir(plan)
        # the kernel function: the prelude before it defines the intrinsics
        src = emit_source(ir).split("void permute_", 1)[1]
        counts = ir_op_counts(ir)
        assert counts == {"load": 4, "store": 4, "shuf2": 8, "shuf1": 0}
        assert src.count("_mm_loadu_epi32(src") == counts["load"]
        assert src.count("_mm_storeu_epi32(") == counts["store"]
        assert src.count("_mm_permutex2var_epi32") == counts["shuf2"]
        # table loads appear once per constant, outside the loop
        assert src.count("_mm_loadu_epi32(vp_tab") == len(ir.constants)
        # one block, one trip: there is no next block to prefetch
        assert ir.loops[0].trips == 1 and "__builtin_prefetch" not in src
        # with more trips, one prefetch per destination line of one block
        ir = build_program(TensorLayout((32, 32)), PermutationMap((1, 0)),
                           MachineConfig("x86-avx", 128, 4, 32))
        src = emit_source(ir).split("void permute_", 1)[1]
        assert [(lp.trips, lp.unroll) for lp in ir.loops] == [(64, 1)]
        assert src.count("__builtin_prefetch(") == len(store_line_offsets(ir.loops[0], 4)) == 4
        assert src.count("_mm_storeu_epi32(") == ir_op_counts(ir)["store"] == 4

    def test_x86_names_per_width(self):
        for bits, prefix in ((512, "_mm512"), (256, "_mm256"), (128, "_mm")):
            lay = TensorLayout((8, 8))
            pm = PermutationMap((1, 0))
            ir = build_program(lay, pm, x86(bits))
            # the kernel function: the prelude before it names them all
            src = emit_source(ir).split("void permute_", 1)[1]
            assert f"{prefix}_loadu_epi32" in src
            assert f"{prefix}_permutex2var_epi32" in src

    def test_sve_names(self):
        lay = TensorLayout((8, 8))
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, MachineConfig("arm-sve", 512, 4, 32))
        src = emit_source(ir)
        assert "svld1_u32" in src
        assert "svtbl2_u32" in src
        assert "arm_sve.h" in src

    def test_target_selects_lowering(self):
        # table, SVE setup and header follow the requested target, not the
        # machine's ISA tag
        lay, pm = TensorLayout((8, 8)), PermutationMap((1, 0))
        x86_ir = build_program(lay, pm, x86())
        sve = emit_source(x86_ir, target="arm-sve")
        assert " * target: arm-sve " in sve and "#include <arm_sve.h>" in sve
        assert "svtbl2_u32" in sve and "svcntw() != 16" in sve
        assert "_mm512" not in sve and "immintrin.h" not in sve
        sve_ir = build_program(lay, pm, MachineConfig("arm-sve", 512, 4, 32))
        avx = emit_source(sve_ir, target="x86-avx")
        assert " * target: x86-avx " in avx
        assert "_mm512_permutex2var_epi32" in avx.split("void permute_", 1)[1]
        assert "sv" not in avx.split(" */\n", 1)[1]
        abstract_ir = build_program(lay, pm, MachineConfig("abstract", 512, 4, 32))
        assert "svtbl2_u32" in emit_source(abstract_ir, target="arm-sve")

    def test_sunway_stub_marked_experimental(self):
        # a Sunway machine gets the portable vector-extension kernel, the
        # same code as the scalar target under a header naming the ISA
        lay = TensorLayout((8, 8))
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, MachineConfig("sunway-simd", 512, 4, 32))
        src = emit_source(ir)
        assert "target: sunway-simd (portable vector-extension lowering)" in src
        assert "vp_v x0 = vp_ld(src + s0_s + 0);" in src
        assert re.search(r"^ +vp_v x\d+ = __builtin_shufflevector\(x\d+, x\d+, ", src, re.M)
        assert "#define VP_" not in src
        assert "VP_SIMD" not in src and "experimental" not in src
        body = src.split(" */\n", 1)[1]
        assert body == emit_source(ir, target="scalar").split(" */\n", 1)[1]

    def test_portable_guard_names_compiler(self):
        ir = build_program(TensorLayout((8, 8)), PermutationMap((1, 0)), MachineConfig())
        src = emit_source(ir, target="scalar")
        guard = (
            "#if defined(__has_builtin)\n"
            "#if !__has_builtin(__builtin_shufflevector)\n"
            '#error "vecperm portable kernels need GCC >= 12 or Clang"\n'
        )
        assert guard in src
        assert src.index(guard) < src.index("__builtin_shufflevector(")

    def test_portable_selectors_are_lane_level(self):
        # 8-byte lanes take the IR's lane selectors unchanged, no word
        # doubling: every inline part shuffle picks 2 of the 4 8-byte lanes
        # of its two 16-byte parts, and together they realise each selector
        lay = TensorLayout((4, 4), 8)
        ir = build_program(lay, PermutationMap((1, 0)), MachineConfig("abstract", 512, 8, 32))
        src = emit_source(ir, target="scalar")
        assert "typedef uint64_t vp_elem_t;" in src
        assert "vector_size(16)" in src and "vector_size(64)" not in src
        shuffles = re.findall(r"__builtin_shufflevector\(x\d+, x\d+, ([\d, ]+)\);", src)
        assert shuffles
        for idx in shuffles:
            lanes = [int(i) for i in idx.split(", ")]
            assert len(lanes) == 2 and all(0 <= i < 4 for i in lanes), idx
        assert emitted_selectors(ir) == dict(ir.constants)
        assert law_breaks(src, ir) == []

    def test_part_shuffles_reproduce_selectors(self):
        # law: run on lane tags, the part shuffles the portable lowering
        # emits for every constant reproduce the IR's lane selector, over
        # the ROADMAP jobs and the acceptance campaign's cases
        constants, chained = 0, 0
        for lay, pm, m, ir in roadmap_programs() + campaign_programs():
            if not ir.constants:
                continue
            assert emitted_selectors(ir) == dict(ir.constants), (lay.dims, pm.sigma, m)
            part = min(m.lanes, 16 // m.elem_width)
            constants += len(ir.constants)
            # a part drawn from three or more parts takes a chain of shuffles
            chained += sum(len({s // part for s in lanes[k:k + part]}) > 2
                           for _, lanes in ir.constants for k in range(0, m.lanes, part))
        assert constants > 4000 and chained > 0, (constants, chained)

    def test_portable_bodies_store_what_the_ir_stores(self):
        # law: run statement by statement on tags, every portable loop body
        # leaves the destination map its IR body leaves, over the ROADMAP
        # jobs and the acceptance campaign's cases; 8-byte lanes take the
        # IR's lane selectors unchanged in 16-byte parts of two lanes
        counts = dict.fromkeys(("bodies", "reserve", "borrow", "chained", "e8"), 0)
        programs = roadmap_programs() + campaign_programs()
        for (lay, pm, m, ir), src in zip(programs, kernel_sources("scalar"), strict=True):
            part = min(m.lanes, 16 // m.elem_width)
            assert f"typedef uint{8 * m.elem_width}_t vp_elem_t;" in src
            assert f"vector_size({part * m.elem_width})" in src
            assert law_breaks(src, ir) == [], (lay.dims, pm.sigma, m)
            for loop in ir.loops:
                # from the first store or destination reload on, where a
                # shuffle after a store is a borrow, after a reload a reserve
                first = next(i for i, op in enumerate(loop.body)
                             if isinstance(op, VStore) or getattr(op, "space", None) == "dst")
                stores = loop.body[first:]
                counts["bodies"] += 1
                counts["reserve"] += any(isinstance(op, VLoad) for op in stores)
                counts["borrow"] += any(
                    isinstance(op, VShuf) and not isinstance(prev, VLoad)
                    for prev, op in zip(stores, stores[1:]))
            # a part drawn from three or more parts takes a chain of shuffles
            counts["chained"] += any(
                len({s // part for s in lanes[k:k + part]}) > 2
                for _, lanes in ir.constants for k in range(0, m.lanes, part))
            counts["e8"] += m.elem_width == 8
        assert counts["bodies"] > 1000 and min(counts.values()) > 0, counts

    def test_x86_bodies_store_what_the_ir_stores(self):
        # law: run statement by statement on tags, with each t<c> read back
        # from its word table, every x86-avx loop body leaves the
        # destination map its IR body leaves, over the ROADMAP jobs and the
        # acceptance campaign's cases; no AVX-512 host needed.  Every access
        # is spelled unaligned, so the kernel runs at any element address.
        # Each body is also its IR body op for op after the ADDR op, which is
        # why the emitter skips its component pass at one part per register.
        counts = dict.fromkeys(("bodies", "shuf1", "e8"), 0)
        programs = roadmap_programs() + campaign_programs()
        for (lay, pm, m, ir), src in zip(programs, kernel_sources("x86-avx"), strict=True):
            assert law_breaks(src, ir) == [], (lay.dims, pm.sigma, m)
            assert in_ir_order(src, ir), (lay.dims, pm.sigma, m)
            body = src.split("void permute_", 1)[1]
            assert "_load_epi32(" not in body and "_store_epi32(" not in body, (lay.dims, m)
            counts["bodies"] += len(ir.loops)
            counts["shuf1"] += "_permutexvar_epi32(t" in src
            counts["e8"] += m.elem_width == 8
        assert counts["bodies"] > 1000 and min(counts.values()) > 0, counts

    def test_write_backs_emit_nothing(self):
        # a reserve store's part that holds only destination lanes writes
        # back what it loaded: neither the load nor the store is emitted,
        # and the tail loop of e8_5x4x3 keeps only its real stores
        ir = build_program(TensorLayout((3, 4, 5), 8), PermutationMap((1, 2, 0)),
                           MachineConfig("abstract", 512, 8, 32))
        assert any(isinstance(op, VLoad) and op.space == "dst"
                   for loop in ir.loops for op in loop.body)
        src = emit_source(ir, target="scalar")
        assert law_breaks(src, ir) == []
        for body in map("\n".join, loop_bodies(src)):
            loads = dict(re.findall(r"vp_v (x\d+) = vp_ld\((dst \+ s0_d \+ -?\d+)\);", body))
            stores = re.findall(r"vp_st\((dst \+ s0_d \+ -?\d+), (x\d+)\);", body)
            assert not [(p, x) for p, x in stores if loads.get(x) == p], body
        # one that crosses another store to its bytes restores them: kept
        body = (Addr(), VLoad(0, 0, False, "dst"), VLoad(1, 0, False), VStore(1, 0, False),
                VStore(0, 0, False))
        ir = replace(ir, loops=(replace(ir.loops[0], body=body),))
        src = emit_source(ir, target="scalar")
        assert law_breaks(src, ir) == []
        (stmts,) = loop_bodies(src)
        assert sum(ln.startswith("vp_st(") for ln in stmts) == 8, stmts

    def test_chains_read_distinct_values(self):
        # a part that two input slots hold (a self-shuffle reads its one
        # register twice) is one operand: in the sunway-simd kernel of
        # demos/04_backends.py no chain step brings in the value the step
        # before it brought in, and each such part takes one shuffle
        ir = build_program(TensorLayout((5, 7, 3)), PermutationMap((2, 0, 1)),
                           MachineConfig("sunway-simd", 512, 4, 32))
        src = emit_source(ir)
        assert law_breaks(src, ir) == []
        brought, repeats = {}, 0
        steps = re.findall(r"vp_v x(\d+) = __builtin_shufflevector\(x(\d+), x(\d+), ", src)
        for x, a, b in steps:
            repeats += brought.get(a) == b
            brought[x] = b
        assert repeats == 0
        assert "vp_v x13 = __builtin_shufflevector(x12, x8, 0, 1, 4, 4);" in src

    def test_overlapping_stores_keep_ir_order(self):
        # destination accesses whose parts overlap stay in IR order: v0 is
        # stored at 0 and then over v1's store at 32, so each part of v0
        # is one component whose first store precedes v1's, and only the
        # overlap join puts v1's store between v0's two
        ir = build_program(TensorLayout((16, 4)), PermutationMap((1, 0)),
                           MachineConfig("abstract", 512, 4, 32))
        body = (Addr(), VLoad(0, 0, False), VStore(0, 0, False), VLoad(1, 16, False),
                VStore(1, 32, False), VStore(0, 32, False))
        ir = replace(ir, loops=(replace(ir.loops[0], body=body),))
        src = emit_source(ir, target="scalar")
        assert law_breaks(src, ir) == []
        (stmts,) = loop_bodies(src)
        stores = [ln for ln in stmts if ln.startswith("vp_st(dst + s0_d + 32,")]
        assert stores == ["vp_st(dst + s0_d + 32, x8);", "vp_st(dst + s0_d + 32, x0);"], stmts

    def test_word_doubling_for_64bit_elems(self):
        lay = TensorLayout((4, 4), 8)
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, x86(512, 8))
        src = emit_source(ir)
        # tables are 32-bit word selectors: 8 lanes x 2 words
        assert re.search(r"vp_tab\d+\[16\]", src)
        assert "_mm512_permutex2var_epi32" in src.split("void permute_", 1)[1]

    def test_identity_scalar_is_a_copy_loop(self):
        ir = build_program(TensorLayout((64,)), PermutationMap((0,)), MachineConfig())
        src = emit_source(ir, target="scalar")
        assert "vp_tab" not in src  # no shuffle tables at all
        assert "__builtin_shufflevector(x" not in src  # every part is a rename
        (body,) = loop_bodies(src)
        assert [ln[:5] for ln in body] == ["vp_v ", "vp_st"] * 4

    def test_register_read_before_write_is_coded(self):
        # a body storing a register it never wrote is a coded error in
        # both spellings, as it is in the VM, never a bare KeyError
        text = dump_ir(build_program(TensorLayout((4, 4)), PermutationMap((1, 0)), x86(128)))
        ir = parse_ir(text.replace("\nendloop\n", "\n  vstore v30 0 u\nendloop\n"))
        for target in ("x86-avx", "scalar"):
            with pytest.raises(LayoutError, match="loop main: register v30 read before any write"):
                emit_source(ir, target=target)
        with pytest.raises(VMError, match="register r30 read before any write"):
            execute(ir, np.arange(16, dtype=np.uint32))

    def test_unsupported_target_named(self):
        lay = TensorLayout((4, 4))
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, MachineConfig("abstract", 512, 4, 32))
        with pytest.raises(Exception) as exc:
            emit_source(ir, target="riscv-v")
        assert "riscv-v" in str(exc.value)

    def test_lowering_tables_cover_op_surface(self):
        for isa, widths in LOWERINGS.items():
            for bits, table in widths.items():
                for field in ("load", "store", "shuf2", "shuf1"):
                    assert getattr(table, field), (isa, bits, field)

    @pytest.mark.parametrize("target", ["x86-avx", "scalar"])
    @pytest.mark.parametrize("name, layout, pmap, machine", [
        # two one-trip phases with spread loads, self-shuffles, borrow and
        # reserve stores (the job of golden/pad5x3x3.ir)
        ("pad5x3x3", TensorLayout((3, 3, 5)), PermutationMap((2, 1, 0)),
         MachineConfig(bit_width=256)),
        # 8-byte elements: doubled x86 word tables, two-trip main loop with
        # prefetches, a tail phase
        ("e8_5x4x3", TensorLayout((3, 4, 5), 8), PermutationMap((1, 2, 0)),
         MachineConfig("abstract", 512, 8, 32)),
        # an interleaved walk: a ragged digit between full ones, so each of
        # the 6 outer steps runs one phase's inner loop of 2 blocks
        ("walk_e8_4x3x3x3", TensorLayout((3, 3, 3, 4), 8), PermutationMap((0, 3, 2, 1)),
         MachineConfig("abstract", 512, 8, 32)),
    ])
    def test_golden_source_stable(self, name, layout, pmap, machine, target):
        golden = pathlib.Path(__file__).parent / "golden" / f"{name}.{target}.c"
        src = emit_source(build_program(layout, pmap, machine), target=target)
        assert src == golden.read_text()

    def test_roadmap_and_campaign_sources_pinned(self):
        # one sha256 over the x86-avx sources of the 12 ROADMAP programs and
        # the 1000 campaign programs, then over their scalar sources, in
        # order: a change to any statement, table or its order changes it
        import hashlib

        digest = hashlib.sha256()
        for target in ("x86-avx", "scalar"):
            for src in kernel_sources(target):
                digest.update(src.encode())
        golden = pathlib.Path(__file__).parent / "golden" / "roadmap_campaign_src.sha256"
        assert digest.hexdigest() == golden.read_text().strip()

    def test_loops_off_a_grid_run_in_order(self):
        # only loops that tile their box as the cells of a grid interleave:
        # with a loop repeated, with the tail's range overlapping main's,
        # or with the cell of both ragged digits' tails gone, the kernel
        # runs each loop after the other, as given
        ir = build_program(TensorLayout((3, 3, 3, 2)), PermutationMap((0, 2, 1, 3)), x86(256))
        main, tail, other, _ = ir.loops
        d = next(d for d, (a, b) in enumerate(zip(main.ranges, tail.ranges)) if a != b)
        overlap = replace(tail, ranges=tail.ranges[:d] + ((0, tail.ranges[d][1]),) + tail.ranges[d + 1:])
        assert "/* interleaved walk: " in emit_source(ir, target="scalar")
        for loops in ((main, tail, main), (main, overlap), (main, tail, other)):
            src = emit_source(replace(ir, loops=loops), target="scalar")
            assert "/* interleaved walk: " not in src
            assert src.count("    { /* loop ") == len(loops)

    def test_abstract_target_round_trips_through_vm(self):
        rng = np.random.default_rng(40)
        lay = TensorLayout((5, 3, 4))
        pm = PermutationMap((2, 0, 1))
        ir = build_program(lay, pm, MachineConfig("abstract", 256, 4, 32))
        text = emit_source(ir, target="abstract")
        back = parse_ir(text)
        data = rng.integers(0, 2**32 - 1, size=60, dtype=np.uint32)
        o1, c1 = execute(ir, data)
        o2, c2 = execute(back, data)
        assert np.array_equal(o1, o2) and c1 == c2


PREFETCH = re.compile(r"__builtin_prefetch\(dst \+ vp_bd \+ (-?\d+), 1\);")


def prefetch_groups(src, ir):
    """Per loop of ``ir``: the prefetched element offsets, which
    ``kernel_walks`` checks sit in one run right after the body's address
    step; the kernel prefetches nowhere else."""
    groups = []
    for _, prefetches, _ in kernel_walks(src):
        offsets = []
        for text in prefetches:
            m = PREFETCH.fullmatch(text)
            assert m, text
            offsets.append(int(m.group(1)))
        groups.append(offsets)
    assert len(groups) == len(ir.loops)
    assert src.count("__builtin_prefetch") == sum(map(len, groups))
    return groups


class TestPrefetch:
    def test_one_address_step_per_body(self):
        # every optimized body is one block whose op 0 is its one address
        # step, so the prefetch group right after op 0 may take all of a
        # body's stores as the next trip's store lines
        for *_, ir in roadmap_programs() + campaign_programs():
            for loop in ir.loops:
                assert isinstance(loop.body[0], Addr), loop.name
                assert sum(isinstance(op, Addr) for op in loop.body) == 1, loop.name

    def test_next_block_store_lines(self):
        # after the address step of each body, one prefetch per line the
        # body stores to, without duplicates, from the base of the block
        # the walk runs next.  In a flat loop (a whole loop of an in-order
        # kernel, or a phase's loop over the digits below p of an
        # interleaved walk) that is the next trip's block, whose lines are
        # checked; a loop of one trip prefetches nothing.  In a phase of
        # one block per outer step (p = 0) the next block may be another
        # phase's, so only the offsets are checked
        flat = interleaved = one_block = 0
        roadmap = roadmap_programs()
        jobs = list(zip(roadmap, kernel_sources("x86-avx")))  # the first 12 sources
        jobs += zip(roadmap + campaign_programs(), kernel_sources("scalar"), strict=True)
        for (lay, pm, m, ir), src in jobs:
            w, ew = m.lanes, m.elem_width
            groups = prefetch_groups(src, ir)
            p = interleave_digit(ir)
            assert ("/* interleaved walk: " in src) == (p is not None), lay.dims
            interleaved += p is not None
            for loop, got in zip(ir.loops, groups):
                if p is None and loop.trips == 1:
                    assert got == [], (lay.dims, loop.name)
                    continue
                assert got == store_line_offsets(loop, w), (lay.dims, loop.name)
                if p == 0:
                    one_block += 1
                    continue
                flat += 1
                # the same lines, in bytes, at the real next block base
                # (step 1 of the loop's walk, where the digits below p run
                # fastest) of a 64-byte aligned destination
                base = walk_counter(loop.digits, loop.ranges)[1][1]
                stored = set()
                for st in body_stores(loop):
                    lo = (int(base) + st.offset) * ew
                    stored.update(range(lo // 64, (lo + w * ew - 1) // 64 + 1))
                assert {(int(base) + off) * ew // 64 for off in got} == stored
        # one ROADMAP kernel in each lowering and 135 campaign kernels
        # interleave, with 210 phases of one block per outer step
        assert (flat, interleaved, one_block) == (943, 137, 210)


SVE_STUB = """\
#include <stdint.h>
typedef struct { uint32_t lanes[16]; } svuint32_t;
typedef struct { svuint32_t parts[2]; } svuint32x2_t;
typedef struct { uint8_t bits[8]; } svbool_t;
svbool_t svptrue_b32(void);
uint64_t svcntw(void);
svuint32_t svld1_u32(svbool_t pg, const uint32_t *base);
void svst1_u32(svbool_t pg, uint32_t *base, svuint32_t data);
svuint32_t svtbl_u32(svuint32_t data, svuint32_t indices);
svuint32_t svtbl2_u32(svuint32x2_t data, svuint32_t indices);
svuint32x2_t svcreate2_u32(svuint32_t x0, svuint32_t x1);
"""


class TestNative:
    def test_scalar_kernel_matches_oracle(self):
        lay = TensorLayout((5, 7, 3))
        pm = PermutationMap((2, 0, 1))
        m = MachineConfig("abstract", 256, 4, 32)
        ir = build_program(lay, pm, m)
        res = verify_native(emit_source(ir, target="scalar"), lay, pm, m, target="scalar", cases=5)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "pass", res

    def test_scalar_kernel_elem8(self):
        lay = TensorLayout((3, 4, 5), 8)
        pm = PermutationMap((1, 2, 0))
        m = MachineConfig("abstract", 512, 8, 32)
        ir = build_program(lay, pm, m)
        res = verify_native(emit_source(ir, target="scalar"), lay, pm, m, target="scalar", cases=5)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "pass", res

    def test_corrupted_table_fails(self):
        # negative control: breaking one lane index of one inline part
        # shuffle must be caught by the tag law and by the native check,
        # for 4-byte and for 8-byte elements
        for dims, sigma, bits, elem in (((5, 7, 3), (2, 0, 1), 256, 4),
                                        ((3, 4, 5), (1, 2, 0), 512, 8)):
            lay = TensorLayout(dims, elem)
            pm = PermutationMap(sigma)
            m = MachineConfig("abstract", bits, elem, 32)
            ir = build_program(lay, pm, m)
            src = emit_source(ir, target="scalar")
            assert law_breaks(src, ir) == []
            part = 16 // elem
            shuf = re.search(r"__builtin_shufflevector\(x\d+, x\d+, (\d+),", src)
            bad = str((int(shuf.group(1)) + 1) % (2 * part))
            broken = src[: shuf.start(1)] + bad + src[shuf.end(1):]
            assert broken != src
            assert law_breaks(broken, ir) == [ir.loops[0].name], dims
            res = verify_native(broken, lay, pm, m, target="scalar", cases=3)
            if res["status"] == "skipped":
                pytest.skip(res["reason"])
            assert res["status"] == "fail" and "mismatch" in res["reason"], (dims, res)

    def test_stray_slack_writes_fail(self):
        # negative control: a kernel that also writes one element just past
        # either end of the destination must fail on the slack band it hit;
        # the unmodified kernel, whose tail rewrite-stores run into the
        # slack and put its bytes back, passes
        lay, pm = TensorLayout((5, 7, 3)), PermutationMap((2, 0, 1))
        m = MachineConfig("abstract", 256, 4, 32)
        src = emit_source(build_program(lay, pm, m), target="scalar")
        assert src.endswith("    }\n}\n")
        res = verify_native(src, lay, pm, m, target="scalar", cases=2)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "pass", res
        for index, side in (("105", "after"), ("-1", "before")):
            broken = src[:-2] + f"    dst[{index}] ^= 1;\n}}\n"
            res = verify_native(broken, lay, pm, m, target="scalar", cases=2)
            assert res["status"] == "fail", (index, res)
            assert res["reason"] == f"destination slack {side} the data written on case 0", res

    def test_faulting_kernel_fails_without_killing_the_caller(self):
        # a kernel that also stores far past the data faults in
        # verify_native's child: the call reads fail on case 0, and a call
        # right after it, in this process, passes on the unmodified kernel
        lay, pm = TensorLayout((5, 7, 3)), PermutationMap((2, 0, 1))
        m = MachineConfig("abstract", 256, 4, 32)
        src = emit_source(build_program(lay, pm, m), target="scalar")
        assert src.endswith("    }\n}\n")
        broken = src[:-2] + "    *(volatile vp_elem_t *)(dst + (1L << 40)) = 0;\n}\n"
        res = verify_native(broken, lay, pm, m, target="scalar", cases=2)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "fail" and res["cases"] == 0, res
        assert re.fullmatch(r"runtime signal SIG\w+ on case 0", res["reason"]), res
        res = verify_native(src, lay, pm, m, target="scalar", cases=2)
        assert res["status"] == "pass", res

    def test_aligned_access_fails_on_offset_data(self):
        # verify_native's data start one element past a 64-byte boundary: a
        # portable kernel whose part loads are aligned 16-byte dereferences
        # faults there, though every load is at a vector-aligned offset,
        # and the emitted memcpy loads pass
        lay, pm = TensorLayout((16, 16)), PermutationMap((1, 0))
        m = MachineConfig("abstract", 256, 4, 32)
        ir = build_program(lay, pm, m)
        assert all(op.aligned for loop in ir.loops for op in loop.body if isinstance(op, VLoad))
        src = emit_source(ir, target="scalar")
        loader = "static inline vp_v vp_ld(const vp_elem_t *p) {"
        body = " vp_v v; memcpy(&v, p, sizeof v); return v; }"
        assert src.count(loader + body) == 1
        broken = src.replace(loader + body, loader + " return *(const vp_v *)p; }")
        res = verify_native(broken, lay, pm, m, target="scalar", cases=2)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "fail" and res["reason"].startswith("runtime signal "), res
        res = verify_native(src, lay, pm, m, target="scalar", cases=2)
        assert res["status"] == "pass", res

    def test_corrupted_high_words_fail(self):
        # negative control for 8-byte data: every high-word selector of the
        # doubled tables reads word 1 (element 0's high word); only data
        # with nonzero high words can tell, and the tag law, which reads
        # each t<c> back from its word table, on any host
        lay = TensorLayout((3, 32, 32, 7), 8)
        pm = PermutationMap((2, 0, 1, 3))
        m = x86(512, 8)
        ir = build_program(lay, pm, m)
        src = emit_source(ir, target="x86-avx")

        def corrupt(mt):
            vals = [int(x) for x in mt.group(2).split(",")]
            vals[1::2] = [1] * len(vals[1::2])
            return mt.group(1) + ", ".join(map(str, vals)) + "};"

        broken, n = re.subn(
            r"(static const uint32_t vp_tab\d+\[\d+\] = \{)([^}]*)\};", corrupt, src
        )
        assert n > 0 and broken != src
        assert law_breaks(src, ir) == []
        assert law_breaks(broken, ir) == [loop.name for loop in ir.loops]
        res = verify_native(broken, lay, pm, m, target="x86-avx", cases=3)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "fail" and "mismatch" in res["reason"], res

    @pytest.mark.parametrize("bits, elem", MACHINE_GRID)
    def test_scalar_kernel_on_machine_grid(self, bits, elem):
        lay = TensorLayout((6, 5, 3, 4), elem)
        pm = PermutationMap((2, 0, 3, 1))
        m = MachineConfig("abstract", bits, elem, 32)
        ir = build_program(lay, pm, m)
        assert ir.constants
        res = verify_native(emit_source(ir, target="scalar"), lay, pm, m, target="scalar", cases=3)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "pass", res

    @pytest.mark.parametrize("bits, elem", MACHINE_GRID)
    def test_kernels_compile_warning_free(self, bits, elem, tmp_path):
        # the portable parts (one part per register at 128 bits, renames
        # and chained part shuffles at 512) and the intrinsic kernel
        # compile clean with every common warning an error
        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        if cc is None:
            pytest.skip("no C compiler on PATH")
        ir = build_program(TensorLayout((6, 5, 3, 4), elem), PermutationMap((2, 0, 3, 1)),
                           MachineConfig("abstract", bits, elem, 32))
        flags = {"scalar": [], "sunway-simd": []}
        if platform.machine() in ("x86_64", "amd64"):
            flags["x86-avx"] = ["-mavx512f"] + (["-mavx512vl"] if bits != 512 else [])
        for target, isa_flags in flags.items():
            path = tmp_path / f"{target}.c"
            path.write_text(emit_source(ir, target=target))
            proc = subprocess.run(
                [cc, "-O2", *isa_flags, "-Wall", "-Wextra", "-Werror", "-c", str(path),
                 "-o", str(tmp_path / f"{target}.o")],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, (target, proc.stderr[-2000:])

    @pytest.mark.parametrize("bits, elem", [(128, 4), (128, 8), (512, 4), (512, 8)])
    def test_sve_kernels_type_check(self, bits, elem, tmp_path):
        # SVE kernels cannot be compiled here, so they are type-checked
        # against a stub arm_sve.h: the ACLE prototypes of the seven
        # intrinsics they call, over struct stand-ins for the SVE types
        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        if cc is None:
            pytest.skip("no C compiler on PATH")
        (tmp_path / "arm_sve.h").write_text(SVE_STUB)
        ir = build_program(TensorLayout((6, 5, 3, 4), elem), PermutationMap((2, 0, 3, 1)),
                           MachineConfig("arm-sve", bits, elem, 32))
        src = emit_source(ir)
        assert "svtbl_u32(" in src and "svtbl2_u32(" in src
        path = tmp_path / "kernel.c"
        path.write_text(src)
        proc = subprocess.run(
            [cc, "-fsyntax-only", "-Wall", "-Wextra", "-Werror", f"-I{tmp_path}", str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_portable_kernels_keep_parts_in_registers(self, tmp_path):
        # the part-level schedule keeps each component's 16-byte parts in
        # xmm registers: at plain -O2 no ROADMAP portable kernel stores an
        # xmm register to the stack, except 15x1000x33 (1,2,0) at 4 bytes
        # (a few spills).  And no kernel has more SSE shuffle instructions
        # than part shuffle statements: at 4 bytes the butterfly's zip and
        # swap of lane bit 1 are one unpack each, where a swap of lane bit 0
        # took two.  This rests on GCC's register allocation and
        # instruction selection of the emitted statements; other compilers
        # are not covered.
        cc, objdump = shutil.which("cc"), shutil.which("objdump")
        if cc is None or objdump is None:
            pytest.skip("needs cc and objdump")
        if platform.machine() not in ("x86_64", "amd64"):
            pytest.skip("xmm registers are x86-64's")
        spill = re.compile(r"\tmov\w*\s+%xmm\d+,.*\(%rsp\)")
        shuffle = re.compile(r"\t(?:pshufd|pshuf[lh]w|shufp[sd]|punpck\w+|unpck\w+|movlhps|movhlps)\s")
        spills, shuffles = {}, {}
        for lay, pm, m in roadmap_jobs():
            path = tmp_path / "kernel.c"
            src = emit_source(build_program(lay, pm, m), target="scalar")
            path.write_text(src)
            obj = tmp_path / "kernel.o"
            subprocess.run([cc, "-O2", "-c", str(path), "-o", str(obj)], check=True, timeout=120)
            dis = subprocess.run([objdump, "-d", str(obj)], capture_output=True, text=True,
                                 check=True).stdout
            spills[lay.dims, m.elem_width] = len(spill.findall(dis))
            shuffles[lay.dims, m.elem_width] = (len(shuffle.findall(dis)),
                                                src.count("__builtin_shufflevector("))
        assert [job for job, (insns, stmts) in shuffles.items() if insns > stmts] == [], shuffles
        assert len(spills) == 12
        del spills[(33, 1000, 15), 4]
        assert set(spills.values()) == {0}, spills

    def test_tightest_x86_kernels_make_no_stack_refs(self, tmp_path):
        # the AVX-512 kernels reporting the most registers (26, 26 and 30 of
        # 32) fit the register file: at -O2 -mavx512f GCC keeps every value
        # in a register and the objects never address the stack
        cc, objdump = shutil.which("cc"), shutil.which("objdump")
        if cc is None or objdump is None:
            pytest.skip("needs cc and objdump")
        if platform.machine() not in ("x86_64", "amd64"):
            pytest.skip("AVX-512 kernels compile for x86-64")
        tight = {(1024, 1024): 26, (3, 32, 32, 7): 26, (33, 1000, 15): 30}
        reported, procs = {}, []
        for lay, pm, m in roadmap_jobs():
            ir = build_program(lay, pm, m)
            reported[lay.dims, m.elem_width] = ir.metadata["total_registers"]
            if m.elem_width == 4 and lay.dims in tight:
                path = tmp_path / f"k{len(procs)}.c"
                path.write_text(emit_source(ir))
                obj = path.with_suffix(".o")
                procs.append((lay.dims, obj, subprocess.Popen(
                    [cc, "-O2", "-mavx512f", "-c", str(path), "-o", str(obj)])))
        assert [proc.wait(timeout=120) for *_, proc in procs] == [0] * len(tight)
        assert max(reported.values()) == 30
        assert {dims: reported[dims, 4] for dims in tight} == tight
        refs = {}
        for dims, obj, _ in procs:
            dis = subprocess.run([objdump, "-d", str(obj)], capture_output=True, text=True,
                                 check=True).stdout
            refs[dims] = dis.count("(%rsp)")
        assert refs == dict.fromkeys(tight, 0)

    def test_x86_kernels_compile_header_free(self, tmp_path):
        # under GCC an x86 kernel compiles through its prelude's definitions
        # of the intrinsics, not <immintrin.h>: no intrinsic header among its
        # dependencies, and an object instruction-identical to the same
        # source with the guarded block replaced by the header (what the
        # #else branch compiles), on the 12 ROADMAP jobs and a grid job at
        # every width.  Only compiles, so it needs no AVX-512 hardware; it
        # rests on GCC's builtin names, and another compiler takes the header.
        cc, objdump = shutil.which("cc"), shutil.which("objdump")
        if cc is None or objdump is None:
            pytest.skip("needs cc and objdump")
        if platform.machine() not in ("x86_64", "amd64"):
            pytest.skip("AVX-512 kernels compile for x86-64")
        guard = re.compile(r"#if defined\(__has_builtin\)\n.*?#include <immintrin.h>\n#endif\n", re.S)
        jobs = roadmap_jobs() + [(TensorLayout((6, 5, 3, 4), e), PermutationMap((2, 0, 3, 1)),
                                  x86(bits, e)) for bits in (512, 256, 128) for e in (4, 8)]
        builds, defined, called = [], {}, {}
        for k, (lay, pm, m) in enumerate(jobs):
            src = emit_source(build_program(lay, pm, m))
            header, n = guard.subn("#include <immintrin.h>\n", src)
            assert n == 1 and header.count("immintrin") == 1
            prelude, body = src.split("void permute_", 1)
            defined[m.bit_width] = set(re.findall(r"#define (_mm\w+)\(", prelude))
            called.setdefault(m.bit_width, set()).update(re.findall(r"\b(_mm\w+)\(", body))
            flags = ["-O2", "-mavx512f"] + (["-mavx512vl"] if m.bit_width != 512 else [])
            for name, text in ((f"k{k}", src), (f"k{k}_header", header)):
                path = tmp_path / f"{name}.c"
                path.write_text(text)
                # -MD writes what cc -M lists, system headers included
                builds.append([cc, *flags, "-Wall", "-Wextra", "-Werror", "-MD", "-c", str(path),
                               "-o", str(path.with_suffix(".o"))])
        # the jobs call every intrinsic the prelude defines, and only those
        assert called == defined and len(defined[512]) == 4 and len(defined[128]) == 3, defined
        with ThreadPoolExecutor(2) as pool:
            for proc in pool.map(lambda cmd: subprocess.run(cmd, capture_output=True, text=True,
                                                            timeout=120), builds):
                assert proc.returncode == 0, proc.stderr[-2000:]

        def instructions(obj):
            dis = subprocess.run([objdump, "-d", "--no-show-raw-insn", str(obj)],
                                 capture_output=True, text=True, check=True).stdout
            return dis.split("Disassembly of section", 1)[1]

        for k, (lay, pm, m) in enumerate(jobs):
            assert "immintrin.h" in (tmp_path / f"k{k}_header.d").read_text()
            deps = (tmp_path / f"k{k}.d").read_text()
            assert "stdint.h" in deps and "intrin.h" not in deps, (lay.dims, m)
            assert instructions(tmp_path / f"k{k}.o") == instructions(tmp_path / f"k{k}_header.o"), \
                (lay.dims, m)

    def test_x86_kernel_matches_oracle_when_supported(self):
        lay = TensorLayout((7, 5, 9))
        pm = PermutationMap((1, 2, 0))
        m = x86()
        ir = build_program(lay, pm, m)
        res = verify_native(emit_source(ir), lay, pm, m, cases=5)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "pass", res

    @pytest.mark.parametrize("target", ["scalar", "x86-avx"])
    @pytest.mark.parametrize("dims, sigma, bits, elem, p, phases", [
        # a ragged fastest digit: one block per outer step
        ((3, 3, 2, 2), (0, 2, 1, 3), 512, 8, 0, 2),
        # a ragged digit between full ones: an inner loop of 2 blocks
        ((3, 3, 3, 4), (0, 3, 2, 1), 512, 8, 1, 2),
        # two ragged digits: four phases, one block per outer step
        ((3, 3, 3, 2), (0, 2, 1, 3), 256, 4, 0, 4),
    ])
    def test_interleaved_kernels_match_oracle(self, dims, sigma, bits, elem, p, phases, target):
        lay, pm, m = TensorLayout(dims, elem), PermutationMap(sigma), x86(bits, elem)
        ir = build_program(lay, pm, m)
        assert (interleave_digit(ir), len(ir.loops)) == (p, phases)
        src = emit_source(ir, target=target)
        assert src.count("/* interleaved walk: ") == 1 and src.count("/* phase ") == phases
        res = verify_native(src, lay, pm, m, target=target, cases=3)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "pass", res

    def test_missing_hardware_reports_skipped(self):
        lay = TensorLayout((4, 4))
        pm = PermutationMap((1, 0))
        m = MachineConfig("arm-sve", 512, 4, 32)
        ir = build_program(lay, pm, m)
        res = verify_native(emit_source(ir), lay, pm, m)
        import platform

        if platform.machine() != "aarch64":
            assert res["status"] == "skipped"
