import pathlib
import platform
import re
import shutil
import subprocess

import numpy as np
import pytest

from vecperm.cli import MACHINE_GRID
from vecperm.core import PermutationMap, TensorLayout
from vecperm.emit import LOWERINGS, emit_source, kernel_name, verify_native
from vecperm.ir import Addr, VLoad, VSelfShuf, VShuf, VStore, build_program, parse_ir
from vecperm.machine import MachineConfig
from vecperm.planner import select_block, walk_counter
from vecperm.vm import execute

from jobsets import campaign_programs, roadmap_jobs


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
                counts["shuf2"] += 1
            elif isinstance(op, VSelfShuf):
                counts["shuf1"] += 1
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


MACRO = re.compile(r"^#define (VP_\w+)\(([^)]*)\) (.*)$", re.M)
SHUFFLE = re.compile(r"__builtin_shufflevector\(([\w#]+), ([\w#]+), ([\d, ]+)\)")


def portable_macros(src):
    """{name: body} of the macros a portable kernel defines."""
    return {m.group(1): m.group(3) for m in MACRO.finditer(src)}


def eval_part_shuffle(body, w, part):
    """The lanes of ``d`` after one VP_SHUF macro body runs on lane tags:
    lane j of ``a`` is tag j and lane j of ``b`` is tag w + j.  Checks on
    the way that each shuffle reads two parts and indexes their lanes, and
    that no output part is assigned before every temporary is built."""
    n = w // part
    env = {f"a##_{k}": list(range(k * part, (k + 1) * part)) for k in range(n)}
    env.update({f"b##_{k}": list(range(w + k * part, w + (k + 1) * part)) for k in range(n)})
    assert body.startswith("do { ") and body.endswith(" } while (0)"), body
    out = {}
    for stmt in body[len("do { "):-len(" } while (0)")].split("; "):
        lhs, rhs = stmt.rstrip(";").split(" = ")
        if lhs.startswith("d##_"):
            out[lhs] = env[rhs]
            continue
        assert not out, f"temporary {lhs} built after an output part was assigned"
        m = SHUFFLE.fullmatch(rhs)
        if m is None:
            env[lhs.split()[-1]] = env[rhs]
            continue
        idx = [int(i) for i in m.group(3).split(", ")]
        assert len(idx) == part and all(0 <= i < 2 * part for i in idx), rhs
        both = env[m.group(1)] + env[m.group(2)]
        env[lhs.split()[-1]] = [both[i] for i in idx]
    assert sorted(out) == sorted(f"d##_{k}" for k in range(n)), out
    return [tag for k in range(n) for tag in out[f"d##_{k}"]]


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
        src = emit_source(ir)
        counts = ir_op_counts(ir)
        assert counts == {"load": 4, "store": 4, "shuf2": 8, "shuf1": 0}
        data_loads = src.count("_mm_loadu_epi32(src") + src.count("_mm_load_epi32(src")
        assert data_loads == counts["load"]
        assert src.count("_mm_storeu_epi32(") + src.count("_mm_store_epi32(") == counts["store"]
        assert src.count("_mm_permutex2var_epi32") == counts["shuf2"]
        # table loads appear once per constant, outside the loop
        assert src.count("_mm_loadu_epi32(vp_tab") == len(ir.constants)
        # one block, one trip: there is no next block to prefetch
        assert ir.loops[0].trips == 1 and "__builtin_prefetch" not in src
        # with more trips, one prefetch per destination line of one block
        ir = build_program(TensorLayout((32, 32)), PermutationMap((1, 0)),
                           MachineConfig("x86-avx", 128, 4, 32))
        src = emit_source(ir)
        assert [(lp.trips, lp.unroll) for lp in ir.loops] == [(64, 1)]
        assert src.count("__builtin_prefetch(") == len(store_line_offsets(ir.loops[0], 4)) == 4
        stores = src.count("_mm_store_epi32(") + src.count("_mm_storeu_epi32(")
        assert stores == ir_op_counts(ir)["store"] == 4

    def test_x86_names_per_width(self):
        for bits, prefix in ((512, "_mm512"), (256, "_mm256"), (128, "_mm")):
            lay = TensorLayout((8, 8))
            pm = PermutationMap((1, 0))
            ir = build_program(lay, pm, x86(bits))
            src = emit_source(ir)
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
        assert " * target: x86-avx " in avx and "_mm512_permutex2var_epi32" in avx
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
        assert "#define VP_SHUF0(d, a, b) do { vp_v vp_t0 = " in src
        assert "__builtin_shufflevector(a##_" in src
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
        # doubling: every part shuffle picks 2 of the 4 8-byte lanes of
        # its two 16-byte parts
        lay = TensorLayout((4, 4), 8)
        ir = build_program(lay, PermutationMap((1, 0)), MachineConfig("abstract", 512, 8, 32))
        src = emit_source(ir, target="scalar")
        assert "typedef uint64_t vp_elem_t;" in src
        assert "vector_size(16)" in src and "vector_size(64)" not in src
        macros = portable_macros(src)
        assert macros["VP_REG"] == "r##_0, r##_1, r##_2, r##_3"
        for cid, lanes in ir.constants:
            body = macros[f"VP_SHUF{cid}"]
            for m in SHUFFLE.finditer(body):
                assert len(m.group(3).split(", ")) == 2, body
            assert eval_part_shuffle(body, 8, 2) == list(lanes), cid
        shuffles = ir_op_counts(ir)
        uses = re.findall(r"^ +VP_SHUF(\d+)\(v\d+, v\d+, v\d+\);$", src, re.M)
        assert len(uses) == shuffles["shuf2"] + shuffles["shuf1"]

    def test_part_shuffles_reproduce_selectors(self):
        # law: evaluated on lane tags, every constant's VP_SHUF macro
        # reproduces the IR's lane selector, over the ROADMAP jobs and the
        # acceptance campaign's cases
        constants, chained = 0, 0
        programs = [(*job, build_program(*job)) for job in roadmap_jobs()]
        for lay, pm, m, ir in programs + list(campaign_programs()):
            if not ir.constants:
                continue
            macros = portable_macros(emit_source(ir, target="scalar"))
            part = min(m.lanes, 16 // m.elem_width)
            for cid, lanes in ir.constants:
                body = macros[f"VP_SHUF{cid}"]
                assert eval_part_shuffle(body, m.lanes, part) == list(lanes), (lay.dims, cid)
                constants += 1
                chained += "; vp_t" in body  # a part built by more than one shuffle
        assert constants > 4000 and chained > 0, (constants, chained)

    def test_word_doubling_for_64bit_elems(self):
        lay = TensorLayout((4, 4), 8)
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, x86(512, 8))
        src = emit_source(ir)
        # tables are 32-bit word selectors: 8 lanes x 2 words
        assert re.search(r"vp_tab\d+\[16\]", src)
        assert "_mm512_permutex2var_epi32" in src

    def test_identity_scalar_is_a_copy_loop(self):
        ir = build_program(TensorLayout((64,)), PermutationMap((0,)), MachineConfig())
        src = emit_source(ir, target="scalar")
        assert "vp_tab" not in src  # no shuffle tables at all
        assert src.count("memcpy") >= 2  # load and store per block

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
                for field in ("load", "load_aligned", "store", "store_aligned", "shuf2", "shuf1"):
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
    ])
    def test_golden_source_stable(self, name, layout, pmap, machine, target):
        golden = pathlib.Path(__file__).parent / "golden" / f"{name}.{target}.c"
        src = emit_source(build_program(layout, pmap, machine), target=target)
        assert src == golden.read_text()

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


PREFETCH = re.compile(r"__builtin_prefetch\(dst \+ \(?vp_bd \+ (-?\d+)\)?(?: \* \d+)?, 1\);")


def prefetch_groups(src, ir):
    """Per loop of ``ir``: the prefetched element offsets, checked to sit in
    one run of lines right after the body's one address step."""
    groups = []
    for li, chunk in enumerate(src.split("    { /* loop ")[1:]):
        lines = chunk.split("\n")
        at = [i for i, ln in enumerate(lines) if "__builtin_prefetch" in ln]
        (addr,) = [i for i, ln in enumerate(lines) if f"vp_adv_{li}(vp_i" in ln]
        assert at == list(range(addr + 1, addr + 1 + len(at))), (li, at)
        offsets = []
        for i in at:
            m = PREFETCH.fullmatch(lines[i].strip())
            assert m, lines[i]
            offsets.append(int(m.group(1)))
        groups.append(offsets)
    assert len(groups) == len(ir.loops)
    return groups


class TestPrefetch:
    def test_one_address_step_per_body(self):
        # every optimized body is one block whose op 0 is its one address
        # step, so the prefetch group right after op 0 may take all of a
        # body's stores as the next trip's store lines
        programs = [build_program(*job) for job in roadmap_jobs()]
        programs += [ir for *_, ir in campaign_programs()]
        for ir in programs:
            for loop in ir.loops:
                assert isinstance(loop.body[0], Addr), loop.name
                assert sum(isinstance(op, Addr) for op in loop.body) == 1, loop.name

    def test_next_block_store_lines(self):
        # after the address step of each body, one prefetch per line the
        # next trip's block stores to, without duplicates; a one-trip loop
        # has no next trip and prefetches nothing
        bodies = 0
        jobs = [(*job, build_program(*job), ("x86-avx", "scalar")) for job in roadmap_jobs()]
        jobs += [(*job, ("scalar",)) for job in campaign_programs()]
        for lay, pm, m, ir, targets in jobs:
            w, ew = m.lanes, m.elem_width
            for target in targets:
                groups = prefetch_groups(emit_source(ir, target=target), ir)
                for loop, got in zip(ir.loops, groups):
                    if loop.trips == 1:
                        assert got == [], (lay.dims, loop.name)
                        continue
                    bodies += 1
                    assert got == store_line_offsets(loop, w), (lay.dims, loop.name)
                    # the same lines, in bytes, at the real next block base
                    # (step 1 of the walk) of a 64-byte aligned destination
                    _, _, base = walk_counter(loop.digits, loop.ranges, 1)
                    stored = set()
                    for st in body_stores(loop):
                        lo = (int(base) + st.offset) * ew
                        stored.update(range(lo // 64, (lo + w * ew - 1) // 64 + 1))
                    assert {(int(base) + off) * ew // 64 for off in got} == stored
        assert bodies > 1000


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
        # negative control: breaking one selector lane of one part shuffle
        # must be caught, for 4-byte and for 8-byte elements
        for dims, sigma, bits, elem in (((5, 7, 3), (2, 0, 1), 256, 4),
                                        ((3, 4, 5), (1, 2, 0), 512, 8)):
            lay = TensorLayout(dims, elem)
            pm = PermutationMap(sigma)
            m = MachineConfig("abstract", bits, elem, 32)
            ir = build_program(lay, pm, m)
            src = emit_source(ir, target="scalar")
            part = 16 // elem
            define = re.search(r"^#define VP_SHUF0\(d, a, b\) (.*)$", src, re.M)
            shuf = SHUFFLE.search(src, define.start(1))
            assert shuf and shuf.end() <= define.end(1)
            first, rest = shuf.group(3).split(",", 1)
            bad = str((int(first) + 1) % (2 * part))
            broken = src[: shuf.start(3)] + bad + "," + rest + src[shuf.end(3):]
            assert broken != src
            body = portable_macros(broken)["VP_SHUF0"]
            assert eval_part_shuffle(body, m.lanes, part) != list(ir.constants[0][1])
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

    def test_corrupted_high_words_fail(self):
        # negative control for 8-byte data: every high-word selector of the
        # doubled tables reads word 1 (element 0's high word); only data
        # with nonzero high words can tell
        lay = TensorLayout((3, 32, 32, 7), 8)
        pm = PermutationMap((2, 0, 1, 3))
        m = x86(512, 8)
        src = emit_source(build_program(lay, pm, m), target="x86-avx")

        def corrupt(mt):
            vals = [int(x) for x in mt.group(2).split(",")]
            vals[1::2] = [1] * len(vals[1::2])
            return mt.group(1) + ", ".join(map(str, vals)) + "};"

        broken, n = re.subn(
            r"(static const uint32_t vp_tab\d+\[\d+\] = \{)([^}]*)\};", corrupt, src
        )
        assert n > 0 and broken != src
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
        # the portable macros (one-part registers at 128 bits, copies and
        # chained part shuffles at 512) and the intrinsic kernel compile
        # clean with every common warning an error
        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        if cc is None:
            pytest.skip("no C compiler on PATH")
        ir = build_program(TensorLayout((6, 5, 3, 4), elem), PermutationMap((2, 0, 3, 1)),
                           MachineConfig("abstract", bits, elem, 32))
        flags = {"scalar": []}
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

    def test_x86_kernel_matches_oracle_when_supported(self):
        lay = TensorLayout((7, 5, 9))
        pm = PermutationMap((1, 2, 0))
        m = x86()
        ir = build_program(lay, pm, m)
        res = verify_native(emit_source(ir), lay, pm, m, cases=5)
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
