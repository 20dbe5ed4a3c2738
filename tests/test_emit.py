import re

import numpy as np
import pytest

from vecperm.core import PermutationMap, TensorLayout
from vecperm.emit import LOWERINGS, emit_source, kernel_name, verify_native
from vecperm.ir import VLoad, VSelfShuf, VShuf, VStore, build_program, parse_ir
from vecperm.machine import MachineConfig
from vecperm.planner import select_block
from vecperm.vm import execute


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

    def test_sunway_stub_marked_experimental(self):
        lay = TensorLayout((8, 8))
        pm = PermutationMap((1, 0))
        ir = build_program(lay, pm, MachineConfig("sunway-simd", 512, 4, 32))
        src = emit_source(ir)
        assert "experimental" in src
        assert "VP_SIMD_SHUFFLE" in src

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
        # negative control: breaking one index table must be caught
        lay = TensorLayout((5, 7, 3))
        pm = PermutationMap((2, 0, 1))
        m = MachineConfig("abstract", 256, 4, 32)
        ir = build_program(lay, pm, m)
        src = emit_source(ir, target="scalar")
        m_tab = re.search(r"static const int vp_tab0\[\d+\] = \{(\d+)", src)
        assert m_tab
        broken = src[: m_tab.start(1)] + str((int(m_tab.group(1)) + 1) % 8) + src[m_tab.end(1):]
        if broken == src:
            pytest.skip("table rewrite was a fixed point")
        res = verify_native(broken, lay, pm, m, target="scalar", cases=3)
        if res["status"] == "skipped":
            pytest.skip(res["reason"])
        assert res["status"] == "fail"

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
