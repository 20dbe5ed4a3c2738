"""Backend lowering: IR to compilable target source.

Every shuffle is expressed through 32-bit word selectors, so 64-bit
elements reuse the 32-bit instruction surface with doubled index tables.
Emitted kernels are shape-specialized: the function takes two raw buffer
pointers and requires one vector width of writable slack after each buffer
(overhanging tail loads and rewrite-stores run into the slack; the
destination slack keeps its prior byte values).
"""

from __future__ import annotations

import os
import platform
import re
import shutil
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import LayoutError, PermutationMap, TensorLayout, naive_permute, random_elements
from .ir import Addr, IRProgram, Loop, VLoad, VSelfShuf, VShuf, VStore, dump_ir
from .machine import MachineConfig

__all__ = ["LoweringTable", "LOWERINGS", "kernel_name", "emit_source", "verify_native"]


@dataclass(frozen=True)
class LoweringTable:
    isa_tag: str
    headers: tuple[str, ...]
    vector_type: str
    load: str        # templates with {ptr}, {dst}, {a}, {b}, {tab}
    load_aligned: str
    store: str
    store_aligned: str
    shuf2: str
    shuf1: str
    table_load: str
    experimental: bool = False


LOWERINGS = {
    "x86-avx": {
        512: LoweringTable(
            isa_tag="x86-avx",
            headers=("immintrin.h",),
            vector_type="__m512i",
            load="{dst} = _mm512_loadu_epi32({ptr});",
            load_aligned="{dst} = _mm512_load_epi32({ptr});",
            store="_mm512_storeu_epi32({ptr}, {a});",
            store_aligned="_mm512_store_epi32({ptr}, {a});",
            shuf2="{dst} = _mm512_permutex2var_epi32({a}, {tab}, {b});",
            shuf1="{dst} = _mm512_permutexvar_epi32({tab}, {a});",
            table_load="const __m512i {dst} = _mm512_loadu_epi32({ptr});",
        ),
        256: LoweringTable(
            isa_tag="x86-avx",
            headers=("immintrin.h",),
            vector_type="__m256i",
            load="{dst} = _mm256_loadu_epi32({ptr});",
            load_aligned="{dst} = _mm256_load_epi32({ptr});",
            store="_mm256_storeu_epi32({ptr}, {a});",
            store_aligned="_mm256_store_epi32({ptr}, {a});",
            shuf2="{dst} = _mm256_permutex2var_epi32({a}, {tab}, {b});",
            shuf1="{dst} = _mm256_permutexvar_epi32({tab}, {a});",
            table_load="const __m256i {dst} = _mm256_loadu_epi32({ptr});",
        ),
        128: LoweringTable(
            isa_tag="x86-avx",
            headers=("immintrin.h",),
            vector_type="__m128i",
            load="{dst} = _mm_loadu_epi32({ptr});",
            load_aligned="{dst} = _mm_load_epi32({ptr});",
            store="_mm_storeu_epi32({ptr}, {a});",
            store_aligned="_mm_store_epi32({ptr}, {a});",
            shuf2="{dst} = _mm_permutex2var_epi32({a}, {tab}, {b});",
            shuf1="{dst} = _mm_permutexvar_epi32({tab}, {a});",
            table_load="const __m128i {dst} = _mm_loadu_epi32({ptr});",
        ),
    },
    "arm-sve": {
        bits: LoweringTable(
            isa_tag="arm-sve",
            headers=("arm_sve.h",),
            vector_type="svuint32_t",
            load="{dst} = svld1_u32(vp_pg, {ptr});",
            load_aligned="{dst} = svld1_u32(vp_pg, {ptr});",
            store="svst1_u32(vp_pg, {ptr}, {a});",
            store_aligned="svst1_u32(vp_pg, {ptr}, {a});",
            shuf2="{dst} = svtbl2_u32(svcreate2_u32({a}, {b}), {tab});",
            shuf1="{dst} = svtbl_u32({a}, {tab});",
            table_load="const svuint32_t {dst} = svld1_u32(vp_pg, {ptr});",
        )
        for bits in (128, 256, 512)
    },
    "sunway-simd": {
        bits: LoweringTable(
            isa_tag="sunway-simd",
            headers=(),
            vector_type="vp_vec_t",
            load="{dst} = VP_SIMD_LOADU({ptr});",
            load_aligned="{dst} = VP_SIMD_LOAD({ptr});",
            store="VP_SIMD_STOREU({ptr}, {a});",
            store_aligned="VP_SIMD_STORE({ptr}, {a});",
            shuf2="{dst} = VP_SIMD_SHUFFLE({a}, {b}, {tab});",
            shuf1="{dst} = VP_SIMD_SELF_SHUFFLE({a}, {tab});",
            table_load="const uint32_t *{dst} = {ptr};",
            experimental=True,
        )
        for bits in (256, 512)
    },
}


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def kernel_name(layout: TensorLayout, pmap: PermutationMap, machine: MachineConfig) -> str:
    key = f"{layout.dims}|{pmap.sigma}|{machine.isa_tag}|{machine.bit_width}|{machine.elem_width}"
    return f"permute_{_fnv1a64(key):016x}"


def _word_table(lanes: tuple[int, ...], w: int, wpl: int) -> list[int]:
    """Expand lane selectors to 32-bit word selectors (wpl words per lane)."""
    out = []
    for s in lanes:
        base = (s % w) * wpl + (w * wpl if s >= w else 0)
        out.extend(base + t for t in range(wpl))
    return out


def _advance_fn(loop: Loop, idx: int) -> str:
    lines = [f"static void vp_adv_{idx}(int64_t *i, int64_t *bs, int64_t *bd) {{"]
    for d, (dg, (lo, hi)) in enumerate(zip(loop.digits, loop.ranges)):
        span = hi - lo
        lines.append(
            f"    if (++i[{d}] < {hi}) {{ *bs += {dg.src_stride}; *bd += {dg.dst_stride}; return; }}"
        )
        lines.append(
            f"    i[{d}] = {lo}; *bs -= {dg.src_stride * (span - 1)}; *bd -= {dg.dst_stride * (span - 1)};"
        )
    if not loop.digits:
        lines.append("    (void)i; (void)bs; (void)bd;")
    lines.append("}")
    return "\n".join(lines)


def _loop_entry(loop: Loop) -> tuple[list[int], int, int]:
    idx = []
    src = 0
    dst = 0
    rem = loop.start
    for dg, (lo, hi) in zip(loop.digits, loop.ranges):
        span = hi - lo
        pos = lo + rem % span
        rem //= span
        idx.append(pos)
        src += dg.src_stride * pos
        dst += dg.dst_stride * pos
    return idx, src, dst


def _header_comment(ir: IRProgram, target: str) -> str:
    m = ir.machine
    meta = ir.metadata
    return "\n".join(
        [
            "/* generated vector permutation kernel",
            f" * target: {target}  width: {m.bit_width} bits  elem: {m.elem_width} B  lanes: {m.lanes}",
            f" * shape (inner-first): {ir.layout.dims}  map (inner-first): {ir.pmap.sigma}",
            f" * shuffle steps: {meta.get('shuffle_steps', '?')}"
            f"  block registers: {meta.get('block_registers', '?')}"
            f"  utilization: {meta.get('utilization', '?')}",
            " * buffers need one vector width of writable slack past the data;",
            " * aligned accesses, when present, assume vector-aligned buffer bases",
            " */",
        ]
    )


def _emit_scalar(ir: IRProgram, machine: MachineConfig) -> str:
    w = machine.lanes
    ew = machine.elem_width
    name = kernel_name(ir.layout, ir.pmap, machine)
    elem_t = "uint32_t" if ew == 4 else "uint64_t"
    out = [_header_comment(ir, "scalar")]
    out.append("#include <stdint.h>")
    out.append("#include <string.h>")
    out.append(f"typedef {elem_t} vp_elem_t;")
    for cid, lanes in ir.constants:
        vals = ", ".join(str(s) for s in lanes)
        out.append(f"static const int vp_tab{cid}[{w}] = {{{vals}}};")
    for li, loop in enumerate(ir.loops):
        out.append(_advance_fn(loop, li))
    out.append(f"void {name}(const void *src_v, void *dst_v) {{")
    out.append("    const vp_elem_t *src = (const vp_elem_t *)src_v;")
    out.append("    vp_elem_t *dst = (vp_elem_t *)dst_v;")
    for li, loop in enumerate(ir.loops):
        out.extend(_emit_loop(ir, loop, li, machine, None, wpl=1))
    out.append("}")
    return "\n".join(out) + "\n"


def _emit_simd(ir: IRProgram, machine: MachineConfig) -> str:
    table = LOWERINGS.get(machine.isa_tag, {}).get(machine.bit_width)
    if table is None:
        raise LayoutError(f"no lowering for isa {machine.isa_tag!r} at {machine.bit_width} bits")
    w = machine.lanes
    wpl = machine.elem_width // 4
    words = w * wpl
    name = kernel_name(ir.layout, ir.pmap, machine)
    out = [_header_comment(ir, machine.isa_tag)]
    out.append("#include <stdint.h>")
    for h in table.headers:
        out.append(f"#include <{h}>")
    if table.experimental:
        out.append(
            "/* experimental stub lowering: the platform's shuffle, move and\n"
            " * load primitives are not public; the macros below are reference\n"
            " * placeholders to be mapped onto the vendor kit */"
        )
        out.append(f"typedef struct {{ uint32_t q[{words}]; }} vp_vec_t;")
        out.append(
            f"static vp_vec_t vp_shuf_ref(vp_vec_t a, vp_vec_t b, const uint32_t *t) {{\n"
            f"    vp_vec_t r;\n"
            f"    for (int k = 0; k < {words}; ++k)\n"
            f"        r.q[k] = t[k] < {words} ? a.q[t[k]] : b.q[t[k] - {words}];\n"
            f"    return r;\n"
            f"}}"
        )
        out.append("#define VP_SIMD_LOADU(p) (*(const vp_vec_t *)(p))")
        out.append("#define VP_SIMD_LOAD(p) (*(const vp_vec_t *)(p))")
        out.append("#define VP_SIMD_STOREU(p, v) (*(vp_vec_t *)(p) = (v))")
        out.append("#define VP_SIMD_STORE(p, v) (*(vp_vec_t *)(p) = (v))")
        out.append("#define VP_SIMD_SHUFFLE(a, b, t) vp_shuf_ref((a), (b), (t))")
        out.append("#define VP_SIMD_SELF_SHUFFLE(a, t) vp_shuf_ref((a), (a), (t))")
    for cid, lanes in ir.constants:
        wordsel = _word_table(lanes, w, wpl)
        vals = ", ".join(str(x) for x in wordsel)
        out.append(f"static const uint32_t vp_tab{cid}[{len(wordsel)}] = {{{vals}}};")
    for li, loop in enumerate(ir.loops):
        out.append(_advance_fn(loop, li))
    out.append(f"void {name}(const void *src_v, void *dst_v) {{")
    out.append("    const uint32_t *src = (const uint32_t *)src_v;")
    out.append("    uint32_t *dst = (uint32_t *)dst_v;")
    if machine.isa_tag == "arm-sve":
        out.append("    const svbool_t vp_pg = svptrue_b32();")
        out.append(f"    if (svcntw() != {words}) __builtin_trap();")
    if table.experimental:
        for cid, _ in ir.constants:
            out.append(f"    const uint32_t *t{cid} = vp_tab{cid};")
    else:
        for cid, _ in ir.constants:
            out.append("    " + table.table_load.format(dst=f"t{cid}", ptr=f"vp_tab{cid}"))
    for li, loop in enumerate(ir.loops):
        out.extend(_emit_loop(ir, loop, li, machine, table, wpl=wpl))
    out.append("}")
    return "\n".join(out) + "\n"


def _emit_loop(ir, loop, li, machine, table, wpl):
    w = machine.lanes
    lines = []
    idx0, src0, dst0 = _loop_entry(loop)
    lines.append(f"    {{ /* loop {loop.name}: {loop.trips} iterations, unroll {loop.unroll} */")
    nd = max(len(loop.digits), 1)
    init = ", ".join(str(v) for v in idx0) if loop.digits else "0"
    lines.append(f"        int64_t vp_i[{nd}] = {{{init}}};")
    lines.append(f"        int64_t vp_bs = {src0}, vp_bd = {dst0};")
    scalars = sorted({op.scalar for op in loop.body if isinstance(op, (Addr, VLoad, VStore))})
    for s in scalars:
        lines.append(f"        int64_t s{s}_s = 0, s{s}_d = 0;")
    regs = sorted({op.dst for op in loop.body if isinstance(op, (VLoad, VShuf, VSelfShuf))})
    if regs:
        if table is None:
            for r in regs:
                lines.append(f"        vp_elem_t v{r}[{w}];")
        else:
            lines.append("        " + table.vector_type + " " + ", ".join(f"v{r}" for r in regs) + ";")
    lines.append(f"        for (int64_t vp_it = 0; vp_it < {loop.trips}; ++vp_it) {{")
    for op in loop.body:
        lines.extend(_emit_op(op, li, table, w, wpl))
    lines.append("        }")
    lines.append("    }")
    return lines


def _ptr(buf: str, base: str, offset: int, wpl: int) -> str:
    if wpl > 1:
        return f"{buf} + ({base} + {offset}) * {wpl}"
    return f"{buf} + {base} + {offset}"


def _emit_op(op, li, table, w, wpl):
    pad = "            "
    if isinstance(op, Addr):
        return [
            f"{pad}s{op.scalar}_s = vp_bs; s{op.scalar}_d = vp_bd; "
            f"vp_adv_{li}(vp_i, &vp_bs, &vp_bd);"
        ]
    if isinstance(op, VLoad):
        base = f"s{op.scalar}_d" if op.space == "dst" else f"s{op.scalar}_s"
        buf = "dst" if op.space == "dst" else "src"
        ptr = _ptr(buf, base, op.offset, wpl)
        if table is None:
            return [f"{pad}memcpy(v{op.dst}, {ptr}, sizeof(v{op.dst}));"]
        tmpl = table.load_aligned if op.aligned else table.load
        return [pad + tmpl.format(dst=f"v{op.dst}", ptr=ptr)]
    if isinstance(op, VStore):
        ptr = _ptr("dst", f"s{op.scalar}_d", op.offset, wpl)
        if table is None:
            return [f"{pad}memcpy({ptr}, v{op.src}, sizeof(v{op.src}));"]
        tmpl = table.store_aligned if op.aligned else table.store
        return [pad + tmpl.format(ptr=ptr, a=f"v{op.src}")]
    if isinstance(op, VShuf):
        if table is None:
            return [
                f"{pad}{{ vp_elem_t vp_t[{w}]; int k; for (k = 0; k < {w}; ++k) "
                f"vp_t[k] = vp_tab{op.table}[k] < {w} ? v{op.a}[vp_tab{op.table}[k]] "
                f": v{op.b}[vp_tab{op.table}[k] - {w}]; "
                f"memcpy(v{op.dst}, vp_t, sizeof(vp_t)); }}"
            ]
        return [pad + table.shuf2.format(dst=f"v{op.dst}", a=f"v{op.a}", b=f"v{op.b}", tab=f"t{op.table}")]
    if isinstance(op, VSelfShuf):
        if table is None:
            return [
                f"{pad}{{ vp_elem_t vp_t[{w}]; int k; for (k = 0; k < {w}; ++k) "
                f"vp_t[k] = v{op.a}[vp_tab{op.table}[k]]; "
                f"memcpy(v{op.dst}, vp_t, sizeof(vp_t)); }}"
            ]
        return [pad + table.shuf1.format(dst=f"v{op.dst}", a=f"v{op.a}", tab=f"t{op.table}")]
    raise LayoutError(f"no lowering template for op {op!r}")


def emit_source(
    ir: IRProgram, machine: MachineConfig | None = None, target: str | None = None
) -> str:
    """Lower an IR program to target source text.

    ``target`` defaults to the machine's ISA tag.  ``"scalar"`` emits a
    portable plain-C kernel for any machine; the ``abstract`` ISA emits the
    VM-loadable IR text form.  Unsupported combinations raise with the
    offending target named.
    """
    machine = machine or ir.machine
    if machine.lanes != ir.machine.lanes:
        raise LayoutError("emission machine lane count differs from the program's")
    target = target or machine.isa_tag
    if target == "abstract":
        return dump_ir(ir)
    if target == "scalar":
        return _emit_scalar(ir, machine)
    if target in LOWERINGS:
        return _emit_simd(ir, machine)
    raise LayoutError(f"unsupported emission target {target!r}")


# ---------------------------------------------------------------------------
# native verification


_HARNESS = """
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void {kernel}(const void *src, void *dst);

int main(int argc, char **argv) {{
    if (argc != 3) return 2;
    size_t nbytes = {nbytes};
    size_t slack = {slack};
    size_t total = (nbytes + 2 * slack + 63) / 64 * 64;
    unsigned char *src = aligned_alloc(64, total);
    unsigned char *dst = aligned_alloc(64, total);
    if (!src || !dst) return 3;
    memset(src, 0, total);
    memset(dst, 0, total);
    FILE *f = fopen(argv[1], "rb");
    if (!f || fread(src + slack, 1, nbytes, f) != nbytes) return 4;
    fclose(f);
    {kernel}(src + slack, dst + slack);
    FILE *g = fopen(argv[2], "wb");
    if (!g || fwrite(dst + slack, 1, nbytes, g) != nbytes) return 5;
    fclose(g);
    return 0;
}}
"""


def _find_cc() -> str | None:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def _toolchain_for(target: str, machine: MachineConfig) -> tuple[str, list[str]] | str:
    """Compiler command and flags, or a skip reason."""
    cc = _find_cc()
    if cc is None:
        return "no C compiler on PATH"
    if target == "scalar":
        return cc, ["-O2"]
    if target == "x86-avx":
        if platform.machine() not in ("x86_64", "amd64"):
            return "host is not x86-64"
        flags = _cpu_flags()
        need = {"avx512f"} if machine.bit_width == 512 else {"avx512f", "avx512vl"}
        missing = need - flags
        if missing:
            return "host CPU lacks " + " ".join(sorted(missing))
        opts = ["-O2", "-mavx512f"]
        if machine.bit_width != 512:
            opts.append("-mavx512vl")
        return cc, opts
    if target == "arm-sve":
        if platform.machine() != "aarch64":
            return "host is not aarch64"
        return cc, ["-O2", "-march=armv8-a+sve2"]
    return f"no native execution path for target {target!r}"


def verify_native(
    source: str,
    layout: TensorLayout,
    pmap: PermutationMap,
    machine: MachineConfig,
    target: str | None = None,
    cases: int = 20,
    seed: int = 0,
) -> dict:
    """Compile and run an emitted kernel against the scalar reference.

    Returns {'status': 'pass' | 'fail' | 'skipped', ...}; a missing
    toolchain or mismatched hardware degrades to skipped, never failure.
    """
    target = target or machine.isa_tag
    tc = _toolchain_for(target, machine)
    if isinstance(tc, str):
        return {"status": "skipped", "reason": tc, "cases": 0}
    cc, flags = tc

    m = re.search(r"permute_[0-9a-f]{16}", source)
    if not m:
        return {"status": "fail", "reason": "no kernel symbol in source", "cases": 0}
    kernel = m.group(0)
    n = layout.num_elements
    nbytes = n * layout.elem_width
    slack = machine.lanes * layout.elem_width
    harness = _HARNESS.format(kernel=kernel, nbytes=nbytes, slack=slack)

    with tempfile.TemporaryDirectory(prefix="vecperm-native-") as td:
        ksrc = os.path.join(td, "kernel.c")
        hsrc = os.path.join(td, "main.c")
        exe = os.path.join(td, "kernel")
        with open(ksrc, "w") as f:
            f.write(source)
        with open(hsrc, "w") as f:
            f.write(harness)
        proc = subprocess.run(
            [cc, *flags, ksrc, hsrc, "-o", exe], capture_output=True, text=True
        )
        if proc.returncode != 0:
            return {
                "status": "fail",
                "reason": "compile error",
                "diagnostics": proc.stderr[-4000:],
                "cases": 0,
            }
        rng = np.random.default_rng(seed)
        for case in range(cases):
            data = random_elements(rng, layout)
            inp = os.path.join(td, "in.bin")
            outp = os.path.join(td, "out.bin")
            with open(inp, "wb") as f:
                f.write(data.tobytes())
            r = subprocess.run([exe, inp, outp], capture_output=True, text=True, timeout=120)
            if r.returncode != 0:
                return {
                    "status": "fail",
                    "reason": f"runtime exit {r.returncode} on case {case}",
                    "cases": case,
                }
            got = np.fromfile(outp, dtype=layout.dtype)
            want = naive_permute(data, layout, pmap)
            if not np.array_equal(got, want):
                return {
                    "status": "fail",
                    "reason": f"bitwise mismatch on case {case}",
                    "cases": case,
                }
    return {"status": "pass", "cases": cases}
