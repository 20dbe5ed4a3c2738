"""Backend lowering: IR to compilable target source.

The portable lowering (target ``scalar``, and every ``sunway-simd``
machine) is written with GCC/Clang vector extensions: one vector type and
one ``__builtin_shufflevector`` macro per selector constant.  Its selectors
are lane-level, so 8-byte elements need no extra tables.  The intrinsic
targets (x86 AVX-512, ARM SVE) express every shuffle through 32-bit word
selectors, so 64-bit elements reuse the 32-bit instruction surface with
doubled index tables.  Emitted kernels are shape-specialized: the function
takes two raw buffer pointers and requires one vector width of writable
slack after each buffer (overhanging tail loads and rewrite-stores run into
the slack; the destination slack keeps its prior byte values).

Every lowering prefetches for writing: right after a loop body's last
address step, one ``__builtin_prefetch(dst + ..., 1)`` per destination line
the next body's first block will store to (a loop of one trip has none).
Prefetches change no result, so the IR, the VM and the op counts know
nothing of them.  ``__builtin_prefetch`` is a GCC/Clang builtin; the SVE and
Sunway output using it is unverified on an x86-64 host.
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
from .planner import walk_counter

__all__ = ["LoweringTable", "LOWERINGS", "kernel_name", "emit_source", "verify_native"]


@dataclass(frozen=True)
class LoweringTable:
    headers: tuple[str, ...]
    vector_type: str
    load: str        # templates with {ptr}, {dst}, {a}, {b} and constant id {tab}
    load_aligned: str
    store: str
    store_aligned: str
    shuf2: str
    shuf1: str
    table_load: str


LOWERINGS = {
    "x86-avx": {
        512: LoweringTable(
            headers=("immintrin.h",),
            vector_type="__m512i",
            load="{dst} = _mm512_loadu_epi32({ptr});",
            load_aligned="{dst} = _mm512_load_epi32({ptr});",
            store="_mm512_storeu_epi32({ptr}, {a});",
            store_aligned="_mm512_store_epi32({ptr}, {a});",
            shuf2="{dst} = _mm512_permutex2var_epi32({a}, t{tab}, {b});",
            shuf1="{dst} = _mm512_permutexvar_epi32(t{tab}, {a});",
            table_load="const __m512i {dst} = _mm512_loadu_epi32({ptr});",
        ),
        256: LoweringTable(
            headers=("immintrin.h",),
            vector_type="__m256i",
            load="{dst} = _mm256_loadu_epi32({ptr});",
            load_aligned="{dst} = _mm256_load_epi32({ptr});",
            store="_mm256_storeu_epi32({ptr}, {a});",
            store_aligned="_mm256_store_epi32({ptr}, {a});",
            shuf2="{dst} = _mm256_permutex2var_epi32({a}, t{tab}, {b});",
            shuf1="{dst} = _mm256_permutexvar_epi32(t{tab}, {a});",
            table_load="const __m256i {dst} = _mm256_loadu_epi32({ptr});",
        ),
        128: LoweringTable(
            headers=("immintrin.h",),
            vector_type="__m128i",
            load="{dst} = _mm_loadu_epi32({ptr});",
            load_aligned="{dst} = _mm_load_epi32({ptr});",
            store="_mm_storeu_epi32({ptr}, {a});",
            store_aligned="_mm_store_epi32({ptr}, {a});",
            shuf2="{dst} = _mm_permutex2var_epi32({a}, t{tab}, {b});",
            shuf1="{dst} = _mm_permutexvar_epi32(t{tab}, {a});",
            table_load="const __m128i {dst} = _mm_loadu_epi32({ptr});",
        ),
    },
    "arm-sve": {
        bits: LoweringTable(
            headers=("arm_sve.h",),
            vector_type="svuint32_t",
            load="{dst} = svld1_u32(vp_pg, {ptr});",
            load_aligned="{dst} = svld1_u32(vp_pg, {ptr});",
            store="svst1_u32(vp_pg, {ptr}, {a});",
            store_aligned="svst1_u32(vp_pg, {ptr}, {a});",
            shuf2="{dst} = svtbl2_u32(svcreate2_u32({a}, {b}), t{tab});",
            shuf1="{dst} = svtbl_u32({a}, t{tab});",
            table_load="const svuint32_t {dst} = svld1_u32(vp_pg, {ptr});",
        )
        for bits in (128, 256, 512)
    },
}

# The portable lowering: memcpy keeps loads and stores unaligned and
# aliasing-safe, and each selector constant c becomes the macro VP_SHUF<c>.
_PORTABLE = LoweringTable(
    headers=("string.h",),
    vector_type="vp_v",
    load="memcpy(&{dst}, {ptr}, sizeof(vp_v));",
    load_aligned="memcpy(&{dst}, {ptr}, sizeof(vp_v));",
    store="memcpy({ptr}, &{a}, sizeof(vp_v));",
    store_aligned="memcpy({ptr}, &{a}, sizeof(vp_v));",
    shuf2="{dst} = VP_SHUF{tab}({a}, {b});",
    shuf1="{dst} = VP_SHUF{tab}({a}, {a});",
    table_load="",
)

_SHUFFLEVECTOR_ERROR = '#error "vecperm portable kernels need GCC >= 12 or Clang"'
_SHUFFLEVECTOR_GUARD = (
    "#if defined(__has_builtin)",
    "#if !__has_builtin(__builtin_shufflevector)",
    _SHUFFLEVECTOR_ERROR,
    "#endif",
    "#else",
    _SHUFFLEVECTOR_ERROR,
    "#endif",
)


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


def _emit_portable(ir: IRProgram, target: str) -> str:
    w = ir.machine.lanes
    ew = ir.machine.elem_width
    out = [_header_comment(ir, f"{target} (portable vector-extension lowering)")]
    out.append("#include <stdint.h>")
    for h in _PORTABLE.headers:
        out.append(f"#include <{h}>")
    out.extend(_SHUFFLEVECTOR_GUARD)
    out.append(f"typedef uint{8 * ew}_t vp_elem_t;")
    out.append(f"typedef vp_elem_t vp_v __attribute__((vector_size({w * ew})));")
    for cid, lanes in ir.constants:
        sel = ", ".join(str(s) for s in lanes)
        out.append(f"#define VP_SHUF{cid}(a, b) __builtin_shufflevector(a, b, {sel})")
    return _emit_kernel(out, ir, _PORTABLE, "vp_elem_t", 1, [])


def _emit_simd(ir: IRProgram, target: str) -> str:
    machine = ir.machine
    table = LOWERINGS[target].get(machine.bit_width)
    if table is None:
        raise LayoutError(f"no lowering for target {target!r} at {machine.bit_width} bits")
    w = machine.lanes
    wpl = machine.elem_width // 4
    words = w * wpl
    out = [_header_comment(ir, target)]
    out.append("#include <stdint.h>")
    for h in table.headers:
        out.append(f"#include <{h}>")
    for cid, lanes in ir.constants:
        wordsel = _word_table(lanes, w, wpl)
        vals = ", ".join(str(x) for x in wordsel)
        out.append(f"static const uint32_t vp_tab{cid}[{len(wordsel)}] = {{{vals}}};")
    setup = []
    if target == "arm-sve":
        setup.append("const svbool_t vp_pg = svptrue_b32();")
        setup.append(f"if (svcntw() != {words}) __builtin_trap();")
    for cid, _ in ir.constants:
        setup.append(table.table_load.format(dst=f"t{cid}", ptr=f"vp_tab{cid}"))
    return _emit_kernel(out, ir, table, "uint32_t", wpl, setup)


def _emit_kernel(out, ir, table, word_t, wpl, setup):
    """Append the advance functions and the kernel to the preamble ``out``;
    ``src``/``dst`` are ``word_t`` pointers, ``wpl`` words per element."""
    for li, loop in enumerate(ir.loops):
        out.append(_advance_fn(loop, li))
    name = kernel_name(ir.layout, ir.pmap, ir.machine)
    out.append(f"void {name}(const void *src_v, void *dst_v) {{")
    out.append(f"    const {word_t} *src = (const {word_t} *)src_v;")
    out.append(f"    {word_t} *dst = ({word_t} *)dst_v;")
    out.extend("    " + line for line in setup)
    for li, loop in enumerate(ir.loops):
        out.extend(_emit_loop(loop, li, table, wpl, ir.machine.lanes))
    out.append("}")
    return "\n".join(out) + "\n"


def _emit_loop(loop, li, table, wpl, lanes):
    lines = []
    idx0, src0, dst0 = walk_counter(loop.digits, loop.ranges, loop.start)
    lines.append(f"    {{ /* loop {loop.name}: {loop.trips} iterations, unroll {loop.unroll} */")
    nd = max(len(loop.digits), 1)
    init = ", ".join(str(v) for v in idx0.tolist()) if loop.digits else "0"
    lines.append(f"        int64_t vp_i[{nd}] = {{{init}}};")
    lines.append(f"        int64_t vp_bs = {src0}, vp_bd = {dst0};")
    scalars = sorted({op.scalar for op in loop.body if isinstance(op, (Addr, VLoad, VStore))})
    for s in scalars:
        lines.append(f"        int64_t s{s}_s = 0, s{s}_d = 0;")
    regs = sorted({op.dst for op in loop.body if isinstance(op, (VLoad, VShuf, VSelfShuf))})
    if regs:
        lines.append("        " + table.vector_type + " " + ", ".join(f"v{r}" for r in regs) + ";")
    lines.append(f"        for (int64_t vp_it = 0; vp_it < {loop.trips}; ++vp_it) {{")
    # after the body's last Addr, vp_bd is the next body's first block base
    last_addr = max((i for i, op in enumerate(loop.body) if isinstance(op, Addr)), default=-1)
    prefetch = []
    if loop.trips > 1 and last_addr >= 0:
        prefetch = [
            f"            __builtin_prefetch({_ptr('dst', 'vp_bd', off, wpl)}, 1);"
            for off in _prefetch_offsets(loop, lanes)
        ]
    for i, op in enumerate(loop.body):
        lines.append("            " + _emit_op(op, li, table, wpl))
        if i == last_addr:
            lines.extend(prefetch)
    lines.append("        }")
    lines.append("    }")
    return lines


def _prefetch_offsets(loop: Loop, lanes: int) -> list[int]:
    """Element offsets, from a block's destination base, of the lines one
    block of ``loop`` stores to: each aligned store's offset, and the first
    and last element of each unaligned store (it may straddle two lines)."""
    first = next(op.scalar for op in loop.body if isinstance(op, Addr))
    offsets = set()
    for op in loop.body:
        if isinstance(op, VStore) and op.scalar == first:
            offsets.add(op.offset)
            if not op.aligned:
                offsets.add(op.offset + lanes - 1)
    return sorted(offsets)


def _ptr(buf: str, base: str, offset: int, wpl: int) -> str:
    if wpl > 1:
        return f"{buf} + ({base} + {offset}) * {wpl}"
    return f"{buf} + {base} + {offset}"


def _emit_op(op, li, table, wpl):
    if isinstance(op, Addr):
        return (
            f"s{op.scalar}_s = vp_bs; s{op.scalar}_d = vp_bd; "
            f"vp_adv_{li}(vp_i, &vp_bs, &vp_bd);"
        )
    if isinstance(op, VLoad):
        base = f"s{op.scalar}_d" if op.space == "dst" else f"s{op.scalar}_s"
        buf = "dst" if op.space == "dst" else "src"
        tmpl = table.load_aligned if op.aligned else table.load
        return tmpl.format(dst=f"v{op.dst}", ptr=_ptr(buf, base, op.offset, wpl))
    if isinstance(op, VStore):
        tmpl = table.store_aligned if op.aligned else table.store
        return tmpl.format(ptr=_ptr("dst", f"s{op.scalar}_d", op.offset, wpl), a=f"v{op.src}")
    if isinstance(op, VShuf):
        return table.shuf2.format(dst=f"v{op.dst}", a=f"v{op.a}", b=f"v{op.b}", tab=op.table)
    if isinstance(op, VSelfShuf):
        return table.shuf1.format(dst=f"v{op.dst}", a=f"v{op.a}", tab=op.table)
    raise LayoutError(f"no lowering template for op {op!r}")


def emit_source(ir: IRProgram, target: str | None = None) -> str:
    """Lower an IR program to target source text.

    ``target`` defaults to the program's ISA tag.  ``"scalar"`` emits the
    portable vector-extension kernel for any machine (GCC >= 12 or Clang);
    ``sunway-simd`` emits the same portable kernel under its own header,
    untested with Sunway's compiler or hardware; the ``abstract`` ISA emits
    the VM-loadable IR text form.  Unsupported combinations raise with the
    offending target named.
    """
    target = target or ir.machine.isa_tag
    if target == "abstract":
        return dump_ir(ir)
    if target in ("scalar", "sunway-simd"):
        return _emit_portable(ir, target)
    if target in LOWERINGS:
        return _emit_simd(ir, target)
    raise LayoutError(f"unsupported emission target {target!r}")


# ---------------------------------------------------------------------------
# native verification


# Both buffers start filled with this byte, so a write into either slack
# band of the destination shows in the bytes the harness writes back.
_SLACK_BYTE = 0xA5

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
    memset(src, {fill}, total);
    memset(dst, {fill}, total);
    FILE *f = fopen(argv[1], "rb");
    if (!f || fread(src + slack, 1, nbytes, f) != nbytes) return 4;
    fclose(f);
    {kernel}(src + slack, dst + slack);
    FILE *g = fopen(argv[2], "wb");
    if (!g || fwrite(dst, 1, nbytes + 2 * slack, g) != nbytes + 2 * slack) return 5;
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
    harness = _HARNESS.format(kernel=kernel, nbytes=nbytes, slack=slack, fill=_SLACK_BYTE)

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
            raw = np.fromfile(outp, dtype=np.uint8)
            for side, band in (("before", raw[:slack]), ("after", raw[slack + nbytes:])):
                if (band != _SLACK_BYTE).any():
                    return {
                        "status": "fail",
                        "reason": f"destination slack {side} the data written on case {case}",
                        "cases": case,
                    }
            got = raw[slack : slack + nbytes].view(layout.dtype)
            want = naive_permute(data, layout, pmap)
            if not np.array_equal(got, want):
                return {
                    "status": "fail",
                    "reason": f"bitwise mismatch on case {case}",
                    "cases": case,
                }
    return {"status": "pass", "cases": cases}
