"""Backend lowering: IR to compilable target source.

The portable lowering (target ``scalar``, and every ``sunway-simd``
machine) is written with GCC/Clang vector extensions.  Each register of w
lanes is emitted as w / L parts of 16 bytes, L = 16 / element width lanes
each (a register of 16 bytes or less is one part): 16 bytes is the SSE2
and NEON baseline, so a plain ``-O2`` build maps each part shuffle to
native shuffles instead of moving single elements through the stack.  Each
selector constant becomes one ``VP_SHUF<c>(d, a, b)`` macro that builds
every output part from the input parts it draws lanes from: a whole part
in order is a copy, one or two parts take one two-source
``__builtin_shufflevector``, more parts a chain of them.  The selectors
stay lane-level, so 8-byte elements need no extra tables.  The intrinsic
targets (x86 AVX-512, ARM SVE) express every shuffle through 32-bit word
selectors, so 64-bit elements reuse the 32-bit instruction surface with
doubled index tables.  Emitted kernels are shape-specialized: the function
takes two raw buffer pointers and requires one vector width of writable
slack after each buffer (overhanging tail loads and rewrite-stores run into
the slack; the destination slack keeps its prior byte values).

Every lowering prefetches for writing: right after a loop body's address
step, its op 0, one ``__builtin_prefetch(dst + ..., 1)`` per destination
line the next trip's block will store to (a loop of one trip has none).
The address step keeps the trip's block bases in ``s0_s`` and ``s0_d``.
Prefetches change no result, so the IR, the VM and the op counts know
nothing of them.  ``__builtin_prefetch`` is a GCC/Clang builtin; the SVE and
Sunway output using it is unverified on an x86-64 host.
"""

from __future__ import annotations

import functools
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
    declarator: str = "{r}"  # one register's name(s) in a declaration


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
            # AVX-512VL has no 128-bit permutexvar: read the one source twice
            shuf1="{dst} = _mm_permutex2var_epi32({a}, t{tab}, {a});",
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

# Bytes per part of a portable register: the SSE2 and NEON baseline, whose
# shuffles a plain -O2 build can map a 16-byte __builtin_shufflevector to.
_PART_BYTES = 16

# The portable lowering: each register is emitted as _PART_BYTES-wide parts,
# macros spell every op over the parts (VP_LOAD, VP_STORE, and VP_SHUF<c>
# for each selector constant c), and memcpy keeps loads and stores
# unaligned and aliasing-safe.
_PORTABLE = LoweringTable(
    headers=("string.h",),
    vector_type="vp_v",
    load="VP_LOAD({dst}, {ptr});",
    load_aligned="VP_LOAD({dst}, {ptr});",
    store="VP_STORE({ptr}, {a});",
    store_aligned="VP_STORE({ptr}, {a});",
    shuf2="VP_SHUF{tab}({dst}, {a}, {b});",
    shuf1="VP_SHUF{tab}({dst}, {a}, {a});",
    table_load="",
    declarator="VP_REG({r})",
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
    part = min(w, _PART_BYTES // ew)
    parts = range(w // part)
    out.append(f"typedef uint{8 * ew}_t vp_elem_t;")
    # "unused": a register part that no later op reads is set but not used
    out.append(f"typedef vp_elem_t vp_v __attribute__((vector_size({part * ew}), unused));")
    out.append("#define VP_REG(r) " + ", ".join(f"r##_{k}" for k in parts))
    loads = " ".join(f"memcpy(&d##_{k}, (p) + {k * part}, sizeof(vp_v));" for k in parts)
    out.append(f"#define VP_LOAD(d, p) do {{ {loads} }} while (0)")
    # a store gathers the parts and writes them with one memcpy: per-part
    # stores of parts loaded unshuffled fold into 16-byte integer copies,
    # which GCC's SLP vectorizer takes up to a second to analyze
    gather = ", ".join(f"s##_{k}" for k in parts)
    out.append(f"#define VP_STORE(p, s) do {{ vp_v vp_s[{len(parts)}] = {{{gather}}}; "
               "memcpy((p), vp_s, sizeof(vp_s)); } while (0)")
    for cid, lanes in ir.constants:
        out.append(f"#define VP_SHUF{cid}(d, a, b) do {{ {_part_shuffle(lanes, part)} }} while (0)")
    return _emit_kernel(out, ir, _PORTABLE, "vp_elem_t", 1, [])


@functools.lru_cache(maxsize=1024)
def _part_shuffle(lanes: tuple[int, ...], part: int) -> str:
    """The body of one selector's VP_SHUF macro: every output part of ``d``
    is built in a temporary from the input parts it draws lanes from (a
    whole part in order is a copy; otherwise a chain of two-source
    shuffles), and only then assigned, since ``d`` may be ``a`` or ``b``.
    Cached: programs share few distinct selectors."""
    n = len(lanes) // part

    def name(g):
        return f"a##_{g}" if g < n else f"b##_{g - n}"

    temps = []
    for k in range(n):
        sel = lanes[k * part:(k + 1) * part]
        srcs = sorted({s // part for s in sel})
        if sel == tuple(range(srcs[0] * part, (srcs[0] + 1) * part)):
            temps.append(f"vp_v vp_t{k} = {name(srcs[0])};")
            continue
        # the first shuffle reads parts srcs[0] and srcs[1] (srcs[0] twice
        # when it is the only one); each later one keeps the lanes placed
        # so far and brings in the next part's; a lane still to come is
        # filled from the first operand
        acc = name(srcs[0])
        for step, g in enumerate(srcs[1:] or srcs):
            idx = [
                s % part if step == 0 and s // part == srcs[0]
                else part + s % part if s // part == g
                else j
                for j, s in enumerate(sel)
            ]
            shuf = f"__builtin_shufflevector({acc}, {name(g)}, {', '.join(map(str, idx))})"
            temps.append(f"vp_v vp_t{k} = {shuf};" if step == 0 else f"vp_t{k} = {shuf};")
            acc = f"vp_t{k}"
    assigns = " ".join(f"d##_{k} = vp_t{k};" for k in range(n))
    return " ".join(temps) + " " + assigns


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
    idx0, src0, dst0 = walk_counter(loop.digits, loop.ranges, 0)
    lines.append(f"    {{ /* loop {loop.name}: {loop.trips} iterations, unroll {loop.unroll} */")
    nd = max(len(loop.digits), 1)
    init = ", ".join(str(v) for v in idx0.tolist()) if loop.digits else "0"
    lines.append(f"        int64_t vp_i[{nd}] = {{{init}}};")
    lines.append(f"        int64_t vp_bs = {src0}, vp_bd = {dst0};")
    lines.append("        int64_t s0_s = 0, s0_d = 0;")
    regs = sorted({op.dst for op in loop.body if isinstance(op, (VLoad, VShuf, VSelfShuf))})
    if regs:
        names = ", ".join(table.declarator.format(r=f"v{r}") for r in regs)
        lines.append(f"        {table.vector_type} {names};")
    lines.append(f"        for (int64_t vp_it = 0; vp_it < {loop.trips}; ++vp_it) {{")
    addr, *ops = loop.body
    lines.append("            " + _emit_op(addr, li, table, wpl))
    # after the Addr op, vp_bd is the next trip's block base
    if loop.trips > 1:
        lines.extend(
            f"            __builtin_prefetch({_ptr('dst', 'vp_bd', off, wpl)}, 1);"
            for off in _prefetch_offsets(loop, lanes)
        )
    lines.extend("            " + _emit_op(op, li, table, wpl) for op in ops)
    lines.append("        }")
    lines.append("    }")
    return lines


def _prefetch_offsets(loop: Loop, lanes: int) -> list[int]:
    """Element offsets, from a block's destination base, of the lines one
    block of ``loop`` stores to: each aligned store's offset, and the first
    and last element of each unaligned store (it may straddle two lines)."""
    offsets = set()
    for op in loop.body:
        if isinstance(op, VStore):
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
        return f"s0_s = vp_bs; s0_d = vp_bd; vp_adv_{li}(vp_i, &vp_bs, &vp_bd);"
    if isinstance(op, VLoad):
        buf, base = ("dst", "s0_d") if op.space == "dst" else ("src", "s0_s")
        tmpl = table.load_aligned if op.aligned else table.load
        return tmpl.format(dst=f"v{op.dst}", ptr=_ptr(buf, base, op.offset, wpl))
    if isinstance(op, VStore):
        tmpl = table.store_aligned if op.aligned else table.store
        return tmpl.format(ptr=_ptr("dst", "s0_d", op.offset, wpl), a=f"v{op.src}")
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
