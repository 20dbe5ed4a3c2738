"""Backend lowering: IR to compilable target source.

The portable lowering (target ``scalar``, and every ``sunway-simd``
machine) is written with GCC/Clang vector extensions at the level of
16-byte parts: a register of w lanes is w / L parts of L = 16 / element
width lanes (a register of 16 bytes or less is one part).  16 bytes is
the SSE2 and NEON baseline, so a plain ``-O2`` build maps each part
shuffle to native shuffles.  Each loop body is emitted in SSA form: one
``vp_v x<i>`` statement per load part and per shuffle part, one ``vp_st``
per store part.  A selector output part that is a whole input part in
order is a rename and emits nothing; one drawn from one or two parts is a
two-source ``__builtin_shufflevector``, and from more parts a chain of
them.  The selectors stay lane-level, so 8-byte elements need no extra
tables.  Statements join connected components (a shuffle joins the parts
it reads, a store the part it writes, destination accesses with
overlapping part ranges each other); components without a store are
dropped, and each of the others is emitted whole, in IR order, in the
order of its first store.  A component is a few parts wide, so the
compiler keeps its parts in registers where a whole block of 16 registers
would not fit SSE2's 16 ``xmm`` registers; first-store order writes each
destination line's parts close together.

The intrinsic targets (x86 AVX-512, ARM SVE) emit one statement per IR op
and express every shuffle through 32-bit word selectors, so 64-bit
elements reuse the 32-bit instruction surface with doubled index tables.
Both lowerings share one loop skeleton.  Emitted kernels are
shape-specialized: the function takes two raw buffer pointers and
requires one vector width of writable slack after each buffer (overhanging
tail loads and rewrite-stores run into the slack; the destination slack
keeps its prior byte values).

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
from .ir import IRProgram, Loop, VLoad, VSelfShuf, VShuf, VStore, dump_ir
from .machine import MachineConfig

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

# memcpy keeps part loads and stores unaligned and aliasing-safe
_PART_ACCESS = (
    "static inline vp_v vp_ld(const vp_elem_t *p) { vp_v v; memcpy(&v, p, sizeof v); return v; }",
    "static inline void vp_st(vp_elem_t *p, vp_v v) { memcpy(p, &v, sizeof v); }",
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
    part = min(w, _PART_BYTES // ew)
    out = [_header_comment(ir, f"{target} (portable vector-extension lowering)")]
    out.append("#include <stdint.h>")
    out.append("#include <string.h>")
    out.extend(_SHUFFLEVECTOR_GUARD)
    out.append(f"typedef uint{8 * ew}_t vp_elem_t;")
    out.append(f"typedef vp_elem_t vp_v __attribute__((vector_size({part * ew})));")
    out.extend(_PART_ACCESS)
    plans = {cid: _part_plan(lanes, part) for cid, lanes in ir.constants}
    return _emit_kernel(out, ir, "vp_elem_t", 1, [],
                        lambda loop: ([], _part_body(loop, plans, w // part, part)))


def _part_body(loop: Loop, plans: dict, n: int, part: int) -> list[str]:
    """The statements of one loop body at the part level, ops after the
    ADDR op: one SSA value ``x<i>`` per load part and per shuffle part, one
    ``vp_st`` per store part, and whole-part copies as renames that emit
    nothing.  Statements no store depends on are dropped.  The rest join
    components: a shuffle joins the parts it reads, a store the part it
    writes, and destination accesses whose part ranges overlap join each
    other.  Each component is emitted whole in IR order, components in the
    order of their first store.  That keeps every dependency: distinct
    components share no value and no destination bytes, and the source is
    read-only.  ``plans`` maps each constant id to its ``_part_plan``."""
    lines: list[str] = []
    reads: list[tuple[int, ...]] = []  # a value is the index of its statement
    dst_ops: list[tuple[int, int]] = []  # (part offset, statement) of destination accesses
    stores: list[int] = []
    regs: dict[int, tuple[int, ...]] = {}
    for op in loop.body[1:]:
        if isinstance(op, VLoad):
            first = len(lines)
            ptr = "dst + s0_d + " if op.space == "dst" else "src + s0_s + "
            for k in range(n):
                off = op.offset + k * part
                if op.space == "dst":
                    dst_ops.append((off, first + k))
                lines.append(f"vp_v x{first + k} = vp_ld({ptr}{off});")
                reads.append(())
            regs[op.dst] = tuple(range(first, first + n))
        elif isinstance(op, VStore):
            for k, v in enumerate(regs[op.src]):
                off = op.offset + k * part
                stores.append(len(lines))
                dst_ops.append((off, len(lines)))
                lines.append(f"vp_st(dst + s0_d + {off}, x{v});")
                reads.append((v,))
        elif isinstance(op, (VShuf, VSelfShuf)):
            ins = regs[op.a] + regs[op.b if isinstance(op, VShuf) else op.a]
            vals = []
            for plan in plans[op.table]:
                if isinstance(plan, int):
                    vals.append(ins[plan])
                    continue
                acc = None
                for g, h, idx in plan:
                    a = ins[g] if acc is None else acc
                    acc = len(lines)
                    lines.append(f"vp_v x{acc} = __builtin_shufflevector(x{a}, x{ins[h]}, {idx});")
                    reads.append((a, ins[h]))
                vals.append(acc)
            regs[op.dst] = tuple(vals)
        else:
            raise LayoutError(f"no lowering template for op {op!r}")

    # Label each statement with the stores that depend on it, backwards: a
    # store's label is its place among the stores, and a statement two
    # labels reach joins them (a union-find whose root is the smallest
    # label, so a component's root label is its first store's).
    label = [-1] * len(lines)
    for c, i in enumerate(stores):
        label[i] = c
    parent = list(range(len(stores)))

    def root(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def join(c, d):
        c, d = root(c), root(d)
        if c != d:
            parent[max(c, d)] = min(c, d)

    for i in range(len(lines) - 1, -1, -1):
        c = label[i]
        if c >= 0:
            for r in reads[i]:
                if label[r] < 0:
                    label[r] = c
                elif label[r] != c:
                    join(label[r], c)
    # overlapping part ranges are neighbours in offset order
    prev_off, prev = None, -1
    for off, i in sorted(dst_ops):
        if label[i] < 0:
            continue
        if prev >= 0 and off - prev_off < part:
            join(prev, label[i])
        prev_off, prev = off, label[i]
    roots = [root(c) for c in range(len(stores))]
    components: list[list[str]] = [[] for _ in stores]
    for i, c in enumerate(label):
        if c >= 0:
            components[roots[c]].append(lines[i])
    return [text for component in components for text in component]


@functools.lru_cache(maxsize=1024)
def _part_plan(lanes: tuple[int, ...], part: int) -> tuple:
    """Per output part of one selector, over the concatenated input parts:
    the input part's index when it is that whole part in order (a rename),
    else the chain of two-source shuffles that builds it, as ``(g, h,
    indices)`` steps.  The first step reads parts g and h (g twice when it
    is the only one); each later one reads the previous step's result in
    place of part g, keeps the lanes placed so far and brings in part h's;
    a lane still to come is filled from the first operand.  Cached:
    programs share few distinct selectors."""
    plans = []
    for k in range(len(lanes) // part):
        sel = lanes[k * part:(k + 1) * part]
        srcs = sorted({s // part for s in sel})
        if sel == tuple(range(srcs[0] * part, (srcs[0] + 1) * part)):
            plans.append(srcs[0])
            continue
        steps = []
        for step, h in enumerate(srcs[1:] or srcs):
            idx = [
                s % part if step == 0 and s // part == srcs[0]
                else part + s % part if s // part == h
                else j
                for j, s in enumerate(sel)
            ]
            steps.append((srcs[0], h, ", ".join(map(str, idx))))
        plans.append(tuple(steps))
    return tuple(plans)


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

    def lower(loop):
        regs = sorted({op.dst for op in loop.body if isinstance(op, (VLoad, VShuf, VSelfShuf))})
        decls = [f"{table.vector_type} {', '.join(f'v{r}' for r in regs)};"] if regs else []
        return decls, [_emit_op(op, table, wpl) for op in loop.body[1:]]

    return _emit_kernel(out, ir, "uint32_t", wpl, setup, lower)


def _emit_kernel(out, ir, word_t, wpl, setup, lower):
    """Append the advance functions and the kernel to the preamble ``out``;
    ``src``/``dst`` are ``word_t`` pointers, ``wpl`` words per element, and
    ``lower(loop)`` gives a loop's declarations and the statements of its
    body after the ADDR op."""
    for li, loop in enumerate(ir.loops):
        out.append(_advance_fn(loop, li))
    name = kernel_name(ir.layout, ir.pmap, ir.machine)
    out.append(f"void {name}(const void *src_v, void *dst_v) {{")
    out.append(f"    const {word_t} *src = (const {word_t} *)src_v;")
    out.append(f"    {word_t} *dst = ({word_t} *)dst_v;")
    out.extend("    " + line for line in setup)
    for li, loop in enumerate(ir.loops):
        out.extend(_emit_loop(loop, li, *lower(loop), wpl, ir.machine.lanes))
    out.append("}")
    return "\n".join(out) + "\n"


def _emit_loop(loop, li, decls, stmts, wpl, lanes):
    lines = []
    # the walk starts at the lower corner of the loop's counter sub-range
    lo = [a for a, _ in loop.ranges]
    lines.append(f"    {{ /* loop {loop.name}: {loop.trips} iterations, unroll {loop.unroll} */")
    nd = max(len(loop.digits), 1)
    init = ", ".join(map(str, lo)) if loop.digits else "0"
    src0 = sum(dg.src_stride * a for dg, a in zip(loop.digits, lo))
    dst0 = sum(dg.dst_stride * a for dg, a in zip(loop.digits, lo))
    lines.append(f"        int64_t vp_i[{nd}] = {{{init}}};")
    lines.append(f"        int64_t vp_bs = {src0}, vp_bd = {dst0};")
    lines.append("        int64_t s0_s = 0, s0_d = 0;")
    lines.extend("        " + line for line in decls)
    lines.append(f"        for (int64_t vp_it = 0; vp_it < {loop.trips}; ++vp_it) {{")
    lines.append(f"            s0_s = vp_bs; s0_d = vp_bd; vp_adv_{li}(vp_i, &vp_bs, &vp_bd);")
    # after the ADDR op, vp_bd is the next trip's block base
    if loop.trips > 1:
        lines.extend(
            f"            __builtin_prefetch({_ptr('dst', 'vp_bd', off, wpl)}, 1);"
            for off in _prefetch_offsets(loop, lanes)
        )
    lines.extend("            " + line for line in stmts)
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


def _emit_op(op, table, wpl):
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
