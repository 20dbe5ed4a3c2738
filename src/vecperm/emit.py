"""Backend lowering: IR to compilable target source.

Every target lowers a loop body the same way, in SSA form over the parts of
its registers: one ``x<i>`` value per load part and per shuffle part, one
store statement per store part.  A store part that writes back the
destination load of its own offset, with no store between, emits nothing.
The component pass runs only where a register has several parts: there
statements no store depends on are dropped, the rest join connected
components (a shuffle joins the parts it reads, a store the part it writes,
destination accesses with overlapping part ranges each other), and each
component is emitted whole, in IR order, in the order of its first store.
With one part per register each op is one statement, in ``build_ir``'s
order, which is already final.  A lowering only spells a load, a store and
a shuffle, as the C expressions of a ``LoweringTable``:

- Portable (target ``scalar``, and every ``sunway-simd`` machine): GCC/Clang
  vector extensions on 16-byte parts, the SSE2 and NEON baseline, so a plain
  ``-O2`` build maps each part shuffle to native shuffles and keeps a
  component's few parts in registers, where a 16-register block would not
  fit SSE2's 16 ``xmm`` registers.  A register of w lanes is w / L parts of
  L = 16 / element width lanes.  An output part that is a whole input part
  in order is a rename; one drawn from one or two distinct part values is a
  ``__builtin_shufflevector`` with lane-level indices, and from more a chain
  of them.  First-store order writes each destination line's parts close
  together.
- Intrinsics (x86 AVX-512, ARM SVE): one part per register, so each IR op
  is one statement.  Shuffles go through 32-bit word selectors ``vp_tab<c>``
  loaded once into ``t<c>``, so 8-byte elements reuse the 32-bit surface
  with doubled tables.  The one-source spelling serves a shuffle that reads
  one value twice and selects below w (SVE's ``svtbl_u32`` reads an index
  past the register as 0).  An x86 kernel does not parse ``<immintrin.h>``
  under GCC: behind a ``__has_builtin`` guard on GCC's builtin names, its
  prelude defines the four intrinsics it calls (three at 128 bits) as
  GCC's own definitions, so the objects are instruction-identical to a
  header build and each compile is several times faster.  Other compilers
  take the guard's ``#include <immintrin.h>`` branch, which is untested
  with Clang here.

Emitted kernels are shape-specialized: the function takes two raw buffer
pointers, read as ``vp_elem_t`` element pointers, and requires one vector
width of writable slack after each buffer (overhanging tail loads and
rewrite-stores run into the slack; the destination slack keeps its prior
byte values).  It assumes no alignment of either buffer: every lowering
spells every access unaligned, and an IR access's ``aligned`` flag is only
reported.

Every lowering prefetches for writing: right after a loop body's address
step, its op 0, one ``__builtin_prefetch(dst + ..., 1)`` per destination
line the next trip's block will store to (a loop of one trip has none).
The lines are those of a 64-byte-aligned destination; on another base the
hints may miss a line a store straddles.  The address step keeps the
trip's block bases in ``s0_s`` and ``s0_d``.  Prefetches change no result,
so the IR, the VM and the op counts know nothing of them.
``__builtin_prefetch`` is a GCC/Clang builtin; the SVE and Sunway output
using it is unverified on an x86-64 host.
"""

from __future__ import annotations

import functools
import os
import platform
import re
import shutil
import signal
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import LayoutError, PermutationMap, TensorLayout, naive_permute, random_elements
from .ir import IRProgram, Loop, VLoad, VShuf, VStore, dump_ir
from .machine import MachineConfig

__all__ = ["LoweringTable", "LOWERINGS", "kernel_name", "emit_source", "verify_native"]


@dataclass(frozen=True)
class LoweringTable:
    headers: tuple[str, ...]
    vector_type: str
    load: str        # C expressions over {ptr}, values {a}, {b} and selector {tab}
    store: str
    shuf2: str
    shuf1: str
    prelude: tuple[str, ...] = ()  # lines after the #includes


def _x86_prelude(bits: int, mm: str) -> tuple[str, ...]:
    """GCC 12's own definitions of the intrinsics an x86 kernel calls at
    ``bits``, cast for cast (loads read through const pointers), behind a
    guard on GCC's builtin names: GCC compiles the kernel without parsing
    <immintrin.h>, and a compiler without those names, or GCC without the
    width's ISA flags, includes the header.  Every access is unaligned.  GCC
    loads 512-bit vectors through ``long long`` vectors and 256- and 128-bit
    ones through ``int`` vectors, and stores through ``long long`` vectors;
    a shuffle is its masked builtin under an all-ones mask, whose
    pass-through operand (undefined at 512 bits, zero at 256) it never
    reads.  The nested guard, unlike ``defined(...) && __has_builtin(...)``,
    also parses where ``__has_builtin`` does not exist."""
    m, v, size = f"__m{bits}i", f"__v{bits // 32}si", bits // 8
    mask = "(unsigned short)-1" if bits == 512 else "(unsigned char)-1"
    if bits == 512:
        load = f"(*(const {m}_u *)(p))"
        passthrough = f"({{ {m} vp_u = vp_u; ({v})vp_u; }})"
    else:
        load = f"(({m})*(const {v}_u *)(p))"
        passthrough = f"({v}){{0}}"
    defs = [
        f"typedef long long {m} __attribute__((__vector_size__({size}), __may_alias__));",
        f"typedef long long {m}_u __attribute__((__vector_size__({size}), __may_alias__, __aligned__(1)));",
        f"typedef int {v} __attribute__((__vector_size__({size})));",
        *([] if bits == 512 else
          [f"typedef int {v}_u __attribute__((__vector_size__({size}), __may_alias__, __aligned__(1)));"]),
        f"#define {mm}_loadu_epi32(p) {load}",
        f"#define {mm}_storeu_epi32(p, a) (*({m}_u *)(p) = ({m}_u)(a))",
        f"#define {mm}_permutex2var_epi32(a, i, b) (({m})__builtin_ia32_vpermt2vard{bits}_mask("
        f"({v})(i), ({v})(a), ({v})(b), {mask}))",
    ]
    if bits > 128:
        defs.append(f"#define {mm}_permutexvar_epi32(i, a) (({m})__builtin_ia32_permvarsi{bits}_mask("
                    f"({v})(a), ({v})(i), {passthrough}, {mask}))")
    return (
        "#if defined(__has_builtin)",
        f"#if __has_builtin(__builtin_ia32_vpermt2vard{bits}_mask)",
        "#define VP_GCC_BUILTINS 1",
        "#endif",
        "#endif",
        "#ifdef VP_GCC_BUILTINS",
        *defs,
        "#else",
        "#include <immintrin.h>",
        "#endif",
    )


LOWERINGS = {
    "x86-avx": {
        bits: LoweringTable(
            headers=("stdint.h",),
            vector_type=f"__m{bits}i",
            load=mm + "_loadu_epi32({ptr})",
            store=mm + "_storeu_epi32({ptr}, {a})",
            shuf2=mm + "_permutex2var_epi32({a}, {tab}, {b})",
            # AVX-512VL has no 128-bit permutexvar: read the one source twice
            shuf1=mm + ("_permutexvar_epi32({tab}, {a})" if bits > 128
                        else "_permutex2var_epi32({a}, {tab}, {a})"),
            prelude=_x86_prelude(bits, mm),
        )
        for bits, mm in ((512, "_mm512"), (256, "_mm256"), (128, "_mm"))
    },
    "arm-sve": {
        bits: LoweringTable(
            headers=("stdint.h", "arm_sve.h"),
            vector_type="svuint32_t",
            # the ACLE takes uint32_t pointers, also for 8-byte elements
            load="svld1_u32(vp_pg, (const uint32_t *)({ptr}))",
            store="svst1_u32(vp_pg, (uint32_t *)({ptr}), {a})",
            shuf2="svtbl2_u32(svcreate2_u32({a}, {b}), {tab})",
            shuf1="svtbl_u32({a}, {tab})",
        )
        for bits in (128, 256, 512)
    },
}

_SHUFFLEVECTOR_ERROR = '#error "vecperm portable kernels need GCC >= 12 or Clang"'

# The portable spelling: parts load and store through memcpy (unaligned and
# aliasing-safe), and a part shuffle's selector {tab} is its inline lanes
# over the lanes of {a} then {b} (of {a} twice when it reads one part).
_PORTABLE = LoweringTable(
    headers=("stdint.h", "string.h"),
    vector_type="vp_v",
    load="vp_ld({ptr})",
    store="vp_st({ptr}, {a})",
    shuf2="__builtin_shufflevector({a}, {b}, {tab})",
    shuf1="__builtin_shufflevector({a}, {a}, {tab})",
    prelude=(
        "#if defined(__has_builtin)",
        "#if !__has_builtin(__builtin_shufflevector)",
        _SHUFFLEVECTOR_ERROR,
        "#endif",
        "#else",
        _SHUFFLEVECTOR_ERROR,
        "#endif",
    ),
)

# Bytes per part of a portable register: the SSE2 and NEON baseline, whose
# shuffles a plain -O2 build can map a 16-byte __builtin_shufflevector to.
_PART_BYTES = 16

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


def _preamble(ir: IRProgram, target: str, table: LoweringTable) -> list[str]:
    m = ir.machine
    meta = ir.metadata
    return [
        "/* generated vector permutation kernel",
        f" * target: {target}  width: {m.bit_width} bits  elem: {m.elem_width} B  lanes: {m.lanes}",
        f" * shape (inner-first): {ir.layout.dims}  map (inner-first): {ir.pmap.sigma}",
        f" * shuffle steps: {meta.get('shuffle_steps', '?')}"
        f"  block registers: {meta.get('block_registers', '?')}"
        f"  utilization: {meta.get('utilization', '?')}",
        " * buffers need one vector width of writable slack past the data and no alignment",
        " */",
        *(f"#include <{h}>" for h in table.headers),
        *table.prelude,
    ]


def _emit_portable(ir: IRProgram, target: str) -> str:
    w = ir.machine.lanes
    ew = ir.machine.elem_width
    part = min(w, _PART_BYTES // ew)
    out = _preamble(ir, f"{target} (portable vector-extension lowering)", _PORTABLE)
    out.append(f"typedef uint{8 * ew}_t vp_elem_t;")
    out.append(f"typedef vp_elem_t vp_v __attribute__((vector_size({part * ew})));")
    out.extend(_PART_ACCESS)
    selectors = dict(ir.constants)
    distinct = tuple(range(2 * (w // part)))

    def plan(cid, ins):
        # over distinct values: each input part aliases the first holding its value
        alias = distinct if len(set(ins)) == len(ins) else tuple(map(ins.index, ins))
        return _part_plan(selectors[cid], part, alias)

    return _emit_kernel(out, ir, _PORTABLE, part, plan)


@functools.lru_cache(maxsize=1024)
def _part_plan(lanes: tuple[int, ...], part: int, alias: tuple[int, ...]) -> tuple:
    """Per output part of one selector over the concatenated input parts,
    where input part k holds the value of input part ``alias[k]``: the input
    part's index when the output is that whole value in order (a rename),
    else the chain of shuffle steps that builds it, as ``(g, h, statement)``
    with the statement of ``_statement``.  The first step reads parts g and
    h (g twice, the one-source spelling, when it is the only one); each
    later one reads the previous step's result in place of part g, keeps
    the lanes placed so far and brings in part h's; a lane still to come is
    filled from the first operand.  Cached: programs share few selectors."""
    plans = []
    for k in range(len(lanes) // part):
        sel = [(alias[s // part], s % part) for s in lanes[k * part:(k + 1) * part]]
        srcs = sorted({g for g, _ in sel})
        if sel == [(srcs[0], j) for j in range(part)]:
            plans.append(srcs[0])
            continue
        steps = []
        for step, h in enumerate(srcs[1:] or srcs):
            idx = [
                j if step == 0 and g == srcs[0]
                else part + j if g == h
                else i
                for i, (g, j) in enumerate(sel)
            ]
            shuffle = _PORTABLE.shuf1 if h == srcs[0] else _PORTABLE.shuf2
            steps.append((srcs[0], h, _statement(_PORTABLE, shuffle, ", ".join(map(str, idx)))))
        plans.append(tuple(steps))
    return tuple(plans)


def _emit_simd(ir: IRProgram, target: str) -> str:
    machine = ir.machine
    table = LOWERINGS[target].get(machine.bit_width)
    if table is None:
        raise LayoutError(f"no lowering for target {target!r} at {machine.bit_width} bits")
    w = machine.lanes
    wpl = machine.elem_width // 4
    out = _preamble(ir, target, table)
    out.append(f"typedef uint{8 * machine.elem_width}_t vp_elem_t;")
    for cid, lanes in ir.constants:
        # lane s (below 2w, as the VM checks) is words s * wpl + t of a's then b's
        words = [s * wpl + t for s in lanes for t in range(wpl)]
        out.append(f"static const uint32_t vp_tab{cid}[{len(words)}] = {{{str(words)[1:-1]}}};")
    setup = []
    if target == "arm-sve":
        setup.append("const svbool_t vp_pg = svptrue_b32();")
        setup.append(f"if (svcntw() != {w * wpl}) __builtin_trap();")
    for cid, _ in ir.constants:
        setup.append(f"const {table.vector_type} t{cid} = {table.load.format(ptr=f'vp_tab{cid}')};")
    top = {cid: max(lanes) for cid, lanes in ir.constants}

    @functools.cache
    def spell(cid, one_value):
        shuffle = table.shuf1 if one_value and top[cid] < w else table.shuf2
        return (((0, 1, _statement(table, shuffle, f"t{cid}")),),)

    # one part per register: a shuffle is one step on a's and b's values
    return _emit_kernel(out, ir, table, w, lambda cid, ins: spell(cid, ins[0] == ins[1]), setup)


def _emit_kernel(out, ir, table, part, plan, setup=()):
    """Append the advance functions and the kernel to the preamble ``out``:
    each loop body is ``_part_body`` at ``part`` lanes per part."""
    for li, loop in enumerate(ir.loops):
        out.append(_advance_fn(loop, li))
    name = kernel_name(ir.layout, ir.pmap, ir.machine)
    out.append(f"void {name}(const void *src_v, void *dst_v) {{")
    out.append("    const vp_elem_t *src = (const vp_elem_t *)src_v;")
    out.append("    vp_elem_t *dst = (vp_elem_t *)dst_v;")
    out.extend("    " + line for line in setup)
    w = ir.machine.lanes
    for li, loop in enumerate(ir.loops):
        out.extend(_emit_loop(loop, li, _part_body(loop, table, w // part, part, plan), w))
    out.append("}")
    return "\n".join(out) + "\n"


def _statement(table: LoweringTable, shuffle: str, tab: str) -> str:
    """A shuffle step in ``table``'s spelling, as a %-template over the value
    it defines and its operands a and b.  A spelling that reads one operand
    (a is then b) consumes b with an empty ``%.0s``."""
    text = shuffle.format(a="x%d", b="x%d", tab=tab)
    return f"{table.vector_type} x%d = {text};" + "%.0s" * (text.count("%d") == 1)


def _part_body(loop: Loop, table: LoweringTable, n: int, part: int, plan) -> list[str]:
    """The statements of one loop body, ops after the ADDR op, with each
    register as ``n`` parts of ``part`` lanes, spelled by ``table``: one SSA
    value ``x<i>`` per load part and per shuffle part, one store statement
    per store part.  ``plan(constant id, values)`` gives a shuffle whose
    input parts (a's, then b's) hold ``values`` in the form of
    ``_part_plan``.  A store part writing back the destination load of its
    offset, with no VStore between, emits nothing.  A register read before
    the body writes it is a coded ``LayoutError``.

    With one part per register (every intrinsic body, and portable ones at
    16-byte registers) each op is one statement, in IR order: ``build_ir``
    writes each body in its final order, every op feeding a store.  Only
    with several parts does the component pass run.  It drops the
    statements no store depends on and joins the rest into components: a
    shuffle joins the parts it reads, a store the part it writes, and
    destination accesses whose part ranges overlap join each other.  Each
    component is emitted whole in IR order, components in the order of
    their first store.  That keeps every dependency: distinct components
    share no value and no destination bytes, and the source is read-only."""
    vt = table.vector_type
    load_pre, _, load_post = table.load.partition("{ptr}")
    store_pre, _, store_mid = table.store.partition("{ptr}")
    store_mid, _, store_post = store_mid.partition("{a}")
    lines: list[str] = []
    reads: list[tuple[int, ...]] = []  # a value is the index of its statement
    dst_ops: list[tuple[int, int]] = []  # (part offset, statement) of destination accesses
    stores: list[int] = []
    regs: dict[int, tuple[int, ...]] = {}
    loaded: dict[int, tuple[int, int]] = {}  # destination load part: (offset, VStores before)
    vstores = 0

    def unwritten(r):
        raise LayoutError(f"loop {loop.name}: register v{r} read before any write")

    for op in loop.body[1:]:
        cls = op.__class__
        if cls is VShuf:
            ins = (regs.get(op.a) or unwritten(op.a)) + (regs.get(op.b) or unwritten(op.b))
            vals = []
            for steps in plan(op.table, ins):
                if steps.__class__ is int:
                    vals.append(ins[steps])  # a rename
                    continue
                acc = None
                for g, h, stmt in steps:
                    a, b = ins[g] if acc is None else acc, ins[h]
                    acc = len(lines)
                    lines.append(stmt % (acc, a, b))
                    reads.append((a, b))
                vals.append(acc)
            regs[op.dst] = tuple(vals)
        elif cls is VLoad:
            base = "dst + s0_d + " if op.space == "dst" else "src + s0_s + "
            first = len(lines)
            for k in range(n):
                off = op.offset + k * part
                if op.space == "dst":
                    dst_ops.append((off, first + k))
                    loaded[first + k] = (off, vstores)
                lines.append(f"{vt} x{first + k} = {load_pre}{base}{off}{load_post};")
            reads += [()] * n
            regs[op.dst] = tuple(range(first, first + n))
        elif cls is VStore:
            for k, v in enumerate(regs.get(op.src) or unwritten(op.src)):
                off = op.offset + k * part
                if loaded.get(v) == (off, vstores):
                    continue  # memory already holds it
                stores.append(len(lines))
                dst_ops.append((off, len(lines)))
                lines.append(f"{store_pre}dst + s0_d + {off}{store_mid}x{v}{store_post};")
                reads.append((v,))
            vstores += 1
        else:
            raise LayoutError(f"no lowering template for op {op!r}")
    if n == 1:
        return lines

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


def _emit_loop(loop, li, stmts, lanes):
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
    lines.append(f"        for (int64_t vp_it = 0; vp_it < {loop.trips}; ++vp_it) {{")
    lines.append(f"            s0_s = vp_bs; s0_d = vp_bd; vp_adv_{li}(vp_i, &vp_bs, &vp_bd);")
    # after the ADDR op, vp_bd is the next trip's block base
    if loop.trips > 1:
        lines.extend(
            f"            __builtin_prefetch(dst + vp_bd + {off}, 1);"
            for off in _prefetch_offsets(loop, lanes)
        )
    if stmts:
        lines.append("            " + "\n            ".join(stmts))
    lines.append("        }")
    lines.append("    }")
    return lines


def _prefetch_offsets(loop: Loop, lanes: int) -> list[int]:
    """Element offsets, from a block's destination base, of the lines one
    block of ``loop`` stores to: each aligned store's offset, and the first
    and last element of each unaligned store (it may straddle two lines)."""
    offsets = set()
    for op in loop.body:
        if op.__class__ is VStore:
            offsets.add(op.offset)
            if not op.aligned:
                offsets.add(op.offset + lanes - 1)
    return sorted(offsets)


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
# band of the destination shows.
_SLACK_BYTE = 0xA5


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
    """Compile and run an emitted kernel against ``naive_permute``.

    The kernel is compiled once as a shared object, and one forked child
    loads it and runs every case on two reused buffers, so a kernel that
    faults kills only the child.  Each buffer's data start one element past
    a 64-byte boundary, so an aligned vector access at any width faults, and
    have one vector width of slack before and after, filled with
    ``_SLACK_BYTE``; a case fails on a write into either destination band
    or on any bitwise difference.  Each case has 120 s.

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
    # imported here, not with the module: fresh imports are timed
    import multiprocessing

    with tempfile.TemporaryDirectory(prefix="vecperm-native-") as td:
        ksrc = os.path.join(td, "kernel.c")
        lib = os.path.join(td, "kernel.so")
        with open(ksrc, "w") as f:
            f.write(source)
        proc = subprocess.run(
            [cc, *flags, "-shared", "-fPIC", ksrc, "-o", lib], capture_output=True, text=True
        )
        if proc.returncode != 0:
            return {
                "status": "fail",
                "reason": "compile error",
                "diagnostics": proc.stderr[-4000:],
                "cases": 0,
            }
        # fork: the child needs no fresh import, and only it maps the kernel
        ctx = multiprocessing.get_context("fork")
        results, sink = ctx.Pipe(duplex=False)
        slack = machine.lanes * layout.elem_width
        child = ctx.Process(
            target=_run_cases, args=(sink, lib, m.group(0), layout, pmap, slack, cases, seed)
        )
        child.start()
        sink.close()
        case = 0
        with results:
            while True:  # the child sends each case's index, then a failure or None
                if not results.poll(120):
                    child.kill()
                    msg = "timeout"
                    break
                try:
                    msg = results.recv()
                except EOFError:  # the child died
                    child.join()
                    code = child.exitcode
                    how = f"signal {signal.Signals(-code).name}" if code < 0 else f"exit {code}"
                    msg = f"runtime {how}"
                if not isinstance(msg, int):
                    break
                case = msg
        child.join()
    if msg is None:
        return {"status": "pass", "cases": cases}
    return {"status": "fail", "reason": f"{msg} on case {case}", "cases": case}


def _run_cases(sink, lib, kernel, layout, pmap, slack, cases, seed):
    """``verify_native``'s child: load the kernel, then send each case's
    index before running it, and at the end the first failure or None."""
    import ctypes
    import faulthandler

    faulthandler.disable()  # a kernel fault is a result, reported by the parent
    fn = ctypes.CDLL(lib)[kernel]
    fn.argtypes, fn.restype = (ctypes.c_void_p, ctypes.c_void_p), None
    ew = layout.elem_width
    nbytes = layout.num_elements * ew
    src, dst = (np.full(slack + 63 + nbytes + slack, _SLACK_BYTE, np.uint8) for _ in range(2))
    # the data start one element past a 64-byte boundary
    s, d = (slack + (ew - buf.ctypes.data - slack) % 64 for buf in (src, dst))
    rng = np.random.default_rng(seed)
    for case in range(cases):
        sink.send(case)
        data = random_elements(rng, layout)
        src[s:s + nbytes] = data.view(np.uint8)
        dst.fill(_SLACK_BYTE)
        fn(src.ctypes.data + s, dst.ctypes.data + d)
        for side, band in (("before", dst[d - slack:d]), ("after", dst[d + nbytes:][:slack])):
            if (band != _SLACK_BYTE).any():
                return sink.send(f"destination slack {side} the data written")
        got = dst[d:d + nbytes].view(layout.dtype)
        if not np.array_equal(got, naive_permute(data, layout, pmap)):
            return sink.send("bitwise mismatch")
    sink.send(None)
