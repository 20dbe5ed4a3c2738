"""Hardware-independent IR: builder, post-pass optimizer, text round-trip.

A program is a constant pool of shuffle-index tables plus one loop per
planning phase.  Each loop walks a rectangular sub-range of the block
counter, one block per trip from the sub-range's first block.  A body's
op 0, and its only ADDR op, snapshots the current (source, destination)
base pair and advances the counter, so address arithmetic is O(1)
amortized per block.  Vector ops address the snapshot bases plus fixed
element offsets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from .core import LayoutError, PermutationMap, TensorLayout
from .machine import MachineConfig
from .planner import BlockPlan, CounterDigit, merge_dimensions, select_block
from .shuffle import BlockOps, build_block_ops

__all__ = [
    "AllocationError",
    "Addr",
    "VLoad",
    "VStore",
    "VShuf",
    "Loop",
    "IRProgram",
    "build_ir",
    "optimize",
    "build_program",
    "dump_ir",
    "parse_ir",
]


class AllocationError(LayoutError):
    """Register demand cannot fit the machine budget."""


@dataclass(frozen=True)
class Addr:
    """Take this trip's block bases and advance the counter: op 0 of a body."""


@dataclass(frozen=True)
class VLoad:
    dst: int
    offset: int
    aligned: bool
    space: str = "src"  # 'src' or 'dst'


@dataclass(frozen=True)
class VStore:
    src: int
    offset: int
    aligned: bool


@dataclass(frozen=True)
class VShuf:
    """dst lane j = (a's lanes, then b's)[table's lane j]; a self-shuffle
    reads one register twice (a == b) and selects below w."""

    a: int
    b: int
    table: int
    dst: int


@dataclass(frozen=True)
class Loop:
    name: str
    digits: tuple[CounterDigit, ...]
    ranges: tuple[tuple[int, int], ...]
    trips: int          # iterations of the body, one block each
    unroll: int         # blocks per trip: always 1
    body: tuple = ()
    store_start: int = 0  # index where the store section begins


@dataclass(frozen=True)
class IRProgram:
    machine: MachineConfig
    layout: TensorLayout        # layout the loop addressing was built for
    pmap: PermutationMap
    constants: tuple[tuple[int, tuple[int, ...]], ...]
    loops: tuple[Loop, ...]
    num_vregs: int
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def num_elements(self) -> int:
        return self.layout.num_elements


def _emit_block_body(ops: BlockOps, pool: dict[tuple[int, ...], int]):
    """One block's op sequence, its ADDR op first, on fresh virtual registers
    from v0; returns (body, store section index, vreg top).  ``pool`` maps
    each selector to its constant id, numbered in order of first use."""
    body = [Addr()]
    reg: dict[int, int] = {}
    v = 0
    for ld in ops.loads:
        body.append(VLoad(v, ld.offset, ld.aligned, "src"))
        reg[ld.slot] = v
        v += 1
        if ld.spread is not None:
            r = reg[ld.slot]
            body.append(VShuf(r, r, pool.setdefault(ld.spread, len(pool)), v))
            reg[ld.slot] = v
            v += 1
    step_ids = sorted({r.step for r in ops.shuffles})
    for s in step_ids:
        nxt = dict(reg)
        for rec in ops.shuffles:
            if rec.step != s:
                continue
            hi = rec.in_lo if rec.in_hi is None else rec.in_hi
            body.append(VShuf(reg[rec.in_lo], reg[hi], pool.setdefault(rec.vec, len(pool)), v))
            nxt[rec.out_slot] = v
            v += 1
        reg = nxt
    for rec in ops.aux:
        r = reg[rec.in_lo]
        body.append(VShuf(r, r, pool.setdefault(rec.vec, len(pool)), v))
        reg[rec.out_slot] = v
        v += 1
    store_start = len(body)
    for st in ops.stores:
        if st.mode == "plain":
            body.append(VStore(reg[st.slot], st.offset, st.aligned))
        elif st.mode == "borrow":
            t = pool.setdefault(st.vec, len(pool))
            body.append(VShuf(reg[st.slot], reg[st.borrow_slot], t, v))
            body.append(VStore(v, st.offset, st.aligned))
            v += 1
        else:  # reserve current memory, fold valid lanes in, write back
            body.append(VLoad(v, st.offset, st.aligned, "dst"))
            body.append(VShuf(reg[st.slot], v, pool.setdefault(st.vec, len(pool)), v + 1))
            body.append(VStore(v + 1, st.offset, st.aligned))
            v += 2
    return body, store_start, v


def build_ir(plan: BlockPlan) -> IRProgram:
    """Assemble the program: pattern recognition fixed the register and step
    counts in the plan; the block loop nest comes from the counter digits;
    padding and alignment extras come from the per-phase I/O records; index
    vectors land in the constant pool; each block runs loads, shuffles,
    stores."""
    pool: dict[tuple[int, ...], int] = {}
    loops = []
    vtop = 0
    for ops in build_block_ops(plan):
        body, store_start, phase_top = _emit_block_body(ops, pool)
        vtop = max(vtop, phase_top)
        loops.append(
            Loop(
                name=ops.phase.name,
                digits=plan.counter_digits,
                ranges=ops.phase.ranges,
                trips=ops.phase.trip_count,
                unroll=1,
                body=tuple(body),
                store_start=store_start,
            )
        )
    meta = {
        "shuffle_steps": plan.shuffle_steps,
        "block_registers": plan.num_registers,
        "utilization": plan.utilization,
    }
    return IRProgram(
        machine=plan.machine,
        layout=plan.layout,
        pmap=plan.pmap,
        constants=tuple((i, lanes) for lanes, i in pool.items()),
        loops=tuple(loops),
        num_vregs=vtop,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# optimizer: reorder, register reuse, one block per loop trip


def _reorder_main(main: tuple) -> tuple:
    """The ADDR op, then loads, then shuffles by earliest-ready input.

    Applies to the pre-store section only; store-side fixups stay with
    their stores so their results never pile up in the register file.
    """
    addr, *ops = main
    loads = [op for op in ops if isinstance(op, VLoad)]
    shufs = [op for op in ops if isinstance(op, VShuf)]

    level: dict[int, int] = {}
    for i, op in enumerate(loads):
        level[op.dst] = i
    ranked = []
    for i, op in enumerate(shufs):
        lvl = max(level.get(op.a, 0), level.get(op.b, 0))
        ranked.append((lvl, i, op))
        level[op.dst] = len(loads) + i
    ranked.sort(key=lambda t: (t[0], t[1]))
    return (addr, *loads, *(op for _, _, op in ranked))


def _allocate_body(body: tuple) -> tuple[tuple, int]:
    """Linear-scan reuse: a virtual register frees after its last read.

    Destinations never alias their operands, so a shuffle pair occupies two
    fresh registers while both sources are still live; both sources free
    right after the pair's second shuffle.  Returns the renamed body and the
    number of registers it uses.
    """
    last_use: dict[int, int] = {}
    for i, op in enumerate(body):
        for r in _reads(op):
            last_use[r] = i
    free: list[int] = []  # a heap: the lowest free register is reused first
    top = 0
    mapping: dict[int, int] = {}
    out = []
    for i, op in enumerate(body):
        reads = _reads(op)
        for r in reads:
            if r not in mapping:
                raise LayoutError(f"virtual register v{r} read before write")
        d = _writes(op)
        if d is not None:
            if free:
                mapping[d] = heapq.heappop(free)
            else:
                mapping[d] = top
                top += 1
        out.append(_rename(op, mapping.__getitem__))
        for r in set(reads):
            if last_use[r] == i:
                heapq.heappush(free, mapping.pop(r))
    return tuple(out), top


def _reads(op):
    if isinstance(op, VShuf):
        return (op.a, op.b)
    if isinstance(op, VStore):
        return (op.src,)
    return ()


def _writes(op):
    if isinstance(op, (VLoad, VShuf)):
        return op.dst
    return None


def _rename(op, reg):
    """``op`` with every register id ``r`` replaced by ``reg(r)``."""
    if isinstance(op, VShuf):
        return VShuf(reg(op.a), reg(op.b), op.table, reg(op.dst))
    if isinstance(op, VLoad):
        return VLoad(reg(op.dst), op.offset, op.aligned, op.space)
    if isinstance(op, VStore):
        return VStore(reg(op.src), op.offset, op.aligned)
    return op


def optimize(ir: IRProgram) -> IRProgram:
    """Instruction reordering and register reuse, one block per loop trip.

    Each body's pre-store section is reordered (the ADDR op, then loads, then
    shuffles by earliest-ready input) and its virtual registers are reused.
    Paired shuffle operands free after their two uses, so a square block
    needs only two scratch registers beyond its data and index registers.
    A loop's index tables stay pinned in registers when they fit beside its
    demand; otherwise they are streamed from memory through one register.
    Loops are not unrolled: each trip runs one block, so the kernel's
    prefetch of the next trip's destination lines covers every block.
    """
    budget = ir.machine.num_vector_registers

    new_loops = []
    peak_total = 0
    tables_max = 0
    loop_stats = []
    for loop in ir.loops:
        tables = len({op.table for op in loop.body if isinstance(op, VShuf)})
        main = _reorder_main(loop.body[: loop.store_start])
        body, demand = _allocate_body(main + loop.body[loop.store_start:])
        pinned = tables
        if demand + tables > budget:
            pinned = 1 if tables else 0  # stream tables through one register
        if demand + pinned > budget:
            raise AllocationError(
                f"iteration needs {demand} data registers + {pinned} table registers; "
                f"budget is {budget}"
            )
        loop_stats.append(
            {"name": loop.name, "demand": demand, "tables": pinned, "trips": loop.trips}
        )
        new_loops.append(replace(loop, body=body))
        peak_total = max(peak_total, demand)
        tables_max = max(tables_max, pinned)

    meta = dict(ir.metadata)
    meta["index_tables"] = tables_max
    meta["total_registers"] = peak_total + tables_max
    meta["loop_stats"] = loop_stats
    return replace(ir, loops=tuple(new_loops), num_vregs=peak_total, metadata=meta)


def build_program(
    layout: TensorLayout,
    pmap: PermutationMap,
    machine: MachineConfig | None = None,
) -> IRProgram:
    """Full pipeline: merge, plan, build, optimize."""
    machine = machine or MachineConfig(elem_width=layout.elem_width)
    return optimize(build_ir(select_block(*merge_dimensions(layout, pmap), machine)))


# ---------------------------------------------------------------------------
# stable text form


def dump_ir(ir: IRProgram) -> str:
    """Stable text form.  Loops of an optimized program also carry their
    pinned-table count (``tables N``), so a parsed program keeps its
    register budget."""
    tables = {s["name"]: s["tables"] for s in ir.metadata.get("loop_stats", ())}
    lines = ["vecperm-ir v3"]
    m = ir.machine
    lines.append(f"machine {m.isa_tag} {m.bit_width} {m.elem_width} {m.num_vector_registers}")
    lines.append("layout " + " ".join(str(d) for d in ir.layout.dims))
    lines.append("map " + " ".join(str(s) for s in ir.pmap.sigma))
    lines.append(f"vregs {ir.num_vregs}")
    for cid, lanes in ir.constants:
        lines.append(f"const c{cid} w{len(lanes)} : " + " ".join(str(s) for s in lanes))
    for loop in ir.loops:
        dig = ",".join(
            f"d{d.dim}:{d.extent}:{d.src_stride}:{d.dst_stride}:{int(d.ragged)}:{d.full_extent}"
            for d in loop.digits
        )
        rng = ",".join(f"{lo}-{hi}" for lo, hi in loop.ranges)
        lines.append(
            f"loop {loop.name} digits {dig or '-'} ranges {rng or '-'} "
            f"trips {loop.trips} unroll {loop.unroll} stores {loop.store_start}"
            + (f" tables {tables[loop.name]}" if loop.name in tables else "")
        )
        for op in loop.body:
            lines.append("  " + _op_text(op))
        lines.append("endloop")
    return "\n".join(lines) + "\n"


def _op_text(op) -> str:
    if isinstance(op, Addr):
        return "addr"
    if isinstance(op, VLoad):
        a = "a" if op.aligned else "u"
        return f"vload v{op.dst} {op.space} {op.offset} {a}"
    if isinstance(op, VStore):
        a = "a" if op.aligned else "u"
        return f"vstore v{op.src} {op.offset} {a}"
    if isinstance(op, VShuf):
        return f"vshuf v{op.a} v{op.b} c{op.table} v{op.dst}"
    raise LayoutError(f"unknown op {op!r}")


def parse_ir(text: str) -> IRProgram:
    """Read a ``dump_ir`` text back.  Pinned-table counts come back as
    ``metadata["loop_stats"]`` entries holding ``name`` and ``tables``.  A
    malformed line, or a loop without its ``endloop``, is a coded
    ``LayoutError``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "vecperm-ir v3":
        raise LayoutError("not a vecperm IR dump")
    it = iter(lines[1:])
    machine = None
    layout = None
    pmap = None
    vregs = 0
    constants = []
    loops = []
    cur: list | None = None
    header: dict | None = None
    tables: dict[str, int] = {}
    for ln in it:
        t = ln.split()
        try:
            if cur is not None:
                if t[0] == "endloop":
                    loops.append(Loop(body=tuple(cur), **header))
                    cur = None
                else:
                    cur.append(_op_parse(t))
                continue
            if t[0] == "machine":
                machine = MachineConfig(t[1], int(t[2]), int(t[3]), int(t[4]))
            elif t[0] == "layout":
                layout = TensorLayout(tuple(int(x) for x in t[1:]))
            elif t[0] == "map":
                pmap = PermutationMap(tuple(int(x) for x in t[1:]))
            elif t[0] == "vregs":
                vregs = int(t[1])
            elif t[0] == "const":
                cid = int(t[1][1:])
                constants.append((cid, tuple(int(x) for x in t[4:])))
            elif t[0] == "loop" and t[2:11:2] == _LOOP_KEYS and (
                len(t) == 12 or (len(t) == 14 and t[12] == "tables")
            ):
                digits = []
                if t[3] != "-":
                    for part in t[3].split(","):
                        f = part.split(":")
                        digits.append(
                            CounterDigit(
                                dim=int(f[0][1:]),
                                extent=int(f[1]),
                                src_stride=int(f[2]),
                                dst_stride=int(f[3]),
                                ragged=bool(int(f[4])),
                                full_extent=int(f[5]),
                            )
                        )
                ranges = []
                if t[5] != "-":
                    for part in t[5].split(","):
                        lo, hi = part.split("-")
                        ranges.append((int(lo), int(hi)))
                header = dict(
                    name=t[1],
                    digits=tuple(digits),
                    ranges=tuple(ranges),
                    trips=int(t[7]),
                    unroll=int(t[9]),
                    store_start=int(t[11]),
                )
                if len(t) == 14:
                    tables[t[1]] = int(t[13])
                cur = []
            else:
                raise ValueError(ln)
        except LayoutError:
            raise
        except (ValueError, IndexError):
            raise LayoutError(f"cannot parse IR line: {ln}") from None
    if cur is not None:
        raise LayoutError(f"IR loop {header['name']} has no endloop")
    if machine is None or layout is None or pmap is None:
        raise LayoutError("incomplete IR dump")
    if layout.elem_width != machine.elem_width:
        layout = TensorLayout(layout.dims, machine.elem_width)
    return IRProgram(
        machine=machine,
        layout=layout,
        pmap=pmap,
        constants=tuple(constants),
        loops=tuple(loops),
        num_vregs=vregs,
        metadata={"loop_stats": [{"name": k, "tables": v} for k, v in tables.items()]}
        if tables else {},
    )


_LOOP_KEYS = ["digits", "ranges", "trips", "unroll", "stores"]
_OP_TOKENS = {"addr": 1, "vload": 5, "vstore": 4, "vshuf": 5}


def _op_parse(t: list[str]):
    if len(t) != _OP_TOKENS.get(t[0], len(t)):
        raise ValueError(t)
    if t[0] == "addr":
        return Addr()
    if t[0] == "vload" and t[2] in ("src", "dst"):
        return VLoad(int(t[1][1:]), int(t[3]), t[4] == "a", t[2])
    if t[0] == "vstore":
        return VStore(int(t[1][1:]), int(t[2]), t[3] == "a")
    if t[0] == "vshuf":
        return VShuf(int(t[1][1:]), int(t[2][1:]), int(t[3][1:]), int(t[4][1:]))
    raise ValueError(t)
