"""Hardware-independent IR: builder, post-pass optimizer, text round-trip.

A program is a constant pool of shuffle-index tables plus one loop per
planning phase.  Each loop walks a rectangular sub-range of the block
counter; an ADDR op snapshots the current (source, destination) base pair
into a scalar register and advances the counter, so address arithmetic is
O(1) amortized per block.  Vector ops reference scalar bases plus fixed
element offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core import LayoutError, PermutationMap, TensorLayout
from .machine import MachineConfig
from .planner import (
    BlockPlan,
    CounterDigit,
    Phase,
    merge_dimensions,
    select_block,
)
from .shuffle import BlockOps, IOPlan, ShuffleSchedule, build_block_ops

__all__ = [
    "AllocationError",
    "Addr",
    "VLoad",
    "VStore",
    "VShuf",
    "VSelfShuf",
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
    scalar: int


@dataclass(frozen=True)
class VLoad:
    dst: int
    scalar: int
    offset: int
    aligned: bool
    space: str = "src"  # 'src' or 'dst'


@dataclass(frozen=True)
class VStore:
    src: int
    scalar: int
    offset: int
    aligned: bool


@dataclass(frozen=True)
class VShuf:
    a: int
    b: int
    table: int
    dst: int


@dataclass(frozen=True)
class VSelfShuf:
    a: int
    table: int
    dst: int


@dataclass(frozen=True)
class Loop:
    name: str
    digits: tuple[CounterDigit, ...]
    ranges: tuple[tuple[int, int], ...]
    start: int          # skip this many blocks of the sub-range
    trips: int          # iterations of the body
    unroll: int         # blocks per iteration
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


class _Pool:
    def __init__(self):
        self.tables: dict[tuple[int, ...], int] = {}

    def intern(self, lanes: tuple[int, ...]) -> int:
        if lanes not in self.tables:
            self.tables[lanes] = len(self.tables)
        return self.tables[lanes]

    def dump(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple((i, lanes) for lanes, i in sorted(self.tables.items(), key=lambda kv: kv[1]))


def _emit_block_body(ops: BlockOps, pool: _Pool, scalar: int, next_vreg: int):
    """One block's op sequence; returns (body, store section index, vreg top)."""
    body = [Addr(scalar)]
    reg: dict[int, int] = {}
    v = next_vreg
    for ld in ops.loads:
        body.append(VLoad(v, scalar, ld.offset, ld.aligned, "src"))
        reg[ld.slot] = v
        v += 1
        if ld.spread is not None:
            body.append(VSelfShuf(reg[ld.slot], pool.intern(ld.spread), v))
            reg[ld.slot] = v
            v += 1
    step_ids = sorted({r.step for r in ops.shuffles})
    for s in step_ids:
        nxt = dict(reg)
        for rec in ops.shuffles:
            if rec.step != s:
                continue
            t = pool.intern(rec.vec)
            if rec.in_hi is None:
                body.append(VSelfShuf(reg[rec.in_lo], t, v))
            else:
                body.append(VShuf(reg[rec.in_lo], reg[rec.in_hi], t, v))
            nxt[rec.out_slot] = v
            v += 1
        reg = nxt
    for rec in ops.aux:
        body.append(VSelfShuf(reg[rec.in_lo], pool.intern(rec.vec), v))
        reg[rec.out_slot] = v
        v += 1
    store_start = len(body)
    for st in ops.stores:
        if st.mode == "plain":
            body.append(VStore(reg[st.slot], scalar, st.offset, st.aligned))
        elif st.mode == "borrow":
            body.append(VShuf(reg[st.slot], reg[st.borrow_slot], pool.intern(st.vec), v))
            body.append(VStore(v, scalar, st.offset, st.aligned))
            v += 1
        else:  # reserve current memory, fold valid lanes in, write back
            body.append(VLoad(v, scalar, st.offset, st.aligned, "dst"))
            body.append(VShuf(reg[st.slot], v, pool.intern(st.vec), v + 1))
            body.append(VStore(v + 1, scalar, st.offset, st.aligned))
            v += 2
    return body, store_start, v


def build_ir(
    plan: BlockPlan,
    schedule: ShuffleSchedule | None = None,
    io: IOPlan | None = None,
    layout: TensorLayout | None = None,
    pmap: PermutationMap | None = None,
    machine: MachineConfig | None = None,
) -> IRProgram:
    """Assemble the program: pattern recognition fixed the register and step
    counts in the plan; the block loop nest comes from the counter digits;
    padding and alignment extras come from the per-phase I/O records; index
    vectors land in the constant pool; each block runs loads, shuffles,
    stores."""
    layout = layout or plan.layout
    pmap = pmap or plan.pmap
    machine = machine or plan.machine
    if layout.dims != plan.layout.dims or pmap.sigma != plan.pmap.sigma:
        raise LayoutError("plan was built for a different layout or map")
    if machine.lanes != plan.machine.lanes:
        raise LayoutError("plan was built for a different lane count")
    if schedule is not None and schedule.num_slots != plan.num_registers:
        raise LayoutError("schedule does not match plan")

    pool = _Pool()
    loops = []
    vtop = 0
    for phase in plan.phases():
        ops = build_block_ops(plan, phase)
        body, store_start, phase_top = _emit_block_body(ops, pool, 0, 0)
        vtop = max(vtop, phase_top)
        loops.append(
            Loop(
                name=phase.name,
                digits=plan.counter_digits,
                ranges=phase.ranges,
                start=0,
                trips=phase.trip_count,
                unroll=1,
                body=tuple(body),
                store_start=store_start,
            )
        )
    meta = {
        "shuffle_steps": plan.shuffle_steps,
        "block_registers": plan.num_registers,
        "utilization": plan.utilization,
        "fallback_mode": plan.fallback_mode,
    }
    return IRProgram(
        machine=machine,
        layout=layout,
        pmap=pmap,
        constants=pool.dump(),
        loops=tuple(loops),
        num_vregs=vtop,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# optimizer: reorder, register reuse, unroll


def _reorder_main(main: tuple) -> tuple:
    """Addresses and loads first, then shuffles by earliest-ready input.

    Applies to the pre-store section only; store-side fixups stay with
    their stores so their results never pile up in the register file.
    """
    addrs = [op for op in main if isinstance(op, Addr)]
    loads = [op for op in main if isinstance(op, VLoad)]
    shufs = [op for op in main if isinstance(op, (VShuf, VSelfShuf))]

    level: dict[int, int] = {}
    for i, op in enumerate(loads):
        level[op.dst] = i
    ranked = []
    for i, op in enumerate(shufs):
        ins = (op.a, op.b) if isinstance(op, VShuf) else (op.a,)
        lvl = max(level.get(r, 0) for r in ins)
        ranked.append((lvl, i, op))
        level[op.dst] = len(loads) + i
    ranked.sort(key=lambda t: (t[0], t[1]))
    return tuple(addrs + loads + [op for _, _, op in ranked])


def _allocate_body(body: tuple, first_phys: int, budget: int) -> tuple[tuple, int]:
    """Linear-scan reuse: a virtual register frees after its last read.

    Destinations never alias their operands, so a shuffle pair occupies two
    fresh registers while both sources are still live; both sources free
    right after the pair's second shuffle.
    """
    last_use: dict[int, int] = {}
    for i, op in enumerate(body):
        for r in _reads(op):
            last_use[r] = i
    free: list[int] = []
    top = first_phys
    mapping: dict[int, int] = {}
    out = []
    for i, op in enumerate(body):
        for r in _reads(op):
            if r not in mapping:
                raise LayoutError(f"virtual register v{r} read before write")
        new_op = _remap(op, mapping)
        d = _writes(op)
        if d is not None:
            if free:
                phys = free.pop(0)
            else:
                phys = top
                top += 1
            mapping[d] = phys
            new_op = _remap_dst(new_op, phys)
        out.append(new_op)
        for r in set(_reads(op)):
            if last_use.get(r) == i:
                free.append(mapping.pop(r))
                free.sort()
        if d is not None and last_use.get(d, -1) < i and d in mapping:
            # value written and never read afterwards (defensive; unused)
            free.append(mapping.pop(d))
            free.sort()
    demand = top - first_phys
    if top > budget:
        raise AllocationError(f"needs {demand} data registers, only {budget - first_phys} available")
    return tuple(out), demand


def _reads(op):
    if isinstance(op, VShuf):
        return (op.a, op.b)
    if isinstance(op, VSelfShuf):
        return (op.a,)
    if isinstance(op, VStore):
        return (op.src,)
    return ()


def _writes(op):
    if isinstance(op, (VLoad, VShuf, VSelfShuf)):
        return op.dst
    return None


def _remap(op, mapping):
    if isinstance(op, VShuf):
        return replace(op, a=mapping[op.a], b=mapping[op.b])
    if isinstance(op, VSelfShuf):
        return replace(op, a=mapping[op.a])
    if isinstance(op, VStore):
        return replace(op, src=mapping[op.src])
    return op


def _remap_dst(op, phys):
    if isinstance(op, (VLoad, VShuf, VSelfShuf)):
        return replace(op, dst=phys)
    return op


def _renumber(body: tuple, base: int, scalar: int) -> tuple:
    """Fresh virtual ids offset by ``base``; scalar register replaced."""
    out = []
    for op in body:
        if isinstance(op, Addr):
            out.append(Addr(scalar))
        elif isinstance(op, VLoad):
            out.append(replace(op, dst=op.dst + base, scalar=scalar))
        elif isinstance(op, VStore):
            out.append(replace(op, src=op.src + base, scalar=scalar))
        elif isinstance(op, VShuf):
            out.append(replace(op, a=op.a + base, b=op.b + base, dst=op.dst + base))
        else:
            out.append(replace(op, a=op.a + base, dst=op.dst + base))
    return tuple(out)


MAX_UNROLL = 8


def optimize(ir: IRProgram, machine: MachineConfig | None = None) -> IRProgram:
    """Register reuse, loop unrolling, instruction reordering.

    Paired shuffle operands free after their two uses, so a square block
    needs only two scratch registers beyond its data and index registers.
    The unroll factor is the largest u with u * per-iteration-demand plus
    the loop's pinned index tables within the register budget.  If the
    tables themselves do not fit pinned, they fall back to being streamed
    from memory through one register.
    """
    machine = machine or ir.machine
    budget = machine.num_vector_registers

    new_loops = []
    peak_total = 0
    tables_max = 0
    streamed = False
    loop_stats = []
    for loop in ir.loops:
        writes = [op.dst for op in loop.body if _writes(op) is not None]
        span = max(writes) + 1 if writes else 0
        tables = len({op.table for op in loop.body if isinstance(op, (VShuf, VSelfShuf))})
        _, demand = _allocate_body(_merge_copies(loop, 1), 0, 1 << 30)
        pinned = tables
        if demand + tables > budget:
            pinned = 1 if tables else 0  # stream tables through one register
            streamed = True
        if demand + pinned > budget:
            raise AllocationError(
                f"iteration needs {demand} data registers + {pinned} table registers; "
                f"budget is {budget}"
            )
        u = max(1, min(MAX_UNROLL, (budget - pinned) // max(demand, 1), loop.trips))
        main_trips = loop.trips // u
        rem = loop.trips - main_trips * u
        loop_stats.append(
            {"name": loop.name, "demand": demand, "tables": pinned, "trips": loop.trips,
             "unroll": u}
        )

        def finalize(trips: int, start: int, unroll: int):
            body = _merge_copies(loop, unroll)
            alloc, pk = _allocate_body(body, 0, budget - pinned)
            n_stores = (len(loop.body) - loop.store_start) * unroll
            return Loop(
                name=loop.name,
                digits=loop.digits,
                ranges=loop.ranges,
                start=start,
                trips=trips,
                unroll=unroll,
                body=alloc,
                store_start=len(alloc) - n_stores,
            ), pk

        if main_trips > 0:
            lp, pk = finalize(main_trips, loop.start, u)
            new_loops.append(lp)
            peak_total = max(peak_total, pk)
            tables_max = max(tables_max, pinned)
        if rem > 0:
            lp, pk = finalize(rem, loop.start + main_trips * u, 1)
            new_loops.append(lp)
            peak_total = max(peak_total, pk)
            tables_max = max(tables_max, pinned)

    meta = dict(ir.metadata)
    meta["data_registers"] = peak_total
    meta["index_tables"] = tables_max
    meta["tables_streamed"] = streamed
    meta["total_registers"] = peak_total + tables_max
    meta["loop_stats"] = loop_stats
    return replace(ir, loops=tuple(new_loops), num_vregs=peak_total, metadata=meta)


def _merge_copies(loop: Loop, unroll: int) -> tuple:
    """Unrolled body: reordered main sections, then each copy's stores."""
    writes = [op.dst for op in loop.body if _writes(op) is not None]
    span = max(writes) + 1 if writes else 0
    mains: list = []
    tails: list = []
    for j in range(unroll):
        whole = _renumber(loop.body, j * span, j)
        mains.extend(whole[: loop.store_start])
        tails.extend(whole[loop.store_start:])
    return _reorder_main(tuple(mains)) + tuple(tails)


def build_program(
    layout: TensorLayout,
    pmap: PermutationMap,
    machine: MachineConfig | None = None,
    merge: bool = True,
    opt: bool = True,
) -> IRProgram:
    """Full pipeline: merge, plan, build, optimize."""
    machine = machine or MachineConfig(elem_width=layout.elem_width)
    lay, pm = merge_dimensions(layout, pmap) if merge else (layout, pmap)
    plan = select_block(lay, pm, machine)
    ir = build_ir(plan)
    ir = replace(ir, metadata={**ir.metadata, "source_shape": layout.dims, "source_map": pmap.sigma})
    if opt:
        ir = optimize(ir, machine)
    return ir


# ---------------------------------------------------------------------------
# stable text form


def dump_ir(ir: IRProgram) -> str:
    lines = ["vecperm-ir v1"]
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
            f"start {loop.start} trips {loop.trips} unroll {loop.unroll} stores {loop.store_start}"
        )
        for op in loop.body:
            lines.append("  " + _op_text(op))
        lines.append("endloop")
    return "\n".join(lines) + "\n"


def _op_text(op) -> str:
    if isinstance(op, Addr):
        return f"addr s{op.scalar}"
    if isinstance(op, VLoad):
        a = "a" if op.aligned else "u"
        return f"vload v{op.dst} s{op.scalar} {op.space} {op.offset} {a}"
    if isinstance(op, VStore):
        a = "a" if op.aligned else "u"
        return f"vstore v{op.src} s{op.scalar} {op.offset} {a}"
    if isinstance(op, VShuf):
        return f"vshuf v{op.a} v{op.b} c{op.table} v{op.dst}"
    if isinstance(op, VSelfShuf):
        return f"vselfshuf v{op.a} c{op.table} v{op.dst}"
    raise LayoutError(f"unknown op {op!r}")


def parse_ir(text: str) -> IRProgram:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "vecperm-ir v1":
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
    for ln in it:
        t = ln.split()
        if cur is not None:
            if t[0] == "endloop":
                loops.append(Loop(body=tuple(cur), **header))
                cur = None
                continue
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
        elif t[0] == "loop":
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
                start=int(t[7]),
                trips=int(t[9]),
                unroll=int(t[11]),
                store_start=int(t[13]),
            )
            cur = []
        else:
            raise LayoutError(f"cannot parse IR line: {ln}")
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
    )


def _op_parse(t: list[str]):
    if t[0] == "addr":
        return Addr(int(t[1][1:]))
    if t[0] == "vload":
        return VLoad(int(t[1][1:]), int(t[2][1:]), int(t[4]), t[5] == "a", t[3])
    if t[0] == "vstore":
        return VStore(int(t[1][1:]), int(t[2][1:]), int(t[3]), t[4] == "a")
    if t[0] == "vshuf":
        return VShuf(int(t[1][1:]), int(t[2][1:]), int(t[3][1:]), int(t[4][1:]))
    if t[0] == "vselfshuf":
        return VSelfShuf(int(t[1][1:]), int(t[2][1:]), int(t[3][1:]))
    raise LayoutError(f"unknown IR op {' '.join(t)}")
