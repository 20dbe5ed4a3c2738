"""Hardware-independent IR: builder, register report, text round-trip.

A program is a constant pool of shuffle-index tables plus one loop per
planning phase.  Each loop walks a rectangular sub-range of the block
counter, one block per trip from the sub-range's first block.  A body's
op 0, and its only ADDR op, snapshots the current (source, destination)
base pair and advances the counter, so address arithmetic is O(1)
amortized per block.  Vector ops address the snapshot bases plus fixed
element offsets.  The builder writes each body in its final order, so
``optimize`` changes no op and only reports each loop's register demand.
"""

from __future__ import annotations

from collections import Counter
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


@dataclass(frozen=True)
class IRProgram:
    machine: MachineConfig
    layout: TensorLayout        # layout the loop addressing was built for
    pmap: PermutationMap
    constants: tuple[tuple[int, tuple[int, ...]], ...]
    loops: tuple[Loop, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def num_elements(self) -> int:
        return self.layout.num_elements


def _emit_block_body(ops: BlockOps, pool: dict[tuple[int, ...], int]):
    """One block's op sequence in its final order: the ADDR op, each load
    followed by its self-shuffle, the exchange steps, then the stores, each
    with its fixup.  Values land on fresh virtual registers from v0, each
    written once.  ``pool`` maps each selector to its constant id, numbered
    in order of first use."""
    body = [Addr()]
    reg: dict[int, int] = {}
    v = 0
    for ld in ops.loads:
        body.append(VLoad(v, ld.offset, ld.aligned, "src"))
        if ld.spread is not None:
            body.append(VShuf(v, v, pool.setdefault(ld.spread, len(pool)), v + 1))
            v += 1
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
    return tuple(body)


def build_ir(plan: BlockPlan) -> IRProgram:
    """Assemble the program: pattern recognition fixed the register and step
    counts in the plan; the block loop nest comes from the counter digits;
    padding and alignment extras come from the per-phase I/O records; index
    vectors land in the constant pool; each block runs loads, shuffles,
    stores."""
    pool: dict[tuple[int, ...], int] = {}
    loops = []
    for ops in build_block_ops(plan):
        loops.append(
            Loop(
                name=ops.phase.name,
                digits=plan.counter_digits,
                ranges=ops.phase.ranges,
                trips=ops.phase.trip_count,
                unroll=1,
                body=_emit_block_body(ops, pool),
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
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# register report


def _demand(body: tuple) -> int:
    """Peak number of values live at once.  A value is live from its write
    through its last read; one never read stays live to the body's end."""
    last = {r: i for i, op in enumerate(body) for r in _reads(op)}
    ends = Counter(last.values())
    live = peak = 0
    for i, op in enumerate(body):
        if isinstance(op, (VLoad, VShuf)):
            live += 1
            peak = max(peak, live)
        live -= ends[i]
    return peak


def _reads(op):
    if isinstance(op, VShuf):
        return (op.a, op.b)
    if isinstance(op, VStore):
        return (op.src,)
    return ()


def optimize(ir: IRProgram) -> IRProgram:
    """The register report of ``ir``, whose loops come back unchanged.

    ``build_ir`` writes each body in its final order, one block per loop
    trip.  Registers keep their virtual ids; every lowering writes one
    value per result and leaves register allocation to the C compiler.
    Each loop's ``demand`` in ``metadata["loop_stats"]`` is its body's peak
    number of live values, and paired shuffle operands die after their two
    uses, so a square block needs only two scratch registers beyond its
    data.

    ``tables`` is a report too: a loop's distinct index tables, or 1 where
    they do not fit beside its demand (the tables would be "streamed"
    through one register).  No lowering reads it: the x86 kernel loads
    every table once per call either way.  Demand plus reported tables
    beyond the budget raises ``AllocationError``.  Loops are not unrolled:
    each trip runs one block, so the kernel's prefetch of the next trip's
    destination lines covers every block.
    """
    budget = ir.machine.num_vector_registers

    peak_total = 0
    tables_max = 0
    loop_stats = []
    for loop in ir.loops:
        tables = len({op.table for op in loop.body if isinstance(op, VShuf)})
        demand = _demand(loop.body)
        pinned = tables
        if demand + tables > budget:
            pinned = 1 if tables else 0  # reported as streamed through one register
        if demand + pinned > budget:
            raise AllocationError(
                f"iteration needs {demand} data registers + {pinned} table registers; "
                f"budget is {budget}"
            )
        loop_stats.append(
            {"name": loop.name, "demand": demand, "tables": pinned, "trips": loop.trips}
        )
        peak_total = max(peak_total, demand)
        tables_max = max(tables_max, pinned)

    meta = dict(ir.metadata)
    meta["index_tables"] = tables_max
    meta["total_registers"] = peak_total + tables_max
    meta["loop_stats"] = loop_stats
    return replace(ir, metadata=meta)


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
    """Stable text form: the machine, layout and map, the constant pool, and
    each loop's walk and body.  Metadata, the register report included, is
    not part of it."""
    lines = ["vecperm-ir v5"]
    m = ir.machine
    lines.append(f"machine {m.isa_tag} {m.bit_width} {m.elem_width} {m.num_vector_registers}")
    lines.append("layout " + " ".join(str(d) for d in ir.layout.dims))
    lines.append("map " + " ".join(str(s) for s in ir.pmap.sigma))
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
            f"trips {loop.trips} unroll {loop.unroll}"
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
    """Read a ``dump_ir`` text back, with empty metadata.  Another version's
    dump, a malformed line, or a loop without its ``endloop`` is a coded
    ``LayoutError``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "vecperm-ir v5":
        raise LayoutError("not a vecperm IR dump")
    it = iter(lines[1:])
    machine = None
    layout = None
    pmap = None
    constants = []
    loops = []
    cur: list | None = None
    header: dict | None = None
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
            elif t[0] == "const":
                cid = int(t[1][1:])
                constants.append((cid, tuple(int(x) for x in t[4:])))
            elif t[0] == "loop" and len(t) == 10 and t[2:9:2] == _LOOP_KEYS:
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
                )
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
    )


_LOOP_KEYS = ["digits", "ranges", "trips", "unroll"]
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
