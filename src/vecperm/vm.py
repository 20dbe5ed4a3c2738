"""Abstract SIMD virtual machine.

Executes IR programs bit-exactly on element buffers with one-vector guard
bands and per-opcode counters.  Lanes are opaque bit patterns; no
arithmetic ever touches element values.

Each loop body runs once, symbolically.  Every register lane holds a tag
naming the load lane it came from (source or destination space, the ADDR op
whose base the load used, and the element offset), and shuffles permute
tags, so the body's stores say which element each stored lane copies.
numpy then computes every trip's (source, destination) bases from the
loop's counter digits, bounds-checks all accesses at once and records the
loop's writes with one gather and one scatter.  Counters are the trips
times the body's op histogram.

A destination-space lane stored back to the element it was loaded from (the
reserve sequence of a partially valid store) writes back what memory
already holds and is dropped, provided no other store runs between its load
and its store; any other destination lane reaching a store is an error.
Execution also fails on registers read before the body writes them, scalar
registers used before their ADDR op, unresolved or malformed shuffle
tables, accesses outside the guard band, two writes of different elements
to one address, writes into a guard band, destination elements left
unwritten and, in optimized programs, register ids beyond the budget left
after the loop's pinned tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import LayoutError, TensorLayout
from .ir import Addr, IRProgram, Loop, VLoad, VSelfShuf, VShuf, VStore
from .machine import MachineConfig

__all__ = ["VMError", "VMState", "run", "execute", "audit_complexity", "format_counters"]


class VMError(RuntimeError):
    pass


_SENTINEL_MULT = 0x9E3779B1

_COUNTER_KEYS = (
    "vload",
    "vstore",
    "vshuf",
    "vselfshuf",
    "addr",
    "vload_unaligned",
    "vstore_unaligned",
    "vload_dst",
)


def _sentinels(n: int, dtype) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=np.uint64)
    return (i * _SENTINEL_MULT).astype(dtype)


@dataclass
class VMState:
    """One execution's output, op counters and optional store trace.

    A trace event is ``(address, lane bytes)`` per executed store, in trip
    then body order; a dropped write-back lane shows the value it preserves.
    """

    program: IRProgram
    output: np.ndarray
    counters: dict
    trace: list | None = None


@dataclass
class _Body:
    """A loop body after its symbolic run."""

    addrs: int          # ADDR ops, i.e. counter steps per trip
    loads: np.ndarray   # per VLoad: (ADDR op, offset, from dst, stores before it)
    stores: np.ndarray  # per VStore: (ADDR op, offset)
    tags: np.ndarray    # per VStore, per lane: load index * w + load lane
    counts: dict        # op histogram under _COUNTER_KEYS


def execute(
    ir: IRProgram, input_buf: np.ndarray | bytes, trace: bool = False
) -> tuple[np.ndarray, dict]:
    """Run the program; returns (output buffer, op counters)."""
    st = run(ir, input_buf, trace=trace)
    return st.output, dict(st.counters)


def _tables(ir: IRProgram, w: int) -> dict:
    """Constant id -> lane selector for tuples of tags."""
    out = {}
    for cid, lanes in ir.constants:
        if len(lanes) != w or min(lanes) < 0 or max(lanes) >= 2 * w:
            raise VMError("malformed shuffle index table")
        out[cid] = (itemgetter(*lanes), max(lanes))
    return out


def _register_limits(ir: IRProgram) -> dict:
    """Loop name -> registers left beside its pinned tables (optimized programs)."""
    stats = ir.metadata.get("loop_stats") or ()
    budget = ir.machine.num_vector_registers
    return {s["name"]: budget - s["tables"] for s in stats}


def _symbolic(loop: Loop, tables: dict, w: int, limit: int | None) -> _Body:
    """Run the body once with a tag in every lane."""
    counts = dict.fromkeys(_COUNTER_KEYS, 0)
    addr_of: dict[int, int] = {}  # scalar register -> ADDR op that last set it
    regs: dict[int, tuple] = {}
    loads: list[tuple] = []
    stores: list[tuple] = []
    tags: list[tuple] = []

    def base(scalar):
        if scalar not in addr_of:
            raise VMError(f"scalar s{scalar} used before its addr op")
        return addr_of[scalar]

    def read(r):
        if r not in regs:
            raise VMError(f"register r{r} read before any write")
        return regs[r]

    def table(cid):
        if cid not in tables:
            raise VMError(f"unresolved constant table c{cid}")
        return tables[cid]

    for op in loop.body:
        if isinstance(op, Addr):
            addr_of[op.scalar] = counts["addr"]
            counts["addr"] += 1
            continue
        if isinstance(op, VLoad):
            first = len(loads) * w
            from_dst = op.space == "dst"
            loads.append((base(op.scalar), op.offset, from_dst, len(stores)))
            regs[op.dst] = tuple(range(first, first + w))
            counts["vload"] += 1
            counts["vload_unaligned"] += not op.aligned
            counts["vload_dst"] += from_dst
            regs_used = (op.dst,)
        elif isinstance(op, VStore):
            stores.append((base(op.scalar), op.offset))
            tags.append(read(op.src))
            counts["vstore"] += 1
            counts["vstore_unaligned"] += not op.aligned
            regs_used = (op.src,)
        elif isinstance(op, VShuf):
            pick, _ = table(op.table)
            regs[op.dst] = pick(read(op.a) + read(op.b))
            counts["vshuf"] += 1
            regs_used = (op.a, op.b, op.dst)
        elif isinstance(op, VSelfShuf):
            pick, top = table(op.table)
            if top >= w:
                raise VMError("self-shuffle selector exceeds one register")
            regs[op.dst] = pick(read(op.a))
            counts["vselfshuf"] += 1
            regs_used = (op.a, op.dst)
        else:
            raise VMError(f"unknown op {op!r}")
        if limit is not None and max(regs_used) >= limit:
            raise VMError(
                f"loop {loop.name} uses r{max(regs_used)}; only {limit} registers "
                "are free beside its pinned tables"
            )
    return _Body(
        addrs=counts["addr"],
        loads=np.array(loads, dtype=np.int64).reshape(-1, 4),
        stores=np.array(stores, dtype=np.int64).reshape(-1, 2),
        tags=np.array(tags, dtype=np.int64).reshape(len(tags), w),
        counts=counts,
    )


def _bases(loop: Loop, addrs: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, destination) base of every ADDR op of every trip, each shaped
    (trips, addrs): ADDR op k of trip t takes counter step start + t*addrs + k
    of the mixed-radix walk over the loop's sub-range, digit 0 fastest."""
    rem = np.arange(loop.start, loop.start + loop.trips * addrs, dtype=np.int64)
    src = np.zeros_like(rem)
    dst = np.zeros_like(rem)
    for dg, (lo, hi) in zip(loop.digits, loop.ranges):
        rem, pos = np.divmod(rem, hi - lo)
        pos += lo
        src += dg.src_stride * pos
        dst += dg.dst_stride * pos
    return src.reshape(loop.trips, addrs), dst.reshape(loop.trips, addrs)


def _check_bounds(what: str, lo: np.ndarray, hi: np.ndarray, w: int, n: int):
    """Accesses whose lowest and highest start addresses are lo, hi must all
    start within [-w, n]."""
    bad = (lo < -w) | (hi > n)
    if bad.any():
        i = int(np.argmax(bad))
        raise VMError(f"{what} at {lo[i] if lo[i] < -w else hi[i]} outside guard band")


def run(ir: IRProgram, input_buf: np.ndarray | bytes, trace: bool = False) -> VMState:
    """Full execution returning the machine state (output, counters, trace).

    Raises VMError on any of the faults listed in the module docstring.
    """
    w = ir.machine.lanes
    n = ir.num_elements
    dtype = ir.layout.dtype
    data = (
        np.frombuffer(input_buf, dtype=dtype)
        if isinstance(input_buf, (bytes, bytearray))
        else np.asarray(input_buf, dtype=dtype)
    )
    if data.size != n:
        raise LayoutError(f"input holds {data.size} elements, program expects {n}")
    sent = _sentinels(w, dtype)
    src = np.concatenate((sent, data, sent))

    tables = _tables(ir, w)
    limits = _register_limits(ir)
    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    # owner[i]: index into ``src`` of the element written to destination i
    owner = np.full(n, -1, dtype=np.int64)
    lane = np.arange(w, dtype=np.int64)
    store_addrs = []
    for loop in ir.loops:
        body = _symbolic(loop, tables, w, limits.get(loop.name))
        for key, c in body.counts.items():
            counters[key] += c * loop.trips
        if loop.trips == 0:
            continue
        sbase, dbase = _bases(loop, body.addrs)
        smin, smax, dmin, dmax = sbase.min(0), sbase.max(0), dbase.min(0), dbase.max(0)
        lk, loff, ldst, lseen = body.loads.T
        from_dst = ldst.astype(bool)
        sk, soff = body.stores.T
        _check_bounds("load", np.where(from_dst, dmin[lk], smin[lk]) + loff,
                      np.where(from_dst, dmax[lk], smax[lk]) + loff, w, n)
        _check_bounds("store", dmin[sk] + soff, dmax[sk] + soff, w, n)
        if trace:
            store_addrs.append(dbase[:, sk] + soff)
        if not sk.size:
            continue
        # one row per store lane: where it writes, and which load lane it holds
        tag = body.tags.ravel()
        load, j = np.divmod(tag, w)
        wk = np.repeat(sk, w)
        woff = (soff[:, None] + lane).ravel()
        rk = lk[load]
        roff = loff[load] + j
        dst_lane = from_dst[load]
        writeback = dst_lane & (rk == wk) & (roff == woff)
        if (dst_lane & ~writeback).any():
            raise VMError("a destination-space lane reaches a store at another address")
        if (writeback & (lseen[load] != np.repeat(np.arange(sk.size), w))).any():
            raise VMError("a write-back crosses another store")
        keep = ~dst_lane
        dst_at = (dbase[:, wk[keep]] + woff[keep]).ravel()
        src_at = (sbase[:, rk[keep]] + roff[keep]).ravel() + w
        guard = (dst_at < 0) | (dst_at >= n)
        if guard.any():
            raise VMError(f"store writes guard address {dst_at[np.argmax(guard)]}")
        before = owner[dst_at]
        owner[dst_at] = src_at
        clash = ((before >= 0) & (before != src_at)) | (owner[dst_at] != src_at)
        if clash.any():
            raise VMError(
                f"conflicting writes to destination element {dst_at[np.argmax(clash)]}"
            )

    unwritten = np.flatnonzero(owner < 0)
    if unwritten.size:
        raise VMError(f"destination element {unwritten[0]} never written")
    output = src[owner]
    events = None
    if trace:
        final = np.concatenate((sent, output, sent))
        events = [(int(a), final[w + a: 2 * w + a].tobytes()) for A in store_addrs for a in A.ravel()]
    return VMState(ir, output, counters, events)


def audit_complexity(
    counters: dict,
    layout: TensorLayout,
    machine: MachineConfig,
    utilization: float = 1.0,
) -> dict:
    """Vector ops per w elements versus the (2 + log2 w) / utilization cap."""
    n = layout.num_elements
    w = machine.lanes
    vec_ops = sum(counters.get(k, 0) for k in ("vload", "vstore", "vshuf", "vselfshuf"))
    per_w = vec_ops * w / n
    bound = (2 + machine.lane_bits) / float(utilization)
    mem_ops = counters.get("vload", 0) + counters.get("vstore", 0)
    unaligned = counters.get("vload_unaligned", 0) + counters.get("vstore_unaligned", 0)
    return {
        "elements": n,
        "lanes": w,
        "vector_ops": vec_ops,
        "ops_per_w_elements": per_w,
        "bound": bound,
        "within_bound": bool(per_w <= bound + 1e-9),
        "utilization": float(utilization),
        "unaligned_fraction": unaligned / mem_ops if mem_ops else 0.0,
        "addr_ops": counters.get("addr", 0),
    }


def format_counters(counters: dict) -> str:
    return "\n".join(f"{k}: {counters[k]}" for k in sorted(counters))
