"""Abstract SIMD virtual machine.

Executes IR programs bit-exactly on element buffers and counts their ops.
An access may start anywhere in the data or in the one-vector guard band
past it, but no stored lane may write the band or copy an element read from
it.  Lanes are opaque bit patterns; no arithmetic ever touches element
values.

Each loop body runs once, symbolically, dispatching on each op's class.
Every register lane holds a tag naming the load lane it came from (source
or destination space and the element offset from the trip's block base),
and shuffles permute tags, so the body's stores say which element each
stored lane copies.  Each trip runs one block: ``walk_counter`` gives every
trip's (source, destination) base as an outer sum of one ``arange`` per
counter digit.  The body's extreme offsets are checked against the walk's
extreme bases in exact integers (per access only when that check fails, to
name the first bad one), and the loop's writes are recorded with one
scatter into an owner map (destination element -> source element).  The
scatter's destination indices stay int64, numpy's index type; its source
indices, like the map, are narrowed to int32 once every index is known to
lie in the data.  An unwritten element holds ``n``, so the output, one
gather of the input through the map, fails on it.  Counters are the trips
times the body's op histogram.

A destination-space lane stored back to the element it was loaded from (the
reserve sequence of a partially valid store) writes back what memory
already holds and is dropped, provided no other store runs between its load
and its store; any other destination lane reaching a store is an error.
Execution also fails on a body that does not start with its one ADDR op
(one missing, late or repeated), registers read before the body writes
them, unresolved or malformed shuffle tables, accesses that start before
the data or past the guard band, stored lanes that write the guard band or
copy an element past the data, two writes of different elements to one
address and destination elements left unwritten.  The last two are sought
only after every loop ran, and only when the stored lanes do not number
exactly the element count or leave an element unwritten: that many writes
covering every element wrote each one once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import LayoutError, TensorLayout
from .ir import Addr, IRProgram, Loop, VLoad, VShuf, VStore
from .machine import MachineConfig
from .planner import walk_counter

__all__ = ["VMError", "execute", "audit_complexity", "format_counters"]


class VMError(RuntimeError):
    pass


_COUNTER_KEYS = (
    "vload",
    "vstore",
    "vshuf",
    "addr",
    "vload_unaligned",
    "vstore_unaligned",
    "vload_dst",
)


@dataclass
class _Body:
    """A loop body after its symbolic run."""

    loads: np.ndarray   # per VLoad: (offset, from dst, stores before it)
    stores: np.ndarray  # per VStore: offset
    tags: np.ndarray    # per VStore, per lane: load index * w + load lane
    counts: dict        # op histogram under _COUNTER_KEYS
    spans: tuple        # lowest, highest source load offset; same for destination
                        # loads and stores; 0 for a space with no access


def _tables(ir: IRProgram, w: int) -> dict:
    """Constant id -> lane selector for tuples of tags."""
    out = {}
    for cid, lanes in ir.constants:
        if len(lanes) != w or min(lanes) < 0 or max(lanes) >= 2 * w:
            raise VMError("malformed shuffle index table")
        out[cid] = itemgetter(*lanes)
    return out


def _symbolic(loop: Loop, tables: dict, w: int) -> _Body:
    """Run the body once with a tag in every lane, dispatching on each op's
    class."""
    addr, *ops = loop.body or (None,)
    if not isinstance(addr, Addr) or Addr in map(type, ops):
        raise VMError(f"loop {loop.name}: body does not start with its one addr op")
    regs: dict[int, tuple] = {}
    loads: list[tuple] = []
    stores: list[int] = []
    tags: list[tuple] = []
    shufs = load_u = store_u = from_dst = 0

    def unwritten(r):
        raise VMError(f"register r{r} read before any write")

    for op in ops:
        cls = op.__class__
        if cls is VShuf:
            sel = tables.get(op.table)
            if sel is None:
                raise VMError(f"unresolved constant table c{op.table}")
            regs[op.dst] = sel((regs.get(op.a) or unwritten(op.a))
                               + (regs.get(op.b) or unwritten(op.b)))
            shufs += 1
        elif cls is VLoad:
            first = len(loads) * w
            dst = op.space == "dst"
            loads.append((op.offset, dst, len(stores)))
            regs[op.dst] = tuple(range(first, first + w))
            load_u += not op.aligned
            from_dst += dst
        elif cls is VStore:
            stores.append(op.offset)
            tags.append(regs.get(op.src) or unwritten(op.src))
            store_u += not op.aligned
        else:
            raise VMError(f"unknown op {op!r}")
    src_offs = [off for off, dst, _ in loads if not dst] or [0]
    dst_offs = [off for off, dst, _ in loads if dst] + stores or [0]
    counts = {"vload": len(loads), "vstore": len(stores), "vshuf": shufs, "addr": 1,
              "vload_unaligned": load_u, "vstore_unaligned": store_u, "vload_dst": from_dst}
    return _Body(
        loads=np.array(loads, dtype=np.int64).reshape(-1, 3),
        stores=np.array(stores, dtype=np.int64),
        tags=np.array(tags, dtype=np.int64).reshape(len(tags), w),
        counts=counts,
        spans=(min(src_offs), max(src_offs), min(dst_offs), max(dst_offs)),
    )


def _steps(loop: Loop) -> int:
    """Steps of the loop's counter sub-range that its digits walk."""
    n = 1
    for _, (lo, hi) in zip(loop.digits, loop.ranges):
        n *= max(hi - lo, 0)
    return n


def _check_bounds(what: str, lo: np.ndarray, hi: np.ndarray, n: int):
    """Accesses whose lowest and highest start addresses are lo, hi must all
    start within [0, n]: the kernel contract gives slack only past the data."""
    bad = (lo < 0) | (hi > n)
    if bad.any():
        i = int(np.argmax(bad))
        raise VMError(f"{what} at {lo[i] if lo[i] < 0 else hi[i]} outside data and guard band")


def execute(ir: IRProgram, input_buf: np.ndarray | bytes) -> tuple[np.ndarray, dict]:
    """Run the program; returns (output buffer, op counters).

    Raises VMError on any of the faults listed in the module docstring;
    conflicting writes are reported before unwritten elements.
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

    tables = _tables(ir, w)
    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    # owner[i]: the source element written to destination element i, n if
    # none; source indices are narrowed to 32 bits where n allows
    index = np.int32 if n < 1 << 31 else np.int64
    owner = np.full(n, n, dtype=index)
    lane = np.arange(w, dtype=np.int64)
    writes = []  # per loop: (dbase, sbase, kept write offsets, their read offsets)
    total = 0
    for loop in ir.loops:
        body = _symbolic(loop, tables, w)
        for key, c in body.counts.items():
            counters[key] += c * loop.trips
        if loop.trips == 0:
            continue
        # trip t's block is step t of the loop's counter sub-range
        steps = None if loop.trips == _steps(loop) else np.arange(loop.trips)
        _, sbase, dbase = walk_counter(loop.digits, loop.ranges, steps)
        smin, smax = int(sbase.min()), int(sbase.max())
        dmin, dmax = int(dbase.min()), int(dbase.max())
        loff, ldst, lseen = body.loads.T
        soff = body.stores
        # the body's extreme offsets clear the walk's extremes, or the exact
        # per-access check finds the first access out of bounds
        slo, shi, dlo, dhi = body.spans
        if smin + slo < 0 or smax + shi > n or dmin + dlo < 0 or dmax + dhi > n:
            from_dst = ldst.astype(bool)
            _check_bounds("load", np.where(from_dst, dmin, smin) + loff,
                          np.where(from_dst, dmax, smax) + loff, n)
            _check_bounds("store", dmin + soff, dmax + soff, n)
        if not soff.size:
            continue
        # one row per store lane: where it writes, and which load lane it holds
        load, j = np.divmod(body.tags.ravel(), w)
        woff = (soff[:, None] + lane).ravel()
        roff = loff[load] + j
        if body.counts["vload_dst"]:
            dst_lane = ldst.astype(bool)[load]
            writeback = dst_lane & (roff == woff)
            if (dst_lane & ~writeback).any():
                raise VMError("a destination-space lane reaches a store at another address")
            if (writeback & (lseen[load] != np.repeat(np.arange(soff.size), w))).any():
                raise VMError("a write-back crosses another store")
            woff, roff = woff[~dst_lane], roff[~dst_lane]
            if not woff.size:
                continue
        if dmax + woff.max() >= n:
            dst_at = (dbase[:, None] + woff).ravel()
            raise VMError(f"store writes guard address {dst_at[np.argmax(dst_at >= n)]}")
        if smax + roff.max() >= n:
            raise VMError("a stored lane reads past the data")
        # every write and read index now lies in [0, n), so the narrowed
        # source sums, exact modulo 2**32, are exact
        owner[np.add.outer(dbase, woff).ravel()] = np.add.outer(
            sbase.astype(index), roff.astype(index)).ravel()
        writes.append((dbase, sbase, woff, roff))
        total += dbase.size * woff.size

    # n writes that leave nothing unwritten wrote each element once; an
    # unwritten element's index n fails the gather
    if total == n:
        try:
            return data.take(owner), counters
        except IndexError:
            pass
    for dbase, sbase, woff, roff in writes:
        dst_at = (dbase[:, None] + woff).ravel()
        clash = owner[dst_at] != (sbase[:, None] + roff).ravel()
        if clash.any():
            raise VMError(f"conflicting writes to destination element {dst_at[np.argmax(clash)]}")
    unwritten = np.flatnonzero(owner == n)
    if unwritten.size:
        raise VMError(f"destination element {unwritten[0]} never written")
    return data.take(owner), counters


def audit_complexity(
    counters: dict,
    layout: TensorLayout,
    machine: MachineConfig,
    utilization: float = 1.0,
) -> dict:
    """Vector ops per w elements versus the (2 + log2 w) / utilization cap."""
    n = layout.num_elements
    w = machine.lanes
    vec_ops = sum(counters.get(k, 0) for k in ("vload", "vstore", "vshuf"))
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
