"""Abstract SIMD virtual machine.

Executes IR programs bit-exactly on element buffers with a one-vector
guard band past the data and per-opcode counters.  Lanes are opaque bit
patterns; no arithmetic ever touches element values.

Each loop body runs once, symbolically.  Every register lane holds a tag
naming the load lane it came from (source or destination space and the
element offset from the trip's block base), and shuffles permute tags, so
the body's stores say which element each stored lane copies.  Each trip
runs one block, so numpy computes every trip's (source, destination) base
pair from the loop's counter digits, bounds-checks all accesses at once and
records the loop's writes with one gather and one scatter.  Counters are
the trips times the body's op histogram.

A destination-space lane stored back to the element it was loaded from (the
reserve sequence of a partially valid store) writes back what memory
already holds and is dropped, provided no other store runs between its load
and its store; any other destination lane reaching a store is an error.
Execution also fails on a body that does not start with its one ADDR op
(one missing, late or repeated), registers read before the body writes
them, unresolved or malformed shuffle tables, accesses that start before
the data or past the guard band, two writes of different elements to one
address, writes into the guard band and destination elements left
unwritten.
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


_SENTINEL_MULT = 0x9E3779B1

_COUNTER_KEYS = (
    "vload",
    "vstore",
    "vshuf",
    "addr",
    "vload_unaligned",
    "vstore_unaligned",
    "vload_dst",
)


def _sentinels(n: int, dtype) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=np.uint64)
    return (i * _SENTINEL_MULT).astype(dtype)


@dataclass
class _Body:
    """A loop body after its symbolic run."""

    loads: np.ndarray   # per VLoad: (offset, from dst, stores before it)
    stores: np.ndarray  # per VStore: offset
    tags: np.ndarray    # per VStore, per lane: load index * w + load lane
    counts: dict        # op histogram under _COUNTER_KEYS


def _tables(ir: IRProgram, w: int) -> dict:
    """Constant id -> lane selector for tuples of tags."""
    out = {}
    for cid, lanes in ir.constants:
        if len(lanes) != w or min(lanes) < 0 or max(lanes) >= 2 * w:
            raise VMError("malformed shuffle index table")
        out[cid] = itemgetter(*lanes)
    return out


def _symbolic(loop: Loop, tables: dict, w: int) -> _Body:
    """Run the body once with a tag in every lane."""
    addr, *ops = loop.body or (None,)
    if not isinstance(addr, Addr) or any(isinstance(op, Addr) for op in ops):
        raise VMError(f"loop {loop.name}: body does not start with its one addr op")
    counts = dict.fromkeys(_COUNTER_KEYS, 0)
    counts["addr"] = 1
    regs: dict[int, tuple] = {}
    loads: list[tuple] = []
    stores: list[int] = []
    tags: list[tuple] = []

    def read(r):
        if r not in regs:
            raise VMError(f"register r{r} read before any write")
        return regs[r]

    def table(cid):
        if cid not in tables:
            raise VMError(f"unresolved constant table c{cid}")
        return tables[cid]

    for op in ops:
        if isinstance(op, VLoad):
            first = len(loads) * w
            from_dst = op.space == "dst"
            loads.append((op.offset, from_dst, len(stores)))
            regs[op.dst] = tuple(range(first, first + w))
            counts["vload"] += 1
            counts["vload_unaligned"] += not op.aligned
            counts["vload_dst"] += from_dst
        elif isinstance(op, VStore):
            stores.append(op.offset)
            tags.append(read(op.src))
            counts["vstore"] += 1
            counts["vstore_unaligned"] += not op.aligned
        elif isinstance(op, VShuf):
            regs[op.dst] = table(op.table)(read(op.a) + read(op.b))
            counts["vshuf"] += 1
        else:
            raise VMError(f"unknown op {op!r}")
    return _Body(
        loads=np.array(loads, dtype=np.int64).reshape(-1, 3),
        stores=np.array(stores, dtype=np.int64),
        tags=np.array(tags, dtype=np.int64).reshape(len(tags), w),
        counts=counts,
    )


def _check_bounds(what: str, lo: np.ndarray, hi: np.ndarray, n: int):
    """Accesses whose lowest and highest start addresses are lo, hi must all
    start within [0, n]: the kernel contract gives slack only past the data."""
    bad = (lo < 0) | (hi > n)
    if bad.any():
        i = int(np.argmax(bad))
        raise VMError(f"{what} at {lo[i] if lo[i] < 0 else hi[i]} outside data and guard band")


def execute(ir: IRProgram, input_buf: np.ndarray | bytes) -> tuple[np.ndarray, dict]:
    """Run the program; returns (output buffer, op counters).

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
    src = np.concatenate((data, _sentinels(w, dtype)))

    tables = _tables(ir, w)
    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    # owner[i]: index into ``src`` of the element written to destination i
    owner = np.full(n, -1, dtype=np.int64)
    lane = np.arange(w, dtype=np.int64)
    for loop in ir.loops:
        body = _symbolic(loop, tables, w)
        for key, c in body.counts.items():
            counters[key] += c * loop.trips
        if loop.trips == 0:
            continue
        # trip t's block is step t of the loop's counter sub-range
        _, sbase, dbase = walk_counter(loop.digits, loop.ranges, np.arange(loop.trips))
        loff, ldst, lseen = body.loads.T
        from_dst = ldst.astype(bool)
        soff = body.stores
        _check_bounds("load", np.where(from_dst, dbase.min(), sbase.min()) + loff,
                      np.where(from_dst, dbase.max(), sbase.max()) + loff, n)
        _check_bounds("store", dbase.min() + soff, dbase.max() + soff, n)
        if not soff.size:
            continue
        # one row per store lane: where it writes, and which load lane it holds
        tag = body.tags.ravel()
        load, j = np.divmod(tag, w)
        woff = (soff[:, None] + lane).ravel()
        roff = loff[load] + j
        dst_lane = from_dst[load]
        writeback = dst_lane & (roff == woff)
        if (dst_lane & ~writeback).any():
            raise VMError("a destination-space lane reaches a store at another address")
        if (writeback & (lseen[load] != np.repeat(np.arange(soff.size), w))).any():
            raise VMError("a write-back crosses another store")
        keep = ~dst_lane
        dst_at = (dbase[:, None] + woff[keep]).ravel()
        src_at = (sbase[:, None] + roff[keep]).ravel()
        guard = dst_at >= n
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
    return src[owner], counters


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
