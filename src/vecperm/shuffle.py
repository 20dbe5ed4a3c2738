"""Butterfly shuffles, selector vectors, pruning and load/store records.

The local permutation of one block is a sequence of pairwise register
exchanges: step ``k`` shuffles register ``i`` with register ``i ^ (1<<k)``,
retiring one register-number bit into the lanes and promoting one lane bit
into the register number.  Common bits (dimensions trailing on both sides)
never cross and each removes one step.  The final step composes its
exchange with the full intra-register reorder, so every earlier step uses
fixed, permutation-independent selector vectors: a swap of one lane bit,
or, at 4-byte elements where lane bits 0 and 1 both retire, a zip of each
4-lane group (``[a0,b0,a1,b1]`` and ``[a2,b2,a3,b3]``) followed by a swap
of lane bit 1.  Both are one unpack (NEON: zip) per 16-byte part, where a
4-byte swap of lane bit 0 (``[a0,b0,a2,b2]``) takes SSE2 two instructions.
The zip leaves the lanes where two swaps would and only trades the places
of the two promoted register bits, which the store offsets absorb.  A load
takes at most one self-shuffle: the spread of a padded row into its lanes,
composed, when there is no exchange step, with the reorder into
destination lane order.

Padding analysis is static.  The unpruned butterfly depends only on the
block structure (lane count, the bits each side carries, the step count
and the 4-byte zip), so it is routed once per structure and cached; each
phase's validity masks over that trajectory drop the loads and shuffles
that produce no valid lane and degrade a shuffle whose partner holds no
valid data to a self-shuffle.  Stores with fewer
valid lanes than the register either borrow the leading lanes of the
destination-adjacent register, or reserve the current memory content and
write it back, so every store is safe under any execution order.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import NamedTuple

import numpy as np

from .core import LayoutError
from .planner import BlockPlan, Phase, SideEntry

__all__ = ["LoadRec", "ShufRec", "StoreRec", "BlockOps", "build_block_ops"]

VIRT = None  # marker for virtual bit slots


# ---------------------------------------------------------------------------
# block geometry

# Block structures whose routing stays cached: room for the 180-213 that
# one pass over a perfbench gen_mixed pool of 3000 jobs meets, with its
# verify jobs, and for the 473 of the 1000-case acceptance campaign.
# Routings take about 12 KiB each on average over a gen_mixed pool.
ROUTING_CACHE_SIZE = 512


class _Routing:
    """The butterfly of one block structure: who lives in lanes, who in
    register numbers, the exchange selectors, and the unpruned butterfly
    routed once (``traj``), from which every phase reads masks.

    A block structure is the lane count, the (dim, bit) refs of the row
    (source) and the column (destination) side, innermost first, the step
    count, and whether elements are 4 bytes wide (which allows the zip).
    No extent, stride or phase enters, so every plan of one structure
    shares one routing (``_routing``); its arrays refuse writes.

    An element is numbered by its bits over all real block bits, in sorted
    (dim, bit) order; -1 marks a lane that holds no element.  Every
    per-lane and per-slot table (elements, the final selectors) is a sum of
    one weight per set bit, built in O(w) by doubling over the bits
    (``_bit_sums``).

    Steps promote lane bits innermost first, virtual ones before real ones.
    At 4-byte elements, where lane bits 0 and 1 both retire, the promote
    order takes bit 1 first: its step zips, promoting bit 1 and moving bit
    0 up to bit 1, and the next step swaps bit 1.  The step loop therefore
    finds a promoted ref's lane in the current ``lane_contents``.
    """

    def __init__(self, w: int, lane_bits: int, zip4: bool, g: int,
                 row_refs: tuple, col_refs: tuple):
        self.w = w
        u, v = len(row_refs), len(col_refs)
        s = max(u, v)
        if s > lane_bits:
            raise LayoutError("block exceeds vector width")
        row_set, col_set = set(row_refs), set(col_refs)
        num_slots = 1 << g

        # register-number bits before the butterfly: trailing destination
        # bits that are not already in the lanes, innermost first, padded
        # with virtual bits
        init_regs: list = [r for r in col_refs if r not in row_set]
        init_regs += [VIRT] * (g - len(init_regs))
        # lane bits promoted into register numbers, one per step; virtual
        # lane bits go first so the active register count shrinks early
        promote: list = [VIRT] * (s - u) + [r for r in row_refs if r not in col_set]
        assert len(promote) == g
        # at 4-byte elements a zip then a swap of bit 1 retire lane bits 0
        # and 1 in one instruction per 16-byte part each; a swap of bit 0
        # would take two
        zip_at = None
        if zip4 and u >= 2 and not {row_refs[0], row_refs[1]} & col_set:
            zip_at = s - u
            promote[zip_at:zip_at + 2] = promote[zip_at + 1], promote[zip_at]
        # the register bits of every slot before and after the butterfly,
        # which the plan's strides turn into load and store offsets
        self.init_regs, self.promote = tuple(init_regs), tuple(promote)

        canon_pos = {ref: i for i, ref in enumerate(sorted(row_set | col_set))}
        initial = self._elements(canon_pos, row_refs, init_regs)
        self.final = self._elements(canon_pos, col_refs, promote)

        # with no exchange step the load's self-shuffle also reorders lanes
        # into destination order: lane l takes the lane ``order[l]`` of the
        # spread row, and ``initial`` holds the lanes after it.  The reorder
        # reads only the side's low bits, so it repeats past them
        self.order = None
        if not g:
            order = _bit_sums([1 << row_refs.index(ref) for ref in col_refs]) * (w >> v)
            initial = initial[:, order]
            self.order = tuple(order)

        # one (lo, hi) selector pair per step; the last step composes its
        # exchange with the full reorder into destination lane order.  The
        # unpruned butterfly is routed once: ``traj[k]`` is the element at
        # every (slot, lane) before step k, ``traj[g]`` after the last one
        lane_contents: list = [row_refs[p] if p < u else VIRT for p in range(lane_bits)]
        reg_contents = list(init_regs)
        virt_next = u
        self.traj = traj = np.empty((g + 1, num_slots, w), dtype=np.int64)
        traj[0] = initial
        steps = []
        for k in range(g):
            if promote[k] is VIRT:
                lane_pos = virt_next
                virt_next += 1
            else:
                lane_pos = lane_contents.index(promote[k])
            if k == g - 1:
                sels = _composite_selectors(w, col_refs, promote[k], reg_contents[k],
                                            lane_contents)
            elif k == zip_at:
                # lane bit 0 moves up to bit 1; the register bit retires
                # into bit 0
                sels = _zip_selectors(w)
                lane_contents[1], lane_pos = lane_contents[0], 0
            else:
                sels = _swap_selectors(w, lane_pos)
            traj[k].take(_route(num_slots, k, sels), out=traj[k + 1])
            # (out_slot, lo, hi, exchange selector, self-shuffle selector)
            # of every output, low output first
            skeleton = _step_outputs(num_slots, k)
            steps.append(tuple(map(add, skeleton, _vecs(sels, w) * (len(skeleton) // 2))))
            lane_contents[lane_pos] = reg_contents[k]
            reg_contents[k] = promote[k]
        self.steps = tuple(steps)
        # lanes whose routed element is not the one the store expects; the
        # routing oracle fails if any of them is valid in a phase
        self.misrouted = traj[-1] != self.final

        # each dimension's value at every element (its bits are adjacent)
        self.num_elements = 1 << len(canon_pos)
        elem = np.arange(self.num_elements)
        nbits = Counter(dim for dim, _ in canon_pos)
        self.dim_values = tuple(
            (d, (elem >> canon_pos[d, 0]) & ((1 << n) - 1)) for d, n in nbits.items()
        )
        for table in (traj, self.final, self.misrouted, *(val for _, val in self.dim_values)):
            table.flags.writeable = False

    def _elements(self, canon_pos, lane_refs, reg_refs) -> np.ndarray:
        """Element at every (slot, lane) when the lane number carries
        ``lane_refs`` and the register number ``reg_refs``; -1 where the
        lane is past the block or a virtual register bit is set.  It is the
        OR of a per-slot and a per-lane part, where -1 absorbs the other."""
        by_lane = _bit_sums([1 << canon_pos[ref] for ref in lane_refs])
        by_lane += [-1] * (self.w - len(by_lane))
        by_slot = _bit_sums([None if ref is VIRT else 1 << canon_pos[ref] for ref in reg_refs])
        return np.array(by_slot, dtype=np.int64)[:, None] | np.array(by_lane, dtype=np.int64)

    def valid_table(self, valid_counts: dict[int, int]) -> np.ndarray:
        """Validity of every element under one phase's ``valid_counts``,
        indexable by -1 (never valid).  Indexing it with ``traj`` or
        ``final`` gives that phase's lane masks."""
        ok = np.ones(self.num_elements + 1, dtype=bool)
        ok[-1] = False
        for dim, val in self.dim_values:
            ok[:-1] &= val < valid_counts.get(dim, 1)
        return ok


@functools.lru_cache(maxsize=ROUTING_CACHE_SIZE)
def _routing(w: int, lane_bits: int, zip4: bool, g: int, row_refs: tuple,
             col_refs: tuple) -> _Routing:
    """The shared, read-only routing of one block structure."""
    return _Routing(w, lane_bits, zip4, g, row_refs, col_refs)


class _Geometry:
    """One plan's block geometry: the routing of its block structure and
    what the plan's extents and strides decide.

    The routing (``_Routing``: init and promote orders, the zip step,
    ``traj``, ``steps``, ``final``, ``misrouted``, the element values of
    each dim and the reorder of a plan without exchange steps) is built
    once per block structure and kept, read-only, in an LRU cache of
    ``ROUTING_CACHE_SIZE`` entries keyed by (lanes, lane bits, 4-byte
    elements, shuffle steps, row refs, col refs).  Per plan stay each
    slot's load and store offsets and their alignment, the load's
    self-shuffle (``spread``) and each store lane's rank in destination
    memory (``dest_rank``); every phase still runs the routing oracle.
    Of the jobs of one pass, 94% reuse an earlier job's structure in a
    perfbench gen_mixed pool (seed 901), 32% in campaign_vm's 225 and 50%
    in the 12 ROADMAP jobs.

    ``steps``, ``traj``, ``final``, ``misrouted`` and ``valid_table`` are
    the routing's.
    """

    def __init__(self, plan: BlockPlan):
        m = plan.machine
        self.w = w = m.lanes
        # (dim, bit) carried by each lane bit of a freshly loaded register
        # and of a register about to be stored, innermost first
        row_refs = tuple((e.dim, b) for e in plan.row_entries for b in range(e.bits))
        col_refs = tuple((e.dim, b) for e in plan.col_entries for b in range(e.bits))
        self.routing = rt = _routing(w, m.lane_bits, m.elem_width == 4, plan.shuffle_steps,
                                     row_refs, col_refs)
        self.steps, self.traj, self.final = rt.steps, rt.traj, rt.final
        self.misrouted, self.valid_table = rt.misrouted, rt.valid_table

        # destination stride of every source dim: output dim j is sigma[j]
        dst_stride = {}
        stride = 1
        for dim in plan.pmap.sigma:
            dst_stride[dim] = stride
            stride *= plan.layout.dims[dim]
        self.load_offsets = _offsets(rt.init_regs, plan.layout.strides)
        self.store_offsets = _offsets(rt.promote, dst_stride)
        # a slot's access is aligned when its offset and every block base are
        src_ok = all(d.src_stride % w == 0 for d in plan.counter_digits)
        dst_ok = all(d.dst_stride % w == 0 for d in plan.counter_digits)
        self.load_aligned = [src_ok and off % w == 0 for off in self.load_offsets]
        self.store_aligned = [dst_ok and off % w == 0 for off in self.store_offsets]

        # the load's self-shuffle: lane l takes memory rank spread[l],
        # followed by the routing's reorder where it has one.  A side's rank
        # reads only the side's low bits, so it repeats past them
        spread = _ranks(plan.row_entries) + list(range(1 << len(row_refs), w))
        if rt.order is not None:
            spread = [spread[l] for l in rt.order]
        self.spread = None if spread == list(range(w)) else tuple(spread)
        self.dest_rank = _ranks(plan.col_entries) * (w >> len(col_refs))


def _bit_sums(weights) -> list[int]:
    """For every index below 2**len(weights), the sum of the non-negative
    ``weights[k]`` over its set bits k, built by doubling; -1 where a bit
    weighted None (a virtual bit) is set."""
    out = [0]
    for wt in weights:
        out += [-1] * len(out) if wt is None else [x if x < 0 else x + wt for x in out]
    return out


def _offsets(reg_refs, strides) -> list[int]:
    """Element offset of every slot whose register number carries ``reg_refs``."""
    return _bit_sums([0 if ref is VIRT else strides[ref[0]] << ref[1] for ref in reg_refs])


def _ranks(entries: tuple[SideEntry, ...]) -> list[int]:
    """Memory rank of every padded block lane below 2**(the side's bits)
    among the true (contiguous) elements of one block side: bit b of an
    entry weighs 2**b times the true elements of the entries before it."""
    weights = []
    radix = 1
    for e in entries:
        weights += [radix << b for b in range(e.bits)]
        radix *= min(e.size, 1 << e.bits)
    return _bit_sums(weights)


def _step_outputs(num_slots: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """(out_slot, lo, hi) of every output of step ``k``: register pairs lo,
    hi = lo | 1 << k in ascending order, low output first."""
    return tuple(
        (lo | side << k, lo, lo | 1 << k)
        for lo in range(num_slots) if not (lo >> k) & 1
        for side in (0, 1)
    )


def _route(num_slots: int, k: int, sels) -> np.ndarray:
    """Flat (slot, lane) index each output lane of step ``k`` reads: slot o
    applies ``sels[o >> k & 1]`` to registers lo, hi = lo | 1 << k side by
    side (lo's lanes, then hi's)."""
    sel = np.array(sels, dtype=np.int64)
    w = sel.shape[1]
    # lanes of hi sit 2**k slots after lo's
    sel += (sel >= w) * (((1 << k) - 1) * w)
    slot = np.arange(num_slots)
    return (slot & ~(1 << k))[:, None] * w + sel[(slot >> k) & 1]


def _swap_selectors(w: int, lane_pos: int):
    """Selectors of the low and the high output of an exchange step that
    swaps lane bit ``lane_pos``."""
    mask = 1 << lane_pos
    lo, hi = [], []
    for l in range(w):
        half = w if (l & mask) else 0
        lo.append(half + (l & ~mask))
        hi.append(half + (l | mask))
    return lo, hi


def _zip_selectors(w: int):
    """Selectors of the low and the high output of an exchange step that
    zips each 4-lane group: low output lane l reads register l & 1 at lane
    (l & ~3) | (l >> 1 & 1), ``[a0,b0,a1,b1]``, and the high output two
    lanes higher, ``[a2,b2,a3,b3]``.  It promotes lane bit 1, moves lane
    bit 0 up to bit 1 and retires the register bit into lane bit 0."""
    lo = [(l & 1) * w + ((l & ~3) | (l >> 1 & 1)) for l in range(w)]
    return lo, [sel + 2 for sel in lo]


def _vecs(sels, w: int):
    """(exchange, self-shuffle) selectors of the low and the high output."""
    return tuple((tuple(sel), tuple(i % w for i in sel)) for sel in sels)


def _composite_selectors(w, col_refs, promoted, retired, lane_contents):
    """Final-step selectors: exchange plus full intra-register reorder.
    Final lane l's selector is a sum of weights over the set bits of its
    low ``len(col_refs)`` bits, plus a constant on the high output: bit q
    carries ``col_refs[q]``, which the pair holds at the lanes and the side
    that ``lane_contents`` and ``retired`` give."""

    def weight(ref):
        # selector weight of a ref: its lane bits, plus w where it is retired
        return sum(1 << p for p, r in enumerate(lane_contents) if r == ref) + w * (retired == ref)

    for ref in (*lane_contents, retired):
        if ref is not VIRT and ref != promoted and ref not in col_refs:
            raise AssertionError(f"unplaced ref {ref} at final step")
    lo = _bit_sums([weight(ref) for ref in col_refs]) * (w >> len(col_refs))
    high = 0 if promoted is VIRT else weight(promoted)
    return lo, [sel + high for sel in lo]


# ---------------------------------------------------------------------------
# per-phase records: named tuples, which build several times faster than
# frozen dataclasses and are as immutable


class LoadRec(NamedTuple):
    slot: int
    offset: int          # elements, relative to the block base
    aligned: bool
    spread: tuple[int, ...] | None  # self-shuffle selectors, or None


class ShufRec(NamedTuple):
    step: int
    out_slot: int
    in_lo: int
    in_hi: int | None    # None marks a self-shuffle of in_lo
    vec: tuple[int, ...]


class StoreRec(NamedTuple):
    slot: int
    offset: int
    aligned: bool
    mode: str            # 'plain' | 'borrow' | 'reserve'
    vec: tuple[int, ...] | None
    borrow_slot: int | None
    valid_count: int


@dataclass(frozen=True)
class BlockOps:
    """Everything one phase needs per block: loads, shuffles, stores."""

    phase: Phase
    loads: tuple[LoadRec, ...]
    shuffles: tuple[ShufRec, ...]
    stores: tuple[StoreRec, ...]


def build_block_ops(plan: BlockPlan) -> tuple[BlockOps, ...]:
    """One ``BlockOps`` per entry of ``plan.phases()``, in that order, all
    from one block geometry."""
    geo = _Geometry(plan)
    return tuple(_phase_ops(geo, phase) for phase in plan.phases())


def _phase_ops(geo: _Geometry, phase: Phase) -> BlockOps:
    """Loads, shuffles and stores of one block of ``phase``, in emission
    order: shuffles by step, then register pair, then low output first;
    stores by ascending destination offset."""
    w = geo.w
    valid = geo.valid_table(phase.valid_counts)

    # Pruning moves no valid element: a dropped output holds none, and a
    # self-shuffle reads the exchange's lanes wherever those are valid (its
    # other lanes copy its own, into a register that holds their source).
    # So the unpruned routing tells which registers hold a valid lane.
    has = valid[geo.traj].any(-1).tolist()

    # loads: registers holding no valid lane are never read
    loads = [
        LoadRec(slot, geo.load_offsets[slot], geo.load_aligned[slot], geo.spread)
        for slot, live in enumerate(has[0])
        if live
    ]

    # shuffles: drop outputs with no valid lane; an exchange whose partner
    # holds nothing valid becomes a self-shuffle of the other register
    shuffles = []
    for k, outs in enumerate(geo.steps):
        now, kept = has[k], has[k + 1]
        for out_slot, lo, hi, sel, self_sel in outs:
            if not kept[out_slot]:
                continue
            if now[lo] and now[hi]:
                shuffles.append(ShufRec(k, out_slot, lo, hi, sel))
            else:
                shuffles.append(ShufRec(k, out_slot, lo if now[lo] else hi, None, self_sel))

    # routing oracle: every valid element must now sit at its target lane
    store_valid = valid[geo.final]
    wrong = store_valid & geo.misrouted
    if wrong.any():
        slot, lane = np.argwhere(wrong)[0].tolist()
        raise AssertionError(
            f"routing failure at slot {slot} lane {lane}: "
            f"{geo.traj[-1][slot, lane]} != {geo.final[slot, lane]}"
        )

    # stores, ascending destination offset, with their valid lane counts
    counts = store_valid.sum(-1).tolist()
    final = sorted((geo.store_offsets[slot], slot, cv) for slot, cv in enumerate(counts) if cv)
    if w in counts:
        # a fully valid register has no padding anywhere, so its lanes are
        # already in destination memory order
        assert sorted(range(w), key=geo.dest_rank.__getitem__) == list(range(w))

    def gather(slot: int) -> list[int]:
        """Padded lane of the j-th valid element of a partially valid slot,
        in destination memory order."""
        lanes = store_valid[slot].nonzero()[0].tolist()
        return sorted(lanes, key=geo.dest_rank.__getitem__)

    stores = []
    for i, (off, slot, cv) in enumerate(final):
        borrow = vec = None
        if cv == w:
            mode = "plain"
        else:
            sel = gather(slot)
            if i + 1 < len(final):
                noff, nslot, ncv = final[i + 1]
                if noff == off + cv and ncv >= w - cv:
                    borrow = nslot
            if borrow is not None:
                nsel = range(w) if ncv == w else gather(borrow)
                vec = (*sel, *(w + lane for lane in nsel[:w - cv]))
                mode = "borrow"
            else:
                vec = (*sel, *range(w + cv, 2 * w))
                mode = "reserve"
        stores.append(StoreRec(slot, off, geo.store_aligned[slot], mode, vec, borrow, cv))

    return BlockOps(
        phase=phase,
        loads=tuple(loads),
        shuffles=tuple(shuffles),
        stores=tuple(stores),
    )
