"""Butterfly shuffles, selector vectors, pruning and load/store records.

The local permutation of one block is a sequence of pairwise register
exchanges: step ``k`` shuffles register ``i`` with register ``i ^ (1<<k)``,
retiring one register-number bit into the lanes and promoting one lane bit
into the register number.  Common bits (dimensions trailing on both sides)
never cross and each removes one step.  The final step composes its
exchange with the full intra-register reorder, so every earlier step uses
fixed, permutation-independent selector vectors.  A load takes at most one
self-shuffle: the spread of a padded row into its lanes, composed, when
there is no exchange step, with the reorder into destination lane order.

Padding analysis is static.  The unpruned butterfly is routed once per
plan; each phase's validity masks over that trajectory drop the loads and
shuffles that produce no valid lane and degrade a shuffle whose partner
holds no valid data to a self-shuffle.  Stores with fewer
valid lanes than the register either borrow the leading lanes of the
destination-adjacent register, or reserve the current memory content and
write it back, so every store is safe under any execution order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import LayoutError, permuted_layout
from .planner import BlockPlan, Phase, SideEntry

__all__ = ["LoadRec", "ShufRec", "StoreRec", "BlockOps", "build_block_ops"]

VIRT = None  # marker for virtual bit slots


# ---------------------------------------------------------------------------
# block geometry


class _Geometry:
    """Bit-level view of one block: who lives in lanes, who in register
    numbers, the phase-independent exchange selectors, and the unpruned
    butterfly routed once (``traj``), from which every phase reads masks.

    An element is numbered by its bits over all real block bits, in sorted
    (dim, bit) order (``canon_pos``); -1 marks a lane that holds no element.
    """

    def __init__(self, plan: BlockPlan):
        self.w = w = plan.machine.lanes
        lane_bits = plan.machine.lane_bits
        # (dim, bit) carried by each lane bit of a freshly loaded register
        # and of a register about to be stored, innermost first
        row_refs = tuple((e.dim, b) for e in plan.row_entries for b in range(e.bits))
        col_refs = tuple((e.dim, b) for e in plan.col_entries for b in range(e.bits))
        u, v = len(row_refs), len(col_refs)
        s = max(u, v)
        if s > lane_bits:
            raise LayoutError("block exceeds vector width")
        row_set, col_set = set(row_refs), set(col_refs)
        g = plan.shuffle_steps
        self.num_slots = 1 << g

        # register-number bits before the butterfly: trailing destination
        # bits that are not already in the lanes, innermost first, padded
        # with virtual bits
        init_regs: list = [r for r in col_refs if r not in row_set]
        init_regs += [VIRT] * (g - len(init_regs))
        # lane bits promoted into register numbers, one per step; virtual
        # lane bits go first so the active register count shrinks early
        promote: list = [VIRT] * (s - u) + [r for r in row_refs if r not in col_set]
        assert len(promote) == g

        self.canon_pos = {ref: i for i, ref in enumerate(sorted(row_set | col_set))}
        initial = self._elements(row_refs, init_regs)
        self.final = self._elements(col_refs, promote)

        out = permuted_layout(plan.layout, plan.pmap)
        dst_stride = {
            k: out.strides[plan.pmap.dest_position(k)] for k in range(plan.layout.rank)
        }
        self.load_offsets = _offsets(init_regs, plan.layout.strides)
        self.store_offsets = _offsets(promote, dst_stride)
        # a slot's access is aligned when its offset and every block base are
        src_ok = all(d.src_stride % w == 0 for d in plan.counter_digits)
        dst_ok = all(d.dst_stride % w == 0 for d in plan.counter_digits)
        self.load_aligned = [src_ok and off % w == 0 for off in self.load_offsets]
        self.store_aligned = [dst_ok and off % w == 0 for off in self.store_offsets]

        # the load's self-shuffle: lane l takes memory rank spread[l]; with
        # no exchange step it also reorders lanes into destination order,
        # and ``initial`` holds the lanes after it
        spread = [_rank(plan.row_entries, l) if l < (1 << u) else l for l in range(w)]
        if not g:
            order = [
                sum(((lane >> j) & 1) << row_refs.index(ref) for j, ref in enumerate(col_refs))
                for lane in range(w)
            ]
            spread = [spread[l] for l in order]
            initial = initial[:, order]
        self.spread = None if spread == list(range(w)) else tuple(spread)
        self.dest_rank = [_rank(plan.col_entries, l) for l in range(w)]

        # one (lo, hi) selector pair per step; the last step composes its
        # exchange with the full reorder into destination lane order.  The
        # unpruned butterfly is routed once: ``traj[k]`` is the element at
        # every (slot, lane) before step k, ``traj[g]`` after the last one
        lane_contents: list = [row_refs[p] if p < u else VIRT for p in range(lane_bits)]
        reg_contents = list(init_regs)
        virt_next = u
        traj = [initial]
        self.steps: list[list[tuple]] = []
        for k in range(g):
            if promote[k] is VIRT:
                lane_pos = virt_next
                virt_next += 1
            else:
                lane_pos = row_refs.index(promote[k])
            if k == g - 1:
                sels = _composite_selectors(
                    w, v, col_refs, promote[k], reg_contents[k], lane_contents
                )
            else:
                sels = _swap_selectors(w, lane_pos)
            # registers lo and hi = lo | 1 << k side by side, as the
            # selectors read them: (lo's lanes, then hi's)
            ab = traj[-1].reshape(-1, 2, 1 << k, w).swapaxes(1, 2).reshape(-1, 1 << k, 2 * w)
            traj.append(ab[:, :, np.array(sels)].swapaxes(1, 2).reshape(-1, w))
            # (out_slot, lo, hi, exchange selector, self-shuffle selector)
            # of every output, low output first
            vecs = [(tuple(sel), tuple(i % w for i in sel)) for sel in sels]
            self.steps.append([
                (lo | side << k, lo, lo | 1 << k) + vecs[side]
                for lo in range(self.num_slots) if not (lo >> k) & 1
                for side in (0, 1)
            ])
            lane_contents[lane_pos] = reg_contents[k]
            reg_contents[k] = promote[k]
        self.traj = np.stack(traj)

        # each dimension's value at every element (its bits are adjacent)
        elem = np.arange(1 << len(self.canon_pos))
        nbits = Counter(dim for dim, _ in self.canon_pos)
        self.dim_values = {
            d: (elem >> self.canon_pos[d, 0]) & ((1 << n) - 1) for d, n in nbits.items()
        }

    def _elements(self, lane_refs, reg_refs) -> np.ndarray:
        """Element at every (slot, lane) when the lane number carries
        ``lane_refs`` and the register number ``reg_refs``; -1 where the
        lane is past the block or a virtual register bit is set.  It is the
        OR of a per-slot and a per-lane part, where -1 absorbs the other."""
        lane = np.arange(self.w)
        slot = np.arange(self.num_slots)
        by_lane = np.zeros(self.w, dtype=np.int64)
        for p, ref in enumerate(lane_refs):
            by_lane |= ((lane >> p) & 1) << self.canon_pos[ref]
        by_lane[1 << len(lane_refs):] = -1
        by_slot = np.zeros(self.num_slots, dtype=np.int64)
        for k, ref in enumerate(reg_refs):
            bit = (slot >> k) & 1
            by_slot |= -bit if ref is VIRT else bit << self.canon_pos[ref]
        return by_slot[:, None] | by_lane

    def valid_table(self, valid_counts: dict[int, int]) -> np.ndarray:
        """Validity of every element under one phase's ``valid_counts``,
        indexable by -1 (never valid).  Indexing it with ``traj`` or
        ``final`` gives that phase's lane masks."""
        ok = np.ones((1 << len(self.canon_pos)) + 1, dtype=bool)
        ok[-1] = False
        for dim, val in self.dim_values.items():
            ok[:-1] &= val < valid_counts.get(dim, 1)
        return ok


def _offsets(reg_refs, strides) -> list[int]:
    """Element offset of every slot whose register number carries ``reg_refs``."""
    return [
        sum(
            strides[ref[0]] << ref[1]
            for k, ref in enumerate(reg_refs)
            if ref is not VIRT and (slot >> k) & 1
        )
        for slot in range(1 << len(reg_refs))
    ]


def _rank(entries: tuple[SideEntry, ...], lane: int) -> int:
    """Memory rank of a padded block lane among the true (contiguous)
    elements of one block side."""
    rank = 0
    radix = 1
    bit = 0
    for e in entries:
        rank += ((lane >> bit) & ((1 << e.bits) - 1)) * radix
        radix *= min(e.size, 1 << e.bits)
        bit += e.bits
    return rank


def _swap_selectors(w: int, lane_pos: int) -> tuple[list[int], list[int]]:
    mask = 1 << lane_pos
    lo, hi = [], []
    for l in range(w):
        half = w if (l & mask) else 0
        lo.append(half + (l & ~mask))
        hi.append(half + (l | mask))
    return lo, hi


def _composite_selectors(w, v, col_refs, promoted, retired, lane_contents):
    """Final-step selectors: exchange plus full intra-register reorder."""
    lane_v = np.arange(w) & ((1 << v) - 1)

    def elem_bit(ref, side):
        # value of a real ref in the element targeted at each final lane
        if ref is VIRT:
            return 0
        if ref == promoted:
            return side
        if ref in col_refs:
            return (lane_v >> col_refs.index(ref)) & 1
        raise AssertionError(f"unplaced ref {ref} at final step")

    out = []
    for side in (0, 1):
        src_lane = np.zeros(w, dtype=np.int64)
        for p, ref in enumerate(lane_contents):
            src_lane |= elem_bit(ref, side) << p
        out.append((elem_bit(retired, side) * w + src_lane).tolist())
    return out[0], out[1]


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
    wrong = store_valid & (geo.traj[-1] != geo.final)
    if wrong.any():
        slot, lane = np.argwhere(wrong)[0].tolist()
        raise AssertionError(
            f"routing failure at slot {slot} lane {lane}: "
            f"{geo.traj[-1][slot, lane]} != {geo.final[slot, lane]}"
        )

    # stores, ascending destination offset
    final = []
    for slot, mask in enumerate(store_valid.tolist()):
        vl = [lane for lane, ok in enumerate(mask) if ok]
        if vl:
            final.append((geo.store_offsets[slot], slot, vl))
    final.sort()

    def gather(valid_lanes: list[int]) -> list[int]:
        """Padded lane of the j-th valid element in destination memory order."""
        return sorted(valid_lanes, key=geo.dest_rank.__getitem__)

    stores = []
    for i, (off, slot, vl) in enumerate(final):
        cv = len(vl)
        sel = gather(vl)
        borrow = None
        if cv == w:
            # a fully valid register has no padding anywhere, so the lanes
            # are already in destination memory order
            assert sel == list(range(w))
            vec = None
            mode = "plain"
        else:
            if i + 1 < len(final):
                noff, nslot, nvl = final[i + 1]
                if noff == off + cv and len(nvl) >= w - cv:
                    borrow = nslot
            if borrow is not None:
                nsel = gather(final[i + 1][2])
                vec = tuple(sel[l] if l < cv else w + nsel[l - cv] for l in range(w))
                mode = "borrow"
            else:
                vec = tuple(sel[l] if l < cv else w + l for l in range(w))
                mode = "reserve"
        stores.append(StoreRec(slot, off, geo.store_aligned[slot], mode, vec, borrow, cv))

    return BlockOps(
        phase=phase,
        loads=tuple(loads),
        shuffles=tuple(shuffles),
        stores=tuple(stores),
    )
