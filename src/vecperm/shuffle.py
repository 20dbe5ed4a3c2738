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

Padding analysis is static: lane validity masks are evaluated per phase,
shuffles whose outputs carry no valid lane are dropped, and a shuffle whose
partner holds no valid data degrades to a self-shuffle.  Stores with fewer
valid lanes than the register either borrow the leading lanes of the
destination-adjacent register, or reserve the current memory content and
write it back, so every store is safe under any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LayoutError, permuted_layout
from .planner import BlockPlan, Phase, SideEntry

__all__ = ["LoadRec", "ShufRec", "StoreRec", "BlockOps", "build_block_ops"]

VIRT = None  # marker for virtual bit slots


# ---------------------------------------------------------------------------
# block geometry


class _Geometry:
    """Bit-level view of one block: who lives in lanes, who in register
    numbers, and the phase-independent exchange selectors.

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
        self.initial = self._elements(row_refs, init_regs)
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
            self.initial = self.initial[:, order]
        self.spread = None if spread == list(range(w)) else tuple(spread)
        self.dest_rank = [_rank(plan.col_entries, l) for l in range(w)]

        # one (lo, hi) selector pair per step; the last step composes its
        # exchange with the full reorder into destination lane order
        lane_contents: list = [row_refs[p] if p < u else VIRT for p in range(lane_bits)]
        reg_contents = list(init_regs)
        virt_next = u
        self.steps: list[tuple[np.ndarray, np.ndarray]] = []
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
            self.steps.append(tuple(np.array(sel) for sel in sels))
            lane_contents[lane_pos] = reg_contents[k]
            reg_contents[k] = promote[k]

    def _elements(self, lane_refs, reg_refs) -> np.ndarray:
        """Element at every (slot, lane) when the lane number carries
        ``lane_refs`` and the register number ``reg_refs``; -1 where the
        lane is past the block or a virtual register bit is set."""
        slot = np.arange(self.num_slots)[:, None]
        lane = np.arange(self.w)
        elem = np.zeros((self.num_slots, self.w), dtype=np.int64)
        empty = np.broadcast_to(lane >= (1 << len(lane_refs)), elem.shape)
        for p, ref in enumerate(lane_refs):
            elem |= ((lane >> p) & 1) << self.canon_pos[ref]
        for k, ref in enumerate(reg_refs):
            bit = (slot >> k) & 1
            if ref is VIRT:
                empty = empty | (bit == 1)
            else:
                elem |= bit << self.canon_pos[ref]
        return np.where(empty, -1, elem)

    def valid_table(self, valid_counts: dict[int, int]) -> np.ndarray:
        """Validity of every element, indexable by -1 (never valid)."""
        elem = np.arange(1 << len(self.canon_pos))
        value: dict[int, np.ndarray] = {}
        for (dim, bit), cp in self.canon_pos.items():
            value[dim] = value.get(dim, 0) | (((elem >> cp) & 1) << bit)
        ok = np.ones(elem.size + 1, dtype=bool)
        ok[-1] = False
        for dim, val in value.items():
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

    def elem_bit(ref, lane_v, side):
        # value of a real ref in the element targeted at final lane lane_v
        if ref is VIRT:
            return 0
        if ref == promoted:
            return side
        if ref in col_refs:
            return (lane_v >> col_refs.index(ref)) & 1
        raise AssertionError(f"unplaced ref {ref} at final step")

    out = []
    for side in (0, 1):
        sel = []
        for lane in range(w):
            lv = lane & ((1 << v) - 1)
            src_lane = 0
            for p, ref in enumerate(lane_contents):
                src_lane |= elem_bit(ref, lv, side) << p
            sel.append(elem_bit(retired, lv, side) * w + src_lane)
        out.append(sel)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# per-phase records


@dataclass(frozen=True)
class LoadRec:
    slot: int
    offset: int          # elements, relative to the block base
    aligned: bool
    spread: tuple[int, ...] | None  # self-shuffle selectors, or None


@dataclass(frozen=True)
class ShufRec:
    step: int
    out_slot: int
    in_lo: int
    in_hi: int | None    # None marks a self-shuffle of in_lo
    vec: tuple[int, ...]


@dataclass(frozen=True)
class StoreRec:
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

    # loads: registers holding no valid lane are never read
    state = geo.initial.copy()
    live = valid[state].any(1)
    state[~live] = -1
    loads = []
    for slot in np.flatnonzero(live).tolist():
        loads.append(LoadRec(slot, geo.load_offsets[slot], geo.load_aligned[slot], geo.spread))

    # shuffles: drop outputs with no valid lane; an exchange whose partner
    # holds nothing valid becomes a self-shuffle of the other register
    shuffles = []
    for k, (sel_lo, sel_hi) in enumerate(geo.steps):
        has = valid[state].any(1)
        nxt = np.full_like(state, -1)
        for lo in range(geo.num_slots):
            if (lo >> k) & 1:
                continue
            hi = lo | (1 << k)
            ab = np.concatenate((state[lo], state[hi]))
            for out_slot, sel in ((lo, sel_lo), (hi, sel_hi)):
                if not valid[ab[sel]].any():
                    continue
                if has[lo] and has[hi]:
                    nxt[out_slot] = ab[sel]
                    shuffles.append(ShufRec(k, out_slot, lo, hi, tuple(sel.tolist())))
                else:
                    own = lo if has[lo] else hi
                    nxt[out_slot] = state[own][sel % w]
                    shuffles.append(ShufRec(k, out_slot, own, None, tuple((sel % w).tolist())))
        state = nxt

    # routing oracle: every valid element must now sit at its target lane
    store_valid = valid[geo.final]
    wrong = store_valid & (state != geo.final)
    if wrong.any():
        slot, lane = np.argwhere(wrong)[0].tolist()
        raise AssertionError(
            f"routing failure at slot {slot} lane {lane}: "
            f"{state[slot, lane]} != {geo.final[slot, lane]}"
        )

    # stores, ascending destination offset
    final = []
    for slot in range(geo.num_slots):
        vl = np.flatnonzero(store_valid[slot]).tolist()
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
