"""Block planning: merging, trailing-index selection, and the mixed-radix
block counter walk, tiled over the contiguous digits of both buffers.  The
first tiled digit steps the source by one block of rows, so where the two
tiled digits run first its tile covers at most TILE_ROWS source rows; the
second's tile is TILE.

A block is built from the trailing dimensions of the source (its rows) and
of the destination (its columns).  Selection is bit-granular: padded
extents are powers of two, and the dimension that crosses the lane budget
contributes only its low bits to the block while its high bits become an
outer counter digit.  That one rule covers whole small dims, power-of-two
dims wider than a register, and the degenerate matrix-tile case where the
innermost dim alone exceeds the register.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import LayoutError, PermutationMap, TensorLayout, permuted_layout
from .machine import MachineConfig

__all__ = [
    "SideEntry",
    "CounterDigit",
    "Phase",
    "BlockPlan",
    "merge_dimensions",
    "select_block",
    "walk_counter",
    "format_plan",
]


# Counter steps per inner tile of a tiled walk.
TILE = 4
# Source rows the first split digit's inner tile may cover where the two
# split digits run first: each of its steps moves the source by one block
# of rows (the block's register count), so a 16-register block tiles it by
# 2 and a block of 8 registers or fewer by TILE.
TILE_ROWS = 32


def ceil_log2(d: int) -> int:
    return (d - 1).bit_length()


@dataclass(frozen=True)
class SideEntry:
    """One dimension's contribution to a block side.

    ``bits`` low bits of the dimension live inside the block on this side;
    ``whole`` marks that 2**bits already covers the full dimension.
    """

    dim: int
    size: int
    bits: int
    whole: bool

    @property
    def padded(self) -> int:
        return 1 << self.bits


@dataclass(frozen=True)
class CounterDigit:
    """One mixed-radix digit of the block counter."""

    dim: int
    extent: int
    src_stride: int
    dst_stride: int
    ragged: bool
    full_extent: int  # digit values below this leave the in-block part full


@dataclass(frozen=True)
class Phase:
    """A rectangular sub-range of the block counter with static lane masks."""

    name: str
    ranges: tuple[tuple[int, int], ...]  # (lo, hi) per counter digit
    valid_counts: dict[int, int]  # dim -> valid values of its in-block bits

    @property
    def trip_count(self) -> int:
        n = 1
        for lo, hi in self.ranges:
            n *= hi - lo
        return n


@dataclass(frozen=True)
class BlockPlan:
    layout: TensorLayout
    pmap: PermutationMap
    machine: MachineConfig
    row_entries: tuple[SideEntry, ...]
    col_entries: tuple[SideEntry, ...]
    counter_digits: tuple[CounterDigit, ...]
    fallback_mode: str  # 'none' or 'matrix-tile'

    @property
    def shuffle_steps(self) -> int:
        """Exchange steps: the wider side's block bits minus the bits both
        sides share."""
        row = {e.dim: e.bits for e in self.row_entries}
        col = {e.dim: e.bits for e in self.col_entries}
        common = sum(min(b, row.get(d, 0)) for d, b in col.items())
        return max(sum(row.values()), sum(col.values())) - common

    @property
    def num_registers(self) -> int:
        return 1 << self.shuffle_steps

    @property
    def utilization(self) -> Fraction:
        """True over padded block elements: each entry's size over its size
        rounded up to whole chunks of 2**bits."""
        size = covered = 1
        for e in itertools.chain(self.row_entries, self.col_entries):
            chunk = e.padded
            size *= e.size
            covered *= chunk * -(-e.size // chunk)
        return Fraction(size, covered)

    def phases(self) -> tuple[Phase, ...]:
        """One phase per choice of full or tail range on each ragged digit,
        with the valid value count of every dim's in-block bits."""
        dims = self.layout.dims
        digits = self.counter_digits
        ragged = [i for i, d in enumerate(digits) if d.ragged]
        in_bits = _in_block_bits(self.row_entries, self.col_entries)
        base_valid = {dim: min(dims[dim], 1 << b) for dim, b in in_bits.items()}
        phases = []
        for choice in itertools.product((False, True), repeat=len(ragged)):
            ranges = [(0, d.extent) for d in digits]
            valid = dict(base_valid)
            names = []
            for flag, i in zip(choice, ragged):
                dg = digits[i]
                if flag:
                    ranges[i] = (dg.full_extent, dg.extent)
                    valid[dg.dim] = dims[dg.dim] - dg.full_extent * (1 << in_bits[dg.dim])
                    names.append(f"tail[d{dg.dim}]")
                else:
                    ranges[i] = (0, dg.full_extent)
            name = "+".join(names) if names else "main"
            phase = Phase(name, tuple(ranges), valid)
            if phase.trip_count > 0:
                phases.append(phase)
        return tuple(phases)


def _in_block_bits(row, col) -> dict[int, int]:
    """Dim -> low bits of it inside the block, the wider of its two sides."""
    bits: dict[int, int] = {}
    for e in itertools.chain(row, col):
        bits[e.dim] = max(bits.get(e.dim, 0), e.bits)
    return bits


def _positions(pmap: PermutationMap) -> list[int]:
    pos = [0] * pmap.rank
    for j, s in enumerate(pmap.sigma):
        pos[s] = j
    return pos


def merge_dimensions(
    layout: TensorLayout, pmap: PermutationMap
) -> tuple[TensorLayout, PermutationMap]:
    """Fuse adjacent dims whose adjacency and order survive the map.

    Size-1 dims are dropped first; they carry no addressing information and
    would otherwise break up mergeable runs.  The element bijection of the
    returned pair equals that of the input pair.
    """
    if pmap.rank != layout.rank:
        raise LayoutError("map rank does not match layout rank")
    keep = [k for k, d in enumerate(layout.dims) if d > 1]
    if not keep:
        return TensorLayout((1,), layout.elem_width), PermutationMap((0,))
    renum = {old: new for new, old in enumerate(keep)}
    dims = [layout.dims[k] for k in keep]
    sigma = [renum[s] for s in pmap.sigma if s in renum]
    pos = [0] * len(dims)
    for j, s in enumerate(sigma):
        pos[s] = j

    groups: list[list[int]] = [[0]]
    for k in range(1, len(dims)):
        if pos[k] == pos[k - 1] + 1:
            groups[-1].append(k)
        else:
            groups.append([k])
    new_dims = tuple(_prod(dims[k] for k in g) for g in groups)
    # destination rank of a group follows the position of its innermost member
    order = sorted(range(len(groups)), key=lambda gi: pos[groups[gi][0]])
    return TensorLayout(new_dims, layout.elem_width), PermutationMap(tuple(order))


def _prod(it) -> int:
    n = 1
    for x in it:
        n *= x
    return n


def _take_side(order: list[int], dims: tuple[int, ...], lane_bits: int) -> list[SideEntry]:
    taken: list[SideEntry] = []
    used = 0
    for k in order:
        d = dims[k]
        e = ceil_log2(d)
        if e == 0:
            taken.append(SideEntry(k, d, 0, True))
            continue
        t = min(e, lane_bits - used)
        if t == 0:
            break
        taken.append(SideEntry(k, d, t, t == e))
        used += t
        if t < e:
            break
    return taken


def select_block(
    layout: TensorLayout, pmap: PermutationMap, machine: MachineConfig
) -> BlockPlan:
    """Choose row/column index sets and build the block counter.

    Expects a merged pair (decomposition is subsumed by the bit-granular
    boundary split, so pre-decomposed all-2 input selects identically).
    """
    if layout.rank == 0:
        raise LayoutError("rank-0 tensor")
    if pmap.rank != layout.rank:
        raise LayoutError("map rank does not match layout rank")
    if layout.elem_width != machine.elem_width:
        raise LayoutError("layout and machine element widths differ")
    w = machine.lanes
    lb = machine.lane_bits
    pos = _positions(pmap)
    out = permuted_layout(layout, pmap)

    row = _take_side(list(range(layout.rank)), layout.dims, lb)
    col = _take_side(list(pmap.sigma), layout.dims, lb)

    fallback = "matrix-tile" if (layout.dims[0] > w or layout.dims[pmap.sigma[0]] > w) else "none"

    in_bits = _in_block_bits(row, col)

    digits = []
    for k in range(layout.rank):
        d = layout.dims[k]
        chunk = 1 << in_bits.get(k, 0)
        extent = -(-d // chunk)
        if extent <= 1:
            continue
        ragged = (d % chunk != 0) and k in in_bits
        digits.append(
            CounterDigit(
                dim=k,
                extent=extent,
                src_stride=layout.strides[k] * chunk,
                dst_stride=out.strides[pos[k]] * chunk,
                ragged=ragged,
                full_extent=d // chunk if ragged else extent,
            )
        )
    # a digit's smaller stride orders it, so the digits that step either
    # buffer by the fewest elements run fastest; ties go to the destination
    digits.sort(key=lambda dg: (min(dg.src_stride, dg.dst_stride), dg.dst_stride))

    plan = BlockPlan(
        layout=layout,
        pmap=pmap,
        machine=machine,
        row_entries=tuple(row),
        col_entries=tuple(col),
        counter_digits=tuple(digits),
        fallback_mode=fallback,
    )
    return replace(plan, counter_digits=_tile_walk(plan.counter_digits, plan.num_registers))


def _tile_walk(digits: tuple[CounterDigit, ...], registers: int) -> tuple[CounterDigit, ...]:
    """Cache-aware order for a walk sorted by smaller stride.

    The two fastest non-ragged digits (for most maps, the one that steps the
    destination by the fewest elements and the one that steps the source by
    the fewest) each split into an inner digit of ``tile`` steps and an
    outer digit over the tiles (``extent -> tile x extent/tile``, outer
    strides times tile); a digit its tile does not divide, or of at most
    ``tile`` steps, stays whole, as its own inner tile.  The inner digits
    run first, then the outer ones, then the rest in their old order, so
    consecutive blocks stay within one small patch of both strides.  Ragged
    digits keep their tail phases and are never split.

    The second digit's tile is TILE.  Where the two split digits are the
    walk's two fastest, each step of the first moves the source by one
    block of ``registers`` rows, and its tile is ``min(TILE, TILE_ROWS //
    registers)`` steps.  Where a ragged digit runs before either, any split
    moves that digit outside the outer digits, and the first tile stays
    TILE, so no digit TILE leaves whole splits there.  Returns ``digits``
    unchanged when nothing splits.
    """
    pick = [i for i, d in enumerate(digits) if not d.ragged][:2]
    if len(pick) < 2:
        return digits
    first = min(TILE, TILE_ROWS // registers) if pick == [0, 1] else TILE
    inner: list[CounterDigit] = []
    outer: list[CounterDigit] = []
    for i, tile in zip(pick, (first, TILE)):
        d = digits[i]
        if d.extent <= tile or d.extent % tile:
            inner.append(d)
            continue
        n = d.extent // tile
        inner.append(replace(d, extent=tile, full_extent=tile))
        outer.append(replace(d, extent=n, full_extent=n,
                             src_stride=d.src_stride * tile, dst_stride=d.dst_stride * tile))
    if not outer:
        return digits
    return tuple(inner + outer + [d for i, d in enumerate(digits) if i not in pick])


def walk_counter(digits: tuple[CounterDigit, ...], ranges: tuple[tuple[int, int], ...]):
    """(source, destination) block bases at every step of the mixed-radix
    walk over one rectangular counter sub-range, digit 0 fastest.

    Each base array is the outer sum of one ``arange`` of stride multiples
    per digit, slowest digit outermost, so no step is divided.
    """
    src = dst = np.zeros(1, dtype=np.int64)
    for dg, (lo, hi) in reversed(tuple(zip(digits, ranges))):
        pos = np.arange(lo, hi, dtype=np.int64)
        src = np.add.outer(src, dg.src_stride * pos).ravel()
        dst = np.add.outer(dst, dg.dst_stride * pos).ravel()
    return src, dst


def format_plan(plan: BlockPlan) -> str:
    """Human-readable plan dump for the command-line front end."""
    lay, pm, m = plan.layout, plan.pmap, plan.machine
    lines = [
        f"shape (outer->inner): {lay.shape_outer_first()}",
        f"map (sigma, inner-first): {pm.sigma}",
        f"machine: {m.isa_tag} {m.bit_width}-bit, elem {m.elem_width}B, w={m.lanes}, "
        f"{m.num_vector_registers} regs",
        f"fallback mode: {plan.fallback_mode}",
        "row side (trailing source dims):",
    ]
    for e in plan.row_entries:
        kind = "whole" if e.whole else f"split: low {e.bits} bits in block"
        lines.append(f"  d{e.dim} size {e.size} padded {e.padded} ({kind})")
    lines.append("col side (trailing destination dims):")
    for e in plan.col_entries:
        kind = "whole" if e.whole else f"split: low {e.bits} bits in block"
        lines.append(f"  d{e.dim} size {e.size} padded {e.padded} ({kind})")
    digits = plan.counter_digits
    # a split digit's inner tile comes before its outer digit
    tiles = [d for i, d in enumerate(digits) if any(e.dim == d.dim for e in digits[i + 1:])]
    rows = {e.dim for e in plan.row_entries if e.bits}
    common = tuple(e.dim for e in plan.col_entries if e.bits and e.dim in rows)
    lines += [
        f"common indices: {common or '()'}",
        f"shuffle steps: {plan.shuffle_steps}",
        f"block registers: {plan.num_registers}",
        f"lane utilization: {plan.utilization} = {float(plan.utilization):.4f}",
        f"counter digits (fastest first): "
        + (
            ", ".join(
                f"d{d.dim}x{d.extent}" + ("(ragged)" if d.ragged else "")
                for d in plan.counter_digits
            )
            or "none"
        ),
        f"blocks: {_prod(d.extent for d in plan.counter_digits)}",
        "digit strides (source/destination, walk sorted by the smaller): "
        + (", ".join(f"d{d.dim} {d.src_stride}/{d.dst_stride}" for d in digits) or "none"),
        "tiled walk: "
        + (
            ", ".join(
                f"d{d.dim} split into tiles of {d.extent}"
                # the first digit moves the source by one block of rows a step
                + (f" ({d.extent * plan.num_registers} source rows)" if d is digits[0] else "")
                for d in tiles
            )
            or "none"
        ),
    ]
    return "\n".join(lines)
