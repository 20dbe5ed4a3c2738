"""Job sets and seeded input generation for the vecperm benchmark.

A job is one (layout, map, machine) triple.  Every machine carries the
x86-avx tag, which selects the emitted lowering and never changes the
plan.  The ROADMAP set is fixed; the general-extent and campaign draws
come from the run's seed.  Both draws cycle through their rank range (the
size cap may still lower a rank), the campaign's shape families and the
machine grid in a fixed order, fastest first, and leave extents, maps and
data to the seed.  Two seeds then give the same mix of ranks, families
and lane counts, and any stretch of consecutive jobs is balanced, so runs
that get through different numbers of jobs can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vecperm.cli import FAMILIES, MACHINE_GRID
from vecperm.core import PermutationMap, TensorLayout, from_numpy_convention
from vecperm.machine import MachineConfig

# (shape outer-to-inner, numpy axes): power-of-two strides (1024^2,
# 256x256x16, 64x32x32x4), odd extents (96^3) and merged or ragged runs
# that need padding, destination reloads and partial stores (7x32x32x3,
# 15x1000x33).
ROADMAP_SHAPES = (
    ((1024, 1024), (1, 0)),
    ((64, 32, 32, 4), (2, 1, 0, 3)),
    ((7, 32, 32, 3), (0, 2, 3, 1)),
    ((256, 256, 16), (2, 1, 0)),
    ((96, 96, 96), (2, 0, 1)),
    ((15, 1000, 33), (1, 2, 0)),
)


@dataclass(frozen=True)
class Job:
    name: str
    layout: TensorLayout
    pmap: PermutationMap
    machine: MachineConfig
    axes: tuple[int, ...] = ()  # numpy transpose axes, outer-to-inner

    @property
    def nbytes(self) -> int:
        return self.layout.num_elements * self.layout.elem_width


def roadmap_jobs() -> list[Job]:
    """The six ROADMAP shapes at 4- and 8-byte elements on 512-bit x86."""
    jobs = []
    for shape, axes in ROADMAP_SHAPES:
        for elem in (4, 8):
            name = "x".join(map(str, shape)) + "_" + "".join(map(str, axes)) + f"_e{elem}"
            jobs.append(
                Job(
                    name,
                    TensorLayout(tuple(reversed(shape)), elem),
                    from_numpy_convention(axes),
                    MachineConfig("x86-avx", 512, elem, 32),
                    axes,
                )
            )
    return jobs


def _draw_dims(rank: int, draw, max_elems: int) -> tuple[int, ...]:
    """``draw(rank)`` until the size cap holds, lowering the rank on each
    miss as ``vecperm check`` does."""
    for _ in range(64):
        dims = draw(rank)
        if int(np.prod(dims, dtype=np.int64)) <= max_elems:
            break
        rank = max(2, rank - 1)
    return dims


def gen_mixed_jobs(rng: np.random.Generator, count: int) -> list[Job]:
    """General extents: rank 2-8, extents 1-39, N <= 2**24, w in {4, 8, 16}."""
    jobs = []
    for i in range(count):
        rank = 2 + i % 7
        bits, elem = MACHINE_GRID[(i // 7) % len(MACHINE_GRID)]
        dims = _draw_dims(rank, lambda r: tuple(int(x) for x in rng.integers(1, 40, size=r)),
                          1 << 24)
        sigma = tuple(int(x) for x in rng.permutation(len(dims)))
        jobs.append(
            Job(
                f"gen{i}",
                TensorLayout(dims, elem),
                PermutationMap(sigma),
                MachineConfig("x86-avx", bits, elem, 32),
            )
        )
    return jobs


def campaign_jobs(rng: np.random.Generator, count: int) -> list[Job]:
    """The validation-campaign distribution: rank 2-16, all-2 / power-of-two /
    general families, w in {4, 8, 16}, elem in {4, 8}, N <= 2**16."""
    draws = {
        "all2": lambda r: (2,) * r,
        "pow2": lambda r: tuple(int(2 ** x) for x in rng.integers(0, 6, size=r)),
        "general": lambda r: tuple(int(x) for x in rng.integers(1, 10, size=r)),
    }
    jobs = []
    for i in range(count):
        rank = 2 + i % 15
        family = FAMILIES[(i // 15) % len(FAMILIES)]
        bits, elem = MACHINE_GRID[(i // (15 * len(FAMILIES))) % len(MACHINE_GRID)]
        dims = _draw_dims(rank, draws[family], 1 << 16)
        sigma = tuple(int(x) for x in rng.permutation(len(dims)))
        jobs.append(
            Job(
                f"{family}{i}",
                TensorLayout(dims, elem),
                PermutationMap(sigma),
                MachineConfig("x86-avx", bits, elem, 32),
            )
        )
    return jobs


def full_width_data(rng: np.random.Generator, layout: TensorLayout) -> np.ndarray:
    """Elements drawn over the whole width of the layout's dtype."""
    return rng.integers(0, np.iinfo(layout.dtype).max, size=layout.num_elements,
                        dtype=layout.dtype, endpoint=True)
