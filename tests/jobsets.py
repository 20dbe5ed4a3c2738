"""Job sets shared by the tests: the six ROADMAP shapes and the cases of the
1000-case acceptance campaign."""

import functools

import numpy as np

from vecperm.cli import sample_case
from vecperm.core import TensorLayout, from_numpy_convention, random_elements
from vecperm.ir import build_program
from vecperm.machine import MachineConfig

# (shape outer-to-inner, numpy axes) of the six ROADMAP jobs, run on
# 512-bit x86 at 4- and 8-byte elements
ROADMAP_SHAPES = (
    ((1024, 1024), (1, 0)),
    ((64, 32, 32, 4), (2, 1, 0, 3)),
    ((7, 32, 32, 3), (0, 2, 3, 1)),
    ((256, 256, 16), (2, 1, 0)),
    ((96, 96, 96), (2, 0, 1)),
    ((15, 1000, 33), (1, 2, 0)),
)


def roadmap_job(shape, axes, elem):
    return (TensorLayout(tuple(reversed(shape)), elem), from_numpy_convention(axes),
            MachineConfig("x86-avx", 512, elem, 32))


def roadmap_jobs():
    """The twelve ROADMAP jobs as (layout, map, machine)."""
    return [roadmap_job(s, a, e) for s, a in ROADMAP_SHAPES for e in (4, 8)]


def campaign_jobs():
    """The (layout, map, machine) of the cases run_campaign(1000, seed=2024)
    draws."""
    jobs = []
    rng = np.random.default_rng(2024)
    for i in range(1000):
        _, lay, pm, m = sample_case(rng, 16, 1 << 16)
        random_elements(rng, lay, np.random.default_rng((2024, i)))
        jobs.append((lay, pm, m))
    return jobs


@functools.cache
def campaign_programs():
    """(layout, map, machine, optimized program) of every campaign job, built
    once per test session; callers must not modify the programs."""
    return tuple((lay, pm, m, build_program(lay, pm, m)) for lay, pm, m in campaign_jobs())
