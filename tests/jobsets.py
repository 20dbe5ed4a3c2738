"""Job sets shared by the tests, the six ROADMAP shapes and the cases of the
1000-case acceptance campaign, their programs and kernels, and readers of
emitted kernel bodies."""

import functools
import re
from collections import Counter

import numpy as np

from vecperm.cli import sample_case
from vecperm.core import TensorLayout, from_numpy_convention, random_elements
from vecperm.emit import emit_source
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


@functools.cache
def roadmap_programs():
    """(layout, map, machine, optimized program) of the twelve ROADMAP jobs,
    built once per test session; callers must not modify the programs."""
    return tuple((lay, pm, m, build_program(lay, pm, m)) for lay, pm, m in roadmap_jobs())


@functools.cache
def kernel_sources(target):
    """The ``target`` source of every ROADMAP program, then of every campaign
    program, emitted once per test session."""
    return tuple(emit_source(ir, target=target)
                 for *_, ir in roadmap_programs() + campaign_programs())


def loop_bodies(src):
    """Per loop of a kernel: its body's statements after the address step
    and the prefetch group."""
    bodies = []
    for chunk in src.split("    { /* loop ")[1:]:
        lines = [ln[12:] for ln in chunk.split("\n") if ln.startswith(" " * 12)]
        assert "vp_adv_" in lines[0], lines[0]
        bodies.append([ln for ln in lines[1:] if not ln.startswith("__builtin_prefetch(")])
    return bodies


def peak_live(statements):
    """Peak number of ``x<i>`` values live at once in a kernel body: a value
    is live from the statement that defines it through its last use."""
    last = {x: i for i, text in enumerate(statements) for x in re.findall(r"\bx(\d+)\b", text)}
    ends = Counter(last.values())
    live = peak = 0
    for i, text in enumerate(statements):
        if re.match(r"\S+ x\d+ = ", text):
            live += 1
            peak = max(peak, live)
        live -= ends[i]
    return peak
