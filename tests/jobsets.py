"""Job sets shared by the tests, the six ROADMAP shapes, the cases of the
1000-case acceptance campaign and a seeded set of general-extent jobs, their
programs and kernels, and readers of emitted kernel bodies."""

import functools
import re
from collections import Counter

import numpy as np

from vecperm.cli import MACHINE_GRID, sample_case
from vecperm.core import PermutationMap, TensorLayout, from_numpy_convention, random_elements
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


def general_jobs(count=300, seed=26, max_elems=1 << 24):
    """Seeded general-extent jobs as (layout, map, machine): ranks 2-8 and
    the ``MACHINE_GRID`` machines in turn, extents 1-39 redrawn at the same
    rank until the tensor has at most ``max_elems`` elements (the rank drops
    by one after 64 misses), and a random map."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(count):
        rank = 2 + i % 7
        bits, elem = MACHINE_GRID[(i // 7) % len(MACHINE_GRID)]
        while True:
            draws = (tuple(int(x) for x in rng.integers(1, 40, size=rank)) for _ in range(64))
            dims = next((d for d in draws if np.prod(d, dtype=np.int64) <= max_elems), None)
            if dims:
                break
            rank -= 1
        pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
        jobs.append((TensorLayout(dims, elem), pm, MachineConfig("x86-avx", bits, elem, 32)))
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


def interleave_digit(ir):
    """Where the kernel of ``ir`` interleaves its loops: the fastest digit
    whose range differs between them, when some slower digit has one range
    in every loop; None for one loop, or when every digit from the fastest
    differing one up differs (the loops then run one after another)."""
    loops = ir.loops
    if len(loops) < 2:
        return None
    n = len(loops[0].digits)
    differ = [d for d in range(n) if len({loop.ranges[d] for loop in loops}) > 1]
    return differ[0] if differ and len(differ) < n - differ[0] else None


def _indent(line):
    return len(line) - len(line.lstrip(" "))


# a body's address step: take the block's bases, then advance the counter
ADDRESS_STEP = re.compile(r"s0_s = vp_bs; s0_d = vp_bd; vp_adv_\d+\(vp_i, &vp_bs, &vp_bd\);")


def kernel_walks(src):
    """Per loop of a kernel, in loop order: (address step, prefetch lines,
    statements) of its body.  Every body runs right after its address step
    and its prefetch group.  The step opens each trip of a flat loop (a
    whole loop, or a phase's inner loop of an interleaved walk), or a
    phase's branch where the walk runs one block per outer step.  Checks
    that nothing else in the body prefetches."""
    lines = src.split("\n")
    walks = []
    for i, line in enumerate(lines):
        if not ADDRESS_STEP.fullmatch(line.strip()):
            continue
        opener = lines[i - 1].strip()
        assert opener.startswith("for (") or "{ /* phase " in opener, opener
        indent = _indent(line)
        prefetches, body = [], []
        for text in lines[i + 1:]:
            if _indent(text) != indent:
                break
            text = text[indent:]
            if text.startswith("__builtin_prefetch("):
                assert not body, text
                prefetches.append(text)
            else:
                body.append(text)
        walks.append((line.strip(), prefetches, body))
    return walks


def loop_bodies(src):
    """Per loop of a kernel: its body's statements after the address step
    and the prefetch group (see ``kernel_walks``)."""
    return [body for *_, body in kernel_walks(src)]


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
