#!/usr/bin/env python3
"""The vecperm benchmark: emitted-kernel throughput against an in-run
memcpy, source-generation latency, VM validation throughput, and a
per-module traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``vecperm`` from ``src/`` and
keeps its build files under ``.bench_build/``, which it removes on exit.
One process runs one job at a time (a closed loop).  Every run takes the
workload's jobs through three stages and reports every metric:

  gen     build_program + emit_source per job
  verify  build_program + vm.execute + compare with core.naive_permute
  kernel  build + emit + cc per job, bit-check of each kernel in two link
          orders, then clock_gettime timing of kernel against memcpy

The workload picks the jobs of each stage, and its own stage gets the
largest share of ``--seconds``; see README.md.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a run with spans around
every layer call.  The last stdout line is the JSON result; the line
before it is the full record (host, per-job rows, digests, skips).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, deque

import numpy as np

from spans import NullTracer, Tracer

SETUP_PROBES = 5        # fresh-interpreter set-ups timed per run
COUNT_SAMPLE = 20       # leading jobs whose exact counts and determinism are checked
# share of --seconds for a stage that is not the workload's own; its own
# stage gets the rest (half on the kernel workloads, 60% on the others)
SECONDARY_SHARE = {"gen": 0.25, "verify": 0.25, "kernel": 0.15}
VM_KERNEL_MAX_ELEMS = 1 << 15  # kernel workloads: ROADMAP jobs the VM runs
VM_GEN_MAX_ELEMS = 1 << 12     # gen_mixed: general-extent jobs the VM runs
POOL = 3000             # drawn jobs; stages cycle through their list until time is up
# The verify stage (and campaign_vm's gen stage) runs a fixed job list drawn
# with the acceptance campaign's seed; the run's seed draws its data.  Its
# per-case figures are medians over jobs, and over seed-drawn lists those
# moved by about 10% from seed to seed on static op counts alone.
FIXED_SEED = 2024
CAMPAIGN_CASES = 225    # one full cycle of ranks x families x machines
VM_GEN_CASES = 150
CANARY = ("1024x1024_10_e4", "15x1000x33_120_e8")
MIN_REPS = 20
MIN_COMPILES = 12       # kernels compiled per run; few jobs are compiled repeatedly
CALIB_REF_S = 2.5e-4    # reference time of one _spin: near its fastest on a 2.1 GHz Xeon
CC_REF_S = 0.4          # reference time of native.compile_reference on the same host
CC_REF_EVERY = 4        # kernel compiles between two reference compiles
TAIL_PCT = 90

WORKLOADS = {
    "kernel_avx512": {"main": "kernel", "target": "x86-avx"},
    "kernel_portable": {"main": "kernel", "target": "scalar"},
    "gen_mixed": {"main": "gen"},
    "campaign_vm": {"main": "verify"},
}


median = statistics.median


def geomean(v):
    return math.exp(sum(math.log(x) for x in v) / len(v))


def tail(values) -> tuple[float, float]:
    """(percentile, value) at nearest rank: TAIL_PCT, or the highest of
    p75 and p50 that still has ten samples above it when there are fewer
    than 100.  The percentile is fixed rather than the highest one with ten
    samples above it: that one would climb with the item count, which moves
    with host speed, and would rest on ten samples of a heavy-tailed mix."""
    s = sorted(values)
    n = len(s)
    for p in (TAIL_PCT, 75, 50):
        k = math.ceil(n * p / 100)
        if n - k >= 10:
            return p, s[k - 1]
    return 50, median(s)


_CAL_REG = np.arange(16, dtype=np.uint64)
_CAL_SEL = np.arange(31, -1, -2)


def _spin() -> int:
    """Fixed work shaped like the pipeline's: interpreter arithmetic, dict
    and tuple traffic, and small numpy gathers like the VM's shuffles."""
    s = 0
    regs = [_CAL_REG, _CAL_REG]
    seen = {}
    for i in range(150):
        s += i * i % 7
        seen[(i, i & 3)] = s
        regs[i & 1] = np.concatenate(regs)[_CAL_SEL].copy()
    return s


class HostClock:
    """Rescales measured times to reference host speed.

    On a shared host the speed of this process swings by up to a half
    within seconds, as other tenants load the same cores, and a run of a
    few seconds cannot average that out.  A fixed loop (``_spin``) timed
    right before and after each item tracks the current speed: the item's
    time is multiplied by CALIB_REF_S over the median of the last eight
    loop times.  The raw times go into the record next to the scaled ones.
    """

    def __init__(self):
        self.recent: deque = deque(maxlen=8)
        self.factors: list[float] = []

    @staticmethod
    def spin() -> float:
        t0 = time.perf_counter()
        _spin()
        return time.perf_counter() - t0

    def start(self):
        self.recent.append(self.spin())

    def scale(self, raw: float) -> float:
        self.recent.append(self.spin())
        f = CALIB_REF_S / median(self.recent)
        self.factors.append(f)
        return raw * f


class Samples:
    """Scaled and raw seconds of timed items, with the job each one ran."""

    def __init__(self):
        self.jobs: list[str] = []
        self.scaled: list[float] = []
        self.raw: list[float] = []

    def add(self, job: str, scaled: float, raw: float):
        self.jobs.append(job)
        self.scaled.append(scaled)
        self.raw.append(raw)

    def __len__(self):
        return len(self.scaled)

    def rate(self) -> float:
        return len(self.scaled) / sum(self.scaled)

    def _job_medians(self, values) -> dict[str, float]:
        by_job: dict[str, list[float]] = {}
        for job, v in zip(self.jobs, values):
            by_job.setdefault(job, []).append(v)
        return {job: median(v) for job, v in by_job.items()}

    def p50(self, values=None) -> float:
        """Median over jobs of each job's median: a few jobs repeated many
        times then give a stable middle instead of flipping between them."""
        return median(list(self._job_medians(values or self.scaled).values()))

    def tail(self) -> tuple[float, float]:
        """Tail over items, each counted at its job's median, so that many
        repeats of a few jobs do not turn host noise into a tail."""
        mid = self._job_medians(self.scaled)
        return tail([mid[job] for job in self.jobs])


# ---------------------------------------------------------------------------
# set-up


class Setup:
    """A workload's jobs per stage, drawn from the seed, and a warmed pipeline."""

    def __init__(self, workload: str, seed: int):
        import jobs as J
        from vecperm import core, emit, ir, vm

        spec = WORKLOADS[workload]
        self.seed = seed
        self.main = spec["main"]
        roadmap = J.roadmap_jobs()
        if self.main == "kernel":
            self.gen_jobs = roadmap
            self.gen_targets = (spec["target"],)
            self.vm_jobs = [j for j in roadmap if j.layout.num_elements <= VM_KERNEL_MAX_ELEMS]
            self.kernel_jobs = roadmap
            self.kernel_target = spec["target"]
        else:
            rng = np.random.default_rng([seed, 0])
            canary = [j for j in roadmap if j.name in CANARY]
            self.gen_targets = ("x86-avx", "scalar")
            self.kernel_jobs = canary
            self.kernel_target = "x86-avx"
            fixed = np.random.default_rng(FIXED_SEED)
            if self.main == "gen":
                self.gen_jobs = J.gen_mixed_jobs(rng, POOL)
                self.vm_jobs = [j for j in J.gen_mixed_jobs(fixed, POOL)
                                if j.layout.num_elements <= VM_GEN_MAX_ELEMS][:VM_GEN_CASES]
            else:
                self.vm_jobs = J.campaign_jobs(fixed, CAMPAIGN_CASES)
                self.gen_jobs = self.vm_jobs
        # warm-up: one pass of every Python stage on a small job
        small = min(self.vm_jobs, key=lambda j: j.layout.num_elements)
        prog = ir.build_program(small.layout, small.pmap, small.machine)
        for t in self.gen_targets:
            emit.emit_source(prog, target=t)
        data = J.full_width_data(np.random.default_rng([seed, 9]), small.layout)
        vm.execute(prog, data)
        core.naive_permute(data, small.layout, small.pmap)


def probe_setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import, draw jobs and warm up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# stages


def static_counts(prog) -> dict:
    """Per-opcode counts the program will execute: trips x body histogram,
    in the VM's counter names."""
    from vecperm.ir import Addr, VLoad, VShuf, VStore

    c = Counter()
    for loop in prog.loops:
        for op in loop.body:
            if isinstance(op, Addr):
                keys = ["addr"]
            elif isinstance(op, VLoad):
                keys = ["vload"] + ["vload_unaligned"] * (not op.aligned) + \
                       ["vload_dst"] * (op.space == "dst")
            elif isinstance(op, VStore):
                keys = ["vstore"] + ["vstore_unaligned"] * (not op.aligned)
            elif isinstance(op, VShuf):
                keys = ["vshuf"]
            else:
                keys = ["vselfshuf"]
            for k in keys:
                c[k] += loop.trips
    return dict(c)


def vector_ops(counts: dict) -> int:
    return sum(counts.get(k, 0) for k in ("vload", "vstore", "vshuf", "vselfshuf"))


def ops_per_w(prog, counts: dict) -> tuple[float, float]:
    """Static vector ops per w elements and the (2 + log2 w) / utilization bound."""
    m = prog.machine
    return (vector_ops(counts) * m.lanes / prog.num_elements,
            (2 + m.lane_bits) / float(prog.metadata["utilization"]))


def ir_stats(progs) -> dict:
    loops = [lp for p in progs for lp in p.loops]
    streamed = 0
    for p in progs:
        pinned = {s["name"]: s["tables"] for s in p.metadata["loop_stats"]}
        for lp in p.loops:
            tables = {op.table for op in lp.body if hasattr(op, "table")}
            streamed += pinned[lp.name] < len(tables)
    return {
        "planner.phases_per_job": statistics.fmean(len({lp.name for lp in p.loops}) for p in progs),
        "planner.utilization_mean": statistics.fmean(float(p.metadata["utilization"]) for p in progs),
        "ir.body_ops": sum(len(lp.body) for lp in loops),
        "ir.unroll_mean": statistics.fmean(lp.unroll for lp in loops),
        "ir.total_registers_max": max(p.metadata["total_registers"] for p in progs),
        "ir.streamed_loops": streamed,
    }


class Run:
    def __init__(self, setup: Setup, seconds: float, tracer, workdir: str):
        import jobs as J
        from vecperm import core, emit, ir, vm

        self.J = J
        self.core, self.emit, self.ir, self.vm = core, emit, ir, vm
        self.s = setup
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[dict] = []
        self.skips: dict[str, str] = {}
        self.checks: dict[str, bool] = {}
        self.record: dict = {}
        self.layer_counts: dict = {}
        self.clock = HostClock()

    def rng(self, stage: int):
        return np.random.default_rng([self.s.seed, stage])

    def fail(self, stage: str, job, layer: str, reason: str):
        self.failures.append({"stage": stage, "job": job.name, "layer": layer,
                              "reason": reason[:500]})

    def budget(self, stage: str) -> float:
        """Seconds of measurement for a stage of this workload."""
        if stage != self.s.main:
            return self.seconds * SECONDARY_SHARE[stage]
        return self.seconds * (1 - sum(v for k, v in SECONDARY_SHARE.items() if k != stage))

    @staticmethod
    def _items(jobs, seconds: float | None, count: int | None = None,
               minimum: int = COUNT_SAMPLE):
        """Jobs in order, cycling, until ``count`` items, or until ``seconds``
        pass and at least ``minimum`` items are done."""
        t_end = time.perf_counter() + seconds if seconds is not None else None
        i = 0
        while True:
            if count is not None and i >= count:
                return
            if t_end is not None and i >= minimum and time.perf_counter() >= t_end:
                return
            yield i, jobs[i % len(jobs)]
            i += 1

    # -- gen ------------------------------------------------------------------

    def gen_once(self, job, tracer):
        """(seconds, program, sources) of one build + emit for every target."""
        with tracer.span("gen", "bench"):
            t0 = time.perf_counter()
            prog = self.ir.build_program(job.layout, job.pmap, job.machine)
            sources = [self.emit.emit_source(prog, target=t) for t in self.s.gen_targets]
            return time.perf_counter() - t0, prog, sources

    def gen_pass(self, tracer, seconds, count):
        samples = Samples()
        for _, job in self._items(self.s.gen_jobs, seconds, count):
            self.attempted += 1
            self.clock.start()
            try:
                dt, _, _ = self.gen_once(job, tracer)
            except Exception as e:
                self.fail("gen", job, getattr(e, "bench_layer", "ir"), repr(e))
                continue
            samples.add(job.name, self.clock.scale(dt), dt)
        return samples

    def stage_gen(self):
        seconds = self.budget("gen")
        if self.tracer.enabled:
            # untraced pass, then a traced pass over the same jobs: their
            # ratio is the tracing overhead
            plain = self.gen_pass(NullTracer(), seconds / 2, None)
            self.tracer.install()
            try:
                samples = self.gen_pass(self.tracer, None, len(plain))
            finally:
                self.tracer.uninstall()
            self.record["trace_overhead_ratio"] = sum(samples.scaled) / sum(plain.scaled)
        else:
            samples = self.gen_pass(self.tracer, seconds, None)
        self.record["gen"] = samples
        self.determinism()

    def determinism(self):
        """Build the leading jobs twice more; sources and static counts must
        agree, and their digest names this run's emitted code.  Those small
        enough for the VM are also run on it, so gen_mixed's own seeded jobs
        are checked and not only the verify stage's fixed list."""
        digest = hashlib.sha256()
        progs = []
        same = True
        rng = self.rng(5)
        for job in self.s.gen_jobs[:COUNT_SAMPLE]:
            try:
                _, p1, s1 = self.gen_once(job, NullTracer())
                _, p2, s2 = self.gen_once(job, NullTracer())
            except Exception as e:
                self.attempted += 1
                self.fail("determinism", job, getattr(e, "bench_layer", "ir"), repr(e))
                continue
            if s1 != s2 or static_counts(p1) != static_counts(p2):
                same = False
                self.fail("determinism", job, "ir", "two builds differ")
            if job.layout.num_elements <= VM_GEN_MAX_ELEMS:
                self.attempted += 1
                data = self.J.full_width_data(rng, job.layout)
                try:
                    out, _ = self.vm.execute(p1, data)
                    ok = np.array_equal(out, self.core.naive_permute(data, job.layout, job.pmap))
                except Exception as e:
                    self.fail("determinism", job, "vm", repr(e))
                    continue
                if not ok:
                    self.fail("determinism", job, "vm", "VM output differs from naive_permute")
            for src in s1:
                digest.update(src.encode())
            progs.append(p1)
            self.layer_counts.setdefault("emit.source_bytes", 0)
            self.layer_counts["emit.source_bytes"] += sum(len(x) for x in s1)
        self.checks["deterministic"] = same
        self.record["source_digest"] = digest.hexdigest()
        if progs:
            self.layer_counts.update(ir_stats(progs))

    # -- verify ---------------------------------------------------------------

    def stage_verify(self):
        s = self.s
        rng = self.rng(2)
        if self.tracer.enabled:
            self.tracer.install()
        samples, vops, vops_all, worst = Samples(), 0, 0, 0.0
        try:
            # at least one full pass, so medians over jobs cover the whole list
            for i, job in self._items(s.vm_jobs, self.budget("verify"),
                                      minimum=max(COUNT_SAMPLE, len(s.vm_jobs))):
                data = self.J.full_width_data(rng, job.layout)
                self.attempted += 1
                self.clock.start()
                try:
                    with self.tracer.span("verify", "bench"):
                        t0 = time.perf_counter()
                        prog = self.ir.build_program(job.layout, job.pmap, job.machine)
                        out, counters = self.vm.execute(prog, data)
                        want = self.core.naive_permute(data, job.layout, job.pmap)
                        ok = np.array_equal(out, want)
                        dt = time.perf_counter() - t0
                except Exception as e:
                    self.fail("verify", job, getattr(e, "bench_layer", "vm"), repr(e))
                    continue
                scaled = self.clock.scale(dt)
                if not ok:
                    self.fail("verify", job, "vm", "VM output differs from naive_permute")
                    continue
                counts = static_counts(prog)
                if counts != {k: v for k, v in counters.items() if v}:
                    self.fail("verify", job, "vm", "static counts differ from VM counters")
                    continue
                per_w, bound = ops_per_w(prog, counts)
                worst = max(worst, per_w / bound)
                vops_all += vector_ops(counts)
                if i < COUNT_SAMPLE:
                    vops += vector_ops(counts)
                samples.add(job.name, scaled, dt)
                if "control_swapped_flagged" not in self.checks and (out != out[0]).any():
                    self.control_swapped(job, data, out)
        finally:
            if self.tracer.enabled:
                self.tracer.uninstall()
        self.record["verify"] = samples
        self.record["verify_vector_ops_all"] = vops_all
        self.layer_counts["vm.vector_ops"] = vops
        self.layer_counts["vm.ops_per_w_over_bound_max"] = worst

    def control_swapped(self, job, data, out):
        """Negative control: the checker must reject an output with two
        elements exchanged."""
        bad = out.copy()
        j = int(np.flatnonzero(bad != bad[0])[0])
        bad[[0, j]] = bad[[j, 0]]
        want = self.core.naive_permute(data, job.layout, job.pmap)
        self.checks["control_swapped_flagged"] = not np.array_equal(bad, want)

    # -- kernel ---------------------------------------------------------------

    def stage_kernel(self):
        import native

        s = self.s
        reason = native.skip_reason(s.kernel_target)
        if reason:
            self.skips["kernel"] = f"{s.kernel_target}: {reason}"
            return
        if self.tracer.enabled:
            self.tracer.install()
        try:
            self._kernels(native)
        finally:
            if self.tracer.enabled:
                self.tracer.uninstall()
        self.control_high_word(native)

    def _kernels(self, native):
        s = self.s
        target = s.kernel_target
        rows, compiled, built, tries = [], [], [], []
        refs: list[float] = []
        repeats = -(-MIN_COMPILES // len(s.kernel_jobs))
        for idx, job in enumerate(s.kernel_jobs):
            self.attempted += 1
            try:
                mine = []
                for _ in range(repeats):
                    if (len(tries) + len(mine)) % CC_REF_EVERY == 0:
                        refs.append(native.compile_reference(self.workdir, "vp_ref"))
                    mine.append(self._to_kernel(native, job, target, f"vp_k{idx}"))
            except Exception as e:
                self.fail("kernel", job, getattr(e, "bench_layer", "cc"), repr(e))
                continue
            tries.extend(mine)
            _, prog, comp = mine[-1]
            per_w, bound = ops_per_w(prog, static_counts(prog))
            rows.append({"job": job.name, "bytes": job.nbytes,
                         "time_to_kernel_raw_s": median([t[0] for t in mine]),
                         "cc_s": median([t[2].compile_s for t in mine]),
                         "text_bytes": comp.text_bytes, "ops_per_w": per_w, "bound": bound})
            compiled.append(comp)
            built.append(job)
        refs.append(native.compile_reference(self.workdir, "vp_ref"))
        # time-to-kernel at reference compiler speed: the run's reference
        # compiles move with host load exactly as the kernels' do
        cc_factor = CC_REF_S / median(refs)
        for row in rows:
            row["time_to_kernel_s"] = row["time_to_kernel_raw_s"] * cc_factor
        self.record["cc_reference_s"] = refs
        if not built:
            return
        harness = native.Harness(self.workdir, [j.name for j in built], compiled,
                                 [j.nbytes for j in built],
                                 [j.machine.lanes * j.layout.elem_width for j in built])
        rng = self.rng(3)
        good = []
        for k, (job, row) in enumerate(zip(built, rows)):
            ok = True
            for exe in harness.exes:
                data = self.J.full_width_data(rng, job.layout)
                with self.tracer.span("check", "bench"):
                    try:
                        with self.tracer.span("kernel", "kernel"):
                            raw = harness.run_once(exe, k, data.tobytes())
                    except native.NativeError as e:
                        self.fail("kernel", job, "kernel", repr(e))
                        ok = False
                        break
                    problem = self.check_native(raw, data, job)
                if problem:
                    self.fail("kernel", job, "kernel", f"{os.path.basename(exe)}: {problem}")
                    ok = False
                    break
            if ok:
                good.append(k)
                if self.tracer.enabled:
                    row["numpy_s"] = self.time_numpy(job, data)
        if not good:
            return
        seconds = self.budget("kernel")
        timings = []
        for exe in harness.exes:
            with self.tracer.span("kernel", "kernel"):
                timings.append(harness.time(exe, seconds / len(harness.exes), MIN_REPS))
        for k in good:
            row = rows[k]
            per_order = [t[built[k].name] for t in timings]
            for key in per_order[0]:
                row[key] = geomean([o[key] for o in per_order])
            k_ns, m_ns = row["kernel_min_ns"], row["memcpy_min_ns"]
            row.update({"kernel_min_ns_per_order": [o["kernel_min_ns"] for o in per_order],
                        "gbps": 2 * row["bytes"] / k_ns, "memcpy_gbps": 2 * row["bytes"] / m_ns,
                        "memcpy_ratio": m_ns / k_ns})
            if "numpy_s" in row:
                row["numpy_gbps"] = 2 * row["bytes"] / row["numpy_s"] / 1e9
        self.record["kernel_rows"] = [rows[k] for k in good]

    def _to_kernel(self, native, job, target: str, tag: str):
        """One build + emit + cc of a job: (seconds, program, object)."""
        with self.tracer.span("kernel", "bench"):
            t0 = time.perf_counter()
            prog = self.ir.build_program(job.layout, job.pmap, job.machine)
            src = self.emit.emit_source(prog, target=target)
            t_gen = time.perf_counter() - t0
            with self.tracer.span("cc", "cc"):
                symbol = self.emit.kernel_name(prog.layout, prog.pmap, prog.machine)
                comp = native.compile_kernel(src, symbol, target, self.workdir, tag)
        return t_gen + comp.compile_s, prog, comp

    def check_native(self, raw: bytes, data, job) -> str | None:
        """None when the destination equals naive_permute and both slack
        bands still hold their fill byte; otherwise what is wrong."""
        import native

        slack = job.machine.lanes * job.layout.elem_width
        buf = np.frombuffer(raw, dtype=np.uint8)
        if buf.size != job.nbytes + 2 * slack:
            return f"destination has {buf.size} bytes"
        got = buf[slack:slack + job.nbytes].view(job.layout.dtype)
        if not np.array_equal(got, self.core.naive_permute(data, job.layout, job.pmap)):
            return "kernel output differs from naive_permute"
        if (buf[:slack] != native.SLACK_BYTE).any() or (buf[slack + job.nbytes:] != native.SLACK_BYTE).any():
            return "kernel changed the slack past the buffer"
        return None

    def time_numpy(self, job, data) -> float:
        """Median seconds of np.transpose + ascontiguousarray on the same job."""
        x = data.reshape(job.layout.shape_outer_first())
        ts = []
        t_end = time.perf_counter() + 0.05
        while len(ts) < 5 or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            np.ascontiguousarray(np.transpose(x, job.axes))
            ts.append(time.perf_counter() - t0)
        return median(ts)

    def control_high_word(self, native):
        """Negative control: an 8-byte AVX-512 kernel whose high-word
        selectors all read element 0 must fail the check on full-width
        data.  Whether the old uint32-cast-up data would have caught it is
        recorded as well."""
        import re

        reason = native.skip_reason("x86-avx")
        if reason:
            self.skips["control_high_word"] = reason
            return
        job = next(j for j in self.J.roadmap_jobs() if j.name == "7x32x32x3_0231_e8")
        prog = self.ir.build_program(job.layout, job.pmap, job.machine)
        src = self.emit.emit_source(prog, target="x86-avx")

        def corrupt(m):
            vals = [int(x) for x in m.group(2).split(",")]
            vals[1::2] = [1] * len(vals[1::2])
            return m.group(1) + ", ".join(map(str, vals)) + "};"

        bad_src, n = re.subn(r"(static const uint32_t vp_tab\d+\[\d+\] = \{)([^}]*)\};", corrupt, src)
        workdir = os.path.join(self.workdir, "control")
        os.makedirs(workdir)
        symbol = self.emit.kernel_name(prog.layout, prog.pmap, prog.machine)
        comp = native.compile_kernel(bad_src, symbol, "x86-avx", workdir, "vp_ctl")
        harness = native.Harness(workdir, [job.name], [comp], [job.nbytes],
                                 [job.machine.lanes * job.layout.elem_width])
        rng = self.rng(4)
        full = self.J.full_width_data(rng, job.layout)
        legacy = rng.integers(0, 2**32 - 1, size=job.layout.num_elements,
                              dtype=np.uint32).astype(job.layout.dtype)
        flagged = {}
        for name, data in (("full_width", full), ("uint32_cast", legacy)):
            raw = harness.run_once(harness.exes[0], 0, data.tobytes())
            flagged[name] = self.check_native(raw, data, job) is not None
        self.checks["control_high_word_flagged"] = n > 0 and bad_src != src and flagged["full_width"]
        self.record["control_high_word"] = {"tables_edited": n, "flagged": flagged}

    # -- report ---------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict:
        m = {}
        rows = self.record.get("kernel_rows")
        if rows:
            m["kernel_memcpy_ratio"] = (geomean([r["memcpy_ratio"] for r in rows]), "ratio")
            m["kernel_gbps"] = (geomean([r["gbps"] for r in rows]), "GB/s")
            m["time_to_kernel_s"] = (median([r["time_to_kernel_s"] for r in rows]), "s")
        g, v = self.record["gen"], self.record["verify"]
        m["gen_jobs_per_s"] = (g.rate(), "jobs/s")
        m["gen_ms_p50"] = (g.p50() * 1e3, "ms")
        m["gen_ms_tail"] = (g.tail()[1] * 1e3, "ms")
        m["verify_cases_per_s"] = (v.rate(), "cases/s")
        m["verify_case_ms_p50"] = (v.p50() * 1e3, "ms")
        m["verify_case_ms_tail"] = (v.tail()[1] * 1e3, "ms")
        m["setup_s"] = (setup_s, "s")
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        return m

    def per_layer(self) -> dict:
        n_gen = len(self.record["gen"])
        n_ver = len(self.record["verify"])
        by = Counter()
        for root, name, layer, dt in self.tracer.self_times():
            by[(root, layer)] += dt
            by[(root, name)] += dt
        ms = 1e3
        m = {
            "planner.self_ms": (by["gen", "planner"] * ms / n_gen, "ms"),
            "shuffle.self_ms": (by["gen", "shuffle"] * ms / n_gen, "ms"),
            "shuffle.calls": (sum(1 for s in self.tracer.spans if s[0] == "build_block_ops"), "count"),
            "ir.build_self_ms": ((by["gen", "build_ir"] + by["gen", "build_program"]) * ms / n_gen, "ms"),
            "ir.optimize_ms": (by["gen", "optimize"] * ms / n_gen, "ms"),
            "emit.self_ms": (by["gen", "emit"] * ms / n_gen, "ms"),
            "vm.self_ms": (by["verify", "vm"] * ms / n_ver, "ms"),
            "core.reference_ms": (by["verify", "core"] * ms / n_ver, "ms"),
            "trace.overhead_ratio": (self.record["trace_overhead_ratio"], "ratio"),
        }
        traced_vops = self.record.get("verify_vector_ops_all", 0)
        m["vm.ns_per_op"] = (by["verify", "vm"] * 1e9 / traced_vops if traced_vops else 0.0, "ns")
        units = {"planner.phases_per_job": "count", "planner.utilization_mean": "ratio",
                 "ir.body_ops": "count", "ir.unroll_mean": "count",
                 "ir.total_registers_max": "count", "ir.streamed_loops": "count",
                 "emit.source_bytes": "bytes", "vm.vector_ops": "count",
                 "vm.ops_per_w_over_bound_max": "ratio"}
        for k, unit in units.items():
            m[k] = (self.layer_counts.get(k, 0), unit)
        rows = self.record.get("kernel_rows") or []
        if rows:
            m["cc.compile_s"] = (median([r["cc_s"] for r in rows]), "s")
            m["cc.text_bytes"] = (sum(r["text_bytes"] for r in rows), "bytes")
            m["kernel.gbps_min"] = (min(r["gbps"] for r in rows), "GB/s")
            m["kernel.memcpy_ratio_min"] = (min(r["memcpy_ratio"] for r in rows), "ratio")
            m["memcpy.gbps"] = (geomean([r["memcpy_gbps"] for r in rows]), "GB/s")
            m["numpy.gbps"] = (geomean([r["numpy_gbps"] for r in rows]), "GB/s")
            m["kernel.ops_per_w_mean"] = (statistics.fmean(r["ops_per_w"] for r in rows), "count")
            m["kernel.ops_per_w_over_bound_max"] = (max(r["ops_per_w"] / r["bound"] for r in rows), "ratio")
        errors = Counter(f["layer"] for f in self.failures)
        for layer in ("planner", "shuffle", "ir", "emit", "cc", "kernel", "vm", "core"):
            m[f"{layer}.errors"] = (errors[layer], "count")
        return m


# ---------------------------------------------------------------------------
# host record


def host_record() -> dict:
    import native

    rec = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            rec["cpu"] = next((ln.split(":", 1)[1].strip() for ln in f
                               if ln.startswith("model name")), "unknown")
    except OSError:
        rec["cpu"] = "unknown"
    rec["avx512"] = sorted(f for f in native.cpu_flags() if f.startswith("avx512"))
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for d in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, d, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(base, d, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(base, d, "size")) as f:
                    caches[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = f.read().strip()
            except OSError:
                continue
    rec["caches"] = caches
    cc = native.find_cc()
    rec["cc"] = subprocess.run([cc, "--version"], capture_output=True, text=True,
                               timeout=30).stdout.splitlines()[0] if cc else None
    return rec


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "vecperm", "__init__.py")):
        print("error: run from the repository root; src/vecperm not found", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.setup_probe:
        Setup(args.workload, args.seed)
        return 0

    t0 = time.perf_counter()
    setup = Setup(args.workload, args.seed)
    inprocess_setup_s = time.perf_counter() - t0
    tracer = Tracer() if args.trace else NullTracer()
    os.makedirs(".bench_build", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=".bench_build")
    try:
        run = Run(setup, args.seconds, tracer, workdir)
        run.stage_gen()
        run.stage_verify()
        run.stage_kernel()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes = probe_setup_seconds(args.workload, args.seed)

    required = ["deterministic", "control_swapped_flagged"]
    if "control_high_word" not in run.skips:
        required.append("control_high_word_flagged")
    correct = not run.failures and all(run.checks.get(k) for k in required)
    metrics = run.per_layer() if args.trace else run.end_to_end(median(probes))
    g, v = run.record["gen"], run.record["verify"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_record(),
        "failed_fraction": len(run.failures) / max(run.attempted, 1),
        "failures": run.failures[:20], "skips": run.skips, "checks": run.checks,
        "gen": {"samples": len(g), "jobs": len(set(g.jobs)), "tail_percentile": g.tail()[0],
                "raw_ms_p50": g.p50(g.raw) * 1e3},
        "verify": {"samples": len(v), "jobs": len(set(v.jobs)), "tail_percentile": v.tail()[0],
                   "raw_ms_p50": v.p50(v.raw) * 1e3},
        "setup_probes_s": probes, "setup_inprocess_s": inprocess_setup_s,
        "host_speed_factor": {"median": median(run.clock.factors), "min": min(run.clock.factors),
                              "max": max(run.clock.factors)},
        "source_digest": run.record.get("source_digest"),
        "kernel_rows": run.record.get("kernel_rows", []),
        "control_high_word": run.record.get("control_high_word"),
        "cc_reference_s": run.record.get("cc_reference_s"),
        "cache_resident": "every kernel buffer is 84 KiB to 8 MiB, inside the last-level cache",
    }
    if "trace_overhead_ratio" in run.record:
        detail["trace_overhead_ratio"] = run.record["trace_overhead_ratio"]

    for row in detail["kernel_rows"]:
        print(f"{row['job']:>22}  kernel {row['gbps']:7.2f} GB/s  memcpy {row['memcpy_gbps']:7.2f} GB/s"
              f"  ratio {row['memcpy_ratio']:.3f}  ops/w {row['ops_per_w']:.2f} (bound {row['bound']:.2f})"
              f"  to-kernel {row['time_to_kernel_s']:.3f} s")
    for reason in run.skips.items():
        print("skipped %s: %s" % reason)
    for f in run.failures[:20]:
        print(f"FAILED {f['stage']} {f['job']} [{f['layer']}]: {f['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(val), "unit": u} for k, (val, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
