"""Compile, check and time emitted kernels with the C harness.

The kernels of one run are compiled one object each (that compile is the
`cc` share of time-to-kernel), then linked with ``harness.c`` and a
generated job table into two executables whose objects come in opposite
orders, because generated code speeds up or slows down with its place in
the binary.  Every process started here is waited for.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import time
from dataclasses import dataclass

HARNESS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "harness.c")
SLACK_BYTE = 0xA5
TARGET_FLAGS = {"x86-avx": ["-O2", "-mavx512f"], "scalar": ["-O2"]}
TIMEOUT_S = 120


def cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def find_cc() -> str | None:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def skip_reason(target: str) -> str | None:
    """Why kernels of ``target`` cannot be built and run here, or None."""
    if find_cc() is None:
        return "no C compiler on PATH"
    if target == "x86-avx":
        if platform.machine() not in ("x86_64", "amd64"):
            return "host is not x86-64"
        if "avx512f" not in cpu_flags():
            return "host CPU lacks avx512f"
    return None


class NativeError(RuntimeError):
    pass


@dataclass
class Compiled:
    symbol: str
    obj: str
    compile_s: float
    text_bytes: int


def compile_kernel(source: str, symbol: str, target: str, workdir: str, tag: str) -> Compiled:
    """Compile one kernel to an object exporting it as ``tag``; raises
    NativeError on a compiler error.  Renaming keeps two jobs that plan to
    the same kernel name from clashing at link time."""
    src = os.path.join(workdir, f"{tag}.c")
    obj = os.path.join(workdir, f"{tag}.o")
    with open(src, "w") as f:
        f.write(source)
    t0 = time.perf_counter()
    proc = subprocess.run([find_cc(), *TARGET_FLAGS[target], f"-D{symbol}={tag}", "-c", src,
                           "-o", obj], capture_output=True, text=True, timeout=TIMEOUT_S,
                          env=_env(workdir))
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise NativeError(f"compile error for {tag}: {proc.stderr[-2000:]}")
    return Compiled(tag, obj, dt, text_bytes(obj))


# A fixed translation unit whose compile time tracks how fast the host runs
# the compiler right now: it parses the same intrinsics header the AVX-512
# kernels do, which is most of their compile time.
REFERENCE_SOURCE = "#include <immintrin.h>\nint vp_reference(int x) { return x + 1; }\n"


def compile_reference(workdir: str, tag: str) -> float:
    """Seconds to compile REFERENCE_SOURCE; raises NativeError on failure."""
    return compile_kernel(REFERENCE_SOURCE, "vp_reference", "x86-avx", workdir, tag).compile_s


def _env(workdir: str) -> dict:
    """The compiler's scratch files stay in the run's own directory."""
    return {**os.environ, "TMPDIR": workdir}


def text_bytes(obj: str) -> int:
    out = subprocess.run(["size", "-A", obj], capture_output=True, text=True,
                         timeout=TIMEOUT_S, check=True).stdout
    return sum(int(ln.split()[1]) for ln in out.splitlines() if ln.startswith(".text"))


class Harness:
    """The kernels of one run linked into two executables (two link orders)."""

    def __init__(self, workdir: str, names: list[str], kernels: list[Compiled],
                 nbytes: list[int], slack: list[int]):
        self.workdir = workdir
        cc = find_cc()
        table = os.path.join(workdir, "jobs.c")
        with open(table, "w") as f:
            f.write("#include <stddef.h>\n")
            f.write("typedef void (*vp_kernel)(const void *, void *);\n")
            f.write("struct vp_job { const char *name; vp_kernel fn; size_t nbytes; size_t slack; };\n")
            for k in kernels:
                f.write(f"void {k.symbol}(const void *, void *);\n")
            f.write("const struct vp_job vp_jobs[] = {\n")
            for name, k, nb, sl in zip(names, kernels, nbytes, slack):
                f.write(f'    {{"{name}", {k.symbol}, {nb}, {sl}}},\n')
            f.write("};\n")
            f.write(f"const int vp_njobs = {len(kernels)};\n")
        objs = []
        for src in (HARNESS, table):
            obj = os.path.join(workdir, os.path.basename(src)[:-2] + ".o")
            self._run([cc, "-O2", "-c", src, "-o", obj])
            objs.append(obj)
        kobjs = [k.obj for k in kernels]
        self.exes = []
        for order, seq in (("fwd", objs + kobjs), ("rev", kobjs[::-1] + objs[::-1])):
            exe = os.path.join(workdir, f"harness_{order}")
            self._run([cc, *seq, "-o", exe])
            self.exes.append(exe)

    def _run(self, cmd: list[str]) -> str:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S,
                              env=_env(self.workdir))
        if proc.returncode != 0:
            raise NativeError(f"{os.path.basename(cmd[0])} exited {proc.returncode}: "
                              f"{proc.stderr[-2000:]}")
        return proc.stdout

    def run_once(self, exe: str, job: int, data: bytes) -> bytes:
        """Destination bytes, slack on both sides included, of one kernel call."""
        inp = os.path.join(self.workdir, "in.bin")
        outp = os.path.join(self.workdir, "out.bin")
        with open(inp, "wb") as f:
            f.write(data)
        self._run([exe, "check", str(job), inp, outp])
        with open(outp, "rb") as f:
            return f.read()

    def time(self, exe: str, seconds: float, min_reps: int) -> dict[str, tuple]:
        """{job name: {kernel_ns, memcpy_ns, kernel_min_ns, memcpy_min_ns, pairs}}."""
        keys = ("kernel_ns", "memcpy_ns", "kernel_min_ns", "memcpy_min_ns", "pairs")
        out = {}
        for line in self._run([exe, "time", repr(seconds), str(min_reps)]).splitlines():
            name, *vals = line.split()
            out[name] = dict(zip(keys, map(float, vals)))
        return out
