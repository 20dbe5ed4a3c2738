"""Command-line front end: plan, gen, run, check.

Shapes are given in NumPy outer-to-inner order; maps default to the NumPy
convention (``--convention paper`` reads the little-endian notation
instead).  Tensor files are raw little-endian element dumps behind a
16-byte header (magic, element width, rank, reserved) followed by the
dims as 32-bit words, outer-to-inner.
"""

from __future__ import annotations

import argparse
import os
import struct
import sys
import time

import numpy as np

from .core import (
    LayoutError,
    PermutationMap,
    TensorLayout,
    from_numpy_convention,
    naive_permute,
    permuted_layout,
    random_elements,
)
from .emit import emit_source, verify_native
from .ir import build_program, dump_ir
from .machine import MachineConfig
from .planner import format_plan, merge_dimensions, select_block
from .vm import VMError, audit_complexity, execute, format_counters

MAGIC = 0x56505431  # "VPT1"

FAMILIES = ("all2", "pow2", "general")

# (bits, elem) pairs covering lane counts 4, 8 and 16 with both widths
MACHINE_GRID = [
    (128, 4),
    (256, 8),
    (256, 4),
    (512, 8),
    (512, 4),
]


class CLIError(Exception):
    def __init__(self, code: str, msg: str):
        super().__init__(msg)
        self.code = code


def parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")
    except ValueError:
        raise CLIError("bad-int-list", f"cannot parse integer list {text!r}")


def parse_map(entries: tuple[int, ...], convention: str) -> PermutationMap:
    try:
        if convention == "numpy":
            return from_numpy_convention(entries)
        return PermutationMap(tuple(reversed(entries)))
    except LayoutError as e:
        raise CLIError("bad-map", str(e))


def job_layout_map(args) -> tuple[TensorLayout, PermutationMap]:
    if not args.shape:
        raise CLIError("missing-shape", "--shape is required")
    shape_outer = parse_ints(args.shape)
    try:
        layout = TensorLayout(tuple(reversed(shape_outer)), args.elem)
    except LayoutError as e:
        raise CLIError("bad-shape", str(e))
    if args.map is None:
        pmap = PermutationMap(tuple(range(layout.rank)))
    else:
        entries = parse_ints(args.map)
        if len(entries) != layout.rank:
            raise CLIError("bad-map", f"map rank {len(entries)} != shape rank {layout.rank}")
        pmap = parse_map(entries, args.convention)
    return layout, pmap


def job_machine(args) -> MachineConfig:
    try:
        return MachineConfig(args.isa, args.bits, args.elem, args.regs)
    except LayoutError as e:
        raise CLIError("bad-machine", str(e))


def write_tensor(path: str, data: np.ndarray, layout: TensorLayout) -> None:
    shape_outer = layout.shape_outer_first()
    with open(path, "wb") as f:
        f.write(struct.pack("<4I", MAGIC, layout.elem_width, layout.rank, 0))
        f.write(struct.pack(f"<{layout.rank}I", *shape_outer))
        f.write(np.asarray(data, dtype=layout.dtype).tobytes())


def read_tensor(path: str) -> tuple[TensorLayout, np.ndarray]:
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) != 16:
            raise CLIError("bad-tensor-file", f"{path}: truncated header")
        magic, elem, rank, _ = struct.unpack("<4I", head)
        if magic != MAGIC:
            raise CLIError("bad-tensor-file", f"{path}: bad magic {magic:#x}")
        raw = f.read(4 * rank)
        if len(raw) != 4 * rank:
            raise CLIError("bad-tensor-file", f"{path}: truncated dims")
        dims_outer = struct.unpack(f"<{rank}I", raw)
        try:
            layout = TensorLayout(tuple(reversed(dims_outer)), elem)
        except LayoutError as e:
            raise CLIError("bad-tensor-file", f"{path}: {e}")
        payload = f.read()
    data = np.frombuffer(payload, dtype=layout.dtype)
    if data.size != layout.num_elements:
        raise CLIError("bad-tensor-file", f"{path}: payload size mismatch")
    return layout, data


# ---------------------------------------------------------------------------
# randomized campaign


def sample_case(rng: np.random.Generator, max_rank: int, max_elems: int):
    family = FAMILIES[int(rng.integers(0, 3))]
    rank = int(rng.integers(2, max_rank + 1))
    dims = (2, 2)
    for _ in range(64):
        if family == "all2":
            dims = (2,) * rank
        elif family == "pow2":
            dims = tuple(int(2 ** rng.integers(0, 6)) for _ in range(rank))
        else:
            dims = tuple(int(rng.integers(1, 10)) for _ in range(rank))
        n = 1
        for d in dims:
            n *= d
        if n <= max_elems:
            break
        rank = max(2, rank - 1)
    sigma = tuple(int(x) for x in rng.permutation(len(dims)))
    bits, elem = MACHINE_GRID[int(rng.integers(0, len(MACHINE_GRID)))]
    machine = MachineConfig("abstract", bits, elem, 32)
    return family, TensorLayout(dims, elem), PermutationMap(sigma), machine


def run_campaign(
    cases: int,
    max_rank: int = 16,
    seed: int = 0,
    max_elems: int = 1 << 16,
    progress: int | None = None,
) -> dict:
    """Randomized validation: generated programs executed on the VM must
    reproduce the reference permutation bitwise in every case.  Sizes the
    sampler cannot draw from raise ``CLIError`` ``bad-campaign``, named by
    their ``check`` flag."""
    for flag, value, least in (("--cases", cases, 1), ("--max-rank", max_rank, 2),
                               ("--max-elems", max_elems, 4)):
        if value < least:
            raise CLIError("bad-campaign", f"{flag} must be at least {least}, got {value}")
    rng = np.random.default_rng(seed)
    mismatches = []
    audits_ok = 0
    per_family = {f: 0 for f in FAMILIES}
    for i in range(cases):
        family, layout, pmap, machine = sample_case(rng, max_rank, max_elems)
        per_family[family] += 1
        # the high word comes from its own stream so rng, and with it the
        # sampled cases, stay what they were with 32-bit data
        data = random_elements(rng, layout, np.random.default_rng((seed, i)))
        ir = build_program(layout, pmap, machine)
        out, counters = execute(ir, data)
        want = naive_permute(data, layout, pmap)
        if np.array_equal(out, want):
            rep = audit_complexity(counters, layout, machine, float(ir.metadata["utilization"]))
            audits_ok += rep["within_bound"]
        else:
            mismatches.append(
                {"shape": layout.shape_outer_first(), "sigma": pmap.sigma, "w": machine.lanes}
            )
        if progress and (i + 1) % progress == 0:
            print(f"  {i + 1}/{cases} cases done", flush=True)
    return {
        "cases": cases,
        "passed": cases - len(mismatches),
        "mismatches": mismatches,
        "per_family": per_family,
        "audits_within_bound": audits_ok,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_plan(args) -> int:
    layout, pmap = job_layout_map(args)
    plan = select_block(*merge_dimensions(layout, pmap), job_machine(args))
    print(format_plan(plan))
    return 0


def cmd_gen(args) -> int:
    layout, pmap = job_layout_map(args)
    machine = job_machine(args)
    ir = build_program(layout, pmap, machine)
    show_source = args.emit in ("source", "both")
    # one lowering serves both the printed and the verified source
    src = emit_source(ir, target=args.target) if show_source or args.native_verify else None
    pieces = []
    if args.emit in ("ir", "both"):
        pieces.append(dump_ir(ir))
    if show_source and src not in pieces:  # the abstract source is the IR dump
        pieces.append(src)
    text = "\n".join(pieces)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    if args.native_verify:
        res = verify_native(src, layout, pmap, machine, target=args.target, seed=args.seed)
        tail = f"({res['cases']} cases)" if res["status"] == "pass" else f"({res.get('reason', '')})"
        print(f"native-verify: {res['status']} {tail}")
        if res["status"] == "fail":
            return 1
    return 0


def cmd_run(args) -> int:
    machine = job_machine(args)
    if args.input:
        layout, data = read_tensor(args.input)
        if layout.elem_width != machine.elem_width:
            machine = MachineConfig(
                machine.isa_tag, machine.bit_width, layout.elem_width,
                machine.num_vector_registers,
            )
        if args.map is None:
            raise CLIError("missing-map", "--map is required with --in")
        entries = parse_ints(args.map)
        if len(entries) != layout.rank:
            raise CLIError("bad-map", "map rank does not match tensor rank")
        pmap = parse_map(entries, args.convention)
    else:
        layout, pmap = job_layout_map(args)
        rng = np.random.default_rng(args.seed)
        data = random_elements(rng, layout)
    ir = build_program(layout, pmap, machine)
    out, counters = execute(ir, data)
    if not np.array_equal(out, naive_permute(data, layout, pmap)):
        raise CLIError("oracle-mismatch", "VM output differs from the reference permutation")
    if args.out:
        write_tensor(args.out, out, permuted_layout(layout, pmap))
        print(f"wrote {args.out}")
    if args.stats:
        print(format_counters(counters))
        rep = audit_complexity(counters, layout, machine, float(ir.metadata["utilization"]))
        for k in sorted(rep):
            print(f"{k}: {rep[k]}")
    if not args.out and not args.stats:
        print(f"permuted {layout.num_elements} elements")
    return 0


def cmd_check(args) -> int:
    t0 = time.time()
    summary = run_campaign(
        args.cases,
        max_rank=args.max_rank,
        seed=args.seed,
        max_elems=args.max_elems,
        progress=args.cases // 10 if args.cases >= 100 else None,
    )
    dt = time.time() - t0
    print(
        f"{summary['passed']}/{summary['cases']} exact matches "
        f"({dt:.1f}s, families: {summary['per_family']})"
    )
    if summary["mismatches"]:
        for mm in summary["mismatches"][:20]:
            print(f"MISMATCH shape={mm['shape']} map={mm['sigma']} w={mm['w']}")
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument rejection raises ``CLIError`` ``usage``, which ``main``
    prints as one line; ``--help`` still prints the help and exits 0."""

    def error(self, message):
        raise CLIError("usage", f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="vecperm",
        description="SIMD tensor permutation: plan, generate, execute, validate.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value file supplying defaults")
        sp.add_argument("--shape", help="tensor shape, outer-to-inner (NumPy order)")
        sp.add_argument("--map", help="permutation map entries")
        sp.add_argument("--convention", choices=("numpy", "paper"), default="numpy")
        sp.add_argument(
            "--isa", default="abstract",
            choices=("x86-avx", "arm-sve", "sunway-simd", "abstract"),
        )
        sp.add_argument("--bits", type=int, default=512, choices=(128, 256, 512))
        sp.add_argument("--elem", type=int, default=4, choices=(4, 8))
        sp.add_argument("--regs", type=int, default=32)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("plan", help="print the block plan")
    common(sp)
    sp.set_defaults(fn=cmd_plan)

    sp = sub.add_parser("gen", help="emit IR and/or target source")
    common(sp)
    sp.add_argument("--emit", choices=("ir", "source", "both"), default="ir")
    sp.add_argument(
        "--target", choices=("x86-avx", "arm-sve", "scalar", "sunway-simd", "abstract"),
        help="emission target (defaults to --isa; 'scalar' is portable C)",
    )
    sp.add_argument("--out", help="output file")
    sp.add_argument("--native-verify", action="store_true")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("run", help="execute a permutation on the VM")
    common(sp)
    sp.add_argument("--in", dest="input", help="input tensor file")
    sp.add_argument("--out", help="output tensor file")
    sp.add_argument("--stats", action="store_true")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("check", help="randomized oracle-equivalence campaign")
    common(sp)
    sp.add_argument("--cases", type=int, default=1000)
    sp.add_argument("--max-rank", type=int, default=16)
    sp.add_argument("--max-elems", type=int, default=1 << 16)
    sp.set_defaults(fn=cmd_check)
    return p


def expand_config(argv: list[str]) -> list[str]:
    """Splice key=value file entries in as defaults the real flags override."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise CLIError("bad-config", "--config needs a path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    file_args = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CLIError("bad-config", f"expected key=value, got {line!r}")
                k, v = line.split("=", 1)
                file_args.append(f"--{k.strip()}")
                if v.strip():
                    file_args.append(v.strip())
    except OSError as e:
        raise CLIError("bad-config", str(e))
    if not rest:
        raise CLIError("bad-config", "a command is still required")
    return rest[:1] + file_args + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = expand_config(argv)
    except CLIError as e:
        print(f"error {e.code}: {e}", file=sys.stderr)
        return 1
    try:
        args = build_parser().parse_args(argv)
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at shutdown
        return rc
    except BrokenPipeError as e:
        # the reader is gone: point stdout at devnull so the final flush at
        # interpreter exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error broken-pipe: {e}", file=sys.stderr)
        return 1
    except CLIError as e:
        print(f"error {e.code}: {e}", file=sys.stderr)
        return 1
    except (LayoutError, VMError) as e:
        print(f"error invalid-job: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error io: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
