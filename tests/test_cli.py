import os
import subprocess
import sys

import numpy as np
import pytest

import vecperm

from vecperm.cli import CLIError, main, read_tensor, run_campaign, write_tensor
from vecperm.core import TensorLayout, naive_permute


class TestTensorFiles:
    def test_round_trip(self, tmp_path):
        lay = TensorLayout((3, 5, 7))
        data = np.arange(105, dtype=np.uint32)
        path = tmp_path / "t.vpt"
        write_tensor(str(path), data, lay)
        lay2, data2 = read_tensor(str(path))
        assert lay2.dims == lay.dims and lay2.elem_width == 4
        assert np.array_equal(data, data2)

    def test_round_trip_8_byte_elements(self, tmp_path):
        lay = TensorLayout((4, 6), 8)
        data = np.arange(24, dtype=np.uint64)
        path = tmp_path / "t8.vpt"
        write_tensor(str(path), data, lay)
        lay2, data2 = read_tensor(str(path))
        assert lay2.elem_width == 8 and np.array_equal(data, data2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vpt"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(Exception):
            read_tensor(str(path))


class TestCommands:
    def test_plan_identity_zero_steps(self, capsys):
        rc = main(["plan", "--shape", "8,4", "--map", "0,1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shuffle steps: 0" in out

    def test_plan_transpose(self, capsys):
        rc = main(["plan", "--shape", "32,32", "--map", "1,0"])
        assert rc == 0
        assert "shuffle steps: 4" in capsys.readouterr().out

    def test_little_endian_convention_map(self, capsys):
        # the same permutation in both conventions plans identically
        rc1 = main(["plan", "--shape", "4,3,2,5", "--map", "0,2,3,1"])
        out1 = capsys.readouterr().out
        rc2 = main(["plan", "--shape", "4,3,2,5", "--map", "3,1,0,2", "--convention", "paper"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_gen_ir_and_source(self, capsys):
        rc = main(["gen", "--shape", "4,4", "--map", "1,0", "--emit", "both",
                   "--target", "scalar", "--bits", "128"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "vecperm-ir v4" in out
        assert "permute_" in out

    def test_gen_intrinsic_target_on_abstract_machine(self, capsys):
        rc = main(["gen", "--shape", "8,8", "--map", "1,0", "--emit", "source",
                   "--target", "arm-sve"])
        out = capsys.readouterr().out
        assert rc == 0
        assert " * target: arm-sve " in out and "svtbl2_u32" in out

    def test_gen_out_file(self, tmp_path, capsys):
        path = tmp_path / "k.c"
        rc = main(["gen", "--shape", "4,4", "--map", "1,0", "--emit", "source",
                   "--target", "scalar", "--out", str(path)])
        assert rc == 0
        assert "permute_" in path.read_text()

    def test_run_against_oracle_file(self, tmp_path, capsys):
        # shape (7,32,32,3) with numpy map (0,2,3,1), checked against a reference file
        rng = np.random.default_rng(5)
        lay = TensorLayout((3, 32, 32, 7))  # inner-first
        data = rng.integers(0, 2**32 - 1, size=lay.num_elements, dtype=np.uint32)
        src = tmp_path / "in.vpt"
        dst = tmp_path / "out.vpt"
        write_tensor(str(src), data, lay)
        rc = main(["run", "--in", str(src), "--map", "0,2,3,1", "--out", str(dst)])
        assert rc == 0
        from vecperm.core import from_numpy_convention

        pm = from_numpy_convention((0, 2, 3, 1))
        _, got = read_tensor(str(dst))
        assert np.array_equal(got, naive_permute(data, lay, pm))

    def test_run_stats(self, capsys):
        rc = main(["run", "--shape", "16,16", "--map", "1,0", "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "vload:" in out and "ops_per_w_elements" in out
        assert "within_bound: True" in out

    def test_run_oracle_mismatch_exits_1(self, capsys, monkeypatch):
        from vecperm import cli

        real = cli.execute

        def wrong(ir, data):
            out, counters = real(ir, data)
            return out[::-1].copy(), counters

        monkeypatch.setattr(cli, "execute", wrong)
        rc = main(["run", "--shape", "16,16", "--map", "1,0", "--stats"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error oracle-mismatch: ")
        assert captured.out == ""

    def test_check_small_campaign(self, capsys):
        rc = main(["check", "--cases", "25", "--seed", "3", "--max-rank", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "25/25 exact matches" in out

    def test_check_seed_deterministic(self):
        s1 = run_campaign(20, max_rank=8, seed=11)
        s2 = run_campaign(20, max_rank=8, seed=11)
        assert s1 == s2

    def test_gen_native_failure_exits_1(self, capsys, monkeypatch):
        from vecperm import cli

        def failing(*args, **kwargs):
            return {"status": "fail", "reason": "bitwise mismatch on case 0", "cases": 0}

        monkeypatch.setattr(cli, "verify_native", failing)
        rc = main(["gen", "--shape", "16,16", "--map", "1,0", "--emit", "source",
                   "--target", "scalar", "--native-verify"])
        out = capsys.readouterr().out
        assert "native-verify: fail (bitwise mismatch on case 0)" in out
        assert rc == 1

    @pytest.mark.parametrize("emit", ["ir", "source", "both"])
    def test_gen_native_verify_lowers_once(self, capsys, monkeypatch, emit):
        # the source printed and the source verified are one lowering
        from vecperm import cli

        real = cli.emit_source
        calls, verified = [], []

        def counting(ir, target=None):
            calls.append(target)
            return real(ir, target=target)

        def passing(src, *args, **kwargs):
            verified.append(src)
            return {"status": "pass", "cases": 1}

        monkeypatch.setattr(cli, "emit_source", counting)
        monkeypatch.setattr(cli, "verify_native", passing)
        rc = main(["gen", "--shape", "64,64", "--map", "1,0", "--emit", emit,
                   "--target", "scalar", "--native-verify"])
        out = capsys.readouterr().out
        assert rc == 0 and "native-verify: pass (1 cases)" in out
        assert calls == ["scalar"]
        if emit != "ir":
            assert verified[0] in out

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("shape=8,4\nmap=1,0\n")
        rc = main(["plan", "--config", str(cfg)])
        assert rc == 0
        assert "shuffle steps" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("shape=8,4\nmap=0,1\n")
        rc = main(["plan", "--config", str(cfg), "--map", "1,0"])
        out = capsys.readouterr().out
        assert rc == 0
        # identity from the file would plan zero steps; the flag wins
        assert "shuffle steps: 0" not in out
        assert "shuffle steps: 1" in out


class TestErrors:
    def test_missing_shape(self, capsys):
        rc = main(["plan"])
        assert rc == 1
        assert "error missing-shape" in capsys.readouterr().err

    def test_invalid_map(self, capsys):
        rc = main(["plan", "--shape", "4,4", "--map", "0,0"])
        assert rc == 1
        assert "error bad-map" in capsys.readouterr().err

    def test_rank_mismatch(self, capsys):
        rc = main(["plan", "--shape", "4,4", "--map", "0,1,2"])
        assert rc == 1
        assert "error bad-map" in capsys.readouterr().err

    def test_unsupported_machine_combo(self, capsys):
        rc = main(["plan", "--shape", "4,4", "--map", "1,0", "--regs", "1"])
        assert rc == 1
        assert "error bad-machine" in capsys.readouterr().err

    # each value is one below the least the campaign can run
    @pytest.mark.parametrize("flag, value", [("--max-rank", "1"), ("--cases", "0"),
                                             ("--max-elems", "3")])
    def test_campaign_arguments_out_of_range(self, capsys, flag, value):
        rc = main(["check", "--cases", "2", flag, value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error bad-campaign: {flag} "), lines

    @pytest.mark.parametrize("kwargs, flag", [({"max_rank": 1}, "--max-rank"),
                                              ({"max_elems": 3}, "--max-elems")])
    def test_campaign_library_call_out_of_range(self, kwargs, flag):
        # the library call rejects the sizes the check command rejects,
        # with the same coded error
        with pytest.raises(CLIError) as exc:
            run_campaign(2, **kwargs)
        assert exc.value.code == "bad-campaign"
        assert str(exc.value).startswith(f"{flag} must be at least ")
        with pytest.raises(CLIError, match="--cases must be at least 1, got 0"):
            run_campaign(0)

    @pytest.mark.parametrize("argv", [
        ["plan", "--shape", "4,4", "--bits", "100"],
        ["plan", "--shape", "4,4", "--bogus"],
        ["check", "--cases", "ten"],
        [],
    ])
    def test_argparse_rejection_is_one_line(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error usage: vecperm"), lines

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--help"])
        assert exc.value.code == 0
        assert "usage: vecperm plan" in capsys.readouterr().out

    def test_file_errors_are_one_io_line(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        for argv in (
            ["run", "--in", str(missing / "x.vpt"), "--map", "1,0"],
            ["run", "--shape", "4,4", "--map", "1,0", "--out", str(missing / "y.vpt")],
            ["gen", "--shape", "4,4", "--map", "1,0", "--out", str(missing / "x.c")],
        ):
            rc = main(argv)
            lines = capsys.readouterr().err.splitlines()
            assert rc == 1
            assert len(lines) == 1 and lines[0].startswith("error io: "), (argv, lines)

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("no equals sign here\n")
        rc = main(["plan", "--config", str(cfg)])
        assert rc == 1
        assert "error bad-config" in capsys.readouterr().err

    def test_closed_stdout_is_one_error_line(self):
        # the reader of stdout is gone before the command writes anything;
        # stdout stays block-buffered, so nothing is written before main
        # returns unless main flushes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(vecperm.__file__))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "vecperm", "run", "--shape", "16,16", "--map", "1,0",
                 "--stats"],
                stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(w)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error broken-pipe: "), proc.stderr
