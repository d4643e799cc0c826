"""The CLI's argument parser: built once per process, reused by every later
``main`` call, and the integer checks it makes on its flags."""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gprime import __version__, cli

ROOT = Path(__file__).resolve().parents[1]
M3 = str(ROOT / "fixtures" / "m3_pair_groupoid.json")
BLOCK = str(ROOT / "fixtures" / "block_diagonal.json")


def call(argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call; a usage
    error's SystemExit is read as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def head(stdout: str) -> str:
    """A report without its timings section, which is the last one."""
    return stdout.split("\ntimings:\n")[0]


class TestParserReuse:

    REQUESTS = [
        ("prime", M3, "--method", "oracle"),
        ("prime", M3),
        ("prime", BLOCK, "--timings"),
        ("prime", BLOCK),
        ("equivalence", BLOCK, "--output", "json"),
        ("equivalence", BLOCK),
        ("prime", M3, "--method", "frobnicate"),
        ("validate", M3),
    ]

    def test_interleaved_calls_match_first_calls(self):
        first = {}
        for argv in self.REQUESTS:
            cli._build_parser.cache_clear()
            first[argv] = call(argv)
        assert first[("prime", M3, "--method", "frobnicate")][0] == 1
        # every later call reuses one parser, in two different orders
        for argv in self.REQUESTS + self.REQUESTS[::-1]:
            code, out, err = call(argv)
            assert code == first[argv][0]
            assert head(out) == head(first[argv][1])
            if "--timings" not in argv:
                assert out == first[argv][1]
                assert err == first[argv][2]
        assert "timings:" in call(("prime", BLOCK, "--timings"))[1]
        assert "timings" not in call(("prime", BLOCK))[1]

    def test_output_goes_to_the_streams_current_at_call_time(self):
        call(("validate", M3))            # the parser exists from here on
        for _ in range(2):
            code, out, err = call(("--version",))
            assert (code, out, err) == (0, f"gprime {__version__}\n", "")
            code, out, err = call(("prime",))
            assert code == 1 and out == ""
            assert err.startswith("usage: gprime prime")
            assert err.splitlines()[-1] == \
                "gprime prime: error: the following arguments are required: file"

    def test_later_calls_construct_no_parser(self, monkeypatch):
        call(("validate", M3))
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert call(("validate", M3))[0] == 0
        assert call(("prime", M3, "--output", "json"))[0] == 0
        assert built == []

    def test_a_fresh_process_builds_the_parser_once(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from gprime import cli\n"
            "imported = len(built)\n"
            "assert cli.main(['validate', sys.argv[1]]) == 0\n"
            "one_call = len(built)\n"
            "cli._build_parser.__wrapped__()\n"
            "print(imported, one_call, len(built) - one_call, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", "import sys\n" + script, M3],
                              capture_output=True, text=True,
                              env={**os.environ,
                                   "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        imported, one_call, one_build = map(int, proc.stderr.split())
        assert imported == 0            # importing the module builds nothing
        assert one_call == one_build > 0


class TestIntegerFlags:
    """--max-ring and GPRIME_MAX_RING take positive integers, as the file's
    bounds.max_ring does; fuzz --count takes a non-negative one."""

    @pytest.mark.parametrize("value", ["-3", "0", "banana"])
    def test_max_ring_flag_must_be_positive(self, value):
        code, out, err = call(("prime", M3, f"--max-ring={value}"))
        assert (code, out) == (1, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["gprime prime: error: argument --max-ring: must be "
                          f"a positive integer, got {value!r}"]

    @pytest.mark.parametrize("value", ["-1", "0", "banana"])
    def test_env_bound_must_be_positive(self, value, monkeypatch):
        monkeypatch.setenv("GPRIME_MAX_RING", value)
        assert call(("prime", M3)) == (
            1, "", "gprime: error: GPRIME_MAX_RING must be a positive "
                   f"integer, got {value!r}\n")

    def test_positive_bounds_still_apply(self, monkeypatch):
        assert call(("prime", M3, "--max-ring", "1"))[0] == 2
        monkeypatch.setenv("GPRIME_MAX_RING", "1")
        assert call(("prime", M3))[0] == 2

    def test_fuzz_count_must_not_be_negative(self):
        code, out, err = call(("fuzz", "--seed", "1", "--count", "-2"))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == ("gprime fuzz: error: argument --count: "
                                        "must be a non-negative integer, got '-2'")
        code, out, _ = call(("fuzz", "--seed", "1", "--count", "0"))
        assert code == 0 and "count: 0" in out
