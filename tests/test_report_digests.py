"""Byte-for-byte pins of every bundled report.

Each fixture runs through ``cli.main`` under every instance command and both
output formats (108 reports); the exit code and the sha256 of stdout must
match ``report_digests.json``.  The reports name their input file, so the
fixtures are passed as paths relative to the repository root.  A change that
is meant to alter a report must update the digest file in the same commit.
The summary of ``run_fuzz(7, 30)`` is pinned the same way, in this file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from gprime import cli
from gprime.fuzz import run_fuzz
from gprime.instances import instance_digest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "tests" / "report_digests.json").read_text())
COMMANDS = {"validate": ("validate",), "analyze": ("analyze",),
            "prime": ("prime",),
            "prime --method oracle": ("prime", "--method", "oracle"),
            "prime --method theorem": ("prime", "--method", "theorem"),
            "equivalence": ("equivalence",)}
FIXTURE_NAMES = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))


def test_every_report_is_pinned():
    expected = {f"{name} {command} {fmt}" for name in FIXTURE_NAMES
                for command in COMMANDS for fmt in ("text", "json")}
    assert set(DIGESTS) == expected
    assert len(DIGESTS) == 108


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_report_bytes_and_exit_code(key, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GPRIME_MAX_RING", raising=False)
    name, rest = key.split(" ", 1)
    command, fmt = rest.rsplit(" ", 1)
    code = cli.main([*COMMANDS[command], f"fixtures/{name}.json", "--output", fmt])
    out = capsys.readouterr().out
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == DIGESTS[key]


# sha256 of the canonical JSON of run_fuzz(7, 30).summary(): every instance's
# kind, carrier, size, verdict and check count, pinned like the reports.
FUZZ_7_30_SUMMARY_SHA256 = "a15f6dbbac220782917bbec3229eaaf8330c6531dbea83c2508d5be23e4c009a"


def test_fuzz_summary_is_pinned():
    assert instance_digest(run_fuzz(7, 30).summary()) == FUZZ_7_30_SUMMARY_SHA256
