"""Byte-for-byte pins of every bundled report.

Each fixture runs through ``cli.main`` under every instance command and both
output formats (108 reports); the exit code and the sha256 of stdout must
match ``report_digests.json``.  The reports name their input file, so the
fixtures are passed as paths relative to the repository root.  A change that
is meant to alter a report must update the digest file in the same commit.
The summary of ``run_fuzz(7, 30)`` and the ``equivalence`` reports on the
benchmark's four ladder rungs are pinned the same way, in this file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from gprime import cli
from gprime.fuzz import run_fuzz
from gprime.groupoid import FiniteGroup, pair_groupoid
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


# The benchmark's ladder: GF(p) over the pair groupoid on n objects with
# cyclic isotropy, written as an instance file the way ``perfbench/worker.py``
# writes it; (name, objects, isotropy order, p) -> sha256 of the
# ``equivalence`` report, text then json.
LADDER_SHA256 = {
    ("m2_gf3", 2, 1, 3): ("b689acfefa812db7c2b645e7d84ddb3d12f8ed18a342dec0f675211a5f376c8c",
                          "09a2ce820dbc919b1a0ee5f5dd8a00a1faf42287fd663f174ed4303d6ecc1f02"),
    ("m3_gf2", 3, 1, 2): ("cf8e71459ccbd83fcda34de63cce58ccc7704d79cf22b256c5b35dde23c13a53",
                          "9625778fd9ac1c5841762f0a3f84ee1fc12c4446bd0411124e1758fbece4fe5f"),
    ("gf3_c4", 1, 4, 3): ("ea3fa406bafcd5dc72009539eed1ad16df425861dc44ac48524247627de44424",
                          "6fe1cbe6ad21605b270f22ec1e0b3dac2dcbbd889f3d6f7292ee3213a4cba80a"),
    ("gf2_c7", 1, 7, 2): ("fb643052dba718ecff3875b298fe614c5e458f4e55a2c8be319e7fdc0b79d38a",
                          "f526a8eefda3824e711a415df7231694ae15432f445744a0ed808bfd21b53a25"),
}


def ladder_document(name, n_objects, isotropy, p):
    G = pair_groupoid([f"o{i}" for i in range(n_objects)], FiniteGroup.cyclic(isotropy))
    names, objects = G.morphisms, G.objects
    arrows = range(G.n_objects, G.n_morphisms)
    groupoid = {
        "objects": list(objects),
        "morphisms": [{"name": names[g], "src": objects[G.src[g]],
                       "rng": objects[G.rng[g]]} for g in arrows],
        "compose": [[names[g], names[h], names[G.compose(g, h)]]
                    for g in arrows for h in arrows if G.composable(g, h)],
        "inverse": {names[g]: names[G.inv[g]] for g in arrows},
    }
    return {"description": f"ladder rung {name}", "groupoid": groupoid,
            "groupoid_ring": {"base": {"field": p}}}


@pytest.mark.parametrize("rung", sorted(LADDER_SHA256))
def test_ladder_equivalence_reports_are_pinned(rung, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GPRIME_MAX_RING", raising=False)
    path = f"{rung[0]}.json"
    (tmp_path / path).write_text(json.dumps(ladder_document(*rung), indent=1) + "\n")
    digests = []
    for fmt in ("text", "json"):
        assert cli.main(["equivalence", path, "--output", fmt]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == LADDER_SHA256[rung]
