"""The carrier bound: enforced from the ring spec before anything is built,
and passed through to every pair search of a partial action.

The three probe inputs under ``tests/inputs`` describe carriers of about
10^10 elements (M3(GF(13))): a grading ring, a partial action whose two
parts are that ring, and a groupoid ring with that coefficient ring.  Each
must be refused with exit 2 and one line on stderr, inside a 512 MB
address space, where building it would run out of memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gprime.partial as partial
from gprime import cli, instances

ROOT = Path(__file__).resolve().parents[1]
FLIP = "fixtures/global_flip_partial_action.json"
PROBE_CHILD = """
import resource, sys
limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gprime import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("probe", ["m3_gf13_grading.json", "m3_gf13_partial_action.json",
                                   "m3_gf13_groupoid_ring.json"])
@pytest.mark.parametrize("argv", [("validate", "--max-ring", "64"), ("prime",)])
def test_oversized_spec_is_refused_before_building(probe, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GPRIME_MAX_RING", None)
    path = str(ROOT / "tests" / "inputs" / probe)
    run = subprocess.run([sys.executable, "-c", PROBE_CHILD, argv[0], path, *argv[1:]],
                         env=env, capture_output=True, timeout=60)
    assert run.returncode == 2, run.stderr.decode()[-2000:]
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 1 and "refusing to build" in lines[0]
    assert run.stdout == b""


def test_pair_search_runs_once_per_action(monkeypatch, capsys):
    """Default ``prime`` on a partial action asks for the ambient pair search
    twice (the coefficients and the sufficient conditions); the top-level
    action, whose ambient GF(2) + GF(2) has 3 nonzero elements, is searched
    once."""
    searched = []
    search = partial.first_zero_pair

    def counting(members, closure):
        searched.append(len(members))
        return search(members, closure)

    monkeypatch.setattr(partial, "first_zero_pair", counting)
    monkeypatch.chdir(ROOT)
    assert cli.main(["prime", FLIP]) == 0
    assert searched.count(3) == 1


def test_sufficient_conditions_respect_the_bound(monkeypatch, capsys):
    """Under --max-ring 3 the ambient (4 elements) is above the bound, so the
    sufficient conditions are refused like the coefficient criterion."""
    monkeypatch.delenv("GPRIME_MAX_RING", raising=False)
    monkeypatch.chdir(ROOT)
    assert cli.main(["prime", FLIP, "--max-ring", "3", "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "coefficients_G_prime": None,
        "instance": {
            "digest": "3b8588ac2f89f62af47cfa47653c88605c700193cf547ecc5670486536c35052",
            "kind": "partial_action",
            "name": FLIP},
        "isotropy_prime": {"e": True, "f": True},
        "method": "group-type",
        "sufficient_conditions": None,
        "tool": {"name": "gprime", "version": "0.1.0"},
        "verdict": True,
        "witness_verification": {"ok": True, "replayed": 0},
        "witnesses": [],
    }


def _ring_specs(doc):
    """The top-level ring specs of an instance document."""
    for kind, key in (("grading", "ring"), ("groupoid_ring", "base")):
        if kind in doc:
            yield doc[kind][key]
    yield from doc.get("partial_action", {}).get("parts", {}).values()


def test_spec_size_matches_the_built_ring():
    specs = [spec for path in sorted((ROOT / "fixtures").glob("*.json"))
             for spec in _ring_specs(json.loads(path.read_text()))]
    specs += [{"field": [3, 2]}, {"cyclic": 6},
              {"matrix": {"base": {"cyclic": 4}, "n": 2}},
              {"direct_sum": {"parts": [{"cyclic": 4}, {"field": 3}]}},
              {"group_ring": {"base": {"field": 2}, "group": {"klein_four": {}}}},
              {"group_ring": {"base": {"cyclic": 3}, "group": {"trivial": {}}}},
              {"table": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}}]
    for spec in specs:
        assert instances._spec_size(spec, 10 ** 6) == instances.build_ring(spec).size, spec
    assert {next(iter(spec)) for spec in specs} == set(instances._RINGS)
    with pytest.raises(KeyError):
        instances._spec_size({"quaternions": 2}, 64)
