"""The carrier bound: checked once, where a ring is built, and reaching
every walk over the built ring.

``build_instance`` reads the ring specs' sizes and ``build_skew_ring``
refuses product carriers above the bound; the oracle, the groupoid-ring
criterion and the seven-way report then run on what was built, so a raised
``--max-ring`` reaches every one of them.  The ambient pair search of a
partial action keeps its own refusal, since an instance bounds the
ambient's parts one by one.

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
from gprime.groupoid import FiniteGroup, pair_groupoid

ROOT = Path(__file__).resolve().parents[1]
FLIP = "fixtures/global_flip_partial_action.json"
PROBE_CHILD = """
import resource, sys
limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gprime import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def _probe(argv):
    """``gprime argv`` in a child limited to 512 MB of address space."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GPRIME_MAX_RING", None)
    return subprocess.run([sys.executable, "-c", PROBE_CHILD, *argv],
                          env=env, capture_output=True, timeout=60)


@pytest.mark.parametrize("probe", ["m3_gf13_grading.json", "m3_gf13_partial_action.json",
                                   "m3_gf13_groupoid_ring.json"])
@pytest.mark.parametrize("argv", [("validate", "--max-ring", "64"), ("prime",)])
def test_oversized_spec_is_refused_before_building(probe, argv):
    path = str(ROOT / "tests" / "inputs" / probe)
    run = _probe([argv[0], path, *argv[1:]])
    assert run.returncode == 2, run.stderr.decode()[-2000:]
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 1 and "refusing to build" in lines[0]
    assert run.stdout == b""


def _write_one_object_ring(folder, isotropy: int, base) -> str:
    """The groupoid ring of ``base`` over the one-object groupoid with
    cyclic isotropy of order ``isotropy``, written as an instance file."""
    G = pair_groupoid(["o0"], FiniteGroup.cyclic(isotropy))
    names, objects = G.morphisms, G.objects
    arrows = range(G.n_objects, G.n_morphisms)
    doc = {"groupoid": {
               "objects": list(objects),
               "morphisms": [{"name": names[g], "src": objects[G.src[g]],
                              "rng": objects[G.rng[g]]} for g in arrows],
               "compose": [[names[g], names[h], names[G.compose(g, h)]]
                           for g in arrows for h in arrows if G.composable(g, h)],
               "inverse": {names[g]: names[G.inv[g]] for g in arrows}},
           "groupoid_ring": {"base": base}}
    path = folder / f"c{isotropy}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


@pytest.mark.parametrize("isotropy, base, argv, expected", [
    # GF(2)[C13]: 8192 elements, built under the raised bound and decided
    (13, {"field": 2}, ("equivalence", "--max-ring", "10000"), "verdict: no"),
    # Z/5003 over one object: the criterion's oracle runs on the 5003-element base
    (1, {"cyclic": 5003}, ("analyze", "--max-ring", "10000"), "holds: yes"),
    (1, {"cyclic": 5003}, ("prime", "--max-ring", "10000"), "verdict: yes"),
    # C25 isotropy: the criterion answers where subgroup enumeration stops
    (25, {"field": 2}, ("analyze",), "normal subgroup of order 5"),
    (25, {"field": 2}, ("prime", "--method", "theorem"), "normal subgroup of order 5"),
], ids=["gf2_c13-equivalence", "z5003-analyze", "z5003-prime", "gf2_c25-analyze",
        "gf2_c25-prime-theorem"])
def test_raised_bound_reaches_every_walk(tmp_path, isotropy, base, argv, expected):
    path = _write_one_object_ring(tmp_path, isotropy, base)
    run = _probe([argv[0], path, *argv[1:]])
    assert run.returncode == 0, run.stderr.decode()[-2000:]
    assert expected in run.stdout.decode()


def test_unbuildable_carrier_is_still_refused(tmp_path):
    """GF(2)[C25] has 2^25 elements: the default ``prime`` builds the
    carrier for its oracle, and that is refused."""
    run = _probe(["prime", _write_one_object_ring(tmp_path, 25, {"field": 2})])
    assert run.returncode == 2
    assert "refusing to build" in run.stderr.decode()
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
