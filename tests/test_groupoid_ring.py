"""The groupoid ring built directly as base[G] against the skew product of
the global action it induces.

``partial.build_groupoid_ring`` builds ``GroupoidRing``, one base digit per
morphism with the convolution product, and never the induced action.  The
two constructions must agree element for element: tag, size, identity,
additive generators, every label and every product, on the fixtures'
groupoid rings, the benchmark's four ladder rungs and the groupoid rings of
``generate_instance``.  The direct builder refuses the bases that the
induced action refuses, with the same first error, and ``--timings`` names
the same stages on groupoid-ring instances.
"""

from __future__ import annotations

import copy
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

import gprime.instances
import gprime.partial
from gprime import cli, fuzz
from gprime.errors import AxiomViolation, DegenerateInstance
from gprime.groupoid import FiniteGroup, pair_groupoid
from gprime.instances import build_instance, parse
from gprime.partial import (GroupoidRing, SkewGroupoidRing, build_groupoid_ring,
                            build_skew_ring, groupoid_ring_action)
from gprime.rings import CyclicRing, DirectSumRing, GaloisField, TableRing
from test_report_digests import LADDER_SHA256, ladder_document

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GROUPOID_RING_FIXTURES = ("disconnected_groupoid_ring", "f2_p2_groupoid_ring",
                          "f2_z2_group_ring", "g8_groupoid_ring")
FULL_TABLE = 256


@lru_cache(maxsize=None)
def corpus():
    """(name, base, groupoid) of the fixtures' groupoid rings, the ladder
    rungs and the groupoid-ring draws of ``generate_instance``, six draws
    for each seed 0-29."""
    out = []
    for name in GROUPOID_RING_FIXTURES:
        built = build_instance(parse(FIXTURES / f"{name}.json"))
        out.append((name, built.base, built.groupoid))
    for name, n_objects, isotropy, p in sorted(LADDER_SHA256):
        G = pair_groupoid([f"o{i}" for i in range(n_objects)], FiniteGroup.cyclic(isotropy))
        out.append((f"ladder {name}", GaloisField(p), G))
    for seed in range(30):
        rng = random.Random(seed)
        for draw in range(6):
            inst = fuzz.generate_instance(rng, fuzz.SKEW_RING_BOUND)
            if inst.kind == "groupoid_ring":
                out.append((f"seed {seed} draw {draw}", inst.base, inst.groupoid))
    return tuple(out)


@pytest.mark.parametrize("name, base, G", corpus(), ids=lambda x: x if isinstance(x, str) else "")
def test_the_direct_carrier_is_the_induced_skew_product(name, base, G):
    ring = build_groupoid_ring(base, G).ring
    twin = build_skew_ring(groupoid_ring_action(base, G)).ring
    assert isinstance(ring, GroupoidRing) and isinstance(twin, SkewGroupoidRing)
    assert (ring.tag, ring.size, ring.one) == (twin.tag, twin.size, twin.one)
    gens = ring.additive_generators()
    assert gens == twin.additive_generators()
    assert [ring.label(x) for x in range(ring.size)] == [twin.label(x) for x in range(ring.size)]
    pairs = ([(a, b) for a in range(ring.size) for b in range(ring.size)]
             if ring.size <= FULL_TABLE else [(a, b) for a in gens for b in gens])
    assert [ring.mul(a, b) for a, b in pairs] == [twin.mul(a, b) for a, b in pairs]


def test_the_corpus_covers_every_source():
    names = [name for name, _, _ in corpus()]
    assert sum(name.startswith("seed") for name in names) > 20
    assert sum(name.startswith("ladder") for name in names) == 4


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

ZERO_PRODUCT = {"table": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]}}
ONE_ELEMENT = {"cyclic": 1}


@pytest.mark.parametrize("base", [lambda: CyclicRing(1),
                                  lambda: TableRing([[0, 1], [1, 0]], [[0, 0], [0, 0]])],
                         ids=["one element", "zero product"])
def test_the_direct_builder_refuses_with_the_induced_actions_first_error(base):
    G = pair_groupoid(["e", "f"])
    with pytest.raises((DegenerateInstance, AxiomViolation)) as induced:
        groupoid_ring_action(base(), G)
    with pytest.raises(type(induced.value)) as direct:
        build_groupoid_ring(base(), G)
    assert str(direct.value) == str(induced.value)


def with_base(tmp_path, spec):
    doc = copy.deepcopy(json.loads((FIXTURES / "f2_p2_groupoid_ring.json").read_text()))
    doc["groupoid_ring"]["base"] = spec
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("spec, command, message", [
    (ZERO_PRODUCT, "analyze", "[s-unital] A_e is not s-unital"),
    (ZERO_PRODUCT, "prime", "the coefficient ring must be s-unital"),
    (ZERO_PRODUCT, "equivalence", "[s-unital] A_e is not s-unital"),
    (ONE_ELEMENT, "analyze", "the zero ring admits no meaningful action"),
    (ONE_ELEMENT, "prime", "the zero coefficient ring gives the zero groupoid ring"),
    (ONE_ELEMENT, "equivalence", "the zero ring admits no meaningful action"),
])
def test_refused_bases_exit_1_with_their_message(tmp_path, capsys, spec, command, message):
    assert cli.main([command, with_base(tmp_path, spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gprime: error: {message}\n"


# ---------------------------------------------------------------------------
# observability and work guards
# ---------------------------------------------------------------------------

def stages(capsys, argv):
    assert cli.main([*argv, "--timings"]) == 0
    section = capsys.readouterr().out.split("timings:\n")[1]
    return [line.split(":")[0].strip() for line in section.splitlines()]


@pytest.mark.parametrize("name", GROUPOID_RING_FIXTURES)
@pytest.mark.parametrize("argv, expected", [
    (("analyze",), ["parse", "validate", "carrier", "analysis", "total"]),
    (("prime",), ["parse", "validate", "criterion", "carrier", "oracle", "replay", "total"]),
    (("prime", "--method", "oracle"), ["parse", "validate", "criterion", "carrier", "oracle",
                                       "replay", "total"]),
    (("prime", "--method", "theorem"), ["parse", "validate", "criterion", "replay", "total"]),
    (("equivalence",), ["parse", "validate", "carrier", "nearly_epsilon_strong", "oracle",
                        "invariant_ideal_pairs", "graded_ideal_pairs", "objects", "replay",
                        "total"]),
], ids=["analyze", "prime", "prime oracle", "prime theorem", "equivalence"])
def test_timings_name_the_stages_of_a_groupoid_ring(capsys, name, argv, expected):
    command, *flags = argv
    assert stages(capsys, [command, str(FIXTURES / f"{name}.json"), *flags]) == expected


def test_equivalence_on_m3_gf2_builds_no_action(tmp_path, capsys, monkeypatch):
    """M3(GF(2)), the pair groupoid on three objects over GF(2): no action
    is validated, and no skew ring or direct sum is built."""
    counts = {"validate_partial_action": 0, "SkewGroupoidRing": 0, "DirectSumRing": 0}
    validate = gprime.partial.validate_partial_action

    def counted_validate(*args):
        counts["validate_partial_action"] += 1
        return validate(*args)
    for module in (gprime.partial, gprime.instances, fuzz):
        monkeypatch.setattr(module, "validate_partial_action", counted_validate)
    for cls in (SkewGroupoidRing, DirectSumRing):
        def counted_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted_init)
    path = tmp_path / "m3_gf2.json"
    path.write_text(json.dumps(ladder_document("m3_gf2", 3, 1, 2)))
    assert cli.main(["equivalence", str(path)]) == 0
    capsys.readouterr()
    assert counts == {"validate_partial_action": 0, "SkewGroupoidRing": 0, "DirectSumRing": 0}
