"""The index-table groupoid builders against their name-keyed references.

``pair_groupoid``, ``one_object_groupoid``, ``disjoint_union`` and
``restrict`` compute index tables and pass them to
``groupoid_from_tables``, the one axiom checker.  Each must build the same
groupoid (objects, labels, endpoints, composition table, inverses) as its
reference in ``groupoid_reference``, which writes everything out under
labels for ``validate_groupoid``: on every groupoid ``fuzz.generate_instance``
builds for seeds 0-59 (six draws each), on every isotropy subgroupoid of
the fixtures and of those groupoids, and on the isotropy restrictions that
``grading.isotropy_component`` and ``partial.restrict_to_isotropy`` share.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from gprime import fuzz
from gprime.errors import AxiomViolation, BoundExceeded, MalformedInput
from gprime.grading import isotropy_component
from gprime.groupoid import (FiniteGroup, disjoint_union, groupoid_from_tables,
                             one_object_groupoid, pair_groupoid, restrict,
                             validate_groupoid, validate_subgroupoid)
from gprime.instances import build_instance, parse
from gprime.partial import build_skew_ring, groupoid_ring_action, restrict_to_isotropy
from groupoid_reference import (reference_disjoint_union, reference_one_object_groupoid,
                                reference_pair_groupoid, reference_restrict, tables)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
BOUND = 4096


def assert_restrictions_match(G, name):
    """restrict equals its reference at the loops of every object and on the whole groupoid."""
    subs = [G.loops(e) for e in range(G.n_objects)] + [range(G.n_morphisms)]
    for members in subs:
        sub = validate_subgroupoid(G, members)
        small, local = restrict(sub)
        ref, ref_local = reference_restrict(sub)
        assert tables(small) == tables(ref), (name, sorted(sub.members))
        assert local == ref_local, (name, sorted(sub.members))


@pytest.fixture(scope="module")
def fuzz_groupoids():
    """Every groupoid the generator builds for seeds 0-59, six draws each,
    each compared with its reference as it is built."""
    built = {"pair": 0, "one_object": 0, "union": 0}
    builders = (("pair", "pair_groupoid", reference_pair_groupoid),
                ("one_object", "one_object_groupoid", reference_one_object_groupoid),
                ("union", "disjoint_union", reference_disjoint_union))
    mp = pytest.MonkeyPatch()

    def checked(kind, build, reference):
        def wrapper(*args):
            G = build(*args)
            assert tables(G) == tables(reference(*args)), (kind, args)
            built[kind] += 1
            return G
        return wrapper

    for kind, attr, reference in builders:
        mp.setattr(fuzz, attr, checked(kind, getattr(fuzz, attr), reference))
    try:
        groupoids = []
        for seed in range(60):
            rng = random.Random(seed)
            for draw in range(6):
                inst = fuzz.generate_instance(rng, BOUND)
                groupoids.append((f"seed {seed} draw {draw}", inst.groupoid))
    finally:
        mp.undo()
    return built, groupoids


def test_generated_groupoids_match_the_name_keyed_builders(fuzz_groupoids):
    built, groupoids = fuzz_groupoids
    assert len(groupoids) == 360
    assert all(count > 0 for count in built.values()), built


def test_generated_restrictions_match_the_reference(fuzz_groupoids):
    for name, G in fuzz_groupoids[1]:
        assert_restrictions_match(G, name)


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_fixture_restrictions_match_the_reference(path):
    assert_restrictions_match(build_instance(parse(path)).groupoid, path.stem)


def fixture_actions():
    """Each fixture's partial action; a groupoid ring's is its global action."""
    out = []
    for path in FIXTURES:
        built = build_instance(parse(path))
        if built.action is not None:
            out.append((path.stem, built.action))
        elif built.base is not None:
            out.append((path.stem, groupoid_ring_action(built.base, built.groupoid)))
    return out


@pytest.mark.parametrize("name, action", fixture_actions())
def test_isotropy_component_and_restrict_to_isotropy_share_one_groupoid(name, action):
    """Both equal the reference restriction to the loops; where the skew ring
    fits under the bound, the isotropy component of its grading is compared too."""
    G = action.groupoid
    try:
        grading = build_skew_ring(action)
    except BoundExceeded:
        grading = None
    alive = action.support_objects()
    assert alive
    for e in alive:
        via_action = restrict_to_isotropy(action, e).groupoid
        assert tables(via_action) == tables(
            reference_restrict(validate_subgroupoid(G, G.loops(e)))[0]), (name, e)
        if grading is not None:
            assert tables(isotropy_component(grading, e).groupoid) == \
                tables(via_action), (name, e)


def test_most_fixture_actions_fit_the_skew_ring_bound():
    fits = 0
    for _, action in fixture_actions():
        try:
            build_skew_ring(action)
            fits += 1
        except BoundExceeded:
            pass
    assert fits >= len(fixture_actions()) - 1


def test_a_restriction_lists_objects_then_identities_then_members():
    G = disjoint_union([pair_groupoid(["a", "b"], FiniteGroup.cyclic(2)),
                        one_object_groupoid(FiniteGroup.cyclic(3), "c")])
    members = [g for g in range(G.n_morphisms) if G.src[g] != G.object_index("a")
               and G.rng[g] != G.object_index("a")]
    small, local = restrict(validate_subgroupoid(G, members))
    assert small.objects == ("b", "c")
    assert small.morphisms == ("b", "c", "b>b:t", "t", "t2")
    assert local == {G.morphism_index(lab): k for k, lab in enumerate(small.morphisms)}
    assert [G.morphisms[g] for g in sorted(local, key=local.get)] == list(small.morphisms)


@pytest.mark.parametrize("labels, message", [
    (["a", "a"], "duplicate object labels"),
    (["a", "b", "b>a"], "duplicate morphism label 'b>a'"),
])
def test_clashing_labels_are_refused_as_before(labels, message):
    for build in (pair_groupoid, reference_pair_groupoid):
        with pytest.raises(MalformedInput, match=message):
            build(labels)


def _loops(compose, inverse=None):
    """One object e with loops a and b, a and b mutually inverse unless
    ``inverse`` says otherwise."""
    return {"objects": ["e"],
            "morphisms": [{"name": "a", "src": "e", "rng": "e"},
                          {"name": "b", "src": "e", "rng": "e"}],
            "inverse": {"a": "b"} if inverse is None else inverse, "compose": compose}


CROSSED = {"objects": ["e", "f"],
           "morphisms": [{"name": "g", "src": "e", "rng": "f"},
                         {"name": "h", "src": "f", "rng": "e"}]}
C3 = [["a", "a", "b"], ["a", "b", "e"], ["b", "a", "e"], ["b", "b", "a"]]


@pytest.mark.parametrize("raw, message", [
    ({**CROSSED, "inverse": {"g": "g"}, "compose": [["g", "h", "e"], ["h", "g", "e"]]},
     "inverse: 'g' does not reverse 'g'"),
    (_loops([], inverse={}), "inverse: no inverse declared for 'a'"),
    (_loops([["a", "a", "b"], ["a", "a", "e"]] + C3[1:]),
     "composition: conflicting products for ('a', 'a')"),
    (_loops([["a", "e", "e"]] + C3), "identity: 'a' composed with an identity is wrong"),
    (_loops(C3[1:]), "totality: no product declared for ('a', 'a')"),
    ({**CROSSED, "inverse": {"g": "h"}, "compose": [["g", "h", "e"], ["h", "g", "e"]]},
     "composition: product of ('g', 'h') has wrong endpoints"),
    (_loops([["a", "a", "a"], ["a", "b", "e"], ["b", "a", "e"], ["b", "b", "b"]]),
     "associativity: ('a'*'a')*'b' != 'a'*('a'*'b')"),
], ids=["reverse", "no-inverse", "conflict", "identity", "totality", "endpoints",
        "associativity"])
def test_index_tables_report_the_first_violation_of_their_description(raw, message):
    with pytest.raises(AxiomViolation) as named:
        validate_groupoid(raw)
    objects = raw["objects"]
    index = {lab: k for k, lab in enumerate(objects + [m["name"] for m in raw["morphisms"]])}
    arrows = [(m["name"], index[m["src"]], index[m["rng"]]) for m in raw["morphisms"]]
    with pytest.raises(AxiomViolation) as indexed:
        groupoid_from_tables(objects, arrows,
                             [(index[a], index[b]) for a, b in raw["inverse"].items()],
                             [tuple(index[lab] for lab in entry) for entry in raw["compose"]])
    assert str(indexed.value) == str(named.value) == f"[groupoid] {message}"
