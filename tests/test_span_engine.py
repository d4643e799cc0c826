"""The canonical-basis span engine against the frozenset reference.

Every carrier of at most 256 elements that ``prime`` and ``equivalence``
build on the bundled fixtures, or that ``run_fuzz(2, 8)`` builds, must give
the reference's element set, size, membership and generators for spans of
random seeds, and two spans must have equal keys exactly when they have
equal element sets.  A hypothesis property covers carriers whose Hermite
pivots are not units: Z/4, Z/6, Z/4 (+) GF(3), M2(Z/4), and table rings
relabelled from the small ones among them.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gprime import cli
from gprime.fuzz import run_fuzz
from gprime.partial import SkewGroupoidRing
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, GroupRing,
                          MatrixRing, SubRing, TableRing, additive_closure)
from span_reference import reference_span

ROOT = Path(__file__).resolve().parents[1]
CARRIER_CLASSES = (CyclicRing, GaloisField, TableRing, MatrixRing, DirectSumRing,
                   GroupRing, SubRing, SkewGroupoidRing)


def assert_engine_matches_reference(ring, seeds):
    spans = []
    for seed in seeds:
        span = additive_closure(ring, seed)
        elements, gens = reference_span(ring, seed)
        assert span.elements == elements, (ring.tag, seed)
        assert len(span) == len(elements) and span.gens == gens, (ring.tag, seed)
        assert [x in span for x in range(ring.size)] == \
            [x in elements for x in range(ring.size)], (ring.tag, seed)
        spans.append(span)
    for a in spans:
        for b in spans:
            assert (a.key == b.key) == (a.elements == b.elements), ring.tag


def seeds_for(ring, rng):
    """Random seeds of one to three elements, each followed by a reordering
    of it with the sum of its first and last elements added, which spans the
    same."""
    out = []
    for _ in range(4):
        seed = [rng.randrange(ring.size) for _ in range(rng.randint(1, 3))]
        twin = seed[::-1] + [ring.add(seed[0], seed[-1])]
        out += [seed, twin]
    return out


@pytest.fixture(scope="module")
def built_carriers():
    built = {}
    patch = pytest.MonkeyPatch()
    for cls in CARRIER_CLASSES:
        def recording_init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built[id(self)] = self
        patch.setattr(cls, "__init__", recording_init)
    try:
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            for command in ("prime", "equivalence"):
                cli.main([command, str(path)])
        run_fuzz(2, 8)
    finally:
        patch.undo()
    return [ring for ring in built.values() if ring.size <= 256]


def test_engine_matches_reference_on_built_carriers(built_carriers, capsys):
    capsys.readouterr()
    kinds = {type(ring) for ring in built_carriers}
    assert {SubRing, SkewGroupoidRing, DirectSumRing, MatrixRing, GaloisField} <= kinds
    for number, ring in enumerate(built_carriers):
        assert_engine_matches_reference(ring, seeds_for(ring, random.Random(number)))


NON_UNIT_PIVOTS = (
    lambda: CyclicRing(4),
    lambda: CyclicRing(6),
    lambda: DirectSumRing([CyclicRing(4), GaloisField(3)]),
    lambda: MatrixRing(CyclicRing(4), 2),
)
SMALL = (0, 1, 2)


def relabelled(ring, order):
    """The ring as a TableRing, element a renamed to order[a - 1] (0 stays)."""
    name = [0] + list(order)
    n = ring.size
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add[name[a]][name[b]] = name[ring.add(a, b)]
            mul[name[a]][name[b]] = name[ring.mul(a, b)]
    return TableRing(add, mul)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.integers(0, len(NON_UNIT_PIVOTS) - 1), st.booleans(), st.data())
def test_engine_matches_reference_where_pivots_are_not_units(index, relabel, data):
    ring = NON_UNIT_PIVOTS[index]()
    if relabel:
        ring = NON_UNIT_PIVOTS[data.draw(st.sampled_from(SMALL))]()
        ring = relabelled(ring, data.draw(st.permutations(range(1, ring.size))))
    element = st.integers(0, ring.size - 1)
    seeds = data.draw(st.lists(st.lists(element, min_size=1, max_size=4),
                               min_size=1, max_size=4))
    assert_engine_matches_reference(ring, seeds + [s[::-1] for s in seeds])


def test_membership_outside_the_carrier_is_false():
    whole = additive_closure(CyclicRing(4), [1])
    assert [x in whole for x in (-1, 0, 3, 4)] == [False, True, True, False]
