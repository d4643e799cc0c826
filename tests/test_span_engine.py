"""The canonical-basis span engine against the frozenset reference.

Every carrier of at most 256 elements that ``prime`` and ``equivalence``
build on the bundled fixtures, or that ``run_fuzz(2, 8)`` builds, must give
the reference's element set, size, membership and generators for spans of
random seeds, and two spans must have equal keys exactly when they have
equal element sets.  A hypothesis property covers carriers whose Hermite
pivots are not units: Z/4, Z/6, Z/4 (+) GF(3), M2(Z/4), and table rings
relabelled from the small ones among them; another covers carriers over
GF(p), p odd, which get the pivot-only ``_PrimeBasis``: GF(5), GF(9),
M2(GF(3)) and GF(3)[C4].  On those, ``_PrimeBasis`` and the Howell
``_Basis`` must keep equal rows and give equal ``decompose`` parts; binary
rows must pack by shifts as by unpack and pack; and a unit pivot in a new
column must not insert again, while an even pivot over Z/4 does.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gprime import cli, grading as grading_module
from gprime.fuzz import run_fuzz
from gprime.grading import validate_grading
from gprime.groupoid import FiniteGroup, one_object_groupoid, pair_groupoid
from gprime.partial import SkewGroupoidRing
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, GroupRing,
                          MatrixRing, SubRing, TableRing, _Basis, _PrimeBasis, _basis,
                          _coordinates, _row_packer, additive_closure)
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
PRIME_FIELDS = (
    lambda: GaloisField(5),
    lambda: GaloisField(3, 2),
    lambda: MatrixRing(GaloisField(3), 2),
    lambda: GroupRing(GaloisField(3), FiniteGroup.cyclic(4)),
)


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


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.integers(0, len(PRIME_FIELDS) - 1), st.data())
def test_engine_matches_reference_over_prime_fields(index, data):
    ring = PRIME_FIELDS[index]()
    assert type(_basis(_coordinates(ring))) is _PrimeBasis
    element = st.integers(0, ring.size - 1)
    seeds = data.draw(st.lists(st.lists(element, min_size=1, max_size=4),
                               min_size=1, max_size=4))
    assert_engine_matches_reference(ring, seeds + [s[::-1] for s in seeds])


def assert_same_bases(coords, vectors):
    """A ``_PrimeBasis`` and a Howell ``_Basis`` fed the same vectors."""
    fast, howell = _PrimeBasis(coords), _Basis(coords)
    for v in vectors:
        assert fast.insert(v) == howell.insert(v)
        assert fast.key() == howell.key() and fast.rows() == howell.rows()
        assert fast.size() == howell.size()
    assert fast.vectors() == howell.vectors()
    assert [fast.contains(v) for v in vectors] == [True] * len(vectors)


@pytest.mark.parametrize("index", range(len(PRIME_FIELDS)))
def test_prime_basis_keeps_the_howell_rows(index):
    ring = PRIME_FIELDS[index]()
    c = _coordinates(ring)
    rng = random.Random(index)
    for _ in range(20):
        elements = [rng.randrange(ring.size) for _ in range(rng.randint(1, 6))]
        assert_same_bases(c, [c.of[x] for x in elements])
        fold, packed = _row_packer(ring, 3)     # more rows than the carrier has fields
        assert type(_basis(fold)) is _PrimeBasis
        assert_same_bases(fold, [packed(rng.randrange(ring.size) for _ in range(3))
                                 for _ in range(rng.randint(1, 12))])
    assert_same_bases(c, list(c.of))


def prime_field_gradings():
    m2 = MatrixRing(GaloisField(3), 2)
    pair = pair_groupoid(["a", "b"])
    label = {(0, 0): "a", (1, 1): "b", (0, 1): "b>a", (1, 0): "a>b"}
    yield validate_grading(pair, m2, {pair.morphism_index(label[i, j]): [m2.unit(i, j)]
                                      for i in range(2) for j in range(2)})
    group = FiniteGroup.cyclic(4)
    ring = GroupRing(GaloisField(3), group)
    G = one_object_groupoid(group, "e")
    yield validate_grading(G, ring, {G.morphism_index("e" if a == 0 else group.labels[a]):
                                     [ring.inject(a, 1)] for a in range(4)})


def test_prime_basis_decomposes_as_the_howell_basis(monkeypatch):
    for grading in prime_field_gradings():
        fast = [grading.decompose(x) for x in range(grading.ring.size)]
        assert type(grading._fold) is _PrimeBasis
        grading._fold = None
        monkeypatch.setattr(grading_module, "_basis", _Basis)
        assert [grading.decompose(x) for x in range(grading.ring.size)] == fast
        assert type(grading._fold) is _Basis
        monkeypatch.undo()


@pytest.mark.parametrize("ring", [GaloisField(2), GaloisField(2, 2), MatrixRing(GaloisField(2), 3),
                                  GroupRing(GaloisField(2), FiniteGroup.cyclic(7))],
                         ids=lambda ring: ring.tag)
def test_binary_rows_pack_by_shifts(ring):
    c = _coordinates(ring)
    rng = random.Random(ring.size)
    for d in (1, 2, 5):
        fold, packed = _row_packer(ring, d)
        for _ in range(30):
            row = [rng.randrange(ring.size) for _ in range(d)]
            assert packed(row) == fold.pack(v for e in row for v in c.unpack(c.of[e]))
            assert packed(iter(row)) == packed(row)


def insert_calls(monkeypatch, coords, vectors):
    """``_Basis.insert`` calls, recursive ones included, for the vectors."""
    calls = [0]
    insert = _Basis.insert

    def counting(self, v):
        calls[0] += 1
        return insert(self, v)

    monkeypatch.setattr(_Basis, "insert", counting)
    basis = _Basis(coords)
    for v in vectors:
        basis.insert(v)
    monkeypatch.undo()
    return calls[0], basis


def test_unit_pivots_skip_the_howell_follow_ups(monkeypatch):
    z4 = _coordinates(CyclicRing(4))
    assert insert_calls(monkeypatch, z4, [3])[0] == 1       # an odd pivot over Z/4
    calls, basis = insert_calls(monkeypatch, z4, [2])       # an even one
    assert calls == 4 and basis.size() == 2
    m2 = MatrixRing(CyclicRing(4), 2)
    c = _coordinates(m2)
    units = [m2.unit(i, j, 1) for i in range(2) for j in range(2)]
    calls, basis = insert_calls(monkeypatch, c, [c.of[x] for x in units])
    assert calls == 4 and basis.size() == m2.size
    gf5 = _coordinates(MatrixRing(GaloisField(5), 2))
    rng = random.Random(5)
    vectors = [gf5.of[rng.randrange(625)] for _ in range(10)]
    assert insert_calls(monkeypatch, gf5, vectors)[0] == len(vectors)
