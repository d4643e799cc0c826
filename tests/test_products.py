"""The single-term product kernel against the digit-wise reference.

``rings._VectorRing.mul`` must give ``span_reference.reference_mul``'s product
on every pair of elements of every composite carrier of at most 256
elements that the instance commands build on the bundled fixtures and that
``run_fuzz(2, 8)`` and ``run_fuzz(5, 8)`` build, and on random pairs of
matrix rings, group rings and direct sums over Z/4, GF(3), GF(4) and a
table ring.  The per-field ``normalize`` must agree with
``pack(unpack(v))``, a term that escapes its ideal must raise on every
product that contains it, and the satellite caches must do their work once.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gprime
from gprime import cli
from gprime.errors import InternalDisagreement
from gprime.fuzz import run_fuzz
from gprime.groupoid import FiniteGroup, pair_groupoid
from gprime.partial import GroupoidRing, SkewGroupoidRing, groupoid_ring_action
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, GroupRing,
                          MatrixRing, _Coordinates, _VectorRing, ideal_generated)
from span_reference import reference_mul
from test_span_engine import relabelled

ROOT = Path(__file__).resolve().parents[1]
TERM_RINGS = (MatrixRing, DirectSumRing, GroupRing, GroupoidRing, SkewGroupoidRing)


def assert_kernel_matches_reference(ring, pairs):
    mul, ref = ring.mul, reference_mul(ring)
    bad = next(((a, b) for a, b in pairs if mul(a, b) != ref(a, b)), None)
    assert bad is None, (ring.tag, bad)


@pytest.fixture(scope="module")
def built_carriers():
    built = {}
    patch = pytest.MonkeyPatch()
    for cls in TERM_RINGS:
        def recording_init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built[id(self)] = self
        patch.setattr(cls, "__init__", recording_init)
    try:
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            for command in ("validate", "analyze", "prime", "equivalence"):
                cli.main([command, str(path)])
        run_fuzz(2, 8)
        run_fuzz(5, 8)
    finally:
        patch.undo()
    distinct = {}
    for ring in built.values():
        if ring.size <= 256:
            distinct.setdefault(carrier_key(ring), ring)
    return list(distinct.values())


def carrier_key(ring):
    """Equal for carriers with equal products: a tag names a vector carrier
    unless a table ring is inside; a skew ring also needs its action, and a
    groupoid ring its composition."""
    if isinstance(ring, SkewGroupoidRing):
        act = ring.action
        return (ring.tag, tuple(i.key for i in act.ideals),
                tuple(frozenset(m.items()) for m in act.maps))
    if isinstance(ring, GroupoidRing):
        G = ring.groupoid
        return (carrier_key(ring.base),
                tuple((g, h, G.compose(g, h)) for g, h in G.composable_pairs()))
    return ring.tag if "table" not in ring.tag else id(ring)


def test_kernel_matches_reference_on_built_carriers(built_carriers, capsys):
    capsys.readouterr()
    # no bundled fixture or fuzz seed here builds a GroupRing; the random
    # pairs below cover it
    assert {MatrixRing, DirectSumRing, GroupoidRing, SkewGroupoidRing} \
        <= {type(r) for r in built_carriers}
    for ring in built_carriers:
        n = ring.size
        assert_kernel_matches_reference(ring, ((a, b) for a in range(n) for b in range(n)))


BASES = (lambda: CyclicRing(4), lambda: GaloisField(3), lambda: GaloisField(2, 2),
         lambda: relabelled(CyclicRing(4), (3, 1, 2)))
SHAPES = (
    lambda base: MatrixRing(base, 2),
    lambda base: GroupRing(base, FiniteGroup.cyclic(2)),
    lambda base: GroupRing(base, FiniteGroup.cyclic(3)),
    lambda base: DirectSumRing([base, base, CyclicRing(2)]),
)
CARRIERS = {}


def carrier(index):
    """Shape and base by index, plus GF(3)[C5] last; built once."""
    if index not in CARRIERS:
        CARRIERS[index] = (GroupRing(GaloisField(3), FiniteGroup.cyclic(5))
                           if index == len(SHAPES) * len(BASES)
                           else SHAPES[index // len(BASES)](BASES[index % len(BASES)]()))
    return CARRIERS[index]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.integers(0, len(SHAPES) * len(BASES)), st.data())
def test_kernel_matches_reference_on_random_pairs(index, data):
    ring = carrier(index)
    element = st.integers(0, ring.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), min_size=1, max_size=30))
    assert_kernel_matches_reference(ring, pairs)


def test_five_terms_in_one_field_normalize_once():
    # every coefficient nonzero: each output coordinate sums five terms
    ring = carrier(len(SHAPES) * len(BASES))
    full = [a for a in range(ring.size) if all(ring.decode(a))]
    assert len(full) == 32
    assert_kernel_matches_reference(ring, ((a, b) for a in full for b in full))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 13), min_size=1, max_size=6), st.data())
def test_field_normalize_equals_pack_of_unpack(moduli, data):
    c = _Coordinates(moduli)
    fields = data.draw(st.lists(st.integers(0, c.mask), min_size=len(moduli),
                                max_size=len(moduli)))
    v = c.pack(fields)
    assert c.normalize(v) == c.pack(c.unpack(v))


def test_escaping_term_raises_on_every_product_that_contains_it():
    G = pair_groupoid(["e", "f"])
    action = groupoid_ring_action(GaloisField(3), G)
    ring = SkewGroupoidRing(action)
    amb, g = action.ambient, G.morphism_index("e>f")
    ref = reference_mul(ring)
    escape = amb.inject(0, 2)                    # at(e, 2), outside A_g
    action.maps[g][escape] = escape
    bad_keys = set()
    for a in range(ring.size):
        for b in range(ring.size):
            terms = [(i, x, j, y) for i, x in enumerate(ring.coefficients(a)) if x
                     for j, y in enumerate(ring.coefficients(b))
                     if y and G.composable(i, j)]
            bad = [t for t in terms if t[0] == g
                   and amb.mul(action.sigma(G.inv[g], t[1]), t[3]) == escape]
            if bad:
                with pytest.raises(InternalDisagreement):
                    ring.mul(a, b)
                bad_keys.update(bad)
                assert (a, b) not in ring._products
            else:
                assert ring.mul(a, b) == ref(a, b)
    # the term memo is keyed by positions in the sorted A_g, not ambient values
    positions = {(i, ring._digits[i].from_parent[x], j, ring._digits[j].from_parent[y])
                 for i, x, j, y in bad_keys}
    assert positions and not positions & set(ring._terms)


def test_vector_ring_generators_are_built_once(monkeypatch):
    calls = []
    inner = GaloisField.additive_generators

    def counting(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(GaloisField, "additive_generators", counting)
    ring = MatrixRing(GaloisField(3), 2)
    gens = ring.additive_generators()
    assert len(calls) == 4
    for a in range(1, 6):
        ideal_generated(ring, [a])
    assert ring.additive_generators() is gens and len(calls) == 4


def test_isotropy_skew_rings_see_the_oracle_once(monkeypatch, capsys):
    counts = []
    oracle = gprime.rings.is_prime_bruteforce

    def counting(ring, *args, **kwargs):
        counts.append(ring)
        return oracle(ring, *args, **kwargs)

    for module in (gprime.rings, gprime.partial, gprime.instances, gprime.primeness):
        if getattr(module, "is_prime_bruteforce", None) is oracle:
            monkeypatch.setattr(module, "is_prime_bruteforce", counting)
    path = str(ROOT / "fixtures" / "gf4_frobenius_group_type.json")
    for method in ("all", "theorem"):
        counts.clear()
        assert cli.main(["prime", path, "--method", method]) == 0
        assert len(counts) == 2 and len(set(map(id, counts))) == 2
    capsys.readouterr()


def test_one_kernel_serves_every_composite_carrier():
    assert all("mul" not in vars(cls) for cls in TERM_RINGS)
    assert all(issubclass(cls, _VectorRing) for cls in TERM_RINGS)
    assert not {"mul", "_coordinate_table", "_coefficient_table"} & set(vars(SkewGroupoidRing))
