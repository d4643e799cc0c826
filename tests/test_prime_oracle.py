"""The annihilator oracle ``rings.is_prime_bruteforce`` against the pairwise
reference, and the ring products it makes.

The reference (``span_reference.reference_prime``) closes the principal
ideal of every nonzero element and returns the first pair in element order
whose ideals multiply to zero.  The oracle, run first on a cold closure
cache, must give the same verdict, degenerate flag and witness (both
elements and a's ideal) on every carrier of at most 4096 elements that
the four instance commands build on the bundled fixtures or that
``run_fuzz(2, 8)`` and ``run_fuzz(5, 8)`` build, on the carrier, the
principal-part ring and the base of the first six draws of
``generate_instance`` for seeds 0-59, on the benchmark's four ladder rungs
and M2(GF(7)), on non-unital carriers, and on carriers whose Hermite pivots
are not units.  On prime rings the oracle closes only a few principal
ideals: every other element has a product with an additive generator that
is already proven faithful.  On a ring that is not prime the oracle
closes no ideal for the witness's b.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gprime import cli, rings
from gprime.fuzz import generate_instance, run_fuzz
from gprime.groupoid import FiniteGroup, pair_groupoid
from gprime.partial import SKEW_RING_BOUND, SkewGroupoidRing, build_groupoid_ring
from gprime.rings import (CyclicRing, GaloisField, GroupRing, MatrixRing,
                          SubRing, TableRing, is_prime_bruteforce)
from span_reference import reference_prime
from test_s_unital import one_sided
from test_span_engine import CARRIER_CLASSES, NON_UNIT_PIVOTS, SMALL, relabelled

ROOT = Path(__file__).resolve().parents[1]


def assert_oracle_matches_reference(ring):
    ring.__dict__.pop("_pid_cache", None)     # cold: no closure computed yet
    result = is_prime_bruteforce(ring)
    assert result == reference_prime(ring), ring.tag
    return result


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
            for command in ("validate", "analyze", "prime", "equivalence"):
                cli.main([command, str(path)])
        run_fuzz(2, 8)
        run_fuzz(5, 8)
    finally:
        patch.undo()
    return [ring for ring in built.values() if ring.size <= SKEW_RING_BOUND]


def test_matches_reference_on_built_carriers(built_carriers, capsys):
    capsys.readouterr()
    kinds = {type(ring) for ring in built_carriers}
    assert {SubRing, SkewGroupoidRing, MatrixRing, GaloisField} <= kinds
    verdicts = {assert_oracle_matches_reference(ring).prime for ring in built_carriers}
    assert verdicts == {True, False}


# (objects of the pair groupoid, isotropy order, field) per rung
LADDER = {"m2_gf3": (2, 1, 3), "m3_gf2": (3, 1, 2),
          "gf3_c4": (1, 4, 3), "gf2_c7": (1, 7, 2)}


def ladder_ring(objects, order, p):
    groupoid = pair_groupoid([f"o{i}" for i in range(objects)], FiniteGroup.cyclic(order))
    return build_groupoid_ring(GaloisField(p), groupoid).ring


@pytest.mark.parametrize("rung", LADDER)
def test_matches_reference_on_ladder_rungs(rung):
    objects, order, p = LADDER[rung]
    assert assert_oracle_matches_reference(ladder_ring(objects, order, p)).prime == (order == 1)


def test_matches_reference_on_m2_gf7():
    assert assert_oracle_matches_reference(MatrixRing(GaloisField(7), 2)).prime


def test_matches_reference_on_fuzz_draws():
    carriers = []
    for seed in range(60):
        for index in range(6):
            inst = generate_instance(random.Random(f"{seed}:{index}"), SKEW_RING_BOUND)
            carriers += [inst.grading.ring, SubRing(inst.grading.ring,
                                                    inst.grading.principal_part())]
            if inst.base is not None:
                carriers.append(inst.base)
    verdicts = [assert_oracle_matches_reference(ring).prime
                for ring in carriers if ring.size <= SKEW_RING_BOUND]
    assert len(verdicts) > 800 and set(verdicts) == {True, False}


# (ring, most closures of a cold oracle); the walk before the antitone
# skip closed all n - 1 principal ideals of these prime rings
FEW_CLOSURES = {
    "M3(GF(2))": (lambda: MatrixRing(GaloisField(2), 3), 3),
    "M3(GF(2)) groupoid ring": (lambda: ladder_ring(3, 1, 2), 3),
    "M2(GF(3))": (lambda: MatrixRing(GaloisField(3), 2), 4),
    "M2(GF(3)) groupoid ring": (lambda: ladder_ring(2, 1, 3), 4),
}


@pytest.mark.parametrize("name", FEW_CLOSURES)
def test_oracle_closes_few_principal_ideals_on_prime_rings(name, monkeypatch):
    make, most = FEW_CLOSURES[name]
    ring, count = make(), 0
    close = rings.close

    def counted(*args):
        nonlocal count
        count += 1
        return close(*args)

    monkeypatch.setattr(rings, "close", counted)
    assert is_prime_bruteforce(ring).prime
    assert count <= most, count


# (ring, the oracle's witness (a, b), the seeds it closes): the elements
# before a that no product proved faithful, then a, and nothing for b
NOT_PRIME = {
    "GF(2)[C7]": (lambda: GroupRing(GaloisField(2), FiniteGroup.cyclic(7)),
                  (3, 127), [[1], [3]]),
    "GF(3)[C4]": (lambda: GroupRing(GaloisField(3), FiniteGroup.cyclic(4)),
                  (4, 50), [[1], [2], [4]]),
}


@pytest.mark.parametrize("name", NOT_PRIME)
def test_oracle_closes_no_ideal_for_the_witness_b(name, monkeypatch):
    make, pair, closed = NOT_PRIME[name]
    seeds = []
    close = rings.close

    def recording(ring, seed, *rest):
        seeds.append(list(seed))
        return close(ring, seeds[-1], *rest)

    monkeypatch.setattr(rings, "close", recording)
    witness = is_prime_bruteforce(make()).witness
    assert (witness.a, witness.b) == pair
    assert seeds == closed


def zero_product(ring):
    """The additive group of ``ring`` with every product zero."""
    n = ring.size
    return TableRing([[ring.add(a, b) for b in range(n)] for a in range(n)],
                     [[0] * n for _ in range(n)])


NON_UNITAL = {
    "row GF2": lambda: one_sided(GaloisField(2), False)[1],
    "column GF2": lambda: one_sided(GaloisField(2), True)[1],
    "row Z4": lambda: one_sided(CyclicRing(4), False)[1],
    "column Z4": lambda: one_sided(CyclicRing(4), True)[1],
    "2Z/4": lambda: SubRing(CyclicRing(4), {0, 2}),
    "zero product Z4": lambda: zero_product(CyclicRing(4)),
    "zero product GF4": lambda: zero_product(GaloisField(2, 2)),
    "zero ring": lambda: CyclicRing(1),
}


@pytest.mark.parametrize("name", NON_UNITAL)
def test_matches_reference_on_non_unital_carriers(name):
    result = assert_oracle_matches_reference(NON_UNITAL[name]())
    assert not result.prime
    assert result.degenerate == (name == "zero ring")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.integers(0, len(NON_UNIT_PIVOTS) - 1), st.booleans(), st.data())
def test_matches_reference_where_pivots_are_not_units(index, relabel, data):
    ring = NON_UNIT_PIVOTS[index]()
    if relabel:
        ring = NON_UNIT_PIVOTS[data.draw(st.sampled_from(SMALL))]()
        ring = relabelled(ring, data.draw(st.permutations(range(1, ring.size))))
    assert_oracle_matches_reference(ring)


# Ring products of the pairwise search, which multiplied every pushed
# closure generator by all additive generators and closed all n - 1
# principal ideals before comparing them.
PAIRWISE_PRODUCTS = {
    "M3(GF(2))": (lambda: MatrixRing(GaloisField(2), 3), 9433),
    "GF(2)[C7]": (lambda: GroupRing(GaloisField(2), FiniteGroup.cyclic(7)), 4789),
    "GF(3)[C4]": (lambda: GroupRing(GaloisField(3), FiniteGroup.cyclic(4)), 1275),
}


@pytest.mark.parametrize("name", PAIRWISE_PRODUCTS)
def test_oracle_makes_at_most_half_the_pairwise_products(name):
    make, pairwise = PAIRWISE_PRODUCTS[name]
    ring = make()
    mul, count = ring.mul, 0

    def counted(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    ring.mul = counted
    is_prime_bruteforce(ring)
    assert count <= pairwise // 2, count
