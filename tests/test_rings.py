"""Tests for ring carriers, ideal machinery, and the primeness oracle."""

from __future__ import annotations

import pytest

from gprime.errors import AxiomViolation, BoundExceeded, MalformedInput, NotSUnital, RingMismatch
from gprime.groupoid import FiniteGroup
from gprime.rings import (IDEAL_ENUMERATION_CAP, AdditiveSubgroup, CyclicRing, DirectSumRing,
                          GaloisField, GroupRing, MatrixRing, SubRing, TableRing,
                          additive_closure, centralizer,
                          enumerate_ideals, ideal_generated, is_maximal_commutative,
                          is_prime_bruteforce, is_s_unital, is_zero_product, principal_ideal,
                          set_product, validate_ring)
from span_reference import s_unit_for

# =====================================================================
# carriers
# =====================================================================

class TestCarriers:
    """Constructor arithmetic pinned against hand computations."""

    def test_cyclic(self):
        z8 = CyclicRing(8)
        assert z8.add(5, 7) == 4
        assert z8.mul(5, 7) == 3
        assert z8.neg(3) == 5
        assert z8.one == 1

    def test_gf4_arithmetic(self):
        gf4 = GaloisField(2, 2)
        w = 2
        assert gf4.mul(w, w) == 3            # w^2 = w + 1
        assert gf4.add(w, 3) == 1            # w + (w+1) = 1
        assert gf4.frobenius(w) == 3
        assert gf4.frobenius(3) == w
        assert gf4.frobenius(1) == 1
        assert gf4.label(3) == "w+1"

    def test_gf9_generator_is_primitive(self):
        gf9 = GaloisField(3, 2)
        w = 3
        powers, x = set(), 1
        for _ in range(8):
            x = gf9.mul(x, w)
            powers.add(x)
        assert len(powers) == 8 and 1 in powers
        assert gf9.mul(w, w) == gf9.add(w, 1)  # w^2 = w + 1 under x^2+2x+2

    def test_matrix_units(self):
        m2 = MatrixRing(GaloisField(2), 2)
        e12, e21 = m2.unit(0, 1), m2.unit(1, 0)
        assert m2.mul(e12, e21) == m2.unit(0, 0)
        assert m2.mul(e21, e12) == m2.unit(1, 1)
        assert m2.mul(e12, e12) == 0
        assert m2.label(m2.add(m2.unit(0, 0), e12)) == "e(1,1) + e(1,2)"
        assert m2.one == m2.add(m2.unit(0, 0), m2.unit(1, 1))

    def test_m3_f2_is_big_but_cheap(self):
        m3 = MatrixRing(GaloisField(2), 3)
        assert m3.size == 512
        full = ideal_generated(m3, [m3.unit(0, 0)])
        assert len(full) == 512

    def test_direct_sum_components(self):
        r = DirectSumRing([GaloisField(2), CyclicRing(4)])
        a = r.encode([1, 3])
        assert r.decode(a) == (1, 3)
        assert r.label(a) == "at(0, 1) + at(1, 3)"
        comp = r.component_subgroup("1")
        assert len(comp) == 4

    def test_group_ring_nilpotent(self):
        fg = GroupRing(GaloisField(2), FiniteGroup.cyclic(2))
        one_plus_t = 3
        assert fg.mul(one_plus_t, one_plus_t) == 0
        assert fg.label(one_plus_t) == "1 + t"

    def test_table_ring_validation_catches_bad_distributivity(self):
        add = [[0, 1], [1, 0]]
        bad_mul = [[0, 1], [1, 1]]
        with pytest.raises(AxiomViolation):
            TableRing(add, bad_mul)

    def test_table_ring_accepts_f2(self):
        r = TableRing([[0, 1], [1, 0]], [[0, 0], [0, 1]])
        assert r.one == 1

    @pytest.mark.parametrize("entry", ["1", True, 1.0])
    def test_table_ring_refuses_entries_that_are_not_ints(self, entry):
        with pytest.raises(MalformedInput,
                           match=rf"table entry add\[0\]\[1\] = {entry!r} is not an element"):
            TableRing([[0, entry], [entry, 0]], [[0, 0], [0, 1]])

    def test_groups_refuse_duplicate_labels(self):
        with pytest.raises(MalformedInput, match="labels must be distinct"):
            FiniteGroup(["a", "a"], [[0, 1], [1, 0]])

    def test_subring_view(self):
        m2 = MatrixRing(GaloisField(2), 2)
        diag = {0, m2.unit(0, 0), m2.unit(1, 1), m2.add(m2.unit(0, 0), m2.unit(1, 1))}
        sub = SubRing(m2, diag)
        assert sub.size == 4
        assert sub.one == sub.from_parent[m2.one]
        assert sub.label(sub.one) == "e(1,1) + e(2,2)"
        with pytest.raises(MalformedInput):
            SubRing(m2, {0, m2.unit(0, 1), m2.unit(1, 0)})  # not multiplicatively closed

    def test_zero_ring(self):
        z1 = CyclicRing(1)
        assert z1.size == 1
        assert z1.additive_generators() == ()

    def test_validate_ring_passes_structured_carriers(self):
        validate_ring(CyclicRing(9))
        validate_ring(GaloisField(3, 2))
        validate_ring(MatrixRing(CyclicRing(4), 2))


# =====================================================================
# subgroups, ideals, s-units
# =====================================================================

class TestSubgroupsAndIdeals:
    def test_additive_closure_in_z8(self):
        z8 = CyclicRing(8)
        sub = additive_closure(z8, [2])
        assert sub.elements == frozenset({0, 2, 4, 6})

    def test_set_product(self):
        z8 = CyclicRing(8)
        two = additive_closure(z8, [2])
        four = additive_closure(z8, [4])
        assert set_product(two, four).elements == frozenset({0})
        assert set_product(two, two).elements == frozenset({0, 4})

    def test_set_product_ring_mismatch(self):
        a = additive_closure(CyclicRing(4), [1])
        b = additive_closure(CyclicRing(4), [1])
        with pytest.raises(RingMismatch):
            set_product(a, b)

    def test_ideal_without_unitality_contains_seed_multiples(self):
        # in 2Z/8Z = {0,2,4,6} as a ring, the ideal generated by 2 must contain 2
        z8 = CyclicRing(8)
        sub = SubRing(z8, {0, 2, 4, 6})
        two = sub.from_parent[2]
        ideal = ideal_generated(sub, [two])
        assert two in ideal.elements
        assert ideal.elements == frozenset({sub.from_parent[x] for x in (0, 2, 4, 6)})

    def test_matrix_corner_generates_everything(self):
        m2 = MatrixRing(GaloisField(2), 2)
        assert len(ideal_generated(m2, [m2.unit(0, 0)])) == 16

    def test_s_unitality(self):
        z4 = CyclicRing(4)
        sub = SubRing(z4, {0, 2})
        assert not is_s_unital(sub)
        assert is_s_unital(DirectSumRing([GaloisField(2), GaloisField(2)]))

    def test_s_unit_for_finds_common_unit(self):
        r = DirectSumRing([GaloisField(2), GaloisField(3)])
        u = s_unit_for(r, [r.encode([1, 0]), r.encode([0, 2])])
        assert u == r.one

    def test_s_unit_for_raises(self):
        z4 = CyclicRing(4)
        with pytest.raises(NotSUnital):
            s_unit_for(SubRing(z4, {0, 2}), [1])

    def test_enumerate_ideals_counts(self):
        assert len(enumerate_ideals(CyclicRing(8)).ideals) == 4
        assert len(enumerate_ideals(MatrixRing(GaloisField(2), 2)).ideals) == 2
        assert len(enumerate_ideals(DirectSumRing([GaloisField(2)] * 2)).ideals) == 4

    def test_enumerate_ideals_truncation(self):
        # with zero multiplication every subgroup of GF(2)^8 is an ideal: the
        # 255 lines and {0} fill the cap, the first plane passes it
        r = TableRing([[a ^ b for b in range(256)] for a in range(256)],
                      [[0] * 256 for _ in range(256)])
        out = enumerate_ideals(r)
        assert out.truncated
        assert len(out.ideals) == IDEAL_ENUMERATION_CAP + 1
        assert [len(i) for i in out.ideals] == [1] + [2] * 255 + [4]
        full = enumerate_ideals(DirectSumRing([GaloisField(2)] * 4))
        assert not full.truncated and len(full.ideals) == 16

    def test_enumerate_ideals_bound(self):
        with pytest.raises(BoundExceeded):
            enumerate_ideals(MatrixRing(GaloisField(2), 3))


# =====================================================================
# primeness oracle
# =====================================================================

class TestPrimenessOracle:
    def test_fields_and_simple_rings_are_prime(self):
        assert is_prime_bruteforce(GaloisField(2)).prime
        assert is_prime_bruteforce(GaloisField(3, 2)).prime
        assert is_prime_bruteforce(MatrixRing(GaloisField(2), 2)).prime
        assert is_prime_bruteforce(MatrixRing(GaloisField(2), 3)).prime

    def test_z4_witness(self):
        res = is_prime_bruteforce(CyclicRing(4))
        assert not res.prime
        assert (res.witness.a, res.witness.b) == (2, 2)

    def test_z8_lex_first_witness(self):
        ring = CyclicRing(8)
        res = is_prime_bruteforce(ring)
        assert not res.prime
        assert (res.witness.a, res.witness.b) == (2, 4)
        assert res.witness.a_ideal.elements == frozenset({0, 2, 4, 6})
        assert is_zero_product(res.witness.a_ideal, principal_ideal(ring, 4))

    def test_direct_sum_witness(self):
        res = is_prime_bruteforce(DirectSumRing([GaloisField(2), GaloisField(2)]))
        assert not res.prime
        assert (res.witness.a, res.witness.b) == (1, 2)

    def test_group_ring_c2_not_prime(self):
        res = is_prime_bruteforce(GroupRing(GaloisField(2), FiniteGroup.cyclic(2)))
        assert not res.prime
        assert (res.witness.a, res.witness.b) == (3, 3)

    def test_zero_ring_is_degenerate(self):
        res = is_prime_bruteforce(CyclicRing(1))
        assert not res.prime and res.degenerate and res.witness is None

    def test_principal_ideal_cache_is_consistent(self):
        z8 = CyclicRing(8)
        assert principal_ideal(z8, 2) is principal_ideal(z8, 2)
        assert principal_ideal(z8, 2).elements == frozenset({0, 2, 4, 6})


# =====================================================================
# centralizers
# =====================================================================

class TestCentralizer:
    def test_center_of_m2(self):
        m2 = MatrixRing(GaloisField(2), 2)
        whole = AdditiveSubgroup(m2, m2.additive_generators())
        assert centralizer(m2, whole).elements == frozenset({0, m2.one})

    def test_diagonal_is_maximal_commutative(self):
        m2 = MatrixRing(GaloisField(2), 2)
        diag = additive_closure(m2, [m2.unit(0, 0), m2.unit(1, 1)])
        assert is_maximal_commutative(m2, diag)

    def test_scalars_are_not_maximal_commutative(self):
        m2 = MatrixRing(GaloisField(2), 2)
        scalars = additive_closure(m2, [m2.one])
        assert not is_maximal_commutative(m2, scalars)
