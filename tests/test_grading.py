"""Graded-ring layer: validation, decomposition, near epsilon-strongness,
support, invariant ideals, the two ideal maps, hubs and the pair criteria.

Expected values are frozen from hand computation with 3x3 / block matrix
units over GF(2); element indices are the mixed-radix encodings (matrix unit
e(i+1,j+1) over GF(2) has index 2**(i*n+j), block 1 of the two-block sum is
shifted by a factor of 256).
"""

from functools import reduce

import pytest

from conftest import (
    build_group_ring_grading,
    build_nonsunital_trivial_grading,
    build_one_sided_grading,
)
from gprime.errors import (
    AxiomViolation,
    DegenerateInstance,
    InternalDisagreement,
    MalformedInput,
    NotDirectSum,
    NotGraded,
    NotInvariant,
    ObjectNotInSupport,
)
from gprime.grading import (
    GradedIdeal,
    conjugate,
    invariant_closure,
    is_G_prime_principal,
    is_graded_prime,
    is_invariant,
    is_nearly_epsilon_strong,
    is_support_hub,
    isotropy_component,
    phi,
    project,
    psi,
    restrict_grading,
    support_groupoid,
    validate_grading,
)
from gprime.groupoid import Subgroupoid, pair_groupoid
from gprime.primeness import torsion_free_shortcut
from gprime.rings import (
    GaloisField,
    MatrixRing,
    additive_closure,
    ideal_generated,
    principal_ideal,
)

E11, E12, E21, E22, E13, E23, E31, E32, E33 = 1, 2, 8, 16, 4, 32, 64, 128, 256


class TestValidation:
    def test_m3_components(self, m3_grading):
        assert m3_grading.ring.size == 512
        assert all(len(c) == 2 for c in m3_grading.components)
        G = m3_grading.groupoid
        assert m3_grading.component(G.morphism_index("f2>f1")).elements == {0, E12}
        assert m3_grading.support() == list(range(9))

    def test_decompose_and_element_roundtrip(self, m3_grading):
        x = E11 + E12 + E23  # parts at f1, f2>f1 and f3>f2
        parts = m3_grading.decompose(x)
        assert parts == (E11, 0, 0, E12, 0, 0, E23, 0, 0)
        assert reduce(m3_grading.ring.add, parts, 0) == x

    def test_every_element_decomposes(self, m3_grading):
        ring = m3_grading.ring
        for x in range(0, ring.size, 37):
            parts = m3_grading.decompose(x)
            total = 0
            for g, p in enumerate(parts):
                assert p in m3_grading.components[g].elements
                total = ring.add(total, p)
            assert total == x

    def test_compatibility_violation_collects_witness(self):
        G = pair_groupoid(["e", "f"])
        m2 = MatrixRing(GaloisField(2), 2)
        comps = {
            G.morphism_index("e"): [m2.unit(0, 0)],
            G.morphism_index("f"): [m2.unit(1, 1)],
            # both cross morphisms carry e(2,1): the product e21*e12 escapes S_e
            G.morphism_index("f>e"): [m2.unit(1, 0)],
            G.morphism_index("e>f"): [m2.unit(0, 1)],
        }
        with pytest.raises(AxiomViolation) as exc:
            validate_grading(G, m2, comps)
        assert exc.value.axiom == "grading"
        assert any("escapes" in v for v in exc.value.violations)

    def test_overlapping_components_rejected(self):
        # zero multiplication keeps every compatibility product trivially
        # inside its target, isolating the directness failure
        from gprime.rings import TableRing

        add = [[a ^ b for b in range(4)] for a in range(4)]
        zero_mul = TableRing(add, [[0] * 4 for _ in range(4)], ["0", "x", "y", "x+y"])
        G = pair_groupoid(["e", "f"])
        comps = {G.morphism_index("e"): [1], G.morphism_index("f"): [1, 2]}
        with pytest.raises(NotDirectSum) as exc:
            validate_grading(G, zero_mul, comps)
        # the message names the morphism and an element in both sums
        assert "x lies in S_f and in the earlier components (at morphism 'f')" in str(exc.value)
        assert exc.value.witness == (G.morphism_index("f"), 1)

    def test_non_spanning_components_rejected(self):
        G = pair_groupoid(["e"])
        m2 = MatrixRing(GaloisField(2), 2)
        with pytest.raises(NotDirectSum):
            validate_grading(G, m2, {0: [m2.unit(0, 1)]})

    @staticmethod
    def m2_components():
        G = pair_groupoid(["e", "f"])
        m2 = MatrixRing(GaloisField(2), 2)
        comps = {G.morphism_index("e"): [m2.unit(0, 0)], G.morphism_index("f"): [m2.unit(1, 1)],
                 G.morphism_index("f>e"): [m2.unit(0, 1)], G.morphism_index("e>f"): [m2.unit(1, 0)]}
        validate_grading(G, m2, comps)   # the unaltered components are a grading
        return G, m2, comps

    def test_unknown_morphism_index_refused(self):
        G, m2, comps = self.m2_components()
        with pytest.raises(MalformedInput, match="unknown morphism index 99"):
            validate_grading(G, m2, {**comps, 99: [m2.unit(0, 0)]})

    def test_negative_generator_refused(self):
        G, m2, comps = self.m2_components()
        with pytest.raises(MalformedInput, match="generator -1 for S_e is not a ring element"):
            validate_grading(G, m2, {**comps, G.morphism_index("e"): [-1]})

    def test_generator_past_the_carrier_refused(self):
        G, m2, comps = self.m2_components()
        with pytest.raises(MalformedInput, match="generator 16 for S_e is not a ring element"):
            validate_grading(G, m2, {**comps, G.morphism_index("e"): [16]})

    def test_non_integer_generator_refused(self):
        G, m2, comps = self.m2_components()
        with pytest.raises(MalformedInput, match="generator 'a' for S_e is not a ring element"):
            validate_grading(G, m2, {**comps, G.morphism_index("e"): ["a"]})

    def test_degenerate_inputs(self):
        G = pair_groupoid(["e"])
        from gprime.rings import CyclicRing

        with pytest.raises(DegenerateInstance):
            validate_grading(G, CyclicRing(1), {0: []})
        with pytest.raises(DegenerateInstance):
            validate_grading(G, CyclicRing(2), {})

    def test_projection_onto_subgroupoid(self, m3_grading):
        G = m3_grading.groupoid
        hs = [G.morphism_index(m) for m in ("f1", "f2", "f2>f1", "f1>f2")]
        assert project(m3_grading, hs, E11 + E12 + E23) == E11 + E12

    def test_projection_multiplicative_identity(self):
        # pi_H(a*b) == pi_H(a)*b for b in the identity component, exhaustively
        g = build_group_ring_grading()
        ring = g.ring
        hs = [0]
        for a in range(ring.size):
            for b in g.components[0].sorted_elements():
                assert project(g, hs, ring.mul(a, b)) == ring.mul(project(g, hs, a), b)
                assert project(g, hs, ring.mul(b, a)) == ring.mul(b, project(g, hs, a))


class TestNearEpsilonStrong:
    def test_matrix_units_grading_holds(self, m3_grading):
        res = is_nearly_epsilon_strong(m3_grading)
        assert res.holds
        assert res.failures == ()
        g = m3_grading.groupoid.morphism_index("f2>f1")
        # e(1,1) * e(1,2) == e(1,2) == e(1,2) * e(2,2)
        assert res.certificate[(g, E12)] == (E11, E22)

    def test_group_ring_grading_holds(self, f2c2_grading):
        res = is_nearly_epsilon_strong(f2c2_grading)
        assert res.holds
        t = f2c2_grading.groupoid.morphism_index("t")
        assert res.certificate[(t, 2)] == (1, 1)

    def test_block_grading_holds(self, block_grading):
        res = is_nearly_epsilon_strong(block_grading)
        assert res.holds
        g = block_grading.groupoid.morphism_index("f2>f1")
        assert res.certificate[(g, 2)] == (1, 8)

    def test_non_s_unital_component_fails(self):
        res = is_nearly_epsilon_strong(build_nonsunital_trivial_grading())
        assert not res.holds
        assert res.certificate == {}
        assert any("s-unital" in f for f in res.failures)

    def test_one_sided_component_fails(self):
        # S_{f>e} = span{e(1,2)} with the opposite component zero
        res = is_nearly_epsilon_strong(build_one_sided_grading())
        assert not res.holds
        assert any("'f>e'" in f for f in res.failures)


class TestSupport:
    def test_full_support(self, m3_grading):
        res = support_groupoid(m3_grading, nes=True)
        assert res.support_objects == (0, 1, 2)
        assert res.subgroupoid.members == frozenset(range(9))

    def test_zero_components_do_not_shrink_object_support(self, block_grading):
        res = support_groupoid(block_grading, nes=True)
        assert res.support_objects == (0, 1, 2)
        assert res.subgroupoid.members == frozenset(range(9))

    def test_dead_object_removed(self):
        G = pair_groupoid(["e", "f"])
        grading = validate_grading(G, GaloisField(2), {G.morphism_index("f"): [1]})
        res = support_groupoid(grading, nes=True)
        assert res.support_objects == (1,)
        assert res.subgroupoid.members == {G.morphism_index("f")}
        with pytest.raises(ObjectNotInSupport):
            is_support_hub(grading, 0)
        assert is_support_hub(grading, 1).is_hub

    def test_disconnected_support_splits(self, disconnected_grading):
        res = support_groupoid(disconnected_grading, nes=True)
        assert res.support_objects == (0, 1)
        assert res.subgroupoid.members == {0, 1}

    def test_all_dead_is_degenerate(self):
        # square-zero carrier concentrated on a non-identity morphism
        from gprime.rings import TableRing

        sq = TableRing([[0, 1], [1, 0]], [[0, 0], [0, 0]], ["0", "x"])
        G = pair_groupoid(["e", "f"])
        grading = validate_grading(G, sq, {G.morphism_index("f>e"): [1]})
        with pytest.raises(DegenerateInstance):
            support_groupoid(grading)


class TestInvariantIdeals:
    def test_conjugation_moves_a_corner(self, m3_grading):
        G = m3_grading.groupoid
        g = G.morphism_index("f2>f1")
        corner = additive_closure(m3_grading.ring, [E11])
        assert conjugate(m3_grading, corner, g).elements == {0, E22}
        assert conjugate(m3_grading, [E11], g).elements == {0, E22}
        ok, bad = is_invariant(m3_grading, corner)
        assert not ok and bad == g

    def test_invariant_closure_reaches_the_diagonal(self, m3_grading):
        closure = invariant_closure(m3_grading, [E11])
        assert closure.elements == m3_grading.principal_part().elements
        assert len(closure) == 8

    def test_block_closures_stay_in_their_block(self, block_grading):
        left = invariant_closure(block_grading, [1])      # e(1,1)
        right = invariant_closure(block_grading, [16])    # e(3,3)
        assert left.elements == {0, 1, 8, 9}
        assert right.elements == {0, 16, 128, 144}
        assert is_invariant(block_grading, left) == (True, None)
        assert is_invariant(block_grading, right) == (True, None)

    def test_seed_outside_identity_components_rejected(self, m3_grading):
        with pytest.raises(MalformedInput):
            invariant_closure(m3_grading, [E12])


class TestIdealMaps:
    def test_round_trip_from_the_identity_components(self, block_grading):
        left = invariant_closure(block_grading, [1])
        graded = psi(block_grading, left)
        assert len(graded.ideal) == 16
        assert phi(block_grading, graded).elements == left.elements

    def test_round_trip_from_a_graded_ideal(self, block_grading):
        ideal = principal_ideal(block_grading.ring, 1)  # the left block
        assert phi(block_grading, ideal).elements == {0, 1, 8, 9}
        rebuilt = psi(block_grading, phi(block_grading, ideal))
        assert rebuilt.ideal.elements == ideal.elements

    def test_whole_ring_round_trip(self, m3_grading):
        P = m3_grading.principal_part()
        graded = psi(m3_grading, invariant_closure(m3_grading, [E11]))
        assert len(graded.ideal) == 512
        assert phi(m3_grading, graded).elements == P.elements

    def test_psi_rejects_non_invariant_ideal(self, m3_grading):
        corner = additive_closure(m3_grading.ring, [E11])
        with pytest.raises(NotInvariant):
            psi(m3_grading, corner)

    def test_psi_rejects_sets_outside_identity_components(self, m3_grading):
        stray = additive_closure(m3_grading.ring, [E12])
        with pytest.raises(NotInvariant):
            psi(m3_grading, stray)

    def test_phi_rejects_non_graded_ideal(self, f2c2_grading):
        ring = f2c2_grading.ring
        augmentation = ideal_generated(ring, [3])  # span of 1 + t
        assert augmentation.elements == {0, 3}
        with pytest.raises(NotGraded):
            phi(f2c2_grading, augmentation)
        with pytest.raises(NotGraded):
            GradedIdeal.of(f2c2_grading, augmentation)

    def test_graded_ideal_parts(self, f2c2_grading):
        whole = GradedIdeal.of(f2c2_grading, principal_ideal(f2c2_grading.ring, 1))
        assert whole.parts[0] == {0, 1}
        assert whole.parts[1] == {0, 2}


class TestHubs:
    def test_every_object_is_a_hub_for_matrix_units(self, m3_grading):
        for e in range(3):
            assert is_support_hub(m3_grading, e).is_hub

    def test_block_grading_middle_object_is_the_only_hub(self, block_grading):
        middle = is_support_hub(block_grading, 1)
        assert middle.is_hub
        assert len(middle.witnesses) == 9  # every nonzero homogeneous element
        left = is_support_hub(block_grading, 0)
        assert not left.is_hub
        assert left.blocking == (1, 16)   # e(3,3) cannot reach object f1
        right = is_support_hub(block_grading, 2)
        assert not right.is_hub
        assert right.blocking == (0, 1)   # e(1,1) cannot reach object f3

    def test_hub_witnesses_record_first_hits(self, m3_grading):
        G = m3_grading.groupoid
        res = is_support_hub(m3_grading, 0)
        # e(2,2) multiplies through f1 via f1>f2 on the right, f2>f1 on the left
        assert res.witnesses[(1, E22)] == (G.morphism_index("f1>f2"),
                                           G.morphism_index("f2>f1"))


class TestPairCriteria:
    def test_matrix_units_grading_is_graded_prime(self, m3_grading):
        assert is_graded_prime(m3_grading).holds
        assert is_G_prime_principal(m3_grading).holds

    def test_group_ring_is_graded_prime_but_carries_nilpotents(self, f2c2_grading):
        # 1 + t generates a square-zero ideal, but it is not homogeneous, so
        # neither criterion sees it.
        assert is_graded_prime(f2c2_grading).holds
        assert is_G_prime_principal(f2c2_grading).holds
        ring = f2c2_grading.ring
        assert ring.mul(3, 3) == 0

    def test_block_grading_fails_both(self, block_grading):
        graded = is_graded_prime(block_grading)
        assert not graded.holds
        a, c, ia, ic = graded.witness
        assert (a, c) == (1, 16)       # e(1,1) against e(3,3)
        assert len(ia) == 16 and len(ic) == 16

        invariant = is_G_prime_principal(block_grading)
        assert not invariant.holds
        b1, b2, j1, j2 = invariant.witness
        assert (b1, b2) == (1, 16)
        assert j1.elements == {0, 1, 8, 9}
        assert j2.elements == {0, 16, 128, 144}

    def test_disconnected_grading_fails_both(self, disconnected_grading):
        graded = is_graded_prime(disconnected_grading)
        assert not graded.holds
        assert graded.witness[:2] == (1, 2)
        invariant = is_G_prime_principal(disconnected_grading)
        assert not invariant.holds
        assert invariant.witness[:2] == (1, 2)


class TestRestriction:
    def test_restrict_to_a_two_object_corner(self, m3_grading):
        G = m3_grading.groupoid
        members = frozenset(G.morphism_index(m) for m in ("f1", "f2", "f2>f1", "f1>f2"))
        res = restrict_grading(m3_grading, Subgroupoid(G, members))
        assert res.ring.size == 16
        assert res.grading.groupoid.n_objects == 2
        assert is_nearly_epsilon_strong(res.grading).holds
        assert is_graded_prime(res.grading).holds
        # translation table round-trips component generators
        g = G.morphism_index("f2>f1")
        local = res.morphism_map[g]
        gens = res.grading.components[local].gens
        assert [res.ring.to_parent[x] for x in gens] == [E12]

    def test_isotropy_component_at_an_object(self, m3_grading):
        res = isotropy_component(m3_grading, 1)
        assert res.grading.groupoid.n_morphisms == 1
        assert res.ring.size == 2
        assert res.ring.to_parent[1] == E22

    def test_isotropy_component_of_group_ring_is_everything(self, f2c2_grading):
        res = isotropy_component(f2c2_grading, 0)
        assert res.ring.size == f2c2_grading.ring.size
        assert res.grading.groupoid.n_morphisms == 2


class TestInternalConsistency:
    def test_nes_support_consistency_guard(self):
        # hand-build a grading object with a nonzero component outside the
        # support and check the guard trips (this cannot come out of
        # validate_grading followed by an honest nearly-epsilon-strong run)
        dead = validate_grading(pair_groupoid(["e", "f"]), GaloisField(2), {1: [1]})
        assert support_groupoid(dead, nes=True).support_objects == (1,)
        patched = additive_closure(dead.ring, [1])
        comps = list(dead.components)
        comps[dead.groupoid.morphism_index("e>f")] = patched
        dead.components = tuple(comps)
        with pytest.raises(InternalDisagreement):
            support_groupoid(dead, nes=True)


class TestUnknownIndices:
    """The public entry points refuse a morphism or object index outside
    the groupoid instead of reading Python's negative indexing or failing
    with a bare IndexError.  The m3 grading has 3 objects and 9 morphisms."""

    def test_project_refuses_a_negative_morphism(self, m3_grading):
        with pytest.raises(MalformedInput, match="unknown morphism index -1"):
            project(m3_grading, [-1], E12)

    def test_project_refuses_a_morphism_past_the_end(self, m3_grading):
        with pytest.raises(MalformedInput, match="unknown morphism index 99"):
            project(m3_grading, [0, 99], E12)

    def test_conjugate_refuses_an_unknown_morphism(self, m3_grading):
        with pytest.raises(MalformedInput, match="unknown morphism index 42"):
            conjugate(m3_grading, m3_grading.principal_part(), 42)

    def test_is_invariant_refuses_an_unknown_morphism(self, m3_grading):
        with pytest.raises(MalformedInput, match="unknown morphism index -1"):
            is_invariant(m3_grading, m3_grading.principal_part(), [-1])

    def test_is_support_hub_refuses_an_unknown_object(self, m3_grading):
        with pytest.raises(MalformedInput, match="unknown object index 7"):
            is_support_hub(m3_grading, 7)

    def test_isotropy_component_refuses_an_unknown_object(self, m3_grading):
        with pytest.raises(MalformedInput, match="unknown object index -1"):
            isotropy_component(m3_grading, -1)

    def test_torsion_free_shortcut_refuses_an_unknown_object(self, m3_grading):
        with pytest.raises(MalformedInput, match="unknown object index -1"):
            torsion_free_shortcut(m3_grading, -1)
