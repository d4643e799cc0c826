"""Tests for partial actions, their skew product rings, and the reductions."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import gprime.partial
from gprime import cli
from conftest import (
    build_flip_partial_action,
    build_g8_frobenius_action,
    build_one_object_partial_action,
    build_zero_partial_action,
)
from gprime.errors import (AxiomViolation, BoundExceeded,
                           DegenerateInstance, InternalDisagreement, MalformedInput,
                           NotSUnital, ObjectNotInSupport, UnknownObject)
from gprime.grading import HubResult, PairCriterionResult, is_support_hub
from gprime.instances import build_instance, parse
from gprime.groupoid import FiniteGroup, one_object_groupoid, pair_groupoid, validate_groupoid
from gprime.partial import (GroupoidRing, GroupTypeResult, SkewGroupoidRing,
                            build_groupoid_ring, build_skew_ring, connell_check,
                            global_support_connectivity_check,
                            groupoid_ring_action, is_A_G_prime, is_global,
                            is_group_type, orbit_density_check,
                            psi_check, restrict_to_isotropy,
                            sigma_invariant_closure, skew_prime_verdict,
                            skew_support_hub, sufficient_conditions_report,
                            validate_partial_action)
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, MatrixRing,
                          SubRing, additive_closure, is_prime_bruteforce)
from partial_reference import ChainViolation, group_type_chain
from span_reference import reference_sigma_invariant
from test_direct_sum import generated_corpus

ROOT = Path(__file__).resolve().parents[1]


def two_point_setup():
    """Pair groupoid on e, f with a GF(2) x GF(2) ambient sum."""
    G = pair_groupoid(["e", "f"])
    amb = DirectSumRing([GaloisField(2), GaloisField(2)], keys=["e", "f"])
    return G, amb


def disconnected_groupoid():
    return validate_groupoid({"objects": ["e", "f"], "morphisms": [],
                              "compose": [], "inverse": {}})


class TestValidation:
    """validate_partial_action fills in defaults and reports broken axioms."""

    def test_zero_cross_ideals_default(self, zero_action):
        G = zero_action.groupoid
        assert len(zero_action.ideals[G.morphism_index("f>e")]) == 1
        assert len(zero_action.ideals[G.morphism_index("e>f")]) == 1
        # identity morphisms always carry the full component
        assert sorted(zero_action.ideals[0].elements) == [0, 1]
        assert sorted(zero_action.ideals[1].elements) == [0, 2]
        assert zero_action.sigma(0, 1) == 1

    def test_flip_tables(self, flip_action):
        G = flip_action.groupoid
        assert flip_action.sigma(G.morphism_index("f>e"), 2) == 1
        assert flip_action.sigma(G.morphism_index("e>f"), 1) == 2
        with pytest.raises(MalformedInput, match="outside the domain"):
            flip_action.sigma(G.morphism_index("f>e"), 1)

    def test_ambient_keys_must_match_objects(self):
        G = pair_groupoid(["e", "f"])
        amb = DirectSumRing([GaloisField(2), GaloisField(2)], keys=["x", "y"])
        with pytest.raises(MalformedInput):
            validate_partial_action(G, amb, {}, {})

    def test_non_integer_generator_refused(self):
        G = pair_groupoid(["e", "f"])
        amb = DirectSumRing([GaloisField(2), GaloisField(2)], keys=["e", "f"])
        with pytest.raises(MalformedInput, match="generator 1.0 for A_f>e is not an ambient"):
            validate_partial_action(G, amb, {G.morphism_index("f>e"): [1.0]}, {})

    def test_zero_ambient_is_degenerate(self):
        G = pair_groupoid(["e"])
        amb = DirectSumRing([CyclicRing(1)], keys=["e"])
        with pytest.raises(DegenerateInstance):
            validate_partial_action(G, amb, {}, {})

    def test_shift_table_is_not_additive(self):
        # translation by 2 on Z/8 preserves nothing additive
        G = pair_groupoid(["e", "f"])
        amb = DirectSumRing([CyclicRing(8), CyclicRing(8)], keys=["e", "f"])
        to_e, to_f = G.morphism_index("f>e"), G.morphism_index("e>f")
        gens = {to_e: [amb.inject(0, 1)], to_f: [amb.inject(1, 1)]}
        maps = {to_e: {amb.inject(1, x): amb.inject(0, (x + 6) % 8) for x in range(8)},
                to_f: {amb.inject(0, x): amb.inject(1, (x + 2) % 8) for x in range(8)}}
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, gens, maps)
        assert err.value.axiom == "map"
        assert "not additive" in str(err.value)

    def test_missing_table_is_reported(self):
        G, amb = two_point_setup()
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {G.morphism_index("f>e"): [amb.inject(0, 1)]}, {})
        assert str(err.value) == "[map] no table supplied for sigma_f>e"

    def test_table_must_be_a_bijection(self):
        G, amb = two_point_setup()
        to_e, to_f = G.morphism_index("f>e"), G.morphism_index("e>f")
        maps = {to_e: {0: 0, 2: 0}, to_f: {0: 0, 1: 2}}
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {to_e: [1], to_f: [2]}, maps)
        assert err.value.axiom == "map"

    def test_ideal_must_sit_in_the_range_component(self):
        G, amb = two_point_setup()
        # "f>e" ends at e, so its ideal may not contain the f summand
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {G.morphism_index("f>e"): [amb.inject(1, 1)]},
                                    {G.morphism_index("f>e"): {0: 0, 1: 2}})
        assert err.value.axiom == "ideal"

    def test_identity_generators_must_span_the_component(self):
        G = pair_groupoid(["e"])
        amb = DirectSumRing([CyclicRing(4)], keys=["e"])
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {0: [2]}, {})
        assert err.value.axiom == "object-sum"

    def test_identity_table_must_be_the_identity(self):
        G, amb = two_point_setup()
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {}, {0: {0: 1, 1: 0}})
        assert err.value.axiom == "identity"

    def test_nonsunital_ideal_is_rejected(self):
        G = one_object_groupoid(FiniteGroup.cyclic(2), "e")
        amb = DirectSumRing([CyclicRing(8)], keys=["e"])
        dom = additive_closure(amb, [2]).elements
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {1: [2]}, {1: {x: x for x in dom}})
        assert err.value.axiom == "s-unital"

    def test_domain_axiom_catches_shrinking_composites(self):
        # t moves a line, but t*t = t2 carries nothing: axiom (iii) fails
        G = one_object_groupoid(FiniteGroup.cyclic(4), "e")
        part = DirectSumRing([GaloisField(2), GaloisField(2)])
        amb = DirectSumRing([part], keys=["e"])
        x = amb.inject(0, part.inject(0, 1))
        t, t3 = G.morphism_index("t"), G.morphism_index("t3")
        gens = {t: [x], t3: [x]}
        maps = {t: {0: 0, x: x}, t3: {0: 0, x: x}}
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, gens, maps)
        assert err.value.axiom == "domain"

    def test_dead_object_is_allowed(self):
        G = pair_groupoid(["e", "f"])
        amb = DirectSumRing([GaloisField(2), CyclicRing(1)], keys=["e", "f"])
        action = validate_partial_action(G, amb, {}, {})
        assert action.support_objects() == (0,)


class TestClassification:
    def test_zero_action_has_no_transport(self, zero_action):
        assert not is_global(zero_action)
        res = is_group_type(zero_action)
        assert res == GroupTypeResult(False, None, {},
                                      "no object anchors a transport family")

    def test_flip_is_global_hence_group_type(self, flip_action):
        assert is_global(flip_action)
        res = is_group_type(flip_action)
        assert res.holds and res.anchor == 0
        assert res.family == {0: 0, 1: flip_action.groupoid.morphism_index("e>f")}

    def test_g8_transport_goes_through_l(self, g8_action):
        assert not is_global(g8_action)
        res = is_group_type(g8_action)
        assert res.holds and res.anchor == 0
        assert res.family == {0: 0, 1: g8_action.groupoid.morphism_index("l")}

    def test_one_object_actions_are_group_type(self):
        action = build_one_object_partial_action()
        assert not is_global(action)
        assert is_group_type(action) == GroupTypeResult(True, 0, {0: 0}, None)

    def test_disconnected_reason(self):
        grading = groupoid_ring_action(GaloisField(2), disconnected_groupoid())
        res = is_group_type(grading)
        assert not res.holds and res.reason == "the groupoid is not connected"


class TestSkewRing:
    def test_zero_action_product_is_a_direct_sum(self, zero_action):
        grading = build_skew_ring(zero_action)
        ring = grading.ring
        assert ring.size == 4
        assert grading.components[2].is_zero() and grading.components[3].is_zero()
        de, df = ring.inject(0, 1), ring.inject(1, 2)
        assert ring.mul(de, df) == 0
        assert ring.mul(de, de) == de
        assert ring.one == ring.add(de, df)
        assert not is_prime_bruteforce(ring).prime

    def test_flip_product_is_prime(self, flip_action):
        grading = build_skew_ring(flip_action)
        assert grading.ring.size == 16
        assert grading.ring.one is not None
        assert is_prime_bruteforce(grading.ring).prime
        # rebuilding returns the cached grading
        assert build_skew_ring(flip_action) is grading

    def test_trivial_group_on_f2(self):
        grading = build_groupoid_ring(GaloisField(2), one_object_groupoid(FiniteGroup.trivial(), "e"))
        assert grading.ring.size == 2
        assert is_prime_bruteforce(grading.ring).prime

    def test_group_ring_square_of_one_plus_t(self):
        grading = build_groupoid_ring(GaloisField(2), one_object_groupoid(FiniteGroup.cyclic(2), "e"))
        ring = grading.ring
        assert ring.size == 4
        x = ring.add(ring.inject(0, 1), ring.inject(1, 1))
        assert ring.mul(x, x) == 0
        assert not is_prime_bruteforce(ring).prime

    def test_carrier_bound_is_refused_before_building(self, g8_action, monkeypatch):
        subrings = []
        monkeypatch.setattr(gprime.partial, "SubRing", lambda *args: subrings.append(args))
        with pytest.raises(BoundExceeded, match="refusing"):
            build_skew_ring(g8_action)
        assert subrings == []

    def test_coefficient_escape_raises_the_alarm(self):
        action = build_flip_partial_action()
        # corrupt one entry after validation: sigma_{f>e} now lands outside A_{f>e}
        action.maps[action.groupoid.morphism_index("f>e")][2] = 2
        with pytest.raises(InternalDisagreement):
            build_skew_ring(action)

    def test_labels_name_coefficients_and_arrows(self, flip_action):
        ring = build_skew_ring(flip_action).ring
        x = ring.add(ring.inject(0, 1), ring.inject(2, 1))
        assert ring.label(x) == "(at(e, 1))*d(e) + (at(e, 1))*d(f>e)"
        assert ring.label(0) == "0"


@pytest.fixture(scope="module")
def skew_rings():
    """Every skew ring that ``prime`` and ``equivalence`` build on the
    fixtures, the skew rings of ``generate_instance``, six draws for each
    seed 0-59, and the skew products of the actions that the groupoid rings
    among both induce."""
    built = {}
    init = SkewGroupoidRing.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built[id(self)] = self
    patch = pytest.MonkeyPatch()
    patch.setattr(SkewGroupoidRing, "__init__", recording_init)
    try:
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            for command in ("prime", "equivalence"):
                cli.main([command, str(path)])
    finally:
        patch.undo()
    generated = [grading.ring for _, grading in generated_corpus()]
    bases = [(r.base, r.groupoid) for r in generated if isinstance(r, GroupoidRing)]
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        fixture = build_instance(parse(path))
        if fixture.kind == "groupoid_ring":
            bases.append((fixture.base, fixture.groupoid))
    induced = [build_skew_ring(groupoid_ring_action(base, G)).ring for base, G in bases]
    return (list(built.values()) + [r for r in generated if isinstance(r, SkewGroupoidRing)]
            + induced)


def test_the_codec_round_trips_on_every_built_skew_ring(skew_rings):
    assert len(skew_rings) > 100
    for ring in skew_rings:
        ideals = ring.action.ideals
        table = [ring.coefficients(x) for x in range(ring.size)]
        assert [ring.encode(coeffs) for coeffs in table] == list(range(ring.size)), ring.tag
        # digit g runs over exactly A_g
        assert [set(column) for column in zip(*table)] == [i.elements for i in ideals]
        for g, ideal in enumerate(ideals):
            for a in ideal.sorted_elements():
                single = [0] * len(ideals)
                single[g] = a
                assert ring.inject(g, a) == ring.encode(single)
                assert ring.coefficients(ring.inject(g, a)) == tuple(single)


def test_encode_refuses_a_wrong_length_and_a_coefficient_outside_its_ideal(skew_rings):
    refused_outside = 0
    for ring in skew_rings:
        ideals, amb = ring.action.ideals, ring.action.ambient
        for coeffs in ([0] * (len(ideals) - 1), [0] * (len(ideals) + 1)):
            with pytest.raises(MalformedInput, match="coefficients, one per morphism"):
                ring.encode(coeffs)
        outside = next(((g, a) for g, ideal in enumerate(ideals)
                        for a in range(amb.size) if a not in ideal), None)
        if outside is not None:
            g, a = outside
            coeffs = [0] * len(ideals)
            coeffs[g] = a
            with pytest.raises(MalformedInput, match="lies outside A_"):
                ring.encode(coeffs)
            with pytest.raises(MalformedInput, match="lies outside A_"):
                ring.inject(g, a)
            refused_outside += 1
    assert refused_outside > 100


@pytest.mark.parametrize("call, value", [
    (lambda ring: ring.encode([-1, 0, 0, 0]), "-1"),
    (lambda ring: ring.encode([9, 0, 0, 0]), "9"),
    (lambda ring: ring.inject(0, 100), "100"),
], ids=["encode -1", "encode 9", "inject 100"])
def test_encode_refuses_a_coefficient_that_is_no_ambient_element(call, value):
    ring = build_skew_ring(groupoid_ring_action(GaloisField(3), pair_groupoid(["e", "f"]))).ring
    with pytest.raises(MalformedInput, match=f"^coefficient {value} for A_e is not an "
                                             f"ambient element$"):
        call(ring)


class TestInvariantIdeals:
    def test_zero_action_splits(self, zero_action):
        amb = zero_action.ambient
        left = additive_closure(amb, [1])
        assert sigma_invariant_closure(zero_action, [1]).elements == left.elements
        res = is_A_G_prime(zero_action)
        assert not res.holds
        a, b, ia, ib = res.witness
        assert (a, b) == (1, 2)
        assert sorted(ia.elements) == [0, 1] and sorted(ib.elements) == [0, 2]

    def test_flip_merges_the_summands(self, flip_action):
        G = flip_action.groupoid
        closure = sigma_invariant_closure(flip_action, [1])
        assert len(closure) == 4
        assert reference_sigma_invariant(flip_action, closure, range(G.n_morphisms)) \
            == (True, None)
        assert is_A_G_prime(flip_action).holds

    def test_restricted_g8_component_pair(self, g8_action):
        sub = restrict_to_isotropy(g8_action, 0)
        res = is_A_G_prime(sub)
        assert not res.holds
        a, b, ia, ib = res.witness
        assert (a, b) == (1, 4)
        assert sorted(ia.elements) == [0, 1, 2, 3]
        assert sorted(ib.elements) == [0, 4, 8, 12]

    def test_closure_seed_is_range_checked(self, zero_action):
        with pytest.raises(MalformedInput):
            sigma_invariant_closure(zero_action, [99])


class TestPrincipalPartComparison:
    @pytest.mark.parametrize("build", [build_zero_partial_action,
                                       build_flip_partial_action,
                                       build_one_object_partial_action])
    def test_translation_preserves_primeness(self, build):
        res = psi_check(build())
        assert res.ok and res.mismatch is None

    def test_mismatch_is_reported_not_repaired(self, flip_action, monkeypatch):
        monkeypatch.setattr(gprime.partial, "is_A_G_prime",
                            lambda action: PairCriterionResult(False, None))
        res = psi_check(flip_action)
        assert not res.ok and res.mismatch == "primeness-comparison"

    @pytest.mark.parametrize("law", ["additive", "multiplicative"])
    def test_failing_law_is_named(self, law, monkeypatch):
        action = build_flip_partial_action()
        build_skew_ring(action)     # built before the patch, which psi_check alone sees
        monkeypatch.setattr(gprime.partial, "first_hom_failure", lambda *args: (law, 1, 1))
        res = psi_check(action)
        assert not res.ok and res.mismatch == law

    def test_image_off_the_identity_part_is_named(self, monkeypatch):
        action = build_flip_partial_action()
        grading = build_skew_ring(action)
        monkeypatch.setattr(grading, "principal_part",
                            lambda: additive_closure(grading.ring, []))
        res = psi_check(action)
        assert not res.ok and res.mismatch == "bijective"


class TestHubsAndChain:
    def test_zero_action_chain_is_all_false(self, zero_action):
        for e in (0, 1):
            res = group_type_chain(zero_action, e)
            assert (res.group_type, res.coefficient_membership,
                    res.nonzero_annihilation, res.support_hub) == (False, False, False, False)

    def test_flip_chain_is_all_true(self, flip_action):
        res = group_type_chain(flip_action, 0)
        assert (res.group_type, res.coefficient_membership,
                res.nonzero_annihilation, res.support_hub) == (True, True, True, True)

    def test_g8_chain_holds_at_both_objects(self, g8_action):
        for e in (0, 1):
            res = group_type_chain(g8_action, e)
            assert res.group_type and res.support_hub

    def test_one_object_identity_is_always_a_hub(self):
        action = build_one_object_partial_action()
        hub = skew_support_hub(action, 0)
        assert hub.is_hub and hub.blocking is None
        res = group_type_chain(action, 0)
        assert res.support_hub

    def test_dead_object_has_no_hub_question(self):
        G = pair_groupoid(["e", "f"])
        amb = DirectSumRing([GaloisField(2), CyclicRing(1)], keys=["e", "f"])
        action = validate_partial_action(G, amb, {}, {})
        with pytest.raises(ObjectNotInSupport):
            skew_support_hub(action, 1)
        with pytest.raises(ObjectNotInSupport):
            group_type_chain(action, 1)

    @pytest.mark.parametrize("build", [build_zero_partial_action,
                                       build_flip_partial_action,
                                       build_one_object_partial_action])
    def test_carrier_free_hub_matches_the_built_ring(self, build):
        action = build()
        grading = build_skew_ring(action)
        for e in action.support_objects():
            assert skew_support_hub(action, e).is_hub == is_support_hub(grading, e).is_hub

    def test_broken_chain_raises_the_alarm(self, flip_action, monkeypatch):
        monkeypatch.setattr(gprime.partial, "skew_support_hub",
                            lambda action, e: HubResult(False, (0, 1)))
        with pytest.raises(ChainViolation):
            group_type_chain(flip_action, 0)


class TestUnknownIndices:
    """An index that names no object of the global flip fixture raises
    UnknownObject at every public entry point that takes an object: never an
    answer for a wrapped-around index, an IndexError or the falsification
    alarm."""

    @pytest.fixture(scope="class")
    def act(self):
        return build_instance(parse(ROOT / "fixtures" / "global_flip_partial_action.json")).action

    @pytest.mark.parametrize("e", [-1, 7])
    def test_skew_support_hub(self, act, e):
        with pytest.raises(UnknownObject):
            skew_support_hub(act, e)

    @pytest.mark.parametrize("e", [-1, 2])
    def test_group_type_chain(self, act, e):
        with pytest.raises(UnknownObject):
            group_type_chain(act, e)

    @pytest.mark.parametrize("e", [-1, 9])
    def test_restrict_to_isotropy(self, act, e):
        with pytest.raises(UnknownObject):
            restrict_to_isotropy(act, e)

    @pytest.mark.parametrize("e", [1.5, -1, 2, None])
    def test_orbit_density_objects(self, e):
        with pytest.raises(UnknownObject):
            orbit_density_check(pair_groupoid(["e", "f"]), GaloisField(2), e)


class TestIsotropyReduction:
    def test_flip_restricts_to_the_base_field(self, flip_action):
        sub = restrict_to_isotropy(flip_action, 0)
        assert sub.ambient.size == 2
        assert sub.groupoid.n_morphisms == 1
        assert is_prime_bruteforce(build_skew_ring(sub).ring).prime

    def test_g8_isotropy_rings_are_not_prime(self, g8_action):
        for e in (0, 1):
            ring = build_skew_ring(restrict_to_isotropy(g8_action, e)).ring
            assert ring.size == 64
            assert not is_prime_bruteforce(ring).prime

    def test_verdict_by_oracle(self, flip_action, zero_action):
        v = skew_prime_verdict(flip_action)
        assert v.prime and v.method == "oracle"
        assert v.isotropy_prime == {0: True, 1: True}
        z = skew_prime_verdict(zero_action)
        assert not z.prime and z.method == "oracle"
        assert z.isotropy_prime == {} and z.oracle.witness is not None

    def test_verdict_by_reduction(self, g8_action):
        v = skew_prime_verdict(g8_action)
        assert not v.prime
        assert v.method == "group-type"
        assert v.isotropy_prime == {0: False, 1: False}
        assert v.oracle is None

    def test_verdict_refused_without_transport(self):
        G = pair_groupoid(["e", "f"])
        amb = DirectSumRing([CyclicRing(128), CyclicRing(64)], keys=["e", "f"])
        action = validate_partial_action(G, amb, {}, {})
        with pytest.raises(BoundExceeded, match="transport"):
            skew_prime_verdict(action)

    def test_routes_are_compared_when_both_run(self, zero_action, monkeypatch):
        # claim a transport family on the split action: the reduction then
        # sees a prime field at e while the oracle sees the direct sum
        monkeypatch.setattr(gprime.partial, "is_group_type",
                            lambda action: GroupTypeResult(True, 0, {0: 0}, None))
        with pytest.raises(InternalDisagreement):
            skew_prime_verdict(zero_action)

    def test_default_prime_derives_each_verdict_once(self, monkeypatch, capsys):
        # count entries into the undecorated bodies, however they are reached
        names = ("skew_prime_verdict", "isotropy_reduction", "is_group_type")
        codes = {getattr(gprime.partial, n).__wrapped__.__code__: n for n in names}
        counts = dict.fromkeys(names, 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                counts[codes[frame.f_code]] += 1

        monkeypatch.chdir(ROOT)
        sys.setprofile(profile)
        try:
            code = cli.main(["prime", "fixtures/global_flip_partial_action.json"])
        finally:
            sys.setprofile(None)
        assert code == 0 and "verdict: yes" in capsys.readouterr().out
        assert counts == dict.fromkeys(names, 1)


class TestGlobalConnectivity:
    def test_connected_global_actions_have_hubs_everywhere(self, flip_action):
        assert global_support_connectivity_check(flip_action)
        action = groupoid_ring_action(GaloisField(2), pair_groupoid(["e", "f"]))
        assert global_support_connectivity_check(action)

    def test_disconnected_global_action_has_none(self):
        action = groupoid_ring_action(GaloisField(2), disconnected_groupoid())
        assert not global_support_connectivity_check(action)

    def test_partial_actions_are_rejected(self, zero_action):
        with pytest.raises(MalformedInput):
            global_support_connectivity_check(zero_action)

    def test_quantifier_disagreement_raises(self, flip_action, monkeypatch):
        monkeypatch.setattr(gprime.partial, "skew_support_hub",
                            lambda action, e: HubResult(False, (0, 1)))
        with pytest.raises(InternalDisagreement):
            global_support_connectivity_check(flip_action)


class TestGroupRingCriterion:
    def test_pair_groupoid_over_a_field_passes(self):
        res = connell_check(GaloisField(2), pair_groupoid(["e", "f"]))
        assert res.holds and res.reasons == ()

    def test_finite_isotropy_blocks_primeness(self):
        G = one_object_groupoid(FiniteGroup.cyclic(2), "e")
        res = connell_check(GaloisField(2), G)
        assert not res.holds and not res.isotropy_ok
        assert any("order 2" in r for r in res.reasons)
        assert not is_prime_bruteforce(build_groupoid_ring(GaloisField(2), G).ring).prime

    def test_disconnection_blocks_primeness(self):
        res = connell_check(GaloisField(2), disconnected_groupoid())
        assert not res.holds and res.reasons == ("the groupoid is not connected",)

    def test_bad_coefficients_block_primeness(self):
        res = connell_check(CyclicRing(4), pair_groupoid(["e", "f"]))
        assert not res.holds and not res.coefficients_prime
        assert res.connected and res.isotropy_ok

    def test_degenerate_and_nonsunital_bases_are_rejected(self):
        with pytest.raises(DegenerateInstance):
            connell_check(CyclicRing(1), pair_groupoid(["e"]))
        with pytest.raises(NotSUnital):
            connell_check(SubRing(CyclicRing(8), {0, 2, 4, 6}), pair_groupoid(["e"]))

    def test_criterion_matches_the_oracle_on_a_grid(self):
        bases = [GaloisField(2), GaloisField(3), CyclicRing(4)]
        groupoids = [pair_groupoid(["e", "f"]),
                     one_object_groupoid(FiniteGroup.cyclic(2), "e"),
                     disconnected_groupoid()]
        for base in bases:
            for G in groupoids:
                predicted = connell_check(base, G).holds
                observed = is_prime_bruteforce(build_groupoid_ring(base, G).ring).prime
                assert predicted == observed, (base.tag, G.n_morphisms)


class TestDensity:
    def test_orbit_density_tracks_connectivity(self):
        assert orbit_density_check(pair_groupoid(["e", "f"]), GaloisField(2), 0)
        assert not orbit_density_check(disconnected_groupoid(), GaloisField(2), 0)
        G = pair_groupoid(["f1", "f2", "f3"])
        assert all(orbit_density_check(G, GaloisField(2), e) for e in range(3))

    def test_disagreement_with_connectivity_raises_the_alarm(self, monkeypatch):
        monkeypatch.setattr(gprime.partial, "is_connected", lambda groupoid: False)
        with pytest.raises(InternalDisagreement, match="disagrees with connectivity"):
            orbit_density_check(pair_groupoid(["e", "f"]), GaloisField(2), 0)

    def test_the_zero_coefficient_ring_is_degenerate(self):
        with pytest.raises(DegenerateInstance):
            orbit_density_check(pair_groupoid(["e", "f"]), CyclicRing(1), 0)

    def test_coefficients_must_be_unital_and_commutative(self):
        with pytest.raises(MalformedInput, match="commutative"):
            orbit_density_check(pair_groupoid(["e"]), MatrixRing(GaloisField(2), 2), 0)
        with pytest.raises(MalformedInput, match="unital"):
            orbit_density_check(pair_groupoid(["e"]), SubRing(CyclicRing(8), {0, 2, 4, 6}), 0)


class TestSufficientConditions:
    def test_flip_fires_all_three_clauses(self, flip_action):
        rep = sufficient_conditions_report(flip_action)
        assert is_group_type(flip_action).holds and is_A_G_prime(flip_action).holds
        assert rep.applicable
        assert rep.trivial_isotropy_at == 0
        assert rep.intersection_at == 0
        assert rep.maximal_commutative_at == 0
        assert rep.guarantees_prime

    def test_zero_action_is_out_of_scope(self, zero_action):
        # clauses fire pointwise, but neither hypothesis holds, so the
        # report stays silent about the (in fact non-prime) product
        rep = sufficient_conditions_report(zero_action)
        assert not is_group_type(zero_action).holds and not is_A_G_prime(zero_action).holds
        assert not rep.applicable
        assert rep.trivial_isotropy_at == 0
        assert not rep.guarantees_prime

    def test_applicable_but_no_clause_fires(self):
        action = groupoid_ring_action(GaloisField(2), one_object_groupoid(FiniteGroup.cyclic(2), "e"))
        rep = sufficient_conditions_report(action)
        assert rep.applicable
        assert rep.trivial_isotropy_at is None
        assert rep.intersection_at is None
        assert rep.maximal_commutative_at is None
        assert not rep.guarantees_prime
        assert not skew_prime_verdict(action).prime

    def test_g8_components_fail_the_loop_group_test(self, g8_action):
        rep = sufficient_conditions_report(g8_action)
        assert is_group_type(g8_action).holds and not is_A_G_prime(g8_action).holds
        assert rep.applicable
        assert (rep.trivial_isotropy_at, rep.intersection_at,
                rep.maximal_commutative_at) == (None, None, None)
        assert not rep.guarantees_prime

    def test_contradicting_verdict_raises(self, flip_action, monkeypatch):
        monkeypatch.setattr(gprime.partial, "skew_prime_verdict",
                            lambda action: SkewPrimeVerdictStub)
        with pytest.raises(InternalDisagreement):
            sufficient_conditions_report(flip_action)


class SkewPrimeVerdictStub:
    prime = False
