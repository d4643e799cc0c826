"""Randomized properties, driven by hypothesis over generated instances.

The fuzz harness asserts these invariants over its own random stream; here
hypothesis owns the choices (and shrinks them), which exercises the same
laws from a second, independent angle.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (build_block_grading, build_disconnected_grading,
                      build_group_ring_grading, build_m3_grading)
from gprime.fuzz import (_random_groupoid_ring, _random_matrix_grading,
                         _random_partial_action, generate_instance)
from gprime.grading import (GradedIdeal, is_G_prime_principal,
                            is_graded_prime, is_nearly_epsilon_strong,
                            is_support_hub, phi, project, psi,
                            support_groupoid)
from gprime.groupoid import is_connected
from gprime.partial import (build_groupoid_ring, build_skew_ring,
                            connell_check, is_global, is_group_type,
                            skew_support_hub)
from gprime.primeness import equivalence_report
from gprime.rings import ideal_generated, is_prime_bruteforce

SIZE_CAP = 512
COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])

BUILDERS = (build_m3_grading, build_block_grading,
            build_group_ring_grading, build_disconnected_grading)


@lru_cache(maxsize=None)
def generated(seed: int):
    return generate_instance(random.Random(f"prop:{seed}"), SIZE_CAP)


@lru_cache(maxsize=None)
def generated_action(seed: int):
    return _random_partial_action(random.Random(f"prop-act:{seed}"), SIZE_CAP)


@lru_cache(maxsize=None)
def generated_groupoid_ring(seed: int):
    rng = random.Random(f"prop-conv:{seed}")
    base, G = _random_groupoid_ring(rng, 256)
    return base, G, build_groupoid_ring(base, G, SIZE_CAP)


@lru_cache(maxsize=None)
def handwritten(index: int):
    return BUILDERS[index]()


@st.composite
def gradings(draw):
    """A graded carrier: handwritten example or generated instance."""
    pick = draw(st.integers(0, len(BUILDERS) + 11))
    if pick < len(BUILDERS):
        return handwritten(pick)
    return generated(draw(st.integers(0, 9999))).grading


class TestProjection:
    """Component projections are linear and slide past identity-supported
    factors regardless of which morphism set is kept."""

    @settings(max_examples=25, **COMMON)
    @given(gradings(), st.data())
    def test_projection_lemma(self, grading, data):
        ring, G = grading.ring, grading.groupoid
        hs = data.draw(st.sets(st.integers(0, G.n_morphisms - 1)))
        a = data.draw(st.integers(0, ring.size - 1))
        a2 = data.draw(st.integers(0, ring.size - 1))
        assert project(grading, hs, ring.add(a, a2)) == ring.add(
            project(grading, hs, a), project(grading, hs, a2))
        b = data.draw(st.sampled_from(grading.principal_part().sorted_elements()))
        assert project(grading, hs, ring.mul(a, b)) == ring.mul(
            project(grading, hs, a), b)
        assert project(grading, hs, ring.mul(b, a)) == ring.mul(
            b, project(grading, hs, a))

    @settings(max_examples=25, **COMMON)
    @given(gradings(), st.data())
    def test_projection_is_idempotent_and_supported(self, grading, data):
        ring, G = grading.ring, grading.groupoid
        hs = data.draw(st.sets(st.integers(0, G.n_morphisms - 1)))
        x = data.draw(st.integers(0, ring.size - 1))
        once = project(grading, hs, x)
        assert project(grading, hs, once) == once
        # dropping every morphism kills everything, keeping all is the identity
        assert project(grading, (), x) == 0
        assert project(grading, range(G.n_morphisms), x) == x


class TestNearEpsilonStrong:
    """Generated instances certify near epsilon-strongness, and the
    certificate replays: each homogeneous d has its one-sided units in the
    right component products."""

    @settings(max_examples=20, **COMMON)
    @given(st.integers(0, 9999), st.data())
    def test_certificate_replays(self, seed, data):
        grading = generated(seed).grading
        nes = is_nearly_epsilon_strong(grading)
        assert nes.holds
        assert not nes.failures
        if not nes.certificate:
            return
        mul = grading.ring.mul
        entries = data.draw(st.lists(
            st.sampled_from(sorted(nes.certificate)), max_size=12))
        for g, d in entries:
            eps, eps2 = nes.certificate[(g, d)]
            assert mul(eps, d) == d
            assert mul(d, eps2) == d


class TestIdealCorrespondence:
    """phi and psi are mutually inverse between graded ideals of the carrier
    and invariant ideals of the identity-component ring."""

    @settings(max_examples=20, **COMMON)
    @given(gradings(), st.data())
    def test_round_trips_on_homogeneous_ideals(self, grading, data):
        ring, G = grading.ring, grading.groupoid
        if ring.size > 256:
            return
        gens = []
        for _ in range(data.draw(st.integers(1, 2))):
            g = data.draw(st.integers(0, G.n_morphisms - 1))
            gens.append(data.draw(st.sampled_from(
                grading.components[g].sorted_elements())))
        ideal = ideal_generated(ring, gens)
        GradedIdeal.of(grading, ideal)  # homogeneous generators: stays graded
        down = phi(grading, ideal)
        assert psi(grading, down).ideal.elements == ideal.elements
        assert phi(grading, psi(grading, down)).elements == down.elements

    @settings(max_examples=20, **COMMON)
    @given(gradings())
    def test_graded_primeness_equals_invariant_criterion(self, grading):
        assert is_graded_prime(grading).holds == is_G_prime_principal(grading).holds


class TestPrimenessConcordance:
    """All decision routes agree on every generated instance."""

    @settings(max_examples=15, **COMMON)
    @given(st.integers(0, 9999))
    def test_seven_conditions_agree(self, seed):
        inst = generated(seed)
        rep = equivalence_report(inst.grading)
        assert len(set(rep.conditions.values())) == 1
        assert rep.verdict == next(iter(rep.conditions.values()))

    @settings(max_examples=15, **COMMON)
    @given(st.integers(0, 9999))
    def test_hub_and_isotropy_structure(self, seed):
        inst = generated(seed)
        rep = equivalence_report(inst.grading)
        if rep.verdict:
            assert all(ev.isotropy_prime.prime for ev in rep.per_object.values())
        if any(ev.hub.is_hub and ev.isotropy_prime.prime
               for ev in rep.per_object.values()):
            assert rep.verdict


class TestPartialActions:
    """Carrier-free reductions match the carrier wherever both exist."""

    @settings(max_examples=15, **COMMON)
    @given(st.integers(0, 9999))
    def test_skew_hubs_match_grading_hubs(self, seed):
        act = generated_action(seed)
        grading = build_skew_ring(act)
        for e in act.support_objects():
            assert (skew_support_hub(act, e).is_hub
                    == is_support_hub(grading, e).is_hub)

    @settings(max_examples=15, **COMMON)
    @given(st.integers(0, 9999))
    def test_global_connected_actions_are_group_type(self, seed):
        act = generated_action(seed)
        if is_global(act) and is_connected(act.groupoid):
            assert is_group_type(act).holds


class TestGroupoidRings:
    """The three-part criterion tracks the oracle on convolution carriers."""

    @settings(max_examples=12, **COMMON)
    @given(st.integers(0, 9999))
    def test_criterion_matches_oracle(self, seed):
        base, G, grading = generated_groupoid_ring(seed)
        crit = connell_check(base, G)
        oracle = is_prime_bruteforce(grading.ring)
        assert crit.holds == oracle.prime

    @settings(max_examples=12, **COMMON)
    @given(st.integers(0, 9999))
    def test_disconnection_is_always_fatal(self, seed):
        base, G, grading = generated_groupoid_ring(seed)
        if not is_connected(G):
            crit = connell_check(base, G)
            assert not crit.holds
            assert not is_prime_bruteforce(grading.ring).prime
