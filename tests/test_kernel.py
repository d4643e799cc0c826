"""``rings._kernel`` and the sites it serves, against the element sweeps
they replaced (``span_reference``), and orbit density against the
groupoid-ring scan.

``centralizer``, ``phi``, ``_meets_identity_part`` and the overlap witness
of ``validate_grading`` read kernels and meets off one canonical basis.
Here their whole results (subgroup keys, the ``NotDirectSum`` witness and
message) must match the sweeps: on the fixture carriers, on the
``generate_instance`` corpus, and through hypothesis over carriers with
mixed moduli, where every ``sigma_invariant_closure`` must also pass the
sweep's sigma-invariance test.  ``orbit_density_check``
reads density off the groupoid; its verdict must match
``reference_r_dense``, which scans the built groupoid ring, at the orbit of
every object.  Two guards count the work: ``centralizer`` makes two ring
products per pair of generators, and ``orbit_density_check`` builds no
groupoid ring and makes no ring product.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gprime import fuzz, grading as grading_module
from gprime.errors import BoundExceeded, MalformedInput, NotDirectSum, NotGraded
from gprime.grading import GradedIdeal, phi, validate_grading
from gprime.groupoid import (FiniteGroup, one_object_groupoid, orbit, pair_groupoid,
                             validate_groupoid)
from gprime.instances import build_instance, carrier_grading, parse
from gprime.partial import (GroupoidRing, SkewGroupoidRing, _meets_identity_part,
                            groupoid_ring_action, orbit_density_check, restrict_to_isotropy,
                            sigma_invariant_closure)
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, GroupRing, MatrixRing,
                          _kernel, additive_closure, centralizer, enumerate_ideals,
                          is_commutative, is_maximal_commutative, principal_ideal)
from span_reference import (reference_centralizer, reference_meet, reference_meets_identity_part,
                            reference_overlap_witness, reference_r_dense,
                            reference_sigma_invariant)
from test_direct_sum import zero_product

ROOT = Path(__file__).resolve().parents[1]
BOUND = 4096
SWEEP_BOUND = 512       # carriers the reference sweeps walk element by element


def meet(a, b):
    """A n B by ``_kernel`` on the rows (a, a) and (b, 0)."""
    return additive_closure(a.ring, _kernel(a.ring, [(x, x) for x in a.gens]
                                            + [(y, 0) for y in b.gens]))


@lru_cache(maxsize=None)
def fixture_instances():
    return [(path.stem, build_instance(parse(path)))
            for path in sorted((ROOT / "fixtures").glob("*.json"))]


@lru_cache(maxsize=None)
def fixture_gradings():
    out = []
    for name, built in fixture_instances():
        try:
            out.append((name, carrier_grading(built)))
        except BoundExceeded:
            continue
    return out


@lru_cache(maxsize=None)
def generated():
    """``generate_instance``, three draws for each seed 0-29."""
    out = []
    for seed in range(30):
        rng = random.Random(seed)
        for draw in range(3):
            out.append((f"seed {seed} draw {draw}", fuzz.generate_instance(rng, BOUND)))
    return out


def generated_gradings():
    return [(name, inst.grading) for name, inst in generated()]


def subgroups_of(grading):
    """The identity part, every nonzero component and a few principal ideals."""
    ring = grading.ring
    subs = [grading.principal_part()] + [c for c in grading.components if not c.is_zero()]
    return subs + [principal_ideal(ring, x) for x in range(1, ring.size, max(1, ring.size // 5))]


def test_the_corpora_cover_every_instance_kind():
    assert len(fixture_gradings()) >= 8
    kinds = {inst.kind for _, inst in generated()}
    assert kinds == {"matrix_grading", "groupoid_ring", "partial_action"}


@pytest.mark.parametrize("corpus", [fixture_gradings, generated_gradings])
def test_centralizer_matches_the_sweep(corpus):
    compared = 0
    for name, grading in corpus():
        ring = grading.ring
        if ring.size > SWEEP_BOUND:
            continue
        for sub in subgroups_of(grading):
            assert centralizer(ring, sub).key == reference_centralizer(ring, sub).key, name
            compared += 1
    assert compared > 20


@pytest.mark.parametrize("corpus", [fixture_gradings, generated_gradings])
def test_meet_matches_the_element_sets(corpus):
    for name, grading in corpus():
        subs = subgroups_of(grading)
        for a, b in combinations(subs, 2):
            assert meet(a, b).key == reference_meet(a, b).key, name
            witness = min(_kernel(grading.ring, [(x, 0) for x in a.gens]
                                  + [(y, y) for y in b.gens]), default=None)
            assert witness == reference_overlap_witness(grading.ring, a.gens, b.gens), name


@pytest.mark.parametrize("corpus", [fixture_gradings, generated_gradings])
def test_meets_identity_part_matches_the_scan(corpus):
    seen = set()
    for name, grading in corpus():
        if grading.ring.size > SWEEP_BOUND:
            continue
        expected = reference_meets_identity_part(grading)
        assert _meets_identity_part(grading) == expected, name
        seen.add(expected)
    assert seen == {True, False}


def test_phi_is_the_element_set_meet():
    compared = 0
    for name, grading in generated_gradings() + fixture_gradings():
        ring = grading.ring
        if ring.size > 128:
            continue
        P = grading.principal_part()
        for ideal in enumerate_ideals(ring).ideals:
            try:
                graded = GradedIdeal.of(grading, ideal)
            except NotGraded:
                continue
            expected = reference_meet(ideal, P).key
            assert phi(grading, ideal).key == expected, name
            assert phi(grading, graded).key == expected, name
            compared += 1
    assert compared > 50


def actions():
    """Every partial action of the fixtures and the corpus, with the
    isotropy restrictions of the fixtures' ones."""
    out = []
    for name, built in fixture_instances():
        if built.action is not None:
            out.append((name, built.action))
            for e in built.action.support_objects():
                out.append((f"{name} isotropy {e}", restrict_to_isotropy(built.action, e)))
    out += [(name, inst.action) for name, inst in generated() if inst.action is not None]
    out += [(f"{name} groupoid ring", groupoid_ring_action(inst.base, inst.groupoid))
            for name, inst in generated() if inst.base is not None and inst.base.size ** 2 <= 64]
    return out


def test_sigma_invariance_matches_the_element_sweep():
    """An ideal is sigma-invariant exactly when ``sigma_invariant_closure``
    of its generators gives it back, and every closure passes the sweep."""
    verdicts = set()
    for name, action in actions():
        amb, n = action.ambient, action.groupoid.n_morphisms
        subs = list(action.ideals) + [principal_ideal(amb, x) for x in range(amb.size)]
        for sub in subs:
            expected = reference_sigma_invariant(action, sub, range(n))[0]
            closure = sigma_invariant_closure(action, sub.gens)
            assert (closure.elements == sub.elements) == expected, name
            assert reference_sigma_invariant(action, closure, range(n)) == (True, None), name
            verdicts.add(expected)
    assert verdicts == {True, False}


def groupoid_rings():
    out = [(name, built.groupoid, built.base) for name, built in fixture_instances()
           if built.base is not None]
    out += [(name, inst.groupoid, inst.base) for name, inst in generated()
            if inst.base is not None]
    return out


def test_orbit_density_matches_the_sweep():
    verdicts = set()
    for name, G, base in groupoid_rings():
        if base.size ** G.n_morphisms > SWEEP_BOUND \
                or base.one is None or not is_commutative(base):
            continue
        for e in range(G.n_objects):
            expected = reference_r_dense(G, base, orbit(G, e)).dense
            assert orbit_density_check(G, base, e) == expected, (name, e)
            verdicts.add(expected)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# mixed moduli, through hypothesis
# ---------------------------------------------------------------------------

CARRIERS = (
    lambda: CyclicRing(4),
    lambda: DirectSumRing([CyclicRing(8), CyclicRing(2), GaloisField(3)]),
    lambda: MatrixRing(CyclicRing(4), 2),
    lambda: GroupRing(GaloisField(2, 2), FiniteGroup.klein_four()),
)
carrier = lru_cache(maxsize=None)(lambda i: CARRIERS[i]())


zero_carrier = lru_cache(maxsize=None)(lambda i: zero_product(carrier(i)))

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@SETTINGS
@given(st.integers(0, len(CARRIERS) - 1), st.data())
def test_meet_and_centralizer_over_mixed_moduli(index, data):
    ring = carrier(index)
    element = st.integers(0, ring.size - 1)
    a = additive_closure(ring, data.draw(st.lists(element, max_size=3)))
    b = additive_closure(ring, data.draw(st.lists(element, max_size=3)))
    assert meet(a, b).key == reference_meet(a, b).key
    assert min(_kernel(ring, [(x, 0) for x in a.gens] + [(y, y) for y in b.gens]),
               default=None) == reference_overlap_witness(ring, a.gens, b.gens)
    assert centralizer(ring, a).key == reference_centralizer(ring, a).key


@SETTINGS
@given(st.integers(0, len(CARRIERS) - 1), st.data())
def test_overlap_witness_and_message_over_mixed_moduli(index, data):
    ring = zero_carrier(index)
    G = pair_groupoid(["e", "f"])
    element = st.integers(0, ring.size - 1)
    gens = [data.draw(st.lists(element, max_size=2)) for _ in range(G.n_morphisms)]
    assume(any(x for c in gens for x in c))
    try:
        validate_grading(G, ring, dict(enumerate(gens)))
    except NotDirectSum as exc:
        error = exc
    else:
        error = None
    assume(error is not None and error.witness is not None)
    g, x = error.witness
    assert x == reference_overlap_witness(
        ring, [y for c in gens[:g] for y in additive_closure(ring, c).gens],
        additive_closure(ring, gens[g]).gens)
    assert str(error) == (
        f"[direct-sum] components overlap: {ring.label(x)} lies in S_{G.morphisms[g]} "
        f"and in the earlier components (at morphism {G.morphisms[g]!r})")


GROUPOIDS = (
    lambda: pair_groupoid(["e"]),
    lambda: validate_groupoid({"objects": ["e", "f"], "morphisms": [],
                               "compose": [], "inverse": {}}),
    lambda: pair_groupoid(["e", "f"]),
    lambda: one_object_groupoid(FiniteGroup.cyclic(2), "e"),
)


@SETTINGS
@given(st.integers(0, len(CARRIERS) - 1), st.integers(0, len(GROUPOIDS) - 1), st.data())
def test_density_and_sigma_invariance_over_mixed_moduli(index, which, data):
    base, G = carrier(index), GROUPOIDS[which]()
    assume(base.size ** G.n_morphisms <= 1024)
    e = data.draw(st.integers(0, G.n_objects - 1))
    if is_commutative(base):
        assert orbit_density_check(G, base, e) == reference_r_dense(G, base, orbit(G, e)).dense
    else:
        with pytest.raises(MalformedInput, match="commutative"):
            orbit_density_check(G, base, e)
    action = groupoid_ring_action(base, G)
    seed = data.draw(st.lists(st.integers(0, action.ambient.size - 1), max_size=3))
    closure = sigma_invariant_closure(action, seed)
    assert set(seed) <= closure.elements
    assert reference_sigma_invariant(action, closure, range(G.n_morphisms)) == (True, None)


# ---------------------------------------------------------------------------
# work guards: operation counts, not times
# ---------------------------------------------------------------------------

def counting(ring):
    """Shadow ``ring.mul`` with a wrapper that counts its calls."""
    calls, mul = [0], ring.mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)
    ring.mul = counted
    return calls


def test_centralizer_makes_two_products_per_generator_pair():
    ring = MatrixRing(GaloisField(3), 3)
    diagonal = additive_closure(ring, [ring.unit(i, i) for i in range(3)])
    calls = counting(ring)
    assert is_maximal_commutative(ring, diagonal)
    assert calls[0] <= 2 * len(ring.additive_generators()) * len(diagonal.gens)


def test_orbit_density_builds_no_groupoid_ring_and_makes_no_product(monkeypatch):
    G, base = pair_groupoid(["e", "f"]), GaloisField(3)
    builds = [0]
    for cls in (GroupoidRing, SkewGroupoidRing):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            builds[0] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    calls = counting(base)
    assert orbit_density_check(G, base, 0) and orbit_density_check(G, base, 1)
    assert builds == [0] and calls == [0]


def test_the_fuzz_round_trips_hand_their_graded_ideals_on(monkeypatch):
    """``phi`` takes a ``GradedIdeal`` as checked, and the fuzz harness
    keeps the ones its filter made, so the phi/psi round trips of one pass
    of the fuzz workload run ``GradedIdeal.of`` 88 times (199 when both maps
    re-checked every ideal): 51 in the filter, 37 inside ``psi``."""
    runs, of = [0], GradedIdeal.of

    def counted(grading, ideal):
        runs[0] += 1
        return of(grading, ideal)
    monkeypatch.setattr(grading_module.GradedIdeal, "of", staticmethod(counted))
    for seed, count in ((2, 8), (5, 8), (32, 1), (38, 1)):
        fuzz.run_fuzz(seed, count)
    assert runs[0] == 88
