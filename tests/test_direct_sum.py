"""Directness, ``Grading.decompose`` and ``GradedIdeal.of`` against the
per-element references.

``validate_grading`` decides directness on one canonical basis of the
component generators, ``decompose`` reduces against a fold basis, and
``GradedIdeal.of`` checks the ideal's generators only.  Here they must agree
with the staged sweep of partial sums (``reference_decompose``) and with a
per-member gradedness check: on every fixture grading, its isotropy
components and 360 generated gradings, and, through hypothesis, on random
components over carriers with Z/4, GF(3) and GF(2) coordinates.
"""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gprime import fuzz
from gprime.errors import AxiomViolation, BoundExceeded, DegenerateInstance, NotDirectSum, NotGraded
from gprime.grading import GradedIdeal, Grading, isotropy_component, validate_grading
from gprime.groupoid import FiniteGroup, one_object_groupoid, pair_groupoid
from gprime.instances import build_instance, carrier_grading, parse
from gprime.rings import CyclicRing, DirectSumRing, GaloisField, TableRing, enumerate_ideals
from span_reference import reference_decompose, reference_span

ROOT = Path(__file__).resolve().parents[1]
BOUND = 4096


@lru_cache(maxsize=None)
def fixture_corpus():
    """Every fixture's product-ring grading and its isotropy components."""
    out = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        try:
            grading = carrier_grading(build_instance(parse(path)))
        except BoundExceeded:
            continue
        out.append((path.stem, grading))
        for e in range(grading.groupoid.n_objects):
            try:
                out.append((f"{path.stem} isotropy {e}", isotropy_component(grading, e).grading))
            except DegenerateInstance:
                continue
    return out


@lru_cache(maxsize=None)
def generated_corpus():
    """The gradings of ``generate_instance``, six draws for each seed 0-59."""
    out = []
    for seed in range(60):
        rng = random.Random(seed)
        for draw in range(6):
            out.append((f"seed {seed} draw {draw}", fuzz.generate_instance(rng, BOUND).grading))
    return out


def gens_of(grading):
    return [c.gens for c in grading.components]


def test_the_corpus_covers_every_instance_kind():
    names = [name for name, _ in fixture_corpus()]
    assert len(names) > 9 and any("isotropy" in name for name in names)
    assert len(generated_corpus()) == 360


@pytest.mark.parametrize("corpus", [fixture_corpus, generated_corpus])
def test_decompose_matches_the_staged_sweep_on_every_element(corpus):
    for name, grading in corpus():
        table = reference_decompose(grading.ring, gens_of(grading))   # direct: no raise
        assert [grading.decompose(x) for x in range(grading.ring.size)] == \
            [table[x] for x in range(grading.ring.size)], name


def reference_graded_parts(table, ideal):
    """The parts of a graded ideal by decomposing every member, or None."""
    parts = [set() for _ in table[0]]
    for x in ideal.sorted_elements():
        for g, p in enumerate(table[x]):
            if p not in ideal.elements:
                return None
            parts[g].add(p)
    return tuple(frozenset(p) for p in parts)


def test_graded_ideal_of_matches_the_per_member_check():
    checked = refused = 0
    for name, grading in generated_corpus():
        ring = grading.ring
        if ring.size > 128:
            continue
        table = reference_decompose(ring, gens_of(grading))
        for ideal in enumerate_ideals(ring).ideals:
            expected = reference_graded_parts(table, ideal)
            if expected is None:
                with pytest.raises(NotGraded):
                    GradedIdeal.of(grading, ideal)
                refused += 1
            else:
                assert GradedIdeal.of(grading, ideal).parts == expected, name
                checked += 1
    assert checked > 100 and refused > 10


def zero_product(ring):
    """The additive group of ``ring`` with the zero multiplication, so that
    every choice of components is compatible and only directness decides."""
    n = ring.size
    return TableRing([[ring.add(a, b) for b in range(n)] for a in range(n)],
                     [[0] * n for _ in range(n)])


CARRIERS = (
    lambda: zero_product(CyclicRing(4)),
    lambda: zero_product(DirectSumRing([CyclicRing(4), GaloisField(3)])),
    lambda: zero_product(DirectSumRing([CyclicRing(2), CyclicRing(4)])),
    lambda: zero_product(DirectSumRing([GaloisField(3), GaloisField(3)])),
    lambda: zero_product(DirectSumRing([CyclicRing(2)] * 3)),
    lambda: DirectSumRing([CyclicRing(4), GaloisField(3)]),
)
GROUPOIDS = (
    lambda: pair_groupoid(["e", "f"]),
    lambda: one_object_groupoid(FiniteGroup.cyclic(3)),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.integers(0, len(CARRIERS) - 1), st.integers(0, len(GROUPOIDS) - 1), st.data())
def test_directness_verdict_matches_the_staged_sweep(carrier, groupoid, data):
    ring, G = CARRIERS[carrier](), GROUPOIDS[groupoid]()
    element = st.integers(0, ring.size - 1)
    gens = [data.draw(st.lists(element, max_size=2)) for _ in range(G.n_morphisms)]
    assume(any(x for c in gens for x in c))
    try:
        table = reference_decompose(ring, gens)
    except NotDirectSum as exc:
        expected = exc.witness
    else:
        expected = "direct"
    try:
        grading = validate_grading(G, ring, dict(enumerate(gens)))
    except NotDirectSum as exc:
        if expected is None:
            assert exc.witness is None and "span only" in str(exc)
            return
        assert expected != "direct" and exc.witness is not None
        g, x = exc.witness
        assert g == expected
        earlier = [y for c in gens[:g] for y in c]
        assert x != 0 and x in reference_span(ring, gens[g])[0]
        assert x in reference_span(ring, earlier)[0]
        assert f"{ring.label(x)} lies in S_{G.morphisms[g]}" in str(exc)
        assert f"(at morphism {G.morphisms[g]!r})" in str(exc)
        return
    except AxiomViolation as exc:
        # only the carrier with a product can fail compatibility, which is
        # checked before directness
        assert exc.axiom == "grading" and carrier == len(CARRIERS) - 1
        return
    assert expected == "direct"
    assert [grading.decompose(x) for x in range(ring.size)] == \
        [table[x] for x in range(ring.size)]


def test_a_fault_in_decompose_propagates_out_of_check_instance(monkeypatch):
    """The phi/psi round trip skips only ideals that are not graded; any
    other error in ``GradedIdeal.of`` reaches the caller."""
    rng = random.Random(0)
    inst = next(i for i in (fuzz.generate_instance(rng, BOUND) for _ in range(50))
                if i.grading is not None and i.size <= 128)
    grading = inst.grading
    ring = grading.ring
    table = {x: grading.decompose(x) for x in range(ring.size)}

    def project(grading, hs, x):
        out = 0
        for g in set(hs):
            out = ring.add(out, table[x][g])
        return out

    def broken(self, x):
        raise KeyError(x)

    monkeypatch.setattr(fuzz, "project", project)
    monkeypatch.setattr(Grading, "decompose", broken)
    with pytest.raises(KeyError):
        fuzz.check_instance(random.Random(0), inst)
