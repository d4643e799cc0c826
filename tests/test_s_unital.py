"""The generator criterion of ``is_s_unital`` against the per-member
reference, and against the element-order search of
``span_reference.s_unit_for``.

The reference (``span_reference.reference_s_unital_sides``) tests every
member m of X for m in Xm and m in mX on frozenset spans.  They must agree
on every call that the commands make on the bundled fixtures and that
``run_fuzz(2, 8)`` and ``run_fuzz(5, 8)`` make, on one-sided rings, and on
rings, ideals, one-sided ideals and subrings drawn from carriers whose
Hermite pivots are not units.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gprime import cli, fuzz, grading, partial
from gprime.errors import AxiomViolation, NotSUnital
from gprime.fuzz import run_fuzz
from gprime.groupoid import pair_groupoid
from gprime.partial import validate_partial_action
from gprime.rings import (CyclicRing, DirectSumRing, FiniteRing, GaloisField, Ideal,
                          MatrixRing, SubRing, additive_closure, ideal_generated,
                          is_s_unital)
from span_reference import reference_s_unital_sides, s_unit_for
from test_span_engine import NON_UNIT_PIVOTS, SMALL, relabelled

ROOT = Path(__file__).resolve().parents[1]


def has_two_sided_unit(x):
    try:
        s_unit_for(x, x.additive_generators() if isinstance(x, FiniteRing) else x.gens)
    except NotSUnital:
        return False
    return True


@pytest.fixture(scope="module")
def recorded_calls():
    """Every argument ``is_s_unital`` is called with by the four instance
    commands on the fixtures and by two fuzz runs."""
    calls = []

    def recording(x):
        calls.append(x)
        return is_s_unital(x)

    patch = pytest.MonkeyPatch()
    for module in (grading, partial, fuzz):
        patch.setattr(module, "is_s_unital", recording)
    try:
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            for command in ("validate", "analyze", "prime", "equivalence"):
                cli.main([command, str(path)])
        run_fuzz(2, 8)
        run_fuzz(5, 8)
    finally:
        patch.undo()
    return calls


def test_matches_reference_on_recorded_calls(recorded_calls, capsys):
    capsys.readouterr()
    verdicts = set()
    for x in recorded_calls:
        verdict = is_s_unital(x)
        assert verdict == all(reference_s_unital_sides(x)), x
        verdicts.add(verdict)
    assert verdicts == {True, False}


def one_sided(base, column):
    """{[[a, b], [0, 0]]} over ``base``, or its transpose {[[a, 0], [b, 0]]}."""
    m2 = MatrixRing(base, 2)
    cells = (0, 2) if column else (0, 1)
    elements = set()
    for a, b in product(range(base.size), repeat=2):
        digits = [0] * 4
        digits[cells[0]], digits[cells[1]] = a, b
        elements.add(m2.encode(digits))
    return m2, SubRing(m2, elements)


@pytest.mark.parametrize("base", [GaloisField(2), CyclicRing(4), GaloisField(3)],
                         ids=["GF2", "Z4", "GF3"])
@pytest.mark.parametrize("column", [False, True], ids=["row", "column"])
def test_one_sided_rings_are_not_s_unital(base, column):
    m2, ring = one_sided(base, column)
    as_subgroup = additive_closure(m2, ring.to_parent)
    for x in (ring, as_subgroup):
        assert reference_s_unital_sides(x) == ((False, True) if column else (True, False))
        assert not is_s_unital(x)
        assert not has_two_sided_unit(x)


def test_small_cases():
    z4 = CyclicRing(4)
    assert reference_s_unital_sides(SubRing(z4, {0, 2})) == (False, False)
    assert not is_s_unital(SubRing(z4, {0, 2}))
    zero = CyclicRing(1)
    assert is_s_unital(zero) and all(reference_s_unital_sides(zero))
    assert is_s_unital(Ideal(z4, ())) and is_s_unital(z4)


def test_subgroup_not_closed_under_products_is_refused():
    m2 = MatrixRing(GaloisField(2), 2)
    with pytest.raises(AxiomViolation, match="not closed under products"):
        is_s_unital(additive_closure(m2, [m2.unit(0, 1), m2.unit(1, 0)]))


def test_attached_subgroup_not_closed_is_reported_not_an_ideal():
    G = pair_groupoid(["e", "f"])
    m2 = MatrixRing(GaloisField(2), 2)
    amb = DirectSumRing([m2, m2], keys=["e", "f"])
    off_diagonal = [amb.inject(0, m2.unit(0, 1)), amb.inject(0, m2.unit(1, 0))]
    with pytest.raises(AxiomViolation) as err:
        validate_partial_action(G, amb, {G.morphism_index("f>e"): off_diagonal}, {})
    assert str(err.value) == (
        "[ideal] A_f>e is not an ideal of its component (witness at(e, e(1,1)))")


def closed_span(ring, seed, products):
    """The span of ``seed`` grown by ``products(span, g)`` for its
    generators g until nothing new appears."""
    span = additive_closure(ring, seed)
    while True:
        grown = additive_closure(ring, span.gens + tuple(
            p for g in span.gens for p in products(span, g)))
        if grown.key == span.key:
            return span
        span = grown


def drawn_member(ring, kind, seed):
    mul, rgens = ring.mul, ring.additive_generators()
    if kind == "ring":
        return ring
    if kind == "ideal":
        return ideal_generated(ring, seed)
    if kind == "left ideal":
        return closed_span(ring, seed, lambda span, g: [mul(r, g) for r in rgens])
    if kind == "right ideal":
        return closed_span(ring, seed, lambda span, g: [mul(g, r) for r in rgens])
    return closed_span(ring, seed, lambda span, g: [mul(g, h) for h in span.gens])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.integers(0, len(NON_UNIT_PIVOTS) - 1), st.booleans(),
       st.sampled_from(["ring", "ideal", "left ideal", "right ideal", "subring"]),
       st.data())
def test_generator_criterion_matches_reference_and_unit_search(index, relabel, kind, data):
    ring = NON_UNIT_PIVOTS[index]()
    if relabel:
        ring = NON_UNIT_PIVOTS[data.draw(st.sampled_from(SMALL))]()
        ring = relabelled(ring, data.draw(st.permutations(range(1, ring.size))))
    seed = data.draw(st.lists(st.integers(0, ring.size - 1), min_size=1, max_size=3))
    x = drawn_member(ring, kind, seed)
    verdict = is_s_unital(x)
    assert verdict == all(reference_s_unital_sides(x))
    assert verdict == has_two_sided_unit(x)
