"""Near epsilon-strongness against the element-scan reference, once per
grading.

``grading.is_nearly_epsilon_strong`` reads route two's unit tests off the
images of each candidate on S_g's canonical basis rows.  Its whole
``NESResult`` (verdict, certificate and its order, failures and their
order) must equal ``span_reference.reference_nes``, the scan with one ring
product per pair (u, d): on every fixture grading and its isotropy
components, on 360 generated gradings, and, through hypothesis, on random
gradings over carriers with Z/4, GF(3), GF(2) and Z/4 + GF(3)
coordinates, some of them with no left or no right unit.  Route two tests
one member of each class {t*d : t a unit mod the exponent}; gradings over
GF(5), Z/4, Z/9 and Z/4 + GF(3), where such t act, check that too.  The
result is computed once per grading and shared by every caller on it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gprime import fuzz, grading as grading_module, instances, primeness
from gprime.errors import InternalDisagreement
from gprime.grading import is_nearly_epsilon_strong, validate_grading
from gprime.groupoid import FiniteGroup, one_object_groupoid, pair_groupoid
from gprime.instances import analysis_document, build_instance, carrier_grading, parse
from gprime.primeness import equivalence_report
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, GroupRing, MatrixRing,
                          SubRing, additive_closure, enumerate_ideals, set_product)
from span_reference import reference_nes
from test_direct_sum import fixture_corpus, generated_corpus
from test_s_unital import drawn_member, one_sided

ROOT = Path(__file__).resolve().parents[1]

BASES = (lambda: CyclicRing(4), lambda: GaloisField(3), lambda: GaloisField(2),
         lambda: DirectSumRing([CyclicRing(4), GaloisField(3)]))


def outcome(decide, grading):
    """The result with its certificate's order, or the disagreement raised."""
    try:
        res = decide(grading)
    except InternalDisagreement as exc:
        return "disagreement", str(exc)
    return res, list(res.certificate.items())


def assert_matches_reference(grading, name=None):
    got = outcome(is_nearly_epsilon_strong, grading)
    assert got == outcome(reference_nes, grading), name or grading
    return got[0]


def test_fixtures_and_isotropy_components_match_the_reference():
    verdicts = {assert_matches_reference(grading, name).holds
                for name, grading in fixture_corpus()}
    assert verdicts == {True}


def test_generated_gradings_match_the_reference():
    for name, grading in generated_corpus():
        assert assert_matches_reference(grading, name).holds, name


@lru_cache(maxsize=None)
def base_ring(index):
    return BASES[index]()


@lru_cache(maxsize=None)
def base_ideals(index):
    return enumerate_ideals(base_ring(index)).ideals


def matrix_ideal_grading(index, n, picks):
    """The subring of n x n matrices with entry (i, j) in the ideal
    ``picks[i][j]`` of the base, graded by the pair groupoid with e(i, j)
    at the morphism from object j to object i.  Each diagonal ideal is
    enlarged by the products I_ik I_ki, so that the span is a ring."""
    base, ideals = base_ring(index), base_ideals(index)
    cells = [[ideals[k] for k in row] for row in picks]
    for i in range(n):
        cells[i][i] = additive_closure(base, cells[i][i].gens + tuple(
            p for k in range(n) for p in set_product(cells[i][k], cells[k][i]).gens))
    m = MatrixRing(base, n)
    G = pair_groupoid([f"o{i}" for i in range(n)])
    gens = {(i, j): [m.unit(i, j, a) for a in cells[i][j].gens]
            for i in range(n) for j in range(n)}
    carrier = SubRing(m, additive_closure(m, [x for xs in gens.values() for x in xs]).elements)
    label = {(i, j): f"o{i}" if i == j else f"o{j}>o{i}" for i in range(n) for j in range(n)}
    return validate_grading(G, carrier, {G.morphism_index(label[cell]): [carrier.from_parent[x]
                                                                       for x in xs]
                                         for cell, xs in gens.items()})


def trivial_grading(ring, elements):
    """The one-morphism grading of the subring on ``elements``."""
    carrier = SubRing(ring, elements)
    return validate_grading(pair_groupoid(["e"]), carrier, {0: carrier.additive_generators()})


def one_sided_grading(base, column):
    """The one-morphism grading of {[[a, b], [0, 0]]}, or of its transpose."""
    m2, ring = one_sided(base, column)
    return trivial_grading(m2, ring.to_parent)


def group_ring_grading(base, order):
    group = FiniteGroup.cyclic(order)
    G = one_object_groupoid(group, "e")
    ring = GroupRing(base, group)
    return validate_grading(G, ring, {
        G.morphism_index("e" if a == 0 else group.labels[a]):
            [ring.inject(a, g) for g in base.additive_generators()]
        for a in range(group.order)})


@st.composite
def random_gradings(draw):
    index = draw(st.integers(0, len(BASES) - 1))
    base = base_ring(index)
    kind = draw(st.sampled_from(["matrix", "one-sided", "member", "group ring"]))
    if kind == "matrix":
        n = draw(st.integers(1, 2))
        last = len(base_ideals(index)) - 1
        picks = [[draw(st.integers(0, last)) for _ in range(n)] for _ in range(n)]
        assume(any(len(base_ideals(index)[k]) > 1 for row in picks for k in row))
        return matrix_ideal_grading(index, n, picks)
    if kind == "one-sided":
        return one_sided_grading(base, draw(st.booleans()))
    if kind == "member":
        ring = base if index == 3 else MatrixRing(base, 2)
        seed = draw(st.lists(st.integers(0, ring.size - 1), min_size=1, max_size=3))
        member = drawn_member(ring, draw(st.sampled_from(
            ["ring", "ideal", "left ideal", "right ideal", "subring"])), seed)
        elements = range(ring.size) if member is ring else member.elements
        assume(len(elements) > 1)
        return trivial_grading(ring, elements)
    return group_ring_grading(base, draw(st.integers(2, 3)))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(random_gradings())
def test_random_gradings_match_the_reference(grading):
    assert_matches_reference(grading)


def test_the_random_gradings_reach_both_failure_texts():
    """A left-only and a right-only one-sided ring, and a matrix grading
    whose corner ideal 2Z/4 has no unit, with their failures."""
    row = one_sided_grading(CyclicRing(4), False)
    column = one_sided_grading(GaloisField(3), True)
    sizes = [len(ideal) for ideal in base_ideals(0)]        # the ideals of Z/4
    two, full = sizes.index(2), sizes.index(4)
    corner = matrix_ideal_grading(0, 2, [[full, two], [full, full]])
    texts = [assert_matches_reference(g).failures for g in (row, column, corner)]
    assert any("no right unit" in f for f in texts[0])
    assert any("no left unit" in f for f in texts[1])
    assert any("'o1>o0': no left unit" in f for f in texts[2])
    assert not any("no right unit" in f for f in texts[1] + texts[2])


def test_one_nes_per_grading(monkeypatch):
    """After ``build_skew_ring``, the equivalence report and the analysis
    document get the NESResult it computed, without a new unit search; a
    grading validated again from the same data computes its own."""
    searches = []
    search = grading_module._first_units
    monkeypatch.setattr(grading_module, "_first_units",
                        lambda *args: searches.append(args) or search(*args))
    handed_out = []
    for module in (primeness, instances):
        monkeypatch.setattr(module, "is_nearly_epsilon_strong",
                            lambda g: handed_out.append(is_nearly_epsilon_strong(g))
                            or handed_out[-1])

    built = build_instance(parse(ROOT / "fixtures" / "global_flip_partial_action.json"))
    grading = carrier_grading(built)
    built_searches = len(searches)
    assert built_searches > 0
    first = is_nearly_epsilon_strong(grading)
    assert first.holds

    equivalence_report(grading)
    analysis_document(built)
    assert len(handed_out) == 2 and all(res is first for res in handed_out)
    assert len(searches) == built_searches

    again = validate_grading(grading.groupoid, grading.ring,
                             {g: comp.gens for g, comp in enumerate(grading.components)})
    fresh = is_nearly_epsilon_strong(again)
    assert fresh == first and fresh is not first
    assert len(searches) == 2 * built_searches


def test_nes_products_on_the_slowest_fuzz_grading(monkeypatch):
    """Ring products made by the first near epsilon-strongness run on the
    M2(GF(3)) grading of fuzz seed 32, instance 0: 3,664 with one product
    per pair (u, d), 272 with generator images."""
    grading = fuzz.generate_instance(random.Random("32:0"), fuzz.SKEW_RING_BOUND).grading
    ring_class = type(grading.ring)
    assert ring_class is MatrixRing
    count = [0]
    mul = ring_class.mul

    def counting(self, a, b):
        count[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(ring_class, "mul", counting)
    assert is_nearly_epsilon_strong(grading).holds
    assert count[0] < 400


def test_a_failed_agreement_is_not_kept(monkeypatch):
    """A disagreement between the routes raises on every call: no verdict
    is kept on the grading."""
    grading = one_sided_grading(GaloisField(2), False)
    monkeypatch.setattr(grading_module, "is_s_unital", lambda x: True)
    for _ in range(2):
        with pytest.raises(InternalDisagreement):
            is_nearly_epsilon_strong(grading)
    monkeypatch.undo()
    assert not is_nearly_epsilon_strong(grading).holds


def unit_class_gradings():
    """Gradings whose carriers have units t != 1 mod the exponent."""
    gf5, z4, z9 = GaloisField(5), CyclicRing(4), CyclicRing(9)
    mixed = DirectSumRing([CyclicRing(4), GaloisField(3)])
    m2 = MatrixRing(gf5, 2)
    pair = pair_groupoid(["a", "b"])
    label = {(0, 0): "a", (1, 1): "b", (0, 1): "b>a", (1, 0): "a>b"}
    yield validate_grading(pair, m2, {pair.morphism_index(label[i, j]): [m2.unit(i, j)]
                                      for i in range(2) for j in range(2)})
    for base in (gf5, z4, z9, mixed):
        yield group_ring_grading(base, 2)
        yield trivial_grading(base, range(base.size))
    for base in (gf5, z4):
        yield trivial_grading(MatrixRing(base, 2), range(base.size ** 4))
    for base in (gf5, z4, z9):
        for column in (False, True):
            yield one_sided_grading(base, column)
    sizes = [len(ideal) for ideal in base_ideals(0)]        # the ideals of Z/4
    two, full = sizes.index(2), sizes.index(4)
    for picks in ([[full, two], [full, full]], [[two, full], [two, two]]):
        yield matrix_ideal_grading(0, 2, picks)


def test_unit_classes_match_the_reference():
    verdicts = {assert_matches_reference(grading).holds for grading in unit_class_gradings()}
    assert verdicts == {True, False}


def test_packed_tests_on_the_slowest_fuzz_grading_roughly_halve(monkeypatch):
    """``normalize`` calls inside route two's searches on the M2(GF(3))
    grading of fuzz seed 32, instance 0, one per packed test of a (u, d)
    pair and one per enumerated vector: 3,729 when every d is tested, 2,081
    with one d per class {d, 2d}."""
    grading = fuzz.generate_instance(random.Random("32:0"), fuzz.SKEW_RING_BOUND).grading
    c = grading_module._coordinates(grading.ring)
    assert c.exponent == 3
    count, searching = [0], [False]
    normalize, search = c.normalize, grading_module._first_units

    def counting(v):
        count[0] += searching[0]
        return normalize(v)

    def counted_search(*args):
        searching[0] = True
        try:
            return search(*args)
        finally:
            searching[0] = False

    monkeypatch.setattr(c, "normalize", counting)
    monkeypatch.setattr(grading_module, "_first_units", counted_search)
    assert is_nearly_epsilon_strong(grading).holds
    assert 0 < count[0] < 0.6 * 3729
