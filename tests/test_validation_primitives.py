"""The three generator-level validation helpers against naive references.

``first_escape``, ``first_hom_failure`` and ``first_identity`` decide
absorption, the homomorphism laws and identities on additive generators
only.  The references below sweep every pair (or every element) of the
spans involved; the two must agree on random small carriers, random maps
and random subsets, including corrupted sigma tables and subsets that are
not closed.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gprime.errors import AxiomViolation, MalformedInput
from gprime.fuzz import _random_partial_action
from gprime.groupoid import FiniteGroup, one_object_groupoid, pair_groupoid
from gprime.partial import validate_partial_action
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, GroupRing,
                          MatrixRing, SubRing, TableRing, additive_closure,
                          first_escape, first_hom_failure, first_identity,
                          principal_ideal)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.data_too_large,
                                     HealthCheck.too_slow])


def _zero_product_ring(n: int) -> TableRing:
    return TableRing([[(a + b) % n for b in range(n)] for a in range(n)],
                     [[0] * n for _ in range(n)])


CARRIERS = (
    lambda: CyclicRing(6),
    lambda: CyclicRing(8),
    lambda: GaloisField(3),
    lambda: GaloisField(2, 2),
    lambda: MatrixRing(GaloisField(2), 2),
    lambda: DirectSumRing([GaloisField(2), GaloisField(2)]),
    lambda: DirectSumRing([CyclicRing(4), GaloisField(2)]),
    lambda: GroupRing(GaloisField(2), FiniteGroup.cyclic(2)),
    lambda: GroupRing(GaloisField(3), FiniteGroup.cyclic(2)),
    lambda: SubRing(CyclicRing(8), {0, 2, 4, 6}),
    lambda: _zero_product_ring(4),
    lambda: TableRing([[GaloisField(2, 2).add(a, b) for b in range(4)] for a in range(4)],
                      [[GaloisField(2, 2).mul(a, b) for b in range(4)] for a in range(4)]),
)


@lru_cache(maxsize=None)
def carrier(index: int):
    return CARRIERS[index]()


@lru_cache(maxsize=None)
def action(seed: int):
    return _random_partial_action(random.Random(f"validation:{seed}"), 256)


def wide_tables(act):
    """Non-identity morphisms whose sigma table has two nonzero arguments."""
    G = act.groupoid
    return [g for g in range(G.n_morphisms)
            if not G.is_identity(g) and len(act.ideals[G.inv[g]]) > 2]


WIDE_SEEDS = [seed for seed in range(120) if wide_tables(action(seed))]


# -- references ----------------------------------------------------------------

def naive_escapes(ring, xs, ys, target) -> bool:
    """Whether some product of the spans of ``xs`` and ``ys``, either way
    round, leaves ``target``."""
    X = additive_closure(ring, xs).elements
    Y = additive_closure(ring, ys).elements
    return any(ring.mul(x, y) not in target or ring.mul(y, x) not in target
               for x in X for y in Y)


def naive_hom_failure(src, dst, f, domain):
    """The first law broken by ``f`` on some pair of ``domain`` elements."""
    pairs = [(x, y) for x in domain for y in domain]
    if any(f(src.add(x, y)) != dst.add(f(x), f(y)) for x, y in pairs):
        return "additive"
    if any(f(src.mul(x, y)) != dst.mul(f(x), f(y)) for x, y in pairs):
        return "multiplicative"
    return None


def naive_identity(ring, candidates, members):
    """The first candidate that is a two-sided identity on every member."""
    mul = ring.mul
    return next((u for u in candidates
                 if all(mul(u, x) == x == mul(x, u) for x in members)), None)


def naive_is_subring(ring, subset) -> bool:
    return all(ring.neg(x) in subset
               and all(ring.add(x, y) in subset and ring.mul(x, y) in subset
                       for y in subset)
               for x in subset)


def _law(failure):
    return None if failure is None else failure[0]


# -- strategies ------------------------------------------------------------------

def _elements(ring, max_size):
    return st.lists(st.integers(0, ring.size - 1), max_size=max_size)


def _random_map(ring, data):
    """A map on the carrier: a scaling, a one- or two-sided multiplication,
    the zero map or a random table, possibly corrupted at one point."""
    n = ring.size
    kind = data.draw(st.sampled_from(["scale", "left", "sandwich", "zero", "table"]))
    if kind == "scale":
        k = data.draw(st.integers(0, 5))
        values = []
        for x in range(n):
            out = 0
            for _ in range(k):
                out = ring.add(out, x)
            values.append(out)
    elif kind == "left":
        c = data.draw(st.integers(0, n - 1))
        values = [ring.mul(c, x) for x in range(n)]
    elif kind == "sandwich":
        c, d = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        values = [ring.mul(ring.mul(c, x), d) for x in range(n)]
    elif kind == "zero":
        values = [0] * n
    else:
        values = [0] + data.draw(st.lists(st.integers(0, n - 1),
                                          min_size=n - 1, max_size=n - 1))
    if data.draw(st.booleans()):
        values[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    return values


def _random_subset(ring, data):
    """Zero plus random elements, a span, a principal ideal, or a span with
    one stray element added."""
    kind = data.draw(st.sampled_from(["subset", "span", "ideal", "span+1"]))
    if kind == "subset":
        return {0} | set(data.draw(_elements(ring, 6)))
    if kind == "ideal":
        return set(principal_ideal(ring, data.draw(st.integers(0, ring.size - 1))).elements)
    span = set(additive_closure(ring, data.draw(_elements(ring, 3))).elements)
    if kind == "span+1":
        span.add(data.draw(st.integers(0, ring.size - 1)))
    return span


# -- tests -----------------------------------------------------------------------

class TestFirstEscape:

    @settings(max_examples=80, **COMMON)
    @given(st.integers(0, len(CARRIERS) - 1), st.data())
    def test_matches_all_pairs_of_the_spans(self, index, data):
        ring = carrier(index)
        xs = data.draw(_elements(ring, 3))
        ys = data.draw(_elements(ring, 3))
        target = additive_closure(ring, data.draw(_elements(ring, 3))).elements
        got = first_escape(ring, xs, ys, target)
        assert (got is not None) == naive_escapes(ring, xs, ys, target)
        if got is not None:
            a, b, p = got
            assert p == ring.mul(a, b) and p not in target
            assert (a in xs and b in ys) or (a in ys and b in xs)

    def test_first_product_in_list_order(self):
        z8 = CyclicRing(8)
        # 3*2 = 6 escapes {0, 4}; 1*2 = 2 escapes first
        assert first_escape(z8, [1, 3], [2], {0, 4}) == (1, 2, 2)

    def test_left_ideal_is_not_an_ideal(self):
        # the first column of M2(GF(2)) absorbs products from the left only
        G = pair_groupoid(["e", "f"])
        m2 = MatrixRing(GaloisField(2), 2)
        amb = DirectSumRing([m2, m2], keys=["e", "f"])
        column = [amb.inject(0, m2.unit(0, 0)), amb.inject(0, m2.unit(1, 0))]
        comp = amb.component_subgroup("e")
        assert first_escape(amb, comp.gens, column,
                            additive_closure(amb, column).elements) is not None
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {G.morphism_index("f>e"): column}, {})
        assert any("not an ideal of its component" in v for v in err.value.violations)

    @settings(max_examples=80, **COMMON)
    @given(st.integers(0, len(CARRIERS) - 1), st.data())
    def test_subring_accepts_exactly_the_subrings(self, index, data):
        ring = carrier(index)
        subset = _random_subset(ring, data)
        if naive_is_subring(ring, subset):
            sub = SubRing(ring, subset)
            one = naive_identity(ring, sorted(subset), subset)
            assert sub.one == (None if one is None else sub.from_parent[one])
        else:
            with pytest.raises(MalformedInput, match="not (additively|multiplicatively) closed"):
                SubRing(ring, subset)


class TestFirstHomFailure:

    @settings(max_examples=120, **COMMON)
    @given(st.integers(0, len(CARRIERS) - 1), st.data())
    def test_matches_all_pairs_on_random_maps(self, index, data):
        ring = carrier(index)
        values = _random_map(ring, data)
        f = values.__getitem__
        got = first_hom_failure(ring, ring, f, ring.elements(), ring.additive_generators())
        assert _law(got) == naive_hom_failure(ring, ring, f, ring.elements())
        if got is not None and got[0] == "additive":
            _, x, g = got
            assert g in ring.additive_generators()
            assert f(ring.add(x, g)) != ring.add(f(x), f(g))

    def test_projection_onto_a_summand_is_a_homomorphism(self):
        src = DirectSumRing([CyclicRing(4), GaloisField(3)])
        dst = CyclicRing(4)
        f = lambda x: src.decode(x)[0]  # noqa: E731
        assert first_hom_failure(src, dst, f, src.elements(),
                                 src.additive_generators()) is None
        assert naive_hom_failure(src, dst, f, src.elements()) is None

    def test_doubling_is_additive_but_not_multiplicative(self):
        z6 = CyclicRing(6)
        f = lambda x: 2 * x % 6  # noqa: E731
        assert first_hom_failure(z6, z6, f, z6.elements(), (1,)) == ("multiplicative", 1, 1)

    def test_sums_beyond_generator_pairs_are_checked(self):
        # f(1 + 1) == f(1) + f(1), yet f(2 + 1) != f(2) + f(1)
        z8 = CyclicRing(8)
        values = [0, 1, 2, 5, 4, 5, 6, 7]
        assert first_hom_failure(z8, z8, values.__getitem__, z8.elements(),
                                 (1,)) == ("additive", 2, 1)

    def test_products_beyond_the_first_generator_pair_are_checked(self):
        # the additive map (a, b) -> (a + b, b) on GF(2) x GF(2) keeps the
        # squares of both generators but not their product
        pair = DirectSumRing([GaloisField(2), GaloisField(2)])
        values = [0, 1, 3, 2]
        assert first_hom_failure(pair, pair, values.__getitem__, pair.elements(),
                                 pair.additive_generators()) == ("multiplicative", 1, 2)

    @settings(max_examples=40, **COMMON)
    @given(st.sampled_from(WIDE_SEEDS), st.data())
    def test_corrupted_sigma_tables(self, seed, data):
        act = action(seed)
        G, amb = act.groupoid, act.ambient
        movers = [g for g in range(G.n_morphisms) if not G.is_identity(g)]
        gens = {g: list(act.ideals[g].gens) for g in movers}
        maps = {g: dict(act.maps[g]) for g in movers}
        for g in movers:
            dom = act.ideals[G.inv[g]]
            assert first_hom_failure(amb, amb, maps[g].get, dom.sorted_elements(),
                                     dom.gens) is None
        g = data.draw(st.sampled_from(wide_tables(act)))
        dom = act.ideals[G.inv[g]]
        x1, x2 = data.draw(st.lists(st.sampled_from(dom.sorted_elements()[1:]),
                                    min_size=2, max_size=2, unique=True))
        table = maps[g]
        table[x1], table[x2] = table[x2], table[x1]
        expected = naive_hom_failure(amb, amb, table.get, dom.sorted_elements())
        got = first_hom_failure(amb, amb, table.get, dom.sorted_elements(), dom.gens)
        assert _law(got) == expected
        if expected is not None:
            with pytest.raises(AxiomViolation, match=f"not {expected} at"):
                validate_partial_action(G, amb, gens, maps)

    def test_non_additive_pair_without_a_generator_is_rejected(self):
        # GF(2)^3 with A_t spanned by 3, 5, 7: the all-pairs sweep first
        # fails at (1, 2), where neither element is a generator
        G = one_object_groupoid(FiniteGroup.cyclic(2), "e")
        cube = DirectSumRing([GaloisField(2)] * 3)
        amb = DirectSumRing([cube], keys=["e"])
        table = {0: 0, 1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 6, 7: 7}
        assert naive_hom_failure(amb, amb, table.get, range(8)) == "additive"
        assert table[amb.add(1, 2)] != amb.add(table[1], table[2])
        assert additive_closure(amb, [3, 5, 7]).gens == (3, 5, 7)
        with pytest.raises(AxiomViolation, match="not additive at") as err:
            validate_partial_action(G, amb, {1: [3, 5, 7]}, {1: table})
        assert err.value.axiom == "map"

    def test_table_on_a_domain_not_closed_under_products_is_rejected(self):
        # the span of e12 + e21 in M2(GF(2)) is not multiplicatively closed,
        # so the table has no value at the square of its generator
        G = pair_groupoid(["e", "f"])
        m2 = MatrixRing(GaloisField(2), 2)
        amb = DirectSumRing([m2, m2], keys=["e", "f"])
        swap = m2.add(m2.unit(0, 1), m2.unit(1, 0))
        xe, xf = amb.inject(0, swap), amb.inject(1, swap)
        to_e, to_f = G.morphism_index("f>e"), G.morphism_index("e>f")
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {to_e: [xe], to_f: [xf]},
                                    {to_e: {0: 0, xf: xe}, to_f: {0: 0, xe: xf}})
        assert any("not multiplicative" in v for v in err.value.violations)


class TestFirstIdentity:

    @settings(max_examples=60, **COMMON)
    @given(st.integers(0, len(CARRIERS) - 1), st.data())
    def test_matches_all_elements_on_spans(self, index, data):
        ring = carrier(index)
        span = additive_closure(ring, data.draw(_elements(ring, 3)))
        members = span.sorted_elements()
        candidates = data.draw(st.permutations(members))
        assert (first_identity(ring, candidates, span.gens)
                == naive_identity(ring, candidates, members))

    def test_left_identity_is_not_an_identity(self):
        # e11 is a left identity of the first matrix row, not a right one
        m2 = MatrixRing(GaloisField(2), 2)
        row = additive_closure(m2, [m2.unit(0, 0), m2.unit(0, 1)])
        assert first_identity(m2, row.sorted_elements(), row.gens) is None
        assert SubRing(m2, row.elements).one is None

    def test_carrier_identity(self):
        for index in range(len(CARRIERS)):
            ring = carrier(index)
            members = list(ring.elements())
            assert (first_identity(ring, members, ring.additive_generators())
                    == naive_identity(ring, members, members) == ring.one)
