"""The generator-level validation helpers against naive references.

``first_escape``, ``first_hom_failure``, ``first_identity`` and
``first_nonassociative`` decide absorption, the homomorphism laws, identities
and associativity on additive generators only, and ``validate_ring`` builds
the exact ring-axiom check on them.  The references below sweep every pair,
triple or element of the spans involved; the two must agree on random small
carriers, random maps, random subsets and random tables, including corrupted
sigma tables and ring tables, and subsets that are not closed.
"""

from __future__ import annotations

import ast
import json
import random
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gprime
from gprime import cli
from gprime.errors import AssociativityFailure, AxiomViolation, MalformedInput
from gprime.fuzz import _random_partial_action, run_fuzz
from gprime.groupoid import FiniteGroup, one_object_groupoid, pair_groupoid
from gprime.partial import (SkewGroupoidRing, build_skew_ring, groupoid_ring_action,
                            validate_partial_action)
from gprime.rings import (CyclicRing, DirectSumRing, FiniteRing, GaloisField, GroupRing,
                          MatrixRing, SubRing, TableRing, additive_closure,
                          first_escape, first_hom_failure, first_identity,
                          principal_ideal, validate_ring)

ROOT = Path(__file__).resolve().parents[1]

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


def reference_validate_ring(ring) -> None:
    """The ring axioms on every element, pair and triple of the carrier."""
    n = ring.size
    add, neg, mul = ring.add, ring.neg, ring.mul
    for a in range(n):
        if add(0, a) != a or add(a, 0) != a:
            raise AxiomViolation("additive-identity", f"0 + {a} != {a}")
        if add(a, neg(a)) != 0:
            raise AxiomViolation("additive-inverse", f"{a} + (-{a}) != 0")
        for b in range(n):
            if add(a, b) != add(b, a):
                raise AxiomViolation("additive-commutativity", f"{a} + {b} != {b} + {a}")
    for a, b, c in product(range(n), repeat=3):
        if add(add(a, b), c) != add(a, add(b, c)):
            raise AxiomViolation("additive-associativity", f"({a}+{b})+{c} != {a}+({b}+{c})")
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            raise AxiomViolation("associativity", f"({a}*{b})*{c} != {a}*({b}*{c})")
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            raise AxiomViolation("distributivity", f"{a}*({b}+{c}) != {a}*{b} + {a}*{c}")
        if mul(add(a, b), c) != add(mul(a, c), mul(b, c)):
            raise AxiomViolation("distributivity", f"({a}+{b})*{c} != {a}*{c} + {b}*{c}")


def rejects(check, ring) -> bool:
    try:
        check(ring)
    except AxiomViolation:
        return True
    return False


class RawTables(FiniteRing):
    """Addition and multiplication tables taken as given, with no check; the
    negative of an element whose row has no 0 is taken to be 0."""

    def __init__(self, add, mul):
        self.size = len(add)
        self._add, self._mul = add, mul
        self._neg = [row.index(0) if 0 in row else 0 for row in add]

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]


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


S3 = sorted(permutations(range(3)))  # the identity comes first


def _s3_table():
    """The non-abelian group S3 written additively."""
    return [[S3.index(tuple(p[i] for i in q)) for q in S3] for p in S3]


def _bilinear_tables(data):
    """(Z/m)^k with a product given by random structure constants on the unit
    vectors: distributive by construction, rarely associative."""
    m, k = data.draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]))
    n = m ** k
    digits = [[x // m ** i % m for i in range(k)] for x in range(n)]
    unit = [[data.draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(k)]
    add = [[sum((a + b) % m * m ** i for i, (a, b) in enumerate(zip(digits[x], digits[y])))
            for y in range(n)] for x in range(n)]
    mul = [[0] * n for _ in range(n)]
    for x, y in product(range(n), repeat=2):
        for i, j in product(range(k), repeat=2):
            for _ in range(digits[x][i] * digits[y][j]):
                mul[x][y] = add[mul[x][y]][unit[i][j]]
    return add, mul


def _random_tables(data):
    """Tables of at most 16 elements, then possibly one entry of either table
    changed (an addition entry possibly together with its mirror).  Sources:
    a carrier of the file relabelled with 0 kept fixed; a random magma pair
    with 0 as additive identity and absorbing element; a random bilinear
    product; S3 as addition with the zero product; Z/n with the associative
    product x*y = x for y != 0, which is right but not left distributive, or
    its mirror."""
    source = data.draw(st.sampled_from(["carrier", "magma", "bilinear", "s3", "one-sided"]))
    if source == "carrier":
        ring = carrier(data.draw(st.integers(0, len(CARRIERS) - 1)))
        n = ring.size
        perm = [0] + data.draw(st.permutations(range(1, n)))
        add = [[0] * n for _ in range(n)]
        mul = [[0] * n for _ in range(n)]
        for a, b in product(range(n), repeat=2):
            add[perm[a]][perm[b]] = perm[ring.add(a, b)]
            mul[perm[a]][perm[b]] = perm[ring.mul(a, b)]
    elif source == "magma":
        n = data.draw(st.integers(1, 4))
        entry = st.integers(0, n - 1)
        add = [[a if b == 0 else b if a == 0 else data.draw(entry) for b in range(n)]
               for a in range(n)]
        mul = [[0 if 0 in (a, b) else data.draw(entry) for b in range(n)] for a in range(n)]
    elif source == "bilinear":
        add, mul = _bilinear_tables(data)
        n = len(add)
    elif source == "s3":
        add, n = _s3_table(), 6
        mul = [[0] * n for _ in range(n)]
    else:
        n = data.draw(st.integers(2, 8))
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        mul = [[a if b else 0 for b in range(n)] for a in range(n)]
        if data.draw(st.booleans()):
            mul = [list(col) for col in zip(*mul)]
    kind = data.draw(st.sampled_from(["none", "add", "add+mirror", "mul"]))
    if kind != "none":
        a, b, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table = mul if kind == "mul" else add
        table[a][b] = v
        if kind == "add+mirror":
            table[b][a] = v
    return add, mul


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
        assert str(err.value) == (
            "[ideal] A_f>e is not an ideal of its component (witness at(e, e(1,2)))")

    def test_validation_stops_at_the_first_violation(self, monkeypatch):
        # the left ideal above fails ideal-ness, so s-unitality is never asked
        G = pair_groupoid(["e", "f"])
        m2 = MatrixRing(GaloisField(2), 2)
        amb = DirectSumRing([m2, m2], keys=["e", "f"])
        column = [amb.inject(0, m2.unit(0, 0)), amb.inject(0, m2.unit(1, 0))]
        asked = []
        monkeypatch.setattr(gprime.partial, "is_s_unital", lambda x: asked.append(x) or True)
        with pytest.raises(AxiomViolation, match=r"^\[ideal\]"):
            validate_partial_action(G, amb, {G.morphism_index("f>e"): column}, {})
        assert asked == []

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

    def test_additive_bijection_that_is_not_multiplicative_is_rejected(self):
        # (a, b) -> (a + b, b) on GF(2) x GF(2), as above, acting for t in C2
        G = one_object_groupoid(FiniteGroup.cyclic(2), "e")
        pair = DirectSumRing([GaloisField(2), GaloisField(2)])
        amb = DirectSumRing([pair], keys=["e"])
        table = {x: [0, 1, 3, 2][x] for x in range(4)}
        with pytest.raises(AxiomViolation) as err:
            validate_partial_action(G, amb, {1: [1, 2]}, {1: table})
        assert str(err.value) == (
            "[map] sigma_t is not multiplicative at (at(e, at(0, 1)), at(e, at(1, 1)))")


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


class TestValidateRing:

    @settings(max_examples=300, **COMMON)
    @given(st.data())
    def test_rejects_exactly_when_the_all_triples_reference_does(self, data):
        ring = RawTables(*_random_tables(data))
        assert rejects(validate_ring, ring) == rejects(reference_validate_ring, ring)

    @pytest.mark.parametrize("seed", range(5))
    def test_corrupted_z128_products_are_rejected(self, seed):
        rng = random.Random(seed)
        a, b = rng.randrange(128), rng.randrange(128)
        add = [[(x + y) % 128 for y in range(128)] for x in range(128)]
        mul = [[x * y % 128 for y in range(128)] for x in range(128)]
        mul[a][b] = (mul[a][b] + 1) % 128
        with pytest.raises(AxiomViolation):
            TableRing(add, mul)

    @staticmethod
    def _cycling_addition(n):
        """Z/n addition with 3 + 1 = 1 + 3 = 2: the multiples of 1 run
        1, 2, 3, 2, 3, ... and never return to 0."""
        add = [[(x + y) % n for y in range(n)] for x in range(n)]
        add[3][1] = add[1][3] = 2
        return add

    @pytest.mark.parametrize("n", [160, 200, 256])
    def test_addition_whose_multiples_cycle_is_rejected(self, n):
        with pytest.raises(AxiomViolation, match="multiples of 1"):
            TableRing(self._cycling_addition(n), [[0] * n for _ in range(n)])

    def test_validate_exits_1_on_addition_whose_multiples_cycle(self, tmp_path, capsys):
        n = 160
        instance = {
            "groupoid": {"objects": ["e"], "morphisms": [], "inverse": {}, "compose": []},
            "groupoid_ring": {"base": {"table": {
                "add": self._cycling_addition(n), "mul": [[0] * n for _ in range(n)]}}},
        }
        path = tmp_path / "cycling.json"
        path.write_text(json.dumps(instance))
        assert cli.main(["validate", str(path)]) == 1
        assert "multiples of 1" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [7, -1])
    def test_validate_exits_1_on_table_entry_out_of_range(self, entry, tmp_path, capsys):
        add = [[(x + y) % 3 for y in range(3)] for x in range(3)]
        add[1][1] = entry
        instance = {
            "groupoid": {"objects": ["e"], "morphisms": [], "inverse": {}, "compose": []},
            "groupoid_ring": {"base": {"table": {
                "add": add, "mul": [[x * y % 3 for y in range(3)] for x in range(3)]}}},
        }
        path = tmp_path / "out_of_range.json"
        path.write_text(json.dumps(instance))
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"gprime: error: table entry add[1][1] = {entry} is not an element of 0..2\n"

    def test_small_skew_rings_pass_the_all_triples_reference(self, monkeypatch, capsys):
        built = {}
        init = SkewGroupoidRing.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[id(self)] = self

        monkeypatch.setattr(SkewGroupoidRing, "__init__", recording_init)
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            for command in ("prime", "equivalence"):
                cli.main([command, str(path)])
        capsys.readouterr()
        run_fuzz(2, 8)
        small = [ring for ring in built.values() if ring.size <= 64]
        assert {ring.size for ring in small} == {2, 4, 16, 64}
        for ring in small:
            reference_validate_ring(ring)

    def test_broken_skew_product_raises_associativity_failure(self, monkeypatch):
        # GF(2)[C2] with the product u*t of its two generators u = 1*d(e),
        # t = 1*d(t) sent to 0: then (u*t)*t = 0 but u*(t*t) = u
        action = groupoid_ring_action(GaloisField(2),
                                      one_object_groupoid(FiniteGroup.cyclic(2), "e"))
        mul = SkewGroupoidRing.mul

        def broken(self, a, b):
            return 0 if (a, b) == self.additive_generators() else mul(self, a, b)

        monkeypatch.setattr(SkewGroupoidRing, "mul", broken)
        with pytest.raises(AssociativityFailure, match="not associative"):
            build_skew_ring(action)


def test_only_the_fuzzer_imports_random():
    importers = set()
    for path in Path(gprime.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "random" for name in names):
                importers.add(path.name)
    assert importers == {"fuzz.py"}
