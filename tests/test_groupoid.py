"""Tests for groupoid construction, validation, and group-theoretic queries."""

from __future__ import annotations

import pytest

from gprime.errors import AxiomViolation, BoundExceeded, MalformedInput, UnknownMorphism
from gprime.groupoid import (FiniteGroup, disjoint_union, has_nontrivial_finite_normal_subgroup,
                             is_connected, isotropy,
                             one_object_groupoid, orbit, pair_groupoid, subgroups,
                             validate_groupoid, validate_subgroupoid)
from groupoid_reference import is_normal


def permutation_group(name, *generators):
    """The group the permutations ``generators`` of 0..n-1 generate, as a
    multiplication table: elements in tuple order, so the identity first."""
    identity = tuple(range(len(generators[0])))
    found = {identity}
    work = [identity]
    while work:
        p = work.pop()
        for g in generators:
            q = tuple(p[i] for i in g)
            if q not in found:
                found.add(q)
                work.append(q)
    perms = sorted(found)
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]
    return FiniteGroup(["".join(map(str, p)) for p in perms], table, name=name)


@pytest.fixture
def p3():
    """The connected groupoid on three objects with trivial isotropy."""
    return pair_groupoid(["f1", "f2", "f3"])


@pytest.fixture
def g8():
    """Two objects, Z/2 isotropy at each, two morphism classes across.

    Morphisms: g (e->e), h (f->f), l, m (e->f), l_inv, m_inv (f->e), with
    g*g = e, h*h = f and l*g = m = h*l.
    """
    return validate_groupoid({
        "objects": ["e", "f"],
        "morphisms": [
            {"name": "g", "src": "e", "rng": "e"},
            {"name": "h", "src": "f", "rng": "f"},
            {"name": "l", "src": "e", "rng": "f"},
            {"name": "m", "src": "e", "rng": "f"},
            {"name": "l_inv", "src": "f", "rng": "e"},
            {"name": "m_inv", "src": "f", "rng": "e"},
        ],
        "inverse": {"g": "g", "h": "h", "l": "l_inv", "m": "m_inv"},
        "compose": [
            ["g", "g", "e"], ["g", "l_inv", "m_inv"], ["g", "m_inv", "l_inv"],
            ["h", "h", "f"], ["h", "l", "m"], ["h", "m", "l"],
            ["l", "g", "m"], ["l", "l_inv", "f"], ["l", "m_inv", "h"],
            ["m", "g", "l"], ["m", "l_inv", "h"], ["m", "m_inv", "f"],
            ["l_inv", "h", "m_inv"], ["l_inv", "l", "e"], ["l_inv", "m", "g"],
            ["m_inv", "h", "l_inv"], ["m_inv", "l", "g"], ["m_inv", "m", "e"],
        ],
    })


class TestValidation:
    """validate_groupoid accepts lawful tables and pinpoints broken ones."""

    def test_p3_shape(self, p3):
        assert p3.n_objects == 3
        assert p3.n_morphisms == 9
        # identities come first and are labeled by their objects
        assert p3.morphisms[:3] == ("f1", "f2", "f3")
        assert all(p3.is_identity(g) for g in range(3))

    def test_identity_composition_is_automatic(self, p3):
        g = p3.morphism_index("f1>f2")
        assert p3.compose(g, p3.identity(p3.src[g])) == g
        assert p3.compose(p3.identity(p3.rng[g]), g) == g

    def test_missing_inverse_is_reported(self):
        with pytest.raises(AxiomViolation) as err:
            validate_groupoid({
                "objects": ["e", "f"],
                "morphisms": [{"name": "a", "src": "e", "rng": "f"},
                              {"name": "b", "src": "f", "rng": "e"}],
                "inverse": {},
                "compose": [["a", "b", "f"], ["b", "a", "e"]],
            })
        assert any("inverse" in v for v in err.value.violations)

    def test_noncomposable_entry_is_rejected(self):
        with pytest.raises(AxiomViolation) as err:
            validate_groupoid({
                "objects": ["e", "f"],
                "morphisms": [{"name": "a", "src": "e", "rng": "f"},
                              {"name": "b", "src": "f", "rng": "e"}],
                "inverse": {"a": "b"},
                "compose": [["a", "b", "f"], ["b", "a", "e"], ["a", "a", "f"]],
            })
        assert any("composability" in v for v in err.value.violations)

    def test_missing_product_is_reported(self):
        with pytest.raises(AxiomViolation) as err:
            validate_groupoid({
                "objects": ["e", "f"],
                "morphisms": [{"name": "a", "src": "e", "rng": "f"},
                              {"name": "b", "src": "f", "rng": "e"}],
                "inverse": {"a": "b"},
                "compose": [["a", "b", "f"]],
            })
        assert any("totality" in v for v in err.value.violations)

    def test_bad_inverse_law(self):
        # declare a*b to be the wrong identity-side result
        with pytest.raises(AxiomViolation):
            validate_groupoid({
                "objects": ["e"],
                "morphisms": [{"name": "a", "src": "e", "rng": "e"},
                              {"name": "b", "src": "e", "rng": "e"}],
                "inverse": {"a": "b"},
                "compose": [["a", "b", "a"], ["b", "a", "e"], ["a", "a", "e"],
                            ["b", "b", "a"]],
            })

    def test_unknown_labels(self):
        with pytest.raises(UnknownMorphism):
            validate_groupoid({
                "objects": ["e"],
                "morphisms": [],
                "inverse": {"nope": "nope"},
                "compose": [],
            })

    def test_needs_objects(self):
        with pytest.raises(MalformedInput):
            validate_groupoid({"objects": [], "morphisms": []})


class TestStructure:
    """Connectivity, orbits, isotropy, subgroupoids."""

    def test_p3_connected(self, p3):
        assert is_connected(p3)
        assert orbit(p3, 0) == (0, 1, 2)

    def test_disjoint_union_disconnects(self, p3):
        two = disjoint_union([pair_groupoid(["e"]), pair_groupoid(["f"])])
        assert not is_connected(two)
        assert orbit(two, 0) == (0,)
        assert is_connected(p3)

    def test_g8_isotropy_is_z2(self, g8):
        iso_e = isotropy(g8, g8.object_index("e"))
        assert iso_e.order == 2
        assert iso_e.labels == ("e", "g")
        assert iso_e.mul(1, 1) == 0
        iso_f = isotropy(g8, g8.object_index("f"))
        assert iso_f.labels == ("f", "h")

    def test_g8_connected_and_selfinverse(self, g8):
        assert is_connected(g8)
        g = g8.morphism_index("g")
        assert g8.inv[g] == g

    def test_g8_mixed_products(self, g8):
        mi = g8.morphism_index
        assert g8.compose(mi("l"), mi("g")) == mi("m")
        assert g8.compose(mi("h"), mi("l")) == mi("m")
        assert g8.compose(mi("l_inv"), mi("m")) == mi("g")
        assert not g8.composable(mi("l"), mi("m"))

    def test_subgroupoid_closure(self, g8):
        mi = g8.morphism_index
        good = validate_subgroupoid(g8, {mi("e"), mi("g")})
        assert good.object_list() == [g8.object_index("e")]
        with pytest.raises(AxiomViolation):
            validate_subgroupoid(g8, {mi("e"), mi("l")})  # misses l_inv and f
        with pytest.raises(AxiomViolation):
            validate_subgroupoid(g8, set())

    def test_pair_groupoid_with_isotropy(self):
        g = pair_groupoid(["x", "y"], FiniteGroup.cyclic(2))
        assert g.n_morphisms == 8
        assert isotropy(g, 0).order == 2
        assert is_connected(g)


class TestGroups:
    """Subgroup enumeration and normal-subgroup search with frozen counts."""

    def test_cyclic4_has_three_subgroups(self):
        subs = subgroups(FiniteGroup.cyclic(4))
        assert [s.order for s in subs] == [1, 2, 4]
        assert subs[1].parent_elements == (0, 2)

    def test_klein_has_five_subgroups(self):
        assert [s.order for s in subgroups(FiniteGroup.klein_four())] == [1, 2, 2, 2, 4]

    def test_cyclic6_has_four_subgroups(self):
        assert [s.order for s in subgroups(FiniteGroup.cyclic(6))] == [1, 2, 3, 6]

    def test_subgroup_bound(self):
        big = pair_groupoid(["a"], FiniteGroup.cyclic(25))
        with pytest.raises(BoundExceeded):
            subgroups(isotropy(big, 0))

    def test_normality_in_abelian_groups(self):
        g = FiniteGroup.cyclic(4)
        for sub in subgroups(g):
            assert is_normal(g, sub)

    def test_normal_subgroup_witness_is_smallest(self):
        found, witness = has_nontrivial_finite_normal_subgroup(FiniteGroup.cyclic(4))
        assert found and witness is not None
        assert witness.order == 2
        assert witness.parent_elements == (0, 2)

    def test_trivial_group_has_none(self):
        found, witness = has_nontrivial_finite_normal_subgroup(FiniteGroup.trivial())
        assert not found and witness is None

    @pytest.mark.parametrize("group", [FiniteGroup.cyclic(n) for n in range(1, 25)] + [
        FiniteGroup.klein_four(),
        permutation_group("S3", (1, 0, 2), (1, 2, 0)),
        permutation_group("D4", (1, 2, 3, 0), (0, 3, 2, 1)),
        permutation_group("A4", (1, 2, 0, 3), (1, 0, 3, 2)),
        permutation_group("S4", (1, 0, 2, 3), (1, 2, 3, 0))], ids=lambda g: g.name)
    def test_normal_subgroup_witness_matches_enumeration(self, group):
        """The first normal closure of one element is the first normal
        subgroup other than {1} that the subgroup enumeration lists."""
        expected = next((s for s in subgroups(group) if s.order > 1 and is_normal(group, s)),
                        None)
        found, witness = has_nontrivial_finite_normal_subgroup(group)
        assert found == (expected is not None)
        if expected is not None:
            assert witness.parent_elements == expected.parent_elements
            assert (witness.labels, witness.name) == (expected.labels, expected.name)

    def test_normal_subgroup_search_is_unbounded(self):
        """C25 is past the subgroup enumeration's bound; the search still answers."""
        found, witness = has_nontrivial_finite_normal_subgroup(FiniteGroup.cyclic(25))
        assert found and witness.parent_elements == (0, 5, 10, 15, 20)

    def test_one_object_groupoid_roundtrip(self):
        g = one_object_groupoid(FiniteGroup.cyclic(3), "pt")
        assert g.n_objects == 1
        assert isotropy(g, 0).order == 3
