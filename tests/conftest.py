"""Shared example structures used across the test modules."""

from __future__ import annotations

import pytest

from gprime.grading import Grading, validate_grading
from gprime.groupoid import FiniteGroup, FiniteGroupoid, one_object_groupoid, pair_groupoid, validate_groupoid
from gprime.partial import PartialAction, validate_partial_action
from gprime.rings import CyclicRing, DirectSumRing, GaloisField, GroupRing, MatrixRing, SubRing


def build_p3() -> FiniteGroupoid:
    return pair_groupoid(["f1", "f2", "f3"])


def build_m3_grading() -> Grading:
    """3x3 matrices over GF(2), one matrix unit per morphism of a 3-object groupoid."""
    G = build_p3()
    ring = MatrixRing(GaloisField(2), 3)
    comps = {
        G.morphism_index("f1"): [ring.unit(0, 0)],
        G.morphism_index("f2"): [ring.unit(1, 1)],
        G.morphism_index("f3"): [ring.unit(2, 2)],
        G.morphism_index("f2>f1"): [ring.unit(0, 1)],
        G.morphism_index("f1>f2"): [ring.unit(1, 0)],
        G.morphism_index("f2>f3"): [ring.unit(2, 1)],
        G.morphism_index("f3>f2"): [ring.unit(1, 2)],
        G.morphism_index("f3>f1"): [ring.unit(0, 2)],
        G.morphism_index("f1>f3"): [ring.unit(2, 0)],
    }
    return validate_grading(G, ring, comps)


def build_block_grading() -> Grading:
    """Two 2x2 blocks over GF(2) glued over the 3-object groupoid.

    The middle object carries one diagonal unit from each block; the
    morphisms joining the outer objects carry zero components.
    """
    G = build_p3()
    m2 = MatrixRing(GaloisField(2), 2)
    ring = DirectSumRing([m2, m2])

    def at(block: int, i: int, j: int) -> int:
        return ring.inject(block, m2.unit(i, j))

    comps = {
        G.morphism_index("f1"): [at(0, 0, 0)],
        G.morphism_index("f2"): [at(0, 1, 1), at(1, 0, 0)],
        G.morphism_index("f3"): [at(1, 1, 1)],
        G.morphism_index("f2>f1"): [at(0, 0, 1)],
        G.morphism_index("f1>f2"): [at(0, 1, 0)],
        G.morphism_index("f2>f3"): [at(1, 1, 0)],
        G.morphism_index("f3>f2"): [at(1, 0, 1)],
    }
    return validate_grading(G, ring, comps)


def build_group_ring_grading(base=None, group=None) -> Grading:
    """base[H] graded by the one-object groupoid on H (default GF(2)[C2])."""
    base = base if base is not None else GaloisField(2)
    group = group if group is not None else FiniteGroup.cyclic(2)
    G = one_object_groupoid(group, "e")
    ring = GroupRing(base, group)
    comps = {}
    for a in range(group.order):
        label = "e" if a == 0 else group.labels[a]
        comps[G.morphism_index(label)] = [ring.inject(a, g) for g in base.additive_generators()]
    return validate_grading(G, ring, comps)


def build_disconnected_grading() -> Grading:
    """GF(2) x GF(2) over the two-object groupoid with no cross morphisms."""
    G = validate_groupoid({"objects": ["e", "f"], "morphisms": [],
                           "compose": [], "inverse": {}})
    ring = DirectSumRing([GaloisField(2), GaloisField(2)], keys=["e", "f"])
    comps = {G.morphism_index("e"): [ring.inject(0, 1)],
             G.morphism_index("f"): [ring.inject(1, 1)]}
    return validate_grading(G, ring, comps)


def build_nonsunital_trivial_grading() -> Grading:
    """2Z/8Z graded by a single object: fails near epsilon-strongness."""
    z8 = CyclicRing(8)
    sub = SubRing(z8, {0, 2, 4, 6})
    G = pair_groupoid(["e"])
    return validate_grading(G, sub, {0: [sub.from_parent[2]]})


def build_m2_gf9_grading() -> Grading:
    """2x2 matrix units over GF(9): a 6561-element carrier, above the default bound."""
    G = pair_groupoid(["e", "f"])
    f9 = GaloisField(3, 2)
    ring = MatrixRing(f9, 2)
    cs = f9.additive_generators()
    comps = {
        G.morphism_index("e"): [ring.unit(0, 0, c) for c in cs],
        G.morphism_index("f"): [ring.unit(1, 1, c) for c in cs],
        G.morphism_index("f>e"): [ring.unit(0, 1, c) for c in cs],
        G.morphism_index("e>f"): [ring.unit(1, 0, c) for c in cs],
    }
    return validate_grading(G, ring, comps)


def build_one_sided_grading() -> Grading:
    """Upper-triangular 2x2 matrices with an empty component opposite e(1,2)."""
    m2 = MatrixRing(GaloisField(2), 2)
    tri = SubRing(m2, {0, m2.unit(0, 0), m2.unit(1, 1), m2.unit(0, 1),
                       m2.add(m2.unit(0, 0), m2.unit(1, 1)),
                       m2.add(m2.unit(0, 0), m2.unit(0, 1)),
                       m2.add(m2.unit(1, 1), m2.unit(0, 1)),
                       m2.add(m2.unit(0, 0), m2.add(m2.unit(1, 1), m2.unit(0, 1)))})
    G = pair_groupoid(["e", "f"])
    comps = {
        G.morphism_index("e"): [tri.from_parent[m2.unit(0, 0)]],
        G.morphism_index("f"): [tri.from_parent[m2.unit(1, 1)]],
        G.morphism_index("f>e"): [tri.from_parent[m2.unit(0, 1)]],
    }
    return validate_grading(G, tri, comps)


def build_g8() -> FiniteGroupoid:
    """Two objects with Z/2 isotropy and two parallel arrows each way.

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


def build_zero_partial_action() -> PartialAction:
    """GF(2) x GF(2) over the two-object pair groupoid, every cross ideal zero."""
    G = pair_groupoid(["e", "f"])
    amb = DirectSumRing([GaloisField(2), GaloisField(2)], keys=["e", "f"])
    return validate_partial_action(G, amb, {}, {})


def build_flip_partial_action() -> PartialAction:
    """The global action swapping the two GF(2) summands along the pair groupoid."""
    G = pair_groupoid(["e", "f"])
    amb = DirectSumRing([GaloisField(2), GaloisField(2)], keys=["e", "f"])
    e1, e2 = amb.inject(0, 1), amb.inject(1, 1)
    to_e, to_f = G.morphism_index("f>e"), G.morphism_index("e>f")
    return validate_partial_action(
        G, amb,
        {to_e: [e1], to_f: [e2]},
        {to_e: {0: 0, e2: e1}, to_f: {0: 0, e1: e2}})


def build_one_object_partial_action() -> PartialAction:
    """Z/2 on GF(2) x GF(2), defined only on the first summand (where it fixes
    everything); the second summand is outside every non-identity domain."""
    G = one_object_groupoid(FiniteGroup.cyclic(2), "e")
    part = DirectSumRing([GaloisField(2), GaloisField(2)])
    amb = DirectSumRing([part], keys=["e"])
    x = amb.inject(0, part.inject(0, 1))
    return validate_partial_action(G, amb, {1: [x]}, {1: {0: 0, x: x}})


def build_g8_frobenius_action() -> PartialAction:
    """Both fibres GF(4) x GF(4); l carries whole fibres, g, h square the
    first coordinate on its line, and m = l*g = h*l moves the twisted line.

    Group-type with anchor e, but the skew carrier has 2**24 elements, so
    everything about its product ring must go through the isotropy reduction.
    """
    G = build_g8()
    f4 = GaloisField(2, 2)
    fibre_e, fibre_f = DirectSumRing([f4, f4]), DirectSumRing([f4, f4])
    amb = DirectSumRing([fibre_e, fibre_f], keys=["e", "f"])

    def at_e(a: int, b: int) -> int:
        return amb.inject(0, fibre_e.encode([a, b]))

    def at_f(a: int, b: int) -> int:
        return amb.inject(1, fibre_f.encode([a, b]))

    frob = f4.frobenius
    line_e = [at_e(1, 0), at_e(2, 0)]
    line_f = [at_f(1, 0), at_f(2, 0)]
    gens = {
        G.morphism_index("g"): line_e,
        G.morphism_index("h"): line_f,
        G.morphism_index("l"): line_f + [at_f(0, 1), at_f(0, 2)],
        G.morphism_index("m"): line_f,
        G.morphism_index("l_inv"): line_e + [at_e(0, 1), at_e(0, 2)],
        G.morphism_index("m_inv"): line_e,
    }
    maps = {
        G.morphism_index("g"): {at_e(a, 0): at_e(frob(a), 0) for a in range(4)},
        G.morphism_index("h"): {at_f(a, 0): at_f(frob(a), 0) for a in range(4)},
        G.morphism_index("l"): {at_e(a, b): at_f(a, b)
                                for a in range(4) for b in range(4)},
        G.morphism_index("l_inv"): {at_f(a, b): at_e(a, b)
                                    for a in range(4) for b in range(4)},
        G.morphism_index("m"): {at_e(a, 0): at_f(frob(a), 0) for a in range(4)},
        G.morphism_index("m_inv"): {at_f(a, 0): at_e(frob(a), 0) for a in range(4)},
    }
    return validate_partial_action(G, amb, gens, maps)


@pytest.fixture
def m3_grading():
    return build_m3_grading()


@pytest.fixture
def block_grading():
    return build_block_grading()


@pytest.fixture
def f2c2_grading():
    return build_group_ring_grading()


@pytest.fixture
def disconnected_grading():
    return build_disconnected_grading()


@pytest.fixture
def zero_action():
    return build_zero_partial_action()


@pytest.fixture
def flip_action():
    return build_flip_partial_action()


# module-scoped: the isotropy restrictions and their product rings are cached
# on the action, and several tests want them
@pytest.fixture(scope="module")
def g8_action():
    return build_g8_frobenius_action()
