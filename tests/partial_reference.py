"""Reference checks for the skew product and the partial-action validator.

``reference_first_nonassociative`` scans every triple of additive
generators, as ``partial.build_skew_ring`` did before it walked only the
composable triples of its components.  ``reference_validate_partial_action``
is the validator as it was before it checked one verdict per distinct
subgroup and tested the domain and composition laws on generators of the
meets: element-set meets, an inverted table per pair, and a sorted scan of
every element of the domain of sigma_h.

``group_type_chain`` evaluates four transport conditions at an object, each
from its own definition, and raises ``ChainViolation`` when the chain of
implications between them breaks; it exercises ``partial.is_group_type``
and ``partial.skew_support_hub`` against each other.
"""

from __future__ import annotations

from gprime import partial
from gprime.errors import (AxiomViolation, DegenerateInstance, InternalDisagreement,
                           MalformedInput, ObjectNotInSupport, Record)
from gprime.partial import PartialAction
from gprime.rings import (DirectSumRing, additive_closure, first_escape,
                          first_hom_failure, is_s_unital)


def reference_first_nonassociative(ring):
    """The first triple (a, b, c) of the ring's additive generators with
    (ab)c != a(bc), or None."""
    gens = ring.additive_generators()
    mul = ring.mul
    return next(((a, b, c) for a in gens for b in gens for c in gens
                 if mul(mul(a, b), c) != mul(a, mul(b, c))), None)


def reference_validate_partial_action(groupoid, ambient, ideal_gens, maps):
    """Every axiom of ``partial.validate_partial_action``, on element sets."""
    if not isinstance(ambient, DirectSumRing) or ambient.keys != groupoid.objects:
        raise MalformedInput(
            "the ambient ring must be a direct sum keyed by the groupoid's objects")
    if ambient.size == 1:
        raise DegenerateInstance("the zero ring admits no meaningful action")
    G = groupoid
    n = G.n_morphisms
    for g in list(ideal_gens) + list(maps):
        G.check_morphism(g)
    violations = []

    ideals = []
    for g in range(n):
        gens = list(ideal_gens.get(g, ()))
        for x in gens:
            if not isinstance(x, int) or not 0 <= x < ambient.size:
                raise MalformedInput(
                    f"generator {x!r} for A_{G.morphisms[g]} is not an ambient element")
        if G.is_identity(g):
            comp = ambient.component_subgroup(G.objects[g])
            if gens:
                given = additive_closure(ambient, gens)
                if given.key != comp.key:
                    violations.append((
                        "object-sum",
                        f"generators for A_{G.morphisms[g]} span {len(given)} elements, "
                        f"not the full component of size {len(comp)}"))
            ideals.append(comp)
        else:
            ideals.append(additive_closure(ambient, gens))

    for g in range(n):
        if G.is_identity(g):
            continue
        comp = ideals[G.identity(G.rng[g])]
        ag = ideals[g]
        outside = next((x for x in ag.gens if x not in comp), None)
        if outside is not None:
            violations.append((
                "ideal",
                f"A_{G.morphisms[g]} is not contained in the component at "
                f"{G.objects[G.rng[g]]!r} (witness {ambient.label(outside)})"))
            continue
        escaped = first_escape(ambient, comp.gens, ag.gens, ag)
        if escaped is not None:
            violations.append((
                "ideal",
                f"A_{G.morphisms[g]} is not an ideal of its component "
                f"(witness {ambient.label(escaped[2])})"))

    for g in range(n):
        try:
            s_unital = is_s_unital(ideals[g])
        except AxiomViolation:  # not closed under products, so reported above
            continue
        if not s_unital:
            violations.append(("s-unital", f"A_{G.morphisms[g]} is not s-unital"))

    tables = [None] * n
    for g in range(n):
        dom = ideals[G.inv[g]]
        cod = ideals[g]
        given = maps.get(g)
        if G.is_identity(g):
            table = {x: x for x in dom.elements}
            if given is not None and dict(given) != table:
                violations.append((
                    "identity",
                    f"sigma_{G.morphisms[g]} must be the identity on its component"))
            tables[g] = table
            continue
        if given is None:
            if dom.is_zero() and cod.is_zero():
                tables[g] = {0: 0}
            else:
                violations.append(("map", f"no table supplied for sigma_{G.morphisms[g]}"))
            continue
        table = dict(given)
        if set(table) != dom.elements:
            violations.append((
                "map",
                f"sigma_{G.morphisms[g]} must be defined on exactly "
                f"A_{G.morphisms[G.inv[g]]}"))
            continue
        values = set(table.values())
        if len(values) != len(table) or values != cod.elements:
            violations.append((
                "map",
                f"sigma_{G.morphisms[g]} is not a bijection onto A_{G.morphisms[g]}"))
            continue
        bad = first_hom_failure(ambient, ambient, table.get,
                                dom.sorted_elements(), dom.gens)
        if bad is not None:
            law, x, y = bad
            violations.append((
                "map",
                f"sigma_{G.morphisms[g]} is not {law} at "
                f"({ambient.label(x)}, {ambient.label(y)})"))
            continue
        tables[g] = table

    for g, h in G.composable_pairs():
        gh = G.compose(g, h)
        if tables[g] is None or tables[h] is None or tables[gh] is None:
            continue
        inv_h = {v: k for k, v in tables[h].items()}
        escape = next((y for y in sorted(ideals[G.inv[g]].elements & ideals[h].elements)
                       if inv_h[y] not in ideals[G.inv[gh]]), None)
        if escape is not None:
            violations.append((
                "domain",
                f"the inverse of sigma_{G.morphisms[h]} pushes "
                f"{ambient.label(escape)} outside A_{G.morphisms[G.inv[gh]]} "
                f"on the pair ({G.morphisms[g]}, {G.morphisms[h]})"))
        for x in sorted(tables[h]):
            y = tables[h][x]
            if y not in ideals[G.inv[g]]:
                continue
            if tables[gh].get(x) != tables[g][y]:
                violations.append((
                    "composition",
                    f"sigma_{G.morphisms[g]} after sigma_{G.morphisms[h]} differs "
                    f"from sigma_{G.morphisms[gh]} at {ambient.label(x)}"))
                break

    if violations:
        tag, message = violations[0]
        raise AxiomViolation(tag, message)
    return PartialAction(G, ambient, ideals, [t for t in tables if t is not None])


class ChainViolation(InternalDisagreement):
    """An implication chain that must hold was observed to fail."""


class ChainResult(Record):
    group_type: bool
    coefficient_membership: bool
    nonzero_annihilation: bool
    support_hub: bool


def group_type_chain(action, e):
    """Evaluate the four transport conditions at ``e`` and police their chain.

    In order: the action has a transport family; every nonzero coefficient of
    A_g lies inside A_{k^{-1}} for some k from r(g) into e; the weaker form
    where A_{k^{-1}}·a is merely nonzero; and the hub test at e.  The first
    implies the second implies the third, and the last two are equivalent;
    an observed violation raises ChainViolation.  The hub test is read
    through the module, so a test can replace it.
    """
    G = action.groupoid
    amb = action.ambient
    if action.ideals[G.identity(G.check_object(e))].is_zero():
        raise ObjectNotInSupport(
            f"object {G.objects[e]!r} carries a zero component")
    first = partial.is_group_type(action).holds
    into_e = G.morphisms_into(e)
    membership = True
    annihilation = True
    for g in range(G.n_morphisms):
        ks = [k for k in into_e if G.src[k] == G.rng[g]]
        for a in action.ideals[g].sorted_elements():
            if a == 0:
                continue
            if not any(a in action.ideals[G.inv[k]] for k in ks):
                membership = False
            if not any(any(amb.mul(u, a) != 0 for u in action.ideals[G.inv[k]].gens)
                       for k in ks):
                annihilation = False
    hub = partial.skew_support_hub(action, e).is_hub
    result = ChainResult(first, membership, annihilation, hub)
    problems = []
    if first and not membership:
        problems.append("a transport family exists but some coefficient is "
                        "in no transported domain")
    if membership and not annihilation:
        problems.append("domain membership without nonzero annihilation "
                        "contradicts s-unitality")
    if annihilation != hub:
        problems.append("the annihilation form and the hub test disagree")
    if problems:
        raise ChainViolation("; ".join(problems), details=result)
    return result
