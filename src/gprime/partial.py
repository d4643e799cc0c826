"""Partial and global groupoid actions and their skew product rings.

A partial action attaches to every morphism g an ideal A_g of the object
component A_{r(g)} together with a ring isomorphism sigma_g from A_{g^{-1}}
onto A_g, compatible with composition where the domains allow it.  The skew
product collects formal sums over the morphisms with coefficients in the
attached ideals; it is materialized as a concrete finite ring and handed back
as a Grading, so the whole graded tool chain (support, hubs, pair criteria,
the equivalence report) applies to it unchanged.  Groupoid rings are the
special case where every ideal is a full component and every map is the
identity transport; they are built directly as base[G], one ``base`` digit
per morphism with the convolution product, element for element the skew
product of that induced action, which fuzz builds beside it and compares.

An action keeps the carrier bound it was validated under, the one every
ring built from it obeys, and every fact derived from it (``rings._once``).

Everything that can be cross-checked is: built products are checked for
associativity (their other ring laws hold by construction) and the grading
axioms, reductions to isotropy are compared with the oracle whenever both are
in reach, and observed failures of established implications raise the
falsification alarm instead of being smoothed over.
"""

from __future__ import annotations

from math import prod

from .errors import (AssociativityFailure, AxiomViolation, BoundExceeded,
                     DegenerateInstance, InternalDisagreement,
                     MalformedInput, NotSUnital, ObjectNotInSupport, Record)
from .grading import (Grading, HubResult, PairCriterionResult,
                      is_G_prime_principal, is_nearly_epsilon_strong,
                      validate_grading)
from .groupoid import (FiniteGroupoid, has_nontrivial_finite_normal_subgroup,
                       is_connected, isotropy, orbit, restrict, validate_subgroupoid)
from .rings import (AdditiveSubgroup, DirectSumRing, FiniteRing, Ideal, PrimeResult, SubRing,
                    _Closures, _VectorRing, _kernel, _memo, _once, additive_closure, close,
                    first_escape, first_hom_failure, first_identity, first_nonassociative,
                    first_zero_pair, is_commutative, is_maximal_commutative,
                    is_prime_bruteforce, is_s_unital, principal_ideal)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "SKEW_RING_BOUND",
    "PartialAction",
    "validate_partial_action",
    "SkewGroupoidRing",
    "build_skew_ring",
    "GroupoidRing",
    "groupoid_ring_action",
    "build_groupoid_ring",
    "is_global",
    "GroupTypeResult",
    "is_group_type",
    "sigma_invariant_closure",
    "is_A_G_prime",
    "PsiCheckResult",
    "psi_check",
    "skew_support_hub",
    "restrict_to_isotropy",
    "SkewPrimeVerdict",
    "isotropy_reduction",
    "skew_prime_verdict",
    "global_support_connectivity_check",
    "ConnellResult",
    "connell_check",
    "orbit_density_check",
    "SufficientReport",
    "sufficient_conditions_report",
]

SKEW_RING_BOUND = 4096


class PartialAction:
    """A validated partial action, with the carrier bound of its skew product
    and ambient; construct via validate_partial_action."""

    def __init__(self, groupoid: FiniteGroupoid, ambient: DirectSumRing,
                 ideals: Sequence[AdditiveSubgroup],
                 maps: Sequence[Dict[int, int]], bound: int = SKEW_RING_BOUND):
        self.groupoid = groupoid
        self.ambient = ambient
        self.ideals: Tuple[AdditiveSubgroup, ...] = tuple(ideals)
        self.maps: Tuple[Dict[int, int], ...] = tuple(maps)
        self.bound = bound
        self._closure_cache = _Closures(Ideal)

    def sigma(self, g: int, x: int) -> int:
        """Apply sigma_g to x; x must lie in A_{g^{-1}}."""
        try:
            return self.maps[g][x]
        except KeyError:
            raise MalformedInput(
                f"{self.ambient.label(x)} is outside the domain of "
                f"sigma_{self.groupoid.morphisms[g]}") from None

    def support_objects(self) -> Tuple[int, ...]:
        """Objects whose component is nonzero, in object order."""
        G = self.groupoid
        return tuple(e for e in range(G.n_objects)
                     if not self.ideals[G.identity(e)].is_zero())

    def __repr__(self) -> str:
        return (f"PartialAction({self.ambient.tag}, "
                f"{self.groupoid.n_morphisms} morphisms)")


def validate_partial_action(groupoid: FiniteGroupoid, ambient: DirectSumRing,
                            ideal_gens: Dict[int, Iterable[int]],
                            maps: Dict[int, Dict[int, int]],
                            bound: int = SKEW_RING_BOUND) -> PartialAction:
    """Close the generator sets, fill in forced data, and check every axiom.

    ``ideal_gens`` maps morphism indices to generator lists over the ambient
    sum; identity morphisms always carry the full object component (entries
    given for them must close to exactly that), and missing morphisms get the
    zero ideal.  ``maps`` supplies each sigma_g as an explicit element table;
    identity maps and tables on zero ideals are filled in automatically.
    Every generator is range-checked (MalformedInput) first.  Then checked,
    in this order, up to the first violation (AxiomViolation): that
    generators given for an identity span its component, containment and
    ideal-ness in the range component (on generators, ``rings.first_escape``),
    s-unitality of every attached ideal (a proven ideal by then), that each
    table is a bijection onto its target and, by ``rings.first_hom_failure``,
    a ring homomorphism, that inverse images respect composite domains, and
    that composing tables agrees with the table of the composite.

    Ideal and s-unitality verdicts are reached once per subgroup.  The
    domain and composition laws of (g, h) are tested on generators Y of
    D = A_{g^-1} n A_h: sigma_h^-1(D) is spanned by sigma_h^-1(Y), and both
    sides of each law are additive there, every table being a proven
    additive bijection; a failing generator starts the element scan that
    names the least witness.  The action keeps ``bound``.
    """
    if not isinstance(ambient, DirectSumRing) or ambient.keys != groupoid.objects:
        raise MalformedInput(
            "the ambient ring must be a direct sum keyed by the groupoid's objects")
    if ambient.size == 1:
        raise DegenerateInstance("the zero ring admits no meaningful action")
    G = groupoid
    n = G.n_morphisms
    for g in list(ideal_gens) + list(maps):
        G.check_morphism(g)
    gens_of = [list(ideal_gens.get(g, ())) for g in range(n)]
    for g, gens in enumerate(gens_of):
        for x in gens:
            if not isinstance(x, int) or not 0 <= x < ambient.size:
                raise MalformedInput(
                    f"generator {x!r} for A_{G.morphisms[g]} is not an ambient element")
    ideals: List[AdditiveSubgroup] = []
    for g, gens in enumerate(gens_of):
        if G.is_identity(g):
            comp = ambient.component_subgroup(G.objects[g])
            if gens:
                given = additive_closure(ambient, gens)
                if given.key != comp.key:
                    raise AxiomViolation(
                        "object-sum", f"generators for A_{G.morphisms[g]} span {len(given)} "
                        f"elements, not the full component of size {len(comp)}")
            ideals.append(comp)
        else:
            ideals.append(additive_closure(ambient, gens))

    proven_ideals = set()
    for g in range(n):
        if G.is_identity(g):
            continue
        comp = ideals[G.identity(G.rng[g])]
        ag = ideals[g]
        if (ag.key, comp.key) in proven_ideals:
            continue
        outside = next((x for x in ag.gens if x not in comp), None)
        if outside is not None:
            raise AxiomViolation(
                "ideal", f"A_{G.morphisms[g]} is not contained in the component at "
                f"{G.objects[G.rng[g]]!r} (witness {ambient.label(outside)})")
        escaped = first_escape(ambient, comp.gens, ag.gens, ag)
        if escaped is not None:
            raise AxiomViolation(
                "ideal", f"A_{G.morphisms[g]} is not an ideal of its component "
                f"(witness {ambient.label(escaped[2])})")
        proven_ideals.add((ag.key, comp.key))

    s_unital: Dict[frozenset, bool] = {}
    for g in range(n):
        if not _memo(s_unital, ideals[g].key, lambda _: is_s_unital(ideals[g])):
            raise AxiomViolation("s-unital", f"A_{G.morphisms[g]} is not s-unital")

    tables: List[Dict[int, int]] = []
    for g in range(n):
        dom = ideals[G.inv[g]]
        cod = ideals[g]
        given = maps.get(g)
        if G.is_identity(g):
            table = {x: x for x in dom.elements}
            if given is not None and dict(given) != table:
                raise AxiomViolation(
                    "identity", f"sigma_{G.morphisms[g]} must be the identity on its component")
            tables.append(table)
            continue
        if given is None:
            if not (dom.is_zero() and cod.is_zero()):
                raise AxiomViolation("map", f"no table supplied for sigma_{G.morphisms[g]}")
            tables.append({0: 0})
            continue
        table = dict(given)
        if set(table) != dom.elements:
            raise AxiomViolation(
                "map", f"sigma_{G.morphisms[g]} must be defined on exactly "
                f"A_{G.morphisms[G.inv[g]]}")
        values = set(table.values())
        if len(values) != len(table) or values != cod.elements:
            raise AxiomViolation(
                "map", f"sigma_{G.morphisms[g]} is not a bijection onto A_{G.morphisms[g]}")
        bad = first_hom_failure(ambient, ambient, table.get,
                                dom.sorted_elements(), dom.gens)
        if bad is not None:
            law, x, y = bad
            raise AxiomViolation(
                "map", f"sigma_{G.morphisms[g]} is not {law} at "
                f"({ambient.label(x)}, {ambient.label(y)})")
        tables.append(table)

    meets: Dict[Tuple[frozenset, frozenset], Sequence[int]] = {}
    inverses: Dict[int, Dict[int, int]] = {}
    for g, h in G.composable_pairs():
        gh = G.compose(g, h)
        dom, ran, target = ideals[G.inv[g]], ideals[h], ideals[G.inv[gh]]
        meet = _memo(meets, (dom.key, ran.key), lambda _: _kernel(
            ambient, [(x, x) for x in dom.gens] + [(y, 0) for y in ran.gens]))
        inv_h = _memo(inverses, h, lambda h: {v: k for k, v in tables[h].items()})
        if any(inv_h[y] not in target for y in meet):
            escape = next(y for y in sorted(dom.elements & ran.elements)
                          if inv_h[y] not in target)
            raise AxiomViolation(
                "domain", f"the inverse of sigma_{G.morphisms[h]} pushes "
                f"{ambient.label(escape)} outside A_{G.morphisms[G.inv[gh]]} "
                f"on the pair ({G.morphisms[g]}, {G.morphisms[h]})")
        if any(tables[gh].get(inv_h[y]) != tables[g][y] for y in meet):
            x = next(x for x in sorted(tables[h]) if tables[h][x] in dom
                     and tables[gh].get(x) != tables[g][tables[h][x]])
            raise AxiomViolation(
                "composition", f"sigma_{G.morphisms[g]} after sigma_{G.morphisms[h]} differs "
                f"from sigma_{G.morphisms[gh]} at {ambient.label(x)}")

    return PartialAction(G, ambient, ideals, tables, bound)


# ---------------------------------------------------------------------------
# the skew product ring
# ---------------------------------------------------------------------------

def _refuse_carrier(size: int, bound: int) -> None:
    if size > bound:
        raise BoundExceeded(f"skew product carrier would exceed {bound} elements; "
                            f"refusing to build")


class SkewGroupoidRing(_VectorRing):
    """Formal sums over the morphisms with coefficients in the attached ideals.

    A ``rings._VectorRing`` whose digit g is A_g as a ``SubRing`` of the
    ambient: an element is the mixed-radix vector of its coefficients
    (morphism 0 least significant, digit g a position in the sorted A_g),
    and its coordinates concatenate the ambient coordinates of its
    coefficients, so the sum is coordinatewise in the ambient.  ``decode``
    gives positions; ``encode``, ``coefficients`` and ``inject`` speak
    ambient elements.  The product is the bilinear extension of the
    single-term rule (a delta_g)(b delta_h) = sigma_g(sigma_{g^{-1}}(a) b)
    delta_{gh} on composable pairs and zero otherwise, summed by
    ``_VectorRing.mul``.  Every term is checked against its target ideal
    when it is first computed; a failure there is an internal error, not an
    input error.
    """

    def __init__(self, action: PartialAction):
        G = action.groupoid
        amb = action.ambient
        _refuse_carrier(prod(len(ideal) for ideal in action.ideals), action.bound)
        subrings: Dict[frozenset, SubRing] = {}     # equal ideals share one digit ring
        super().__init__([_memo(subrings, ideal.key, lambda _: SubRing(amb, ideal))
                          for ideal in action.ideals],
                         [[h for h in range(G.n_morphisms) if G.composable(g, h)]
                          for g in range(G.n_morphisms)])
        self.action = action
        self.tag = f"skew({amb.tag}; {G.n_morphisms} morphisms)"
        self.one = self._find_one()

    # -- encoding -----------------------------------------------------------

    def encode(self, coeffs: Sequence[int]) -> int:
        """The element with the given ambient coefficient per morphism."""
        if len(coeffs) != len(self._digits):
            raise MalformedInput(f"expected {len(self._digits)} coefficients, one per "
                                 f"morphism, got {len(coeffs)}")
        positions = [digit.from_parent.get(a) for digit, a in zip(self._digits, coeffs)]
        if None in positions:
            g = positions.index(None)
            a, amb = coeffs[g], self.action.ambient
            where = f"A_{self.action.groupoid.morphisms[g]}"
            if not isinstance(a, int) or not 0 <= a < amb.size:
                raise MalformedInput(f"coefficient {a!r} for {where} is not an ambient element")
            raise MalformedInput(f"coefficient {amb.label(a)} lies outside {where}")
        return super().encode(positions)

    def coefficients(self, x: int) -> Tuple[int, ...]:
        """Ambient coefficients of ``x``, one per morphism."""
        return tuple(digit.to_parent[c] for digit, c in zip(self._digits, self.decode(x)))

    def inject(self, g: int, a: int) -> int:
        """The single-term element a delta_g."""
        coeffs = [0] * len(self._digits)
        coeffs[g] = a
        return self.encode(coeffs)

    # -- ring operations ----------------------------------------------------

    def _term(self, g: int, x: int, h: int, y: int) -> Tuple[int, int]:
        act, digits = self.action, self._digits
        G = act.groupoid
        a, b = digits[g].to_parent[x], digits[h].to_parent[y]
        term = act.sigma(g, act.ambient.mul(act.sigma(G.inv[g], a), b))
        gh = G.compose(g, h)
        pos = digits[gh].from_parent.get(term)
        if pos is None:
            raise InternalDisagreement(
                f"product coefficient {act.ambient.label(term)} escaped "
                f"A_{G.morphisms[gh]}; the action validator and the "
                f"product rule disagree")
        return gh, pos

    def label(self, x: int) -> str:
        G = self.action.groupoid
        amb = self.action.ambient
        terms = [f"({amb.label(c)})*d({G.morphisms[g]})"
                 for g, c in enumerate(self.coefficients(x)) if c != 0]
        return " + ".join(terms) if terms else "0"

    def _find_one(self) -> Optional[int]:
        G = self.action.groupoid
        amb = self.action.ambient
        if any(part.one is None for part in amb.parts):
            return None
        coeffs = [0] * len(self._digits)
        for e in range(G.n_objects):
            coeffs[G.identity(e)] = amb.inject(e, amb.parts[e].one)
        return first_identity(self, [self.encode(coeffs)], self.additive_generators())


def _checked_grading(groupoid: FiniteGroupoid, ring: _VectorRing,
                     raw: Dict[int, List[int]]) -> Grading:
    """Validate a built product ring, graded by morphism, as a grading whose
    components ``raw`` generates, and close its checks.

    The grading axioms are checked first, then of the ring laws only
    associativity: the addition is coordinatewise on validated digit rings
    and the product is biadditive, a sum of terms from a biadditive rule.
    So generator triples a in S_g, b in S_h, c in S_k suffice, and only
    those with g*h and h*k defined, in generator order: on any other ab =
    0, or bc lies in S_hk with g*hk undefined, so both sides are 0 and the
    first failure is the one a scan of all triples finds.
    AssociativityFailure signals an invalid action that slipped through
    validation, or a faulty product rule (a product that breaks the grading
    axioms too raises their AxiomViolation first); a grading that is not
    nearly epsilon-strong raises the falsification alarm, since the product
    is a skew product of s-unital ideals.
    """
    grading = validate_grading(groupoid, ring, raw)
    comps = grading.components
    after = {a: [b for h in ring._partners[g] for b in comps[h].gens]
             for g, comp in enumerate(comps) for a in comp.gens}
    bad = first_nonassociative(ring, list(after), after.__getitem__)
    if bad is not None:
        raise AssociativityFailure("the built skew product is not associative at "
                                   f"({', '.join(map(ring.label, bad))})")
    nes = is_nearly_epsilon_strong(grading)
    if not nes.holds:
        raise InternalDisagreement(
            "a skew product of s-unital ideals must be nearly epsilon-strong",
            details=nes.failures)
    return grading


@_once
def build_skew_ring(action: PartialAction) -> Grading:
    """Materialize the skew product, once per action, and hand it back as a
    validated grading.

    The carrier is refused (never truncated) above the action's bound, and
    closed by ``_checked_grading``: biadditive since ``first_hom_failure``
    proved every sigma additive.
    """
    ring = SkewGroupoidRing(action)
    raw = {g: [ring.inject(g, a) for a in action.ideals[g].gens]
           for g in range(action.groupoid.n_morphisms)}
    return _checked_grading(action.groupoid, ring, raw)


class GroupoidRing(_VectorRing):
    """The groupoid ring base[G]: one ``base`` digit per morphism, with the
    convolution product (x delta_g)(y delta_h) = xy delta_{gh} on composable
    pairs and zero otherwise -- ``rings.GroupRing``'s shape with the
    groupoid's partial composition.

    Element for element it is the skew product of ``groupoid_ring_action``:
    digit g there is the position of at(r(g), v) in its sorted component,
    which is v.  So it keeps that ring's indices, additive generators, tag
    and labels, (at(o, x))*d(g) with o the range of g, and its identity is
    confirmed by ``first_identity`` as there.
    """

    def __init__(self, base: FiniteRing, groupoid: FiniteGroupoid):
        G = groupoid
        super().__init__([base] * G.n_morphisms,
                         [[h for h in range(G.n_morphisms) if G.composable(g, h)]
                          for g in range(G.n_morphisms)])
        self.base = base
        self.groupoid = G
        parts = ", ".join(f"{o}:{base.tag}" for o in G.objects)
        self.tag = f"skew(sum({parts}); {G.n_morphisms} morphisms)"
        self.one = None if base.one is None else first_identity(
            self, [sum(self.inject(G.identity(e), base.one) for e in range(G.n_objects))],
            self.additive_generators())

    def _term(self, g: int, x: int, h: int, y: int) -> Tuple[int, int]:
        return self.groupoid.compose(g, h), self.base.mul(x, y)

    def label(self, x: int) -> str:
        G, base = self.groupoid, self.base
        return " + ".join(f"(at({G.objects[G.rng[g]]}, {base.label(c)}))*d({G.morphisms[g]})"
                          for g, c in enumerate(self.decode(x)) if c != 0) or "0"


def groupoid_ring_action(base: FiniteRing, groupoid: FiniteGroupoid,
                         bound: int = SKEW_RING_BOUND) -> PartialAction:
    """The global action with every component a copy of ``base`` and every
    map the identity transport between copies, under carrier bound ``bound``;
    its skew product is ``GroupoidRing(base, groupoid)``."""
    G = groupoid
    amb = DirectSumRing([base] * G.n_objects, keys=G.objects)
    gens: Dict[int, List[int]] = {}
    tables: Dict[int, Dict[int, int]] = {}
    for g in range(G.n_morphisms):
        if G.is_identity(g):
            continue
        s, r = G.src[g], G.rng[g]
        gens[g] = [amb.inject(r, c) for c in base.additive_generators()]
        tables[g] = {amb.inject(s, v): amb.inject(r, v) for v in base.elements()}
    return validate_partial_action(G, amb, gens, tables, bound)


def build_groupoid_ring(base: FiniteRing, groupoid: FiniteGroupoid,
                        bound: int = SKEW_RING_BOUND) -> Grading:
    """The groupoid ring of ``groupoid`` over ``base`` as a validated grading.

    Built directly as ``GroupoidRing`` and closed by ``_checked_grading``.
    The carrier has |base|^|morphisms| elements, so it is refused above
    ``bound`` before anything is built.  Then the bases that
    ``validate_partial_action`` refuses on the induced action are refused
    with its first error: a zero base, and one that is not s-unital (every
    A_g is a copy of it, and the first one checked is A at morphism 0).
    Every other axiom of that action holds by construction.
    """
    G = groupoid
    _refuse_carrier(base.size ** G.n_morphisms, bound)
    if base.size == 1:
        raise DegenerateInstance("the zero ring admits no meaningful action")
    if not is_s_unital(base):
        raise AxiomViolation("s-unital", f"A_{G.morphisms[0]} is not s-unital")
    ring = GroupoidRing(base, G)
    return _checked_grading(G, ring, {g: [ring.inject(g, c) for c in base.additive_generators()]
                                      for g in range(G.n_morphisms)})


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def is_global(action: PartialAction) -> bool:
    """Whether every attached ideal is the full component at its range."""
    G = action.groupoid
    return all(action.ideals[g].key == action.ideals[G.identity(G.rng[g])].key
               for g in range(G.n_morphisms))


class GroupTypeResult(Record):
    holds: bool
    anchor: Optional[int]
    #: object -> transporting morphism from the anchor, identity at the anchor
    family: Dict[int, int]
    reason: Optional[str]


@_once
def is_group_type(action: PartialAction) -> GroupTypeResult:
    """Search for an anchor object with a transport family of morphisms.

    An anchor e needs, for every object f, a morphism h_f: e -> f whose
    attached ideals are full on both ends (A at h_f^{-1} equal to the whole
    component of e, A at h_f equal to the whole component of f), with h_e the
    identity.  Connectivity is necessary, so its absence is reported as the
    reason; anchors are tried in object order and the first full family wins.
    """
    G = action.groupoid
    if not is_connected(G):
        return GroupTypeResult(False, None, {}, "the groupoid is not connected")
    for e in range(G.n_objects):
        comp_e = action.ideals[G.identity(e)].key
        family = {e: G.identity(e)}
        for f in range(G.n_objects):
            if f == e:
                continue
            comp_f = action.ideals[G.identity(f)].key
            hit = next((h for h in range(G.n_morphisms)
                        if G.src[h] == e and G.rng[h] == f
                        and action.ideals[G.inv[h]].key == comp_e
                        and action.ideals[h].key == comp_f), None)
            if hit is None:
                break
            family[f] = hit
        else:
            return GroupTypeResult(True, e, family, None)
    return GroupTypeResult(False, None, {}, "no object anchors a transport family")


# ---------------------------------------------------------------------------
# invariant ideals of the ambient sum
# ---------------------------------------------------------------------------

def sigma_invariant_closure(action: PartialAction, seed: Iterable[int]) -> Ideal:
    """The smallest ideal of the ambient sum containing ``seed`` and stable
    under every sigma_g.

    ``rings.close``: pushed generators are multiplied by the ambient's
    additive generators (two-sided ideal closure) and, per morphism, pushed
    into the domain by right products against the generators of A_{g^{-1}}
    and then through sigma_g.  Right products suffice because the domain
    ideals are s-unital, making I ∩ A_{g^{-1}} equal to I·A_{g^{-1}}.
    Closures cached on the action are reused.
    """
    amb = action.ambient
    G = action.groupoid
    mul = amb.mul
    rgens = amb.additive_generators()
    transports = [(action.maps[g], action.ideals[G.inv[g]].gens)
                  for g in range(G.n_morphisms) if not G.is_identity(g)]
    seed = list(seed)
    for x in seed:
        if not 0 <= x < amb.size:
            raise MalformedInput(f"seed element {x!r} is not an ambient element")

    def produce(x: int) -> Iterator[int]:
        for r in rgens:
            yield mul(r, x)
            yield mul(x, r)
        for table, domain_gens in transports:
            for u in domain_gens:
                p = mul(x, u)
                if p:
                    yield table[p]

    return close(amb, seed, produce, action._closure_cache)


def _cached_sigma_closure(action: PartialAction, a: int) -> Ideal:
    return _memo(action._closure_cache, a, lambda x: sigma_invariant_closure(action, (x,)))


@_once
def is_A_G_prime(action: PartialAction) -> PairCriterionResult:
    """No two nonzero sigma-stable ideals of the ambient sum multiply to zero.

    Pair form over nonzero ambient elements with sigma-invariant closures in
    place of arbitrary invariant ideals; the reduction is exact since any
    offending pair of ideals contains an offending pair of closures.  Witness
    is the first failing pair in element order.  Ambients above the action's
    bound are refused before the search, which runs once per action.  This
    is the one walk over a built ring with a refusal of its own: an instance
    bounds the ambient's parts one by one, so their sum can exceed the bound.
    """
    amb = action.ambient
    if amb.size > action.bound:
        raise BoundExceeded(f"ambient carrier {amb.size} exceeds {action.bound}")
    pair = first_zero_pair(range(1, action.ambient.size),
                           lambda a: _cached_sigma_closure(action, a))
    return PairCriterionResult(pair is None, pair)


class PsiCheckResult(Record):
    ok: bool
    #: the first failing check, in the order the docstring of psi_check lists
    mismatch: Optional[str]


def psi_check(action: PartialAction) -> PsiCheckResult:
    """Check that collecting object components onto the identity morphisms
    embeds the ambient sum isomorphically into the skew product, and that the
    ambient pair criterion agrees with the identity-part criterion there.

    Every check is exact: additivity, then multiplicativity, by
    ``rings.first_hom_failure`` on the ambient's additive generators
    (which names the law that fails first); bijectivity onto the identity
    part; the criterion comparison.  The first that fails is named in
    ``mismatch`` ("additive", "multiplicative", "bijective" or
    "primeness-comparison").  Mismatches are reported, not raised: a false
    return flags an implementation bug, not bad input.
    """
    grading = build_skew_ring(action)
    ring = grading.ring
    amb = action.ambient
    G = action.groupoid

    def image(a: int) -> int:
        coeffs = [0] * G.n_morphisms
        for e in range(G.n_objects):
            coeffs[G.identity(e)] = amb.inject(e, amb.component(G.objects[e], a))
        return ring.encode(coeffs)

    images = [image(a) for a in amb.elements()]
    principal = grading.principal_part()
    bijective = (len(set(images)) == amb.size
                 and set(images) == set(principal.elements))
    bad = first_hom_failure(amb, ring, images.__getitem__, amb.elements(),
                            amb.additive_generators())
    criteria_agree = is_A_G_prime(action).holds == is_G_prime_principal(grading).holds
    mismatch = (bad[0] if bad is not None else "bijective" if not bijective
                else None if criteria_agree else "primeness-comparison")
    return PsiCheckResult(mismatch is None, mismatch)


# ---------------------------------------------------------------------------
# hubs and the transport chain
# ---------------------------------------------------------------------------

def skew_support_hub(action: PartialAction, e: int) -> HubResult:
    """Hub test at ``e`` computed from the action data alone.

    A coefficient a in A_g multiplies nontrivially against A_h delta_h from
    the left exactly when sigma_{g^{-1}}(a)·A_h is nonzero, and absorbs
    A_k delta_k from the left exactly when A_{k^{-1}}·a is nonzero, so the
    search never materializes the product ring.  On failure ``blocking`` is
    the first (morphism, ambient coefficient) lacking h or k; agrees with the
    grading-side hub test on every buildable carrier.
    """
    G = action.groupoid
    amb = action.ambient
    if action.ideals[G.identity(G.check_object(e))].is_zero():
        raise ObjectNotInSupport(
            f"object {G.objects[e]!r} carries a zero component")
    mul = amb.mul
    out_h = G.morphisms_from(e)
    in_k = G.morphisms_into(e)
    for g in range(G.n_morphisms):
        for a in action.ideals[g].sorted_elements():
            if a == 0:
                continue
            pulled = action.sigma(G.inv[g], a)
            if not (any(mul(pulled, v) != 0 for h in out_h if G.composable(g, h)
                        for v in action.ideals[h].gens)
                    and any(mul(u, a) != 0 for k in in_k if G.composable(k, g)
                            for u in action.ideals[G.inv[k]].gens)):
                return HubResult(False, (g, a))
    return HubResult(True, None)


@_once
def restrict_to_isotropy(action: PartialAction, e: int) -> PartialAction:
    """The induced action of the loop group at ``e`` on the component there.

    Coefficients transfer along the component projection onto a fresh
    one-object carrier; the result is re-validated from scratch rather than
    trusted, keeps the action's bound, and is cached per object.
    """
    G = action.groupoid
    if action.ideals[G.identity(G.check_object(e))].is_zero():
        raise ObjectNotInSupport(
            f"object {G.objects[e]!r} carries a zero component")
    amb = action.ambient
    key = G.objects[e]
    loops = G.loops(e)
    sub_groupoid, local = restrict(validate_subgroupoid(G, loops))
    new_amb = DirectSumRing([amb.parts[e]], keys=(key,))

    def transfer(x: int) -> int:
        return new_amb.inject(0, amb.component(key, x))

    gens = {local[g]: [transfer(x) for x in action.ideals[g].gens] for g in loops[1:]}
    tables = {local[g]: {transfer(a): transfer(b) for a, b in action.maps[g].items()}
              for g in loops[1:]}
    return validate_partial_action(sub_groupoid, new_amb, gens, tables, action.bound)


# ---------------------------------------------------------------------------
# primeness verdicts
# ---------------------------------------------------------------------------

class SkewPrimeVerdict(Record):
    prime: bool
    #: "oracle" when the product ring was built, "group-type" for the reduction
    method: str
    #: alive object -> primeness of its isotropy skew ring (transportable case)
    isotropy_prime: Dict[int, bool]
    oracle: Optional[PrimeResult]


@_once
def isotropy_reduction(action: PartialAction) -> Dict[int, PrimeResult]:
    """Alive object -> the oracle's result on its isotropy skew ring, built
    under the action's bound; with a transport family the product is prime
    iff one is."""
    return {e: is_prime_bruteforce(
                build_skew_ring(restrict_to_isotropy(action, e)).ring)
            for e in action.support_objects()}


@_once
def skew_prime_verdict(action: PartialAction) -> SkewPrimeVerdict:
    """Primeness of the skew product, by oracle when buildable and through
    the isotropy reduction otherwise.

    The reduction applies only when a transport family exists: the product is
    then prime exactly when some alive object has a prime isotropy skew ring.
    When both routes are in reach they are compared, and disagreement raises
    the falsification alarm.  Without a transport family and above the bound,
    the verdict is refused.
    """
    transport = is_group_type(action)
    try:
        grading = build_skew_ring(action)
    except BoundExceeded:
        if not transport.holds:
            raise BoundExceeded(
                "the carrier exceeds the bound and no transport family exists, "
                "so no reduction to isotropy applies") from None
        per = {e: r.prime for e, r in isotropy_reduction(action).items()}
        return SkewPrimeVerdict(any(per.values()), "group-type", per, None)
    res = is_prime_bruteforce(grading.ring)
    per: Dict[int, bool] = {}
    if transport.holds:
        per = {e: r.prime for e, r in isotropy_reduction(action).items()}
        if any(per.values()) != res.prime:
            raise InternalDisagreement(
                "isotropy reduction disagrees with the oracle on a "
                "transportable action",
                details={"oracle": res.prime, "isotropy": per})
    return SkewPrimeVerdict(res.prime, "oracle", per, res)


def global_support_connectivity_check(action: PartialAction) -> bool:
    """For a global action: restricted connectivity over the alive objects
    and the two hub quantifiers, computed separately and required to agree.

    Returns the common verdict; disagreement raises the falsification alarm.
    """
    if not is_global(action):
        raise MalformedInput("the connectivity comparison is for global actions")
    G = action.groupoid
    alive = action.support_objects()
    connected = all(any(G.src[g] == a and G.rng[g] == b
                        for g in range(G.n_morphisms))
                    for a in alive for b in alive)
    hubs = {e: skew_support_hub(action, e).is_hub for e in alive}
    every = all(hubs.values())
    some = any(hubs.values())
    if not connected == every == some:
        raise InternalDisagreement(
            "connectivity and hub quantifiers disagree on a global action",
            details={"connected": connected, "every": every, "some": some,
                     "hubs": hubs})
    return connected


class ConnellResult(Record):
    holds: bool
    connected: bool
    coefficients_prime: bool
    isotropy_ok: bool
    reasons: Tuple[str, ...]


def connell_check(base: FiniteRing, groupoid: FiniteGroupoid) -> ConnellResult:
    """The classical three-part primeness test for a groupoid ring.

    Conjunction of: the groupoid is connected, the coefficient ring is prime,
    and no isotropy group has a nontrivial finite normal subgroup (Connell,
    "On the group ring", Canad. J. Math. 15, 1963; for a finite group: it is
    trivial).  Each leg is reported with a reason on failure.  No leg has a
    bound of its own -- the oracle runs on ``base``, bounded where it was
    built, and the isotropy leg takes normal closures -- so the check stays
    usable above the construction bound.  The verdict matches the oracle on
    every buildable carrier; that comparison lives in the test suite.
    """
    if base.size == 1:
        raise DegenerateInstance(
            "the zero coefficient ring gives the zero groupoid ring")
    if not is_s_unital(base):
        raise NotSUnital("the coefficient ring must be s-unital")
    reasons: List[str] = []
    connected = is_connected(groupoid)
    if not connected:
        reasons.append("the groupoid is not connected")
    coefficients = is_prime_bruteforce(base)
    if not coefficients.prime:
        witness = coefficients.witness
        reasons.append(f"the coefficient ring is not prime (witness "
                       f"{base.label(witness.a)}, {base.label(witness.b)})")
    isotropy_ok = True
    for e in range(groupoid.n_objects):
        found, sub = has_nontrivial_finite_normal_subgroup(isotropy(groupoid, e))
        if found:
            isotropy_ok = False
            reasons.append(f"isotropy at {groupoid.objects[e]!r} has a normal "
                           f"subgroup of order {sub.order}")
    return ConnellResult(connected and coefficients.prime and isotropy_ok,
                         connected, coefficients.prime, isotropy_ok,
                         tuple(reasons))


# ---------------------------------------------------------------------------
# orbit density
# ---------------------------------------------------------------------------

def orbit_density_check(groupoid: FiniteGroupoid, base: FiniteRing, e: int) -> bool:
    """Density of the orbit of ``e`` in the groupoid ring, checked against
    connectivity.

    A set of objects is dense when every nonzero element of the groupoid
    ring has a nonzero coefficient at some morphism whose source lies in it.
    The orbit is dense iff it holds every object: then every morphism's
    source lies in it, and otherwise the single term at the identity of an
    object outside it has no such coefficient.  For a
    unital commutative coefficient ring the orbit is dense exactly when the
    groupoid is connected; both sides are computed and must agree, else the
    falsification alarm fires.  Returns the density verdict.
    """
    if base.one is None:
        raise MalformedInput("the coefficient ring must be unital")
    if not is_commutative(base):
        raise MalformedInput("the coefficient ring must be commutative")
    groupoid.check_object(e)
    if base.size == 1:
        raise DegenerateInstance(
            "the zero coefficient ring gives the zero groupoid ring")
    dense = len(orbit(groupoid, e)) == groupoid.n_objects
    connected = is_connected(groupoid)
    if dense != connected:
        raise InternalDisagreement(
            f"orbit density at {groupoid.objects[e]!r} disagrees with "
            f"connectivity",
            details={"dense": dense, "connected": connected})
    return dense


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------

def _meets_identity_part(grading: Grading) -> bool:
    """Every nonzero ideal meets the identity part P (principal ideals
    suffice, since every nonzero ideal contains a nonzero principal one):
    (x) n P is nonzero iff |(x)| |P| > |(x) + P|, asked once per ideal."""
    P, ring = grading.principal_part(), grading.ring
    met = set()
    for x in range(1, ring.size):
        ideal = principal_ideal(ring, x)
        if ideal.key not in met:
            if len(ideal) * len(P) == len(additive_closure(ring, ideal.gens + P.gens)):
                return False
            met.add(ideal.key)
    return True


class SufficientReport(Record):
    #: a transport family exists or the ambient sum is A-G-prime; the
    #: conditions conclude nothing otherwise
    applicable: bool
    #: first alive object with trivial loop group and a prime component
    trivial_isotropy_at: Optional[int]
    #: first alive object whose isotropy skew ring has the intersection
    #: property, with the component prime for the loop-group action
    intersection_at: Optional[int]
    #: first alive object where the identity part is maximal commutative
    #: (commutative ambient only), with the component prime for the action
    maximal_commutative_at: Optional[int]
    guarantees_prime: bool


def sufficient_conditions_report(action: PartialAction) -> SufficientReport:
    """Evaluate the three sufficient conditions object by object.

    Each condition is searched over the alive objects in order and the first
    hit recorded.  The conditions only conclude anything when a transport
    family exists or the ambient sum has no zero-multiplying pair of stable
    ideals; when they do conclude, the verdict is checked against
    skew_prime_verdict and disagreement raises the falsification alarm.
    """
    G = action.groupoid
    amb = action.ambient
    transport = is_group_type(action).holds
    ambient_prime = is_A_G_prime(action).holds     # refused above the bound
    applicable = transport or ambient_prime
    commutative = is_commutative(amb)
    trivial_at: Optional[int] = None
    intersection_at: Optional[int] = None
    maximal_at: Optional[int] = None
    for e in action.support_objects():
        if trivial_at is None and len(G.loops(e)) == 1 \
                and is_prime_bruteforce(amb.parts[e]).prime:
            trivial_at = e
        if intersection_at is not None and (maximal_at is not None or not commutative):
            continue
        sub = restrict_to_isotropy(action, e)
        sub_grading = build_skew_ring(sub)
        component_prime = is_A_G_prime(sub).holds
        if intersection_at is None and component_prime \
                and _meets_identity_part(sub_grading):
            intersection_at = e
        if maximal_at is None and commutative and component_prime \
                and is_maximal_commutative(sub_grading.ring,
                                           sub_grading.principal_part()):
            maximal_at = e
    hits = (trivial_at, intersection_at, maximal_at)
    guarantees = applicable and any(h is not None for h in hits)
    if guarantees:
        verdict = skew_prime_verdict(action)
        if not verdict.prime:
            raise InternalDisagreement(
                "a satisfied sufficient condition contradicts the prime verdict",
                details={"conditions": hits, "verdict": verdict})
    return SufficientReport(applicable, trivial_at, intersection_at, maximal_at, guarantees)
