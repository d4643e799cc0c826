"""Groupoid gradings of finite rings and the graded-side primeness machinery.

A grading assigns an additive subgroup S_g of one carrier to every morphism g
so that S_g S_h lands in S_{gh} when (g, h) is composable and vanishes
otherwise, and the carrier is the direct sum of the components.  Directness is
decided on one canonical basis of the component generators, and ``decompose``
reduces against one more basis, so no per-element table is built.

Everything downstream leans on two small facts: a product of additive spans is
controlled by generator pairs, and closure routines only ever have to multiply
pushed generators.  Both live in ``rings``: ``invariant_closure`` is
``rings.close`` with conjugation added to the production rules, and both pair
criteria hand their members and closures to ``rings.first_zero_pair``.  All
searches run in (morphism index, element index) order, so witnesses are
reproducible.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import xor

from .errors import (AxiomViolation, DegenerateInstance, InternalDisagreement,
                     MalformedInput, NotDirectSum, NotGraded, NotInvariant,
                     ObjectNotInSupport, Record)
from .groupoid import FiniteGroupoid, Subgroupoid, restrict, validate_subgroupoid
from .rings import (AdditiveSubgroup, FiniteRing, Ideal, SubRing, _Basis, _Closures,
                    _Coordinates, _basis, _coordinates, _kernel, _memo, _once, _radix_tuples,
                    additive_closure, close, first_escape, first_zero_pair,
                    ideal_generated, is_s_unital, principal_ideal, set_product)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Grading",
    "GradedIdeal",
    "validate_grading",
    "project",
    "NESResult",
    "is_nearly_epsilon_strong",
    "SupportResult",
    "support_groupoid",
    "conjugate",
    "is_invariant",
    "invariant_closure",
    "phi",
    "psi",
    "HubResult",
    "is_support_hub",
    "PairCriterionResult",
    "is_graded_prime",
    "is_G_prime_principal",
    "restrict_grading",
    "isotropy_component",
]


class Grading:
    """A validated groupoid grading; construct via validate_grading.

    Kept on the grading once computed: the fold basis of ``decompose``, the
    invariant closures, and (``rings._once``) each fact derived from it."""

    def __init__(self, groupoid: FiniteGroupoid, ring: FiniteRing,
                 components: Sequence[AdditiveSubgroup]):
        self.groupoid = groupoid
        self.ring = ring
        self.components: Tuple[AdditiveSubgroup, ...] = tuple(components)
        self._fold: Optional[_Basis] = None
        self._inv_cache = _Closures(AdditiveSubgroup)

    def decompose(self, x: int) -> Tuple[int, ...]:
        """The unique per-morphism parts summing to x.

        One basis over n+1 blocks of the carrier's coordinates, built on the
        first call, spans the rows (s | -s in block g+1) over the generators
        s of each S_g.  Reducing (x | 0 ... 0) clears block 0 and leaves x's
        part in S_g in block g+1.  As the sum is direct, no nonzero row
        vanishes in block 0, so there are at most k rows for k coordinates:
        the blocks keep the carrier's field width, which leaves room for k
        multiples, and parts are read by shift and mask."""
        c = _coordinates(self.ring)
        block, n = c.width * len(c.moduli), len(self.components)
        if self._fold is None:
            self._fold = _basis(_Coordinates(c.moduli * (n + 1), c.width))
            for g, comp in enumerate(self.components, 1):
                for s in comp.gens:
                    self._fold.insert(c.of[s] + (c.neg(c.of[s]) << g * block))
        r, mask = self._fold.c.normalize(self._fold.reduce(c.of[x])), (1 << block) - 1
        return tuple(c.index[r >> g * block & mask] for g in range(1, n + 1))

    def homogeneous(self) -> Iterator[Tuple[int, int]]:
        """All nonzero homogeneous elements as (morphism, element) in index order."""
        return ((g, x) for g, comp in enumerate(self.components)
                for x in comp.sorted_elements() if x != 0)

    @_once
    def principal_part(self) -> AdditiveSubgroup:
        """The additive span of the identity components, in ambient indices."""
        G = self.groupoid
        return additive_closure(self.ring, [
            x for e in range(G.n_objects) for x in self.components[G.identity(e)].gens])

    def __repr__(self) -> str:
        return f"Grading({self.ring.tag} by {self.groupoid!r})"


class GradedIdeal(Record):
    """An ideal equal to the sum of its homogeneous parts."""

    ideal: Ideal
    parts: Tuple[frozenset, ...]

    @staticmethod
    def of(grading: Grading, ideal: Ideal) -> "GradedIdeal":
        """Check gradedness on the ideal's generators; NotGraded on failure.
        The parts are additive, so checking the generators' parts is exact,
        and the parts at g are the span of the generators' parts at g."""
        parts: List[List[int]] = [[] for _ in grading.components]
        for x in ideal.gens:
            for g, p in enumerate(grading.decompose(x)):
                if p not in ideal:
                    raise NotGraded(
                        f"generator {grading.ring.label(x)} has part "
                        f"{grading.ring.label(p)} at {grading.groupoid.morphisms[g]!r} "
                        f"outside the ideal")
                parts[g].append(p)
        return GradedIdeal(ideal, tuple(additive_closure(grading.ring, p).elements
                                        for p in parts))


def validate_grading(groupoid: FiniteGroupoid, ring: FiniteRing,
                     raw_components: Dict[int, Iterable[int]]) -> Grading:
    """Close the generator sets, then check compatibility and directness.

    ``raw_components`` maps morphism indices to generator lists of ring
    elements (MalformedInput otherwise); missing morphisms get the zero
    component.  Compatibility (S_g S_h inside S_{gh} for composable pairs,
    zero otherwise) is checked on generator pairs, which suffices by
    bilinearity.  Directness is decided on one basis of the component
    generators, inserted in morphism order: T = S_0 + ... + S_{g-1} and S_g
    span |T| |S_g| / |T n S_g| elements, so the sum is direct through S_g
    iff the span has the product of the |S_h|, h <= g, elements.  At the
    first g where it has fewer, the error names the least of the elements
    ``rings._kernel`` gives for T n S_g on the rows (t, 0) and (s, s).  The
    components span the carrier iff the final product is its size.
    """
    n = groupoid.n_morphisms
    if ring.size == 1:
        raise DegenerateInstance("the zero ring admits no meaningful grading")
    for g in raw_components:
        groupoid.check_morphism(g)
    comps: List[AdditiveSubgroup] = []
    for g in range(n):
        gens = list(raw_components.get(g, ()))
        for x in gens:
            if not isinstance(x, int) or not 0 <= x < ring.size:
                raise MalformedInput(
                    f"generator {x!r} for S_{groupoid.morphisms[g]} is not a ring element")
        comps.append(additive_closure(ring, gens))
    if all(c.is_zero() for c in comps):
        raise DegenerateInstance("all components are zero")

    mul = ring.mul
    for g in range(n):
        for h in range(n):
            target = comps[groupoid.compose(g, h)] if groupoid.composable(g, h) else None
            for a in comps[g].gens:
                for b in comps[h].gens:
                    p = mul(a, b)
                    if target is None and p != 0:
                        raise AxiomViolation(
                            "grading", f"compatibility: S_{groupoid.morphisms[g]} * "
                            f"S_{groupoid.morphisms[h]} is nonzero on a non-composable pair "
                            f"(witness {ring.label(a)} * {ring.label(b)} = {ring.label(p)})")
                    if target is not None and p not in target:
                        raise AxiomViolation(
                            "grading", f"compatibility: {ring.label(a)} * {ring.label(b)} = "
                            f"{ring.label(p)} escapes S_{groupoid.morphisms[groupoid.compose(g, h)]}")

    coords = _coordinates(ring)
    span, size = _basis(coords), 1
    for g, comp in enumerate(comps):
        for x in comp.gens:
            span.insert(coords.of[x])
        size *= len(comp)
        if span.size() < size:
            x = min(_kernel(ring, [(t, 0) for c in comps[:g] for t in c.gens]
                            + [(s, s) for s in comp.gens]))
            raise NotDirectSum(
                f"components overlap: {ring.label(x)} lies in S_{groupoid.morphisms[g]} "
                f"and in the earlier components (at morphism {groupoid.morphisms[g]!r})",
                witness=(g, x))
    if size != ring.size:
        raise NotDirectSum(f"components span only {size} of {ring.size} elements")
    return Grading(groupoid, ring, comps)


def project(grading: Grading, hs: Iterable[int], x: int) -> int:
    """The sum of x's homogeneous parts over the morphism subset ``hs``."""
    hs = {grading.groupoid.check_morphism(g) for g in hs}
    parts = grading.decompose(x)
    return reduce(grading.ring.add, [parts[g] for g in hs], 0)


# ---------------------------------------------------------------------------
# near epsilon-strongness
# ---------------------------------------------------------------------------

class NESResult(Record):
    holds: bool
    #: (morphism, element) -> (left unit in S_g S_g^-1, right unit in S_g^-1 S_g)
    certificate: Dict[Tuple[int, int], Tuple[int, int]]
    #: human-readable reasons per failing morphism, empty when holds
    failures: Tuple[str, ...]


@_once
def is_nearly_epsilon_strong(grading: Grading) -> NESResult:
    """Decide near epsilon-strongness by two routes and insist they agree.

    Route one asks, per morphism g, that the product S_g S_g^-1 be an s-unital
    ring and that S_g S_g^-1 S_g recover S_g; s-unitality is decided once
    per distinct product, by its basis key.  Route two searches, per nonzero
    d in S_g, for units eps in S_g S_g^-1 and eps' in S_g^-1 S_g with
    eps*d == d == d*eps', the first of each in index order.  The global
    verdicts must coincide (per-morphism booleans may legitimately differ on
    pathological inputs: the right-unit half of route one at g is fed by
    route two at g^-1); disagreement raises InternalDisagreement, it is
    never reconciled.

    Route two rests on bilinearity: with s_1..s_r the elements of S_g's
    canonical basis rows and d = sum k_j s_j, u*d = sum k_j (u*s_j).  So
    each candidate u, taken lazily in index order, costs r ring products,
    its images u*s_j, and each d still waiting for a unit is tested on
    packed coordinates (xor on binary carriers), with the coefficients k
    read off the enumeration that lists S_g.  The right side is the same
    with s_j*u.

    The result is computed once per grading and kept on it, so every
    caller on the same grading shares one ``NESResult``.
    """
    G = grading.groupoid
    route_one = True
    route_two = True
    failures: List[str] = []
    certificate: Dict[Tuple[int, int], Tuple[int, int]] = {}
    products = [set_product(grading.components[g], grading.components[G.inv[g]])
                for g in range(G.n_morphisms)]
    s_unital: Dict[frozenset, bool] = {}

    for g in range(G.n_morphisms):
        sg = grading.components[g]
        x = products[g]
        if x.key not in s_unital:
            s_unital[x.key] = is_s_unital(x)
        if not s_unital[x.key]:
            route_one = False
            failures.append(f"{G.morphisms[g]!r}: S_g S_g^-1 is not s-unital")
        if set_product(x, sg).key != sg.key:
            route_one = False
            failures.append(f"{G.morphisms[g]!r}: S_g S_g^-1 S_g != S_g")
        members = _with_coefficients(sg)
        lefts = _first_units(sg, members, x, False)
        rights = _first_units(sg, [m for m in members if m[0] in lefts],
                              products[G.inv[g]], True)
        for d, _ in members:
            if d in rights:
                certificate[(g, d)] = (lefts[d], rights[d])
            else:
                route_two = False
                side = "right" if d in lefts else "left"
                failures.append(
                    f"{G.morphisms[g]!r}: no {side} unit for {grading.ring.label(d)}")

    if route_one != route_two:
        raise InternalDisagreement(
            "the two near-epsilon-strongness characterizations disagree",
            details={"s_unital_route": route_one, "unit_route": route_two,
                     "failures": failures})
    holds = route_one
    return NESResult(holds, certificate if holds else {}, tuple(failures))


def _with_coefficients(sub: AdditiveSubgroup) -> List[Tuple[int, Tuple[int, ...]]]:
    """Every nonzero d of ``sub`` in index order, as (d, k) with d the sum of
    k_j times the j-th canonical basis row: ``_radix_tuples`` lists the k in
    the order in which ``vectors`` lists the sums."""
    index = _coordinates(sub.ring).index
    ks = _radix_tuples([range(order) for _, order in sub._basis.rows()])
    return sorted(zip([index[v] for v in sub._basis.vectors()], ks))[1:]


def _first_units(sub: AdditiveSubgroup, members: List[Tuple[int, Tuple[int, ...]]],
                 pool: AdditiveSubgroup, right: bool) -> Dict[int, int]:
    """d -> the first u of ``pool`` in index order with u*d == d (d*u == d
    when ``right``), over the (d, k) of ``members``; a d with no such u is
    left out.  u*d is read as sum k_j (u*s_j) over the elements s_j of
    ``sub``'s canonical basis rows.

    For t a unit mod the exponent E, u*(t*d) = t*(u*d) is t*d iff u*d is d,
    so d and t*d have the same units.  Only the first d of each class
    {t*d} is tested, and its first unit is the whole class's; ``members``
    is a union of such classes.  There are no such t but 1 when E is 2."""
    ring = sub.ring
    c, mul = _coordinates(ring), ring.mul
    basis = [c.index[row] for row, _ in sub._basis.rows()]
    found: Dict[int, int] = {}
    scalars = [t for t in range(2, c.exponent) if gcd(t, c.exponent) == 1]
    classes: Dict[int, Set[int]] = {}       # first member -> its class
    waiting = members
    if scalars:
        seen: Set[int] = set()
        waiting = []
        for d, ks in members:
            if d not in seen:
                twins = classes[d] = {d, *(c.index[c.normalize(t * c.of[d])] for t in scalars)}
                seen |= twins
                waiting.append((d, ks))
    for u in pool.sorted_elements():
        if not waiting:
            break
        if u == 0:
            continue
        images = [c.of[mul(s, u) if right else mul(u, s)] for s in basis]
        rest = []
        for d, ks in waiting:
            if c.binary:
                v = reduce(xor, [w for k, w in zip(ks, images) if k], 0)
            else:
                v = c.normalize(sum([k * w for k, w in zip(ks, images)]))
            if v == c.of[d]:
                found.update(dict.fromkeys(classes.get(d, (d,)), u))
            else:
                rest.append((d, ks))
        waiting = rest
    return found


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------

class SupportResult(Record):
    subgroupoid: Subgroupoid
    support_objects: Tuple[int, ...]


def support_groupoid(grading: Grading) -> SupportResult:
    """Morphisms whose endpoint objects both carry nonzero identity components.

    When the grading is nearly epsilon-strong, also asserts that every
    component outside the support vanishes (InternalDisagreement otherwise
    -- that would falsify the structure theory this package rests on, not
    merely reject the input).
    """
    G = grading.groupoid
    alive = [e for e in range(G.n_objects)
             if not grading.components[G.identity(e)].is_zero()]
    alive_set = set(alive)
    members = {g for g in range(G.n_morphisms)
               if G.src[g] in alive_set and G.rng[g] in alive_set}
    if not members:
        raise DegenerateInstance("no object carries a nonzero identity component")
    sub = validate_subgroupoid(G, members)
    if is_nearly_epsilon_strong(grading).holds:
        for g in range(G.n_morphisms):
            if g not in members and not grading.components[g].is_zero():
                raise InternalDisagreement(
                    f"nonzero component at {G.morphisms[g]!r} outside the support groupoid",
                    details={"morphism": g})
    return SupportResult(sub, tuple(alive))


# ---------------------------------------------------------------------------
# conjugation and invariant ideals of the identity-component ring
# ---------------------------------------------------------------------------

def conjugate(grading: Grading, sub: AdditiveSubgroup, g: int) -> AdditiveSubgroup:
    """The span of S_g^-1 * sub * S_g; generators suffice."""
    G = grading.groupoid
    G.check_morphism(g)
    mul = grading.ring.mul
    ugens = grading.components[G.inv[g]].gens
    vgens = grading.components[g].gens
    return additive_closure(grading.ring,
                            (mul(mul(u, x), v) for u in ugens for x in sub.gens for v in vgens))


def is_invariant(grading: Grading, sub: AdditiveSubgroup) -> Tuple[bool, Optional[int]]:
    """Whether conjugation by every morphism stays inside ``sub``; the second
    value is the first morphism that leaves it, if any."""
    G = grading.groupoid
    for g in range(G.n_morphisms):
        if not all(x in sub for x in conjugate(grading, sub, g).gens):
            return False, g
    return True, None


def invariant_closure(grading: Grading, seed: Iterable[int]) -> AdditiveSubgroup:
    """The smallest conjugation-stable ideal of the identity-component ring
    containing ``seed``.

    ``rings.close`` with two production rules per pushed generator x:
    products with the identity-component ring's additive generators (ideal
    closure) and sandwiches u*x*v over generator pairs of S_g^-1, S_g for
    every morphism g (conjugation closure).  Bilinearity makes generator
    pairs sufficient on both rules.  Closures cached on the grading are
    reused.
    """
    P = grading.principal_part()
    ring = grading.ring
    mul = ring.mul
    G = grading.groupoid
    sandwich = [(grading.components[G.inv[g]].gens, grading.components[g].gens)
                for g in range(G.n_morphisms)]
    seed = list(seed)
    for x in seed:
        if x not in P:
            raise MalformedInput(
                f"{ring.label(x)} is not in the identity-component ring")

    def produce(x: int) -> Iterator[int]:
        for r in P.gens:
            yield mul(r, x)
            yield mul(x, r)
        for ugens, vgens in sandwich:
            for u in ugens:
                ux = mul(u, x)
                for v in vgens:
                    yield mul(ux, v)

    return close(ring, seed, produce, grading._inv_cache)


def _cached_invariant_closure(grading: Grading, a: int) -> AdditiveSubgroup:
    return _memo(grading._inv_cache, a, lambda x: invariant_closure(grading, [x]))


# ---------------------------------------------------------------------------
# the two ideal maps
# ---------------------------------------------------------------------------

def phi(grading: Grading, ideal) -> AdditiveSubgroup:
    """Intersect a graded ideal with the identity-component ring.

    Accepts an Ideal, checked by ``GradedIdeal.of`` (NotGraded if it is not
    graded), or a GradedIdeal, taken as checked.  I n P is the span of the
    parts of I at the identity morphisms.  It is always an ideal of the
    identity-component ring; a failure of that is a bug, so it raises
    InternalDisagreement rather than rejecting the input.
    """
    G = grading.groupoid
    if not isinstance(ideal, GradedIdeal):
        ideal = GradedIdeal.of(grading, ideal)
    out = additive_closure(grading.ring, sorted(x for e in range(G.n_objects)
                                                for x in ideal.parts[G.identity(e)]))
    if first_escape(grading.ring, grading.principal_part().gens, out.gens, out) is not None:
        raise InternalDisagreement(
            "graded-ideal intersection fails to be an ideal of the "
            "identity-component ring")
    return out


def psi(grading: Grading, sub: AdditiveSubgroup) -> GradedIdeal:
    """Expand an invariant ideal of the identity-component ring to a graded ideal.

    ``sub`` must be an ideal of the identity-component ring and stable under
    conjugation by every morphism (NotInvariant otherwise).  The result is
    the two-sided ideal it generates, which for a nearly epsilon-strong
    grading equals the span of S * sub * S; gradedness of the output is
    re-checked and a failure raises through GradedIdeal.of.
    """
    P = grading.principal_part()
    if not all(x in P for x in sub.gens):
        raise NotInvariant("the given set does not live in the identity-component ring")
    if first_escape(grading.ring, P.gens, sub.gens, sub) is not None:
        raise NotInvariant("not an ideal of the identity-component ring")
    ok, bad = is_invariant(grading, sub)
    if not ok:
        raise NotInvariant(
            f"not stable under conjugation by {grading.groupoid.morphisms[bad]!r}")
    ideal = ideal_generated(grading.ring, sub.gens)
    return GradedIdeal.of(grading, ideal)


# ---------------------------------------------------------------------------
# support hubs
# ---------------------------------------------------------------------------

class HubResult(Record):
    is_hub: bool
    #: the first (morphism, element) that multiplies to zero through the object
    blocking: Optional[Tuple[int, int]]


def is_support_hub(grading: Grading, e: int) -> HubResult:
    """Whether every nonzero homogeneous element multiplies nontrivially
    through the object ``e`` on both sides.

    For each nonzero a in S_g this needs some h with src(h) == e and
    a*S_h != {0}, and some k with rng(k) == e and S_k*a != {0}.  Elements
    are taken in (morphism, element) order and each search stops at its
    first hit; on failure ``blocking`` is the first element lacking h or k.
    """
    G = grading.groupoid
    if grading.components[G.identity(G.check_object(e))].is_zero():
        raise ObjectNotInSupport(
            f"object {G.objects[e]!r} carries a zero identity component")
    mul = grading.ring.mul
    out_h = G.morphisms_from(e)
    in_k = G.morphisms_into(e)
    for g, a in grading.homogeneous():
        if not (any(mul(a, v) != 0 for h in out_h for v in grading.components[h].gens)
                and any(mul(u, a) != 0 for k in in_k for u in grading.components[k].gens)):
            return HubResult(False, (g, a))
    return HubResult(True, None)


# ---------------------------------------------------------------------------
# pair criteria
# ---------------------------------------------------------------------------

class PairCriterionResult(Record):
    holds: bool
    #: on failure: (a, b, ideal generated from a, ideal generated from b)
    witness: Optional[Tuple[int, int, AdditiveSubgroup, AdditiveSubgroup]]


@_once
def is_graded_prime(grading: Grading) -> PairCriterionResult:
    """No two nonzero graded ideals multiply to zero.

    Equivalent pair form: for all nonzero homogeneous a, c the two-sided
    ideals they generate have nonzero product.  (An ideal generated by a
    homogeneous element is graded, and any offending graded pair contains an
    offending homogeneous pair, so the reduction is exact and needs no
    structural hypotheses.)  Witness is the first failing pair in (morphism,
    element) order.  Kept on the grading.
    """
    pair = first_zero_pair([a for _, a in grading.homogeneous()],
                           lambda a: principal_ideal(grading.ring, a))
    return PairCriterionResult(pair is None, pair)


@_once
def is_G_prime_principal(grading: Grading) -> PairCriterionResult:
    """No two nonzero conjugation-stable ideals of the identity-component
    ring multiply to zero.

    Pair form over nonzero elements of the identity-component ring with
    invariant closures in place of principal ideals; the reduction is exact
    for the same reason as in the graded case.  Kept on the grading.
    """
    members = [x for x in grading.principal_part().sorted_elements() if x != 0]
    pair = first_zero_pair(members, lambda a: _cached_invariant_closure(grading, a))
    return PairCriterionResult(pair is None, pair)


# ---------------------------------------------------------------------------
# restriction to subgroupoids and isotropy components
# ---------------------------------------------------------------------------

def restrict_grading(parent: Grading, sub: Subgroupoid) -> Grading:
    """The grading induced on the span of the components over a subgroupoid.

    Its ring is a ``SubRing`` of the parent's carrier, and its groupoid is
    ``groupoid.restrict(sub)``, whose morphism map renumbers the members."""
    small, mor_map = restrict(sub)
    span = additive_closure(parent.ring, [x for g in sub.members for x in parent.components[g].gens])
    carrier = SubRing(parent.ring, span)
    comps = {mor_map[g]: [carrier.from_parent[x] for x in parent.components[g].gens]
             for g in sub.members}
    return validate_grading(small, carrier, comps)


@_once
def isotropy_component(parent: Grading, e: int) -> Grading:
    """The group-graded ring sitting over the isotropy group at ``e``,
    built once per object and kept on the grading."""
    G = parent.groupoid
    return restrict_grading(parent, validate_subgroupoid(G, G.loops(G.check_object(e))))
