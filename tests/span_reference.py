"""Reference span arithmetic for checking the canonical-basis engine.

``reference_span`` is the frozenset algorithm the engine replaced: a span
grows coset by coset through the carrier's addition.  ``reference_add`` is
that addition computed without coordinates: digit by digit for vector
carriers, through the parent for a subring, coefficient by coefficient in
the ambient for a skew product, and by a carrier's own rule otherwise.
``reference_s_unital_sides`` is the per-member s-unitality test that the
generator criterion of ``rings.is_s_unital`` replaced, on these spans, and
``s_unit_for`` is the element-order search for a common local unit that
cross-checks it.
``reference_prime`` is the pairwise search over all principal ideals that
the annihilator test of ``rings.is_prime_bruteforce`` replaced.
``reference_mul`` is the digit-wise product that the single-term kernel
``rings._VectorRing.mul`` replaced on matrices, group rings, groupoid
rings, direct sums and skew groupoid rings, on digits and coefficients read
without coordinates.
``reference_decompose`` is the staged sweep of partial sums that decided
directness in ``grading.validate_grading`` and backed ``Grading.decompose``
before both moved onto canonical bases.
``reference_nes`` is ``grading.is_nearly_epsilon_strong`` as it was before
route two read its unit tests off generator images: route one per
morphism, and route two's element scan, one ring product per pair (u, d).
The element sweeps that ``rings._kernel`` retired follow it:
``reference_centralizer`` tests every carrier element against the
generators, ``reference_r_dense`` scans the groupoid ring, as the skew
product of the induced action, for the first element without a coefficient
at the given sources (it now checks
``partial.orbit_density_check``, which reads density off the groupoid),
``reference_meet``
intersects element sets, ``reference_sigma_invariant`` applies each
sigma_g to every element of the meet, ``reference_meets_identity_part``
scans each principal ideal for a nonzero member of the identity part, and
``reference_overlap_witness`` is the fold basis that named the overlap in
``grading.validate_grading``.
"""

from __future__ import annotations

from functools import lru_cache

from gprime.errors import InternalDisagreement, NotDirectSum, NotSUnital, Record
from gprime.grading import NESResult
from gprime.partial import (GroupoidRing, SkewGroupoidRing, build_skew_ring,
                            groupoid_ring_action)
from gprime.rings import (AdditiveSubgroup, DirectSumRing, FiniteRing, GroupRing, MatrixRing,
                          PrimePairWitness, PrimeResult, SubRing, _basis, _coordinates, _row_packer,
                          additive_closure, first_identity, first_zero_pair, is_s_unital,
                          principal_ideal, set_product)


def reference_add(ring):
    if isinstance(ring, SkewGroupoidRing):
        add = reference_add(ring.action.ambient)
        return lambda a, b: ring.encode([add(x, y) for x, y in
                                         zip(ring.coefficients(a), ring.coefficients(b))])
    if isinstance(ring, SubRing):
        add = reference_add(ring.parent)
        return lambda a, b: ring.from_parent[add(ring.to_parent[a], ring.to_parent[b])]
    if isinstance(ring, (MatrixRing, DirectSumRing, GroupRing, GroupoidRing)):
        adds = [reference_add(r) for r in ring._digits]
        return lambda a, b: _number(ring, [add(x, y) for add, x, y in
                                           zip(adds, _digits(ring, a), _digits(ring, b))])
    return ring.add


def reference_span(ring, seed, add=None):
    """(element set, generators) of the span of ``seed``: each element not
    yet in the span is a generator, and the span grows by its cosets."""
    add = add or reference_add(ring)
    span = {0}
    gens = []
    for x in seed:
        if x in span:
            continue
        cosets = []
        y = x
        while y not in span:
            cosets.append(y)
            y = add(y, x)
        base = list(span)
        for c in cosets:
            span.add(c)
            span.update(add(s, c) for s in base)
        gens.append(x)
    return frozenset(span), tuple(gens)


def reference_s_unital_sides(x):
    """(left, right) for a ring or an additive subgroup X: whether every
    member m of X lies in the span of the g*m, and of the m*g, for g over
    the generators of X."""
    if isinstance(x, FiniteRing):
        ring, gens, members = x, x.additive_generators(), range(x.size)
    else:
        ring, gens, members = x.ring, x.gens, x.sorted_elements()
    mul, add = ring.mul, reference_add(ring)
    left = right = True
    for m in members:
        left = left and m in reference_span(ring, [mul(g, m) for g in gens], add)[0]
        right = right and m in reference_span(ring, [mul(m, g) for g in gens], add)[0]
    return left, right


def s_unit_for(x, members):
    """A common two-sided local unit of a ring or an additive subgroup X:
    the first u of X in element order with u*m == m*u == m for all
    ``members``.  Raises NotSUnital when no element works; for an s-unital
    X one always exists for a finite set."""
    if isinstance(x, FiniteRing):
        ring, pool = x, x.elements()
    else:
        ring, pool = x.ring, x.sorted_elements()
    ms = list(members)
    u = first_identity(ring, pool, ms)
    if u is None:
        raise NotSUnital(f"no common local unit for {[ring.label(m) for m in ms]}")
    return u


def reference_prime(ring):
    """Primeness of ``ring`` as a ``PrimeResult``: the principal ideal of
    every nonzero element is closed, and the witness is the first (a, b) in
    element order whose ideals multiply to zero, with a's ideal."""
    if ring.size == 1:
        return PrimeResult(False, None, degenerate=True)
    pair = first_zero_pair(range(1, ring.size), lambda a: principal_ideal(ring, a))
    if pair is None:
        return PrimeResult(True, None)
    return PrimeResult(False, PrimePairWitness(*pair[:3]))


def _digits(ring, a):
    """The digits of a vector-carrier element, least significant first."""
    out = []
    for r in ring._digits:
        a, d = divmod(a, r.size)
        out.append(d)
    return out


def _number(ring, digits):
    out = 0
    for r, d in zip(reversed(ring._digits), reversed(digits)):
        out = out * r.size + d
    return out


def reference_mul(ring):
    if isinstance(ring, SkewGroupoidRing):
        act = ring.action
        G = act.groupoid
        mul = lru_cache(maxsize=None)(reference_mul(act.ambient))
        add = lru_cache(maxsize=None)(reference_add(act.ambient))

        def skew(a, b):
            out = [0] * G.n_morphisms
            for g, ag in enumerate(ring.coefficients(a)):
                if ag == 0:
                    continue
                pulled = act.sigma(G.inv[g], ag)
                for h, bh in enumerate(ring.coefficients(b)):
                    if bh == 0 or not G.composable(g, h):
                        continue
                    term = act.sigma(g, mul(pulled, bh))
                    gh = G.compose(g, h)
                    if term not in act.ideals[gh]:
                        raise InternalDisagreement("a term escaped its ideal")
                    out[gh] = add(out[gh], term)
            return ring.encode(out)
        return skew
    if isinstance(ring, SubRing):
        mul = reference_mul(ring.parent)
        return lambda a, b: ring.from_parent[mul(ring.to_parent[a], ring.to_parent[b])]
    if isinstance(ring, DirectSumRing):
        muls = [reference_mul(p) for p in ring.parts]
        return lambda a, b: _number(ring, [mul(x, y) for mul, x, y in
                                           zip(muls, _digits(ring, a), _digits(ring, b))])
    if not isinstance(ring, (MatrixRing, GroupRing, GroupoidRing)):
        return ring.mul
    badd, bmul = reference_add(ring.base), reference_mul(ring.base)
    if isinstance(ring, MatrixRing):
        n = ring.n
        cells = [(i * n + k, k * n + j, i * n + j)
                 for i in range(n) for k in range(n) for j in range(n)]
    elif isinstance(ring, GroupRing):
        H = ring.group
        cells = [(i, j, H.mul(i, j)) for i in range(H.order) for j in range(H.order)]
    else:
        G = ring.groupoid
        cells = [(g, h, G.compose(g, h)) for g, h in G.composable_pairs()]

    def convolve(a, b):
        A, B = _digits(ring, a), _digits(ring, b)
        out = [0] * len(A)
        for i, j, k in cells:
            if A[i] and B[j]:
                out[k] = badd(out[k], bmul(A[i], B[j]))
        return _number(ring, out)
    return convolve


def reference_decompose(ring, components):
    """Every element's parts over ``components``, a generator list per
    morphism, as a dict.  Stage g maps each partial sum through S_g to (the
    partial sum before it, the part taken from S_g); the first stage that
    reaches an element twice raises NotDirectSum with witness g, and a sum
    that reaches fewer elements than the carrier raises it with witness
    None."""
    add = reference_add(ring)
    stages, reachable = [], {0}
    for g, gens in enumerate(components):
        stage, span = {}, reference_span(ring, gens, add)[0]
        for x in reachable:
            for p in span:
                y = add(x, p)
                if y in stage:
                    raise NotDirectSum(f"two decompositions reach {y} at stage {g}", g)
                stage[y] = (x, p)
        stages.append(stage)
        reachable = set(stage)
    if len(reachable) != ring.size:
        raise NotDirectSum(f"the components reach {len(reachable)} of {ring.size} elements")
    table = {}
    for x in range(ring.size):
        parts, y = [0] * len(stages), x
        for g in reversed(range(len(stages))):
            y, parts[g] = stages[g][y]
        table[x] = tuple(parts)
    return table


def reference_nes(grading):
    """Near epsilon-strongness as a ``NESResult``: per morphism g, route one
    asks that S_g S_g^-1 be s-unital and that S_g S_g^-1 S_g == S_g; route
    two scans, for each nonzero d of S_g in element order, the sorted
    elements of S_g S_g^-1 for the first u with u*d == d and those of
    S_g^-1 S_g for the first v with d*v == d.  The verdicts must agree
    (InternalDisagreement otherwise)."""
    G = grading.groupoid
    mul = grading.ring.mul
    route_one = route_two = True
    failures = []
    certificate = {}
    products = {g: set_product(grading.components[g], grading.components[G.inv[g]])
                for g in range(G.n_morphisms)}
    for g in range(G.n_morphisms):
        sg = grading.components[g]
        x = products[g]
        if not is_s_unital(x):
            route_one = False
            failures.append(f"{G.morphisms[g]!r}: S_g S_g^-1 is not s-unital")
        if set_product(x, sg).key != sg.key:
            route_one = False
            failures.append(f"{G.morphisms[g]!r}: S_g S_g^-1 S_g != S_g")
        lefts, rights = x.sorted_elements(), products[G.inv[g]].sorted_elements()
        for d in sg.sorted_elements():
            if d == 0:
                continue
            eps = next((u for u in lefts if mul(u, d) == d), None)
            eps2 = next((v for v in rights if mul(d, v) == d), None)
            if eps is None or eps2 is None:
                route_two = False
                side = "left" if eps is None else "right"
                failures.append(
                    f"{G.morphisms[g]!r}: no {side} unit for {grading.ring.label(d)}")
            else:
                certificate[(g, d)] = (eps, eps2)
    if route_one != route_two:
        raise InternalDisagreement(
            "the two near-epsilon-strongness characterizations disagree",
            details={"s_unital_route": route_one, "unit_route": route_two,
                     "failures": failures})
    return NESResult(route_one, certificate if route_one else {}, tuple(failures))


def reference_centralizer(ring, sub):
    """Every carrier element t with t*s == s*t for the generators s of ``sub``."""
    mul = ring.mul
    return AdditiveSubgroup(ring, [t for t in ring.elements()
                                         if all(mul(t, s) == mul(s, t) for s in sub.gens)])


class DensityResult(Record):
    dense: bool
    #: a nonzero groupoid-ring element supported away from the set, if any
    witness: object


def reference_r_dense(groupoid, base, xs, bound=4096):
    """``DensityResult`` for the object indices ``xs``: the first nonzero
    element of the groupoid ring with no nonzero coefficient at a morphism
    whose source lies in ``xs``."""
    ring = build_skew_ring(groupoid_ring_action(base, groupoid, bound)).ring
    for a in range(1, ring.size):
        if not any(c != 0 and groupoid.src[g] in xs
                   for g, c in enumerate(ring.coefficients(a))):
            return DensityResult(False, a)
    return DensityResult(True, None)


def reference_meet(a, b):
    """A n B of two subgroups of one carrier, by intersecting element sets."""
    return additive_closure(a.ring, sorted(a.elements & b.elements))


def reference_sigma_invariant(action, sub, morphs):
    """(False, g) for the first g in ``morphs`` that moves an element of
    A_{g^-1} n ``sub`` out of ``sub``, else (True, None)."""
    G = action.groupoid
    for g in morphs:
        table = action.maps[g]
        for x in action.ideals[G.inv[g]].elements & sub.elements:
            if table[x] not in sub:
                return False, g
    return True, None


def reference_meets_identity_part(grading):
    """Whether every nonzero principal ideal has a nonzero member in the
    identity part."""
    principal = grading.principal_part()
    ring = grading.ring
    for x in range(1, ring.size):
        ideal = principal_ideal(ring, x)
        if not any(y != 0 and y in principal.elements for y in ideal.elements):
            return False
    return True


def reference_overlap_witness(ring, earlier, gens):
    """The least element read off the rows of one fold basis of the (t | 0)
    over ``earlier`` and the (s | s) over ``gens`` that vanish in block 0;
    None when no row does."""
    coords = _coordinates(ring)
    fold, packed = _row_packer(ring, 2)
    common, k = _basis(fold), len(ring.moduli)
    for row in [(t, 0) for t in earlier] + [(s, s) for s in gens]:
        common.insert(packed(row))
    return min((coords.index[coords.pack(f[k:])]
                for f in map(fold.unpack, common.key()) if not any(f[:k])), default=None)
