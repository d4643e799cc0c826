"""Seeded random instances and the cross-checking harness over them.

Three generator families, every one nearly epsilon-strong by construction:
coefficient rings spread over a random small groupoid, block gradings of
matrix rings and their direct sums, and skew rings of partial actions
obtained by restricting random global actions to random ideals.  For each
generated instance the harness recomputes every fact the library exposes
along an independent route and compares; any mismatch raises the
falsification alarm instead of being recorded, so a completed run is
itself the certificate.

Instance i of a run is generated from ``Random(f"{seed}:{i}")``, so records
are independent of each other and of evaluation order.
"""

from __future__ import annotations

import random

from .errors import InternalDisagreement, NotGraded, Record
from .grading import (GradedIdeal, Grading, invariant_closure,
                      is_G_prime_principal, is_graded_prime,
                      is_nearly_epsilon_strong, is_support_hub, phi, project,
                      psi, support_groupoid)
from .groupoid import (FiniteGroup, FiniteGroupoid, disjoint_union, is_connected,
                       isotropy, one_object_groupoid, orbit, pair_groupoid,
                       subgroups)
from .partial import (SKEW_RING_BOUND, PartialAction, build_groupoid_ring,
                      build_skew_ring, connell_check, global_support_connectivity_check,
                      groupoid_ring_action, is_global, is_group_type, orbit_density_check,
                      psi_check, skew_prime_verdict, validate_partial_action)
from .primeness import equivalence_report, torsion_free_shortcut
from .rings import (AdditiveSubgroup, CyclicRing, DirectSumRing, FiniteRing,
                    GaloisField, MatrixRing, additive_closure,
                    enumerate_ideals, ideal_generated, is_commutative, is_s_unital,
                    is_zero_ideal_pair, is_zero_product, principal_ideal, set_product)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["FuzzRecord", "FuzzReport", "run_fuzz", "generate_instance",
           "check_instance", "FUZZ_TARGET_SIZE"]

# Generated carriers aim below this, comfortably inside the carrier bound, so
# a full run of several hundred instances stays in the minutes.
FUZZ_TARGET_SIZE = 512

_KINDS = ("groupoid_ring", "matrix_grading", "partial_action")


def _ensure(cond: bool, message: str, **details) -> None:
    if not cond:
        raise InternalDisagreement(message, details=details or None)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _random_group(rng: random.Random) -> FiniteGroup:
    make = rng.choice((FiniteGroup.trivial,
                       lambda: FiniteGroup.cyclic(2),
                       lambda: FiniteGroup.cyclic(2),
                       lambda: FiniteGroup.cyclic(3),
                       lambda: FiniteGroup.cyclic(4),
                       FiniteGroup.klein_four))
    return make()


def _random_component(rng: random.Random, tag: str) -> FiniteGroupoid:
    if rng.random() < 0.5:
        k = rng.randint(1, 3)
        group = _random_group(rng) if rng.random() < 0.25 else None
        return pair_groupoid([f"{tag}{i}" for i in range(k)], group)
    return one_object_groupoid(_random_group(rng), f"{tag}0")


def _random_groupoid(rng: random.Random, max_objects: int = 4,
                     max_morphisms: int = 12) -> FiniteGroupoid:
    while True:
        if rng.random() < 0.3:
            G = disjoint_union([_random_component(rng, "a"),
                                _random_component(rng, "b")])
        else:
            G = _random_component(rng, "o")
        if G.n_objects <= max_objects and G.n_morphisms <= max_morphisms:
            return G


def _base_ring_pool() -> Tuple[Callable[[], FiniteRing], ...]:
    return (lambda: GaloisField(2),
            lambda: GaloisField(2),
            lambda: GaloisField(3),
            lambda: CyclicRing(4),
            lambda: DirectSumRing([GaloisField(2), GaloisField(2)]))


def _random_groupoid_ring(rng: random.Random,
                          target: int) -> Tuple[FiniteRing, FiniteGroupoid]:
    while True:
        base = rng.choice(_base_ring_pool())()
        G = _random_groupoid(rng)
        if base.size ** G.n_morphisms <= target:
            return base, G


def _random_matrix_grading(rng: random.Random, target: int) -> Grading:
    """Full matrix blocks spread over a pair groupoid; two summands may share
    one object, which is then the only bridge between them."""
    while True:
        n_summands = rng.choice((1, 1, 1, 2))
        shapes = []
        total = 1
        for _ in range(n_summands):
            q = rng.choice((2, 2, 3))
            n = rng.randint(1, 3 if q == 2 and n_summands == 1 else 2)
            shapes.append((q, n))
            total *= q ** (n * n)
        if total > target:
            continue
        blocks_per = []
        for q, n in shapes:
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            bounds = [0] + cuts + [n]
            blocks_per.append([tuple(range(bounds[i], bounds[i + 1]))
                               for i in range(len(bounds) - 1)])
        share = (n_summands == 2 and rng.random() < 0.5)
        hosts: List[List[str]] = []
        labels: List[str] = []
        for c, blocks in enumerate(blocks_per):
            row = []
            for b in range(len(blocks)):
                if c == 1 and b == 0 and share:
                    row.append(labels[-1])
                    continue
                labels.append(f"v{len(labels)}")
                row.append(labels[-1])
            hosts.append(row)
        if len(labels) > 4:
            continue
        G = pair_groupoid(labels)
        mats = [MatrixRing(GaloisField(q), n) for q, n in shapes]
        ring: FiniteRing = mats[0] if n_summands == 1 else DirectSumRing(mats)

        def inject(c: int, x: int) -> int:
            return x if n_summands == 1 else ring.inject(c, x)

        comps: Dict[int, List[int]] = {}
        for c, blocks in enumerate(blocks_per):
            for bi, rows in enumerate(blocks):
                for bj, cols in enumerate(blocks):
                    a_obj, b_obj = hosts[c][bj], hosts[c][bi]
                    label = b_obj if a_obj == b_obj else f"{a_obj}>{b_obj}"
                    g = G.morphism_index(label)
                    comps.setdefault(g, []).extend(
                        inject(c, mats[c].unit(i, j)) for i in rows for j in cols)
        from .grading import validate_grading
        return validate_grading(G, ring, comps)


def _aut_pool(fibre: FiniteRing) -> List[Dict[int, int]]:
    """Small automorphism tables: Frobenius powers for Galois fields, the
    coordinate swap for a square direct sum, identity otherwise."""
    pool = [{x: x for x in range(fibre.size)}]
    if isinstance(fibre, GaloisField) and fibre.k > 1:
        table = {x: fibre.frobenius(x) for x in range(fibre.size)}
        current = table
        for _ in range(fibre.k - 1):
            pool.append(dict(current))
            current = {x: table[current[x]] for x in range(fibre.size)}
    if (isinstance(fibre, DirectSumRing) and len(fibre.parts) == 2
            and fibre.parts[0].tag == fibre.parts[1].tag):
        pool.append({x: fibre.encode(tuple(reversed(fibre.decode(x))))
                     for x in range(fibre.size)})
    return pool


def _compose_auts(outer: Dict[int, int], inner: Dict[int, int]) -> Dict[int, int]:
    return {x: outer[inner[x]] for x in inner}


def _aut_inverse(aut: Dict[int, int]) -> Dict[int, int]:
    return {v: k for k, v in aut.items()}


def _fibre_pool() -> Tuple[Callable[[], FiniteRing], ...]:
    return (lambda: GaloisField(2),
            lambda: GaloisField(3),
            lambda: GaloisField(2, 2),
            lambda: CyclicRing(4),
            lambda: DirectSumRing([GaloisField(2), GaloisField(2)]))


def _component_sigma(rng: random.Random, G: FiniteGroupoid, objs: Sequence[int],
                     fibre: FiniteRing) -> Dict[int, Dict[int, int]]:
    """A functorial automorphism per morphism of one connected component.

    Each object gets a gauge automorphism, so an arrow a -> b acts by
    alpha_b after alpha_a^{-1} and every composition relation holds by
    cancellation.  On a one-object component with cyclic isotropy the loops
    additionally go through powers of one automorphism whose order divides
    the group's; anything subtler (several objects, or Klein isotropy, whose
    defining relations the small pools cannot satisfy nontrivially) keeps
    the isotropy part at the identity."""
    pool = _aut_pool(fibre)
    gauge = {e: rng.choice(pool) for e in objs}
    members = [g for g in range(G.n_morphisms)
               if G.src[g] in objs and G.rng[g] in objs]
    powers: Dict[int, Dict[int, int]] = {}
    if len(objs) == 1:
        e = objs[0]
        loops = [h for h in members if h != e]
        for gen in loops:
            steps = {gen: 1}
            current = G.compose(gen, gen)
            k = 2
            while current != e and current not in steps:
                steps[current] = k
                current = G.compose(gen, current)
                k += 1
            if current == e and len(steps) == len(loops):  # gen generates
                order = k
                candidates = [a for a in pool if _power_is_identity(a, order)]
                beta = rng.choice(candidates)
                for h, exp in steps.items():
                    out = {x: x for x in range(fibre.size)}
                    for _ in range(exp):
                        out = _compose_auts(beta, out)
                    powers[h] = out
                break
    sigma: Dict[int, Dict[int, int]] = {}
    identity = {x: x for x in range(fibre.size)}
    for g in members:
        rho = powers.get(g, identity)
        sigma[g] = _compose_auts(gauge[G.rng[g]],
                                 _compose_auts(rho, _aut_inverse(gauge[G.src[g]])))
    return sigma


def _power_is_identity(aut: Dict[int, int], n: int) -> bool:
    current = {x: x for x in aut}
    for _ in range(n):
        current = {x: aut[current[x]] for x in current}
    return all(current[x] == x for x in current)


def _sunital_ideals(fibre: FiniteRing) -> List[AdditiveSubgroup]:
    return [ideal for ideal in enumerate_ideals(fibre).ideals
            if is_s_unital(ideal)]


def _random_partial_action(rng: random.Random, target: int,
                           max_ring: int = SKEW_RING_BOUND) -> PartialAction:
    while True:
        G = _random_groupoid(rng)
        components = []
        seen = set()
        for e in range(G.n_objects):
            if e not in seen:
                objs = orbit(G, e)
                seen.update(objs)
                components.append(objs)
        fibres: Dict[int, FiniteRing] = {}
        sigma: Dict[int, Dict[int, int]] = {}
        ok = True
        for objs in components:
            loops = sum(1 for g in range(G.n_morphisms)
                        if G.src[g] in objs and G.rng[g] in objs)
            pool = [make() for make in _fibre_pool()]
            pool = [f for f in pool if f.size ** loops <= target]
            if not pool:
                ok = False
                break
            fibre = rng.choice(pool)
            for e in objs:
                fibres[e] = fibre
            sigma.update(_component_sigma(rng, G, objs, fibre))
        if not ok:
            continue
        total = 1
        for g in range(G.n_morphisms):
            total *= fibres[G.src[g]].size
        if total > target:
            continue

        amb = DirectSumRing([fibres[e] for e in range(G.n_objects)],
                            keys=G.objects)
        # restrict the global action to a random s-unital ideal per object
        chosen: Dict[int, frozenset] = {}
        for e in range(G.n_objects):
            options = _sunital_ideals(fibres[e])
            full = max(options, key=len)
            chosen[e] = (full.elements if rng.random() < 0.5
                         else rng.choice(options).elements)
        gens: Dict[int, List[int]] = {}
        maps: Dict[int, Dict[int, int]] = {}
        size = 1
        for g in range(G.n_morphisms):
            s, r = G.src[g], G.rng[g]
            if g < G.n_objects:
                size *= fibres[s].size
                continue
            image = {amb.inject(r, sigma[g][x]) for x in chosen[s]}
            part = image & {amb.inject(r, y) for y in chosen[r]}
            gens[g] = sorted(part - {0})
            size *= len(part)
        if size > target:
            continue
        for g in range(G.n_objects, G.n_morphisms):
            s, r = G.src[g], G.rng[g]
            inv = G.inv[g]
            domain = ({0} | {amb.inject(s, x) for x in chosen[s]}) \
                & ({0} | {amb.inject(s, sigma[inv][y]) for y in chosen[r]})
            maps[g] = {x: amb.inject(r, sigma[g][amb.decode(x)[s]])
                       for x in domain}
        return validate_partial_action(G, amb, gens, maps, max_ring)


class GeneratedInstance(Record):
    kind: str
    groupoid: FiniteGroupoid
    grading: Optional[Grading]        # None when the carrier stayed unbuilt
    action: Optional[PartialAction]
    base: Optional[FiniteRing]
    size: int
    carrier: str


def generate_instance(rng: random.Random, max_ring: int) -> GeneratedInstance:
    target = min(FUZZ_TARGET_SIZE, max_ring)
    kind = rng.choice(_KINDS)
    if kind == "matrix_grading":
        grading = _random_matrix_grading(rng, target)
        return GeneratedInstance(kind, grading.groupoid, grading, None, None,
                                 grading.ring.size, grading.ring.tag)
    if kind == "groupoid_ring":
        base, G = _random_groupoid_ring(rng, target)
        grading = build_groupoid_ring(base, G, max_ring)
        return GeneratedInstance(kind, G, grading, None, base,
                                 grading.ring.size, grading.ring.tag)
    action = _random_partial_action(rng, target, max_ring)
    grading = build_skew_ring(action)
    return GeneratedInstance(kind, action.groupoid, grading, action, None,
                             grading.ring.size, grading.ring.tag)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def _check_groupoid(G: FiniteGroupoid) -> int:
    checks = 0
    for g in range(G.n_morphisms):
        _ensure(G.inv[G.inv[g]] == g, "double inverse moved a morphism")
        _ensure(G.src[G.inv[g]] == G.rng[g] and G.rng[G.inv[g]] == G.src[g],
                "inverse endpoints do not swap")
    checks += 1
    orbits = {e: frozenset(orbit(G, e)) for e in range(G.n_objects)}
    union = set()
    for e, objs in orbits.items():
        _ensure(e in objs, "an object escapes its own orbit")
        for f in objs:
            _ensure(orbits[f] == objs, "orbits fail to partition the objects")
        union |= objs
    _ensure(union == set(range(G.n_objects)), "orbits miss an object")
    _ensure(is_connected(G) == (len(set(orbits.values())) == 1),
            "connectivity disagrees with the orbit count")
    checks += 1
    for e in range(G.n_objects):
        iso = isotropy(G, e)  # the constructor re-validates the group axioms
        subs = [frozenset(sub.parent_elements) for sub in subgroups(iso)]
        listed = set(subs)
        for members in subs:
            for g in range(iso.order):
                conj = frozenset(iso.mul(iso.mul(g, x), iso.inv(g))
                                 for x in members)
                _ensure(conj in listed, "a conjugate subgroup is missing")
        checks += 1
    return checks


def _check_base_ring(rng: random.Random, ring: FiniteRing) -> int:
    elements = range(ring.size)
    seed = rng.sample(elements, min(2, ring.size))
    first = ideal_generated(ring, seed)
    _ensure(ideal_generated(ring, sorted(first.elements)).elements == first.elements,
            "ideal generation is not idempotent")
    wider = ideal_generated(ring, sorted(set(seed) | {rng.randrange(ring.size)}))
    _ensure(first.elements <= wider.elements,
            "ideal generation is not monotone in the seed")
    subgroups_ = [principal_ideal(ring, rng.randrange(ring.size))
                  for _ in range(3)]
    x, y, z = subgroups_
    _ensure(set_product(set_product(x, y), z).elements
            == set_product(x, set_product(y, z)).elements,
            "set products fail associativity")
    return 2


def _element_criterion_prime(ring: FiniteRing) -> bool:
    """No nonzero a, b with a·R·b = 0; r -> a·r·b is additive, so the
    additive generators r suffice."""
    gens = ring.additive_generators()
    for a in range(1, ring.size):
        for b in range(1, ring.size):
            if all(ring.mul(ring.mul(a, r), b) == 0 for r in gens):
                return False
    return True


def _check_grading(rng: random.Random, grading: Grading) -> int:
    checks = 0
    ring = grading.ring
    G = grading.groupoid
    nes = is_nearly_epsilon_strong(grading)
    _ensure(nes.holds, "a generated instance is not nearly epsilon-strong",
            failures=list(nes.failures))
    checks += 1

    support = support_groupoid(grading)
    alive = support.support_objects
    for e in alive:
        _ensure(is_s_unital(grading.components[e]),
                "an identity component is not s-unital")
    P = grading.principal_part()
    _ensure(is_s_unital(P), "the identity-component sum is not s-unital")
    _ensure(is_s_unital(ring), "the carrier is not s-unital")
    checks += 1

    # projection lemma, sampled: additive, and multiplicative against
    # identity-component elements
    p_elems = P.sorted_elements()
    for _ in range(3):
        hs = [g for g in range(G.n_morphisms) if rng.random() < 0.5]
        a = rng.randrange(ring.size)
        a2 = rng.randrange(ring.size)
        _ensure(project(grading, hs, ring.add(a, a2))
                == ring.add(project(grading, hs, a), project(grading, hs, a2)),
                "projection is not additive")
        b = rng.choice(p_elems)
        _ensure(project(grading, hs, ring.mul(a, b))
                == ring.mul(project(grading, hs, a), b),
                "projection fails pi(ab) = pi(a)b")
        _ensure(project(grading, hs, ring.mul(b, a))
                == ring.mul(b, project(grading, hs, a)),
                "projection fails pi(ba) = b pi(a)")
    checks += 1

    graded_pair = is_graded_prime(grading)
    invariant_pair = is_G_prime_principal(grading)
    _ensure(graded_pair.holds == invariant_pair.holds,
            "graded primeness disagrees with the invariant-ideal criterion")
    checks += 1

    hubs = {e: is_support_hub(grading, e).is_hub for e in alive}
    if graded_pair.holds:
        _ensure(all(hubs.values()),
                "a graded prime instance has a non-hub alive object", hubs=hubs)
    if any(hubs.values()):
        sub = support.subgroupoid
        members = set(sub.members)
        _ensure(all(any(G.src[g] == a and G.rng[g] == b for g in members)
                    for a in alive for b in alive),
                "a support hub exists but the support groupoid is disconnected")
    checks += 1

    if ring.size <= 128:
        enumeration = enumerate_ideals(ring)
        if not enumeration.truncated:
            graded: List[GradedIdeal] = []
            for ideal in enumeration.ideals:
                try:
                    graded.append(GradedIdeal.of(grading, ideal))
                except NotGraded:
                    continue
            for ideal in graded:
                down = phi(grading, ideal)
                up = psi(grading, down)
                _ensure(up.ideal.elements == ideal.ideal.elements,
                        "phi/psi round trip moved a graded ideal")
                _ensure(phi(grading, up).elements == down.elements,
                        "psi/phi round trip moved an invariant ideal")
            checks += 1
            if ring.size <= 64:
                nonzero = [i.ideal for i in graded if len(i.ideal) > 1]
                direct = not any(is_zero_product(a, b)
                                 for a in nonzero for b in nonzero)
                _ensure(direct == graded_pair.holds,
                        "the homogeneous-pair criterion disagrees with the "
                        "graded-ideal enumeration")
                checks += 1
    return checks


def _replay_pair(ring: FiniteRing, a: int, b: int, closure=None) -> None:
    """An emitted zero pair must replay, by ``rings.is_zero_ideal_pair``."""
    _ensure(is_zero_ideal_pair(ring, a, b, closure),
            "an emitted witness fails to replay", a=a, b=b)


def _check_primeness(grading: Grading) -> Tuple[bool, int]:
    checks = 0
    ring = grading.ring
    G = grading.groupoid
    rep = equivalence_report(grading)
    _ensure(len(set(rep.conditions.values())) == 1,
            "the seven condition booleans differ", conditions=rep.conditions)
    checks += 1

    if rep.verdict:
        _ensure(all(ev.isotropy_prime.prime for ev in rep.per_object.values()),
                "prime carrier with a non-prime isotropy component")
    if any(ev.hub.is_hub and ev.isotropy_prime.prime
           for ev in rep.per_object.values()):
        _ensure(rep.verdict, "a prime hub exists but the verdict is false")
    checks += 1

    witness = rep.witnesses.get("oracle")
    if witness is not None:
        _replay_pair(ring, witness.a, witness.b)
        hub_objects = [e for e, ev in rep.per_object.items() if ev.hub.is_hub]
        for e in hub_objects[:1]:
            iso_hs = [g for g in range(G.n_morphisms)
                      if G.src[g] == G.rng[g] == e]
            # the projection is additive: the generators' images span it
            span = additive_closure(ring, [project(grading, iso_hs, x)
                                           for x in witness.a_ideal.gens])
            _ensure(not span.is_zero(),
                    "projecting a nonzero ideal onto a hub's isotropy "
                    "component gave zero")
            local = [x for g in iso_hs for x in grading.components[g].gens]
            for p in span.gens:
                for r in local:
                    _ensure(ring.mul(p, r) in span and ring.mul(r, p) in span,
                            "the projected ideal is not an ideal of the "
                            "isotropy component")
        checks += 1
    if "invariant_ideal_pair" in rep.witnesses:
        a, b = rep.witnesses["invariant_ideal_pair"][:2]
        _replay_pair(ring, a, b, lambda x: invariant_closure(grading, [x]))
        checks += 1
    if "graded_ideal_pair" in rep.witnesses:
        a, b = rep.witnesses["graded_ideal_pair"][:2]
        _replay_pair(ring, a, b)
        checks += 1

    support = support_groupoid(grading)
    for e in support.support_objects:
        if len(G.loops(e)) == 1:
            shortcut = torsion_free_shortcut(grading, e)
            if shortcut is not None:
                _ensure(shortcut == rep.verdict,
                        "the trivial-isotropy shortcut disagrees with the verdict")
                checks += 1
            break
    return rep.verdict, checks


def _check_partial(action: PartialAction) -> int:
    checks = 0
    res = psi_check(action)
    _ensure(res.ok, "the identity-part embedding check failed",
            mismatch=res.mismatch)
    checks += 1
    if is_global(action):
        if is_connected(action.groupoid):
            _ensure(is_group_type(action).holds,
                    "a global action of a connected groupoid reports no "
                    "transport family")
        global_support_connectivity_check(action)
        checks += 2
    if is_group_type(action).holds:
        skew_prime_verdict(action)  # oracle vs reduction cross-check
        checks += 1
    return checks


def _check_groupoid_ring(base: FiniteRing, grading: Grading, verdict: bool) -> int:
    """The carrier against the skew product of the induced global action,
    built under the carrier's size as bound: tag, size, identity, additive
    generators and their labels, every generator product and every
    component; then the three-part criterion and orbit density against the
    verdict."""
    G, ring = grading.groupoid, grading.ring
    skew = build_skew_ring(groupoid_ring_action(base, G, ring.size))
    twin = skew.ring
    gens = ring.additive_generators()
    _ensure((ring.tag, ring.size, ring.one) == (twin.tag, twin.size, twin.one),
            "the groupoid ring and the induced skew product differ in tag, size or identity")
    _ensure(gens == twin.additive_generators()
            and [ring.label(x) for x in gens] == [twin.label(x) for x in gens],
            "the groupoid ring and the induced skew product differ in their generators")
    _ensure(all(ring.mul(x, y) == twin.mul(x, y) for x in gens for y in gens),
            "the groupoid ring and the induced skew product differ in a product")
    _ensure([c.elements for c in grading.components]
            == [c.elements for c in skew.components],
            "the groupoid ring and the induced skew product differ in a component")
    checks = 0
    res = connell_check(base, G)
    _ensure(res.holds == verdict,
            "the three-part criterion disagrees with the carrier verdict",
            reasons=list(res.reasons))
    checks += 1
    if base.one is not None and is_commutative(base):
        orbit_density_check(G, base, 0)
        checks += 1
    return checks


def check_instance(rng: random.Random,
                   inst: GeneratedInstance) -> Tuple[Optional[bool], int]:
    """Every cross-check that applies to the instance; returns the primeness
    verdict and the number of check groups run."""
    checks = _check_groupoid(inst.groupoid)
    grading = inst.grading
    verdict: Optional[bool] = None
    if inst.base is not None:
        checks += _check_base_ring(rng, inst.base)
    if grading is not None:
        checks += _check_base_ring(rng, grading.ring)
        if isinstance(grading.ring, MatrixRing):
            base = grading.ring.base
            n = grading.ring.n
            _ensure(grading.ring.size == base.size ** (n * n),
                    "matrix carrier has the wrong cardinality")
            checks += 1
        checks += _check_grading(rng, grading)
        verdict, more = _check_primeness(grading)
        checks += more
        if isinstance(grading.ring, DirectSumRing) \
                and sum(1 for p in grading.ring.parts if p.size > 1) >= 2:
            _ensure(not verdict, "a direct sum with two nonzero parts is prime")
            checks += 1
        if grading.ring.size <= 64 and is_s_unital(grading.ring):
            _ensure(_element_criterion_prime(grading.ring) == verdict,
                    "the element criterion disagrees with the ideal-pair oracle")
            checks += 1
    if inst.action is not None:
        checks += _check_partial(inst.action)
    if inst.base is not None and verdict is not None:
        checks += _check_groupoid_ring(inst.base, grading, verdict)
    return verdict, checks


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class FuzzRecord(Record):
    index: int
    kind: str
    carrier: str
    size: int
    verdict: Optional[bool]
    checks: int


class FuzzReport(Record):
    seed: int
    count: int
    max_ring: int
    records: Tuple[FuzzRecord, ...]

    @property
    def checks(self) -> int:
        return sum(r.checks for r in self.records)

    def summary(self) -> Dict:
        kinds: Dict[str, int] = {}
        for r in self.records:
            kinds[r.kind] = kinds.get(r.kind, 0) + 1
        return {
            "seed": self.seed,
            "count": self.count,
            "max_ring": self.max_ring,
            "checks": self.checks,
            "kinds": dict(sorted(kinds.items())),
            "verdicts": {
                "prime": sum(1 for r in self.records if r.verdict is True),
                "not_prime": sum(1 for r in self.records if r.verdict is False),
            },
            "instances": [
                {"index": r.index, "kind": r.kind, "carrier": r.carrier,
                 "size": r.size, "verdict": r.verdict, "checks": r.checks}
                for r in self.records],
        }


def run_fuzz(seed: int, count: int, max_ring: int = SKEW_RING_BOUND,
             progress: Optional[Callable[[FuzzRecord], None]] = None) -> FuzzReport:
    """Generate ``count`` instances and run every applicable cross-check.

    Any theorem-level mismatch raises InternalDisagreement out of this
    function; a returned report means zero disagreements.  Per-instance
    randomness is keyed by (seed, index), so the report is reproducible.
    """
    records = []
    for index in range(count):
        rng = random.Random(f"{seed}:{index}")
        inst = generate_instance(rng, max_ring)
        twin = generate_instance(random.Random(f"{seed}:{index}"), max_ring)
        _ensure((inst.kind, inst.carrier, inst.size)
                == (twin.kind, twin.carrier, twin.size),
                "instance generation is not deterministic")
        verdict, checks = check_instance(rng, inst)
        record = FuzzRecord(index, inst.kind, inst.carrier, inst.size,
                            verdict, checks + 1)
        records.append(record)
        if progress is not None:
            progress(record)
    return FuzzReport(seed, count, max_ring, tuple(records))
