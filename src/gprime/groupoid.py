"""Finite groupoids, their subgroupoids, and finite (isotropy) groups.

A groupoid is stored as a dense table structure: objects and morphisms are
indexed by position, with identity morphisms created automatically from the
object labels and placed first, followed by the declared morphisms in input
order.  All iteration is in index order, so every search in the package
returns the same witness for the same input.

Every groupoid passes one axiom checker on index tables,
``groupoid_from_tables``: ``validate_groupoid`` resolves an instance file's
labels to them, the constructions and ``restrict`` (a subgroupoid: objects
in parent order, their identities first, then the other members) compute them.
"""

from __future__ import annotations

from .errors import (AxiomViolation, BoundExceeded, MalformedInput, Record, UnknownMorphism,
                     UnknownObject)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FiniteGroup",
    "FiniteGroupoid",
    "Subgroupoid",
    "validate_groupoid",
    "groupoid_from_tables",
    "validate_subgroupoid",
    "restrict",
    "pair_groupoid",
    "one_object_groupoid",
    "disjoint_union",
    "isotropy",
    "is_connected",
    "orbit",
    "subgroups",
    "has_nontrivial_finite_normal_subgroup",
]

SUBGROUP_ORDER_BOUND = 24


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A finite group on elements 0..n-1 with 0 the identity."""

    def __init__(self, labels: Sequence[str], mul_table: Sequence[Sequence[int]],
                 parent_elements: Optional[Sequence[int]] = None, name: Optional[str] = None):
        self.labels: Tuple[str, ...] = tuple(labels)
        self.order = len(self.labels)
        if self.order == 0:
            raise MalformedInput("a group needs at least one element")
        if len(set(self.labels)) != self.order:
            raise MalformedInput("group element labels must be distinct")
        self.name = name or f"grp{self.order}"
        self._mul: Tuple[Tuple[int, ...], ...] = tuple(tuple(row) for row in mul_table)
        self._check_table()
        self._inv: Tuple[int, ...] = tuple(self._mul[a].index(0) for a in range(self.order))
        #: element indices in an enclosing structure (e.g. morphism indices of
        #: a groupoid, or parent-group indices for a subgroup); None otherwise.
        self.parent_elements: Optional[Tuple[int, ...]] = (
            tuple(parent_elements) if parent_elements is not None else None)

    def _check_table(self) -> None:
        n = self.order
        if len(self._mul) != n or any(len(row) != n for row in self._mul):
            raise MalformedInput(f"multiplication table must be {n}x{n}")
        for a in range(n):
            if self._mul[0][a] != a or self._mul[a][0] != a:
                raise AxiomViolation("group-identity", f"element 0 is not an identity at {a}")
            if sorted(self._mul[a]) != list(range(n)) or sorted(r[a] for r in self._mul) != list(range(n)):
                raise AxiomViolation("group-cancellation", f"row/column {a} is not a permutation")
            if 0 not in self._mul[a]:
                raise AxiomViolation("group-inverse", f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self._mul[self._mul[a][b]][c] != self._mul[a][self._mul[b][c]]:
                        raise AxiomViolation("group-associativity", f"({a}*{b})*{c} != {a}*({b}*{c})")

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def elements(self) -> range:
        return range(self.order)

    @staticmethod
    def trivial(label: str = "1") -> "FiniteGroup":
        return FiniteGroup([label], [[0]], name="C1")

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        if n < 1:
            raise MalformedInput(f"cyclic group order must be positive, got {n}")
        labels = ["1"] + [f"t{'' if k == 1 else k}" for k in range(1, n)]
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return FiniteGroup(labels, table, name=f"C{n}")

    @staticmethod
    def klein_four() -> "FiniteGroup":
        table = [[b ^ a for b in range(4)] for a in range(4)]
        return FiniteGroup(["1", "a", "b", "ab"], table, name="V4")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# groupoids
# ---------------------------------------------------------------------------

class FiniteGroupoid:
    """A finite groupoid with identity morphisms first, declared ones after."""

    def __init__(self, objects: Sequence[str], morphisms: Sequence[str],
                 src: Sequence[int], rng: Sequence[int],
                 comp: Dict[Tuple[int, int], int], inv: Sequence[int]):
        self.objects: Tuple[str, ...] = tuple(objects)
        self.morphisms: Tuple[str, ...] = tuple(morphisms)
        self.src: Tuple[int, ...] = tuple(src)
        self.rng: Tuple[int, ...] = tuple(rng)
        self._comp: Dict[Tuple[int, int], int] = dict(comp)
        self.inv: Tuple[int, ...] = tuple(inv)
        self._object_index = {lab: i for i, lab in enumerate(self.objects)}
        self._morphism_index = {lab: i for i, lab in enumerate(self.morphisms)}

    # -- lookups ----------------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def object_index(self, label: str) -> int:
        try:
            return self._object_index[label]
        except KeyError:
            raise UnknownObject(f"unknown object {label!r}") from None

    def morphism_index(self, label: str) -> int:
        try:
            return self._morphism_index[label]
        except KeyError:
            raise UnknownMorphism(f"unknown morphism {label!r}") from None

    def check_object(self, e) -> int:
        """``e`` if it indexes an object; UnknownObject otherwise."""
        if not isinstance(e, int) or not 0 <= e < self.n_objects:
            raise UnknownObject(f"unknown object index {e!r}")
        return e

    def check_morphism(self, g) -> int:
        """``g`` if it indexes a morphism; UnknownMorphism otherwise."""
        if not isinstance(g, int) or not 0 <= g < self.n_morphisms:
            raise UnknownMorphism(f"unknown morphism index {g!r}")
        return g

    def identity(self, obj: int) -> int:
        """The identity morphism on object ``obj`` (these sit at indices 0..n_objects-1)."""
        return obj

    def is_identity(self, g: int) -> bool:
        return g < self.n_objects

    def composable(self, g: int, h: int) -> bool:
        """Whether the product g*h (g after h) is defined, i.e. src(g) == rng(h)."""
        return self.src[g] == self.rng[h]

    def compose(self, g: int, h: int) -> int:
        try:
            return self._comp[(g, h)]
        except KeyError:
            raise MalformedInput(
                f"morphisms {self.morphisms[g]!r} and {self.morphisms[h]!r} are not composable"
            ) from None

    def composable_pairs(self) -> Iterator[Tuple[int, int]]:
        for g in range(self.n_morphisms):
            for h in range(self.n_morphisms):
                if self.src[g] == self.rng[h]:
                    yield (g, h)

    def morphisms_from(self, e: int) -> List[int]:
        return [g for g in range(self.n_morphisms) if self.src[g] == e]

    def morphisms_into(self, e: int) -> List[int]:
        return [g for g in range(self.n_morphisms) if self.rng[g] == e]

    def loops(self, e: int) -> List[int]:
        """The morphisms from ``e`` to itself, in index order (so its identity first)."""
        return [g for g in range(self.n_morphisms) if self.src[g] == e == self.rng[g]]

    def __repr__(self) -> str:
        return f"FiniteGroupoid(objects={self.n_objects}, morphisms={self.n_morphisms})"


def validate_groupoid(raw: dict) -> FiniteGroupoid:
    """Build a groupoid from a raw description, checking every axiom.

    ``raw`` holds ``objects`` (labels), ``morphisms`` (entries with ``name``,
    ``src``, ``rng`` for the non-identity morphisms), ``compose`` (triples
    ``[g, h, g*h]`` covering at least every composable non-identity pair) and
    ``inverse`` (a map that, together with its mirror image, covers every
    non-identity morphism).  Labels resolve to indices for ``groupoid_from_tables``,
    which raises AxiomViolation carrying the full list of violations found.
    """
    if not isinstance(raw, dict):
        raise MalformedInput("groupoid description must be a mapping")
    objects = raw.get("objects")
    if not isinstance(objects, list) or not objects or not all(isinstance(o, str) for o in objects):
        raise MalformedInput("groupoid needs a non-empty list of object labels")
    arrows: List[Tuple[str, int, int]] = []
    obj_index = {lab: i for i, lab in enumerate(objects)}
    for entry in raw.get("morphisms", []):
        if not isinstance(entry, dict) or not {"name", "src", "rng"} <= set(entry):
            raise MalformedInput(f"morphism entry {entry!r} needs name/src/rng")
        for key in ("src", "rng"):
            if entry[key] not in obj_index:
                raise UnknownObject(f"morphism {entry['name']!r}: unknown object {entry[key]!r}")
        arrows.append((entry["name"], obj_index[entry["src"]], obj_index[entry["rng"]]))
    mor_index = {lab: i for i, lab in enumerate(objects + [a[0] for a in arrows])}

    def resolve(lab, where: str) -> int:
        if lab not in mor_index:
            raise UnknownMorphism(f"{where}: unknown morphism {lab!r}")
        return mor_index[lab]

    inverse = [(resolve(a, "inverse entry"), resolve(b, "inverse entry"))
               for a, b in dict(raw.get("inverse", {})).items()]
    compose = []
    for entry in raw.get("compose", []):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise MalformedInput(f"compose entry {entry!r} must be [g, h, result]")
        compose.append(tuple(resolve(lab, "compose entry") for lab in entry))
    return groupoid_from_tables(objects, arrows, inverse, compose)


def groupoid_from_tables(objects: Sequence[str], arrows: Sequence[Tuple[str, int, int]],
                         inverse: Iterable[Tuple[int, int]],
                         compose: Iterable[Tuple[int, int, int]]) -> FiniteGroupoid:
    """The groupoid on index tables, checking every axiom; every groupoid is built here.

    Morphism k < len(objects) is the identity of object k, labeled by it, and
    ``arrows`` lists the others as (label, src, rng).  ``inverse`` holds pairs
    (g, g^-1), read with their mirror images, ``compose`` triples (g, h, g*h);
    identity products are filled in.  AxiomViolation lists every violation."""
    n_obj = len(objects)
    labels = list(objects) + [a[0] for a in arrows]
    if len(set(labels)) != len(labels):     # the first repeat names the error
        k = next(k for k, lab in enumerate(labels) if lab in labels[:k])
        raise MalformedInput("duplicate object labels" if k < n_obj
                             else f"duplicate morphism label {labels[k]!r}")
    src = list(range(n_obj)) + [a[1] for a in arrows]
    rng = list(range(n_obj)) + [a[2] for a in arrows]
    n = len(labels)
    violations: List[str] = []

    # inverses: identities are self-inverse; the declared map is symmetrized.
    inv: List[Optional[int]] = [i if i < n_obj else None for i in range(n)]
    for a, b in inverse:
        for x, y in ((a, b), (b, a)):
            if inv[x] is not None and inv[x] != y:
                violations.append(f"inverse: conflicting inverses for {labels[x]!r}")
            inv[x] = y
    for g in range(n):
        if inv[g] is None:
            violations.append(f"inverse: no inverse declared for {labels[g]!r}")
            inv[g] = g  # placeholder so later checks can proceed
        elif src[inv[g]] != rng[g] or rng[inv[g]] != src[g]:
            violations.append(f"inverse: {labels[inv[g]]!r} does not reverse {labels[g]!r}")

    # composition: declared entries, then identity compositions.
    comp: Dict[Tuple[int, int], int] = {}
    for g, h, r in compose:
        if src[g] != rng[h]:
            violations.append(
                f"composability: compose({labels[g]!r}, {labels[h]!r}) declared but "
                f"src({labels[g]!r}) != rng({labels[h]!r})")
            continue
        if comp.get((g, h), r) != r:
            violations.append(
                f"composition: conflicting products for ({labels[g]!r}, {labels[h]!r})")
        comp[(g, h)] = r
    for g in range(n):
        for pair, want in (((g, src[g]), g), ((rng[g], g), g)):
            if comp.get(pair, want) != want:
                violations.append(f"identity: {labels[g]!r} composed with an identity is wrong")
            comp[pair] = want

    into: Dict[int, List[int]] = {}     # object -> the morphisms into it, in order
    for h in range(n):
        into.setdefault(rng[h], []).append(h)
    for g in range(n):
        for h in into.get(src[g], ()):
            if (g, h) not in comp:
                violations.append(f"totality: no product declared for ({labels[g]!r}, {labels[h]!r})")
                continue
            r = comp[(g, h)]
            if src[r] != src[h] or rng[r] != rng[g]:
                violations.append(f"composition: product of ({labels[g]!r}, {labels[h]!r}) has wrong endpoints")

    if not violations:
        for g in range(n):
            gi = inv[g]
            if comp.get((gi, g)) != src[g] or comp.get((g, gi)) != rng[g]:
                violations.append(f"inverse: {labels[gi]!r} * {labels[g]!r} is not the identity")
        for g in range(n):
            for h in into.get(src[g], ()):
                gh = comp[(g, h)]
                for k in into.get(src[h], ()):
                    if comp[(gh, k)] != comp[(g, comp[(h, k)])]:
                        violations.append(
                            f"associativity: ({labels[g]!r}*{labels[h]!r})*{labels[k]!r} "
                            f"!= {labels[g]!r}*({labels[h]!r}*{labels[k]!r})")

    if violations:
        raise AxiomViolation("groupoid", violations[0], violations=violations)
    return FiniteGroupoid(objects, labels, src, rng, comp, inv)


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------

def pair_groupoid(object_labels: Sequence[str], group: Optional[FiniteGroup] = None) -> FiniteGroupoid:
    """The connected groupoid on the given objects with the given isotropy group.

    Morphisms are triples (target object, source object, group element); with a
    trivial group this is the groupoid with exactly one morphism between any
    two objects.  Composition is (i,j,a)*(j,k,b) = (i,k,ab).
    """
    group = group if group is not None else FiniteGroup.trivial()
    objs = list(object_labels)
    if not objs:
        raise MalformedInput("need at least one object")
    n, q = len(objs), group.order
    order = [(i, i, 0) for i in range(n)] + [
        (i, j, a) for i in range(n) for j in range(n) for a in range(q) if i != j or a]
    index = {t: k for k, t in enumerate(order)}
    return groupoid_from_tables(
        objs, [(f"{objs[j]}>{objs[i]}" + (f":{group.labels[a]}" if q > 1 else ""), j, i)
               for i, j, a in order[n:]],
        [(index[i, j, a], index[j, i, group.inv(a)]) for i, j, a in order],
        [(index[i, j, a], index[j, k, b], index[i, k, group.mul(a, b)])
         for i, j, a in order for k in range(n) for b in range(q)])


def one_object_groupoid(group: FiniteGroup, object_label: Optional[str] = None) -> FiniteGroupoid:
    """The one-object groupoid whose morphisms form the given group.

    Morphisms keep the group's element labels (morphism a is element a); the
    identity is labeled by the object (defaulting to the group's identity
    label).
    """
    obj = object_label if object_label is not None else group.labels[0]
    rest = range(1, group.order)
    return groupoid_from_tables(
        [obj], [(group.labels[a], 0, 0) for a in rest],
        [(a, group.inv(a)) for a in rest],
        [(a, b, group.mul(a, b)) for a in rest for b in rest])


def disjoint_union(parts: Sequence[FiniteGroupoid]) -> FiniteGroupoid:
    """Disjoint union; labels are prefixed with the part number when they clash."""
    all_labels = [lab for p in parts for lab in p.morphisms]
    clash = len(set(all_labels)) != len(all_labels)

    def tag(i: int, lab: str) -> str:
        return f"c{i}.{lab}" if clash else lab

    order = [(i, g) for i, p in enumerate(parts) for g in range(p.n_objects)]
    n_obj = len(order)
    order += [(i, g) for i, p in enumerate(parts) for g in range(p.n_objects, p.n_morphisms)]
    index = {ig: k for k, ig in enumerate(order)}     # an object's index is its identity's
    return groupoid_from_tables(
        [tag(i, o) for i, p in enumerate(parts) for o in p.objects],
        [(tag(i, parts[i].morphisms[g]), index[i, parts[i].src[g]], index[i, parts[i].rng[g]])
         for i, g in order[n_obj:]],
        [(k, index[i, parts[i].inv[g]]) for k, (i, g) in enumerate(order)],
        [(index[i, g], index[i, h], index[i, p.compose(g, h)])
         for i, p in enumerate(parts) for g, h in p.composable_pairs()])


# ---------------------------------------------------------------------------
# subgroupoids and structure queries
# ---------------------------------------------------------------------------

class Subgroupoid(Record):
    """A subset of morphisms closed under inverse and defined composition."""

    parent: FiniteGroupoid
    members: frozenset = frozenset()

    def object_list(self) -> List[int]:
        return sorted({self.parent.src[g] for g in self.members}
                      | {self.parent.rng[g] for g in self.members})


def validate_subgroupoid(parent: FiniteGroupoid, members: Iterable[int]) -> Subgroupoid:
    """Check non-emptiness and closure under inverse and defined composition."""
    mem = frozenset(members)
    if not mem:
        raise AxiomViolation("subgroupoid", "a subgroupoid must be non-empty")
    for g in sorted(mem):
        if parent.inv[g] not in mem:
            raise AxiomViolation("subgroupoid",
                                 f"not closed under inverse at {parent.morphisms[g]!r}",
                                 witness=g)
        for h in sorted(mem):
            if parent.composable(g, h) and parent.compose(g, h) not in mem:
                raise AxiomViolation("subgroupoid",
                                     f"not closed under composition at "
                                     f"({parent.morphisms[g]!r}, {parent.morphisms[h]!r})",
                                     witness=(g, h))
    return Subgroupoid(parent, mem)


def restrict(sub: Subgroupoid) -> Tuple[FiniteGroupoid, Dict[int, int]]:
    """The subgroupoid as a groupoid, with its map from parent morphisms to
    local ones: objects in parent order, their identities first, then the
    other members in parent order, all under their parent labels."""
    G = sub.parent
    objs = sub.object_list()
    order = [G.identity(e) for e in objs] + sorted(g for g in sub.members if not G.is_identity(g))
    local = {g: k for k, g in enumerate(order)}     # an object's index is its identity's
    return groupoid_from_tables(
        [G.objects[e] for e in objs],
        [(G.morphisms[g], local[G.src[g]], local[G.rng[g]]) for g in order[len(objs):]],
        [(local[g], local[G.inv[g]]) for g in order],
        [(local[g], local[h], local[G.compose(g, h)])
         for g in order for h in order if G.composable(g, h)]), local


def isotropy(groupoid: FiniteGroupoid, obj: int) -> FiniteGroup:
    """The group of morphisms from ``obj`` to itself, identity listed first."""
    members = groupoid.loops(obj)
    pos = {g: i for i, g in enumerate(members)}
    table = [[pos[groupoid.compose(a, b)] for b in members] for a in members]
    return FiniteGroup([groupoid.morphisms[g] for g in members], table,
                       parent_elements=members, name=f"iso({groupoid.objects[obj]})")


def orbit(groupoid: FiniteGroupoid, e: int) -> Tuple[int, ...]:
    """All objects reachable from ``e``: {rng(g) : src(g) == e}, in object order.

    Reachability in a groupoid is one-step (paths compose to single
    morphisms), so a direct scan suffices.
    """
    return tuple(sorted({groupoid.rng[g] for g in range(groupoid.n_morphisms)
                         if groupoid.src[g] == e} | {e}))


def is_connected(groupoid: FiniteGroupoid) -> bool:
    """Whether every pair of objects is joined by a morphism."""
    return len(orbit(groupoid, 0)) == groupoid.n_objects


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------

def _closure(group: FiniteGroup, seed: Iterable[int]) -> frozenset:
    """The subgroup ``seed`` generates: the products of its members, reached
    by right multiplication from 1 (in a finite group inverses are powers)."""
    gens = frozenset(seed)
    out, work = {0}, [0]
    while work:
        y = work.pop()
        new = {group.mul(y, g) for g in gens} - out
        out |= new
        work.extend(new)
    return frozenset(out)


def subgroups(group: FiniteGroup, bound: int = SUBGROUP_ORDER_BOUND) -> List[FiniteGroup]:
    """All subgroups, found as closures of generated subsets.

    Starting from the trivial subgroup, repeatedly extend each known subgroup
    by one missing element and close; this reaches every subgroup because a
    subgroup is the closure of (any generating subset of) itself.  Results are
    sorted by (order, element tuple).  Refuses groups larger than ``bound``.
    """
    if group.order > bound:
        raise BoundExceeded(f"subgroup enumeration bounded at order {bound}, got {group.order}")
    found = {frozenset({0})}
    work = [frozenset({0})]
    while work:
        current = work.pop()
        for x in range(1, group.order):
            if x in current:
                continue
            bigger = _closure(group, current | {x})
            if bigger not in found:
                found.add(bigger)
                work.append(bigger)
    return [_subgroup(group, members)
            for members in sorted(found, key=lambda s: (len(s), sorted(s)))]


def _subgroup(group: FiniteGroup, members: Iterable[int]) -> FiniteGroup:
    """The subgroup on ``members``, its elements in parent order."""
    ordered = sorted(members)
    pos = {g: i for i, g in enumerate(ordered)}
    table = [[pos[group.mul(a, b)] for b in ordered] for a in ordered]
    return FiniteGroup([group.labels[g] for g in ordered], table,
                       parent_elements=ordered, name=f"{group.name}:sub{len(ordered)}")


def has_nontrivial_finite_normal_subgroup(
        group: FiniteGroup) -> Tuple[bool, Optional[FiniteGroup]]:
    """Search for a normal subgroup other than {1}; returns (found, witness).

    The witness is the first such subgroup in (order, element tuple) order.
    A finite group is normal in itself, so the condition holds exactly when
    the group is not trivial.  Having the least order, the witness is a
    minimal normal subgroup, so it is the normal closure (the subgroup the
    conjugates generate) of each of its elements other than 1: the first of
    the normal closures of single elements.  No subgroup is enumerated, so
    no bound applies.
    """
    closures = [_closure(group, {group.mul(group.mul(g, x), group.inv(g))
                                 for g in group.elements()})
                for x in range(1, group.order)]
    if not closures:
        return False, None
    return True, _subgroup(group, min(closures, key=lambda s: (len(s), sorted(s))))
