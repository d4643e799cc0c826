"""Finite rings on dense integer carriers 0..n-1, with 0 the additive identity.

Rings are not assumed unital or commutative.  Structured constructors
(matrix rings, direct sums, group rings) never materialize a global
multiplication table; products are computed digit-wise on demand, so e.g. the
512-element ring of 3x3 matrices over the 2-element field stays cheap.

The workhorse throughout is bilinearity: any additive subgroup is the span of
a short generator list, and a product of spans is zero iff all generator
pair-products are zero.  Closure routines multiply only pushed generators, so
ideal computations cost a handful of ring products per doubling of the span.
A closure reuses the closures cached before it: an element whose own closure
is known contributes that closure's generators and is not multiplied again,
and equal closures share one element set.  Carriers of characteristic 2 are
indexed so that addition is the xor of indices (``FiniteRing._xor``).

Every primeness criterion in the package runs on two helpers: ``close``, the
one worklist closure, and ``first_zero_pair``, the one search for two
closures whose product is zero.  Absorption, homomorphism, identity and
associativity checks, exact on additive generators, run on ``first_escape``,
``first_hom_failure``, ``first_identity`` and ``first_nonassociative``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import (Callable, Container, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .errors import (AxiomViolation, BoundExceeded, MalformedInput, NotSUnital,
                     RingMismatch)
from .groupoid import FiniteGroup

__all__ = [
    "FiniteRing",
    "CyclicRing",
    "GaloisField",
    "TableRing",
    "MatrixRing",
    "DirectSumRing",
    "GroupRing",
    "SubRing",
    "AdditiveSubgroup",
    "Ideal",
    "PrimeResult",
    "PrimePairWitness",
    "IdealEnumeration",
    "additive_closure",
    "set_product",
    "close",
    "ideal_generated",
    "principal_ideal",
    "first_escape",
    "first_hom_failure",
    "first_identity",
    "first_nonassociative",
    "is_s_unital",
    "s_unit_for",
    "is_prime_bruteforce",
    "is_zero_product",
    "first_zero_pair",
    "enumerate_ideals",
    "centralizer",
    "is_maximal_commutative",
    "validate_ring",
    "PRIME_ORACLE_BOUND",
    "IDEAL_ENUMERATION_BOUND",
]

PRIME_ORACLE_BOUND = 4096
IDEAL_ENUMERATION_BOUND = 256
TABLE_RING_BOUND = 256

# Fixed irreducibles x^2 + c1*x + c0 over GF(p) used for the degree-2 fields
# (the standard published choices; see docs/instance-format.md).
_QUADRATIC_IRREDUCIBLES: Dict[int, Tuple[int, int]] = {
    2: (1, 1),    # x^2 + x + 1
    3: (2, 2),    # x^2 + 2x + 2
    5: (2, 4),    # x^2 + 4x + 2
    7: (3, 6),    # x^2 + 6x + 3
    11: (2, 7),   # x^2 + 7x + 2
    13: (2, 12),  # x^2 + 12x + 2
}


class FiniteRing:
    """Base class; subclasses fill in add/neg/mul and a label scheme.

    ``_xor`` marks a carrier whose addition is the xor of element indices:
    a ring of characteristic 2 indexed by bit vectors (see ``_VectorRing``
    and ``SubRing`` for why their indexings qualify).
    """

    size: int = 0
    tag: str = "ring"
    one: Optional[int] = None
    _xor: bool = False

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.size)

    def additive_generators(self) -> Tuple[int, ...]:
        """A generating set for (carrier, +); greedy over element order by default."""
        cached = getattr(self, "_gens", None)
        if cached is None:
            cached = _greedy_generators(self)
            self._gens = cached
        return cached

    def label(self, a: int) -> str:
        return str(a)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.tag}, size={self.size})"


def _greedy_generators(ring: FiniteRing) -> Tuple[int, ...]:
    span = {0}
    gens: List[int] = []
    for x in range(ring.size):
        if x not in span:
            gens.append(x)
            _extend_span(ring, span, x)
    return tuple(gens)


def _extend_span(ring: FiniteRing, span: set, x: int) -> bool:
    """Grow ``span`` (an additive subgroup) to include x; returns True if it grew.

    On an xor carrier x has order 2, so x + span is the only new coset."""
    if x in span:
        return False
    if ring._xor:
        span.update([s ^ x for s in span])
        return True
    cosets = []
    y = x
    while y not in span:
        cosets.append(y)
        y = ring.add(y, x)
    add = ring.add
    base = list(span)
    for c in cosets:
        span.add(c)
        for s in base:
            span.add(add(s, c))
    return True


# ---------------------------------------------------------------------------
# concrete carriers
# ---------------------------------------------------------------------------

class CyclicRing(FiniteRing):
    """The integers mod n."""

    def __init__(self, n: int):
        if n < 1:
            raise MalformedInput(f"modulus must be positive, got {n}")
        self.size = n
        self.tag = f"Z{n}"
        self.one = 1 % n
        self._xor = n == 2

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.size

    def neg(self, a: int) -> int:
        return (-a) % self.size

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.size

    def additive_generators(self) -> Tuple[int, ...]:
        return (1,) if self.size > 1 else ()


class GaloisField(FiniteRing):
    """GF(p^k) for k in {1, 2}, encoded as polynomial coefficients base p.

    Element index a encodes a0 + a1*w with a0 = a % p, a1 = a // p, where w is
    a root of the fixed irreducible quadratic for the given characteristic.
    """

    def __init__(self, p: int, k: int = 1):
        if k not in (1, 2):
            raise MalformedInput(f"only degrees 1 and 2 are supported, got {k}")
        if p < 2 or any(p % d == 0 for d in range(2, p)):
            raise MalformedInput(f"{p} is not prime")
        self.p = p
        self.k = k
        self.size = p ** k
        self.tag = f"GF({self.size})"
        self.one = 1
        self._xor = p == 2
        if k == 2:
            if p not in _QUADRATIC_IRREDUCIBLES:
                raise MalformedInput(f"no quadratic irreducible on file for characteristic {p}")
            c0, c1 = _QUADRATIC_IRREDUCIBLES[p]
            for r in range(p):  # guard against a bad table entry
                if (r * r + c1 * r + c0) % p == 0:
                    raise MalformedInput(f"x^2+{c1}x+{c0} is reducible mod {p}")
            self._c0, self._c1 = c0, c1

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        return (a + b) % p + (a // p + b // p) % p * p

    def neg(self, a: int) -> int:
        p = self.p
        if self.k == 1:
            return (-a) % p
        return (-a) % p + (-(a // p)) % p * p

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a * b) % p
        a0, a1 = a % p, a // p
        b0, b1 = b % p, b // p
        # (a0 + a1 w)(b0 + b1 w) with w^2 = -c1 w - c0
        hi = a1 * b1
        c0 = (a0 * b0 - hi * self._c0) % p
        c1 = (a0 * b1 + a1 * b0 - hi * self._c1) % p
        return c0 + c1 * p

    def frobenius(self, a: int) -> int:
        """The field automorphism x -> x^p."""
        out = a
        for _ in range(self.p - 1):
            out = self.mul(out, a)
        return out

    def additive_generators(self) -> Tuple[int, ...]:
        return (1,) if self.k == 1 else (1, self.p)

    def label(self, a: int) -> str:
        if self.k == 1 or a < self.p:
            return str(a % self.size if self.k == 1 else a)
        a0, a1 = a % self.p, a // self.p
        w = "w" if a1 == 1 else f"{a1}*w"
        return w if a0 == 0 else f"{w}+{a0}"


class TableRing(FiniteRing):
    """A ring given by explicit addition and multiplication tables."""

    def __init__(self, add_table: Sequence[Sequence[int]], mul_table: Sequence[Sequence[int]],
                 labels: Optional[Sequence[str]] = None):
        n = len(add_table)
        if n == 0 or n > TABLE_RING_BOUND:
            raise MalformedInput(f"explicit tables must have 1..{TABLE_RING_BOUND} elements, got {n}")
        if len(mul_table) != n or any(len(r) != n for r in add_table) or any(len(r) != n for r in mul_table):
            raise MalformedInput(f"tables must both be {n}x{n}")
        self.size = n
        self.tag = f"table[{n}]"
        self._add = tuple(tuple(int(x) for x in row) for row in add_table)
        self._mul = tuple(tuple(int(x) for x in row) for row in mul_table)
        bad = next(((name, a, b, x) for name, table in (("add", self._add), ("mul", self._mul))
                    for a, row in enumerate(table) for b, x in enumerate(row)
                    if not 0 <= x < n), None)
        if bad is not None:
            raise MalformedInput("table entry {}[{}][{}] = {} is not an element of "
                                 "0..{}".format(*bad, n - 1))
        self._labels = tuple(labels) if labels is not None else None
        self._neg = [0] * n
        for a in range(n):
            row = self._add[a]
            if 0 not in row:
                raise AxiomViolation("additive-inverse", f"element {a} has no additive inverse")
            self._neg[a] = row.index(0)
        validate_ring(self)
        self.one = first_identity(self, range(n), self.additive_generators())

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def label(self, a: int) -> str:
        return self._labels[a] if self._labels is not None else str(a)


def _scaled(base: FiniteRing, c: int, name: str) -> str:
    """The term c*name for a nonzero base coefficient c; a coefficient whose
    label is a sum is parenthesised, the base identity is left out."""
    if c == base.one:
        return name
    lab = base.label(c)
    return f"({lab})*{name}" if "+" in lab else f"{lab}*{name}"


class _VectorRing(FiniteRing):
    """Shared machinery for carriers that are mixed-radix digit vectors.

    When every digit ring adds by xor, each radix is a power of two and the
    index is the concatenation of the digits' bits, so the vector adds by xor.
    """

    def __init__(self, digit_rings: Sequence[FiniteRing]):
        self._digits: Tuple[FiniteRing, ...] = tuple(digit_rings)
        if not self._digits:
            raise MalformedInput("need at least one component")
        self.size = 1
        for r in self._digits:
            self.size *= r.size
        self._xor = all(r._xor for r in self._digits)
        self._dec: Optional[List[Tuple[int, ...]]] = None

    def _decode_table(self) -> List[Tuple[int, ...]]:
        if self._dec is None:
            table = []
            for a in range(self.size):
                digs = []
                x = a
                for r in self._digits:
                    digs.append(x % r.size)
                    x //= r.size
                table.append(tuple(digs))
            self._dec = table
        return self._dec

    def decode(self, a: int) -> Tuple[int, ...]:
        return self._decode_table()[a]

    def encode(self, digits: Sequence[int]) -> int:
        out = 0
        for r, d in zip(reversed(self._digits), reversed(tuple(digits))):
            out = out * r.size + d
        return out

    def add(self, a: int, b: int) -> int:
        if self._xor:
            return a ^ b
        da, db = self.decode(a), self.decode(b)
        return self.encode([r.add(x, y) for r, x, y in zip(self._digits, da, db)])

    def neg(self, a: int) -> int:
        if self._xor:
            return a
        return self.encode([r.neg(x) for r, x in zip(self._digits, self.decode(a))])

    def inject(self, pos: int, value: int) -> int:
        """The vector with ``value`` in digit ``pos`` and zeros elsewhere."""
        digs = [0] * len(self._digits)
        digs[pos] = value
        return self.encode(digs)

    def additive_generators(self) -> Tuple[int, ...]:
        out = []
        for pos, r in enumerate(self._digits):
            out.extend(self.inject(pos, g) for g in r.additive_generators())
        return tuple(out)


class MatrixRing(_VectorRing):
    """n x n matrices over a base ring, digits in row-major order."""

    def __init__(self, base: FiniteRing, n: int):
        if n < 1:
            raise MalformedInput(f"matrix size must be positive, got {n}")
        super().__init__([base] * (n * n))
        self.base = base
        self.n = n
        self.tag = f"M{n}({base.tag})"
        self.one = (self.encode([base.one if i == j else 0
                                 for i in range(n) for j in range(n)])
                    if base.one is not None else None)
        self._memo: Dict[Tuple[int, int], int] = {}

    def unit(self, i: int, j: int, coeff: Optional[int] = None) -> int:
        """The matrix with ``coeff`` (default the base identity) at 0-based (i, j)."""
        if coeff is None:
            if self.base.one is None:
                raise MalformedInput("base ring has no identity; pass an explicit coefficient")
            coeff = self.base.one
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise MalformedInput(f"matrix unit ({i + 1},{j + 1}) out of range for n={self.n}")
        return self.inject(i * self.n + j, coeff)

    def mul(self, a: int, b: int) -> int:
        key = (a, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        n = self.n
        A, B = self.decode(a), self.decode(b)
        badd, bmul = self.base.add, self.base.mul
        out = [0] * (n * n)
        for i in range(n):
            for k in range(n):
                x = A[i * n + k]
                if x == 0:
                    continue
                row = k * n
                for j in range(n):
                    y = B[row + j]
                    if y == 0:
                        continue
                    out[i * n + j] = badd(out[i * n + j], bmul(x, y))
        r = self.encode(out)
        self._memo[key] = r
        return r

    def label(self, a: int) -> str:
        n = self.n
        return " + ".join(_scaled(self.base, c, f"e({k // n + 1},{k % n + 1})")
                          for k, c in enumerate(self.decode(a)) if c != 0) or "0"


class DirectSumRing(_VectorRing):
    """External direct sum; components are addressed by string keys.

    Keys default to "0", "1", ...; an object-indexed sum passes the object
    labels so that elements render as at(<object>, ...).
    """

    def __init__(self, parts: Sequence[FiniteRing], keys: Optional[Sequence[str]] = None):
        super().__init__(parts)
        self.parts: Tuple[FiniteRing, ...] = tuple(parts)
        self.keys: Tuple[str, ...] = (tuple(keys) if keys is not None
                                      else tuple(str(i) for i in range(len(self.parts))))
        if len(self.keys) != len(self.parts) or len(set(self.keys)) != len(self.keys):
            raise MalformedInput("component keys must be distinct and match the component count")
        self._key_index = {k: i for i, k in enumerate(self.keys)}
        self.tag = "sum(" + ", ".join(f"{k}:{p.tag}" for k, p in zip(self.keys, self.parts)) + ")"
        self.one = (self.encode([p.one for p in self.parts])
                    if all(p.one is not None for p in self.parts) else None)

    def key_index(self, key: str) -> int:
        try:
            return self._key_index[key]
        except KeyError:
            raise MalformedInput(f"unknown component key {key!r}") from None

    def component(self, key: str, a: int) -> int:
        return self.decode(a)[self.key_index(key)]

    def component_subgroup(self, key: str) -> "Ideal":
        """The component at ``key`` as an ideal of the sum."""
        pos = self.key_index(key)
        part = self.parts[pos]
        elems = frozenset(self.inject(pos, v) for v in range(part.size))
        gens = tuple(self.inject(pos, g) for g in part.additive_generators())
        return Ideal(self, elems, gens)

    def mul(self, a: int, b: int) -> int:
        da, db = self.decode(a), self.decode(b)
        return self.encode([p.mul(x, y) for p, x, y in zip(self.parts, da, db)])

    def label(self, a: int) -> str:
        digs = self.decode(a)
        terms = [f"at({k}, {p.label(d)})" for k, p, d in zip(self.keys, self.parts, digs) if d != 0]
        return " + ".join(terms) if terms else "0"


class GroupRing(_VectorRing):
    """The group ring base[H]: one base digit per group element, convolution product."""

    def __init__(self, base: FiniteRing, group: FiniteGroup):
        super().__init__([base] * group.order)
        self.base = base
        self.group = group
        self.tag = f"{base.tag}[{group.name}]"
        self.one = (self.inject(0, base.one) if base.one is not None else None)
        self._memo: Dict[Tuple[int, int], int] = {}

    def mul(self, a: int, b: int) -> int:
        key = (a, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        A, B = self.decode(a), self.decode(b)
        badd, bmul, gmul = self.base.add, self.base.mul, self.group.mul
        out = [0] * self.group.order
        for i, x in enumerate(A):
            if x == 0:
                continue
            for j, y in enumerate(B):
                if y == 0:
                    continue
                k = gmul(i, j)
                out[k] = badd(out[k], bmul(x, y))
        r = self.encode(out)
        self._memo[key] = r
        return r

    def label(self, a: int) -> str:
        return " + ".join(_scaled(self.base, c, self.group.labels[i])
                          for i, c in enumerate(self.decode(a)) if c != 0) or "0"


class SubRing(FiniteRing):
    """A multiplicatively closed additive subgroup of a parent, re-indexed
    densely; closure and the identity are decided on the generators of its
    ``additive_closure`` by ``first_escape`` and ``first_identity``.

    On an xor parent the subgroup is an F2-subspace of bit vectors.  Its
    reduced echelon basis has distinct leading bits, each set in one basis
    vector only, so sorting the elements orders them as the binary numbers
    of their basis coordinates: the position of v ^ w is the xor of the
    positions of v and w, and the subring adds by xor too.
    """

    def __init__(self, parent: FiniteRing, elements: Iterable[int]):
        elems = sorted(set(elements))
        if not elems or elems[0] != 0:
            raise MalformedInput("a subring must contain 0")
        self.parent = parent
        self.to_parent: Tuple[int, ...] = tuple(elems)
        self.from_parent: Dict[int, int] = {p: i for i, p in enumerate(elems)}
        self.size = len(elems)
        self.tag = f"sub[{self.size}]({parent.tag})"
        self._xor = parent._xor
        span = additive_closure(parent, elems)
        if len(span) != self.size:
            raise MalformedInput(f"subset not additively closed: it spans {len(span)} elements")
        escape = first_escape(parent, span.gens, span.gens, self.from_parent)
        if escape is not None:
            a, b, p = (parent.label(x) for x in escape)
            raise MalformedInput(f"subset not multiplicatively closed: ({a})*({b}) = {p}")
        u = first_identity(parent, elems, span.gens)
        self.one = None if u is None else self.from_parent[u]

    def add(self, a: int, b: int) -> int:
        if self._xor:
            return a ^ b
        return self.from_parent[self.parent.add(self.to_parent[a], self.to_parent[b])]

    def neg(self, a: int) -> int:
        return self.from_parent[self.parent.neg(self.to_parent[a])]

    def mul(self, a: int, b: int) -> int:
        return self.from_parent[self.parent.mul(self.to_parent[a], self.to_parent[b])]

    def label(self, a: int) -> str:
        return self.parent.label(self.to_parent[a])


# ---------------------------------------------------------------------------
# additive subgroups and ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdditiveSubgroup:
    """An additive subgroup, stored as its element set plus a generator list."""

    ring: FiniteRing
    elements: frozenset
    gens: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return x in self.elements

    def sorted_elements(self) -> List[int]:
        return sorted(self.elements)

    def is_zero(self) -> bool:
        return len(self.elements) == 1


class Ideal(AdditiveSubgroup):
    """An additive subgroup known to be a two-sided ideal of its ring."""


def additive_closure(ring: FiniteRing, seed: Iterable[int]) -> AdditiveSubgroup:
    """The additive subgroup generated by ``seed``."""
    span = {0}
    gens: List[int] = []
    for x in seed:
        if _extend_span(ring, span, x):
            gens.append(x)
    return AdditiveSubgroup(ring, frozenset(span), tuple(gens))


def set_product(x: AdditiveSubgroup, y: AdditiveSubgroup) -> AdditiveSubgroup:
    """The additive span of pairwise products XY (generator products suffice)."""
    if x.ring is not y.ring:
        raise RingMismatch("set_product operands live in different rings")
    mul = x.ring.mul
    return additive_closure(x.ring, (mul(a, b) for a in x.gens for b in y.gens))


def close(ring: FiniteRing, seed: Iterable[int],
          produce: Callable[[int], Iterable[int]],
          cache: Mapping[int, AdditiveSubgroup]) -> AdditiveSubgroup:
    """The smallest additive subgroup containing ``seed`` and closed under
    ``produce``, which by bilinearity only ever sees pushed generators.

    Worklist closure: each element that enlarges the span is pushed (it
    becomes the next generator of the result) and its products are queued.
    ``cache`` maps elements to their own closures under the same rules.  An
    element found there is absorbed instead: the generators of its closure
    join the span and nothing is multiplied, since that closure is closed
    already.  When the span ends no larger than the widest closure absorbed,
    that cached object is returned, so equal closures share one element set.
    Exact because every closure here is monotone and idempotent: for p in
    C(S), C({p}) is contained in C(C(S)) = C(S), so absorbing C({p}) never
    leaves C(S), and the result still contains S and is closed.
    """
    span = {0}
    pushed: List[int] = []
    widest: Optional[AdditiveSubgroup] = None
    work = deque(seed)
    while work:
        x = work.popleft()
        if x in span:
            continue
        hit = cache.get(x)
        if hit is not None:
            pushed.extend(g for g in hit.gens if _extend_span(ring, span, g))
            if widest is None or len(hit) > len(widest):
                widest = hit
            continue
        _extend_span(ring, span, x)
        pushed.append(x)
        for p in produce(x):
            if p not in span:
                work.append(p)
    if widest is not None and len(widest) == len(span):
        return widest
    return AdditiveSubgroup(ring, frozenset(span), tuple(pushed))


def _pid_cache(ring: FiniteRing) -> Dict[int, Ideal]:
    """The ring's cache of principal ideals, made on first use.  Set as an
    attribute: materialising ``vars(ring)`` slows every later attribute
    lookup on the ring under CPython 3.11."""
    cache = getattr(ring, "_pid_cache", None)
    if cache is None:
        cache = ring._pid_cache = {}
    return cache


def ideal_generated(ring: FiniteRing, seed: Iterable[int]) -> Ideal:
    """The two-sided ideal generated by ``seed``.

    Closure under products (both sides) with the ring's additive generators;
    by bilinearity that already covers multiplication by every ring element.
    The span always contains the additive multiples of the seed, so the result
    is correct without any unitality assumption.  Cached principal ideals are
    reused (see ``close``).
    """
    rgens = ring.additive_generators()
    mul = ring.mul
    span = close(ring, seed, lambda x: [p for r in rgens
                                        for p in (mul(r, x), mul(x, r))],
                 _pid_cache(ring))
    return Ideal(ring, span.elements, span.gens)


def _memo(cache: Dict, key: int, compute: Callable[[int], AdditiveSubgroup]):
    """``cache[key]``, computed as ``compute(key)`` on first use."""
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = compute(key)
    return hit


def principal_ideal(ring: FiniteRing, a: int) -> Ideal:
    """The ideal generated by one element, cached per ring."""
    return _memo(_pid_cache(ring), a, lambda x: ideal_generated(ring, [x]))


def is_zero_product(x: AdditiveSubgroup, y: AdditiveSubgroup) -> bool:
    """Whether the span XY is {0}; by bilinearity only generator pairs matter."""
    if x.ring is not y.ring:
        raise RingMismatch("operands live in different rings")
    mul = x.ring.mul
    return all(mul(a, b) == 0 for a in x.gens for b in y.gens)


def first_zero_pair(members: Sequence[int],
                    closure: Callable[[int], AdditiveSubgroup]
                    ) -> Optional[Tuple[int, int, AdditiveSubgroup, AdditiveSubgroup]]:
    """The first (a, b, closure(a), closure(b)) in ``members`` order with
    closure(a) * closure(b) == {0}, or None.

    Members with equal closures share their zero partners, so
    ``is_zero_product`` runs once per ordered pair of distinct closures.
    """
    closures = [closure(m) for m in members]
    distinct: Dict[frozenset, AdditiveSubgroup] = {}
    for c in closures:
        distinct.setdefault(c.elements, c)
    zero_partners = {ka: {kb for kb, cb in distinct.items() if is_zero_product(ca, cb)}
                     for ka, ca in distinct.items()}
    for i, ca in enumerate(closures):
        partners = zero_partners[ca.elements]
        if partners:
            j = next(j for j, cb in enumerate(closures) if cb.elements in partners)
            return members[i], members[j], ca, closures[j]
    return None


def first_escape(ring: FiniteRing, xs: Sequence[int], ys: Sequence[int],
                 target: Container[int]) -> Optional[Tuple[int, int, int]]:
    """The first (a, b, a*b) outside ``target``, trying x*y then y*x for x in
    ``xs`` and y in ``ys``, or None; for an additively closed ``target`` this
    decides absorption of all products of their spans, by bilinearity."""
    mul = ring.mul
    pairs = ((a, b) for x in xs for y in ys for a, b in ((x, y), (y, x)))
    return next(((a, b, mul(a, b)) for a, b in pairs if mul(a, b) not in target), None)


def first_hom_failure(src: FiniteRing, dst: FiniteRing, f: Callable[[int], Optional[int]],
                      domain: Iterable[int], gens: Sequence[int]
                      ) -> Optional[Tuple[str, int, int]]:
    """Where ``f`` (None off its domain) fails as a ring homomorphism from the
    span ``domain`` of ``gens`` into ``dst``: ("additive", x, g) for the first
    x and generator g with f(x+g) != f(x)+f(g), else ("multiplicative", g, h)
    for the first generator pair with f(gh) != f(g)f(h), else None.  Exact by
    induction on sums of generators, then by bilinearity."""
    return (next((("additive", x, g) for x in domain for g in gens
                  if f(src.add(x, g)) != dst.add(f(x), f(g))), None)
            or next((("multiplicative", g, h) for g in gens for h in gens
                     if f(src.mul(g, h)) != dst.mul(f(g), f(h))), None))


def first_identity(ring: FiniteRing, candidates: Iterable[int],
                   gens: Sequence[int]) -> Optional[int]:
    """The first candidate u with u*g == g == g*u for every generator g, or
    None; by bilinearity u is then a two-sided identity on their span."""
    mul = ring.mul
    return next((u for u in candidates
                 if all(mul(u, g) == g == mul(g, u) for g in gens)), None)


def first_nonassociative(ring: FiniteRing, gens: Sequence[int]
                         ) -> Optional[Tuple[int, int, int]]:
    """The first generator triple (a, b, c) with (ab)c != a(bc), or None;
    exact for a distributive product on the span of ``gens``, by trilinearity."""
    mul = ring.mul
    return next(((a, b, c) for a in gens for b in gens for c in gens
                 if mul(mul(a, b), c) != mul(a, mul(b, c))), None)


# ---------------------------------------------------------------------------
# s-unitality
# ---------------------------------------------------------------------------

def _acting_pair(r) -> Tuple[FiniteRing, Sequence[int], Sequence[int]]:
    if isinstance(r, AdditiveSubgroup):
        return r.ring, r.gens, r.sorted_elements()
    if isinstance(r, FiniteRing):
        return r, r.additive_generators(), list(r.elements())
    raise MalformedInput(f"cannot interpret {r!r} as a ring or subgroup")


def is_s_unital(x, r=None) -> bool:
    """Whether every m in X satisfies m in RmR-style spans: m in Rm and m in mR.

    ``x`` is an additive subgroup (or a ring, meaning the whole carrier) and
    ``r`` the acting subring (defaults to ``x`` itself, the usual "s-unital
    ring" reading).  Spans are taken additively, so membership in Rm is
    decided against the span of {g*m : g generates R}.
    """
    if r is None:
        r = x
    ring, rgens, _ = _acting_pair(r)
    if isinstance(x, FiniteRing):
        members: Iterable[int] = x.elements()
        if x is not ring:
            raise RingMismatch("module and acting ring disagree")
    else:
        if x.ring is not ring:
            raise RingMismatch("module and acting ring disagree")
        members = x.sorted_elements()
    mul = ring.mul
    for m in members:
        left = additive_closure(ring, (mul(g, m) for g in rgens))
        if m not in left.elements:
            return False
        right = additive_closure(ring, (mul(m, g) for g in rgens))
        if m not in right.elements:
            return False
    return True


def s_unit_for(r, members: Iterable[int]) -> int:
    """A common two-sided local unit: u with u*m == m*u == m for all members.

    Searches the acting set in element order and raises NotSUnital when no
    element works.  (For an s-unital ring one always exists for a finite set;
    the property tests lean on that as a cross-check of is_s_unital.)
    """
    ring, _, pool = _acting_pair(r)
    ms = list(members)
    u = first_identity(ring, pool, ms)
    if u is not None:
        return u
    raise NotSUnital(f"no common local unit for {[ring.label(m) for m in ms]}")


# ---------------------------------------------------------------------------
# primeness oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimePairWitness:
    """Two nonzero elements whose generated ideals multiply to zero."""

    a: int
    b: int
    a_ideal: Ideal
    b_ideal: Ideal


@dataclass(frozen=True)
class PrimeResult:
    prime: bool
    witness: Optional[PrimePairWitness]
    degenerate: bool = False


def is_prime_bruteforce(ring: FiniteRing, bound: int = PRIME_ORACLE_BOUND) -> PrimeResult:
    """Decide primeness by exhausting principal-ideal pairs.

    A ring is prime iff for all nonzero a, b the product of the ideals they
    generate is nonzero; it suffices to range over principal ideals because
    any offending ideal pair contains an offending principal pair.  The
    witness is the first failing (a, b) in element order.  The zero ring is
    reported not prime and degenerate.  Refuses carriers above ``bound``.
    """
    if ring.size > bound:
        raise BoundExceeded(f"primeness oracle bounded at {bound} elements, got {ring.size}")
    if ring.size == 1:
        return PrimeResult(False, None, degenerate=True)

    pair = first_zero_pair(range(1, ring.size), lambda a: principal_ideal(ring, a))
    if pair is None:
        return PrimeResult(True, None)
    return PrimeResult(False, PrimePairWitness(*pair))


# ---------------------------------------------------------------------------
# ideal enumeration, centralizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealEnumeration:
    ideals: Tuple[Ideal, ...]
    truncated: bool


def enumerate_ideals(ring: FiniteRing, cap: int = 256,
                     size_bound: int = IDEAL_ENUMERATION_BOUND) -> IdealEnumeration:
    """All two-sided ideals: principal ideals closed under pairwise sums.

    Every ideal is a finite sum of principal ideals, so the join-closure of
    the principal ones is complete.  Stops (deterministically, in discovery
    order) with truncated=True once more than ``cap`` ideals appear.
    """
    if ring.size > size_bound:
        raise BoundExceeded(f"ideal enumeration bounded at {size_bound} elements, got {ring.size}")
    zero = Ideal(ring, frozenset({0}), ())
    ideals: List[Ideal] = [zero]
    keys = {zero.elements}
    for a in range(1, ring.size):
        ideal = principal_ideal(ring, a)
        if ideal.elements not in keys:
            keys.add(ideal.elements)
            ideals.append(ideal)
            if len(ideals) > cap:
                return IdealEnumeration(tuple(_sorted_ideals(ideals)), True)
    i = 0
    while i < len(ideals):
        j = 0
        while j < len(ideals):
            merged = additive_closure(ring, ideals[i].gens + ideals[j].gens)
            if merged.elements not in keys:
                keys.add(merged.elements)
                ideals.append(Ideal(ring, merged.elements, merged.gens))
                if len(ideals) > cap:
                    return IdealEnumeration(tuple(_sorted_ideals(ideals)), True)
            j += 1
        i += 1
    return IdealEnumeration(tuple(_sorted_ideals(ideals)), False)


def _sorted_ideals(ideals: List[Ideal]) -> List[Ideal]:
    return sorted(ideals, key=lambda i: (len(i.elements), sorted(i.elements)))


def centralizer(ring: FiniteRing, sub: AdditiveSubgroup) -> AdditiveSubgroup:
    """All elements commuting with every member of ``sub`` (generators suffice)."""
    if sub.ring is not ring:
        raise RingMismatch("subgroup lives in a different ring")
    mul = ring.mul
    members = [t for t in ring.elements()
               if all(mul(t, s) == mul(s, t) for s in sub.gens)]
    return AdditiveSubgroup(ring, frozenset(members), tuple(additive_closure(ring, members).gens))


def is_maximal_commutative(ring: FiniteRing, sub: AdditiveSubgroup) -> bool:
    """Whether ``sub`` equals its own centralizer in ``ring``."""
    return centralizer(ring, sub).elements == sub.elements


# ---------------------------------------------------------------------------
# defensive validation for explicit tables
# ---------------------------------------------------------------------------

def validate_ring(ring: FiniteRing) -> None:
    """Check the ring axioms exactly, in O(n^2 k) operations for k additive
    generators.  Identity and inverses are checked per element, and the
    multiples of each element must reach 0 within n steps (as in any group of
    order n), so that the greedy generator search ends.  Every element is then
    a bracketed sum of generators, so for all x, y and generators g,
    (x+g)+y == x+(g+y) gives associativity (Light's test), x+g == g+x
    commutativity, and y(x+g) == yx+yg, (x+g)y == xy+gy distributivity;
    ``first_nonassociative`` then decides the product's associativity.
    """
    n = ring.size
    add, neg, mul = ring.add, ring.neg, ring.mul
    for a in range(n):
        if add(0, a) != a or add(a, 0) != a:
            raise AxiomViolation("additive-identity", f"0 + {a} != {a}")
        if add(a, neg(a)) != 0:
            raise AxiomViolation("additive-inverse", f"{a} + (-{a}) != 0")
        # a, 2a, ..., na
        if 0 not in accumulate(range(n - 1), lambda y, _: add(y, a), initial=a):
            raise AxiomViolation("additive-associativity",
                                 f"the multiples of {a} do not reach 0 within {n} steps")
    gens = ring.additive_generators()
    for x in range(n):
        for g in gens:
            xg = add(x, g)
            if xg != add(g, x):
                raise AxiomViolation("additive-commutativity", f"{x} + {g} != {g} + {x}")
            for y in range(n):
                if add(xg, y) != add(x, add(g, y)):
                    raise AxiomViolation("additive-associativity", f"({x}+{g})+{y} != {x}+({g}+{y})")
                if mul(y, xg) != add(mul(y, x), mul(y, g)):
                    raise AxiomViolation("distributivity", f"{y}*({x}+{g}) != {y}*{x} + {y}*{g}")
                if mul(xg, y) != add(mul(x, y), mul(g, y)):
                    raise AxiomViolation("distributivity", f"({x}+{g})*{y} != {x}*{y} + {g}*{y}")
    bad = first_nonassociative(ring, gens)
    if bad is not None:
        a, b, c = bad
        raise AxiomViolation("associativity", f"({a}*{b})*{c} != {a}*({b}*{c})")
