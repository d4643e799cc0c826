"""Finite rings on dense integer carriers 0..n-1, with 0 the additive identity.

Rings are not assumed unital or commutative.  Structured constructors
(matrix rings, direct sums, group rings, and the groupoid rings and skew
groupoid rings of ``partial``) never materialize a global multiplication
table: all are ``_VectorRing``s of mixed-radix digits (a skew ring's digits
are its ideals A_g, as subrings of the ambient), and one kernel,
``_VectorRing.mul``, extends each carrier's product of single terms
bilinearly, summing the terms' packed coordinate vectors (below), so e.g.
the 512-element ring of 3x3 matrices over the 2-element field stays cheap.

Beside its element index every carrier has a coordinate map: (carrier, +)
is carried into a product of cyclic groups Z/m_1 x ... x Z/m_k, where
addition is coordinatewise, and each element's coordinates are packed into
one int.  An additive subgroup is the canonical basis of its span in these
coordinates (``_Basis``, the Hermite normal form modulo the relations
m_i e_i), so membership is one reduction, the size follows from the pivots,
and two subgroups are equal iff their bases are.  Element sets are built
only for a caller that reads them.  ``_basis`` picks the kernel from the
moduli: ``_XorBasis`` when all are 2, where rows add by xor;
``_PrimeBasis`` when all are one odd prime p, where the Howell form is the
reduced row echelon form, so it keeps the same rows from pivot steps alone;
the Howell ``_Basis`` otherwise (Z/4, Z/6, mixed moduli), which skips the
follow-up inserts of a unit pivot in a new column whose modulus is the
exponent, since they are zero or reduce to zero.  Binary rows of several
elements pack by shifts alone (``_row_packer``), as every field is 1 bit
wide in the carrier and in the fold.

The workhorse throughout is bilinearity: any additive subgroup is the span of
a short generator list, and a product of spans is zero iff all generator
pair-products are zero.  Closure routines multiply only pushed generators, so
ideal computations cost a handful of ring products per generator of the span.
A closure reuses the closures cached before it: an element whose own closure
is known contributes that closure's generators and is not multiplied again,
and equal closures are one object, found through their basis.

Every primeness criterion in the package runs on two helpers: ``close``, the
one worklist closure, and ``first_zero_pair``, the one search for two
closures whose product is zero.  The exception is the carrier oracle
``is_prime_bruteforce``: for principal ideals a zero partner is a nonzero
element of a right annihilator, so it tests one annihilator per distinct
ideal, in element order, and stops at the first nonzero one.  Right
annihilators are antitone in the ideal: (p) in (a) gives ann_r((a)) in
ann_r((p)), so an element with a product r*a or a*r already proven
faithful (zero annihilator) is faithful too, and its ideal is never
closed.  Absorption,
homomorphism, identity and associativity checks, exact on additive
generators, run on ``first_escape``, ``first_hom_failure``,
``first_identity`` and ``first_nonassociative``.

Linear conditions are solved by ``_kernel``, not swept: the rows of a Howell
basis that vanish on the leading blocks span the part of the span vanishing
there (Storjohann and Mulders, "Fast algorithms for linear algebra modulo
N", ESA 1998), so rows (f(g), g) over generators g give ker f, and rows
(a, a) and (b, 0) the meet of two spans.
"""

from __future__ import annotations

from functools import reduce, wraps
from itertools import accumulate, chain, combinations
from math import isqrt, lcm, prod
from operator import pos, xor

from .errors import AxiomViolation, BoundExceeded, MalformedInput, Record, RingMismatch
from .groupoid import FiniteGroup

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import (Callable, Container, Dict, Iterable, List, Optional, Sequence,
                        Tuple, Union)

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
    "is_prime_bruteforce",
    "is_zero_product",
    "first_zero_pair",
    "is_zero_ideal_pair",
    "enumerate_ideals",
    "centralizer",
    "is_commutative",
    "is_maximal_commutative",
    "validate_ring",
    "IDEAL_ENUMERATION_BOUND",
]

IDEAL_ENUMERATION_BOUND = 256
IDEAL_ENUMERATION_CAP = 256
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
    """Base class; subclasses fill in mul, a label scheme and a coordinate map.

    The coordinate map carries element a to a vector of Z/m_1 x ... x Z/m_k
    (``moduli``) so that addition is coordinatewise.  A carrier defines it
    by ``_coordinate_table``, the packed vectors of all its elements;
    ``coordinates`` reads one vector off it.  ``add`` and ``neg`` run
    through the map unless a carrier has a rule of its own.
    """

    size: int = 0
    tag: str = "ring"
    one: Optional[int] = None
    moduli: Tuple[int, ...] = ()
    _coordinate_map: Optional["_Coordinates"] = None

    def add(self, a: int, b: int) -> int:
        c = self._coordinate_map or _coordinates(self)
        return c.index[c.add(c.of[a], c.of[b])]

    def neg(self, a: int) -> int:
        c = self._coordinate_map or _coordinates(self)
        return c.index[c.neg(c.of[a])]

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def coordinates(self, a: int) -> Tuple[int, ...]:
        c = _coordinates(self)
        return tuple(c.unpack(c.of[a]))

    def _coordinate_table(self, c: "_Coordinates") -> Sequence[int]:
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
    """Each element in order that the earlier ones do not generate.  Found
    on the addition alone, since ``validate_ring`` reads it before the ring
    is known to be one (and so before coordinates exist): every element is
    a left-bracketed sum of the result."""
    span = {0}
    gens: List[int] = []
    for x in range(ring.size):
        if x not in span:
            gens.append(x)
            grown = set(span)
            while grown:
                grown = {ring.add(y, g) for y in grown for g in gens} - span
                span |= grown
    return tuple(gens)


# ---------------------------------------------------------------------------
# coordinates and canonical bases
# ---------------------------------------------------------------------------

class _Coordinates:
    """Packed vectors of Z/m_1 x ... x Z/m_k, for the given moduli.
    Coordinate i lies in Z/moduli[i] and is packed into bits
    [i*w, (i+1)*w) of one int.  The width w leaves room for k+2 multiples
    below the exponent E, so a reduction takes field remainders only where
    it reads a field; a fold whose bases keep at most k rows may pass the
    width of its k-coordinate carrier instead.  When every modulus is 2
    (``binary``), w is 1 and vectors add by xor.  When every modulus is one
    odd prime p (``field``), the coordinates are a vector space over GF(p).

    A carrier's coordinate map (``_coordinates``) is one of these with
    ``of[a]``, the vector of element a, and ``index``, which maps a
    normalized vector back."""

    of: Sequence[int]
    index: Dict[int, int]

    def __init__(self, moduli: Sequence[int], width: int = 0):
        ms = self.moduli = tuple(moduli)
        self.binary = all(m == 2 for m in ms)
        e = self.exponent = lcm(*ms)
        self.field = (not self.binary and all(m == e for m in ms)
                      and all(e % q for q in range(2, isqrt(e) + 1)))
        self.width = 1 if self.binary else width or (max(ms) * self.exponent * (len(ms) + 2)).bit_length()
        if self.binary:     # v == -v, and every xor of vectors is normalized
            self.add, self.neg, self.normalize = xor, pos, pos
        self.mask = (1 << self.width) - 1
        self.fields = tuple((i * self.width, m) for i, m in enumerate(ms))

    def pack(self, coords: Iterable[int]) -> int:
        return sum(c << s for c, (s, _) in zip(coords, self.fields))

    def unpack(self, v: int) -> List[int]:
        return [(v >> s & self.mask) % m for s, m in self.fields]

    def normalize(self, v: int) -> int:
        """``pack(unpack(v))`` field by field, for v with nonnegative fields
        that fit the width."""
        mask = self.mask
        for s, m in self.fields:
            f = v >> s & mask
            if f >= m:
                v -= f // m * m << s
        return v

    def add(self, u: int, v: int) -> int:
        return self.normalize(u + v)

    def neg(self, v: int) -> int:
        return self.pack(-c % m for c, m in zip(self.unpack(v), self.moduli))


def _coordinates(ring: FiniteRing) -> _Coordinates:
    """The carrier's coordinate map, built on first use."""
    c = ring._coordinate_map
    if c is None:
        c = _Coordinates(ring.moduli)
        c.of = ring._coordinate_table(c)
        c.index = {v: a for a, v in enumerate(c.of)}
        ring._coordinate_map = c
    return c


def _mixed_radix_table(c: _Coordinates, digits: Sequence[Sequence[Sequence[int]]]) -> List[int]:
    """Packed vectors, in index order, of a mixed-radix carrier whose digit i
    (least significant first) has coordinates ``digits[i][value]``; the
    vector concatenates the digits' coordinates."""
    table, at = [0], 0
    for values in digits:
        steps = [c.pack((0,) * at + tuple(v)) for v in values]
        table = [x + s for s in steps for x in table]
        at += len(values[0])
    return table


def _radix_tuples(digits: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Every tuple with entry i in ``digits[i]``, in mixed-radix order
    (entry 0 least significant)."""
    out: List[Tuple[int, ...]] = [()]
    for values in digits:
        out = [t + (v,) for v in values for t in out]
    return out


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


class _Basis:
    """The canonical basis of a subgroup of Z/m_1 x ... x Z/m_k.

    ``_steps`` has one step (shift, m_j, d_j, row_j) per column j, in order.
    A pivot column's row has zeros before j and d_j, a proper divisor of
    m_j, at j; at any other column d_j = m_j and the row is 0, standing for
    the relation m_j e_j.  Rows and relations form the Hermite normal form
    of the subgroup's lattice in Z^k (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.2).  Rows are kept reduced (an entry at a
    pivot column lies below that pivot) and (m_j/d_j) row_j lies in the span
    of the later rows, so membership is one reduction down the columns, the
    size is the product of the m_j/d_j, and equal subgroups have equal rows
    (``key``).  Over GF(p) this is the reduced row echelon form, which
    ``_PrimeBasis`` keeps more cheaply for odd p.  A reduction adds fewer
    than E multiples of each of at most k rows.
    """

    __slots__ = ("c", "_steps")

    def __init__(self, coords: _Coordinates):
        self.c = coords
        self._steps: List[tuple] = [] if coords.binary else [(s, m, m, 0) for s, m in coords.fields]

    def key(self) -> frozenset:
        return frozenset(step[-1] for step in self._steps if step[-1])

    def reduce(self, v: int) -> int:
        """0 if the span holds v; else v less multiples of the rows down to
        the first column they cannot clear, its fields not normalized."""
        mask, e = self.c.mask, self.c.exponent
        for s, m, d, row in self._steps:
            a = (v >> s & mask) % m
            if a:
                if a % d:
                    return v
                v += (e - a // d) * row
        return 0

    def contains(self, v: int) -> bool:
        return not self.reduce(v)

    def insert(self, v: int) -> bool:
        """Extend the span by the packed vector v; False if it holds v.

        At the column j where ``reduce`` stops, the first nonzero one, v's
        entry a is not a multiple of the pivot d (m_j without a row); the
        row becomes the gcd g of the two, combined accordingly; v and the
        old row less multiples of it, and (m_j/g) times it, are zero through
        j and are inserted in turn.

        A unit pivot (g = 1) in a column that had no row (d = m) with m the
        exponent E skips them: there new = y*v + (later rows) with y*a = 1
        mod E, and x*E + y*a = 1 gives v - a*new = x*E*v - a*(later rows),
        which the later rows, a Howell basis of their own span, reduce to 0;
        the old row is 0; and m*new = E*new is 0.  Every pivot over GF(p)
        is such a pivot, and so is every odd one over Z/4."""
        c, steps = self.c, self._steps
        mask, e = c.mask, c.exponent
        v = self.reduce(v)
        if not v:
            return False
        v = c.normalize(v)
        j = ((v & -v).bit_length() - 1) // c.width
        s, m, d, row = steps[j]
        a = v >> s & mask
        g, x, y = _xgcd(d, a)
        new = self._reduced(x % e * row + y % e * v, j)
        steps[j] = (s, m, g, new)
        for i, (si, mi, di, ri) in enumerate(steps[:j]):
            if ri >> s & mask >= g:
                steps[i] = (si, mi, di, self._reduced(ri, i))
        if g == 1 and d == m == e:      # a unit pivot in a new column
            return True
        for w in (v + (e - a // g) * new, row + (e - d // g) * new, m // g * new):
            self.insert(w)
        return True

    def _reduced(self, row: int, after: int) -> int:
        """``row`` normalized, with its entries at the pivot columns after
        ``after`` brought below those pivots by the rows there."""
        c = self.c
        for s, m, d, r in self._steps[after + 1:]:
            f = (row >> s & c.mask) % m
            if f >= d:
                row += (c.exponent - f // d) * r
        return c.normalize(row)

    def size(self) -> int:
        return prod(m // d for _, m, d, _ in self._steps)

    def rows(self) -> List[Tuple[int, int]]:
        """(row, order) per pivot: each vector of the span is exactly one sum
        of k_j times row j over 0 <= k_j < order_j, and ``vectors`` lists
        these sums with k_0 running fastest."""
        return [(row, m // d) for _, m, d, row in self._steps if row]

    def vectors(self) -> List[int]:
        """Every packed vector of the span, normalized."""
        out = [0]
        for row, order in self.rows():
            out = [x + k * row for k in range(order) for x in out]
        return [self.c.normalize(x) for x in out]


class _XorBasis(_Basis):
    """``_Basis`` for binary coordinates: a step is (pivot bit, row), and
    rows add by xor.  With the general steps in its place, a pass over the
    fixtures, or over the ladder rungs, took about 2.3 times as long
    (measured on 2 cores under Python 3.11)."""

    __slots__ = ()

    def reduce(self, v: int) -> int:
        for bit, row in self._steps:
            if v & bit:
                v ^= row
        return v

    def insert(self, v: int) -> bool:
        v = self.reduce(v)
        if not v:
            return False
        low = v & -v
        self._steps = [(b, r ^ v if r & low else r) for b, r in self._steps] + [(low, v)]
        return True

    def size(self) -> int:
        return 1 << len(self._steps)

    def rows(self) -> List[Tuple[int, int]]:
        return [(row, 2) for _, row in self._steps]

    def vectors(self) -> List[int]:
        out = [0]
        for _, row in self._steps:
            out += [x ^ row for x in out]
        return out


class _PrimeBasis(_Basis):
    """``_Basis`` for coordinates over GF(p), p an odd prime (``field``): a
    step is (shift, row) per pivot column, in column order, and every pivot
    is 1.  Over a field the Howell form is the reduced row echelon form, so
    the rows, and with them ``key``, ``rows`` and ``vectors``, are the
    ones ``_Basis`` keeps; a new row is the remainder scaled by the inverse
    of its leading entry, and it only has to clear its column from the
    earlier rows, with no relation steps and no follow-up inserts.
    ``_free`` lists the columns without a pivot."""

    __slots__ = ("_free",)

    def __init__(self, coords: _Coordinates):
        self.c = coords
        self._steps: List[Tuple[int, int]] = []
        self._free = [s for s, _ in coords.fields]

    def reduce(self, v: int) -> int:
        """0 if the span holds v; else v less multiples of every row, its
        fields not normalized.  Past the rows, v is in the span iff it is 0
        at every free column.  Where every free column lies after the last
        pivot, as in ``Grading.decompose``, this is the remainder that
        ``_Basis.reduce`` leaves."""
        mask, p = self.c.mask, self.c.exponent
        for s, row in self._steps:
            a = (v >> s & mask) % p
            if a:
                v += (p - a) * row
        for s in self._free:
            if (v >> s & mask) % p:
                return v
        return 0

    def insert(self, v: int) -> bool:
        c, steps = self.c, self._steps
        mask, p = c.mask, c.exponent
        v = self.reduce(v)
        if not v:
            return False
        v = c.normalize(v)
        s = ((v & -v).bit_length() - 1) // c.width * c.width
        a = v >> s & mask
        if a != 1:
            v = c.normalize(pow(a, -1, p) * v)
        for i, (si, ri) in enumerate(steps):       # a later row is 0 at s
            f = ri >> s & mask
            if f:
                steps[i] = (si, c.normalize(ri + (p - f) * v))
        steps.append((s, v))
        steps.sort()                # column order; shifts are distinct
        self._free.remove(s)
        return True

    def size(self) -> int:
        return self.c.exponent ** len(self._steps)

    def rows(self) -> List[Tuple[int, int]]:
        p = self.c.exponent
        return [(row, p) for _, row in self._steps]


def _basis(coords: _Coordinates) -> _Basis:
    """An empty basis in ``coords``: xor steps for binary coordinates,
    pivot-only steps over GF(p), p odd, and Howell steps otherwise."""
    return (_XorBasis if coords.binary else _PrimeBasis if coords.field else _Basis)(coords)


def _row_packer(ring: FiniteRing, d: int
                ) -> Tuple[_Coordinates, Callable[[Iterable[int]], int]]:
    """The d-fold product of the carrier's coordinates, and the map that
    packs a row of d elements into it, the i-th element's coordinates in
    the i-th block.  Binary fields are 1 bit wide in both, so there block i
    is the element's packed vector shifted by i*k bits, k the carrier's
    field count."""
    c = _coordinates(ring)
    fold = _Coordinates(c.moduli * d)
    if c.binary:        # width 1 in both: block i starts at bit i*k
        k, of = len(c.moduli), c.of
        return fold, lambda row: sum([of[e] << i * k for i, e in enumerate(row)])
    return fold, lambda row: fold.pack(v for e in row for v in c.unpack(c.of[e]))


def _kernel(ring: FiniteRing, rows: Sequence[Sequence[int]]) -> List[int]:
    """Elements spanning the last block of the span of ``rows`` where every
    earlier block vanishes: ker f for the rows (f(g), g) over generators g,
    and A n B for the rows (a, a) and (b, 0).

    One basis of the rows packed by ``_row_packer``.  Its rows are a Howell
    form (``_Basis``): a vector of the span that vanishes on the leading
    blocks reduces to 0 by the rows with their pivots past those blocks
    alone, so those rows, which vanish there too, span all such vectors.
    Rows are normalized, so a row vanishes there iff its low bits do, and
    its last block is read by a shift (and repacked unless binary)."""
    if not rows:
        return []
    c = _coordinates(ring)
    fold, packed = _row_packer(ring, len(rows[0]))
    basis = _basis(fold)
    for row in rows:
        basis.insert(packed(row))
    lead = (len(fold.moduli) - len(c.moduli)) * fold.width
    tails = [r >> lead for r, _ in basis.rows() if not r & (1 << lead) - 1]
    if not c.binary:
        tails = [c.pack(fold.unpack(t)) for t in tails]
    return [c.index[t] for t in tails]


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
        self.moduli = (n,) if n > 1 else ()

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.size

    def neg(self, a: int) -> int:
        return (-a) % self.size

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.size

    def _coordinate_table(self, c: _Coordinates) -> range:
        return range(self.size)

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
        self.moduli = (p,) * k
        if k == 2:
            if p not in _QUADRATIC_IRREDUCIBLES:
                raise MalformedInput(f"no quadratic irreducible on file for characteristic {p}")
            c0, c1 = _QUADRATIC_IRREDUCIBLES[p]
            for r in range(p):  # guard against a bad table entry
                if (r * r + c1 * r + c0) % p == 0:
                    raise MalformedInput(f"x^2+{c1}x+{c0} is reducible mod {p}")
            self._c0, self._c1 = c0, c1

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

    def _coordinate_table(self, c: _Coordinates) -> Sequence[int]:
        p = self.p
        return range(p) if self.k == 1 else [c.pack((a % p, a // p)) for a in range(self.size)]

    def additive_generators(self) -> Tuple[int, ...]:
        return (1,) if self.k == 1 else (1, self.p)

    def label(self, a: int) -> str:
        if self.k == 1 or a < self.p:
            return str(a % self.size if self.k == 1 else a)
        a0, a1 = a % self.p, a // self.p
        w = "w" if a1 == 1 else f"{a1}*w"
        return w if a0 == 0 else f"{w}+{a0}"


class TableRing(FiniteRing):
    """A ring given by explicit addition and multiplication tables.

    Its coordinates come from a cyclic decomposition of (carrier, +), made
    once the tables are validated: summands x_1, x_2, ..., each of greatest
    order modulo the sum of those before it.  Such a sum is a direct
    summand, so x_i can be taken with exactly that order; the coordinates of
    an element are its multiples of the x_i.
    """

    def __init__(self, add_table: Sequence[Sequence[int]], mul_table: Sequence[Sequence[int]],
                 labels: Optional[Sequence[str]] = None):
        n = len(add_table)
        if n == 0 or n > TABLE_RING_BOUND:
            raise MalformedInput(f"explicit tables must have 1..{TABLE_RING_BOUND} elements, got {n}")
        if len(mul_table) != n or any(len(r) != n for r in add_table) or any(len(r) != n for r in mul_table):
            raise MalformedInput(f"tables must both be {n}x{n}")
        self.size = n
        self.tag = f"table[{n}]"
        self._add = tuple(tuple(row) for row in add_table)
        self._mul = tuple(tuple(row) for row in mul_table)
        bad = next(((name, a, b, x) for name, table in (("add", self._add), ("mul", self._mul))
                    for a, row in enumerate(table) for b, x in enumerate(row)
                    if type(x) is not int or not 0 <= x < n), None)
        if bad is not None:
            raise MalformedInput("table entry {}[{}][{}] = {!r} is not an element of "
                                 "0..{}".format(*bad, n - 1))
        if labels is not None and (len(labels) != n or len(set(labels)) != n):
            raise MalformedInput(f"labels must name each of the {n} elements once")
        self._labels = tuple(labels) if labels is not None else None
        self._neg = [0] * n
        for a in range(n):
            row = self._add[a]
            if 0 not in row:
                raise AxiomViolation("additive-inverse", f"element {a} has no additive inverse")
            self._neg[a] = row.index(0)
        validate_ring(self)
        self.one = first_identity(self, range(n), self.additive_generators())
        self.moduli, self._coords = self._decompose()

    def _decompose(self) -> Tuple[Tuple[int, ...], List[Tuple[int, ...]]]:
        add, n = self.add, self.size
        coords: Dict[int, Tuple[int, ...]] = {0: ()}
        moduli: List[int] = []
        while len(coords) < n:
            o, y, z = 0, 0, 0    # greatest order modulo the sum, its element, o*y
            for a in range(n):
                b, k = a, 1
                while b not in coords:
                    b, k = add(b, a), k + 1
                if k > o:
                    o, y, z = k, a, b
            for h in coords:     # some h in the sum has o*h == o*y
                w = h
                for _ in range(o - 1):
                    w = add(w, h)
                if w == z:
                    break
            x = add(y, self.neg(h))
            multiples = list(accumulate(range(o - 1), lambda acc, _: add(acc, x), initial=0))
            coords = {add(s, xc): t + (c,) for s, t in coords.items()
                      for c, xc in enumerate(multiples)}
            moduli.append(o)
        return tuple(moduli), [coords[a] for a in range(n)]

    def _coordinate_table(self, c: _Coordinates) -> List[int]:
        return [c.pack(t) for t in self._coords]

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


class _Terms(dict):
    """(i, x, j, y) -> the packed vector of a term product, on first use;
    nothing is kept for a term whose rule raises."""

    def __init__(self, ring: "_VectorRing"):
        super().__init__()
        self.ring = ring

    def __missing__(self, key: Tuple[int, int, int, int]) -> int:
        ring = self.ring
        pos, digit = ring._term(*key)
        v = self[key] = _coordinates(ring).of[digit * ring._places[pos]]
        return v


class _VectorRing(FiniteRing):
    """A carrier of mixed-radix digit vectors whose product is the bilinear
    extension of a product on single terms: matrices, group rings, direct
    sums, groupoid rings and skew groupoid rings.

    Element a is the vector of its digits, digit i in ``_digits[i]`` (digit
    0 least significant), and its coordinates concatenate the digits'
    coordinates.  A carrier supplies ``_partners`` (for each position i, the
    positions j where x at i times y at j can be nonzero) and ``_term(i, x,
    j, y)``, the (position, digit) of that product.  ``mul`` sums the
    packed coordinate vectors of the term products of a pair, each computed
    once per (i, x, j, y), by xor on binary coordinates and otherwise by
    plain addition and one ``normalize``, and reads the product off the
    coordinate index; each pair's product is kept too.  The sum cannot
    overflow a field: by cancellation the target position determines j
    given i ((r,k)(k,c) lands at (r,c); ij = k in a group; j = i in a sum;
    gh determines h), so at most one term per left position lands in a
    field, which stays below len(moduli)*m, inside the width
    ``_Coordinates`` reserves.
    """

    def __init__(self, digit_rings: Sequence[FiniteRing],
                 partners: Sequence[Sequence[int]]):
        self._digits: Tuple[FiniteRing, ...] = tuple(digit_rings)
        if not self._digits:
            raise MalformedInput("need at least one component")
        self._partners = partners
        self._products: Dict[Tuple[int, int], int] = {}
        self._terms = _Terms(self)
        self._places = list(accumulate([r.size for r in self._digits],
                                       lambda p, n: p * n, initial=1))
        self.size = self._places.pop()
        self.moduli = tuple(m for r in self._digits for m in r.moduli)
        self._dec: Optional[List[Tuple[int, ...]]] = None
        # the cache FiniteRing.additive_generators reads
        self._gens = tuple(g * self._places[pos] for pos, r in enumerate(self._digits)
                           for g in r.additive_generators())

    def mul(self, a: int, b: int) -> int:
        key = (a, b)
        hit = self._products.get(key)
        if hit is not None:
            return hit
        coeffs = self._coefficient_table()
        A, B = coeffs[a], coeffs[b]
        partners, terms = self._partners, self._terms
        vecs = [terms[i, x, j, y] for i, x in enumerate(A) if x
                for j in partners[i] for y in (B[j],) if y]
        c = self._coordinate_map or _coordinates(self)
        v = reduce(xor, vecs, 0) if c.binary else c.normalize(sum(vecs))
        hit = self._products[key] = c.index[v]
        return hit

    def _coordinate_table(self, c: _Coordinates) -> List[int]:
        return _mixed_radix_table(c, [[r.coordinates(d) for d in range(r.size)]
                                      for r in self._digits])

    def _coefficient_table(self) -> List[Tuple[int, ...]]:
        if self._dec is None:
            self._dec = _radix_tuples([range(r.size) for r in self._digits])
        return self._dec

    def decode(self, a: int) -> Tuple[int, ...]:
        return self._coefficient_table()[a]

    def encode(self, digits: Sequence[int]) -> int:
        return sum(d * p for d, p in zip(digits, self._places))

    def inject(self, pos: int, value: int) -> int:
        """The vector with ``value`` in digit ``pos`` and zeros elsewhere."""
        return value * self._places[pos]


class MatrixRing(_VectorRing):
    """n x n matrices over a base ring, digits in row-major order."""

    def __init__(self, base: FiniteRing, n: int):
        if n < 1:
            raise MalformedInput(f"matrix size must be positive, got {n}")
        # (r,k) meets (k,c) for every c
        super().__init__([base] * (n * n), [range(i % n * n, i % n * n + n)
                                            for i in range(n * n)])
        self.base = base
        self.n = n
        self.tag = f"M{n}({base.tag})"
        self.one = (self.encode([base.one if i == j else 0
                                 for i in range(n) for j in range(n)])
                    if base.one is not None else None)

    def unit(self, i: int, j: int, coeff: Optional[int] = None) -> int:
        """The matrix with ``coeff`` (default the base identity) at 0-based (i, j)."""
        if coeff is None:
            if self.base.one is None:
                raise MalformedInput("base ring has no identity; pass an explicit coefficient")
            coeff = self.base.one
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise MalformedInput(f"matrix unit ({i + 1},{j + 1}) out of range for n={self.n}")
        return self.inject(i * self.n + j, coeff)

    def _term(self, i: int, x: int, j: int, y: int) -> Tuple[int, int]:
        return i - i % self.n + j % self.n, self.base.mul(x, y)

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
        super().__init__(parts, [(i,) for i in range(len(parts))])
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
        return Ideal(self, [self.inject(pos, g) for g in self.parts[pos].additive_generators()])

    def _term(self, i: int, x: int, j: int, y: int) -> Tuple[int, int]:
        return i, self.parts[i].mul(x, y)

    def label(self, a: int) -> str:
        digs = self.decode(a)
        terms = [f"at({k}, {p.label(d)})" for k, p, d in zip(self.keys, self.parts, digs) if d != 0]
        return " + ".join(terms) if terms else "0"


class GroupRing(_VectorRing):
    """The group ring base[H]: one base digit per group element, convolution product."""

    def __init__(self, base: FiniteRing, group: FiniteGroup):
        super().__init__([base] * group.order, [range(group.order)] * group.order)
        self.base = base
        self.group = group
        self.tag = f"{base.tag}[{group.name}]"
        self.one = (self.inject(0, base.one) if base.one is not None else None)

    def _term(self, i: int, x: int, j: int, y: int) -> Tuple[int, int]:
        return self.group.mul(i, j), self.base.mul(x, y)

    def label(self, a: int) -> str:
        return " + ".join(_scaled(self.base, c, self.group.labels[i])
                          for i, c in enumerate(self.decode(a)) if c != 0) or "0"


class SubRing(FiniteRing):
    """A multiplicatively closed additive subgroup of a parent, re-indexed
    densely in the parent's element order; its coordinates are the parent's.
    ``elements`` is an ``AdditiveSubgroup`` of the parent, taken as it is, or
    an additively closed element set, spanned by ``additive_closure``.
    Closure and the identity are decided on the span's generators by
    ``first_escape`` and ``first_identity``; they are the subring's too.
    """

    def __init__(self, parent: FiniteRing,
                 elements: Union[AdditiveSubgroup, Iterable[int]]):
        span = elements if isinstance(elements, AdditiveSubgroup) else None
        if span is not None and span.ring is not parent:
            raise RingMismatch("the span lives in a different ring")
        elems = span.sorted_elements() if span is not None else sorted(set(elements))
        if not elems or elems[0] != 0:
            raise MalformedInput("a subring must contain 0")
        self.parent = parent
        self.to_parent: Tuple[int, ...] = tuple(elems)
        self.from_parent: Dict[int, int] = {p: i for i, p in enumerate(elems)}
        self.size = len(elems)
        self.tag = f"sub[{self.size}]({parent.tag})"
        self.moduli = parent.moduli
        if span is None:
            span = additive_closure(parent, elems)
            if len(span) != self.size:
                raise MalformedInput(f"subset not additively closed: it spans {len(span)} elements")
        self._gens = tuple(self.from_parent[g] for g in span.gens)
        escape = first_escape(parent, span.gens, span.gens, self.from_parent)
        if escape is not None:
            a, b, p = (parent.label(x) for x in escape)
            raise MalformedInput(f"subset not multiplicatively closed: ({a})*({b}) = {p}")
        u = first_identity(parent, elems, span.gens)
        self.one = None if u is None else self.from_parent[u]

    def _coordinate_table(self, c: _Coordinates) -> List[int]:
        of = _coordinates(self.parent).of
        return [of[p] for p in self.to_parent]

    def mul(self, a: int, b: int) -> int:
        return self.from_parent[self.parent.mul(self.to_parent[a], self.to_parent[b])]

    def label(self, a: int) -> str:
        return self.parent.label(self.to_parent[a])


# ---------------------------------------------------------------------------
# additive subgroups and ideals
# ---------------------------------------------------------------------------

class AdditiveSubgroup:
    """An additive subgroup, kept as the canonical basis of its span in the
    carrier's coordinates.  The basis rows are its ``key``: two subgroups of
    one carrier are equal iff their keys are.  ``gens`` are the given
    elements that enlarged the span, in order; ``elements``, the element
    set, is built on first read.
    """

    __slots__ = ("ring", "gens", "key", "_basis", "_elements")

    def __init__(self, ring: FiniteRing, gens: Iterable[int]):
        """The span of ``gens``."""
        coords = _coordinates(ring)
        basis = _basis(coords)
        self.ring = ring
        self.gens: Tuple[int, ...] = tuple(g for g in gens if basis.insert(coords.of[g]))
        self.key = basis.key()
        self._basis = basis
        self._elements = None

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            index = _coordinates(self.ring).index
            self._elements = frozenset([index[v] for v in self._basis.vectors()])
        return self._elements

    def __len__(self) -> int:
        return self._basis.size()

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.ring.size and self._basis.contains(self._basis.c.of[x])

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other.ring is self.ring
                and other.key == self.key)

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(generators={list(self.gens)}, size={len(self)})"

    def sorted_elements(self) -> List[int]:
        return sorted(self.elements)

    def is_zero(self) -> bool:
        return not self.key


class Ideal(AdditiveSubgroup):
    """An additive subgroup known to be a two-sided ideal of its ring."""

    __slots__ = ()


def additive_closure(ring: FiniteRing, seed: Iterable[int]) -> AdditiveSubgroup:
    """The additive subgroup generated by ``seed``."""
    return AdditiveSubgroup(ring, seed)


def set_product(x: AdditiveSubgroup, y: AdditiveSubgroup) -> AdditiveSubgroup:
    """The additive span of pairwise products XY (generator products suffice)."""
    if x.ring is not y.ring:
        raise RingMismatch("set_product operands live in different rings")
    mul = x.ring.mul
    return additive_closure(x.ring, (mul(a, b) for a in x.gens for b in y.gens))


class _Closures(dict):
    """An owner's closures for ``close``: element -> the closure of that
    element, and ``shared``, basis key -> the one ``kind`` object holding
    that span."""

    def __init__(self, kind: type):
        super().__init__()
        self.kind = kind
        self.shared: Dict[frozenset, AdditiveSubgroup] = {}


def close(ring: FiniteRing, seed: Iterable[int],
          produce: Callable[[int], Iterable[int]],
          cache: _Closures) -> AdditiveSubgroup:
    """The smallest additive subgroup containing ``seed`` and closed under
    ``produce``, which by bilinearity only ever sees pushed generators.

    Worklist closure: each element that enlarges the span is pushed (it
    becomes the next generator of the result) and its products are queued.
    The products are drawn one at a time, breadth first (the seed, then the
    products of each pushed element in push order), so none is computed
    after the answer is known.  ``cache`` maps elements to their own
    closures under the same rules.  An element found there is absorbed
    instead: the generators of its closure join the span and nothing is
    multiplied, since that closure is closed already.  Exact because every
    closure here is monotone and idempotent: for p in C(S), C({p}) is
    contained in C(C(S)) = C(S), so absorbing C({p}) never leaves C(S), and
    the result still contains S and is closed.  In particular a cached
    C({p}) that fills the carrier is C(S) and is returned as it is, and a
    span that fills the carrier is closed, so the queue is dropped.  The
    result is the cache's one object with its basis: equal closures are
    shared.
    """
    coords = _coordinates(ring)
    of = coords.of
    span = _basis(coords)
    pushed: List[int] = []
    queued = [seed]
    for x in chain.from_iterable(queued):     # sees the products queued below
        if span.contains(of[x]):
            continue
        hit = cache.get(x)
        if hit is None:
            span.insert(of[x])
            pushed.append(x)
            queued.append(produce(x))
        elif len(hit) == ring.size:
            return hit
        else:
            pushed.extend(g for g in hit.gens if span.insert(of[g]))
        if span.size() == ring.size:
            break
    key = span.key()
    shared = cache.shared.get(key)
    if shared is None:
        shared = cache.shared[key] = cache.kind(ring, pushed)
    return shared


def _pid_cache(ring: FiniteRing) -> _Closures:
    """The ring's cache of principal ideals, made on first use.  Set as an
    attribute: materialising ``vars(ring)`` slows every later attribute
    lookup on the ring under CPython 3.11."""
    cache = getattr(ring, "_pid_cache", None)
    if cache is None:
        cache = ring._pid_cache = _Closures(Ideal)
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
    return close(ring, seed, lambda x: (p for r in rgens
                                        for p in (mul(r, x), mul(x, r))),
                 _pid_cache(ring))


def _memo(cache: Dict, key, compute: Callable):
    """``cache[key]``, computed as ``compute(key)`` on first use."""
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = compute(key)
    return hit


def _once(fn: Callable) -> Callable:
    """Decorate ``fn(owner, *args)`` to run once per owner and argument tuple,
    its result kept in the owner's ``_derived`` dict, set on first use as
    ``_pid_cache`` sets its cache; a call that raises keeps nothing."""
    @wraps(fn)
    def once(owner, *args):
        derived = getattr(owner, "_derived", None)
        if derived is None:
            derived = owner._derived = {}
        key = (fn, *args)
        if key not in derived:
            derived[key] = fn(owner, *args)
        return derived[key]
    return once


def principal_ideal(ring: FiniteRing, a: int) -> Ideal:
    """The ideal generated by one element, cached per ring."""
    return _memo(_pid_cache(ring), a, lambda x: ideal_generated(ring, [x]))


def is_zero_product(x: AdditiveSubgroup, y: AdditiveSubgroup) -> bool:
    """Whether the span XY is {0}; by bilinearity only generator pairs matter."""
    if x.ring is not y.ring:
        raise RingMismatch("operands live in different rings")
    mul = x.ring.mul
    return all(mul(a, b) == 0 for a in x.gens for b in y.gens)


def is_zero_ideal_pair(ring: FiniteRing, a: int, b: int,
                       closure: Optional[Callable[[int], AdditiveSubgroup]] = None) -> bool:
    """Whether a and b are nonzero and the ideals they generate multiply to
    zero; the rule every emitted zero pair is replayed by.

    Without ``closure`` the ideals are not built: (a)(b) == {0} iff ab == 0
    and agb == 0 for every additive generator g (Lam, "A First Course in
    Noncommutative Rings", §10), since (a) is spanned by the na, ra, ar',
    rar', so a product of spanning elements of (a) and (b) is ab or atb
    between outer factors.  With ``closure`` (an invariant closure, say)
    both closures are regenerated, must be nonzero, and are multiplied."""
    if a == 0 or b == 0:
        return False
    if closure is not None:
        ia, ib = closure(a), closure(b)
        return not ia.is_zero() and not ib.is_zero() and is_zero_product(ia, ib)
    mul = ring.mul
    return mul(a, b) == 0 and all(mul(mul(a, g), b) == 0 for g in ring.additive_generators())


def first_zero_pair(members: Sequence[int],
                    closure: Callable[[int], AdditiveSubgroup]
                    ) -> Optional[Tuple[int, int, AdditiveSubgroup, AdditiveSubgroup]]:
    """The first (a, b, closure(a), closure(b)) in ``members`` order with
    closure(a) * closure(b) == {0}, or None.

    Members with equal closures (equal keys) share their zero partners, so
    ``is_zero_product`` runs once per ordered pair of distinct closures.
    """
    closures = [closure(m) for m in members]
    distinct: Dict[frozenset, AdditiveSubgroup] = {}
    for c in closures:
        distinct.setdefault(c.key, c)
    zero_partners = {ka: {kb for kb, cb in distinct.items() if is_zero_product(ca, cb)}
                     for ka, ca in distinct.items()}
    for i, ca in enumerate(closures):
        partners = zero_partners[ca.key]
        if partners:
            j = next(j for j, cb in enumerate(closures) if cb.key in partners)
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


def first_nonassociative(ring: FiniteRing, gens: Sequence[int],
                         after: Optional[Callable[[int], Sequence[int]]] = None
                         ) -> Optional[Tuple[int, int, int]]:
    """The first generator triple (a, b, c) with (ab)c != a(bc), or None;
    exact for a distributive product on the span of ``gens``, by trilinearity.
    Only b in ``after(a)`` and c in ``after(b)`` are tried (all of ``gens``
    by default), for a caller that knows every other triple is 0 on both
    sides."""
    mul = ring.mul
    after = after or (lambda x: gens)
    tails = {b: [(c, mul(b, c)) for c in after(b)] for b in gens}
    return next(((a, b, c) for a in gens for b in after(a) for ab in (mul(a, b),)
                 for c, bc in tails[b] if mul(ab, c) != mul(a, bc)), None)


# ---------------------------------------------------------------------------
# s-unitality
# ---------------------------------------------------------------------------

def is_s_unital(x) -> bool:
    """Whether X is s-unital: every m in X lies in Xm and in mX.

    ``x`` is an additive subgroup closed under products, or a ring (its
    whole carrier).  Decided on the generators g_1..g_k of X (Tominaga,
    "On s-unital rings", Math. J. Okayama Univ. 18 (1976)): X is left
    s-unital iff one u in X has u*g_i == g_i for every i.

    (<=) Each m in X is a sum of multiples of the g_i, so u*m == m and m
    lies in Xm.  (=>) By induction on a finite set: given u with
    u*x_1 == x_1, and v with v*x_2' == x_2' for x_2' = x_2 - u*x_2 in X,
    w = u + v - v*u lies in X and fixes x_1 and x_2.  The induction needs
    XX in X, which is checked on the generator products first; a subgroup
    that is not closed under products raises AxiomViolation.

    With phi(u) = (u*g_1, ..., u*g_k) in the k-fold product of the
    carrier's coordinates, and phi additive, such a u exists iff
    (g_1, ..., g_k) lies in the span of the phi(g_j): one basis of k
    rows and one membership test.  The right side is the same with
    g_i*u.  Both sides read the k*k generator products g_j*g_i.
    """
    if isinstance(x, FiniteRing):
        ring, gens = x, x.additive_generators()
    elif isinstance(x, AdditiveSubgroup):
        ring, gens = x.ring, x.gens
    else:
        raise MalformedInput(f"cannot interpret {x!r} as a ring or subgroup")
    mul = ring.mul
    products = [[mul(a, b) for b in gens] for a in gens]
    if isinstance(x, AdditiveSubgroup):
        escape = next(((a, b, p) for a, row in zip(gens, products)
                       for b, p in zip(gens, row) if p not in x), None)
        if escape is not None:
            a, b, p = (ring.label(y) for y in escape)
            raise AxiomViolation("multiplicative-closure",
                                 f"s-unitality asked of a subgroup not closed under "
                                 f"products: ({a})*({b}) = {p}")
    k_fold, packed = _row_packer(ring, len(gens))
    target = packed(gens)
    for rows in (products, zip(*products)):     # phi(g_j) = g_j*g_i, then g_i*g_j
        span = _basis(k_fold)
        for row in rows:
            span.insert(packed(row))
        if not span.contains(target):
            return False
    return True


# ---------------------------------------------------------------------------
# primeness oracle
# ---------------------------------------------------------------------------

class PrimePairWitness(Record):
    """Two nonzero elements whose generated ideals multiply to zero, and the
    ideal a generates."""

    a: int
    b: int
    a_ideal: Ideal


class PrimeResult(Record):
    prime: bool
    witness: Optional[PrimePairWitness]
    degenerate: bool = False


def is_prime_bruteforce(ring: FiniteRing) -> PrimeResult:
    """Decide primeness by the right annihilators of principal ideals.

    A ring is prime iff for all nonzero a, b the product of the ideals they
    generate is nonzero; it suffices to range over principal ideals because
    any offending ideal pair contains an offending principal pair.  The zero
    ring is reported not prime and degenerate.  There is no size check here:
    the ring is already built, and the carrier bound was checked where it
    was built.

    Lemma: (a)(b) == 0 iff (a)b == 0.  (=>) b lies in (b).  (<=) (b) is
    spanned by the nb, rb, br' and rbr' for integers n and r, r' in R, and
    (a)R lies in (a).  So for x in (a), x*nb = n(xb) and x*rb = (xr)b lie
    in (a)b, and x*br' = (xb)r' and x*rbr' = ((xr)b)r' in (a)b*R, all 0.
    Hence a has a zero partner iff the right annihilator of (a) is nonzero.  With g_1..g_d the generators of
    (a), that annihilator is the kernel of the additive map
    psi(r) = (g_1*r, ..., g_d*r) into the d-fold product of the carrier's
    coordinates, and it is 0 iff the image, spanned by psi of the additive
    generators of R, has |R| elements: d*k products and one basis, once per
    distinct ideal.

    The walk goes over a in element order and stops at the first a whose
    ideal has a nonzero annihilator; the witness b is the least nonzero
    element of that annihilator.  By the lemma this is the first pair in
    element order of the pair search over principal ideals: a is the first
    element with a zero partner, and b its first zero partner.

    Antitone lemma: if p lies in (a) then ann_r((a)) lies in ann_r((p)),
    since (p) lies in (a).  So before closing (a) the walk draws r*a and
    a*r for r over the additive generators of R, the products a closure
    would draw first, and if one of them is an element already proven
    faithful (zero annihilator), a is faithful and its ideal is not
    closed.  Only proven-faithful elements are skipped, so the walk stops
    at the same a, with the same ideal and the same b.  On a prime ring
    this leaves about two products per element and a few closures.  The
    walk returns at the first element that is not faithful, so at step a
    the proven-faithful elements are exactly 1..a-1, and p is one of them
    iff 0 < p < a.
    """
    if ring.size == 1:
        return PrimeResult(False, None, degenerate=True)

    mul, rgens = ring.mul, ring.additive_generators()
    faithful = set()        # keys of ideals with a zero right annihilator
    for a in range(1, ring.size):
        for r in rgens:         # a faithful product r*a or a*r makes a faithful
            if 0 < mul(r, a) < a or 0 < mul(a, r) < a:
                break
        else:
            ideal = principal_ideal(ring, a)
            if ideal.key not in faithful:
                fold, packed = _row_packer(ring, len(ideal.gens))
                image = _basis(fold)
                for r in rgens:
                    image.insert(packed(mul(g, r) for g in ideal.gens))
                if image.size() < ring.size:
                    b = next(b for b in range(1, ring.size)
                             if all(mul(g, b) == 0 for g in ideal.gens))
                    return PrimeResult(False, PrimePairWitness(a, b, ideal))
                faithful.add(ideal.key)
    return PrimeResult(True, None)


# ---------------------------------------------------------------------------
# ideal enumeration, centralizers
# ---------------------------------------------------------------------------

class IdealEnumeration(Record):
    ideals: Tuple[Ideal, ...]
    truncated: bool


def enumerate_ideals(ring: FiniteRing) -> IdealEnumeration:
    """All two-sided ideals: principal ideals closed under pairwise sums.

    Every ideal is a finite sum of principal ideals, so the join-closure of
    the principal ones is complete.  Stops (deterministically, in discovery
    order) with truncated=True past ``IDEAL_ENUMERATION_CAP`` ideals; rings
    above ``IDEAL_ENUMERATION_BOUND`` elements are refused.
    """
    if ring.size > IDEAL_ENUMERATION_BOUND:
        raise BoundExceeded(f"ideal enumeration bounded at {IDEAL_ENUMERATION_BOUND} "
                            f"elements, got {ring.size}")
    zero = Ideal(ring, ())
    ideals: List[Ideal] = [zero]
    keys = {zero.key}
    for a in range(1, ring.size):
        ideal = principal_ideal(ring, a)
        if ideal.key not in keys:
            keys.add(ideal.key)
            ideals.append(ideal)
            if len(ideals) > IDEAL_ENUMERATION_CAP:
                return IdealEnumeration(tuple(_sorted_ideals(ideals)), True)
    for a in ideals:            # both loops see the ideals appended below
        for b in ideals:
            merged = Ideal(ring, a.gens + b.gens)
            if merged.key not in keys:
                keys.add(merged.key)
                ideals.append(merged)
                if len(ideals) > IDEAL_ENUMERATION_CAP:
                    return IdealEnumeration(tuple(_sorted_ideals(ideals)), True)
    return IdealEnumeration(tuple(_sorted_ideals(ideals)), False)


def _sorted_ideals(ideals: List[Ideal]) -> List[Ideal]:
    return sorted(ideals, key=lambda i: (len(i.elements), sorted(i.elements)))


def centralizer(ring: FiniteRing, sub: AdditiveSubgroup) -> AdditiveSubgroup:
    """Elements commuting with ``sub``: ``_kernel`` of t -> (ts - st), s in sub.gens."""
    if sub.ring is not ring:
        raise RingMismatch("subgroup lives in a different ring")
    return additive_closure(ring, _kernel(ring, [[ring.add(ring.mul(t, s), ring.neg(ring.mul(s, t)))
                                                  for s in sub.gens] + [t] for t in ring.additive_generators()]))


def is_commutative(ring: FiniteRing) -> bool:
    """Whether the ring is commutative; by bilinearity, additive generators suffice."""
    gens = ring.additive_generators()
    return all(ring.mul(a, b) == ring.mul(b, a) for a, b in combinations(gens, 2))


def is_maximal_commutative(ring: FiniteRing, sub: AdditiveSubgroup) -> bool:
    """Whether ``sub`` equals its own centralizer in ``ring``."""
    return centralizer(ring, sub).key == sub.key


# ---------------------------------------------------------------------------
# defensive validation for explicit tables
# ---------------------------------------------------------------------------

def validate_ring(ring: FiniteRing) -> None:
    """Check the ring axioms exactly, in O(n^2 k) operations for k additive
    generators.  Identity and inverses are checked per element, and the
    multiples of each element must reach 0 within n steps (as in any group of
    order n).  Every element is a bracketed sum of the greedy generators, so
    for all x, y and generators g,
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
