"""Instance files: parsing, construction, report documents, witness replay.

An instance is a JSON object holding a groupoid table plus exactly one
ring-structure section:

    {"groupoid": {...}, "grading": {"ring": R, "components": {...}}}
    {"groupoid": {...}, "partial_action": {"parts": {...}, "ideals": ..., "maps": ...}}
    {"groupoid": {...}, "groupoid_ring": {"base": R}}

Ring constructors R are single-key objects:

    {"cyclic": 8}                      Z/8
    {"field": 2} | {"field": [2, 2]}   GF(p) and GF(p^k)
    {"matrix": {"base": R, "n": 2}}
    {"direct_sum": {"parts": [R, ...], "keys": ["e", "f"]}}
    {"group_ring": {"base": R, "group": H}}
    {"table": {"add": [[...]], "mul": [[...]]}}

with groups H one of {"trivial": {}}, {"cyclic": n}, {"klein_four": {}} or
{"labels": [...], "table": [[...]]}.

Ring elements appear as strings in a tiny expression grammar:

    expr   := term ('+' term)*
    term   := INT '*' factor | factor
    factor := INT | 'e' '(' i ',' j [',' c] ')' | 'at' '(' KEY ',' expr ')'
            | 'delta' '(' KEY ',' expr ')' | '(' expr ')'

A bare integer names an element by index, ``k * x`` is the k-fold sum,
``e(i, j[, c])`` a matrix unit with an optional coefficient index,
``at(key, x)`` the injection into a direct summand, and ``delta(label, x)``
a coefficient placed on a group element or morphism.  The maps of a partial
action are given per morphism as ``"identity"``, an explicit ``{"table":
{expr: expr}}``, or ``{"transport": "identity" | "frobenius"}``, which moves
the declared domain from the source fibre to the range fibre, twisting every
Galois-field digit by x -> x^p when asked.

Everything semantic reuses the library validators, so an instance that
builds has passed every axiom check those enforce.
The carrier bound is resolved once per instance, by ``build_instance``, and
kept on the built instance and its partial action, where every later step
reads it.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from math import prod

from . import __version__
from .errors import (BoundExceeded, InternalDisagreement, MalformedInput,
                     ParseError, Record, SchemaError)
from .grading import (Grading, invariant_closure, is_nearly_epsilon_strong,
                      is_support_hub, isotropy_component, support_groupoid,
                      validate_grading)
from .groupoid import FiniteGroup, FiniteGroupoid, is_connected, validate_groupoid
from .partial import (SKEW_RING_BOUND, PartialAction, build_groupoid_ring,
                      build_skew_ring, connell_check, is_A_G_prime, is_global,
                      is_group_type, isotropy_reduction, restrict_to_isotropy,
                      sigma_invariant_closure, skew_prime_verdict,
                      skew_support_hub, sufficient_conditions_report,
                      validate_partial_action)
from .primeness import StageClock, equivalence_report, evaluate_condition
from .rings import (CyclicRing, DirectSumRing, FiniteRing, GaloisField,
                    GroupRing, MatrixRing, PrimeResult, TableRing, _once,
                    additive_closure, is_prime_bruteforce, is_zero_ideal_pair,
                    is_zero_product)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Instance", "BuiltInstance", "parse", "parse_data", "build_instance",
    "build_ring", "build_group", "parse_element", "instance_digest",
    "canonical_json", "validation_document", "analysis_document",
    "primeness_document", "equivalence_document", "render_report",
    "replay_witness", "verify_witnesses",
]

KINDS = ("grading", "partial_action", "groupoid_ring")


# ---------------------------------------------------------------------------
# canonical form and schema checks
# ---------------------------------------------------------------------------

def canonical_json(data) -> str:
    """The canonical serialization the digest is taken over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def instance_digest(data) -> str:
    import hashlib      # loads OpenSSL; only callers that digest pay for it
    return hashlib.sha256(canonical_json(data).encode("ascii")).hexdigest()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _expect_keys(obj: Mapping, where: str, required: Sequence[str],
                 optional: Sequence[str] = ()) -> None:
    _expect(isinstance(obj, dict), f"{where} must be a JSON object")
    missing = [k for k in required if k not in obj]
    _expect(not missing, f"{where} is missing {', '.join(missing)}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    _expect(not unknown, f"{where} has unknown keys {', '.join(unknown)}")


def _check_cayley(table, where: str) -> None:
    """Lists of non-negative integers (``type(x) is int``: a JSON boolean is a
    Python int); a negative entry is named as TableRing names one out of range."""
    _expect(isinstance(table, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in table),
        f"{where} must be a list of lists of integers")
    for i, j, x in ((i, j, x) for i, row in enumerate(table) for j, x in enumerate(row) if x < 0):
        raise SchemaError(f"table entry {where.rsplit('.', 1)[-1]}[{i}][{j}] = {x} "
                          f"is not an element of 0..{len(table) - 1}")


def _check_groupoid_section(sec) -> Set[str]:
    """Reference-level checks only; the algebra is validate_groupoid's job.

    Returns all declared morphism names (identities included) for use by
    later label checks.
    """
    _expect_keys(sec, "groupoid", ("objects",), ("morphisms", "inverse", "compose"))
    objs = sec["objects"]
    _expect(isinstance(objs, list) and objs
            and all(isinstance(o, str) for o in objs),
            "groupoid.objects must be a non-empty list of strings")
    known = set(objs)
    _expect(len(known) == len(objs), "groupoid.objects has duplicates")
    names = set(known)
    for entry in sec.get("morphisms", []):
        _expect_keys(entry, "a morphism entry", ("name", "src", "rng"))
        _expect(all(isinstance(entry[k], str) for k in ("name", "src", "rng")),
                "morphism name, src and rng must be strings")
        for k in ("src", "rng"):
            _expect(entry[k] in known,
                    f"morphism {entry['name']!r} references unknown object {entry[k]!r}")
        _expect(entry["name"] not in names,
                f"duplicate morphism name {entry['name']!r}")
        names.add(entry["name"])
    inverse = sec.get("inverse", {})
    _expect(isinstance(inverse, dict), "groupoid.inverse must be an object")
    for k, v in inverse.items():
        _expect(k in names and isinstance(v, str) and v in names,
                f"inverse entry {k!r} -> {v!r} references an undeclared morphism")
    for triple in sec.get("compose", []):
        _expect(isinstance(triple, list) and len(triple) == 3
                and all(isinstance(x, str) and x in names for x in triple),
                f"compose entry {triple!r} must be three declared morphism names")
    return names


def _check_ring_spec(spec, where: str) -> None:
    if isinstance(spec, dict) and len(spec) == 1:
        key, arg = next(iter(spec.items()))
        if key == "cyclic":
            _expect(type(arg) is int and arg >= 1, f"{where}: cyclic wants a positive modulus")
            return
        if key == "field":
            ok = (type(arg) is int and arg >= 2 or
                  (isinstance(arg, list) and len(arg) == 2 and all(type(x) is int for x in arg)))
            _expect(ok, f"{where}: field wants p or [p, k]")
            return
        if key == "matrix":
            _expect_keys(arg, f"{where}.matrix", ("base", "n"))
            _expect(type(arg["n"]) is int and arg["n"] >= 1, f"{where}: matrix size must be positive")
            _check_ring_spec(arg["base"], f"{where}.matrix.base")
            return
        if key == "direct_sum":
            _expect_keys(arg, f"{where}.direct_sum", ("parts",), ("keys",))
            _expect(isinstance(arg["parts"], list) and arg["parts"],
                    f"{where}: direct_sum wants a non-empty parts list")
            for i, part in enumerate(arg["parts"]):
                _check_ring_spec(part, f"{where}.direct_sum.parts[{i}]")
            if "keys" in arg:
                _expect(isinstance(arg["keys"], list)
                        and len(arg["keys"]) == len(arg["parts"])
                        and all(isinstance(k, str) for k in arg["keys"]),
                        f"{where}: keys must be one string per part")
            return
        if key == "group_ring":
            _expect_keys(arg, f"{where}.group_ring", ("base", "group"))
            _check_ring_spec(arg["base"], f"{where}.group_ring.base")
            _check_group_spec(arg["group"], f"{where}.group_ring.group")
            return
        if key == "table":
            _expect_keys(arg, f"{where}.table", ("add", "mul"), ("labels",))
            _check_cayley(arg["add"], f"{where}.table.add")
            _check_cayley(arg["mul"], f"{where}.table.mul")
            _check_labels(arg.get("labels", []), f"{where}.table.labels")
            return
    raise SchemaError(f"{where} must be a single-key ring constructor, "
                      f"one of cyclic, field, matrix, direct_sum, group_ring, table")


def _check_group_spec(spec, where: str) -> None:
    _expect(isinstance(spec, dict), f"{where} must be an object")
    if "labels" in spec:
        _expect_keys(spec, where, ("labels", "table"))
        _check_labels(spec["labels"], f"{where}.labels")
        _check_cayley(spec["table"], f"{where}.table")
        return
    _expect(len(spec) == 1, f"{where} must be a single-key group constructor")
    key, arg = next(iter(spec.items()))
    if key == "cyclic":
        _expect(type(arg) is int and arg >= 1, f"{where}: cyclic wants a positive order")
    elif key not in ("trivial", "klein_four"):
        raise SchemaError(f"{where}: unknown group constructor {key!r}")


def _check_strings(value, where: str, what: str = "element expressions") -> None:
    _expect(isinstance(value, list) and all(isinstance(x, str) for x in value),
            f"{where} must be a list of {what}")


def _check_labels(value, where: str) -> None:
    _check_strings(value, where, "strings")
    _expect(len(set(value)) == len(value), f"{where} has duplicates")


def _check_label_map(sec, where: str, names: Set[str]) -> None:
    _expect(isinstance(sec, dict), f"{where} must be an object")
    for label in sec:
        _expect(label in names, f"{where} references unknown morphism {label!r}")


class Instance(Record):
    """A parsed (but not yet built) instance file."""

    name: str
    kind: str
    digest: str
    raw: Dict


def parse_data(data, name: str = "<data>") -> Instance:
    """Schema-check an already-decoded JSON document."""
    _expect(isinstance(data, dict), "an instance must be a JSON object")
    present = [k for k in KINDS if k in data]
    _expect(len(present) == 1,
            f"exactly one of {', '.join(KINDS)} must be present, found "
            f"{', '.join(present) if present else 'none'}")
    kind = present[0]
    _expect_keys(data, "the instance", ("groupoid", kind), ("bounds", "description"))
    _expect(isinstance(data.get("description", ""), str), "description must be a string")
    names = _check_groupoid_section(data["groupoid"])
    objects = tuple(data["groupoid"]["objects"])

    sec = data[kind]
    if kind == "grading":
        _expect_keys(sec, "grading", ("ring", "components"))
        _check_ring_spec(sec["ring"], "grading.ring")
        _check_label_map(sec["components"], "grading.components", names)
        for label, exprs in sec["components"].items():
            _check_strings(exprs, f"grading.components[{label!r}]")
    elif kind == "partial_action":
        _expect_keys(sec, "partial_action", ("parts",), ("ideals", "maps"))
        _expect(isinstance(sec["parts"], dict)
                and set(sec["parts"]) == set(objects),
                "partial_action.parts must give one ring per groupoid object")
        for obj, spec in sec["parts"].items():
            _check_ring_spec(spec, f"partial_action.parts[{obj!r}]")
        _check_label_map(sec.get("ideals", {}), "partial_action.ideals", names)
        for label, exprs in sec.get("ideals", {}).items():
            _check_strings(exprs, f"partial_action.ideals[{label!r}]")
        _check_label_map(sec.get("maps", {}), "partial_action.maps", names)
        for label, spec in sec.get("maps", {}).items():
            table = spec.get("table") if isinstance(spec, dict) else None
            ok = (spec in ("identity", "transport")
                  or (isinstance(spec, dict) and len(spec) == 1
                      and (spec.get("transport") in ("identity", "frobenius")
                           or isinstance(table, dict) and all(
                               isinstance(x, str) for x in (*table, *table.values())))))
            _expect(ok, f"partial_action.maps[{label!r}] must be \"identity\", "
                        "a {\"table\": ...} or a {\"transport\": ...} entry")
    else:
        _expect_keys(sec, "groupoid_ring", ("base",))
        _check_ring_spec(sec["base"], "groupoid_ring.base")

    if "bounds" in data:
        _expect_keys(data["bounds"], "bounds", (), ("max_ring",))
        if "max_ring" in data["bounds"]:
            cap = data["bounds"]["max_ring"]
            _expect(type(cap) is int and cap >= 1, "bounds.max_ring must be a positive integer")
    return Instance(name=name, kind=kind, digest=instance_digest(data), raw=data)


def parse(path) -> Instance:
    """Read, decode and schema-check an instance file."""
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    return parse_data(data, name=str(path))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _group_key(spec) -> Tuple[str, object]:
    return ("labels", spec) if "labels" in spec else next(iter(spec.items()))


def _field(arg) -> Tuple[int, int]:
    return (arg, 1) if isinstance(arg, int) else (arg[0], arg[1])


def _power(base: int, exponent: int, cap: int) -> int:
    """min(base ** exponent, cap), without computing a huge power."""
    return cap if base > 1 and exponent >= cap.bit_length() else min(base ** exponent, cap)


# Spec key -> (constructor, size), both of the key's argument; a group's size
# is its order, a ring's is its element count capped at ``cap``.  Every
# size is read off the spec alone, so a carrier is refused before it is built.
_GROUPS = {
    "trivial": (lambda arg: FiniteGroup.trivial(), lambda arg: 1),
    "cyclic": (FiniteGroup.cyclic, lambda arg: arg),
    "klein_four": (lambda arg: FiniteGroup.klein_four(), lambda arg: 4),
    "labels": (lambda spec: FiniteGroup(spec["labels"], spec["table"]),
               lambda spec: len(spec["labels"])),
}
_RINGS = {
    "cyclic": (CyclicRing, lambda arg, cap: min(arg, cap)),
    "field": (lambda arg: GaloisField(*_field(arg)),
              lambda arg, cap: _power(*_field(arg), cap)),
    "matrix": (lambda arg: MatrixRing(build_ring(arg["base"]), arg["n"]),
               lambda arg, cap: _power(_spec_size(arg["base"], cap), arg["n"] ** 2, cap)),
    "direct_sum": (lambda arg: DirectSumRing([build_ring(p) for p in arg["parts"]],
                                             keys=arg.get("keys")),
                   lambda arg, cap: min(prod(_spec_size(p, cap) for p in arg["parts"]), cap)),
    "group_ring": (lambda arg: GroupRing(build_ring(arg["base"]), build_group(arg["group"])),
                   lambda arg, cap: _power(_spec_size(arg["base"], cap),
                                           _group_order(arg["group"]), cap)),
    "table": (lambda arg: TableRing(arg["add"], arg["mul"], labels=arg.get("labels")),
              lambda arg, cap: min(len(arg["add"]), cap)),
}


def build_group(spec) -> FiniteGroup:
    key, arg = _group_key(spec)
    return _GROUPS[key][0](arg)


def _group_order(spec) -> int:
    key, arg = _group_key(spec)
    return _GROUPS[key][1](arg)


def build_ring(spec) -> FiniteRing:
    key, arg = next(iter(spec.items()))
    return _RINGS[key][0](arg)


def _spec_size(spec, cap: int) -> int:
    """The element count of a ring spec, or ``cap`` if that is at least ``cap``."""
    key, arg = next(iter(spec.items()))
    return _RINGS[key][1](arg, cap)


def _refuse_above(spec, bound: int, what: str) -> None:
    if _spec_size(spec, bound + 1) > bound:
        raise BoundExceeded(f"{what} has more than {bound} elements; refusing to build it")


# ---------------------------------------------------------------------------
# element expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_>]*)|([()+,*])|(\s+)|(.)")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    for m in _TOKEN.finditer(text):
        num, name, punct, space, bad = m.groups()
        if space is not None:
            continue
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", column=m.start() + 1)
        if num is not None:
            out.append(("int", num, m.start() + 1))
        elif name is not None:
            out.append(("name", name, m.start() + 1))
        else:
            out.append((punct, punct, m.start() + 1))
    return out


class _ElementParser:
    """Recursive descent over the element grammar, against a concrete ring."""

    def __init__(self, text: str, ring: FiniteRing):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring

    def _peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, kind: Optional[str] = None) -> Tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression in {self.text!r}",
                             column=len(self.text) + 1)
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", column=tok[2])
        self.pos += 1
        return tok

    def parse(self) -> int:
        value = self._expr(self.ring)
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", column=tok[2])
        return value

    def _expr(self, ring: FiniteRing) -> int:
        value = self._term(ring)
        while self._peek() is not None and self._peek()[0] == "+":
            self._take("+")
            value = ring.add(value, self._term(ring))
        return value

    def _term(self, ring: FiniteRing) -> int:
        tok = self._peek()
        if (tok is not None and tok[0] == "int"
                and self.pos + 1 < len(self.tokens)
                and self.tokens[self.pos + 1][0] == "*"):
            self._take("int")
            self._take("*")
            return _k_fold(ring, int(tok[1]), self._factor(ring))
        value = self._factor(ring)
        nxt = self._peek()
        if nxt is not None and nxt[0] == "*":
            raise ParseError("only integer scalars may multiply", column=nxt[2])
        return value

    def _factor(self, ring: FiniteRing) -> int:
        tok = self._take()
        kind, text, col = tok
        if kind == "(":
            value = self._expr(ring)
            self._take(")")
            return value
        if kind == "int":
            value = int(text)
            if not 0 <= value < ring.size:
                raise ParseError(f"element index {value} out of range for {ring.tag}",
                                 column=col)
            return value
        if kind != "name":
            raise ParseError(f"unexpected {text!r}", column=col)
        if text == "e":
            return self._matrix_unit(ring, col)
        if text == "at":
            return self._injection(ring, col)
        if text == "delta":
            return self._delta(ring, col)
        raise ParseError(f"unknown form {text!r}", column=col)

    def _matrix_unit(self, ring: FiniteRing, col: int) -> int:
        if not isinstance(ring, MatrixRing):
            raise ParseError(f"e(i, j) needs a matrix ring, not {ring.tag}", column=col)
        self._take("(")
        itok = self._take("int")
        self._take(",")
        jtok = self._take("int")
        i, j = int(itok[1]), int(jtok[1])
        for value, tok in ((i, itok), (j, jtok)):
            if not 0 <= value < ring.n:
                raise ParseError(f"matrix index {value} out of range for "
                                 f"{ring.tag}", column=tok[2])
        coeff = None
        if self._peek() is not None and self._peek()[0] == ",":
            self._take(",")
            ctok = self._take("int")
            coeff = int(ctok[1])
            if not 0 <= coeff < ring.base.size:
                raise ParseError(f"coefficient index {coeff} out of range "
                                 f"for {ring.base.tag}", column=ctok[2])
        self._take(")")
        return ring.unit(i, j, coeff)

    def _key(self) -> str:
        tok = self._take()
        if tok[0] not in ("int", "name"):
            raise ParseError(f"expected a label, got {tok[1]!r}", column=tok[2])
        return tok[1]

    def _injection(self, ring: FiniteRing, col: int) -> int:
        if not isinstance(ring, DirectSumRing):
            raise ParseError(f"at(key, x) needs a direct sum, not {ring.tag}", column=col)
        self._take("(")
        key = self._key()
        self._take(",")
        try:
            pos = ring.key_index(key)
        except MalformedInput as exc:
            raise ParseError(str(exc), column=col) from None
        value = self._expr(ring.parts[pos])
        self._take(")")
        return ring.inject(pos, value)

    def _delta(self, ring: FiniteRing, col: int) -> int:
        self._take("(")
        key = self._key()
        self._take(",")
        if isinstance(ring, GroupRing):
            if key not in ring.group.labels:
                raise ParseError(f"unknown group element {key!r}", column=col)
            pos = ring.group.labels.index(key)
            value = self._expr(ring.base)
        elif hasattr(ring, "action"):
            act = ring.action
            pos = act.groupoid.morphism_index(key)
            value = self._expr(act.ambient)
        else:
            raise ParseError(f"delta(g, x) needs a group or skew ring, not {ring.tag}",
                             column=col)
        self._take(")")
        return ring.inject(pos, value)


def _k_fold(ring: FiniteRing, k: int, x: int) -> int:
    out, step = 0, x
    while k:
        if k & 1:
            out = ring.add(out, step)
        step = ring.add(step, step)
        k >>= 1
    return out


def parse_element(text: str, ring: FiniteRing) -> int:
    """Evaluate one element expression against ``ring``."""
    return _ElementParser(text, ring).parse()


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

class BuiltInstance(Record, frozen=False):
    """The structures an instance describes, and the carrier bound of its
    rings; the product ring is kept in its ``_derived`` memo once built."""

    instance: Instance
    groupoid: FiniteGroupoid
    bound: int
    grading: Optional[Grading] = None
    action: Optional[PartialAction] = None
    base: Optional[FiniteRing] = None

    @property
    def kind(self) -> str:
        return self.instance.kind


def _twist_value(part: FiniteRing, value: int, twist: str) -> int:
    if twist == "identity":
        return value
    if isinstance(part, GaloisField):
        return part.frobenius(value)
    if isinstance(part, DirectSumRing):
        return part.encode([_twist_value(r, d, twist)
                            for r, d in zip(part.parts, part.decode(value))])
    raise SchemaError(f"the frobenius twist needs Galois-field digits, got {part.tag}")


def _sigma_table(spec, g: int, amb: DirectSumRing, G: FiniteGroupoid,
                 gens: Dict[int, List[int]]) -> Dict[int, int]:
    domain_gens = gens.get(G.inv[g], [])
    domain = (additive_closure(amb, domain_gens).elements
              if domain_gens else frozenset({0}))
    if spec == "identity":
        return {x: x for x in domain}
    if isinstance(spec, dict) and "table" in spec:
        table = {parse_element(k, amb): parse_element(v, amb)
                 for k, v in spec["table"].items()}
        table.setdefault(0, 0)
        return table
    twist = spec["transport"] if isinstance(spec, dict) else "identity"
    src_pos, rng_pos = G.src[g], G.rng[g]
    part_src, part_rng = amb.parts[src_pos], amb.parts[rng_pos]
    if part_src.tag != part_rng.tag:
        raise SchemaError(
            f"transport along {G.morphisms[g]!r} needs identical fibres, got "
            f"{part_src.tag} at {G.objects[src_pos]!r} and {part_rng.tag} "
            f"at {G.objects[rng_pos]!r}")
    return {x: amb.inject(rng_pos,
                          _twist_value(part_src, amb.decode(x)[src_pos], twist))
            for x in domain}


def build_instance(instance: Instance, bound: Optional[int] = None) -> BuiltInstance:
    """Construct and fully validate the structures an instance describes.

    The carrier bound, ``bound`` else the file's ``bounds.max_ring`` else
    ``SKEW_RING_BOUND``, is kept on the result and checked here: every ring
    spec is sized and refused above it before it is built, as
    ``build_skew_ring`` refuses product carriers, so no walk over a built
    ring checks it again."""
    if bound is None:
        bound = instance.raw.get("bounds", {}).get("max_ring", SKEW_RING_BOUND)
    G = validate_groupoid(instance.raw["groupoid"])
    sec = instance.raw[instance.kind]
    if instance.kind == "grading":
        _refuse_above(sec["ring"], bound, "the grading ring")
        ring = build_ring(sec["ring"])
        comps = {G.morphism_index(label): [parse_element(s, ring) for s in exprs]
                 for label, exprs in sec["components"].items()}
        return BuiltInstance(instance, G, bound, grading=validate_grading(G, ring, comps))
    if instance.kind == "partial_action":
        for obj in G.objects:
            _refuse_above(sec["parts"][obj], bound, f"the ambient part at {obj!r}")
        amb = DirectSumRing([build_ring(sec["parts"][obj]) for obj in G.objects],
                            keys=G.objects)
        gens = {G.morphism_index(label): [parse_element(s, amb) for s in exprs]
                for label, exprs in sec.get("ideals", {}).items()}
        maps = {G.morphism_index(label): _sigma_table(spec, G.morphism_index(label), amb, G, gens)
                for label, spec in sec.get("maps", {}).items()}
        return BuiltInstance(instance, G, bound,
                             action=validate_partial_action(G, amb, gens, maps, bound))
    _refuse_above(sec["base"], bound, "the coefficient ring")
    return BuiltInstance(instance, G, bound, base=build_ring(sec["base"]))


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------

def _tool_section() -> Dict:
    return {"name": "gprime", "version": __version__}


def _instance_section(built: BuiltInstance) -> Dict:
    return {"name": built.instance.name, "kind": built.kind,
            "digest": built.instance.digest}


def _ring_facts(ring: FiniteRing) -> Dict:
    return {"tag": ring.tag, "size": ring.size, "unital": ring.one is not None}


def _groupoid_facts(G: FiniteGroupoid) -> Dict:
    return {"objects": list(G.objects),
            "morphisms": G.n_morphisms,
            "connected": is_connected(G),
            "isotropy_orders": {G.objects[e]: len(G.loops(e))
                                for e in range(G.n_objects)}}


@_once
def carrier_grading(built: BuiltInstance) -> Grading:
    """The graded product ring of the instance, built once under its bound."""
    if built.grading is not None:
        return built.grading
    if built.action is not None:
        return build_skew_ring(built.action)
    return build_groupoid_ring(built.base, built.groupoid, built.bound)


def _criterion_section(built: BuiltInstance) -> Dict:
    """The three-part groupoid-ring criterion, leg by leg."""
    res = connell_check(built.base, built.groupoid)
    return {"holds": res.holds, "connected": res.connected,
            "coefficients_prime": res.coefficients_prime,
            "isotropy_ok": res.isotropy_ok, "reasons": list(res.reasons)}


def _pair_witness(space: str, closure: str, ring: FiniteRing,
                  a: int, b: int) -> Dict:
    return {"kind": "zero-ideal-pair", "space": space, "closure": closure,
            "a": a, "b": b, "a_label": ring.label(a), "b_label": ring.label(b)}


def validation_document(built: BuiltInstance) -> Dict:
    doc = {"tool": _tool_section(), "instance": _instance_section(built),
           "valid": True, "groupoid": _groupoid_facts(built.groupoid)}
    if built.kind == "grading":
        doc["checks"] = ["groupoid", "grading"]
        doc["carrier"] = _ring_facts(built.grading.ring)
    elif built.kind == "partial_action":
        doc["checks"] = ["groupoid", "partial-action"]
        doc["ambient"] = _ring_facts(built.action.ambient)
    else:
        doc["checks"] = ["groupoid", "coefficient-ring"]
        doc["coefficients"] = _ring_facts(built.base)
    return doc


def analysis_document(built: BuiltInstance) -> Dict:
    doc = {"tool": _tool_section(), "instance": _instance_section(built),
           "groupoid": _groupoid_facts(built.groupoid)}
    G = built.groupoid
    grading: Optional[Grading]
    try:
        grading = carrier_grading(built)
        doc["carrier"] = _ring_facts(grading.ring)
    except BoundExceeded as exc:
        grading = None
        doc["carrier"] = {"built": False, "reason": str(exc)}
    if grading is not None:
        nes = is_nearly_epsilon_strong(grading)
        doc["nearly_epsilon_strong"] = {"holds": nes.holds,
                                        "units_certified": len(nes.certificate),
                                        "failures": list(nes.failures)}
        support = support_groupoid(grading, nes=True if nes.holds else None)
        doc["support"] = {
            "objects": [G.objects[e] for e in support.support_objects],
            "morphisms": len(support.subgroupoid.members)}
        doc["support_hubs"] = {G.objects[e]: is_support_hub(grading, e).is_hub
                               for e in support.support_objects}
    if built.action is not None:
        act = built.action
        transport = is_group_type(act)
        doc["partial_action"] = {
            "global": is_global(act),
            "group_type": {"holds": transport.holds,
                           "anchor": None if transport.anchor is None
                           else G.objects[transport.anchor],
                           "family": {G.objects[o]: G.morphisms[h]
                                      for o, h in transport.family.items()},
                           "reason": transport.reason},
            "alive_objects": [G.objects[e] for e in act.support_objects()],
            "ideal_sizes": {G.morphisms[g]: len(act.ideals[g])
                            for g in range(G.n_morphisms)}}
        if grading is None:
            doc["support_hubs"] = {G.objects[e]: skew_support_hub(act, e).is_hub
                                   for e in act.support_objects()}
    if built.base is not None:
        doc["groupoid_ring"] = {"coefficients": _ring_facts(built.base),
                                "criterion": _criterion_section(built)}
    return doc


def _oracle(ring: FiniteRing, witnesses: List[Dict],
            space: str = "carrier") -> PrimeResult:
    """The oracle's verdict on ``ring``; its zero pair joins ``witnesses``."""
    res = is_prime_bruteforce(ring)
    if res.witness is not None:
        witnesses.append(_pair_witness(space, "ideal", ring,
                                       res.witness.a, res.witness.b))
    return res


def _objects_section(grading: Grading, per_object: Mapping,
                     witnesses: List[Dict]) -> Dict:
    """Hub and isotropy verdicts per support object; the zero pair behind
    each non-prime isotropy component joins ``witnesses``."""
    G = grading.groupoid
    for e, ev in per_object.items():
        w = ev.isotropy_prime.witness
        if w is not None:       # labelled in the ring the oracle ran on
            witnesses.append(_pair_witness(f"isotropy:{G.objects[e]}", "ideal",
                                           w.a_ideal.ring, w.a, w.b))
    return {G.objects[e]: {"hub": ev.hub.is_hub,
                           "isotropy_prime": ev.isotropy_prime.prime}
            for e, ev in per_object.items()}


def _grading_primeness(grading: Grading, method: str, clock: StageClock) -> Dict:
    G = grading.groupoid
    doc: Dict = {}
    witnesses: List[Dict] = []
    if method == "oracle":
        res = clock("oracle", lambda: _oracle(grading.ring, witnesses))
        doc.update(verdict=res.prime, method="oracle", degenerate=res.degenerate)
    elif method == "theorem":
        value, evidence = clock("criterion", lambda: evaluate_condition(grading, "vii"))
        doc.update(verdict=value, method="theorem")
        doc["objects"] = _objects_section(grading, evidence["objects"], witnesses)
    else:
        rep = equivalence_report(grading, clock)
        doc.update(verdict=rep.verdict, method="oracle",
                   conditions=dict(rep.conditions), degenerate=rep.degenerate)
        w = rep.witnesses
        if "oracle" in w:
            witnesses.append(_pair_witness("carrier", "ideal", grading.ring,
                                           w["oracle"].a, w["oracle"].b))
        for key, closure in (("graded_ideal_pair", "ideal"),
                             ("invariant_ideal_pair", "invariant")):
            if key in w:
                witnesses.append(_pair_witness("carrier", closure, grading.ring,
                                               w[key][0], w[key][1]))
        doc["objects"] = _objects_section(grading, rep.per_object, witnesses)
        if "support_hub" in w:
            doc["evidence"] = {"support_hub": G.objects[w["support_hub"]]}
        if "non_hub_objects" in w:
            doc["evidence"] = {
                "non_hub_objects": {
                    G.objects[e]: None if blk is None else
                    {"morphism": G.morphisms[blk[0]],
                     "element": grading.ring.label(blk[1])}
                    for e, blk in w["non_hub_objects"].items()}}
    doc["witnesses"] = witnesses
    return doc


def _isotropy_skew_witnesses(act: PartialAction,
                             per: Mapping[int, PrimeResult]) -> List[Dict]:
    """The zero pairs the isotropy reduction found, on its cached rings."""
    G = act.groupoid
    out: List[Dict] = []
    for e, res in sorted(per.items()):
        if res.witness is not None:
            sub = build_skew_ring(restrict_to_isotropy(act, e)).ring
            out.append(_pair_witness(f"isotropy-skew:{G.objects[e]}", "ideal", sub,
                                     res.witness.a, res.witness.b))
    return out


def _partial_primeness(built: BuiltInstance, method: str, clock: StageClock) -> Dict:
    act = built.action
    G = act.groupoid
    doc: Dict = {}
    witnesses: List[Dict] = []
    if method == "oracle":
        grading = clock("carrier", lambda: build_skew_ring(act))
        res = clock("oracle", lambda: _oracle(grading.ring, witnesses))
        doc.update(verdict=res.prime, method="oracle")
    elif method == "theorem":
        transport = is_group_type(act)
        if not transport.holds:
            raise MalformedInput("the isotropy reduction needs a transport "
                                 f"family: {transport.reason}")
        per = clock("isotropy_reduction", lambda: isotropy_reduction(act))
        doc.update(verdict=any(r.prime for r in per.values()), method="theorem",
                   isotropy_prime={G.objects[e]: r.prime for e, r in per.items()})
        witnesses.extend(_isotropy_skew_witnesses(act, per))
    else:
        # skew_prime_verdict builds the carrier, runs the oracle and, given a
        # transport family, the isotropy reduction; the first and last are
        # cached per action, so running them first clocks each stage apart
        try:
            clock("carrier", lambda: build_skew_ring(act))
            stage = "oracle"
        except BoundExceeded:
            stage = "verdict"   # the isotropy reduction's, or a refusal
        if is_group_type(act).holds:
            clock("isotropy_reduction", lambda: isotropy_reduction(act))
        verdict = clock(stage, lambda: skew_prime_verdict(act))
        doc.update(verdict=verdict.prime, method=verdict.method,
                   isotropy_prime={G.objects[e]: v
                                   for e, v in verdict.isotropy_prime.items()})
        if verdict.method == "group-type":
            witnesses.extend(_isotropy_skew_witnesses(act, isotropy_reduction(act)))
        w = verdict.oracle and verdict.oracle.witness
        if w is not None:
            witnesses.append(_pair_witness("carrier", "ideal", build_skew_ring(act).ring,
                                           w.a, w.b))
        try:
            pair = clock("coefficients_G_prime", lambda: is_A_G_prime(act))
            doc["coefficients_G_prime"] = pair.holds
            if pair.witness is not None:
                witnesses.append(_pair_witness("ambient", "sigma", act.ambient,
                                               pair.witness[0], pair.witness[1]))
        except BoundExceeded:
            doc["coefficients_G_prime"] = None
        try:
            rep = clock("sufficient_conditions",
                        lambda: sufficient_conditions_report(act))
            name = dict(enumerate(G.objects)).get     # None stays None
            doc["sufficient_conditions"] = {
                "applicable": rep.applicable,
                "trivial_isotropy_at": name(rep.trivial_isotropy_at),
                "intersection_at": name(rep.intersection_at),
                "maximal_commutative_at": name(rep.maximal_commutative_at),
                "guarantees_prime": rep.guarantees_prime}
        except BoundExceeded:
            doc["sufficient_conditions"] = None
    doc["witnesses"] = witnesses
    return doc


def _groupoid_ring_primeness(built: BuiltInstance, method: str,
                             clock: StageClock) -> Dict:
    doc: Dict = {}
    witnesses: List[Dict] = []
    criterion = clock("criterion", lambda: _criterion_section(built))
    if method == "theorem":
        doc.update(verdict=criterion["holds"], method="theorem", criterion=criterion)
    else:
        grading = clock("carrier", lambda: carrier_grading(built))
        res = clock("oracle", lambda: _oracle(grading.ring, witnesses))
        if method == "oracle":
            doc.update(verdict=res.prime, method="oracle")
        else:
            if res.prime != criterion["holds"]:
                raise InternalDisagreement(
                    "the three-part criterion disagrees with the oracle",
                    details={"criterion": criterion["holds"], "oracle": res.prime})
            doc.update(verdict=res.prime, method="oracle", criterion=criterion)
    doc["witnesses"] = witnesses
    return doc


def primeness_document(built: BuiltInstance, method: str = "all",
                       clock: Optional[StageClock] = None) -> Dict:
    """The primeness verdict by the requested route(s), with replayable
    witnesses for every claimed zero product.  The stages that run are
    recorded on ``clock``; the caller stops it (see ``_append_timings``)."""
    if method not in ("oracle", "theorem", "all"):
        raise MalformedInput(f"unknown method {method!r}; "
                             "expected oracle, theorem or all")
    clock = StageClock(False) if clock is None else clock
    doc = {"tool": _tool_section(), "instance": _instance_section(built)}
    if built.kind == "grading":
        doc.update(_grading_primeness(built.grading, method, clock))
    elif built.kind == "partial_action":
        doc.update(_partial_primeness(built, method, clock))
    else:
        doc.update(_groupoid_ring_primeness(built, method, clock))
    return doc


def equivalence_document(built: BuiltInstance,
                         clock: Optional[StageClock] = None) -> Dict:
    """The seven-way harness over the instance's product ring, its stages
    recorded on ``clock`` as in ``primeness_document``."""
    clock = StageClock(False) if clock is None else clock
    grading = clock("carrier", lambda: carrier_grading(built))
    doc = {"tool": _tool_section(), "instance": _instance_section(built)}
    doc.update(_grading_primeness(grading, "all", clock))
    return doc


def _append_timings(doc: Dict, clock: StageClock) -> Dict:
    """``doc`` with the clock's stages in seconds, when it was on; the
    section goes last, after every stage the caller ran."""
    timings = clock.stop()
    if timings is not None:
        doc["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return doc


# ---------------------------------------------------------------------------
# witness replay
# ---------------------------------------------------------------------------

def replay_witness(built: BuiltInstance, witness: Mapping) -> bool:
    """Replay a reported zero-ideal pair on the rings the report used.

    True only when both named elements are nonzero elements of the ring
    kept on the instance's grading or action (an "isotropy:" witness on the
    kept isotropy component), their labels match, and the ideals they
    generate multiply to zero.  An "ideal" pair replays on generators, by
    ``rings.is_zero_ideal_pair``, with no closure; an "invariant" or "sigma"
    pair regenerates both closures and multiplies them.
    """
    space, closure = witness["space"], witness["closure"]
    a, b = witness["a"], witness["b"]
    act = built.action
    regenerate = None
    if space == "ambient" and closure == "sigma" and act is not None:
        ring = act.ambient
        regenerate = lambda x: sigma_invariant_closure(act, [x])
    elif space == "carrier" and closure == "invariant":
        grading = carrier_grading(built)
        ring = grading.ring
        regenerate = lambda x: invariant_closure(grading, [x])
    elif closure != "ideal":
        return False
    elif space == "carrier":
        ring = carrier_grading(built).ring
    elif space.startswith("isotropy-skew:") and act is not None:
        e = act.groupoid.object_index(space.split(":", 1)[1])
        ring = build_skew_ring(restrict_to_isotropy(act, e)).ring
    elif space.startswith("isotropy:"):
        grading = carrier_grading(built)
        e = grading.groupoid.object_index(space.split(":", 1)[1])
        ring = isotropy_component(grading, e).ring
    else:
        return False
    if not (0 < a < ring.size and 0 < b < ring.size):
        return False
    if witness.get("a_label") not in (None, ring.label(a)):
        return False
    if witness.get("b_label") not in (None, ring.label(b)):
        return False
    if regenerate is None:
        return is_zero_ideal_pair(ring, a, b)
    ia, ib = regenerate(a), regenerate(b)
    return not ia.is_zero() and not ib.is_zero() and is_zero_product(ia, ib)


def verify_witnesses(built: BuiltInstance, doc: Mapping) -> int:
    """Replay every witness in a report; raise the falsification alarm on
    the first one that does not reproduce.  Returns the number replayed."""
    replayed = 0
    for witness in doc.get("witnesses", []):
        if not replay_witness(built, witness):
            raise InternalDisagreement(
                "a reported witness does not replay",
                details={"witness": dict(witness)})
        replayed += 1
    return replayed


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_report(doc: Mapping, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise MalformedInput(f"unknown output format {fmt!r}")
    lines: List[str] = []
    _render_into(lines, doc, 0)
    return "\n".join(lines) + "\n"


def _render_into(lines: List[str], value, depth: int, key: Optional[str] = None) -> None:
    pad = "  " * depth
    head = f"{pad}{key}: " if key is not None else pad
    if isinstance(value, Mapping):
        if key is not None:
            lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render_into(lines, v, depth + (key is not None), str(k))
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (Mapping, list, tuple)) for v in value):
            lines.append(head + (", ".join(_scalar(v) for v in value) or "(none)"))
        else:
            lines.append(f"{pad}{key}:")
            for v in value:
                item: List[str] = []
                _render_into(item, v, depth + 1)
                item[0] = f"{pad}- {item[0][len(pad) + 2:]}"
                lines.extend(item)
    else:
        lines.append(head + _scalar(value))


def _scalar(value) -> str:
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if value is None:
        return "-"
    return str(value)
