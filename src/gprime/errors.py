"""Exception types and the result-record base shared across the package."""

from __future__ import annotations

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Optional

__all__ = [
    "Record",
    "GprimeError",
    "MalformedInput",
    "ParseError",
    "SchemaError",
    "UnknownObject",
    "UnknownMorphism",
    "AxiomViolation",
    "NotDirectSum",
    "DegenerateInstance",
    "BoundExceeded",
    "NotSUnital",
    "RingMismatch",
    "NotGraded",
    "NotInvariant",
    "ObjectNotInSupport",
    "InternalDisagreement",
    "AssociativityFailure",
]


class Record:
    """Base of the package's result records, in place of a frozen
    ``dataclasses.dataclass``, whose import and generated methods cost a
    process tens of milliseconds at start-up.

    The fields are the annotated names, in order, after those of a record
    base class; a class attribute of the same name is a default.  Records
    take fields by position or keyword, equal only records of their own
    class, hash and print by their fields, and are read-only unless declared
    with ``frozen=False`` (then unhashable, and open to other attributes).
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", ())
               if name not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults,
                         **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        cls = type(self)
        given = dict(zip(cls._fields, args))
        if len(args) > len(cls._fields) or given.keys() & kwargs.keys():
            raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
        values = {**cls._defaults, **given, **kwargs}
        wrong = values.keys() ^ set(cls._fields)
        if wrong:
            raise TypeError(f"{cls.__name__}() missing or unexpected fields: {sorted(wrong)}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GprimeError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(GprimeError):
    """Raw input data is structurally unusable."""


class ParseError(MalformedInput):
    """An instance file or element expression could not be parsed."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}" if column is not None else f"line {line}: {message}"
        super().__init__(message)


class SchemaError(ParseError):
    """An instance file parsed as JSON but does not match the documented layout."""


class UnknownObject(MalformedInput):
    """A label does not name an object of the groupoid."""


class UnknownMorphism(MalformedInput):
    """A label does not name a morphism of the groupoid."""


class AxiomViolation(GprimeError):
    """A structure fails one of its defining axioms.

    ``axiom`` is a short tag naming the failed law and ``witness`` carries the
    offending data (labels or element indices).  Validators raise it at the
    first failure they meet, so it names one law.
    """

    def __init__(self, axiom: str, message: str, witness: Any = None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"[{axiom}] {message}")


class NotDirectSum(AxiomViolation):
    """Components overlap or fail to span the carrier."""

    def __init__(self, message: str, witness: Any = None):
        super().__init__("direct-sum", message, witness)


class DegenerateInstance(GprimeError):
    """The instance is degenerate (zero carrier or all-zero components)."""


class BoundExceeded(GprimeError):
    """A size bound would be exceeded; the computation was refused, not attempted."""


class NotSUnital(GprimeError):
    """No common multiplicative identity-like element exists for the given set."""


class RingMismatch(GprimeError):
    """Operands belong to different carriers."""


class NotGraded(GprimeError):
    """An ideal is not the direct sum of its homogeneous parts."""


class NotInvariant(GprimeError):
    """An ideal is not stable under the required conjugations."""


class ObjectNotInSupport(GprimeError):
    """The object carries a zero component, so the query is meaningless."""


class InternalDisagreement(GprimeError):
    """Two methods that must agree returned different answers.

    This is the falsification alarm: it is never caught and reconciled, it
    propagates to the caller (exit code 3 in the command-line tool).
    """

    def __init__(self, message: str, details: Any = None):
        self.details = details
        super().__init__(message)


class AssociativityFailure(InternalDisagreement):
    """A constructed product ring is not associative, though it must be."""
