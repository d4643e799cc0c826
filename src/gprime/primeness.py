"""Primeness deciders for graded rings and the harness tying them together.

The carrier-level oracle is exhaustive and authoritative.  It runs on a
ring that is already built, so it has no bound of its own: the carrier
bound is checked once, where the ring is built.  The component-level
criteria -- invariant ideal pairs over the identity components, graded
ideal pairs, and support hubs paired with prime isotropy components -- are
each evaluated from their own definitions.  For a nearly epsilon-strong
grading they must all agree; the report constructor treats any
disagreement as a falsification alarm (InternalDisagreement) and never
reconciles it.
"""

from __future__ import annotations

import time

from .errors import (
    InternalDisagreement,
    MalformedInput,
    ObjectNotInSupport,
    Record,
)
from .grading import (
    Grading,
    HubResult,
    is_G_prime_principal,
    is_graded_prime,
    is_nearly_epsilon_strong,
    is_support_hub,
    isotropy_component,
    support_groupoid,
)
from .rings import PrimeResult, SubRing, is_prime_bruteforce

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Dict, Optional, TypeVar
    T = TypeVar("T")

#: the seven condition labels, in report order
CONDITION_LABELS = ("i", "ii", "iii", "iv", "v", "vi", "vii")

#: conditions ii-vii: the pair criterion each conjoins ("invariant" ideals of
#: the identity-component ring, "graded" ideals, or None for the hub
#: conditions) and the quantifier over the support objects
_CONDITIONS = {"ii": ("invariant", all), "iii": ("invariant", any),
               "iv": ("graded", all), "v": ("graded", any),
               "vi": (None, all), "vii": (None, any)}


class StageClock:
    """Wall-clock seconds per named stage, and ``total`` since the clock was
    made.  With ``on`` false the stages run and nothing is recorded."""

    def __init__(self, on: bool):
        self.timings: Optional[Dict[str, float]] = {} if on else None
        self._start = time.perf_counter()

    def __call__(self, name: str, stage: Callable[[], T]) -> T:
        t0 = time.perf_counter()
        out = stage()
        if self.timings is not None:
            self.timings[name] = time.perf_counter() - t0
        return out

    def stop(self) -> Optional[Dict[str, float]]:
        """The timings with ``total`` set, or None when off."""
        if self.timings is not None:
            self.timings["total"] = time.perf_counter() - self._start
        return self.timings


class ObjectEvidence(Record):
    """Per-object ingredients: hub status and primeness of the isotropy component."""

    hub: HubResult
    isotropy_prime: PrimeResult


class PrimenessReport(Record):
    verdict: bool
    conditions: Dict[str, bool]      # labels i..vii
    witnesses: Dict[str, object]
    degenerate: bool
    per_object: Dict[int, ObjectEvidence]


def _object_evidence(grading: Grading, e: int) -> ObjectEvidence:
    hub = is_support_hub(grading, e)
    prime = is_prime_bruteforce(isotropy_component(grading, e).ring)
    if prime.degenerate:
        # e is in the support, so its isotropy carrier contains the nonzero
        # identity component; a zero carrier here is an implementation bug
        raise InternalDisagreement(
            f"isotropy component at {grading.groupoid.objects[e]!r} collapsed "
            "to the zero ring although the object is in the support")
    return ObjectEvidence(hub, prime)


def _flags(per_object: Dict[int, ObjectEvidence]) -> Dict[int, tuple]:
    """Support object -> (is a hub, isotropy component is prime)."""
    return {e: (ev.hub.is_hub, ev.isotropy_prime.prime) for e, ev in per_object.items()}


def _condition(label: str, pairs: Dict, flags: Dict[int, tuple]) -> bool:
    """Condition ``label`` (ii-vii) from the pair criterion it conjoins and
    the (hub, isotropy prime) flags of the support objects."""
    leg, quantifier = _CONDITIONS[label]
    if leg is None:
        return quantifier(hub and prime for hub, prime in flags.values())
    return pairs[leg].holds and quantifier(prime for _, prime in flags.values())


def evaluate_condition(grading: Grading, label: str):
    """One of the seven primeness conditions, from its own definition.

    Returns (bool, evidence).  Nothing is rechecked: callers that report the
    verdict refuse non-NES gradings first (``require_nearly_epsilon_strong``).
    """
    if label not in CONDITION_LABELS:
        raise MalformedInput(f"unknown condition label {label!r}; "
                             f"expected one of {', '.join(CONDITION_LABELS)}")
    support = support_groupoid(grading)
    objs = support.support_objects
    if label == "i":
        res = is_prime_bruteforce(grading.ring)
        return res.prime, res
    leg = _CONDITIONS[label][0]
    if leg is None:
        evidence = {e: _object_evidence(grading, e) for e in objs}
        return _condition(label, {}, _flags(evidence)), {"objects": evidence}
    pair = (is_G_prime_principal(grading) if leg == "invariant"
            else is_graded_prime(grading))
    iso = {e: is_prime_bruteforce(isotropy_component(grading, e).ring) for e in objs}
    flags = {e: (None, r.prime) for e, r in iso.items()}
    return _condition(label, {leg: pair}, flags), {"pair": pair, "isotropy": iso}


def require_nearly_epsilon_strong(grading: Grading, route: str) -> None:
    """Refuse (MalformedInput) a grading that is not nearly epsilon-strong,
    naming its first failure: ``route`` relies on the paper's theorem."""
    nes = is_nearly_epsilon_strong(grading)
    if not nes.holds:
        raise MalformedInput(f"{route} needs a nearly epsilon-strong grading "
                             f"(first failure: {nes.failures[0]})")


def equivalence_report(grading: Grading,
                       clock: Optional[StageClock] = None) -> PrimenessReport:
    """Evaluate all primeness conditions independently and insist they agree.

    The grading must be nearly epsilon-strong (rechecked here); all condition
    booleans must coincide, and the common value becomes the verdict.  The
    oracle decides condition (i) on the carrier as built, whatever its size:
    the carrier bound was checked when the grading's ring was built.  Each
    stage is recorded on ``clock`` when one is given; the caller stops it.
    """
    clock = StageClock(False) if clock is None else clock
    clock("nearly_epsilon_strong",
          lambda: require_nearly_epsilon_strong(grading, "the equivalence report"))
    support = support_groupoid(grading)
    objs = support.support_objects

    oracle = clock("oracle", lambda: is_prime_bruteforce(grading.ring))
    invariant_pairs = clock("invariant_ideal_pairs",
                            lambda: is_G_prime_principal(grading))
    graded_pairs = clock("graded_ideal_pairs", lambda: is_graded_prime(grading))
    per_object = clock("objects",
                       lambda: {e: _object_evidence(grading, e) for e in objs})

    pairs = {"invariant": invariant_pairs, "graded": graded_pairs}
    flags = _flags(per_object)
    conditions = {"i": oracle.prime}
    for label in _CONDITIONS:
        conditions[label] = _condition(label, pairs, flags)

    values = set(conditions.values())
    if len(values) > 1:
        raise InternalDisagreement(
            "the equivalent primeness conditions disagree",
            details={"conditions": dict(conditions),
                     "oracle_witness": oracle.witness,
                     "invariant_pair": invariant_pairs.witness,
                     "graded_pair": graded_pairs.witness,
                     "objects": flags})
    verdict = values.pop()

    witnesses: Dict[str, object] = {}
    if verdict:
        witnesses["support_hub"] = next(e for e, ev in per_object.items()
                                        if ev.hub.is_hub and ev.isotropy_prime.prime)
    else:
        if oracle.witness is not None:
            witnesses["oracle"] = oracle.witness
        if invariant_pairs.witness is not None:
            witnesses["invariant_ideal_pair"] = invariant_pairs.witness
        if graded_pairs.witness is not None:
            witnesses["graded_ideal_pair"] = graded_pairs.witness
        blocked = {e: ev.hub.blocking for e, ev in per_object.items()
                   if not ev.hub.is_hub}
        if blocked:
            witnesses["non_hub_objects"] = blocked

    return PrimenessReport(
        verdict=verdict,
        conditions=conditions,
        witnesses=witnesses,
        degenerate=oracle.degenerate,
        per_object=per_object,
    )


def torsion_free_shortcut(grading: Grading, e: int) -> Optional[bool]:
    """Reduced test available at objects with trivial isotropy.

    When the isotropy group at ``e`` is trivial (the only torsion-free case
    among finite groups), primeness of the whole graded ring reduces to the
    identity component at ``e`` being prime together with the
    invariant-ideal-pair condition.  Returns None when the shortcut does not
    apply.
    """
    grading.groupoid.check_object(e)
    support = support_groupoid(grading)
    if e not in support.support_objects:
        raise ObjectNotInSupport(
            f"object {grading.groupoid.objects[e]!r} carries a zero identity component")
    if len(grading.groupoid.loops(e)) != 1:
        return None
    local = is_prime_bruteforce(
        SubRing(grading.ring, grading.components[grading.groupoid.identity(e)]))
    return local.prime and is_G_prime_principal(grading).holds
