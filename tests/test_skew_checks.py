"""The skew product's associativity check and the partial-action validator
against their references, and the isotropy components kept on a grading.

``partial.build_skew_ring`` checks the grading axioms first and then
associativity on the composable generator triples only; the reference
scans every triple of additive generators.  ``validate_partial_action``
reaches one verdict per distinct subgroup and tests the domain and
composition laws on the generators of each meet; the reference
(``partial_reference``) is the element-set validator it replaced.  Both
must give the same verdicts, the same first failing triple and the same
``violations`` lists on every action the fixtures, the fuzz workload and
``generate_instance`` (seeds 0-59) build, and on corrupted variants of
them.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import gprime.fuzz
import gprime.instances
import gprime.partial
from gprime import cli, fuzz, rings
from gprime.errors import (AssociativityFailure, AxiomViolation, DegenerateInstance,
                           MalformedInput)
from gprime.grading import isotropy_component, restrict_grading
from gprime.groupoid import (FiniteGroup, one_object_groupoid, pair_groupoid,
                             validate_subgroupoid)
from gprime.instances import (build_instance, carrier_grading, parse, primeness_document,
                              replay_witness)
from gprime.partial import (SkewGroupoidRing, build_groupoid_ring, build_skew_ring,
                            groupoid_ring_action, validate_partial_action)
from gprime.rings import DirectSumRing, GaloisField, MatrixRing, first_nonassociative
from partial_reference import reference_first_nonassociative, reference_validate_partial_action

ROOT = Path(__file__).resolve().parents[1]
BOUND = 4096


def outcome(validate, args):
    """What a validator makes of ``args``: the ideals' keys and the tables,
    or the error with its message and violations."""
    try:
        act = validate(*args)
    except (AxiomViolation, MalformedInput, DegenerateInstance) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "violations", None)
    return "ok", tuple(ideal.key for ideal in act.ideals), act.maps


def assert_validators_agree(args):
    ours = outcome(validate_partial_action, args)
    assert ours == outcome(reference_validate_partial_action, args)
    return ours


@pytest.fixture(scope="module")
def recorded():
    """The arguments of every ``validate_partial_action`` call, and every
    skew ring with the verdict of its associativity check, while the four
    instance commands run on the fixtures, ``run_fuzz(2, 8)`` and
    ``run_fuzz(5, 8)`` run, and ``generate_instance`` draws six instances
    for each seed 0-59."""
    calls, checked = [], []
    patch = pytest.MonkeyPatch()

    def recording(*args, _validate=validate_partial_action):
        calls.append(args[:4])      # the carrier bound is kept, not checked
        return _validate(*args)

    def checking(ring, gens, after):
        checked.append((ring, first_nonassociative(ring, gens, after)))
        return checked[-1][1]
    for module in (gprime.partial, gprime.fuzz, gprime.instances):
        patch.setattr(module, "validate_partial_action", recording)
    patch.setattr(gprime.partial, "first_nonassociative", checking)
    try:
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            for command in ("validate", "analyze", "prime", "equivalence"):
                cli.main([command, str(path)])
        fuzz.run_fuzz(2, 8)
        fuzz.run_fuzz(5, 8)
        for seed in range(60):
            rng = random.Random(seed)
            for _ in range(6):
                fuzz.generate_instance(rng, BOUND)
    finally:
        patch.undo()
    return calls, checked


# ---------------------------------------------------------------------------
# the validator against its reference
# ---------------------------------------------------------------------------

def test_the_validators_agree_on_every_recorded_action(recorded):
    calls, _ = recorded
    assert len(calls) > 300
    for args in calls:
        assert assert_validators_agree(args)[0] == "ok"


def swapped_values(args):
    """The first non-identity table with two distinct nonzero values, those
    two values swapped."""
    G, amb, gens, maps = args
    for g, table in sorted(maps.items()):
        keys = [x for x in sorted(table) if table[x] != 0]
        if len(keys) >= 2 and table[keys[0]] != table[keys[1]]:
            bad = dict(table)
            bad[keys[0]], bad[keys[1]] = table[keys[1]], table[keys[0]]
            return G, amb, gens, {**maps, g: bad}
    return None


def exchanged_parallel_tables(args):
    """The tables of the first two parallel non-identity morphisms with the
    same ideals and different tables, exchanged: every sigma stays a
    bijective homomorphism, composition breaks."""
    G, amb, gens, maps = args
    for g in sorted(maps):
        for h in sorted(maps):
            if (g < h and (G.src[g], G.rng[g]) == (G.src[h], G.rng[h])
                    and sorted(gens.get(g, ())) == sorted(gens.get(h, ()))
                    and sorted(gens.get(G.inv[g], ())) == sorted(gens.get(G.inv[h], ()))
                    and maps[g] != maps[h]):
                return G, amb, gens, {**maps, g: maps[h], h: maps[g]}
    return None


def test_the_validators_agree_on_corrupted_recorded_actions(recorded):
    calls, _ = recorded
    failures = set()
    for corrupt in (swapped_values, exchanged_parallel_tables):
        for args in calls:
            bad = corrupt(args)
            if bad is not None:
                result = assert_validators_agree(bad)
                if result[0] == "AxiomViolation":
                    failures.update(v.split("]")[0] for v in result[2])
    assert {"[map", "[composition"} <= failures


def frobenius_c3_action(square_at_t2=True):
    """GF(4) acted on by C3 = {1, t, t2}: t by Frobenius, t2 by Frobenius as
    well (then sigma_t sigma_t = id != sigma_t2) or by the identity (then
    sigma_t sigma_t2 = Frobenius != sigma_1).  Every table is a ring
    automorphism; only composition fails."""
    field = GaloisField(2, 2)
    G = one_object_groupoid(FiniteGroup.cyclic(3), "e")
    amb = DirectSumRing([field], keys=G.objects)
    frob = {amb.inject(0, x): amb.inject(0, field.mul(x, x)) for x in range(field.size)}
    ident = {x: x for x in frob}
    gens = {g: [amb.inject(0, x) for x in field.additive_generators()] for g in (1, 2)}
    return G, amb, gens, {1: frob, 2: frob if square_at_t2 else ident}


def m2_c3_action(gens_t, gens_t2, break_t2=False):
    """M2(GF(2)) acted on by C3 with every sigma the identity on the given
    spans; ``break_t2`` makes sigma_t2 collapse its first element."""
    m2 = MatrixRing(GaloisField(2), 2)
    G = one_object_groupoid(FiniteGroup.cyclic(3), "e")
    amb = DirectSumRing([m2], keys=G.objects)
    at = {name: amb.inject(0, m2.unit(*ij)) for name, ij in
          (("11", (0, 0)), ("12", (0, 1)), ("21", (1, 0)), ("22", (1, 1)))}
    span = {g: rings.additive_closure(amb, [at[n] for n in names])
            for g, names in ((1, gens_t), (2, gens_t2))}
    maps = {g: {x: x for x in span[3 - g].elements} for g in (1, 2)}
    if break_t2:
        first = min(x for x in maps[2] if x)
        maps[2] = {**maps[2], first: 0}
    return G, amb, {g: [at[n] for n in names] for g, names in
                    ((1, gens_t), (2, gens_t2))}, maps


@pytest.mark.parametrize("args, tags", [
    (frobenius_c3_action(), {"composition"}),
    (frobenius_c3_action(square_at_t2=False), {"composition"}),
    # span{E11, E12} is a right ideal, not a two-sided one: both morphisms
    # fail with their own witnesses, from their own generator lists
    (m2_c3_action(["11", "12"], ["12", "11"]), {"ideal"}),
    # equal full ideals with different generator lists; only t2's table fails
    (m2_c3_action(["11", "12", "21", "22"], ["22", "21", "12", "11"], break_t2=True),
     {"map"}),
], ids=["frobenius-twice", "frobenius-then-identity", "non-ideal-twice",
        "equal-ideals-one-table-broken"])
def test_the_validators_agree_on_hand_made_corruptions(args, tags):
    result = assert_validators_agree(args)
    assert result[0] == "AxiomViolation"
    assert tags <= {v[1:].split("]")[0] for v in result[2]}


def test_a_failed_ideal_check_names_each_morphisms_own_witness():
    args = m2_c3_action(["11", "12"], ["12", "11"])
    _, _, violations = outcome(validate_partial_action, args)
    ideal = [v for v in violations if v.startswith("[ideal]")]
    assert len(ideal) == 2 and ideal[0] != ideal[1]


# ---------------------------------------------------------------------------
# associativity on composable triples
# ---------------------------------------------------------------------------

def test_every_recorded_skew_ring_is_associative_by_both_checks(recorded):
    _, checked = recorded
    assert len(checked) > 100
    for ring, verdict in checked:
        assert verdict is None
        assert reference_first_nonassociative(ring) is None


def m3_action():
    return groupoid_ring_action(GaloisField(2), pair_groupoid(["a", "b", "c"]))


def patched_product(monkeypatch, rule):
    """Replace the skew product by ``rule(ring, a, b, true product)``."""
    mul = SkewGroupoidRing.mul
    monkeypatch.setattr(SkewGroupoidRing, "mul",
                        lambda self, a, b: rule(self, a, b, mul(self, a, b)))


def test_a_broken_composable_product_fails_at_the_reference_triple(monkeypatch):
    # M3(GF(2)) with E_ab * E_bc sent to 0: still graded, not associative
    action = m3_action()
    G = action.groupoid
    ab, bc = (G.morphism_index(name) for name in ("b>a", "c>b"))
    ring = SkewGroupoidRing(action)
    x, y = ring.inject(ab, action.ideals[ab].gens[0]), ring.inject(bc, action.ideals[bc].gens[0])
    patched_product(monkeypatch, lambda self, a, b, p: 0 if (a, b) == (x, y) else p)
    triple = reference_first_nonassociative(SkewGroupoidRing(action))
    assert triple is not None
    with pytest.raises(AssociativityFailure) as caught:
        build_skew_ring(action)
    assert str(caught.value).endswith(f"({', '.join(map(ring.label, triple))})")


def test_a_broken_non_composable_product_fails_the_grading_first(monkeypatch):
    # E_ab * E_ab is 0 in M3(GF(2)); sent to E_ab, the grading axioms fail
    action = m3_action()
    G = action.groupoid
    ab = G.morphism_index("b>a")
    x = SkewGroupoidRing(action).inject(ab, action.ideals[ab].gens[0])
    patched_product(monkeypatch, lambda self, a, b, p: x if (a, b) == (x, x) else p)
    with pytest.raises(AxiomViolation, match="non-composable") as caught:
        build_skew_ring(action)
    assert caught.value.axiom == "grading"


def test_the_m3_associativity_check_makes_at_most_400_products(monkeypatch):
    counting, calls = [False], [0]
    mul, check = SkewGroupoidRing.mul, first_nonassociative

    def counted(self, a, b):
        calls[0] += counting[0]
        return mul(self, a, b)

    def counted_check(*args):
        counting[0] = True
        try:
            return check(*args)
        finally:
            counting[0] = False
    monkeypatch.setattr(SkewGroupoidRing, "mul", counted)
    monkeypatch.setattr(gprime.partial, "first_nonassociative", counted_check)
    ring = build_skew_ring(m3_action()).ring
    assert 0 < calls[0] <= 400
    calls[0], counting[0] = 0, True
    assert reference_first_nonassociative(ring) is None
    assert calls[0] == 4 * 9 ** 3


# ---------------------------------------------------------------------------
# isotropy components
# ---------------------------------------------------------------------------

def gf2_c7():
    return build_groupoid_ring(GaloisField(2),
                               one_object_groupoid(FiniteGroup.cyclic(7), "e"))


def test_restrict_grading_inserts_only_span_generators(monkeypatch):
    grading = gf2_c7()
    inserts = [0]
    for cls in (rings._Basis, rings._XorBasis, rings._PrimeBasis):
        def counted(self, v, _insert=cls.insert):
            inserts[0] += 1
            return _insert(self, v)
        monkeypatch.setattr(cls, "insert", counted)
    G = grading.groupoid
    res = restrict_grading(grading, validate_subgroupoid(G, G.loops(0)))
    assert res.ring.size == 128
    # the span, each component and the directness basis: 7 generators each
    assert inserts[0] == 3 * 7


def test_isotropy_components_are_kept_on_the_grading():
    grading = gf2_c7()
    first = isotropy_component(grading, 0)
    assert isotropy_component(grading, 0) is first


def test_replay_refuses_an_isotropy_witness_with_a_changed_b():
    built = build_instance(parse(ROOT / "fixtures" / "block_diagonal.json"))
    doc = primeness_document(built, "theorem")
    (witness,) = (dict(w) for w in doc["witnesses"] if w["space"] == "isotropy:f2")
    assert replay_witness(built, witness)
    grading = carrier_grading(built)
    ring = isotropy_component(grading, grading.groupoid.object_index("f2")).ring
    ia = rings.principal_ideal(ring, witness["a"])
    b = next(b for b in range(1, ring.size)
             if not rings.is_zero_product(ia, rings.principal_ideal(ring, b)))
    witness.update(b=b, b_label=ring.label(b))
    assert not replay_witness(built, witness)
