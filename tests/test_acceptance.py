"""The eleven acceptance criteria, one test and one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines;
criterion 1 alone fuzzes 200 instances and takes about 5 s (2 cores,
Python 3.11.7).
"""

from __future__ import annotations

import random
import time
from functools import wraps
from pathlib import Path

import pytest

from conftest import (build_block_grading, build_disconnected_grading,
                      build_flip_partial_action, build_g8,
                      build_g8_frobenius_action, build_group_ring_grading,
                      build_m3_grading, build_one_object_partial_action,
                      build_zero_partial_action)
from gprime.errors import BoundExceeded, MalformedInput, NotGraded
from gprime.fuzz import _random_partial_action, generate_instance, run_fuzz
from gprime.grading import (GradedIdeal, is_G_prime_principal,
                            is_graded_prime, is_invariant,
                            is_nearly_epsilon_strong, is_support_hub, phi,
                            psi)
from gprime.groupoid import (FiniteGroup, one_object_groupoid, pair_groupoid,
                             validate_groupoid)
from gprime.instances import (build_instance, carrier_grading, parse,
                              primeness_document, verify_witnesses)
from gprime.partial import (build_groupoid_ring, build_skew_ring,
                            connell_check, global_support_connectivity_check,
                            is_A_G_prime, is_global, is_group_type,
                            restrict_to_isotropy, skew_prime_verdict)
from gprime.primeness import equivalence_report, evaluate_condition
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, SubRing,
                          additive_closure, enumerate_ideals,
                          is_prime_bruteforce, is_zero_product)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
BOUND = 4096


def criterion(number: int, label: str):
    """Print one pass/fail line per criterion, whatever pytest captures."""
    def wrap(fn):
        @wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({label}): FAIL")
                raise
            print(f"criterion {number:2d} ({label}): PASS")
        return run
    return wrap


def fixture_gradings(max_size=None):
    """Product-ring gradings of every fixture whose carrier is buildable."""
    out = []
    for path in FIXTURES:
        built = build_instance(parse(path))
        try:
            grading = carrier_grading(built)
        except BoundExceeded:
            continue
        if max_size is None or grading.ring.size <= max_size:
            out.append((path.name, grading))
    return out


def handwritten_gradings():
    return [("m3", build_m3_grading()),
            ("block", build_block_grading()),
            ("group-ring", build_group_ring_grading()),
            ("disconnected", build_disconnected_grading()),
            ("zero-action", build_skew_ring(build_zero_partial_action())),
            ("flip-action", build_skew_ring(build_flip_partial_action())),
            ("one-object", build_skew_ring(build_one_object_partial_action()))]


@criterion(1, "seven-way equivalence, fuzzed corpus")
def test_criterion_01_seven_way_equivalence():
    start = time.perf_counter()
    # any internal disagreement (the CLI's exit 3) raises out of run_fuzz
    report = run_fuzz(seed=7, count=200, max_ring=BOUND)
    assert report.count == 200
    assert report.checks > 200
    for name, grading in fixture_gradings():
        rep = equivalence_report(grading)
        assert len(set(rep.conditions.values())) == 1, name
    elapsed = time.perf_counter() - start
    assert elapsed <= 600, f"criterion budget blown: {elapsed:.1f}s"


@criterion(2, "condition vii equals the oracle")
def test_criterion_02_oracle_concordance():
    corpus = fixture_gradings() + handwritten_gradings()
    for i in range(40):
        corpus.append((f"fuzz-{i}",
                       generate_instance(random.Random(f"acc2:{i}"), 512).grading))
    checked = 0
    for name, grading in corpus:
        try:
            oracle = is_prime_bruteforce(grading.ring)
        except BoundExceeded:
            continue
        value, _ = evaluate_condition(grading, "vii")
        assert value == oracle.prime, name
        checked += 1
    assert checked >= 40


@criterion(3, "3x3 matrix fixture, five seconds")
def test_criterion_03_m3_fixture():
    start = time.perf_counter()
    built = build_instance(parse(ROOT / "fixtures" / "m3_pair_groupoid.json"))
    grading = built.grading
    assert is_nearly_epsilon_strong(grading).holds
    rep = equivalence_report(grading)
    assert rep.conditions == {c: True for c in
                              ("i", "ii", "iii", "iv", "v", "vi", "vii")}
    assert is_prime_bruteforce(grading.ring).prime
    assert time.perf_counter() - start <= 5.0


@criterion(4, "block-diagonal fixture hubs and witness")
def test_criterion_04_block_diagonal():
    built = build_instance(parse(ROOT / "fixtures" / "block_diagonal.json"))
    grading = built.grading
    G = grading.groupoid
    hubs = {o: is_support_hub(grading, G.object_index(o)).is_hub
            for o in ("f1", "f2", "f3")}
    assert hubs == {"f1": False, "f2": True, "f3": False}
    pair = is_graded_prime(grading)
    assert not pair.holds
    a, c, ia, ic = pair.witness
    homogeneous = [x for g in range(G.n_morphisms)
                   for x in grading.components[g].elements if x]
    assert a in homogeneous and c in homogeneous
    assert not ia.is_zero() and not ic.is_zero() and is_zero_product(ia, ic)
    assert not is_prime_bruteforce(grading.ring).prime


@criterion(5, "disconnected groupoid ring is not prime")
def test_criterion_05_disconnected_fixture():
    built = build_instance(parse(ROOT / "fixtures" /
                                 "disconnected_groupoid_ring.json"))
    grading = carrier_grading(built)
    assert not is_prime_bruteforce(grading.ring).prime
    res = connell_check(built.base, built.groupoid)
    assert not res.holds
    assert not res.connected
    assert any("not connected" in r for r in res.reasons)


@criterion(6, "criterion-versus-oracle grid for groupoid rings")
def test_criterion_06_connell_grid():
    bases = [("F2", GaloisField(2)), ("F3", GaloisField(3)),
             ("Z4", CyclicRing(4)),
             ("F2+F2", DirectSumRing([GaloisField(2), GaloisField(2)]))]
    groupoids = [("trivial", pair_groupoid(["e"])),
                 ("Z2", one_object_groupoid(FiniteGroup.cyclic(2), "e")),
                 ("P2", pair_groupoid(["a", "b"])),
                 ("P3", pair_groupoid(["a", "b", "c"])),
                 ("two-points", validate_groupoid({"objects": ["a", "b"],
                                                   "morphisms": [],
                                                   "inverse": {},
                                                   "compose": []})),
                 ("G8", build_g8())]
    verdicts = {}
    skipped = []
    for bname, base in bases:
        for gname, G in groupoids:
            try:
                grading = build_groupoid_ring(base, G, BOUND)
            except BoundExceeded:
                skipped.append((bname, gname))
                continue
            oracle = is_prime_bruteforce(grading.ring)
            assert connell_check(base, G).holds == oracle.prime, (bname, gname)
            verdicts[(bname, gname)] = oracle.prime
    # 4 bases x 6 groupoids; F3/Z4/F2+F2 over P3 and G8 stay unbuilt
    assert len(verdicts) == 18 and len(skipped) == 6
    assert verdicts[("F2", "Z2")] is False
    assert verdicts[("F2", "P2")] is True
    assert all(not verdicts[(b, "two-points")] for b, _ in bases)


@criterion(7, "graded/invariant ideal bijection round trips")
def test_criterion_07_ideal_bijection():
    corpus = fixture_gradings(max_size=256) + [
        (n, g) for n, g in handwritten_gradings() if g.ring.size <= 256]
    assert len(corpus) >= 10
    pairs_checked = 0
    for name, grading in corpus:
        ring = grading.ring
        enumeration = enumerate_ideals(ring)
        assert not enumeration.truncated, name
        graded = []
        for ideal in enumeration.ideals:
            try:
                GradedIdeal.of(grading, ideal)
            except NotGraded:
                continue
            graded.append(ideal)
        for ideal in graded:
            down = phi(grading, ideal)
            assert psi(grading, down).ideal.elements == ideal.elements, name
            assert phi(grading, psi(grading, down)).elements == down.elements
            pairs_checked += 1
        # independent enumeration of the invariant side: the counts must
        # match for phi to be the claimed bijection
        sub = SubRing(grading.ring, grading.principal_part())
        invariant = []
        for pideal in enumerate_ideals(sub).ideals:
            members = sorted(sub.to_parent[x] for x in pideal.elements)
            candidate = additive_closure(ring, members)
            if is_invariant(grading, candidate)[0]:
                invariant.append(candidate)
        assert len(invariant) == len(graded), name
        for candidate in invariant:
            up = psi(grading, candidate)
            assert phi(grading, up).elements == candidate.elements, name
    assert pairs_checked >= 40


@criterion(8, "graded prime equals invariant-ideal prime")
def test_criterion_08_graded_equals_G_prime():
    corpus = fixture_gradings() + handwritten_gradings()
    for i in range(60):
        corpus.append((f"fuzz-{i}",
                       generate_instance(random.Random(f"acc8:{i}"), 512).grading))
    for name, grading in corpus:
        assert (is_graded_prime(grading).holds
                == is_G_prime_principal(grading).holds), name


@criterion(9, "global actions: connectivity, hubs, group-type reduction")
def test_criterion_09_global_action_chain():
    global_actions = []
    seed = 0
    while len(global_actions) < 25 and seed < 400:
        act = _random_partial_action(random.Random(f"acc9:{seed}"), 512)
        seed += 1
        if is_global(act):
            global_actions.append(act)
    assert len(global_actions) == 25
    reduced = 0
    for act in global_actions:
        # raises if connectivity and the two hub quantifiers ever split
        global_support_connectivity_check(act)
        transport = is_group_type(act)
        if transport.holds:
            verdict = skew_prime_verdict(act)
            assert verdict.prime == any(verdict.isotropy_prime.values())
            reduced += 1
    assert reduced >= 5


@criterion(10, "partial-action fixtures: zero components and Frobenius twist")
def test_criterion_10_partial_fixtures():
    zero = build_instance(parse(ROOT / "fixtures" /
                                "zero_component_partial_action.json"))
    zero_grading = build_skew_ring(zero.action)
    assert not is_graded_prime(zero_grading).holds
    assert not is_prime_bruteforce(zero_grading.ring).prime

    gf4 = build_instance(parse(ROOT / "fixtures" /
                               "gf4_frobenius_group_type.json"))
    act = gf4.action
    e = act.groupoid.object_index("e")
    # the coefficient fibre at e is not prime under its own loop action
    assert not is_A_G_prime(restrict_to_isotropy(act, e)).holds
    verdict = skew_prime_verdict(act)
    assert verdict.method == "group-type"
    assert not verdict.prime


@criterion(11, "every emitted witness replays")
def test_criterion_11_witness_replay():
    replayed = 0
    carrying = 0
    for path in FIXTURES:
        built = build_instance(parse(path))
        for method in ("oracle", "theorem", "all"):
            try:
                doc = primeness_document(built, method)
            except (BoundExceeded, MalformedInput):
                continue
            if doc["witnesses"]:
                assert not doc["verdict"], (path.name, method)
                carrying += 1
            # raises InternalDisagreement on the first witness that fails
            n = verify_witnesses(built, doc)
            assert n == len(doc["witnesses"])
            replayed += n
    assert carrying >= 10
    assert replayed >= 15
