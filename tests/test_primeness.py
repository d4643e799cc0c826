"""The primeness harness: oracle, the seven conditions, report assembly and
the trivial-isotropy shortcut.

Scenario expectations are frozen by hand:
  * 3x3 matrix units over GF(2): everything true.
  * GF(2)[C2]: carrier not prime (1+t squares to zero), identity-component
    criteria both true, so only the isotropy legs pull the conditions false
    -- all seven must come out false together.
  * two disconnected copies of GF(2): everything false, with cross witnesses.
  * the two-block grading: everything false; the middle object is a hub but
    its isotropy component splits.
"""

import pytest

from conftest import build_m2_gf9_grading, build_one_sided_grading
from gprime.errors import (
    InternalDisagreement,
    MalformedInput,
    ObjectNotInSupport,
)
from gprime.grading import PairCriterionResult, isotropy_component
from gprime.primeness import (
    CONDITION_LABELS,
    StageClock,
    equivalence_report,
    evaluate_condition,
    torsion_free_shortcut,
)
from gprime.rings import SubRing, is_prime_bruteforce


class TestOracle:
    def test_matrix_units_carrier_is_prime(self, m3_grading):
        res = is_prime_bruteforce(m3_grading.ring)
        assert res.prime and res.witness is None

    def test_group_ring_carrier_is_not_prime(self, f2c2_grading):
        res = is_prime_bruteforce(f2c2_grading.ring)
        assert not res.prime
        assert (res.witness.a, res.witness.b) == (3, 3)  # 1+t annihilates itself

    def test_large_carrier_is_decided(self):
        res = is_prime_bruteforce(build_m2_gf9_grading().ring)   # 6561 elements
        assert res.prime and res.witness is None


class TestConditions:
    def test_hub_condition_on_matrix_units(self, m3_grading):
        value, evidence = evaluate_condition(m3_grading, "vi")
        assert value
        assert sorted(evidence["objects"]) == [0, 1, 2]
        assert all(ev.hub.is_hub and ev.isotropy_prime.prime
                   for ev in evidence["objects"].values())

    def test_existential_hub_condition_on_blocks(self, block_grading):
        value, evidence = evaluate_condition(block_grading, "vii")
        assert not value
        middle = evidence["objects"][1]
        assert middle.hub.is_hub                  # f2 is a hub...
        assert not middle.isotropy_prime.prime    # ...but its isotropy ring splits
        assert isotropy_component(block_grading, 1).ring.size == 4
        outer = evidence["objects"][0]
        assert not outer.hub.is_hub

    def test_invariant_pair_condition_on_disconnected(self, disconnected_grading):
        value, evidence = evaluate_condition(disconnected_grading, "iii")
        assert not value
        assert not evidence["pair"].holds
        # both isotropy components are fields; the pair leg alone fails
        assert all(r.prime for r in evidence["isotropy"].values())

    def test_unknown_label(self, m3_grading):
        with pytest.raises(MalformedInput):
            evaluate_condition(m3_grading, "viii")


class TestReport:
    def test_matrix_units_all_true(self, m3_grading):
        report = equivalence_report(m3_grading)
        assert report.verdict is True
        assert report.conditions == {label: True for label in CONDITION_LABELS}
        assert report.witnesses == {"support_hub": 0}
        assert not report.degenerate

    def test_group_ring_all_false(self, f2c2_grading):
        report = equivalence_report(f2c2_grading)
        assert report.verdict is False
        assert report.conditions == {label: False for label in CONDITION_LABELS}
        w = report.witnesses
        assert (w["oracle"].a, w["oracle"].b) == (3, 3)
        assert "invariant_ideal_pair" not in w   # identity-component legs hold
        assert "graded_ideal_pair" not in w
        assert set(w) == {"oracle"}     # isotropy witnesses live on per_object
        ev = report.per_object[0]
        assert ev.hub.is_hub and not ev.isotropy_prime.prime
        assert ev.isotropy_prime.witness is not None
        assert isotropy_component(f2c2_grading, 0).ring.size == 4

    def test_disconnected_all_false(self, disconnected_grading):
        report = equivalence_report(disconnected_grading)
        assert report.verdict is False
        assert report.conditions == {label: False for label in CONDITION_LABELS}
        w = report.witnesses
        assert (w["oracle"].a, w["oracle"].b) == (1, 2)
        assert w["invariant_ideal_pair"][:2] == (1, 2)
        assert w["graded_ideal_pair"][:2] == (1, 2)
        assert w["non_hub_objects"] == {0: (1, 2), 1: (0, 1)}
        assert set(w) == {"oracle", "invariant_ideal_pair", "graded_ideal_pair",
                          "non_hub_objects"}
        assert all(ev.isotropy_prime.prime for ev in report.per_object.values())  # fields

    def test_block_grading_all_false(self, block_grading):
        report = equivalence_report(block_grading)
        assert report.verdict is False
        assert set(report.conditions) == set(CONDITION_LABELS)
        assert not any(report.conditions.values())
        assert report.witnesses["oracle"].a == 1
        assert report.per_object[1].hub.is_hub

    def test_all_conditions_hold_above_default_bound(self):
        grading = build_m2_gf9_grading()     # 6561-element carrier
        report = equivalence_report(grading)
        assert report.conditions == {label: True for label in CONDITION_LABELS}
        assert report.verdict is True
        assert report.witnesses == {"support_hub": 0}

    def test_requires_nearly_epsilon_strong(self):
        with pytest.raises(MalformedInput):
            equivalence_report(build_one_sided_grading())

    def test_stages_are_recorded_on_the_clock(self, m3_grading):
        clock = StageClock(True)
        equivalence_report(m3_grading, clock)
        timings = clock.stop()
        assert list(timings) == ["nearly_epsilon_strong", "oracle", "invariant_ideal_pairs",
                                 "graded_ideal_pairs", "objects", "total"]
        assert all(seconds >= 0.0 for seconds in timings.values())

    def test_disagreement_is_fatal(self, m3_grading, monkeypatch):
        import gprime.primeness as primeness

        monkeypatch.setattr(primeness, "is_graded_prime",
                            lambda g: PairCriterionResult(False, None))
        with pytest.raises(InternalDisagreement) as exc:
            equivalence_report(m3_grading)
        assert exc.value.details["conditions"]["iv"] is False
        assert exc.value.details["conditions"]["i"] is True


class TestShortcut:
    def test_applies_at_trivial_isotropy(self, m3_grading):
        assert torsion_free_shortcut(m3_grading, 0) is True
        ring = SubRing(m3_grading.ring, m3_grading.components[0])
        assert ring.size == 2

    def test_detects_failure_through_invariant_pairs(self, disconnected_grading):
        assert torsion_free_shortcut(disconnected_grading, 0) is False

    def test_not_applicable_with_isotropy(self, f2c2_grading):
        assert torsion_free_shortcut(f2c2_grading, 0) is None

    def test_dead_object_rejected(self):
        from gprime.grading import validate_grading
        from gprime.groupoid import pair_groupoid
        from gprime.rings import GaloisField

        G = pair_groupoid(["e", "f"])
        grading = validate_grading(G, GaloisField(2), {G.morphism_index("f"): [1]})
        with pytest.raises(ObjectNotInSupport):
            torsion_free_shortcut(grading, 0)

    def test_agrees_with_oracle_where_applicable(self, m3_grading, block_grading,
                                                 disconnected_grading):
        for grading in (m3_grading, block_grading, disconnected_grading):
            oracle = is_prime_bruteforce(grading.ring).prime
            for e in range(grading.groupoid.n_objects):
                shortcut = torsion_free_shortcut(grading, e)
                if shortcut is not None:
                    assert shortcut == oracle
