"""Tests for instance files, report documents, witness replay and the CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gprime import cli, grading, partial, rings
from gprime.errors import (AxiomViolation, BoundExceeded, InternalDisagreement,
                           MalformedInput, ParseError, SchemaError)
from gprime.groupoid import FiniteGroup
from gprime.instances import (analysis_document, build_instance,
                              canonical_json, carrier_grading,
                              equivalence_document, instance_digest, parse, parse_data,
                              parse_element, primeness_document,
                              render_report, replay_witness,
                              validation_document, verify_witnesses)
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, GroupRing,
                          MatrixRing, is_prime_bruteforce)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

# fixture -> primeness verdict of its product ring
EXPECTED_VERDICTS = {
    "m3_pair_groupoid.json": True,
    "block_diagonal.json": False,
    "disconnected_groupoid_ring.json": False,
    "zero_component_partial_action.json": False,
    "global_flip_partial_action.json": True,
    "gf4_frobenius_group_type.json": False,
    "g8_groupoid_ring.json": False,
    "f2_z2_group_ring.json": False,
    "f2_p2_groupoid_ring.json": True,
}


def fixture(name: str) -> Path:
    return FIXTURES / name


def minimal_raw(**extra):
    raw = {"groupoid": {"objects": ["e"]},
           "groupoid_ring": {"base": {"field": 2}}}
    raw.update(extra)
    return raw


class TestParse:
    """Instance files are schema-checked with exact messages."""

    @pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
    def test_fixtures_parse(self, name):
        inst = parse(fixture(name))
        assert inst.kind in ("grading", "partial_action", "groupoid_ring")
        assert len(inst.digest) == 64

    def test_unknown_src_object(self):
        raw = minimal_raw()
        raw["groupoid"]["morphisms"] = [{"name": "g", "src": "e", "rng": "zzz"}]
        with pytest.raises(SchemaError, match="unknown object 'zzz'"):
            parse_data(raw)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ParseError) as err:
            parse(path)
        assert err.value.line == 1

    def test_not_an_object(self):
        with pytest.raises(SchemaError, match="must be a JSON object"):
            parse_data([1, 2, 3])

    def test_exactly_one_kind(self):
        raw = minimal_raw(grading={"ring": {"field": 2}, "components": {}})
        with pytest.raises(SchemaError, match="exactly one"):
            parse_data(raw)
        with pytest.raises(SchemaError, match="found none"):
            parse_data({"groupoid": {"objects": ["e"]}})

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="unknown keys extra"):
            parse_data(minimal_raw(extra=1))

    def test_duplicate_objects(self):
        raw = minimal_raw()
        raw["groupoid"]["objects"] = ["e", "e"]
        with pytest.raises(SchemaError, match="duplicates"):
            parse_data(raw)

    def test_duplicate_morphism_name(self):
        raw = minimal_raw()
        raw["groupoid"]["morphisms"] = [{"name": "e", "src": "e", "rng": "e"}]
        with pytest.raises(SchemaError, match="duplicate morphism name"):
            parse_data(raw)

    def test_component_on_unknown_morphism(self):
        raw = {"groupoid": {"objects": ["e"]},
               "grading": {"ring": {"field": 2}, "components": {"zz": ["1"]}}}
        with pytest.raises(SchemaError, match="unknown morphism 'zz'"):
            parse_data(raw)

    def test_bad_ring_constructor(self):
        with pytest.raises(SchemaError, match="single-key ring constructor"):
            parse_data(minimal_raw(groupoid_ring={"base": {"weird": 1}}))

    def test_partial_action_parts_must_cover_objects(self):
        raw = {"groupoid": {"objects": ["e", "f"]},
               "partial_action": {"parts": {"e": {"field": 2}}}}
        with pytest.raises(SchemaError, match="one ring per groupoid object"):
            parse_data(raw)

    def test_bad_sigma_spec(self):
        raw = {"groupoid": {"objects": ["e"]},
               "partial_action": {"parts": {"e": {"field": 2}},
                                  "maps": {"e": "frobnicate"}}}
        with pytest.raises(SchemaError, match="maps\\['e'\\]"):
            parse_data(raw)

    def test_bad_bounds(self):
        with pytest.raises(SchemaError, match="max_ring"):
            parse_data(minimal_raw(bounds={"max_ring": 0}))


class TestDigest:
    """The digest is canonical: key order never matters, content always does."""

    def test_key_order_independent(self):
        a = {"groupoid": {"objects": ["e"]}, "groupoid_ring": {"base": {"field": 2}}}
        b = {"groupoid_ring": {"base": {"field": 2}}, "groupoid": {"objects": ["e"]}}
        assert instance_digest(a) == instance_digest(b)
        assert canonical_json(a) == canonical_json(b)

    def test_content_sensitive(self):
        a = minimal_raw()
        b = minimal_raw(description="x")
        assert instance_digest(a) != instance_digest(b)

    def test_stable_across_parses(self):
        path = fixture("m3_pair_groupoid.json")
        assert parse(path).digest == parse(path).digest


class TestElementGrammar:
    """Element expressions evaluate against a concrete ring, with columns
    on every error."""

    m2 = MatrixRing(GaloisField(2), 2)

    def test_bare_indices_and_sums(self):
        z4 = CyclicRing(4)
        assert parse_element("0", z4) == 0
        assert parse_element("3", z4) == 3
        assert parse_element("1 + 1 + 1", z4) == 3
        assert parse_element("3 * 1", z4) == 3
        assert parse_element("2 * (1 + 1)", z4) == 0

    def test_matrix_units(self):
        assert parse_element("e(0, 1)", self.m2) == self.m2.unit(0, 1)
        two = parse_element("e(0, 0) + e(1, 1)", self.m2)
        assert two == self.m2.one
        # char 2: doubling kills everything
        assert parse_element("2 * e(0, 1)", self.m2) == 0

    def test_matrix_unit_coefficient(self):
        m2_f3 = MatrixRing(GaloisField(3), 2)
        assert parse_element("e(0, 1, 2)", m2_f3) == m2_f3.unit(0, 1, 2)
        assert parse_element("2 * e(0, 1)", m2_f3) == m2_f3.unit(0, 1, 2)

    def test_injection(self):
        ring = DirectSumRing([GaloisField(2), CyclicRing(4)], keys=["e", "f"])
        assert parse_element("at(e, 1)", ring) == ring.inject(0, 1)
        assert parse_element("at(f, 3)", ring) == ring.inject(1, 3)
        assert (parse_element("at(e, 1) + at(f, 2)", ring)
                == ring.add(ring.inject(0, 1), ring.inject(1, 2)))

    def test_nested_injection(self):
        inner = DirectSumRing([GaloisField(2), GaloisField(2)])
        ring = DirectSumRing([inner], keys=["e"])
        assert (parse_element("at(e, at(1, 1))", ring)
                == ring.inject(0, inner.inject(1, 1)))

    def test_delta_in_group_ring(self):
        ring = GroupRing(GaloisField(2), FiniteGroup.cyclic(2))
        x = parse_element("delta(t, 1)", ring)
        assert ring.label(x) == "t"
        assert parse_element("delta(1, 1) + delta(t, 1)", ring) == ring.add(
            ring.inject(0, 1), ring.inject(1, 1))

    @pytest.mark.parametrize("text,message,column", [
        ("e(5, 0)", "matrix index 5", 3),
        ("e(0, 0, 9)", "coefficient index 9", 9),
        ("17", "element index 17", 1),
        ("e(0,0)*e(1,1)", "only integer scalars", 7),
        ("1 )", "trailing input", 3),
        ("(1 + ", "unexpected end", 6),
        ("at(0, 1)", "needs a direct sum", 1),
        ("delta(x, 1)", "needs a group or skew ring", 1),
        ("foo(1)", "unknown form", 1),
        ("e(0 ! 0)", "unexpected character", 5),
    ])
    def test_errors_carry_columns(self, text, message, column):
        with pytest.raises(ParseError, match=message) as err:
            parse_element(text, self.m2)
        assert err.value.column == column


class TestBuild:
    """Built instances re-run every library validator."""

    def test_m3_round_trip(self):
        built = build_instance(parse(fixture("m3_pair_groupoid.json")))
        assert built.kind == "grading"
        assert built.grading.ring.tag == "M3(GF(2))"
        assert built.grading.ring.size == 512

    def test_partial_action_round_trip(self):
        built = build_instance(parse(fixture("global_flip_partial_action.json")))
        act = built.action
        to_e = act.groupoid.morphism_index("f>e")
        assert act.sigma(to_e, act.ambient.inject(1, 1)) == act.ambient.inject(0, 1)

    def test_transport_needs_matching_fibres(self):
        raw = {"groupoid": {"objects": ["e", "f"],
                            "morphisms": [
                                {"name": "e>f", "src": "e", "rng": "f"},
                                {"name": "f>e", "src": "f", "rng": "e"}],
                            "inverse": {"e>f": "f>e"},
                            "compose": [["f>e", "e>f", "e"],
                                        ["e>f", "f>e", "f"]]},
               "partial_action": {
                   "parts": {"e": {"field": 2}, "f": {"field": 3}},
                   "ideals": {"f>e": ["at(e, 1)"], "e>f": ["at(f, 1)"]},
                   "maps": {"f>e": "transport", "e>f": "transport"}}}
        with pytest.raises(SchemaError, match="identical fibres"):
            build_instance(parse_data(raw))

    def test_sigma_table_must_cover_domain(self):
        raw = {"groupoid": {"objects": ["e", "f"],
                            "morphisms": [
                                {"name": "e>f", "src": "e", "rng": "f"},
                                {"name": "f>e", "src": "f", "rng": "e"}],
                            "inverse": {"e>f": "f>e"},
                            "compose": [["f>e", "e>f", "e"],
                                        ["e>f", "f>e", "f"]]},
               "partial_action": {
                   "parts": {"e": {"field": 2}, "f": {"field": 2}},
                   "ideals": {"f>e": ["at(e, 1)"], "e>f": ["at(f, 1)"]},
                   "maps": {"f>e": {"table": {}},
                            "e>f": {"table": {"at(e, 1)": "at(f, 1)"}}}}}
        with pytest.raises(AxiomViolation, match="defined on exactly"):
            build_instance(parse_data(raw))

    def test_resolve_bound_order(self):
        """The caller's bound, else the file's, else the default, kept on
        the built instance and its partial action."""
        inst = parse_data(minimal_raw(bounds={"max_ring": 99}))
        assert build_instance(inst).bound == 99
        assert build_instance(inst, 7).bound == 7
        assert build_instance(parse_data(minimal_raw())).bound == 4096
        flip = parse(fixture("global_flip_partial_action.json"))
        assert build_instance(flip, 8).action.bound == 8

    def test_raised_bound_reaches_the_oracle_document(self):
        """GF(2)[C13] (8192 elements) built under 10000 gets its oracle
        verdict from Python, with no bound passed again."""
        inst = parse_data(minimal_raw(groupoid_ring={"base": {"group_ring": {
            "base": {"field": 2}, "group": {"cyclic": 13}}}}))
        with pytest.raises(BoundExceeded):
            build_instance(inst)
        built = build_instance(inst, 10000)
        doc = primeness_document(built, "oracle")
        assert doc["verdict"] is False and doc["method"] == "oracle"
        assert verify_witnesses(built, doc) == len(doc["witnesses"]) == 1


class TestDocuments:
    """Report documents carry frozen structure facts and verdicts."""

    def test_validation_document(self):
        built = build_instance(parse(fixture("m3_pair_groupoid.json")))
        doc = validation_document(built)
        assert doc["valid"] is True
        assert doc["groupoid"]["connected"] is True
        assert doc["carrier"] == {"tag": "M3(GF(2))", "size": 512, "unital": True}

    def test_analysis_group_type_family(self):
        built = build_instance(parse(fixture("gf4_frobenius_group_type.json")))
        doc = analysis_document(built)
        pa = doc["partial_action"]
        # the line ideals are proper, so the action is not global,
        # yet whole-fibre transports exist along l
        assert pa["global"] is False
        assert pa["group_type"]["holds"] is True
        assert pa["group_type"]["anchor"] == "e"
        assert pa["group_type"]["family"] == {"e": "e", "f": "l"}
        # carrier is 2**24 elements: refused, hubs computed without it
        assert doc["carrier"]["built"] is False
        assert doc["support_hubs"] == {"e": True, "f": True}

    def test_analysis_disconnected_criterion(self):
        built = build_instance(parse(fixture("disconnected_groupoid_ring.json")))
        doc = analysis_document(built)
        crit = doc["groupoid_ring"]["criterion"]
        assert crit["holds"] is False
        assert crit["connected"] is False
        assert "not connected" in " ".join(crit["reasons"])

    @pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
    def test_primeness_verdicts(self, name):
        built = build_instance(parse(fixture(name)))
        doc = primeness_document(built, "all")
        assert doc["verdict"] == EXPECTED_VERDICTS[name]
        # non-prime verdicts come with at least one replayable pair
        if not doc["verdict"]:
            assert doc["witnesses"]
        assert verify_witnesses(built, doc) == len(doc["witnesses"])

    def test_gf4_goes_through_isotropy_reduction(self):
        built = build_instance(parse(fixture("gf4_frobenius_group_type.json")))
        doc = primeness_document(built, "all")
        assert doc["method"] == "group-type"
        assert doc["isotropy_prime"] == {"e": False, "f": False}
        assert doc["coefficients_G_prime"] is False

    def test_equivalence_document_m3(self):
        built = build_instance(parse(fixture("m3_pair_groupoid.json")))
        doc = equivalence_document(built)
        assert doc["conditions"] == {c: True for c in
                                     ("i", "ii", "iii", "iv", "v", "vi", "vii")}

    def test_tampered_witness_fails_replay(self):
        built = build_instance(parse(fixture("block_diagonal.json")))
        doc = primeness_document(built, "all")
        witness = dict(doc["witnesses"][0])
        assert replay_witness(built, witness)
        witness["b"] = witness["a"]  # same ideal twice: product is not zero
        assert not replay_witness(built, witness)
        with pytest.raises(InternalDisagreement, match="does not replay"):
            verify_witnesses(built, {"witnesses": [witness]})

    def test_ideal_witnesses_replay_with_no_closure(self, monkeypatch):
        """"ideal" pairs on the carrier, an isotropy component and an
        isotropy skew ring replay on generators: on a fresh build of the
        instance, its rings built but no ideal of them cached, replay runs
        no ``close``."""
        pairs = []
        for name, method in (("block_diagonal.json", "all"),
                             ("gf4_frobenius_group_type.json", "theorem")):
            doc = primeness_document(build_instance(parse(fixture(name))), method)
            fresh = build_instance(parse(fixture(name)))
            for w in doc["witnesses"]:
                kind, _, obj = w["space"].partition(":")
                if w["closure"] != "ideal":
                    continue
                if kind == "isotropy-skew":
                    e = fresh.groupoid.object_index(obj)
                    partial.build_skew_ring(partial.restrict_to_isotropy(fresh.action, e))
                elif kind == "isotropy":
                    e = fresh.groupoid.object_index(obj)
                    grading.isotropy_component(carrier_grading(fresh), e)
                else:
                    carrier_grading(fresh)
                pairs.append((fresh, w))
        assert {w["space"].partition(":")[0] for _, w in pairs} == {
            "carrier", "isotropy", "isotropy-skew"}
        closes = []
        for module in (rings, grading, partial):
            def counting(*args, close=module.close):
                closes.append(args)
                return close(*args)
            monkeypatch.setattr(module, "close", counting)
        assert all(replay_witness(built, w) for built, w in pairs)
        assert closes == []

    def test_zero_witness_rejected(self):
        built = build_instance(parse(fixture("block_diagonal.json")))
        doc = primeness_document(built, "all")
        witness = dict(doc["witnesses"][0])
        witness["a"] = 0
        assert not replay_witness(built, witness)

    def test_wrong_label_rejected(self):
        built = build_instance(parse(fixture("block_diagonal.json")))
        doc = primeness_document(built, "all")
        witness = dict(doc["witnesses"][0])
        witness["a_label"] = "not the label"
        assert not replay_witness(built, witness)


class TestRendering:
    def test_json_is_deterministic(self):
        built = build_instance(parse(fixture("m3_pair_groupoid.json")))
        doc = primeness_document(built, "all")
        assert render_report(doc, "json") == render_report(doc, "json")
        assert render_report(doc, "json").endswith("\n")

    def test_text_renders_booleans_and_lists(self):
        text = render_report({"ok": True, "bad": False, "none": None,
                              "items": [1, 2], "empty": []}, "text")
        assert "ok: yes" in text
        assert "bad: no" in text
        assert "none: -" in text
        assert "items: 1, 2" in text
        assert "empty: (none)" in text

    def test_text_bullets_dict_lists(self):
        text = render_report({"ws": [{"a": 1}, {"a": 2}]}, "text")
        assert text == "ws:\n- a: 1\n- a: 2\n"

    def test_unknown_format(self):
        with pytest.raises(MalformedInput, match="unknown output format"):
            render_report({}, "yaml")


class TestCLI:
    """Exit codes and report plumbing of the command-line tool."""

    def run(self, *argv):
        return cli.main(list(argv))

    def test_validate_ok(self, capsys):
        assert self.run("validate", str(fixture("m3_pair_groupoid.json"))) == 0
        out = capsys.readouterr().out
        assert "valid: yes" in out

    def test_prime_disconnected_not_prime(self, capsys):
        path = str(fixture("disconnected_groupoid_ring.json"))
        assert self.run("prime", path, "--output", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False
        assert doc["witness_verification"]["ok"] is True
        assert doc["witness_verification"]["replayed"] == len(doc["witnesses"])

    def test_equivalence_m3_seven_trues(self, capsys):
        assert self.run("equivalence", str(fixture("m3_pair_groupoid.json")),
                        "--output", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is True
        assert list(doc["conditions"]) == ["i", "ii", "iii", "iv", "v", "vi", "vii"]
        assert all(doc["conditions"].values())

    def test_missing_file_exits_1(self, capsys):
        assert self.run("prime", "/no/such/file.json") == 1
        assert "error" in capsys.readouterr().err

    def test_empty_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert self.run("validate", str(path)) == 1
        assert "line 1" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            self.run("frobnicate")
        assert err.value.code == 1

    def test_bound_exceeded_exits_2(self, capsys):
        assert self.run("prime", str(fixture("gf4_frobenius_group_type.json")),
                        "--method", "oracle") == 2
        assert "exceed" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_resource_exhaustion_exits_4(self, error, capsys, monkeypatch):
        def exhausted(*args):
            raise error()
        monkeypatch.setattr(cli, "build_instance", exhausted)
        assert self.run("prime", str(fixture("m3_pair_groupoid.json"))) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"gprime: error: resources exhausted ({error.__name__})"]

    def test_max_ring_flag(self, capsys):
        assert self.run("prime", str(fixture("g8_groupoid_ring.json")),
                        "--method", "oracle", "--max-ring", "10") == 2

    def test_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("GPRIME_MAX_RING", "10")
        assert self.run("prime", str(fixture("g8_groupoid_ring.json")),
                        "--method", "oracle") == 2
        # the flag outranks the environment
        assert self.run("prime", str(fixture("g8_groupoid_ring.json")),
                        "--method", "oracle", "--max-ring", "4096") == 0

    def test_env_bound_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("GPRIME_MAX_RING", "banana")
        assert self.run("validate", str(fixture("m3_pair_groupoid.json"))) == 1
        assert "GPRIME_MAX_RING" in capsys.readouterr().err

    def test_theorem_route_needs_group_type(self, capsys):
        path = str(fixture("zero_component_partial_action.json"))
        assert self.run("prime", path, "--method", "theorem") == 1
        assert "transport family" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("prime", "m3_pair_groupoid.json"),
        ("prime", "gf4_frobenius_group_type.json"),
        ("analyze", "g8_groupoid_ring.json"),
        ("fuzz", "--seed", "11", "--count", "2"),
    ])
    def test_reports_byte_identical(self, capsys, argv):
        argv = [a if not a.endswith(".json") else str(fixture(a)) for a in argv]
        assert self.run(*argv, "--output", "json") == 0
        first = capsys.readouterr().out
        assert self.run(*argv, "--output", "json") == 0
        assert capsys.readouterr().out == first

    def test_fuzz_summary(self, capsys):
        assert self.run("fuzz", "--seed", "5", "--count", "3",
                        "--output", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 3
        assert doc["disagreements"] == 0
        assert len(doc["instances"]) == 3
        assert doc["verdicts"]["prime"] + doc["verdicts"]["not_prime"] == 3

    def test_timings_are_opt_in(self, capsys):
        path = str(fixture("m3_pair_groupoid.json"))
        assert self.run("equivalence", path, "--output", "json") == 0
        assert "timings" not in json.loads(capsys.readouterr().out)
        assert self.run("equivalence", path, "--output", "json",
                        "--timings") == 0
        assert "timings" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("name, method, stages", [
        ("g8_groupoid_ring.json", "all", {"criterion", "carrier", "oracle"}),
        ("g8_groupoid_ring.json", "oracle", {"carrier", "oracle"}),
        ("g8_groupoid_ring.json", "theorem", {"criterion"}),
        ("global_flip_partial_action.json", "all",
         {"carrier", "isotropy_reduction", "oracle", "coefficients_G_prime",
          "sufficient_conditions"}),
        ("global_flip_partial_action.json", "oracle", {"carrier", "oracle"}),
        ("global_flip_partial_action.json", "theorem", {"isotropy_reduction"}),
    ])
    def test_prime_timings_on_groupoid_rings_and_partial_actions(
            self, capsys, name, method, stages):
        argv = ("prime", str(fixture(name)), "--method", method)
        assert self.run(*argv) == 0
        plain = capsys.readouterr().out
        assert "timings" not in plain
        assert self.run(*argv, "--timings") == 0
        timed = capsys.readouterr().out
        head, section = timed.split("timings:\n")
        assert stages | {"total"} <= {line.split(":")[0].strip()
                                      for line in section.splitlines()
                                      if line.startswith("  ")}
        assert plain.startswith(head)

    @pytest.mark.parametrize("argv, stages", [
        (("validate", "m3_pair_groupoid.json"), {"parse", "validate"}),
        (("validate", "global_flip_partial_action.json"), {"parse", "validate"}),
        (("analyze", "g8_groupoid_ring.json"),
         {"parse", "validate", "carrier", "analysis"}),
        (("analyze", "global_flip_partial_action.json"),
         {"parse", "validate", "carrier", "analysis"}),
        # a refused carrier is no stage: the analysis reports the refusal
        (("analyze", "g8_groupoid_ring.json", "--max-ring", "10"),
         {"parse", "validate", "analysis"}),
    ])
    def test_validate_and_analyze_timings(self, capsys, argv, stages):
        argv = [a if not a.endswith(".json") else str(fixture(a)) for a in argv]
        assert self.run(*argv) == 0
        plain = capsys.readouterr().out
        assert self.run(*argv, "--timings") == 0
        head, section = capsys.readouterr().out.split("timings:\n")
        assert head == plain
        assert {line.split(":")[0].strip() for line in section.splitlines()} == \
            stages | {"total"}

    @pytest.mark.parametrize("command", ["prime", "equivalence"])
    def test_prime_and_equivalence_time_parse_validate_and_replay(
            self, capsys, command):
        assert self.run(command, str(fixture("block_diagonal.json")),
                        "--timings", "--output", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"parse", "validate", "replay", "total"} <= set(doc["timings"])
        assert doc["witness_verification"]["replayed"] >= 1

    def test_replay_failure_text_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr("gprime.instances.replay_witness",
                            lambda *args: False)
        assert self.run("prime", str(fixture("block_diagonal.json"))) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error, details = captured.err.splitlines()
        assert error == "gprime: error: a reported witness does not replay"
        assert details.startswith("gprime: details: {'witness': {'kind': ")

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gprime.cli", "prime",
             str(fixture("f2_p2_groupoid_ring.json")), "--output", "json"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] is True


@pytest.fixture(scope="module")
def validators():
    jsonschema = pytest.importorskip("jsonschema")
    make = jsonschema.Draft202012Validator
    schemas = ROOT / "docs" / "schemas"
    inst = json.loads((schemas / "instance.schema.json").read_text())
    rep = json.loads((schemas / "report.schema.json").read_text())
    make.check_schema(inst)
    make.check_schema(rep)
    return make(inst), make(rep)


class TestSchemas:
    """The shipped JSON schemas accept exactly what the tool emits."""

    @pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
    def test_fixtures_match_instance_schema(self, validators, name):
        data = json.loads(fixture(name).read_text())
        assert list(validators[0].iter_errors(data)) == []

    def test_instance_schema_rejects_two_kinds(self, validators):
        bad = minimal_raw(grading={"ring": {"field": 2}, "components": {}})
        assert list(validators[0].iter_errors(bad))

    @pytest.mark.parametrize("argv", [
        ("validate", "m3_pair_groupoid.json"),
        ("analyze", "gf4_frobenius_group_type.json"),
        ("prime", "block_diagonal.json"),
        ("prime", "zero_component_partial_action.json"),
        ("equivalence", "g8_groupoid_ring.json"),
        ("fuzz", "--seed", "2", "--count", "2"),
    ])
    def test_reports_match_report_schema(self, validators, capsys, argv):
        argv = [a if not a.endswith(".json") else str(fixture(a)) for a in argv]
        assert cli.main([*argv, "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(validators[1].iter_errors(doc)) == []

    @pytest.mark.parametrize("argv", [
        ("validate", "m3_pair_groupoid.json"),
        ("analyze", "global_flip_partial_action.json"),
        ("prime", "global_flip_partial_action.json"),
        ("prime", "g8_groupoid_ring.json", "--method", "theorem"),
        ("equivalence", "block_diagonal.json"),
    ])
    def test_timed_reports_match_report_schema(self, validators, capsys, argv):
        argv = [a if not a.endswith(".json") else str(fixture(a)) for a in argv]
        assert cli.main([*argv, "--timings", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(validators[1].iter_errors(doc)) == []

    @pytest.mark.parametrize("argv, code, error", [
        (("prime", "missing"), 1, "FileNotFoundError"),
        (("validate", "empty"), 1, "ParseError"),
        (("prime", "gf4_frobenius_group_type.json", "--method", "oracle"),
         2, "BoundExceeded"),
        (("prime", "block_diagonal.json"), 3, "InternalDisagreement"),
    ])
    def test_failures_under_json_match_error_schema(
            self, validators, capsys, monkeypatch, tmp_path, argv, code, error):
        (tmp_path / "empty").write_text("")
        argv = [str(fixture(a)) if a.endswith(".json") else
                str(tmp_path / a) if a in ("missing", "empty") else a
                for a in argv]
        if code == 3:
            monkeypatch.setattr("gprime.instances.replay_witness",
                                lambda *args: False)
        assert cli.main([*argv, "--output", "json"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        doc = json.loads(captured.err)
        assert list(validators[1].iter_errors(doc)) == []
        assert (doc["exit_code"], doc["error"]) == (code, error)
        if code == 3:
            assert doc["message"] == "a reported witness does not replay"
            witness = doc["details"]["witness"]
            assert witness["kind"] == "zero-ideal-pair"
            assert isinstance(witness["a"], int) and isinstance(witness["b"], int)
        else:
            assert doc["details"] is None

    def test_env_bound_failure_under_json(self, validators, capsys, monkeypatch):
        monkeypatch.setenv("GPRIME_MAX_RING", "-1")
        assert cli.main(["prime", str(fixture("m3_pair_groupoid.json")),
                         "--output", "json"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert list(validators[1].iter_errors(doc)) == []
        assert doc == {"exit_code": 1, "error": "MalformedInput",
                       "message": "GPRIME_MAX_RING must be a positive integer, "
                                  "got '-1'",
                       "details": None}

    def test_resource_exhaustion_under_json(self, validators, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()
        monkeypatch.setattr(cli, "build_instance", exhausted)
        assert cli.main(["prime", str(fixture("m3_pair_groupoid.json")),
                         "--output", "json"]) == 4
        doc = json.loads(capsys.readouterr().err)
        assert list(validators[1].iter_errors(doc)) == []
        assert doc == {"exit_code": 4, "error": "MemoryError",
                       "message": "resources exhausted (MemoryError)",
                       "details": None}

    def test_error_details_become_json_values(self):
        ring = CyclicRing(4)
        oracle = is_prime_bruteforce(ring)
        value = cli._json_value({"oracle": oracle, 0: {(1, 2): (3, None)},
                                 "ring": ring})
        assert json.loads(json.dumps(value)) == value
        assert value["0"] == {"(1, 2)": [3, None]}
        assert value["oracle"]["prime"] is False
        assert value["oracle"]["witness"]["a"] == oracle.witness.a
        assert value["oracle"]["witness"]["a_ideal"]["size"] == \
            len(oracle.witness.a_ideal)
        assert value["ring"] == repr(ring)


Z2_ADD, Z2_MUL = [[0, 1], [1, 0]], [[0, 0], [0, 1]]
LOOP = {"objects": ["e"], "morphisms": [{"name": "g", "src": "e", "rng": "e"}],
        "inverse": {"g": "g"}, "compose": [["g", "g", "e"]]}


def base_doc(base):
    return minimal_raw(groupoid_ring={"base": base})


def table_doc(add, mul=Z2_MUL, **extra):
    return base_doc({"table": {"add": add, "mul": mul, **extra}})


def group_doc(group):
    return base_doc({"group_ring": {"base": {"field": 2}, "group": group}})


def sigma_doc(table):
    return {"groupoid": LOOP,
            "partial_action": {"parts": {"e": {"field": 2}}, "ideals": {"g": ["1"]},
                               "maps": {"g": {"table": table}}}}


# valid JSON that the instance schema refuses: shapes the constructors
# cannot read, and booleans, strings or lone strings where integers or lists go
HOSTILE = {
    "table add null": table_doc(None),
    "table nested entry": table_doc([[0, [1]], [1, 0]]),
    "group table null": group_doc({"labels": ["a", "b"], "table": None}),
    "sigma value int": sigma_doc({"1": 1}),
    "sigma value null": sigma_doc({"1": None}),
    "cyclic true": base_doc({"cyclic": True}),
    "max_ring true": minimal_raw(bounds={"max_ring": True}),
    "field true": base_doc({"field": True}),
    "field pair with true": base_doc({"field": [2, True]}),
    "matrix n true": base_doc({"matrix": {"base": {"field": 2}, "n": True}}),
    "table entry true": table_doc([[0, True], [1, 0]]),
    "table entry string": table_doc([[0, "1"], [1, 0]]),
    "table entry negative": table_doc([[0, 1], [1, -1]]),
    "table labels ints": table_doc(Z2_ADD, labels=[0, 1]),
    "table labels duplicate": table_doc(Z2_ADD, labels=["0", "0"]),
    "group labels string": group_doc({"labels": "ab", "table": Z2_ADD}),
    "group labels ints": group_doc({"labels": [0, 1], "table": Z2_ADD}),
    "group cyclic true": group_doc({"cyclic": True}),
    "description number": minimal_raw(description=5),
}
ACCEPTED = {
    "table ring": table_doc(Z2_ADD, labels=["0", "1"]),
    "group labels": group_doc({"labels": ["1", "t"], "table": Z2_ADD}),
    "group cyclic": group_doc({"cyclic": 2}),
    "sigma table": sigma_doc({"1": "1"}),
    "field": base_doc({"field": 3}),
    "field pair": base_doc({"field": [2, 2]}),
    "matrix": base_doc({"matrix": {"base": {"cyclic": 2}, "n": 2}}),
    "bounds": minimal_raw(bounds={"max_ring": 8}),
    "description": minimal_raw(description="two elements"),
}


class TestHostileDocuments:
    """Off-schema values are refused by parse_data as the schema refuses them."""

    @pytest.mark.parametrize("mode", ["text", "json"])
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, name, mode):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(HOSTILE[name]))
        assert cli.main(["validate", str(path), "--output", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        if mode == "text":
            assert line.startswith("gprime: error: ")
        else:
            doc = json.loads(line)
            assert (doc["exit_code"], doc["error"]) == (1, "SchemaError")

    def test_parse_data_refuses_exactly_what_the_schema_refuses(self, validators):
        for name, doc in {**HOSTILE, **ACCEPTED}.items():
            schema_refuses = bool(list(validators[0].iter_errors(doc)))
            assert schema_refuses == (name in HOSTILE), name
            try:
                parse_data(doc)
            except SchemaError:
                refused = True
            else:
                refused = False
            assert refused == schema_refuses, name

    def test_accepted_documents_build(self):
        for name, doc in ACCEPTED.items():
            assert build_instance(parse_data(doc)).groupoid.n_objects >= 1, name

    @pytest.mark.parametrize("doc", [table_doc([[0.0, 1], [1, 0]]),
                                     base_doc({"cyclic": 2.0})])
    def test_integral_floats_are_refused(self, doc):
        # JSON Schema counts 2.0 as an integer; the tool asks for an int
        with pytest.raises(SchemaError):
            parse_data(doc)


DUPLICATE_LABELS = group_doc({"labels": ["a", "a"], "table": [[0, 1], [1, 0]]})


def test_duplicate_group_labels_exit_1_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(DUPLICATE_LABELS))
    assert cli.main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == ("gprime: error: groupoid_ring.base.group_ring.group.labels "
                    "has duplicates")


def test_the_schema_refuses_duplicate_group_labels_too(validators):
    assert list(validators[0].iter_errors(DUPLICATE_LABELS))


def test_short_table_labels_exit_1_with_one_error_line(tmp_path, capsys):
    # Z/4 with two labels: the witness of "not prime" is element 2, unlabelled
    z4 = range(4)
    doc = table_doc([[(a + b) % 4 for b in z4] for a in z4],
                    [[a * b % 4 for b in z4] for a in z4], labels=["0", "1"])
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["prime", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "gprime: error: labels must name each of the 4 elements once"


# GF(2)[x]/(x^2) on 0, 1, x, 1 + x, graded by C2 with S_e = span{1} and
# S_g = span{x}: S_g S_g S_g = 0 != S_g, so the grading is not nearly
# epsilon-strong and the paper's theorem says nothing about it
DUAL_NUMBERS = {"groupoid": LOOP, "grading": {
    "ring": {"table": {"add": [[a ^ b for b in range(4)] for a in range(4)],
                       "mul": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]]}},
    "components": {"e": ["1"], "g": ["2"]}}}


@pytest.mark.parametrize("argv, route", [
    (["prime", "--method", "theorem"], "the theorem route"),
    (["prime"], "the equivalence report"),
    (["equivalence"], "the equivalence report"),
])
def test_theorem_routes_refuse_a_grading_that_is_not_nes(tmp_path, capsys, argv, route):
    path = tmp_path / "dual_numbers.json"
    path.write_text(json.dumps(DUAL_NUMBERS))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == (f"gprime: error: {route} needs a nearly epsilon-strong grading "
                    "(first failure: 'g': S_g S_g^-1 S_g != S_g)")
    assert cli.main(["prime", str(path), "--method", "oracle"]) == 0
