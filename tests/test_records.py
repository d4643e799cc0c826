"""The result records (``errors.Record``), the repr of additive subgroups,
and the modules a process loads when it imports gprime.

The records replaced ``dataclasses.dataclass`` classes; ``FIELDS`` lists
each class's fields in the order the dataclass gave them.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from gprime import cli, fuzz, grading, groupoid, instances, partial, primeness, rings
from gprime.errors import InternalDisagreement, Record
from gprime.groupoid import FiniteGroup, pair_groupoid
from gprime.instances import BuiltInstance
from gprime.rings import CyclicRing, is_prime_bruteforce

SRC = str(Path(__file__).resolve().parents[1] / "src")

FIELDS = {
    rings.PrimePairWitness: ("a", "b", "a_ideal"),
    rings.PrimeResult: ("prime", "witness", "degenerate"),
    rings.IdealEnumeration: ("ideals", "truncated"),
    grading.GradedIdeal: ("ideal", "parts"),
    grading.NESResult: ("holds", "certificate", "failures"),
    grading.SupportResult: ("subgroupoid", "support_objects"),
    grading.HubResult: ("is_hub", "blocking"),
    grading.PairCriterionResult: ("holds", "witness"),
    groupoid.Subgroupoid: ("parent", "members"),
    partial.GroupTypeResult: ("holds", "anchor", "family", "reason"),
    partial.PsiCheckResult: ("ok", "mismatch"),
    partial.SkewPrimeVerdict: ("prime", "method", "isotropy_prime", "oracle"),
    partial.ConnellResult: ("holds", "connected", "coefficients_prime",
                            "isotropy_ok", "reasons"),
    partial.SufficientReport: ("applicable", "trivial_isotropy_at", "intersection_at",
                               "maximal_commutative_at", "guarantees_prime"),
    primeness.ObjectEvidence: ("hub", "isotropy_prime"),
    primeness.PrimenessReport: ("verdict", "conditions", "witnesses", "degenerate",
                                "per_object"),
    fuzz.GeneratedInstance: ("kind", "groupoid", "grading", "action", "base",
                             "size", "carrier"),
    fuzz.FuzzRecord: ("index", "kind", "carrier", "size", "verdict", "checks"),
    fuzz.FuzzReport: ("seed", "count", "max_ring", "records"),
    instances.Instance: ("name", "kind", "digest", "raw"),
    instances.BuiltInstance: ("instance", "groupoid", "bound", "grading", "action", "base"),
}


class Pair(Record):
    x: int
    y: int = 0


class Twin(Record):
    x: int
    y: int = 0


class Triple(Pair):
    z: str = "z"


class TestRecordBase:

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
    def test_field_order(self, cls):
        assert issubclass(cls, Record)
        assert cls._fields == FIELDS[cls]

    def test_every_record_class_is_listed(self):
        found = {value for module in (rings, grading, groupoid, partial, primeness,
                                      fuzz, instances)
                 for value in vars(module).values()
                 if isinstance(value, type) and issubclass(value, Record)
                 and value.__module__ == module.__name__}
        assert found == set(FIELDS)

    def test_construction_by_position_keyword_and_default(self):
        assert Pair(1, 2) == Pair(x=1, y=2) == Pair(1, y=2) == Pair(y=2, x=1)
        assert Pair(1).y == 0
        assert Triple(1, 2, "w").z == "w" and Triple(1)._fields == ("x", "y", "z")
        assert groupoid.Subgroupoid(pair_groupoid(["a"], FiniteGroup.cyclic(1))).members \
            == frozenset()

    @pytest.mark.parametrize("args, kwargs", [((), {}), ((1, 2, 3), {}),
                                              ((1,), {"x": 1}), ((1,), {"w": 2})])
    def test_bad_arguments_are_refused(self, args, kwargs):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)

    def test_equality_needs_the_same_class(self):
        assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(1, 3)
        assert Pair(1, 2) != Twin(1, 2)
        assert Twin(1, 2) != Pair(1, 2)
        assert Pair(1, 0) != Triple(1, 0)

    def test_hash_and_repr(self):
        assert hash(Pair(1, 2)) == hash(Pair(1, 2)) == hash((1, 2))
        assert len({Pair(1, 2), Pair(1, 2), Twin(1, 2)}) == 2
        assert repr(Triple(1, 2)) == "Triple(x=1, y=2, z='z')"
        with pytest.raises(TypeError):
            hash(rings.PrimeResult(True, None, degenerate={}))

    def test_fields_are_read_only(self):
        p = Pair(1, 2)
        with pytest.raises(AttributeError):
            p.x = 5
        with pytest.raises(AttributeError):
            p.other = 5
        with pytest.raises(AttributeError):
            del p.y
        assert p == Pair(1, 2)

    def test_built_instance_is_mutable_and_its_carrier_is_no_field(self):
        inst = instances.Instance("n", "groupoid_ring", "d", {})
        G = pair_groupoid(["a"], FiniteGroup.cyclic(1))
        base = CyclicRing(3)
        with pytest.raises(TypeError):
            BuiltInstance(inst, G, 4096, carrier="ring")
        built = BuiltInstance(inst, G, 4096, base=base)
        assert built.kind == "groupoid_ring"
        carrier = instances.carrier_grading(built)
        assert carrier.ring.size == 3 and instances.carrier_grading(built) is carrier
        assert built == BuiltInstance(inst, G, 4096, base=base)   # the memo is no field
        built.bound = 2
        assert built.bound == 2
        with pytest.raises(TypeError):
            hash(built)


class TestReprs:

    def test_json_value_of_a_disagreement_with_a_pair_witness(self):
        witness = is_prime_bruteforce(CyclicRing(4)).witness
        exc = InternalDisagreement("routes differ", {"oracle_witness": witness,
                                                     "verdicts": (True, False)})
        assert cli._json_value(exc.details) == {
            "oracle_witness": {"a": 2, "b": 2,
                               "a_ideal": {"generators": [2], "size": 2}},
            "verdicts": [True, False]}

    def test_subgroup_repr_shows_generators_and_size(self):
        result = is_prime_bruteforce(CyclicRing(4))
        assert repr(result) == (
            "PrimeResult(prime=False, witness=PrimePairWitness(a=2, b=2, "
            "a_ideal=Ideal(generators=[2], size=2)), degenerate=False)")
        assert repr(rings.additive_closure(CyclicRing(6), [2, 3])) \
            == "AdditiveSubgroup(generators=[2, 3], size=6)"

    def test_witness_repr_is_the_same_in_two_processes(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from gprime.rings import CyclicRing, is_prime_bruteforce; "
                "print(repr(is_prime_bruteforce(CyclicRing(4))))")
        outs = [subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                               text=True, check=True).stdout for _ in range(2)]
        assert "0x" not in outs[0]
        assert outs[0] == outs[1] == repr(is_prime_bruteforce(CyclicRing(4))) + "\n"


# stdlib modules that cost milliseconds to import and that gprime needs at
# most lazily: ``pathlib`` pulls in ``urllib.parse`` and ``ipaddress``, and
# ``hashlib`` OpenSSL's ``_hashlib``
HEAVY_MODULES = ("dataclasses", "typing", "inspect", "pathlib", "hashlib", "_hashlib",
                 "urllib.parse", "ipaddress")


def test_import_graph_leaves_out_dataclasses_and_typing():
    """Importing the CLI and the fuzzer loads none of ``HEAVY_MODULES``; a
    subprocess, since pytest has already imported them here."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import gprime.cli, gprime.fuzz; "
            f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
