"""Closure reuse, shared closures and addition through coordinates.

``rings.close`` absorbs the cached closure of any element it meets, and
closures with one basis are one object; subrings and skew products add
through their coordinate maps.  Each is an exact rewrite, so the tests
compare it against the plain computation: a closure taken with a warm cache
against one taken with an empty cache, and the addition of every subring
and skew product the fixtures and a fuzz run build against the reference
addition, taken coefficient by coefficient or through the parent.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (build_block_grading, build_disconnected_grading,
                      build_group_ring_grading, build_m3_grading)
from gprime import cli
from gprime.fuzz import _random_partial_action, run_fuzz
from gprime.grading import _cached_invariant_closure, invariant_closure
from gprime.groupoid import FiniteGroup, pair_groupoid
from gprime.partial import (SkewGroupoidRing, _cached_sigma_closure,
                            sigma_invariant_closure)
from gprime.rings import (CyclicRing, DirectSumRing, GaloisField, GroupRing,
                          MatrixRing, SubRing, additive_closure, ideal_generated,
                          principal_ideal)
from span_reference import reference_add

ROOT = Path(__file__).resolve().parents[1]
COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.data_too_large,
                                     HealthCheck.too_slow])

CARRIERS = (
    lambda: MatrixRing(GaloisField(2), 2),
    lambda: MatrixRing(CyclicRing(4), 2),
    lambda: MatrixRing(GaloisField(3), 2),
    lambda: DirectSumRing([GaloisField(2), MatrixRing(GaloisField(2), 2)]),
    lambda: GroupRing(GaloisField(2), FiniteGroup.cyclic(4)),
    lambda: GroupRing(GaloisField(3), FiniteGroup.cyclic(3)),
    lambda: GroupRing(CyclicRing(4), FiniteGroup.cyclic(2)),
)
GRADINGS = (build_m3_grading, build_block_grading, build_group_ring_grading,
            build_disconnected_grading)


def assert_same_closure(cold, warm, ring):
    assert warm.elements == cold.elements
    assert additive_closure(ring, warm.gens).elements == warm.elements


class TestWarmCacheChangesNothing:

    @settings(max_examples=40, **COMMON)
    @given(st.integers(0, len(CARRIERS) - 1), st.data())
    def test_ideal_generated(self, index, data):
        ring = CARRIERS[index]()
        elements = st.integers(0, ring.size - 1)
        seed = data.draw(st.lists(elements, min_size=1, max_size=3))
        cold = ideal_generated(ring, seed)
        for a in data.draw(st.lists(elements, max_size=12)):
            principal_ideal(ring, a)
        assert_same_closure(cold, ideal_generated(ring, seed), ring)

    @settings(max_examples=30, **COMMON)
    @given(st.integers(0, len(GRADINGS) - 1), st.data())
    def test_invariant_closure(self, index, data):
        grading = GRADINGS[index]()
        elements = st.sampled_from(grading.principal_part().sorted_elements())
        seed = data.draw(st.lists(elements, min_size=1, max_size=3))
        cold = invariant_closure(grading, seed)
        for a in data.draw(st.lists(elements, max_size=12)):
            _cached_invariant_closure(grading, a)
        assert_same_closure(cold, invariant_closure(grading, seed), grading.ring)

    @settings(max_examples=30, **COMMON)
    @given(st.integers(0, 40), st.data())
    def test_sigma_invariant_closure(self, index, data):
        action = _random_partial_action(random.Random(f"closure-reuse:{index}"), 64)
        elements = st.integers(0, action.ambient.size - 1)
        seed = data.draw(st.lists(elements, min_size=1, max_size=3))
        cold = sigma_invariant_closure(action, seed)
        for a in data.draw(st.lists(elements, max_size=12)):
            _cached_sigma_closure(action, a)
        assert_same_closure(cold, sigma_invariant_closure(action, seed), action.ambient)


def test_equal_principal_ideals_share_one_element_set():
    ring = MatrixRing(GaloisField(2), 3)
    for a in range(1, ring.size):
        principal_ideal(ring, a)
    ideals = ring._pid_cache.values()
    assert len(ideals) == 511
    assert len({id(ideal.elements) for ideal in ideals}) == 1


@pytest.mark.parametrize("base, order, distinct", [(GaloisField(2), 7, 7),
                                                   (GaloisField(2), 6, None),
                                                   (GaloisField(3), 4, None)])
def test_equal_principal_ideals_are_one_object(base, order, distinct):
    ring = GroupRing(base, FiniteGroup.cyclic(order))
    for a in range(1, ring.size):
        principal_ideal(ring, a)
    ideals = list(ring._pid_cache.values())
    assert len(ideals) == ring.size - 1
    objects = {id(ideal) for ideal in ideals}
    assert len(objects) == len({ideal.elements for ideal in ideals})
    assert distinct is None or len(objects) == distinct


def test_subrings_and_skew_rings_add_like_their_reference(monkeypatch, capsys):
    built = {}
    for cls in (SubRing, SkewGroupoidRing):
        def recording_init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built[id(self)] = self
        monkeypatch.setattr(cls, "__init__", recording_init)
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        for command in ("prime", "equivalence"):
            cli.main([command, str(path)])
    capsys.readouterr()
    run_fuzz(2, 8)
    run_fuzz(5, 8)
    seen = set()
    for ring in built.values():
        if ring.size > 256:
            continue
        add = reference_add(ring)
        elements = range(ring.size)
        assert all(ring.add(a, b) == add(a, b) for a in elements for b in elements), ring.tag
        seen.add((type(ring), all(add(a, a) == 0 for a in elements)))
    # both kinds, in characteristic 2 and over Z/4 or GF(3)
    assert {(SubRing, True), (SkewGroupoidRing, True),
            (SubRing, False), (SkewGroupoidRing, False)} <= seen


# The GF(2) groupoid ring of the pair groupoid on two objects with C3
# isotropy: 4096 elements, the default carrier bound.  Its equivalence report
# is pinned to the bytes computed before closure reuse, when the run took
# about 65 s and 1.45 GB.
RUNG_4096_REPORT_SHA256 = "d86807524146c5e0645bea0fd222fd359d93cfdd59332c069bba6d67beb36532"
RUNG_CHILD = """
import resource, sys
limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gprime import cli
sys.exit(cli.main(["equivalence", "rung4096.json"]))
"""


def _rung_4096_document():
    G = pair_groupoid(["e", "f"], FiniteGroup.cyclic(3))
    names, objects = G.morphisms, G.objects
    arrows = range(G.n_objects, G.n_morphisms)
    return {
        "description": "GF(2) over the pair groupoid on two objects with C3 "
                       "isotropy: 4096 elements",
        "groupoid": {
            "objects": list(objects),
            "morphisms": [{"name": names[g], "src": objects[G.src[g]],
                           "rng": objects[G.rng[g]]} for g in arrows],
            "compose": [[names[g], names[h], names[G.compose(g, h)]]
                        for g in arrows for h in arrows if G.composable(g, h)],
            "inverse": {names[g]: names[G.inv[g]] for g in arrows}},
        "groupoid_ring": {"base": {"field": 2}},
    }


def test_4096_element_equivalence_fits_in_512_mb(tmp_path):
    (tmp_path / "rung4096.json").write_text(json.dumps(_rung_4096_document()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GPRIME_MAX_RING", None)
    run = subprocess.run([sys.executable, "-c", RUNG_CHILD], cwd=tmp_path, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()[-2000:]
    assert hashlib.sha256(run.stdout).hexdigest() == RUNG_4096_REPORT_SHA256
