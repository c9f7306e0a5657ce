"""Every function the benchmark's tracer wraps under ``--trace 1`` must exist.

The tracer looks its targets up by name, so a rename in ``gostrata`` would
otherwise surface only when a traced benchmark run fails.  The tracer module
is loaded from its file and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_on_its_module():
    traced = _load_tracer().TRACED
    assert traced
    for layer, entries in traced.items():
        home = importlib.import_module(f"gostrata.{layer}")
        for name, target, _ in entries:
            if "." in target:
                cls_name, attr = target.split(".")
                found = vars(getattr(home, cls_name, object)).get(attr)
            else:
                found = getattr(home, target, None)
            assert callable(found), f"{layer}.{name}: gostrata.{layer}.{target} is missing"


# the stages a roundtrip with a nonempty T must reach under their traced names
ROUNDTRIP_STAGES = ("build_isogeny_triple", "reconstruct_lattices", "make_point", "hasse_vanishes")


def test_a_roundtrip_reaches_every_traced_stage_by_name(monkeypatch):
    """The tracer wraps a stage through its module binding, so a stage that
    the library reaches through another name, such as a private twin, reads
    0 calls in a traced run.  Wrap each roundtrip stage as ``TRACED`` names
    it and check that one roundtrip calls it."""
    from gostrata import dieudonne
    from gostrata.places import ArchPlace, build_place_system, make_datum
    from gostrata.witt import mat2

    targets = {name: target for name, target, _ in _load_tracer().TRACED["dieudonne"]}
    calls = dict.fromkeys(ROUNDTRIP_STAGES, 0)
    for name in ROUNDTRIP_STAGES:
        def counted(*args, _name=name, _inner=getattr(dieudonne, targets[name]), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(dieudonne, targets[name], counted)
    # the antidiagonal point: every place is in its stratum
    datum = make_datum(build_place_system([(2, True)]), set())
    ring = dieudonne.ring_for_datum(datum, 3)
    half = dieudonne.half_system(datum)
    f_mats = {emb: mat2(ring, [[0, 1], [3, 0]]) for emb in half}
    pairings = {emb: mat2(ring, [[0, 1], [ring.pn - 1, 0]]) for emb in half}
    signature = dict.fromkeys(datum.places.embeddings(), 1)
    pt = dieudonne.point_from_half_system(ring, datum, f_mats, pairings, signature)
    dieudonne.verify_roundtrip(pt, frozenset({ArchPlace("p1", 0)}))
    assert all(calls.values()), calls
