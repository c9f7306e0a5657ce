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
