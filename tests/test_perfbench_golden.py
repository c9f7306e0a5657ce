"""Every benchmark workload reproduces its recorded golden digest in-process.

The benchmark checks the outputs of each workload's first ops at the default
seed against ``perfbench/baseline.json``; running the same ops here makes an
output change fail the tests instead of the benchmark.  The benchmark's
modules are loaded from their files and only read.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # run.py imports tracer and workloads by these names
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = {name: sys.modules.get(name) for name in ("tracer", "workloads", "run")}
    try:
        for name in saved:
            _load(name)
        yield sys.modules["workloads"], sys.modules["run"]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


BASELINE = json.loads((PERFBENCH / "baseline.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(BASELINE["digests"]))
def test_golden_digest_matches_the_baseline(bench, name: str, tmp_path: Path) -> None:
    workloads, run = bench
    workload = workloads.load(name, str(tmp_path))
    state = workload.setup(BASELINE["default_seed"])
    outputs = [workload.golden_op(state, j) for j in range(workload.golden_ops)]
    assert run.digest(outputs) == BASELINE["digests"][name]
