"""Outside-in tracer: wraps public ``gostrata`` functions from the benchmark.

Every binding of a traced function is replaced, in every loaded ``gostrata``
module that holds it (``dieudonne`` does ``from .witt import ...``, so
patching ``gostrata.witt`` alone would miss its calls); ``WittRing`` and
``HasseMatrix`` methods are patched on the class.

Stage-level functions record one span each: id, parent id, name, start, end
and self time.  Hot leaf functions (the ``witt`` and ``places`` layers) are
aggregated per parent span as call count, total time and self time, since one
span per call would be millions per run.  Self time is a call's duration
minus the time covered by traced calls nested inside it.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> (function name, "Class.method" or module attribute, aggregate?)
TRACED = {
    "witt": [
        ("mul", "WittRing.mul", True),
        ("inv", "WittRing.inv", True),
        ("frobenius", "frobenius", True),
        ("mat_sigma", "mat_sigma", True),
        ("witt_ring", "witt_ring", True),
        ("lattice_normalize", "lattice_normalize", True),
        ("lattice_sum", "lattice_sum", True),
        ("lattice_contains", "lattice_contains", True),
        ("lattice_dual", "lattice_dual", True),
        ("elementary_divisors", "elementary_divisors", True),
    ],
    "dieudonne": [
        (name, name, False)
        for name in (
            "random_point",
            "make_point",
            "stratum_of_point",
            "hasse_vanishes",
            "build_isogeny_triple",
            "reconstruct_lattices",
            "reconstruct_point",
            "verify_roundtrip",
            "twisted_partial_frobenius",
        )
    ],
    "places": [
        (name, name, True)
        for name in ("frobenius_shift", "conjugate", "restrict", "n_tau", "make_datum")
    ],
    "strata": [
        (name, name, False)
        for name in (
            "stratum_descriptor",
            "lift_assignment",
            "delta_sets",
            "dimension_count_check",
            "chain_decompose",
            "signature_from_lift",
        )
    ],
    "links": [
        (name, name, False) for name in ("standard_morphism", "induced_link", "compose")
    ],
    "picard": [
        ("hasse_matrix", "hasse_matrix", False),
        ("determinant", "HasseMatrix.determinant", False),
        ("divisor_class", "divisor_class", False),
        ("ample_necessary", "ample_necessary", False),
    ],
}

# the spans around one op and around one setup; their self time is benchmark glue
ROOT = "bench.op"
SETUP = "bench.setup"


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, entries in TRACED.items() for fn, _, _ in entries]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.aggregates: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.counters = {"witt.not_split": 0, "witt.errors": 0}
        self._open: list[int] = [0]  # ids of open spans; 0 is the run itself
        self._child_time: list[float] = [0.0]  # per open traced call
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self._last_error = None
        self._witt_error = None
        self._not_split = None

    # --- recording ------------------------------------------------------------

    def call(self, name: str, aggregate: bool, fn, args, kwargs):
        parent = self._open[-1]
        if not aggregate:
            span_id = self._next_id
            self._next_id += 1
            self._open.append(span_id)
        child_time = self._child_time
        child_time.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if self._witt_error and isinstance(exc, self._witt_error) and exc is not self._last_error:
                self._last_error = exc  # count each WittError once as it propagates
                self.counters["witt.errors"] += 1
            raise
        else:
            if self._not_split is not None and result is self._not_split:
                self.counters["witt.not_split"] += 1
            return result
        finally:
            end = time.perf_counter()
            duration = end - start
            own = duration - child_time.pop()
            child_time[-1] += duration
            if aggregate:
                record = self.aggregates.setdefault((parent, name), [0, 0.0, 0.0])
                record[0] += 1
                record[1] += duration
                record[2] += own
            else:
                self._open.pop()
                self.spans.append((span_id, parent, name, start, end, own))

    def _wrapper(self, name: str, aggregate: bool, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, aggregate, fn, args, kwargs)

        return traced

    def span(self, name: str, fn, *args):
        """Run one benchmark step (``ROOT`` or ``SETUP``) inside a top-level span."""
        return self.call(name, False, fn, args, {})

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "gostrata" or name.startswith("gostrata."))
        ]
        witt = sys.modules.get("gostrata.witt")
        if witt is not None:
            self._witt_error = witt.WittError
            self._not_split = witt.NOT_SPLIT
        for layer, entries in TRACED.items():
            home = sys.modules.get(f"gostrata.{layer}")
            if home is None:
                continue  # layer never imported by this workload: zero calls
            for fn_name, target, aggregate in entries:
                name = f"{layer}.{fn_name}"
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrapper(name, aggregate, original))
                    continue
                original = getattr(home, target)
                traced = self._wrapper(name, aggregate, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, traced)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------------

    def function_totals(self) -> dict[str, list]:
        """name -> [calls, self_s], over spans and aggregates."""
        totals = {name: [0, 0.0] for name in function_names() + [ROOT, SETUP]}
        for _, _, name, _, _, own in self.spans:
            totals[name][0] += 1
            totals[name][1] += own
        for (_, name), (calls, _, own) in self.aggregates.items():
            totals[name][0] += calls
            totals[name][1] += own
        return totals

    def dump(self, path: str, meta: dict) -> None:
        origin = min((s[3] for s in self.spans), default=0.0)
        payload = {
            "meta": meta,
            "counters": self.counters,
            "spans": [
                [sid, parent, name, round(start - origin, 9), round(end - origin, 9), round(own, 9)]
                for sid, parent, name, start, end, own in self.spans
            ],
            "aggregates": [
                [parent, name, calls, round(total, 9), round(own, 9)]
                for (parent, name), (calls, total, own) in sorted(self.aggregates.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
