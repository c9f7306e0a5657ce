"""gostrata benchmark: one closed-loop client driving the library and the CLI.

Run from the root of a checkout (the directory holding ``src/gostrata``):

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up (import, rings, inputs), runs ops until ``--seconds``
have passed (finishing the current block, so every workload mix stays
balanced), checks every op and the default-seed output digest, and prints the
end-to-end metrics, timed in CPU time and scaled to a fixed host speed (see
``cpu_s`` and ``reference_s``).
``--trace 1`` runs a fixed number of ops untraced, then one setup and the same
ops under the outside-in tracer, and prints the per-layer metrics.
The last line of stdout is one JSON object; a fuller record, with the
environment, goes to ``.perfbench/results/`` and the spans to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_REPEATS = 7  # setup_s is the median of this many cold setups
TAIL_PASSES = 3  # with passes, an op's time in the tail is its best of this many
CLI_PROBES = 5

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gostrata.cli; "
    "print(time.perf_counter() - t)"
)


# --- host speed ----------------------------------------------------------------
#
# A shared host can change speed for pure-Python code by 2x within seconds,
# even counted in CPU time (measured on a 2-vCPU Xeon VM: blocks of the same
# 256 strata-sweep ops took 0.45 to 1.0 ms per op within one 20 s run).
# So every timing is scaled by a fixed reference loop run around it: a time t
# is reported as t * REF_NOMINAL_S / r, its length on a host where the loop
# takes REF_NOMINAL_S, with r the median reference time over the op's block
# (taken before the block and after each chunk of it) or the mean of the two
# taken around a setup.  Ops, setups and reference loops are all timed in
# CPU time (``cpu_s``), so that time the host gives to other processes does
# not count: on strata-sweep, whose ops take about 0.6 ms, one run's
# wall-clock p99 read 1.29 ms where its CPU-time p99 read 0.86 ms, and other
# runs' both read about 0.85 ms.  The unscaled figures are printed and
# recorded too.
#
# The reference has two parts, because the host's slow phases slow
# object-heavy code more than tight arithmetic: small-int arithmetic alone
# changed 1.9x between phases where the strata-sweep ops changed 2.2x and
# frozenset/dict/json code 2.5x.  Over eight 20 s runs, the spread of
# strata-sweep's scaled per-block medians was 0.069 of their mean with the
# arithmetic part alone and 0.051 with both parts, and the run medians
# ranged over 0.051 and 0.018 of their median.

REF_NOMINAL_S = 0.001
REF_ITERATIONS = 3000
REF_KEYS = 120


def cpu_s() -> float:
    """CPU time of this thread plus that of every child process reaped so far.

    A ``cli-cold`` op is a CLI process, which the op reaps, so the op's time
    is the child's user and system time; on an idle host that matched the
    op's wall time within 1% (0.757 s against 0.756 s, say).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


class _Tally:
    __slots__ = ("key", "count")

    def __init__(self, key, count):
        self.key = key
        self.count = count


def reference_s(clock=time.perf_counter) -> float:
    """Time one pass of the reference loop; it calls nothing from ``gostrata``.

    Small ints and short-lived tuples, then frozensets, dicts, small objects,
    sorting and a JSON round trip, each part taking about half the time.
    """
    start = clock()
    acc = 0
    for i in range(REF_ITERATIONS):
        pair = (i, i * 7 % 13)
        acc = (acc + pair[0] * pair[1]) % 1000003
    counts: dict = {}
    for i in range(REF_KEYS):
        key = frozenset((i % 7, i % 11 + 7, i % 5 + 20))
        counts[key] = counts.get(key, 0) + 1
    tallies = sorted((_Tally(k, c) for k, c in counts.items()),
                     key=lambda t: (t.count, sorted(t.key)))
    union = frozenset().union(*(t.key for t in tallies))
    rows = [{"t": sorted(t.key), "n": t.count, "in": len(t.key & union)} for t in tallies]
    back = json.loads(json.dumps(rows, sort_keys=True))
    took = clock() - start
    assert len(back) == len(counts) and acc >= 0
    return took


def timed_setup(name: str, seed: int, root: str):
    """Import the layers, build rings and datums and generate the inputs.

    Returns the scaled and the unscaled setup time, the workload and its state.
    """
    before = reference_s(cpu_s)
    start = cpu_s()
    workload = workloads.load(name, root)
    state = workload.setup(seed)
    took = cpu_s() - start
    return took * 2 * REF_NOMINAL_S / (before + reference_s(cpu_s)), took, workload, state


def probe_setup(name: str, seed: int, root: str) -> tuple[float, float]:
    """Time one setup in a fresh interpreter, so every repeat is cold."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    scaled, took = out.split()[-2:]
    return float(scaled), float(took)


def run_ops(op, state, indices, failures: list,
            clock=time.perf_counter) -> tuple[list[float], list[str]]:
    latencies, outputs = [], []
    for j in indices:
        start = clock()
        try:
            out = op(state, j)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            out = f"FAILED {type(exc).__name__}: {exc}"
            failures.append(f"op {j}: {type(exc).__name__}: {exc}")
        latencies.append(clock() - start)
        outputs.append(out)
    return latencies, outputs


def timed_loop(workload, state, seconds: float, failures: list):
    """Closed loop: whole blocks of ops until ``seconds`` have passed.

    The reference loop runs before the first block and after every
    ``workload.chunk`` ops.  Returns the scaled and the unscaled op
    latencies and the reference times, all in CPU time.
    Outputs are checked by the ops and then dropped, so memory does not grow
    with the run.
    """
    # compact arrays, so the benchmark's own memory hardly grows with the ops run
    scaled, raw = array.array("d"), array.array("d")
    refs = array.array("d", [reference_s(cpu_s)])
    start = time.perf_counter()
    # with passes, at least one group of TAIL_PASSES passes, so the tail is defined
    while time.perf_counter() - start < seconds or len(raw) < workload.pass_ops * TAIL_PASSES:
        block = []
        block_refs = refs[-1:]
        for j in range(len(raw), len(raw) + workload.block, workload.chunk):
            lat, _ = run_ops(workload.run_op, state, range(j, j + workload.chunk), failures, cpu_s)
            block += lat
            block_refs.append(reference_s(cpu_s))
        scale = REF_NOMINAL_S / statistics.median(block_refs)
        scaled.extend(t * scale for t in block)
        raw.extend(block)
        refs.extend(block_refs[1:])
    return scaled, raw, refs


def digest(outputs: list[str]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(hashlib.sha256(out.encode()).digest())
    return h.hexdigest()


def load_baseline() -> dict:
    with open(BASELINE, encoding="utf-8") as handle:
        return json.load(handle)


def golden_check(workload, state, seed: int, root: str, failures: list) -> dict:
    """Digest the default seed's first outputs and compare with the record."""
    recorded = load_baseline()
    default = recorded["default_seed"]
    if seed != default:
        state = workload.setup(default)
    _, outputs = run_ops(workload.golden_op, state, range(workload.golden_ops), failures)
    got = digest(outputs)
    want = recorded["digests"].get(workload.name)
    return {"seed": default, "ops": workload.golden_ops, "sha256": got,
            "recorded": want, "match": got == want}


def environment(root: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "seed": seed,
        "git_commit": git_commit(root),
    }


def git_commit(root: str) -> str:
    # without a .git of its own, git would search the parent directories
    if not os.path.exists(os.path.join(root, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
    except OSError:
        return "unavailable (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (git failed)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --- the two kinds of run -----------------------------------------------------


def quantile_ms(latencies, q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def op_tail_ms(latencies, workload) -> tuple[float, dict]:
    """op_tail_ms of op times in s, and how it was taken.

    Without passes it is the workload's ``tail_percentile`` of all op times.
    A workload whose ops repeat in passes of ``pass_ops`` distinct ops is cut
    into groups of TAIL_PASSES whole passes (an incomplete group at the end
    is left out).  In a group each op counts with its fastest time, so that a
    phase in which the host ran slowly for a few ms does not make a cheap op
    look expensive; the group's tail is the percentile of those ``pass_ops``
    times, and op_tail_ms is the median over the groups.
    """
    q, pass_ops = workload.tail_percentile, workload.pass_ops
    if not pass_ops:
        tail = quantile_ms(latencies, q)
        return tail, {"tail_percentile": q,
                      "samples_beyond_tail": sum(t * 1e3 > tail for t in latencies)}
    size = pass_ops * TAIL_PASSES
    tails = []
    for start in range(0, len(latencies) - size + 1, size):
        best = [min(latencies[start + r * pass_ops + i] for r in range(TAIL_PASSES))
                for i in range(pass_ops)]
        tails.append(quantile_ms(best, q))
    return statistics.median(tails), {
        "tail_percentile": q, "tail_samples": pass_ops,
        "tail_passes": TAIL_PASSES, "tail_groups": len(tails),
    }


def latency_metrics(latencies: array.array, workload) -> tuple[float, float, float, dict]:
    """ops_per_s, op_p50_ms and op_tail_ms of op times in s, and the tail's record."""
    tail_ms, tail = op_tail_ms(latencies, workload)
    return len(latencies) / sum(latencies), statistics.median(latencies) * 1e3, tail_ms, tail


def end_to_end(args, root: str) -> tuple[dict, dict]:
    failures: list[str] = []
    *first_setup, workload, state = timed_setup(args.workload, args.seed, root)
    loop_start = time.perf_counter()
    scaled, raw, refs = timed_loop(workload, state, args.seconds, failures)
    loop_wall = time.perf_counter() - loop_start
    failed = len(failures)
    if isinstance(workload, workloads.CliCold):
        peak_kib = workload.peak_child_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [tuple(first_setup)] + [
        probe_setup(args.workload, args.seed, root) for _ in range(SETUP_REPEATS - 1)
    ]
    golden = golden_check(workload, state, args.seed, root, failures)

    attempted = len(scaled)
    ops_per_s, p50_ms, tail_ms, tail = latency_metrics(scaled, workload)
    metrics = {
        "ops_per_s": metric(ops_per_s, "op/s"),
        "op_p50_ms": metric(p50_ms, "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "setup_s": metric(statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
    }
    raw_ops_per_s, raw_p50_ms, raw_tail_ms, _ = latency_metrics(raw, workload)
    detail = {
        "failed_ratio": metric(failed / attempted, "1"),
        **tail,
        "samples": attempted,
        "unscaled": {"ops_per_s": raw_ops_per_s, "op_p50_ms": raw_p50_ms,
                     "op_tail_ms": raw_tail_ms,
                     "setup_s": statistics.median(t for _, t in setups)},
        "loop_wall_s": loop_wall,
        "reference_ms_min_median_max": [min(refs) * 1e3, statistics.median(refs) * 1e3,
                                        max(refs) * 1e3],
        "setup_runs_scaled_unscaled_s": setups,
        "golden": golden,
        "failures": failures[:20],
    }
    correct = not failures and golden["match"]
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, detail


def cli_probes(workload, root: str) -> dict:
    """Bare interpreter start and ``import gostrata.cli``, each in fresh processes."""
    env = workload.env
    interp, imports = [], []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        interp.append(time.perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        imports.append(float(out))
    return {"cli.interp_s": statistics.median(interp), "cli.import_s": statistics.median(imports)}


def traced(args, root: str) -> tuple[dict, dict]:
    failures: list[str] = []
    *_, workload, state = timed_setup(args.workload, args.seed, root)
    indices = range(workload.trace_ops)
    # a first pass fills the library's caches, so neither timed pass pays for
    # that; its failures recur in the passes that count them
    run_ops(workload.golden_op, state, indices, [])
    # the two passes run seconds apart, so each is compared at reference speed
    refs = [statistics.median(reference_s() for _ in range(5))]
    start = time.perf_counter()
    plain_lat, plain_out = run_ops(workload.golden_op, state, indices, failures)
    plain_wall = time.perf_counter() - start
    refs.append(statistics.median(reference_s() for _ in range(5)))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # one more setup, now that the modules are loaded, so that the
        # setup-only functions (rings, datums, random points) are counted too
        start = time.perf_counter()
        tracer.span(tracing.SETUP, workload.setup, args.seed)
        setup_wall = time.perf_counter() - start
        refs.append(statistics.median(reference_s() for _ in range(5)))
        start = time.perf_counter()
        _, traced_out = run_ops(
            lambda st, j: tracer.span(tracing.ROOT, workload.golden_op, st, j),
            state, indices, failures,
        )
        traced_wall = time.perf_counter() - start
        refs.append(statistics.median(reference_s() for _ in range(5)))
    finally:
        tracer.uninstall()

    ops = len(indices)
    totals = tracer.function_totals()
    metrics: dict[str, dict] = {}
    for layer, entries in tracing.TRACED.items():
        layer_self = 0.0
        for fn, _, _ in entries:
            calls, own = totals[f"{layer}.{fn}"]
            metrics[f"{layer}.{fn}.calls"] = metric(calls, "count")
            metrics[f"{layer}.{fn}.self_s"] = metric(own, "s")
            layer_self += own
        metrics[f"{layer}.self_s"] = metric(layer_self, "s")
    metrics["bench.self_s"] = metric(totals[tracing.ROOT][1] + totals[tracing.SETUP][1], "s")
    ed_calls = totals["witt.elementary_divisors"][0]
    for counter in ("not_split", "errors"):
        count = tracer.counters[f"witt.{counter}"]
        metrics[f"witt.{counter}"] = metric(count, "count")
        metrics[f"witt.{counter}_per_ed"] = metric(count / ed_calls if ed_calls else 0.0, "1")
        metrics[f"witt.{counter}_per_op"] = metric(count / ops, "1")
    cli = {"cli.interp_s": 0.0, "cli.import_s": 0.0, "cli.verb_s": 0.0}
    if isinstance(workload, workloads.CliCold):
        cli.update(cli_probes(workload, root))
        cli["cli.verb_s"] = statistics.median(plain_lat)
    for name, value in cli.items():
        metrics[name] = metric(value, "s")
    metrics["trace.overhead_ratio"] = metric(
        (traced_wall / (refs[2] + refs[3])) / (plain_wall / (refs[0] + refs[1])), "1"
    )

    def share(*layers):
        own = sum(metrics[f"{layer}.self_s"]["value"] for layer in layers)
        return own / (setup_wall + traced_wall)

    predictions = {
        "witt_calls_zero": all(
            totals[name][0] == 0 for name in tracing.function_names() if name.startswith("witt.")
        ),
        "witt_dieudonne_self_share": share("witt", "dieudonne"),
        "strata_places_self_share": share("strata", "places"),
    }
    os.makedirs(os.path.join(root, ".perfbench", "traces"), exist_ok=True)
    trace_path = os.path.join(
        root, ".perfbench", "traces", f"{args.workload}-seed{args.seed}.json"
    )
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "ops": ops})
    same = digest(plain_out) == digest(traced_out)
    failed = len(failures)
    golden = golden_check(workload, state, args.seed, root, failures)
    detail = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "traced_setup_s": setup_wall,
        "traced_digest_matches_untraced": same,
        "predictions": predictions,
        "trace_file": os.path.relpath(trace_path, root),
        "golden": golden,
        "failures": failures[:20],
    }
    correct = not failures and same and golden["match"]
    return {"correct": correct, "attempted": 2 * ops, "failed": failed, "metrics": metrics}, detail


def report(result: dict, detail: dict, env: dict, args, root: str) -> None:
    for name, m in result["metrics"].items():
        print(f"{args.workload:15s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, value in detail.items():
        if name == "failed_ratio":
            print(f"{args.workload:15s} {name:36s} {value['value']:>16.6g} {value['unit']}")
        elif name != "failures":
            print(f"# {name}: {json.dumps(value)}")
    for line in detail.get("failures", []):
        print(f"# failure: {line}")
    print(f"# environment: {json.dumps(env)}")
    out_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "trace": args.trace, "environment": env,
                   "result": result, "detail": detail}, handle, indent=2)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gostrata", "__init__.py")):
        print(f"perfbench: no src/gostrata under {root}; run from a gostrata checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # One CPU for this process and the processes it starts: the two vCPUs of a
    # shared host are loaded differently, and a CLI child measured against the
    # reference loop must run where the loop ran (this cut the spread of
    # cli-cold op latencies from about 0.3 to about 0.1 of their median).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe:
        scaled, took, _, _ = timed_setup(args.workload, args.seed, root)
        print(scaled, took)
        return 0
    run = traced if args.trace else end_to_end
    result, detail = run(args, root)
    report(result, detail, environment(root, args.seed), args, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
