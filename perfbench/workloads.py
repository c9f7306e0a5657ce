"""The benchmark workloads, driven through the public ``gostrata`` API.

Each workload is a closed loop with one client.  ``setup(seed)`` imports the
layers it needs, builds rings and datums and generates every input from the
seed; ``run_op(state, j)`` performs op ``j`` (ops cycle through the generated
inputs), checks it by a mathematical property and returns a text rendering of
its outputs for the digest.  A failed check raises ``CheckFailed``.
``block`` ops make one balanced mix of the inputs, and the loop checks the
clock only between blocks; ``chunk`` ops run between two measurements of the
host-speed reference loop.  ``tail_percentile`` is the percentile
op_tail_ms reports, fixed so that a run's percentile does not move with its
op count: at least ten of the ops of the shortest 20 s run seen lie beyond
it.  Ops that repeat in passes of ``pass_ops`` distinct ops (0: they do not)
get their tail taken over passes.

Library functions are always called through their module (``D.random_point``,
never a name imported into this file), so the tracer's patches see every call.
Each ``setup`` binds the modules it needs as globals of this file at call
time, so that ``setup_s`` includes the import and ``strata-sweep`` never
loads ``gostrata.witt``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction


class CheckFailed(AssertionError):
    """An op ran but its output violates the workload's property."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rng(seed: int, *key) -> random.Random:
    # str seeds are hashed with sha512, so this is independent of PYTHONHASHSEED
    return random.Random(":".join(str(part) for part in (seed, *key)))


def _rotated(system, pattern, rng) -> set:
    """The places ``pattern`` of the single prime, turned by a seeded offset."""
    f = system.primes[0].f
    offset = rng.randrange(f)
    return {P.ArchPlace("p1", (offset + i) % f) for i in pattern}


# --- roundtrip ----------------------------------------------------------------


class Roundtrip:
    """Criterion-6 corpus shape: every T in the stratum of a point, roundtripped.

    Nine (p, f) configurations, split iff f is even, N = 8, S empty.  Round r
    takes one point per configuration, from the antidiagonal/diagonal
    templates when (config + r) is even and from ``random_point`` otherwise.
    Template points vanish at ceil(f/2) consecutive places from a seeded
    start.  A random point is the one with the smallest stratum among
    ``DRAWS`` draws, so setup makes the same number of draws for every seed.
    One draw has an empty stratum in 479 of 540 draws (60 per configuration;
    36 of 60 at p=2, f=2, the worst); over seeds 1-40 all 360 kept points
    had an empty stratum.  An op costs about 2^|stratum| roundtrips; fixing the
    stratum shapes keeps the work of a round the same for every seed.
    """

    name = "roundtrip"
    # ordered so that every block of three meets each p and each f once
    CONFIGS = ((2, 2), (3, 3), (5, 4), (3, 2), (5, 3), (2, 4), (5, 2), (2, 3), (3, 4))
    N = 8
    ROUNDS = 2
    DRAWS = 4
    block = ROUNDS * len(CONFIGS)
    chunk = 1
    tail_percentile = 88  # 90 ops
    pass_ops = 0
    trace_ops = ROUNDS * len(CONFIGS)
    golden_ops = len(CONFIGS)

    def setup(self, seed: int):
        global D, P, W
        from gostrata import dieudonne as D, places as P, witt as W

        contexts = []
        for p, f in self.CONFIGS:
            datum = P.make_datum(P.build_place_system([(f, f % 2 == 0)]), ())
            contexts.append((p, datum, D.ring_for_datum(datum, p, self.N)))
        pool = []
        for r in range(self.ROUNDS):
            for c, (p, datum, ring) in enumerate(contexts):
                rng = _rng(seed, self.name, r, c)
                if (c + r) % 2 == 0:
                    pt = self._template_point(rng, ring, datum, p)
                    stratum = D.stratum_of_point(pt)
                else:
                    draws = [D.random_point(rng, ring, datum) for _ in range(self.DRAWS)]
                    pt, stratum = min(
                        ((pt, D.stratum_of_point(pt)) for pt in draws),
                        key=lambda drawn: len(drawn[1]),
                    )
                pool.append((pt, stratum))
        return pool

    @staticmethod
    def _template_point(rng, ring, datum, p):
        f = datum.places.primes[0].f
        vanish = {tau.i for tau in _rotated(datum.places, range((f + 1) // 2), rng)}
        half = D.half_system(datum)
        f_mats = {
            emb: W.mat2(ring, [[0, 1], [p, 0]] if k in vanish else [[1, 0], [0, p]])
            for k, emb in enumerate(half)
        }
        pairings = {emb: W.mat2(ring, [[0, 1], [ring.pn - 1, 0]]) for emb in half}
        signature = {emb: 1 for emb in datum.places.embeddings()}
        return D.point_from_half_system(ring, datum, f_mats, pairings, signature)

    def run_op(self, pool, j: int) -> str:
        pt, stratum = pool[j % len(pool)]
        ordered = sorted(stratum)
        rows = []
        for size in range(len(ordered) + 1):
            for combo in itertools.combinations(ordered, size):
                back = D.verify_roundtrip(pt, frozenset(combo))
                _check(back.signature == pt.signature, f"signature changed for T={combo}")
                _check(D.stratum_of_point(back) == stratum, f"stratum changed for T={combo}")
                rows.append(json.dumps(D.point_to_json(back), sort_keys=True))
        return "\n".join(rows)

    golden_op = run_op


# --- classify-twist -----------------------------------------------------------


class ClassifyTwist:
    """Draw a point, classify it and twist it by sigma^2, at large m and N.

    One-prime datums with nonempty S_infty (signature 0/2 spots), up to
    inert f = 4 (m = 8) at p = 2 and 3, at N = 16.  Op j draws a point from
    its own seeded generator, so no op depends on the ones before it.  The twist must move
    the stratum by sigma^2 (criterion 8).  No lattice-stability checks run.
    """

    name = "classify-twist"
    # (p, f, split, S_infty pattern up to rotation): m = 8, 6, 5, 6, 8, with
    # m = 8 at both p = 3 and p = 2.  Ops cost about 77, 43, 39, 72 and 70 ms
    # (scaled), so the median op falls inside the 70-77 ms group of three
    # rather than in a gap between two costs.
    DATUMS = (
        (3, 4, False, (0,)),
        (5, 3, False, (1,)),
        (2, 5, True, (0, 2)),
        (3, 6, True, (0, 3)),
        (2, 4, False, (0,)),
    )
    N = 16
    block = len(DATUMS)
    chunk = 1
    tail_percentile = 95  # 205 ops
    pass_ops = 0
    trace_ops = 4 * len(DATUMS)
    golden_ops = len(DATUMS)

    def setup(self, seed: int):
        global D, P
        from gostrata import dieudonne as D, places as P

        contexts = []
        for k, (p, f, split, pattern) in enumerate(self.DATUMS):
            system = P.build_place_system([(f, split)])
            datum = P.make_datum(system, _rotated(system, pattern, _rng(seed, self.name, k)))
            contexts.append((datum, D.ring_for_datum(datum, p, self.N)))
        return seed, contexts

    def run_op(self, state, j: int) -> str:
        seed, contexts = state
        datum, ring = contexts[j % len(contexts)]
        pt = D.random_point(_rng(seed, self.name, "op", j), ring, datum)
        stratum = D.stratum_of_point(pt)
        twisted = D.twisted_partial_frobenius(pt)
        system = datum.places
        _check(
            D.stratum_of_point(twisted)
            == frozenset(P.frobenius_shift(system, tau, 2) for tau in stratum),
            "twist did not shift the stratum by sigma^2",
        )
        return json.dumps(D.point_to_json(twisted), sort_keys=True)

    golden_op = run_op


# --- strata-sweep -------------------------------------------------------------


class StrataSweep:
    """Subsets T of the free places, for datums with 12-14 free places.

    Ops interleave the four datums.  Each datum sweeps a seeded sample of
    ``SAMPLE`` of its 2^k subsets, over and over, so a pass of ``pass_ops``
    ops meets every sampled T once; the seed also rotates the S_infty
    pattern around the cycle.  A datum's first op in each pass also runs
    its Picard and link bookkeeping.
    The documented StratumError for split B2 targets is an expected outcome.
    No Witt ring is involved: ``gostrata.witt`` is not even imported.
    """

    name = "strata-sweep"
    # (f, split, S_infty pattern up to rotation): 13, 12, 14 and 13 free places
    DATUMS = ((13, True, ()), (12, False, ()), (16, True, (0, 3)), (15, False, (0, 7)))
    SAMPLE = 512
    block = 64 * len(DATUMS)
    chunk = 32
    tail_percentile = 99  # over the 2048 ops of a pass
    pass_ops = SAMPLE * len(DATUMS)
    trace_ops = 4096
    golden_ops = 256

    def setup(self, seed: int):
        global S, P, L, Pic
        from gostrata import links as L, picard as Pic, places as P, strata as S

        contexts = []
        for k, (f, split, pattern) in enumerate(self.DATUMS):
            rng = _rng(seed, self.name, k)
            system = P.build_place_system([(f, split)])
            s_infty = _rotated(system, pattern, rng)
            datum = P.make_datum(system, s_infty)
            free = sorted(set(system.arch_places("p1")) - s_infty)
            order = list(range(2 ** len(free)))
            rng.shuffle(order)
            del order[self.SAMPLE:]
            p = rng.choice((2, 3, 5))
            weights = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in free]
            contexts.append((datum, free, order, p, weights))
        return contexts

    def run_op(self, contexts, j: int) -> str:
        datum, free, order, p, weights = contexts[j % len(contexts)]
        k = j // len(contexts) % self.SAMPLE
        head = self._datum_checks(datum, free, p, weights) if k == 0 else ""
        mask = order[k]
        t = frozenset(tau for i, tau in enumerate(free) if mask >> i & 1)
        descriptor = S.stratum_descriptor(datum, t)
        row = json.dumps(S.descriptor_to_json(descriptor), sort_keys=True)
        try:
            lift = S.lift_assignment(datum, descriptor)
        except S.StratumError:
            split = datum.places.primes[0].e_split
            _check(
                split and descriptor.case_at("p1") is S.CaseTag.B2,
                "StratumError outside the split B2 case",
            )
            return head + row + " unliftable"
        delta = S.delta_sets(datum, descriptor, lift)
        system = datum.places
        base = S.signature_from_lift(
            datum,
            frozenset(
                e for e in lift.s_tilde_of_t if P.restrict(system, e) in datum.s.s_infty
            ),
        )
        _check(
            S.dimension_count_check(datum, base, delta)
            == S.signature_from_lift(datum, lift.s_tilde_of_t),
            "dimension count does not transfer the signature",
        )
        _check(descriptor.n_bundle == len(descriptor.i_t), "N differs from |I_T|")
        return head + row

    golden_op = run_op

    @staticmethod
    def _datum_checks(datum, free, p, weights) -> str:
        split = datum.places.primes[0].e_split
        det = Pic.hasse_matrix(datum, p).determinant()
        _check(det != 0, "singular Hasse relation matrix")
        for tau in free:
            n = P.n_tau(datum, tau)[0]
            cls = Pic.divisor_class(datum, p, tau)
            _check(sum(c for _, c in cls.coeffs) == p**n - 1, f"divisor class at {tau}")
        violations = Pic.ample_necessary(datum, p, weights)
        _check(bool(violations) or all(w > 0 for w in weights), "nonpositive ample weight")
        band = L.band_of(datum, "p1")
        for tau in free:
            n, _, tau_plus = P.n_tau(datum, tau)
            n_plus = P.n_tau(datum, tau_plus)[0]
            eta = L.standard_morphism(L.MorphismKind.ETA_TAU_MINUS_PLUS, datum, "p1", p=p, tau=tau)
            _check(L.total_displacement(eta.link) == n + n_plus, f"eta displacement at {tau}")
            _check(eta.degree == p ** (n + n_plus), f"eta degree at {tau}")
            both = L.compose(eta.link, L.identity_link(eta.link.source))
            _check(L.total_displacement(both) == n + n_plus, f"composite displacement at {tau}")
            _, indent = L.induced_link(L.identity_link(band), datum, "p1", tau, 5)
            _check(indent == (5 if split else 0), f"induced indentation at {tau}")
        return f"det={det} violations={len(violations)}\n"


# --- cli-cold -----------------------------------------------------------------


class CliCold:
    """One fresh ``python -m gostrata.cli`` process per op, run sequentially.

    The verbs rotate through strata-table (quartic), link --validate, ample,
    picard --matrix, a small dieudonne --classify and selftest --quick, with
    seeded datums, links, weights and seeds.  Each op must reproduce the exit
    code and stdout of the same argv run in-process during setup, and satisfy
    the verb's own property.
    """

    name = "cli-cold"
    VERBS = ("strata-table", "link", "ample", "picard", "dieudonne", "selftest")
    ROUNDS = 2
    block = len(VERBS)
    chunk = 1
    tail_percentile = 58  # 24 ops
    pass_ops = 0
    trace_ops = 4 * ROUNDS * len(VERBS)
    golden_ops = ROUNDS * len(VERBS)

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.peak_child_rss_kib = 0

    def setup(self, seed: int):
        global cli
        from gostrata import cli

        work = os.path.join(self.root, ".perfbench", "work", f"{self.name}-{seed}")
        os.makedirs(work, exist_ok=True)
        ops = []
        for r in range(self.ROUNDS):
            for verb in self.VERBS:
                argv = self._argv(_rng(seed, self.name, r, verb), verb, work, r)
                code, out = self.in_process(argv)
                ops.append((argv, code, out))
        return ops

    def _argv(self, rng, verb: str, work: str, r: int) -> list[str]:
        def datum_file(f, split, n_s):
            infty = sorted(["p1", i] for i in rng.sample(range(f), n_s))
            path = os.path.join(work, f"{verb}-{r}.json")
            spec = {
                "primes": [{"id": "p1", "f": f, "e_split": split}],
                "S": {"infty": infty, "p": [], "n_other": len(infty) % 2},
                "level": {},
            }
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(spec, handle)
            return path

        split = bool(rng.randrange(2))
        if verb == "strata-table":
            return [verb, "--datum", datum_file(4, split, rng.randrange(2)), "--format", "json"]
        if verb == "link":
            n = rng.randrange(3, 10)
            nodes = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            shift = rng.randrange(n)
            path = os.path.join(work, f"link-{r}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "n": n,
                        "source_nodes": nodes,
                        "target_nodes": sorted((v + shift) % n for v in nodes),
                        "disp": {str(v): shift for v in nodes},
                    },
                    handle,
                )
            return [verb, "--validate", path]
        p = str(rng.choice((2, 3, 5)))
        if verb == "ample":
            f = rng.randrange(2, 7)
            n_s = rng.randrange(f)
            weight = str(rng.randrange(1, 10))
            return [verb, "--datum", datum_file(f, split, n_s), "--p", p,
                    "--t", ",".join([weight] * (f - n_s))]
        if verb == "picard":
            f = rng.randrange(2, 9)
            return [verb, "--datum", datum_file(f, split, rng.randrange(f)), "--p", p, "--matrix"]
        if verb == "dieudonne":
            return [verb, "--classify", "--seed", str(rng.randrange(10**6)), "--p", p,
                    "--f", str(rng.randrange(2, 4))]
        return [verb, "--quick"]

    @staticmethod
    def in_process(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_op(self, ops, j: int) -> str:
        argv, code, expected = ops[j % len(ops)]
        got_code, got, rss = self.spawn(argv)
        self.peak_child_rss_kib = max(self.peak_child_rss_kib, rss)
        _check(got_code == code, f"{argv[0]} exited {got_code}, expected {code}")
        _check(got == expected, f"{argv[0]} stdout differs from the in-process run")
        self._check_verb(argv, code, got)
        return got

    def golden_op(self, ops, j: int) -> str:
        """The same argv run in-process: what tracing and the digest see."""
        argv, code, expected = ops[j % len(ops)]
        got_code, got = self.in_process(argv)
        _check((got_code, got) == (code, expected), f"{argv[0]} is not deterministic")
        self._check_verb(argv, code, got)
        return f"{code}\n{got}"

    def spawn(self, argv: list[str]) -> tuple[int, str, int]:
        """Run one CLI process; return its exit code, stdout and peak RSS (KiB)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "gostrata.cli", *argv],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    @staticmethod
    def _check_verb(argv: list[str], code: int, out: str) -> None:
        verb = argv[0]
        if verb == "selftest":
            lines = out.splitlines()
            _check(code == 0 and len(lines) == 5, "selftest --quick did not pass 5 checks")
            _check(all(line.startswith("ok - ") for line in lines), "selftest reported a failure")
            return
        payload = json.loads(out)
        if verb == "strata-table":
            with open(argv[2], encoding="utf-8") as handle:
                n_s = len(json.load(handle)["S"]["infty"])
            _check(len(payload) == 2 ** (4 - n_s), "strata table row count")
        elif verb == "link":
            _check(payload["problems"] == [], "rotation link reported invalid")
            _check(payload["v"] == sum(payload["disp"].values()), "total displacement")
        elif verb == "ample":
            weights = [Fraction(w) for w in argv[argv.index("--t") + 1].split(",")]
            _check(payload["violations"] or all(w > 0 for w in weights), "ample cone sign")
            _check(len(payload["inequalities"]) == len(weights), "one inequality per free place")
        elif verb == "picard":
            _check(payload["determinant"] != "0", "singular Hasse relation matrix")
            _check(len(payload["rows"]) == len(payload["basis"]), "matrix not square")
        elif verb == "dieudonne":
            _check(set(payload["signature"].values()) == {1}, "S-empty point off signature 1")


CLASSES = {w.name: w for w in (Roundtrip, ClassifyTwist, StrataSweep, CliCold)}
NAMES = tuple(CLASSES)


def load(name: str, root: str):
    if name == CliCold.name:
        return CliCold(root)
    return CLASSES[name]()
