"""Command-line front end: strata tables, link calculus, ampleness cones,
Picard bookkeeping, point-level simulations, and a deterministic self-test.

Every verb is a thin delegation to the library; output is JSON (default),
CSV, or ASCII, with stable field ordering.  Exit codes: 0 success, 1 domain
error or failed check, 2 usage error.  Randomized verbs require --seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction

from . import dieudonne, links, picard, strata, witt
from .places import (
    ArchPlace,
    PlaceError,
    ShimuraDatum,
    build_place_system,
    datum_from_json,
    frobenius_shift,
    make_datum,
    n_tau,
)

_DOMAIN_ERRORS = (
    PlaceError,
    strata.StratumError,
    links.LinkError,
    picard.PicardError,
    witt.WittError,
    dieudonne.DieudonneError,
)


class UsageError(ValueError):
    pass


def _load_json(path: str, kind: str, parse, error: type[ValueError]):
    """Parse a JSON file; a missing or malformed field is a one-line ``error``."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        return parse(data)
    except _DOMAIN_ERRORS:
        raise
    except KeyError as exc:
        raise error(f"{kind} {path} lacks the field {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise error(f"{kind} {path} is malformed: {exc}") from None


def _load_datum(path: str | None) -> ShimuraDatum:
    if not path:
        raise UsageError("this mode requires --datum")
    return _load_json(path, "datum", datum_from_json, PlaceError)


def _load_link(path: str, validate: bool = True) -> links.Link:
    return _load_json(
        path, "link", lambda data: links.link_from_json(data, validate), links.LinkError
    )


def _default_prime(datum: ShimuraDatum, prime_id: str | None) -> str:
    if prime_id is not None:
        datum.places.prime(prime_id)
        return prime_id
    if len(datum.places.primes) != 1:
        raise UsageError("--prime is required for multi-prime datums")
    return datum.places.primes[0].id


def _require_prime(p: int) -> None:
    if not witt.isprime(p):
        raise UsageError(f"--p {p} is not a prime")


def _parse_tau(datum: ShimuraDatum, token: str, prime_id: str | None = None) -> ArchPlace:
    token = token.strip()
    pid, colon, index = token.partition(":")
    try:
        i = int(index if colon else pid)
    except ValueError:
        raise UsageError(f"place {token!r} is not an index like 1 or p1:1") from None
    tau = ArchPlace(pid if colon else _default_prime(datum, prime_id), i)
    datum.places.check_member(tau)
    return tau


def _parse_tau_list(datum: ShimuraDatum, text: str, prime_id: str | None = None):
    if not text.strip():
        return frozenset()
    return frozenset(
        _parse_tau(datum, token, prime_id) for token in text.split(",")
    )


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _tau_key(tau: ArchPlace) -> str:
    return f"{tau.prime_id}:{tau.i}"


# --- strata -------------------------------------------------------------------


def _cmd_strata(args) -> int:
    datum = _load_datum(args.datum)
    t = _parse_tau_list(datum, args.t or "")
    descriptor = strata.stratum_descriptor(datum, t)
    _emit(strata.descriptor_to_json(descriptor))
    return 0


def _table_rows(datum: ShimuraDatum):
    free = sorted(
        tau
        for tau in datum.places.arch_places()
        if tau not in datum.s.s_infty
    )
    if len(free) > 16:
        raise UsageError("table would have more than 2^16 rows")
    for size in range(len(free) + 1):
        for combo in itertools.combinations(free, size):
            t = frozenset(combo)
            descriptor = strata.stratum_descriptor(datum, t)
            yield {
                "T": [_tau_key(tau) for tau in sorted(t)],
                "S_infty": [
                    _tau_key(tau) for tau in sorted(descriptor.s_of_t.s_infty)
                ],
                "S_p": sorted(descriptor.s_of_t.s_p),
                "N": descriptor.n_bundle,
                "level": {pid: level.value for pid, level in descriptor.level_t},
            }


def _cmd_strata_table(args) -> int:
    datum = _load_datum(args.datum)
    rows = list(_table_rows(datum))
    if args.format == "json":
        _emit(rows)
    elif args.format == "csv":
        print("T,S_infty,S_p,N,level")
        for row in rows:
            level = ";".join(f"{k}={v}" for k, v in sorted(row["level"].items()))
            print(
                ",".join(
                    [
                        ";".join(row["T"]),
                        ";".join(row["S_infty"]),
                        ";".join(row["S_p"]),
                        str(row["N"]),
                        level,
                    ]
                )
            )
    else:
        for row in rows:
            level = ",".join(f"{k}={v}" for k, v in sorted(row["level"].items()))
            print(
                "T={{{}}} S_infty={{{}}} S_p={{{}}} N={} level={}".format(
                    ",".join(row["T"]),
                    ",".join(row["S_infty"]),
                    ",".join(row["S_p"]),
                    row["N"],
                    level,
                )
            )
    return 0


# --- links --------------------------------------------------------------------


def _link_payload(link: links.Link) -> dict:
    payload = links.link_to_json(link)
    payload["v"] = links.total_displacement(link)
    return payload


def _cmd_link(args) -> int:
    if args.validate:
        link = _load_link(args.validate, validate=False)
        problems = links.validate_link(link)
        payload = _link_payload(link)
        payload["problems"] = problems
        payload["warnings"] = links.link_warnings(link)
        _emit(payload)
        return 1 if problems else 0
    if args.compose:
        first = _load_link(args.compose[0])
        second = _load_link(args.compose[1])
        _emit(_link_payload(links.compose(second, first)))
        return 0
    if args.invert:
        _emit(_link_payload(links.invert(_load_link(args.invert))))
        return 0
    if args.frobenius:
        datum = _load_datum(args.datum)
        prime_id = _default_prime(datum, args.prime)
        link = links.frobenius_link(datum, prime_id, args.k)
        if args.render:
            print(links.render_link_ascii(link))
        else:
            _emit(_link_payload(link))
        return 0
    # --standard
    if args.p is not None:
        _require_prime(args.p)
    datum = _load_datum(args.datum)
    prime_id = _default_prime(datum, args.prime)
    kind = {k.value: k for k in links.MorphismKind}[args.standard]
    tau = _parse_tau(datum, args.tau, prime_id) if args.tau else None
    morphism = links.standard_morphism(
        kind, datum, prime_id, p=args.p, tau=tau, sheet=args.sheet
    )
    payload = {
        "kind": morphism.note.value,
        "link": _link_payload(morphism.link),
        "indentation": morphism.indentation,
        "degree": morphism.degree,
    }
    _emit(payload)
    return 0


# --- ample and picard ---------------------------------------------------------


def _cmd_ample(args) -> int:
    _require_prime(args.p)
    try:
        weights = [Fraction(token) for token in args.t.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--t {args.t!r} is not a comma list of rationals") from None
    datum = _load_datum(args.datum)
    basis = picard.basis_of(datum)
    inequalities = []
    for tau in basis:
        n, tau_minus, _ = n_tau(datum, tau)
        inequalities.append(
            {
                "lhs": f"{args.p**n}*t[{_tau_key(tau)}]",
                "rhs": f"t[{_tau_key(tau_minus)}]",
            }
        )
    violations = picard.ample_necessary(datum, args.p, weights)
    if args.format == "csv":
        print("lhs,rhs")
        for item in inequalities:
            print(f"{item['lhs']},{item['rhs']}")
    else:
        _emit(
            {
                "status": "fail" if violations else "pass",
                "note": "necessary condition only",
                "inequalities": inequalities,
                "violations": violations,
            }
        )
    return 1 if violations else 0


def _cmd_picard(args) -> int:
    _require_prime(args.p)
    datum = _load_datum(args.datum)
    if args.matrix:
        matrix = picard.hasse_matrix(datum, args.p)
        _emit(
            {
                "basis": [_tau_key(tau) for tau in matrix.basis],
                "rows": [[str(x) for x in row] for row in matrix.rows],
                "determinant": str(matrix.determinant()),
            }
        )
        return 0
    if args.cls:
        tau = _parse_tau(datum, args.cls)
        vector = picard.divisor_class(datum, args.p, tau)
        _emit(
            {
                "tau": _tau_key(tau),
                "coeffs": {
                    _tau_key(key): str(value) for key, value in vector.coeffs
                },
            }
        )
        return 0
    # --fiber-degree
    tau = _parse_tau(datum, args.fiber_degree)
    vector = picard.divisor_class(datum, args.p, tau)
    degree = picard.fiber_degree(datum, args.p, vector, tau)
    payload = {"tau": _tau_key(tau), "self_fiber_degree": str(degree)}
    free = [
        t
        for t in datum.places.arch_places(tau.prime_id)
        if t not in datum.s.s_infty
    ]
    if len(free) > 1:
        payload["normal_bundle"] = picard.normal_bundle_class(datum, args.p, tau)
    _emit(payload)
    return 0


# --- dieudonne ----------------------------------------------------------------


def _simulation_datum(f: int, split: bool) -> ShimuraDatum:
    return make_datum(build_place_system([(f, split)]))


def _cmd_dieudonne(args) -> int:
    _require_prime(args.p)
    if args.N < 2:
        raise UsageError(f"--N {args.N} must be at least 2")
    if args.f < 1:
        raise UsageError(f"--f {args.f} must be at least 1")
    if args.trials < 0:
        raise UsageError(f"--trials {args.trials} must not be negative")
    split = not args.inert if (args.split or args.inert) else (args.f % 2 == 0)
    datum = _simulation_datum(args.f, split)
    ring = dieudonne.ring_for_datum(datum, args.p, args.N)
    rng = random.Random(args.seed)
    if args.classify:
        pt = dieudonne.random_point(rng, ring, datum)
        _emit(
            {
                "signature": {
                    f"{emb.sheet}:{emb.i}": value for emb, value in pt.signature.s
                },
                "stratum": [_tau_key(tau) for tau in sorted(dieudonne.stratum_of_point(pt))],
            }
        )
        return 0
    if args.twist:
        for _ in range(args.trials):
            pt = dieudonne.random_point(rng, ring, datum)
            twisted = dieudonne.twisted_partial_frobenius(pt)
            shifted = {
                frobenius_shift(datum.places, tau, 2)
                for tau in dieudonne.stratum_of_point(pt)
            }
            if dieudonne.stratum_of_point(twisted) != shifted:
                print(f"twist mismatch after {args.trials} trials")
                return 1
        print(f"{args.trials}/{args.trials} twists consistent")
        return 0
    # --roundtrip
    passed = 0
    for _ in range(args.trials):
        pt = dieudonne.random_point(rng, ring, datum)
        stratum = sorted(dieudonne.stratum_of_point(pt))
        for size in range(1, len(stratum) + 1):
            for combo in itertools.combinations(stratum, size):
                dieudonne.verify_roundtrip(pt, frozenset(combo))
        passed += 1
    print(f"{passed}/{args.trials} roundtrips exact")
    return 0


# --- selftest -----------------------------------------------------------------


def _selftest_checks(quick: bool):
    def quartic_table():
        datum = _simulation_datum(4, False)
        taus = datum.places.arch_places("p1")
        one = strata.stratum_descriptor(datum, frozenset({taus[1]}))
        assert one.s_of_t.s_infty == {taus[0], taus[1]} and one.n_bundle == 1
        far = strata.stratum_descriptor(datum, frozenset({taus[1], taus[3]}))
        assert far.s_of_t.s_infty == set(taus) and far.n_bundle == 2
        full = strata.stratum_descriptor(datum, frozenset(taus))
        assert full.n_bundle == 0
        assert full.level_at("p1").value == "iwahori"

    def decade_example():
        system = build_place_system([(10, True)])
        datum = make_datum(
            system, {ArchPlace("p1", (-2) % 10), ArchPlace("p1", (-6) % 10)}
        )
        t = frozenset(ArchPlace("p1", k % 10) for k in (-3, -5, -7))
        descriptor = strata.stratum_descriptor(datum, t)
        expected = frozenset(ArchPlace("p1", k % 10) for k in (-3, -4, -5, -7))
        assert descriptor.t_prime_at("p1") == expected
        assert descriptor.i_t == {ArchPlace("p1", (-4) % 10)}
        assert descriptor.n_bundle == 1

    def link_figure():
        source = links.Band(5, frozenset({0, 2, 4}))
        target = links.Band(5, frozenset({0, 2, 3}))
        link = links.make_link(source, target, {0: 3, 2: 3, 4: 3})
        assert links.validate_link(link) == []
        assert links.total_displacement(link) == 9
        assert links.total_displacement(links.invert(link)) == -9
        both = links.compose(links.invert(link), link)
        assert links.total_displacement(both) == 0

    def witt_substrate():
        ring = witt.witt_ring(3, 2, 2)
        assert ring.modulus == (1, 0, 1)
        assert witt.frobenius(ring, ring.gen()) == ring.neg(ring.gen())

    def ample_cone():
        datum = _simulation_datum(2, True)
        assert picard.ample_necessary(datum, 3, [Fraction(1), Fraction(1)]) == []
        assert len(picard.ample_necessary(datum, 3, [Fraction(1), Fraction(5)])) == 1

    def point_roundtrips():
        for f, split in [(2, True), (3, False)]:
            datum = _simulation_datum(f, split)
            ring = dieudonne.ring_for_datum(datum, 3)
            half = dieudonne.half_system(datum)
            f_mats = {emb: witt.mat2(ring, [[0, 1], [3, 0]]) for emb in half}
            pairings = {
                emb: witt.mat2(ring, [[0, 1], [ring.pn - 1, 0]]) for emb in half
            }
            signature = {emb: 1 for emb in datum.places.embeddings()}
            pt = dieudonne.point_from_half_system(
                ring, datum, f_mats, pairings, signature
            )
            t = frozenset(datum.places.arch_places("p1"))
            assert dieudonne.stratum_of_point(pt) == t
            dieudonne.verify_roundtrip(pt, t)

    checks = [
        ("quartic-table", quartic_table),
        ("chain-example", decade_example),
        ("link-figure", link_figure),
        ("witt-substrate", witt_substrate),
        ("ample-cone", ample_cone),
    ]
    if not quick:
        checks.append(("point-roundtrips", point_roundtrips))
    return checks


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks(args.quick):
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            print(f"FAIL - {name}: {exc}")
            failures += 1
        else:
            print(f"ok - {name}")
    return 1 if failures else 0


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gostrata",
        description="Stratification, link calculus, and point simulation toolkit.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_strata = sub.add_parser("strata", help="describe one stratum")
    p_strata.add_argument("--datum", required=True, help="datum JSON file")
    p_strata.add_argument("--T", dest="t", default="", help="comma list of places, e.g. 1,3 or p1:1")
    p_strata.set_defaults(func=_cmd_strata)

    p_table = sub.add_parser("strata-table", help="tabulate all strata")
    p_table.add_argument("--datum", required=True)
    p_table.add_argument("--format", choices=("ascii", "json", "csv"), default="ascii")
    p_table.set_defaults(func=_cmd_strata_table)

    p_link = sub.add_parser("link", help="link calculus")
    mode = p_link.add_mutually_exclusive_group(required=True)
    mode.add_argument("--validate", metavar="FILE")
    mode.add_argument("--compose", nargs=2, metavar=("FIRST", "SECOND"))
    mode.add_argument("--invert", metavar="FILE")
    mode.add_argument("--frobenius", action="store_true")
    mode.add_argument(
        "--standard",
        choices=[k.value for k in links.MorphismKind],
        help="one of the standard correspondences",
    )
    p_link.add_argument("--datum")
    p_link.add_argument("--prime")
    p_link.add_argument("--k", type=int, default=1)
    p_link.add_argument("--tau")
    p_link.add_argument("--p", type=int)
    p_link.add_argument("--sheet", type=int)
    p_link.add_argument("--render", action="store_true")
    p_link.set_defaults(func=_cmd_link)

    p_ample = sub.add_parser("ample", help="necessary ampleness inequalities")
    p_ample.add_argument("--datum", required=True)
    p_ample.add_argument("--p", type=int, required=True)
    p_ample.add_argument("--t", required=True, help="comma list of rational weights")
    p_ample.add_argument("--format", choices=("json", "csv"), default="json")
    p_ample.set_defaults(func=_cmd_ample)

    p_picard = sub.add_parser("picard", help="rational Picard bookkeeping")
    p_picard.add_argument("--datum", required=True)
    p_picard.add_argument("--p", type=int, required=True)
    pmode = p_picard.add_mutually_exclusive_group(required=True)
    pmode.add_argument("--matrix", action="store_true")
    pmode.add_argument("--class", dest="cls", metavar="TAU")
    pmode.add_argument("--fiber-degree", dest="fiber_degree", metavar="TAU")
    p_picard.set_defaults(func=_cmd_picard)

    p_d = sub.add_parser("dieudonne", help="point-level simulations")
    dmode = p_d.add_mutually_exclusive_group(required=True)
    dmode.add_argument("--classify", action="store_true")
    dmode.add_argument("--roundtrip", action="store_true")
    dmode.add_argument("--twist", action="store_true")
    p_d.add_argument("--seed", type=int, required=True)
    p_d.add_argument("--p", type=int, required=True)
    p_d.add_argument("--f", type=int, required=True)
    p_d.add_argument("--N", type=int, default=8)
    p_d.add_argument("--trials", type=int, default=20)
    split_group = p_d.add_mutually_exclusive_group()
    split_group.add_argument("--split", action="store_true")
    split_group.add_argument("--inert", action="store_true")
    p_d.set_defaults(func=_cmd_dieudonne)

    p_self = sub.add_parser("selftest", help="deterministic verification suite")
    p_self.add_argument("--quick", action="store_true")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
