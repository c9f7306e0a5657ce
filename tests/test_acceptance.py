"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion N: PASS`` line on success; a failing
criterion fails its test.  The numbered guarantees cover the quartic stratum
table, the decic worked example, link displacement arithmetic, the run and
dimension-count lemmas, Dieudonne point roundtrips with the essential
Frobenius identities and the twisted partial Frobenius, Picard-group
consistency, the Witt-vector substrate, and the indentation arithmetic of the
standard correspondences.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from gostrata.dieudonne import (
    _close,
    essential_frobenius_matrix,
    essential_verschiebung_matrix,
    half_system,
    point_from_half_system,
    random_point,
    ring_for_datum,
    stratum_of_point,
    twisted_partial_frobenius,
    v_matrix,
    verify_roundtrip,
)
from gostrata.links import (
    Band,
    LinkError,
    MorphismKind,
    band_of,
    compose,
    identity_link,
    induced_link,
    invert,
    make_link,
    standard_morphism,
    total_displacement,
    validate_link,
)
from gostrata.picard import (
    ample_necessary,
    divisor_class,
    fiber_degree,
    hasse_matrix,
    normal_bundle_class,
)
from gostrata.places import (
    ArchPlace,
    build_place_system,
    canonical_lift,
    conjugate,
    frobenius_shift,
    make_datum,
    n_tau,
    restrict,
)
from gostrata.strata import (
    CaseTag,
    StratumError,
    delta_sets,
    dimension_count_check,
    lift_assignment,
    signature_from_lift,
    stratum_descriptor,
)
from gostrata.witt import (
    frobenius,
    mat2,
    mat_identity,
    mat_mul,
    mat_sigma,
    mat_smul,
    mat_pack,
    mat_unpack,
    witt_ring,
)


def _places(f: int, indices) -> frozenset[ArchPlace]:
    return frozenset(ArchPlace("p1", i % f) for i in indices)


def _sweep_datums():
    """All single-prime datums with f <= 8: every split flag, S and T."""
    for f in range(1, 9):
        for split in (True, False):
            system = build_place_system([(f, split)])
            places = [ArchPlace("p1", i) for i in range(f)]
            for assign in itertools.product((0, 1, 2), repeat=f):
                s_set = {places[i] for i in range(f) if assign[i] == 1}
                t = frozenset(places[i] for i in range(f) if assign[i] == 2)
                yield f, split, make_datum(system, s_set), t


def _lifted_sweep():
    """The sweep together with lift and delta data; skips the impossible
    split full-cycle odd-parity configurations."""
    for f, split, datum, t in _sweep_datums():
        descriptor = stratum_descriptor(datum, t)
        try:
            lift = lift_assignment(datum, descriptor)
        except StratumError:
            # a ramified-prime target needs the prime inert upstairs
            assert split and descriptor.case_at("p1") is CaseTag.B2
            continue
        delta = delta_sets(datum, descriptor, lift)
        yield datum, descriptor, lift, delta


# --- randomized Dieudonne point corpus (criteria 6-8) -------------------------

_CORPUS: list = []


def _scrambled_vanish(rng, f: int) -> set[int]:
    return {k for k in range(f) if rng.randrange(2)}


def _template_point(rng, ring, datum, p):
    """A point whose Hasse invariants vanish at a randomly chosen set of
    places: antidiagonal template at the chosen half-system spots, diagonal
    at the rest."""
    f = datum.places.primes[0].f
    vanish = _scrambled_vanish(rng, f)
    half = half_system(datum)
    f_mats = {}
    for k, emb in enumerate(half):
        if k in vanish:
            f_mats[emb] = mat2(ring, [[0, 1], [p, 0]])
        else:
            f_mats[emb] = mat2(ring, [[1, 0], [0, p]])
    pairings = {emb: mat2(ring, [[0, 1], [ring.pn - 1, 0]]) for emb in half}
    signature = {emb: 1 for emb in datum.places.embeddings()}
    return point_from_half_system(ring, datum, f_mats, pairings, signature)


def _corpus():
    """100 randomized points per (p, f) configuration at N=8: half generic
    scrambles, half randomized stratum templates for deep-stratum coverage."""
    if _CORPUS:
        return _CORPUS
    for p in (2, 3, 5):
        for f in (2, 3, 4):
            split = f % 2 == 0
            system = build_place_system([(f, split)])
            datum = make_datum(system, ())
            ring = ring_for_datum(datum, p, 8)
            rng = random.Random(10_000 * p + f)
            for k in range(100):
                if k % 2 == 0:
                    pt = random_point(rng, ring, datum)
                else:
                    pt = _template_point(rng, ring, datum, p)
                _CORPUS.append((ring, datum, pt, stratum_of_point(pt)))
    return _CORPUS


# --- criterion 1: quartic stratum table ---------------------------------------


def _expected_quartic_rows() -> list[dict]:
    rows = []
    for bits in range(16):
        t = sorted(i for i in range(4) if bits >> i & 1)
        if len(t) == 0:
            s, n = [], 0
        elif len(t) == 1:
            s, n = sorted({(t[0] - 1) % 4, t[0]}), 1
        elif len(t) == 2 and (t[1] - t[0]) % 4 != 2:
            s, n = t, 0
        elif len(t) == 2:
            s, n = [0, 1, 2, 3], 2
        elif len(t) == 3:
            s, n = [0, 1, 2, 3], 1
        else:
            s, n = [0, 1, 2, 3], 0
        rows.append(
            {
                "T": [f"p1:{i}" for i in t],
                "S_infty": [f"p1:{i}" for i in s],
                "S_p": [],
                "N": n,
                "level": {"p1": "iwahori" if len(t) == 4 else "hyperspecial"},
            }
        )
    rows.sort(key=lambda row: (len(row["T"]), row["T"]))
    return rows


def test_criterion_01_quartic_table(tmp_path: Path) -> None:
    datum_path = tmp_path / "quartic.json"
    datum_path.write_text(
        json.dumps(
            {
                "primes": [{"id": "p1", "f": 4, "e_split": False}],
                "S": {"infty": [], "p": [], "n_other": 0},
                "level": {},
            }
        ),
        encoding="utf-8",
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gostrata.cli", "strata-table", "--datum",
         str(datum_path), "--format", "json"],
        text=True,
        capture_output=True,
        check=False,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _expected_quartic_rows()
    assert elapsed < 1.0
    print(f"criterion 1: PASS - quartic table, 16 exact rows in {elapsed:.2f}s")


# --- criterion 2: decic worked example ----------------------------------------


def test_criterion_02_decic_example() -> None:
    system = build_place_system([(10, True)])
    datum = make_datum(system, _places(10, [-2, -6]))
    descriptor = stratum_descriptor(datum, _places(10, [-3, -5, -7]))
    assert descriptor.t_prime_infty["p1"] == _places(10, [-3, -4, -5, -7])
    assert descriptor.i_t == _places(10, [-4])
    assert descriptor.n_bundle == 1
    print("criterion 2: PASS - decic example, T' and I_T exact, N=1")


# --- criterion 3: link figure and displacement additivity ---------------------


def _random_band(rng) -> Band:
    n = rng.randrange(1, 13)
    return Band(n, frozenset(rng.sample(range(n), rng.randrange(0, n + 1))))


def _random_link_from(rng, source: Band):
    n = source.n
    src = sorted(source.nodes)
    if not src:
        return make_link(source, Band(n, frozenset()), {})
    for _ in range(50):
        tgt = sorted(rng.sample(range(n), len(src)))
        j = rng.randrange(len(src))
        disp = {
            v: (tgt[(idx + j) % len(src)] - v) % n for idx, v in enumerate(src)
        }
        try:
            return make_link(source, Band(n, frozenset(tgt)), disp)
        except LinkError:
            continue
    return None


def test_criterion_03_link_figure_and_additivity() -> None:
    start = time.perf_counter()
    figure = make_link(
        Band(5, frozenset({0, 2, 4})),
        Band(5, frozenset({0, 2, 3})),
        {0: 3, 2: 3, 4: 3},
    )
    assert validate_link(figure) == []
    assert total_displacement(figure) == 9
    assert total_displacement(invert(figure)) == -9
    assert total_displacement(compose(invert(figure), figure)) == 0

    rng = random.Random(314159)
    pairs = 0
    while pairs < 10_000:
        first = _random_link_from(rng, _random_band(rng))
        if first is None:
            continue
        second = _random_link_from(rng, first.target)
        if second is None:
            continue
        both = compose(second, first)
        assert total_displacement(both) == (
            total_displacement(first) + total_displacement(second)
        )
        pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"criterion 3: PASS - figure v=9/-9/0 and {pairs} additive "
        f"compositions in {elapsed:.2f}s"
    )


# --- criterion 4: run lemmas --------------------------------------------------


def test_criterion_04_run_lemmas() -> None:
    start = time.perf_counter()
    checked = 0
    for datum, descriptor, lift, delta in _lifted_sweep():
        system = datum.places
        t_prime_e = {
            e
            for e in system.embeddings()
            if restrict(system, e) in descriptor.t_prime_infty["p1"]
        }
        marked = lift.s_tilde_of_t - {
            canonical_lift(system, tau) for tau in datum.s.s_infty
        }
        marked_conj = {conjugate(system, e) for e in marked}
        for part in (delta.minus, delta.plus):
            for emb in part:
                up = frobenius_shift(system, emb, 1)
                # interior members restrict into the ramified set
                if up in part:
                    assert restrict(system, emb) in datum.s.s_infty
                    continue
                # run heads: walk back out of the run
                n = 1
                while frobenius_shift(system, emb, -n) in part:
                    n += 1
                assert frobenius_shift(system, emb, -n) in t_prime_e
                if emb in t_prime_e:
                    assert n == n_tau(datum, restrict(system, emb))[0]
        for emb in system.embeddings():
            up = frobenius_shift(system, emb, 1)
            if emb in delta.minus and up not in delta.minus:
                assert emb in marked
            if emb not in delta.minus and up in delta.minus:
                assert emb in marked_conj
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS - run lemmas on {checked} configurations "
        f"in {elapsed:.1f}s"
    )


# --- criterion 5: dimension-count identity ------------------------------------


def test_criterion_05_dimension_count() -> None:
    checked = 0
    for datum, descriptor, lift, delta in _lifted_sweep():
        system = datum.places
        base = signature_from_lift(
            datum,
            frozenset(
                e
                for e in lift.s_tilde_of_t
                if restrict(system, e) in datum.s.s_infty
            ),
        )
        assert dimension_count_check(datum, base, delta) == signature_from_lift(
            datum, lift.s_tilde_of_t
        )
        checked += 1
    print(f"criterion 5: PASS - dimension count on {checked} configurations")


# --- criterion 6: Dieudonne roundtrips ----------------------------------------


def test_criterion_06_dieudonne_roundtrip() -> None:
    start = time.perf_counter()
    roundtrips = 0
    for ring, datum, pt, stratum in _corpus():
        ordered = sorted(stratum)
        for r in range(len(ordered) + 1):
            for combo in itertools.combinations(ordered, r):
                back = verify_roundtrip(pt, frozenset(combo))
                assert back.signature == pt.signature
                assert stratum_of_point(back) == stratum
                roundtrips += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"criterion 6: PASS - {len(_corpus())} points, {roundtrips} exact "
        f"roundtrips in {elapsed:.1f}s"
    )


# --- criterion 7: essential Frobenius identities ------------------------------


def test_criterion_07_essential_identities() -> None:
    from gostrata.witt import elementary_divisors

    points = 0
    for ring, datum, pt, _ in _corpus():
        system = datum.places
        p_id = mat_smul(ring, ring.p, mat_identity(ring))
        for emb in pt.embeddings():
            f_mat = mat_unpack(ring, pt.f_mats[emb])
            fv = mat_mul(ring, f_mat, mat_sigma(ring, v_matrix(pt, emb), 1))
            vf = mat_mul(ring, v_matrix(pt, emb), mat_sigma(ring, f_mat, ring.m - 1))
            assert _close(ring, mat_pack(ring, fv), mat_pack(ring, p_id))
            assert _close(ring, mat_pack(ring, vf), mat_pack(ring, p_id))
            tau = restrict(system, emb)
            if tau in datum.s.s_infty:
                continue
            n = n_tau(datum, tau)[0]
            mf = essential_frobenius_matrix(pt, emb, n)
            mv = essential_verschiebung_matrix(pt, emb, n)
            comp = mat_mul(ring, mf, mat_sigma(ring, mv, n % ring.m))
            assert _close(ring, mat_pack(ring, comp), mat_pack(ring, p_id))
            comp = mat_mul(ring, mv, mat_sigma(ring, mf, (ring.m - n) % ring.m))
            assert _close(ring, mat_pack(ring, comp), mat_pack(ring, p_id))
            assert elementary_divisors(ring, mat_pack(ring, mf)) == (0, 1)
            assert elementary_divisors(ring, mat_pack(ring, mv)) == (0, 1)
        points += 1
    print(
        f"criterion 7: PASS - FV=VF=p and essential composites on "
        f"{points} points"
    )


# --- criterion 8: twisted partial Frobenius -----------------------------------


def test_criterion_08_twisted_partial_frobenius() -> None:
    points = 0
    for ring, datum, pt, stratum in _corpus():
        system = datum.places
        twisted = twisted_partial_frobenius(pt)
        assert stratum_of_point(twisted) == frozenset(
            frobenius_shift(system, tau, 2) for tau in stratum
        )
        points += 1
    print(f"criterion 8: PASS - stratum shifts by sigma^2 on {points} points")


# --- criterion 9: Picard consistency ------------------------------------------


def test_criterion_09_picard() -> None:
    fibers = 0
    determinants = 0
    datums = []
    for f in range(1, 9):
        for split in (True, False):
            system = build_place_system([(f, split)])
            places = [ArchPlace("p1", i) for i in range(f)]
            for bits in range(2**f - 1):
                datum = make_datum(
                    system, {places[i] for i in range(f) if bits >> i & 1}
                )
                datums.append(datum)
                for p in (2, 3):
                    assert hasse_matrix(datum, p).determinant() != 0
                    determinants += 1
                    free = datum.free_places()
                    for tau in free:
                        if len(free) < 2:
                            continue  # single free place: the fiber folds
                        n = n_tau(datum, tau)[0]
                        degree = fiber_degree(
                            datum, p, divisor_class(datum, p, tau), tau
                        )
                        assert degree == -2 * p**n
                        assert normal_bundle_class(datum, p, tau) == -2 * p**n
                        fibers += 1

    rng = random.Random(2718)
    passes = 0
    for _ in range(10_000):
        datum = rng.choice(datums)
        free = datum.free_places()
        if rng.randrange(2):
            vec = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in free]
        else:
            # biased draw so the necessary condition passes reasonably often
            vec = [Fraction(rng.randrange(1, 5), 1) for _ in free]
        if not ample_necessary(datum, 2, vec):
            assert all(value > 0 for value in vec)
            passes += 1
    assert passes > 100
    print(
        f"criterion 9: PASS - {fibers} fiber degrees, {determinants} nonzero "
        f"determinants, positivity on {passes} cone members"
    )


# --- criterion 10: Witt substrate ---------------------------------------------


def test_criterion_10_witt_substrate() -> None:
    def power(ring, a, k):
        out = ring.one()
        for _ in range(k):
            out = ring.mul(out, a)
        return out

    checked = 0
    for p in (2, 3, 5):
        for m in (1, 2, 3, 4):
            for big_n in (4, 8):
                ring = witt_ring(p, m, big_n)
                rng = random.Random(1000 * p + 10 * m + big_n)
                a = tuple(rng.randrange(ring.pn) for _ in range(ring.m))
                fa = frobenius(ring, a)
                for _ in range(10_000):
                    b = tuple(rng.randrange(ring.pn) for _ in range(ring.m))
                    fb = frobenius(ring, b)
                    assert frobenius(ring, ring.add(a, b)) == ring.add(fa, fb)
                    assert frobenius(ring, ring.mul(a, b)) == ring.mul(fa, fb)
                    assert frobenius(ring, b, ring.m) == b
                    assert ring.val(ring.sub(fb, power(ring, b, p))) >= 1
                    a, fa = b, fb
                    checked += 1
    ring = witt_ring(3, 2, 2)
    assert frobenius(ring, ring.gen()) == ring.neg(ring.gen())
    print(
        f"criterion 10: PASS - {checked} Frobenius property checks and the "
        f"W_2(F_9) example"
    )


# --- criterion 11: indentation arithmetic -------------------------------------


def test_criterion_11_indentation_arithmetic() -> None:
    eta_checked = 0
    hecke_checked = 0
    induced_checked = 0
    for f in range(1, 9):
        for split in (True, False):
            system = build_place_system([(f, split)])
            places = [ArchPlace("p1", i) for i in range(f)]
            for bits in range(2**f):
                s_set = {places[i] for i in range(f) if bits >> i & 1}
                free = sorted(set(places) - s_set)
                if len(free) < 2:
                    continue
                datum = make_datum(system, s_set)
                if len(free) >= 3:
                    # with two free embeddings the curve degenerates and the
                    # trivial Hecke correspondence takes over
                    for tau in free:
                        n, tau_minus, tau_plus = n_tau(datum, tau)
                        n_plus = n_tau(datum, tau_plus)[0]
                        desc = standard_morphism(
                            MorphismKind.ETA_TAU_MINUS_PLUS, datum, "p1",
                            p=3, tau=tau,
                        )
                        assert total_displacement(desc.link) == n + n_plus
                        assert desc.degree == 3 ** (n + n_plus)
                        assert desc.indentation == ((n_plus - n) if split else 0)
                        eta_checked += 1
                if len(free) == 2:
                    for tau in free:
                        n = n_tau(datum, tau)[0]
                        desc = standard_morphism(
                            MorphismKind.TRIVIAL_HECKE, datum, "p1", tau=tau
                        )
                        assert desc.indentation == 2 * (f - n)
                        hecke_checked += 1
                # straight links keep the indentation (split) or drop it (inert)
                band = band_of(datum, "p1")
                for tau in free:
                    _, m = induced_link(identity_link(band), datum, "p1", tau, 5)
                    assert m == (5 if split else 0)
                    induced_checked += 1
                # one-turn links: turning node tau0, turn size below the gap
                for tau0 in free:
                    gap = n_tau(datum, n_tau(datum, tau0)[2])[0]
                    for m0 in range(1, gap):
                        target = Band(
                            f,
                            frozenset(band.nodes - {tau0.i})
                            | {(tau0.i + m0) % f},
                        )
                        disp = {v: 0 for v in band.nodes}
                        disp[tau0.i] = m0
                        eta = make_link(band, target, disp)
                        for tau in free:
                            _, m = induced_link(eta, datum, "p1", tau, 5)
                            if not split:
                                assert m == 0
                            elif tau == tau0:
                                assert m == 5 - m0
                            elif n_tau(datum, tau)[1] == tau0:
                                assert m == 5 + m0
                            else:
                                assert m == 5
                            induced_checked += 1
    print(
        f"criterion 11: PASS - {eta_checked} eta morphisms, {hecke_checked} "
        f"Hecke indentations, {induced_checked} induced-link values"
    )
