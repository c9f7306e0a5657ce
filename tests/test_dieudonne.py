from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gostrata.dieudonne import (
    DieudonneError,
    PrecisionError,
    _framed_f_mats,
    _close,
    build_isogeny_triple,
    essential_frobenius_image,
    essential_frobenius_matrix,
    essential_verschiebung_matrix,
    half_system,
    hasse_vanishes,
    lattice_in_frame,
    make_point,
    omega_lattice,
    point_from_half_system,
    point_from_json,
    point_to_json,
    random_point,
    reconstruct_lattices,
    reconstruct_point,
    ring_for_datum,
    stratum_of_point,
    twisted_partial_frobenius,
    v_matrix,
    verify_roundtrip,
)
from gostrata.places import (
    ArchPlace,
    FrozenMap,
    Level,
    PrimeType,
    build_place_system,
    canonical_lift,
    classify_prime,
    conjugate,
    frobenius_shift,
    make_datum,
    n_tau,
    restrict,
)
from gostrata import dieudonne, strata, witt
from gostrata.strata import (
    CaseTag,
    delta_sets,
    dimension_count_check,
    lift_assignment,
    signature_from_lift,
    stratum_descriptor,
)
from gostrata.witt import (
    Lattice2,
    elementary_divisors,
    lattice_colength,
    lattice_contains,
    lattice_normalize,
    lattice_scale,
    mat2,
    mat_columns,
    mat_adjugate,
    mat_det,
    mat_identity,
    mat_mul,
    mat_pack,
    mat_sigma,
    mat_smul,
    mat_transpose,
    mat_unpack,
    packed_shift,
    standard_lattice,
    witt_ring,
)


def _packed(ring, mats):
    """Each matrix of a table packed, as ``make_point`` takes it."""
    return {emb: mat_pack(ring, mat) for emb, mat in mats.items()}


def _unpacked(ring, mats):
    """Each packed matrix of a point's table as coefficient tuples."""
    return {emb: mat_unpack(ring, mat) for emb, mat in mats.items()}


def _datum(f, split, s_indices=()):
    system = build_place_system([(f, split)])
    return make_datum(system, {ArchPlace("p1", i % f) for i in s_indices})


def _antidiag_point(datum, p=3, N=8):
    """All F-matrices antidiag(1, p) with the standard alternating pairing."""
    ring = ring_for_datum(datum, p, N)
    half = half_system(datum)
    f_mats = {emb: mat2(ring, [[0, 1], [p, 0]]) for emb in half}
    pairings = {emb: mat2(ring, [[0, 1], [ring.pn - 1, 0]]) for emb in half}
    signature = {emb: 1 for emb in datum.places.embeddings()}
    return ring, point_from_half_system(ring, datum, f_mats, pairings, signature)


def _diag_point(datum, p=3, N=8):
    """All F-matrices diag(1, p); the partial Hasse invariants never vanish."""
    ring = ring_for_datum(datum, p, N)
    half = half_system(datum)
    f_mats = {emb: mat2(ring, [[1, 0], [0, p]]) for emb in half}
    pairings = {emb: mat2(ring, [[0, 1], [ring.pn - 1, 0]]) for emb in half}
    signature = {emb: 1 for emb in datum.places.embeddings()}
    return ring, point_from_half_system(ring, datum, f_mats, pairings, signature)


def _template_point(datum, vanish, p=3, N=8):
    """Antidiagonal template at the chosen half-system positions, diagonal at
    the rest; the Hasse invariant then vanishes exactly below the antidiagonal
    spots.  Behind a signature 0 F is p times the identity, behind a
    signature 2 the identity."""
    ring = ring_for_datum(datum, p, N)
    system = datum.places
    signature = signature_from_lift(
        datum, frozenset(canonical_lift(system, tau) for tau in datum.s.s_infty)
    )
    f_mats = {}
    for k, emb in enumerate(half_system(datum)):
        behind = signature[frobenius_shift(system, emb, -1)]
        if behind != 1:
            q = p if behind == 0 else 1
            f_mats[emb] = mat2(ring, [[q, 0], [0, q]])
        elif k in vanish:
            f_mats[emb] = mat2(ring, [[0, 1], [p, 0]])
        else:
            f_mats[emb] = mat2(ring, [[1, 0], [0, p]])
    pairings = {emb: mat2(ring, [[0, 1], [ring.pn - 1, 0]]) for emb in half_system(datum)}
    return ring, point_from_half_system(ring, datum, f_mats, pairings, signature)


def _zeros(pt):
    return frozenset(emb for emb, value in pt.signature.items() if value == 0)


def _point_args(triple, datum):
    """The arguments of reconstruct_point: the triple's lines, on the source datum."""
    return (triple.b_point, triple.j_lines, triple.h_lines, triple.descriptor, triple.lift, datum)


def _lattice_args(triple):
    """The arguments of reconstruct_lattices: the triple's lines and delta sets."""
    return (triple.b_point, triple.j_lines, triple.h_lines, triple.descriptor, triple.lift, triple.delta)


def _roundtrip(ring, datum, pt, t):
    descriptor = stratum_descriptor(datum, t)
    lift = lift_assignment(datum, descriptor, s_lift=_zeros(pt))
    triple = build_isogeny_triple(pt, t)
    assert triple.descriptor == descriptor and triple.lift == lift
    assert triple.delta == delta_sets(datum, descriptor, lift)
    m, l, _ = reconstruct_lattices(*_lattice_args(triple))
    for emb in pt.embeddings():
        frame = triple.b[emb]
        assert m[emb] == lattice_in_frame(ring, frame, triple.c[emb])
        assert l[emb] == lattice_in_frame(ring, frame, triple.a[emb])
    back = reconstruct_point(*_point_args(triple, datum))
    assert back.signature == pt.signature
    assert stratum_of_point(back) == stratum_of_point(pt)
    return triple


# --- point construction -------------------------------------------------------


def test_point_and_triple_tables_hash_by_content():
    datum = _datum(4, True)
    ring, pt = _antidiag_point(datum)
    embs = pt.embeddings()
    again = make_point(
        ring, datum, dict(reversed(pt.f_mats.items())), dict(reversed(pt.pairings.items())),
        dict(reversed(pt.signature.items())),
    )
    assert again == pt and hash(again) == hash(pt)
    assert list(again.f_mats) == list(embs) and list(again.signature) == list(embs)
    t = frozenset(datum.places.arch_places("p1")[:2])
    triple = _roundtrip(ring, datum, pt, t)
    descriptor = stratum_descriptor(datum, t)
    lift = lift_assignment(datum, descriptor, s_lift=_zeros(pt))
    assert hash(triple) == hash(build_isogeny_triple(pt, t))
    assert hash(triple.descriptor) == hash(descriptor) and hash(triple.lift) == hash(lift)
    assert hash(descriptor) == hash(stratum_descriptor(datum, t))
    assert hash(lift) == hash(lift_assignment(datum, descriptor, s_lift=_zeros(pt)))


def test_antidiag_point_is_everywhere_supersingular():
    datum = _datum(2, True)
    ring, pt = _antidiag_point(datum)
    assert all(value == 1 for value in pt.signature.values())
    assert stratum_of_point(pt) == frozenset(datum.places.arch_places("p1"))
    # V is the same antidiagonal matrix here, up to sign and trusted precision
    for emb in pt.embeddings():
        v_mat = mat_pack(ring, v_matrix(pt, emb))
        assert _close(ring, v_mat, pt.f_mats[emb]) or _close(ring, v_mat, pt.f_mats[emb], -1)


def test_diag_point_has_empty_stratum():
    for split in (True, False):
        datum = _datum(3, split)
        _, pt = _diag_point(datum)
        assert stratum_of_point(pt) == frozenset()


def test_make_point_rejects_wrong_signature():
    datum = _datum(2, True)
    ring = ring_for_datum(datum, 3)
    half = half_system(datum)
    f_mats = {emb: mat_identity(ring) for emb in half}
    pairings = {emb: mat2(ring, [[0, 1], [ring.pn - 1, 0]]) for emb in half}
    signature = {emb: 1 for emb in datum.places.embeddings()}
    with pytest.raises(DieudonneError):
        point_from_half_system(ring, datum, f_mats, pairings, signature)


def test_make_point_rejects_a_signature_that_does_not_fit_s_infty():
    # signature 1 over a place of S_infty
    with pytest.raises(DieudonneError, match="does not fit S_infty"):
        _antidiag_point(_datum(2, True, [0]))
    # signature 0/2 over a place outside S_infty
    datum = _datum(2, True, [0])
    ring = ring_for_datum(datum, 3)
    pt = random_point(random.Random(5), ring, datum)
    assert sorted(pt.signature.values()) == [0, 1, 1, 2]
    with pytest.raises(DieudonneError, match="does not fit S_infty"):
        make_point(ring, _datum(2, True), pt.f_mats, pt.pairings, pt.signature)


def test_make_point_rejects_bad_divisors():
    datum = _datum(1, True)
    ring = ring_for_datum(datum, 3)
    emb = half_system(datum)[0]
    f_mats = {emb: mat2(ring, [[1, 0], [0, 9]])}
    pairings = {emb: mat2(ring, [[0, 1], [ring.pn - 1, 0]])}
    with pytest.raises(DieudonneError):
        point_from_half_system(
            ring, datum, f_mats, pairings, {e: 1 for e in datum.places.embeddings()}
        )


def test_make_point_rejects_imperfect_pairing():
    datum = _datum(1, True)
    ring = ring_for_datum(datum, 3)
    emb = half_system(datum)[0]
    f_mats = {emb: mat2(ring, [[0, 1], [3, 0]])}
    pairings = {emb: mat2(ring, [[0, 3], [ring.pn - 3, 0]])}
    with pytest.raises(DieudonneError):
        point_from_half_system(
            ring, datum, f_mats, pairings, {e: 1 for e in datum.places.embeddings()}
        )


def test_make_point_rejects_mismatched_ring_degree():
    datum = _datum(3, False)  # cycle length 6
    ring = witt_ring(3, 4, 8)
    with pytest.raises(DieudonneError):
        random_point(random.Random(0), ring, datum)


def _mat_add(ring, a, b):
    return tuple(tuple(ring.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _scale_pair(ring, pairings, emb, conj):
    """p times the pairing at ``emb`` and at its conjugate: still
    antisymmetric, with determinant valuation 2."""
    pairings[emb] = mat_smul(ring, ring.p, pairings[emb])
    pairings[conj] = mat_smul(ring, ring.p, pairings[conj])


def _nudge_conjugate(ring, pairings, emb, conj):
    """p^(budget - 1) added to the conjugate's pairing alone."""
    step = mat_smul(ring, ring.p ** (ring.budget - 1), mat_identity(ring))
    pairings[conj] = _mat_add(ring, pairings[conj], step)


def _nudge_pair(ring, pairings, emb, conj):
    """p^(budget - 1) added to the pairing at ``emb``, the conjugate's kept
    antisymmetric: only the compatibility with F and V can fail."""
    step = mat_smul(ring, ring.p ** (ring.budget - 1), mat_identity(ring))
    pairings[emb] = _mat_add(ring, pairings[emb], step)
    pairings[conj] = mat_smul(ring, -1, mat_transpose(pairings[emb]))


def _emb_text(sheet, i):
    return f"EmbE(prime_id='p1', sheet={sheet}, i={i})"


@pytest.mark.parametrize(
    "f, split, s_indices, perturb, message",
    [
        (2, True, (), _scale_pair,
         f"pairing at {_emb_text(0, 1)} has the wrong determinant valuation"),
        (3, False, (1,), _scale_pair,
         f"pairing at {_emb_text(0, 1)} has the wrong determinant valuation"),
        (2, True, (), _nudge_conjugate,
         f"pairing at {_emb_text(0, 1)} is not conjugate-antisymmetric"),
        (3, False, (1,), _nudge_conjugate,
         f"pairing at {_emb_text(0, 1)} is not conjugate-antisymmetric"),
        # split: sigma(0:1) = 0:0 comes first and reads P at 0:1 as sigma^-1 of itself
        (2, True, (), _nudge_pair,
         f"pairing is incompatible with F and V at {_emb_text(0, 0)}"),
        (3, False, (1,), _nudge_pair,
         f"pairing is incompatible with F and V at {_emb_text(0, 1)}"),
    ],
    ids=["det-split", "det-inert", "antisym-split", "antisym-inert", "compat-split",
         "compat-inert"],
)
def test_make_point_names_each_pairing_fault(f, split, s_indices, perturb, message):
    """One perturbed pairing per raise of ``make_point``'s pairing checks, at
    the embedding 0:1 of a valid point, split with S_infty empty and inert
    with S_infty not: the error type and the exact message, embedding
    included."""
    datum = _datum(f, split, s_indices)
    ring = ring_for_datum(datum, 3)
    pt = random_point(random.Random(41), ring, datum)
    emb = pt.embeddings()[1]
    pairings = _unpacked(ring, pt.pairings)
    perturb(ring, pairings, emb, conjugate(datum.places, emb))
    with pytest.raises(DieudonneError) as info:
        make_point(ring, datum, pt.f_mats, _packed(ring, pairings), pt.signature)
    assert type(info.value) is DieudonneError
    assert str(info.value) == message


def _generator_close(ring, a, b, sign=1):
    """The generator ``_close`` of the reference below."""
    if ring.budget <= 0:
        return True
    q = ring.p**ring.budget
    return all(
        (u - sign * v) % q == 0
        for ra, rb in zip(a, b)
        for x, y in zip(ra, rb)
        for u, v in zip(x, y)
    )


def _make_point_by_scaled_adjugate(ring, datum, f_mats, pairings, expected_signature):
    """``make_point``'s checks with p^(1-d) applied to adj(F_c) before the
    product, each matrix packed where a product reads it: the reference for
    the check on packed operands.  Raises what ``make_point`` raises, or
    returns None."""
    pn = ring.pn
    f_mats, pairings = (
        {emb: tuple(tuple(tuple(c % pn for c in e) for e in row) for row in mat)
         for emb, mat in mats.items()} for mats in (f_mats, pairings)
    )
    slot, cycle = dieudonne._one_prime(datum)
    if ring.m % cycle != 0:
        raise DieudonneError(f"ring degree {ring.m} incompatible with cycle length {cycle}")
    system = datum.places
    embs = system.embeddings(slot.id)
    if set(f_mats) != set(embs) or set(pairings) != set(embs):
        raise DieudonneError("matrices must be indexed by the full embedding cycle")
    dets = {emb: mat_det(ring, f_mats[emb]) for emb in embs}
    divisors = {emb: dieudonne._f_divisors(ring, mat_pack(ring, f_mats[emb]), dets[emb], emb)
                for emb in embs}
    signature = {emb: divisors[frobenius_shift(system, emb, 1)].count(0) for emb in embs}
    pairing_val = 1 if classify_prime(datum, slot.id) is PrimeType.BETA_SHARP else 0
    for emb in embs:
        if ring.val(mat_det(ring, pairings[emb])) != pairing_val:
            raise DieudonneError(f"pairing at {emb} has the wrong determinant valuation")
        conj = pairings[conjugate(system, emb)]
        if not _generator_close(ring, conj, mat_transpose(pairings[emb]), -1):
            raise DieudonneError(f"pairing at {emb} is not conjugate-antisymmetric")
    for emb in embs:
        cemb = conjugate(system, emb)
        if signature[emb] != expected_signature[emb]:
            raise DieudonneError(
                f"signature mismatch at {emb}: computed {signature[emb]}, "
                f"declared {expected_signature[emb]}"
            )
        if signature[emb] + signature[cemb] != 2:
            raise DieudonneError(f"signatures at {emb} and its conjugate do not sum to 2")
        if (signature[emb] == 1) == (restrict(system, emb) in datum.s.s_infty):
            raise DieudonneError(f"signature {signature[emb]} at {emb} does not fit S_infty")
        d = sum(divisors[cemb])
        unit = ring.div_p(dets[cemb], d)
        product = mat_mul(ring, mat_transpose(f_mats[emb]), pairings[emb])
        lhs = tuple(tuple(ring.mul(unit, e) for e in row) for row in product)
        prev = frobenius_shift(system, emb, -1)
        adj = mat_pack(ring, mat_adjugate(ring, f_mats[cemb]))
        p_adj = mat_unpack(ring, packed_shift(ring, adj, 1 - d))
        rhs = mat_mul(ring, mat_sigma(ring, pairings[prev], 1), p_adj)
        if not _generator_close(ring, lhs, rhs):
            raise DieudonneError(f"pairing is incompatible with F and V at {emb}")


def _outcome(check, *args):
    """(error type, message), or None where ``check`` returns."""
    try:
        check(*args)
    except DieudonneError as error:
        return type(error), str(error)
    return None


@pytest.mark.parametrize(
    "p, f, split, s_indices, N",
    [(3, 2, True, (0,), 8), (2, 3, False, (1,), 8), (5, 4, True, (1, 2), 16),
     (3, 2, False, (0,), 16)],
)
def test_make_point_on_packed_operands_matches_the_scaled_adjugate(p, f, split, s_indices, N):
    """``make_point``, which scales sigma(P_prev) adj(F_c) by p^(1-d) after
    the product, against the reference that scales adj(F_c) first: seeded
    points, with d = 0 and d = 2 both met, pass both, and a multiple of p^k
    added to one entry of one F or one pairing, k in {0, budget - 1,
    budget}, gives the same error type and message under both."""
    datum = _datum(f, split, s_indices)
    ring = ring_for_datum(datum, p, N)
    rng = random.Random(2500 + 100 * p + 10 * f + N)
    outcomes, ds = [], set()
    for _ in range(3):
        pt = random_point(rng, ring, datum)
        f_tuples, p_tuples = _unpacked(ring, pt.f_mats), _unpacked(ring, pt.pairings)
        assert make_point(ring, datum, pt.f_mats, pt.pairings, pt.signature) == pt
        assert _make_point_by_scaled_adjugate(ring, datum, f_tuples, p_tuples, pt.signature) is None
        ds |= {sum(elementary_divisors(ring, mat)) for mat in pt.f_mats.values()}
        for emb in pt.embeddings():
            for k in (0, ring.budget - 1, ring.budget):
                for which in ("f", "pairing"):
                    mats = dict(f_tuples if which == "f" else p_tuples)
                    rows = [list(row) for row in mats[emb]]
                    i, j = rng.randrange(2), rng.randrange(2)
                    step = tuple(p**k * rng.randrange(1, ring.pn) for _ in range(ring.m))
                    rows[i][j] = ring.add(rows[i][j], step)
                    mats[emb] = tuple(tuple(row) for row in rows)
                    f_mats, pairings = (mats, p_tuples) if which == "f" else (f_tuples, mats)
                    args = (ring, datum, f_mats, pairings, pt.signature)
                    got = _outcome(make_point, ring, datum, _packed(ring, f_mats),
                                   _packed(ring, pairings), pt.signature)
                    assert got == _outcome(_make_point_by_scaled_adjugate, *args)
                    outcomes.append(got)
    assert ds == {0, 1, 2}
    assert None in outcomes
    assert any(got and got[1].startswith("pairing is incompatible") for got in outcomes)


def test_make_point_packs_each_entry_once(monkeypatch):
    """Matrices reach ``make_point`` packed, and each input coefficient tuple
    is packed exactly once, at the door (``mat_pack``).  Inside, the only
    other packing is each F determinant, once, as the scalar of the pairing
    check: no sigma image is packed, since sigma(P_prev) is taken packed to
    packed, and neither ``frobenius`` nor ``mat_sigma`` is called."""
    datum = _datum(3, False, (1,))
    ring = ring_for_datum(datum, 3, 8)
    pt = random_point(random.Random(61), ring, datum)
    f_mats, pairings = _unpacked(ring, pt.f_mats), _unpacked(ring, pt.pairings)
    entries = [e for mats in (f_mats, pairings) for mat in mats.values() for row in mat for e in row]
    assert len(entries) == 8 * len(pt.embeddings())
    packed = []

    def pack(self, a, _inner=type(ring)._pack):
        packed.append(a)
        return _inner(self, a)

    def refuse(*args):
        raise AssertionError("sigma taken on coefficient tuples")

    with monkeypatch.context() as patch:
        patch.setattr(type(ring), "_pack", pack)
        patch.setattr(witt, "frobenius", refuse)
        patch.setattr(witt, "mat_sigma", refuse)
        made = make_point(ring, datum, _packed(ring, f_mats), _packed(ring, pairings), pt.signature)
    assert made == pt
    assert not hasattr(dieudonne, "mat_sigma")  # no tuple sigma to call
    door, inside = packed[: len(entries)], packed[len(entries):]
    assert [sum(a is e for a in door) for e in entries] == [1] * len(entries)
    assert sorted(inside) == sorted(mat_det(ring, mat) for mat in f_mats.values())


@pytest.mark.parametrize(
    "build",
    [
        lambda datum: make_point(witt_ring(3, 2, 8), datum, {}, {}, {}),
        half_system,
        lambda datum: ring_for_datum(datum, 3),
    ],
    ids=["make_point", "half_system", "ring_for_datum"],
)
def test_simulator_rejects_two_prime_datums(build):
    datum = make_datum(build_place_system([(1, True), (1, False)]))
    with pytest.raises(DieudonneError, match="the simulator works one prime at a time"):
        build(datum)


def test_random_point_respects_requested_signature():
    rng = random.Random(17)
    datum = _datum(4, True, [0, 2])
    ring = ring_for_datum(datum, 5)
    pt = random_point(rng, ring, datum)
    system = datum.places
    for emb, value in pt.signature.items():
        tau = restrict(system, emb)
        if tau in datum.s.s_infty:
            assert value in (0, 2)
            assert value + pt.signature[conjugate(system, emb)] == 2
        else:
            assert value == 1


# --- essential Frobenius calculus ---------------------------------------------


def test_fv_equals_p_both_orders():
    rng = random.Random(23)
    for f, split in [(2, True), (3, False)]:
        datum = _datum(f, split)
        ring = ring_for_datum(datum, 3)
        pt = random_point(rng, ring, datum)
        p_id = mat_smul(ring, ring.p, mat_identity(ring))
        for emb in pt.embeddings():
            f_mat = mat_unpack(ring, pt.f_mats[emb])
            fv = mat_mul(ring, f_mat, mat_sigma(ring, v_matrix(pt, emb), 1))
            vf = mat_mul(ring, v_matrix(pt, emb), mat_sigma(ring, f_mat, ring.m - 1))
            assert _close(ring, mat_pack(ring, fv), mat_pack(ring, p_id))
            assert _close(ring, mat_pack(ring, vf), mat_pack(ring, p_id))


def test_essential_composites_are_p_at_free_embeddings():
    rng = random.Random(29)
    for f, split, s_indices in [(3, True, [0]), (4, True, [1, 2]), (2, False, [])]:
        datum = _datum(f, split, s_indices)
        ring = ring_for_datum(datum, 3)
        pt = random_point(rng, ring, datum)
        system = datum.places
        p_id = mat_smul(ring, ring.p, mat_identity(ring))
        for emb in pt.embeddings():
            tau = restrict(system, emb)
            if tau in datum.s.s_infty:
                continue
            n = n_tau(datum, tau)[0]
            mf = essential_frobenius_matrix(pt, emb, n)
            mv = essential_verschiebung_matrix(pt, emb, n)
            # F_es^n after V_es^n is multiplication by p
            comp = mat_mul(ring, mf, mat_sigma(ring, mv, n % ring.m))
            assert _close(ring, mat_pack(ring, comp), mat_pack(ring, p_id))
            # and in the other order as well
            comp = mat_mul(ring, mv, mat_sigma(ring, mf, (ring.m - n) % ring.m))
            assert _close(ring, mat_pack(ring, comp), mat_pack(ring, p_id))
            # each composite has a one-dimensional cokernel
            assert elementary_divisors(ring, mat_pack(ring, mf)) == (0, 1)
            assert elementary_divisors(ring, mat_pack(ring, mv)) == (0, 1)


def _stepwise_image(pt, emb, n, start):
    """F_es^n(start) one normalized step at a time: the reference for the
    composite of ``essential_frobenius_image``."""
    ring, system = pt.ring, pt.datum.places
    lattice = start
    for k in range(n - 1, -1, -1):
        mu = frobenius_shift(system, emb, -k)
        extra = -1 if pt.signature[frobenius_shift(system, mu, -1)] == 0 else 0
        basis = mat_mul(ring, mat_unpack(ring, pt.f_mats[mu]), mat_sigma(ring, lattice.basis, 1))
        lattice = lattice_normalize(ring, lattice.shift + extra, mat_columns(basis))
    return lattice


def _reduced_point(pt, ring):
    """A point drawn at a larger N, read mod p^N on ``ring``: its matrices
    unpacked and packed again on ``ring``, which reduces them."""
    def reduce(table):
        return _packed(ring, _unpacked(pt.ring, table))

    return make_point(ring, pt.datum, reduce(pt.f_mats), reduce(pt.pairings), pt.signature)


def _hermite_start(ring, shift, a, b, c):
    cols = [(ring.from_int(ring.p**a), c), (ring.zero(), ring.from_int(ring.p**b))]
    return lattice_normalize(ring, shift, cols)


IMAGE_SHAPES = [  # (p, f, split, S_infty indices), every S_infty nonempty
    (3, 3, True, (0,)),
    (2, 4, True, (0, 2)),
    (3, 4, True, (1, 2)),
    (2, 2, False, (1,)),
    (3, 3, False, (0,)),
]


@pytest.mark.parametrize("N", [6, 8])
def test_composite_image_matches_the_stepwise_image(N):
    """One composite and one normalization give the lattice the step-by-step
    walk gives wherever the walk answers; where an intermediate lattice of the
    walk exhausts the budget and the composite answers, the composite is the
    image of the same point and start drawn at N = 16."""
    rng = random.Random(1300 + N)
    outcomes = {"agree": 0, "composite only": 0}
    for p, f, split, s_indices in IMAGE_SHAPES:
        datum = _datum(f, split, s_indices)
        ring, deep = ring_for_datum(datum, p, N), ring_for_datum(datum, p, 16)
        for _ in range(12):
            fine = random_point(rng, deep, datum)
            pt = _reduced_point(fine, ring)
            for _ in range(10):
                emb, n = rng.choice(pt.embeddings()), rng.randint(1, 3)
                shape = [rng.choice((-1, 0, 1))] + [rng.randrange(ring.budget) for _ in "ab"]
                c = tuple(rng.randrange(ring.pn) for _ in range(ring.m))
                start = _hermite_start(ring, *shape, c)
                try:
                    expected = _stepwise_image(pt, emb, n, start)
                except PrecisionError:
                    expected = None
                try:
                    got = essential_frobenius_image(pt, emb, n, start)
                except PrecisionError:
                    assert expected is None, (p, f, emb, n)
                    continue
                if expected is None:
                    fine_start = _hermite_start(deep, *shape, c)
                    lifted = essential_frobenius_image(fine, emb, n, fine_start)
                    assert dataclasses.replace(lifted, ring=ring) == got
                    outcomes["composite only"] += 1
                else:
                    assert got == expected
                    outcomes["agree"] += 1
    # both branches are reached: the walk fails where the composite answers
    assert outcomes["agree"] and outcomes["composite only"]


def test_hasse_invariant_is_conjugation_symmetric():
    rng = random.Random(31)
    for f, split in [(2, True), (3, True), (2, False)]:
        datum = _datum(f, split)
        ring = ring_for_datum(datum, 3)
        for _ in range(10):
            pt = random_point(rng, ring, datum)
            for emb in pt.embeddings():
                assert hasse_vanishes(pt, emb) == hasse_vanishes(
                    pt, conjugate(datum.places, emb)
                )


# --- the isogeny chain --------------------------------------------------------


def test_triple_colengths_and_target_signature():
    rng = random.Random(37)
    datum = _datum(3, True)
    ring = ring_for_datum(datum, 3)
    found = 0
    while found < 5:
        pt = random_point(rng, ring, datum)
        stratum = stratum_of_point(pt)
        if not stratum:
            continue
        t = frozenset(sorted(stratum)[:1])
        descriptor = stratum_descriptor(datum, t)
        lift = lift_assignment(datum, descriptor, s_lift=_zeros(pt))
        delta = delta_sets(datum, descriptor, lift)
        triple = build_isogeny_triple(pt, t)
        assert (triple.descriptor, triple.lift, triple.delta) == (descriptor, lift, delta)
        std = standard_lattice(ring)
        for emb in pt.embeddings():
            assert lattice_colength(triple.c[emb], triple.a[emb]) == int(
                emb in delta.plus
            )
            assert lattice_colength(triple.c[emb], triple.b[emb]) == int(
                emb in delta.minus
            )
        expected = dimension_count_check(datum, pt.signature, delta)
        assert triple.b_point.signature == expected
        for line in triple.j_lines.values():
            assert lattice_colength(std, line) == 1
            assert lattice_colength(line, lattice_scale(std, 1)) == 1
        found += 1


def test_triple_requires_membership_in_stratum():
    datum = _datum(3, True)
    ring, pt = _diag_point(datum)
    with pytest.raises(DieudonneError):
        build_isogeny_triple(pt, frozenset({ArchPlace("p1", 0)}))


def test_triple_names_every_place_outside_the_stratum():
    datum = _datum(2, True)
    _, pt = _antidiag_point(datum)
    inside = ArchPlace("p1", 0)
    outside = [ArchPlace("p1", 5), ArchPlace("q", 0)]  # not places of the prime
    with pytest.raises(DieudonneError) as info:
        build_isogeny_triple(pt, frozenset([inside, *outside]))
    assert str(info.value) == f"T is not inside the stratum of the point: {sorted(outside)}"


def _stability_message(pt, families, checked=None):
    with pytest.raises(DieudonneError) as info:
        _framed_f_mats(pt, families, {} if checked is None else checked)
    return str(info.value)


def test_stability_failure_shared_by_two_families_keeps_the_first_label():
    datum = _datum(3, True)
    ring, pt = _antidiag_point(datum)
    bad = {emb: standard_lattice(ring) for emb in pt.embeddings()}
    bad[pt.embeddings()[0]] = lattice_scale(standard_lattice(ring), -1)
    alone = _stability_message(pt, [("the first family", bad)])
    assert alone.startswith("the first family is not ")
    assert _stability_message(
        pt, [("the first family", bad), ("the second family", dict(bad))]
    ) == alone


def test_stability_failure_only_in_the_second_family_gets_its_label():
    datum = _datum(3, True)
    ring, pt = _antidiag_point(datum)
    std = standard_lattice(ring)
    good = {emb: std for emb in pt.embeddings()}
    first = pt.embeddings()[0]
    # p D at one component: F maps D behind it onto a lattice with a unit vector
    bad = {first: lattice_scale(std, 1), **{e: std for e in pt.embeddings()[1:]}}
    _framed_f_mats(pt, [("the good family", good)], {})
    alone = _stability_message(pt, [("the b-family", bad)])
    assert alone == f"the b-family is not F-stable at {first}"
    assert _stability_message(
        pt, [("the good family", good), ("the b-family", bad)]
    ) == alone
    # the checked triples carry over between calls, as in reconstruct_lattices
    checked: dict = {}
    _framed_f_mats(pt, [("the good family", good)], checked)
    assert checked
    assert _stability_message(pt, [("the b-family", bad)], checked) == alone


def test_stability_failure_behind_a_shared_lattice_is_found():
    # F(D) at one component of a diagonal point passes its own checks, but V(D)
    # at the next one is not inside it; that next lattice is D, as in the first
    # family, so only the lattice behind it tells the two checks apart
    datum = _datum(3, True)
    ring, pt = _diag_point(datum)
    std = standard_lattice(ring)
    first = pt.embeddings()[0]
    bad = {first: essential_frobenius_image(pt, first, 1, std)}
    bad.update({e: std for e in pt.embeddings()[1:]})
    good = {emb: std for emb in pt.embeddings()}
    alone = _stability_message(pt, [("the b-family", bad)])
    nxt = frobenius_shift(datum.places, first, 1)
    assert alone == f"the b-family is not V-stable at {nxt}"
    assert _stability_message(
        pt, [("the good family", good), ("the b-family", bad)]
    ) == alone


def _reference_stability(pt, label, lattices):
    """The stability message by images and containment, or None when stable:
    F(sigma L') inside L, then V(sigma^-1 L) inside L', at each embedding in
    turn.  Normalizing an image can exhaust the budget: PrecisionError."""
    ring, system = pt.ring, pt.datum.places
    for emb, lattice in lattices.items():
        prev = lattices[frobenius_shift(system, emb, -1)]
        f_image = mat_mul(ring, mat_unpack(ring, pt.f_mats[emb]), mat_sigma(ring, prev.basis, 1))
        if not lattice_contains(lattice, lattice_normalize(ring, prev.shift, mat_columns(f_image))):
            return f"{label} is not F-stable at {emb}"
        v_image = mat_mul(ring, v_matrix(pt, emb), mat_sigma(ring, lattice.basis, ring.m - 1))
        if not lattice_contains(prev, lattice_normalize(ring, lattice.shift, mat_columns(v_image))):
            return f"{label} is not V-stable at {emb}"
    return None


def _verdict(pt, label, lattices):
    """The stability message of the framing check, or None when stable."""
    try:
        _framed_f_mats(pt, [(label, lattices)], {})
    except PrecisionError:  # a DieudonneError too, but no verdict
        raise
    except DieudonneError as error:
        return str(error)
    return None


def _perturbed_lattice(rng, pt, emb):
    """A lattice near the standard one at ``emb``: p^{+-1} D, an essential
    Frobenius image, the omega lattice, or a random Hermite lattice."""
    ring = pt.ring
    kind = rng.randrange(6)
    if kind == 0:
        return lattice_scale(standard_lattice(ring), rng.choice((-1, 1)))
    if kind == 1:
        image = essential_frobenius_image(pt, emb, rng.randint(1, 2), standard_lattice(ring))
        return lattice_scale(image, rng.choice((-1, 0)))
    if kind == 2:
        return omega_lattice(pt, emb)
    a, b = rng.randrange(ring.budget), rng.randrange(ring.budget)
    c = tuple(rng.randrange(ring.pn) for _ in range(ring.m))
    cols = [(ring.from_int(ring.p**a), c), (ring.zero(), ring.from_int(ring.p**b))]
    return lattice_normalize(ring, rng.choice((-1, 0, 0, 1)), cols)


STABILITY_SHAPES = [  # (p, f, split, S_infty indices)
    (3, 2, True, ()),
    (2, 3, False, ()),
    (3, 3, True, (0,)),
    (2, 2, False, (1,)),
    (5, 2, True, ()),
    (2, 4, True, (0, 2)),
]


@pytest.mark.parametrize("N", [6, 8])
def test_stability_verdict_matches_images_and_containment(N):
    rng = random.Random(1100 + N)
    outcomes = {"agree": set(), "reference undecided": set()}
    for p, f, split, s_indices in STABILITY_SHAPES:
        datum = _datum(f, split, s_indices)
        ring = ring_for_datum(datum, p, N)
        for _ in range(20):
            pt = random_point(rng, ring, datum)
            family = {emb: standard_lattice(ring) for emb in pt.embeddings()}
            for emb in rng.sample(pt.embeddings(), rng.randint(1, 2)):
                while True:  # an image may not normalize at this N: draw again
                    try:
                        family[emb] = _perturbed_lattice(rng, pt, emb)
                        break
                    except PrecisionError:
                        pass
            verdict = _verdict(pt, "the family", family)
            kind = "stable" if verdict is None else verdict.split()[4]
            try:
                expected = _reference_stability(pt, "the family", family)
            except PrecisionError:
                outcomes["reference undecided"].add(kind)
                continue
            assert verdict == expected
            outcomes["agree"].add(kind)
    # every verdict is reached where the reference decides, and the framing
    # check decides some families whose images do not normalize
    assert outcomes["agree"] == {"stable", "F-stable", "V-stable"}
    assert outcomes["reference undecided"]


def test_p_inverse_d_at_one_embedding_is_not_v_stable_at_n_6():
    # F maps D behind onto p^-1 D with divisors (1, 2): a second divisor of 2
    # lies at the budget N - RESERVE = 2, yet the framing check decides it
    datum = _datum(3, True)
    ring, pt = _antidiag_point(datum, N=6)
    first = pt.embeddings()[0]
    family = {emb: standard_lattice(ring) for emb in pt.embeddings()}
    family[first] = lattice_scale(standard_lattice(ring), -1)
    assert _verdict(pt, "the family", family) == f"the family is not V-stable at {first}"
    assert _reference_stability(pt, "the family", family) == _verdict(pt, "the family", family)


def test_standard_triples_pass_on_random_points():
    # F has entries in W and V = sigma^-1(p F^-1) too, since make_point bounds
    # F's divisors by (0, 1): every (D, D) triple is stable, framed as F itself
    rng = random.Random(1131)
    for p, f, split, s_indices in STABILITY_SHAPES:
        datum = _datum(f, split, s_indices)
        for N in (6, 8):
            ring = ring_for_datum(datum, p, N)
            for _ in range(3):
                pt = random_point(rng, ring, datum)
                family = {emb: standard_lattice(ring) for emb in pt.embeddings()}
                assert _reference_stability(pt, "D", family) is None
                assert _framed_f_mats(pt, [("D", family)], {}) == dict(pt.f_mats)


def test_capped_valuation_never_reads_stable():
    # f = 1, so each lattice lies behind itself.  F = p at the signature-0
    # embedding and B = diag(p^4, p^5): the product p^d B^-1 F sigma(B) is
    # p^10 = 0 mod p^10, and the framed F, p^-9 times it, could be p or not.
    # These bases share a power of p, so they are not in Hermite form; the
    # framing check reads only the lattices they span
    datum = _datum(1, True, (0,))
    ring = ring_for_datum(datum, 3, 10)
    (emb,) = half_system(datum)
    signature = {e: 0 if e == emb else 2 for e in datum.places.embeddings()}
    pt = point_from_half_system(
        ring,
        datum,
        {emb: mat2(ring, [[3, 0], [0, 3]])},
        {emb: mat2(ring, [[0, 1], [ring.pn - 1, 0]])},
        signature,
    )
    family = {e: standard_lattice(ring) for e in pt.embeddings()}
    family[emb] = Lattice2(ring, 0, 4, 5, ring.zero())
    with pytest.raises(PrecisionError, match="cannot decide"):
        _verdict(pt, "the family", family)
    # f = 2: diag(p^4, p^5) behind p diag(p^5, p^5) under F = diag(1, p); the
    # product is again 0 mod p^10, and p^-8 times it has divisors at least 2
    datum = _datum(2, True)
    ring, pt = _diag_point(datum, N=10)
    first = pt.embeddings()[0]
    behind = frobenius_shift(datum.places, first, -1)
    assert mat_unpack(ring, pt.f_mats[first]) == mat2(ring, [[1, 0], [0, 3]])
    family = {first: Lattice2(ring, 0, 4, 5, ring.zero())}
    family[behind] = Lattice2(ring, 1, 5, 5, ring.zero())
    family.update({e: standard_lattice(ring) for e in pt.embeddings() if e not in family})
    assert _verdict(pt, "the family", family) == f"the family is not V-stable at {first}"


def test_verify_roundtrip_returns_the_reconstructed_point():
    for f, split, vanish in [(3, False, {0, 1}), (3, True, {1}), (2, True, {0, 1})]:
        datum = _datum(f, split)
        _, pt = _template_point(datum, vanish)
        for t in (frozenset(sorted(stratum_of_point(pt))[:1]), stratum_of_point(pt)):
            descriptor = stratum_descriptor(datum, t)
            lift = lift_assignment(datum, descriptor, s_lift=_zeros(pt))
            triple = build_isogeny_triple(pt, t)
            assert triple.descriptor == descriptor and triple.lift == lift
            expected = reconstruct_point(*_point_args(triple, datum))
            assert verify_roundtrip(pt, t) == expected


@pytest.mark.parametrize(
    "p, f, split, s_indices",
    [(2, 2, True, ()), (3, 3, False, ()), (5, 2, False, ()), (2, 3, True, (0,)), (3, 4, True, (1,)),
     (5, 3, False, (2,)), (2, 2, False, ()), (3, 2, True, ()), (5, 3, True, ()),
     (2, 3, False, (1,)), (3, 3, False, (0,)), (5, 4, True, (3,))],
)
def test_the_identity_frame_keeps_the_point(monkeypatch, p, f, split, s_indices):
    """T = empty transports a point through the identity frame onto the
    datum it came from: the target point and the rebuilt point are the
    point itself, what ``make_point`` returns for its own matrices, with no
    second ``make_point``.  A nonempty T still builds both points."""
    datum = _datum(f, split, s_indices)
    ring = ring_for_datum(datum, p)
    _, template = _template_point(datum, set(range(f)), p=p)
    t = frozenset(sorted(stratum_of_point(template))[:1])
    assert t
    calls = []

    def counted(*args, _inner=dieudonne.make_point):
        calls.append(args[1])
        return _inner(*args)

    for pt in (template, random_point(random.Random(97 + p + f), ring, datum)):
        made = make_point(ring, pt.datum, pt.f_mats, pt.pairings, pt.signature)
        target = stratum_descriptor(datum, frozenset())
        target_datum = dataclasses.replace(datum, s=target.s_of_t, level_p=target.level_t)
        assert target_datum == datum and hash(target_datum) == hash(datum)
        with monkeypatch.context() as patch:
            patch.setattr(dieudonne, "make_point", counted)
            back = verify_roundtrip(pt, frozenset())
            b_point = build_isogeny_triple(pt, frozenset()).b_point
        assert calls == []
        assert back is pt and b_point is pt and made == pt
        assert json.dumps(point_to_json(made)) == json.dumps(point_to_json(pt))
    with monkeypatch.context() as patch:
        patch.setattr(dieudonne, "make_point", counted)
        verify_roundtrip(template, t)
    assert [d == datum for d in calls] == [False, True]
    # the identity frame onto another datum still builds the point there
    other = dataclasses.replace(datum, s=dataclasses.replace(datum.s, n_other=datum.s.n_other + 2))
    std = {emb: standard_lattice(ring) for emb in template.embeddings()}
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(dieudonne, "make_point", counted)
        moved = dieudonne._frame_point(template, std, template.f_mats, other, template.signature)
    assert calls == [other] and moved.datum == other != datum


def test_roundtrip_decomposes_the_chains_once(monkeypatch):
    datum = _datum(4, True)
    _, pt = _template_point(datum, {1})
    t = frozenset(sorted(stratum_of_point(pt))[:1])
    assert t and stratum_descriptor(datum, t).case_at("p1") is CaseTag.A1
    calls = dict.fromkeys(("chain_decompose", "_chain_walk", "_check_t"), 0)
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(strata, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(strata, name, counted)
    verify_roundtrip(pt, t)
    # the descriptor checks T once, then walks its chains once without checking again
    assert calls == {"chain_decompose": 0, "_chain_walk": 1, "_check_t": 1}


def _framing_triples(system, *families):
    """The distinct (emb, lattice, lattice behind) triples of lattice families."""
    return {
        (emb, lattice, family[frobenius_shift(system, emb, -1)])
        for family in families
        for emb, lattice in family.items()
    }


@pytest.mark.parametrize("f, split, s_indices", [(2, True, ()), (3, False, (1,)), (4, True, (0,))])
def test_make_point_takes_no_inverse_and_a_roundtrip_one_delta(monkeypatch, f, split, s_indices):
    """``make_point`` checks the pairing through adj(F), so it inverts no
    unit; ``verify_roundtrip`` rebuilds with the triple's own delta sets."""
    datum = _datum(f, split, s_indices)
    ring = ring_for_datum(datum, 3)
    pt = random_point(random.Random(53 + f), ring, datum)
    twisted = twisted_partial_frobenius(pt)

    def refuse(*args):
        raise AssertionError("make_point inverted a unit")

    with monkeypatch.context() as patch:
        patch.setattr(type(ring), "inv", refuse)
        patch.setattr(dieudonne, "scaled_inverse", refuse)
        assert make_point(ring, datum, pt.f_mats, pt.pairings, pt.signature) == pt
        assert twisted_partial_frobenius(pt) == twisted
    calls = []

    def counted(*args, _inner=dieudonne.delta_sets):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(dieudonne, "delta_sets", counted)
    verify_roundtrip(pt, frozenset())
    assert len(calls) == 1


@pytest.mark.parametrize(
    "f, split, vanish, full", [(3, True, {0, 1}, False), (2, True, {0, 1}, True), (3, False, {0, 2}, False)]
)
def test_lattice_in_frame_takes_no_normalize_and_no_inverse(monkeypatch, f, split, vanish, full):
    """On a template-point roundtrip, every ``lattice_in_frame`` call (the two
    comparisons per embedding, the j-lines and the h-lines) reads the Hermite
    form off the frame's coordinates: no ``lattice_normalize``, no ``inv``."""
    datum = _datum(f, split)
    ring, pt = _template_point(datum, vanish)
    stratum = stratum_of_point(pt)
    t = stratum if full else frozenset(sorted(stratum)[:1])
    triple = build_isogeny_triple(pt, t)
    calls = dict.fromkeys(("lattice_in_frame", "lattice_normalize", "inv"), 0)
    inside = []

    def counted(name, inner):
        def wrapped(*args):
            calls[name] += bool(inside)
            return inner(*args)

        return wrapped

    monkeypatch.setattr(witt, "lattice_normalize", counted("lattice_normalize", witt.lattice_normalize))
    monkeypatch.setattr(type(ring), "inv", counted("inv", type(ring).inv))

    def framed(*args, _inner=dieudonne.lattice_in_frame):
        inside.append(True)
        calls["lattice_in_frame"] += 1
        try:
            return _inner(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(dieudonne, "lattice_in_frame", framed)
    verify_roundtrip(pt, t)
    lines = len(triple.j_lines) + len(triple.h_lines)
    assert lines and (bool(triple.h_lines) == full)
    assert calls == {
        "lattice_in_frame": 2 * len(pt.embeddings()) + lines,
        "lattice_normalize": 0,
        "inv": 0,
    }


def test_roundtrip_frames_each_triple_once_per_direction(monkeypatch):
    datum = _datum(4, True)
    _, pt = _template_point(datum, {1})
    t = frozenset(sorted(stratum_of_point(pt))[:1])
    assert t == {ArchPlace("p1", 0)}
    assert stratum_descriptor(datum, t).case_at("p1") is CaseTag.A1
    triple = build_isogeny_triple(pt, t)
    m, l, f_mats = reconstruct_lattices(*_lattice_args(triple))
    frames = []

    def counted(lattice, mat, _inner=dieudonne.frame_times):
        frames.append(lattice)
        return _inner(lattice, mat)

    monkeypatch.setattr(dieudonne, "frame_times", counted)
    back = verify_roundtrip(pt, t)
    # forward: the c- and b-families; back: the rebuilt c- and a-families, whose
    # framed F-matrices are the rebuilt point's F.  A triple of two standard
    # lattices takes F as it is, with no framing
    std = standard_lattice(pt.ring)
    forward = _framing_triples(datum.places, triple.c, triple.b)
    rebuilt = _framing_triples(datum.places, m, l)
    standard = {key for key in forward | rebuilt if key[1:] == (std, std)}
    assert standard and standard < forward | rebuilt
    assert len(frames) == len(forward - standard) + len(rebuilt - standard)
    assert back.f_mats == f_mats


@pytest.mark.parametrize(
    "f, split, vanish", [(4, True, {1, 2, 3}), (3, True, {0, 1}), (3, False, {0, 1})]
)
def test_roundtrip_walks_one_step_per_lattice(monkeypatch, f, split, vanish):
    datum = _datum(f, split)
    _, pt = _template_point(datum, vanish)
    t = stratum_of_point(pt)
    triple = build_isogeny_triple(pt, t)
    stages, calls = [], []

    def staged(stage, inner):
        def wrapped(*args):
            stages.append(stage)
            try:
                return inner(*args)
            finally:
                stages.pop()

        return wrapped

    for name, stage in [
        ("build_isogeny_triple", "forward"),
        ("reconstruct_lattices", "inverse"),
        ("hasse_vanishes", "hasse"),
    ]:
        monkeypatch.setattr(dieudonne, name, staged(stage, getattr(dieudonne, name)))

    def counted(pt, emb, n, start, _inner=dieudonne.essential_frobenius_image):
        calls.append((stages[-1], n))
        return _inner(pt, emb, n, start)

    monkeypatch.setattr(dieudonne, "essential_frobenius_image", counted)
    verify_roundtrip(pt, t)
    # the forward map walks every delta run once, the inverse map each recipe
    # entry once from its anchor to its lowest offset; membership in the
    # stratum is checked by the Hasse invariants and is not counted
    walk = sum(
        _chain_m(datum, triple.descriptor, base) + 1 - a_list[0]
        for base, a_list in triple.lift.recipes["p1"]
    )
    steps = len(triple.delta.plus) + len(triple.delta.minus)
    assert [n for stage, n in calls if stage == "forward"] == [1] * steps
    assert [n for stage, n in calls if stage == "inverse"] == [1] * walk
    if (f, split) == (4, True):  # T = {0, 1, 2}: one chain, ending on its j-line
        assert t == {ArchPlace("p1", i) for i in range(3)} and (steps, walk) == (4, 3)


def test_roundtrip_rejects_every_other_j_line(monkeypatch):
    datum = _datum(3, True)
    ring, pt = _template_point(datum, {0, 1})
    lines = [Lattice2(ring, 0, 0, 1, ring.from_int(c)) for c in range(ring.p)]
    lines.append(Lattice2(ring, 0, 1, 0, ring.zero()))
    swaps = 0
    for tau in sorted(stratum_of_point(pt)):
        t = frozenset({tau})
        triple = build_isogeny_triple(pt, t)
        (anchor, line), = triple.j_lines.items()
        (emb,) = triple.delta.minus
        assert line in lines
        for other in lines:
            if other == line:
                continue
            swapped = dataclasses.replace(triple, j_lines=FrozenMap({anchor: other}))
            monkeypatch.setattr(dieudonne, "build_isogeny_triple", lambda *_, s=swapped: s)
            with pytest.raises(DieudonneError) as info:
                verify_roundtrip(pt, t)
            # the j-line moves the rebuilt c-lattice only at the minus set's one embedding
            assert str(info.value) == f"c-lattice mismatch at {emb}"
            swaps += 1
    assert swaps == 2 * ring.p


def test_precision_shortfall_is_a_precision_error():
    datum = _datum(2, True)
    with pytest.raises(PrecisionError) as info:
        _antidiag_point(datum, N=5)
    assert isinstance(info.value, DieudonneError)
    assert "precision budget N - RESERVE = 5 - 4 = 1" in str(info.value)
    ring, pt = _antidiag_point(datum, N=8)
    shallow = ring_for_datum(datum, 3, 5)
    with pytest.raises(PrecisionError):
        _reduced_point(pt, shallow)


def test_long_composites_keep_n_minus_one_digits():
    """At f = 8 split with S_infty = {0, ..., 5}, the free places have
    n_tau = 7, six of whose steps are F = p U behind a signature 0.  The
    essential composite divides each of those p out, so at N = 6 it keeps its
    divisors (0, 1), and a point drawn at N = 16 and read at N = 6 has the
    stratum it has at N = 16."""
    datum = _datum(8, True, range(6))
    ring = ring_for_datum(datum, 3, 6)
    points = [_template_point(datum, vanish, N=16)[1] for vanish in ({0}, {7}, {0, 7}, set())]
    points += [random_point(random.Random(seed), ring_for_datum(datum, 3, 16), datum)
               for seed in range(3)]
    strata_seen = set()
    for fine in points:
        pt = _reduced_point(fine, ring)
        stratum = stratum_of_point(fine)
        assert stratum_of_point(pt) == stratum
        strata_seen.add(stratum)
        for emb in pt.embeddings():
            if restrict(datum.places, emb) not in datum.s.s_infty:
                composite = mat_pack(ring, essential_frobenius_matrix(pt, emb, 7))
                assert elementary_divisors(ring, composite) == (0, 1)
    # empty and nonempty strata, and both free places vanishing together
    assert len(strata_seen) == 4, strata_seen


def test_lowering_precision_never_changes_the_stratum():
    """A point drawn at N=12 and reduced to a lower N either raises a
    precision error or keeps its stratum: never a different answer."""
    shapes = [
        (2, 2, True, ()), (3, 2, True, ()), (5, 2, True, ()),
        (3, 3, True, (0,)), (2, 3, False, ()), (3, 2, False, ()),
    ]

    outcomes = {"equal": 0, "nonempty": 0, "precision": 0}
    for p, f, split, s_indices in shapes:
        datum = _datum(f, split, s_indices)
        ring = ring_for_datum(datum, p, 12)
        for seed in range(15):
            pt = random_point(random.Random(seed), ring, datum)
            stratum = stratum_of_point(pt)
            for n in (5, 6, 8):
                low = ring_for_datum(datum, p, n)
                try:
                    got = stratum_of_point(_reduced_point(pt, low))
                except PrecisionError:
                    outcomes["precision"] += 1
                    continue
                assert got == stratum, (p, f, seed, n)
                outcomes["equal"] += 1
                outcomes["nonempty"] += bool(stratum)
    # the property is not vacuous: answers are compared, nonempty strata too
    assert outcomes["equal"] and outcomes["nonempty"] and outcomes["precision"]


def _reduced_lattice(ring, lattice):
    """A lattice found at a larger N, read on ``ring``."""
    return Lattice2(ring, lattice.shift, lattice.a, lattice.b, tuple(c % ring.pn for c in lattice.c))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_point_read_at_two_lower_precisions_roundtrips_to_the_same_lattices(p):
    """Template points drawn at N = 16, with a stratum of every free place,
    and read through ``make_point`` at N = 8 and N = 6 keep their stratum, and every T inside it roundtrips to
    the N = 16 b- and c-lattices, reduced; at N = 5 the budget of one digit
    cannot split the divisors (0, 1), and ``make_point`` raises
    ``PrecisionError``."""
    roundtrips = 0
    for f, split in [(2, True), (3, False), (4, True)]:
        datum = _datum(f, split)
        _, pt = _template_point(datum, set(range(f)), p=p, N=16)
        stratum = sorted(stratum_of_point(pt))
        assert len(stratum) == f
        subsets = [frozenset(t) for size in range(len(stratum) + 1)
                   for t in itertools.combinations(stratum, size)]
        forward = {t: build_isogeny_triple(pt, t) for t in subsets}
        for n in (8, 6):
            low = ring_for_datum(datum, p, n)
            read = _reduced_point(pt, low)
            assert stratum_of_point(read) == frozenset(stratum)
            for t in subsets:
                verify_roundtrip(read, t)
                triple = build_isogeny_triple(read, t)
                for family in ("b", "c"):
                    expected = {emb: _reduced_lattice(low, lattice)
                                for emb, lattice in getattr(forward[t], family).items()}
                    assert getattr(triple, family) == expected, (f, split, n, t, family)
                roundtrips += 1
        with pytest.raises(PrecisionError):
            _reduced_point(pt, ring_for_datum(datum, p, 5))
    assert roundtrips == 2 * (2**2 + 2**3 + 2**4)


# --- roundtrips ---------------------------------------------------------------


def test_roundtrip_on_random_points():
    rng = random.Random(41)
    for f, split in [(2, True), (3, True), (4, True)]:
        datum = _datum(f, split, [] if f % 2 == 0 else [0])
        ring = ring_for_datum(datum, 3)
        done = 0
        for _ in range(200):
            pt = random_point(rng, ring, datum)
            stratum = stratum_of_point(pt)
            if not stratum:
                continue
            for r in range(1, len(stratum) + 1):
                for combo in itertools.combinations(sorted(stratum), r):
                    _roundtrip(ring, datum, pt, frozenset(combo))
                    done += 1
            if done >= 6:
                break
        assert done > 0


def test_template_points_have_prescribed_strata():
    for f, split in [(3, False), (4, False), (3, True)]:
        datum = _datum(f, split)
        for bits in range(2**f):
            vanish = {k for k in range(f) if bits >> k & 1}
            _, pt = _template_point(datum, vanish)
            assert stratum_of_point(pt) == {
                ArchPlace("p1", (k - 1) % f) for k in vanish
            }


def test_roundtrip_on_inert_template_points():
    for f in (2, 3, 4):
        datum = _datum(f, False)
        for bits in range(1, 2**f):
            vanish = {k for k in range(f) if bits >> k & 1}
            ring, pt = _template_point(datum, vanish)
            stratum = stratum_of_point(pt)
            for r in range(1, len(stratum) + 1):
                for combo in itertools.combinations(sorted(stratum), r):
                    _roundtrip(ring, datum, pt, frozenset(combo))


def test_roundtrip_full_cycle_iwahori_case():
    for f, split in [(2, True), (2, False), (4, False)]:
        datum = _datum(f, split)
        ring, pt = _antidiag_point(datum)
        t = frozenset(datum.places.arch_places("p1"))
        descriptor = stratum_descriptor(datum, t)
        assert descriptor.case_at("p1") is CaseTag.A2
        triple = _roundtrip(ring, datum, pt, t)
        target = triple.b_point.datum
        assert classify_prime(target, "p1") is PrimeType.ALPHA_SHARP
        assert target.level("p1") is Level.IWAHORI
        assert len(triple.h_lines) == len(delta_sets(
            datum, descriptor, lift_assignment(datum, descriptor, s_lift=frozenset())
        ).minus)


def _lines_between_pd_and_d(ring):
    """The q + 1 lattices between pD and D, q = p^m."""
    lines = [Lattice2(ring, 0, 0, 1, c) for c in itertools.product(range(ring.p), repeat=ring.m)]
    return lines + [Lattice2(ring, 0, 1, 0, ring.zero())]


@pytest.mark.parametrize(
    "f, split, s_indices, targets, admitted",
    [(2, True, (), 10, 5), (2, False, (), 4, 2), (3, True, (0,), 3, 2)],
)
def test_reconstruction_rejects_iwahori_lines_outside_the_stratum(
    f, split, s_indices, targets, admitted
):
    """Every choice of h-lines over seeded A2 targets: a returned point lies
    in the stratum of T and roundtrips on T, and every other choice raises a
    DieudonneError, naming the first place of T that the rebuilt point
    misses, or, with S_infty nonempty, most often the rebuilt c-family's
    instability."""
    datum = _datum(f, split, s_indices)
    system = datum.places
    ring = ring_for_datum(datum, 3)
    t = frozenset(tau for tau in system.arch_places("p1") if tau not in datum.s.s_infty)
    descriptor = stratum_descriptor(datum, t)
    assert descriptor.case_at("p1") is CaseTag.A2
    zeros = frozenset(canonical_lift(system, tau) for tau in datum.s.s_infty)
    lift = lift_assignment(datum, descriptor, s_lift=zeros)
    delta = delta_sets(datum, descriptor, lift)
    expected = dimension_count_check(datum, signature_from_lift(datum, zeros), delta)
    target = dataclasses.replace(datum, s=descriptor.s_of_t, level_p=descriptor.level_t)
    minus = sorted(delta.minus)
    rng = random.Random(1400 + 10 * f + split)
    outcomes = {"admitted": 0, "outside the stratum": 0, "not stable": 0}
    for _ in range(targets):
        b_point = random_point(rng, ring, target, signature=expected)
        for choice in itertools.product(_lines_between_pd_and_d(ring), repeat=len(minus)):
            h_lines = dict(zip(minus, choice))
            try:
                pt = reconstruct_point(b_point, {}, h_lines, descriptor, lift, datum)
            except DieudonneError as error:
                message = str(error)
                if message.startswith("the rebuilt point is outside the stratum of T: "):
                    _, l_lat, f_mats = reconstruct_lattices(b_point, {}, h_lines, descriptor, lift, delta)
                    rebuilt = dieudonne._point_from_lattices(b_point, l_lat, f_mats, lift, datum)
                    first = min(t - stratum_of_point(rebuilt))
                    assert message.endswith(f": {first} is missing"), message
                    outcomes["outside the stratum"] += 1
                else:
                    assert message.startswith("the rebuilt c-family is not "), message
                    outcomes["not stable"] += 1
                continue
            assert t <= stratum_of_point(pt)
            verify_roundtrip(pt, t)
            outcomes["admitted"] += 1
    lines = (ring.p**ring.m + 1) ** len(minus)
    assert sum(outcomes.values()) == targets * lines, outcomes
    assert outcomes["admitted"] == admitted, outcomes
    assert outcomes["outside the stratum"] > 0, outcomes
    assert (outcomes["not stable"] > 0) == bool(s_indices), outcomes


def test_roundtrip_full_cycle_ramified_case():
    for f in (1, 3):
        datum = _datum(f, False)
        ring, pt = _antidiag_point(datum)
        t = frozenset(datum.places.arch_places("p1"))
        descriptor = stratum_descriptor(datum, t)
        assert descriptor.case_at("p1") is CaseTag.B2
        triple = _roundtrip(ring, datum, pt, t)
        target = triple.b_point.datum
        assert classify_prime(target, "p1") is PrimeType.BETA_SHARP
        assert target.level("p1") is Level.MAXIMAL_ORDER
        # the target pairing is imperfect with colength exactly one
        for emb in triple.b_point.embeddings():
            from gostrata.witt import mat_det

            assert ring.val(mat_det(ring, mat_unpack(ring, triple.b_point.pairings[emb]))) == 1


def test_roundtrip_odd_chain_uses_j_line():
    # a T placed right below a ramified place produces an odd chain, whose
    # reconstruction consumes the j-line data
    rng = random.Random(47)
    datum = _datum(3, True, [0])
    ring = ring_for_datum(datum, 3)
    target = ArchPlace("p1", 2)
    hits = 0
    for _ in range(300):
        pt = random_point(rng, ring, datum)
        if target not in stratum_of_point(pt):
            continue
        t = frozenset({target})
        descriptor = stratum_descriptor(datum, t)
        lift = lift_assignment(datum, descriptor, s_lift=_zeros(pt))
        (base, a_list), = lift.recipes["p1"]
        triple = build_isogeny_triple(pt, t)
        assert triple.descriptor == descriptor and triple.lift == lift
        if a_list[-1] == _chain_m(datum, descriptor, base) + 1:
            assert triple.j_lines
            # dropping the j-line breaks the reconstruction
            with pytest.raises(DieudonneError):
                reconstruct_lattices(triple.b_point, {}, {}, descriptor, lift, triple.delta)
            hits += 1
        _roundtrip(ring, datum, pt, t)
        if hits >= 3:
            break
    assert hits > 0


def _chain_m(datum, descriptor, base_tilde):
    top = restrict(datum.places, base_tilde)
    for chain in descriptor.chains["p1"]:
        if chain.top == top:
            return chain.m
    raise AssertionError("no chain found")


def _without_one_h_line():
    """An A2 triple rebuilt with its first h-line dropped."""
    datum = _datum(2, True)
    _, pt = _template_point(datum, {0, 1})
    triple = build_isogeny_triple(pt, stratum_of_point(pt))
    assert triple.descriptor.case_at("p1") is CaseTag.A2
    dropped, *kept = triple.h_lines
    h_lines = {emb: triple.h_lines[emb] for emb in kept}
    args = (triple.b_point, triple.j_lines, h_lines, triple.descriptor, triple.lift, triple.delta)
    return (lambda: reconstruct_lattices(*args)), f"missing Iwahori line at {dropped}"


def _j_line_replaced_by(scale):
    """A triple's one j-line replaced by p^scale D, D the standard lattice:
    the walk from it rebuilds a c-lattice whose colength in D is wrong.  D
    and pD are lines no point of the stratum has, since a j-line has
    colength 1 in D."""
    datum = _datum(2, True)
    ring, pt = _template_point(datum, {0})
    triple = build_isogeny_triple(pt, stratum_of_point(pt))
    (anchor,) = triple.j_lines
    assert anchor == pt.embeddings()[0] and triple.descriptor.case_at("p1") is CaseTag.A1
    j_lines = {anchor: lattice_scale(standard_lattice(ring), scale)}
    args = (triple.b_point, j_lines, triple.h_lines, triple.descriptor, triple.lift, triple.delta)
    return (lambda: reconstruct_lattices(*args)), f"wrong rebuilt colength at {_emb_text(0, 1)}"


def _essential_composite_at_zero(composite):
    datum = _datum(2, True)
    _, pt = _antidiag_point(datum)
    return (lambda: composite(pt, pt.embeddings()[0], 0)), "n must be at least 1"


def _uncovered_half_system():
    datum = _datum(2, True)
    ring = ring_for_datum(datum, 3)
    first = half_system(datum)[0]
    f_mats = {first: mat2(ring, [[0, 1], [3, 0]])}
    pairings = {first: mat2(ring, [[0, 1], [ring.pn - 1, 0]])}
    signature = dict.fromkeys(datum.places.embeddings(), 1)
    return (
        lambda: point_from_half_system(ring, datum, f_mats, pairings, signature),
        "half-system data must cover one lift per place",
    )


def _div_p_of_a_non_multiple():
    ring = witt_ring(3, 2, 8)
    return (lambda: ring.div_p(ring.from_int(3), 2)), "element not divisible by the requested power of p"


def _sum_over_two_rings():
    one, other = standard_lattice(witt_ring(3, 2, 8)), standard_lattice(witt_ring(3, 2, 6))
    return (lambda: witt.lattice_sum(one, other)), "lattices live over different rings"


def _ring_of_the_wrong_degree():
    datum = _datum(2, True)
    ring = witt_ring(3, 3, 8)
    return (lambda: make_point(ring, datum, {}, {}, {})), "ring degree 3 incompatible with cycle length 2"


def _signatures_that_do_not_sum_to_two():
    datum = _datum(2, True)
    ring = ring_for_datum(datum, 3)
    embs = datum.places.embeddings()
    f_mats = dict.fromkeys(embs, mat_pack(ring, mat2(ring, [[1, 0], [0, 1]])))
    pairings = dict.fromkeys(embs, mat_pack(ring, mat2(ring, [[0, 1], [ring.pn - 1, 0]])))
    signature = dict.fromkeys(embs, 2)
    return (
        lambda: make_point(ring, datum, f_mats, pairings, signature),
        f"signatures at {embs[0]} and its conjugate do not sum to 2",
    )


def _matrices_without_one_embedding():
    datum = _datum(2, True)
    ring, pt = _antidiag_point(datum)
    dropped = pt.embeddings()[-1]
    f_mats = {emb: mat for emb, mat in pt.f_mats.items() if emb != dropped}
    return (
        lambda: make_point(ring, datum, f_mats, pt.pairings, pt.signature),
        "matrices must be indexed by the full embedding cycle",
    )


def _point_record_whose_ring_lacks_p():
    _, pt = _json_point()
    data = point_to_json(pt)
    del data["ring"]["p"]
    return (lambda: point_from_json(data)), "point record field 'ring' lacks the key 'p'"


@pytest.mark.parametrize(
    "case, error",
    [
        (lambda: _essential_composite_at_zero(essential_frobenius_matrix), DieudonneError),
        (lambda: _essential_composite_at_zero(essential_verschiebung_matrix), DieudonneError),
        (_without_one_h_line, DieudonneError),
        (lambda: _j_line_replaced_by(0), DieudonneError),
        (lambda: _j_line_replaced_by(1), DieudonneError),
        (_div_p_of_a_non_multiple, witt.WittError),
        (_sum_over_two_rings, witt.WittError),
        (_uncovered_half_system, DieudonneError),
        (_ring_of_the_wrong_degree, DieudonneError),
        (_signatures_that_do_not_sum_to_two, DieudonneError),
        (_matrices_without_one_embedding, DieudonneError),
        (_point_record_whose_ring_lacks_p, DieudonneError),
    ],
    ids=[
        "frobenius_composite_n_0",
        "verschiebung_composite_n_0",
        "missing_iwahori_line",
        "j_line_d_rebuilt_colength",
        "j_line_pd_rebuilt_colength",
        "div_p_non_multiple",
        "lattice_sum_two_rings",
        "half_system_coverage",
        "ring_degree_vs_cycle",
        "conjugate_signature_sum",
        "embedding_missing_from_f_mats",
        "ring_record_without_p",
    ],
)
def test_direct_calls_reach_their_raises(case, error):
    """Raises that only a direct call reaches, each with its type and message."""
    call, message = case()
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def _one_coefficient_off(datum, table, index):
    """``make_point`` on a seeded point (p = 3, N = 8) with p^(budget - 1)
    added to coefficient 0 of entry (0, 1) of its F-matrix or pairing at
    the embedding ``index``; with the point's ring and F-matrices."""
    ring = ring_for_datum(datum, 3)
    pt = random_point(random.Random(41), ring, datum)
    mats = {"f": _unpacked(ring, pt.f_mats), "pairing": _unpacked(ring, pt.pairings)}
    emb = pt.embeddings()[index]
    rows = [list(row) for row in mats[table][emb]]
    rows[0][1] = ring.add(rows[0][1], ring.from_int(ring.p ** (ring.budget - 1)))
    mats[table][emb] = tuple(map(tuple, rows))
    f_mats, pairings = _packed(ring, mats["f"]), _packed(ring, mats["pairing"])
    return (lambda: make_point(ring, datum, f_mats, pairings, pt.signature)), ring, mats["f"]


@pytest.mark.parametrize(
    "shape, table, index, d, message",
    [
        ((2, True, (0,)), "pairing", 1, None,
         f"pairing at {_emb_text(0, 1)} is not conjugate-antisymmetric"),
        ((2, True, (0,)), "pairing", 3, None,
         f"pairing at {_emb_text(0, 1)} is not conjugate-antisymmetric"),
        ((2, True, (0,)), "f", 1, 0, f"pairing is incompatible with F and V at {_emb_text(0, 1)}"),
        ((2, True, (0,)), "f", 3, 2, f"pairing is incompatible with F and V at {_emb_text(1, 1)}"),
        ((3, False, (1,)), "f", 2, 0, f"pairing is incompatible with F and V at {_emb_text(0, 2)}"),
        ((3, False, (1,)), "f", 5, 2, f"pairing is incompatible with F and V at {_emb_text(0, 5)}"),
    ],
    ids=["antisym_break_in_p_e", "antisym_break_in_p_c", "compat_conjugate_d_0",
         "compat_conjugate_d_2", "compat_conjugate_d_0_inert", "compat_conjugate_d_2_inert"],
)
def test_fused_pairing_checks_keep_their_raises(shape, table, index, d, message):
    """The pairing checks that ``make_point`` fuses, each broken in one
    coefficient, raise where checks at every embedding would, with the
    same message: antisymmetry once per conjugate pair, whether P at 0:1
    or at its conjugate 1:1 is broken, names 0:1; the compatibility check,
    which folds p^(1 - d) into its residues, names the embedding it names
    unfused, where the conjugate's F has det valuation d = 0 and d = 2."""
    call, ring, f_mats = _one_coefficient_off(_datum(*shape), table, index)
    with pytest.raises(DieudonneError) as info:
        call()
    assert type(info.value) is DieudonneError and str(info.value) == message
    if d is not None:
        named = next(emb for emb in f_mats if str(emb) in message)
        conj = conjugate(_datum(*shape).places, named)
        assert ring.val(mat_det(ring, f_mats[conj])) == d


# --- twisted partial Frobenius ------------------------------------------------


def test_twist_shifts_stratum_by_two():
    rng = random.Random(53)
    datum = _datum(3, True, [0, 1])
    ring = ring_for_datum(datum, 3)
    system = datum.places
    for _ in range(15):
        pt = random_point(rng, ring, datum)
        tw = twisted_partial_frobenius(pt)
        assert stratum_of_point(tw) == {
            frobenius_shift(system, tau, 2) for tau in stratum_of_point(pt)
        }
        assert tw.datum.s.s_infty == frozenset(
            frobenius_shift(system, tau, 2) for tau in datum.s.s_infty
        )


def test_twist_iterates_back_to_identity():
    rng = random.Random(59)
    datum = _datum(3, True)
    ring = ring_for_datum(datum, 3)
    pt = random_point(rng, ring, datum)
    out = pt
    for _ in range(3):  # sigma^6 = identity on a 3-cycle
        out = twisted_partial_frobenius(out)
    assert out == pt


# --- serialization ------------------------------------------------------------


def test_point_json_roundtrip():
    rng = random.Random(61)
    datum = _datum(2, False, [0])
    ring = ring_for_datum(datum, 5)
    pt = random_point(rng, ring, datum)
    assert point_from_json(point_to_json(pt)) == pt


def _json_point():
    rng = random.Random(67)
    datum = _datum(2, True)
    ring = ring_for_datum(datum, 3)
    return ring, random_point(rng, ring, datum)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda mat: mat[0][1].append("1"), "f_mats 0:1 has an entry without exactly m = 2"),
        (lambda mat: mat[1][0].pop(), "f_mats 0:1 has an entry without exactly m = 2"),
        (lambda mat: mat.append(mat[0]), "f_mats 0:1 is not a 2x2 matrix"),
        (lambda mat: mat[1].pop(), "f_mats 0:1 is not a 2x2 matrix"),
    ],
    ids=["m_plus_one_coefficients", "m_minus_one_coefficients", "three_rows", "short_row"],
)
def test_malformed_point_json_is_a_one_line_error(edit, message):
    _, pt = _json_point()
    data = point_to_json(pt)
    edit(data["f_mats"]["0:1"])
    with pytest.raises(DieudonneError, match=message) as info:
        point_from_json(data)
    assert "\n" not in str(info.value)


def _set_first_coefficient(data, value):
    data["f_mats"]["0:1"][0][0][0] = value


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data.pop("signature"), "point record lacks the field 'signature'"),
        (
            lambda data: _set_first_coefficient(data, "zz"),
            "point record field 'f_mats' is malformed: invalid literal for int() with base 16: 'zz'",
        ),
        (
            lambda data: data.__setitem__("pairings", []),
            "point record field 'pairings' is malformed: 'list' object has no attribute 'items'",
        ),
    ],
    ids=["missing_key", "non_hex_coefficient", "wrong_type"],
)
def test_point_json_bad_field_is_a_one_line_error(edit, message):
    _, pt = _json_point()
    data = point_to_json(pt)
    edit(data)
    with pytest.raises(DieudonneError) as info:
        point_from_json(data)
    assert type(info.value) is DieudonneError and str(info.value) == message
    assert "\n" not in str(info.value)


def test_point_json_well_formed_record_raises_the_librarys_error():
    """A record that parses reaches ``make_point``, whose error passes as it is."""
    ring, pt = _json_point()
    data = point_to_json(pt)
    emb = pt.embeddings()[1]
    data["signature"]["0:1"] = 2
    declared = {**pt.signature, emb: 2}
    with pytest.raises(DieudonneError) as expected:
        make_point(ring, pt.datum, pt.f_mats, pt.pairings, declared)
    with pytest.raises(DieudonneError) as info:
        point_from_json(data)
    assert type(info.value) is type(expected.value)
    assert str(info.value) == str(expected.value) == (
        f"signature mismatch at {emb}: computed 1, declared 2"
    )
    # a library error raised while a field is parsed passes as it is too
    data = point_to_json(pt)
    data["ring"]["modulus"] = [2, 0, 1]
    with pytest.raises(witt.WittError) as info:
        point_from_json(data)
    assert type(info.value) is witt.WittError
    assert str(info.value) == "modulus mismatch with the canonical choice"


def test_point_json_coefficients_are_read_mod_p_n():
    ring, pt = _json_point()
    data = point_to_json(pt)
    for name in ("f_mats", "pairings"):
        for mat in data[name].values():
            mat[0][0] = ["%x" % (int(c, 16) + ring.pn) for c in mat[0][0]]
    loaded = point_from_json(data)
    assert loaded == pt
    assert point_to_json(loaded) == point_to_json(pt)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_points_always_validate(seed):
    rng = random.Random(seed)
    datum = _datum(2, True)
    ring = ring_for_datum(datum, 3)
    pt = random_point(rng, ring, datum)
    for emb in pt.embeddings():
        assert hasse_vanishes(pt, emb) == hasse_vanishes(
            pt, conjugate(datum.places, emb)
        )


def _assert_det_val_is_read_off_the_signature(pt):
    """val det F_e = 2 - signature at sigma^-1 e, the value ``_framed_f_mats``
    reads in place of the determinant."""
    ring, system = pt.ring, pt.datum.places
    for emb in pt.embeddings():
        behind = frobenius_shift(system, emb, -1)
        assert ring.val(mat_det(ring, mat_unpack(ring, pt.f_mats[emb]))) == 2 - pt.signature[behind], emb


@pytest.mark.parametrize(
    "f, split, vanish", [(2, True, {0}), (3, True, {0, 1}), (3, False, {1}), (4, True, {1, 2})]
)
def test_template_and_b_points_read_det_val_off_the_signature(f, split, vanish):
    datum = _datum(f, split)
    _, pt = _template_point(datum, vanish)
    _assert_det_val_is_read_off_the_signature(pt)
    stratum = sorted(stratum_of_point(pt))
    assert stratum
    for size in range(len(stratum) + 1):
        for t in itertools.combinations(stratum, size):
            b_point = build_isogeny_triple(pt, frozenset(t)).b_point
            assert b_point.signature != pt.signature or not t
            _assert_det_val_is_read_off_the_signature(b_point)


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize(
    "p, f, split, s_indices",
    [(3, 2, True, ()), (2, 3, True, (0,)), (3, 2, False, ()), (2, 3, False, (1,)),
     (5, 4, True, (0, 2))],
)
def test_random_points_read_det_val_off_the_signature(p, f, split, s_indices, N):
    datum = _datum(f, split, s_indices)
    ring = ring_for_datum(datum, p, N)
    rng = random.Random(100 * p + 10 * f + N)
    zeros = set()
    for _ in range(3):
        pt = random_point(rng, ring, datum)
        _assert_det_val_is_read_off_the_signature(pt)
        _assert_det_val_is_read_off_the_signature(build_isogeny_triple(pt, frozenset()).b_point)
        zeros |= {value for value in pt.signature.values() if value != 1}
    assert zeros == ({0, 2} if s_indices else set())


def _assert_point_reduced(pt):
    """Every coefficient of every F, V and pairing matrix lies in [0, p^N),
    and each packed matrix is the packing of its coefficients."""
    ring = pt.ring
    v_mats = {emb: v_matrix(pt, emb) for emb in pt.embeddings()}
    f_mats, pairings = _unpacked(ring, pt.f_mats), _unpacked(ring, pt.pairings)
    assert _packed(ring, f_mats) == pt.f_mats and _packed(ring, pairings) == pt.pairings
    for mats in (f_mats, v_mats, pairings):
        for emb, mat in mats.items():
            for e in itertools.chain(*mat):
                assert len(e) == ring.m and all(0 <= c < ring.pn for c in e), (emb, e)


def _unreduced_json(pt, rng):
    """The point's JSON with a random multiple of p^N, up to 3, added to each
    coefficient."""
    data = point_to_json(pt)
    for name in ("f_mats", "pairings"):
        for mat in data[name].values():
            for row in mat:
                row[:] = [["%x" % (int(c, 16) + rng.randrange(4) * pt.ring.pn) for c in e]
                          for e in row]
    return data


@pytest.mark.parametrize(
    "f, split, vanish", [(2, True, {0}), (3, False, {0, 2}), (4, True, {1, 2})]
)
def test_template_points_and_their_images_are_reduced(f, split, vanish):
    """Template points, each T's b-point and the point ``verify_roundtrip``
    returns hold only coefficients in [0, p^N)."""
    datum = _datum(f, split)
    _, pt = _template_point(datum, vanish)
    _assert_point_reduced(pt)
    stratum = sorted(stratum_of_point(pt))
    assert stratum
    for size in range(len(stratum) + 1):
        for t in map(frozenset, itertools.combinations(stratum, size)):
            _assert_point_reduced(build_isogeny_triple(pt, t).b_point)
            _assert_point_reduced(verify_roundtrip(pt, t))


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize(
    "p, f, split, s_indices", [(3, 2, True, ()), (2, 3, True, (0,)), (3, 2, False, ()),
                               (2, 3, False, (1,))],
)
def test_random_points_and_their_images_are_reduced(p, f, split, s_indices, N):
    """``random_point``, its twist, its empty-T b-point and roundtrip, and the
    point read back from JSON whose coefficients carry multiples of p^N hold
    only coefficients in [0, p^N)."""
    datum = _datum(f, split, s_indices)
    ring = ring_for_datum(datum, p, N)
    rng = random.Random(300 * p + 10 * f + N)
    for _ in range(2):
        pt = random_point(rng, ring, datum)
        _assert_point_reduced(pt)
        _assert_point_reduced(twisted_partial_frobenius(pt))
        _assert_point_reduced(build_isogeny_triple(pt, frozenset()).b_point)
        _assert_point_reduced(verify_roundtrip(pt, frozenset()))
        data = _unreduced_json(pt, rng)
        assert data != point_to_json(pt)
        loaded = point_from_json(data)
        _assert_point_reduced(loaded)
        assert loaded == pt


def test_framing_a_lattice_past_n_is_a_precision_error():
    """A frame with a + b >= N has det(basis) = 0 mod p^N: the framing path
    raises rather than divide by it."""
    datum = _datum(2, True)
    _, pt = _antidiag_point(datum, N=16)
    ring = pt.ring
    wide = lattice_normalize(ring, 0, mat_columns(mat2(ring, [[3**7, 0], [1, 3**10]])))
    assert (wide.a, wide.b) == (7, 10)
    embs = pt.embeddings()
    family = {emb: standard_lattice(ring) for emb in embs}
    family[embs[0]] = wide  # framed first, before any triple behind it
    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        _framed_f_mats(pt, [("the wide family", family)], {})


def _old_close(ring, a, b, sign):
    """The valuation rule ``_close`` replaces: val(x - sign y) >= budget, with
    sign y built as a reduced matrix."""
    other = b if sign == 1 else mat_smul(ring, -1, b)
    return all(
        ring.val(ring.sub(x, y)) >= ring.budget for ra, rb in zip(a, other) for x, y in zip(ra, rb)
    )


@pytest.mark.parametrize(
    "p, m, N", [(2, 1, 4), (3, 2, 5), (2, 2, 8), (3, 4, 8), (5, 3, 12), (7, 2, 16)]
)
def test_close_matches_the_valuation_rule(p, m, N):
    """_close against the valuation rule on seeded pairs b = sign (a + delta),
    with delta a multiple of p^budget, exactly p^budget or p^(budget - 1) at one
    coefficient, or random; both sides carry negative or unreduced coefficients,
    which ``mat_pack`` reduces mod p^N before ``_close`` reads the packed slots."""
    ring = witt_ring(p, m, N)
    rng = random.Random(29000 * m + 10 * N + p)
    budget, pn = ring.budget, ring.pn
    steps = [0, pn, p**budget, -(p**budget), 3 * p**budget] if budget >= 0 else [0, pn]
    if budget >= 1:
        steps += [p ** (budget - 1), -(p ** (budget - 1))]
    outcomes = {True: 0, False: 0}
    for trial in range(240):
        sign = rng.choice((1, -1))
        step = rng.choice(steps + [None])
        a = [[[rng.randrange(pn) for _ in range(m)] for _ in range(2)] for _ in range(2)]
        delta = [[[0] * m for _ in range(2)] for _ in range(2)]
        i, j, k = rng.randrange(2), rng.randrange(2), rng.randrange(m)
        delta[i][j][k] = rng.randrange(-pn, pn) if step is None else step
        if budget >= 0 and rng.randrange(2):  # more of delta, all of it within the budget
            delta[1 - i][j][k] = rng.randrange(-3, 4) * p**budget
        b = [
            [[sign * (u + d) + rng.randrange(-2, 3) * pn for u, d in zip(x, dx)]
             for x, dx in zip(ra, rd)]
            for ra, rd in zip(a, delta)
        ]
        a = [[[u - rng.randrange(2) * pn for u in x] for x in row] for row in a]
        as_mat = lambda rows: tuple(tuple(tuple(e) for e in row) for row in rows)  # noqa: E731
        got = dieudonne._close(ring, mat_pack(ring, as_mat(a)), mat_pack(ring, as_mat(b)), sign)
        assert got == _old_close(ring, as_mat(a), as_mat(b), sign)
        if budget > 0:
            assert got == all(d % p**budget == 0 for row in delta for x in row for d in x)
        else:
            assert got
        outcomes[got] += 1
    assert outcomes[True] and (outcomes[False] or budget <= 0)


def test_unreduced_point_entries_frame_like_reduced_ones():
    """Matrices whose coefficients differ from a point's by multiples of p^N,
    given to ``make_point`` or to ``point_from_half_system``, give that very
    point, with the same JSON; it frames to the same target and source
    points."""
    datum = _datum(3, True)
    ring, pt = _template_point(datum, {0, 1})
    pn = ring.pn

    def unreduced(mat, k):
        return tuple(tuple(tuple(c + k * pn for c in e) for e in row) for row in mat)

    f_mats = {emb: unreduced(mat, 1 + i % 2)
              for i, (emb, mat) in enumerate(_unpacked(ring, pt.f_mats).items())}
    pairings = {emb: unreduced(mat, -1) for emb, mat in _unpacked(ring, pt.pairings).items()}
    half = half_system(datum)
    for raw in (
        make_point(ring, datum, _packed(ring, f_mats), _packed(ring, pairings), pt.signature),
        point_from_half_system(
            ring, datum, {emb: f_mats[emb] for emb in half},
            {emb: pairings[emb] for emb in half}, pt.signature,
        ),
    ):
        assert raw == pt
        assert point_to_json(raw) == point_to_json(pt)
    stratum = sorted(stratum_of_point(pt))
    assert stratum
    for size in range(len(stratum) + 1):
        for t in map(frozenset, itertools.combinations(stratum, size)):
            b_point = build_isogeny_triple(pt, t).b_point
            assert build_isogeny_triple(raw, t).b_point == b_point
            assert point_to_json(verify_roundtrip(raw, t)) == point_to_json(verify_roundtrip(pt, t))
