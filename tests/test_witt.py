from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

from gostrata.dieudonne import lattice_in_frame
from gostrata import dieudonne, witt
from gostrata.places import build_place_system, make_datum
from gostrata.witt import (
    NOT_SPLIT,
    DieudonneError,
    PrecisionError,
    Lattice2,
    WittError,
    _adjugate_product,
    _is_irreducible,
    _poly_gcdex,
    _poly_pow_mod,
    _poly_rem,
    elementary_divisors,
    basis_transpose_times,
    frame_times,
    frobenius,
    isprime,
    lattice_colength,
    lattice_contains,
    lattice_dual,
    lattice_index_val,
    lattice_normalize,
    lattice_scale,
    lattice_sum,
    mat2,
    mat_adjugate,
    mat_columns,
    mat_det,
    mat_identity,
    mat_mul,
    mat_pack,
    mat_sigma,
    mat_times_sigma_basis,
    mat_transpose,
    mat_unpack,
    mat_val,
    packed_adjugate,
    packed_det,
    packed_fold,
    packed_mul,
    packed_scale,
    packed_sigma,
    packed_transpose,
    ring_from_json,
    ring_to_json,
    scaled_inverse,
    standard_lattice,
    witt_ring,
)


def _rand_elem(rng, ring):
    return tuple(rng.randrange(ring.pn) for _ in range(ring.m))


def _rand_unimodular(rng, ring):
    while True:
        m = mat2(ring, [[_rand_elem(rng, ring) for _ in range(2)] for _ in range(2)])
        if ring.val(mat_det(ring, m)) == 0:
            return m


def _pow(ring, a, k):
    out = ring.one()
    for _ in range(k):
        out = ring.mul(out, a)
    return out


def _span(ring, shift, basis):
    """p^shift times the column span of a basis matrix."""
    return lattice_normalize(ring, shift, mat_columns(basis))


def _rand_shift_and_basis(rng, ring):
    diag = mat2(ring, [[ring.p ** rng.randrange(2), 0], [0, ring.p ** rng.randrange(2)]])
    basis = mat_mul(ring, _rand_unimodular(rng, ring), diag)
    return rng.randrange(-1, 2), basis


def _rand_lattice(rng, ring):
    return _span(ring, *_rand_shift_and_basis(rng, ring))


# --- ring construction -------------------------------------------------------


def test_modulus_choice_f9():
    ring = witt_ring(3, 2, 2)
    assert ring.modulus == (1, 0, 1)  # x^2 + 1
    # the Frobenius lift sends x to -x
    assert ring.frob_image == (0, ring.pn - 1)
    assert frobenius(ring, ring.gen()) == ring.neg(ring.gen())


def test_prime_field_frobenius_is_identity():
    ring = witt_ring(5, 1, 4)
    for k in range(20):
        assert frobenius(ring, ring.from_int(k)) == ring.from_int(k)


def test_frob_image_satisfies_modulus():
    for p, m in [(2, 3), (3, 3), (5, 2), (2, 4)]:
        ring = witt_ring(p, m, 8)
        assert ring.eval_poly(ring.modulus, ring.frob_image) == ring.zero()
        diff = ring.sub(ring.frob_image, _pow(ring, ring.gen(), p))
        assert ring.val(diff) >= 1


# the first monic irreducible of each degree, little-endian; recorded from
# sympy's Poly.is_irreducible before the modulus search moved to Rabin's test
PINNED_MODULI = {
    2: {
        1: (0, 1), 2: (1, 1, 1), 3: (1, 1, 0, 1), 4: (1, 1, 0, 0, 1),
        5: (1, 0, 1, 0, 0, 1), 6: (1, 1, 0, 0, 0, 0, 1),
        7: (1, 1, 0, 0, 0, 0, 0, 1), 8: (1, 1, 0, 1, 1, 0, 0, 0, 1),
    },
    3: {
        1: (0, 1), 2: (1, 0, 1), 3: (1, 2, 0, 1), 4: (2, 1, 0, 0, 1),
        5: (1, 2, 0, 0, 0, 1), 6: (2, 1, 0, 0, 0, 0, 1),
        7: (2, 0, 1, 0, 0, 0, 0, 1), 8: (2, 0, 1, 0, 0, 0, 0, 0, 1),
    },
    5: {
        1: (0, 1), 2: (2, 0, 1), 3: (1, 1, 0, 1), 4: (2, 0, 0, 0, 1),
        5: (1, 4, 0, 0, 0, 1), 6: (2, 1, 0, 0, 0, 0, 1),
        7: (1, 1, 0, 0, 0, 0, 0, 1), 8: (2, 0, 0, 0, 0, 0, 0, 0, 1),
    },
    7: {
        1: (0, 1), 2: (1, 0, 1), 3: (2, 0, 0, 1), 4: (1, 1, 0, 0, 1),
        5: (3, 1, 0, 0, 0, 1), 6: (2, 0, 0, 0, 0, 0, 1),
        7: (1, 6, 0, 0, 0, 0, 0, 1), 8: (3, 1, 0, 0, 0, 0, 0, 0, 1),
    },
}


@pytest.mark.parametrize("p", sorted(PINNED_MODULI))
def test_pinned_moduli(p):
    for m, modulus in PINNED_MODULI[p].items():
        assert witt_ring(p, m, 2).modulus == modulus


def _rabin_by_squaring(modulus, p):
    """Rabin's test with every x^(p^k) mod f found by repeated squaring: the
    reference for the library's test, which squares only up to x^p."""
    m = len(modulus) - 1
    x = _poly_rem([0, 1], modulus, p)
    if _poly_pow_mod(x, p**m, modulus, p) != x:
        return False
    for r in range(2, m + 1):
        if m % r == 0 and isprime(r):
            h = _poly_pow_mod(x, p ** (m // r), modulus, p)
            h_minus_x = [u - v for u, v in itertools.zip_longest(h, x, fillvalue=0)]
            if len(_poly_gcdex(h_minus_x, modulus, p)[0]) != 1:
                return False
    return True


def test_rabin_test_agrees_with_the_squaring_reference():
    rng = random.Random(15)
    verdicts = set()
    for p in (q for q in range(2, 54) if isprime(q)):
        for m in range(1, 9):
            for _ in range(8):
                modulus = [rng.randrange(p) for _ in range(m)] + [1]
                verdict = _is_irreducible(modulus, p)
                assert verdict == _rabin_by_squaring(modulus, p), (p, modulus)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def _first_irreducible_by_enumeration(p, m):
    """The first monic irreducible of degree m, every candidate tested in turn
    by the squaring reference."""
    for k in itertools.count():
        digits = [k // p**i % p for i in range(m)]
        if _rabin_by_squaring(digits + [1], p):
            return tuple(digits + [1])


def test_modulus_search_skips_only_reducible_binomials():
    # the grid holds both outcomes of Capelli's rule: skipped and searched blocks
    for p in (q for q in range(2, 54) if isprime(q)):
        for m in range(1, 9):
            assert witt_ring(p, m, 2).modulus == _first_irreducible_by_enumeration(p, m), (p, m)


def test_isprime_by_trial_division():
    primes = [n for n in range(-2, 60) if isprime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert isprime(7919) and not isprime(7917)


def test_witt_ring_is_memoized():
    assert witt_ring(3, 4, 8) is witt_ring(3, 4, 8)


def test_a_ring_holds_one_standard_lattice_outside_its_identity():
    """D is built with its ring, one object per ring, and is left out of the
    ring's ``==``, ``hash`` and ``repr``: a ring built again from the same
    fields is equal, hashes the same and holds an equal D of its own.  A
    deep copy or an unpickled ring, and a point over one, compare equal to
    the original, and the copy's D lies over the copy."""
    for p, m, N in ((2, 3, 8), (3, 2, 8), (5, 1, 6)):
        ring = witt_ring(p, m, N)
        std = standard_lattice(ring)
        assert std is standard_lattice(ring) and std == Lattice2(ring, 0, 0, 0, ring.zero())
        fields = (ring.p, ring.m, ring.N, ring.modulus, ring.frob_image)
        twin = witt.WittRing(*fields)
        assert twin == ring and hash(twin) == hash(ring) == hash(fields)
        assert standard_lattice(twin) is not std and standard_lattice(twin) == std
        assert repr(ring) == (
            f"WittRing(p={p}, m={m}, N={N}, modulus={ring.modulus!r}, frob_image={ring.frob_image!r})"
        )
        for again in (copy.deepcopy(ring), pickle.loads(pickle.dumps(ring))):
            assert again == ring and hash(again) == hash(ring) and repr(again) == repr(ring)
            assert standard_lattice(again).ring is again and standard_lattice(again) == std
    datum = make_datum(build_place_system([(2, True)]))
    pt = dieudonne.random_point(random.Random(5), dieudonne.ring_for_datum(datum, 3), datum)
    for again in (copy.deepcopy(pt), pickle.loads(pickle.dumps(pt))):
        assert again == pt and hash(again) == hash(pt)
        assert dieudonne.point_to_json(again) == dieudonne.point_to_json(pt)
        assert dieudonne.stratum_of_point(again) == dieudonne.stratum_of_point(pt)


def test_parameter_validation():
    with pytest.raises(WittError):
        witt_ring(4, 2, 8)
    with pytest.raises(WittError):
        witt_ring(3, 0, 8)
    with pytest.raises(WittError):
        witt_ring(3, 2, 1)


# --- frobenius properties ----------------------------------------------------


def test_frobenius_ring_endomorphism():
    rng = random.Random(101)
    for p, m in [(2, 3), (3, 2), (5, 2)]:
        ring = witt_ring(p, m, 8)
        for _ in range(30):
            a, b = _rand_elem(rng, ring), _rand_elem(rng, ring)
            fa, fb = frobenius(ring, a), frobenius(ring, b)
            assert frobenius(ring, ring.add(a, b)) == ring.add(fa, fb)
            assert frobenius(ring, ring.mul(a, b)) == ring.mul(fa, fb)
            assert frobenius(ring, a, ring.m) == a
            assert frobenius(ring, a, 0) == a
            assert ring.val(ring.sub(fa, _pow(ring, a, p))) >= 1


def test_frobenius_iterate_matches_composition():
    ring = witt_ring(2, 4, 6)
    rng = random.Random(5)
    a = _rand_elem(rng, ring)
    assert frobenius(ring, frobenius(ring, a, 1), 2) == frobenius(ring, a, 3)


# --- element arithmetic -------------------------------------------------------


def test_inverse_and_valuation():
    ring = witt_ring(3, 2, 8)
    rng = random.Random(9)
    for _ in range(30):
        a = _rand_elem(rng, ring)
        if ring.val(a) == 0:
            assert ring.mul(a, ring.inv(a)) == ring.one()
    assert ring.val(ring.from_int(9)) == 2
    assert ring.val(ring.zero()) == ring.N
    with pytest.raises(WittError):
        ring.inv(ring.from_int(3))


# --- kernel against a naive reference ---------------------------------------


def _naive_mul(ring, a, b):
    """Schoolbook product, reducing mod p^N and the modulus at every step."""
    m, q = ring.m, ring.pn
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % q
    for d in range(2 * m - 2, m - 1, -1):
        c, prod[d] = prod[d], 0
        for j in range(m):
            prod[d - m + j] = (prod[d - m + j] - c * ring.modulus[j]) % q
    return tuple(prod[:m])


def _naive_sigma(ring, a):
    """One application of x -> frob_image, by Horner's rule."""
    acc = ring.zero()
    for c in reversed(a):
        acc = ring.add(_naive_mul(ring, acc, ring.frob_image), ring.from_int(c))
    return acc


def _naive_sub(ring, a, b):
    return tuple((u - v) % ring.pn for u, v in zip(a, b))


def _naive_mat_mul(ring, x, y):
    return tuple(
        tuple(
            ring.add(_naive_mul(ring, row[0], y[0][j]), _naive_mul(ring, row[1], y[1][j]))
            for j in range(2)
        )
        for row in x
    )


def _naive_det(ring, x):
    return _naive_sub(ring, _naive_mul(ring, x[0][0], x[1][1]), _naive_mul(ring, x[0][1], x[1][0]))


KERNEL_CASES = [
    (2, 1, 4), (3, 1, 8), (2, 2, 8), (2, 3, 16), (2, 8, 16), (3, 4, 8),
    (3, 5, 16), (5, 3, 8), (7, 2, 16), (5, 6, 5),
]


@pytest.mark.parametrize("p, m, N", KERNEL_CASES)
def test_kernel_matches_naive_reference(p, m, N):
    ring = witt_ring(p, m, N)
    rng = random.Random(1000 * p + 10 * m + N)
    for _ in range(25):
        a, b = _rand_elem(rng, ring), _rand_elem(rng, ring)
        assert ring.mul(a, b) == _naive_mul(ring, a, b)
        image = a
        for k in range(m):
            assert frobenius(ring, a, k) == image
            image = _naive_sigma(ring, image)
        assert image == a  # sigma has order m
        if ring.val(a) == 0:
            assert _naive_mul(ring, a, ring.inv(a)) == ring.one()
        nonunit = ring.smul(p, a)
        with pytest.raises(WittError):
            ring.inv(nonunit)


@pytest.mark.parametrize("p, m, N", KERNEL_CASES)
def test_packed_kernel_matches_the_tuple_kernel(p, m, N):
    """The packed matrix kernel against the tuple one, on matrices whose
    entries are zero, constant or random, given with unreduced and negative
    coefficients: ``mat_unpack`` inverts ``mat_pack`` up to reduction mod
    p^N; ``packed_sigma`` is ``mat_sigma`` for k in {0, 1, 2, m - 1, m, -1};
    ``packed_fold`` of a product sum, mod p^N or mod a smaller power of p,
    is the sum unpacked and packed again; and dividing each packed int by p
    is ``div_p`` entry by entry where p divides every coefficient."""
    ring = witt_ring(p, m, N)
    rng = random.Random(2800 * p + 10 * m + N)
    pn = ring.pn
    entries = [ring.zero(), ring.from_int(rng.randrange(1, pn)), ring.from_int(pn - 1)]
    for _ in range(12):
        raw = [[[rng.randrange(-2 * pn, 3 * pn) for _ in range(m)] for _ in range(2)] for _ in range(2)]
        for i, j in rng.sample([(0, 0), (0, 1), (1, 0), (1, 1)], rng.randrange(3)):
            raw[i][j] = list(rng.choice(entries))
        a = tuple(tuple(tuple(e) for e in row) for row in raw)
        reduced = tuple(tuple(tuple(c % pn for c in e) for e in row) for row in a)
        packed = mat_pack(ring, a)
        assert mat_unpack(ring, packed) == reduced
        assert mat_pack(ring, reduced) == packed
        for k in (0, 1, 2, m - 1, m, -1):
            assert packed_sigma(ring, packed, k) == mat_pack(ring, mat_sigma(ring, a, k)), k
        other = mat_pack(ring, _rand_unimodular(rng, ring))
        for x in (packed[0] * other[1] + packed[1] * other[3], packed[2] * other[0]):
            assert packed_fold(ring, x) == ring._pack(ring._unpack(x))
            for q in (p, p ** (N // 2), pn):
                residues = tuple(c % q for c in ring._unpack(x))
                assert packed_fold(ring, x, q) == ring._pack(residues), q
        multiple = mat_pack(ring, tuple(tuple(ring.smul(p, e) for e in row) for row in a))
        quotient = tuple(tuple(ring.div_p(e, 1) for e in row) for row in mat_unpack(ring, multiple))
        assert tuple(x // p for x in multiple) == mat_pack(ring, quotient)


@pytest.mark.parametrize("p, m, N", KERNEL_CASES)
def test_constant_operands_match_naive_reference(p, m, N):
    ring = witt_ring(p, m, N)
    rng = random.Random(7000 * p + 10 * m + N)

    def const():
        return ring.from_int(rng.randrange(ring.pn))

    for _ in range(25):
        a, c, d = _rand_elem(rng, ring), const(), const()
        for x, y in [(ring.zero(), a), (a, ring.zero()), (c, a), (a, c), (c, d)]:
            assert ring.mul(x, y) == _naive_mul(ring, x, y)
        kinds = [ring.zero(), const(), _rand_elem(rng, ring)]
        x = [[rng.choice(kinds) for _ in range(2)] for _ in range(2)]
        y = [[rng.choice(kinds) for _ in range(2)] for _ in range(2)]
        assert mat_mul(ring, mat2(ring, x), mat2(ring, y)) == _naive_mat_mul(ring, x, y)
        assert mat_det(ring, mat2(ring, x)) == _naive_det(ring, x)
    # a cross term far larger than the diagonal term before reduction
    top = ring.from_int(ring.pn - 1)
    big = tuple([ring.pn - 1] * m)
    skew = mat2(ring, [[1, big], [top, 1]])
    cross = _naive_mul(ring, big, top)
    assert mat_det(ring, skew) == _naive_sub(ring, ring.one(), cross)
    # constant units invert directly; constant non-units raise at any m
    unit = ring.from_int(rng.randrange(1, p) + p * rng.randrange(ring.pn))
    for u in (ring.one(), ring.from_int(-1), unit):
        assert _naive_mul(ring, u, ring.inv(u)) == ring.one()
    for bad in (ring.zero(), ring.from_int(p), ring.from_int(p**(N - 1))):
        with pytest.raises(WittError, match="not a unit"):
            ring.inv(bad)


@pytest.mark.parametrize("p, m, N", KERNEL_CASES + [(999983, 1, 8), (999983, 2, 8)])
def test_products_landing_in_slot_zero_match_naive_reference(p, m, N):
    """mul, mat_mul and mat_det whose packed sums hold nothing above slot 0
    (constants up to p^N - 1, the slot-width edge, and zero), and general
    operands whose products happen to be constants."""
    ring = witt_ring(p, m, N)
    rng = random.Random(9000 * m + N + p)
    top = ring.from_int(ring.pn - 1)
    consts = [ring.zero(), ring.one(), top, ring.from_int(rng.randrange(ring.pn))]
    for x in consts:
        for y in consts:
            assert ring.mul(x, y) == _naive_mul(ring, x, y)
    edge = mat2(ring, [[top, top], [top, top]])
    assert mat_mul(ring, edge, edge) == _naive_mat_mul(ring, edge, edge)
    assert mat_det(ring, edge) == ring.zero()
    skew = mat2(ring, [[top, 0], [top, top]])
    assert mat_det(ring, skew) == _naive_det(ring, skew) == ring.one()
    for _ in range(10):
        x = [[rng.choice(consts) for _ in range(2)] for _ in range(2)]
        y = [[rng.choice(consts) for _ in range(2)] for _ in range(2)]
        assert mat_mul(ring, mat2(ring, x), mat2(ring, y)) == _naive_mat_mul(ring, x, y)
        assert mat_det(ring, mat2(ring, x)) == _naive_det(ring, x)
        # general operands: a unit a and a^-1 u multiply to the constant u
        a, b, u = _rand_elem(rng, ring), _rand_elem(rng, ring), rng.choice(consts)
        if ring.val(a):
            continue
        a_inv_u = ring.mul(ring.inv(a), u)
        assert ring.mul(a, a_inv_u) == _naive_mul(ring, a, a_inv_u) == u
        x = mat2(ring, [[a, b], [ring.zero(), ring.inv(a)]])
        y = mat2(ring, [[a_inv_u, ring.zero()], [ring.zero(), ring.mul(a, top)]])
        assert mat_mul(ring, x, y) == _naive_mat_mul(ring, x, y)
        assert mat_mul(ring, x, y)[1] == (ring.zero(), top)
        assert mat_det(ring, x) == _naive_det(ring, x) == ring.one()
        assert mat_mul(ring, x, mat2(ring, [[0, 0], [0, 0]])) == mat2(ring, [[0, 0], [0, 0]])


@pytest.mark.parametrize("p, m, N", KERNEL_CASES + [(999983, 1, 8), (999983, 2, 8)])
def test_frobenius_fixes_constants(p, m, N):
    """sigma^k of a constant, given zero, negative or at least p^N, is that
    constant reduced mod p^N; for k = 0 mod m sigma^k returns its argument."""
    ring = witt_ring(p, m, N)
    rng = random.Random(11000 * m + N + p)
    pn = ring.pn
    raw = [0, -1, -pn, -rng.randrange(1, 5 * pn), pn - 1, pn, rng.randrange(pn, 5 * pn)]
    for c in raw:
        a = (c,) + (0,) * (m - 1)
        reduced = ring.from_int(c)
        assert _naive_sigma(ring, reduced) == reduced
        for k in range(-m - 1, 2 * m + 2):
            assert frobenius(ring, a, k) == (a if k % m == 0 else reduced)
        mat = mat2(ring, [[a, ring.zero()], [reduced, a]])
        assert mat_sigma(ring, mat, 1) == (mat if m == 1 else mat2(ring, [[c, 0], [c, c]]))


def _hermite_lattice(ring, shift, a, b, c):
    """The lattice p^shift H(a, b, c), with the coordinates asked for when c is
    a unit."""
    l = _span(ring, shift, mat2(ring, [[ring.p**a, 0], [c, ring.p**b]]))
    assert (l.shift, l.a, l.b) == (shift, a, b)
    return l


@pytest.mark.parametrize("p, m, N", [(2, 1, 8), (2, 2, 8), (3, 4, 8), (5, 3, 12), (7, 2, 16)])
def test_hermite_product_matches_mat_mul(p, m, N):
    """mat * sigma^n(basis) in closed form, on packed operands, against
    mat_mul with mat_sigma, on random lattices, b = 0, a + b near or past N,
    and c = 0 with a, b > 0, for general and constant matrices; the packed
    result unpacks to the reference, so its slots are reduced."""
    ring = witt_ring(p, m, N)
    rng = random.Random(13000 * m + N + p)
    top = ring.budget - 1
    lattices = [_rand_lattice(rng, ring) for _ in range(8)]
    for a, b in [(0, 0), (top, 0), (0, top), (top - 1, top), (top, top)]:
        c = ring.add(ring.one(), ring.smul(p, _rand_elem(rng, ring)))  # a unit
        lattices.append(_hermite_lattice(ring, rng.randrange(-1, 2), a, b, c))
    for shift, a, b in [(-2, 1, 1), (1, 1, top), (2, top, 2)]:  # c = 0: no sigma, no product
        lattices.append(Lattice2(ring, shift, a, b, ring.zero()))
    assert m == 1 or any(any(l.c[1:]) for l in lattices)
    assert max(l.a + l.b for l in lattices) >= N - 2
    general = [
        mat2(ring, [[_rand_elem(rng, ring) for _ in range(2)] for _ in range(2)])
        for _ in range(3)
    ]
    constant = [mat2(ring, [[rng.randrange(-ring.pn, ring.pn) for _ in range(2)] for _ in range(2)])]
    for l in lattices:
        for mat in general + constant + [mat_identity(ring)]:
            for n in sorted({0, 1, m - 1, m, m + 1}):
                expected = mat_mul(ring, mat, mat_sigma(ring, l.basis, n))
                got = mat_times_sigma_basis(ring, mat_pack(ring, mat), l, n)
                assert mat_unpack(ring, got) == expected, (l, n)


def _frame_cases(rng, ring):
    """Hermite coordinates (a, b, c) with a = 0, b = 0, a + b = N - 1 and
    a + b >= N, each c reduced mod p^b; built directly, since a + b >= N - 1
    lies past what ``lattice_normalize`` accepts at most of these N.  Then
    c = 0 with a, b > 0 and a shift of -2 or 1, where no product by c is
    formed."""
    N = ring.N
    pairs = [(0, 0), (0, 1), (1, 0), (0, N - 1), (N - 1, 0), (N // 2, N - 1 - N // 2),
             (N - 2, 1), (N // 2, N - N // 2), (N, 0), (1, N)]
    for a, b in pairs:
        q = ring.p**b
        for c in (ring.zero(), tuple(x % q for x in _rand_elem(rng, ring))):
            yield Lattice2(ring, rng.randrange(-1, 2), a, b, c)
    for a, b in [(1, 1), (1, N - 2), (N - 3, 2)]:
        yield Lattice2(ring, rng.choice((-2, 1)), a, b, ring.zero())


def _frame_operands(rng, ring):
    """General, constant and identity 2x2 matrices."""
    return [
        mat2(ring, [[_rand_elem(rng, ring) for _ in range(2)] for _ in range(2)]),
        mat2(ring, [[_rand_elem(rng, ring) for _ in range(2)] for _ in range(2)]),
        mat2(ring, [[rng.randrange(ring.pn) for _ in range(2)] for _ in range(2)]),
        mat_identity(ring),
    ]


@pytest.mark.parametrize("p, m, N", KERNEL_CASES)
def test_frame_times_matches_adjugate_product(p, m, N):
    """(d, p^d basis^-1 X) from the coordinates, on packed X, against
    mat_mul(adj(basis), X), and a PrecisionError once a + b >= N, where
    det(basis) is 0 mod p^N."""
    ring = witt_ring(p, m, N)
    rng = random.Random(17000 * m + 10 * N + p)
    raised = 0
    for l in _frame_cases(rng, ring):
        for mat in _frame_operands(rng, ring):
            if l.a + l.b >= N:
                with pytest.raises(PrecisionError, match="indistinguishable from zero"):
                    frame_times(l, mat_pack(ring, mat))
                raised += 1
                continue
            expected = mat_mul(ring, mat_adjugate(ring, l.basis), mat)
            d, got = frame_times(l, mat_pack(ring, mat))
            assert (d, mat_unpack(ring, got)) == (l.a + l.b, expected), (l, mat)
    assert raised == 3 * 2 * 4  # three (a, b) past N, two c, four operands


@pytest.mark.parametrize("p, m, N", KERNEL_CASES)
def test_basis_transpose_product_matches_mat_mul(p, m, N):
    """basis^T X from the coordinates, on packed X, against
    mat_mul(basis^T, X), at every a + b: the product needs no inverse."""
    ring = witt_ring(p, m, N)
    rng = random.Random(19000 * m + 10 * N + p)
    for l in _frame_cases(rng, ring):
        for mat in _frame_operands(rng, ring):
            expected = mat_mul(ring, mat_transpose(l.basis), mat)
            got = basis_transpose_times(l, mat_pack(ring, mat))
            assert mat_unpack(ring, got) == expected, (l, mat)


def test_frame_products_with_c_zero_form_no_ring_product(monkeypatch):
    """With c = 0 the three frame products, on packed operands, are scalings
    by p^a and p^b: no ``mul``, no sigma (neither ``frobenius`` nor a sigma
    table) and no fold of a product, and the same matrices as the naive
    products."""
    ring = witt_ring(3, 4, 8)
    rng = random.Random(2121)
    cases = []
    for l in _frame_cases(rng, ring):
        if any(l.c) or l.a + l.b >= ring.N:
            continue
        for mat in _frame_operands(rng, ring):
            naive = (
                mat_mul(ring, mat, l.basis),
                mat_mul(ring, mat_adjugate(ring, l.basis), mat),
                mat_mul(ring, mat_transpose(l.basis), mat),
            )
            cases.append((l, mat, naive))
    assert len({l for l, _, _ in cases}) == 12  # b = 0 takes c = 0 too

    def refuse(*args):
        raise AssertionError("a product by c = 0")

    monkeypatch.setattr(type(ring), "mul", refuse)
    monkeypatch.setattr(type(ring), "_sigma_table", refuse)
    monkeypatch.setitem(mat_times_sigma_basis.__globals__, "frobenius", refuse)
    monkeypatch.setitem(mat_times_sigma_basis.__globals__, "packed_fold", refuse)
    for l, mat, (times, adjugate, transpose) in cases:
        packed = mat_pack(ring, mat)
        for n in (0, 1, ring.m - 1):
            assert mat_unpack(ring, mat_times_sigma_basis(ring, packed, l, n)) == times
        d, framed = frame_times(l, packed)
        assert (d, mat_unpack(ring, framed)) == (l.a + l.b, adjugate)
        assert mat_unpack(ring, basis_transpose_times(l, packed)) == transpose


def _assert_reduced(ring, e):
    assert isinstance(e, tuple) and len(e) == ring.m, e
    assert all(isinstance(c, int) and 0 <= c < ring.pn for c in e), e


@pytest.mark.parametrize("p, m, N", KERNEL_CASES)
def test_ring_ops_return_reduced_elements(p, m, N):
    """Every ring op returns m coefficients in [0, p^N) on reduced operands,
    so the elements of a point, whose matrices ``make_point`` reduces, and
    of its lattices stay reduced; ``smul(1, a)`` and ``frobenius(a, 0)``
    return a itself."""
    ring = witt_ring(p, m, N)
    rng = random.Random(23000 * m + 10 * N + p)
    top = tuple([ring.pn - 1] * m)
    elems = [ring.zero(), ring.one(), top, ring.from_int(ring.pn - 1), ring.gen()] + [
        _rand_elem(rng, ring) for _ in range(6)
    ]
    for k in (0, 1, -1, 2, p, -p, ring.pn, 3 * ring.pn + 1, -5 * ring.pn - 2):
        _assert_reduced(ring, ring.from_int(k))
        for a in elems:
            _assert_reduced(ring, ring.smul(k, a))
    for a in elems:
        assert ring.smul(1, a) is a and frobenius(ring, a, m) is a
        _assert_reduced(ring, ring.neg(a))
        for k in range(-1, m + 2):
            _assert_reduced(ring, frobenius(ring, a, k))
        if a[0] % p:
            _assert_reduced(ring, ring.inv(a))
        for k in range(ring.val(a) + 1):
            _assert_reduced(ring, ring.div_p(a, k))
        for b in elems:
            for op in (ring.mul, ring.add, ring.sub):
                _assert_reduced(ring, op(a, b))
    for _ in range(8):
        x, y = (
            mat2(ring, [[rng.choice(elems) for _ in range(2)] for _ in range(2)]) for _ in range(2)
        )
        _assert_reduced(ring, mat_det(ring, x))
        for row in mat_mul(ring, x, y):
            for e in row:
                _assert_reduced(ring, e)


EXTREME_RINGS = [
    (2, 1, 4), (999983, 1, 8), (2, 2, 8), (3, 4, 8), (2, 8, 16), (3, 8, 16), (999983, 2, 8),
]


@pytest.mark.parametrize("p, m, N", EXTREME_RINGS)
def test_slot_width_holds_extreme_operands(p, m, N):
    """Packed slots hold the largest sums the kernel forms: every coefficient
    p^N - 1, two such products in one matrix entry, and operands given with
    negative or unreduced coefficients, which packing reduces mod p^N."""
    ring = witt_ring(p, m, N)
    rng = random.Random(3000 * m + N)
    top = tuple([ring.pn - 1] * m)
    operands = [top] + [
        tuple(rng.randrange(-3 * ring.pn, 3 * ring.pn) for _ in range(m)) for _ in range(3)
    ]
    for a in operands:
        for b in operands:
            assert ring.mul(a, b) == _naive_mul(ring, a, b)
            full = mat2(ring, [[a, b], [b, a]])
            assert mat_mul(ring, full, full)[0] == (
                ring.add(_naive_mul(ring, a, a), _naive_mul(ring, b, b)),
                ring.add(_naive_mul(ring, a, b), _naive_mul(ring, b, a)),
            )
            assert mat_det(ring, full) == _naive_sub(
                ring, _naive_mul(ring, a, a), _naive_mul(ring, b, b)
            )
        image = tuple(c % ring.pn for c in a)
        for k in range(1, m):
            image = _naive_sigma(ring, image)
            assert frobenius(ring, a, k) == image
        if any(c % p for c in a):
            assert _naive_mul(ring, a, ring.inv(a)) == ring.one()


@pytest.mark.parametrize("p, m, N", EXTREME_RINGS)
def test_packed_operands_hold_extreme_entries(p, m, N):
    """Packed matrices at the slot-width edge: the packed negation of an
    all-zero entry puts p^N in every slot, and that of an all-(p^N - 1) entry
    puts 1 there.  Products, transposed products, adjugate products and
    determinants over such operands match the naive reference, and so do
    their scalar multiples."""
    ring = witt_ring(p, m, N)
    rng = random.Random(3100 * m + N)
    zero, top = ring.zero(), tuple([ring.pn - 1] * m)
    entries = [zero, top, _rand_elem(rng, ring), _rand_elem(rng, ring)]
    mats = [
        mat2(ring, [[top, zero], [zero, top]]),
        mat2(ring, [[zero, top], [top, zero]]),
        mat2(ring, [[top, top], [top, top]]),
    ] + [mat2(ring, [[rng.choice(entries) for _ in range(2)] for _ in range(2)]) for _ in range(5)]
    for x in mats:
        packed = mat_pack(ring, x)
        adj = packed_adjugate(ring, packed)
        negated = {x[0][1]: adj[1], x[1][0]: adj[2]}
        if zero in negated:
            assert negated[zero] == sum(ring.pn << s for s in range(0, ring._width * m, ring._width))
        if top in negated:
            assert negated[top] == sum(1 << s for s in range(0, ring._width * m, ring._width))
        assert packed_det(ring, packed) == mat_det(ring, x) == _naive_det(ring, x)
        assert packed_transpose(packed) == mat_pack(ring, mat_transpose(x))
        for y in mats:
            other = mat_pack(ring, y)
            product = packed_mul(ring, packed, other)
            assert mat_unpack(ring, product) == _naive_mat_mul(ring, x, y)
            assert mat_unpack(ring, packed_mul(ring, packed_transpose(packed), other)) == (
                _naive_mat_mul(ring, mat_transpose(x), y)
            )
            assert mat_unpack(ring, packed_mul(ring, other, adj)) == _naive_mat_mul(
                ring, y, mat_adjugate(ring, x)
            )
            assert mat_unpack(ring, packed_mul(ring, adj, adj)) == _naive_mat_mul(
                ring, mat_adjugate(ring, x), mat_adjugate(ring, x)
            )
            assert mat_mul(ring, x, y) == _naive_mat_mul(ring, x, y)
        scalar = rng.choice(entries)
        assert mat_unpack(ring, packed_scale(ring, scalar, packed)) == tuple(
            tuple(_naive_mul(ring, scalar, e) for e in row) for row in x
        )


@pytest.mark.parametrize("p, m, N", EXTREME_RINGS)
def test_frobenius_reads_the_table_sum_without_a_fold(p, m, N):
    """Each row of the sigma table has degree below m, so sigma^k reads the
    m slots of its table sum directly: it matches the sum folded through
    ``_unpack``, for every k in 1..m - 1, on all-(p^N - 1) and random
    elements, and m steps of sigma return the element."""
    ring = witt_ring(p, m, N)
    rng = random.Random(3200 * m + N)
    top = tuple([ring.pn - 1] * m)
    for a in [top] + [_rand_elem(rng, ring) for _ in range(4)]:
        for k in range(1, m):
            table_sum = sum(c % ring.pn * row for c, row in zip(a, ring._sigma_table(k)))
            assert frobenius(ring, a, k) == ring._unpack(table_sum)
            assert frobenius(ring, frobenius(ring, a, k), m - k) == a
        image = a
        for _ in range(m):
            image = frobenius(ring, image)
        assert image == a


def _repack_by_slots(ring, x, q):
    """The m low slots of x, each reduced mod q, one slot at a time: the
    reference for ``_repack``."""
    return sum((x >> s & ring._mask) % q << s for s in ring._shifts)


@pytest.mark.parametrize("m", range(1, 9))
def test_repack_at_p_2_matches_the_slot_loop(m):
    """For p = 2, ``_repack`` is one AND with q - 1 in every low slot.  It
    gives the slot loop's packed int for q in {2, 2^budget, 2^N} on folded
    sums of products, whose slots m to 2m - 2 still hold what the fold read
    and which the AND must drop."""
    rng = random.Random(3100 + m)
    for N in (5, 8, 16):
        ring = witt_ring(2, m, N)
        mask, pn, junk = ring._mask, ring.pn, 0
        for _ in range(12):
            a, b, c, d = (ring._pack(_rand_elem(rng, ring)) for _ in range(4))
            x = a * b + (ring._pn_packed - c) * d
            for s, row in ring._reduce:  # the fold of ``packed_fold``, before its repack
                x += (x >> s & mask) % pn * row
            junk += x >> ring._width * m > 0
            for q in (2, 2**ring.budget, pn):
                assert ring._repack(x, q) == _repack_by_slots(ring, x, q), (N, q)
        assert junk > 0 or m == 1


def _fold_then_repack(ring, x, q):
    """A packed sum folded through every reduction row, whatever lies above
    slot m - 1, then repacked: the reference for ``packed_fold``."""
    if x <= ring._mask:
        return x % q
    for s, row in ring._reduce:
        x += (x >> s & ring._mask) % ring.pn * row
    return ring._repack(x, q)


class _NoRows:
    def __iter__(self):
        raise AssertionError("a sum with nothing above slot m - 1 was folded")


@pytest.mark.parametrize("p, m, N", EXTREME_RINGS)
def test_packed_fold_folds_only_what_lies_above_slot_m(p, m, N):
    """``packed_fold`` matches fold-then-repack mod p^N and mod smaller
    powers of p, on sums with slots above m - 1 (products and two-term sums
    of products, negated operands among them) and on sums without (sums of
    two reduced elements, products by constants, integer scalings), at the
    slot-width edge too.  The second kind reads no reduction row: on a copy
    of the ring whose rows refuse to be read, it still gives the same ints."""
    ring = witt_ring(p, m, N)
    rowless = witt.WittRing(p, m, N, ring.modulus, ring.frob_image)
    object.__setattr__(rowless, "_reduce", _NoRows())
    rng = random.Random(3300 * m + N)
    pack = ring._pack
    top = pack([ring.pn - 1] * m)
    elems = [0, top] + [pack(_rand_elem(rng, ring)) for _ in range(3)]
    consts = [pack(ring.from_int(k)) for k in (1, p, ring.pn - 1)]
    qs, bound = (p, p ** (N // 2), ring.pn), 1 << ring._width * m  # bound: a slot above m - 1
    high = low = 0
    for x, y in itertools.product(elems, repeat=2):
        above = [x * y, x * y + (ring._pn_packed - y) * top, (ring._pn_packed - x) * y]
        below = [x + y, (ring._pn_packed - x) + y] + [c * x for c in consts] + [p * x, (ring.pn - 1) * y]
        for s in above + below:
            for q in qs:
                assert packed_fold(ring, s, q) == _fold_then_repack(ring, s, q), (s, q)
        for s in below:
            assert s < bound
            low += s > ring._mask
            for q in qs:
                assert packed_fold(rowless, s, q) == _fold_then_repack(ring, s, q), (s, q)
        high += sum(s >= bound for s in above)
    assert (high and low) or m == 1


# --- elementary divisors ------------------------------------------------------


def test_elementary_divisor_examples():
    ring = witt_ring(3, 2, 8)

    def divisors(rows):
        return elementary_divisors(ring, mat_pack(ring, mat2(ring, rows)))

    assert divisors([[1, 0], [0, 1]]) == (0, 0)
    assert divisors([[1, 0], [0, 3]]) == (0, 1)
    assert divisors([[0, 1], [3, 0]]) == (0, 1)
    big = ring.p**ring.budget
    assert divisors([[big, 0], [0, big]]) is NOT_SPLIT
    assert divisors([[1, 0], [0, 0]]) is NOT_SPLIT


def test_elementary_divisors_unimodular_invariant():
    rng = random.Random(77)
    ring = witt_ring(2, 2, 8)
    for _ in range(40):
        mat = mat2(
            ring,
            [
                [ring.p ** rng.randrange(3), rng.randrange(2)],
                [0, ring.p ** rng.randrange(3)],
            ],
        )
        divisors = elementary_divisors(ring, mat_pack(ring, mat))
        u, v = _rand_unimodular(rng, ring), _rand_unimodular(rng, ring)
        moved = mat_mul(ring, u, mat_mul(ring, mat, v))
        assert elementary_divisors(ring, mat_pack(ring, moved)) == divisors


# --- lattices -----------------------------------------------------------------


def test_lattice_normalize_pulls_out_p():
    ring = witt_ring(3, 2, 8)
    n = _span(ring, 1, mat2(ring, [[3, 0], [0, 3]]))
    assert n.shift == 2
    assert n.basis == mat_identity(ring)


def test_lattice_normalize_idempotent_and_basis_independent():
    rng = random.Random(13)
    ring = witt_ring(3, 2, 8)
    for _ in range(40):
        shift, basis = _rand_shift_and_basis(rng, ring)
        n = _span(ring, shift, basis)
        assert _span(ring, n.shift, n.basis) == n
        # right multiplication by a unimodular matrix preserves the span
        scrambled = _span(ring, shift, mat_mul(ring, basis, _rand_unimodular(rng, ring)))
        assert scrambled == n


def _hermite_lattices(rng, ring, count):
    """Hermite lattices from products of two random lattices, so that a, b
    range over 0..2 and c is a general element."""
    for _ in range(count):
        (shift, a), (_, b) = _rand_shift_and_basis(rng, ring), _rand_shift_and_basis(rng, ring)
        yield _span(ring, shift, mat_mul(ring, a, b))


def test_lattice_normalize_returns_hermite_input_unchanged():
    rng = random.Random(29)
    ring = witt_ring(3, 2, 8)
    std = standard_lattice(ring)
    assert (std.shift, std.a, std.b, std.c) == (0, 0, 0, ring.zero())
    assert std.basis == mat_identity(ring)
    for h in _hermite_lattices(rng, ring, 20):
        pb = ring.p**h.b
        assert 0 <= h.a < ring.budget and 0 <= h.b < ring.budget
        assert all(0 <= e < pb for e in h.c)
        assert h.basis == mat2(ring, [[ring.p**h.a, 0], [h.c, pb]])
        assert _span(ring, h.shift, h.basis) == h
        scaled = lattice_scale(h, 2)
        assert (scaled.shift, scaled.a, scaled.b, scaled.c) == (h.shift + 2, h.a, h.b, h.c)


def test_one_span_is_one_value():
    """Two bases of one span that differ by a unimodular matrix give one
    lattice: equal, with the same hash and repr."""
    rng = random.Random(31)
    ring = witt_ring(2, 3, 8)
    cs = set()
    for _ in range(10):
        (shift, a), (_, b) = _rand_shift_and_basis(rng, ring), _rand_shift_and_basis(rng, ring)
        basis = mat_mul(ring, a, b)
        one = _span(ring, shift, basis)
        other = _span(ring, shift, mat_mul(ring, basis, _rand_unimodular(rng, ring)))
        assert other == one and hash(other) == hash(one) and repr(other) == repr(one)
        assert len({other, one}) == 1
        cs.add(one.c)
    assert len(cs) > 2


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (5, 3)])
def test_hermite_paths_match_general_path(p, m):
    """The closed forms against the matrix path, which inverts the outer basis
    and multiplies: p^d * outer^-1 * inner."""
    rng = random.Random(37 + p)
    ring = witt_ring(p, m, 8)
    lattices = list(_hermite_lattices(rng, ring, 12))
    answers = set()
    for outer in lattices:
        d, change = scaled_inverse(ring, mat_pack(ring, outer.basis))
        for inner in lattices:
            for k in range(3):
                shifted = lattice_scale(inner, k)
                image = mat_mul(ring, mat_unpack(ring, change), shifted.basis)
                framed = frame_times(outer, mat_pack(ring, shifted.basis))
                assert (framed[0], mat_unpack(ring, framed[1])) == (d, image)
                got = lattice_contains(outer, shifted)
                least = mat_val(ring, mat_pack(ring, image))
                assert got == (least >= d - (shifted.shift - outer.shift))
                answers.add(got)
                assert lattice_in_frame(ring, outer, shifted) == _span(
                    ring, shifted.shift - outer.shift - d, image
                )
    assert answers == {True, False}


def _normalized_in_frame(ring, frame, lattice):
    """``lattice_in_frame`` through ``lattice_normalize`` of the two columns
    of p^d frame^-1 lattice, with a unit inverse: the reference for the closed
    form."""
    d, top, cross, bottom = _adjugate_product(frame, lattice)
    cols = [(ring.from_int(ring.p**top), cross), (ring.zero(), ring.from_int(ring.p**bottom))]
    return lattice_normalize(ring, lattice.shift - frame.shift - d, cols)


def _frame_pool(rng, ring, count):
    """``_rand_lattice`` draws, Hermite coordinates drawn with a and b
    anywhere below the budget, so that a + b and the products in a frame
    reach N once N >= 10, and H(k, k, 0) for k = (N - 2) // 2 and N - 5, which
    frame each other with nothing above p^N once N >= 12."""
    mid, top = (ring.N - 2) // 2, max(ring.budget - 1, 0)
    pool = [Lattice2(ring, 0, k, k, ring.zero()) for k in (mid, top)]
    while len(pool) < count:
        try:
            pool.append(_rand_lattice(rng, ring))
        except PrecisionError:  # a budget of 0 (N = 4), or a or b at a budget of 1
            pass
        a, b = (rng.randrange(max(ring.budget, 1)) for _ in range(2))
        c = tuple(x % ring.p**b for x in _rand_elem(rng, ring))
        pool.append(Lattice2(ring, rng.randrange(-2, 3), a, b, c))
    return pool


IN_FRAME_MESSAGES = {
    "precision budget exhausted": "budget",
    "element indistinguishable from zero": "frame det",
}


@pytest.mark.parametrize(
    "p, m, N, kinds",
    [
        (3, 2, 4, {"budget"}),
        (2, 1, 5, {"lattice"}),
        (3, 2, 5, {"lattice"}),
        (2, 3, 6, {"lattice", "budget"}),
        (3, 2, 8, {"lattice", "budget"}),
        (5, 3, 10, {"lattice", "budget", "frame det"}),
        (2, 2, 12, {"lattice", "budget", "frame det", "zero generators"}),
        (3, 4, 12, {"lattice", "budget", "frame det", "zero generators"}),
    ],
)
def test_lattice_in_frame_matches_the_normalize_path(p, m, N, kinds):
    """The closed form gives the reference's lattice, or raises its exception
    with its message, on every (frame, lattice) pair of a seeded pool; each
    outcome the grid can reach is reached."""
    ring = witt_ring(p, m, N)
    rng = random.Random(2100 + 100 * p + 10 * m + N)
    pool = _frame_pool(rng, ring, 24)
    outcomes = {}
    for frame in pool:
        for lattice in pool:
            try:
                expected = _normalized_in_frame(ring, frame, lattice)
            except PrecisionError as error:
                with pytest.raises(PrecisionError) as info:
                    lattice_in_frame(ring, frame, lattice)
                assert type(info.value) is type(error) and str(info.value) == str(error)
                kind = IN_FRAME_MESSAGES.get(str(error), "zero generators")
                if kind == "zero generators":
                    assert str(error) == f"precision N = {N} cannot tell the lattice generators from zero"
            else:
                assert lattice_in_frame(ring, frame, lattice) == expected, (frame, lattice)
                kind = "lattice"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert sum(outcomes.values()) == len(pool) ** 2
    assert set(outcomes) == kinds, outcomes


def _det_index_val(l):
    """The index valuation by the matrix path: 2 shift + val(det(basis))."""
    return 2 * l.shift + l.ring.val(mat_det(l.ring, l.basis))


@pytest.mark.parametrize("p, m", [(2, 2), (3, 4), (5, 3)])
def test_hermite_index_val_matches_determinant_path(p, m):
    rng = random.Random(43 + p)
    ring = witt_ring(p, m, 8)
    lattices = list(_hermite_lattices(rng, ring, 16))
    # a + b >= N, reachable once N >= 10: det(basis) vanishes mod p^N
    wide_ring = witt_ring(p, m, 16)
    wide = _span(wide_ring, 0, mat2(wide_ring, [[p**7, 0], [1, p**10]]))
    assert (wide.a, wide.b) == (7, 10)
    for h in lattices + [wide]:
        for k in (-1, 0, 2):
            l = lattice_scale(h, k)
            assert lattice_index_val(l) == _det_index_val(l)
    for h in lattices:
        a, b = ring.val(h.basis[0][0]), ring.val(h.basis[1][1])
        assert (a, b) == (h.a, h.b)
        assert lattice_index_val(h) == 2 * h.shift + a + b
    colengths = set()
    for outer in lattices:
        for inner in lattices:
            if lattice_contains(outer, inner):
                got = lattice_colength(outer, inner)
                assert got == _det_index_val(inner) - _det_index_val(outer)
                colengths.add(got)
    assert len(colengths) > 1


def test_hermite_frame_beyond_precision_raises_like_general_path():
    # a + b = 17 >= N = 16 with a, b inside the budget of 12: det(basis) is 0 mod p^N
    ring = witt_ring(3, 2, 16)
    h = _span(ring, 0, mat2(ring, [[3**7, 0], [1, 3**10]]))
    assert (h.a, h.b) == (7, 10) and h.basis == mat2(ring, [[3**7, 0], [1, 3**10]])
    std = standard_lattice(ring)
    with pytest.raises(WittError):
        scaled_inverse(ring, mat_pack(ring, h.basis))
    with pytest.raises(WittError):
        frame_times(h, mat_pack(ring, mat_identity(ring)))
    with pytest.raises(WittError):
        lattice_contains(h, std)
    with pytest.raises(WittError):
        lattice_in_frame(ring, h, std)
    # as the inner lattice it needs no inverse
    assert lattice_contains(std, h)
    assert lattice_in_frame(ring, std, h) == h


def test_lattice_budget_failures_are_precision_errors():
    assert dieudonne.PrecisionError is PrecisionError
    for ring, rows in (
        (witt_ring(3, 2, 4), [[1, 0], [0, 1]]),  # a budget N - RESERVE of 0
        (witt_ring(3, 2, 8), [[3**4, 0], [0, 1]]),  # a at the budget of 4
        (witt_ring(3, 2, 8), [[1, 0], [0, 3**4]]),  # b at the budget of 4
    ):
        with pytest.raises(PrecisionError, match="precision budget exhausted") as info:
            lattice_normalize(ring, 0, mat_columns(mat2(ring, rows)))
        assert isinstance(info.value, WittError) and isinstance(info.value, DieudonneError)


@pytest.mark.parametrize("N", [6, 8])
def test_generators_zero_mod_p_n_are_a_precision_error(N):
    """Generators that all vanish mod p^N cannot span a lattice: a precision
    shortfall, reported in one line that names N."""
    ring = witt_ring(3, 2, N)
    pn = ring.p**N
    for rows in ([[0, 0], [0, 0]], [[pn, 0], [0, 2 * pn]], [[0, pn], [pn, 0]]):
        with pytest.raises(PrecisionError, match=f"precision N = {N} cannot tell") as info:
            lattice_normalize(ring, 0, mat_columns(mat2(ring, rows)))
        assert "\n" not in str(info.value)


def test_frame_beyond_precision_is_a_precision_error():
    ring = witt_ring(3, 2, 16)
    h = _span(ring, 0, mat2(ring, [[3**7, 0], [1, 3**10]]))
    std = standard_lattice(ring)
    for call in (
        lambda: frame_times(h, mat_pack(ring, mat_identity(ring))),
        lambda: lattice_contains(h, std),
        lambda: lattice_in_frame(ring, h, std),
        lambda: scaled_inverse(ring, mat_pack(ring, mat2(ring, [[3**7, 0], [1, 3**10]]))),
    ):
        with pytest.raises(PrecisionError, match="indistinguishable from zero"):
            call()


def test_a_lattice_contains_itself_with_no_frame(monkeypatch):
    """A lattice contains itself, also past its frame's precision: H(7, 10, c)
    at p = 3, N = 16 has a + b >= N, so its frame raises (above), but
    ``lattice_contains`` and ``lattice_colength`` of it in itself, or in an
    equal copy, answer with no frame.  ``lattice_in_frame`` of it in itself
    still raises: the frame is the coordinates of its result."""
    ring = witt_ring(3, 2, 16)
    h = _span(ring, 0, mat2(ring, [[3**7, 0], [1, 3**10]]))
    copy = Lattice2(ring, h.shift, h.a, h.b, tuple(h.c))
    assert h.a + h.b >= ring.N and copy is not h
    with monkeypatch.context() as patch:
        patch.setattr(witt, "_adjugate_product", None)  # any frame would fail
        assert lattice_contains(h, h) and lattice_contains(h, copy)
        assert lattice_colength(copy, h) == 0
    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        lattice_in_frame(ring, h, copy)


def test_a_lattice_in_its_own_frame_is_standard_with_no_product(monkeypatch):
    """``lattice_in_frame`` of a lattice in its own frame, or in an equal
    copy, is D with no adjugate product when its a + b < N and the budget
    is positive: the lattice the product gives there, which
    ``test_lattice_in_frame_matches_the_normalize_path`` checks.  On a ring
    with no budget it raises as before."""
    rng = random.Random(3207)
    for p, m, N in ((3, 2, 8), (2, 3, 12), (5, 1, 10)):
        ring = witt_ring(p, m, N)
        lattices = [_rand_lattice(rng, ring) for _ in range(6)]
        lattices.append(Lattice2(ring, -2, N - 4, 3, ring.from_int(1)))  # a + b = N - 1
        with monkeypatch.context() as patch:
            patch.setattr(witt, "_adjugate_product", None)
            for l in lattices:
                assert lattice_in_frame(ring, l, Lattice2(ring, l.shift, l.a, l.b, l.c)) == (
                    standard_lattice(ring)
                )
    for N in (3, 4):
        ring = witt_ring(3, 2, N)
        assert ring.budget <= 0
        with pytest.raises(PrecisionError, match="precision budget exhausted"):
            lattice_in_frame(ring, standard_lattice(ring), standard_lattice(ring))


def test_lattice_scale_roundtrip():
    ring = witt_ring(2, 2, 8)
    l = _rand_lattice(random.Random(3), ring)
    assert l == lattice_scale(lattice_scale(l, 1), -1)


def test_lattice_sum_example():
    ring = witt_ring(3, 2, 8)
    a = _span(ring, 0, mat2(ring, [[1, 0], [0, 3]]))
    b = _span(ring, 0, mat2(ring, [[3, 0], [0, 1]]))
    assert lattice_sum(a, b) == standard_lattice(ring)


def test_lattice_sum_is_least_upper_bound():
    rng = random.Random(21)
    ring = witt_ring(2, 2, 8)
    for _ in range(25):
        a, b = _rand_lattice(rng, ring), _rand_lattice(rng, ring)
        s = lattice_sum(a, b)
        assert lattice_contains(s, a) and lattice_contains(s, b)


def test_lattice_colength():
    ring = witt_ring(3, 2, 8)
    std = standard_lattice(ring)
    sub = _span(ring, 0, mat2(ring, [[1, 0], [0, 3]]))
    assert lattice_colength(std, sub) == 1
    assert lattice_colength(std, lattice_scale(std, 2)) == 4
    with pytest.raises(WittError):
        lattice_colength(sub, std)


def test_lattice_dual_examples():
    ring = witt_ring(3, 2, 8)
    rng = random.Random(41)
    pairing = mat_pack(ring, _rand_unimodular(rng, ring))
    std = standard_lattice(ring)
    assert lattice_dual(std, pairing) == std
    l = _rand_lattice(rng, ring)
    assert lattice_dual(lattice_scale(l, 1), pairing) == lattice_scale(lattice_dual(l, pairing), -1)


def test_lattice_dual_antidiagonal():
    ring = witt_ring(3, 2, 8)
    pairing = mat_pack(ring, mat2(ring, [[0, 1], [ring.pn - 1, 0]]))  # antidiag(1, -1)
    sub = _span(ring, 0, mat2(ring, [[1, 0], [0, 3]]))
    dual = lattice_dual(sub, pairing)
    # dual of <e1, p e2> is <p^{-1} e1, e2> under a unimodular pairing
    expected = _span(ring, -1, mat2(ring, [[1, 0], [0, 3]]))
    assert dual == expected


def test_degenerate_pairing_dual_is_a_precision_error():
    ring = witt_ring(3, 2, 8)
    std = standard_lattice(ring)
    # each determinant is 0 mod 3^N = 3^8, so the ring cannot tell it from zero
    for rows in ([[0, 0], [0, 0]], [[1, 0], [0, 3**8]], [[3**4, 0], [0, 3**4]]):
        with pytest.raises(PrecisionError, match="indistinguishable from zero") as info:
            lattice_dual(std, mat_pack(ring, mat2(ring, rows)))
        assert isinstance(info.value, WittError)
    # a determinant inside the budget still gives the exact dual
    assert lattice_dual(std, mat_pack(ring, mat2(ring, [[1, 0], [0, 3**3]]))) == _span(
        ring, -3, mat2(ring, [[3**3, 0], [0, 1]])
    )


def test_lattice_double_dual():
    rng = random.Random(55)
    for p in (2, 3, 5):
        ring = witt_ring(p, 2, 8)
        # alternating pairings, as used by the polarization data
        unit = next(a for a in iter(lambda: _rand_elem(rng, ring), None) if ring.val(a) == 0)
        pairing = mat_pack(ring, ((ring.zero(), unit), (ring.neg(unit), ring.zero())))
        for _ in range(15):
            l = _rand_lattice(rng, ring)
            assert lattice_dual(lattice_dual(l, pairing), pairing) == l


def test_lattice_dual_takes_no_inverse_of_its_own(monkeypatch):
    """The dual spans adj(M): it calls no ``scaled_inverse``, and the one unit
    it inverts is the pivot of its one ``lattice_normalize``.  The pools are
    those of the two dual tests above."""
    pools = []
    rng = random.Random(41)
    ring = witt_ring(3, 2, 8)
    pairing = mat_pack(ring, _rand_unimodular(rng, ring))
    pools.append((pairing, [standard_lattice(ring), _rand_lattice(rng, ring)]))
    rng = random.Random(55)
    for p in (2, 3, 5):
        ring = witt_ring(p, 2, 8)
        unit = next(a for a in iter(lambda: _rand_elem(rng, ring), None) if ring.val(a) == 0)
        pairing = mat_pack(ring, ((ring.zero(), unit), (ring.neg(unit), ring.zero())))
        pools.append((pairing, [_rand_lattice(rng, ring) for _ in range(15)]))
    calls = dict.fromkeys(("lattice_normalize", "inv"), 0)
    inside = []

    def normalize(*args, _inner=witt.lattice_normalize):
        calls["lattice_normalize"] += 1
        inside.append(True)
        try:
            return _inner(*args)
        finally:
            inside.pop()

    def inv(self, a, _inner=type(ring).inv):
        calls["inv"] += not inside
        return _inner(self, a)

    def refuse(*args):
        raise AssertionError("lattice_dual called scaled_inverse")

    monkeypatch.setattr(witt, "lattice_normalize", normalize)
    monkeypatch.setattr(type(ring), "inv", inv)
    monkeypatch.setattr(witt, "scaled_inverse", refuse)
    duals = 0
    for pairing, lattices in pools:
        for l in lattices:
            lattice_dual(l, pairing)
            duals += 1
    assert duals == 47
    assert calls == {"lattice_normalize": duals, "inv": 0}


def _dual_by_inverse(l, pairing):
    """``lattice_dual`` through p^d M^-1 with a unit inverse, for a packed
    pairing: the reference for the adjugate span."""
    ring = l.ring
    d, basis = scaled_inverse(ring, basis_transpose_times(l, packed_transpose(pairing)))
    return lattice_normalize(ring, -l.shift - d, mat_columns(mat_unpack(ring, basis)))


DUAL_MESSAGES = {
    "precision budget exhausted": "budget",
    "element indistinguishable from zero": "det",
}


@pytest.mark.parametrize(
    "p, m, N, kinds",
    [
        (3, 2, 4, {"budget", "det"}),
        (2, 1, 5, {"lattice", "budget", "det"}),
        (3, 2, 5, {"lattice", "budget", "det"}),
        (2, 3, 6, {"lattice", "budget", "det"}),
        (3, 2, 8, {"lattice", "budget", "det"}),
        (5, 3, 10, {"lattice", "budget", "det"}),
        (2, 2, 12, {"lattice", "budget", "det"}),
        (3, 4, 12, {"lattice", "budget", "det"}),
    ],
)
def test_lattice_dual_matches_the_inverse_path(p, m, N, kinds):
    """The adjugate dual gives the reference's lattice, or raises its
    exception with its message, on every (lattice, pairing) pair of a seeded
    pool: pairings are unimodular times diag(p^i, p^j), i and j up to N, so
    perfect, imperfect and degenerate mod p^N."""
    ring = witt_ring(p, m, N)
    rng = random.Random(2200 + 100 * p + 10 * m + N)
    lattices = _frame_pool(rng, ring, 16)
    pairings = [
        mat_pack(ring, mat_mul(ring, _rand_unimodular(rng, ring), mat2(ring, [[p**i, 0], [0, p**j]])))
        for i, j in ((0, 0), (1, 0), (0, 2), *((rng.randrange(N + 1), rng.randrange(N + 1)) for _ in range(5)))
    ]
    outcomes = {}
    for l in lattices:
        for pairing in pairings:
            try:
                expected = _dual_by_inverse(l, pairing)
            except PrecisionError as error:
                with pytest.raises(PrecisionError) as info:
                    lattice_dual(l, pairing)
                assert type(info.value) is type(error) and str(info.value) == str(error)
                kind = DUAL_MESSAGES.get(str(error), "zero generators")
            else:
                assert lattice_dual(l, pairing) == expected, (l, pairing)
                kind = "lattice"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert sum(outcomes.values()) == len(lattices) * len(pairings)
    assert set(outcomes) == kinds, outcomes


# --- serialization ------------------------------------------------------------


def test_ring_json_roundtrip():
    ring = witt_ring(3, 2, 8)
    data = ring_to_json(ring)
    assert data == {"p": 3, "m": 2, "N": 8, "modulus": [1, 0, 1]}
    assert ring_from_json(data) == ring
    with pytest.raises(WittError):
        ring_from_json({"p": 3, "m": 2, "N": 8, "modulus": [2, 0, 1]})
