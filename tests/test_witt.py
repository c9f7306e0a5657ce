from __future__ import annotations

import random

import pytest

from gostrata.witt import (
    NOT_SPLIT,
    Lattice2,
    WittError,
    elementary_divisors,
    frame_inverse,
    frobenius,
    isprime,
    lattice_colength,
    lattice_contains,
    lattice_dual,
    lattice_equal,
    lattice_normalize,
    lattice_scale,
    lattice_sum,
    mat2,
    mat_det,
    mat_identity,
    mat_mul,
    ring_from_json,
    ring_to_json,
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


def _rand_lattice(rng, ring):
    diag = mat2(ring, [[ring.p ** rng.randrange(2), 0], [0, ring.p ** rng.randrange(2)]])
    basis = mat_mul(ring, _rand_unimodular(rng, ring), diag)
    return Lattice2(ring, rng.randrange(-1, 2), basis)


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


def test_isprime_by_trial_division():
    primes = [n for n in range(-2, 60) if isprime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert isprime(7919) and not isprime(7917)


def test_witt_ring_is_memoized():
    assert witt_ring(3, 4, 8) is witt_ring(3, 4, 8)


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


@pytest.mark.parametrize(
    "p, m, N",
    [(2, 1, 4), (3, 1, 8), (2, 2, 8), (2, 3, 16), (2, 8, 16), (3, 4, 8),
     (3, 5, 16), (5, 3, 8), (7, 2, 16), (5, 6, 5)],
)
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


def _naive_sub(ring, a, b):
    return tuple((u - v) % ring.pn for u, v in zip(a, b))


@pytest.mark.parametrize(
    "p, m, N",
    [(2, 1, 4), (3, 1, 8), (2, 2, 8), (2, 3, 16), (2, 8, 16), (3, 4, 8),
     (3, 5, 16), (5, 3, 8), (7, 2, 16), (5, 6, 5)],
)
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
        expected = tuple(
            tuple(
                ring.add(
                    _naive_mul(ring, row[0], y[0][j]), _naive_mul(ring, row[1], y[1][j])
                )
                for j in range(2)
            )
            for row in x
        )
        assert mat_mul(ring, mat2(ring, x), mat2(ring, y)) == expected
        assert mat_det(ring, mat2(ring, x)) == _naive_sub(
            ring, _naive_mul(ring, x[0][0], x[1][1]), _naive_mul(ring, x[0][1], x[1][0])
        )
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


# --- elementary divisors ------------------------------------------------------


def test_elementary_divisor_examples():
    ring = witt_ring(3, 2, 8)
    assert elementary_divisors(ring, mat_identity(ring)) == (0, 0)
    assert elementary_divisors(ring, mat2(ring, [[1, 0], [0, 3]])) == (0, 1)
    assert elementary_divisors(ring, mat2(ring, [[0, 1], [3, 0]])) == (0, 1)
    big = ring.p**ring.budget
    assert elementary_divisors(ring, mat2(ring, [[big, 0], [0, big]])) is NOT_SPLIT
    assert elementary_divisors(ring, mat2(ring, [[1, 0], [0, 0]])) is NOT_SPLIT


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
        divisors = elementary_divisors(ring, mat)
        u, v = _rand_unimodular(rng, ring), _rand_unimodular(rng, ring)
        assert elementary_divisors(ring, mat_mul(ring, u, mat_mul(ring, mat, v))) == divisors


# --- lattices -----------------------------------------------------------------


def test_lattice_normalize_pulls_out_p():
    ring = witt_ring(3, 2, 8)
    l = Lattice2(ring, 1, mat2(ring, [[3, 0], [0, 3]]))
    n = lattice_normalize(l)
    assert n.shift == 2
    assert n.basis == mat_identity(ring)


def test_lattice_normalize_idempotent_and_basis_independent():
    rng = random.Random(13)
    ring = witt_ring(3, 2, 8)
    for _ in range(40):
        l = _rand_lattice(rng, ring)
        n = lattice_normalize(l)
        assert lattice_normalize(n) == n
        # right multiplication by a unimodular matrix preserves the span
        scrambled = Lattice2(
            ring, l.shift, mat_mul(ring, l.basis, _rand_unimodular(rng, ring))
        )
        assert lattice_equal(l, scrambled)


def _plain(l):
    """The same lattice, not flagged as Hermite: it takes the general paths."""
    return Lattice2(l.ring, l.shift, l.basis)


def _hermite_lattices(rng, ring, count):
    """Hermite lattices from products of two random lattices, so that a, b
    range over 0..2 and c is a general element."""
    for _ in range(count):
        a, b = _rand_lattice(rng, ring), _rand_lattice(rng, ring)
        yield lattice_normalize(Lattice2(ring, a.shift, mat_mul(ring, a.basis, b.basis)))


def test_lattice_normalize_returns_hermite_input_unchanged():
    rng = random.Random(29)
    ring = witt_ring(3, 2, 8)
    assert standard_lattice(ring).hermite
    for h in _hermite_lattices(rng, ring, 20):
        assert h.hermite and lattice_normalize(h) is h
        assert lattice_scale(h, 2).hermite
        assert lattice_normalize(_plain(h)).hermite


def test_hermite_flag_leaves_equality_hash_and_repr_alone():
    rng = random.Random(31)
    ring = witt_ring(2, 3, 8)
    for h in _hermite_lattices(rng, ring, 10):
        plain = _plain(h)
        assert not plain.hermite
        assert plain == h and hash(plain) == hash(h) and repr(plain) == repr(h)
        assert len({plain, h}) == 1


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (5, 3)])
def test_hermite_paths_match_general_path(p, m):
    from gostrata.dieudonne import lattice_in_frame

    rng = random.Random(37 + p)
    ring = witt_ring(p, m, 8)
    lattices = list(_hermite_lattices(rng, ring, 12))
    answers = set()
    for outer in lattices:
        assert frame_inverse(outer) == frame_inverse(_plain(outer))
        for inner in lattices:
            for k in range(3):
                shifted = lattice_scale(inner, k)
                got = lattice_contains(outer, shifted)
                assert got == lattice_contains(_plain(outer), shifted)
                answers.add(got)
                assert lattice_in_frame(ring, outer, shifted) == lattice_in_frame(
                    ring, _plain(outer), shifted
                )
    assert answers == {True, False}


def test_hermite_frame_beyond_precision_raises_like_general_path():
    # a + b = 17 >= N = 16 with a, b inside the budget of 12: det(basis) is 0 mod p^N
    ring = witt_ring(3, 2, 16)
    h = lattice_normalize(Lattice2(ring, 0, mat2(ring, [[3**7, 0], [1, 3**10]])))
    assert h.hermite and h.basis == mat2(ring, [[3**7, 0], [1, 3**10]])
    for frame in (h, _plain(h)):
        with pytest.raises(WittError):
            frame_inverse(frame)


def test_lattice_scale_roundtrip():
    ring = witt_ring(2, 2, 8)
    l = _rand_lattice(random.Random(3), ring)
    assert lattice_equal(l, lattice_scale(lattice_scale(l, 1), -1))


def test_lattice_sum_example():
    ring = witt_ring(3, 2, 8)
    a = Lattice2(ring, 0, mat2(ring, [[1, 0], [0, 3]]))
    b = Lattice2(ring, 0, mat2(ring, [[3, 0], [0, 1]]))
    assert lattice_equal(lattice_sum(a, b), standard_lattice(ring))


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
    sub = Lattice2(ring, 0, mat2(ring, [[1, 0], [0, 3]]))
    assert lattice_colength(std, sub) == 1
    assert lattice_colength(std, lattice_scale(std, 2)) == 4
    with pytest.raises(WittError):
        lattice_colength(sub, std)


def test_lattice_dual_examples():
    ring = witt_ring(3, 2, 8)
    rng = random.Random(41)
    pairing = _rand_unimodular(rng, ring)
    std = standard_lattice(ring)
    assert lattice_equal(lattice_dual(std, pairing), std)
    l = _rand_lattice(rng, ring)
    assert lattice_equal(
        lattice_dual(lattice_scale(l, 1), pairing),
        lattice_scale(lattice_dual(l, pairing), -1),
    )


def test_lattice_dual_antidiagonal():
    ring = witt_ring(3, 2, 8)
    pairing = mat2(ring, [[0, 1], [ring.pn - 1, 0]])  # antidiag(1, -1)
    sub = Lattice2(ring, 0, mat2(ring, [[1, 0], [0, 3]]))
    dual = lattice_dual(sub, pairing)
    # dual of <e1, p e2> is <p^{-1} e1, e2> under a unimodular pairing
    expected = Lattice2(ring, -1, mat2(ring, [[1, 0], [0, 3]]))
    assert lattice_equal(dual, expected)


def test_lattice_double_dual():
    rng = random.Random(55)
    for p in (2, 3, 5):
        ring = witt_ring(p, 2, 8)
        # alternating pairings, as used by the polarization data
        unit = next(a for a in iter(lambda: _rand_elem(rng, ring), None) if ring.val(a) == 0)
        pairing = ((ring.zero(), unit), (ring.neg(unit), ring.zero()))
        for _ in range(15):
            l = _rand_lattice(rng, ring)
            assert lattice_equal(lattice_dual(lattice_dual(l, pairing), pairing), l)


# --- serialization ------------------------------------------------------------


def test_ring_json_roundtrip():
    ring = witt_ring(3, 2, 8)
    data = ring_to_json(ring)
    assert data == {"p": 3, "m": 2, "N": 8, "modulus": [1, 0, 1]}
    assert ring_from_json(data) == ring
    with pytest.raises(WittError):
        ring_from_json({"p": 3, "m": 2, "N": 8, "modulus": [2, 0, 1]})
