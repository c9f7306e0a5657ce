"""Exact arithmetic in truncated Witt rings W_N(F_{p^m}).

Elements are coefficient tuples over Z/p^N modulo a fixed monic irreducible
modulus: the first one, in a fixed enumeration, that passes Rabin's
irreducibility test over F_p.  The Frobenius lift is computed once per ring
by Newton iteration from x^p.  On top of the ring sit 2x2 matrices and rank-2
lattices with a Hermite canonical form, which together form the substrate of
the Dieudonne simulator.

Each ring keeps two kinds of precomputed tables, so that its hot operations
are single passes over plain ints:

- the reduction table x^m, ..., x^(2m-2) modulo the modulus.  ``mul`` forms
  the schoolbook product without reducing, folds the high coefficients back
  through this table, and reduces mod p^N once per output coefficient;
- per k, the images sigma^k(x^i) for i < m, built on first use.  ``frobenius``
  then costs one O(m^2) pass for any k, sigma^-1 = sigma^(m-1) included.

The unreduced product is a module-level function that accumulates into a
given list.  Its outer loop skips zero coefficients, and a constant operand
(zero, an integer, or any element at m = 1), the common case for Hermite-form
lattice bases, is put on the outside, so it takes one linear pass.
``mat_mul`` and ``mat_det`` build each entry as one two-term unreduced sum
(for the determinant, ad - bc with the subtraction done first) and reduce it
once.

A lattice flagged ``hermite`` (by ``_hnf`` and ``standard_lattice``; kept by
``lattice_scale``; ignored by equality, hashing and repr) has the basis
[[p^a, 0], [c, p^b]], so ``lattice_normalize`` returns it unchanged and
``frame_inverse`` takes p^(a+b) * basis^-1 as its adjugate [[p^b, 0], [-c, p^a]]:
the same reduced integers as the general path, with no inversion or product.

Units are inverted by extended Euclid over F_p[x] in the residue field and
Newton steps that double the p-adic precision, so ceil(log2 N) steps suffice.
A constant unit is inverted directly mod p^N.

Precision policy: every ring carries a budget of N - RESERVE trusted p-adic
digits.  Operations that would need valuations at or beyond the budget raise
instead of silently truncating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

RESERVE = 4

WElem = tuple  # coefficient tuple of length m over Z/p^N
Mat2 = tuple  # ((a, b), (c, d)) row-major over WElem


class WittError(ValueError):
    """Raised for out-of-range parameters or exhausted precision."""


class NotSplit:
    """Marker: elementary divisors indistinguishable within the budget."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NotSplit"


NOT_SPLIT = NotSplit()


def isprime(n: int) -> bool:
    """Primality by trial division (the primes used here are small)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --- polynomials over F_p: little-endian coefficient lists, trimmed ----------


def _poly_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _poly_trim([c % p for c in out])


def _poly_rem(a: list, b: list, p: int) -> list:
    """The remainder of a modulo a nonzero trimmed b."""
    rem = [c % p for c in a]
    db = len(b) - 1
    lead = pow(b[-1], -1, p)
    for d in range(len(rem) - 1 - db, -1, -1):
        c = rem[d + db] * lead % p
        if c:
            for j, bj in enumerate(b, d):
                rem[j] = (rem[j] - c * bj) % p
    return _poly_trim(rem[:db])


def _poly_pow_mod(a: list, k: int, modulus, p: int) -> list:
    result, base = [1], _poly_rem(a, modulus, p)
    while k:
        if k & 1:
            result = _poly_rem(_poly_mul(result, base, p), modulus, p)
        base = _poly_rem(_poly_mul(base, base, p), modulus, p)
        k >>= 1
    return result


def _poly_gcdex(a: list, b: list, p: int) -> tuple[list, list]:
    """(g, s) with g a gcd of a and b, and s * a = g modulo b.

    Each division step updates the remainder and its cofactor in one pass.
    """
    r0, r1 = _poly_trim([c % p for c in a]), _poly_trim([c % p for c in b])
    s0, s1 = [1], []
    while r1:
        lead = pow(r1[-1], -1, p)
        db = len(r1) - 1
        while len(r0) > db:
            d = len(r0) - 1 - db
            c = r0[-1] * lead % p
            for j, u in enumerate(r1, d):
                r0[j] = (r0[j] - c * u) % p
            _poly_trim(r0)
            if s1:
                s0 += [0] * (d + len(s1) - len(s0))
                for j, u in enumerate(s1, d):
                    s0[j] = (s0[j] - c * u) % p
                _poly_trim(s0)
        r0, r1, s0, s1 = r1, r0, s1, s0
    return r0, s0


def _is_irreducible(modulus, p: int) -> bool:
    """Rabin's test: x^(p^m) = x mod f, and gcd(x^(p^(m/r)) - x, f) = 1 for
    every prime r dividing m = deg f."""
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


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Little-endian coefficients of the first monic irreducible of degree m."""
    for k in itertools.count():
        digits, val = [], k
        for _ in range(m):
            digits.append(val % p)
            val //= p
        if val:
            raise WittError(f"no irreducible polynomial found for p={p}, m={m}")
        coeffs = digits + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)


def _apply(table, a: WElem, pn: int) -> WElem:
    """The linear map sending x^i to table[i], applied to a, mod pn."""
    acc = [0] * len(table)
    for c, image in zip(a, table):
        if c:
            for j, e in enumerate(image):
                acc[j] += c * e
    return tuple([v % pn for v in acc])


def _raw_mul(acc: list, a: WElem, b: WElem) -> list:
    """Add the unreduced schoolbook product a*b into acc (2m - 1 slots).

    The outer loop skips zero coefficients, so a constant operand (b[1:] all
    zero: zero, an integer, or any element at m = 1) is swapped to the outside,
    where it costs one linear pass instead of the quadratic one."""
    if not any(b[1:]):
        a, b = b, a
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                acc[j] += ai * bj
    return acc


@dataclass(frozen=True)
class WittRing:
    p: int
    m: int
    N: int
    modulus: tuple[int, ...]
    frob_image: WElem
    # derived from the fields above, so left out of equality and hashing
    pn: int = field(init=False, repr=False, compare=False)
    budget: int = field(init=False, repr=False, compare=False)
    _reduce: tuple = field(init=False, repr=False, compare=False)
    _sigma: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pn = self.p**self.N
        # rows x^m, ..., x^(2m-2) reduced modulo the monic modulus
        row = tuple(-c % pn for c in self.modulus[:-1])
        rows = []
        for _ in range(self.m - 1):
            rows.append(row)
            top = row[-1]
            row = tuple(
                (lower + top * c) % pn for lower, c in zip((0,) + row[:-1], rows[0])
            )
        object.__setattr__(self, "pn", pn)
        object.__setattr__(self, "budget", self.N - RESERVE)
        object.__setattr__(self, "_reduce", tuple(rows))
        object.__setattr__(self, "_sigma", {})

    def _sigma_table(self, k: int) -> tuple[WElem, ...]:
        """The images sigma^k(x^i) for i < m, for 0 < k < m."""
        table = self._sigma.get(k)
        if table is None:
            image = self.frob_image  # sigma^k(x) = sigma^(k-1)(sigma(x))
            if k > 1:
                image = _apply(self._sigma_table(k - 1), image, self.pn)
            powers = [self.one()]
            for _ in range(self.m - 1):
                powers.append(self.mul(powers[-1], image))
            table = self._sigma[k] = tuple(powers)
        return table

    # --- element arithmetic -------------------------------------------------

    def zero(self) -> WElem:
        return (0,) * self.m

    def one(self) -> WElem:
        return self.from_int(1)

    def from_int(self, k: int) -> WElem:
        return (k % self.pn,) + (0,) * (self.m - 1)

    def gen(self) -> WElem:
        """The image of x (zero when m = 1)."""
        if self.m == 1:
            return (0,)
        return (0, 1) + (0,) * (self.m - 2)

    def add(self, a: WElem, b: WElem) -> WElem:
        return tuple((u + v) % self.pn for u, v in zip(a, b))

    def sub(self, a: WElem, b: WElem) -> WElem:
        return tuple((u - v) % self.pn for u, v in zip(a, b))

    def neg(self, a: WElem) -> WElem:
        return tuple(-u % self.pn for u in a)

    def _fold(self, prod: list) -> WElem:
        """Reduce an unreduced product (2m - 1 coefficients, any sign):
        fold the high part through the reduction table, then mod p^N once."""
        m, pn = self.m, self.pn
        low = prod[:m]
        for c, row in zip(prod[m:], self._reduce):
            if c:
                c %= pn
                for j, r in enumerate(row):
                    low[j] += c * r
        return tuple([c % pn for c in low])

    def mul(self, a: WElem, b: WElem) -> WElem:
        return self._fold(_raw_mul([0] * (2 * self.m - 1), a, b))

    def smul(self, k: int, a: WElem) -> WElem:
        return tuple(k * u % self.pn for u in a)

    def val(self, a: WElem) -> int:
        """p-adic valuation, capped at N."""
        p, best = self.p, self.N
        for c in a:
            if c:
                if c % p:
                    return 0
                v = 1
                c //= p
                while c % p == 0:
                    c //= p
                    v += 1
                best = min(best, v)
        return best

    def div_p(self, a: WElem, k: int) -> WElem:
        """Exact division by p^k; requires valuation at least k."""
        if self.val(a) < k:
            raise WittError("element not divisible by the requested power of p")
        q = self.p**k
        return tuple(c // q for c in a)

    def unit_and_val(self, a: WElem) -> tuple[int, WElem]:
        v = self.val(a)
        if v >= self.N:
            raise WittError("element indistinguishable from zero")
        return v, self.div_p(a, v)

    def inv(self, a: WElem) -> WElem:
        """Inverse of a unit.  A constant is inverted directly mod p^N; any
        other unit by extended Euclid in the residue field, then Newton steps
        v -> v(2 - av), each doubling the p-adic precision."""
        p, m = self.p, self.m
        if not any(a[1:]):
            if a[0] % p == 0:
                raise WittError("not a unit")
            v = (pow(a[0], -1, self.pn),) + (0,) * (m - 1)
        else:
            g, s = _poly_gcdex([c % p for c in a], list(self.modulus), p)
            if len(g) != 1:
                raise WittError("not a unit")
            scale = pow(g[0], -1, p)
            v = tuple([c * scale % p for c in s]) + (0,) * (m - len(s))
            precision = 1
            while precision < self.N:
                av = self.mul(a, v)  # mul reduces, so 2 - av may stay unreduced
                v = self.mul(v, [2 - av[0]] + [-c for c in av[1:]])
                precision *= 2
        if self.mul(a, v) != self.one():
            raise WittError("inversion failed")
        return v

    def eval_poly(self, coeffs, y: WElem) -> WElem:
        """Evaluate an integer-coefficient polynomial (little-endian) at y."""
        acc = self.zero()
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, y), self.from_int(c))
        return acc


@lru_cache(maxsize=None)
def witt_ring(p: int, m: int, N: int) -> WittRing:
    """The truncated Witt ring W_N(F_{p^m}) with its canonical modulus.

    Memoized: one ring object, with its tables, per (p, m, N).
    """
    if not isprime(p):
        raise WittError(f"p = {p} is not prime")
    if m < 1:
        raise WittError(f"m = {m} must be at least 1")
    if N < 2:
        raise WittError(f"N = {N} must be at least 2")
    modulus = _smallest_irreducible(p, m)
    ring = WittRing(p, m, N, modulus, (0,) * m)
    # Newton iteration for the root of the modulus congruent to x^p mod p.
    xp = _poly_pow_mod([0, 1], p, modulus, p)
    y = tuple(xp) + (0,) * (m - len(xp))
    deriv = [i * c for i, c in enumerate(modulus)][1:]
    for _ in range(2 * N):
        g = ring.eval_poly(modulus, y)
        if g == ring.zero():
            break
        y = ring.sub(y, ring.mul(g, ring.inv(ring.eval_poly(deriv, y))))
    else:
        raise WittError("Frobenius lift did not converge")
    return WittRing(p, m, N, modulus, y)


def frobenius(ring: WittRing, a: WElem, k: int = 1) -> WElem:
    """k-fold application of the Frobenius lift x -> frob_image."""
    k %= ring.m
    if not k:
        return a
    return _apply(ring._sigma_table(k), a, ring.pn)


# --- 2x2 matrices ------------------------------------------------------------


def mat2(ring: WittRing, entries) -> Mat2:
    """Build a matrix from a 2x2 array of integers or ring elements."""
    rows = []
    for row in entries:
        rows.append(
            tuple(e if isinstance(e, tuple) else ring.from_int(e) for e in row)
        )
    return tuple(rows)


def mat_identity(ring: WittRing) -> Mat2:
    return mat2(ring, [[1, 0], [0, 1]])


def mat_mul(ring: WittRing, a: Mat2, b: Mat2) -> Mat2:
    """Each entry is one two-term product sum, reduced once."""
    size = 2 * ring.m - 1
    return tuple(
        tuple(
            ring._fold(
                _raw_mul(_raw_mul([0] * size, row[0], b[0][j]), row[1], b[1][j])
            )
            for j in range(2)
        )
        for row in a
    )


def mat_smul(ring: WittRing, k: int, a: Mat2) -> Mat2:
    return tuple(tuple(ring.smul(k, e) for e in row) for row in a)


def mat_elem_mul(ring: WittRing, e: WElem, a: Mat2) -> Mat2:
    return tuple(tuple(ring.mul(e, entry) for entry in row) for row in a)


def mat_transpose(a: Mat2) -> Mat2:
    return ((a[0][0], a[1][0]), (a[0][1], a[1][1]))


def mat_sigma(ring: WittRing, a: Mat2, k: int = 1) -> Mat2:
    return tuple(tuple(frobenius(ring, e, k) for e in row) for row in a)


def mat_det(ring: WittRing, a: Mat2) -> WElem:
    """ad - bc, subtracted before the one reduction."""
    acc = _raw_mul([0] * (2 * ring.m - 1), a[0][0], a[1][1])
    return ring._fold(_raw_mul(acc, [-u for u in a[0][1]], a[1][0]))


def mat_val(ring: WittRing, a: Mat2) -> int:
    return min(ring.val(e) for row in a for e in row)


def mat_adjugate(ring: WittRing, a: Mat2) -> Mat2:
    return (
        (a[1][1], ring.neg(a[0][1])),
        (ring.neg(a[1][0]), a[0][0]),
    )


def scaled_inverse(ring: WittRing, a: Mat2) -> tuple[int, Mat2]:
    """(d, p^d * a^{-1}) with d the valuation of det(a)."""
    d, unit = ring.unit_and_val(mat_det(ring, a))
    return d, mat_elem_mul(ring, ring.inv(unit), mat_adjugate(ring, a))


def elementary_divisors(ring: WittRing, a: Mat2):
    """Valuations (v1, v2) with v1 <= v2, or NOT_SPLIT beyond the budget."""
    v1 = mat_val(ring, a)
    if v1 >= ring.budget:
        return NOT_SPLIT
    v2 = ring.val(mat_det(ring, a)) - v1
    if v2 >= ring.budget:
        return NOT_SPLIT
    return (v1, v2)


# --- rank-2 lattices ----------------------------------------------------------


@dataclass(frozen=True)
class Lattice2:
    """p^shift times the column span of basis inside the standard module."""

    ring: WittRing
    shift: int
    basis: Mat2
    hermite: bool = field(default=False, compare=False, repr=False)


def standard_lattice(ring: WittRing) -> Lattice2:
    return Lattice2(ring, 0, mat_identity(ring), hermite=True)


def _hnf(ring: WittRing, shift: int, cols: list) -> Lattice2:
    """Canonical form [[p^a, 0], [c, p^b]] with min elementary divisor zero.

    Each entry's valuation is computed once, here, and every exact division
    below is by a power of p that those valuations show divides the entry."""
    if ring.budget <= 0:
        raise WittError("precision budget exhausted")
    p, N = ring.p, ring.N
    tops = [ring.val(col[0]) for col in cols]
    vmin = min(tops + [ring.val(col[1]) for col in cols])
    if vmin >= ring.N:
        raise WittError("degenerate lattice generators")
    if vmin > 0:
        q = p**vmin
        cols = [tuple(tuple(c // q for c in e) for e in col) for col in cols]
        tops = [v - vmin if v < N else N for v in tops]  # zero stays at the cap
        shift += vmin
    # top pivot: column whose first coordinate has minimal valuation
    a = min(tops)
    if a >= ring.budget:
        raise WittError("precision budget exhausted")
    j = tops.index(a)
    pa = p**a
    c = ring.mul(ring.inv(tuple(e // pa for e in cols[j][0])), cols[j][1])
    bottoms = [
        ring.sub(col[1], ring.mul(tuple(e // pa for e in col[0]), c))
        for i, col in enumerate(cols)
        if i != j
    ]
    b = min(ring.val(e) for e in bottoms)
    if b >= ring.budget:
        raise WittError("precision budget exhausted")
    q = p**b
    c = tuple(e % q for e in c)
    basis = ((ring.from_int(pa), ring.zero()), (c, ring.from_int(q)))
    return Lattice2(ring, shift, basis, hermite=True)


def lattice_normalize(l: Lattice2) -> Lattice2:
    if l.hermite:
        return l
    cols = [(l.basis[0][0], l.basis[1][0]), (l.basis[0][1], l.basis[1][1])]
    return _hnf(l.ring, l.shift, cols)


def lattice_equal(a: Lattice2, b: Lattice2) -> bool:
    if a.ring != b.ring:
        raise WittError("lattices live over different rings")
    na, nb = lattice_normalize(a), lattice_normalize(b)
    return na.shift == nb.shift and na.basis == nb.basis


def lattice_scale(l: Lattice2, k: int) -> Lattice2:
    return Lattice2(l.ring, l.shift + k, l.basis, hermite=l.hermite)


def lattice_sum(a: Lattice2, b: Lattice2) -> Lattice2:
    if a.ring != b.ring:
        raise WittError("lattices live over different rings")
    ring = a.ring
    shift = min(a.shift, b.shift)
    cols = []
    for l in (a, b):
        scale = ring.p ** (l.shift - shift)
        for j in range(2):
            cols.append(
                (ring.smul(scale, l.basis[0][j]), ring.smul(scale, l.basis[1][j]))
            )
    return _hnf(ring, shift, cols)


def lattice_index_val(l: Lattice2) -> int:
    """Valuation of the index in the standard lattice (may be negative)."""
    return 2 * l.shift + l.ring.val(mat_det(l.ring, l.basis))


def frame_inverse(l: Lattice2) -> tuple[int, Mat2]:
    """(d, p^d * basis^-1) with d the valuation of det(basis); a Hermite basis
    with a + b < N has determinant p^(a+b), so that is its adjugate."""
    ring, basis = l.ring, l.basis
    if l.hermite:
        d = ring.val(basis[0][0]) + ring.val(basis[1][1])
        if d < ring.N:
            return d, ((basis[1][1], ring.zero()), (ring.neg(basis[1][0]), basis[0][0]))
    return scaled_inverse(ring, basis)


def lattice_contains(outer: Lattice2, inner: Lattice2) -> bool:
    ring = outer.ring
    d, change = frame_inverse(outer)
    image = mat_mul(ring, change, inner.basis)
    return mat_val(ring, image) >= d - (inner.shift - outer.shift)


def lattice_colength(outer: Lattice2, inner: Lattice2) -> int:
    if not lattice_contains(outer, inner):
        raise WittError("lattice is not contained in the claimed overlattice")
    return lattice_index_val(inner) - lattice_index_val(outer)


def lattice_dual(l: Lattice2, pairing: Mat2) -> Lattice2:
    """{v : <v, l> integral} under <v, w> = v^T * pairing * w."""
    ring = l.ring
    mat = mat_mul(ring, mat_transpose(l.basis), mat_transpose(pairing))
    if ring.val(mat_det(ring, mat)) >= ring.N:
        raise WittError("pairing degenerate beyond the declared valuation")
    d, basis = scaled_inverse(ring, mat)
    return lattice_normalize(Lattice2(ring, -l.shift - d, basis))


# --- serialization ------------------------------------------------------------


def ring_to_json(ring: WittRing) -> dict:
    return {
        "p": ring.p,
        "m": ring.m,
        "N": ring.N,
        "modulus": [c % ring.p for c in ring.modulus],
    }


def ring_from_json(data: dict) -> WittRing:
    ring = witt_ring(int(data["p"]), int(data["m"]), int(data["N"]))
    if "modulus" in data:
        given = [c % ring.p for c in data["modulus"]]
        if given != [c % ring.p for c in ring.modulus]:
            raise WittError("modulus mismatch with the canonical choice")
    return ring
