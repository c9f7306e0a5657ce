"""Exact arithmetic in truncated Witt rings W_N(F_{p^m}).

Elements are coefficient tuples over Z/p^N modulo a fixed monic irreducible
modulus: the first one, in a fixed enumeration, that passes Rabin's
irreducibility test over F_p.  The Frobenius lift is computed once per ring
by Newton iteration from x^p.  On top of the ring sit 2x2 matrices and rank-2
lattices with a Hermite canonical form, which together form the substrate of
the Dieudonne simulator.

Each ring packs an element into one Python int of m slots of k bits, where
k = (3 m p^(2N)).bit_length(), slot i holding coefficient i reduced mod p^N.
A product of two packed elements is then one C-level multiply whose slot t
holds the coefficient of x^t, at most m (p^N - 1)^2.  The ring keeps two
precomputed packed tables:

- the reduction rows x^m, ..., x^(2m-2) modulo the modulus.  Slots m to
  2m - 2 of a product are folded back by m - 1 multiply-adds, each slot
  reduced mod p^N first, and then m slots are read off mod p^N;
- per k, the images sigma^k(x^i) for i < m, built on first use from
  sigma^k(x) = sigma^(k-1)(sigma(x)), which ``frobenius`` forms from the
  table for k - 1.  ``frobenius`` is m multiply-adds against that table,
  for any k, sigma^-1 = sigma^(m-1) included.  Each row is a reduced
  element, of degree below m, so the sum holds nothing above slot m - 1:
  its m slots are read off mod p^N with no fold.

Every sum a slot ever holds is below 3 m p^(2N) < 2^k.  The matrix kernel
works on packed operands, and a ``Packed2`` (the four entries of a matrix,
each packed, every slot reduced mod p^N) is also the one form of a point's
matrices in ``dieudonne``: one int per entry is canonical, so ``==`` and
``hash`` are element equality.  ``mat_pack`` packs a tuple matrix, reducing
each coefficient, and ``mat_unpack`` reads the slots back.  A packed sum of
products becomes a packed element again through ``packed_fold``: the fold
above, then each of the m slots reduced mod p^N, or mod a smaller power q of
p, which gives the residues mod q that a comparison reads.  A sum with
nothing above slot m - 1 (a sum of reduced elements, a product by a
constant) skips the fold, one comparison with 2^(k m).  For p = 2 every
such q is a power of 2, and the m reductions are one AND with q - 1 in every
low slot, which also drops the slots above them that the fold leaves.
``packed_mul`` builds each entry of a product as a two-term sum of packed
products and folds it once; ``packed_scale`` multiplies each entry by one
packed scalar; ``packed_sigma`` is the table pass of ``frobenius`` over an
entry's slots, the sum's slots reduced mod p^N; each keeps its result
packed, so a chain of products and twists never leaves the packed form.
``packed_det`` folds ad + (-b)c once into an element.
``packed_transpose`` reorders the four ints; ``packed_adjugate`` negates
two of them.  The packed negation of x is ``_pn_packed`` - x, with p^N in
every slot: for packed x, whose slots lie in [0, p^N), each slot of the
difference lies in [1, p^N], so nothing borrows across slots and the slot
is -x_i mod p^N; such an operand is for products only, not for storage.
A product of two operands with slots in [0, p^N] holds at most m p^(2N)
per slot, a two-term sum at most 2 m p^(2N), and the fold adds m - 1 more
terms, each below p^(2N).  So no slot carries into the next and every
result is exact.  A packed int whose slots are each divisible by p divides
by p slot by slot, exactly, with ``// p``, and ``packed_shift`` is that
division, or a scaling by p^k with each slot reduced mod p^N.  p divides a
packed int whenever it divides every slot, so for ``mat_val``, the least
valuation of a packed matrix's slots, a nonzero x % p already shows a unit
slot.  ``elementary_divisors`` and ``scaled_inverse`` take packed matrices
too.  The tuple kernel reads the packed one off: ``mat_mul`` is
``packed_mul`` of its packed arguments and ``mat_det`` is ``packed_det``,
read off as tuples.  Packing reduces each coefficient mod p^N, so negated
or otherwise unreduced operands are exact too.  There is one product path:
every operand, constant or not, is packed the same way.  A sigma of a
packed operand is ``packed_sigma``; ``frobenius`` serves the table build
and the tuple ``mat_sigma``.  Two exits skip work on constants,
elements of W_N(F_p): a packed sum with nothing above slot 0 is read off as
slot 0 mod p^N without the fold, and ``frobenius`` and ``packed_sigma``
return a constant as it is, since sigma fixes W_N(F_p).  Every op returns
coefficients in [0, p^N) when its operands have them, and a point's
matrices are packed by ``mat_pack``, so every element a point or lattice
holds is reduced: ``smul`` by 1, like ``frobenius`` by sigma^0 and a packed
scaling by 1, returns its operand.

A lattice is its Hermite coordinates: ``Lattice2(ring, shift, a, b, c)`` is
p^shift times the column span of [[p^a, 0], [c, p^b]] with c reduced mod p^b,
so dataclass equality is lattice equality.  ``lattice_normalize`` builds one
from generators; ``basis`` is derived, and no product by a basis goes
through ``mat_mul``.  The three frame helpers take a packed matrix and
return one, each from the coordinates in two packed products by c, each
folded once, plus scalings by p^a and p^b, each slot reduced mod p^N:
``mat_times_sigma_basis`` is a matrix times sigma^n(basis), since sigma^n
fixes p^a and p^b and only c moves (c packed, then one ``packed_sigma``);
``frame_times`` is p^(a+b) basis^-1 = adj(basis) = [[p^b, 0], [-c, p^a]]
times a matrix, -c packed as a negation; and ``basis_transpose_times`` is
basis^T times a matrix.  Every result is reduced, as the tuple products were,
so an exact division that follows reads the same residues.  When c = 0, as
for every lattice with b = 0 (c is reduced mod p^b), the products by c and
its sigma are zero and are skipped: only the scalings are left, with no
fold.  Containment and ``lattice_in_frame`` read
adj(outer) * inner = [[p^(b+a'), 0], [p^a c' - p^a' c, p^(a+b')]] off the
coordinates.  That matrix is already lower triangular, so ``lattice_in_frame``
takes its Hermite form in closed form, dividing out the least valuation of
its entries, with no unit inverse and no ``lattice_normalize``.  The index
valuation is 2 shift + a + b, capped at N.  Once a + b >= N (possible for
N >= 10) det(basis) is zero mod p^N, and ``frame_times``, ``lattice_contains``
and ``lattice_in_frame`` raise ``PrecisionError`` on that frame.
A lattice contains itself, with no frame, whatever its a + b, so its
``lattice_colength`` in itself is 0 from that one answer; in its own frame
it is the standard lattice D, returned with no product once a + b < N and
the budget is positive, which is what the product gives there.  Each ring
builds its D once, with its tables, and ``standard_lattice`` returns it.
``lattice_dual`` spans the columns of the adjugate of basis^T pairing^T,
which is p^d times its inverse up to a unit, so it inverts no unit either;
it takes a packed pairing and unpacks basis^T pairing^T once, for those
columns.

Units are inverted by extended Euclid over F_p[x] in the residue field and
Newton steps that double the p-adic precision, so ceil(log2 N) steps suffice.
A constant unit is inverted directly mod p^N.

Precision policy: every ring carries a budget of N - RESERVE trusted p-adic
digits.  Operations that would need valuations at or beyond the budget raise
instead of silently truncating; the lattice layer raises ``PrecisionError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import GostrataError, isprime

RESERVE = 4

WElem = tuple  # coefficient tuple of length m over Z/p^N
Mat2 = tuple  # ((a, b), (c, d)) row-major over WElem
Packed2 = tuple  # (a, b, c, d): the entries of a Mat2, row-major, each packed, slots reduced


class WittError(GostrataError):
    """Raised for out-of-range parameters or exhausted precision."""


class DieudonneError(GostrataError):
    """Raised when matrices or lattices violate the point axioms.

    Defined below the point layer that raises it, so that PrecisionError can
    be one."""


class PrecisionError(WittError, DieudonneError):
    """Raised when the precision budget N - RESERVE cannot decide a result.

    One type for every budget failure, caught by handlers of either parent."""


class NotSplit:
    """Marker: elementary divisors indistinguishable within the budget."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NotSplit"


NOT_SPLIT = NotSplit()


# --- polynomials over F_p: little-endian coefficient lists, trimmed ----------


def _poly_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_minus(a: list, b: list) -> list:
    return [u - v for u, v in itertools.zip_longest(a, b, fillvalue=0)]


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
    every prime r dividing m = deg f.

    Only x^p mod f is found by squaring.  The p-power map g -> g^p is F_p-linear
    on F_p[x]/f and sends g(x) to g(x^p), so each further x^(p^k) is the one
    before with x replaced by x^p: a combination of the powers (x^p)^i, i < m.
    For m >= 2, an f with a root in F_p, gcd(x^p - x, f) != 1, is rejected
    before that map is built.
    """
    m = len(modulus) - 1
    x = _poly_rem([0, 1], modulus, p)
    h = _poly_pow_mod(x, p, modulus, p)
    if m > 1 and len(_poly_gcdex(_poly_minus(h, x), modulus, p)[0]) != 1:
        return False  # f has a root in F_p
    columns = [[1]]  # (x^p)^i mod f: the columns of the p-power map
    for _ in range(m - 1):
        columns.append(_poly_rem(_poly_mul(columns[-1], h, p), modulus, p))
    powers = [x, h]  # powers[k] = x^(p^k) mod f
    for _ in range(m - 1):
        image = [0] * m
        for c, column in zip(powers[-1], columns):
            if c:
                for j, u in enumerate(column):
                    image[j] += c * u
        powers.append(_poly_trim([c % p for c in image]))
    if powers[m] != x:
        return False
    for r in range(2, m + 1):
        if m % r == 0 and isprime(r):
            if len(_poly_gcdex(_poly_minus(powers[m // r], x), modulus, p)[0]) != 1:
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Little-endian coefficients of the first monic irreducible of degree m.
    The p binomials x^m + a0 come first; by Capelli's theorem all of them are
    reducible when a prime factor of m does not divide p - 1, or when 4 | m and
    p = 3 mod 4, and the search then starts past them."""
    primes = [r for r in range(2, m + 1) if m % r == 0 and isprime(r)]
    reducible = any((p - 1) % r for r in primes) or (m % 4 == 0 and p % 4 == 3)
    for k in itertools.count(p if reducible else 0):
        digits, val = [], k
        for _ in range(m):
            digits.append(val % p)
            val //= p
        if val:
            raise WittError(f"no irreducible polynomial found for p={p}, m={m}")
        coeffs = digits + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)


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
    _width: int = field(init=False, repr=False, compare=False)
    _mask: int = field(init=False, repr=False, compare=False)
    _ones: int = field(init=False, repr=False, compare=False)
    _pn_packed: int = field(init=False, repr=False, compare=False)
    _high: int = field(init=False, repr=False, compare=False)
    _shifts: tuple = field(init=False, repr=False, compare=False)
    _reduce: tuple = field(init=False, repr=False, compare=False)
    _zeros: tuple = field(init=False, repr=False, compare=False)
    _sigma: dict = field(init=False, repr=False, compare=False)
    _standard: Lattice2 = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m, pn = self.m, self.p**self.N
        k = (3 * m * pn * pn).bit_length()  # the slot width: no slot sum reaches 2^k
        object.__setattr__(self, "pn", pn)
        object.__setattr__(self, "budget", self.N - RESERVE)
        object.__setattr__(self, "_width", k)
        object.__setattr__(self, "_mask", (1 << k) - 1)
        object.__setattr__(self, "_shifts", tuple(range(0, k * m, k)))
        object.__setattr__(self, "_ones", sum(1 << s for s in self._shifts))
        object.__setattr__(self, "_pn_packed", pn * self._ones)
        object.__setattr__(self, "_high", 1 << k * m)  # the least int with a slot above m - 1
        # rows x^m, ..., x^(2m-2) reduced modulo the monic modulus
        row = tuple(-c % pn for c in self.modulus[:-1])
        rows = []
        for _ in range(m - 1):
            rows.append(row)
            top = row[-1]
            row = tuple((lower + top * c) % pn for lower, c in zip((0,) + row[:-1], rows[0]))
        # each packed row paired with the shift of the slot it folds
        packed = tuple((k * (m + t), self._pack(r)) for t, r in enumerate(rows))
        object.__setattr__(self, "_reduce", packed)
        object.__setattr__(self, "_zeros", (0,) * (m - 1))
        object.__setattr__(self, "_sigma", {})
        object.__setattr__(self, "_standard", Lattice2(self, 0, 0, 0, self.zero()))

    def _pack(self, a) -> int:
        """One int with coefficient i, reduced mod p^N, in slot i."""
        pn, k, packed = self.pn, self._width, 0
        for c in reversed(a):
            packed = packed << k | c % pn
        return packed

    def _repack(self, x: int, q: int) -> int:
        """The m low slots of x, each reduced mod q, packed again.  For p = 2,
        q is a power of 2, so that is one AND with q - 1 in every low slot,
        which also drops the slots above them."""
        if self.p == 2:
            return x & (q - 1) * self._ones
        k, mask, packed = self._width, self._mask, 0
        for s in reversed(self._shifts):
            packed = packed << k | (x >> s & mask) % q
        return packed

    def _unpack(self, packed: int) -> WElem:
        """The element of a packed sum of products: slots m to 2m - 2 folded
        back through the reduction rows, then m slots read off mod p^N.  A sum
        with nothing above slot 0 is a constant and skips both passes."""
        pn, mask = self.pn, self._mask
        if packed <= mask:
            return (packed % pn,) + self._zeros
        for s, row in self._reduce:
            packed += (packed >> s & mask) % pn * row
        return tuple([(packed >> s & mask) % pn for s in self._shifts])

    def _sigma_table(self, k: int) -> tuple[int, ...]:
        """The packed images sigma^k(x^i) for i < m, for 0 < k < m."""
        table = self._sigma.get(k)
        if table is None:
            image = frobenius(self, self.frob_image, k - 1)  # sigma^k(x) = sigma^(k-1)(sigma(x))
            powers = [self.one()]
            for _ in range(self.m - 1):
                powers.append(self.mul(powers[-1], image))
            table = self._sigma[k] = tuple(map(self._pack, powers))
        return table

    # --- element arithmetic -------------------------------------------------

    def zero(self) -> WElem:
        return (0,) * self.m

    def one(self) -> WElem:
        return self.from_int(1)

    def from_int(self, k: int) -> WElem:
        return (k % self.pn,) + self._zeros

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

    def mul(self, a: WElem, b: WElem) -> WElem:
        return self._unpack(self._pack(a) * self._pack(b))

    def smul(self, k: int, a: WElem) -> WElem:
        """k * a; for k = 1 that is a itself, as for ``frobenius(a, 0)``, since
        every element a point or lattice holds is reduced: ring ops return
        reduced elements, and a point's matrices are packed by ``mat_pack``."""
        return a if k == 1 else tuple(k * u % self.pn for u in a)

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
            raise PrecisionError("element indistinguishable from zero")
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
    """k-fold application of the Frobenius lift x -> frob_image, which fixes
    every constant."""
    k %= ring.m
    if not k:
        return a
    if not any(a[1:]):
        return ring.from_int(a[0])
    pn, mask = ring.pn, ring._mask
    packed = sum([c % pn * row for c, row in zip(a, ring._sigma_table(k))])
    return tuple([(packed >> s & mask) % pn for s in ring._shifts])


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


def mat_pack(ring: WittRing, a: Mat2) -> Packed2:
    """The entries of ``a``, row-major, each packed once with its
    coefficients reduced mod p^N: the one form of a point's matrices."""
    pack = ring._pack
    (x, y), (z, w) = a
    return pack(x), pack(y), pack(z), pack(w)


def mat_unpack(ring: WittRing, a: Packed2) -> Mat2:
    """The matrix of a packed one whose slots are reduced: each entry's m
    slots read off, the inverse of ``mat_pack``."""
    mask, shifts = ring._mask, ring._shifts
    x, y, z, w = [tuple([e >> s & mask for s in shifts]) for e in a]
    return (x, y), (z, w)


def packed_fold(ring: WittRing, x: int, q: int | None = None) -> int:
    """The packed element of a packed sum of products, kept packed: slots m
    to 2m - 2 folded back through the reduction rows, then each of the m
    slots reduced mod q, by default p^N.  q divides p^N, so the slots are
    the residues mod q of the element.  A sum with nothing above slot 0 is a
    constant and skips the fold; one with nothing above slot m - 1, such as
    a sum of reduced elements or a product by a constant, is only repacked,
    since each fold step would add 0."""
    pn, mask = ring.pn, ring._mask
    q = q or pn
    if x <= mask:
        return x % q
    if x >= ring._high:
        for s, row in ring._reduce:
            x += (x >> s & mask) % pn * row
    return ring._repack(x, q)


def packed_transpose(a: Packed2) -> Packed2:
    return a[0], a[2], a[1], a[3]


def packed_adjugate(ring: WittRing, a: Packed2) -> Packed2:
    """[[d, -b], [-c, a]], each negation p^N in every slot minus the entry."""
    x, y, z, w = a
    return w, ring._pn_packed - y, ring._pn_packed - z, x


def packed_mul(ring: WittRing, a: Packed2, b: Packed2, q: int | None = None) -> Packed2:
    """The product of two packed matrices, packed: each entry one two-term
    sum of packed products, through ``packed_fold`` mod q (default p^N)."""
    (x0, x1, y0, y1), (b00, b01, b10, b11) = a, b
    return (packed_fold(ring, x0 * b00 + x1 * b10, q), packed_fold(ring, x0 * b01 + x1 * b11, q),
            packed_fold(ring, y0 * b00 + y1 * b10, q), packed_fold(ring, y0 * b01 + y1 * b11, q))


def packed_scale(ring: WittRing, e: WElem, a: Packed2, q: int | None = None) -> Packed2:
    """e times each entry of a packed matrix, packed: e packed once, each
    product through ``packed_fold`` mod q (default p^N)."""
    scalar = ring._pack(e)
    return tuple([packed_fold(ring, scalar * x, q) for x in a])


def _scaled(ring: WittRing, x: int, k: int) -> int:
    """k x for a packed element x with reduced slots and 0 <= k <= p^N, each
    slot reduced mod p^N: x itself for k = 1, no fold, since k x holds
    nothing above slot m - 1."""
    if k == 1:
        return x
    return ring._repack(x * k, ring.pn) if x > ring._mask else x * k % ring.pn


def packed_shift(ring: WittRing, a: Packed2, k: int) -> Packed2:
    """p^k times a packed matrix with reduced slots, its slots reduced.  For
    negative k, p^-k must divide every slot, which ``//`` then divides
    exactly; otherwise it raises as ``div_p`` does."""
    if k >= 0:
        return a if k == 0 else tuple([_scaled(ring, x, ring.p**k % ring.pn) for x in a])
    q = ring.p**-k
    if any(ring._repack(x, q) for x in a):
        raise WittError("element not divisible by the requested power of p")
    return tuple([x // q for x in a])


def packed_sigma(ring: WittRing, a: Packed2, k: int = 1) -> Packed2:
    """sigma^k of each entry of a packed matrix with reduced slots, packed:
    the table pass of ``frobenius`` over the entry's slots, each slot of the
    sum then reduced mod p^N.  A constant entry is fixed and returned as it
    is."""
    k %= ring.m
    if not k:
        return a
    pn, mask, table = ring.pn, ring._mask, tuple(zip(ring._shifts, ring._sigma_table(k)))
    return tuple([
        x if x <= mask else ring._repack(sum([(x >> s & mask) * row for s, row in table]), pn)
        for x in a
    ])


def packed_det(ring: WittRing, a: Packed2) -> WElem:
    """ad + (-b)c for a packed matrix, folded once."""
    x, y, z, w = a
    return ring._unpack(x * w + (ring._pn_packed - y) * z)


def mat_mul(ring: WittRing, a: Mat2, b: Mat2) -> Mat2:
    """``packed_mul`` of the packed arguments, read off as tuples."""
    return mat_unpack(ring, packed_mul(ring, mat_pack(ring, a), mat_pack(ring, b)))


def mat_smul(ring: WittRing, k: int, a: Mat2) -> Mat2:
    return tuple(tuple(ring.smul(k, e) for e in row) for row in a)


def mat_transpose(a: Mat2) -> Mat2:
    return ((a[0][0], a[1][0]), (a[0][1], a[1][1]))


def mat_columns(a: Mat2) -> list:
    return [(a[0][0], a[1][0]), (a[0][1], a[1][1])]


def mat_sigma(ring: WittRing, a: Mat2, k: int = 1) -> Mat2:
    return tuple(tuple(frobenius(ring, e, k) for e in row) for row in a)


def mat_det(ring: WittRing, a: Mat2) -> WElem:
    return packed_det(ring, mat_pack(ring, a))


def mat_val(ring: WittRing, a: Packed2) -> int:
    """The least valuation of the entries of a packed matrix, capped at N.
    p divides a packed int when it divides each of its slots, so a nonzero
    x % p shows a unit slot before any slot is read."""
    if any(x % ring.p for x in a):
        return 0
    return ring.val([x >> s & ring._mask for x in a for s in ring._shifts])


def mat_adjugate(ring: WittRing, a: Mat2) -> Mat2:
    return (
        (a[1][1], ring.neg(a[0][1])),
        (ring.neg(a[1][0]), a[0][0]),
    )


def scaled_inverse(ring: WittRing, a: Packed2) -> tuple[int, Packed2]:
    """(d, p^d * a^{-1}) for a packed matrix, packed, with d the valuation of
    det(a): adj(a) over the unit of det(a)."""
    d, unit = ring.unit_and_val(packed_det(ring, a))
    return d, packed_scale(ring, ring.inv(unit), packed_adjugate(ring, a))


def elementary_divisors(ring: WittRing, a: Packed2, det: WElem | None = None):
    """Valuations (v1, v2) with v1 <= v2 of a packed matrix, or NOT_SPLIT
    beyond the budget; ``det`` is det(a), for a caller that has already
    taken it."""
    v1 = mat_val(ring, a)
    if v1 >= ring.budget:
        return NOT_SPLIT
    v2 = ring.val(packed_det(ring, a) if det is None else det) - v1
    if v2 >= ring.budget:
        return NOT_SPLIT
    return (v1, v2)


# --- rank-2 lattices ----------------------------------------------------------


@dataclass(frozen=True)
class Lattice2:
    """p^shift times the column span of [[p^a, 0], [c, p^b]] inside the standard
    module, with c reduced mod p^b: one tuple per lattice, so ``==`` and
    ``hash`` are lattice equality.  Built only by ``lattice_normalize``,
    ``lattice_scale``, ``lattice_in_frame`` and the ring, which builds its
    standard lattice D once, for ``standard_lattice`` to return."""

    ring: WittRing
    shift: int
    a: int
    b: int
    c: WElem

    @property
    def basis(self) -> Mat2:
        return mat2(self.ring, [[self.ring.p**self.a, 0], [self.c, self.ring.p**self.b]])


def standard_lattice(ring: WittRing) -> Lattice2:
    """D, the standard lattice: one per ring, built with it."""
    return ring._standard


def lattice_normalize(ring: WittRing, shift: int, cols: list) -> Lattice2:
    """The lattice p^shift * span(cols), in its canonical form [[p^a, 0], [c, p^b]]
    with min elementary divisor zero.

    Each entry's valuation is computed once, here, and every exact division
    below is by a power of p that those valuations show divides the entry.
    Generators that all vanish mod p^N raise ``PrecisionError``: they come
    from maps injective on the isocrystal, so N digits were too few to see
    them."""
    if ring.budget <= 0:
        raise PrecisionError("precision budget exhausted")
    p, N = ring.p, ring.N
    tops = [ring.val(col[0]) for col in cols]
    vmin = min(tops + [ring.val(col[1]) for col in cols])
    if vmin >= N:
        raise PrecisionError(f"precision N = {N} cannot tell the lattice generators from zero")
    if vmin > 0:
        q = p**vmin
        cols = [tuple(tuple(c // q for c in e) for e in col) for col in cols]
        tops = [v - vmin if v < N else N for v in tops]  # zero stays at the cap
        shift += vmin
    # top pivot: column whose first coordinate has minimal valuation
    a = min(tops)
    if a >= ring.budget:
        raise PrecisionError("precision budget exhausted")
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
        raise PrecisionError("precision budget exhausted")
    q = p**b
    return Lattice2(ring, shift, a, b, tuple(e % q for e in c))


def lattice_scale(l: Lattice2, k: int) -> Lattice2:
    return Lattice2(l.ring, l.shift + k, l.a, l.b, l.c)


def lattice_sum(a: Lattice2, b: Lattice2) -> Lattice2:
    if a.ring != b.ring:
        raise WittError("lattices live over different rings")
    ring = a.ring
    shift = min(a.shift, b.shift)
    cols = []
    for l in (a, b):
        cols += mat_columns(mat_smul(ring, ring.p ** (l.shift - shift), l.basis))
    return lattice_normalize(ring, shift, cols)


def lattice_index_val(l: Lattice2) -> int:
    """Valuation of the index in the standard lattice (may be negative): that of
    det(basis) = p^(a+b), capped at N."""
    return 2 * l.shift + min(l.a + l.b, l.ring.N)


def _frame_det_val(l: Lattice2) -> int:
    """a + b, the valuation of det(basis), which must lie below N."""
    if l.a + l.b >= l.ring.N:
        raise PrecisionError("element indistinguishable from zero")
    return l.a + l.b


def _plus_c(ring: WittRing, pa: int, c: int, x: int, y: int) -> int:
    """p^a x + c y for packed x and y with reduced slots, its slots reduced,
    where c is a packed c of a Hermite basis, its sigma or its negation, or
    0 for c = 0: one fold of the product when c is nonzero, a scaling with no
    product and no fold when it is 0."""
    return packed_fold(ring, pa * x + c * y) if c else _scaled(ring, x, pa)


def frame_times(l: Lattice2, mat: Packed2) -> tuple[int, Packed2]:
    """(d, p^d * basis^-1 * mat) with d = a + b, for a packed matrix, packed.
    p^d basis^-1 is the adjugate [[p^b, 0], [-c, p^a]], so the product is
    [p^b X[0], p^a X[1] - c X[0]] for the rows X of mat, -c packed as a
    negation: two products, none when c = 0."""
    ring, (x0, x1, y0, y1) = l.ring, mat
    d, pa, pb = _frame_det_val(l), ring.p**l.a, ring.p**l.b
    neg = any(l.c) and ring._pn_packed - ring._pack(l.c)
    return d, (_scaled(ring, x0, pb), _scaled(ring, x1, pb),
               _plus_c(ring, pa, neg, y0, x0), _plus_c(ring, pa, neg, y1, x1))


def basis_transpose_times(l: Lattice2, mat: Packed2) -> Packed2:
    """basis(l)^T * mat = [p^a X[0] + c X[1], p^b X[1]] for the rows X of a
    packed matrix, packed: two products, none when c = 0."""
    ring, (x0, x1, y0, y1) = l.ring, mat
    pa, pb, c = ring.p**l.a, ring.p**l.b, any(l.c) and ring._pack(l.c)
    return (_plus_c(ring, pa, c, x0, y0), _plus_c(ring, pa, c, x1, y1),
            _scaled(ring, y0, pb), _scaled(ring, y1, pb))


def mat_times_sigma_basis(ring: WittRing, mat: Packed2, l: Lattice2, n: int) -> Packed2:
    """mat * sigma^n(basis(l)) for a packed matrix, packed.  sigma^n fixes
    p^a and p^b, so the product is [p^a M[:,0] + sigma^n(c) M[:,1], p^b M[:,1]]:
    one sigma and two products, none of either when c = 0."""
    (x0, y0, x1, y1), pa, pb = mat, ring.p**l.a, ring.p**l.b
    c = any(l.c) and packed_sigma(ring, (ring._pack(l.c),), n)[0]
    return (_plus_c(ring, pa, c, x0, y0), _scaled(ring, y0, pb),
            _plus_c(ring, pa, c, x1, y1), _scaled(ring, y1, pb))


def _adjugate_product(outer: Lattice2, inner: Lattice2) -> tuple[int, int, WElem, int]:
    """(a + b, b + a', p^a c' - p^a' c, a + b') for outer = H(a, b, c) and
    inner = H(a', b', c'): d and the lower-triangular p^d * outer^-1 * inner
    [[p^(b+a'), 0], [p^a c' - p^a' c, p^(a+b')]], its diagonal as exponents."""
    ring = outer.ring
    pa, pa_inner = ring.p**outer.a, ring.p**inner.a
    cross = tuple((pa * u - pa_inner * v) % ring.pn for u, v in zip(inner.c, outer.c))
    return _frame_det_val(outer), outer.b + inner.a, cross, outer.a + inner.b


def lattice_contains(outer: Lattice2, inner: Lattice2) -> bool:
    """Whether ``outer`` contains ``inner``: True for a lattice in itself
    with no frame, else read off the frame of ``outer``, which raises
    ``PrecisionError`` once its a + b reaches N."""
    if outer == inner:
        return True
    d, top, cross, bottom = _adjugate_product(outer, inner)
    return min(top, bottom, outer.ring.val(cross)) >= d - (inner.shift - outer.shift)


def lattice_in_frame(ring: WittRing, frame: Lattice2, lattice: Lattice2) -> Lattice2:
    """Rewrite a lattice in the coordinates in which ``frame`` is standard.

    p^d * frame^-1 * lattice is [[p^top, 0], [cross, p^bottom]], already lower
    triangular, so its Hermite form is read off with no inverse: p^vmin comes
    out, vmin = min(top, bottom, val(cross)), leaving a = top - vmin,
    b = bottom - vmin and c = cross / p^vmin mod p^b.  It raises where
    ``lattice_normalize`` would on those two columns: a top or bottom at N or
    more is zero mod p^N, so its exponent cannot be known.  A lattice in its
    own frame is the standard lattice, which that path gives once the frame
    passes its checks (a + b < N, a positive budget), so it is returned with
    no product."""
    if frame == lattice and frame.a + frame.b < ring.N and ring.budget > 0:
        return standard_lattice(ring)
    d, top, cross, bottom = _adjugate_product(frame, lattice)
    if ring.budget <= 0:
        raise PrecisionError("precision budget exhausted")
    vmin = min(top, bottom, ring.val(cross))
    if vmin >= ring.N:
        raise PrecisionError(f"precision N = {ring.N} cannot tell the lattice generators from zero")
    a, b = top - vmin, bottom - vmin
    if max(top, bottom) >= ring.N or max(a, b) >= ring.budget:
        raise PrecisionError("precision budget exhausted")
    q, pb = ring.p**vmin, ring.p**b
    c = tuple([e // q % pb for e in cross])
    return Lattice2(ring, lattice.shift - frame.shift - d + vmin, a, b, c)


def lattice_colength(outer: Lattice2, inner: Lattice2) -> int:
    """The colength of ``inner`` in ``outer``, which must contain it: 0 for
    a lattice in itself, which ``lattice_contains`` answers with no frame."""
    if not lattice_contains(outer, inner):
        raise WittError("lattice is not contained in the claimed overlattice")
    return lattice_index_val(inner) - lattice_index_val(outer)


def lattice_dual(l: Lattice2, pairing: Packed2) -> Lattice2:
    """{v : <v, l> integral} under <v, w> = v^T * pairing * w, for a packed
    pairing: p^-shift times the span of M^-1 for M = basis^T pairing^T.
    With det M = p^d u that is p^-(shift + d) times the span of
    adj(M) = u p^d M^-1, since the unit u leaves a span as it is, so no unit
    is inverted.  M is formed packed and unpacked once, for the columns of
    its adjugate.  A pairing whose determinant on ``l`` is zero mod p^N
    raises ``PrecisionError``."""
    ring = l.ring
    mat = basis_transpose_times(l, packed_transpose(pairing))
    d, _ = ring.unit_and_val(packed_det(ring, mat))
    adjugate = mat_adjugate(ring, mat_unpack(ring, mat))
    return lattice_normalize(ring, -l.shift - d, mat_columns(adjugate))


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
