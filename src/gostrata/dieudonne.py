"""Point-level simulator for the stratification: semilinear F/V data on rank-2
components, the essential Frobenius calculus, partial Hasse invariants, and the
lattice constructions that pass a point across an isogeny chain and back.

A point carries, for each embedding upstairs, a 2x2 matrix over a truncated
Witt ring describing F on that component (x maps to f_mat times sigma(x)),
held packed (``witt.Packed2``) like its pairings.  The frame stage, the
checks of ``make_point`` and the partial Hasse invariants read them packed;
``mat_unpack`` is used only at the output boundary (the JSON record, V, the
public essential composites, omega) and for columns that go into
``lattice_normalize``.
V is not stored: FV = p fixes it as sigma^-1(p F^-1), and ``v_matrix`` forms
it where a caller reads it.  ``make_point`` checks the pairing against the
adjugate of F, and ``omega_lattice`` spans its lattice from the adjugate, so
neither takes an inverse.  Pairings couple conjugate components.  All
lattice manipulations happen inside a single shared isocrystal, so the
roundtrip construction can be verified by componentwise lattice equality.
Stability of a lattice family is read off the framed F-matrices that become
the new point's F: F-stable where they are integral, V-stable where their
divisors are <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import GostrataError
from .places import (
    ArchPlace,
    EmbE,
    FrozenMap,
    PrimeSlot,
    PrimeType,
    ShimuraDatum,
    canonical_lift,
    classify_prime,
    conjugate,
    datum_from_json,
    datum_to_json,
    frobenius_shift,
    n_tau,
    restrict,
)
from .strata import (
    CaseTag,
    DeltaSets,
    LiftChoice,
    StratumDescriptor,
    delta_sets,
    dimension_count_check,
    lift_assignment,
    signature_from_lift,
    stratum_descriptor,
)
from .witt import (
    NOT_SPLIT,
    RESERVE,
    DieudonneError,
    Lattice2,
    Mat2,
    Packed2,
    PrecisionError,
    WElem,
    WittRing,
    basis_transpose_times,
    elementary_divisors,
    frame_times,
    lattice_colength,
    lattice_dual,
    lattice_in_frame,
    lattice_normalize,
    lattice_scale,
    mat2,
    mat_columns,
    mat_pack,
    mat_times_sigma_basis,
    mat_unpack,
    mat_val,
    packed_adjugate,
    packed_det,
    packed_fold,
    packed_mul,
    packed_scale,
    packed_shift,
    packed_sigma,
    packed_transpose,
    ring_from_json,
    ring_to_json,
    scaled_inverse,
    standard_lattice,
    witt_ring,
)


def _f_divisors(ring: WittRing, mat: Packed2, det: WElem, emb: EmbE) -> tuple[int, int]:
    """Elementary divisors of a packed F-matrix with determinant ``det``,
    which FV = p bounds by (0, 1)."""
    divisors = elementary_divisors(ring, mat, det)
    if divisors is NOT_SPLIT:
        raise PrecisionError(f"precision budget N - RESERVE = {ring.N} - {RESERVE} = "
                             f"{ring.budget} cannot split the divisors of F at {emb}")
    if divisors[1] > 1:
        raise DieudonneError(f"F V = p fails at {emb}: bad divisors {divisors}")
    return divisors


def _one_prime(datum: ShimuraDatum) -> tuple[PrimeSlot, int]:
    """The datum's only prime and its cycle length: f split, 2f inert."""
    if len(datum.places.primes) != 1:
        raise DieudonneError("the simulator works one prime at a time")
    slot = datum.places.primes[0]
    return slot, slot.f if slot.e_split else 2 * slot.f


# --- small matrix helpers -----------------------------------------------------


def _close(ring: WittRing, a: Packed2, b: Packed2, sign: int = 1) -> bool:
    """a = sign * b, sign = 1 or -1, up to the trusted precision budget, for
    packed a and b with reduced slots: p^budget divides each coefficient of
    x - sign * y, so the slots' residues mod p^budget agree, or for sign = -1
    those of the slots of x + y vanish.  Each such slot lies below 2 p^N, so
    the sum carries into no other slot."""
    if ring.budget <= 0:
        return True
    q = ring.p**ring.budget
    if sign == 1:
        return [packed_fold(ring, x, q) for x in a] == [packed_fold(ring, y, q) for y in b]
    return not any(packed_fold(ring, x + y, q) for x, y in zip(a, b))


# --- the point ----------------------------------------------------------------


@dataclass(frozen=True)
class DieudonnePoint:
    """F, the pairing and the signature at each embedding of one prime:
    FrozenMaps keyed by embedding, in embedding order.  Each F and each
    pairing is a ``Packed2``, the four packed ints of ``mat_pack`` with every
    slot reduced mod p^N, so ``==`` and ``hash`` compare points as elements
    of W_N; ``mat_unpack`` gives the coefficient tuples back.  V is derived
    data, sigma^-1(p F^-1), which ``v_matrix`` forms on demand.  The prime
    is the datum's one prime, which ``make_point`` requires, so the datum's
    tables for all primes are the point's.  Built only by ``make_point``."""

    ring: WittRing
    datum: ShimuraDatum
    f_mats: FrozenMap
    pairings: FrozenMap
    signature: FrozenMap

    def embeddings(self) -> tuple[EmbE, ...]:
        return self.datum.places.embeddings()


def make_point(
    ring: WittRing,
    datum: ShimuraDatum,
    f_mats: Mapping[EmbE, Packed2],
    pairings: Mapping[EmbE, Packed2],
    expected_signature,
) -> DieudonnePoint:
    """Assemble and validate a point from its packed F-matrices and pairings.

    The one door to a point.  It takes matrices packed by ``mat_pack``,
    which reduces each coefficient mod p^N, so matrices that differ by
    multiples of p^N give the same point, and it stores them as given.

    The pairing must satisfy <F x, y> = sigma(<x, V y>): at ``emb``, with c
    its conjugate and prev = sigma^-1(emb), F_emb^T P_emb = sigma(P_prev V_c).
    With det F_c = p^d u, u a unit, sigma(V_c) = p F_c^-1 is
    p^(1-d) adj(F_c) / u, so the check is
    u F_emb^T P_emb = sigma(P_prev) adj(F_c) p^(1-d) mod p^budget, with no
    inverse and no V.  Multiplying both sides of a congruence mod p^budget
    by a unit keeps it exactly, so this is as strong as the check through V.
    Both sides times p^d give the form checked here:
    det(F_c) F_emb^T P_emb = p sigma(P_prev) adj(F_c) mod p^(budget + d).
    Multiplying a congruence and its modulus by p^d keeps it exactly, and at
    d = 2 p divides every entry of adj(F_c), so p times the exact quotient
    is the product itself.  So the check answers as the one through V.
    Each side is read as packed residues: det(F_c) times the packed, reduced
    F_emb^T P_emb mod p^(budget + d), and p times the residues of
    sigma(P_prev) adj(F_c) mod p^(budget + d - 1).  sigma(P_prev) is taken
    by ``packed_sigma``, packed to packed.  Each F's determinant is taken
    once, for its divisors and for this check.

    Antisymmetry at c is the transpose of antisymmetry at ``emb``, so it is
    checked once per conjugate pair, at the first of the two; a failure
    raises at the same embedding as a check at both would.  It reads P_c +
    P_emb^T reduced mod p^budget, which must be 0.  The divisors of each F
    are read off its packed slots too: no matrix is unpacked."""
    slot, cycle = _one_prime(datum)
    pid = slot.id
    prime_type = classify_prime(datum, pid)
    if ring.m % cycle != 0:
        raise DieudonneError(f"ring degree {ring.m} incompatible with cycle length {cycle}")
    system = datum.places
    embs = system.embeddings(pid)
    if set(f_mats) != set(embs) or set(pairings) != set(embs):
        raise DieudonneError("matrices must be indexed by the full embedding cycle")

    dets = {emb: packed_det(ring, f_mats[emb]) for emb in embs}
    divisors = {e: _f_divisors(ring, f_mats[e], dets[e], e) for e in embs}
    signature = FrozenMap(
        (emb, divisors[frobenius_shift(system, emb, 1)].count(0)) for emb in embs
    )

    pairing_val = 1 if prime_type is PrimeType.BETA_SHARP else 0
    seen = set()
    for emb in embs:
        if ring.val(packed_det(ring, pairings[emb])) != pairing_val:
            raise DieudonneError(f"pairing at {emb} has the wrong determinant valuation")
        cemb = conjugate(system, emb)
        # the check at cemb is the transpose of this one: made at the first of the two
        if cemb not in seen and not _close(ring, pairings[cemb],
                                           packed_transpose(pairings[emb]), -1):
            raise DieudonneError(f"pairing at {emb} is not conjugate-antisymmetric")
        seen.add(emb)

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
        # <F x, y> = sigma(<x, V y>), times p^d u = det F_c: sigma(V_c) = p^(1-d) adj(F_c) / u
        q = ring.p ** (ring.budget + sum(divisors[cemb]))
        product = packed_mul(ring, packed_transpose(f_mats[emb]), pairings[emb])
        lhs = packed_scale(ring, dets[cemb], product, q)
        sigma_prev = packed_sigma(ring, pairings[frobenius_shift(system, emb, -1)], 1)
        rhs = packed_mul(ring, sigma_prev, packed_adjugate(ring, f_mats[cemb]), q // ring.p)
        if lhs != tuple([ring.p * y for y in rhs]):
            raise DieudonneError(f"pairing is incompatible with F and V at {emb}")

    return DieudonnePoint(
        ring=ring,
        datum=datum,
        f_mats=FrozenMap((emb, f_mats[emb]) for emb in embs),
        pairings=FrozenMap((emb, pairings[emb]) for emb in embs),
        signature=signature,
    )


# --- essential Frobenius calculus --------------------------------------------


def _packed_v(pt: DieudonnePoint, emb: EmbE) -> Packed2:
    """V at ``emb``, packed: sigma^-1(p^(1-d) adj(F) / u) for det F = p^d u."""
    d, inverse = scaled_inverse(pt.ring, pt.f_mats[emb])
    return packed_sigma(pt.ring, packed_shift(pt.ring, inverse, 1 - d), pt.ring.m - 1)


def v_matrix(pt: DieudonnePoint, emb: EmbE) -> Mat2:
    """V at ``emb``, semilinear sigma^-1: sigma^-1(p F^-1), integral since
    ``make_point`` bounds the divisors of F by (0, 1); exact to N - 1 digits
    where F has divisors (1, 1), to N elsewhere."""
    return mat_unpack(pt.ring, _packed_v(pt, emb))


def _essential_chain(pt: DieudonnePoint, emb: EmbE, ks: range, step, divided: int,
                     twist: int) -> Packed2:
    """The packed composite of the steps ``step(mu)`` at mu = sigma^-k(emb)
    for k in ``ks``, each divided by p where the signature behind mu is
    ``divided``, the product so far twisted by sigma^twist before each new
    step multiplies it on the left.  An empty ``ks`` is n < 1."""
    if not ks:
        raise DieudonneError("n must be at least 1")
    ring, system = pt.ring, pt.datum.places
    mat = None
    for k in ks:
        mu = frobenius_shift(system, emb, -k)
        here = step(mu)
        if pt.signature[frobenius_shift(system, mu, -1)] == divided:
            here = packed_shift(ring, here, -1)
        mat = here if mat is None else packed_mul(ring, here, packed_sigma(ring, mat, twist))
    return mat


def _packed_essential_frobenius(pt: DieudonnePoint, emb: EmbE, n: int) -> Packed2:
    """``essential_frobenius_matrix``, packed: the chain of F at k = n - 1,
    ..., 0, divided where the signature behind is 0, twisted by sigma."""
    return _essential_chain(pt, emb, range(n - 1, -1, -1), lambda mu: pt.f_mats[mu], 0, 1)


def essential_frobenius_matrix(pt: DieudonnePoint, emb: EmbE, n: int) -> Mat2:
    """The composite F_es^n into ``emb``, semilinear sigma^n: an integral
    matrix, exact to at least N - 1 digits.

    Each step into a component uses F when the signature behind it is 1 or 2,
    and V^{-1} = F / p when it is 0, where ``make_point`` has checked that F
    has divisors (1, 1), so p divides every slot of the packed F and the
    division is exact slot by slot.  The chain is the one that
    ``essential_verschiebung_matrix`` walks, with F in place of V; it stays
    packed, with one ``mat_unpack`` at the end.
    """
    return mat_unpack(pt.ring, _packed_essential_frobenius(pt, emb, n))


def essential_verschiebung_matrix(pt: DieudonnePoint, emb: EmbE, n: int) -> Mat2:
    """The composite V_es^n out of ``emb``, semilinear sigma^{-n}: an integral
    matrix, exact to at least N - 1 digits.

    Each step out of a component uses V when the signature behind it is 0 or 1,
    and F^{-1} = V / p when it is 2, where F is a unit, so the division is
    exact.  It is the chain of ``essential_frobenius_matrix`` at k = 0, ...,
    n - 1, with V for F and sigma^-1 for sigma, packed, with one
    ``mat_unpack`` at the end.
    """
    chain = _essential_chain(pt, emb, range(n), lambda mu: _packed_v(pt, mu), 2, -1)
    return mat_unpack(pt.ring, chain)


def essential_frobenius_image(pt: DieudonnePoint, emb: EmbE, n: int, start: Lattice2) -> Lattice2:
    """Image of F_es^n applied to the lattice ``start`` at the component
    sigma^{-n}(emb): the composite ``essential_frobenius_matrix`` applied to
    sigma^n of the start's basis, packed, and normalized once: its columns
    are unpacked for ``lattice_normalize``."""
    ring = pt.ring
    basis = mat_times_sigma_basis(ring, _packed_essential_frobenius(pt, emb, n), start, n)
    return lattice_normalize(ring, start.shift, mat_columns(mat_unpack(ring, basis)))


def _walk(pt: DieudonnePoint, run: frozenset[EmbE], behind: Mapping[EmbE, Lattice2]):
    """(embedding, F_es image) along each run of consecutive embeddings in
    ``run``, one step per lattice, runs in the order of their first members;
    a run starts from the lattice ``behind`` holds behind its first member."""
    system = pt.datum.places
    for emb in pt.embeddings():
        prev = frobenius_shift(system, emb, -1)
        if emb not in run or prev in run:
            continue
        lattice = behind[prev]
        while emb in run:
            lattice = essential_frobenius_image(pt, emb, 1, lattice)
            yield emb, lattice
            emb = frobenius_shift(system, emb, 1)


def omega_lattice(pt: DieudonnePoint, emb: EmbE) -> Lattice2:
    """The lattice V(D at sigma emb) + p D at ``emb``, spanned with
    sigma^-1(p^(1-d) adj F) in place of V, F at sigma emb with
    det F = p^d u: V is that matrix times the unit sigma^-1(1/u), which
    spans the same lattice, and d = 2 minus the signature at ``emb``.  The
    adjugate is packed with its negated entries reduced, and the columns
    are unpacked for ``lattice_normalize``."""
    ring, system = pt.ring, pt.datum.places
    f_mat = pt.f_mats[frobenius_shift(system, emb, 1)]
    adj = tuple([packed_fold(ring, x) for x in packed_adjugate(ring, f_mat)])
    p_adj = packed_shift(ring, adj, pt.signature[emb] - 1)
    p = ring.from_int(ring.p)
    cols = mat_columns(mat_unpack(ring, packed_sigma(ring, p_adj, ring.m - 1)))
    return lattice_normalize(ring, 0, cols + [(p, ring.zero()), (ring.zero(), p)])


def hasse_vanishes(pt: DieudonnePoint, emb: EmbE) -> bool:
    """Whether the partial Hasse invariant vanishes in the ``emb`` direction:
    whether the essential Frobenius F_es^(n+1) into sigma(emb) is zero mod p,
    for n = n_tau at the free place tau below ``emb``.

    Why, from the definition of h_tau in arXiv 1308.0790: h_tau vanishes when
    F_es^n carries D at sigma^-n(emb) onto omega = V D_(sigma emb) + p D at
    ``emb`` modulo p.  Modulo p, F_es^n is one F with a rank-1 reduction, out
    of the free place sigma^-n(emb), followed by n - 1 isomorphisms out of
    places in S_infty, so its image is a line.  The next step, into
    sigma(emb), is F itself, since ``emb`` has signature 1, and F kills
    exactly omega modulo p.  So F_es^(n+1) is zero mod p exactly when that
    line is omega.  For S_infty empty every n_tau is 1 and this is the
    Goren-Oort rule for Hilbert modular varieties (J. Algebraic Geom. 2000):
    F into sigma(emb) after F into emb is zero mod p.  The composite is read
    packed.
    """
    system = pt.datum.places
    n = n_tau(pt.datum, restrict(system, emb))[0]
    composite = _packed_essential_frobenius(pt, frobenius_shift(system, emb, 1), n + 1)
    return mat_val(pt.ring, composite) >= 1


def _in_stratum(pt: DieudonnePoint, tau: ArchPlace) -> bool:
    """Whether ``tau`` is a free place of the point's prime and the partial
    Hasse invariant vanishes at its canonical lift."""
    return tau in pt.datum.free_places() and hasse_vanishes(
        pt, canonical_lift(pt.datum.places, tau)
    )


def stratum_of_point(pt: DieudonnePoint) -> frozenset[ArchPlace]:
    return frozenset(tau for tau in pt.datum.free_places() if _in_stratum(pt, tau))


# --- the isogeny chain, forward ----------------------------------------------


@dataclass(frozen=True)
class IsogenyTriple:
    """The lattice families a, b, c and the j- and h-lines: FrozenMaps from
    embedding to lattice, in sorted order; the target point; and the stratum
    descriptor, lift choice and delta sets they come from."""

    a: FrozenMap
    b: FrozenMap
    c: FrozenMap
    j_lines: FrozenMap
    h_lines: FrozenMap
    b_point: DieudonnePoint
    delta: DeltaSets
    descriptor: StratumDescriptor
    lift: LiftChoice


def _frame_point(
    pt: DieudonnePoint, frames: Mapping[EmbE, Lattice2], f_mats, datum: ShimuraDatum, expected
) -> DieudonnePoint:
    """The point on ``datum`` whose module at each embedding is the lattice
    ``frames[emb]`` of the isocrystal of ``pt``, in its Hermite frame; its
    packed F-matrices ``f_mats`` are the ones ``_framed_f_mats`` returned
    there.  Each pairing is framed packed, by the frame helpers of ``witt``
    and ``packed_shift``, in the order the scalings are reduced: each
    helper's result mod p^N before any exact division.

    Through the identity frame, the transport of T = empty, this is ``pt``
    itself.  When every frame is the standard lattice, shift included, the
    pairings built below are ``pt.pairings``: sigma^0, scaling by 1 and a
    shift by p^0 return their operand's ints.  If also ``f_mats``,
    ``expected`` and ``datum`` equal the point's own, ``make_point`` would
    read exactly the inputs it accepted when it built ``pt``, and it is a
    pure function of them."""
    ring, system = pt.ring, pt.datum.places
    std = standard_lattice(ring)
    if (
        all(frames[emb] == std for emb in pt.embeddings())
        and f_mats == pt.f_mats
        and expected == pt.signature
        and datum == pt.datum
    ):
        return pt
    pairings = {}
    for emb in pt.embeddings():
        frame, conj = frames[emb], frames[conjugate(system, emb)]
        out = basis_transpose_times(frame, mat_times_sigma_basis(ring, pt.pairings[emb], conj, 0))
        pairings[emb] = packed_shift(ring, out, frame.shift + conj.shift)
    return make_point(ring, datum, f_mats, pairings, expected)


def _framed_f_mats(pt: DieudonnePoint, families, framed: dict) -> dict[EmbE, Packed2]:
    """Check that each ``(label, lattices)`` family, in order, is F- and
    V-stable, and return the F-matrices of the last one in its Hermite
    frames, packed for ``make_point``.

    At ``emb``, from the lattice behind p^s' B' to p^s B, F is M = p^k P with
    P = p^d B^-1 F sigma(B'), d = a + b and k = s' - s - d.  F-stable means M
    integral and V-stable p M^-1 integral: P's elementary divisors v1 <= v2
    have v1 + k >= 0 and v2 + k <= 1.  v1 + v2 = d + val det F + a' + b' is
    exact, v1 only below N: a v1 capped at N decides the triple only when
    N + k >= 2, as not V-stable.  val det F is read off the point, not
    recomputed: ``make_point`` sets the signature behind ``emb`` to the number
    of zero divisors of F there, which it bounds by (0, 1), so val det F is
    2 minus that signature.
    Where both lattices are the standard one, M is F itself and its
    divisors lie in (0, 1), so the triple is stable and F is taken as it is,
    packed, with no framing.  Elsewhere F is framed packed, by the frame
    helpers of ``witt``: v1 is the packed ``mat_val`` of P, and M is
    ``packed_shift`` of P, exact for negative k once v1 + k >= 0.
    ``framed`` maps each embedding to the lattice, the lattice behind and the
    framed F of the last triple that passed there, so a caller that checks
    several families with one dict frames a triple once where a later family
    keeps both lattices, with no lattice hashed; a failure keeps the label of
    the first family."""
    ring, system = pt.ring, pt.datum.places
    std = standard_lattice(ring)
    for label, lattices in families:
        f_mats = {}
        for emb, lattice in lattices.items():
            behind = frobenius_shift(system, emb, -1)
            prev = lattices[behind]
            pair, entry = (lattice, prev), framed.get(emb)
            if entry is not None and entry[0] == pair:
                mat = entry[1]
            elif lattice == prev == std:
                mat = pt.f_mats[emb]
            else:
                d, product = frame_times(lattice, mat_times_sigma_basis(ring, pt.f_mats[emb], prev, 1))
                k = prev.shift - lattice.shift - d
                v1 = mat_val(ring, product)
                v2 = d + 2 - pt.signature[behind] + prev.a + prev.b - v1
                if v1 >= ring.N and v1 + k <= 1:
                    raise PrecisionError(
                        f"precision N = {ring.N} cannot decide whether {label} is stable at {emb}"
                    )
                if v1 + k < 0:
                    raise DieudonneError(f"{label} is not F-stable at {emb}")
                if v2 + k > 1:
                    raise DieudonneError(f"{label} is not V-stable at {emb}")
                mat = packed_shift(ring, product, k)
            framed[emb] = pair, mat
            f_mats[emb] = mat
    return f_mats


def _check_colengths(outer, inner, ones, what: str) -> None:
    """Check that each lattice of the family ``inner`` has colength 1 in the
    one of ``outer`` at the embeddings in ``ones``, in embedding order.  Off
    ``ones`` both families hold the same lattice by construction, colength
    0: each family is a copy of the one before it, changed only on the
    embeddings of its delta set, so only those are checked."""
    for emb in sorted(ones):
        if lattice_colength(outer[emb], inner[emb]) != 1:
            raise DieudonneError(f"wrong {what} colength at {emb}")


def build_isogeny_triple(pt: DieudonnePoint, t: frozenset[ArchPlace]) -> IsogenyTriple:
    """Produce the lattice chain a Q c ⊇ b attached to a stratum membership.

    The descriptor of T and the lift choice that keeps the point's signature
    zeros as the lifts of S_infty are computed here and kept on the triple.
    The c-lattices are p^-1 times the essential Frobenius walk from a along
    each run of the plus delta set; the b-lattices are the walk from c along
    each run of the minus set.  The j-lines record the fiber coordinates at
    the marked bundle directions, and the h-lines the Iwahori data in the
    full-cycle even case.
    """
    t = frozenset(t)
    ring, system, datum = pt.ring, pt.datum.places, pt.datum
    missing = frozenset(tau for tau in t if not _in_stratum(pt, tau))
    if missing:
        raise DieudonneError(f"T is not inside the stratum of the point: {sorted(missing)}")
    descriptor = stratum_descriptor(datum, t)
    zeros = frozenset(emb for emb, value in pt.signature.items() if value == 0)
    lift = lift_assignment(datum, descriptor, s_lift=zeros)
    delta = delta_sets(datum, descriptor, lift)

    a_lat = dict.fromkeys(pt.embeddings(), standard_lattice(ring))
    c_lat = dict(a_lat)
    c_lat.update((emb, lattice_scale(image, -1)) for emb, image in _walk(pt, delta.plus, a_lat))
    b_lat = dict(c_lat)
    b_lat.update(_walk(pt, delta.minus, c_lat))

    b_f_mats = _framed_f_mats(
        pt, [("the c-lattice family", c_lat), ("the b-lattice family", b_lat)], {}
    )
    _check_colengths(c_lat, a_lat, delta.plus, "a-in-c")
    _check_colengths(c_lat, b_lat, delta.minus, "b-in-c")

    target_datum = ShimuraDatum(system, descriptor.s_of_t, descriptor.level_t)
    expected = dimension_count_check(datum, pt.signature, delta)
    b_point = _frame_point(pt, b_lat, b_f_mats, target_datum, expected)

    j_lines = {
        emb: lattice_in_frame(ring, b_lat[emb], omega_lattice(pt, emb))
        for emb in lift.i_tilde_t
    }
    h_lines: dict[EmbE, Lattice2] = {}
    if descriptor.case_at(_one_prime(datum)[0].id) is CaseTag.A2:
        for emb in delta.minus:
            h_lines[emb] = lattice_in_frame(ring, b_lat[emb], lattice_scale(c_lat[emb], 1))

    return IsogenyTriple(
        a=FrozenMap(a_lat),
        b=FrozenMap(b_lat),
        c=FrozenMap(c_lat),
        j_lines=FrozenMap(sorted(j_lines.items())),
        h_lines=FrozenMap(sorted(h_lines.items())),
        b_point=b_point,
        delta=delta,
        descriptor=descriptor,
        lift=lift,
    )


# --- reconstruction -----------------------------------------------------------


def reconstruct_lattices(
    b_point: DieudonnePoint,
    j_lines: Mapping[EmbE, Lattice2],
    h_lines: Mapping[EmbE, Lattice2],
    descriptor: StratumDescriptor,
    lift: LiftChoice,
    delta: DeltaSets,
) -> tuple[dict[EmbE, Lattice2], dict[EmbE, Lattice2], dict[EmbE, Packed2]]:
    """Rebuild the c- and a-lattice families in the b-frame, for the delta
    sets of the descriptor and lift, which a forward triple carries.

    Returns ``(m, l, f_mats)``: ``m`` the overlattices recovering c, ``l`` the
    sublattices recovering a, every one in Hermite form, and ``f_mats`` the
    rebuilt a-family's framed F-matrices, packed, which become the source
    point's F.
    """
    ring, system = b_point.ring, b_point.datum.places
    pid = _one_prime(b_point.datum)[0].id
    std = standard_lattice(ring)

    base = dict.fromkeys(b_point.embeddings(), std)
    m_lat = dict(base)
    case = descriptor.case_at(pid)
    if case in (CaseTag.A1, CaseTag.B1):
        chains = {chain.top: chain for chain in descriptor.chains[pid]}
        for base_tilde, a_list in lift.recipes[pid]:
            chain = chains[restrict(system, base_tilde)]
            anchor = frobenius_shift(system, base_tilde, -(chain.m + 1))
            start = std
            if a_list[-1] == chain.m + 1:
                if anchor not in j_lines:
                    raise DieudonneError(f"missing j-line at {anchor}")
                start = j_lines[anchor]
            # one walk from the anchor to the lowest offset, kept on the minus set
            offsets = range(a_list[0], chain.m + 1)
            run = frozenset(frobenius_shift(system, base_tilde, -a) for a in offsets)
            for emb, image in _walk(b_point, run, {anchor: start}):
                if emb in delta.minus:
                    m_lat[emb] = lattice_scale(image, -1)
    elif case is CaseTag.A2:
        for emb in delta.minus:
            if emb not in h_lines:
                raise DieudonneError(f"missing Iwahori line at {emb}")
            m_lat[emb] = lattice_scale(h_lines[emb], -1)
    elif case is CaseTag.B2:
        for emb in delta.minus:
            m_lat[emb] = lattice_dual(std, b_point.pairings[emb])
    framed: dict = {}
    _framed_f_mats(b_point, [("the rebuilt c-family", m_lat)], framed)
    _check_colengths(m_lat, base, delta.minus, "rebuilt")

    l_lat: dict[EmbE, Lattice2] = {}
    for emb in b_point.embeddings():
        if emb in delta.plus:
            l_lat[emb] = lattice_dual(m_lat[conjugate(system, emb)], b_point.pairings[emb])
        else:
            l_lat[emb] = m_lat[emb]
    f_mats = _framed_f_mats(b_point, [("the rebuilt a-family", l_lat)], framed)
    _check_colengths(m_lat, l_lat, delta.plus, "a-in-c")
    return m_lat, l_lat, f_mats


def _point_from_lattices(
    b_point: DieudonnePoint, l_lat, f_mats, lift: LiftChoice, datum: ShimuraDatum
) -> DieudonnePoint:
    """The point on the source ``datum`` whose module is the rebuilt a-family, with
    F its framed ``f_mats``; signature 0 at the lifted places of T over S_infty."""
    system, s_infty = datum.places, datum.s.s_infty
    zeros = frozenset(emb for emb in lift.s_tilde_of_t if restrict(system, emb) in s_infty)
    expected = signature_from_lift(datum, zeros)
    return _frame_point(b_point, l_lat, f_mats, datum, expected)


def reconstruct_point(
    b_point: DieudonnePoint,
    j_lines: Mapping[EmbE, Lattice2],
    h_lines: Mapping[EmbE, Lattice2],
    descriptor: StratumDescriptor,
    lift: LiftChoice,
    source_datum: ShimuraDatum,
) -> DieudonnePoint:
    """Rebuild a point on the source datum from the target point and its lines.

    The rebuilt point must lie in the stratum of T: stability and colengths
    do not pin down the Iwahori lines of an A2 target, and lines that no
    point of the stratum has rebuild a valid point outside it.  So each place
    of T is checked, and the first one missing raises."""
    delta = delta_sets(source_datum, descriptor, lift)
    _, l_lat, f_mats = reconstruct_lattices(b_point, j_lines, h_lines, descriptor, lift, delta)
    point = _point_from_lattices(b_point, l_lat, f_mats, lift, source_datum)
    for tau in sorted(descriptor.t):
        if not _in_stratum(point, tau):
            raise DieudonneError(f"the rebuilt point is outside the stratum of T: {tau} is missing")
    return point


def verify_roundtrip(pt: DieudonnePoint, t: frozenset[ArchPlace]) -> DieudonnePoint:
    """Drive a point through the isogeny chain and back; raise on any mismatch.

    Builds the forward triple, reconstructs the lattice families once from
    the target point plus the recorded lines, and checks componentwise
    lattice equality against the forward families (in the target frame).
    Returns the source point rebuilt from those same families, the point
    ``reconstruct_point`` gives for the triple.

    For T = empty every family is the standard lattice and the target
    datum is the source datum, so both transports go through the identity
    frame and return ``pt`` itself.
    """
    ring, datum = pt.ring, pt.datum
    triple = build_isogeny_triple(pt, t)
    m_lat, l_lat, f_mats = reconstruct_lattices(
        triple.b_point, triple.j_lines, triple.h_lines, triple.descriptor, triple.lift, triple.delta
    )
    for emb in pt.embeddings():
        frame = triple.b[emb]
        if m_lat[emb] != lattice_in_frame(ring, frame, triple.c[emb]):
            raise DieudonneError(f"c-lattice mismatch at {emb}")
        if l_lat[emb] != lattice_in_frame(ring, frame, triple.a[emb]):
            raise DieudonneError(f"a-lattice mismatch at {emb}")
    back = _point_from_lattices(triple.b_point, l_lat, f_mats, triple.lift, datum)
    if back.signature != pt.signature:
        raise DieudonneError("reconstructed signature differs from the original")
    return back


# --- the twisted partial Frobenius -------------------------------------------


def twisted_partial_frobenius(pt: DieudonnePoint) -> DieudonnePoint:
    """The point obtained by shifting every component two Frobenius steps."""
    ring, system, datum = pt.ring, pt.datum.places, pt.datum
    shifted_s = frozenset(
        frobenius_shift(system, tau, 2) for tau in datum.s.s_infty
    )
    new_datum = ShimuraDatum(
        system,
        type(datum.s)(shifted_s, datum.s.s_p, datum.s.n_other),
        datum.level_p,
    )
    f_mats = {}
    pairings = {}
    signature = {}
    for emb in pt.embeddings():
        back = frobenius_shift(system, emb, -2)
        f_mats[emb] = packed_sigma(ring, pt.f_mats[back], 2)
        pairings[emb] = packed_sigma(ring, pt.pairings[back], 2)
        signature[emb] = pt.signature[back]
    return make_point(ring, new_datum, f_mats, pairings, signature)


# --- random points ------------------------------------------------------------


def _random_unimodular(rng, ring: WittRing) -> Packed2:
    """A packed matrix of random coefficients, drawn entry by entry in
    row-major order until its determinant is a unit."""
    while True:
        mat = mat_pack(ring, [[[rng.randrange(ring.pn) for _ in range(ring.m)] for _ in range(2)]
                              for _ in range(2)])
        if ring.val(packed_det(ring, mat)) == 0:
            return mat


def half_system(datum: ShimuraDatum) -> tuple[EmbE, ...]:
    """One embedding out of each conjugate pair, on the low sheet."""
    slot, _ = _one_prime(datum)
    return tuple(EmbE(slot.id, 0, i) for i in range(slot.f))


def point_from_half_system(
    ring: WittRing,
    datum: ShimuraDatum,
    f_mats_half: Mapping[EmbE, Mat2],
    pairings_half: Mapping[EmbE, Mat2],
    expected_signature,
) -> DieudonnePoint:
    """Complete half-system data to a full point via the pairing compatibility.

    The conjugate pairings are forced by antisymmetry, and the conjugate
    F-matrices by the duality <F x, y> = sigma(<x, V y>): F_c is
    P^-1 (p F^-1)^T sigma(P_prev).  With det P = w and det F = p^d u, both
    inverses come from adjugates, P^-1 = adj(P) / w and
    p F^-1 = p^(1-d) adj(F) / u, and 1/w = u z, 1/u = w z from the one
    inverse z = 1/(u w).  The half-system matrices are packed once
    (``mat_pack``), and everything after stays packed.
    """
    half = half_system(datum)
    if set(f_mats_half) != set(half) or set(pairings_half) != set(half):
        raise DieudonneError("half-system data must cover one lift per place")
    f_mats, pairings = ({emb: mat_pack(ring, mats[emb]) for emb in half}
                        for mats in (f_mats_half, pairings_half))
    return _point_from_packed_half(ring, datum, f_mats, pairings, expected_signature)


def _point_from_packed_half(ring: WittRing, datum: ShimuraDatum, f_mats: dict, pairings: dict,
                            expected_signature) -> DieudonnePoint:
    """``point_from_half_system`` on packed half-system matrices, which it
    completes in place: the body that ``random_point`` shares."""
    system, half = datum.places, half_system(datum)
    units, neg = {}, ring.from_int(-1)
    for emb in half:
        f_det = packed_det(ring, f_mats[emb])
        d = sum(_f_divisors(ring, f_mats[emb], f_det, emb))
        w = packed_det(ring, pairings[emb])
        if ring.val(w) != 0:
            raise DieudonneError(f"half-system pairing at {emb} must be perfect")
        units[emb] = d, ring.div_p(f_det, d), w
        pairings[conjugate(system, emb)] = packed_scale(ring, neg, packed_transpose(pairings[emb]))
    for emb in half:
        cemb = conjugate(system, emb)
        prev = frobenius_shift(system, emb, -1)
        d, u, w = units[emb]
        z = ring.inv(ring.mul(u, w))
        inv_pairing = packed_scale(ring, ring.mul(u, z), packed_adjugate(ring, pairings[emb]))
        p_f_inv = packed_scale(ring, ring.mul(w, z), packed_adjugate(ring, f_mats[emb]))
        p_f_inv_t = packed_transpose(packed_shift(ring, p_f_inv, 1 - d))
        twisted_prev = packed_sigma(ring, pairings[prev], 1)
        f_mats[cemb] = packed_mul(ring, inv_pairing, packed_mul(ring, p_f_inv_t, twisted_prev))
    return make_point(ring, datum, f_mats, pairings, expected_signature)


def random_point(
    rng, ring: WittRing, datum: ShimuraDatum, signature=None
) -> DieudonnePoint:
    """A random valid point with the requested signature profile.

    F-matrices are drawn on one half-system as unimodular scrambles of the
    templates [[0,1],[p,0]] and diag(1,p) (signature 1), p times a unit
    (signature 0 behind) or a unit (signature 2 behind); the conjugate half is
    derived from the pairing compatibility, as are the conjugate pairings.
    Each draw is packed once, and each F is formed by ``packed_mul``.
    """
    system = datum.places
    half = half_system(datum)
    if signature is None:
        zeros = frozenset(canonical_lift(system, tau) for tau in datum.s.s_infty)
        signature = signature_from_lift(datum, zeros)

    pairings = {emb: _random_unimodular(rng, ring) for emb in half}
    f_mats: dict[EmbE, Packed2] = {}
    p = ring.p
    for emb in half:
        behind = signature[frobenius_shift(system, emb, -1)]
        if behind == 1:
            core = ((0, 1), (p, 0)) if rng.randrange(2) else ((1, 0), (0, p))
        elif behind == 0:
            core = ((p, 0), (0, p))
        else:
            core = ((1, 0), (0, 1))
        mat = packed_mul(ring, _random_unimodular(rng, ring), mat_pack(ring, mat2(ring, core)))
        f_mats[emb] = packed_mul(ring, mat, _random_unimodular(rng, ring))
    return _point_from_packed_half(ring, datum, f_mats, pairings, signature)


def ring_for_datum(datum: ShimuraDatum, p: int, N: int = 8) -> WittRing:
    """The Witt ring matching a one-prime datum's cycle length."""
    return witt_ring(p, _one_prime(datum)[1], N)


# --- serialization ------------------------------------------------------------


def _emb_key(emb: EmbE) -> str:
    return f"{emb.sheet}:{emb.i}"


def _mat_to_json(ring: WittRing, mat: Packed2) -> list:
    return [[["%x" % c for c in e] for e in row] for row in mat_unpack(ring, mat)]


def _mat_from_json(ring: WittRing, where: str, data) -> Packed2:
    """A 2x2 matrix of m-coefficient elements, packed: ``mat_pack`` reduces it."""
    if len(data) != 2 or any(len(row) != 2 for row in data):
        raise DieudonneError(f"{where} is not a 2x2 matrix")
    if any(len(e) != ring.m for row in data for e in row):
        raise DieudonneError(f"{where} has an entry without exactly m = {ring.m} coefficients")
    return mat_pack(ring, tuple(tuple(tuple(int(c, 16) for c in e) for e in row) for row in data))


def point_to_json(pt: DieudonnePoint) -> dict:
    return {
        "ring": ring_to_json(pt.ring),
        "datum": datum_to_json(pt.datum),
        "f_mats": {_emb_key(emb): _mat_to_json(pt.ring, mat) for emb, mat in pt.f_mats.items()},
        "pairings": {_emb_key(emb): _mat_to_json(pt.ring, mat) for emb, mat in pt.pairings.items()},
        "signature": {_emb_key(emb): value for emb, value in pt.signature.items()},
    }


def point_from_json(data: Mapping) -> DieudonnePoint:
    """The point of a ``point_to_json`` record, through ``make_point``.  A field
    that is missing, holds a coefficient that is not hex or has the wrong type
    raises a one-line ``DieudonneError`` naming the record and the field."""

    def field(name: str, parse):
        if name not in data:
            raise DieudonneError(f"point record lacks the field {name!r}")
        try:
            return parse(data[name])
        except GostrataError:
            raise
        except KeyError as exc:
            raise DieudonneError(f"point record field {name!r} lacks the key {exc}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise DieudonneError(f"point record field {name!r} is malformed: {exc}") from None

    ring = field("ring", ring_from_json)
    datum = field("datum", datum_from_json)
    pid = _one_prime(datum)[0].id

    def parse_key(key: str) -> EmbE:
        sheet, i = key.split(":")
        return EmbE(pid, int(sheet), int(i))

    f_mats, pairings = (
        field(name, lambda mats: {parse_key(k): _mat_from_json(ring, f"{name} {k}", v)
                                  for k, v in mats.items()})
        for name in ("f_mats", "pairings")
    )
    signature = field("signature", lambda values: {parse_key(k): int(v) for k, v in values.items()})
    return make_point(ring, datum, f_mats, pairings, signature)
