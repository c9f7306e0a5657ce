"""Point-level simulator for the stratification: semilinear F/V data on rank-2
components, the essential Frobenius calculus, partial Hasse invariants, and the
lattice constructions that pass a point across an isogeny chain and back.

A point carries, for each embedding upstairs, a 2x2 matrix over a truncated
Witt ring describing F on that component (x maps to f_mat times sigma(x)); V
is derived from FV = p.  Pairings couple conjugate components.  All lattice
manipulations happen inside a single shared isocrystal, so the roundtrip
construction can be verified by componentwise lattice equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .places import (
    ArchPlace,
    EmbE,
    PrimeType,
    ShimuraDatum,
    canonical_lift,
    classify_prime,
    conjugate,
    frobenius_shift,
    n_tau,
    restrict,
)
from .strata import (
    CaseTag,
    DeltaSets,
    LiftChoice,
    SignatureProfile,
    StratumDescriptor,
    chain_decompose,
    delta_sets,
    dimension_count_check,
    signature_from_lift,
    stratum_descriptor,
)
from .witt import (
    NOT_SPLIT,
    RESERVE,
    Lattice2,
    Mat2,
    WittRing,
    elementary_divisors,
    frame_inverse,
    lattice_colength,
    lattice_contains,
    lattice_dual,
    lattice_equal,
    lattice_normalize,
    lattice_scale,
    lattice_sum,
    mat_det,
    mat_mul,
    mat_sigma,
    mat_smul,
    mat_transpose,
    scaled_inverse,
    standard_lattice,
    witt_ring,
)


class DieudonneError(ValueError):
    """Raised when matrices or lattices violate the point axioms."""


class PrecisionError(DieudonneError):
    """Raised when the precision budget cannot decide a point axiom."""


def _f_divisors(ring: WittRing, mat: Mat2, emb: EmbE) -> tuple[int, int]:
    """Elementary divisors of an F-matrix, which FV = p bounds by (0, 1)."""
    divisors = elementary_divisors(ring, mat)
    if divisors is NOT_SPLIT:
        raise PrecisionError(f"precision budget N - RESERVE = {ring.N} - {RESERVE} = "
                             f"{ring.budget} cannot split the divisors of F at {emb}")
    if divisors[1] > 1:
        raise DieudonneError(f"F V = p fails at {emb}: bad divisors {divisors}")
    return divisors


# --- small matrix helpers -----------------------------------------------------


def _mat_shift(ring: WittRing, mat: Mat2, k: int) -> Mat2:
    """Multiply by p^k; for negative k the division must be exact."""
    if k >= 0:
        return mat_smul(ring, ring.p**k, mat)
    return tuple(tuple(ring.div_p(e, -k) for e in row) for row in mat)


def _p_times_inverse(ring: WittRing, mat: Mat2) -> Mat2:
    """The matrix p * mat^{-1}, integral whenever both elementary divisors <= 1."""
    d, inv = scaled_inverse(ring, mat)
    return _mat_shift(ring, inv, 1 - d)


def _close(ring: WittRing, a: Mat2, b: Mat2) -> bool:
    """Equality up to the trusted precision budget."""
    return all(
        ring.val(ring.sub(x, y)) >= ring.budget
        for ra, rb in zip(a, b)
        for x, y in zip(ra, rb)
    )


def _map_lattice(ring: WittRing, mat: Mat2, l: Lattice2, sigma_k: int, shift: int = 0) -> Lattice2:
    """Image of a lattice under the semilinear map x -> p^shift mat sigma^k(x)."""
    basis = mat_mul(ring, mat, mat_sigma(ring, l.basis, sigma_k % ring.m))
    return lattice_normalize(Lattice2(ring, l.shift + shift, basis))


# --- the point ----------------------------------------------------------------


def _lookup(table, emb: EmbE, what: str):
    """The entry at ``emb`` of a sorted (embedding, value) table."""
    for key, value in table:
        if key == emb:
            return value
    raise DieudonneError(f"no {what} at {emb}")


@dataclass(frozen=True)
class DieudonnePoint:
    ring: WittRing
    datum: ShimuraDatum
    prime_id: str
    f_mats: tuple[tuple[EmbE, Mat2], ...]
    v_mats: tuple[tuple[EmbE, Mat2], ...]
    pairings: tuple[tuple[EmbE, Mat2], ...]
    signature: SignatureProfile

    def embeddings(self) -> tuple[EmbE, ...]:
        return self.datum.places.embeddings(self.prime_id)

    def f_mat(self, emb: EmbE) -> Mat2:
        return _lookup(self.f_mats, emb, "F-matrix")

    def v_mat(self, emb: EmbE) -> Mat2:
        return _lookup(self.v_mats, emb, "V-matrix")

    def pairing(self, emb: EmbE) -> Mat2:
        return _lookup(self.pairings, emb, "pairing")


def _as_signature(datum: ShimuraDatum, prime_id: str, s) -> SignatureProfile:
    if isinstance(s, SignatureProfile):
        return s
    return SignatureProfile(
        tuple((emb, int(s[emb])) for emb in datum.places.embeddings(prime_id))
    )


def make_point(
    ring: WittRing,
    datum: ShimuraDatum,
    f_mats: Mapping[EmbE, Mat2],
    pairings: Mapping[EmbE, Mat2],
    expected_signature,
) -> DieudonnePoint:
    """Assemble and validate a point from its F-matrices and pairings."""
    if len(datum.places.primes) != 1:
        raise DieudonneError("the simulator works one prime at a time")
    slot = datum.places.primes[0]
    pid = slot.id
    prime_type = classify_prime(datum, pid)
    cycle = slot.f if slot.e_split else 2 * slot.f
    if ring.m % cycle != 0:
        raise DieudonneError(
            f"ring degree {ring.m} incompatible with cycle length {cycle}"
        )
    system = datum.places
    embs = system.embeddings(pid)
    expected = _as_signature(datum, pid, expected_signature)
    if set(f_mats) != set(embs) or set(pairings) != set(embs):
        raise DieudonneError("matrices must be indexed by the full embedding cycle")

    divisors = {emb: _f_divisors(ring, f_mats[emb], emb) for emb in embs}
    v_mats = {
        emb: mat_sigma(ring, _p_times_inverse(ring, f_mats[emb]), ring.m - 1) for emb in embs
    }
    signature = {emb: divisors[frobenius_shift(system, emb, 1)].count(0) for emb in embs}

    pairing_val = 1 if prime_type is PrimeType.BETA_SHARP else 0
    for emb in embs:
        if ring.val(mat_det(ring, pairings[emb])) != pairing_val:
            raise DieudonneError(f"pairing at {emb} has the wrong determinant valuation")
        anti = mat_smul(ring, -1, mat_transpose(pairings[emb]))
        if not _close(ring, pairings[conjugate(system, emb)], anti):
            raise DieudonneError(f"pairing at {emb} is not conjugate-antisymmetric")

    for emb in embs:
        cemb = conjugate(system, emb)
        if signature[emb] != expected.at(emb):
            raise DieudonneError(
                f"signature mismatch at {emb}: computed {signature[emb]}, "
                f"declared {expected.at(emb)}"
            )
        if signature[emb] + signature[cemb] != 2:
            raise DieudonneError(f"signatures at {emb} and its conjugate do not sum to 2")
        # <F x, y> = sigma(<x, V y>)
        lhs = mat_mul(ring, mat_transpose(f_mats[emb]), pairings[emb])
        prev = frobenius_shift(system, emb, -1)
        rhs = mat_sigma(
            ring, mat_mul(ring, pairings[prev], v_mats[conjugate(system, emb)]), 1
        )
        if not _close(ring, lhs, rhs):
            raise DieudonneError(f"pairing is incompatible with F and V at {emb}")

    return DieudonnePoint(
        ring=ring,
        datum=datum,
        prime_id=pid,
        f_mats=tuple(sorted(f_mats.items())),
        v_mats=tuple(sorted(v_mats.items())),
        pairings=tuple(sorted(pairings.items())),
        signature=SignatureProfile(tuple(sorted(signature.items()))),
    )


# --- essential Frobenius calculus --------------------------------------------


def essential_frobenius_matrix(pt: DieudonnePoint, emb: EmbE, n: int) -> tuple[Mat2, int]:
    """The composite F_es^n into ``emb`` as (matrix, p-shift); semilinear sigma^n.

    Each step into a component uses F when the signature behind it is 1 or 2,
    and V^{-1} (an extra p^{-1}) when it is 0.
    """
    if n < 1:
        raise DieudonneError("n must be at least 1")
    ring, system = pt.ring, pt.datum.places
    mat = None
    shift = 0
    for k in range(n - 1, -1, -1):
        mu = frobenius_shift(system, emb, -k)
        prev = frobenius_shift(system, mu, -1)
        step = pt.f_mat(mu)
        mat = step if mat is None else mat_mul(ring, step, mat_sigma(ring, mat, 1))
        if pt.signature.at(prev) == 0:
            shift -= 1
    return mat, shift


def essential_verschiebung_matrix(pt: DieudonnePoint, emb: EmbE, n: int) -> tuple[Mat2, int]:
    """The composite V_es^n out of ``emb`` as (matrix, p-shift); semilinear sigma^{-n}.

    Each step out of a component uses V when the signature behind it is 0 or 1,
    and F^{-1} (an extra p^{-1}) when it is 2.
    """
    if n < 1:
        raise DieudonneError("n must be at least 1")
    ring, system = pt.ring, pt.datum.places
    mat = None
    shift = 0
    for k in range(n):
        mu = frobenius_shift(system, emb, -k)
        prev = frobenius_shift(system, mu, -1)
        step = pt.v_mat(mu)
        mat = step if mat is None else mat_mul(ring, step, mat_sigma(ring, mat, ring.m - 1))
        if pt.signature.at(prev) == 2:
            shift -= 1
    return mat, shift


def essential_frobenius_image(
    pt: DieudonnePoint, emb: EmbE, n: int, start: Lattice2 | None = None
) -> Lattice2:
    """Image of F_es^n applied to a lattice at the component sigma^{-n}(emb)."""
    ring, system = pt.ring, pt.datum.places
    lattice = standard_lattice(ring) if start is None else start
    for k in range(n - 1, -1, -1):
        mu = frobenius_shift(system, emb, -k)
        prev = frobenius_shift(system, mu, -1)
        extra = -1 if pt.signature.at(prev) == 0 else 0
        lattice = _map_lattice(ring, pt.f_mat(mu), lattice, 1, extra)
    return lattice


def omega_lattice(pt: DieudonnePoint, emb: EmbE) -> Lattice2:
    """The lattice V(D at sigma emb) + p D at ``emb``."""
    ring, system = pt.ring, pt.datum.places
    v_image = Lattice2(ring, 0, pt.v_mat(frobenius_shift(system, emb, 1)))
    return lattice_sum(v_image, lattice_scale(standard_lattice(ring), 1))


def hasse_vanishes(pt: DieudonnePoint, emb: EmbE) -> bool:
    """Whether the partial Hasse invariant vanishes in the ``emb`` direction."""
    tau = restrict(pt.datum.places, emb)
    n = n_tau(pt.datum, tau)[0]
    image = essential_frobenius_image(pt, emb, n)
    with_p = lattice_sum(image, lattice_scale(standard_lattice(pt.ring), 1))
    return lattice_equal(with_p, omega_lattice(pt, emb))


def _in_stratum(pt: DieudonnePoint, tau: ArchPlace) -> bool:
    """Whether a place ``tau`` of the point's prime is free and the partial
    Hasse invariant vanishes at its canonical lift."""
    return tau not in pt.datum.s.s_infty and hasse_vanishes(
        pt, canonical_lift(pt.datum.places, tau)
    )


def stratum_of_point(pt: DieudonnePoint) -> frozenset[ArchPlace]:
    return frozenset(
        tau for tau in pt.datum.places.arch_places(pt.prime_id) if _in_stratum(pt, tau)
    )


# --- the isogeny chain, forward ----------------------------------------------


@dataclass(frozen=True)
class IsogenyTriple:
    a: tuple[tuple[EmbE, Lattice2], ...]
    b: tuple[tuple[EmbE, Lattice2], ...]
    c: tuple[tuple[EmbE, Lattice2], ...]
    j_lines: tuple[tuple[EmbE, Lattice2], ...]
    h_lines: tuple[tuple[EmbE, Lattice2], ...]
    b_point: DieudonnePoint
    delta: DeltaSets

    def a_at(self, emb: EmbE) -> Lattice2:
        return _lookup(self.a, emb, "lattice")

    def b_at(self, emb: EmbE) -> Lattice2:
        return _lookup(self.b, emb, "lattice")

    def c_at(self, emb: EmbE) -> Lattice2:
        return _lookup(self.c, emb, "lattice")


def _run_length(system, members: frozenset[EmbE], emb: EmbE) -> int:
    """Consecutive membership run length at ``emb`` walking backwards."""
    n = 0
    cur = emb
    while cur in members:
        n += 1
        cur = frobenius_shift(system, cur, -1)
        if n > 2 * len(members) + 1:
            raise DieudonneError("delta set wraps the whole cycle")
    return n


def lattice_in_frame(ring: WittRing, frame: Lattice2, lattice: Lattice2) -> Lattice2:
    """Rewrite a lattice in the coordinates in which ``frame`` is standard."""
    d, inv = frame_inverse(frame)
    basis = mat_mul(ring, inv, lattice.basis)
    return lattice_normalize(Lattice2(ring, lattice.shift - frame.shift - d, basis))


def _frame_map(ring: WittRing, frame_to: Lattice2, mat: Mat2, frame_from: Lattice2) -> Mat2:
    """The matrix of x -> mat sigma(x) rewritten between lattice frames."""
    d, inv = frame_inverse(frame_to)
    out = mat_mul(ring, inv, mat_mul(ring, mat, mat_sigma(ring, frame_from.basis, 1)))
    return _mat_shift(ring, out, frame_from.shift - frame_to.shift - d)


def _frame_pairing(
    ring: WittRing, frame: Lattice2, pairing: Mat2, frame_conj: Lattice2
) -> Mat2:
    out = mat_mul(ring, mat_transpose(frame.basis), mat_mul(ring, pairing, frame_conj.basis))
    return _mat_shift(ring, out, frame.shift + frame_conj.shift)


def _frame_point(
    pt: DieudonnePoint, frames: Mapping[EmbE, Lattice2], datum: ShimuraDatum, expected
) -> DieudonnePoint:
    """The point on ``datum`` whose module at each embedding is the lattice
    ``frames[emb]`` of the isocrystal of ``pt``, in its Hermite frame."""
    ring, system = pt.ring, pt.datum.places
    embs = pt.embeddings()
    f_mats = {
        emb: _frame_map(ring, frames[emb], pt.f_mat(emb), frames[frobenius_shift(system, emb, -1)])
        for emb in embs
    }
    pairings = {
        emb: _frame_pairing(ring, frames[emb], pt.pairing(emb), frames[conjugate(system, emb)])
        for emb in embs
    }
    return make_point(ring, datum, f_mats, pairings, expected)


def _lift_zeros(lift: LiftChoice, datum: ShimuraDatum) -> frozenset[EmbE]:
    """The lifted places of T that lie over S_infty: signature 0 there."""
    return frozenset(
        emb for emb in lift.s_tilde_of_t if restrict(datum.places, emb) in datum.s.s_infty
    )


def _check_stability(pt: DieudonnePoint, families, checked: set) -> None:
    """Check that each ``(label, lattices)`` family, in order, is F- and V-stable.

    Both checks at ``emb`` depend only on (emb, its lattice, the one at sigma^-1
    emb); a triple in ``checked`` passed before and is skipped, so a failure is
    still reported under the label of the first family that has it."""
    ring, system = pt.ring, pt.datum.places
    for label, lattices in families:
        for emb, lattice in lattices.items():
            prev = lattices[frobenius_shift(system, emb, -1)]
            key = (emb, lattice, prev)
            if key in checked:
                continue
            f_image = _map_lattice(ring, pt.f_mat(emb), prev, 1)
            if not lattice_contains(lattice, f_image):
                raise DieudonneError(f"{label} is not F-stable at {emb}")
            v_image = _map_lattice(ring, pt.v_mat(emb), lattice, -1)
            if not lattice_contains(prev, v_image):
                raise DieudonneError(f"{label} is not V-stable at {emb}")
            checked.add(key)


def build_isogeny_triple(
    pt: DieudonnePoint,
    t: frozenset[ArchPlace],
    descriptor: StratumDescriptor | None = None,
    lift: LiftChoice | None = None,
) -> IsogenyTriple:
    """Produce the lattice chain a Q c ⊇ b attached to a stratum membership.

    The c-lattices blow up along the plus delta set via the essential Frobenius
    image; the b-lattices shrink along the minus set.  The j-lines record the
    fiber coordinates at the marked bundle directions, and the h-lines the
    Iwahori data in the full-cycle even case.
    """
    from .strata import lift_assignment

    t = frozenset(t)
    ring, system, datum = pt.ring, pt.datum.places, pt.datum
    pid = pt.prime_id
    places = system.arch_places(pid)
    missing = frozenset(
        tau for tau in t if tau not in places or not _in_stratum(pt, tau)
    )
    if missing:
        raise DieudonneError(f"T is not inside the stratum of the point: {sorted(missing)}")
    if descriptor is None:
        descriptor = stratum_descriptor(datum, t)
    zeros = frozenset(emb for emb, value in pt.signature.s if value == 0)
    if lift is None:
        lift = lift_assignment(datum, descriptor, s_lift=zeros)
    if _lift_zeros(lift, datum) != zeros:
        raise DieudonneError("the lift choice does not match the point's signature zeros")
    delta = delta_sets(datum, descriptor, lift)

    std = standard_lattice(ring)
    a_lat = {emb: std for emb in pt.embeddings()}
    c_lat: dict[EmbE, Lattice2] = {}
    for emb in pt.embeddings():
        if emb in delta.plus:
            n = _run_length(system, delta.plus, emb)
            c_lat[emb] = lattice_scale(essential_frobenius_image(pt, emb, n), -1)
        else:
            c_lat[emb] = std
    b_lat: dict[EmbE, Lattice2] = {}
    for emb in pt.embeddings():
        if emb in delta.minus:
            n = _run_length(system, delta.minus, emb)
            start = c_lat[frobenius_shift(system, emb, -n)]
            b_lat[emb] = essential_frobenius_image(pt, emb, n, start=start)
        else:
            b_lat[emb] = c_lat[emb]

    _check_stability(
        pt, [("the c-lattice family", c_lat), ("the b-lattice family", b_lat)], set()
    )
    for emb in pt.embeddings():
        if lattice_colength(c_lat[emb], a_lat[emb]) != int(emb in delta.plus):
            raise DieudonneError(f"wrong a-in-c colength at {emb}")
        if lattice_colength(c_lat[emb], b_lat[emb]) != int(emb in delta.minus):
            raise DieudonneError(f"wrong b-in-c colength at {emb}")

    target_datum = ShimuraDatum(system, descriptor.s_of_t, descriptor.level_t)
    expected = dimension_count_check(datum, pt.signature, delta)
    b_point = _frame_point(pt, b_lat, target_datum, expected)

    j_lines = {
        emb: lattice_in_frame(ring, b_lat[emb], omega_lattice(pt, emb))
        for emb in lift.i_tilde_t
    }
    h_lines: dict[EmbE, Lattice2] = {}
    if descriptor.case_at(pid) is CaseTag.A2:
        for emb in delta.minus:
            h_lines[emb] = lattice_in_frame(ring, b_lat[emb], lattice_scale(c_lat[emb], 1))

    return IsogenyTriple(
        a=tuple(sorted(a_lat.items())),
        b=tuple(sorted(b_lat.items())),
        c=tuple(sorted(c_lat.items())),
        j_lines=tuple(sorted(j_lines.items())),
        h_lines=tuple(sorted(h_lines.items())),
        b_point=b_point,
        delta=delta,
    )


# --- reconstruction -----------------------------------------------------------


def reconstruct_lattices(
    b_point: DieudonnePoint,
    j_lines: Mapping[EmbE, Lattice2],
    t: frozenset[ArchPlace],
    lift: LiftChoice,
    source_datum: ShimuraDatum,
    descriptor: StratumDescriptor | None = None,
    h_lines: Mapping[EmbE, Lattice2] | None = None,
) -> tuple[dict[EmbE, Lattice2], dict[EmbE, Lattice2]]:
    """Rebuild the c- and a-lattice families in the b-frame.

    Returns ``(m, l)`` where ``m`` contains the overlattices recovering c and
    ``l`` the sublattices recovering a, every one in Hermite form.
    """
    t = frozenset(t)
    ring, system = b_point.ring, b_point.datum.places
    pid = b_point.prime_id
    if descriptor is None:
        descriptor = stratum_descriptor(source_datum, t)
    delta = delta_sets(source_datum, descriptor, lift)
    h_lines = dict(h_lines or {})
    std = standard_lattice(ring)

    m_lat = {emb: std for emb in b_point.embeddings()}
    recipe = lift.recipe_at(pid)
    case = descriptor.case_at(pid)
    if case in (CaseTag.A1, CaseTag.B1):
        chains = {chain.top: chain for chain in chain_decompose(source_datum, pid, t)}
        for base_tilde, a_list in recipe.entries:
            chain = chains[restrict(system, base_tilde)]
            anchor = frobenius_shift(system, base_tilde, -(chain.m + 1))
            if a_list[-1] == chain.m + 1:
                if anchor not in j_lines:
                    raise DieudonneError(f"missing j-line at {anchor}")
                start = j_lines[anchor]
            else:
                start = std
            for j in range(0, len(a_list) - 1, 2):
                for offset in range(a_list[j], a_list[j + 1]):
                    emb = frobenius_shift(system, base_tilde, -offset)
                    steps = chain.m + 1 - offset
                    image = essential_frobenius_image(b_point, emb, steps, start=start)
                    m_lat[emb] = lattice_scale(image, -1)
    elif case is CaseTag.A2:
        for emb in delta.minus:
            if emb not in h_lines:
                raise DieudonneError(f"missing Iwahori line at {emb}")
            m_lat[emb] = lattice_scale(lattice_normalize(h_lines[emb]), -1)
    elif case is CaseTag.B2:
        for emb in delta.minus:
            m_lat[emb] = lattice_dual(std, b_point.pairing(emb))
    checked: set = set()
    _check_stability(b_point, [("the rebuilt c-family", m_lat)], checked)
    for emb in b_point.embeddings():
        if lattice_colength(m_lat[emb], std) != int(emb in delta.minus):
            raise DieudonneError(f"wrong rebuilt colength at {emb}")

    l_lat: dict[EmbE, Lattice2] = {}
    for emb in b_point.embeddings():
        if emb in delta.plus:
            l_lat[emb] = lattice_dual(
                m_lat[conjugate(system, emb)], b_point.pairing(emb)
            )
        else:
            l_lat[emb] = m_lat[emb]
    _check_stability(b_point, [("the rebuilt a-family", l_lat)], checked)
    for emb in b_point.embeddings():
        if lattice_colength(m_lat[emb], l_lat[emb]) != int(emb in delta.plus):
            raise DieudonneError(f"wrong a-in-c colength at {emb}")
    return m_lat, l_lat


def _point_from_lattices(
    b_point: DieudonnePoint, l_lat: Mapping[EmbE, Lattice2], lift: LiftChoice, datum: ShimuraDatum
) -> DieudonnePoint:
    """The point on the source ``datum`` whose module is the rebuilt a-family."""
    expected = signature_from_lift(datum, _lift_zeros(lift, datum))
    return _frame_point(b_point, l_lat, datum, expected)


def reconstruct_point(
    b_point: DieudonnePoint,
    j_lines: Mapping[EmbE, Lattice2],
    t: frozenset[ArchPlace],
    lift: LiftChoice,
    source_datum: ShimuraDatum,
    descriptor: StratumDescriptor | None = None,
    h_lines: Mapping[EmbE, Lattice2] | None = None,
) -> DieudonnePoint:
    """Rebuild a point on the source datum from the target point and its lines."""
    _, l_lat = reconstruct_lattices(b_point, j_lines, t, lift, source_datum, descriptor, h_lines)
    return _point_from_lattices(b_point, l_lat, lift, source_datum)


def verify_roundtrip(pt: DieudonnePoint, t: frozenset[ArchPlace]) -> DieudonnePoint:
    """Drive a point through the isogeny chain and back; raise on any mismatch.

    Builds the forward triple, reconstructs the lattice families once from
    the target point plus the recorded lines, and checks componentwise
    lattice equality against the forward families (in the target frame).
    Returns the source point rebuilt from those same families, the point
    ``reconstruct_point`` gives for the triple.
    """
    from .strata import lift_assignment

    t = frozenset(t)
    ring, datum = pt.ring, pt.datum
    descriptor = stratum_descriptor(datum, t)
    zeros = frozenset(emb for emb, value in pt.signature.s if value == 0)
    lift = lift_assignment(datum, descriptor, s_lift=zeros)
    triple = build_isogeny_triple(pt, t, descriptor, lift)
    m_lat, l_lat = reconstruct_lattices(
        triple.b_point, dict(triple.j_lines), t, lift, datum, descriptor,
        dict(triple.h_lines),
    )
    for emb in pt.embeddings():
        frame = triple.b_at(emb)
        if not lattice_equal(m_lat[emb], lattice_in_frame(ring, frame, triple.c_at(emb))):
            raise DieudonneError(f"c-lattice mismatch at {emb}")
        if not lattice_equal(l_lat[emb], lattice_in_frame(ring, frame, triple.a_at(emb))):
            raise DieudonneError(f"a-lattice mismatch at {emb}")
    back = _point_from_lattices(triple.b_point, l_lat, lift, datum)
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
        f_mats[emb] = mat_sigma(ring, pt.f_mat(back), 2)
        pairings[emb] = mat_sigma(ring, pt.pairing(back), 2)
        signature[emb] = pt.signature.at(back)
    return make_point(ring, new_datum, f_mats, pairings, signature)


# --- random points ------------------------------------------------------------


def _random_elem(rng, ring: WittRing):
    return tuple(rng.randrange(ring.pn) for _ in range(ring.m))


def _random_unimodular(rng, ring: WittRing) -> Mat2:
    while True:
        mat = tuple(
            tuple(_random_elem(rng, ring) for _ in range(2)) for _ in range(2)
        )
        if ring.val(mat_det(ring, mat)) == 0:
            return mat


def half_system(datum: ShimuraDatum) -> tuple[EmbE, ...]:
    """One embedding out of each conjugate pair, on the low sheet."""
    if len(datum.places.primes) != 1:
        raise DieudonneError("the simulator works one prime at a time")
    slot = datum.places.primes[0]
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
    F-matrices by the duality <F x, y> = sigma(<x, V y>).
    """
    system = datum.places
    half = half_system(datum)
    if set(f_mats_half) != set(half) or set(pairings_half) != set(half):
        raise DieudonneError("half-system data must cover one lift per place")
    for emb in half:
        _f_divisors(ring, f_mats_half[emb], emb)
        if ring.val(mat_det(ring, pairings_half[emb])) != 0:
            raise DieudonneError(f"half-system pairing at {emb} must be perfect")
    pairings: dict[EmbE, Mat2] = dict(pairings_half)
    for emb in half:
        cemb = conjugate(system, emb)
        pairings[cemb] = mat_smul(ring, -1, mat_transpose(pairings[emb]))
    f_mats: dict[EmbE, Mat2] = dict(f_mats_half)
    for emb in half:
        cemb = conjugate(system, emb)
        prev = frobenius_shift(system, emb, -1)
        _, inv_pairing = scaled_inverse(ring, pairings[emb])
        p_f_inv_t = mat_transpose(_p_times_inverse(ring, f_mats[emb]))
        twisted_prev = mat_sigma(ring, pairings[prev], 1)
        f_mats[cemb] = mat_mul(ring, inv_pairing, mat_mul(ring, p_f_inv_t, twisted_prev))
    return make_point(ring, datum, f_mats, pairings, expected_signature)


def random_point(
    rng, ring: WittRing, datum: ShimuraDatum, signature=None
) -> DieudonnePoint:
    """A random valid point with the requested signature profile.

    F-matrices are drawn on one half-system as unimodular scrambles of the
    templates [[0,1],[p,0]] and diag(1,p) (signature 1), p times a unit
    (signature 0 behind) or a unit (signature 2 behind); the conjugate half is
    derived from the pairing compatibility, as are the conjugate pairings.
    """
    system = datum.places
    half = half_system(datum)
    pid = datum.places.primes[0].id
    if signature is None:
        zeros = frozenset(canonical_lift(system, tau) for tau in datum.s.s_infty)
        signature = signature_from_lift(datum, zeros)
    signature = _as_signature(datum, pid, signature)

    pairings = {emb: _random_unimodular(rng, ring) for emb in half}
    f_mats: dict[EmbE, Mat2] = {}
    p = ring.p
    for emb in half:
        behind = signature.at(frobenius_shift(system, emb, -1))
        if behind == 1:
            core = ((0, 1), (p, 0)) if rng.randrange(2) else ((1, 0), (0, p))
        elif behind == 0:
            core = ((p, 0), (0, p))
        else:
            core = ((1, 0), (0, 1))
        template = tuple(
            tuple(ring.from_int(e) for e in row) for row in core
        )
        mat = mat_mul(ring, _random_unimodular(rng, ring), template)
        f_mats[emb] = mat_mul(ring, mat, _random_unimodular(rng, ring))
    return point_from_half_system(ring, datum, f_mats, pairings, signature)


def ring_for_datum(datum: ShimuraDatum, p: int, N: int = 8) -> WittRing:
    """The Witt ring matching a one-prime datum's cycle length."""
    if len(datum.places.primes) != 1:
        raise DieudonneError("the simulator works one prime at a time")
    slot = datum.places.primes[0]
    m = slot.f if slot.e_split else 2 * slot.f
    return witt_ring(p, m, N)


# --- serialization ------------------------------------------------------------


def _emb_key(emb: EmbE) -> str:
    return f"{emb.sheet}:{emb.i}"


def _mat_to_json(mat: Mat2) -> list:
    return [[["%x" % c for c in e] for e in row] for row in mat]


def _mat_from_json(data) -> Mat2:
    return tuple(
        tuple(tuple(int(c, 16) for c in e) for e in row) for row in data
    )


def point_to_json(pt: DieudonnePoint) -> dict:
    from .places import datum_to_json
    from .witt import ring_to_json

    return {
        "ring": ring_to_json(pt.ring),
        "datum": datum_to_json(pt.datum),
        "f_mats": {_emb_key(emb): _mat_to_json(mat) for emb, mat in pt.f_mats},
        "pairings": {_emb_key(emb): _mat_to_json(mat) for emb, mat in pt.pairings},
        "signature": {_emb_key(emb): value for emb, value in pt.signature.s},
    }


def point_from_json(data: Mapping) -> DieudonnePoint:
    from .places import datum_from_json
    from .witt import ring_from_json

    ring = ring_from_json(data["ring"])
    datum = datum_from_json(data["datum"])
    pid = datum.places.primes[0].id

    def parse_key(key: str) -> EmbE:
        sheet, i = key.split(":")
        return EmbE(pid, int(sheet), int(i))

    f_mats = {parse_key(k): _mat_from_json(v) for k, v in data["f_mats"].items()}
    pairings = {parse_key(k): _mat_from_json(v) for k, v in data["pairings"].items()}
    signature = {parse_key(k): int(v) for k, v in data["signature"].items()}
    return make_point(ring, datum, f_mats, pairings, signature)
