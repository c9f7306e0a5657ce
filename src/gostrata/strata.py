"""Stratum recipe: chains, S(T), lifts, delta sets, and the dimension count.

Given a datum and a subset T of unramified archimedean embeddings, this module
computes the new ramification set S(T) by decomposing ``S_infty union T`` into
maximal cyclic runs (chains), applying the per-chain parity correction, and
dispatching on the per-prime case.  It then assigns alternating lifts upstairs,
derives the delta sets on which the two auxiliary isogenies fail to be
isomorphisms, and verifies the signature bookkeeping identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import GostrataError
from .places import (
    ArchPlace,
    EmbE,
    EvenPlaceSet,
    FrozenMap,
    Level,
    PlaceError,
    PrimeType,
    ShimuraDatum,
    canonical_lift,
    classify_prime,
    conjugate,
    frobenius_shift,
    lifts,
    restrict,
)


class StratumError(GostrataError):
    """Raised for inputs outside the domain of the stratum recipe."""


class FullCycleError(StratumError):
    """Chain decomposition is undefined when the whole cycle is covered."""


class CaseTag(Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2 = "B2"
    A_SHARP_PASS = "ASharpPass"
    B_SHARP_PASS = "BSharpPass"


@dataclass(frozen=True)
class Chain:
    """A maximal cyclic run inside ``S_infty union T`` at one prime."""

    top: ArchPlace
    m: int

    def members(self, datum: ShimuraDatum) -> tuple[ArchPlace, ...]:
        return tuple(
            frobenius_shift(datum.places, self.top, -a) for a in range(self.m + 1)
        )


@dataclass(frozen=True)
class StratumDescriptor:
    """T, S(T), I_T and N, with the per-prime tables T' (the corrected places
    at each prime), the case tags and the levels: FrozenMaps keyed by prime
    id, in the order of the primes; ``chains`` holds each A1/B1 prime's
    chain decomposition."""

    t: frozenset[ArchPlace]
    t_prime_infty: FrozenMap
    t_prime_p: frozenset[str]
    s_of_t: EvenPlaceSet
    i_t: frozenset[ArchPlace]
    n_bundle: int
    case_tags: FrozenMap
    level_t: FrozenMap
    chains: FrozenMap

    def case_at(self, prime_id: str) -> CaseTag:
        return self.case_tags[prime_id]


@dataclass(frozen=True)
class LiftChoice:
    """The chosen lifts, the marked bundle directions, and the per-prime lift
    bookkeeping: a FrozenMap from prime id to a tuple of (base lift, offsets)
    pairs.

    For cases A1/B1 there is one pair per chain with a nonempty corrected
    intersection: the lift of the chain top together with the sorted offsets
    ``0 <= a_1 < ... < a_r`` of the corrected set below the top.  For A2 the
    single pair is the anchor lift with the offsets of T below it; for B2 it
    is the anchor lift with the 2r preimage offsets in the double cycle.  The
    pass-through cases have no pairs.
    """

    s_tilde_of_t: frozenset[EmbE]
    i_tilde_t: frozenset[EmbE]
    recipes: FrozenMap


@dataclass(frozen=True)
class DeltaSets:
    plus: frozenset[EmbE]
    minus: frozenset[EmbE]


def _check_places(datum: ShimuraDatum, taus) -> None:
    check_base, s_infty = datum.places.check_base, datum.s.s_infty
    for tau in taus:
        check_base(tau)
        if tau in s_infty:
            raise StratumError(f"{tau} lies in S_infty; strata index only S-free embeddings")


def _check_t(datum: ShimuraDatum, t: frozenset[ArchPlace]) -> None:
    """Check that T holds only S-free places of the datum.  Once a place
    fails, T is walked again in sorted order, so the place reported does not
    depend on the hash order of T."""
    try:
        _check_places(datum, t)
    except (PlaceError, StratumError):
        _check_places(datum, sorted(t))
        raise


def chain_decompose(
    datum: ShimuraDatum, prime_id: str, t: frozenset[ArchPlace]
) -> tuple[Chain, ...]:
    """Maximal cyclic runs of ``S_infty union T`` within one prime's cycle.

    Chains are ordered by the cycle index of their top element.
    """
    _check_t(datum, t)
    return _chain_walk(datum, prime_id, t)


def _chain_walk(datum: ShimuraDatum, prime_id: str, t: frozenset[ArchPlace]) -> tuple[Chain, ...]:
    """``chain_decompose`` for a T that has already been checked."""
    slot = datum.places.prime(prime_id)
    covered = {
        tau.i
        for tau in (datum.s.s_infty | t)
        if tau.prime_id == prime_id
    }
    if len(covered) >= slot.f:
        raise FullCycleError(
            f"S_infty union T covers the whole cycle at {prime_id!r}"
        )
    chains = []
    tops = sorted(i for i in covered if (i + 1) % slot.f not in covered)
    for top_i in tops:
        m = 0
        while (top_i - m - 1) % slot.f in covered:
            m += 1
        chains.append(Chain(ArchPlace(prime_id, top_i), m))
    return tuple(chains)


def stratum_descriptor(datum: ShimuraDatum, t: frozenset[ArchPlace]) -> StratumDescriptor:
    """Compute T', S(T), I_T, N, per-prime case tags and level changes."""
    t = frozenset(t)
    _check_t(datum, t)
    system = datum.places
    t_prime_infty: dict[str, frozenset[ArchPlace]] = {}
    t_prime_p: set[str] = set()
    case_tags: dict[str, CaseTag] = {}
    level_t: dict[str, Level] = {}
    chains: dict[str, tuple[Chain, ...]] = {}
    for slot in system.primes:
        pid = slot.id
        free = datum.free_places(pid)
        t_here = frozenset(tau for tau in t if tau.prime_id == pid)
        prime_type = classify_prime(datum, pid)
        level = datum.level(pid)
        if prime_type is PrimeType.BETA_SHARP:
            block, tag = frozenset(), CaseTag.B_SHARP_PASS
        elif not free:
            block, tag = frozenset(), CaseTag.A_SHARP_PASS
        elif len(t_here) == len(free):
            block = t_here
            if prime_type is PrimeType.ALPHA:
                tag = CaseTag.A2
                level = Level.IWAHORI if t_here else level
            else:
                t_prime_p.add(pid)
                tag, level = CaseTag.B2, Level.MAXIMAL_ORDER
        else:
            hits: set[ArchPlace] = set()
            chains[pid] = _chain_walk(datum, pid, t)
            for chain in chains[pid]:
                hit = {tau for tau in chain.members(datum) if tau in t_here}
                if len(hit) % 2 == 1:
                    hit.add(frobenius_shift(system, chain.top, -(chain.m + 1)))
                hits |= hit
            block = frozenset(hits)
            tag = CaseTag.A1 if prime_type is PrimeType.ALPHA else CaseTag.B1
        t_prime_infty[pid], case_tags[pid], level_t[pid] = block, tag, level
    all_t_prime = frozenset().union(*t_prime_infty.values())
    s_of_t = EvenPlaceSet(
        s_infty=datum.s.s_infty | all_t_prime,
        s_p=datum.s.s_p | t_prime_p,
        n_other=datum.s.n_other,
    )
    s_of_t.validate(system)
    i_t = frozenset(s_of_t.s_infty - (datum.s.s_infty | t))
    return StratumDescriptor(
        t=t,
        t_prime_infty=FrozenMap(t_prime_infty),
        t_prime_p=frozenset(t_prime_p),
        s_of_t=s_of_t,
        i_t=i_t,
        n_bundle=len(i_t),
        case_tags=FrozenMap(case_tags),
        level_t=FrozenMap(level_t),
        chains=FrozenMap(chains),
    )


def _offsets_below(system, base: ArchPlace | EmbE, members: set, span: int) -> tuple[int, ...]:
    """Sorted offsets a with sigma^{-a}(base) in ``members``, 0 <= a <= span."""
    return tuple(
        a
        for a in range(span + 1)
        if frobenius_shift(system, base, -a) in members
    )


def lift_assignment(
    datum: ShimuraDatum,
    descriptor: StratumDescriptor,
    s_lift: frozenset[EmbE] | None = None,
) -> LiftChoice:
    """Choose lifts for S(T): alternating over each corrected chain.

    Every base lift is canonical, and the anchor of T at an A2/B2 prime is
    its place of least index; any fixed choice gives a stratum of the same
    shape.  ``s_lift`` fixes the lifts of the untouched ramified embeddings
    (default: canonical lifts).
    """
    system = datum.places

    if s_lift is None:
        s_lift = frozenset(canonical_lift(system, tau) for tau in datum.s.s_infty)
    seen: dict[ArchPlace, EmbE] = {}
    for emb in s_lift:
        tau = restrict(system, emb)
        if tau not in datum.s.s_infty:
            raise StratumError(f"{emb} does not lift a ramified embedding")
        if tau in seen:
            raise StratumError(f"two lifts supplied for {tau}")
        seen[tau] = emb

    lifts_out: set[EmbE] = set(s_lift)
    recipes: dict[str, tuple[tuple[EmbE, tuple[int, ...]], ...]] = {}
    for slot in system.primes:
        pid = slot.id
        case = descriptor.case_tags[pid]
        entries: list[tuple[EmbE, tuple[int, ...]]] = []
        if case in (CaseTag.A1, CaseTag.B1):
            corrected = descriptor.t_prime_infty[pid]
            for chain in descriptor.chains[pid]:
                a_list = _offsets_below(system, chain.top, corrected, chain.m + 1)
                if a_list:
                    entries.append((canonical_lift(system, chain.top), a_list))
        elif case in (CaseTag.A2, CaseTag.B2):
            if case is CaseTag.B2 and slot.e_split:
                raise StratumError(
                    f"case B2 at {pid!r} requires the prime to be inert upstairs"
                )
            t_here = {tau for tau in descriptor.t if tau.prime_id == pid}
            anchor = min(t_here, key=lambda tau: tau.i)
            # A2 walks the f places below the anchor, B2 the double cycle of 2f lifts
            preimage = {emb for tau in t_here for emb in lifts(system, tau)}
            span = 2 * slot.f - 1 if case is CaseTag.B2 else slot.f - 1
            anchor_tilde = canonical_lift(system, anchor)
            entries.append(
                (anchor_tilde, _offsets_below(system, anchor_tilde, preimage, span))
            )
        # the lift at even rank and, except in B2, the conjugate at odd rank
        for base_tilde, a_list in entries:
            if len(a_list) % 2 != 0:
                raise AssertionError("lifts alternate over an even number of offsets")
            for rank, a in enumerate(a_list):
                emb = frobenius_shift(system, base_tilde, -a)
                if rank % 2 == 0:
                    lifts_out.add(emb)
                elif case is not CaseTag.B2:
                    lifts_out.add(conjugate(system, emb))
        recipes[pid] = tuple(entries)

    covered = {restrict(system, emb) for emb in lifts_out}
    if covered != set(descriptor.s_of_t.s_infty) or len(lifts_out) != len(covered):
        raise AssertionError("lift assignment must pick exactly one lift per place")

    # the check above gives each place of S(T)_infty, and so each of I_T, exactly one lift
    i_tilde = {conjugate(system, e) for e in lifts_out if restrict(system, e) in descriptor.i_t}

    return LiftChoice(
        s_tilde_of_t=frozenset(lifts_out),
        i_tilde_t=frozenset(i_tilde),
        recipes=FrozenMap(recipes),
    )


def delta_sets(
    datum: ShimuraDatum, descriptor: StratumDescriptor, lift: LiftChoice
) -> DeltaSets:
    """The embedding sets where the isogenies toward the stratum degenerate.

    For each corrected chain with offsets ``a_1 < ... < a_r``, the minus set
    collects the runs ``sigma^{-l}(base lift)`` for ``a_j <= l < a_{j+1}`` over
    odd ``j``; the plus set is its conjugate image, except in case B2 and the
    pass-through cases where it is empty.
    """
    system = datum.places
    minus: set[EmbE] = set()
    plus: set[EmbE] = set()
    for pid, entries in lift.recipes.items():
        local_minus: set[EmbE] = set()
        for base_tilde, a_list in entries:
            for j in range(0, len(a_list) - 1, 2):
                for offset in range(a_list[j], a_list[j + 1]):
                    local_minus.add(frobenius_shift(system, base_tilde, -offset))
        minus |= local_minus
        if descriptor.case_tags[pid] is not CaseTag.B2:
            plus |= {conjugate(system, emb) for emb in local_minus}
    return DeltaSets(plus=frozenset(plus), minus=frozenset(minus))


def signature_from_lift(datum: ShimuraDatum, ramified_lift: frozenset[EmbE]) -> FrozenMap:
    """The signature profile, a FrozenMap over every embedding in order:
    0 on the chosen lifts, 2 on their conjugates, 1 elsewhere."""
    system = datum.places
    seen: set[ArchPlace] = set()
    for emb in ramified_lift:
        tau = restrict(system, emb)
        if tau in seen:
            raise StratumError(f"two lifts of {tau} supplied")
        seen.add(tau)
    values = dict.fromkeys(system.embeddings(), 1)
    values.update((conjugate(system, emb), 2) for emb in ramified_lift)
    values.update(dict.fromkeys(ramified_lift, 0))
    return FrozenMap(values)


def dimension_count_check(datum: ShimuraDatum, s: FrozenMap, delta: DeltaSets) -> FrozenMap:
    """Transfer a signature profile across the delta sets.

    Returns the profile ``s(x) - (d-(x) - d+(x)) + (d-(sigma x) - d+(sigma x))``
    where ``d±`` are the indicators of the delta sets; values outside {0, 1, 2}
    signal inconsistent inputs.
    """
    system = datum.places

    def weight(emb: EmbE) -> int:
        return (emb in delta.minus) - (emb in delta.plus)

    values = {
        emb: value - weight(emb) + weight(frobenius_shift(system, emb, 1))
        for emb, value in s.items()
    }
    for emb, out in values.items():
        if out not in (0, 1, 2):
            raise StratumError(f"inconsistent signature transfer at {emb}: {out}")
    return FrozenMap(values)


def descriptor_to_json(descriptor: StratumDescriptor) -> dict:
    return {
        "T": sorted([tau.prime_id, tau.i] for tau in descriptor.t),
        "S_of_T": {
            "infty": sorted([tau.prime_id, tau.i] for tau in descriptor.s_of_t.s_infty),
            "p": sorted(descriptor.s_of_t.s_p),
            "n_other": descriptor.s_of_t.n_other,
        },
        "I_T": sorted([tau.prime_id, tau.i] for tau in descriptor.i_t),
        "N": descriptor.n_bundle,
        "cases": {pid: tag.value for pid, tag in descriptor.case_tags.items()},
        "level_T": {pid: level.value for pid, level in descriptor.level_t.items()},
    }
