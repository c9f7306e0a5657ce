"""Cyclic embedding sets with Frobenius action, ramification data, and prime types.

A totally real base field is modeled only through its p-adic primes: each prime
contributes a cycle of archimedean embeddings of length ``f`` (the inertia
degree), on which the Frobenius ``sigma`` acts by a unit rotation.  The CM
quadratic extension is modeled through a split/inert flag per prime: the
embeddings upstairs form either two sheets of length ``f`` swapped by
conjugation (split) or a single cycle of length ``2f`` on which conjugation is
the half turn (inert).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from . import GostrataError


class PlaceError(GostrataError):
    """Raised for structurally invalid place-system data."""


MAX_INERTIA_DEGREE = 1024  # a place system's tables grow linearly in f


@dataclass(frozen=True, order=True)
class PrimeSlot:
    """One p-adic prime: an id, its inertia degree, and its behavior upstairs."""

    id: str
    f: int
    e_split: bool

    def __post_init__(self) -> None:
        if self.f < 1:
            raise PlaceError(f"inertia degree must be >= 1, got {self.f}")
        if self.f > MAX_INERTIA_DEGREE:
            raise PlaceError(f"inertia degree must be <= {MAX_INERTIA_DEGREE}, got {self.f}")


class ArchPlace(NamedTuple):
    """An archimedean embedding of the base field: a residue in the f-cycle."""

    prime_id: str
    i: int


class EmbE(NamedTuple):
    """An embedding of the CM field.

    For a split prime, ``sheet`` is 0 or 1 and ``i`` is a residue mod f; the
    two sheets are swapped by conjugation.  For an inert prime, ``sheet`` is
    always 0 and ``i`` is a residue mod 2f; conjugation adds f.
    """

    prime_id: str
    sheet: int
    i: int


_PLACE_TYPES = (ArchPlace, EmbE)


class FrozenMap(dict):
    """A read-only dict, the one type of every keyed table: equal maps hash
    equal, whatever order their items were inserted in."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


@dataclass(frozen=True)
class PlaceSystem:
    """The full collection of embedding cycles, one per p-adic prime.

    Tables built once from ``primes``, and left out of equality, hashing and
    repr: ``_slot`` maps a prime id to its slot; ``_arch`` and ``_emb`` map it
    (or None, for all primes) to its places in order; ``_cycle`` maps each
    place to the Frobenius cycle through it (a base cycle, a sheet, or an
    inert double cycle) and its index there; ``_conj`` and ``_restrict`` map
    each embedding to its conjugate and its restriction.  Every lookup
    returns a prebuilt place.
    """

    primes: tuple[PrimeSlot, ...]
    _slot: dict = field(init=False, repr=False, compare=False)
    _arch: dict = field(init=False, repr=False, compare=False)
    _emb: dict = field(init=False, repr=False, compare=False)
    _cycle: dict = field(init=False, repr=False, compare=False)
    _conj: dict = field(init=False, repr=False, compare=False)
    _restrict: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = [slot.id for slot in self.primes]
        if len(set(ids)) != len(ids):
            raise PlaceError(f"duplicate prime ids in {ids}")
        arch, emb, cycle, conj, restrict = {}, {}, {}, {}, {}
        for slot in self.primes:
            pid, f = slot.id, slot.f
            base = tuple(ArchPlace(pid, i) for i in range(f))
            if slot.e_split:
                sheets = [tuple(EmbE(pid, s, i) for i in range(f)) for s in (0, 1)]
                conj.update(zip(sheets[0] + sheets[1], sheets[1] + sheets[0]))
            else:
                sheets = [tuple(EmbE(pid, 0, j) for j in range(2 * f))]
                conj.update(zip(sheets[0], sheets[0][f:] + sheets[0][:f]))
            arch[pid], emb[pid] = base, sum(sheets, ())
            restrict.update((e, base[e.i % f]) for e in emb[pid])
            for c in (base, *sheets):
                cycle.update((x, (c, k)) for k, x in enumerate(c))
        arch[None], emb[None] = sum(arch.values(), ()), sum(emb.values(), ())
        tables = zip(("_slot", "_arch", "_emb", "_cycle", "_conj", "_restrict"), (
            dict(zip(ids, self.primes)), arch, emb, cycle, conj, restrict))
        for name, table in tables:
            object.__setattr__(self, name, table)

    def prime(self, prime_id: str) -> PrimeSlot:
        slot = self._slot.get(prime_id)
        if slot is None:
            raise PlaceError(f"unknown prime id {prime_id!r}")
        return slot

    def arch_places(self, prime_id: str | None = None) -> tuple[ArchPlace, ...]:
        if prime_id is not None:
            self.prime(prime_id)
        return self._arch[prime_id]

    def embeddings(self, prime_id: str | None = None) -> tuple[EmbE, ...]:
        if prime_id is not None:
            self.prime(prime_id)
        return self._emb[prime_id]

    def check_member(self, x: ArchPlace | EmbE) -> None:
        self._entry(self._cycle, x)

    def check_base(self, x: ArchPlace) -> None:
        """``check_member``, and a PlaceError for an embedding of the CM field."""
        self._entry(self._cycle, x)
        if type(x) is not ArchPlace:
            raise PlaceError(f"{x} is not an embedding of the base field")

    def _entry(self, table: dict, x):
        """``table[x]`` for a place ``x``; a PlaceError that says why if none."""
        if type(x) not in _PLACE_TYPES:
            raise PlaceError(f"{x!r} is neither an ArchPlace nor an EmbE")
        hit = table.get(x)
        if hit is not None:
            return hit
        slot = self.prime(x.prime_id)
        if x in self._cycle:
            raise PlaceError(f"{x} is not an embedding of the CM field")
        if type(x) is ArchPlace:
            raise PlaceError(f"{x} out of range for f={slot.f}")
        kind = "split" if slot.e_split else "inert"
        raise PlaceError(f"{x} invalid for {kind} prime with f={slot.f}")


def build_place_system(spec: Iterable[tuple[int, bool]]) -> PlaceSystem:
    """Build a PlaceSystem from (f, e_split) pairs, generating ids p1, p2, ..."""
    slots = tuple(
        PrimeSlot(f"p{k}", f, bool(e_split))
        for k, (f, e_split) in enumerate(spec, start=1)
    )
    if not slots:
        raise PlaceError("at least one prime is required")
    return PlaceSystem(slots)


def frobenius_shift(system: PlaceSystem, x: ArchPlace | EmbE, k: int):
    """Apply sigma^k to an embedding (rotation within its cycle or sheet)."""
    cycle, pos = system._entry(system._cycle, x)
    return cycle[(pos + k) % len(cycle)]


def conjugate(system: PlaceSystem, x: EmbE) -> EmbE:
    """Apply complex conjugation: swap sheets (split) or add f (inert)."""
    return system._entry(system._conj, x)


def restrict(system: PlaceSystem, x: EmbE) -> ArchPlace:
    """The two-to-one restriction from CM-field embeddings to base embeddings."""
    return system._entry(system._restrict, x)


def lifts(system: PlaceSystem, tau: ArchPlace) -> tuple[EmbE, EmbE]:
    """The two CM-field embeddings restricting to ``tau``: the sheet-0 /
    low-residue lift and its conjugate."""
    system.check_member(tau)
    low = EmbE(tau.prime_id, 0, tau.i)
    return low, conjugate(system, low)


def canonical_lift(system: PlaceSystem, tau: ArchPlace) -> EmbE:
    """The sheet-0 / low-residue lift of ``tau``; the default everywhere."""
    return lifts(system, tau)[0]


class Level(Enum):
    """Level structure at a p-adic prime."""

    HYPERSPECIAL = "hyperspecial"
    IWAHORI = "iwahori"
    MAXIMAL_ORDER = "maximal_order"


class PrimeType(Enum):
    ALPHA = "alpha"
    ALPHA_SHARP = "alpha_sharp"
    BETA = "beta"
    BETA_SHARP = "beta_sharp"


@dataclass(frozen=True)
class EvenPlaceSet:
    """A ramification set: archimedean part, p-adic part, and an away-from-p count.

    The total cardinality must be even, and a ramified p-adic prime forces all
    of its archimedean cycle into the archimedean part.
    """

    s_infty: frozenset[ArchPlace]
    s_p: frozenset[str]
    n_other: int

    def __post_init__(self) -> None:
        if self.n_other < 0:
            raise PlaceError("n_other must be nonnegative")
        if (len(self.s_infty) + len(self.s_p) + self.n_other) % 2 != 0:
            raise PlaceError("ramification set must have even total cardinality")

    def validate(self, system: PlaceSystem) -> None:
        for tau in self.s_infty:
            system.check_member(tau)
        for pid in self.s_p:
            system.prime(pid)
            cycle = set(system.arch_places(pid))
            if not cycle <= self.s_infty:
                raise PlaceError(
                    f"prime {pid!r} is ramified but its archimedean cycle "
                    "is not fully contained in s_infty"
                )


@dataclass(frozen=True)
class ShimuraDatum:
    """A place system, a ramification set, and a level flag per prime: a
    FrozenMap from prime id to Level, hyperspecial where a prime has none.
    The map keeps one form, sorted by prime id with hyperspecial primes left
    out however they were given, so ``==`` and ``hash`` mean the same datum.

    Tables built once, and left out of equality, hashing and repr: ``_free``
    maps a prime id (or None, for all primes) to its free places, those
    outside S_infty, in sorted order; ``_gaps`` maps each free place to its
    gap triple ``(n, tau_minus, tau_plus)`` (see ``n_tau``).
    """

    places: PlaceSystem
    s: EvenPlaceSet
    level_p: FrozenMap
    _free: dict = field(init=False, repr=False, compare=False)
    _gaps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.s.validate(self.places)
        known = {slot.id for slot in self.places.primes}
        for pid, level in self.level_p.items():
            if pid not in known:
                raise PlaceError(f"level flag for unknown prime {pid!r}")
            cycle = set(self.places.arch_places(pid))
            if level is Level.MAXIMAL_ORDER and pid not in self.s.s_p:
                raise PlaceError(f"maximal-order level at unramified prime {pid!r}")
            if level is Level.IWAHORI and (
                pid in self.s.s_p or not cycle <= self.s.s_infty
            ):
                raise PlaceError(
                    f"Iwahori level at {pid!r} requires a fully ramified "
                    "archimedean cycle and an unramified prime"
                )
        for pid in self.s.s_p:
            if self.level(pid) is not Level.MAXIMAL_ORDER:
                raise PlaceError(f"ramified prime {pid!r} must carry maximal-order level")
        kept = sorted((pid, lv) for pid, lv in self.level_p.items() if lv is not Level.HYPERSPECIAL)
        object.__setattr__(self, "level_p", FrozenMap(kept))
        free, gaps = {}, {}
        for slot in self.places.primes:
            here = free[slot.id] = tuple(
                tau for tau in self.places.arch_places(slot.id) if tau not in self.s.s_infty
            )
            for minus, tau, plus in zip(here[-1:] + here[:-1], here, here[1:] + here[:1]):
                gaps[tau] = ((tau.i - minus.i) % slot.f or slot.f, minus, plus)
        free[None] = tuple(sorted(gaps))
        object.__setattr__(self, "_free", free)
        object.__setattr__(self, "_gaps", gaps)

    def level(self, prime_id: str) -> Level:
        if prime_id not in self.level_p:
            self.places.prime(prime_id)
        return self.level_p.get(prime_id, Level.HYPERSPECIAL)

    def free_places(self, prime_id: str | None = None) -> tuple[ArchPlace, ...]:
        """The places outside S_infty, at one prime or at all, in sorted order."""
        if prime_id is not None:
            self.places.prime(prime_id)
        return self._free[prime_id]


def make_datum(
    system: PlaceSystem,
    s_infty: Iterable[ArchPlace] = (),
    s_p: Iterable[str] = (),
    n_other: int | None = None,
    level: Mapping[str, Level] | None = None,
) -> ShimuraDatum:
    """Convenience constructor; with ``n_other=None`` the parity pad is chosen."""
    s_infty = frozenset(s_infty)
    s_p = frozenset(s_p)
    if n_other is None:
        n_other = (len(s_infty) + len(s_p)) % 2
    level_items: dict[str, Level] = dict(level or {})
    for pid in s_p:
        level_items.setdefault(pid, Level.MAXIMAL_ORDER)
    return ShimuraDatum(
        places=system,
        s=EvenPlaceSet(s_infty, s_p, n_other),
        level_p=FrozenMap(level_items),
    )


def classify_prime(datum: ShimuraDatum, prime_id: str) -> PrimeType:
    """Classify a prime by the parity of its unramified cycle and its level."""
    free = datum.free_places(prime_id)
    if prime_id in datum.s.s_p:
        return PrimeType.BETA_SHARP
    if len(free) % 2 == 1:
        return PrimeType.BETA
    if not free and datum.level(prime_id) is Level.IWAHORI:
        return PrimeType.ALPHA_SHARP
    return PrimeType.ALPHA


def n_tau(datum: ShimuraDatum, tau: ArchPlace) -> tuple[int, ArchPlace, ArchPlace]:
    """Gap data at an unramified embedding.

    Returns ``(n, tau_minus, tau_plus)`` where ``n >= 1`` is the number of steps
    back to the previous unramified embedding ``tau_minus = sigma^{-n} tau``,
    and ``tau_plus`` is the unique unramified embedding whose own minus is
    ``tau``.
    """
    datum.places.check_base(tau)
    gaps = datum._gaps.get(tau)
    if gaps is None:
        raise PlaceError(f"{tau} lies in the ramified archimedean set")
    return gaps


# --- JSON serialization ------------------------------------------------------

_LEVEL_BY_NAME = {level.value: level for level in Level}


def system_to_json(system: PlaceSystem) -> dict:
    return {
        "primes": [
            {"id": slot.id, "f": slot.f, "e_split": slot.e_split}
            for slot in system.primes
        ]
    }


def system_from_json(data: Mapping) -> PlaceSystem:
    return PlaceSystem(
        tuple(
            PrimeSlot(str(entry["id"]), int(entry["f"]), bool(entry["e_split"]))
            for entry in data["primes"]
        )
    )


def datum_to_json(datum: ShimuraDatum) -> dict:
    return {
        **system_to_json(datum.places),
        "S": {
            "infty": sorted([t.prime_id, t.i] for t in datum.s.s_infty),
            "p": sorted(datum.s.s_p),
            "n_other": datum.s.n_other,
        },
        "level": {pid: level.value for pid, level in datum.level_p.items()},
    }


def datum_from_json(data: Mapping) -> ShimuraDatum:
    system = system_from_json(data)
    s_block = data.get("S", {})
    s_infty = frozenset(
        ArchPlace(str(pid), int(i)) for pid, i in s_block.get("infty", [])
    )
    s_p = frozenset(str(pid) for pid in s_block.get("p", []))
    n_other = int(s_block.get("n_other", 0))
    level_block = data.get("level", {})
    level_items = []
    for pid, name in level_block.items():
        if name not in _LEVEL_BY_NAME:
            raise PlaceError(f"unknown level flag {name!r}")
        level_items.append((str(pid), _LEVEL_BY_NAME[name]))
    return ShimuraDatum(
        places=system,
        s=EvenPlaceSet(s_infty, s_p, n_other),
        level_p=FrozenMap(level_items),
    )
