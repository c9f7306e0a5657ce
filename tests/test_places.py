from __future__ import annotations

import copy
import json
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gostrata.places import (
    ArchPlace,
    EmbE,
    MAX_INERTIA_DEGREE,
    EvenPlaceSet,
    FrozenMap,
    Level,
    PlaceError,
    PlaceSystem,
    PrimeType,
    ShimuraDatum,
    build_place_system,
    canonical_lift,
    classify_prime,
    conjugate,
    datum_from_json,
    datum_to_json,
    frobenius_shift,
    lifts,
    make_datum,
    n_tau,
    restrict,
)
from gostrata.strata import stratum_descriptor


def test_build_place_system_basic():
    system = build_place_system([(4, True)])
    assert len(system.primes) == 1
    slot = system.primes[0]
    assert (slot.f, slot.e_split) == (4, True)
    assert len(system.arch_places()) == 4
    assert len(system.embeddings()) == 8


def test_build_place_system_ten_cycle():
    system = build_place_system([(10, True)])
    assert len(system.arch_places("p1")) == 10


def test_build_place_system_two_primes():
    system = build_place_system([(2, False), (3, True)])
    assert [slot.f for slot in system.primes] == [2, 3]
    assert len(system.embeddings("p1")) == 4
    assert len(system.embeddings("p2")) == 6


def test_build_place_system_rejects_zero_f():
    with pytest.raises(PlaceError):
        build_place_system([(0, True)])


def test_build_place_system_bounds_f():
    assert build_place_system([(MAX_INERTIA_DEGREE, False)]).primes[0].f == MAX_INERTIA_DEGREE
    for f in (MAX_INERTIA_DEGREE + 1, 10**9):
        with pytest.raises(PlaceError, match="inertia degree must be <="):
            build_place_system([(f, True)])
    with pytest.raises(PlaceError, match="inertia degree must be <="):
        datum_from_json({"primes": [{"id": "p1", "f": 1e9, "e_split": True}]})


def test_frobenius_shift_cycle():
    system = build_place_system([(4, True)])
    tau = ArchPlace("p1", 1)
    assert frobenius_shift(system, tau, 1) == ArchPlace("p1", 2)
    assert frobenius_shift(system, tau, 4) == tau


def test_frobenius_shift_inert_double_cycle():
    system = build_place_system([(2, False)])
    emb = EmbE("p1", 0, 3)
    assert frobenius_shift(system, emb, 1) == EmbE("p1", 0, 0)


def test_conjugation_involution_and_commutation():
    for spec in ([(3, True)], [(3, False)]):
        system = build_place_system(spec)
        for emb in system.embeddings():
            assert conjugate(system, conjugate(system, emb)) == emb
            left = conjugate(system, frobenius_shift(system, emb, 1))
            right = frobenius_shift(system, conjugate(system, emb), 1)
            assert left == right


def test_restriction_two_to_one():
    for spec in ([(4, True)], [(4, False)]):
        system = build_place_system(spec)
        for tau in system.arch_places():
            pair = lifts(system, tau)
            assert len(set(pair)) == 2
            assert all(restrict(system, emb) == tau for emb in pair)
            assert conjugate(system, pair[0]) == pair[1]
        fibers = [restrict(system, emb) for emb in system.embeddings()]
        for tau in system.arch_places():
            assert fibers.count(tau) == 2


def test_n_tau_empty_s():
    system = build_place_system([(4, True)])
    datum = make_datum(system)
    n, minus, plus = n_tau(datum, ArchPlace("p1", 1))
    assert (n, minus, plus) == (1, ArchPlace("p1", 0), ArchPlace("p1", 2))


def _ten_cycle_datum():
    system = build_place_system([(10, True)])
    s_infty = {ArchPlace("p1", (-2) % 10), ArchPlace("p1", (-6) % 10)}
    return make_datum(system, s_infty)


def test_n_tau_ten_cycle_examples():
    datum = _ten_cycle_datum()
    n, minus, _ = n_tau(datum, ArchPlace("p1", (-5) % 10))
    assert n == 2
    assert minus == ArchPlace("p1", (-7) % 10)
    n, minus, _ = n_tau(datum, ArchPlace("p1", (-1) % 10))
    assert n == 2
    assert minus == ArchPlace("p1", (-3) % 10)


def test_n_tau_rejects_ramified_or_full():
    datum = _ten_cycle_datum()
    with pytest.raises(PlaceError):
        n_tau(datum, ArchPlace("p1", (-2) % 10))
    system = build_place_system([(2, True)])
    full = make_datum(system, set(system.arch_places()))
    with pytest.raises(PlaceError):
        n_tau(full, ArchPlace("p1", 0))


def test_n_tau_rejects_an_embedding_of_the_cm_field():
    datum = make_datum(build_place_system([(3, True)]), {ArchPlace("p1", 0)})
    with pytest.raises(PlaceError) as err:
        n_tau(datum, EmbE("p1", 1, 0))
    assert str(err.value) == "EmbE(prime_id='p1', sheet=1, i=0) is not an embedding of the base field"
    # the member check comes first, the ramified check last
    with pytest.raises(PlaceError, match="invalid for split prime"):
        n_tau(datum, EmbE("p1", 2, 0))
    with pytest.raises(PlaceError, match="neither an ArchPlace nor an EmbE"):
        n_tau(datum, ("p1", 1))
    with pytest.raises(PlaceError, match="lies in the ramified archimedean set"):
        n_tau(datum, ArchPlace("p1", 0))


def test_free_places_are_sorted_and_carry_their_gaps():
    system = build_place_system([(3, True)] * 9 + [(4, False)])
    s_infty = {ArchPlace("p1", 1), ArchPlace("p10", 0), ArchPlace("p10", 3)}
    datum = make_datum(system, s_infty)
    free = [tau for tau in system.arch_places() if tau not in s_infty]
    assert datum.free_places() == tuple(sorted(free)) != tuple(free)
    assert datum.free_places("p10") == (ArchPlace("p10", 1), ArchPlace("p10", 2))
    assert datum.free_places("p1") == (ArchPlace("p1", 0), ArchPlace("p1", 2))
    assert n_tau(datum, ArchPlace("p1", 2)) == (2, ArchPlace("p1", 0), ArchPlace("p1", 0))
    assert n_tau(datum, ArchPlace("p10", 1)) == (3, ArchPlace("p10", 2), ArchPlace("p10", 2))
    with pytest.raises(PlaceError, match="unknown prime id 'p11'"):
        datum.free_places("p11")


@given(f=st.integers(1, 12), bits=st.integers(0, 2**12 - 1))
def test_n_tau_partition_and_bijections(f: int, bits: int):
    system = build_place_system([(f, True)])
    s_infty = {ArchPlace("p1", i) for i in range(f) if bits >> i & 1}
    free = [t for t in system.arch_places() if t not in s_infty]
    if not free:
        return
    datum = make_datum(system, s_infty)
    total = 0
    minus_map = {}
    plus_map = {}
    for tau in free:
        n, minus, plus = n_tau(datum, tau)
        total += n
        minus_map[tau] = minus
        plus_map[tau] = plus
    assert total == f
    assert sorted(minus_map.values()) == sorted(free)
    assert sorted(plus_map.values()) == sorted(free)
    for tau in free:
        assert plus_map[minus_map[tau]] == tau
        assert minus_map[plus_map[tau]] == tau


def test_classify_prime():
    system = build_place_system([(4, True)])
    assert classify_prime(make_datum(system), "p1") is PrimeType.ALPHA

    system3 = build_place_system([(3, True)])
    assert classify_prime(make_datum(system3), "p1") is PrimeType.BETA

    system2 = build_place_system([(2, True)])
    full = set(system2.arch_places())
    sharp = make_datum(system2, full, level={"p1": Level.IWAHORI})
    assert classify_prime(sharp, "p1") is PrimeType.ALPHA_SHARP

    beta_sharp = make_datum(system2, full, s_p={"p1"}, n_other=1)
    assert classify_prime(beta_sharp, "p1") is PrimeType.BETA_SHARP


def test_even_place_set_validation():
    system = build_place_system([(2, True)])
    with pytest.raises(PlaceError):
        make_datum(system, {ArchPlace("p1", 0)}, n_other=0)
    with pytest.raises(PlaceError):
        # ramified prime without its full archimedean cycle
        make_datum(system, {ArchPlace("p1", 0)}, s_p={"p1"}, n_other=0)


def test_level_flag_validation():
    system = build_place_system([(2, True)])
    with pytest.raises(PlaceError):
        make_datum(system, level={"p1": Level.IWAHORI})
    with pytest.raises(PlaceError):
        make_datum(system, level={"p1": Level.MAXIMAL_ORDER})


def test_datum_json_roundtrip():
    system = build_place_system([(4, True), (3, False)])
    datum = make_datum(system, {ArchPlace("p1", 0)}, n_other=1)
    data = datum_to_json(datum)
    assert data["S"]["infty"] == [["p1", 0]]
    assert datum_from_json(data) == datum


def test_canonical_lift_is_sheet_zero():
    system = build_place_system([(3, False)])
    emb = canonical_lift(system, ArchPlace("p1", 2))
    assert emb == EmbE("p1", 0, 2)


# --- places as plain values, with prebuilt tables --------------------------


def _old_messages():
    """Invalid places with the exact PlaceError text each one has always had."""
    split = build_place_system([(3, True)])
    inert = build_place_system([(3, False)])
    return [
        (split, ArchPlace("p1", 3), "ArchPlace(prime_id='p1', i=3) out of range for f=3"),
        (split, ArchPlace("p1", -1), "ArchPlace(prime_id='p1', i=-1) out of range for f=3"),
        (split, ArchPlace("p2", 0), "unknown prime id 'p2'"),
        (split, EmbE("p1", 2, 0), "EmbE(prime_id='p1', sheet=2, i=0) invalid for split prime with f=3"),
        (split, EmbE("p1", 1, 3), "EmbE(prime_id='p1', sheet=1, i=3) invalid for split prime with f=3"),
        (split, EmbE("p9", 0, 0), "unknown prime id 'p9'"),
        (inert, EmbE("p1", 1, 0), "EmbE(prime_id='p1', sheet=1, i=0) invalid for inert prime with f=3"),
        (inert, EmbE("p1", 0, 6), "EmbE(prime_id='p1', sheet=0, i=6) invalid for inert prime with f=3"),
        (inert, EmbE("p1", 0, -1), "EmbE(prime_id='p1', sheet=0, i=-1) invalid for inert prime with f=3"),
    ]


def test_out_of_range_places_keep_their_messages():
    for system, x, message in _old_messages():
        calls = [system.check_member, lambda x: frobenius_shift(system, x, 1)]
        if isinstance(x, EmbE):
            calls += [lambda x: conjugate(system, x), lambda x: restrict(system, x)]
        for call in calls:
            with pytest.raises(PlaceError) as err:
                call(x)
            assert str(err.value) == message


def test_plain_tuples_are_never_members():
    system = build_place_system([(3, True), (2, False)])
    for plain in [("p1", 0), ("p1", 0, 0), ("p2", 0, 3), tuple(ArchPlace("p2", 1))]:
        for call in (
            system.check_member,
            lambda x: frobenius_shift(system, x, 1),
            lambda x: conjugate(system, x),
            lambda x: restrict(system, x),
            lambda x: lifts(system, x),
        ):
            with pytest.raises(PlaceError, match="neither an ArchPlace nor an EmbE"):
                call(plain)


def test_base_places_have_no_conjugate_or_restriction():
    system = build_place_system([(3, False)])
    for call in (conjugate, restrict):
        with pytest.raises(PlaceError, match="not an embedding of the CM field"):
            call(system, ArchPlace("p1", 1))


def test_repr_and_order_of_places():
    assert repr(ArchPlace("p1", 2)) == "ArchPlace(prime_id='p1', i=2)"
    assert repr(EmbE("p2", 1, 0)) == "EmbE(prime_id='p2', sheet=1, i=0)"
    assert f"{ArchPlace('p1', 2)}" == "ArchPlace(prime_id='p1', i=2)"
    taus = [ArchPlace("p2", 0), ArchPlace("p1", 3), ArchPlace("p10", 1), ArchPlace("p1", 1)]
    assert sorted(taus) == [
        ArchPlace("p1", 1), ArchPlace("p1", 3), ArchPlace("p10", 1), ArchPlace("p2", 0)
    ]
    embs = [EmbE("p1", 1, 0), EmbE("p1", 0, 5), EmbE("p1", 0, 2), EmbE("p0", 1, 9)]
    assert sorted(embs) == [
        EmbE("p0", 1, 9), EmbE("p1", 0, 2), EmbE("p1", 0, 5), EmbE("p1", 1, 0)
    ]


def test_places_compare_as_tuples_of_their_fields():
    # the two deliberate changes from the dataclass places: a place equals
    # the plain tuple of its fields, and the two kinds order against each other
    assert ArchPlace("p1", 0) == ("p1", 0) and hash(ArchPlace("p1", 0)) == hash(("p1", 0))
    assert EmbE("p1", 1, 2) == ("p1", 1, 2)
    assert ArchPlace("p1", 0) < EmbE("p1", 0, 0) < ArchPlace("p1", 1)
    assert ArchPlace("p1", 0) != EmbE("p1", 0, 0)


def test_place_system_equality_ignores_its_tables():
    system = build_place_system([(3, True), (2, False)])
    twin = PlaceSystem(system.primes)
    assert system == twin and hash(system) == hash(twin) and len({system, twin}) == 1
    assert repr(system) == (
        "PlaceSystem(primes=(PrimeSlot(id='p1', f=3, e_split=True), "
        "PrimeSlot(id='p2', f=2, e_split=False)))"
    )
    assert [f.name for f in fields(PlaceSystem) if f.compare or f.repr] == ["primes"]
    assert system != build_place_system([(3, True)])
    datum = make_datum(system, {ArchPlace("p2", 0)}, level={})
    again = make_datum(twin, {ArchPlace("p2", 0)})
    assert datum == again and hash(datum) == hash(again) and repr(datum) == repr(again)
    assert [f.name for f in fields(ShimuraDatum) if f.compare or f.repr] == ["places", "s", "level_p"]
    assert "_level" not in repr(datum)


def test_table_lookups_return_prebuilt_places():
    system = build_place_system([(4, True), (3, False)])
    for x in system.arch_places() + system.embeddings():
        # 12 is a multiple of every cycle length here: 4, 3 and 6
        assert frobenius_shift(system, x, 13) is frobenius_shift(system, x, 1)
    emb = EmbE("p2", 0, 1)
    assert conjugate(system, emb) is conjugate(system, EmbE("p2", 0, 1))
    assert restrict(system, emb) is system.arch_places("p2")[1]
    assert system.arch_places() is system.arch_places()


@pytest.mark.parametrize(
    "spec",
    [[(f, split)] for f in (1, 2, 5) for split in (True, False)] + [[(2, False), (3, True)]],
)
def test_place_maps_match_their_closed_formulas(spec):
    system = build_place_system(spec)
    arch, embs = [], []
    for slot in system.primes:
        pid, f = slot.id, slot.f
        arch += [ArchPlace(pid, i) for i in range(f)]
        if slot.e_split:
            embs += [EmbE(pid, sheet, i) for sheet in (0, 1) for i in range(f)]
        else:
            embs += [EmbE(pid, 0, j) for j in range(2 * f)]
    assert system.arch_places() == tuple(arch) and system.embeddings() == tuple(embs)
    for x in arch + embs:
        slot = system.prime(x.prime_id)
        f = slot.f
        for k in range(-4 * f, 4 * f + 1):
            got = frobenius_shift(system, x, k)
            if isinstance(x, ArchPlace):
                want = ArchPlace(x.prime_id, (x.i + k) % f)
            elif slot.e_split:
                want = EmbE(x.prime_id, x.sheet, (x.i + k) % f)
            else:
                want = EmbE(x.prime_id, 0, (x.i + k) % (2 * f))
            assert type(got) is type(want) and got == want
        if isinstance(x, EmbE):
            if slot.e_split:
                want = EmbE(x.prime_id, 1 - x.sheet, x.i)
            else:
                want = EmbE(x.prime_id, 0, (x.i + f) % (2 * f))
            got = conjugate(system, x)
            assert type(got) is EmbE and got == want
            got = restrict(system, x)
            assert type(got) is ArchPlace and got == ArchPlace(x.prime_id, x.i % f)


def test_frozen_map_is_read_only_and_hashes_by_content():
    table = FrozenMap([(ArchPlace("p1", 0), 1), (ArchPlace("p1", 1), 2)])
    mutators = [
        lambda m: m.__setitem__(ArchPlace("p1", 2), 0),
        lambda m: m.__delitem__(ArchPlace("p1", 0)),
        lambda m: m.__ior__({}),
        lambda m: m.clear(),
        lambda m: m.pop(ArchPlace("p1", 0)),
        lambda m: m.popitem(),
        lambda m: m.setdefault(ArchPlace("p1", 2), 0),
        lambda m: m.update({}),
    ]
    for mutate in mutators:
        with pytest.raises(TypeError):
            mutate(table)
    assert table == {ArchPlace("p1", 0): 1, ArchPlace("p1", 1): 2}
    reordered = FrozenMap([(ArchPlace("p1", 1), 2), (ArchPlace("p1", 0), 1)])
    assert list(reordered) != list(table)
    assert reordered == table and hash(reordered) == hash(table)
    assert len({table, reordered}) == 1
    assert hash(table) != hash(FrozenMap([(ArchPlace("p1", 0), 2), (ArchPlace("p1", 1), 1)]))
    for twin in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert type(twin) is FrozenMap and twin == table and list(twin) == list(table)


def test_datum_levels_given_in_any_order_are_one_datum():
    system = build_place_system([(1, True), (2, False)])
    s = EvenPlaceSet(frozenset({ArchPlace("p1", 0)}), frozenset(), 1)
    levels = [("p1", Level.IWAHORI), ("p2", Level.HYPERSPECIAL)]
    one = ShimuraDatum(system, s, FrozenMap(levels))
    other = ShimuraDatum(system, s, FrozenMap(reversed(levels)))
    assert one == other and hash(one) == hash(other)
    by_make = make_datum(system, s.s_infty, level=dict(reversed(levels)))
    assert by_make == one and hash(by_make) == hash(one)
    assert list(by_make.level_p) == ["p1"]
    assert one.level("p1") is Level.IWAHORI and one.level("p2") is Level.HYPERSPECIAL


def _one_prime_datums():
    """(system, S_infty, S_p, level) for every one-prime datum with f <= 4,
    split and inert, every S_infty and every admissible level."""
    for f in range(1, 5):
        for split in (True, False):
            system = build_place_system([(f, split)])
            cycle = system.arch_places("p1")
            for bits in range(2**f):
                s_infty = frozenset(tau for tau in cycle if bits >> tau.i & 1)
                yield system, s_infty, frozenset(), Level.HYPERSPECIAL
                if len(s_infty) == f:
                    yield system, s_infty, frozenset(), Level.IWAHORI
                    yield system, s_infty, frozenset({"p1"}), Level.MAXIMAL_ORDER


def test_a_datum_has_one_spelling():
    """However a datum is built, with hyperspecial level named or left out,
    it is one datum: equal, with one hash and one JSON record, which names
    no hyperspecial prime.  For T = empty the descriptor's target datum is
    the datum itself, though its ``level_t`` names every prime's level."""
    count = 0
    for system, s_infty, s_p, level in _one_prime_datums():
        first = make_datum(system, s_infty, s_p, level={"p1": level})
        record = datum_to_json(first)
        ways = [
            first,
            datum_from_json({**record, "level": {"p1": level.value}}),
            replace(first, level_p=FrozenMap({"p1": level})),
        ]
        if level is Level.HYPERSPECIAL:
            assert record["level"] == {}
            bare = {key: value for key, value in record.items() if key != "level"}
            ways += [make_datum(system, s_infty), datum_from_json(record), datum_from_json(bare)]
        else:
            assert record["level"] == {"p1": level.value}
        if first.free_places():
            descriptor = stratum_descriptor(first, frozenset())
            assert descriptor.level_t == {"p1": level}
            ways.append(ShimuraDatum(system, descriptor.s_of_t, descriptor.level_t))
        for way in ways:
            assert way == first and hash(way) == hash(first), (way, first)
            assert json.dumps(datum_to_json(way)) == json.dumps(record)
            assert way.level("p1") is level
        count += 1
    assert count == 76
