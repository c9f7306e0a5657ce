from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from gostrata.places import (
    ArchPlace,
    EmbE,
    Level,
    PlaceError,
    build_place_system,
    conjugate,
    frobenius_shift,
    make_datum,
    n_tau,
    restrict,
)
from gostrata.strata import (
    CaseTag,
    DeltaSets,
    FullCycleError,
    StratumError,
    chain_decompose,
    delta_sets,
    descriptor_to_json,
    dimension_count_check,
    lift_assignment,
    signature_from_lift,
    stratum_descriptor,
)


def _datum(f: int, e_split: bool, s_indices=(), **kwargs):
    system = build_place_system([(f, e_split)])
    s_infty = {ArchPlace("p1", i % f) for i in s_indices}
    return make_datum(system, s_infty, **kwargs)


def _t(f: int, indices) -> frozenset[ArchPlace]:
    return frozenset(ArchPlace("p1", i % f) for i in indices)


def _oracle_runs(f: int, covered: set[int]) -> list[list[int]]:
    """Brute-force maximal cyclic runs, as descending index lists from the top."""
    runs = []
    for start in range(f):
        if start in covered and (start + 1) % f not in covered:
            run = [start]
            while (run[-1] - 1) % f in covered:
                run.append((run[-1] - 1) % f)
            runs.append(run)
    return runs


def _small_strata():
    """Every (datum, T) with f <= 6, split and inert, every S_infty and every
    T, as ((f, e_split, s_bits, t_bits), system, datum, descriptor)."""
    for f in range(1, 7):
        for e_split in (True, False):
            system = build_place_system([(f, e_split)])
            for s_bits, t_bits in itertools.product(range(2**f), repeat=2):
                if s_bits & t_bits:
                    continue
                datum = make_datum(
                    system, {ArchPlace("p1", i) for i in range(f) if s_bits >> i & 1}
                )
                t = frozenset(ArchPlace("p1", i) for i in range(f) if t_bits >> i & 1)
                key = (f, e_split, s_bits, t_bits)
                yield key, system, datum, stratum_descriptor(datum, t)


def test_chain_decompose_ten_cycle_example():
    datum = _datum(10, True, [-2, -6])
    chains = chain_decompose(datum, "p1", _t(10, [-3, -5, -7]))
    rendered = [set(tau.i for tau in c.members(datum)) for c in chains]
    assert {(-2) % 10, (-3) % 10} in rendered
    assert {(-5) % 10, (-6) % 10, (-7) % 10} in rendered
    assert len(chains) == 2


def test_chain_decompose_singleton_and_pair():
    datum = _datum(4, True)
    (chain,) = chain_decompose(datum, "p1", _t(4, [1]))
    assert chain.top == ArchPlace("p1", 1) and chain.m == 0
    (chain,) = chain_decompose(datum, "p1", _t(4, [1, 2]))
    assert chain.top == ArchPlace("p1", 2) and chain.m == 1


def test_chain_decompose_full_cycle_errors():
    datum = _datum(4, True)
    with pytest.raises(FullCycleError):
        chain_decompose(datum, "p1", _t(4, [0, 1, 2, 3]))


def test_chain_decompose_matches_oracle_exhaustively():
    for f in range(1, 8):
        system = build_place_system([(f, True)])
        for s_bits, t_bits in itertools.product(range(2**f), repeat=2):
            if s_bits & t_bits:
                continue
            covered = {i for i in range(f) if (s_bits | t_bits) >> i & 1}
            if len(covered) >= f:
                continue
            datum = make_datum(system, {ArchPlace("p1", i) for i in range(f) if s_bits >> i & 1})
            t = frozenset(ArchPlace("p1", i) for i in range(f) if t_bits >> i & 1)
            chains = chain_decompose(datum, "p1", t)
            got = sorted([tau.i for tau in c.members(datum)] for c in chains)
            assert got == sorted(_oracle_runs(f, covered))


def test_stratum_descriptor_rejects_t_in_s():
    datum = _datum(4, True, [1])
    with pytest.raises(StratumError):
        stratum_descriptor(datum, _t(4, [1]))


def test_t_rejects_an_embedding_of_the_cm_field():
    datum = _datum(3, False)
    message = "EmbE(prime_id='p1', sheet=0, i=1) is not an embedding of the base field"
    for call in (stratum_descriptor, lambda d, t: chain_decompose(d, "p1", t)):
        with pytest.raises(PlaceError) as err:
            call(datum, {EmbE("p1", 0, 1)})
        assert str(err.value) == message


def test_quartic_strata_table():
    datum = _datum(4, False)
    # singleton: adjacent pair, one bundle direction
    d = stratum_descriptor(datum, _t(4, [1]))
    assert d.s_of_t.s_infty == _t(4, [0, 1])
    assert d.n_bundle == 1 and d.case_at("p1") is CaseTag.A1
    # opposite pair: everything ramifies, two directions
    d = stratum_descriptor(datum, _t(4, [1, 3]))
    assert d.s_of_t.s_infty == _t(4, [0, 1, 2, 3])
    assert d.n_bundle == 2
    # adjacent pair: no correction, no bundle
    d = stratum_descriptor(datum, _t(4, [1, 2]))
    assert d.s_of_t.s_infty == _t(4, [1, 2])
    assert d.n_bundle == 0
    # full stratum: Iwahori level
    d = stratum_descriptor(datum, _t(4, [0, 1, 2, 3]))
    assert d.s_of_t.s_infty == _t(4, [0, 1, 2, 3])
    assert d.case_at("p1") is CaseTag.A2
    assert d.level_t["p1"] is Level.IWAHORI
    assert d.n_bundle == 0


def test_full_stratum_odd_degree_adds_prime():
    d = stratum_descriptor(_datum(3, False), _t(3, [0, 1, 2]))
    assert d.case_at("p1") is CaseTag.B2
    assert d.t_prime_p == frozenset({"p1"})
    assert d.s_of_t.s_p == frozenset({"p1"})
    assert d.level_t["p1"] is Level.MAXIMAL_ORDER
    assert d.n_bundle == 0


def test_ten_cycle_worked_example():
    datum = _datum(10, True, [-2, -6])
    d = stratum_descriptor(datum, _t(10, [-3, -5, -7]))
    assert d.t_prime_infty["p1"] == _t(10, [-3, -4, -5, -7])
    assert d.i_t == _t(10, [-4])
    assert d.n_bundle == 1


def test_empty_stratum_is_identity():
    datum = _datum(5, True, [2])
    d = stratum_descriptor(datum, frozenset())
    assert d.s_of_t == datum.s
    assert d.n_bundle == 0
    assert d.level_t["p1"] == datum.level("p1")


def test_t_prime_even_everywhere_exhaustive():
    for _, system, datum, d in _small_strata():
        marker = 1 if "p1" in d.t_prime_p else 0
        assert (len(d.t_prime_infty["p1"]) + marker) % 2 == 0
        # the new ramification set is a valid even set
        d.s_of_t.validate(system)
        assert d.i_t == d.s_of_t.s_infty - (datum.s.s_infty | d.t)
        # the descriptor carries the chains of exactly its A1/B1 primes
        chained = {pid for pid, tag in d.case_tags.items() if tag in (CaseTag.A1, CaseTag.B1)}
        assert set(d.chains) == chained
        for pid in chained:
            assert d.chains[pid] == chain_decompose(datum, pid, d.t)


def test_descriptor_json_shape():
    datum = _datum(4, False)
    data = descriptor_to_json(stratum_descriptor(datum, _t(4, [1])))
    assert data["T"] == [["p1", 1]]
    assert data["N"] == 1
    assert data["cases"] == {"p1": "A1"}


# --- lifts -------------------------------------------------------------------


def test_lift_singleton_example():
    datum = _datum(4, True)
    d = stratum_descriptor(datum, _t(4, [1]))
    lift = lift_assignment(datum, d)
    assert lift.s_tilde_of_t == frozenset({EmbE("p1", 0, 1), EmbE("p1", 1, 0)})
    assert lift.i_tilde_t == frozenset({EmbE("p1", 0, 0)})


def test_lift_a2_example():
    datum = _datum(2, True)
    d = stratum_descriptor(datum, _t(2, [0, 1]))
    # the anchor is the least-index place of T, here p1:0
    lift = lift_assignment(datum, d)
    assert lift.s_tilde_of_t == frozenset({EmbE("p1", 0, 0), EmbE("p1", 1, 1)})


def test_lift_b2_example():
    datum = _datum(3, False)
    d = stratum_descriptor(datum, _t(3, [0, 1, 2]))
    lift = lift_assignment(datum, d)
    assert lift.s_tilde_of_t == frozenset(
        {EmbE("p1", 0, 0), EmbE("p1", 0, 4), EmbE("p1", 0, 2)}
    )


def test_lift_b2_requires_inert():
    datum = _datum(3, True)
    d = stratum_descriptor(datum, _t(3, [0, 1, 2]))
    with pytest.raises(StratumError, match="requires the prime to be inert upstairs"):
        lift_assignment(datum, d)


@pytest.mark.parametrize(
    "s_lift, message",
    [
        ({EmbE("p1", 0, 1)}, "does not lift a ramified embedding"),
        ({EmbE("p1", 0, 0), EmbE("p1", 1, 0)}, "two lifts supplied for"),
    ],
)
def test_lift_rejects_bad_s_lift(s_lift, message):
    datum = _datum(3, True, [0])
    d = stratum_descriptor(datum, frozenset())
    with pytest.raises(StratumError, match=message):
        lift_assignment(datum, d, s_lift=frozenset(s_lift))


def test_lift_bijectivity_exhaustive():
    for (_, e_split, _, _), system, datum, d in _small_strata():
        if d.case_at("p1") is CaseTag.B2 and e_split:
            continue
        lift = lift_assignment(datum, d)
        assert {restrict(system, e) for e in lift.s_tilde_of_t} == set(
            d.s_of_t.s_infty
        )
        assert len(lift.s_tilde_of_t) == len(d.s_of_t.s_infty)
        assert {restrict(system, e) for e in lift.i_tilde_t} == set(d.i_t)


def _sweep_lifts():
    """Each of ``_small_strata`` with its lift choice and delta sets, or the
    StratumError text."""
    rows = []
    for key, _, datum, d in _small_strata():
        try:
            lift = lift_assignment(datum, d)
        except StratumError as exc:
            rows.append([*key, str(exc)])
            continue
        delta = delta_sets(datum, d, lift)
        recipes = [
            [pid, [[base, offsets] for base, offsets in entries]]
            for pid, entries in lift.recipes.items()
        ]
        rows.append([
            *key,
            sorted(lift.s_tilde_of_t), sorted(lift.i_tilde_t), recipes,
            sorted(delta.plus), sorted(delta.minus),
        ])
    return rows


def test_lift_choices_are_pinned():
    # the rendering hides how a recipe is stored, so only a changed lift,
    # recipe, delta set or error message moves the digest
    rows = _sweep_lifts()
    assert len(rows) == 2184
    assert sum(isinstance(row[4], str) for row in rows) == 63
    rendered = json.dumps(rows, separators=(",", ":")).encode()
    assert hashlib.sha256(rendered).hexdigest() == (
        "b6ccb259156cefb8fdec34000514693b916e7e30daff30bca5026405b03f7d5a"
    )


# --- delta sets --------------------------------------------------------------


def _delta(f, e_split, s_indices, t_indices, **kwargs):
    datum = _datum(f, e_split, s_indices)
    d = stratum_descriptor(datum, _t(f, t_indices))
    lift = lift_assignment(datum, d, **kwargs)
    return datum, d, lift, delta_sets(datum, d, lift)


def test_delta_singleton_example():
    datum, _, _, delta = _delta(4, True, (), [1])
    assert delta.minus == frozenset({EmbE("p1", 0, 1)})
    assert delta.plus == frozenset({EmbE("p1", 1, 1)})


def test_delta_sharp_passthrough():
    system = build_place_system([(2, True)])
    datum = make_datum(system, set(system.arch_places()), level={"p1": Level.IWAHORI})
    d = stratum_descriptor(datum, frozenset())
    lift = lift_assignment(datum, d)
    delta = delta_sets(datum, d, lift)
    assert delta.plus == frozenset() and delta.minus == frozenset()


def test_prime_in_s_p_passes_through_every_descriptor():
    # p2 is ramified at p, with its whole cycle in S_infty and a maximal order
    system = build_place_system([(2, True), (3, True)])
    datum = make_datum(system, system.arch_places("p2"), s_p={"p2"})
    assert datum.s.n_other == 0 and datum.level("p2") is Level.MAXIMAL_ORDER
    for indices in ((), (0,), (0, 1)):
        t = frozenset(ArchPlace("p1", i) for i in indices)
        d = stratum_descriptor(datum, t)
        assert d.case_at("p2") is CaseTag.B_SHARP_PASS
        assert d.level_t["p2"] is Level.MAXIMAL_ORDER
        assert d.s_of_t.s_p == {"p2"}
        lift = lift_assignment(datum, d)
        assert lift.recipes["p2"] == ()
        delta = delta_sets(datum, d, lift)
        assert all(emb.prime_id == "p1" for emb in delta.plus | delta.minus)
        assert bool(delta.minus) == bool(t)
        if indices == (0,):
            assert d.case_at("p1") is CaseTag.A1 and d.n_bundle == 1


def test_delta_b2_example():
    _, _, _, delta = _delta(3, False, (), [0, 1, 2])
    assert delta.plus == frozenset()
    assert delta.minus == frozenset(
        {EmbE("p1", 0, 0), EmbE("p1", 0, 4), EmbE("p1", 0, 2)}
    )


def test_delta_plus_is_conjugate_of_minus_outside_b2():
    for (_, e_split, _, _), system, datum, d in _small_strata():
        if d.case_at("p1") is CaseTag.B2 and e_split:
            continue
        lift = lift_assignment(datum, d)
        delta = delta_sets(datum, d, lift)
        if d.case_at("p1") is CaseTag.B2:
            assert delta.plus == frozenset()
        else:
            assert delta.plus == frozenset(
                conjugate(system, e) for e in delta.minus
            )


# --- signatures and the dimension count --------------------------------------


def test_signature_from_lift_basics():
    datum = _datum(4, True)
    prof = signature_from_lift(datum, frozenset())
    assert set(prof.values()) == {1}
    # a profile is a FrozenMap: it equals the plain dict of its items
    assert prof == dict.fromkeys(datum.places.embeddings(), 1)
    prof = signature_from_lift(datum, frozenset({EmbE("p1", 0, 1)}))
    assert prof[EmbE("p1", 0, 1)] == 0
    assert prof[EmbE("p1", 1, 1)] == 2
    assert prof[EmbE("p1", 0, 0)] == 1


def test_signature_rejects_double_lift():
    datum = _datum(4, True)
    with pytest.raises(StratumError):
        signature_from_lift(
            datum, frozenset({EmbE("p1", 0, 1), EmbE("p1", 1, 1)})
        )


def test_dimension_count_singleton():
    datum, d, lift, delta = _delta(4, True, (), [1])
    s = signature_from_lift(datum, frozenset())
    out = dimension_count_check(datum, s, delta)
    assert out[EmbE("p1", 0, 1)] == 0
    assert out[EmbE("p1", 0, 0)] == 2
    assert out == signature_from_lift(datum, lift.s_tilde_of_t)


def test_dimension_count_rejects_an_inconsistent_transfer():
    # delta- = {e}, delta+ = {sigma e}: the all-1 signature drops to -1 at e
    datum = _datum(2, True)
    emb = EmbE("p1", 0, 0)
    delta = DeltaSets(plus=frozenset({frobenius_shift(datum.places, emb, 1)}), minus=frozenset({emb}))
    with pytest.raises(StratumError) as err:
        dimension_count_check(datum, signature_from_lift(datum, frozenset()), delta)
    assert type(err.value) is StratumError
    assert str(err.value) == (
        "inconsistent signature transfer at EmbE(prime_id='p1', sheet=0, i=0): -1"
    )


def test_dimension_count_identity_exhaustive_small():
    for (_, e_split, _, _), system, datum, d in _small_strata():
        if d.case_at("p1") is CaseTag.B2 and e_split:
            continue
        lift = lift_assignment(datum, d)
        delta = delta_sets(datum, d, lift)
        base = signature_from_lift(
            datum,
            frozenset(
                e for e in lift.s_tilde_of_t
                if restrict(system, e) in datum.s.s_infty
            ),
        )
        assert dimension_count_check(datum, base, delta) == (
            signature_from_lift(datum, lift.s_tilde_of_t)
        )


# --- run lemmas (exit/entry structure of the delta sets) ----------------------


def _runs_exit_correctly(datum, d, lift, delta):
    """Every maximal backward run in a delta set exits into the corrected set."""
    system = datum.places
    t_prime_e = {
        e
        for e in system.embeddings()
        if restrict(system, e) in d.t_prime_infty["p1"]
    }
    for part in (delta.minus, delta.plus):
        for emb in part:
            if frobenius_shift(system, emb, 1) in part:
                continue  # not a run head
            n = 1
            while frobenius_shift(system, emb, -n) in part:
                n += 1
            landing = frobenius_shift(system, emb, -n)
            assert landing in t_prime_e
            if emb in t_prime_e:
                tau = restrict(system, emb)
                assert n == n_tau(datum, tau)[0]


def test_run_lemmas_singleton_and_b2():
    for args in [(4, True, (), [1]), (3, False, (), [0, 1, 2]), (10, True, (-2, -6), [-3, -5, -7])]:
        datum, d, lift, delta = _delta(*args)
        _runs_exit_correctly(datum, d, lift, delta)


def test_adjacent_delta_members_force_s():
    for f in range(1, 7):
        system = build_place_system([(f, False)])
        for s_bits, t_bits in itertools.product(range(2**f), repeat=2):
            if s_bits & t_bits:
                continue
            s_set = {ArchPlace("p1", i) for i in range(f) if s_bits >> i & 1}
            datum = make_datum(system, s_set)
            t = frozenset(ArchPlace("p1", i) for i in range(f) if t_bits >> i & 1)
            d = stratum_descriptor(datum, t)
            lift = lift_assignment(datum, d)
            delta = delta_sets(datum, d, lift)
            for part in (delta.plus, delta.minus):
                for emb in part:
                    if frobenius_shift(system, emb, 1) in part:
                        assert restrict(system, emb) in datum.s.s_infty
