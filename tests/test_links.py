from __future__ import annotations

import itertools
import random

import pytest

from gostrata.links import (
    STANDARD_KINDS,
    Band,
    LinkError,
    MorphismKind,
    band_of,
    compose,
    compose_morphisms,
    frobenius_link,
    identity_link,
    induced_link,
    invert,
    is_right_turning,
    link_from_json,
    link_to_json,
    link_warnings,
    make_link,
    render_band_ascii,
    render_link_ascii,
    standard_morphism,
    total_displacement,
    validate_link,
    Link,
)
from gostrata.places import (
    ArchPlace,
    EmbE,
    FrozenMap,
    build_place_system,
    canonical_lift,
    make_datum,
)


def _datum(f, e_split, s_indices=()):
    system = build_place_system([(f, e_split)])
    return make_datum(system, {ArchPlace("p1", i % f) for i in s_indices})


def _paper_link() -> Link:
    source = Band(5, frozenset({0, 2, 4}))
    target = Band(5, frozenset({0, 2, 3}))
    return make_link(source, target, {0: 3, 2: 3, 4: 3})


# --- oracle: brute-force geometric crossing test -----------------------------


def _curves_cross(n: int, c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    (v, d), (w, e) = c1, c2
    span = 2 + (abs(d) + abs(e)) // n
    for k in range(-span, span + 1):
        top = v - w - k * n
        bottom = (v + d) - (w + e) - k * n
        if top == 0 or bottom == 0:
            return True
        if (top > 0) != (bottom > 0):
            return True
    return False


def _oracle_valid(link: Link) -> bool:
    n = link.source.n
    disp = link.disp
    if set(disp) != set(link.source.nodes):
        return False
    ends = [(v + d) % n for v, d in disp.items()]
    if set(ends) != set(link.target.nodes) or len(set(ends)) != len(ends):
        return False
    return not any(
        _curves_cross(n, c1, c2)
        for c1, c2 in itertools.combinations(disp.items(), 2)
    )


def test_validator_matches_geometric_oracle_randomized():
    rng = random.Random(20260823)
    for _ in range(400):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n + 1)
        source_nodes = frozenset(rng.sample(range(n), k))
        disp = {v: rng.randrange(-n, n + 1) for v in source_nodes}
        target_nodes = frozenset((v + d) % n for v, d in disp.items())
        if len(target_nodes) != k:
            target_nodes = frozenset(rng.sample(range(n), k))
        link = Link(
            Band(n, source_nodes), Band(n, target_nodes), FrozenMap(sorted(disp.items()))
        )
        assert (validate_link(link) == []) == _oracle_valid(link)


# --- basic examples ----------------------------------------------------------


def test_paper_link_is_valid_with_v_nine():
    link = _paper_link()
    assert validate_link(link) == []
    assert total_displacement(link) == 9
    assert is_right_turning(link)


def test_identity_link_is_valid():
    band = Band(4, frozenset({0, 1, 3}))
    link = identity_link(band)
    assert validate_link(link) == []
    assert total_displacement(link) == 0


def test_colliding_curves_rejected():
    with pytest.raises(LinkError, match="collide"):
        make_link(Band(4, frozenset({0, 1})), Band(4, frozenset({0, 1})), {0: 1, 1: 0})


def test_crossing_curves_rejected():
    # distinct endpoints but interleaved curves
    with pytest.raises(LinkError, match="cross"):
        make_link(Band(4, frozenset({0, 1})), Band(4, frozenset({1, 2})), {0: 2, 1: 0})


def test_winding_warning():
    band = Band(3, frozenset({0}))
    link = make_link(band, band, {0: 3})
    assert link_warnings(link)
    assert validate_link(link) == []


def test_invert_and_compose():
    link = _paper_link()
    rev = invert(link)
    assert total_displacement(rev) == -9
    round_trip = compose(rev, link)
    assert round_trip == identity_link(link.source)
    assert total_displacement(round_trip) == 0


def random_valid_link(rng: random.Random, n: int, nodes: list[int]) -> Link:
    """A uniform-ish random valid link out of the given source nodes."""
    k = len(nodes)
    targets = sorted(rng.sample(range(n), k))
    rotation = rng.randrange(k)
    winding = rng.randrange(-1, 2)
    disp = {}
    for idx, v in enumerate(sorted(nodes)):
        j = idx + rotation
        lift = targets[j % k] + n * (j // k) + winding * n
        disp[v] = lift - v
    return make_link(
        Band(n, frozenset(nodes)), Band(n, frozenset(targets)), disp
    )


def test_compose_additivity_randomized():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n + 1)
        l1 = random_valid_link(rng, n, rng.sample(range(n), k))
        l2 = random_valid_link(rng, n, sorted(l1.target.nodes))
        combined = compose(l2, l1)
        assert total_displacement(combined) == total_displacement(l1) + total_displacement(l2)
        assert validate_link(combined) == []


def test_band_of_and_render():
    datum = _datum(5, True, [1, 3])
    band = band_of(datum, "p1")
    assert band == Band(5, frozenset({0, 2, 4}))
    assert render_band_ascii(band) == "• + • + •"
    assert render_band_ascii(Band(3, frozenset())) == "+ + +"
    assert len(render_link_ascii(_paper_link()).splitlines()) == 3


def test_frobenius_link():
    datum = _datum(4, True)
    link = frobenius_link(datum, "p1", 2)
    assert all(d == 2 for d in link.disp.values())
    assert total_displacement(link) == 8
    datum5 = _datum(5, True, [1, 3])
    assert total_displacement(frobenius_link(datum5, "p1", 1)) == 3
    full = _datum(2, True, [0, 1])
    assert total_displacement(frobenius_link(full, "p1", 1)) == 0


def test_link_json_roundtrip():
    link = _paper_link()
    data = link_to_json(link)
    assert data == {
        "n": 5,
        "source_nodes": [0, 2, 4],
        "target_nodes": [0, 2, 3],
        "disp": {"0": 3, "2": 3, "4": 3},
    }
    assert link_from_json(data) == link


# --- standard morphisms ------------------------------------------------------


def test_only_the_standard_kinds_have_a_construction():
    datum = _datum(4, True, [1, 2])
    assert set(MorphismKind) - set(STANDARD_KINDS) == {MorphismKind.COMPOSITE}
    with pytest.raises(LinkError, match="no standard construction"):
        standard_morphism(MorphismKind.COMPOSITE, datum, "p1", tau=ArchPlace("p1", 3))


def test_partial_frobenius_indentation_split():
    datum = _datum(4, True)
    s_tilde = frozenset(
        {EmbE("p1", 0, 0), EmbE("p1", 1, 1), EmbE("p1", 1, 2), EmbE("p1", 1, 3)}
    )
    desc = standard_morphism(
        MorphismKind.PARTIAL_FROBENIUS, datum, "p1", s_tilde=s_tilde
    )
    assert desc.indentation == 4
    assert all(d == 2 for d in desc.link.disp.values())


def test_partial_frobenius_indentation_inert_zero():
    datum = _datum(4, False)
    desc = standard_morphism(MorphismKind.PARTIAL_FROBENIUS, datum, "p1")
    assert desc.indentation == 0


def test_split_partial_frobenius_defaults_to_the_canonical_lifts():
    # f = 3 split, S_infty = {p1:0}: the canonical lift sits on sheet 0
    datum = _datum(3, True, [0])
    desc = standard_morphism(MorphismKind.PARTIAL_FROBENIUS, datum, "p1")
    assert desc.indentation == -2
    assert all(d == 2 for d in desc.link.disp.values())
    # a second prime's S_infty does not count at p1
    two = make_datum(
        build_place_system([(3, True), (2, True)]),
        {ArchPlace("p1", 0), ArchPlace("p2", 0), ArchPlace("p2", 1)},
    )
    for d in (datum, two):
        canonical = frozenset(canonical_lift(d.places, tau) for tau in d.s.s_infty)
        for slot in d.places.primes:
            assert standard_morphism(
                MorphismKind.PARTIAL_FROBENIUS, d, slot.id
            ) == standard_morphism(MorphismKind.PARTIAL_FROBENIUS, d, slot.id, s_tilde=canonical)
    assert standard_morphism(MorphismKind.PARTIAL_FROBENIUS, two, "p1").indentation == -2
    assert standard_morphism(MorphismKind.PARTIAL_FROBENIUS, two, "p2").indentation == -4


def test_delta_tau0_indentations():
    split_full = _datum(2, True, [0, 1])
    # without a sheet, the canonical lift's sheet 0
    default = standard_morphism(MorphismKind.DELTA_TAU0, split_full, "p1")
    assert default == standard_morphism(MorphismKind.DELTA_TAU0, split_full, "p1", sheet=0)
    with pytest.raises(LinkError, match=r"^split case needs the sheet of the chosen lift$"):
        standard_morphism(MorphismKind.DELTA_TAU0, split_full, "p1", sheet=2)
    assert (
        standard_morphism(MorphismKind.DELTA_TAU0, split_full, "p1", sheet=0).indentation
        == 2
    )
    assert (
        standard_morphism(MorphismKind.DELTA_TAU0, split_full, "p1", sheet=1).indentation
        == -2
    )
    inert_full = _datum(2, False, [0, 1])
    assert (
        standard_morphism(MorphismKind.DELTA_TAU0, inert_full, "p1").indentation == 0
    )


def test_eta_tau_minus_plus_example():
    datum = _datum(4, True, [2])
    tau = ArchPlace("p1", 1)
    desc = standard_morphism(
        MorphismKind.ETA_TAU_MINUS_PLUS, datum, "p1", p=3, tau=tau
    )
    assert total_displacement(desc.link) == 3
    assert desc.degree == 27
    assert desc.indentation == 1
    assert validate_link(desc.link) == []
    inert = _datum(4, False, [2])
    assert (
        standard_morphism(
            MorphismKind.ETA_TAU_MINUS_PLUS, inert, "p1", tau=tau
        ).indentation
        == 0
    )


def test_trivial_hecke():
    datum = _datum(5, True, [1, 2, 4])
    desc = standard_morphism(
        MorphismKind.TRIVIAL_HECKE, datum, "p1", tau=ArchPlace("p1", 0)
    )
    assert desc.indentation == 6
    assert desc.link.disp == {}
    with pytest.raises(LinkError):
        standard_morphism(
            MorphismKind.TRIVIAL_HECKE, _datum(5, True), "p1", tau=ArchPlace("p1", 0)
        )
    # one free place: tau_minus = tau_plus = tau, which EtaTauMinusPlus rejects too
    one_free = _datum(3, True, [0, 1])
    with pytest.raises(LinkError, match="^requires exactly the two unramified embeddings"):
        standard_morphism(MorphismKind.TRIVIAL_HECKE, one_free, "p1", tau=ArchPlace("p1", 2))
    with pytest.raises(LinkError, match="^requires at least two unramified embeddings$"):
        standard_morphism(MorphismKind.ETA_TAU_MINUS_PLUS, one_free, "p1", tau=ArchPlace("p1", 2))


def test_composite_morphism_adds_indentation():
    datum = _datum(4, True)
    s_tilde = frozenset(EmbE("p1", 0, i) for i in range(0))
    first = standard_morphism(
        MorphismKind.PARTIAL_FROBENIUS, datum, "p1", s_tilde=s_tilde
    )
    shifted = make_datum(datum.places)
    second = standard_morphism(
        MorphismKind.PARTIAL_FROBENIUS, shifted, "p1", s_tilde=s_tilde
    )
    combined = compose_morphisms(second, first)
    assert combined.indentation == first.indentation + second.indentation
    assert total_displacement(combined.link) == 16


# --- induced links -----------------------------------------------------------


def test_induced_link_identity():
    datum = _datum(4, True)
    eta = identity_link(band_of(datum, "p1"))
    restricted, m = induced_link(eta, datum, "p1", ArchPlace("p1", 1), indent_n=5)
    assert m == 5
    assert restricted.source.nodes == frozenset({2, 3})
    inert = _datum(4, False)
    _, m = induced_link(identity_link(band_of(inert, "p1")), inert, "p1", ArchPlace("p1", 1), 5)
    assert m == 0


def test_induced_link_turn_cases():
    # f=6, S empty, turning curve at node 2 with displacement m(tau0)=0 is the
    # identity; build a genuine turn: nodes 0..5, curve at 2 displaced by 1
    # forces a non-bijective picture unless the node at 3 moves too, so use a
    # band with a plus sign at 3.
    datum = _datum(6, True, [3])
    band = band_of(datum, "p1")  # nodes {0,1,2,4,5}
    target = Band(6, frozenset({0, 1, 4, 5, 3}))
    eta = make_link(band, target, {0: 0, 1: 0, 2: 1, 4: 0, 5: 0})
    # tau0 = 2 with m(tau0) = 1; tau0_plus = 4 (node after the gap at 3)
    _, m = induced_link(eta, datum, "p1", ArchPlace("p1", 2), indent_n=7)
    assert m == 6  # tau = tau0: n - m(tau0)
    _, m = induced_link(eta, datum, "p1", ArchPlace("p1", 4), indent_n=7)
    assert m == 8  # tau = tau0-plus: n + m(tau0)
    _, m = induced_link(eta, datum, "p1", ArchPlace("p1", 0), indent_n=7)
    assert m == 7  # generic tau
