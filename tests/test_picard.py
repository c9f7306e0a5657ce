from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gostrata.picard import (
    PicardError,
    PicardVector,
    ample_inequalities,
    ample_necessary,
    divisor_class,
    fiber_degree,
    hasse_matrix,
    normal_bundle_class,
)
from gostrata.places import ArchPlace, PlaceError, build_place_system, make_datum, n_tau


def _datum(f, s_indices=()):
    system = build_place_system([(f, True)])
    return make_datum(system, {ArchPlace("p1", i % f) for i in s_indices})


def test_hasse_matrix_f2():
    matrix = hasse_matrix(_datum(2), 3)
    assert [[int(x) for x in row] for row in matrix.rows] == [[-1, 3], [3, -1]]
    assert matrix.determinant() == -8


def test_hasse_matrix_single_gap_folds():
    datum = _datum(3, [0, 1])
    matrix = hasse_matrix(datum, 3)
    assert matrix.basis == (ArchPlace("p1", 2),)
    assert matrix.rows == ((Fraction(3**3 - 1),),)


def test_hasse_matrix_circulant():
    matrix = hasse_matrix(_datum(3), 2)
    assert abs(matrix.determinant()) == 2**3 - 1


def test_hasse_matrix_invertible_exhaustive():
    for f in range(1, 9):
        system = build_place_system([(f, True)])
        for bits in range(2**f - 1):
            datum = make_datum(
                system, {ArchPlace("p1", i) for i in range(f) if bits >> i & 1}
            )
            for p in (2, 3):
                assert hasse_matrix(datum, p).determinant() != 0


def test_hasse_matrix_requires_nonempty_basis():
    datum = _datum(2, [0, 1])
    with pytest.raises(PicardError):
        hasse_matrix(datum, 3)


def test_divisor_class_examples():
    cls = divisor_class(_datum(2), 3, ArchPlace("p1", 1))
    assert cls.at(ArchPlace("p1", 0)) == 3
    assert cls.at(ArchPlace("p1", 1)) == -1

    datum = _datum(10, [-2, -6])
    cls = divisor_class(datum, 5, ArchPlace("p1", (-5) % 10))
    assert cls.at(ArchPlace("p1", (-7) % 10)) == 25
    assert cls.at(ArchPlace("p1", (-5) % 10)) == -1


def test_divisor_classes_are_hasse_matrix_columns():
    datum = _datum(4, [2])
    p = 3
    matrix = hasse_matrix(datum, p)
    for col, tau in enumerate(matrix.basis):
        cls = divisor_class(datum, p, tau)
        for row, tau_row in enumerate(matrix.basis):
            assert matrix.rows[row][col] == cls.at(tau_row)


def test_fiber_degree_examples():
    datum = _datum(2)
    ones = {tau: Fraction(1) for tau in datum.free_places()}
    from gostrata.picard import PicardVector

    vec = PicardVector(tuple(sorted(ones.items())))
    assert fiber_degree(datum, 3, vec, ArchPlace("p1", 1)) == 2
    other = PicardVector(((ArchPlace("p1", 0), Fraction(1)),))
    # a class supported away from tau and tau-minus restricts trivially
    datum4 = _datum(4)
    far = PicardVector(((ArchPlace("p1", 2), Fraction(1)),))
    assert fiber_degree(datum4, 3, far, ArchPlace("p1", 0)) == 0


def test_fiber_degree_of_own_divisor_matches_normal_bundle():
    for f in range(1, 9):
        system = build_place_system([(f, True)])
        for bits in range(2**f - 1):
            datum = make_datum(
                system, {ArchPlace("p1", i) for i in range(f) if bits >> i & 1}
            )
            free = datum.free_places()
            for p in (2, 3):
                for tau in free:
                    n = n_tau(datum, tau)[0]
                    deg = fiber_degree(datum, p, divisor_class(datum, p, tau), tau)
                    if len(free) > 1:
                        assert deg == -2 * p**n
                        assert normal_bundle_class(datum, p, tau) == deg
                    else:
                        assert deg == (p**n - 1) * (p**n - 1)


def test_normal_bundle_values():
    datum = _datum(2)
    assert normal_bundle_class(datum, 3, ArchPlace("p1", 1)) == -6
    datum10 = _datum(10, [-2, -6])
    assert normal_bundle_class(datum10, 3, ArchPlace("p1", (-5) % 10)) == -18
    assert normal_bundle_class(datum, 2, ArchPlace("p1", 1)) == -4


def test_normal_bundle_precondition():
    datum = _datum(3, [0, 1])
    with pytest.raises(PicardError):
        normal_bundle_class(datum, 3, ArchPlace("p1", 2))


PLACE_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda datum, tau: divisor_class(datum, 3, tau),
        lambda datum, tau: fiber_degree(datum, 3, PicardVector(()), tau),
        lambda datum, tau: normal_bundle_class(datum, 3, tau),
    ],
    ids=["divisor_class", "fiber_degree", "normal_bundle_class"],
)


@PLACE_CALLS
@pytest.mark.parametrize("place", [("p1", 0), ("p1", 1)], ids=["ramified", "free"])
def test_a_plain_tuple_is_not_a_place(call, place):
    """The member check comes first: a tuple equal to a ramified or a free
    place is rejected as not a place, as ``n_tau`` rejects it."""
    datum = _datum(3, [0])
    with pytest.raises(PlaceError) as info:
        call(datum, place)
    assert type(info.value) is PlaceError
    assert str(info.value) == f"{place!r} is neither an ArchPlace nor an EmbE"


@PLACE_CALLS
def test_a_ramified_place_is_refused(call):
    """A place of S_infty has no gap; with one free place left at the prime,
    ``normal_bundle_class`` still names the ramified place first."""
    tau = ArchPlace("p1", 0)
    with pytest.raises(PicardError) as info:
        call(_datum(3, [0, 1]), tau)
    assert str(info.value) == "ArchPlace(prime_id='p1', i=0) is ramified" == f"{tau} is ramified"


def test_weights_must_match_the_basis():
    datum = _datum(3, [0])
    for weights in ([Fraction(1)], [Fraction(1)] * 3):
        with pytest.raises(PicardError) as info:
            ample_inequalities(datum, 3, weights)
        assert str(info.value) == "weight vector length must match the basis"


def test_ample_necessary_examples():
    datum = _datum(2)
    assert ample_necessary(datum, 3, [Fraction(1), Fraction(1)]) == []
    violations = ample_necessary(datum, 3, [Fraction(5), Fraction(1)])
    assert len(violations) == 1 and "p1,1" in violations[0]


def test_ample_pass_implies_positive():
    rng = random.Random(11)
    for _ in range(500):
        f = rng.randrange(1, 6)
        system = build_place_system([(f, True)])
        bits = rng.randrange(2**f - 1)
        datum = make_datum(
            system, {ArchPlace("p1", i) for i in range(f) if bits >> i & 1}
        )
        weights = [
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 5))
            for _ in datum.free_places()
        ]
        if ample_necessary(datum, 2, weights) == []:
            assert all(w > 0 for w in weights)
