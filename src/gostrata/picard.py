"""Rational Picard bookkeeping: Hasse relations, divisor classes, ampleness.

Classes live in the rational span of the basic line-bundle classes indexed by
the unramified archimedean embeddings.  The Hasse relation matrix has -1 on
the diagonal and p^{n_tau} linking each embedding to its gap predecessor; when
the predecessor coincides with the embedding itself the two contributions fold
onto the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import GostrataError
from .places import ArchPlace, ShimuraDatum, n_tau


class PicardError(GostrataError):
    """Raised for inputs outside the Picard bookkeeping domain."""


@dataclass(frozen=True)
class PicardVector:
    coeffs: tuple[tuple[ArchPlace, Fraction], ...]

    def at(self, tau: ArchPlace) -> Fraction:
        for key, value in self.coeffs:
            if key == tau:
                return value
        return Fraction(0)


@dataclass(frozen=True)
class HasseMatrix:
    basis: tuple[ArchPlace, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def determinant(self) -> Fraction:
        return _determinant([list(row) for row in self.rows])


def _determinant(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def hasse_matrix(datum: ShimuraDatum, p: int) -> HasseMatrix:
    """The relation matrix: column tau carries -1 at tau and p^{n_tau} at tau-minus."""
    basis = datum.free_places()
    if not basis:
        raise PicardError("no unramified archimedean embeddings")
    index = {tau: k for k, tau in enumerate(basis)}
    rows = [[Fraction(0)] * len(basis) for _ in basis]
    for tau in basis:
        n, tau_minus, _ = n_tau(datum, tau)
        col = index[tau]
        rows[col][col] += Fraction(-1)
        rows[index[tau_minus]][col] += Fraction(p**n)
    return HasseMatrix(basis, tuple(tuple(row) for row in rows))


def _free_gap(datum: ShimuraDatum, tau: ArchPlace) -> tuple[int, ArchPlace, ArchPlace]:
    """``n_tau`` at a place of the base field; a PicardError if it is ramified."""
    datum.places.check_base(tau)
    if tau in datum.s.s_infty:
        raise PicardError(f"{tau} is ramified")
    return n_tau(datum, tau)


def divisor_class(datum: ShimuraDatum, p: int, tau: ArchPlace) -> PicardVector:
    """The class of the vanishing divisor at tau: p^{n_tau} e_{tau-minus} - e_tau."""
    n, tau_minus, _ = _free_gap(datum, tau)
    coeffs: dict[ArchPlace, Fraction] = {}
    coeffs[tau_minus] = coeffs.get(tau_minus, Fraction(0)) + Fraction(p**n)
    coeffs[tau] = coeffs.get(tau, Fraction(0)) - 1
    return PicardVector(tuple(sorted(coeffs.items())))


def fiber_degree(
    datum: ShimuraDatum, p: int, cls: PicardVector, tau: ArchPlace
) -> Fraction:
    """Degree of a class on the rational-curve fiber in the tau direction.

    Only the tau and tau-minus coordinates restrict nontrivially, with degrees
    p^{n_tau} and -1 respectively; when tau-minus = tau both land on the same
    coordinate.
    """
    n, tau_minus, _ = _free_gap(datum, tau)
    if tau_minus == tau:
        return (Fraction(p**n) - 1) * cls.at(tau)
    return Fraction(p**n) * cls.at(tau) - cls.at(tau_minus)


def normal_bundle_class(datum: ShimuraDatum, p: int, tau: ArchPlace) -> int:
    """Self-intersection degree of the vanishing divisor along its own fiber."""
    n = _free_gap(datum, tau)[0]
    if len(datum.free_places(tau.prime_id)) <= 1:
        raise PicardError("needs at least two unramified embeddings at the prime")
    return -2 * p**n


def ample_inequalities(
    datum: ShimuraDatum, p: int, t: Sequence[Fraction]
) -> list[tuple[ArchPlace, int, ArchPlace, str | None]]:
    """The inequalities p^{n_tau} t_tau > t_{tau-minus} over the basis, each as
    ``(tau, n_tau, tau_minus, violation)``, the violation None where it holds;
    ``t`` holds one weight per free place, in the order of ``free_places()``."""
    basis = datum.free_places()
    if len(t) != len(basis):
        raise PicardError("weight vector length must match the basis")
    t = dict(zip(basis, t))
    out = []
    for tau in basis:
        n, tau_minus, _ = n_tau(datum, tau)
        lhs = Fraction(p**n) * Fraction(t[tau])
        rhs = Fraction(t[tau_minus])
        violation = None if lhs > rhs else (
            f"p^{n}*t[{tau.prime_id},{tau.i}] = {lhs} is not greater than "
            f"t[{tau_minus.prime_id},{tau_minus.i}] = {rhs}"
        )
        out.append((tau, n, tau_minus, violation))
    return out


def ample_necessary(datum: ShimuraDatum, p: int, t: Sequence[Fraction]) -> list[str]:
    """Check the inequalities p^{n_tau} t_tau > t_{tau-minus} for a weight
    sequence in the order of ``free_places()``; list violations."""
    return [v for *_, v in ample_inequalities(datum, p, t) if v is not None]
