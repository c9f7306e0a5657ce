"""Link calculus on cyclic bands: non-crossing matchings with displacements.

A band is a cycle of ``n`` points, some of which are nodes (the rest carry plus
signs).  A link matches the nodes of a source band to those of a target band by
curves drawn on a cylinder; each curve is recorded by its integer displacement
(positive to the right).  Links compose, invert, and carry a total displacement
that is additive under composition.  Link morphisms additionally carry an
indentation degree, with fixed formulas for the standard correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from . import GostrataError
from .places import ArchPlace, EmbE, FrozenMap, ShimuraDatum, canonical_lift, n_tau


class LinkError(GostrataError):
    """Raised for structurally invalid link data or inapplicable morphisms."""


@dataclass(frozen=True)
class Band:
    """A cycle of ``n`` points with a distinguished node subset."""

    n: int
    nodes: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise LinkError("band length must be positive")
        if any(not 0 <= v < self.n for v in self.nodes):
            raise LinkError("node out of range")


@dataclass(frozen=True)
class Link:
    """A matching of band nodes; ``disp`` maps each source node to the
    displacement of its curve, in node order."""

    source: Band
    target: Band
    disp: FrozenMap


def make_link(source: Band, target: Band, disp: Mapping[int, int]) -> Link:
    """Build and validate a link; raises LinkError on any violation."""
    link = Link(source, target, FrozenMap(sorted(disp.items())))
    problems = validate_link(link)
    if problems:
        raise LinkError("; ".join(problems))
    return link


def validate_link(link: Link) -> list[str]:
    """Check bijectivity and the non-crossing condition; return violations."""
    problems: list[str] = []
    disp = link.disp
    if link.source.n != link.target.n:
        problems.append("source and target bands have different lengths")
        return problems
    n = link.source.n
    if set(disp) != set(link.source.nodes):
        problems.append("displacement map must cover exactly the source nodes")
        return problems
    if len(link.source.nodes) != len(link.target.nodes):
        problems.append("node counts differ")
        return problems
    ends = {v: (v + disp[v]) % n for v in link.source.nodes}
    if any(e not in link.target.nodes for e in ends.values()):
        problems.append("a curve ends away from a target node")
    if len(set(ends.values())) != len(ends):
        problems.append("curves collide: endpoint map is not a bijection")
    if problems:
        return problems
    order = sorted(link.source.nodes)
    for k, v in enumerate(order):
        w = order[(k + 1) % len(order)]
        lift_w = w if k + 1 < len(order) else w + n
        if not v + disp[v] < lift_w + disp[w]:
            problems.append(
                f"curves from nodes {v} and {w} cross"
            )
    return problems


def link_warnings(link: Link) -> list[str]:
    """Non-fatal observations, e.g. curves winding the full cylinder."""
    n = link.source.n
    return [
        f"curve at node {v} winds the cylinder (|disp| >= {n})"
        for v, d in link.disp.items()
        if abs(d) >= n
    ]


def total_displacement(link: Link) -> int:
    return sum(link.disp.values())


def compose(second: Link, first: Link) -> Link:
    """The link obtained by stacking ``first`` then ``second``."""
    if second.source != first.target:
        raise LinkError("bands do not match for composition")
    n = first.source.n
    d2 = second.disp
    disp = {
        v: d + d2[(v + d) % n]
        for v, d in first.disp.items()
    }
    return make_link(first.source, second.target, disp)


def invert(link: Link) -> Link:
    n = link.source.n
    disp = {(v + d) % n: -d for v, d in link.disp.items()}
    return make_link(link.target, link.source, disp)


def identity_link(band: Band) -> Link:
    return make_link(band, band, {v: 0 for v in band.nodes})


def is_right_turning(link: Link) -> bool:
    """Whether every curve has positive displacement."""
    return all(d > 0 for d in link.disp.values())


def band_of(datum: ShimuraDatum, prime_id: str) -> Band:
    """The band of a datum at a prime: nodes are the unramified embeddings."""
    slot = datum.places.prime(prime_id)
    return Band(slot.f, frozenset(tau.i for tau in datum.free_places(prime_id)))


def frobenius_link(datum: ShimuraDatum, prime_id: str, k: int = 1) -> Link:
    """The k-fold unit right rotation from the band of S to that of sigma^k(S)."""
    if k < 0:
        raise LinkError("Frobenius power must be nonnegative")
    source = band_of(datum, prime_id)
    target = Band(source.n, frozenset((v + k) % source.n for v in source.nodes))
    return make_link(source, target, {v: k for v in source.nodes})


class MorphismKind(Enum):
    PARTIAL_FROBENIUS = "PartialFrobenius"
    DELTA_TAU0 = "DeltaTau0"
    ETA_TAU_MINUS_PLUS = "EtaTauMinusPlus"
    TRIVIAL_HECKE = "TrivialHecke"
    COMPOSITE = "Composite"


# the kinds ``standard_morphism`` constructs; COMPOSITE only labels results
STANDARD_KINDS = (
    MorphismKind.PARTIAL_FROBENIUS, MorphismKind.DELTA_TAU0,
    MorphismKind.ETA_TAU_MINUS_PLUS, MorphismKind.TRIVIAL_HECKE,
)


@dataclass(frozen=True)
class LinkMorphismDescriptor:
    link: Link
    indentation: int
    note: MorphismKind
    degree: int | None = None


def compose_morphisms(
    second: LinkMorphismDescriptor, first: LinkMorphismDescriptor
) -> LinkMorphismDescriptor:
    """Indentations add; degrees multiply when both are known."""
    degree = None
    if first.degree is not None and second.degree is not None:
        degree = first.degree * second.degree
    return LinkMorphismDescriptor(
        link=compose(second.link, first.link),
        indentation=first.indentation + second.indentation,
        note=MorphismKind.COMPOSITE,
        degree=degree,
    )


def standard_morphism(
    kind: MorphismKind,
    datum: ShimuraDatum,
    prime_id: str,
    p: int | None = None,
    tau: ArchPlace | None = None,
    s_tilde: frozenset[EmbE] | None = None,
    sheet: int = 0,
) -> LinkMorphismDescriptor:
    """The standard correspondences with their indentation degrees.

    - PARTIAL_FROBENIUS: the sigma^2 rotation; indentation 0 (inert) or twice
      the sheet imbalance of the chosen lift set ``s_tilde`` (split), by
      default the canonical lifts of S_infty at the prime, all on sheet 0.
    - DELTA_TAU0: requires a fully ramified cycle; trivial link, indentation
      0 (inert) or +2 / -2 by the ``sheet`` of the chosen lift, by default
      the canonical lift's sheet 0.
    - ETA_TAU_MINUS_PLUS: straight lines except one curve from tau-minus to
      tau-plus; total displacement n_tau + n_{tau_plus}, finite flat degree
      p to that power, indentation n_{tau_plus} - n_tau (split) or 0 (inert).
    - TRIVIAL_HECKE: requires exactly two unramified embeddings {tau, tau_minus};
      trivial link, indentation 2(f - n_tau).
    """
    slot = datum.places.prime(prime_id)
    if kind not in STANDARD_KINDS:
        raise LinkError(f"no standard construction for {kind}")
    if kind is MorphismKind.PARTIAL_FROBENIUS:
        link = frobenius_link(datum, prime_id, 2)
        indent = 0
        if slot.e_split:
            if s_tilde is None:
                s_tilde = frozenset(canonical_lift(datum.places, tau) for tau in datum.s.s_infty)
            indent = sum(2 if emb.sheet else -2 for emb in s_tilde if emb.prime_id == prime_id)
        return LinkMorphismDescriptor(link, indent, kind)

    if kind is MorphismKind.DELTA_TAU0:
        if datum.free_places(prime_id):
            raise LinkError("this correspondence needs a fully ramified cycle")
        link = identity_link(band_of(datum, prime_id))
        indent = 0
        if slot.e_split:
            if sheet not in (0, 1):
                raise LinkError("split case needs the sheet of the chosen lift")
            indent = 2 if sheet == 0 else -2
        return LinkMorphismDescriptor(link, indent, kind)

    if kind is MorphismKind.ETA_TAU_MINUS_PLUS:
        if tau is None:
            raise LinkError("tau required")
        n, tau_minus, tau_plus = n_tau(datum, tau)
        if tau_minus == tau:
            raise LinkError("requires at least two unramified embeddings")
        if tau_plus == tau_minus:
            raise LinkError(
                "with exactly two unramified embeddings use TRIVIAL_HECKE"
            )
        n_plus = n_tau(datum, tau_plus)[0]
        nodes = band_of(datum, prime_id).nodes
        source = Band(slot.f, nodes - {tau.i, tau_plus.i})
        target = Band(slot.f, nodes - {tau.i, tau_minus.i})
        disp = {v: 0 for v in source.nodes}
        disp[tau_minus.i] = n + n_plus
        link = make_link(source, target, disp)
        indent = (n_plus - n) if slot.e_split else 0
        degree = None if p is None else p ** (n + n_plus)
        return LinkMorphismDescriptor(link, indent, kind, degree)

    # TRIVIAL_HECKE
    if tau is None:
        raise LinkError("tau required")
    n, tau_minus, _ = n_tau(datum, tau)
    # one free place has tau_minus = tau, so {tau, tau_minus} alone would pass
    if tau_minus == tau or set(datum.free_places(prime_id)) != {tau, tau_minus}:
        raise LinkError("requires exactly the two unramified embeddings tau and tau-minus")
    link = identity_link(Band(slot.f, frozenset()))
    return LinkMorphismDescriptor(link, 2 * (slot.f - n), kind)


def induced_link(
    eta: Link,
    datum: ShimuraDatum,
    prime_id: str,
    tau: ArchPlace,
    indent_n: int,
) -> tuple[Link, int]:
    """Remove the curves at ``tau`` and ``tau_minus`` from a one-turn link.

    ``eta`` must be straight except for at most one right-turning curve at a
    node ``tau0``; the result is the restricted link together with the new
    indentation: 0 (inert); ``indent_n`` (split, generic); ``indent_n`` minus
    or plus the turn size when ``tau`` is the turning node or its successor.
    """
    slot = datum.places.prime(prime_id)
    source_band = band_of(datum, prime_id)
    if eta.source != source_band:
        raise LinkError("link does not start at the band of the datum")
    turning = [(v, d) for v, d in eta.disp.items() if d != 0]
    if len(turning) > 1 or any(d < 0 for _, d in turning):
        raise LinkError("link must be straight except one right-turning curve")
    tau0_i, m_tau0 = turning[0] if turning else (None, 0)

    n, tau_minus, _ = n_tau(datum, tau)
    if tau_minus == tau:
        raise LinkError("requires at least two unramified embeddings")
    if tau.i not in eta.source.nodes:
        raise LinkError(f"{tau} is not a node of the link")
    disp = eta.disp
    removed = {tau.i, tau_minus.i}
    new_source = Band(slot.f, frozenset(eta.source.nodes - removed))
    removed_targets = {(v + disp[v]) % slot.f for v in removed}
    new_target = Band(slot.f, frozenset(eta.target.nodes - removed_targets))
    new_disp = {v: disp[v] for v in new_source.nodes}
    restricted = make_link(new_source, new_target, new_disp)

    if not slot.e_split:
        m = 0
    elif tau0_i is not None and tau.i == tau0_i:
        m = indent_n - m_tau0
    elif tau0_i is not None and tau_minus.i == tau0_i:
        # tau is the successor of the turning node: tau = tau0-plus
        m = indent_n + m_tau0
    else:
        m = indent_n
    return restricted, m


# --- rendering and serialization ---------------------------------------------


def render_band_ascii(band: Band) -> str:
    """One line of bullets (nodes) and plus signs, in cycle order."""
    if band.n > 200:
        raise LinkError("band too long to render")
    return " ".join("•" if v in band.nodes else "+" for v in range(band.n))


def render_link_ascii(link: Link) -> str:
    """Three lines: source band, curve displacements, target band."""
    curves = " ".join(
        f"{v}→{(v + d) % link.source.n}(disp={d})" for v, d in link.disp.items()
    )
    return "\n".join(
        [
            render_band_ascii(link.source),
            curves if curves else "(trivial link)",
            render_band_ascii(link.target),
        ]
    )


def link_to_json(link: Link) -> dict:
    return {
        "n": link.source.n,
        "source_nodes": sorted(link.source.nodes),
        "target_nodes": sorted(link.target.nodes),
        "disp": {str(v): d for v, d in link.disp.items()},
    }


def link_from_json(data: Mapping, validate: bool = True) -> Link:
    """Parse a link; ``validate=False`` skips ``make_link``'s checks, for reporting."""
    n = int(data["n"])
    source = Band(n, frozenset(int(v) for v in data["source_nodes"]))
    target = Band(n, frozenset(int(v) for v in data["target_nodes"]))
    disp = {int(v): int(d) for v, d in data["disp"].items()}
    if validate:
        return make_link(source, target, disp)
    return Link(source, target, FrozenMap(sorted(disp.items())))
