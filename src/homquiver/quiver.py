"""The quiver attached to a parabolic geometry.

Vertices are p-dominant weights, and an arrow subtracts a nilradical
root, one wherever both ends are vertices (see ``levi.arrow_multiplicity``
for why the Levi tensor multiplicity is always 0 or 1).  The quiver is
infinite; computations work on finite forward windows.  Relation
instances are only defined for the Borel case, where the relations are
the Serre-type commutation relations with Chevalley coefficients.  An
instance at lam for the pair {beta, gamma} ends at lam - beta - gamma, so
the instances between two support vertices are read off a per-root-system
table of the pairs with a given sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .geometry import ParabolicGeometry
from .rootsystem import Root, RootSystem, Weight

GENERATING = "generating"
DERIVED = "derived"


@dataclass(frozen=True, order=True)
class Arrow:
    source: Weight
    root: Root
    target: Weight
    kind: str


@dataclass(frozen=True)
class QuiverWindow:
    vertices: tuple
    arrows: tuple


@dataclass(frozen=True, order=True)
class RelationInstance:
    """One commutation relation at a vertex: paths beta,gamma vs direct beta+gamma."""

    source: Weight
    beta: Root
    gamma: Root
    coefficient: int  # Chevalley constant N(-beta, -gamma)


def is_vertex(geom: ParabolicGeometry, lam: Weight) -> bool:
    return geom.is_p_dominant(lam)


@lru_cache(maxsize=None)
def _arrow_kinds(geom: ParabolicGeometry) -> tuple:
    """(beta, kind) for each nilradical root, in nilradical order."""
    generating = set(geom.generating_roots)
    return tuple(
        (beta, GENERATING if beta in generating else DERIVED)
        for beta in geom.nilradical_roots
    )


def arrows_from(geom: ParabolicGeometry, lam: Weight) -> tuple:
    """All quiver arrows leaving lam, in deterministic root order."""
    if not is_vertex(geom, lam):
        raise ValueError(f"{lam} is not a vertex for levi {geom.levi}")
    out = []
    for beta, kind in _arrow_kinds(geom):
        mu = tuple(a - b for a, b in zip(lam, beta.fund))
        if geom.is_p_dominant(mu):
            out.append(Arrow(lam, beta, mu, kind))
    return tuple(out)


def quiver_window(geom: ParabolicGeometry, center: Weight, radius: int) -> QuiverWindow:
    """Vertices reachable from center in at most ``radius`` forward arrow
    steps, together with all induced arrows."""
    if not is_vertex(geom, center):
        raise ValueError(f"{center} is not a vertex for levi {geom.levi}")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    out_arrows = {}  # arrows_from of each vertex, computed once
    vertices = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            out_arrows[v] = arrows_from(geom, v)
            for arr in out_arrows[v]:
                if arr.target not in vertices:
                    vertices.add(arr.target)
                    nxt.append(arr.target)
        frontier = nxt
    arrows = []
    for v in sorted(vertices):
        out = out_arrows[v] if v in out_arrows else arrows_from(geom, v)
        arrows.extend(arr for arr in out if arr.target in vertices)
    return QuiverWindow(tuple(sorted(vertices)), tuple(arrows))


def borel_relation_instances(geom: ParabolicGeometry, support) -> tuple:
    """All relation instances touching the given support (Borel only).

    One instance per vertex lam in support and unordered pair of distinct
    positive roots {beta, gamma} such that a composition midpoint or the
    direct target lam - beta - gamma lies in support.
    """
    if not geom.is_borel:
        raise ValueError("relations are only known for the Borel parabolic")
    rs = geom.root_system
    support = set(support)
    out = []
    pos = rs.positive_roots
    for lam in sorted(support):
        for i, beta in enumerate(pos):
            for gamma in pos[i + 1:]:
                mid_b = tuple(a - b for a, b in zip(lam, beta.fund))
                mid_g = tuple(a - b for a, b in zip(lam, gamma.fund))
                end = tuple(a - b for a, b in zip(mid_b, gamma.fund))
                if mid_b in support or mid_g in support or end in support:
                    n = rs.chevalley(-beta, -gamma)
                    out.append(RelationInstance(lam, beta, gamma, n))
    return tuple(out)


@lru_cache(maxsize=None)
def relation_table(rs: RootSystem) -> dict:
    """Unordered pairs of distinct positive roots, grouped by their sum.

    Maps the sum beta + gamma, in fundamental coordinates, to ``(delta,
    entries)``: ``delta`` is the Root beta + gamma or None when the sum is
    no root, and ``entries`` lists ``(i, j, beta, gamma, N(-beta, -gamma))``
    with ``i < j`` indices into ``rs.positive_roots``, in increasing (i, j)
    order, the order of ``borel_relation_instances``.  The table is
    cached and shared; callers must not mutate it.
    """
    pos = rs.positive_roots
    table = {}
    for i, beta in enumerate(pos):
        for j in range(i + 1, len(pos)):
            gamma = pos[j]
            key = tuple(a + b for a, b in zip(beta.fund, gamma.fund))
            if key not in table:
                total = tuple(a + b for a, b in zip(beta.simple, gamma.simple))
                table[key] = (rs.root(total), [])
            table[key][1].append((i, j, beta, gamma, rs.chevalley(-beta, -gamma)))
    return {key: (delta, tuple(entries)) for key, (delta, entries) in table.items()}


def support_relation_instances(geom: ParabolicGeometry, support):
    """Relation instances whose source and end both lie in support (Borel only).

    Yields ``(instance, end, delta)`` with ``end = source - beta - gamma``
    and ``delta`` the Root beta + gamma (None when the sum is no root).
    The instances come in the order of ``borel_relation_instances``
    restricted to ends in the support: by source, then by the (i, j)
    index of the root pair.  Ends are found by subtracting every support
    vertex or every table key from the source, whichever set is smaller.
    """
    if not geom.is_borel:
        raise ValueError("relations are only known for the Borel parabolic")
    table = relation_table(geom.root_system)
    support = set(support)
    by_key = len(table) < len(support)
    for lam in sorted(support):
        if by_key:
            pairs = ((key, tuple(a - b for a, b in zip(lam, key))) for key in table)
            ends = [(key, end) for key, end in pairs if end in support]
        else:
            pairs = ((tuple(a - b for a, b in zip(lam, mu)), mu) for mu in support)
            ends = [(key, mu) for key, mu in pairs if key in table]
        found = []
        for key, end in ends:
            delta, entries = table[key]
            found.extend(entry + (end, delta) for entry in entries)
        found.sort(key=lambda t: t[:2])  # the (i, j) pair index
        for _, _, beta, gamma, n, end, delta in found:
            yield RelationInstance(lam, beta, gamma, n), end, delta
