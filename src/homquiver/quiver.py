"""The quiver attached to a parabolic geometry.

Vertices are p-dominant weights, and an arrow subtracts a nilradical
root, one wherever both ends are vertices (see ``levi.arrow_multiplicity``
for why the Levi tensor multiplicity is always 0 or 1).  The quiver is
infinite; computations work on finite forward windows.

In type ADE a nilradical root beta pairs to at most 1 with every Levi
simple root, so for a vertex lam, lam - beta fails to be p-dominant
exactly where lam_i = 0 < beta_i on a Levi index i.  So the open roots
depend only on which Levi coordinates of lam are 0, and a window builds
each of its at most 2^|levi| rows once, however large the weights.

A window keys its weights by integer vertex codes: the mixed-radix
number of a weight's offset from the centre, one digit per coordinate,
with more digit values than the window's weights can differ by in a
coordinate.  A step subtracts a nilradical root, whose fundamental
coordinates lie in -1..2 in type ADE, so after at most radius + 1 steps
two weights differ by at most 3 * (radius + 1) there, and a radix of
3 * (radius + 1) + 1 makes the code injective and order-preserving on
every weight the window probes.  An arrow then costs one integer
subtraction and one dict probe.

Relations are only defined for the Borel case.  There the arrows in
direction beta act as the Chevalley basis vector e_-beta of n^-, written
f_beta, and the relations are the commutation relations
[f_beta, f_gamma] = N(-beta, -gamma) f_(beta+gamma).  An instance at lam
for the pair {beta, gamma} ends at lam - beta - gamma, and it can fail
only where one of its paths exists: the 2-path beta,gamma or gamma,beta,
or the direct arrow beta + gamma.  ``bundle`` decides whether every
instance holds, by Serre's theorem; ``borel_relation_instances`` lists
them.
"""

from __future__ import annotations

from operator import mul, sub
from typing import NamedTuple

from .geometry import ParabolicGeometry
from .rootsystem import Root, Weight

GENERATING = "generating"
DERIVED = "derived"
_MAX_WINDOW_VERTICES = 50_000  # larger windows are refused, not built
_MAX_WINDOW_ARROWS = 500_000


class Arrow(NamedTuple):
    source: Weight
    root: Root
    target: Weight
    kind: str


class QuiverWindow(NamedTuple):
    vertices: tuple
    arrows: tuple


class RelationInstance(NamedTuple):
    """One commutation relation at a vertex: paths beta,gamma vs direct beta+gamma."""

    source: Weight
    beta: Root
    gamma: Root
    coefficient: int  # Chevalley constant N(-beta, -gamma)


def is_vertex(geom: ParabolicGeometry, lam: Weight) -> bool:
    return geom.is_p_dominant(lam)


def _open_roots(geom: ParabolicGeometry, lam: Weight) -> tuple:
    """The (beta, kind) pairs with lam - beta p-dominant, for a vertex lam,
    in nilradical order: beta_i <= 0 wherever lam_i = 0 on a Levi index i."""
    zero = [i - 1 for i in geom.levi if not lam[i - 1]]
    return tuple(
        (beta, GENERATING if beta in geom.generating_roots else DERIVED)
        for beta in geom.nilradical_roots
        if all(beta.fund[i] <= 0 for i in zero)
    )


def arrows_from(geom: ParabolicGeometry, lam: Weight) -> tuple:
    """All quiver arrows leaving lam, in deterministic root order."""
    if not is_vertex(geom, lam):
        raise ValueError(f"{lam} is not a vertex for levi {geom.levi}")
    return tuple(
        Arrow(lam, beta, tuple(map(sub, lam, beta.fund)), kind)
        for beta, kind in _open_roots(geom, lam)
    )


def quiver_window(geom: ParabolicGeometry, center: Weight, radius: int) -> QuiverWindow:
    """Vertices reachable from center in at most ``radius`` forward arrow
    steps, together with all induced arrows.

    One breadth-first pass computes each vertex's arrows once: a vertex
    closer than ``radius`` keeps all of them, and its new targets form the
    next layer; a vertex at distance ``radius`` keeps those whose targets
    are already vertices.  The pass stops at the first empty layer, so a
    huge radius costs no more than the whole reachable quiver, and it
    raises ``ValueError`` as soon as the window would pass
    ``_MAX_WINDOW_VERTICES`` vertices, or has passed ``_MAX_WINDOW_ARROWS``
    arrows, which bounds the work when that quiver is infinite.  Arrows
    come in sorted vertex order, each vertex's in root order.

    The pass keys each weight w by an integer code, the mixed-radix
    number sum (w_i - center_i) * radix^(n-i), so center is 0.  A step
    subtracts a nilradical root, whose fundamental coordinates lie in
    lo..hi with lo <= 0 <= hi (-1..2 in type ADE).  Every weight the pass
    probes is at most depth = min(radius, _MAX_WINDOW_VERTICES) + 1 steps
    from center (a vertex at distance k comes after k others, and a
    window holds at most ``_MAX_WINDOW_VERTICES``), so two of them differ
    by at most (hi - lo) * depth < radix in each coordinate.  Their codes
    then differ with the sign of their first differing coordinate: the
    code is injective on those weights and orders them as the weights
    themselves.  An arrow is one subtraction of its root's code and one
    dict probe, and a vertex's tuple is built once, when it is found, and
    shared by its arrows.
    """
    if not is_vertex(geom, center):
        raise ValueError(f"{center} is not a vertex for levi {geom.levi}")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    walls = tuple(i - 1 for i in geom.levi)
    coords = [0, *(c for beta in geom.nilradical_roots for c in beta.fund)]
    lo, hi = min(coords), max(coords)
    depth = min(radius, _MAX_WINDOW_VERTICES) + 1
    radix = (hi - lo) * depth + 1
    places = [radix ** k for k in reversed(range(len(center)))]
    coded = {}  # wall key -> the open (beta, kind, code of beta) triples
    vertices = {0: center}  # code -> vertex, shared by its arrows
    out = {}
    frontier = [(0, center)]
    built = 0
    new = tuple.__new__
    while frontier:
        last = not radius
        radius -= 1
        nxt = []
        for code, v in frontier:
            key = tuple([i for i in walls if not v[i]])
            row = coded.get(key)
            if row is None:
                row = coded[key] = tuple(
                    (beta, kind, sum(map(mul, beta.fund, places)))
                    for beta, kind in _open_roots(geom, v)
                )
            arrows = out[code] = []
            for beta, kind, step in row:
                t = code - step
                u = vertices.get(t)
                if u is None:
                    if last:
                        continue
                    if len(vertices) == _MAX_WINDOW_VERTICES:
                        raise ValueError(
                            f"window exceeds {_MAX_WINDOW_VERTICES} vertices; lower the radius"
                        )
                    u = vertices[t] = tuple(map(sub, v, beta.fund))
                    nxt.append((t, u))
                arrows.append(new(Arrow, (v, beta, u, kind)))
            built += len(arrows)
            if built > _MAX_WINDOW_ARROWS:
                raise ValueError(f"window exceeds {_MAX_WINDOW_ARROWS} arrows; lower the radius")
        frontier = nxt
    order = sorted(vertices)
    return QuiverWindow(
        tuple(map(vertices.__getitem__, order)),
        tuple(a for code in order for a in out[code]),
    )


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
