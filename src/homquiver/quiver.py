"""The quiver attached to a parabolic geometry.

Vertices are p-dominant weights, and an arrow subtracts a nilradical
root, one wherever both ends are vertices (see ``levi.arrow_multiplicity``
for why the Levi tensor multiplicity is always 0 or 1).  The quiver is
infinite; computations work on finite forward windows.

In type ADE a nilradical root beta pairs to at most 1 with every Levi
simple root, so for a vertex lam, lam - beta fails to be p-dominant
exactly where lam_i = 0 < beta_i on a Levi index i.  So the open roots
depend only on which Levi coordinates of lam are 0, and each geometry
keeps one lazily filled table of them, with at most 2^|levi| rows,
however large the weights.

Relations are only defined for the Borel case.  There the arrows in
direction beta act as the Chevalley basis vector e_-beta of n^-, written
f_beta, and the relations are the commutation relations
[f_beta, f_gamma] = N(-beta, -gamma) f_(beta+gamma).  An instance at lam
for the pair {beta, gamma} ends at lam - beta - gamma, and it can fail
only where one of its paths exists: the 2-path beta,gamma or gamma,beta,
or the direct arrow beta + gamma.

Deciding whether every instance holds needs far fewer equations, by
Serre's theorem (Humphreys, *Introduction to Lie Algebras and
Representation Theory*, 18.1-18.3): n^- is generated by the e_-alpha_i
subject only to [e_-i, e_-j] = 0 for non-adjacent i, j and
ad(e_-i)^2 e_-j = 0 for adjacent i, j.  Proof sketch: complete the simple
arrows f_i by brackets, f_delta = N[f_beta, f_gamma] by increasing height
for one decomposition delta = beta + gamma, N = N(-beta, -gamma) = +-1
(``first_decompositions``).  Then f_(alpha_i+alpha_j) = +-[f_i, f_j] for
adjacent i, j, so ad(f_i)^2 f_j = +-[f_i, f_(alpha_i+alpha_j)], and the
Serre relations say that the brackets of ``serre_brackets`` vanish.  If
they do, there is a Lie algebra map phi from n^- with phi(e_-alpha_i) =
f_i, and by induction on the height of delta, f_delta = N[phi(e_-beta),
phi(e_-gamma)] = phi(e_-delta).  So the completed arrows are the image
of n^- under phi, and every bracket relation holds on them because it
holds in n^-.  A representation whose non-simple arrows are these
brackets therefore satisfies every instance; conversely the Serre
relations and these brackets are consequences of the instances, so the
two conditions hold exactly when every instance does.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub
from typing import NamedTuple

from .geometry import ParabolicGeometry
from .rootsystem import Root, RootSystem, Weight

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


@lru_cache(maxsize=None)
def _arrow_table(geom: ParabolicGeometry) -> tuple:
    """(walls, rows): the 0-based Levi indices, and a map from the walls
    where a vertex is 0 to its open triples, filled by ``_open_roots``."""
    return tuple(i - 1 for i in geom.levi), {}


def _open_roots(geom: ParabolicGeometry, table: tuple, lam: Weight) -> tuple:
    """The (beta, kind, fund) triples with lam - beta p-dominant, for a vertex
    lam, in nilradical order: beta_i <= 0 wherever lam_i = 0."""
    walls, rows = table
    key = tuple([i for i in walls if not lam[i]])
    out = rows.get(key)
    if out is None:
        out = rows[key] = tuple(
            (beta, GENERATING if beta in geom.generating_roots else DERIVED, beta.fund)
            for beta in geom.nilradical_roots
            if all(beta.fund[i] <= 0 for i in key)
        )
    return out


def arrows_from(geom: ParabolicGeometry, lam: Weight) -> tuple:
    """All quiver arrows leaving lam, in deterministic root order."""
    if not is_vertex(geom, lam):
        raise ValueError(f"{lam} is not a vertex for levi {geom.levi}")
    return tuple(
        Arrow(lam, beta, tuple(map(sub, lam, fund)), kind)
        for beta, kind, fund in _open_roots(geom, _arrow_table(geom), lam)
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
    """
    if not is_vertex(geom, center):
        raise ValueError(f"{center} is not a vertex for levi {geom.levi}")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    table = _arrow_table(geom)
    vertices = {center: center}  # each vertex keyed by itself, so arrows share it
    out = {}
    frontier = [center]
    built = 0
    while frontier:
        last = not radius
        radius -= 1
        nxt = []
        for v in frontier:
            arrows = out[v] = []
            for beta, kind, fund in _open_roots(geom, table, v):
                t = tuple(map(sub, v, fund))
                u = vertices.get(t)
                if u is None:
                    if last:
                        continue
                    if len(vertices) == _MAX_WINDOW_VERTICES:
                        raise ValueError(
                            f"window exceeds {_MAX_WINDOW_VERTICES} vertices; lower the radius"
                        )
                    vertices[t] = u = t
                    nxt.append(t)
                arrows.append(Arrow(v, beta, u, kind))
            built += len(arrows)
            if built > _MAX_WINDOW_ARROWS:
                raise ValueError(f"window exceeds {_MAX_WINDOW_ARROWS} arrows; lower the radius")
        frontier = nxt
    order = tuple(sorted(vertices))
    return QuiverWindow(order, tuple(a for v in order for a in out[v]))


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
def first_decompositions(rs: RootSystem) -> dict:
    """Each non-simple positive root delta -> (beta, gamma, N(-beta, -gamma)).

    delta = beta + gamma is the first decomposition in root-pair order:
    beta is the earliest positive root with delta - beta one (were gamma
    earlier, it would be that root).  Some simple root is such a beta, and
    the simple roots come first, as alpha_n ... alpha_1, so beta is
    alpha_(i+1) for the last i with delta - alpha_(i+1) a root: the
    decomposition ``rs.parent`` records as (gamma, i).  Keys come in root
    order, by increasing height.  Cached; callers must not mutate.
    """
    out = {}
    for delta in rs.positive_roots[rs.rank:]:
        gamma, i = rs.parent[delta]
        beta = rs.simple_root(i + 1)
        out[delta] = (beta, gamma, rs.chevalley(-beta, -gamma))
    return out


@lru_cache(maxsize=None)
def serre_brackets(rs: RootSystem) -> tuple:
    """The Serre relations of n^- as (beta, gamma) pairs whose bracket
    [f_beta, f_gamma] vanishes on the completed arrows (see the module
    docstring): (f_i, f_j) for non-adjacent i < j, and (f_i,
    f_(alpha_i+alpha_j)) for adjacent i, j in each order.
    """
    simple = [rs.simple_root(i + 1) for i in range(rs.rank)]
    out = []
    for i, a in enumerate(simple):
        for j, b in enumerate(simple):
            if i == j:
                continue
            if rs.cartan_matrix[i][j]:
                out.append((a, rs.root(tuple(x + y for x, y in zip(a.simple, b.simple)))))
            elif i < j:
                out.append((a, b))
    return tuple(out)
