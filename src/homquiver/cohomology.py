"""Sections of homogeneous bundles from their quiver representations.

Graded cohomology is Bott's algorithm applied summand-wise.  Global
sections of a general bundle come from the kernel of the block map that
composes, for each dominant vertex and each simple direction off the
Levi, the arrow matrices along the path to the reflected partner vertex.
``h0_am`` is ``h0`` for chain-supported (A_m-type) bundles plus one
cross-check: the same kernel dimensions scored against the Gabriel
interval decomposition.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby, repeat
from operator import attrgetter
from typing import NamedTuple

from .bott import bott, weyl_dim
from .bundle import QuiverRep, _gabriel_along, is_am_type, require_valid
from .linalg import Matrix
from .rootsystem import Weight


class Pairing(NamedTuple):
    """A dominant vertex paired with its length-1 reflection partner.

    ``target = source - k * alpha_j`` with ``k = source[j] + 1``; the
    partner carries the same cohomology module one degree higher.
    """

    source: Weight
    index: int  # 1-based simple-root index, outside the Levi subset
    k: int
    target: Weight


class IsotypicEntry(NamedTuple):
    weight: Weight
    multiplicity: int
    dimension: int  # dimension of one copy


class GModuleDecomposition(NamedTuple):
    """A G-module presented as a multiset of isotypical components."""

    entries: tuple
    notes: tuple = ()

    @property
    def total_dimension(self) -> int:
        return sum(e.multiplicity * e.dimension for e in self.entries)


def _decomposition(entries: dict, notes=()) -> GModuleDecomposition:
    items = tuple(
        IsotypicEntry(w, m, d) for w, (m, d) in sorted(entries.items()) if m > 0
    )
    return GModuleDecomposition(items, tuple(notes))


def h_graded(rep: QuiverRep, degree: int) -> GModuleDecomposition:
    """Cohomology of the graded bundle in one degree (Bott, summand-wise)."""
    acc = {}
    for lam, d in rep.support.items():
        res = bott(rep.geometry, lam)
        if res.is_singular or res.degree != degree:
            continue
        m, dim = acc.get(res.weight, (0, res.dimension))
        acc[res.weight] = (m + d, dim)
    return _decomposition(acc)


def euler(rep: QuiverRep) -> int:
    """Euler characteristic: alternating sum of Bott dimensions."""
    total = 0
    for lam, d in rep.support.items():
        res = bott(rep.geometry, lam)
        if not res.is_singular:
            total += d * (-1) ** res.degree * res.dimension
    return total


def find_pairings(rep: QuiverRep) -> tuple:
    """All pairings of dominant support vertices with supported partners."""
    geom = rep.geometry
    out = []
    for lam in sorted(rep.support):
        if any(c < 0 for c in lam):
            continue
        for j in range(1, geom.root_system.rank + 1):
            if j in geom.levi:
                continue
            k = lam[j - 1] + 1
            alpha = geom.root_system.simple_root(j)
            mu = tuple(a - k * b for a, b in zip(lam, alpha.fund))
            if mu in rep.support:
                out.append(Pairing(lam, j, k, mu))
    return tuple(out)


def compose_path(rep: QuiverRep, pairing: Pairing) -> Matrix | None:
    """Product of the arrow matrices along the pairing path, or None, the
    zero map, when the path meets an absent arrow.  The walk stops there,
    so its cost is bounded by the support size, not by ``pairing.k``.
    """
    if pairing.source not in rep.support or pairing.target not in rep.support:
        raise ValueError("pairing endpoints must lie in the support")
    alpha = rep.geometry.root_system.simple_root(pairing.index)
    return rep.walk(pairing.source, repeat(alpha, pairing.k))


def _sections(rep: QuiverRep) -> tuple:
    """(pairings, multiplicities, decomposition) of the global sections.

    After the validity gate, ``find_pairings(rep)`` lists the pairings by
    source; the multiplicity at each dominant vertex, zeros included, is
    the kernel dimension of its stacked pairing maps.  A zero map adds no
    rows, so a vertex with none keeps its full dimension.  Off the Borel
    parabolic no relation check exists (the general relation set is
    unknown), so the caller vouches for validity, which the decomposition
    records as a note.
    """
    require_valid(rep)
    pairings = find_pairings(rep)
    mults = {lam: d for lam, d in sorted(rep.support.items()) if all(c >= 0 for c in lam)}
    for lam, group in groupby(pairings, key=attrgetter("source")):
        blocks = [mat for mat in (compose_path(rep, p) for p in group) if mat is not None]
        if blocks:
            mults[lam] = reduce(Matrix.vstack, blocks).nullity()
    notes = ()
    if not rep.geometry.is_borel:
        notes = (
            "non-Borel parabolic: relations unchecked, representation validity "
            "is the caller's claim",
        )
    rs = rep.geometry.root_system
    acc = {lam: (m, weyl_dim(rs, lam)) for lam, m in mults.items()}
    return pairings, mults, _decomposition(acc, notes)


def h0(rep: QuiverRep) -> GModuleDecomposition:
    """Global sections of the bundle: the kernel of the pairing block map,
    with a note off the Borel parabolic, where validity goes unchecked."""
    return _sections(rep)[2]


def h0_am(rep: QuiverRep) -> GModuleDecomposition:
    """``h0`` of an A_m-type bundle, cross-checked against Gabriel.

    The kernel dimensions must agree with scoring the interval
    decomposition along the chain (an interval containing a dominant
    vertex contributes one copy unless it also contains the vertex's
    pairing partner); disagreement signals a bug, not a data problem.
    The result, note included, is ``h0``'s.
    """
    path = is_am_type(rep)
    if path is None:
        raise ValueError("not an A_m-type support")
    pairings, mults, dec = _sections(rep)

    gab = _gabriel_along(rep, path)
    position = {v: i for i, v in enumerate(path.vertices)}
    # At most one pairing leaves a chain vertex: lam - k * alpha_j lies on
    # a beta-chain only when alpha_j = beta.
    partner = {p.source: position[p.target] for p in pairings}
    for lam, m in mults.items():
        pos, other = position[lam], partner.get(lam, -1)
        score = sum(
            mult for (i, j), mult in gab.intervals if i <= pos <= j and not i <= other <= j
        )
        if score != m:
            raise AssertionError(
                f"Gabriel scoring ({score}) disagrees with kernel computation "
                f"({m}) at {lam}"
            )
    return dec
