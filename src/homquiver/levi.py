"""Representation theory of the Levi factor.

Weight multiplicities via the Freudenthal recursion, tensor decompositions
via the Brauer-Klimyk rule, and the two consequences the quiver needs: the
Levi-module decomposition of the nilradical and the 0/1 arrow multiplicity.

Torus directions (fundamental coordinates outside the Levi subset) ride
along unchanged: only Levi coordinates are ever reflected.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .bott import dominantize, sub_positive_roots
from .geometry import ParabolicGeometry
from .rootsystem import Weight


def _require_p_dominant(geom: ParabolicGeometry, lam: Weight):
    if not geom.is_p_dominant(lam):
        raise ValueError(f"{lam} is not p-dominant for levi {geom.levi}")


@lru_cache(maxsize=None)
def freudenthal(geom: ParabolicGeometry, lam: Weight) -> tuple:
    """Weight system of the Levi-irreducible with highest weight lam.

    Freudenthal recursion with the ambient invariant form and the Levi
    rho-shift, descending level by level from lam.  Returns a tuple of
    (weight, multiplicity) pairs, multiplicities positive.
    """
    _require_p_dominant(geom, lam)
    rs = geom.root_system
    rho_l = geom.rho_levi
    pos_l = sub_positive_roots(rs, frozenset(geom.levi))
    lam_shift = tuple(a + b for a, b in zip(lam, rho_l))
    top_norm = rs.weight_inner(lam_shift, lam_shift)

    mult = {lam: 1}
    level = [lam]
    depth = 0  # simple-root steps below lam
    while level:
        depth += 1
        candidates = set()
        for mu in level:
            for i in geom.levi:
                candidates.add(
                    tuple(a - b for a, b in zip(mu, rs.simple_root(i).fund))
                )
        nxt = []
        for mu in sorted(candidates):
            if mu in mult:
                continue
            num = Fraction(0)
            for alpha in pos_l:
                # mu + k*alpha can be a weight only while it stays at or
                # above the level of lam.
                for k in range(1, depth // alpha.height + 1):
                    up = tuple(a + k * b for a, b in zip(mu, alpha.fund))
                    m_up = mult.get(up, 0)
                    if m_up:
                        num += m_up * rs.inner(up, alpha)
            mu_shift = tuple(a + b for a, b in zip(mu, rho_l))
            den = top_norm - rs.weight_inner(mu_shift, mu_shift)
            if den <= 0:
                if num != 0:
                    raise AssertionError("Freudenthal denominator vanished on a weight")
                continue
            m = 2 * num / den
            if m.denominator != 1 or m < 0:
                raise AssertionError(f"Freudenthal multiplicity {m} at {mu}")
            if m > 0:
                mult[mu] = int(m)
                nxt.append(mu)
        level = nxt
    return tuple(sorted(mult.items()))


@lru_cache(maxsize=None)
def levi_weyl_dim(geom: ParabolicGeometry, lam: Weight) -> int:
    """Weyl dimension formula over the Levi positive roots."""
    _require_p_dominant(geom, lam)
    rs = geom.root_system
    shifted = tuple(a + b for a, b in zip(lam, geom.rho_levi))
    num = 1
    den = 1
    for alpha in sub_positive_roots(rs, frozenset(geom.levi)):
        num *= rs.inner(shifted, alpha)
        den *= rs.inner(geom.rho_levi, alpha)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Levi Weyl dimension formula gave a non-integer")
    return q


def _klimyk_accumulate(geom: ParabolicGeometry, lam: Weight, weights) -> dict:
    """Signed dominantization of lam + (each weight), Levi dot action."""
    rs = geom.root_system
    rho_l = geom.rho_levi
    out = {}
    for nu, m in weights:
        kappa = tuple(a + b + r for a, b, r in zip(lam, nu, rho_l))
        res = dominantize(rs, kappa, geom.levi)
        if res is None:
            continue
        length, w = res
        label = tuple(a - r for a, r in zip(w, rho_l))
        out[label] = out.get(label, 0) + (-1) ** length * m
    return {k: v for k, v in out.items() if v != 0}


def klimyk_tensor(geom: ParabolicGeometry, lam: Weight, mu: Weight) -> tuple:
    """Decomposition of the Levi tensor product lam (x) mu.

    Brauer-Klimyk: dominantize lam + (each weight of the mu-module) with
    the rho-shifted Levi Weyl action, accumulating signs.  Returns sorted
    (weight, multiplicity) pairs with strictly positive multiplicities.
    """
    _require_p_dominant(geom, lam)
    _require_p_dominant(geom, mu)
    out = _klimyk_accumulate(geom, lam, freudenthal(geom, mu))
    if not all(m > 0 for m in out.values()):
        raise AssertionError("Klimyk produced a negative multiplicity")
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def nilradical_components(geom: ParabolicGeometry) -> tuple:
    """Partition of the nilradical roots into Levi-irreducible components.

    Returns a tuple of (highest weight, roots) pairs; each component's
    highest weight is its unique root maximal under adding Levi simple roots.
    """
    rs = geom.root_system
    roots = list(geom.nilradical_roots)
    index = {r.simple: i for i, r in enumerate(roots)}
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, r in enumerate(roots):
        for li in geom.levi:
            up = tuple(a + b for a, b in zip(r.simple, rs.simple_root(li).simple))
            j = index.get(up)
            if j is not None:
                parent[find(i)] = find(j)

    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault(find(i), []).append(r)

    components = []
    for members in groups.values():
        member_set = {r.simple for r in members}
        highs = [
            r for r in members
            if not any(
                tuple(a + b for a, b in zip(r.simple, rs.simple_root(li).simple))
                in member_set
                for li in geom.levi
            )
        ]
        if len(highs) != 1:
            raise AssertionError("nilradical component has no unique highest root")
        members.sort(key=lambda r: (r.height, r.simple))
        components.append((highs[0].fund, tuple(members)))
    components.sort()
    return tuple(components)


def arrow_multiplicity(geom: ParabolicGeometry, lam: Weight, mu: Weight) -> int:
    """Multiplicity (0 or 1) of the quiver arrow from lam to mu.

    Nonzero only when mu = lam - beta for a nilradical root beta, in which
    case it is the multiplicity of the Levi-irreducible labeled mu inside
    the tensor product of lam with the dual of the nilradical component
    containing beta.  A value >= 2 would break the
    one-arrow-per-root structure of the quiver and is raised as a hard
    error.
    """
    _require_p_dominant(geom, lam)
    if not geom.is_p_dominant(mu):
        return 0  # no vertex there, hence no arrow
    rs = geom.root_system
    diff = tuple(a - b for a, b in zip(lam, mu))
    beta = rs.root_from_fund(diff)
    if beta is None or beta not in geom.nilradical_roots:
        return 0
    for _, members in nilradical_components(geom):
        if beta in members:
            component = members
            break
    # Dual component: weights are the negated roots, each of multiplicity 1.
    dual_weights = [(tuple(-c for c in r.fund), 1) for r in component]
    out = _klimyk_accumulate(geom, lam, dual_weights)
    value = out.get(mu, 0)
    if not 0 <= value <= 1:
        raise AssertionError(
            f"arrow multiplicity {value} for {lam} -> {mu}: expected 0 or 1"
        )
    return value
