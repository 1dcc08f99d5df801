"""Representation theory of the Levi factor.

Weight multiplicities via the Freudenthal recursion, run at the
Levi-dominant weights only and spread over their W_L-orbits; tensor
decompositions via the Brauer-Klimyk rule; and the arrow multiplicity of
the quiver, which the minuscule criterion decides without a tensor
decomposition.

Torus directions (fundamental coordinates outside the Levi subset) ride
along unchanged: only Levi coordinates are ever reflected.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

from .bott import _require_p_dominant, dominantize, reflect_to_dominant, root_pairings, sub_positive_roots, weyl_dim
from .geometry import ParabolicGeometry
from .rootsystem import Weight


# Weight-keyed memos are bounded: their keys are arbitrary weights, so an
# unbounded cache would grow for as long as the process runs.
_WEIGHT_CACHE_SIZE = 128


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def freudenthal(geom: ParabolicGeometry, lam: Weight) -> tuple:
    """Weight system of the Levi-irreducible with highest weight lam.

    Returns sorted (weight, multiplicity) pairs, multiplicities positive.
    The Freudenthal recursion, with the ambient invariant form and the
    Levi rho-shift, runs only at the Levi-dominant weights, in increasing
    depth (the Levi height of lam - mu); their W_L-orbits give the rest.
    This is exact: multiplicities are W_L-invariant, so m(mu + k*alpha)
    is m(dominant(mu + k*alpha)), found at a smaller depth; alpha-strings
    are unbroken, so each ends at its first missing weight; and every
    dominant weight below lam is reached from lam by subtracting positive
    roots through dominant weights (Stembridge, 1998).  Each of these has
    a positive multiplicity.  Norms are taken with the integer Gram form,
    scaled by ``gram_scale``, so the recursion runs in integers only.
    """
    _require_p_dominant(geom, lam)
    rs = geom.root_system
    scale = rs.gram_scale
    levi = geom.levi
    rho_l = geom.rho_levi
    levi_set = frozenset(levi)
    pos_l = sub_positive_roots(rs, levi_set)
    lam_shift = tuple(a + b for a, b in zip(lam, rho_l))
    top_norm = rs.scaled_inner(lam_shift, lam_shift)

    mult = {lam: 1}
    pending = {0: {lam}}  # dominant weights by depth
    depth = 0
    while pending:
        for mu in pending.pop(depth, ()):
            if mu != lam:
                num = 0
                for alpha, pairing in zip(pos_l, root_pairings(rs, mu, levi_set)):
                    # (mu + k*alpha, alpha) is (mu, alpha) + 2k.
                    for k in count(1):
                        up = tuple(a + k * b for a, b in zip(mu, alpha.fund))
                        m_up = mult.get(reflect_to_dominant(rs, up, levi)[1])
                        if not m_up:
                            break
                        num += m_up * (pairing + 2 * k)
                mu_shift = tuple(a + b for a, b in zip(mu, rho_l))
                den = top_norm - rs.scaled_inner(mu_shift, mu_shift)
                if den <= 0:
                    raise AssertionError("Freudenthal denominator vanished on a weight")
                m, r = divmod(2 * num * scale, den)
                if r or m <= 0:
                    raise AssertionError(
                        f"Freudenthal multiplicity {2 * num * scale}/{den} at {mu}"
                    )
                mult[mu] = m
            for alpha in pos_l:
                nu = tuple(a - b for a, b in zip(mu, alpha.fund))
                if all(nu[i - 1] >= 0 for i in levi):
                    pending.setdefault(depth + alpha.height, set()).add(nu)
        depth += 1

    weights = dict(mult)
    orbits = list(mult)
    for nu in orbits:
        for i in levi:
            if nu[i - 1] > 0:
                w = rs.simple_reflect(nu, i)
                if w not in weights:
                    weights[w] = weights[nu]
                    orbits.append(w)
    if sum(weights.values()) != levi_weyl_dim(geom, lam):
        raise AssertionError(f"Freudenthal weights of {lam} miss its Weyl dimension")
    return tuple(sorted(weights.items()))


def levi_weyl_dim(geom: ParabolicGeometry, lam: Weight) -> int:
    """Weyl dimension formula over the Levi positive roots.

    A Levi root has support on the Levi only, where rho and the Levi rho
    agree, so this is ``weyl_dim`` restricted to the Levi indices.
    """
    _require_p_dominant(geom, lam)
    return weyl_dim(geom.root_system, lam, geom.levi)


def klimyk_tensor(geom: ParabolicGeometry, lam: Weight, mu: Weight) -> tuple:
    """Decomposition of the Levi tensor product lam (x) mu.

    Brauer-Klimyk: dominantize lam + (each weight of the mu-module) with
    the rho-shifted Levi Weyl action, accumulating signs.  Returns sorted
    (weight, multiplicity) pairs with strictly positive multiplicities.
    """
    _require_p_dominant(geom, lam)
    _require_p_dominant(geom, mu)
    rs = geom.root_system
    rho_l = geom.rho_levi
    out = {}
    for nu, m in freudenthal(geom, mu):
        kappa = tuple(a + b + r for a, b, r in zip(lam, nu, rho_l))
        res = dominantize(rs, kappa, geom.levi)
        if res is None:
            continue
        length, w = res
        label = tuple(a - r for a, r in zip(w, rho_l))
        out[label] = out.get(label, 0) + (-1) ** length * m
    out = {k: v for k, v in out.items() if v != 0}
    if not all(m > 0 for m in out.values()):
        raise AssertionError("Klimyk produced a negative multiplicity")
    return tuple(sorted(out.items()))


def arrow_multiplicity(geom: ParabolicGeometry, lam: Weight, mu: Weight) -> int:
    """Multiplicity (0 or 1) of the quiver arrow from lam to mu.

    It is 1 exactly when mu is p-dominant and lam - mu is a nilradical
    root beta, else 0.  It counts the Levi module mu in lam (x) D, with D
    the dual of the nilradical component of beta, and D is minuscule:
    its weights are -gamma for nilradical roots gamma, and gamma is not
    +-alpha for a Levi root alpha, so in type ADE <gamma, alpha^v> is
    -1, 0 or 1.  lam (x) D holds lam + nu once for each weight nu of D
    with lam + nu Levi-dominant, and -beta is such a weight.
    """
    _require_p_dominant(geom, lam)
    if not geom.is_p_dominant(mu):
        return 0  # no vertex there, hence no arrow
    beta = geom.root_system.root_from_fund(tuple(a - b for a, b in zip(lam, mu)))
    return int(beta is not None and geom.is_nilradical(beta))
