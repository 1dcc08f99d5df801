"""Dot action of the Weyl group and the cohomology of irreducible bundles.

An irreducible homogeneous bundle labeled by a p-dominant weight has
cohomology in at most one degree: translate lam + rho to the dominant
chamber counting reflections, or detect that it sits on a wall.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import NamedTuple

from .rootsystem import RootSystem, Weight


class BottResult(NamedTuple):
    """Outcome of Bott's algorithm: singular, or one cohomology degree.

    ``degree`` is the reflection length, ``weight`` the dominant weight
    labeling the cohomology module, ``dimension`` its Weyl dimension.
    """

    degree: int | None = None
    weight: Weight | None = None
    dimension: int | None = None

    @property
    def is_singular(self) -> bool:
        return self.degree is None


SINGULAR = BottResult()


def _require_p_dominant(geom, lam: Weight) -> None:
    if not geom.is_p_dominant(lam):
        raise ValueError(f"{lam} is not p-dominant for levi {geom.levi}")


@lru_cache(maxsize=None)
def sub_positive_roots(rs: RootSystem, indices: frozenset) -> tuple:
    """Positive roots of the sub-system spanned by the 1-based simple indices."""
    return tuple(
        r for r in rs.positive_roots
        if all(c == 0 or (j + 1) in indices for j, c in enumerate(r.simple))
    )


@lru_cache(maxsize=None)
def _pairing_table(rs: RootSystem, indices: frozenset) -> tuple:
    """``(simples, steps)`` for the roots of ``sub_positive_roots(rs, indices)``.

    The simple roots come first: ``simples`` holds their 0-based indices.
    Each later root delta is its parent beta plus a simple alpha_i, as
    the closure recorded in ``rs.parent``; beta comes earlier in the same
    list.  ``steps`` holds (position of beta, i) for each such delta, in
    order.
    """
    pos = sub_positive_roots(rs, indices)
    where = {r: k for k, r in enumerate(pos)}
    simples, steps = [], []
    for delta in pos:
        if delta.height == 1:
            simples.append(delta.simple.index(1))
        else:
            beta, i = rs.parent[delta]
            steps.append((where[beta], i))
    return tuple(simples), tuple(steps)


def root_pairings(rs: RootSystem, v: Weight, indices: frozenset) -> list:
    """(v, alpha) for each root alpha of ``sub_positive_roots(rs, indices)``,
    in order, by one addition per root: (v, beta + alpha_i) = (v, beta) + v_i."""
    simples, steps = _pairing_table(rs, indices)
    out = [v[i] for i in simples]
    for k, i in steps:
        out.append(out[k] + v[i])
    return out


def dominantize(rs: RootSystem, v: Weight, indices=None):
    """Translate v to the (sub-)dominant chamber by simple reflections.

    ``indices`` restricts to the sub-root-system spanned by the given
    1-based simple indices (the whole system when omitted).  Returns None
    when v is singular for that sub-system (some positive root pairs to 0
    with v), else ``(length, dominant)``.  The pairings come from
    ``root_pairings``, one addition per root; the reflection count is
    cross-checked against the number of them that are negative, and the
    two must always agree.
    """
    if indices is None:
        indices = range(1, rs.rank + 1)
    indices = frozenset(indices)
    if len(v) != rs.rank:
        raise ValueError("rank mismatch")
    inners = root_pairings(rs, v, indices)
    if 0 in inners:
        return None
    negative_count = sum(c < 0 for c in inners)
    length, w = reflect_to_dominant(rs, v, sorted(indices))
    if length != negative_count:
        raise AssertionError("reflection count disagrees with inversion count")
    return length, w


def reflect_to_dominant(rs: RootSystem, v: Weight, indices) -> tuple:
    """``(length, w)``: v reflected at its first negative coordinate among
    the 1-based ``indices`` until none is negative, and the count."""
    w = tuple(v)
    length = 0
    while True:
        for i in indices:
            if w[i - 1] < 0:
                break
        else:
            return length, w
        w = rs.simple_reflect(w, i)
        length += 1


def weyl_dim(rs: RootSystem, nu: Weight, indices=None) -> int:
    """Weyl dimension formula, in exact integer arithmetic.

    ``indices`` restricts to the sub-root-system spanned by the given
    1-based simple indices (the whole system when omitted); nu must be
    dominant at those indices.
    """
    if indices is None:
        indices = range(1, rs.rank + 1)
    indices = frozenset(indices)
    if any(nu[i - 1] < 0 for i in indices):
        raise ValueError(f"{nu} is not dominant")
    if len(nu) != rs.rank:
        raise ValueError("rank mismatch")
    shifted = tuple(c + 1 for c in nu)
    num = prod(root_pairings(rs, shifted, indices))
    den = prod(root_pairings(rs, rs.rho, indices))  # (rho, alpha) = height
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Weyl dimension formula gave a non-integer")
    return q


def bott(geom, lam: Weight) -> BottResult:
    """Bott's algorithm for the irreducible bundle labeled by lam.

    lam must be p-dominant for the geometry.  The result reports the
    dominant weight labeling the cohomology module; dual-module
    bookkeeping is dropped since dimensions and multiplicities are
    dual-invariant.
    """
    _require_p_dominant(geom, lam)
    rs = geom.root_system
    shifted = tuple(c + 1 for c in lam)
    res = dominantize(rs, shifted)
    if res is None:
        return SINGULAR
    length, w = res
    nu = tuple(c - 1 for c in w)
    return BottResult(length, nu, weyl_dim(rs, nu))
