"""Parabolic geometries: Levi subset, nilradical and generating roots.

A parabolic subgroup of an ADE group is encoded by the set of simple-root
indices of its Levi factor.  The nilradical roots label quiver arrows; the
generating roots are the ones surviving in the abelianization of the
nilradical and label generating arrows.

The grade of a root is the sum of its simple coordinates off the Levi
subset, so the nilradical is n = g_1 + g_2 + ..., with g_k spanned by the
root spaces of grade k.  The generating roots are exactly the roots of
grade 1: n is generated by g_1, since [g_1, g_(k-1)] = g_k for k >= 2,
so [n, n] is the sum of the g_k with k >= 2 and n/[n, n] is g_1.
"""

from __future__ import annotations

from functools import lru_cache

from .bott import sub_positive_roots
from .rootsystem import CartanType, Root, RootSystem, Weight, build_root_system


class ParabolicGeometry:
    """A rational homogeneous variety G/P, up to the data this package needs.

    Equality and hashing see only ``(root_system, levi)``; the other
    attributes are derived from them.
    """

    def __init__(self, root_system: RootSystem, levi: tuple):
        self.root_system = root_system
        self.levi = levi  # sorted 1-based simple-root indices of the Levi factor
        # The Levi rho-shift: 1 on the Levi coordinates, 0 elsewhere.
        self.rho_levi = tuple(int(i + 1 in levi) for i in range(root_system.rank))
        # A positive root lies in the nilradical exactly when it is no root
        # of the Levi factor: its simple coordinates share one sign, so it
        # is outside exactly when one off the Levi subset is positive.
        levi_roots = frozenset(sub_positive_roots(root_system, frozenset(levi)))
        self.nilradical_roots = tuple(r for r in root_system.positive_roots if r not in levi_roots)
        self._nilradical = frozenset(self.nilradical_roots)
        self.generating_roots = tuple(
            r for r in self.nilradical_roots
            if sum(c for c, in_levi in zip(r.simple, self.rho_levi) if not in_levi) == 1
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.root_system, self.levi) == (other.root_system, other.levi)

    def __hash__(self):
        return hash((self.root_system, self.levi))

    def __repr__(self):
        return (f"ParabolicGeometry(root_system={self.root_system!r}, levi={self.levi!r}, "
                f"nilradical_roots={self.nilradical_roots!r}, "
                f"generating_roots={self.generating_roots!r})")

    @property
    def is_borel(self) -> bool:
        return not self.levi

    def is_p_dominant(self, lam: Weight) -> bool:
        if len(lam) != self.root_system.rank:
            raise ValueError("rank mismatch")
        return all(lam[i - 1] >= 0 for i in self.levi)

    def is_nilradical(self, root: Root) -> bool:
        """Whether root is one of ``nilradical_roots``.  Both coordinate
        tuples are compared, so a ``Root`` whose fundamental coordinates do
        not match its simple ones in this root system is not."""
        return root in self._nilradical


def parabolic_key(cartan_type, levi=()) -> tuple:
    """``(CartanType, levi)`` normalized and checked, without building anything.

    Accepts a Cartan type or a string such as "A2"; the Levi indices come
    back sorted and deduplicated.  Raises ValueError on a malformed type
    or an index out of range.
    """
    if isinstance(cartan_type, str):
        cartan_type = CartanType.parse(cartan_type)
    levi = tuple(sorted(set(int(i) for i in levi)))
    for i in levi:
        if not 1 <= i <= cartan_type.rank:
            raise ValueError(f"levi index {i} out of range 1..{cartan_type.rank}")
    return cartan_type, levi


@lru_cache(maxsize=None)
def _build_geometry_cached(cartan_type: CartanType, levi: tuple) -> ParabolicGeometry:
    return ParabolicGeometry(build_root_system(cartan_type), levi)


def build_geometry(cartan_type, levi=()) -> ParabolicGeometry:
    """Geometry for the given Cartan type (or string) and Levi index set.

    ``levi=()`` is the Borel case: the nilradical is all of Phi+ and the
    generating roots are the simple roots.
    """
    return _build_geometry_cached(*parabolic_key(cartan_type, levi))
