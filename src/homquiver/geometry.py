"""Parabolic geometries: Levi subset, nilradical and generating roots.

A parabolic subgroup of an ADE group is encoded by the set of simple-root
indices of its Levi factor.  The nilradical roots label quiver arrows; the
generating roots are the ones surviving in the abelianization of the
nilradical and label generating arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .rootsystem import CartanType, Root, RootSystem, Weight, build_root_system


@dataclass(frozen=True)
class ParabolicGeometry:
    """A rational homogeneous variety G/P, up to the data this package needs.

    Equality and hashing see only ``(root_system, levi)``; the other
    fields are derived from them.
    """

    root_system: RootSystem
    levi: tuple  # sorted 1-based simple-root indices of the Levi factor
    nilradical_roots: tuple = field(init=False, compare=False)
    generating_roots: tuple = field(init=False, compare=False)
    # The Levi rho-shift: 1 on the Levi coordinates, 0 elsewhere.
    rho_levi: Weight = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rs = self.root_system
        rho_levi = tuple(int(i + 1 in self.levi) for i in range(rs.rank))
        object.__setattr__(self, "rho_levi", rho_levi)
        nilradical = tuple(r for r in rs.positive_roots if self.is_nilradical(r))
        nil_simple = {r.simple for r in nilradical}
        generating = tuple(
            r for r in nilradical
            if not any(
                tuple(a - b for a, b in zip(r.simple, s.simple)) in nil_simple
                for s in nilradical
                if s.height < r.height
            )
        )
        object.__setattr__(self, "nilradical_roots", nilradical)
        object.__setattr__(self, "generating_roots", generating)

    @property
    def is_borel(self) -> bool:
        return not self.levi

    def is_p_dominant(self, lam: Weight) -> bool:
        if len(lam) != self.root_system.rank:
            raise ValueError("rank mismatch")
        return all(lam[i - 1] >= 0 for i in self.levi)

    def is_nilradical(self, root: Root) -> bool:
        """Whether a root of this root system lies in the nilradical.

        A root's simple coordinates share one sign, so it is a positive
        root outside the Levi factor exactly when one of its coordinates
        off the Levi subset is positive.
        """
        return any(c > 0 for c, in_levi in zip(root.simple, self.rho_levi) if not in_levi)


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
