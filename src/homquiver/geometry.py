"""Parabolic geometries: Levi subset, nilradical and generating roots.

A parabolic subgroup of an ADE group is encoded by the set of simple-root
indices of its Levi factor.  The nilradical roots label quiver arrows; the
generating roots are the ones surviving in the abelianization of the
nilradical and label generating arrows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootsystem import CartanType, RootSystem, Weight, build_root_system


@dataclass(frozen=True)
class ParabolicGeometry:
    """A rational homogeneous variety G/P, up to the data this package needs."""

    root_system: RootSystem
    levi: tuple  # sorted 1-based simple-root indices of the Levi factor
    nilradical_roots: tuple
    generating_roots: tuple

    def __hash__(self):
        # The roots are determined by (root_system, levi); hashing them
        # on every cache lookup keyed on a geometry is wasted work.
        return hash((self.root_system, self.levi))

    @property
    def is_borel(self) -> bool:
        return not self.levi

    def is_p_dominant(self, lam: Weight) -> bool:
        if len(lam) != self.root_system.rank:
            raise ValueError("rank mismatch")
        return all(lam[i - 1] >= 0 for i in self.levi)

    @property
    def rho_levi(self) -> Weight:
        return tuple(int(i + 1 in self.levi) for i in range(self.root_system.rank))


@lru_cache(maxsize=None)
def _build_geometry_cached(cartan_type: CartanType, levi: tuple) -> ParabolicGeometry:
    rs = build_root_system(cartan_type)
    levi_set = set(levi)
    nilradical = tuple(
        r for r in rs.positive_roots
        if any(c != 0 and (j + 1) not in levi_set for j, c in enumerate(r.simple))
    )
    nil_simple = {r.simple for r in nilradical}
    generating = tuple(
        r for r in nilradical
        if not any(
            tuple(a - b for a, b in zip(r.simple, s.simple)) in nil_simple
            for s in nilradical
            if s.height < r.height
        )
    )
    return ParabolicGeometry(rs, levi, nilradical, generating)


def build_geometry(cartan_type, levi=()) -> ParabolicGeometry:
    """Geometry for the given Cartan type (or string) and Levi index set.

    ``levi=()`` is the Borel case: the nilradical is all of Phi+ and the
    generating roots are the simple roots.
    """
    if isinstance(cartan_type, str):
        cartan_type = CartanType.parse(cartan_type)
    levi = tuple(sorted(set(int(i) for i in levi)))
    for i in levi:
        if not 1 <= i <= cartan_type.rank:
            raise ValueError(f"levi index {i} out of range 1..{cartan_type.rank}")
    return _build_geometry_cached(cartan_type, levi)
