"""Exact combinatorial model of simply-laced (ADE) root systems.

Weights live in fundamental-weight coordinates (``coords[i] = <lam, alpha_i^v>``),
roots carry both simple-root and fundamental-weight coordinates, and the
normalization of the invariant form gives every root squared length 2.  The
structure-constant signs come from a bimultiplicative asymmetry function of
Frenkel-Kac type, read off the edges of the Dynkin diagram; any other
admissible sign choice yields an equivalent theory, and nothing downstream
may depend on the particular one.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .linalg import Matrix, solve_in_basis

Weight = tuple  # integer vector in fundamental-weight coordinates

_RANK_BOUNDS = {"A": (1, None), "D": (4, None), "E": (6, 8)}


class CartanType(NamedTuple("CartanType", [("series", str), ("rank", int)])):
    """A simply-laced Cartan type: series letter plus rank."""

    __slots__ = ()

    def __new__(cls, series: str, rank: int):
        lo_hi = _RANK_BOUNDS.get(series)
        if lo_hi is None:
            raise ValueError(f"unsupported series {series!r}: must be A, D or E")
        lo, hi = lo_hi
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"invalid rank {rank} for series {series}")
        return super().__new__(cls, series, rank)

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` validates too
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        m = re.fullmatch(r"([ADE])(\d+)", text.strip())
        if not m:
            raise ValueError(f"cannot parse Cartan type {text!r} (expected e.g. 'A2')")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self):
        return f"{self.series}{self.rank}"


def _dynkin_edges(ct: CartanType) -> set:
    """Edges (i, j), i < j, of the Dynkin diagram, Bourbaki numbering, 1-based nodes."""
    n = ct.rank
    if ct.series == "A":
        return {(i, i + 1) for i in range(1, n)}
    if ct.series == "D":
        edges = {(i, i + 1) for i in range(1, n - 1)}
        edges.add((n - 2, n))
        return edges
    # E series: chain 1-3-4-5-6(-7)(-8), with node 2 hanging off node 4.
    chain = [1, 3, 4, 5, 6, 7, 8][:n - 1]
    edges = {(a, b) for a, b in zip(chain, chain[1:])}
    edges.add((2, 4))
    return edges


def cartan_matrix(ct: CartanType) -> tuple:
    n = ct.rank
    edges = _dynkin_edges(ct)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 2
    for a, b in edges:
        mat[a - 1][b - 1] = -1
        mat[b - 1][a - 1] = -1
    return tuple(tuple(row) for row in mat)


class Root(NamedTuple):
    """A root, carrying simple-root and fundamental-weight coordinates."""

    simple: tuple
    fund: tuple

    @property
    def height(self) -> int:
        return sum(self.simple)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.simple) and any(c > 0 for c in self.simple)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.simple), tuple(-c for c in self.fund))


class RootSystem:
    """Positive roots, invariant form and Chevalley signs for an ADE type."""

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan_matrix = cartan_matrix(cartan_type)
        self._edges = tuple((a - 1, b - 1) for a, b in _dynkin_edges(cartan_type))
        # From the one elimination kernel, in canonical form: the least
        # common denominator over integer numerators.
        inv = solve_in_basis(Matrix(self.cartan_matrix), Matrix.identity(self.rank))
        self.cartan_inverse = inv.data  # Fractions
        # The invariant form on weights, scaled to integers:
        # gram[i][j] = gram_scale * (omega_i, omega_j).
        self.gram_scale = inv.den
        self.gram = inv.num
        self.rho: Weight = (1,) * self.rank
        self.positive_roots, self.parent = self._close_positive_roots()
        self._roots_by_simple = {}
        self._roots_by_fund = {}
        for r in self.positive_roots:
            for root in (r, -r):
                self._roots_by_simple[root.simple] = root
                self._roots_by_fund[root.fund] = root

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self.cartan_type == other.cartan_type

    def __hash__(self):
        return hash(self.cartan_type)

    def __repr__(self):
        return f"RootSystem({self.cartan_type})"

    def _close_positive_roots(self) -> tuple:
        """``(roots, parent)``: the positive roots, sorted by height and
        simple coordinates, and the decomposition of each non-simple one.

        In type ADE no pairing of a root with another exceeds 1, and
        (delta, delta) = 2 is the sum of delta.simple[i] * (delta, alpha_i),
        so a non-simple positive root delta pairs to 1 with some alpha_i,
        and beta = delta - alpha_i is a positive root with (beta, alpha_i)
        = -1; conversely beta + alpha_i is a root whenever (beta, alpha_i)
        = -1.  Each such i is in delta's support, as (delta, alpha_i) <= 0
        off it.  The breadth-first closure keeps delta = beta + alpha_i only
        for the last i with delta.fund[i] = 1, so it builds each root once,
        and records ``parent[delta] = (beta, i)``, i 0-based: beta lies in
        every sub-system that contains delta, and comes earlier in every
        sorted root list.  Fundamental coordinates add along with simple
        ones, and a simple root's are its Cartan row, so each new root
        costs O(rank).
        """
        simples = [
            Root(tuple(int(i == j) for j in range(self.rank)), row)
            for i, row in enumerate(self.cartan_matrix)
        ]
        roots, parent = list(simples), {}
        for beta in roots:  # a queue: new roots join the end, by height
            for i, alpha in enumerate(simples):
                if beta.fund[i] == -1:
                    fund = tuple(b + a for b, a in zip(beta.fund, alpha.fund))
                    if 1 not in fund[i + 1:]:
                        delta = Root(tuple(b + a for b, a in zip(beta.simple, alpha.simple)), fund)
                        parent[delta] = (beta, i)
                        roots.append(delta)
        roots.sort(key=lambda r: (r.height, r.simple))
        return tuple(roots), parent

    def simple_root(self, i: int) -> Root:
        """Simple root alpha_i, 1-based index."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range 1..{self.rank}")
        return self._roots_by_simple[tuple(int(j == i - 1) for j in range(self.rank))]

    def root(self, simple: tuple):
        """The Root with the given simple coordinates, or None."""
        return self._roots_by_simple.get(tuple(simple))

    def is_root(self, simple: tuple) -> bool:
        return tuple(simple) in self._roots_by_simple

    def root_from_fund(self, fund: tuple):
        """The Root with the given fundamental coordinates, or None.

        The Cartan matrix maps simple to fundamental coordinates
        bijectively, so a lookup over all roots answers this exactly.
        """
        fund = tuple(fund)
        if len(fund) != self.rank:
            raise ValueError("rank mismatch")
        return self._roots_by_fund.get(fund)

    # ----- invariant form ---------------------------------------------------

    def scaled_inner(self, x: Weight, y: Weight) -> int:
        """gram_scale * (x, y) for two weights in fundamental coordinates."""
        return sum(
            a * sum(g * b for g, b in zip(row, y)) for a, row in zip(x, self.gram) if a
        )

    def simple_reflect(self, lam: Weight, i: int) -> Weight:
        """Reflection at the simple root alpha_i (1-based), a coordinate update."""
        c = lam[i - 1]
        row = self.cartan_matrix[i - 1]
        return tuple(x - c * a for x, a in zip(lam, row))

    # ----- structure constants ----------------------------------------------

    def asymmetry(self, a, b) -> int:
        """Bimultiplicative asymmetry function on the root lattice.

        On simple roots: eps(a_i, a_i) = -1, eps(a_i, a_j) = (-1)^(a_i, a_j)
        for i < j, and +1 for i > j; extended bimultiplicatively.  Satisfies
        eps(a, b) * eps(b, a) = (-1)^(a, b).  As (a_i, a_j) = -1 exactly on
        the Dynkin edges, eps(a, b) = (-1)^(sum_i a_i b_i + sum_edges a_i b_j).
        """
        av = a.simple if isinstance(a, Root) else tuple(a)
        bv = b.simple if isinstance(b, Root) else tuple(b)
        odd = sum(map(mul, av, bv)) + sum(av[i] * bv[j] for i, j in self._edges)
        return -1 if odd % 2 else 1

    def chevalley(self, a, b) -> int:
        """Chevalley constant N_ab with [e_a, e_b] = N_ab e_(a+b); 0 if a+b is no root."""
        av = a.simple if isinstance(a, Root) else tuple(a)
        bv = b.simple if isinstance(b, Root) else tuple(b)
        if not (self.is_root(av) and self.is_root(bv)):
            raise ValueError("chevalley arguments must be roots")
        if av == bv or all(x == -y for x, y in zip(av, bv)):
            raise ValueError("chevalley is undefined for a = +-b")
        s = tuple(x + y for x, y in zip(av, bv))
        if not self.is_root(s):
            return 0
        return self.asymmetry(av, bv)


def build_root_system(cartan_type) -> RootSystem:
    """Construct (and cache) the root system of the given Cartan type.

    Accepts a CartanType or a string such as "A2" or "E6".  The string is
    parsed before the cache lookup, so both spellings of a type share one
    build.
    """
    if isinstance(cartan_type, str):
        cartan_type = CartanType.parse(cartan_type)
    return _root_system(cartan_type)


@lru_cache(maxsize=None)
def _root_system(cartan_type: CartanType) -> RootSystem:
    return RootSystem(cartan_type)
