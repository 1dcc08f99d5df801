"""Exact linear algebra over the rationals.

Everything downstream (relation checking, kernel dimensions, Gabriel
decompositions) is decided by exact ranks and kernels, so no floating
point is allowed anywhere.

A ``Matrix`` is the immutable tuple ``(rows, cols, num, den)``: integer
numerator rows ``num`` over one positive common denominator ``den``;
entry (i, j) is ``num[i][j] / den``.  The pair is kept in canonical
form: ``den > 0``, the gcd of ``den`` and all numerators is 1, and so a
zero (or empty) matrix has ``den == 1``.  Every way to build one (the
constructor, ``_make`` and so ``_replace``, and the internal builders)
gives that form, so equal matrices are equal tuples, products, sums and
scalings run on Python ints, and ``Fraction``s appear only at the
boundary: the constructor accepts anything ``Fraction`` does, and the
``data`` and ``nullspace`` views return Fractions.

Ranks, reduced row echelon forms, row-space bases, kernels and solves
all come from one elimination kernel, ``Matrix._eliminate``:
fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) on the stored
numerators, whose result is the unique reduced row echelon form.  A
subspace is held as ``row_basis`` returns it: the nonzero rows of that
form, so equal subspaces have equal bases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple


class Matrix(NamedTuple("Matrix", [("rows", int), ("cols", int), ("num", tuple), ("den", int)])):
    """Immutable dense rational matrix with explicit shape: the tuple of
    its canonical fields, which give its equality, hash and order.

    The explicit shape matters: zero-row and zero-column matrices occur
    naturally (absent vertices of a quiver representation act as zero
    spaces) and must compose with correct dimensions.
    """

    __slots__ = ()
    # ``m * 2`` and ``(1,) + m`` raise, not repeat or extend the tuple
    __mul__ = __rmul__ = __radd__ = None

    def __new__(cls, data, rows=None, cols=None):
        data = [
            [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
            for row in data
        ]
        if rows is None:
            rows = len(data)
        if cols is None:
            if rows == 0:
                raise ValueError("column count required for a 0-row matrix")
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged or mis-shaped matrix data")
        # The lcm of reduced denominators is already canonical: for each
        # prime p of den, the entry with the largest power of p in its
        # denominator keeps a numerator prime to p.
        den = lcm(*(x.denominator for row in data for x in row))
        num = tuple(
            tuple(x.numerator * (den // x.denominator) for x in row) for row in data
        )
        return tuple.__new__(cls, (rows, cols, num, den))

    @classmethod
    def _make(cls, fields):  # so that ``_replace`` checks and canonicalises too
        rows, cols, num, den = fields
        return cls([[Fraction(x, den) for x in row] for row in num], rows, cols)

    def __reduce__(self):  # copy and pickle rebuild from the integer fields
        return Matrix._reduced, (self.num, self.den, self.rows, self.cols)

    @classmethod
    def _reduced(cls, num, den: int, rows: int, cols: int) -> "Matrix":
        """The matrix num / den (integer rows, nonzero den of either sign),
        brought to canonical form; shapes are the caller's guarantee."""
        g = gcd(den, *chain.from_iterable(num))
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
        else:
            num = tuple(map(tuple, num))
        return tuple.__new__(cls, (rows, cols, num, den))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        # No rows, no zero row to build: a 0 x d zero space costs nothing.
        return tuple.__new__(cls, (rows, cols, ((0,) * cols,) * rows if rows else (), 1))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        num = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return tuple.__new__(cls, (n, n, num, 1))

    @property
    def data(self) -> tuple:
        """The entries as rows of Fractions (built on each access)."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"

    def _combine(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        """self + sign * other over the least common denominator."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {what}")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        num = tuple(
            tuple(fa * a + fb * b for a, b in zip(r, s))
            for r, s in zip(self.num, other.num)
        )
        return Matrix._reduced(num, den, self.rows, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "subtraction")

    def scale(self, c) -> "Matrix":
        c = c if isinstance(c, (int, Fraction)) else Fraction(c)
        p = c.numerator
        num = tuple(tuple(p * x for x in row) for row in self.num)
        return Matrix._reduced(num, self.den * c.denominator, self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        num = int_product(self, other)
        return Matrix._reduced(num, self.den * other.den, self.rows, other.cols)

    def transpose(self) -> "Matrix":
        # Same entries over the same denominator: still canonical.
        num = tuple(zip(*self.num)) or ((),) * self.cols
        return tuple.__new__(Matrix, (self.cols, self.rows, num, self.den))

    def pick_columns(self, cols) -> "Matrix":
        """The columns at the given indices, in that order."""
        num = tuple(tuple(row[j] for j in cols) for row in self.num)
        return Matrix._reduced(num, self.den, self.rows, len(cols))

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        num = tuple(tuple(fa * x for x in row) for row in self.num) + tuple(
            tuple(fb * x for x in row) for row in other.num
        )
        return Matrix._reduced(num, den, self.rows + other.rows, self.cols)

    def _eliminate(self) -> tuple:
        """The elimination kernel: fraction-free Gauss-Jordan (Bareiss).

        Starts from the integer numerators (a row space does not see the
        common denominator); each pivot column is cleared above and below
        its pivot, dividing exactly by the previous pivot.  Returns
        ``(rows, den, pivots)``: the integer rows divided by ``den`` (a
        nonzero int of either sign) are the reduced row echelon form.
        """
        m = [list(row) for row in self.num]
        pivots = []
        prev = 1
        for col in range(self.cols):
            r = len(pivots)
            if r == self.rows:
                break
            piv = next((i for i in range(r, self.rows) if m[i][col] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            top = m[r]
            p = top[col]
            for i in range(self.rows):
                c = m[i][col]
                # With c == 0 and p == prev, (p * a - c * b) // prev is a.
                if i != r and (c or p != prev):
                    m[i] = [(p * a - c * b) // prev for a, b in zip(m[i], top)]
            prev = p
            pivots.append(col)
        return m, prev, tuple(pivots)

    def rank(self) -> int:
        """Rank: the number of pivots of the elimination kernel."""
        return len(self._eliminate()[2])

    def rref(self) -> tuple["Matrix", tuple]:
        """Reduced row echelon form and the tuple of pivot column indices."""
        m, den, pivots = self._eliminate()
        return Matrix._reduced(m, den, self.rows, self.cols), pivots

    def nullspace(self) -> list:
        """Basis of the right kernel, as column vectors (tuples of Fractions)."""
        m, den, pivots = self._eliminate()
        zero, one = Fraction(0), Fraction(1)
        basis = []
        for f in range(self.cols):
            if f in pivots:
                continue
            v = [zero] * self.cols
            v[f] = one
            for r, p in enumerate(pivots):
                v[p] = Fraction(-m[r][f], den)
            basis.append(tuple(v))
        return basis

    def nullity(self) -> int:
        return self.cols - self.rank()


def int_product(a: Matrix, b: Matrix) -> list:
    """The integer rows of a @ b over the denominator a.den * b.den, not
    reduced: the one product routine, for ``@`` and for callers that
    combine products before reducing once."""
    if a.cols != b.rows:
        raise ValueError(
            f"shape mismatch in product: {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    columns = tuple(zip(*b.num)) or ((),) * b.cols
    return [[sum(map(mul, row, col)) for col in columns] for row in a.num]


def row_basis(mat: Matrix) -> tuple[Matrix, tuple]:
    """Canonical basis of the row space and its pivot columns: the nonzero
    rows of the rref of mat (k x cols for rank k)."""
    red, pivots = mat.rref()
    k = len(pivots)
    return Matrix._reduced(red.num[:k], red.den, k, mat.cols), pivots


def solve_in_basis(basis: Matrix, targets: Matrix) -> Matrix:
    """Solve basis @ X = targets for a full-column-rank basis matrix."""
    # Scaling a row of [basis | targets] keeps the solutions, so the
    # numerators of both sides stand for the augmented rows.
    fb, ft = targets.den, basis.den
    aug = Matrix._reduced(
        [
            [fb * x for x in br] + [ft * x for x in tr]
            for br, tr in zip(basis.num, targets.num)
        ],
        1,
        basis.rows,
        basis.cols + targets.cols,
    )
    red, pivots = aug.rref()
    n = basis.cols
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("system is inconsistent or basis is rank-deficient")
    # Every basis column is a pivot, so row r of the rref solves for x_r.
    return Matrix._reduced([row[n:] for row in red.num[:n]], red.den, n, targets.cols)
