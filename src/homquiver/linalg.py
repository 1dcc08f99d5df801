"""Exact linear algebra over the rationals.

Everything downstream (relation checking, kernel dimensions, Gabriel
decompositions) is decided by exact ranks and kernels, so no floating
point is allowed anywhere.  Ranks, reduced row echelon forms, kernels
and solves all come from one elimination kernel, ``Matrix._eliminate``:
fraction-free Gauss-Jordan on integer-cleared rows, whose result is the
unique reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Matrix:
    """Immutable dense matrix of Fractions with explicit shape.

    The explicit shape matters: zero-row and zero-column matrices occur
    naturally (absent vertices of a quiver representation act as zero
    spaces) and must compose with correct dimensions.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(tuple(_frac(x) for x in row) for row in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            if rows == 0:
                raise ValueError("column count required for a 0-row matrix")
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged or mis-shaped matrix data")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _of(cls, data: tuple, rows: int, cols: int) -> "Matrix":
        """Wrap rows that are already tuples of Fractions of the given shape,
        skipping the conversion and shape checks of the constructor."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "cols", cols)
        object.__setattr__(mat, "data", data)
        return mat

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def from_columns(cls, columns, rows: int) -> "Matrix":
        cols = len(columns)
        return cls([[columns[j][i] for j in range(cols)] for i in range(rows)], rows, cols)

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._of(
            tuple(
                tuple(a + b for a, b in zip(r, s))
                for r, s in zip(self.data, other.data)
            ),
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return Matrix._of(
            tuple(
                tuple(a - b for a, b in zip(r, s))
                for r, s in zip(self.data, other.data)
            ),
            self.rows,
            self.cols,
        )

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix._of(
            tuple(tuple(c * x for x in row) for row in self.data),
            self.rows,
            self.cols,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        columns = tuple(zip(*other.data)) or ((),) * other.cols
        out = tuple(
            tuple(
                sum((a * b for a, b in zip(row, col)), Fraction(0))
                for col in columns
            )
            for row in self.data
        )
        return Matrix._of(out, self.rows, other.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return Matrix._of(self.data + other.data, self.rows + other.rows, self.cols)

    def _eliminate(self) -> tuple:
        """The elimination kernel: fraction-free Gauss-Jordan (Bareiss).

        Rows are cleared of denominators; each pivot column is then
        cleared above and below its pivot, dividing exactly by the
        previous pivot.  Returns ``(rows, den, pivots)``: the integer rows
        divided by ``den`` are the reduced row echelon form.
        """
        m = []
        for row in self.data:
            den = lcm(*(x.denominator for x in row))
            m.append([int(x * den) for x in row])
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
                if i != r:
                    c = m[i][col]
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
        red = [[Fraction(x, den) for x in row] for row in m]
        return Matrix(red, self.rows, self.cols), pivots

    def nullspace(self) -> list:
        """Basis of the right kernel, as column vectors (tuples of Fractions)."""
        red, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -red.data[r][f]
            basis.append(tuple(v))
        return basis

    def nullity(self) -> int:
        return self.cols - self.rank()


def row_space_basis(vectors, length: int) -> list:
    """Canonical (rref) basis of the span of the given vectors."""
    vecs = [tuple(_frac(x) for x in v) for v in vectors]
    if not vecs:
        return []
    red, pivots = Matrix(vecs, len(vecs), length).rref()
    return [red.data[r] for r in range(len(pivots))]


def span_intersection(basis_a, basis_b, length: int) -> list:
    """Basis of the intersection of two spans of vectors of given length."""
    a = [tuple(v) for v in basis_a]
    b = [tuple(v) for v in basis_b]
    if not a or not b:
        return []
    # Solve sum x_i a_i = sum y_j b_j: kernel of [A | -B] on columns.
    cols = [list(v) for v in a] + [[-x for x in v] for v in b]
    m = Matrix.from_columns(cols, length)
    vecs = []
    for k in m.nullspace():
        v = [Fraction(0)] * length
        for i, ai in enumerate(a):
            for r in range(length):
                v[r] += k[i] * ai[r]
        vecs.append(tuple(v))
    return row_space_basis(vecs, length)


def preimage_basis(mat: Matrix, target_basis) -> list:
    """Basis of {v : mat @ v lies in span(target_basis)}."""
    if mat.cols == 0:
        return []
    if not target_basis:
        return mat.nullspace()
    # Functionals vanishing on the target span, as rows.
    t = Matrix([list(v) for v in target_basis], len(target_basis), mat.rows)
    functionals = t.nullspace()  # vectors f with t @ f = 0, i.e. f _|_ rows of t
    if not functionals:
        return [tuple(Matrix.identity(mat.cols).column(j)) for j in range(mat.cols)]
    c = Matrix([list(f) for f in functionals], len(functionals), mat.rows)
    return (c @ mat).nullspace()


def solve_in_basis(basis: Matrix, targets: Matrix) -> Matrix:
    """Solve basis @ X = targets for a full-column-rank basis matrix."""
    aug = Matrix(
        [list(br) + list(tr) for br, tr in zip(basis.data, targets.data)],
        basis.rows,
        basis.cols + targets.cols,
    )
    red, pivots = aug.rref()
    if len(pivots) != basis.cols or any(p >= basis.cols for p in pivots):
        raise ValueError("system is inconsistent or basis is rank-deficient")
    x = [[Fraction(0)] * targets.cols for _ in range(basis.cols)]
    for r, p in enumerate(pivots):
        for j in range(targets.cols):
            x[p][j] = red.data[r][basis.cols + j]
    return Matrix(x, basis.cols, targets.cols)
