import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homquiver.linalg import Matrix, row_basis, solve_in_basis

from .oracles import (
    add_oracle,
    from_columns,
    matmul_oracle,
    nullspace_oracle,
    preimage_basis,
    row_space_basis,
    rref_oracle,
    scale_oracle,
    span_intersection,
    transpose,
)


def span_contains(basis, vector) -> bool:
    """Whether vector lies in the span of basis (all of common length)."""
    n = len(vector)
    before = len(row_space_basis(basis, n))
    after = len(row_space_basis(list(basis) + [vector], n))
    return before == after


def rand_matrix(rng, rows, cols, den=3):
    return Matrix(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(cols)]
            for _ in range(rows)
        ],
        rows,
        cols,
    )


def test_shape_and_immutability():
    m = Matrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_zero_dimensional_shapes():
    a = Matrix.zeros(0, 3)
    b = Matrix.zeros(3, 0)
    assert (a @ transpose(a)).rows == 0
    assert (b @ a).rows == 3 and (b @ a).cols == 3
    assert (b @ a).is_zero()
    assert a.rank() == 0
    assert a.nullity() == 3
    assert b.nullity() == 0


def test_zero_row_matrix_builds_no_row():
    # a 0 x d zero space allocates nothing that grows with d; a row of d
    # zeros is 8 MB here
    tracemalloc.start()
    try:
        a = Matrix.zeros(0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (a.rows, a.cols, a.num) == (0, 10**6, ())
    assert peak < 10**5, peak


def test_matmul_identity_and_associativity():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_matrix(rng, 3, 4)
        b = rand_matrix(rng, 4, 2)
        c = rand_matrix(rng, 2, 5)
        assert (a @ b) @ c == a @ (b @ c)
        assert Matrix.identity(3) @ a == a


def test_rank_agrees_with_rref():
    rng = random.Random(11)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rr, pivots = m.rref()
        assert m.rank() == len(pivots)


def test_nullspace_is_exact_kernel():
    rng = random.Random(13)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = m.nullspace()
        assert len(basis) == m.cols - m.rank()
        for v in basis:
            col = from_columns([list(v)], m.cols)
            assert (m @ col).is_zero()


def test_rank_nullity_on_singular_example():
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert m.rank() == 2
    assert m.nullity() == 1


def test_span_helpers():
    v1 = (Fraction(1), Fraction(0), Fraction(1))
    v2 = (Fraction(0), Fraction(1), Fraction(1))
    basis = row_space_basis([v1, v2, tuple(a + b for a, b in zip(v1, v2))], 3)
    assert len(basis) == 2
    assert span_contains(basis, v1)
    assert not span_contains(basis, (Fraction(1), Fraction(0), Fraction(0)))


def test_span_intersection():
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    e2 = (Fraction(0), Fraction(1), Fraction(0))
    e3 = (Fraction(0), Fraction(0), Fraction(1))
    meet = span_intersection([e1, e2], [e2, e3], 3)
    assert len(meet) == 1
    assert span_contains([e2], meet[0])


def test_preimage_basis():
    # projection onto first coordinate of a 2-space
    m = Matrix([[1, 0]])
    pre = preimage_basis(m, [])
    assert len(pre) == 1 and span_contains([(Fraction(0), Fraction(1))], pre[0])
    full = preimage_basis(m, [(Fraction(1),)])
    assert len(full) == 2


def test_solve_in_basis_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        basis = rand_matrix(rng, 4, 4)
        if basis.rank() < 4:
            continue
        target = rand_matrix(rng, 4, 2)
        coords = solve_in_basis(basis, target)
        assert basis @ coords == target


def _to_fractions(rows):
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]


def test_kernel_against_sympy_over_qq():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def dm(rows, shape):
        return DomainMatrix(
            [[sympy.QQ(x.numerator, x.denominator) for x in row] for row in rows],
            shape,
            sympy.QQ,
        )

    def sym(m):
        entries = [sympy.Rational(x.numerator, x.denominator) for r in m.data for x in r]
        return sympy.Matrix(m.rows, m.cols, entries)

    rng = random.Random(19)
    shapes = [(0, 0), (0, 3), (3, 0)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(60)]
    for rows, cols in shapes:
        if rows and cols and rng.random() < 0.5:
            # low rank: a product through a narrower middle
            k = rng.randint(1, min(rows, cols))
            m = rand_matrix(rng, rows, k) @ rand_matrix(rng, k, cols)
        else:
            m = rand_matrix(rng, rows, cols)
        ref = dm(m.data, (rows, cols))
        red, pivots = m.rref()
        ref_red, ref_pivots = ref.rref()
        assert pivots == tuple(ref_pivots)
        assert [list(r) for r in red.data] == _to_fractions(ref_red.to_list())
        assert m.rank() == ref.rank()
        basis = m.nullspace()
        ref_basis = ref.nullspace()
        assert len(basis) == ref_basis.shape[0]
        if basis:
            ours = dm(basis, (len(basis), cols))
            assert ours.rref()[0] == ref_basis.rref()[0]

    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(0, 3)
        basis = rand_matrix(rng, rows, cols)
        if rng.random() < 0.5:
            targets = basis @ rand_matrix(rng, cols, 2)
        else:
            targets = rand_matrix(rng, rows, 2)
        try:
            sol, params = sym(basis).gauss_jordan_solve(sym(targets))
            expected = None if params.rows else _to_fractions(sol.tolist())
        except ValueError:
            expected = None
        if expected is None:
            with pytest.raises(ValueError):
                solve_in_basis(basis, targets)
        else:
            assert [list(r) for r in solve_in_basis(basis, targets).data] == expected


def test_arithmetic_matches_entrywise_definition():
    # sums, differences, scalings and products, zero shapes included, equal
    # (and hash like) matrices built entry by entry through the constructor
    rng = random.Random(23)
    for _ in range(80):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        a, a2 = rand_matrix(rng, r, k), rand_matrix(rng, r, k)
        b = rand_matrix(rng, k, c)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        expected = {
            "add": [[a.data[i][j] + a2.data[i][j] for j in range(k)] for i in range(r)],
            "sub": [[a.data[i][j] - a2.data[i][j] for j in range(k)] for i in range(r)],
            "scale": [[s * a.data[i][j] for j in range(k)] for i in range(r)],
            "matmul": [
                [sum(a.data[i][t] * b.data[t][j] for t in range(k)) for j in range(c)]
                for i in range(r)
            ],
        }
        got = {"add": a + a2, "sub": a - a2, "scale": a.scale(s), "matmul": a @ b}
        for name, mat in got.items():
            rows = expected[name]
            want = Matrix(rows, r, len(rows[0]) if rows else (c if name == "matmul" else k))
            assert mat == want and hash(mat) == hash(want), name
            assert (mat.rows, mat.cols) == (want.rows, want.cols), name
    with pytest.raises(ValueError):
        rand_matrix(rng, 2, 2) - rand_matrix(rng, 2, 3)


# ----- Integer storage against the entrywise Fraction reference ---------------

# Small numerators over denominators of mixed primes, zero entries often.
fractions_ = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 9, 10])),
)


def _rows(r, c):
    return st.lists(st.lists(fractions_, min_size=c, max_size=c), min_size=r, max_size=r)


@st.composite
def operands(draw):
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a, a2, b = draw(_rows(r, k)), draw(_rows(r, k)), draw(_rows(k, c))
    s = draw(st.one_of(st.sampled_from([0, 1, -1, -2]), fractions_))
    return (r, k, c), a, a2, b, s


def _canonical(m: Matrix) -> bool:
    """The stored form: integer rows, den > 0, gcd(den, entries) == 1 (so a
    zero matrix has den == 1), and the shape the rows have."""
    entries = [x for row in m.num for x in row]
    return (
        type(m.den) is int
        and all(type(x) is int for x in entries)
        and m.den > 0
        and gcd(m.den, *entries) == 1
        and len(m.num) == m.rows
        and all(len(row) == m.cols for row in m.num)
    )


def _agrees(m: Matrix, rows, cols) -> bool:
    return (
        _canonical(m)
        and (m.rows, m.cols) == (len(rows), cols)
        and [list(row) for row in m.data] == rows
    )


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(operands())
def test_matrix_operations_match_fraction_reference(ops):
    (r, k, c), a, a2, b, s = ops
    ma, ma2, mb = Matrix(a, r, k), Matrix(a2, r, k), Matrix(b, k, c)
    for m, rows in ((ma, a), (ma2, a2), (mb, b)):
        assert _agrees(m, rows, m.cols)
    assert _agrees(ma @ mb, matmul_oracle(a, b, c), c)
    assert _agrees(ma + ma2, add_oracle(a, a2), k)
    assert _agrees(ma - ma2, add_oracle(a, a2, -1), k)
    assert _agrees(ma.scale(s), scale_oracle(a, Fraction(s)), k)
    assert _agrees(ma.vstack(ma2), a + a2, k)
    t = ma.transpose()
    assert _canonical(t) and t == transpose(ma) and (t.rows, t.cols) == (k, r)
    assert (ma - ma).is_zero() and (ma - ma).den == 1
    assert ma.is_zero() == all(x == 0 for row in a for x in row)

    red, pivots = ma.rref()
    ref_red, ref_pivots = rref_oracle(a, k)
    assert pivots == ref_pivots and ma.rank() == len(ref_pivots)
    assert _agrees(red, ref_red, k)
    assert ma.nullspace() == nullspace_oracle(a, k)
    basis, basis_pivots = row_basis(ma)
    assert basis_pivots == ref_pivots
    assert _agrees(basis, ref_red[: len(ref_pivots)], k)

    # equal entries <=> equal matrices, and equal matrices hash alike,
    # however the entries were written
    same = Matrix([[str(x) for x in row] for row in a], r, k)
    assert same == ma and hash(same) == hash(ma)
    assert (ma == ma2) == (a == a2)
    if a == a2:
        assert hash(ma) == hash(ma2)
    assert ma.scale(Fraction(1, 3)).scale(3) == ma
