import itertools

import pytest

from homquiver import rootsystem
from homquiver.rootsystem import CartanType, build_root_system

from .oracles import reflect, root_inner

POSITIVE_ROOT_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "A4": 10,
    "A5": 15,
    "D4": 12,
    "D5": 20,
    "D6": 30,
    "E6": 36,
}


def test_cartan_type_parsing():
    assert CartanType.parse("A2") == CartanType("A", 2)
    assert CartanType.parse("E8") == CartanType("E", 8)
    for bad in ("B2", "A0", "D3", "E9", "A", "2A", "a2 "):
        with pytest.raises(ValueError):
            CartanType.parse(bad)


@pytest.mark.parametrize("series,hi", [("A", 200), ("D", 200), ("E", 8)])
def test_rank_has_an_upper_bound(series, hi):
    assert CartanType.parse(f"{series}{hi}") == CartanType(series, hi)
    with pytest.raises(ValueError, match=rf"^invalid rank {hi + 1} for series {series}$"):
        CartanType(series, hi + 1)
    with pytest.raises(ValueError, match=rf"^invalid rank {hi + 1} for series {series}$"):
        CartanType.parse(f"{series}{hi + 1}")


def test_string_and_cartan_type_share_one_build():
    before = rootsystem._root_system.cache_info()
    by_name = build_root_system("A20")
    by_type = build_root_system(CartanType("A", 20))
    after = rootsystem._root_system.cache_info()
    assert by_name is by_type
    assert after.hits == before.hits + 1
    assert after.misses <= before.misses + 1


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == count


def test_cartan_matrix_a3():
    rs = build_root_system("A3")
    assert rs.cartan_matrix == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_cartan_matrix_d4_star():
    # vertex 3 is the center of the D4 diagram
    rs = build_root_system("D4")
    c = rs.cartan_matrix
    off = {(i, j) for i in range(4) for j in range(4) if i != j and c[i][j] != 0}
    assert off == {(0, 1), (1, 0), (1, 2), (2, 1), (1, 3), (3, 1)}


def test_roots_sorted_by_height_and_consistent():
    for name in ("A3", "D4", "E6"):
        rs = build_root_system(name)
        heights = [r.height for r in rs.positive_roots]
        assert heights == sorted(heights)
        for r in rs.positive_roots:
            assert r.height == sum(r.simple)
            # fund = C . simple
            expect = tuple(
                sum(rs.cartan_matrix[i][j] * r.simple[j] for j in range(rs.rank))
                for i in range(rs.rank)
            )
            assert r.fund == expect


def test_root_length_two():
    for name in ("A2", "D4", "E6"):
        rs = build_root_system(name)
        for r in rs.positive_roots:
            assert root_inner(rs, r, r) == 2


def test_highest_root_adjoint_weight():
    rs = build_root_system("A3")
    theta = rs.positive_roots[-1]
    assert theta.fund == (1, 0, 1)
    rs = build_root_system("D4")
    assert rs.positive_roots[-1].fund == (0, 1, 0, 0)


def test_reflections_permute_roots():
    for name in ("A2", "A3", "D4"):
        rs = build_root_system(name)
        allroots = {r.fund for r in rs.positive_roots}
        allroots |= {tuple(-x for x in f) for f in allroots}
        for i in range(1, rs.rank + 1):
            for f in allroots:
                assert reflect(rs, f, rs.simple_root(i)) in allroots


def test_is_root_and_lookup():
    rs = build_root_system("A2")
    assert rs.is_root((1, 1))
    assert rs.is_root((-1, -1))
    assert not rs.is_root((2, 1))
    assert rs.root_from_fund((1, 1)).simple == (1, 1)
    assert rs.root_from_fund((5, 5)) is None


def _all_roots(rs):
    pos = list(rs.positive_roots)
    return pos + [-r for r in pos]


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_chevalley_antisymmetry_and_parity(name):
    rs = build_root_system(name)
    roots = _all_roots(rs)
    for a, b in itertools.product(roots, repeat=2):
        if a.simple == b.simple or a.simple == tuple(-x for x in b.simple):
            continue
        n = rs.chevalley(a, b)
        assert n == -rs.chevalley(b, a)
        assert n == rs.chevalley(-a, -b)
        s = tuple(x + y for x, y in zip(a.simple, b.simple))
        assert (n in (1, -1)) == rs.is_root(s)
        assert (n == 0) == (not rs.is_root(s))


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_chevalley_jacobi(name):
    # [e_a,[e_b,e_c]] + cyclic = 0, written in structure constants
    rs = build_root_system(name)
    roots = _all_roots(rs)
    by_simple = {r.simple: r for r in roots}

    def n(a, b):
        if a.simple == b.simple or a.simple == tuple(-x for x in b.simple):
            return None  # bracket lands outside the root spaces
        return rs.chevalley(a, b)

    for a, b, c in itertools.combinations(roots, 3):
        total = tuple(x + y + z for x, y, z in zip(a.simple, b.simple, c.simple))
        if not rs.is_root(total):
            continue
        acc = 0
        ok = True
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = n(y, z)
            if inner is None:
                ok = False
                break
            if inner == 0:
                continue
            mid = by_simple[tuple(p + q for p, q in zip(y.simple, z.simple))]
            outer = n(x, mid)
            if outer is None:
                ok = False
                break
            acc += outer * inner
        if ok:
            assert acc == 0, (a.simple, b.simple, c.simple)


def test_chevalley_rejects_degenerate_pairs():
    rs = build_root_system("A2")
    a = rs.simple_root(1)
    with pytest.raises(ValueError):
        rs.chevalley(a, a)
    with pytest.raises(ValueError):
        rs.chevalley(a, -a)


def test_rho_is_all_ones():
    for name in ("A2", "D4"):
        rs = build_root_system(name)
        assert rs.rho == (1,) * rs.rank


def test_inner_products():
    rs = build_root_system("A2")
    a12 = rs.root((1, 1))
    assert root_inner(rs, rs.rho, a12) == 2
    assert root_inner(rs, (1, 0), rs.simple_root(2)) == 0
    assert root_inner(rs, (1, 0), rs.simple_root(1)) == 1


def test_asymmetry_product_rule():
    # eps(a,b) * eps(b,a) = (-1)^(a,b) over all root pairs
    for name in ("A2", "A3", "D4", "D5", "E6"):
        rs = build_root_system(name)
        roots = _all_roots(rs)
        for a in roots:
            for b in roots:
                lhs = rs.asymmetry(a, b) * rs.asymmetry(b, a)
                assert lhs == (-1) ** (root_inner(rs, a, b) % 2)


def test_large_type_counts():
    assert len(build_root_system("E7").positive_roots) == 63
    assert len(build_root_system("E8").positive_roots) == 120


RECORD_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "A30", "D30"]
)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_closure_records_each_root_once_by_its_last_simple_step(name):
    # Each non-simple positive root delta is built once, as its parent
    # beta plus alpha_i for the last i with (delta, alpha_i) = 1.
    rs = build_root_system(name)
    pos = rs.positive_roots
    where = {r: k for k, r in enumerate(pos)}
    assert len(where) == len(pos)
    assert len(rs.parent) == len(pos) - rs.rank
    assert set(rs.parent) == set(pos[rs.rank:])
    for delta, (beta, i) in rs.parent.items():
        alpha = rs.simple_root(i + 1)
        assert tuple(b + a for b, a in zip(beta.simple, alpha.simple)) == delta.simple
        assert tuple(b + a for b, a in zip(beta.fund, alpha.fund)) == delta.fund
        assert beta.is_positive and where[beta] < where[delta]
        assert delta.fund[i] == 1 and 1 not in delta.fund[i + 1:]


@pytest.mark.parametrize("name", RECORD_TYPES[:16])
def test_simple_roots_are_the_closure_record(name):
    # alpha_1 ... alpha_n in index order, the very roots that head the
    # sorted list as alpha_n ... alpha_1, and the ones parent indexes.
    rs = build_root_system(name)
    n = rs.rank
    assert len(rs.simple_roots) == n
    for i, alpha in enumerate(rs.simple_roots):
        assert alpha.simple == tuple(int(j == i) for j in range(n))
        assert alpha is rs.simple_root(i + 1) is rs.positive_roots[n - 1 - i]
    for delta, (beta, i) in rs.parent.items():
        alpha = rs.simple_roots[i]
        assert tuple(b + a for b, a in zip(beta.simple, alpha.simple)) == delta.simple
