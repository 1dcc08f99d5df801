"""The integer combinatorial core against its Fraction references.

Root lookup by fundamental coordinates, the integer Gram form, the
integer Freudenthal recursion, the dual-component table behind arrow
multiplicities, the arrows leaving a vertex, quiver windows and Bott's
dominantization must all give exactly what the plain rational-arithmetic
or per-root versions in ``tests/oracles.py`` give.
"""

import itertools
import random

import pytest

from homquiver import (
    arrows_from,
    build_geometry,
    build_root_system,
    dominantize,
    quiver_window,
)
from homquiver.levi import arrow_multiplicity, freudenthal, levi_weyl_dim
from homquiver.quiver import DERIVED, GENERATING, Arrow

from .oracles import (
    arrow_multiplicity_oracle,
    dominantize_oracle,
    freudenthal_oracle,
    quiver_window_oracle,
    quiver_window_two_pass,
    root_from_fund_oracle,
    weight_inner_oracle,
)

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
)


def _maximal_levis(rank):
    return [tuple(i for i in range(1, rank + 1) if i != drop) for drop in range(1, rank + 1)]


def _all_levis(rank):
    return [
        levi for size in range(rank + 1)
        for levi in itertools.combinations(range(1, rank + 1), size)
    ]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_from_fund_matches_fraction_product(name):
    rs = build_root_system(name)
    n = rs.rank
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    product = tuple(
        tuple(sum(rs.cartan_matrix[i][k] * rs.cartan_inverse[k][j] for k in range(n))
              for j in range(n))
        for i in range(n)
    )
    assert product == identity
    roots = rs.positive_roots + tuple(-r for r in rs.positive_roots)
    for r in roots:
        assert rs.root_from_fund(r.fund) is root_from_fund_oracle(rs, r.fund) is rs.root(r.simple)
        doubled = tuple(2 * c for c in r.fund)  # 2 beta: integral, never a root
        assert rs.root_from_fund(doubled) is None
        assert root_from_fund_oracle(rs, doubled) is None
    rng = random.Random(f"root_from_fund:{name}")
    non_integral = 0
    for _ in range(300):
        fund = tuple(rng.randint(-2, 2) for _ in range(n))
        want = root_from_fund_oracle(rs, fund)
        assert rs.root_from_fund(fund) is want
        simple = [sum(rs.cartan_inverse[i][j] * fund[j] for j in range(n)) for i in range(n)]
        non_integral += any(c.denominator != 1 for c in simple)
    if name != "E8":  # the E8 Cartan matrix is unimodular
        assert non_integral > 0


def test_root_from_fund_rejects_wrong_length():
    rs = build_root_system("A2")
    for fund in ((1,), (1, 1, 7)):
        with pytest.raises(ValueError, match="rank mismatch"):
            rs.root_from_fund(fund)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_scaled_inner_matches_fraction_form(name):
    rs = build_root_system(name)
    n = rs.rank
    rng = random.Random(f"scaled_inner:{name}")
    vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    vectors += [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(20)]
    for x in vectors:
        for y in vectors[:8]:
            assert rs.scaled_inner(x, y) == weight_inner_oracle(rs, x, y) * rs.gram_scale
    for r in rs.positive_roots:
        assert rs.scaled_inner(r.fund, r.fund) == 2 * rs.gram_scale


def test_freudenthal_matches_fraction_recursion_on_acceptance_sweep():
    for name in ("A2", "A3"):
        rank = build_root_system(name).rank
        for levi in _all_levis(rank):
            geom = build_geometry(name, levi)
            for lam in itertools.product(range(4), repeat=rank):
                assert freudenthal(geom, lam) == freudenthal_oracle(geom, lam), (levi, lam)


@pytest.mark.parametrize("name", ["D5", "E6", "E7"])
def test_freudenthal_matches_fraction_recursion_on_maximal_levis(name):
    rank = build_root_system(name).rank
    for levi in _maximal_levis(rank):
        geom = build_geometry(name, levi)
        for i in levi:
            lam = tuple(int(j == i) for j in range(1, rank + 1))
            assert freudenthal(geom, lam) == freudenthal_oracle(geom, lam), (levi, lam)


# The Fraction oracle's cost grows quickly with the module (D4 with
# lam = (2, 2, 2, 2) alone takes it about 8 s), so the sweeps below compare
# the modules up to this dimension.
_ORACLE_DIM = 100


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_freudenthal_matches_fraction_recursion_on_rank_four_levis(name):
    # Levi coordinates 0 to 2; the first torus coordinate, if any, cycles
    # through -2, 0 and 2.
    torus_values = itertools.cycle((-2, 0, 2))
    compared = 0
    for levi in _all_levis(4):
        geom = build_geometry(name, levi)
        torus = [i for i in range(1, 5) if i not in levi]
        for coords in itertools.product(range(3), repeat=len(levi)):
            lam = [0] * 4
            for i, c in zip(levi, coords):
                lam[i - 1] = c
            if torus:
                lam[torus[0] - 1] = next(torus_values)
            lam = tuple(lam)
            if levi_weyl_dim(geom, lam) <= _ORACLE_DIM:
                assert freudenthal(geom, lam) == freudenthal_oracle(geom, lam), (levi, lam)
                compared += 1
    assert compared > 150


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_freudenthal_matches_fraction_recursion_on_two_fundamental_weights(name):
    # omega_i + omega_j has several dominant weights below it and
    # multiplicities above 1.
    rank = build_root_system(name).rank
    several = above_one = 0
    for levi in _maximal_levis(rank):
        geom = build_geometry(name, levi)
        for i, j in itertools.combinations(levi, 2):
            lam = tuple(int(k == i) + int(k == j) for k in range(1, rank + 1))
            if levi_weyl_dim(geom, lam) > _ORACLE_DIM:
                continue
            weights = freudenthal(geom, lam)
            assert weights == freudenthal_oracle(geom, lam), (levi, lam)
            dominant = [
                m for mu, m in weights if all(mu[k - 1] >= 0 for k in geom.levi)
            ]
            several += len(dominant) > 1
            above_one += max(dominant) > 1
    assert several and above_one


def _arrow_cases():
    cases = [(name, levi) for name in ("A2", "A3", "D4") for levi in _all_levis(int(name[1:]))]
    cases += [(name, levi) for name in ("A4", "A5", "D5") for levi in _all_levis(int(name[1:]))]
    cases += [("E6", levi) for levi in _maximal_levis(6)]
    return cases


def test_arrow_multiplicity_matches_reference():
    rng = random.Random("arrow_multiplicity")
    for name, levi in _arrow_cases():
        rs = build_root_system(name)
        roots = rs.positive_roots + tuple(-r for r in rs.positive_roots)
        geom = build_geometry(name, levi)
        generating = set(geom.generating_roots)
        # Levi coordinates 0 to 3 put lam on the p-dominance walls, inside,
        # or both, coordinate by coordinate.
        for _ in range(6):
            lam = tuple(
                rng.randint(0, 3) if i + 1 in levi else rng.randint(-3, 3)
                for i in range(rs.rank)
            )
            expected = []  # the oracle's arrows from lam, in root order
            for r in roots:
                for diff in (r.fund, tuple(2 * c for c in r.fund)):
                    mu = tuple(a - b for a, b in zip(lam, diff))
                    want = arrow_multiplicity_oracle(geom, lam, mu)
                    assert arrow_multiplicity(geom, lam, mu) == want, (levi, lam, mu)
                    if want:
                        expected.append((lam, r, mu, GENERATING if r in generating else DERIVED))
            got = tuple((a.source, a.root, a.target, a.kind) for a in arrows_from(geom, lam))
            assert got == tuple(expected), (levi, lam)


def _window_cases():
    cases = [(name, levi) for name in ("A3", "D4") for levi in _all_levis(int(name[1:]))]
    cases += [("D5", levi) for levi in _maximal_levis(5)]
    cases += [("E6", levi) for levi in _maximal_levis(6)]
    return cases


@pytest.mark.parametrize("name,levi", _window_cases())
def test_quiver_window_matches_reference(name, levi):
    geom = build_geometry(name, levi)
    rank = geom.root_system.rank
    rng = random.Random(f"window:{name}:{levi}")
    # Levi coordinates 0 put the window against the p-dominance walls,
    # 3 keep every vertex of a radius-2 window inside.
    for inside in (0, 3):
        center = tuple(
            inside if i + 1 in levi else rng.randint(-2, 2) for i in range(rank)
        )
        window = quiver_window(geom, center, 2)
        vertices, arrows = quiver_window_oracle(geom, center, 2)
        assert window.vertices == vertices
        assert tuple((a.source, a.root, a.target, a.kind) for a in window.arrows) == arrows



@pytest.mark.parametrize("name,levi", [
    (name, levi) for name in ("A3", "D4", "E6", "A4") for levi in _all_levis(int(name[1:]))
])
def test_quiver_window_matches_two_pass_reference(name, levi):
    # radius 4 on A4 is where a vertex code with too few digit values per
    # coordinate first maps two probed weights to one code
    geom = build_geometry(name, levi)
    rank = geom.root_system.rank
    rng = random.Random(f"two-pass:{name}:{levi}")
    center = tuple(rng.randint(0, 1) if i + 1 in levi else rng.randint(-2, 2)
                   for i in range(rank))
    for radius in range(5 if name == "A4" else 4):
        window = quiver_window(geom, center, radius)
        assert (window.vertices, window.arrows) == quiver_window_two_pass(geom, center, radius)


@pytest.mark.parametrize("name,levi", [("A4", ()), ("D4", (2,)), ("E6", (2, 3, 4, 5, 6))])
def test_window_moves_with_a_huge_torus_shift(name, levi):
    # the vertex code depends on the offset from the centre only, so a
    # centre moved by 10**15 along the torus coordinates gives the window
    # moved by that much
    geom = build_geometry(name, levi)
    rank = geom.root_system.rank
    torus = [i for i in range(rank) if i + 1 not in levi]
    shift = tuple(10**15 if i in torus else 0 for i in range(rank))

    def moved(w):
        return tuple(a + b for a, b in zip(w, shift))

    center = tuple(1 if i + 1 in levi else -1 for i in range(rank))
    near = quiver_window(geom, center, 3)
    far = quiver_window(geom, moved(center), 3)
    assert far.vertices == tuple(map(moved, near.vertices))
    assert far.arrows == tuple(
        (moved(a.source), a.root, moved(a.target), a.kind) for a in near.arrows
    )


@pytest.mark.parametrize("name,levi,radius", [("A4", (), 4), ("E6", (2, 3, 4, 5, 6), 6)])
def test_window_arrows_share_the_vertex_objects(name, levi, radius):
    # each vertex tuple is built once, and every arrow end is that object
    geom = build_geometry(name, levi)
    center = (0,) * geom.root_system.rank
    window = quiver_window(geom, center, radius)
    vertex = {v: v for v in window.vertices}
    for a in window.arrows:
        assert type(a) is Arrow
        assert a.source is vertex[a.source] and a.target is vertex[a.target]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_dominantize_matches_per_root_reference(name):
    rs = build_root_system(name)
    n = rs.rank
    rng = random.Random(f"dominantize:{name}")
    verdicts = set()
    for _ in range(200):
        v = tuple(rng.randint(-4, 4) for _ in range(n))
        sub = rng.sample(range(1, n + 1), rng.randint(0, n))
        for indices in (None, sub):
            got = dominantize(rs, v, indices)
            assert got == dominantize_oracle(rs, v, indices), (v, indices)
            verdicts.add(got is None)
    assert verdicts == {True, False}
