import io
import random
import time

import pytest

from homquiver import (
    QuiverRep,
    RelationError,
    build_geometry,
    compose_path,
    cotangent,
    direct_sum,
    euler,
    find_pairings,
    h0,
    h0_am,
    h_graded,
    irreducible,
    solve_derived_arrows,
    tangent,
)
from homquiver.linalg import Matrix

from .oracles import brute_force_h0_multiplicity, random_consistent_rep, sl2_h0_oracle

from .test_bundle import rep_b, rep_l, run_optimized


def scalar(v):
    return Matrix([[v]])


@pytest.fixture
def a2():
    return build_geometry("A2", ())


def test_find_pairings_trivial_bundle(a2):
    rep = irreducible(a2, (0, 0))
    assert list(find_pairings(rep)) == []


def test_find_pairings_f_bundle(a2):
    rep = solve_derived_arrows(rep_b(a2, 2))
    pairings = find_pairings(rep)
    assert len(pairings) == 1
    p = pairings[0]
    assert p.source == (0, 0) and p.index == 1 and p.k == 1 and p.target == (-2, 1)


def test_compose_path_single_arrow(a2):
    rep = solve_derived_arrows(rep_b(a2, 2))
    p = find_pairings(rep)[0]
    sigma = compose_path(rep, p)
    assert sigma.rows == 1 and sigma.cols == 1
    assert not sigma.is_zero()


def test_compose_path_missing_intermediate_is_zero(a2):
    # pairing with k=2 whose midpoint vertex is absent: the composite is 0
    rep = QuiverRep(a2, {(1, 0): 1, (-3, 2): 1}, {})
    pairings = find_pairings(rep)
    assert len(pairings) == 1 and pairings[0].k == 2
    assert compose_path(rep, pairings[0]) is None


def test_h0_trivial_and_singular_lines(a2):
    assert h0(irreducible(a2, (0, 0))).total_dimension == 1
    assert h0(irreducible(a2, (2, 1))).total_dimension == 15
    dec = h0(solve_derived_arrows(rep_l(a2, 0)))
    assert dec.total_dimension == 1
    assert dec.entries[0].weight == (0, 0)


def test_h0_f_bundle_vanishes(a2):
    rep = solve_derived_arrows(rep_b(a2, 2))
    assert h0(rep).total_dimension == 0
    assert euler(rep) == 1
    assert h_graded(rep, 1).total_dimension == 1
    assert h_graded(rep, 2).total_dimension == 1


def test_h0_checks_relations_on_borel(a2):
    with pytest.raises(RelationError):
        h0(rep_l(a2, 1))


def test_h0_additive_on_direct_sums(a2):
    rng = random.Random(41)
    for _ in range(10):
        x = random_consistent_rep(a2, rng)
        y = random_consistent_rep(a2, rng)
        assert (
            h0(direct_sum(x, y)).total_dimension
            == h0(x).total_dimension + h0(y).total_dimension
        )


def test_h0_matches_brute_force(a2):
    rng = random.Random(43)
    for _ in range(15):
        rep = random_consistent_rep(a2, rng)
        dec = h0(rep)
        mults = {e.weight: e.multiplicity for e in dec.entries}
        for lam in rep.support:
            if any(c < 0 for c in lam):
                continue
            assert mults.get(lam, 0) == brute_force_h0_multiplicity(rep, lam)


def test_h0_tangent_is_adjoint():
    for name, theta, dim in (("A2", (1, 1), 8), ("A3", (1, 0, 1), 15)):
        g = build_geometry(name, ())
        dec = h0(tangent(g))
        assert [(e.weight, e.multiplicity) for e in dec.entries] == [(theta, 1)]
        assert dec.total_dimension == dim


def test_h0_cotangent_vanishes():
    for name in ("A2", "A3"):
        g = build_geometry(name, ())
        assert h0(cotangent(g)).total_dimension == 0


def test_euler_is_alternating_sum(a2):
    rep = solve_derived_arrows(rep_b(a2, 2))
    chi = sum(
        (-1) ** i * h_graded(rep, i).total_dimension for i in range(4)
    )
    assert euler(rep) == chi


def test_non_borel_h0_warns():
    g = build_geometry("A2", (2,))
    dec = h0(irreducible(g, (2, 0)))
    assert dec.total_dimension == 6
    assert dec.notes


def test_h0_and_h0_am_reject_structurally_invalid_reps():
    rep = QuiverRep(build_geometry("A2", (1,)), {(-1, 0): 1})
    for fn in (h0, h0_am):
        with pytest.raises(ValueError, match=r"^vertex \(-1, 0\): not p-dominant for levi \[1\]$"):
            fn(rep)


def test_h0_agrees_with_sl2_oracle():
    g = build_geometry("A1", ())
    alpha = g.root_system.simple_root(1)
    rng = random.Random(47)
    for _ in range(40):
        dims = {(4 - 2 * i,): rng.randint(0, 2) for i in range(4)}
        support = {v: d for v, d in dims.items() if d}
        if not support:
            continue
        arrows = {}
        for i in range(3):
            src, tgt = (4 - 2 * i,), (2 - 2 * i,)
            if src in support and tgt in support:
                arrows[(src, alpha)] = Matrix(
                    [
                        [rng.randint(-2, 2) for _ in range(support[src])]
                        for _ in range(support[tgt])
                    ],
                    support[tgt],
                    support[src],
                )
        rep = QuiverRep(g, support, arrows)
        assert h0(rep).total_dimension == sl2_h0_oracle(rep)


def random_chain_rep(g, top, root, length, rng):
    """A random representation on the root chain top, top - root, ...,
    with an arrow of random entries between each pair of neighbours."""
    alpha = g.root_system.root(root)
    chain = [tuple(t - i * a for t, a in zip(top, alpha.fund)) for i in range(length)]
    support = {v: rng.randint(1, 2) for v in chain}
    arrows = {}
    for src, tgt in zip(chain, chain[1:]):
        arrows[(src, alpha)] = Matrix(
            [[rng.randint(-2, 2) for _ in range(support[src])] for _ in range(support[tgt])],
            support[tgt],
            support[src],
        )
    return QuiverRep(g, support, arrows)


CHAINS = [  # (type, levi, top vertex, root in simple coordinates, length)
    ("A1", (), (6,), (1,), 3),
    ("A1", (), (2,), (1,), 4),
    ("A2", (1,), (1, 2), (0, 1), 2),
    ("A2", (1,), (1, 1), (0, 1), 3),
    ("A3", (1,), (1, 1, 1), (0, 0, 1), 3),
    ("A3", (2,), (1, 1, 1), (1, 0, 0), 3),
    ("A3", (2,), (0, 2, 0), (1, 1, 0), 3),
    ("A3", (1, 3), (0, 2, 0), (0, 1, 0), 4),
]


def test_h0_am_agrees_with_h0():
    # the whole result, entries and the non-Borel note alike
    rng = random.Random(53)
    for name, levi, top, root, length in CHAINS:
        g = build_geometry(name, levi)
        for _ in range(25):
            rep = random_chain_rep(g, top, root, length, rng)
            assert h0_am(rep) == h0(rep)
            assert bool(h0(rep).notes) == bool(levi)


def test_h0_am_finds_chain_and_pairings_once(monkeypatch):
    import homquiver.bundle as bundle_mod
    import homquiver.cohomology as cohomology_mod

    calls = {"is_am_type": 0, "find_pairings": 0}

    def counted(name, fn):
        def wrapper(rep):
            calls[name] += 1
            return fn(rep)
        return wrapper

    is_am_type = counted("is_am_type", bundle_mod.is_am_type)
    for mod in (bundle_mod, cohomology_mod):
        monkeypatch.setattr(mod, "is_am_type", is_am_type)
    monkeypatch.setattr(
        cohomology_mod, "find_pairings", counted("find_pairings", find_pairings)
    )
    g = build_geometry("A1", ())
    alpha = g.root_system.simple_root(1)
    rep = QuiverRep(
        g, {(2,): 1, (0,): 1, (-2,): 1},
        {((2,), alpha): scalar(1), ((0,), alpha): scalar(2)},
    )
    assert [(e.weight, e.multiplicity) for e in h0_am(rep).entries] == [((2,), 1)]
    assert calls == {"is_am_type": 1, "find_pairings": 1}


def test_h0_am_scoring_check_survives_python_O():
    # With its first interval dropped the Gabriel count of the no-arrow A1
    # chain misses the sections at (1,); the check must still fire when
    # asserts are stripped.
    code = (
        "from homquiver import GabrielDecomposition, QuiverRep, build_geometry, h0_am\n"
        "from homquiver import cohomology\n"
        "gabriel = cohomology._gabriel_along\n"
        "def dropped(rep, path):\n"
        "    dec = gabriel(rep, path)\n"
        "    return GabrielDecomposition(dec.path, dec.intervals[1:])\n"
        "cohomology._gabriel_along = dropped\n"
        "rep = QuiverRep(build_geometry('A1'), {(1,): 1, (-1,): 1})\n"
        "try:\n"
        "    h0_am(rep)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    assert run_optimized(code) == (
        "Gabriel scoring (0) disagrees with kernel computation (1) at (1,)"
    )


def test_h0_am_rejects_non_chain(a2):
    rep = solve_derived_arrows(rep_l(a2, 0))
    with pytest.raises(ValueError):
        h0_am(rep)


def test_graded_cohomology_of_rank_three_bundle(a2):
    from .test_bundle import scalar
    from homquiver import QuiverRep

    rs = a2.root_system
    a1, a2r = rs.simple_root(1), rs.simple_root(2)
    rep = solve_derived_arrows(
        QuiverRep(
            a2,
            {(-2, 1): 1, (-1, -1): 1, (-3, 0): 1},
            {((-2, 1), a2r): scalar(1), ((-1, -1), a1): scalar(1)},
        )
    )
    assert [(e.weight, e.multiplicity) for e in h_graded(rep, 2).entries] == [
        ((0, 0), 1)
    ]
    assert h_graded(rep, 0).entries == ()
    assert euler(rep) == 0


def test_find_pairings_tangent_empty():
    g = build_geometry("A2", ())
    assert list(find_pairings(tangent(g))) == []


def test_compose_path_scalar_chain(a2):
    from homquiver import QuiverRep
    from homquiver.linalg import Matrix

    alpha = a2.root_system.simple_root(1)
    rep = QuiverRep(
        a2,
        {(1, 1): 1, (-1, 2): 1, (-3, 3): 1},
        {((1, 1), alpha): Matrix([[2]]), ((-1, 2), alpha): Matrix([[3]])},
    )
    pairings = [p for p in find_pairings(rep) if p.source == (1, 1)]
    assert len(pairings) == 1 and pairings[0].k == 2
    assert compose_path(rep, pairings[0]).data[0][0] == 6


def test_h0_split_pair_of_lines(a2):
    from homquiver import line_bundle

    rep = direct_sum(line_bundle(a2, (1, 0)), line_bundle(a2, (0, 1)))
    dec = h0(rep)
    assert dec.total_dimension == 6
    assert {e.weight for e in dec.entries} == {(1, 0), (0, 1)}


def test_h0_am_broken_path_keeps_full_kernel(a2):
    from homquiver import QuiverRep

    rep = QuiverRep(a2, {(1, 0): 1, (-3, 2): 1}, {})
    dec = h0_am(rep)
    assert [(e.weight, e.multiplicity) for e in dec.entries] == [((1, 0), 1)]


def test_h0_bounded_by_graded_degree_zero(a2):
    rng = random.Random(59)
    for _ in range(20):
        rep = random_consistent_rep(a2, rng)
        assert h0(rep).total_dimension <= h_graded(rep, 0).total_dimension


def test_h0_cost_does_not_grow_with_coordinate_size(tmp_path):
    # the pairing path of (N,0) has N+1 steps through absent vertices
    import json
    import time

    from homquiver.cli import main

    n = 10**6
    doc = {
        "algebra": "A2",
        "levi": [],
        "vertices": [
            {"weight": [n, 0], "dim": 1},
            {"weight": [-n - 2, n + 1], "dim": 1},
        ],
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    start = time.perf_counter()
    assert main(["h0", str(path)], out=out) == 0
    elapsed = time.perf_counter() - start
    assert out.getvalue() == (
        "weight=1000000,0 mult=1 dim=500001500001\ntotal=500001500001\n"
    )
    assert elapsed < 1.0, elapsed


def gap_rep(d):
    """A1 with vertices (1) and (-3) of dimension d and no arrows: the
    pairing of (1) runs through the absent vertex (-1)."""
    return QuiverRep(build_geometry("A1", ()), {(1,): d, (-3,): d})


def test_pairing_across_a_gap_is_no_matrix():
    rep = gap_rep(100_000)
    (pairing,) = find_pairings(rep)
    assert compose_path(rep, pairing) is None


@pytest.mark.parametrize("sections", [h0, h0_am])
def test_sections_across_a_gap_do_not_grow_with_dim(sections):
    # a d x d zero block for the pairing of (1) made this grow as d^2
    d = 100_000
    rep = gap_rep(d)
    start = time.perf_counter()
    total = sections(rep).total_dimension
    elapsed = time.perf_counter() - start
    assert total == 2 * d
    assert elapsed < 0.5, elapsed


def test_h0_of_e8_tangent_within_budget():
    # the relation gate decides from the Serre presentation; enumerating
    # every relation instance of the E8 tangent bundle took about 2.7 s
    import time

    start = time.perf_counter()
    result = h0(tangent(build_geometry("E8")))
    elapsed = time.perf_counter() - start
    assert result.total_dimension == 248
    assert elapsed < 2.0, elapsed


def test_euler_of_d20_tangent_within_budget():
    # euler runs Bott's algorithm at each of the 380 vertices; on a 2-vCPU
    # x86_64 machine with CPython 3.11, pairing each weight with every
    # positive root by a rank-long contraction took about 0.22 s, and one
    # addition per root takes about 0.015 s
    rep = tangent(build_geometry("D20"))
    start = time.perf_counter()
    value = euler(rep)
    elapsed = time.perf_counter() - start
    assert value == 780
    assert elapsed < 0.1, elapsed
