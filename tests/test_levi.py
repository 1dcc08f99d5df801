import itertools

import pytest

from homquiver.bott import weyl_dim
from homquiver.geometry import build_geometry
from homquiver.levi import (
    arrow_multiplicity,
    freudenthal,
    klimyk_tensor,
    levi_weyl_dim,
)
from homquiver.rootsystem import build_root_system

from .oracles import nilradical_components


def test_freudenthal_full_adjoint():
    g = build_geometry("A2", ())
    # Borel Levi is the torus: weight multiplicities degenerate to the
    # single highest weight
    mult = dict(freudenthal(g, (1, 1)))
    assert mult == {(1, 1): 1}


def test_freudenthal_sl2_strings():
    g = build_geometry("A2", (1,))
    # levi sl2 along alpha_1: irrep of highest weight (m, *) has the
    # full weight string down alpha_1
    mult = dict(freudenthal(g, (2, 0)))
    assert mult == {(2, 0): 1, (0, 1): 1, (-2, 2): 1}


def test_freudenthal_adjoint_of_levi_a2():
    g = build_geometry("A3", (1, 2))
    mult = dict(freudenthal(g, (1, 1, 0)))
    # adjoint of sl3: zero weight (of the levi part) has multiplicity 2
    assert mult[(1, 1, 0)] == 1
    assert sum(mult.values()) == 8
    # the weight with zero levi part carries the Cartan multiplicity
    assert mult[(0, 0, 1)] == 2


def test_levi_weyl_dim_matches_freudenthal():
    for name, levi in (("A3", (1, 2)), ("A3", (1, 3)), ("D4", (1, 2, 3))):
        g = build_geometry(name, levi)
        lams = [
            lam
            for lam in itertools.product(range(3), repeat=g.root_system.rank)
            if g.is_p_dominant(lam)
        ]
        for lam in lams[:12]:
            assert levi_weyl_dim(g, lam) == sum(m for _, m in freudenthal(g, lam))


def test_levi_weyl_dim_borel_is_one():
    g = build_geometry("D4", ())
    assert levi_weyl_dim(g, (3, 1, 4, 1)) == 1


def test_klimyk_sl2_clebsch_gordan():
    g = build_geometry("A2", (1,))
    # (2) tensor (2) = (4) + (2) + (0) along the sl2 factor
    out = dict(klimyk_tensor(g, (2, 0), (2, 0)))
    degrees = sorted(lam[0] for lam in out)
    assert degrees == [0, 2, 4]
    assert all(m == 1 for m in out.values())


def test_klimyk_total_dimension():
    g = build_geometry("A3", (1, 2))
    a, b = (1, 0, 0), (0, 1, 1)
    out = dict(klimyk_tensor(g, a, b))
    assert sum(m * levi_weyl_dim(g, lam) for lam, m in out.items()) == levi_weyl_dim(
        g, a
    ) * levi_weyl_dim(g, b)


def test_klimyk_full_group_tensor():
    # empty levi complement: tensor of G-irreps, checked against sl3
    g = build_geometry("A2", (1, 2))
    out = dict(klimyk_tensor(g, (1, 0), (0, 1)))
    assert out == {(1, 1): 1, (0, 0): 1}
    rs = build_root_system("A2")
    assert weyl_dim(rs, (1, 1)) + weyl_dim(rs, (0, 0)) == 9


def test_nilradical_components():
    g = build_geometry("A2", (2,))
    comps = nilradical_components(g)
    assert len(comps) == 1
    top, members = comps[0]
    assert top == (1, 1)
    assert {r.simple for r in members} == {(1, 0), (1, 1)}

    g = build_geometry("A3", (2,))
    comps = nilradical_components(g)
    assert len(comps) == 3
    tops = sorted(top for top, _ in comps)
    assert tops == [(-1, 1, 1), (1, 0, 1), (1, 1, -1)]


def test_nilradical_components_borel():
    g = build_geometry("A2", ())
    comps = nilradical_components(g)
    # torus levi: every positive root is its own component
    assert len(comps) == 3
    assert all(len(members) == 1 for _, members in comps)


def test_arrow_multiplicity_zero_and_one():
    g = build_geometry("A2", (2,))
    assert arrow_multiplicity(g, (0, 0), (-2, 1)) == 1
    assert arrow_multiplicity(g, (1, 1), (0, 0)) == 1
    assert arrow_multiplicity(g, (2, 0), (0, 0)) == 0  # not a root difference
    # target off the vertex set: no arrow rather than an error
    assert arrow_multiplicity(g, (0, 0), (-1, -1)) == 0
    with pytest.raises(ValueError):
        arrow_multiplicity(g, (0, -1), (0, 0))


@pytest.mark.parametrize(
    "name,levi",
    [
        ("A2", ()),
        ("A2", (1,)),
        ("A3", (2,)),
        ("A3", (1, 3)),
        ("D4", (1, 3, 4)),
    ],
)
def test_arrow_multiplicity_never_exceeds_one(name, levi):
    g = build_geometry(name, levi)
    rank = g.root_system.rank
    lams = [
        lam
        for lam in itertools.product(range(-1, 2), repeat=rank)
        if g.is_p_dominant(lam)
    ]
    for lam in lams:
        for beta in g.nilradical_roots:
            mu = tuple(a - b for a, b in zip(lam, beta.fund))
            if not g.is_p_dominant(mu):
                continue
            assert arrow_multiplicity(g, lam, mu) in (0, 1)


def test_freudenthal_full_group_adjoint():
    g = build_geometry("A2", (1, 2))
    mult = dict(freudenthal(g, (1, 1)))
    assert mult[(0, 0)] == 2
    assert sum(mult.values()) == 8
    mult = dict(freudenthal(g, (1, 0)))
    assert sum(mult.values()) == 3
    assert all(m == 1 for m in mult.values())


def test_nilradical_component_dim_four():
    g = build_geometry("A3", (1, 3))
    comps = nilradical_components(g)
    assert len(comps) == 1
    _, members = comps[0]
    assert len(members) == 4


def test_weight_keyed_memos_are_bounded():
    # Keyed on arbitrary weights, an unbounded memo grows for as long as
    # the process runs.
    assert freudenthal.cache_info().maxsize is not None


def test_freudenthal_recursion_runs_over_dominant_weights_only():
    # The D5 Levi of E6 with lam = rho_L: 13,213 weights, 2^20 in all
    # (dim V(rho) = 2^|Phi+|), of which only 44 are dominant.
    import time

    g = build_geometry("E6", (1, 2, 3, 4, 5))
    lam = (1, 1, 1, 1, 1, 0)
    start = time.perf_counter()
    weights = freudenthal.__wrapped__(g, lam)  # past the memo
    elapsed = time.perf_counter() - start
    assert len(weights) == 13213
    assert sum(m for _, m in weights) == 1048576 == levi_weyl_dim(g, lam)
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_freudenthal_checks_its_total_against_the_weyl_dimension(monkeypatch):
    # An explicit raise, so that it also holds under python -O.
    from homquiver import levi

    g = build_geometry("A3", (1, 2))
    monkeypatch.setattr(levi, "levi_weyl_dim", lambda geom, lam: 7)
    with pytest.raises(AssertionError, match="Weyl dimension"):
        levi.freudenthal.__wrapped__(g, (1, 1, 0))
