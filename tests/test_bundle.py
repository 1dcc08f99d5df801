import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import homquiver
from homquiver import (
    QuiverRep,
    RelationError,
    build_geometry,
    check_relations,
    colon_quotient,
    cotangent,
    direct_sum,
    gabriel_decompose,
    irreducible,
    is_am_type,
    line_bundle,
    solve_derived_arrows,
    subrep_generated,
    tangent,
    validate,
)
from homquiver.linalg import Matrix, row_basis

from homquiver import bundle as bundle_mod
from homquiver.bundle import _closure

from .oracles import (
    am_chain_oracle,
    arrow_or_zero,
    colon_kernel_oracle,
    conjugate,
    path_matrix,
    quotient_oracle,
    random_consistent_rep,
    random_invertible,
    restrict_oracle,
    span_closure_oracle,
    transpose,
)
from .test_relation_engine import dense_check


def scalar(v):
    return Matrix([[v]])


@pytest.fixture
def a2():
    return build_geometry("A2", ())


def both_simple(a2):
    rs = a2.root_system
    return rs.simple_root(1), rs.simple_root(2)


def rep_l(a2, ell):
    a1, a2r = both_simple(a2)
    return QuiverRep(
        a2,
        {(0, 0): 1, (-2, 1): 1, (-1, -1): 1, (-3, 0): 1},
        {
            ((0, 0), a1): scalar(ell),
            ((-2, 1), a2r): scalar(1),
            ((-1, -1), a1): scalar(1),
        },
    )


def rep_b(a2, s, f=1):
    a1, a2r = both_simple(a2)
    return QuiverRep(
        a2,
        {(0, 0): 1, (-2, 1): 1, (-1, -1): 1, (-3, 0): 1, (-4, 2): 1},
        {
            ((0, 0), a1): scalar(f),
            ((-2, 1), a1): scalar(s),
            ((-2, 1), a2r): scalar(1),
            ((-1, -1), a1): scalar(1),
            ((-4, 2), a2r): scalar(1),
        },
    )


def test_validate_accepts_good_rep(a2):
    assert validate(rep_l(a2, 0)) == []


# (support, arrows by simple root 1 or -1) and the one error validate gives.
BAD_SHAPES = {
    "coordinate-length": ({(0, 0, 0): 1}, {}, "vertex (0, 0, 0): wrong coordinate length"),
    "dimension": ({(0, 0): 0}, {}, "vertex (0, 0): non-positive dimension 0"),
    "source": ({(0, 0): 1}, {((5, 5), 1): [[1]]}, "arrow (5, 5) -(1, 0)->: source not in support"),
    "target": (
        {(0, 0): 1}, {((0, 0), 1): [[1]]},
        "arrow (0, 0) -(1, 0)->: target (-2, 1) not in support",
    ),
    "nilradical": (
        {(0, 0): 1, (2, -1): 1}, {((0, 0), -1): [[1]]},
        "arrow (0, 0) -(-1, 0)->: not a nilradical root",
    ),
    "matrix-shape": (
        {(0, 0): 2, (-2, 1): 1}, {((0, 0), 1): [[1, 0], [0, 1]]},
        "arrow (0, 0) -(1, 0)->: matrix is 2x2, expected 1x2",
    ),
}


@pytest.mark.parametrize("case", BAD_SHAPES)
def test_validate_flags_bad_shape(a2, case):
    support, arrows, message = BAD_SHAPES[case]
    a1, _ = both_simple(a2)
    arrows = {(src, a1 if sign > 0 else -a1): mat for (src, sign), mat in arrows.items()}
    assert validate(QuiverRep(a2, support, arrows)) == [message]


@pytest.mark.parametrize(
    "support, arrows",
    [
        # An arrow from (3, 0), outside the support.
        ({(0, 0): 1, (-2, 1): 1}, {(0, 0): [[1]], (3, 0): [[1]]}),
        # A 1x1 arrow where the dimensions ask for 1x2.
        ({(0, 0): 2, (-2, 1): 1}, {(0, 0): [[1]]}),
    ],
)
def test_solve_rejects_invalid_structure(a2, support, arrows):
    a1, _ = both_simple(a2)
    rep = QuiverRep(a2, support, {(src, a1): mat for src, mat in arrows.items()})
    errors = validate(rep)
    assert errors
    with pytest.raises(ValueError) as exc:
        solve_derived_arrows(rep)
    assert str(exc.value) == "; ".join(errors)


def test_solve_rejection_that_lists_nothing_is_a_fault(a2, monkeypatch):
    # rep_l(a2, 1) fails the Serre check; a listing that finds no violated
    # instance then contradicts the decision.
    monkeypatch.setattr(bundle_mod, "_violated_instances", lambda rep: [])
    with pytest.raises(AssertionError, match="every relation instance holds"):
        solve_derived_arrows(rep_l(a2, 1))


def scaled_tangent_generators(name):
    """The simple arrows of the tangent bundle, the first scaled by 3."""
    rep = tangent(build_geometry(name))
    rs = rep.geometry.root_system
    simples = set(rs.positive_roots[: rs.rank])
    arrows = {key: mat for key, mat in rep.arrows.items() if key[1] in simples}
    first = min(arrows)
    arrows[first] = arrows[first].scale(3)
    return QuiverRep(rep.geometry, rep.support, arrows)


@pytest.mark.parametrize("case", ["rep_l", "A3", "D4"])
def test_rejected_solve_runs_the_serre_check_once(a2, case, monkeypatch):
    # The completion's Serre verdict has already rejected it, so the
    # listing must not complete or decide again; it lists what
    # check_relations lists for the completion, which is the dense check's.
    rep = rep_l(a2, 1) if case == "rep_l" else scaled_tangent_generators(case)
    work, serre = bundle_mod._complete(rep)
    assert not serre
    expected = check_relations(work)
    assert expected and expected == dense_check(work)
    calls = []
    complete = bundle_mod._complete
    monkeypatch.setattr(
        bundle_mod, "_complete", lambda rep_: calls.append(rep_) or complete(rep_)
    )
    with pytest.raises(RelationError) as exc:
        solve_derived_arrows(rep)
    assert len(calls) == 1
    assert list(exc.value.instances) == expected


def test_zero_arrows_are_dropped(a2):
    rep = rep_l(a2, 0)
    a1, _ = both_simple(a2)
    assert ((0, 0), a1) not in rep.arrows
    assert arrow_or_zero(rep, (0, 0), a1).is_zero()


def test_extension_constant_forced_to_zero(a2):
    solved = solve_derived_arrows(rep_l(a2, 0))
    assert check_relations(solved) == []
    with pytest.raises(RelationError) as exc:
        solve_derived_arrows(rep_l(a2, 1))
    assert exc.value.instances


def test_second_extension_forces_s_two(a2):
    outcomes = {}
    for s in range(4):
        try:
            solve_derived_arrows(rep_b(a2, s))
            outcomes[s] = True
        except RelationError:
            outcomes[s] = False
    assert outcomes == {0: False, 1: False, 2: True, 3: False}
    # and independently of f
    solve_derived_arrows(rep_b(a2, 2, f=5))
    with pytest.raises(RelationError):
        solve_derived_arrows(rep_b(a2, 3, f=5))


def test_partial_flag_without_new_vertex_unconstrained(a2):
    # dropping the trivial summand removes the constraint on s entirely
    a1, a2r = both_simple(a2)
    for s in range(4):
        rep = QuiverRep(
            a2,
            {(-2, 1): 1, (-1, -1): 1, (-3, 0): 1, (-4, 2): 1},
            {
                ((-2, 1), a1): scalar(s),
                ((-2, 1), a2r): scalar(1),
                ((-1, -1), a1): scalar(1),
                ((-4, 2), a2r): scalar(1),
            },
        )
        solve_derived_arrows(rep)


def test_solver_round_trip_random(a2):
    rng = random.Random(23)
    for _ in range(25):
        rep = random_consistent_rep(a2, rng)
        generating_only = QuiverRep(
            a2,
            dict(rep.support),
            {
                (src, root): mat
                for (src, root), mat in rep.arrows.items()
                if root in a2.generating_roots
            },
        )
        solved = solve_derived_arrows(generating_only)
        assert check_relations(solved) == []


def test_direct_sum_support_and_consistency(a2):
    rep = direct_sum(irreducible(a2, (1, 0)), irreducible(a2, (1, 0)))
    assert rep.support == {(1, 0): 2}
    s = direct_sum(solve_derived_arrows(rep_l(a2, 0)), irreducible(a2, (0, 0)))
    assert s.support[(0, 0)] == 2
    assert check_relations(s) == []


def test_direct_sum_blocks_over_mixed_denominators(a2):
    # the arrow along alpha_1 from (1, 0) is 1/2 in the first summand and
    # the 2x1 column (2/3, 1) in the second, which also has a second vertex
    alpha = a2.root_system.simple_root(1)
    half = QuiverRep(a2, {(1, 0): 1, (-1, 1): 1}, {((1, 0), alpha): Matrix([["1/2"]])})
    third = QuiverRep(
        a2,
        {(1, 0): 1, (-1, 1): 2, (0, 0): 1},
        {((1, 0), alpha): Matrix([["2/3"], [1]])},
    )
    rep = direct_sum(half, third)
    assert rep.support == {(1, 0): 2, (-1, 1): 3, (0, 0): 1}
    expected = Matrix([["1/2", 0], [0, "2/3"], [0, 1]])
    assert rep.arrows == {((1, 0), alpha): expected}
    assert rep.arrows[((1, 0), alpha)].den == 6


def test_line_bundle_requires_borel():
    g = build_geometry("A2", (2,))
    with pytest.raises(ValueError):
        line_bundle(g, (1, 0))
    assert irreducible(g, (1, 0)).support == {(1, 0): 1}
    with pytest.raises(ValueError):
        irreducible(g, (0, -1))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "D4", "A4", "D5"])
def test_builders_satisfy_relations(name):
    g = build_geometry(name, ())
    for rep in (tangent(g), cotangent(g)):
        assert validate(rep) == []
        assert check_relations(rep) == []


def test_adjoint_builders_require_borel():
    g = build_geometry("A2", (2,))
    for builder in (tangent, cotangent):
        with pytest.raises(ValueError, match="builder requires the Borel parabolic"):
            builder(g)


def test_tangent_support_is_positive_roots(a2):
    rep = tangent(a2)
    assert set(rep.support) == {r.fund for r in a2.root_system.positive_roots}
    assert all(d == 1 for d in rep.support.values())


def test_cotangent_support_is_negative_roots(a2):
    rep = cotangent(a2)
    assert set(rep.support) == {
        tuple(-c for c in r.fund) for r in a2.root_system.positive_roots
    }


def test_subrep_from_sink_is_vertex(a2):
    rep = solve_derived_arrows(rep_l(a2, 0))
    sub = subrep_generated(rep, [(-3, 0)])
    assert sub.support == {(-3, 0): 1}


def test_subrep_from_source_reaches_closure(a2):
    rep = solve_derived_arrows(rep_b(a2, 2))
    sub = subrep_generated(rep, [(0, 0)])
    # O maps onto (-2,1) (f=1) and onward through the solved arrows
    assert (0, 0) in sub.support and (-2, 1) in sub.support


def test_colon_quotient_full_seed_is_zero(a2):
    rep = solve_derived_arrows(rep_l(a2, 0))
    quo = colon_quotient(rep, list(rep.support))
    assert quo.support == {}


def test_colon_quotient_respects_relations():
    g = build_geometry("A1", ())
    alpha = g.root_system.simple_root(1)
    rep = QuiverRep(
        g,
        {(2,): 1, (0,): 2, (-2,): 1},
        {((2,), alpha): Matrix([[1], [0]]), ((0,), alpha): Matrix([[0, 1]])},
    )
    quo = colon_quotient(rep, [(-2,)])
    # only the vectors whose entire forward orbit stays at the sink survive
    assert validate(quo) == []
    assert sum(quo.support.values()) < sum(rep.support.values())


def _chain(geom, rng, length):
    """Vertices top, top - a_1, top - 2 a_1, ... of dimension 1 to 3 with
    random integer arrows (consistent: no relation has two a_1 steps)."""
    alpha = geom.root_system.simple_root(1)
    verts = [(length,) + (1,) * (geom.root_system.rank - 1)]
    for _ in range(length):
        verts.append(tuple(a - b for a, b in zip(verts[-1], alpha.fund)))
    dims = {v: rng.randint(1, 3) for v in verts}
    arrows = {
        (src, alpha): Matrix(
            [[rng.randint(-1, 1) for _ in range(dims[src])] for _ in range(dims[tgt])]
        )
        for src, tgt in zip(verts, verts[1:])
    }
    return QuiverRep(geom, dims, arrows)


def _closure_cases():
    """Random consistent bundles, and conjugated direct sums of one with a
    tangent or cotangent bundle or a chain (paths of several arrows), each
    with a random seed set."""
    rng = random.Random(29)
    for name in ("A1", "A2", "A3", "D4"):
        geom = build_geometry(name, ())
        for k in range(9):
            rep = random_consistent_rep(geom, rng)
            if k % 3:
                base = tangent if k % 3 == 1 else cotangent
                rep = direct_sum(base(geom), rep, _chain(geom, rng, 4))
                rep = conjugate(
                    rep, {lam: random_invertible(rng, d) for lam, d in rep.support.items()}
                )
            verts = sorted(rep.support)
            yield rep, [v for v in verts if rng.random() < 0.3] or verts[:1]
            yield rep, [v for v in verts if rng.random() < 0.8]


def test_closures_match_fixpoint_oracles():
    # one pass by vertex height gives the while-changed fixpoints exactly:
    # the same rref bases, and annihilators of exactly the oracle kernels
    for rep, seeds in _closure_cases():
        spans = span_closure_oracle(rep, seeds)
        got = _closure(rep, seeds, True, "")[0]
        assert got.keys() == spans.keys()
        for lam, basis in got.items():
            # None is the full space: its basis is the identity.
            if basis is None:
                basis = Matrix.identity(rep.support[lam])
            assert list(basis.data) == spans[lam]
        assert subrep_generated(rep, seeds) == restrict_oracle(rep, spans)
        kernel = colon_kernel_oracle(rep, seeds)
        ann = _closure(rep, seeds, False, "")[0]
        assert ann.keys() == kernel.keys()
        for lam, f in ann.items():
            if f is None:
                f = Matrix.identity(rep.support[lam])
            k = Matrix(kernel[lam], len(kernel[lam]), f.cols)
            assert (f @ transpose(k)).is_zero()
            assert f.rank() + k.rows == f.cols
            assert row_basis(f)[0] == f
        assert colon_quotient(rep, seeds) == quotient_oracle(rep, kernel)


def test_commutative_square_checks_reject_non_invariant_spaces(monkeypatch):
    # identity arrow on a 2-space, seeded at its source: each closure
    # stacks the pushed identity onto the zero space at the other end of
    # the arrow (the target forward, the source backward).  The reduction
    # is replaced by one returning the first coordinate line, which misses
    # the pushed rows, so the commutative-square check is what sees it.
    g = build_geometry("A1", ())
    alpha = g.root_system.simple_root(1)
    rep = QuiverRep(g, {(2,): 2, (0,): 2}, {((2,), alpha): Matrix.identity(2)})
    monkeypatch.setattr(bundle_mod, "row_basis", lambda mat: (Matrix([[1, 0]]), (0,)))
    with pytest.raises(AssertionError, match="generated spans are not arrow-invariant"):
        subrep_generated(rep, [(2,)])
    with pytest.raises(AssertionError, match="colon kernel is not arrow-invariant"):
        colon_quotient(rep, [(2,)])


def test_commutative_square_checks_survive_python_O():
    code = (
        "from homquiver import Matrix, QuiverRep, build_geometry, bundle\n"
        "g = build_geometry('A1')\n"
        "alpha = g.root_system.simple_root(1)\n"
        "rep = QuiverRep(g, {(2,): 2, (0,): 2}, {((2,), alpha): Matrix.identity(2)})\n"
        "bundle.row_basis = lambda mat: (Matrix([[1, 0]]), (0,))\n"
        "for build in (bundle.subrep_generated, bundle.colon_quotient):\n"
        "    try:\n"
        "        build(rep, [(2,)])\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    src = str(pathlib.Path(homquiver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "generated spans are not arrow-invariant",
        "colon kernel is not arrow-invariant",
    ]


def test_full_spaces_do_not_grow_with_dim():
    # A1 with vertices (1) and (-3) and no arrows: a d x d identity at
    # each full space made both grow as d^2
    rep = QuiverRep(build_geometry("A1", ()), {(1,): 3000, (-3,): 3000})
    start = time.perf_counter()
    sub = subrep_generated(rep, [(1,)])
    quo = colon_quotient(rep, [(1,)])
    elapsed = time.perf_counter() - start
    assert sub.support == {(1,): 3000}
    assert quo.support == {(-3,): 3000}
    assert elapsed < 0.5, elapsed


def test_is_am_type_detection():
    g = build_geometry("A1", ())
    alpha = g.root_system.simple_root(1)
    chain = QuiverRep(
        g, {(3,): 1, (1,): 1}, {((3,), alpha): Matrix([[1]])}
    )
    path = is_am_type(chain)
    assert path is not None
    assert path.vertices == ((3,), (1,))

    g2 = build_geometry("A2", ())
    mixed = solve_derived_arrows(rep_l(g2, 0))
    assert is_am_type(mixed) is None


def test_is_am_type_allows_gaps():
    g = build_geometry("A1", ())
    rep = QuiverRep(g, {(4,): 1, (0,): 1}, {})
    path = is_am_type(rep)
    assert path is not None
    assert path.vertices == ((4,), (2,), (0,))


AM_GEOMETRIES = (
    ("A1", ()), ("A2", ()), ("A3", (2,)), ("D4", (1, 3)), ("A4", (1,)), ("E6", (1, 2, 3, 4, 5)),
)


def _random_supports(geom, rng):
    """Chains with gaps, chains plus one stray vertex, and small random
    supports, each with coordinates drawn near 0."""
    n = geom.root_system.rank

    def weight():
        return tuple(rng.randint(-3, 3) for _ in range(n))

    for kind in ("chain", "stray", "random"):
        for _ in range(60):
            if kind == "random":
                yield {weight(): 1 for _ in range(rng.randint(1, 4))}
                continue
            beta = rng.choice(geom.nilradical_roots)
            top = weight()
            steps = rng.sample(range(6), rng.randint(1, 4))
            support = {tuple(a - q * b for a, b in zip(top, beta.fund)): 1 for q in steps}
            if kind == "stray":
                support[weight()] = 1
            yield support


def test_is_am_type_matches_oracle_on_random_supports():
    rng = random.Random(15)
    chains = drawn = 0
    for name, levi in AM_GEOMETRIES:
        g = build_geometry(name, levi)
        for support in _random_supports(g, rng):
            rep = QuiverRep(g, support)
            path = is_am_type(rep)
            got = None
            if path is not None:
                direction = path.direction.simple if path.direction else None
                got = (direction, path.vertices)
            assert got == am_chain_oracle(rep), (name, levi, sorted(support))
            drawn += 1
            chains += got is not None
    # Both answers occur among the draws.
    assert 0 < chains < drawn


def test_gabriel_iso_arrow_single_interval():
    g = build_geometry("A1", ())
    alpha = g.root_system.simple_root(1)
    rep = QuiverRep(g, {(1,): 1, (-1,): 1}, {((1,), alpha): Matrix([[1]])})
    dec = gabriel_decompose(rep)
    assert dict(dec.intervals) == {(0, 1): 1}


def test_gabriel_zero_arrow_splits():
    g = build_geometry("A1", ())
    rep = QuiverRep(g, {(1,): 1, (-1,): 1}, {})
    dec = gabriel_decompose(rep)
    assert dict(dec.intervals) == {(0, 0): 1, (1, 1): 1}


def run_optimized(code):
    """Run code under ``python -O`` against this checkout; its stdout."""
    src = str(pathlib.Path(homquiver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_gabriel_check_survives_python_O():
    # A rank of 0 for a nonzero map, or one above the rank of a factor, is
    # a wrong elimination; the check must still fire when asserts are
    # stripped.
    for mutant in (
        "Matrix.rank = lambda self: 0",
        "rank = Matrix.rank\nMatrix.rank = lambda self: rank(self) + 1",
    ):
        code = (
            "from homquiver import Matrix, QuiverRep, build_geometry, gabriel_decompose\n"
            f"{mutant}\n"
            "g = build_geometry('A1')\n"
            "alpha = g.root_system.simple_root(1)\n"
            "rep = QuiverRep(g, {(1,): 1, (-1,): 1}, {((1,), alpha): Matrix([[1]])})\n"
            "try:\n"
            "    gabriel_decompose(rep)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        assert run_optimized(code) == "Gabriel rank disagrees with its factors", mutant


def test_gabriel_cost_follows_the_file():
    # No arrow: the ranks are the dimensions and no product is formed, so
    # no d x d matrix is built or eliminated.
    g = build_geometry("A1", ())
    rep = QuiverRep(g, {(1,): 300, (-1,): 300})
    start = time.perf_counter()
    dec = gabriel_decompose(rep)
    elapsed = time.perf_counter() - start
    assert dec.intervals == (((0, 0), 300), ((1, 1), 300))
    assert elapsed < 2.0, elapsed


def test_gabriel_counts_match_ranks_randomly():
    g = build_geometry("A1", ())
    alpha = g.root_system.simple_root(1)
    rng = random.Random(31)
    for _ in range(25):
        dims = [rng.randint(0, 2) for _ in range(3)]
        support = {(4 - 2 * i,): d for i, d in enumerate(dims) if d}
        arrows = {}
        for i in range(2):
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
        if not support:
            continue
        dec = gabriel_decompose(rep)
        chain = dec.path.vertices
        # total dimension at each chain slot must be reproduced
        for idx, v in enumerate(chain):
            got = sum(
                m for (i, j), m in dec.intervals if i <= idx <= j
            )
            assert got == rep.support.get(v, 0)
        # composite ranks must equal the number of intervals spanning them
        direction = dec.path.direction
        for lo in range(len(chain)):
            for hi in range(lo, len(chain)):
                mat = path_matrix(rep, chain[lo], (direction,) * (hi - lo))
                spanning = sum(
                    m for (i, j), m in dec.intervals if i <= lo and hi <= j
                )
                assert mat.rank() == spanning, (support, lo, hi)
