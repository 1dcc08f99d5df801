"""The Serre decision ``relations_hold`` against the full instance enumeration.

``relations_hold`` reads the completion ``bundle._complete``: its verdict
that the Serre brackets vanish, which must equal that of the Serre
relations written out as path polynomials (``oracles.serre_relations``),
and one bracket per non-simple arrow.  ``bundle._violated_instances``
enumerates every relation instance, and ``check_relations``, the relation
check of the validation gate ``require_valid``, decides first and
enumerates only once the decision fails.  On a structurally valid Borel
representation they must agree: the decision passes exactly when the
enumeration finds no violated instance.  The representations below are
fixtures, tangent and cotangent bundles with seeded perturbations, and
"boxes": random simple arrows on a block of weights, completed by the
brackets, where only a Serre relation can fail.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homquiver import (
    QuiverRep,
    RelationError,
    build_geometry,
    check_relations,
    cotangent,
    direct_sum,
    load_rep,
    tangent,
    validate,
)
from homquiver import bundle as bundle_mod
from homquiver.bundle import relations_hold, require_valid
from homquiver.linalg import Matrix

from .oracles import (
    conjugate,
    path_matrix,
    random_invertible,
    relation_table,
    serre_relations,
    serre_relations_hold,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
VIOLATED_FIXTURES = {"B_s0", "B_s1", "B_s3", "L_ell1"}
BUNDLE_TYPES = ("A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6")
TABLE_TYPES = tuple(f"A{n}" for n in range(1, 9)) + tuple(
    f"D{n}" for n in range(4, 9)
) + ("E6", "E7", "E8")


def agree(rep) -> bool:
    """Assert the decision equals the enumeration's verdict, and the
    completion's Serre verdict that of the path polynomials; return the
    decision."""
    assert validate(rep) == []
    assert bundle_mod._complete(rep)[1] == serre_relations_hold(rep)
    violated = bundle_mod._violated_instances(rep)
    holds = violated == []
    assert relations_hold(rep) == holds
    assert check_relations(rep) == violated
    if holds:
        require_valid(rep)
    else:
        with pytest.raises(RelationError) as exc:
            require_valid(rep)
        assert list(exc.value.instances) == violated
    return holds


def _target(src, root):
    return tuple(a - b for a, b in zip(src, root.fund))


def _is_simple(root):
    return root.height == 1


def complete(rep):
    """Replace the non-simple arrows by the brackets of the simple ones.

    Derived arrows are built by increasing height from the first entry of
    ``relation_table`` at each root, so every derived relation holds and
    only a Serre relation of the simple arrows can fail.
    """
    rs = rep.geometry.root_system
    table = relation_table(rs)
    arrows = {k: m for k, m in rep.arrows.items() if _is_simple(k[1])}
    work = QuiverRep(rep.geometry, rep.support, arrows)
    for delta in rs.positive_roots:
        if delta.height < 2:
            continue
        _, _, beta, gamma, n = table[delta.fund][1][0]
        for lam in rep.support:
            if _target(lam, delta) not in rep.support:
                continue
            mat = path_matrix(work, lam, (gamma, beta)) - path_matrix(work, lam, (beta, gamma))
            if not mat.is_zero():
                work.arrows[(lam, delta)] = mat.scale(Fraction(1, n))
    return work


def box(geom, rng, depth=2):
    """Random simple arrows on the weights -sum c_i alpha_i, 0 <= c_i <= depth,
    with at most depth + 1 steps in all, completed by ``complete``."""
    rs = geom.root_system
    simple = [rs.simple_root(i + 1) for i in range(rs.rank)]
    support = {}
    for cs in itertools.product(range(depth + 1), repeat=rs.rank):
        if sum(cs) <= depth + 1:
            lam = tuple(-sum(c * a.fund[k] for c, a in zip(cs, simple)) for k in range(rs.rank))
            support[lam] = 1
    arrows = {
        (lam, a): Matrix([[rng.randint(-2, 2)]])
        for lam in support
        for a in simple
        if _target(lam, a) in support
    }
    return complete(QuiverRep(geom, support, arrows))


def _with(rep, key, mat):
    """rep with the arrow at key replaced by mat (None: dropped); a new
    target vertex gets dimension mat.rows."""
    support, arrows = dict(rep.support), dict(rep.arrows)
    if mat is None:
        del arrows[key]
    else:
        arrows[key] = mat
        support.setdefault(_target(*key), mat.rows)
    return QuiverRep(rep.geometry, support, arrows)


def perturbations(rep, rng):
    """Seeded variants of rep: for simple and for non-simple directions, a
    scaled arrow and a dropped arrow (where one exists) and an added arrow.  An added arrow may
    lead to a new vertex (a tangent bundle has every arrow its support
    allows)."""
    rs = rep.geometry.root_system
    out = []
    for simple in (True, False):
        present = sorted(k for k in rep.arrows if _is_simple(k[1]) == simple)
        if present:
            key = rng.choice(present)
            out.append(_with(rep, key, rep.arrows[key].scale(rng.choice((-1, 2, 3)))))
            out.append(_with(rep, rng.choice(present), None))
        absent = sorted(
            (lam, root)
            for lam in rep.support
            for root in rs.positive_roots
            if _is_simple(root) == simple and (lam, root) not in rep.arrows
        )
        lam, root = rng.choice(absent)
        rows, cols = rep.support.get(_target(lam, root), 1), rep.support[lam]
        mat = Matrix([[rng.choice((-1, 1, 2)) for _ in range(cols)] for _ in range(rows)])
        out.append(_with(rep, (lam, root), mat))
    return out


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixtures_agree(path):
    assert agree(load_rep(path)) == (path.stem not in VIOLATED_FIXTURES)


@pytest.mark.parametrize("type_name", BUNDLE_TYPES)
def test_tangent_and_cotangent_with_perturbations_agree(type_name):
    g = build_geometry(type_name)
    rng = random.Random(f"serre-{type_name}")
    verdicts = []
    for rep in (tangent(g), cotangent(g)):
        assert agree(rep)
        variants = perturbations(rep, rng)
        verdicts.extend(agree(v) for v in variants)
    assert not all(verdicts)


@pytest.mark.parametrize("type_name", ("A2", "A3", "D4"))
def test_boxes_agree(type_name):
    # A box only fails a Serre relation, so it separates the Serre check
    # from the bracket check; on A2 the only Serre relations are the
    # ad(f_i)^2 f_j ones.
    g = build_geometry(type_name)
    rng = random.Random(f"box-{type_name}")
    verdicts = [agree(box(g, rng)) for _ in range(6)]
    zero = QuiverRep(g, box(g, rng).support)
    assert agree(zero)
    assert not all(verdicts)


def test_conjugated_sums_agree():
    g = build_geometry("A3")
    rng = random.Random(7)
    rep = direct_sum(tangent(g), cotangent(g), tangent(g))
    rep = conjugate(rep, {lam: random_invertible(rng, d) for lam, d in rep.support.items()})
    assert agree(rep)
    assert not all(agree(v) for v in perturbations(rep, rng))


def test_decision_rejecting_a_consistent_bundle_is_an_error(monkeypatch):
    # the enumeration double-checks every rejection; an empty list there is
    # a fault of the decision, raised even under python -O
    rep = tangent(build_geometry("A2"))
    monkeypatch.setattr(bundle_mod, "relations_hold", lambda _: False)
    with pytest.raises(AssertionError, match="relations_hold rejects"):
        check_relations(rep)
    with pytest.raises(AssertionError, match="relations_hold rejects"):
        require_valid(rep)


def test_false_rejection_is_an_error_under_python_O():
    code = (
        "from homquiver import build_geometry, bundle, tangent\n"
        "rep = tangent(build_geometry('A2'))\n"
        "bundle.relations_hold = lambda _: False\n"
        "try:\n"
        "    bundle.require_valid(rep)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = str(pathlib.Path(bundle_mod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("relations_hold rejects")


@pytest.mark.parametrize("type_name", ("A2", "A3", "D4"))
def test_each_serre_path_alone_is_rejected(type_name):
    # Unit arrows along one path of one Serre relation, completed by the
    # brackets: no other path of that relation exists at the source, so the
    # Serre check must evaluate it there from the path's first root alone.
    g = build_geometry(type_name)
    lam = (0,) * g.root_system.rank
    checked = 0
    for _, terms in serre_relations(g.root_system):
        for _, path in terms:
            support, arrows, cur = {lam: 1}, {}, lam
            for root in path:
                arrows[(cur, root)] = Matrix([[1]])
                cur = _target(cur, root)
                support[cur] = 1
            rep = bundle_mod._complete(QuiverRep(g, support, arrows))[0]
            assert not relations_hold(rep)
            assert not agree(rep)
            checked += 1
    assert checked > len(serre_relations(g.root_system))


@pytest.mark.parametrize("type_name", TABLE_TYPES)
def test_first_decompositions_are_first_table_entries(type_name):
    # Each completion-plan step's pair is the first decomposition of its
    # root, ordered so that its sign N(-beta, -gamma) is +1.
    rs = build_geometry(type_name).root_system
    steps, _ = bundle_mod._completion_plan(rs)
    table = relation_table(rs)
    for delta, beta, gamma in steps:
        _, _, first, second, n = table[delta.fund][1][0]
        assert (beta, gamma) == ((first, second) if n == 1 else (second, first))
        assert rs.chevalley(-beta, -gamma) == 1
    assert [delta for delta, _, _ in steps] == [r for r in rs.positive_roots if r.height >= 2]


@pytest.mark.parametrize("type_name", TABLE_TYPES)
def test_completion_plan_serre_pairs_match_serre_relations(type_name):
    # One pair per Serre relation, in the same order: [f_i, f_j] for
    # non-adjacent i, j, [f_i, f_(alpha_i+alpha_j)] for adjacent ones.
    rs = build_geometry(type_name).root_system
    _, serre = bundle_mod._completion_plan(rs)
    relations = serre_relations(rs)
    assert len(serre) == len(relations)
    for (beta, gamma), (shift, terms) in zip(serre, relations):
        assert beta.height == 1
        assert tuple(a + b for a, b in zip(beta.fund, gamma.fund)) == shift
        assert gamma.height == len(terms[0][1]) - 1


FUZZ = settings(
    derandomize=True,
    max_examples=120,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(
    type_name=st.sampled_from(("A2", "A3", "D4")),
    base=st.sampled_from(("tangent", "cotangent", "sum", "box")),
    seed=st.integers(0, 10**6),
    variant=st.integers(0, 6),
)
def test_fuzz_perturbed_consistent_bundles(type_name, base, seed, variant):
    g = build_geometry(type_name)
    rng = random.Random(seed)
    if base == "box":
        rep = box(g, rng, depth=1 if type_name == "D4" else 2)
    else:
        rep = tangent(g) if base in ("tangent", "sum") else cotangent(g)
        if base == "sum":
            rep = direct_sum(rep, cotangent(g))
        rep = conjugate(rep, {lam: random_invertible(rng, d) for lam, d in rep.support.items()})
    variants = perturbations(rep, rng)
    if variant < len(variants):
        rep = variants[variant]
        if rng.random() < 0.3:
            rep = complete(rep)
    agree(rep)
