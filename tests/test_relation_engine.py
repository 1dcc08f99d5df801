"""The relation listing against the dense enumeration it replaces.

The listing behind ``check_relations`` (``bundle._violated_instances``)
evaluates, at each source, the instances one of whose paths exists: the
pairs of the 2-paths leaving it and the decompositions of its non-simple
arrows.  These tests pin that it evaluates a subsequence of the instances
of ``borel_relation_instances`` whose end lies in the support, every
instance with a full path among them, and lists exactly the violated
ones of the dense check; and that the solver picks the same bracket
decomposition as a scan over all root pairs.
"""

import pathlib
import random
import time

import pytest

import homquiver.bundle as bundle_mod
from homquiver import (
    QuiverRep,
    build_geometry,
    check_relations,
    cotangent,
    h0,
    load_rep,
    tangent,
)
from homquiver.linalg import Matrix
from homquiver.quiver import RelationInstance, borel_relation_instances

from .oracles import arrow_or_zero, path_matrix, relation_table, support_relation_instances

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
SMALL_TYPES = ("A2", "A3", "A4", "D4", "D5", "E6")
ALL_TYPES = ("A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8")


def _end(inst):
    return tuple(
        a - b - c for a, b, c in zip(inst.source, inst.beta.fund, inst.gamma.fund)
    )


def dense_order(geom, support):
    """The dense enumeration restricted to ends in the support."""
    support = set(support)
    return [
        inst for inst in borel_relation_instances(geom, support)
        if _end(inst) in support
    ]


def sparse_order(geom, support):
    rs = geom.root_system
    out = []
    for inst, end, delta in support_relation_instances(geom, support):
        assert end == _end(inst)
        total = tuple(a + b for a, b in zip(inst.beta.simple, inst.gamma.simple))
        assert delta == rs.root(total)
        out.append(inst)
    return out


def checked_order(rep, monkeypatch):
    """The instances the full enumeration behind check_relations evaluates,
    in order, read back from the brackets it hands to ``_bracket``: the
    pair in ``positive_roots`` order, swapped exactly when its Chevalley
    coefficient is -1.  Both paths of a bracket, and the direct arrow the
    listing looks up after it, must end at the instance's end."""
    rs = rep.geometry.root_system
    index = {root: k for k, root in enumerate(rs.positive_roots)}
    seen, direct, inside = [], [], []
    original, arrows = bundle_mod._bracket, rep.arrows

    class Lookups(dict):
        """rep.arrows, recording each lookup made outside ``_bracket``."""

        def get(self, key, default=None):
            if not inside:
                direct.append((seen[-1], key))
            return dict.get(self, key, default)

    def recording(rep_, lam, first, second):
        beta, gamma = sorted((first, second), key=index.get)
        coefficient = rs.chevalley(-beta, -gamma)
        assert (first, second) == ((gamma, beta) if coefficient < 0 else (beta, gamma))
        inst = RelationInstance(lam, beta, gamma, coefficient)
        for path in ((first, second), (second, first)):
            end = lam
            for root in path:
                end = tuple(a - b for a, b in zip(end, root.fund))
            assert end == _end(inst)
        seen.append(inst)
        inside.append(True)
        try:
            return original(rep_, lam, first, second)
        finally:
            inside.pop()

    monkeypatch.setattr(bundle_mod, "_bracket", recording)
    monkeypatch.setattr(rep, "arrows", Lookups(arrows))
    violated = bundle_mod._violated_instances(rep)
    monkeypatch.setattr(bundle_mod, "_bracket", original)
    monkeypatch.setattr(rep, "arrows", arrows)
    assert [inst for inst, _ in direct] == seen  # one lookup per bracket
    for inst, (lam, delta) in direct:
        assert lam == inst.source
        assert (delta is None) == (inst.coefficient == 0)
        if delta is not None:
            assert tuple(a - b for a, b in zip(lam, delta.fund)) == _end(inst)
    return seen, violated


def dense_check(rep):
    """The dense check_relations: every instance, residual by rs.root."""
    geom = rep.geometry
    rs = geom.root_system
    violated = []
    for inst in borel_relation_instances(geom, rep.support):
        end = _end(inst)
        if rep.dim(inst.source) == 0 or rep.dim(end) == 0:
            continue
        lam, beta, gamma = inst.source, inst.beta, inst.gamma
        res = path_matrix(rep, lam, (gamma, beta)) - path_matrix(rep, lam, (beta, gamma))
        if inst.coefficient:
            delta = rs.root(tuple(a + b for a, b in zip(beta.simple, gamma.simple)))
            res = res - arrow_or_zero(rep, lam, delta).scale(inst.coefficient)
        if not res.is_zero():
            violated.append(inst)
    return violated


def has_path(rep, inst):
    """Whether a full 2-path or the direct arrow of the instance exists."""
    lam, beta, gamma = inst.source, inst.beta, inst.gamma
    for first, second in ((beta, gamma), (gamma, beta)):
        mid = tuple(a - b for a, b in zip(lam, first.fund))
        if (lam, first) in rep.arrows and (mid, second) in rep.arrows:
            return True
    if not inst.coefficient:
        return False
    rs = rep.geometry.root_system
    delta = rs.root(tuple(a + b for a, b in zip(beta.simple, gamma.simple)))
    return (lam, delta) in rep.arrows


def check_listing(rep, monkeypatch):
    """Assert the listing evaluates a subsequence of the dense order that
    holds every instance with a full path, and lists the dense check's
    violated instances; return the evaluated and the violated ones."""
    seen, violated = checked_order(rep, monkeypatch)
    dense = dense_order(rep.geometry, rep.support)
    rest = iter(dense)
    assert all(inst in rest for inst in seen)  # a subsequence, in order
    assert set(seen) >= {inst for inst in dense if has_path(rep, inst)}
    assert violated == dense_check(rep)
    return seen, violated


def with_random_arrows(geom, support, rng):
    """support (each vertex of dimension 1 or 2) with a random matrix on
    about a third of the arrows it allows."""
    dims = {lam: rng.randint(1, 2) for lam in sorted(support)}
    arrows = {}
    for lam in dims:
        for root in geom.root_system.positive_roots:
            tgt = tuple(a - b for a, b in zip(lam, root.fund))
            if tgt in dims and rng.random() < 0.35:
                arrows[(lam, root)] = Matrix(
                    [[rng.randint(-2, 2) for _ in range(dims[lam])] for _ in range(dims[tgt])]
                )
    return QuiverRep(geom, dims, arrows)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixture_check_order_matches_dense_enumeration(path, monkeypatch):
    rep = load_rep(path)
    assert rep.geometry.is_borel
    _, violated = check_listing(rep, monkeypatch)
    assert check_relations(rep) == violated


@pytest.mark.parametrize("type_name", SMALL_TYPES)
def test_tangent_and_cotangent_check_order(type_name, monkeypatch):
    g = build_geometry(type_name)
    for rep in (tangent(g), cotangent(g)):
        _, violated = check_listing(rep, monkeypatch)
        assert violated == [] == check_relations(rep)
        assert sparse_order(g, rep.support) == dense_order(g, rep.support)


@pytest.mark.parametrize("type_name", ("A2", "A3", "D4"))
def test_random_supports_match_dense_enumeration(type_name, monkeypatch):
    g = build_geometry(type_name)
    keys = len(relation_table(g.root_system))
    rng = random.Random(20061)
    arrow_rng = random.Random(f"arrows-{type_name}")
    listed = 0
    for _ in range(25):
        size = rng.randint(1, 2 * keys)
        support = {
            tuple(rng.randint(-3, 3) for _ in range(g.root_system.rank))
            for _ in range(size)
        }
        assert sparse_order(g, support) == dense_order(g, support)
        _, violated = check_listing(with_random_arrows(g, support, arrow_rng), monkeypatch)
        listed += len(violated)
    assert listed > 0


def test_large_a2_support_with_random_arrows_matches_dense_check(monkeypatch):
    g = build_geometry("A2")
    support = {(a, b) for a in range(-5, 6) for b in range(-5, 6)}
    assert len(dense_order(g, support)) > 100
    rep = with_random_arrows(g, support, random.Random(11))
    seen, violated = check_listing(rep, monkeypatch)
    assert len(violated) > 20 and len(seen) > len(violated)


def test_listing_finds_a_lone_direct_arrow():
    # no simple arrow and no 2-path: only the direct arrow of the instance
    # at lam for {alpha1, alpha2} exists, so the listing must find it there
    g = build_geometry("A2")
    rs = g.root_system
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    delta = rs.root((1, 1))
    lam = (2, 1)
    end = tuple(x - y for x, y in zip(lam, delta.fund))
    rep = QuiverRep(g, {lam: 1, end: 1}, {(lam, delta): Matrix([[3]])})
    beta, gamma = sorted((a1, a2), key=rs.positive_roots.index)
    want = [RelationInstance(lam, beta, gamma, rs.chevalley(-beta, -gamma))]
    assert check_relations(rep) == want == dense_check(rep)


def test_a30_tangent_and_h0_scale_with_the_arrows():
    # 465 vertices and 8,990 arrows: the completion, the decision and the
    # pairings visit only the paths that exist
    g = build_geometry("A30")
    start = time.perf_counter()
    total = h0(tangent(g)).total_dimension
    elapsed = time.perf_counter() - start
    assert total == 960
    assert elapsed < 3.0, f"A30 tangent plus h0 took {elapsed:.2f}s"


@pytest.mark.parametrize("type_name", ALL_TYPES)
def test_relation_table_groups_every_pair_once(type_name):
    rs = build_geometry(type_name).root_system
    pos = rs.positive_roots
    table = relation_table(rs)
    pairs = [entry[:2] for _, entries in table.values() for entry in entries]
    assert len(pairs) == len(set(pairs)) == len(pos) * (len(pos) - 1) // 2
    for key, (delta, entries) in table.items():
        assert [e[:2] for e in entries] == sorted(e[:2] for e in entries)
        for i, j, beta, gamma, n in entries:
            assert i < j and (pos[i], pos[j]) == (beta, gamma)
            assert key == tuple(a + b for a, b in zip(beta.fund, gamma.fund))
            assert n == rs.chevalley(-beta, -gamma)
            assert (n != 0) == (delta is not None)


@pytest.mark.parametrize("type_name", ALL_TYPES)
def test_listing_table_matches_pair_scan(type_name):
    # the listing's table per root system, filled as it is read, gives each
    # root's decompositions in pair order, with each sign and bracket order
    rs = build_geometry(type_name).root_system
    table = bundle_mod._relation_table(rs)
    for delta, entries in relation_table(rs).values():
        if delta is None:
            continue
        want = {(i, j): (n, (gamma, beta) if n < 0 else (beta, gamma))
                for i, j, beta, gamma, n in entries}
        got = bundle_mod._decompositions(rs, table, delta)
        assert list(got.items()) == list(want.items())
    assert bundle_mod._relation_table(rs) is table


@pytest.mark.parametrize("type_name", ALL_TYPES)
def test_solver_decomposition_matches_pair_scan(type_name):
    rs = build_geometry(type_name).root_system
    table = relation_table(rs)
    for delta in rs.positive_roots:
        if delta.height < 2:
            continue
        scanned = next(
            (b, g)
            for i, b in enumerate(rs.positive_roots)
            for g in rs.positive_roots[i + 1:]
            if tuple(x + y for x, y in zip(b.simple, g.simple)) == delta.simple
        )
        root, entries = table[delta.fund]
        assert root == delta
        assert entries[0][2:4] == scanned
