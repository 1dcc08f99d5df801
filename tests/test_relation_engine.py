"""The sparse relation engine against the dense enumeration it replaces.

The enumeration behind ``check_relations`` (``bundle._violated_instances``)
visits relation instances from pairs of support vertices through
``relation_table``.  These tests pin that it visits
exactly the instances of ``borel_relation_instances`` whose end lies in
the support, in the same order, and that the solver picks the same
bracket decomposition as a scan over all root pairs.
"""

import pathlib
import random

import pytest

import homquiver.bundle as bundle_mod
from homquiver import build_geometry, check_relations, cotangent, load_rep, tangent
from homquiver.quiver import (
    RelationInstance,
    borel_relation_instances,
    relation_table,
    support_relation_instances,
)

from .oracles import path_matrix

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
    in order, read back from the path combinations it hands to
    ``_combination`` (a zero coefficient drops the third term)."""
    seen = []
    original = bundle_mod._combination

    def recording(rep_, lam, terms, end):
        (_, (gamma, beta)), _, *rest = terms
        coefficient = -rest[0][0] if rest else 0
        inst = RelationInstance(lam, beta, gamma, coefficient)
        assert end == _end(inst)
        seen.append(inst)
        return original(rep_, lam, terms, end)

    monkeypatch.setattr(bundle_mod, "_combination", recording)
    violated = bundle_mod._violated_instances(rep)
    monkeypatch.setattr(bundle_mod, "_combination", original)
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
            res = res - rep.arrow(lam, delta).scale(inst.coefficient)
        if not res.is_zero():
            violated.append(inst)
    return violated


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixture_check_order_matches_dense_enumeration(path, monkeypatch):
    rep = load_rep(path)
    assert rep.geometry.is_borel
    seen, violated = checked_order(rep, monkeypatch)
    assert seen == dense_order(rep.geometry, rep.support)
    assert violated == dense_check(rep)
    assert check_relations(rep) == violated


@pytest.mark.parametrize("type_name", SMALL_TYPES)
def test_tangent_and_cotangent_check_order(type_name, monkeypatch):
    g = build_geometry(type_name)
    for rep in (tangent(g), cotangent(g)):
        seen, violated = checked_order(rep, monkeypatch)
        assert violated == [] == check_relations(rep)
        assert seen == dense_order(g, rep.support)
        assert seen == sparse_order(g, rep.support)


@pytest.mark.parametrize("type_name", ("A2", "A3", "D4"))
def test_random_supports_match_dense_enumeration(type_name):
    g = build_geometry(type_name)
    keys = len(relation_table(g.root_system))
    rng = random.Random(20061)
    branches = set()
    for _ in range(25):
        size = rng.randint(1, 2 * keys)
        support = {
            tuple(rng.randint(-3, 3) for _ in range(g.root_system.rank))
            for _ in range(size)
        }
        branches.add(len(support) > keys)
        assert sparse_order(g, support) == dense_order(g, support)
    assert branches == {False, True}  # both lookup directions were exercised


def test_large_a2_support_iterates_table_keys():
    g = build_geometry("A2")
    support = {(a, b) for a in range(-5, 6) for b in range(-5, 6)}
    assert len(support) > len(relation_table(g.root_system))
    order = sparse_order(g, support)
    assert len(order) > 100
    assert order == dense_order(g, support)


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
