import math
import random
import time

import pytest

from homquiver.geometry import build_geometry
from homquiver.quiver import (
    DERIVED,
    GENERATING,
    _arrow_table,
    arrows_from,
    borel_relation_instances,
    is_vertex,
    quiver_window,
)


def test_borel_every_weight_is_vertex():
    g = build_geometry("A2", ())
    assert is_vertex(g, (-7, 3))
    assert is_vertex(g, (0, 0))


def test_parabolic_vertices_are_p_dominant():
    g = build_geometry("A2", (2,))
    assert is_vertex(g, (-5, 2))
    assert not is_vertex(g, (0, -1))


def test_arrows_from_borel_a2():
    g = build_geometry("A2", ())
    arrows = arrows_from(g, (0, 0))
    targets = {a.target: a.kind for a in arrows}
    assert targets == {
        (-2, 1): GENERATING,
        (1, -2): GENERATING,
        (-1, -1): DERIVED,
    }


def test_arrows_respect_p_dominance():
    g = build_geometry("A2", (2,))
    arrows = arrows_from(g, (0, 0))
    # (-1,-1) fails p-dominance, so only the simple e1 direction remains
    assert {a.target for a in arrows} == {(-2, 1)}
    assert all(a.kind == GENERATING for a in arrows)


def test_window_contains_flag_threefold_subquiver():
    g = build_geometry("A2", ())
    w = quiver_window(g, (0, 0), 2)
    assert set(w.vertices) >= {(0, 0), (-2, 1), (-1, -1), (1, -2), (-3, 0)}
    pairs = {(a.source, a.target) for a in w.arrows}
    assert ((0, 0), (-2, 1)) in pairs
    assert ((-2, 1), (-1, -1)) in pairs
    assert ((-1, -1), (-3, 0)) in pairs
    assert ((-2, 1), (-3, 0)) in pairs  # derived diagonal
    kinds = {(a.source, a.target): a.kind for a in w.arrows}
    assert kinds[((-2, 1), (-3, 0))] == DERIVED


def test_window_radius_zero():
    g = build_geometry("A2", ())
    w = quiver_window(g, (0, 0), 0)
    assert w.vertices == ((0, 0),)
    assert w.arrows == ()


def test_window_without_nilradical_stops_at_the_center():
    # P = G: no arrow leaves the centre, so the search ends whatever the radius
    g = build_geometry("A2", (1, 2))
    start = time.perf_counter()
    w = quiver_window(g, (0, 0), 10**12)
    elapsed = time.perf_counter() - start
    assert w.vertices == ((0, 0),)
    assert w.arrows == ()
    assert elapsed < 1.0, elapsed


E6_CENTRE = ("E6", (2, 3, 4, 5, 6), (-1, 0, 1, 0, 0, 1))


@pytest.mark.parametrize(
    "name, levi, center, radius",
    [E6_CENTRE + (10**12,), ("A2", (), (0, 0), 10**12), ("E8", (), (0,) * 8, 4)],
    ids=["E6", "A2-Borel", "E8-Borel-radius-4"],
)
def test_huge_window_over_an_infinite_quiver_is_refused(name, levi, center, radius):
    # the reachable quiver is infinite, so without a size bound the
    # breadth-first pass would add a layer per radius step forever; the
    # E8 radius-3 window has 40,786 vertices, and expanding all of them
    # before refusing would build about 4.5M arrows
    g = build_geometry(name, levi)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^window exceeds 50000 vertices; lower the radius$"):
        quiver_window(g, center, radius)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, elapsed


def test_window_below_the_size_bound_still_builds():
    name, levi, center = E6_CENTRE
    w = quiver_window(build_geometry(name, levi), center, 20)
    assert len(w.vertices) == 16248


def test_window_requires_vertex_center():
    g = build_geometry("A2", (2,))
    with pytest.raises(ValueError):
        quiver_window(g, (0, -1), 1)


@pytest.mark.parametrize("weight", [(0, 0, 0), (0, 0, 0, 0, 0)])
def test_wrong_length_weight_is_rejected(weight):
    # Only the Levi coordinates decide the open roots, so the length is
    # checked before anything is looked up.
    g = build_geometry("D4", (1, 3))
    for call in (lambda: arrows_from(g, weight), lambda: quiver_window(g, weight, 1)):
        with pytest.raises(ValueError, match="rank mismatch"):
            call()


@pytest.mark.parametrize("name,levi", [("D5", (1, 2, 3)), ("E6", (1, 2, 3, 4, 5))])
def test_arrow_table_does_not_grow_with_the_weights(name, levi):
    g = build_geometry(name, levi)
    rank = g.root_system.rank
    rng = random.Random(f"table:{name}")
    for _ in range(8):
        center = tuple(
            rng.randint(0, 40) if i + 1 in levi else rng.randint(-40, 40)
            for i in range(rank)
        )
        assert quiver_window(g, center, 2).vertices
    caps = [max([0] + [b.fund[i - 1] for b in g.nilradical_roots]) for i in levi]
    assert max(caps) <= 1  # type ADE: the nilradical components are minuscule
    _, rows = _arrow_table(g)
    assert 0 < len(rows) <= math.prod(c + 1 for c in caps)


def test_relation_instances_cover_window():
    g = build_geometry("A2", ())
    support = {(0, 0), (-2, 1), (-1, -1), (-3, 0)}
    insts = borel_relation_instances(g, support)
    sources = {i.source for i in insts}
    assert (0, 0) in sources and (-2, 1) in sources
    for i in insts:
        # beta < gamma in the fixed root order, distinct roots
        assert i.beta.simple != i.gamma.simple
        total = tuple(x + y for x, y in zip(i.beta.simple, i.gamma.simple))
        if g.root_system.is_root(total):
            assert i.coefficient != 0
        else:
            assert i.coefficient == 0


def test_relation_instances_borel_only():
    g = build_geometry("A2", (2,))
    with pytest.raises(ValueError):
        borel_relation_instances(g, {(0, 0)})
