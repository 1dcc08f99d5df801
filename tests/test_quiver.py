import itertools
import random
import time
import tracemalloc

import pytest

from homquiver.geometry import build_geometry
from homquiver.quiver import (
    DERIVED,
    GENERATING,
    arrows_from,
    borel_relation_instances,
    is_vertex,
    quiver_window,
)

from .oracles import quiver_window_oracle


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
    [E6_CENTRE + (10**12,), ("A2", (), (0, 0), 10**12)],
    ids=["E6", "A2-Borel"],
)
def test_huge_window_over_an_infinite_quiver_is_refused(name, levi, center, radius):
    # the reachable quiver is infinite, so without a size bound the
    # breadth-first pass would add a layer per radius step forever; each
    # window reaches the vertex bound before the arrow bound (the E6 one
    # with 461,472 arrows built)
    g = build_geometry(name, levi)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^window exceeds 50000 vertices; lower the radius$"):
        quiver_window(g, center, radius)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, elapsed


TOO_MANY_ARROWS = r"^window exceeds 500000 arrows; lower the radius$"
E8_RADII = pytest.mark.parametrize("radius", [3, 4], ids=["E8-Borel-radius-3", "E8-Borel-radius-4"])


@E8_RADII
def test_window_with_too_many_arrows_is_refused(radius):
    # up to 120 arrows leave each E8 vertex: the radius-3 window has 40,786
    # vertices, within the vertex bound, but 2,333,490 arrows
    g = build_geometry("E8")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=TOO_MANY_ARROWS):
        quiver_window(g, (0,) * 8, radius)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, elapsed


@E8_RADII
def test_arrow_refusal_holds_its_memory_down(radius):
    # the refusal comes once about 500,000 arrows are built, about 50 MB
    # on CPython 3.11; building the whole radius-3 window peaks at 244 MB
    g = build_geometry("E8")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=TOO_MANY_ARROWS):
            quiver_window(g, (0,) * 8, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, peak


def test_window_below_the_size_bound_still_builds():
    name, levi, center = E6_CENTRE
    w = quiver_window(build_geometry(name, levi), center, 20)
    assert len(w.vertices) == 16248
    w = quiver_window(build_geometry("E7"), (0,) * 7, 3)
    assert (len(w.vertices), len(w.arrows)) == (9127, 284444)


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
def test_windows_at_far_centres_match_reference(name, levi):
    g = build_geometry(name, levi)
    rank = g.root_system.rank
    rng = random.Random(f"table:{name}")
    for _ in range(8):
        center = tuple(
            rng.randint(0, 40) if i + 1 in levi else rng.randint(-40, 40)
            for i in range(rank)
        )
        w = quiver_window(g, center, 1)
        got = (w.vertices, tuple((a.source, a.root, a.target, a.kind) for a in w.arrows))
        assert got == quiver_window_oracle(g, center, 1), center


def _all_levis(rank):
    return itertools.chain.from_iterable(
        itertools.combinations(range(1, rank + 1), size) for size in range(rank + 1)
    )


LEVI_TYPES = [f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", LEVI_TYPES)
def test_nilradical_roots_pair_to_at_most_one_with_levi_simple_roots(name):
    # type ADE: each nilradical component is a minuscule Levi module, so
    # lam - beta leaves the p-dominant cone only where lam_i = 0 < beta_i,
    # which is what keys the open roots by the zero Levi coordinates
    rank = int(name[1:])
    for levi in _all_levis(rank):
        g = build_geometry(name, levi)
        for beta in g.nilradical_roots:
            assert all(beta.fund[i - 1] <= 1 for i in levi), (levi, beta)


def _levis_for_window_check(name):
    rank = int(name[1:])
    if name != "E8":
        return list(_all_levis(rank))
    # the reference multiplicity is slow on E8: a seeded sample of subsets
    return random.Random("windows:E8").sample(list(_all_levis(rank)), 24)


@pytest.mark.parametrize("name", LEVI_TYPES)
def test_windows_at_the_p_dominance_walls_match_reference(name):
    # Levi coordinates 0 and 1 put vertices on the walls and one step
    # inside them, where an open-roots key that mixed the two would differ
    rng = random.Random(f"walls:{name}")
    rank = int(name[1:])
    for levi in _levis_for_window_check(name):
        g = build_geometry(name, levi)
        center = tuple(rng.randint(0, 1) if i + 1 in levi else rng.randint(-1, 1)
                       for i in range(rank))
        w = quiver_window(g, center, 1)
        got = (w.vertices, tuple((a.source, a.root, a.target, a.kind) for a in w.arrows))
        assert got == quiver_window_oracle(g, center, 1), (levi, center)


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
