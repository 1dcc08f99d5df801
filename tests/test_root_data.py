"""Root data against the direct constructions it replaces.

Each root's fundamental coordinates come from adding a simple root's
Cartan row, the inverse Cartan matrix from the one elimination kernel,
the structure-constant signs from the Dynkin edges, the nilradical from
the Levi sub-system and the generating roots from the grading of the
nilradical.  The references in ``tests/oracles.py`` recompute the same
data by the Cartan product, a Fraction Gauss-Jordan inverse, a scan of
the Cartan matrix over coordinate pairs, a scan of simple coordinates
and a scan over all pairs of nilradical roots.
"""

import itertools
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import homquiver
from homquiver import build_geometry, build_root_system
from homquiver.cli import main

from .oracles import (
    asymmetry_oracle,
    fund_oracle,
    generating_roots_oracle,
    invert_oracle,
    nilradical_oracle,
)

ROOT_DATA_TYPES = (
    [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]
)


def _positive_root_count(series, n):
    if series == "A":
        return n * (n + 1) // 2
    if series == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


@pytest.mark.parametrize("name", ROOT_DATA_TYPES)
def test_root_data_matches_reference(name):
    rs = build_root_system(name)
    inverse = invert_oracle(rs.cartan_matrix)
    assert rs.cartan_inverse == inverse
    scale = math.lcm(*(x.denominator for row in inverse for x in row))
    assert rs.gram_scale == scale
    assert rs.gram == tuple(tuple(int(x * scale) for x in row) for row in inverse)
    assert len(rs.positive_roots) == _positive_root_count(name[0], rs.rank)
    assert len({r.simple for r in rs.positive_roots}) == len(rs.positive_roots)
    for r in rs.positive_roots:
        assert r.fund == fund_oracle(rs, r.simple), r


def _geometries():
    for name in ROOT_DATA_TYPES:
        n = int(name[1:])
        if n <= 7:
            levis = itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), k) for k in range(n + 1)
            )
        else:
            levis = [()] + [
                tuple(i for i in range(1, n + 1) if i != drop) for drop in range(1, n + 1)
            ]
        for levi in levis:
            yield name, levi


SIGN_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", SIGN_TYPES)
def test_asymmetry_matches_cartan_scan(name):
    rs = build_root_system(name)
    roots = rs.positive_roots + tuple(-r for r in rs.positive_roots)
    for a in roots:
        for b in roots:
            assert rs.asymmetry(a, b) == asymmetry_oracle(rs, a, b), (a.simple, b.simple)


def test_nilradical_matches_coordinate_scan():
    for name, levi in _geometries():
        geom = build_geometry(name, levi)
        assert geom.nilradical_roots == nilradical_oracle(geom), (name, levi)
        rs = geom.root_system
        for r in rs.positive_roots:
            assert geom.is_nilradical(r) == (r in geom.nilradical_roots)
            assert not geom.is_nilradical(-r)
            # the simple coordinates of r with other fundamental ones
            assert not geom.is_nilradical(r._replace(fund=tuple(-c for c in r.fund)))


def test_generating_roots_match_pair_scan():
    count = 0
    for name, levi in _geometries():
        geom = build_geometry(name, levi)
        assert geom.generating_roots == generating_roots_oracle(geom), (name, levi)
        count += 1
    assert count == 805


def test_a60_geometry_builds_fast():
    # In a fresh process, so no cached root system hides the build.
    code = (
        "import time\n"
        "from homquiver import build_geometry\n"
        "start = time.perf_counter()\n"
        "build_geometry('A60')\n"
        "print(time.perf_counter() - start)\n"
    )
    src = str(pathlib.Path(homquiver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) < 1.0


def test_wrong_length_vertex_fails_before_the_build(tmp_path, capsys):
    path = tmp_path / "a200.json"
    path.write_text('{"algebra": "A200", "vertices": [{"weight": [0], "dim": 1}]}\n')
    start = time.perf_counter()
    code = main(["h0", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: vertex (0,): wrong coordinate length\n"
    )
    assert elapsed < 1.0, elapsed
