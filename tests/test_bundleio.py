import json
import pathlib

import pytest

from homquiver import (
    BundleFormatError,
    build_geometry,
    load_rep,
    rep_from_dict,
    rep_to_dict,
    save_rep,
    solve_derived_arrows,
    tangent,
)

from .test_bundle import rep_b

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def test_round_trip_through_dict():
    g = build_geometry("A2", ())
    rep = solve_derived_arrows(rep_b(g, 2))
    doc = rep_to_dict(rep)
    back = rep_from_dict(doc)
    assert back.support == rep.support
    assert set(back.arrows) == set(rep.arrows)
    for key, mat in rep.arrows.items():
        assert back.arrows[key] == mat


def test_round_trip_through_file(tmp_path):
    g = build_geometry("A2", ())
    rep = tangent(g)
    path = tmp_path / "t.json"
    save_rep(rep, path)
    again = load_rep(path)
    assert rep_to_dict(again) == rep_to_dict(rep)


def test_canonical_key_order():
    g = build_geometry("A2", ())
    doc = rep_to_dict(tangent(g))
    assert list(doc) == ["algebra", "levi", "vertices", "arrows"]
    weights = [tuple(v["weight"]) for v in doc["vertices"]]
    assert weights == sorted(weights)


def test_fraction_entries_survive(tmp_path):
    from fractions import Fraction

    from homquiver import QuiverRep
    from homquiver.linalg import Matrix

    g = build_geometry("A2", ())
    alpha = g.root_system.simple_root(1)
    rep = QuiverRep(
        g,
        {(0, 0): 1, (-2, 1): 1},
        {((0, 0), alpha): Matrix([[Fraction(2, 3)]])},
    )
    path = tmp_path / "f.json"
    save_rep(rep, path)
    doc = json.loads(path.read_text())
    assert doc["arrows"][0]["matrix"] == [["2/3"]]
    back = load_rep(path)
    assert back.arrows[((0, 0), alpha)].data[0][0] == Fraction(2, 3)


MANGLES = [
    (lambda d: d.pop("algebra"), None),
    (lambda d: d.update(algebra="B2"), None),
    (lambda d: d.update(extra=1), None),
    (lambda d: d["vertices"].append({"weight": [0, 0], "dim": 1}), None),
    (lambda d: d["vertices"][0].update(dim=0), None),
    (lambda d: d["arrows"][0].update(root=[1, 1, 1]), None),
    (lambda d: d["arrows"][0].update(matrix=[["1", "2"]]), None),
    (lambda d: d["arrows"][0].update(matrix=[["x"]]), None),
    (lambda d: d["arrows"].append(1), "arrow entries must be objects"),
    (lambda d: d["arrows"][0].update(matrix="1"), '"matrix" must be a list of rows'),
    (lambda d: d["arrows"][0].update({"from": [9, 9]}), r"arrow source \[9, 9\] is not a vertex"),
    (lambda d: d["arrows"].append(dict(d["arrows"][0])), "duplicate arrow"),
]


@pytest.mark.parametrize(
    "mangle, match", MANGLES, ids=[f"<lambda>{k}" for k in range(len(MANGLES))]
)
def test_malformed_documents_rejected(mangle, match):
    g = build_geometry("A2", ())
    doc = json.loads(json.dumps(rep_to_dict(solve_derived_arrows(rep_b(g, 2)))))
    mangle(doc)
    with pytest.raises(BundleFormatError, match=match):
        rep_from_dict(doc)


def test_arrow_endpoint_errors():
    doc = {
        "algebra": "A2",
        "levi": [],
        "vertices": [{"weight": [0, 0], "dim": 1}],
        "arrows": [{"from": [0, 0], "root": [1, 0], "matrix": [["1"]]}],
    }
    with pytest.raises(BundleFormatError, match="target"):
        rep_from_dict(doc)


def test_fixture_corpus_loads():
    names = [
        "A.json",
        "B_s0.json",
        "B_s1.json",
        "B_s2.json",
        "B_s3.json",
        "F.json",
        "L_ell0.json",
        "L_ell1.json",
        "tangent_A2.json",
        "cotangent_A2.json",
    ]
    for name in names:
        rep = load_rep(FIXTURES / name)
        assert rep.support



def _line_pair():
    """A valid two-vertex A2 document: (1,0) -> (-1,1) along alpha_1."""
    return {
        "algebra": "A2",
        "levi": [],
        "vertices": [{"weight": [1, 0], "dim": 1}, {"weight": [-1, 1], "dim": 1}],
        "arrows": [{"from": [1, 0], "root": [1, 0], "matrix": [[1]]}],
    }


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d["vertices"][0].update(weight=[True, 0]),
        lambda d: d["vertices"][1].update(dim=True),
        lambda d: d.update(levi=[True], arrows=[]),
        lambda d: d["arrows"][0].update(**{"from": [True, 0]}),
        lambda d: d["arrows"][0].update(root=[True, False]),
        lambda d: d["arrows"][0].update(matrix=[[True]]),
        lambda d: d["arrows"][0].update(matrix=[[False]]),
    ],
    ids=["weight", "dim", "levi", "from", "root", "entry-true", "entry-false"],
)
def test_json_booleans_are_not_integers(mangle, tmp_path):
    from homquiver.cli import main

    rep_from_dict(_line_pair())
    doc = _line_pair()
    mangle(doc)
    with pytest.raises(BundleFormatError):
        rep_from_dict(doc)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.update(vertices=None),
        lambda d: d.update(vertices=3),
        lambda d: d.update(arrows=None),
        lambda d: d.update(arrows={"from": [1, 0]}),
        lambda d: d["arrows"][0].update(matrix=[[1], [1, 2]]),
        lambda d: d["arrows"][0].update(matrix=[["1e999999999"]]),
    ],
    ids=["vertices-null", "vertices-int", "arrows-null", "arrows-object", "ragged",
         "exponent"],
)
def test_malformed_documents_are_format_errors(mangle, tmp_path):
    from homquiver.cli import main

    doc = _line_pair()
    mangle(doc)
    with pytest.raises(BundleFormatError):
        rep_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b"[" * 100_000, b'{"algebra": "A1", "vertices": [' + b"9" * 5000 + b"]}"],
    ids=["not-utf8", "deep", "long-int"],
)
def test_unreadable_files_are_format_errors(content, tmp_path, capsys):
    from homquiver.cli import main

    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(BundleFormatError):
        load_rep(path)
    assert main(["check", str(path)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
