import io
import json
import pathlib
import time

import pytest

from homquiver.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_bott_regular():
    code, out = run(["bott", "A2", "--", "0", "0"])
    assert code == 0
    assert out.strip() == "degree=0 weight=0,0 dim=1"


def test_bott_singular():
    code, out = run(["bott", "A2", "--", "-1", "0"])
    assert code == 0
    assert out.strip() == "singular"


def test_bott_json():
    code, out = run(["bott", "A2", "--json", "--", "-3", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"singular": False, "degree": 2, "weight": [0, 0], "dim": 1}


def test_bott_levi():
    code, out = run(["bott", "A2", "--levi", "2", "--", "3", "0"])
    assert code == 0
    assert "dim=10" in out


def test_usage_errors_exit_one():
    assert run(["bott"])[0] == 1
    assert run(["nope"])[0] == 1
    assert run(["bott", "Z9", "--", "0", "0"])[0] == 1
    assert run([])[0] == 1


def test_quiver_window_listing():
    code, out = run(["quiver", "A2", "--center", "0,0", "--radius", "1"])
    assert code == 0
    assert "vertex 0,0" in out
    assert "kind=generating" in out


def test_quiver_json():
    code, out = run(
        ["quiver", "A2", "--levi", "2", "--center", "0,0", "--radius", "2", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert [0, 0] in doc["vertices"]


def test_check_consistent_fixture():
    code, out = run(["check", str(FIXTURES / "F.json")])
    assert code == 0 and out.strip() == "ok"


def test_check_violations_exit_two():
    code, _ = run(["check", str(FIXTURES / "L_ell1.json")])
    assert code == 2


def test_solve_fixture(tmp_path):
    target = tmp_path / "out.json"
    code, _ = run(["solve", str(FIXTURES / "B_s2.json"), "-o", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["algebra"] == "A2"


def test_solve_inconsistent_exit_two(tmp_path):
    target = tmp_path / "out.json"
    code, _ = run(["solve", str(FIXTURES / "B_s0.json"), "-o", str(target)])
    assert code == 2
    assert not target.exists()


def test_h0_fixture_values():
    for name, total in (
        ("F.json", 0),
        ("A.json", 0),
        ("B_s2.json", 0),
        ("L_ell0.json", 1),
        ("tangent_A2.json", 8),
        ("cotangent_A2.json", 0),
    ):
        code, out = run(["h0", str(FIXTURES / name)])
        assert code == 0
        assert f"total={total}" in out, name


def test_h0_json():
    code, out = run(["h0", str(FIXTURES / "tangent_A2.json"), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 8
    assert doc["entries"] == [{"weight": [1, 1], "mult": 1, "dim": 8}]


def test_hgr_and_euler():
    code, out = run(["hgr", str(FIXTURES / "F.json"), "--degree", "2"])
    assert code == 0 and "total=1" in out
    code, out = run(["euler", str(FIXTURES / "F.json"), "--json"])
    assert code == 0 and json.loads(out) == {"euler": 1}


def test_make_round_trip(tmp_path):
    target = tmp_path / "cot.json"
    code, _ = run(["make", "cotangent", "A3", "-o", str(target)])
    assert code == 0
    code, out = run(["h0", str(target)])
    assert code == 0 and "total=0" in out


def test_gabriel_on_chain(tmp_path):
    doc = {
        "algebra": "A1",
        "levi": [],
        "vertices": [
            {"weight": [2], "dim": 1},
            {"weight": [0], "dim": 1},
        ],
        "arrows": [{"from": [2], "root": [1], "matrix": [["1"]]}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out = run(["gabriel", str(path)])
    assert code == 0
    assert "mult=1" in out


def test_missing_file_exit_one():
    assert run(["h0", "/no/such/file.json"])[0] == 1


def test_bad_json_exit_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["check", str(path)])[0] == 1


def test_wrong_coordinate_count_is_a_usage_error(capsys):
    for argv in (
        ["bott", "A2", "--", "1", "2", "3"],
        ["bott", "A2", "--levi", "2", "--", "1"],
        ["quiver", "A2", "--center", "0,0,0", "--radius", "1"],
    ):
        code, out = run(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "coordinates" in err


def test_usage_errors_come_before_the_root_system_is_built(capsys):
    # Building A120 takes seconds; a one-line usage error must not wait
    # for it, and the Levi check still takes precedence over the count.
    for argv, message in (
        (["bott", "A120", "--", "1"], "the weight needs 120 coordinates for A120, got 1"),
        (["quiver", "A120", "--center", "0", "--radius", "1"],
         "--center needs 120 coordinates for A120, got 1"),
        (["bott", "A120", "--levi", "121", "--", "1"], "levi index 121 out of range 1..120"),
    ):
        start = time.perf_counter()
        code, out = run(argv)
        elapsed = time.perf_counter() - start
        assert (code, out, capsys.readouterr().err) == (1, "", f"error: {message}\n"), argv
        assert elapsed < 1.0, (argv, elapsed)


@pytest.mark.parametrize("command, extra", [
    ("solve", ["-o", "out.json"]),
    ("gabriel", []),
    ("hgr", ["--degree", "0"]),
    ("euler", []),
])
def test_structural_errors_exit_two(command, extra, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = {"algebra": "A2", "levi": [1], "vertices": [{"weight": [-1, 0], "dim": 1}]}
    pathlib.Path("bad.json").write_text(json.dumps(doc))
    assert main([command, "bad.json", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex (-1, 0): not p-dominant for levi [1]\n"
    assert not pathlib.Path("out.json").exists()


def test_errors_stay_on_one_line(capsys):
    # argparse echoes unrecognized arguments verbatim, line breaks included
    for arg in ("a\nb", "\x85", "x y"):
        assert main(["check", "f.json", arg]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1


CHAIN = {
    "algebra": "A1",
    "levi": [],
    "vertices": [{"weight": [2], "dim": 1}, {"weight": [0], "dim": 1}],
    "arrows": [{"from": [2], "root": [1], "matrix": [["1"]]}],
}

# command -> (arguments, text lines, --json document); file outputs are
# written to the working directory.
RENDERINGS = {
    "bott": (["A2", "--", "-3", "0"], ["degree=2 weight=0,0 dim=1"],
             {"singular": False, "degree": 2, "weight": [0, 0], "dim": 1}),
    "quiver": (["A2", "--levi", "2", "--center=-1,0", "--radius", "1"],
               ["vertex -3,1", "vertex -1,0", "arrow -1,0 -> -3,1 root=1,0 kind=generating"],
               {"vertices": [[-3, 1], [-1, 0]],
                "arrows": [{"from": [-1, 0], "root": [1, 0], "to": [-3, 1], "kind": "generating"}]}),
    "check": ([str(FIXTURES / "F.json")], ["ok"], {"ok": True}),
    "solve": ([str(FIXTURES / "B_s2.json"), "-o", "out.json"], ["solved: wrote out.json"],
              {"ok": True, "output": "out.json"}),
    "gabriel": (["chain.json"], ["direction=1", "interval 2 .. 0 mult=1"],
                {"direction": [1], "path": [[2], [0]],
                 "intervals": [{"from": [2], "to": [0], "mult": 1}]}),
    "make": (["tangent", "A2", "-o", "out.json"], ["wrote out.json"],
             {"ok": True, "output": "out.json"}),
    "h0": ([str(FIXTURES / "tangent_A2.json")], ["weight=1,1 mult=1 dim=8", "total=8"],
           {"entries": [{"weight": [1, 1], "mult": 1, "dim": 8}], "total": 8}),
    "hgr": ([str(FIXTURES / "F.json"), "--degree", "2"], ["weight=0,0 mult=1 dim=1", "total=1"],
            {"entries": [{"weight": [0, 0], "mult": 1, "dim": 1}], "total": 1}),
    "euler": ([str(FIXTURES / "F.json")], ["euler=1"], {"euler": 1}),
}


@pytest.mark.parametrize("command", RENDERINGS)
def test_every_command_renders_text_and_json(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(json.dumps(CHAIN))
    args, lines, doc = RENDERINGS[command]
    assert run([command] + args) == (0, "".join(line + "\n" for line in lines))
    code, out = run([command, "--json"] + args)
    assert code == 0 and out.count("\n") == 1 and out.endswith("\n")
    parsed = json.loads(out)
    assert list(parsed) == list(doc)  # stable key order
    assert parsed == doc


@pytest.mark.parametrize("command, usage", [
    ("bott", "[-h] [--levi LEVI] [--json] type coords [coords ...]"),
    ("quiver", "[-h] [--levi LEVI] --center CENTER --radius RADIUS [--json] type"),
    ("check", "[-h] [--json] file"),
    ("solve", "[-h] -o OUTPUT [--json] file"),
    ("gabriel", "[-h] [--json] file"),
    ("make", "[-h] -o OUTPUT [--json] {tangent,cotangent} type"),
    ("h0", "[-h] [--json] file"),
    ("hgr", "[-h] --degree DEGREE [--json] file"),
    ("euler", "[-h] [--json] file"),
])
def test_help_usage_line(command, usage, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, however wide the terminal
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == f"usage: homquiver {command} {usage}"
