"""Build or replay the committed CLI corpus, tests/golden/cli.json.

The corpus pins what ``homquiver`` prints: for each command line its
exit code, stdout, stderr and the sha256 of the file it writes.  A long
stdout or stderr is kept as its sha256 and length.  Run from the
repository root:

    python3 tools/cli_corpus.py                  # write the corpus from src/
    python3 tools/cli_corpus.py --replay         # replay it as subprocesses

Replay exits 1 and names each command whose outcome differs.  Help
screens and argparse's usage errors are worded by the Python version, so
under another minor version than the corpus's ``python`` only their exit
codes are compared.  The
corpus is a list of steps run in order in a fresh directory that holds
a copy of fixtures/: a step writes an input file, derives one from a
file an earlier command wrote (one arrow scaled, optionally with the
derived arrows dropped), or runs one command.  Steps that prepare files
use only ``json``, never the library, so a replay checks the program
and nothing else.  tests/test_golden.py replays the corpus in process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "cli.json"
FIXTURES = ROOT / "fixtures"
LONG = 1000  # outputs longer than this many characters are kept as a digest
ENV = {"COLUMNS": "80"}  # help screens wrap at the terminal width
PYTHON = "%d.%d" % sys.version_info[:2]
# How the CLI reports argparse's own errors; its other errors say what is wrong.
ARGPARSE_ERRORS = ("error: argument ", "error: the following arguments are required: ",
                   "error: unrecognized arguments: ")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text(value: str):
    if len(value) <= LONG:
        return value
    return {"sha256": _sha256(value.encode("utf-8")), "length": len(value)}


def _output_path(argv) -> str | None:
    for flag in ("-o", "--output"):
        if flag in argv[:-1]:
            return argv[argv.index(flag) + 1]
    return None


def _scale(doc: dict, index: int, factor: int, generating_only: bool) -> dict:
    """The bundle document with one arrow's matrix multiplied by factor;
    with ``generating_only`` the non-simple arrows are dropped first and
    ``index`` counts the simple ones."""
    arrows = doc["arrows"]
    if generating_only:
        arrows = [a for a in arrows if sum(a["root"]) == 1]
    arrows[index]["matrix"] = [[str(Fraction(x) * factor) for x in row]
                               for row in arrows[index]["matrix"]]
    return dict(doc, arrows=arrows)


def in_process(argv):
    from homquiver.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # help screens and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def in_subprocess(argv):
    env = dict(os.environ, **ENV, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "homquiver.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_steps(steps, workdir: pathlib.Path, runner):
    """Run the steps in workdir, yielding (step, outcome) for each command."""
    shutil.copytree(FIXTURES, workdir / "fixtures")
    for step in steps:
        if "write" in step:
            (workdir / step["write"]).write_text(step["text"], encoding="utf-8")
        elif "scale" in step:
            doc = json.loads((workdir / step["scale"]).read_text(encoding="utf-8"))
            doc = _scale(doc, step["arrow"], step["factor"], step["generating_only"])
            (workdir / step["to"]).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        else:
            argv = step["argv"]
            target = _output_path(argv)
            if target is not None and (workdir / target).exists():
                (workdir / target).unlink()
            code, out, err = runner(argv)
            outcome = {"exit": code, "stdout": _text(out), "stderr": _text(err)}
            if target is not None:
                path = workdir / target
                outcome["file"] = _sha256(path.read_bytes()) if path.exists() else None
            yield step, outcome


@contextlib.contextmanager
def _workdir():
    """A fresh working directory, entered, with COLUMNS=80."""
    saved_cwd, saved_env = os.getcwd(), {k: os.environ.get(k) for k in ENV}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ.update(ENV)
        try:
            yield pathlib.Path(tmp)
        finally:
            os.chdir(saved_cwd)
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


def _from_argparse(step) -> bool:
    """Whether a recorded command printed argparse's text: a help screen
    or a usage error."""
    stderr = step["stderr"]
    return "-h" in step["argv"] or (isinstance(stderr, str) and stderr.startswith(ARGPARSE_ERRORS))


def replay(corpus: dict, runner) -> list:
    """The differences between the corpus and a replay, as text lines."""
    exact = corpus["python"] == PYTHON
    diffs = []
    fixtures = {p.name: _sha256(p.read_bytes()) for p in sorted(FIXTURES.glob("*.json"))}
    if fixtures != corpus["fixtures"]:
        diffs.append("fixtures/ differ from the corpus")
    with _workdir() as workdir:
        for step, outcome in run_steps(corpus["steps"], workdir, runner):
            expected = {k: v for k, v in step.items() if k != "argv"}
            if not exact and _from_argparse(step):
                expected, outcome = {"exit": step["exit"]}, {"exit": outcome["exit"]}
            if outcome != expected:
                changed = sorted(k for k in expected if expected[k] != outcome.get(k))
                diffs.append(f"homquiver {' '.join(step['argv'])}: {', '.join(changed)} differ")
    return diffs


# ----- the commands ---------------------------------------------------------------

SUBCOMMANDS = ("bott", "quiver", "check", "solve", "gabriel", "make", "h0", "hgr", "euler")
MADE = ("A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "E8")
SCALED = ("A3", "D4", "E6")
WINDOWS = ("A2", "A3", "A4", "D4")  # every Levi subset of each


def _doc(algebra, vertices, arrows=(), levi=None):
    doc = {"algebra": algebra}
    if levi is not None:
        doc["levi"] = levi
    doc["vertices"] = [{"weight": w, "dim": d} for w, d in vertices]
    if arrows:
        doc["arrows"] = [{"from": s, "root": r, "matrix": m} for s, r, m in arrows]
    return json.dumps(doc)


# Malformed bundle files: name -> text.  Each is read by ``check``.
MALFORMED = {
    "notjson.json": "{not json",
    "empty.json": "",
    "list.json": "[]",
    "unknown_key.json": json.dumps({"algebra": "A1", "vertices": [], "extra": 1}),
    "missing_key.json": json.dumps({"algebra": "A1"}),
    "bad_algebra.json": _doc("Z9", [([0], 1)]),
    "rank_too_high.json": _doc("D201", []),
    "algebra_number.json": json.dumps({"algebra": 2, "vertices": []}),
    "bad_levi.json": _doc("A2", [([0, 0], 1)], levi=[3]),
    "levi_text.json": _doc("A2", [([0, 0], 1)], levi="1"),
    "vertices_object.json": json.dumps({"algebra": "A1", "vertices": {}}),
    "vertex_list.json": json.dumps({"algebra": "A1", "vertices": [[0]]}),
    "float_weight.json": _doc("A1", [([0.5], 1)]),
    "bool_weight.json": _doc("A1", [([True], 1)]),
    "zero_dim.json": _doc("A1", [([0], 0)]),
    "bool_dim.json": _doc("A1", [([0], True)]),
    "duplicate_vertex.json": _doc("A1", [([0], 1), ([0], 2)]),
    "wrong_length.json": _doc("A2", [([0, 0, 0], 1), ([1], 1)]),
    "arrows_object.json": json.dumps({"algebra": "A1", "vertices": [], "arrows": {}}),
    "not_a_root.json": _doc("A2", [([0, 0], 1), ([-4, 2], 1)], [([0, 0], [2, 0], [["1"]])]),
    "source_missing.json": _doc("A1", [([0], 1)], [([2], [1], [["1"]])]),
    "target_missing.json": _doc("A1", [([2], 1)], [([2], [1], [["1"]])]),
    "matrix_text.json": _doc("A1", [([2], 1), ([0], 1)], [([2], [1], "1")]),
    "ragged.json": _doc("A1", [([2], 2), ([0], 2)], [([2], [1], [["1", "0"], ["1"]])]),
    "misshaped.json": _doc("A1", [([2], 2), ([0], 1)], [([2], [1], [["1"]])]),
    "zero_denominator.json": _doc("A1", [([2], 1), ([0], 1)], [([2], [1], [["1/0"]])]),
    "exponent.json": _doc("A1", [([2], 1), ([0], 1)], [([2], [1], [["1e5"]])]),
    "bad_rational.json": _doc("A1", [([2], 1), ([0], 1)], [([2], [1], [["x"]])]),
    "float_entry.json": _doc("A1", [([2], 1), ([0], 1)], [([2], [1], [[1.5]])]),
    "bool_entry.json": _doc("A1", [([2], 1), ([0], 1)], [([2], [1], [[True]])]),
    "duplicate_arrow.json": _doc("A1", [([2], 1), ([0], 1)],
                                 [([2], [1], [["1"]]), ([2], [1], [["2"]])]),
    "not_p_dominant.json": _doc("A2", [([-1, 0], 1)], levi=[1]),
    "not_nilradical.json": _doc("A2", [([2, 0], 1), ([0, 1], 1)],
                                [([2, 0], [1, 0], [["1"]])], levi=[1]),
}

# Well-formed small files: name -> text.
SMALL = {
    "gap.json": _doc("A1", [([1], 100000), ([-3], 100000)]),
    "wide.json": _doc("A1", [([1], 400), ([-1], 400)]),
    "chain.json": _doc("A1", [([2], 1), ([0], 1)], [([2], [1], [["1"]])]),
    "chain3.json": _doc("A1", [([2], 2), ([0], 2), ([-2], 1)],
                        [([2], [1], [["1", "0"], ["0", "0"]]), ([0], [1], [["1", "1/2"]])]),
    "levi_chain.json": _doc("A2", [([0, 1], 1), ([-2, 2], 1)],
                            [([0, 1], [1, 0], [["3"]])], levi=[2]),
    "two_way.json": _doc("A2", [([0, 0], 1), ([-2, 1], 1), ([1, -2], 1), ([-1, -1], 1)],
                         [([0, 0], [1, 0], [["1"]]), ([0, 0], [0, 1], [["1"]]),
                          ([-2, 1], [0, 1], [["1"]]), ([1, -2], [1, 0], [["1"]])]),
}


def _bundle_commands(name: str, rich: bool) -> list:
    """The file commands on one bundle file: every one, with and without
    --json, when ``rich``; else the relation check, h0 and solve."""
    out = name[:-5] + ".solved.json"
    argvs = [["check", name], ["check", name, "--json"], ["h0", name],
             ["solve", name, "-o", out]]
    if rich:
        argvs += [["h0", name, "--json"], ["solve", name, "-o", out, "--json"],
                  ["euler", name], ["euler", name, "--json"],
                  ["gabriel", name], ["gabriel", name, "--json"]]
        argvs += [["hgr", name, "--degree", str(d)] for d in (0, 1, 2)]
        argvs += [["hgr", name, "--degree", "1", "--json"]]
    return argvs


def _centers(rank: int, levi: tuple) -> list:
    """The origin and one mixed p-dominant centre for a Levi subset."""
    mixed = [(i % 2) if i in levi else (i % 3) - 1 for i in range(1, rank + 1)]
    return [[0] * rank, mixed]


def build_steps(made_dir: pathlib.Path) -> list:
    """The corpus steps; the scaled files pick their arrows from the
    tangent and cotangent bundles saved in made_dir."""
    steps = [{"argv": ["-h"]}, {"argv": ["--version"]}]
    steps += [{"argv": [c, "-h"]} for c in SUBCOMMANDS]

    usage = [
        [], ["nope"], ["bott"], ["bott", "Z9", "--", "0", "0"], ["bott", "A0", "--", "0"],
        ["bott", "A2", "--", "1", "2", "3"], ["bott", "A2", "--levi", "2", "--", "1"],
        ["bott", "A2", "--levi", "x", "--", "0", "0"], ["bott", "A2", "--levi", "3", "--", "0", "0"],
        ["bott", "A2", "--", "a", "0"], ["bott", "A120", "--", "1"],
        ["bott", "A120", "--levi", "121", "--", "1"], ["bott", "A201", "--", "0"],
        ["quiver", "A2", "--center", "0,0,0", "--radius", "1"],
        ["quiver", "A2", "--center", "a,b", "--radius", "1"],
        ["quiver", "A2", "--center", "0,0"], ["quiver", "A2", "--center", "0,0", "--radius", "x"],
        ["quiver", "A2", "--center", "0,0", "--radius", "-1"],
        ["quiver", "A2", "--levi", "1", "--center=-1,0", "--radius", "1"],
        ["quiver", "A120", "--center", "0", "--radius", "1"],
        ["make", "tangent", "A2"], ["make", "sideways", "A2", "-o", "x.json"],
        ["make", "tangent", "B2", "-o", "x.json"], ["make", "tangent", "A2", "-o", "nodir/x.json"],
        ["make", "tangent", "A201", "-o", "x.json"],
        ["hgr", "fixtures/F.json"], ["hgr", "fixtures/F.json", "--degree", "x"],
        ["check"], ["check", "f.json", "extra"], ["check", "missing.json"], ["h0", "missing.json"],
        ["solve", "fixtures/F.json"], ["euler", "fixtures/F.json", "--bogus"],
    ]
    steps += [{"argv": argv} for argv in usage]

    for name, text in {**MALFORMED, **SMALL}.items():
        steps.append({"write": name, "text": text})
    steps += [{"argv": ["check", name]} for name in MALFORMED]
    for command, extra in (("h0", []), ("solve", ["-o", "out.json"]), ("gabriel", []),
                           ("hgr", ["--degree", "0"]), ("euler", []), ("check", ["--json"])):
        steps += [{"argv": [command, name, *extra]}
                  for name in ("not_p_dominant.json", "not_nilradical.json", "ragged.json")]

    bott = [
        ["A1", "--", "0"], ["A1", "--", "-1"], ["A1", "--", "-2"], ["A2", "--", "0", "0"],
        ["A2", "--", "-1", "0"], ["A2", "--", "-3", "0"], ["A2", "--", "2", "-5"],
        ["A2", "--levi", "2", "--", "3", "0"], ["A2", "--levi", "1,2", "--", "-4", "1"],
        ["A3", "--", "-2", "-2", "-2"], ["D4", "--", "1", "-3", "1", "1"],
        ["D4", "--levi", "2", "--", "-1", "0", "-1", "2"], ["E6", "--", "1", "0", "0", "0", "0", "-2"],
        ["E7", "--", "-1", "-1", "-1", "-1", "-1", "-1", "-1"],
        ["E8", "--", "0", "0", "0", "0", "0", "0", "0", "-30"],
        ["A2", "--", "1000000000000", "0"], ["A2", "--", "-1000000000000", "3"],
        ["D5", "--levi", "1,2,3", "--", "1000000000000", "0", "1", "-2", "5"],
    ]
    for argv in bott:
        steps += [{"argv": ["bott", *argv]}, {"argv": ["bott", "--json", *argv]}]

    for type_name in WINDOWS:
        rank = int(type_name[1:])
        for mask in range(1 << rank):
            levi = tuple(i + 1 for i in range(rank) if mask >> i & 1)
            levi_arg = ["--levi", ",".join(map(str, levi))] if levi else []
            for center in _centers(rank, levi):
                steps.append({"argv": ["quiver", type_name, *levi_arg,
                                       "--center=" + ",".join(map(str, center)), "--radius", "2"]})
    e6 = ["quiver", "E6", "--levi", "2,3,4,5,6", "--center=-1,0,1,0,0,1"]
    steps += [{"argv": e6 + ["--radius", r]} for r in ("0", "1", "2", "3")]
    steps += [{"argv": e6 + ["--radius", "2", "--json"]},
              {"argv": ["quiver", "A4", "--center", "0,0,0,0", "--radius", "4", "--json"]},
              {"argv": ["quiver", "D4", "--levi", "1,2,3,4", "--center=1,0,2,0",
                        "--radius", "1000000000000"]},
              {"argv": ["quiver", "A2", "--levi", "1,2", "--center=0,0",
                        "--radius", "1000000000000", "--json"]},
              {"argv": ["quiver", "A2", "--center", "0,0", "--radius", "1000000000000"]},
              {"argv": e6 + ["--radius", "1000000000000"]},
              {"argv": ["quiver", "E8", "--center", "0,0,0,0,0,0,0,0", "--radius", "3"]}]

    made = []
    for type_name in MADE:
        for what in ("tangent", "cotangent"):
            name = f"{what}_{type_name}.json"
            made.append(name)
            steps.append({"argv": ["make", what, type_name, "-o", name]})
    steps.append({"argv": ["make", "--json", "tangent", "A2", "-o", "json_made.json"]})

    bundles = ["fixtures/" + p.name for p in sorted(FIXTURES.glob("*.json"))]
    for name in bundles + made + list(SMALL):
        steps += [{"argv": argv} for argv in _bundle_commands(name, True)]

    rng = random.Random(0)
    for type_name in SCALED:
        for what in ("tangent", "cotangent"):
            source = f"{what}_{type_name}.json"
            doc = json.loads((made_dir / source).read_text(encoding="utf-8"))
            simple = sum(1 for a in doc["arrows"] if sum(a["root"]) == 1)
            for generating_only, count in ((False, len(doc["arrows"])), (True, simple)):
                for index in sorted(rng.sample(range(count), 3)):
                    tag = "gen" if generating_only else "all"
                    name = f"{what}_{type_name}_{tag}_x3_{index}.json"
                    steps.append({"scale": source, "to": name, "arrow": index, "factor": 3,
                                  "generating_only": generating_only})
                    steps += [{"argv": argv} for argv in _bundle_commands(name, False)]
    return steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Build or replay the CLI corpus.")
    parser.add_argument("--replay", action="store_true", help="compare instead of writing")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.replay:
        diffs = replay(json.loads(CORPUS.read_text(encoding="utf-8")), in_subprocess)
        for line in diffs:
            print(line)
        print(f"{len(diffs)} difference(s)")
        return 1 if diffs else 0

    with tempfile.TemporaryDirectory() as tmp:
        from homquiver import build_geometry, cotangent, save_rep, tangent

        made_dir = pathlib.Path(tmp)
        for type_name in SCALED:
            geom = build_geometry(type_name, ())
            save_rep(tangent(geom), made_dir / f"tangent_{type_name}.json")
            save_rep(cotangent(geom), made_dir / f"cotangent_{type_name}.json")
        steps = build_steps(made_dir)
    with _workdir() as workdir:
        for step, outcome in run_steps(steps, workdir, in_subprocess):
            step.update(outcome)
    corpus = {
        "python": PYTHON,
        "fixtures": {p.name: _sha256(p.read_bytes()) for p in sorted(FIXTURES.glob("*.json"))},
        "steps": steps,
    }
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    commands = sum(1 for s in steps if "argv" in s)
    print(f"wrote {CORPUS.relative_to(ROOT)}: {commands} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
