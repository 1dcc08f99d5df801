"""Property-based fuzzing of the bundle reader and the command line.

Every bundle document is either read or rejected with a one-line
``BundleFormatError``; every argument list ends in exit 0, 1 or 2 with
no traceback and at most one line on stderr besides the per-instance
``violated:`` report of a failed relation check.  The runs are
derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homquiver import QuiverRep
from homquiver.bundleio import BundleFormatError, rep_from_dict
from homquiver.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

FUZZ = settings(
    derandomize=True,
    max_examples=200,
    database=None,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(["1/2", "-2/3", "1/0", "x", "1e999999999", "0.5", " 3 "]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
algebras = st.one_of(st.sampled_from(["A1", "A2", "A3", "D4", "A0", "E9", "B2", "a2", ""]),
                     json_values)
int_vectors = st.one_of(st.lists(st.integers(-3, 3), max_size=4), json_values)
vertices = st.one_of(
    st.fixed_dictionaries({"weight": int_vectors, "dim": st.one_of(st.integers(-1, 2), json_values)}),
    json_values,
)
arrows = st.one_of(
    st.fixed_dictionaries({
        "from": int_vectors,
        "root": int_vectors,
        "matrix": st.one_of(st.lists(st.lists(json_scalars, max_size=2), max_size=2), json_values),
    }),
    json_values,
)
documents = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"algebra": algebras, "vertices": st.one_of(st.lists(vertices, max_size=4), json_values)},
        optional={
            "levi": st.one_of(st.lists(st.integers(-1, 4), max_size=3), json_values),
            "arrows": st.one_of(st.lists(arrows, max_size=4), json_values),
            "extra": json_values,
        },
    ),
)


@settings(FUZZ, max_examples=100)  # nested documents are slow to generate
@given(documents)
def test_rep_from_dict_reads_or_rejects_cleanly(doc):
    try:
        rep = rep_from_dict(doc)
    except BundleFormatError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(rep, QuiverRep)


_WORKDIR = tempfile.TemporaryDirectory(prefix="homquiver-fuzz-")
_FILES = {
    "missing": "missing.json",
    "directory": _WORKDIR.name,
    "not utf-8": b"\xff\xfe{",
    "not json": b"{",
    "deep": b"[" * 100_000,
    "huge int": b'{"algebra": "A1", "vertices": [{"weight": [' + b"9" * 5000 + b'], "dim": 1}]}',
    "ragged": json.dumps({
        "algebra": "A1", "vertices": [{"weight": [0], "dim": 1}, {"weight": [-2], "dim": 2}],
        "arrows": [{"from": [0], "root": [1], "matrix": [["1"], ["1", "2"]]}],
    }).encode(),
    "vertices not a list": b'{"algebra": "A1", "vertices": 3}',
}


def _paths():
    # Copies, since "-o" may name any of these paths.
    out = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        copy = pathlib.Path(_WORKDIR.name) / fixture.name
        copy.write_bytes(fixture.read_bytes())
        out.append(str(copy))
    for name, content in _FILES.items():
        if isinstance(content, bytes):
            path = pathlib.Path(_WORKDIR.name) / name.replace(" ", "_")
            path.write_bytes(content)
            out.append(str(path))
        else:
            out.append(content)
    return out


def _bounded(text):
    # A radius or a degree sets the size of the answer; keep numbers small
    # so that every example stays quick.
    try:
        return abs(int(text)) <= 3
    except ValueError:
        return True


COMMANDS = ["bott", "quiver", "check", "solve", "gabriel", "make", "h0", "hgr", "euler"]
tokens = st.one_of(
    st.sampled_from([
        "--json", "--levi", "--center", "--radius", "--degree", "-o", "--output", "--",
        "-h", "--version", "tangent", "cotangent", "A1", "A2", "A3", "D4", "E9", "A0",
        "B2", "", "1", "2", "1,3", "0,0", "1,-1", "0,0,0,0", "x,y", ",",
    ]),
    st.integers(-3, 3).map(str),
    # No path separators: every file the CLI writes stays in the work directory.
    st.text(st.characters(blacklist_characters="/\\"), max_size=8).filter(_bounded),
    st.sampled_from(_paths()),
)
argvs = st.tuples(st.sampled_from(COMMANDS + ["bogus"]), st.lists(tokens, max_size=7)).map(
    lambda t: [t[0], *t[1]]
)


@FUZZ
@given(argvs)
def test_cli_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(_WORKDIR.name)  # outputs named by the fuzzer land here
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            try:
                code = main(argv, out=out)
            except SystemExit as exc:  # --help and --version
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("violated: ")]
    assert len(lines) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
