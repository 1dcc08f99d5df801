"""Replay the committed CLI corpus, tests/golden/cli.json, in process.

``tools/cli_corpus.py`` wrote the corpus; the same module replays it
here through ``homquiver.cli.main``, each command in a fresh directory
with a copy of fixtures/.  Every exit code, stdout, stderr and written
file must come out as recorded.  A change that alters an output on
purpose regenerates the corpus and says which entries changed.
"""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_corpus_replays_byte_for_byte():
    tool = _tool()
    corpus = json.loads(tool.CORPUS.read_text(encoding="utf-8"))
    commands = [step for step in corpus["steps"] if "argv" in step]
    assert len(commands) > 900
    assert tool.replay(corpus, tool.in_process) == []


def test_other_python_compares_only_exit_codes_of_argparse_text():
    """Help screens and argparse's usage errors are worded by the Python
    version: under another one only their exit codes count, while every
    other output stays exact."""
    tool = _tool()
    corpus = json.loads(tool.CORPUS.read_text(encoding="utf-8"))
    by_argv = {tuple(step["argv"]): step for step in corpus["steps"] if "argv" in step}
    argvs = [("check", "-h"), ("bott",), ("bott", "Z9", "--", "0", "0")]
    steps = [dict(by_argv[argv]) for argv in argvs]
    assert [tool._from_argparse(step) for step in steps] == [True, True, False]
    for step in steps:
        step["stdout"] += "changed"
        step["stderr"] += "changed"
    mine = {"python": tool.PYTHON, "fixtures": corpus["fixtures"], "steps": steps}
    assert len(tool.replay(mine, tool.in_process)) == 3
    other = dict(mine, python="3.0")
    assert tool.replay(other, tool.in_process) == [
        "homquiver bott Z9 -- 0 0: stderr, stdout differ"
    ]
    steps[0]["exit"] = 2
    assert len(tool.replay(other, tool.in_process)) == 2
