"""Self-tests of the benchmark (not of homquiver).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from homquiver import (  # noqa: E402
    RelationError,
    check_relations,
    direct_sum,
    rep_to_dict,
    solve_derived_arrows,
    validate,
)


def _bundle_docs(w, k):
    return [
        json.dumps([rep_to_dict(b["rep"]), rep_to_dict(b["pattern"]),
                    [rep_to_dict(c) for c in b["chains"]], b["top"]])
        for b in w.round_bundles(k)
    ]


@pytest.fixture(scope="module")
def dense():
    made = {}

    def make(seed):
        if seed not in made:
            w = workloads.DenseSections(seed)
            w.build()
            w.prepare()
            made[seed] = w
        return made[seed]
    return make


def test_dense_generator_is_deterministic_per_seed(dense):
    a, b = dense(3), workloads.DenseSections(3)
    b.build()
    b.prepare()
    assert _bundle_docs(a, 0) == _bundle_docs(b, 0)
    assert _bundle_docs(a, 1) != _bundle_docs(a, 0)
    assert _bundle_docs(dense(4), 0) != _bundle_docs(a, 0)


def test_levi_and_flag_inputs_are_deterministic_per_seed():
    plans = []
    for seed in (5, 5, 6):
        w = workloads.LeviWindows(seed)
        w.build()
        w.prepare()
        plans.append(w.plan)
    assert plans[0] == plans[1] != plans[2]
    blocks = [workloads.FlagTangent(seed, ROOT).blocks for seed in (5, 5)]
    assert blocks[0] == blocks[1]


def test_generated_bundles_are_consistent_and_patterns_are_not(dense):
    w = dense(1)
    for b in w.round_bundles(0):
        assert validate(b["rep"]) == []
        assert check_relations(b["rep"]) == []
        assert solve_derived_arrows(b["generating"]) == b["rep"]
        for c in b["chains"]:
            assert check_relations(c) == []
        with pytest.raises(RelationError):
            solve_derived_arrows(b["pattern"])
        with pytest.raises(RelationError):
            solve_derived_arrows(direct_sum(b["rep"], b["pattern"]))
    assert {shape[4][0] for shape in w.shapes} == set(workloads.INCONSISTENT)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    spans = [
        ("bundle.check_relations", 0.0, 10.0, -1, 0),
        ("linalg.Matrix.matmul", 1.0, 4.0, 0, 0),
        ("quiver.borel_relation_instances", 5.0, 9.0, 0, 0),
        ("linalg.Matrix.matmul", 6.0, 7.0, 2, 0),
    ]
    times = tracer.self_times(spans)
    assert times["bundle.check_relations"] == [1, 10.0, 3.0]
    assert times["quiver.borel_relation_instances"] == [1, 4.0, 3.0]
    assert times["linalg.Matrix.matmul"] == [2, 4.0, 4.0]

    t = tracer.Tracer()
    t.spans = spans
    values = tracer.per_layer(t)
    assert values["linalg.self_s"] == 4.0
    assert values["bundle.self_s"] == 3.0
    assert values["quiver.self_s"] == 3.0
    assert values["linalg.Matrix.matmul.calls"] == 2
    # a layer's self times add up to the root span's duration
    assert sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS) == 10.0


class _Sleeper:
    """A workload whose round is three ops of 20 ms each."""

    def round_ops(self, k):
        return [workloads.Op("sleep", lambda: time.sleep(0.02), lambda _: "z") for _ in range(3)]


def test_rounds_repeat_until_the_next_would_end_past_seconds():
    rounds = run.run_rounds(_Sleeper(), 0.25)
    assert 2 <= len(rounds) <= 4
    assert all(len(r["times"]) == 3 and r["failures"] == [] for r in rounds)
    assert all(t >= 0.02 for r in rounds for t in r["times"])


class _SmallFlag(workloads.FlagTangent):
    TYPES = (("A2", 8), ("A3", 15))
    COTANGENT = "A2"


def test_traced_and_untraced_cli_digests_agree(tmp_path):
    digests = []
    for traced in (False, True):
        t = tracer.Tracer() if traced else None
        w = _SmallFlag(0, tmp_path, traced=traced)
        rounds = run.run_rounds(w, 0, tracer=t, max_rounds=1)
        assert rounds[0]["failures"] == []
        digests.append(rounds[0]["digest"])
        if traced:
            names = {s[0] for s in t.spans}
            assert {"cli.main", "bundle.check_relations", "cohomology.h0"} <= names
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", ["levi_windows", "dense_sections"])
def test_traced_run_matches_its_untraced_reference(workload):
    # the traced run fails when its round-0 digest differs from the
    # untraced child's, or when a per-layer metric is missing
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_sections",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
