"""homquiver benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of the repository.  A run measures set-up in fresh
interpreters, then repeats rounds of ops (see ``workloads.py``) in a
closed loop, one op at a time, until the next round would end after
``--seconds``.  Every op's answer is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units are those of ``BENCHMARK.json``:
its ``end_to_end`` list untraced (``--trace 0``), its ``per_layer`` list
traced (``--trace 1``).

Timings are wall-clock seconds (``time.perf_counter``) of the timed
calls alone; each op's answer is checked untimed, after the call.

A traced run first runs the same workload untraced in a child process
for half the time, as the reference, then traces set-up and round 0 in
this process.  Its round-0 digest must equal the reference's, and its
tracing overhead is its round-0 time minus the reference's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 7
CLI_KINDS = ("make", "check", "h0", "euler")


def timed(fn):
    """Call fn; return (result, error, wall seconds)."""
    t0 = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # an unexpected exception is a failed op
        result, error = None, exc
    return result, error, time.perf_counter() - t0


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Import homquiver from ``src``; refuse to run without it."""
    if not (ROOT / "src" / "homquiver" / "__init__.py").is_file():
        _fail(f"no homquiver sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import homquiver  # noqa: F401
    except ImportError as exc:
        _fail(f"cannot import homquiver: {exc}")


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(workload) -> list:
    """Wall seconds of fresh interpreters doing the workload's set-up:
    start, ``import homquiver`` and every geometry the workload uses (for
    the CLI workload, ``homquiver --version``).  One unmeasured warm-up
    first, so that byte-code caches are written before timing."""
    from workloads import child_env

    argv, env = workload.setup_argv(), child_env()

    def once():
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)

    times = []
    for i in range(SETUP_REPEATS + 1):
        proc, error, elapsed = timed(once)
        if error is not None or proc.returncode != 0:
            detail = error if error is not None else proc.stderr.strip()[-300:]
            _fail(f"set-up failed: {detail}")
        if i:
            times.append(elapsed)
    return times


def run_rounds(workload, seconds, tracer=None, max_rounds=None) -> list:
    """Rounds of timed ops until the next round would end past ``seconds``
    (at least one round).  Returns one dict per round."""
    rounds = []
    start = time.perf_counter()
    op_id = 0
    k = 0
    while True:
        round_start = time.perf_counter()
        r = {"times": [], "kinds": [], "failures": []}
        texts = []
        for op in workload.round_ops(k):
            if tracer is not None:
                tracer.run_id = op_id
                tracer.start()
            result, error, elapsed = timed(op.run)
            if tracer is not None:
                tracer.stop()
                if op.trace_file is not None and op.trace_file.exists():
                    with open(op.trace_file, encoding="utf-8") as fh:
                        tracer.merge(json.load(fh), op_id)
                    op.trace_file.unlink()
            r["times"].append(elapsed)
            r["kinds"].append(op.kind)
            if error is None:
                try:
                    texts.append(op.check(result))
                except Exception as exc:  # CheckFailed, or a check that crashed
                    error = exc
            if error is not None:
                r["failures"].append(f"round {k} op {len(r['times']) - 1} ({op.kind}): {error!r}")
                texts.append(f"FAILED {op.kind}")
            op_id += 1
        r["digest"] = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        rounds.append(r)
        k += 1
        now = time.perf_counter()
        if max_rounds is not None and k >= max_rounds:
            break
        if now - start + (now - round_start) > seconds:
            break
    return rounds


def summarize(rounds, setup_times) -> dict:
    lat = [x for r in rounds for x in r["times"]]
    cli = {}
    for kind in CLI_KINDS:
        per_round = [sum(x for x, k in zip(r["times"], r["kinds"]) if k == kind) for r in rounds]
        if any(per_round):
            cli[f"cli_{kind}_s"] = statistics.median(per_round)
    return {
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(sum(r["times"]) for r in rounds),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1000.0,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000.0 if len(lat) >= 100 else None,
        "cli": cli,
        "rounds": len(rounds),
        "ops": len(lat),
        "setups": len(setup_times),
        "failures": [f for r in rounds for f in r["failures"]],
        "digests": [r["digest"] for r in rounds],
        "round_s": [sum(r["times"]) for r in rounds],
    }


def _check_digest(name, seed, digest, errors):
    """For the default seed, round 0 must reproduce the committed digest."""
    if seed != DEFAULT_SEED:
        return
    with open(BENCH / "digests.json", encoding="utf-8") as fh:
        pinned = json.load(fh).get(name)
    if pinned is not None and digest != pinned:
        errors.append(f"round-0 digest {digest} != pinned {pinned} for seed {seed}")


def _emit(spec_metrics, values, correct, attempted, failed):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _workdir(name) -> Path:
    path = BENCH / "_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove(workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def untraced(args, spec) -> int:
    from workloads import WORKLOADS

    workdir = _workdir(args.workload)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = measure_setup(workload)
        workload.build()
        workload.prepare()
        rounds = run_rounds(workload, args.seconds)
    finally:
        _remove(workdir)
    s = summarize(rounds, setup_times)
    errors = list(s["failures"])
    _check_digest(args.workload, args.seed, s["digests"][0], errors)
    failed = len(errors)
    m = s["metrics"]
    print(f"workload={args.workload} seed={args.seed} rounds={s['rounds']} ops={s['ops']} "
          f"failed={failed} fail_ratio={failed / s['ops']:g}")
    units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    basis = {"setup_s": f"median of {s['setups']} set-ups",
             "wall_s": f"median of {s['rounds']} rounds",
             "peak_rss_mb": "largest process of the run"}
    for name, value in m.items():
        note = basis.get(name, f"n={s['ops']}")
        print(f"  {name} = {value:.6g} {units[name]} ({note})")
    if s["op_p90_ms"] is not None:
        print(f"  op_p90_ms = {s['op_p90_ms']:.6g} ms (n={s['ops']})")
    for name, value in s["cli"].items():
        print(f"  {name} = {value:.6g} s (median of {s['rounds']} rounds)")
    for e in errors[:20]:
        print(f"  FAILED {e}", file=sys.stderr)
    summary = {k: s[k] for k in ("cli", "digests", "rounds", "ops", "round_s")}
    print("#summary " + json.dumps(summary | {"failed": failed}))
    _emit(spec["end_to_end"], m, failed == 0, s["ops"], failed)
    return 0 if failed == 0 else 1


def traced(args, spec) -> int:
    import tracer as tracing
    from workloads import WORKLOADS

    ref_proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(max(1, args.seconds // 2)),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    ref = None
    for line in ref_proc.stdout.splitlines():
        if line.startswith("#summary "):
            ref = json.loads(line[len("#summary "):])
    if ref is None:
        _fail(f"untraced reference run failed: {ref_proc.stderr.strip()[-500:]}")

    tr = tracing.Tracer()
    tracing.install(tr)
    workdir = _workdir(args.workload)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, traced=True)
        tr.start()
        workload.build()
        tr.stop()
        workload.prepare()
        rounds = run_rounds(workload, 0, tracer=tr, max_rounds=1)
    finally:
        _remove(workdir)
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"trace-{args.workload}.json")

    r = rounds[0]
    errors = list(r["failures"])
    if r["digest"] != ref["digests"][0]:
        errors.append(f"traced digest {r['digest']} != untraced {ref['digests'][0]}")
    _check_digest(args.workload, args.seed, r["digest"], errors)
    values = tracing.per_layer(tr)
    values["trace.wall_s"] = sum(r["times"])
    values["trace.overhead_s"] = sum(r["times"]) - ref["round_s"][0]
    for kind in CLI_KINDS:
        values[f"cli_{kind}_s"] = ref["cli"].get(f"cli_{kind}_s", 0.0)
    attempted = len(r["times"]) + ref["ops"]
    failed = len(errors) + ref["failed"]
    print(f"workload={args.workload} seed={args.seed} traced: set-up and round 0, "
          f"{len(r['times'])} ops, {len(tr.spans)} spans; untraced reference: "
          f"{ref['rounds']} rounds; failed={failed}")
    for m in spec["per_layer"]:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for e in errors[:20]:
        print(f"  FAILED {e}", file=sys.stderr)
    _emit(spec["per_layer"], values, failed == 0, attempted, failed)
    return 0 if failed == 0 else 1


def run_all(args, spec) -> int:
    """Every workload in turn, each in its own interpreter."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("#summary ")))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            code = 1
            combined["correct"] = False
            continue
        code = code or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    return traced(args, spec) if args.trace else untraced(args, spec)


if __name__ == "__main__":
    sys.exit(main())
