"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/seeds.py --workload NAME --seeds 1 2 3 [--seconds S] [--out FILE]

Runs ``run.py`` untraced once per seed, one after another, for
``--seconds`` each (default: ``run_seconds`` of ``BENCHMARK.json``), and
prints per end-to-end metric the median of the runs, the quartiles
(``statistics.quantiles(n=4)``) and the spread, (Q3 - Q1) / median.
With ``--out`` the same figures and every run's values are written to
FILE as JSON.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    values, units = {}, {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=900,
        )
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None
        if proc.returncode != 0 or not result or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"  {name:32s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
              f"spread={spread:.3f} {units[name]}")
    if args.out:
        doc = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "python": platform.python_version(),
               "machine": platform.machine(), "metrics": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
