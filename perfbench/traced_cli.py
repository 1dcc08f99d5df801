"""Run the homquiver command line with per-layer tracing.

    python3 perfbench/traced_cli.py TRACE.json <homquiver arguments...>

Spans and counters of the call are written to TRACE.json when it ends;
stdout, stderr and the exit code are those of ``homquiver``.
"""

import sys

import tracer as tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tracing.install(tr)
    import homquiver.cli

    tr.start()
    try:
        return homquiver.cli.main(argv)
    finally:
        tr.stop()
        tr.dump(out)


if __name__ == "__main__":
    sys.exit(main())
