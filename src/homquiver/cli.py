"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 semantic failure
(validation error, violated relations, inconsistent solve).  Results go
to stdout, diagnostics to stderr.  ``--json`` emits a single document
with stable key order.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bott import bott
from .bundle import RelationError, cotangent, gabriel_decompose, require_structure, require_valid, solve_derived_arrows, tangent
from .bundleio import BundleFormatError, load_rep, save_rep
from .cohomology import GModuleDecomposition, euler, h0, h_graded
from .geometry import build_geometry, parabolic_key
from .quiver import quiver_window

USAGE_ERROR = 1
SEMANTIC_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _coords(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"bad coordinate list {text!r}: expected e.g. '0,-1,2'")


def _levi(text: str) -> tuple:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"bad levi list {text!r}: expected e.g. '1,3'")


def _fmt_weight(w) -> str:
    return ",".join(str(c) for c in w)


def _decomposition(dec: GModuleDecomposition):
    for note in dec.notes:
        print(f"warning: {note}", file=sys.stderr)
    doc = {
        "entries": [
            {"weight": list(e.weight), "mult": e.multiplicity, "dim": e.dimension}
            for e in dec.entries
        ],
        "total": dec.total_dimension,
    }
    lines = [f"weight={_fmt_weight(e.weight)} mult={e.multiplicity} dim={e.dimension}"
             for e in dec.entries]
    return doc, lines + [f"total={dec.total_dimension}"]


def _build_parser() -> _Parser:
    parser = _Parser(prog="homquiver", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bott", help="cohomology of an irreducible bundle")
    p.set_defaults(run=_bott)
    p.add_argument("type")
    p.add_argument("--levi", type=_levi, default=())
    p.add_argument("coords", type=int, nargs="+",
                   help="weight coordinates; put -- before negative values")

    p = sub.add_parser("quiver", help="finite forward window of the quiver")
    p.set_defaults(run=_quiver)
    p.add_argument("type")
    p.add_argument("--levi", type=_levi, default=())
    p.add_argument("--center", type=_coords, required=True)
    p.add_argument("--radius", type=int, required=True)

    p = sub.add_parser("check", help="validate a bundle file and its relations")
    p.set_defaults(run=_check)
    p.add_argument("file")

    p = sub.add_parser("solve", help="complete generating arrows to a full representation")
    p.set_defaults(run=_solve)
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("gabriel", help="interval decomposition of an A_m-type bundle")
    p.set_defaults(run=_gabriel)
    p.add_argument("file")

    p = sub.add_parser("make", help="write a builder bundle to a file")
    p.set_defaults(run=_make)
    p.add_argument("what", choices=["tangent", "cotangent"])
    p.add_argument("type")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("h0", help="global sections of a bundle file")
    p.set_defaults(run=_h0)
    p.add_argument("file")

    p = sub.add_parser("hgr", help="graded cohomology in one degree")
    p.set_defaults(run=_hgr)
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("euler", help="Euler characteristic of a bundle file")
    p.set_defaults(run=_euler)
    p.add_argument("file")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def _load_checked(path):
    rep = load_rep(path)
    require_structure(rep)
    return rep


def _geometry(type_name, levi=(), coords=None, what=""):
    # A malformed Cartan type, Levi index or coordinate count is a parse
    # problem, not a semantic one, and is reported in that order before
    # the root system is built, whose cost grows with the rank.
    try:
        cartan_type, levi = parabolic_key(type_name, levi)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if coords is not None and len(coords) != cartan_type.rank:
        raise _UsageError(
            f"{what} needs {cartan_type.rank} coordinates for {cartan_type}, "
            f"got {len(coords)}"
        )
    return build_geometry(cartan_type, levi)


# The handlers call library functions through this module's globals, so
# a tracer that rebinds those names here sees every call.


def _bott(args):
    geom = _geometry(args.type, args.levi, args.coords, "the weight")
    res = bott(geom, tuple(args.coords))
    if res.is_singular:
        return {"singular": True}, ["singular"]
    doc = {"singular": False, "degree": res.degree,
           "weight": list(res.weight), "dim": res.dimension}
    return doc, [f"degree={res.degree} weight={_fmt_weight(res.weight)} dim={res.dimension}"]


def _quiver(args):
    geom = _geometry(args.type, args.levi, args.center, "--center")
    window = quiver_window(geom, args.center, args.radius)
    # Only the output asked for is built, each vertex and root formatted once.
    fmt = list if args.json else _fmt_weight
    vertices = {v: fmt(v) for v in window.vertices}
    roots = {beta: fmt(beta.simple) for beta in geom.nilradical_roots}
    if args.json:
        arrows = [{"from": vertices[a.source], "root": roots[a.root],
                   "to": vertices[a.target], "kind": a.kind} for a in window.arrows]
        return {"vertices": list(vertices.values()), "arrows": arrows}, None
    lines = [f"vertex {text}" for text in vertices.values()]
    lines += [f"arrow {vertices[a.source]} -> {vertices[a.target]} "
              f"root={roots[a.root]} kind={a.kind}" for a in window.arrows]
    return None, lines


def _check(args):
    rep = load_rep(args.file)
    require_valid(rep)
    if not rep.geometry.is_borel:
        print("warning: non-Borel parabolic, relations unchecked", file=sys.stderr)
    return {"ok": True}, ["ok"]


def _solve(args):
    save_rep(solve_derived_arrows(load_rep(args.file)), args.output)
    return {"ok": True, "output": args.output}, [f"solved: wrote {args.output}"]


def _gabriel(args):
    dec = gabriel_decompose(_load_checked(args.file))
    chain = dec.path.vertices
    direction = dec.path.direction
    doc = {
        "direction": list(direction.simple) if direction else None,
        "path": [list(v) for v in chain],
        "intervals": [
            {"from": list(chain[i]), "to": list(chain[j]), "mult": m}
            for (i, j), m in dec.intervals
        ],
    }
    lines = [f"direction={_fmt_weight(direction.simple) if direction else '-'}"]
    lines += [f"interval {_fmt_weight(chain[i])} .. {_fmt_weight(chain[j])} mult={m}"
              for (i, j), m in dec.intervals]
    return doc, lines


def _make(args):
    geom = _geometry(args.type)
    save_rep(tangent(geom) if args.what == "tangent" else cotangent(geom), args.output)
    return {"ok": True, "output": args.output}, [f"wrote {args.output}"]


def _h0(args):
    return _decomposition(h0(load_rep(args.file)))


def _hgr(args):
    return _decomposition(h_graded(_load_checked(args.file), args.degree))


def _euler(args):
    value = euler(_load_checked(args.file))
    return {"euler": value}, [f"euler={value}"]


def _print_error(exc):
    # One line, even when the message quotes an argument or a path that
    # holds a line break.
    print("error: " + " ".join(str(exc).splitlines()), file=sys.stderr)


def main(argv=None, out=None) -> int:
    """Run one subcommand.  Its handler returns ``(doc, lines)``, the
    ``--json`` document and the text lines (a handler may leave the one
    not asked for as None), and only this function prints the chosen
    one, to ``out`` (standard output when None)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _print_error(exc)
        return USAGE_ERROR
    try:
        doc, lines = args.run(args)
        print(json.dumps(doc) if args.json else "\n".join(lines), file=out)
        return 0
    except (_UsageError, BundleFormatError, OSError) as exc:
        _print_error(exc)
        return USAGE_ERROR
    except RelationError as exc:
        for inst in exc.instances:
            print(
                f"violated: at ({_fmt_weight(inst.source)}) roots "
                f"({_fmt_weight(inst.beta.simple)}) ({_fmt_weight(inst.gamma.simple)}) "
                f"N={inst.coefficient}",
                file=sys.stderr,
            )
        _print_error(exc)
        return SEMANTIC_ERROR
    except ValueError as exc:
        _print_error(exc)
        return SEMANTIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
