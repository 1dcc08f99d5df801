"""Bundle description files: JSON serialization of quiver representations.

Schema (all keys required except "levi" and "arrows"):

    {
      "algebra": "A2",
      "levi": [2],
      "vertices": [{"weight": [0, 0], "dim": 1}, ...],
      "arrows": [{"from": [0, 0], "root": [1, 0], "matrix": [["1", "-2/3"]]}, ...]
    }

"root" is in simple-root coordinates; matrix entries are decimal-integer
or "p/q" strings, row count = target dimension, column count = source
dimension.  Unknown keys are rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bundle import QuiverRep
from .geometry import build_geometry, parabolic_key
from .linalg import Matrix


class BundleFormatError(ValueError):
    pass


def _check_keys(obj: dict, allowed: set, required: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise BundleFormatError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise BundleFormatError(f"missing key(s) {sorted(missing)} in {where}")


def _is_int(value) -> bool:
    """JSON integers only: true and false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_vector(value, where: str) -> tuple:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise BundleFormatError(f"{where} must be a list of integers")
    return tuple(value)


def _entry(value, where: str) -> Fraction:
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        # The format has no exponents; "1e999999999" would cost time and
        # memory in proportion to the number's size.
        if "e" in value.lower():
            raise BundleFormatError(f"bad rational {value!r} in {where}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BundleFormatError(f"bad rational {value!r} in {where}") from exc
    raise BundleFormatError(f"matrix entry in {where} must be an integer or string")


def rep_from_dict(doc: dict) -> QuiverRep:
    if not isinstance(doc, dict):
        raise BundleFormatError("bundle document must be a JSON object")
    _check_keys(doc, {"algebra", "levi", "vertices", "arrows"},
                {"algebra", "vertices"}, "bundle document")
    algebra = doc["algebra"]
    if not isinstance(algebra, str):
        raise BundleFormatError('"algebra" must be a string such as "A2"')
    levi = _int_vector(doc.get("levi", []), '"levi"')
    try:
        cartan_type, levi = parabolic_key(algebra, levi)
    except ValueError as exc:
        raise BundleFormatError(str(exc)) from exc

    support = {}
    if not isinstance(doc["vertices"], list):
        raise BundleFormatError('"vertices" must be a list')
    for v in doc["vertices"]:
        if not isinstance(v, dict):
            raise BundleFormatError("vertex entries must be objects")
        _check_keys(v, {"weight", "dim"}, {"weight", "dim"}, "vertex entry")
        w = _int_vector(v["weight"], '"weight"')
        if not _is_int(v["dim"]) or v["dim"] <= 0:
            raise BundleFormatError(f'"dim" of vertex {list(w)} must be a positive integer')
        if w in support:
            raise BundleFormatError(f"duplicate vertex {list(w)}")
        support[w] = v["dim"]
    # The message and exit status of ``bundle.validate``, but before the
    # root system is built, whose cost grows with the declared rank.
    wrong = [f"vertex {w}: wrong coordinate length" for w in support
             if len(w) != cartan_type.rank]
    if wrong:
        raise ValueError("; ".join(wrong))
    geom = build_geometry(cartan_type, levi)

    arrows = {}
    if not isinstance(doc.get("arrows", []), list):
        raise BundleFormatError('"arrows" must be a list')
    for a in doc.get("arrows", []):
        if not isinstance(a, dict):
            raise BundleFormatError("arrow entries must be objects")
        _check_keys(a, {"from", "root", "matrix"}, {"from", "root", "matrix"},
                    "arrow entry")
        src = _int_vector(a["from"], '"from"')
        root_simple = _int_vector(a["root"], '"root"')
        root = geom.root_system.root(root_simple)
        if root is None:
            raise BundleFormatError(f"{list(root_simple)} is not a root of {algebra}")
        if not isinstance(a["matrix"], list) or not all(
            isinstance(r, list) for r in a["matrix"]
        ):
            raise BundleFormatError('"matrix" must be a list of rows')
        tgt = tuple(x - y for x, y in zip(src, root.fund))
        if src not in support:
            raise BundleFormatError(f"arrow source {list(src)} is not a vertex")
        if tgt not in support:
            raise BundleFormatError(
                f"arrow target {list(tgt)} (from {list(src)}, root "
                f"{list(root_simple)}) is not a vertex"
            )
        rows = support[tgt]
        cols = support[src]
        where = f"arrow {list(src)} -> {list(tgt)}"
        data = [[_entry(x, where) for x in r] for r in a["matrix"]]
        if len({len(r) for r in data}) > 1:
            raise BundleFormatError(f"{where}: ragged matrix rows")
        mat = Matrix(data, len(data), len(data[0]) if data else cols)
        if (mat.rows, mat.cols) != (rows, cols):
            raise BundleFormatError(
                f"{where}: matrix is {mat.rows}x{mat.cols}, expected {rows}x{cols}"
            )
        if (src, root) in arrows:
            raise BundleFormatError(f"duplicate arrow at {list(src)}, root {list(root_simple)}")
        arrows[(src, root)] = mat
    return QuiverRep(geom, support, arrows)


def rep_to_dict(rep: QuiverRep) -> dict:
    """Canonical JSON document: sorted vertices and arrows, rationals in
    lowest terms as strings."""
    geom = rep.geometry
    doc = {
        "algebra": str(geom.root_system.cartan_type),
        "levi": list(geom.levi),
        "vertices": [
            {"weight": list(w), "dim": d} for w, d in sorted(rep.support.items())
        ],
        "arrows": [
            {
                "from": list(src),
                "root": list(root.simple),
                "matrix": [[str(x) for x in row] for row in mat.data],
            }
            for (src, root), mat in sorted(
                rep.arrows.items(), key=lambda kv: (kv[0][0], kv[0][1].simple)
            )
        ],
    }
    return doc


def load_rep(path) -> QuiverRep:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # Malformed or too deeply nested JSON, bytes that are not UTF-8,
        # an integer too long to convert, a NUL byte in the path.
        raise BundleFormatError(f"{path}: {exc}") from exc
    return rep_from_dict(doc)


def save_rep(rep: QuiverRep, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(rep_to_dict(rep), indent=2) + "\n")
