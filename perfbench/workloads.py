"""The three benchmark workloads: seeded inputs, timed ops and their checks.

A workload builds its inputs from the seed alone and hands out rounds of
ops.  ``Op.run`` is the timed call into homquiver; ``Op.check`` runs
untimed afterwards, raises ``CheckFailed`` on a wrong answer and returns
the canonical text of the op's output, which feeds the round digest.

Every round of a run does the same amount of work on fresh inputs, so
that no cache inside homquiver is hit by repeating an input:

* ``flag_tangent`` runs each op in a fresh interpreter;
* ``levi_windows`` translates its weights along the torus coordinates
  (those outside the Levi subset), which no Levi computation reflects;
* ``dense_sections`` draws fresh arrow and basis-change matrices.

homquiver names are imported inside functions, when a round is made,
so that they are looked up after a traced run has rebound them.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An op produced a wrong answer."""


class Op:
    """One timed unit of work.  ``trace_file`` is set when the op runs in a
    traced child process that writes its spans there."""

    __slots__ = ("kind", "run", "check", "trace_file")

    def __init__(self, kind, run, check, trace_file=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.trace_file = trace_file


def child_env() -> dict:
    """Environment for child interpreters: homquiver from ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# flag_tangent: the CLI pipeline on large full flag varieties
# ---------------------------------------------------------------------------


class FlagTangent:
    """``make tangent`` / ``check`` / ``h0`` / ``euler`` for E6, D7 and E7 plus
    ``make cotangent`` / ``h0`` for E6, each call a separate CLI process.

    H0 of the tangent bundle of G/B is the adjoint module, so ``h0`` total
    and ``euler`` both equal dim g; the cotangent bundle has no sections.
    The seed only orders the blocks of the round.
    """

    name = "flag_tangent"
    TYPES = (("E6", 78), ("D7", 91), ("E7", 133))
    COTANGENT = "E6"

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.workdir = workdir
        self.traced = traced
        blocks = [("tangent", t, dim) for t, dim in self.TYPES]
        blocks.append(("cotangent", self.COTANGENT, 0))
        random.Random(f"flag_tangent:{seed}").shuffle(blocks)
        self.blocks = blocks
        self._count = 0

    def setup_argv(self) -> list:
        return [sys.executable, "-m", "homquiver.cli", "--version"]

    def build(self):
        """Nothing to build in this process: every CLI call builds its own."""

    def prepare(self):
        """Nothing to prepare: the round is the same fixed list of calls."""

    def _cli(self, kind, args, check):
        self._count += 1
        trace_file = None
        if self.traced:
            trace_file = self.workdir / f"trace-{self._count}.json"
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), *args]
        else:
            argv = [sys.executable, "-m", "homquiver.cli", *args]

        def run():
            return subprocess.run(
                argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=170,
            )

        return Op(kind, run, check, trace_file)

    def round_ops(self, k: int) -> list:
        ops = []
        for what, type_name, dim in self.blocks:
            path = self.workdir / f"{what}_{type_name}.json"
            label = f"{what} {type_name}"
            ops.append(self._cli("make", ["make", what, type_name, "-o", str(path)],
                                 _check_make(label, path)))
            if what == "tangent":
                ops.append(self._cli("check", ["check", str(path)],
                                     _check_lines(f"check {label}", ["ok"])))
            ops.append(self._cli("h0", ["h0", str(path)],
                                 _check_total(f"h0 {label}", dim)))
            if what == "tangent":
                ops.append(self._cli("euler", ["euler", str(path)],
                                     _check_lines(f"euler {label}", [f"euler={dim}"])))
        return ops


def _cli_clean(label, proc):
    _expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    _expect(proc.stderr == "", f"{label}: unexpected stderr {proc.stderr.strip()[-300:]!r}")


def _check_make(label, path):
    def check(proc):
        _cli_clean(f"make {label}", proc)
        _expect(proc.stdout == f"wrote {path}\n", f"make {label}: stdout {proc.stdout!r}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return f"make {label} {digest}"
    return check


def _check_lines(label, want):
    def check(proc):
        _cli_clean(label, proc)
        lines = proc.stdout.splitlines()
        _expect(lines == want, f"{label}: got {lines!r}, want {want!r}")
        return f"{label} {' '.join(lines)}"
    return check


def _check_total(label, want):
    def check(proc):
        _cli_clean(label, proc)
        lines = proc.stdout.splitlines()
        _expect(lines and lines[-1] == f"total={want}",
                f"{label}: last line {lines[-1:]!r}, want total={want}")
        return f"{label} {' | '.join(lines)}"
    return check


# ---------------------------------------------------------------------------
# levi_windows: the integer-combinatorial core on parabolics
# ---------------------------------------------------------------------------


class LeviWindows:
    """Quiver windows of radius ``RADIUS`` for every Levi subset of D4 and
    A5, and Freudenthal followed by Klimyk for every fundamental weight of
    every maximal Levi factor of D5 and E6.

    Window centres have Levi coordinates at least ``RADIUS + 1``, so every
    vertex of a window stays p-dominant and the window's shape does not
    depend on the seed.  The seed picks the centres, the torus
    coordinates and the second Klimyk factor; round ``k`` moves every
    weight by ``k`` along the torus coordinates, which leaves the work
    unchanged and every weight new.
    """

    name = "levi_windows"
    WINDOW_TYPES = ("D4", "A5")
    # At radius 3 the 48 windows take about 29 s against 7 s at radius 2
    # (Python 3.11, 2-vCPU x86_64), which leaves one round per run.
    RADIUS = 2
    FK_TYPES = ("D5", "E6")

    def __init__(self, seed: int, workdir: Path = None, traced: bool = False):
        self.seed = seed
        self._first = {}  # op index -> round-0 output moved back to the origin

    @classmethod
    def geometries(cls) -> list:
        out = []
        for type_name in cls.WINDOW_TYPES:
            rank = int(type_name[1:])
            for size in range(rank + 1):
                out.extend((type_name, levi)
                           for levi in itertools.combinations(range(1, rank + 1), size))
        for type_name in cls.FK_TYPES:
            rank = int(type_name[1:])
            out.extend((type_name, tuple(i for i in range(1, rank + 1) if i != drop))
                       for drop in range(1, rank + 1))
        return out

    def setup_argv(self) -> list:
        return _setup_argv(self.geometries())

    def build(self):
        import homquiver as hq
        self.geoms = {key: hq.build_geometry(*key) for key in self.geometries()}

    def prepare(self):
        """Untimed: the seeded centres and weights of every op of a round."""
        rng = random.Random(f"levi_windows:{self.seed}")
        self.plan = []
        radius = self.RADIUS
        for type_name in self.WINDOW_TYPES:
            rank = int(type_name[1:])
            for size in range(rank + 1):
                for levi in itertools.combinations(range(1, rank + 1), size):
                    center = tuple(
                        rng.randint(radius + 1, radius + 3) if i + 1 in levi
                        else rng.randint(-3, 3)
                        for i in range(rank)
                    )
                    self.plan.append(("window", (type_name, levi), center))
        for type_name in self.FK_TYPES:
            rank = int(type_name[1:])
            for drop in range(1, rank + 1):
                levi = tuple(i for i in range(1, rank + 1) if i != drop)
                for i in levi:
                    lam = tuple(int(j + 1 == i) for j in range(rank))
                    lam = lam[:drop - 1] + (rng.randint(-4, 4),) + lam[drop:]
                    nu = rng.choice(levi)
                    mu = tuple(int(j + 1 == nu) for j in range(rank))
                    mu = mu[:drop - 1] + (rng.randint(-4, 4),) + mu[drop:]
                    self.plan.append(("fk", (type_name, levi), lam, mu))

    @staticmethod
    def _shift(geom, weight, k):
        """Move a weight by k along the torus coordinates (all coordinates
        when the Levi factor is the whole group)."""
        rank = geom.root_system.rank
        torus = [i for i in range(rank) if i + 1 not in geom.levi] or range(rank)
        w = list(weight)
        for i in torus:
            w[i] += k
        return tuple(w)

    def round_ops(self, k: int) -> list:
        from homquiver import quiver_window
        from homquiver.levi import freudenthal, klimyk_tensor

        ops = []
        for idx, entry in enumerate(self.plan):
            geom = self.geoms[entry[1]]
            if entry[0] == "window":
                center = self._shift(geom, entry[2], k)

                def run(geom=geom, center=center, radius=self.RADIUS):
                    return quiver_window(geom, center, radius)

                ops.append(Op("window", run, self._check_window(idx, geom, center, k)))
            else:
                lam = self._shift(geom, entry[2], k)
                mu = entry[3]

                def run(geom=geom, lam=lam, mu=mu):
                    weights = freudenthal(geom, lam)
                    return weights, klimyk_tensor(geom, mu, lam)

                ops.append(Op("fk", run, _check_fk(geom, lam, mu)))
        return ops

    def _check_window(self, idx, geom, center, k):
        def check(window):
            verts = set(window.vertices)
            _expect(center in verts, f"window {center}: centre missing")
            for v in window.vertices:
                _expect(geom.is_p_dominant(v), f"window {center}: {v} not p-dominant")
            nil = set(geom.nilradical_roots)
            for a in window.arrows:
                _expect(a.source in verts and a.target in verts,
                        f"window {center}: arrow leaves the window")
                _expect(a.root in nil, f"window {center}: arrow root not in nilradical")
                _expect(tuple(x - y for x, y in zip(a.source, a.root.fund)) == a.target,
                        f"window {center}: arrow target mismatch")
            text = _window_text(window)
            back = _window_text(window, lambda w: self._shift(geom, w, -k))
            first = self._first.setdefault(idx, back)
            _expect(back == first, f"window {center}: not the round-0 window moved by {k}")
            return text
        return check


def _window_text(window, move=lambda w: w) -> str:
    verts = ";".join(",".join(map(str, move(v))) for v in window.vertices)
    arrows = ";".join(
        f"{','.join(map(str, move(a.source)))}>{','.join(map(str, a.root.simple))}:{a.kind}"
        for a in window.arrows
    )
    return f"W[{verts}][{arrows}]"


def _check_fk(geom, lam, mu):
    from homquiver.levi import levi_weyl_dim

    def check(result):
        weights, tensor = result
        dim_lam = levi_weyl_dim(geom, lam)
        total = sum(m for _, m in weights)
        _expect(total == dim_lam, f"freudenthal {lam}: total {total} != weyl dim {dim_lam}")
        tensor_dim = sum(m * levi_weyl_dim(geom, nu) for nu, m in tensor)
        want = levi_weyl_dim(geom, mu) * dim_lam
        _expect(tensor_dim == want, f"klimyk {mu} x {lam}: dim {tensor_dim} != {want}")
        return f"F{lam}{weights}K{mu}{tensor}"
    return check


# ---------------------------------------------------------------------------
# dense_sections: exact linear algebra on relation-consistent Borel bundles
# ---------------------------------------------------------------------------


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _mat_inverse(a):
    """Inverse by Gauss-Jordan over Fractions, or None when singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _random_invertible(rng, n):
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        inv = _mat_inverse(p)
        if inv is not None:
            return p, inv


def conjugate(rep, rng):
    """Vertexwise change of basis by random invertible integer matrices:
    each arrow M from s to t becomes P_t^-1 M P_s."""
    from homquiver import QuiverRep
    from homquiver.linalg import Matrix

    change = {lam: _random_invertible(rng, d) for lam, d in sorted(rep.support.items())}
    arrows = {}
    for (src, root), mat in rep.arrows.items():
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        data = _mat_mul(change[tgt][1], _mat_mul([list(r) for r in mat.data], change[src][0]))
        arrows[(src, root)] = Matrix(data, mat.rows, mat.cols)
    return QuiverRep(rep.geometry, dict(rep.support), arrows)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def translate(rep, shift):
    """The bundle tensored with the line bundle of weight ``shift``: every
    vertex moves, every arrow matrix stays, so relations still hold."""
    from homquiver import QuiverRep

    def move(w):
        return tuple(x + y for x, y in zip(w, shift))

    return QuiverRep(
        rep.geometry,
        {move(w): d for w, d in rep.support.items()},
        {(move(src), root): mat for (src, root), mat in rep.arrows.items()},
    )


def chain(geom, top, i, dims, rng):
    """Bundle supported on top, top - a_i, top - 2 a_i, ... with random
    integer arrows.  All arrows point along one simple root, so every
    relation instance has a zero residual."""
    from homquiver import QuiverRep
    from homquiver.linalg import Matrix

    alpha = geom.root_system.simple_root(i)
    verts = [top]
    for _ in dims[1:]:
        verts.append(_sub(verts[-1], alpha.fund))
    arrows = {}
    for k in range(len(dims) - 1):
        data = [[rng.randint(-2, 2) for _ in range(dims[k])] for _ in range(dims[k + 1])]
        if any(any(r) for r in data):
            arrows[(verts[k], alpha)] = Matrix(data, dims[k + 1], dims[k])
    return QuiverRep(geom, dict(zip(verts, dims)), arrows)


INCONSISTENT = ("L_ell1", "B_s0", "B_s1", "B_s3")


def inconsistent_pattern(geom, kind, i, v0, rng):
    """One of the fixture patterns with no consistent completion, on the
    roots a_i, a_{i+1} (an A2 inside A_n), moved to start at v0 and
    rescaled vertexwise by random nonzero rationals (generating arrows only).

    L_ell1: v0 -a_i-> v1 -a_{i+1}-> v2 -a_i-> v3, constants 1, 1, 1.
    B_s:    adds v4 = v1 - a_i with v1 -a_i-> v4 (constant s) -a_{i+1}-> v3.
    """
    from homquiver import QuiverRep
    from homquiver.linalg import Matrix

    rs = geom.root_system
    a, b = rs.simple_root(i), rs.simple_root(i + 1)
    v1 = _sub(v0, a.fund)
    v2 = _sub(v1, b.fund)
    v3 = _sub(v2, a.fund)
    edges = [(v0, a, 1), (v1, b, 1), (v2, a, 1)]
    if kind.startswith("B_s"):
        v4 = _sub(v1, a.fund)
        edges += [(v1, a, int(kind[3:])), (v4, b, 1)]
    verts = {v for v, _, _ in edges} | {_sub(v, r.fund) for v, r, _ in edges}
    scale = {v: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
             for v in sorted(verts)}
    arrows = {}
    for v, r, c in edges:
        if c:
            arrows[(v, r)] = Matrix([[c * scale[v] / scale[_sub(v, r.fund)]]], 1, 1)
    return QuiverRep(geom, {v: 1 for v in verts}, arrows)


def top_vertex(rep):
    """The support vertex highest in the order in which arrows descend:
    (lam, rho) drops by the height of the root along every arrow."""
    inv = rep.geometry.root_system.cartan_inverse
    return max(rep.support, key=lambda w: (sum(x * sum(row) for x, row in zip(w, inv)), w))


def decomposition_map(dec) -> dict:
    return {e.weight: (e.multiplicity, e.dimension) for e in dec.entries}


def add_decompositions(decs) -> dict:
    acc = {}
    for dec in decs:
        for w, (m, d) in decomposition_map(dec).items():
            acc[w] = (acc.get(w, (0, d))[0] + m, d)
    return acc


def _sub_and_colon_dims(summand, top):
    """Dimension vectors of the subrepresentation generated at ``top`` and
    of the colon quotient at ``top``; a summand without ``top`` contributes
    nothing to the first and all of itself to the second."""
    from homquiver import colon_quotient, subrep_generated

    seeds = [top] if top in summand.support else []
    sub = subrep_generated(summand, seeds).support if seeds else {}
    return sub, colon_quotient(summand, seeds).support


def _add_dims(acc, support):
    for w, d in support.items():
        acc[w] = acc.get(w, 0) + d
    return acc


class DenseSections:
    """Relation-consistent Borel bundles on A2, A3 and A4, built as direct
    sums of a shifted tangent or cotangent bundle and three single-direction
    chains, then conjugated vertexwise by random invertible matrices.

    Per bundle (one op): ``h0``; ``solve_derived_arrows`` from the
    generating arrows, which must give the bundle back exactly;
    ``colon_quotient`` and ``subrep_generated`` at the top vertex;
    ``h0_am`` on each conjugated chain; and ``solve_derived_arrows`` on
    the bundle summed with an inconsistent fixture pattern, which must
    raise ``RelationError``.  Expected answers come from the unconjugated
    summands, untimed: H0, generated subrepresentations and colon
    quotients are additive over direct sums and invariant under a change
    of basis.

    The bundles' shapes (shift, chain tops, directions, lengths and
    dimensions, pattern) are the same for every seed, so that each run
    does the same work; the seed draws only the matrices, fresh in
    every round.
    """

    name = "dense_sections"
    TYPES = ("A2", "A3", "A4")
    PER_TYPE = 8
    CHAINS = 3
    MAX_CHAIN_DIM = 3

    def __init__(self, seed: int, workdir: Path = None, traced: bool = False):
        self.seed = seed

    @classmethod
    def geometries(cls) -> list:
        return [(t, ()) for t in cls.TYPES]

    def setup_argv(self) -> list:
        return _setup_argv(self.geometries())

    def build(self):
        import homquiver as hq
        self.geoms = {t: hq.build_geometry(t, ()) for t in self.TYPES}

    def prepare(self):
        """Untimed: the tangent and cotangent bundles the shapes are made from, and the shapes."""
        from homquiver import cotangent, h0, tangent

        self.base = {}
        for t, geom in self.geoms.items():
            for kind, build in (("tangent", tangent), ("cotangent", cotangent)):
                rep = build(geom)
                self.base[(t, kind)] = rep
        self._base_h0 = {}
        self._base_dims = {}
        rng = random.Random("dense_sections:shapes")
        self.shapes = []
        for t in self.TYPES:
            geom = self.geoms[t]
            n = geom.root_system.rank
            for _ in range(self.PER_TYPE):
                kind = rng.choice(("tangent", "cotangent"))
                shift = tuple(rng.randint(0, 2) for _ in range(n))
                base = translate(self.base[(t, kind)], shift)
                dominant = sorted(w for w in base.support if min(w) >= 0)
                chains = []
                for _ in range(self.CHAINS):
                    i = rng.randint(1, n)
                    if dominant:
                        top = rng.choice(dominant)
                    else:
                        top = tuple(rng.randint(0, 2) for _ in range(n))
                    length = top[i - 1] + 2 + rng.randint(0, 1)
                    dims = [rng.randint(1, self.MAX_CHAIN_DIM) for _ in range(length)]
                    chains.append((top, i, dims))
                pattern = (rng.choice(INCONSISTENT), rng.randint(1, n - 1),
                           tuple(rng.randint(-2, 2) for _ in range(n)))
                self.shapes.append((t, kind, shift, chains, pattern))
                key = (t, kind, shift)
                if key not in self._base_h0:
                    self._base_h0[key] = h0(base)

    def bundle(self, shape, rng):
        """One generated bundle and everything its checks need."""
        from homquiver import QuiverRep, direct_sum, h0

        t, kind, shift, chain_shapes, (pkind, pi, pv0) = shape
        geom = self.geoms[t]
        base = translate(self.base[(t, kind)], shift)
        chains = [chain(geom, top, i, dims, rng) for top, i, dims in chain_shapes]
        summands = [base] + chains
        rep = conjugate(direct_sum(*summands), rng)
        top = top_vertex(rep)
        key = (t, kind, shift, top)
        if key not in self._base_dims:
            self._base_dims[key] = _sub_and_colon_dims(base, top)
        expect_sub, expect_colon = ({**d} for d in self._base_dims[key])
        for c in chains:
            sub, colon = _sub_and_colon_dims(c, top)
            _add_dims(expect_sub, sub)
            _add_dims(expect_colon, colon)
        chain_h0 = [h0(c) for c in chains]
        simples = set(geom.root_system.positive_roots[: geom.root_system.rank])
        return {
            "rep": rep,
            "generating": QuiverRep(
                geom, dict(rep.support),
                {key: m for key, m in rep.arrows.items() if key[1] in simples},
            ),
            "top": top,
            "chains": [conjugate(c, rng) for c in chains],
            "pattern": inconsistent_pattern(geom, pkind, pi, pv0, rng),
            "h0": add_decompositions([self._base_h0[(t, kind, shift)]] + chain_h0),
            "chain_h0": [decomposition_map(d) for d in chain_h0],
            "sub": expect_sub,
            "colon": expect_colon,
        }

    def round_bundles(self, k: int) -> list:
        rng = random.Random(f"dense_sections:{self.seed}:{k}")
        return [self.bundle(shape, rng) for shape in self.shapes]

    def round_ops(self, k: int) -> list:
        return [self._op(b) for b in self.round_bundles(k)]

    @staticmethod
    def _op(b):
        from homquiver import (RelationError, colon_quotient, direct_sum, h0, h0_am,
                               solve_derived_arrows, subrep_generated)

        def run():
            dec = h0(b["rep"])
            solved = solve_derived_arrows(b["generating"])
            quo = colon_quotient(b["rep"], [b["top"]])
            sub = subrep_generated(b["rep"], [b["top"]])
            am = [h0_am(c) for c in b["chains"]]
            try:
                solve_derived_arrows(direct_sum(b["rep"], b["pattern"]))
                verdict = None
            except RelationError as exc:
                verdict = exc
            return dec, solved, quo, sub, am, verdict

        def check(result):
            from homquiver import rep_to_dict

            dec, solved, quo, sub, am, verdict = result
            _expect(decomposition_map(dec) == b["h0"],
                    f"h0 {decomposition_map(dec)} != sum over summands {b['h0']}")
            _expect(solved == b["rep"], "solve from generating arrows changed the bundle")
            _expect(sub.support == b["sub"], f"subrep dims {sub.support} != {b['sub']}")
            _expect(quo.support == b["colon"], f"colon dims {quo.support} != {b['colon']}")
            for got, want in zip(am, b["chain_h0"]):
                _expect(decomposition_map(got) == want, f"h0_am {decomposition_map(got)} != {want}")
            _expect(verdict is not None and len(verdict.instances) > 0,
                    "inconsistent pattern was solved")
            violated = [(i.source, i.beta.simple, i.gamma.simple, i.coefficient)
                        for i in verdict.instances]
            return repr((
                sorted(decomposition_map(dec).items()),
                rep_to_dict(quo), rep_to_dict(sub),
                [sorted(decomposition_map(d).items()) for d in am],
                violated,
            ))
        return Op("bundle", run, check)


def _setup_argv(geometries) -> list:
    code = (
        "import homquiver\n"
        f"for t, levi in {list(geometries)!r}:\n"
        "    homquiver.build_geometry(t, levi)\n"
    )
    return [sys.executable, "-c", code]


WORKLOADS = {w.name: w for w in (FlagTangent, LeviWindows, DenseSections)}
