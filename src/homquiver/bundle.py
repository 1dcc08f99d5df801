"""Homogeneous bundles as quiver representations.

A representation assigns a multiplicity dimension to finitely many
vertices and a rational matrix to each arrow between supported vertices;
an absent arrow is the zero map.  On the Borel parabolic the commutation
relations with Chevalley coefficients cut out exactly the representations
coming from bundles, and the non-generating ("derived") arrow matrices
are determined by the generating ones: ``solve_derived_arrows`` performs
that completion or reports the violated instances.

The engine has one relation, the bracket [f_beta, f_gamma] of two arrow
directions at a vertex (``_bracket``).  Whether the relations hold is
decided by Serre's theorem (Humphreys, *Introduction to Lie Algebras and
Representation Theory*, 18.1-18.3; the ``quiver`` module docstring has
the proof sketch): ``_complete``, also the solver's core, completes the
simple arrows by their brackets and checks that the Serre brackets
vanish on the completion, and ``relations_hold`` accepts when they do
and the completion gives back every arrow.  ``check_relations``, the
relation check of the gate ``require_valid``, decides with it and lists
the violated instances, each a bracket against its direct arrow, only
for a rejected representation.  All three work from the arrows the
representation has: a bracket at lam is nonzero only where a 2-path
leaves lam, so each visits only such vertices.
"""

from __future__ import annotations

import operator
from math import lcm
from typing import NamedTuple

from .geometry import ParabolicGeometry, build_geometry
from .linalg import Matrix, row_basis
from .quiver import RelationInstance, first_decompositions, serre_brackets
from .rootsystem import Root, Weight


class RelationError(Exception):
    """Raised when a representation violates the Borel quiver relations."""

    def __init__(self, instances):
        self.instances = tuple(instances)
        super().__init__(f"{len(self.instances)} violated relation instance(s)")


def _sub(x: tuple, y: tuple) -> tuple:
    """The coordinatewise difference x - y."""
    return tuple(map(operator.sub, x, y))


class QuiverRep:
    """A finitely supported quiver representation over the rationals.

    ``support`` maps vertex weights to positive dimensions; ``arrows``
    maps (source weight, root) to the matrix of the corresponding map,
    shaped target-dim x source-dim.  Instances are treated as immutable
    values.
    """

    def __init__(self, geometry: ParabolicGeometry, support, arrows=()):
        self.geometry = geometry
        self.support = {tuple(k): int(v) for k, v in dict(support).items()}
        self.arrows = {}
        arrows = dict(arrows)
        for (src, root), mat in arrows.items():
            if not isinstance(root, Root):
                root = geometry.root_system.root(tuple(root))
                if root is None:
                    raise ValueError("arrow key root is not a root")
            if not isinstance(mat, Matrix):
                mat = Matrix(mat)
            if not mat.is_zero():
                self.arrows[(tuple(src), root)] = mat

    def __eq__(self, other):
        return (
            isinstance(other, QuiverRep)
            and self.geometry == other.geometry
            and self.support == other.support
            and self.arrows == other.arrows
        )

    def __repr__(self):
        return (
            f"QuiverRep({self.geometry.root_system.cartan_type}, "
            f"levi={list(self.geometry.levi)}, |support|={len(self.support)}, "
            f"|arrows|={len(self.arrows)})"
        )

    def dim(self, lam: Weight) -> int:
        return self.support.get(tuple(lam), 0)

    def walk(self, src: Weight, roots) -> Matrix | None:
        """Composition of the arrows from src along the (non-empty) roots,
        or None, the zero map, at the first absent arrow; ``roots`` is read
        no further, so a walk takes at most one step per support vertex.
        """
        mat = None
        cur = src
        for root in roots:
            step = self.arrows.get((cur, root))
            if step is None:
                return None
            mat = step if mat is None else step @ mat
            cur = _sub(cur, root.fund)
        return mat


def validate(rep: QuiverRep) -> list:
    """Structural errors of a representation (empty list = ok)."""
    geom = rep.geometry
    errors = []
    for lam, d in rep.support.items():
        if len(lam) != geom.root_system.rank:
            errors.append(f"vertex {lam}: wrong coordinate length")
            continue
        if d <= 0:
            errors.append(f"vertex {lam}: non-positive dimension {d}")
        if not geom.is_p_dominant(lam):
            errors.append(f"vertex {lam}: not p-dominant for levi {list(geom.levi)}")
    if errors:
        return errors
    for (src, root), mat in rep.arrows.items():
        tgt = _sub(src, root.fund)
        if src not in rep.support:
            errors.append(f"arrow {src} -{root.simple}->: source not in support")
            continue
        if tgt not in rep.support:
            errors.append(f"arrow {src} -{root.simple}->: target {tgt} not in support")
            continue
        # Both ends are p-dominant here, so the arrow exists exactly when
        # root is a nilradical root of this root system.
        if not geom.is_nilradical(root):
            errors.append(f"arrow {src} -{root.simple}->: not a nilradical root")
            continue
        if (mat.rows, mat.cols) != (rep.support[tgt], rep.support[src]):
            errors.append(
                f"arrow {src} -{root.simple}->: matrix is {mat.rows}x{mat.cols}, "
                f"expected {rep.support[tgt]}x{rep.support[src]}"
            )
    return errors


def _bracket(rep: QuiverRep, lam: Weight, beta: Root, gamma: Root) -> Matrix | None:
    """The bracket [f_beta, f_gamma] at lam, walk(lam, (gamma, beta)) -
    walk(lam, (beta, gamma)), or None when it is zero; [f_gamma, f_beta]
    is its negative.  A product of nonzero arrows can be zero, so the
    result is tested whichever paths exist."""
    mat = rep.walk(lam, (gamma, beta))
    other = rep.walk(lam, (beta, gamma))
    if other is not None:
        mat = other.scale(-1) if mat is None else mat - other
    return None if mat is None or mat.is_zero() else mat


def _group(pairs) -> dict:
    """The second components of the pairs, listed by the first."""
    out = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return out


def _starts(arrows: dict, sources: dict, beta: Root, gamma: Root) -> set:
    """The sources of a 2-path beta,gamma or gamma,beta among the arrows,
    ``sources`` listing each root's: the only vertices where [f_beta,
    f_gamma] can be nonzero."""
    return {
        lam
        for first, second in ((beta, gamma), (gamma, beta))
        for lam in sources.get(first, ())
        if (_sub(lam, first.fund), second) in arrows
    }


def _complete(rep: QuiverRep) -> tuple:
    """(work, serre): work is rep's simple arrows and, by increasing
    height, each derived arrow f_delta = N[f_beta, f_gamma] on the first
    decomposition of delta, visiting the 2-path sources in sorted order;
    serre is whether every Serre bracket (``quiver.serre_brackets``)
    vanishes on work at its 2-path sources.
    """
    rs = rep.geometry.root_system
    simples = set(rs.positive_roots[: rs.rank])
    arrows = {key: mat for key, mat in rep.arrows.items() if key[1] in simples}
    work = QuiverRep(rep.geometry, rep.support, arrows)
    sources = _group((root, lam) for lam, root in work.arrows)
    for delta, (beta, gamma, n) in first_decompositions(rs).items():
        # N = chevalley(-beta, -gamma) is +-1 since beta + gamma is a root,
        # so N[f_beta, f_gamma] is [f_gamma, f_beta] when N = -1.
        if n < 0:
            beta, gamma = gamma, beta
        for lam in sorted(_starts(work.arrows, sources, beta, gamma)):
            mat = _bracket(work, lam, beta, gamma)
            if mat is not None:
                work.arrows[(lam, delta)] = mat
                sources.setdefault(delta, []).append(lam)
    serre = all(
        _bracket(work, lam, beta, gamma) is None
        for beta, gamma in serre_brackets(rs)
        for lam in _starts(work.arrows, sources, beta, gamma)
    )
    return work, serre


def relations_hold(rep: QuiverRep) -> bool:
    """Whether a structurally valid Borel representation satisfies every
    relation instance: the Serre brackets vanish, and each non-simple arrow
    equals its bracket on the first decomposition.

    Both come from ``_complete(rep)``.  The Serre brackets read only the
    simple arrows and the support, which rep shares with its completion.
    The second part is ``work.arrows == rep.arrows``: by induction on
    height, as ``Matrix`` is canonical and no arrow is zero.
    """
    if not rep.geometry.is_borel:
        raise ValueError("relations are only known for the Borel parabolic")
    work, serre = _complete(rep)
    return serre and work.arrows == rep.arrows


def _decompositions(rs, index: dict, delta: Root) -> list:
    """The (i, j), i < j, of the positive roots (``index``) summing to delta;
    beta comes before delta by height, so a root delta - beta is positive."""
    out = []
    for beta in rs.positive_roots[: index[delta]]:
        gamma = rs.root(_sub(delta.simple, beta.simple))
        if gamma is not None and index[beta] < index[gamma]:
            out.append((index[beta], index[gamma]))
    return out


def _violated_instances(rep: QuiverRep) -> list:
    """The violated relation instances of a Borel representation whose
    arrows are in positive directions, by source and then by the (i, j)
    positions of the root pair in ``positive_roots``.

    An instance at lam for beta, gamma reads [f_beta, f_gamma] =
    N(-beta,-gamma) f_delta, delta = beta + gamma, maps from lam to its
    end; it is checked as [f_gamma, f_beta] = f_delta when N = -1, so each
    side is a canonical ``Matrix`` or None.  Both sides are zero unless
    one of its paths exists, so the candidates at lam are the pairs of the
    2-paths leaving lam and the decompositions of the arrows leaving it.
    """
    rs = rep.geometry.root_system
    pos = rs.positive_roots
    index = {root: k for k, root in enumerate(pos)}
    out_roots = _group(rep.arrows)
    roots = {root for _, root in rep.arrows}
    decompositions = {root: _decompositions(rs, index, root) for root in roots}
    relation = {}  # (i, j) -> (N, delta, the bracket pair), built once per pair
    violated = []
    for lam in sorted(rep.support):
        pairs = set()
        for first in out_roots.get(lam, ()):
            pairs.update(decompositions[first])
            for second in out_roots.get(_sub(lam, first.fund), ()):
                if second != first:
                    pairs.add(tuple(sorted((index[first], index[second]))))
        for i, j in sorted(pairs):
            beta, gamma = pos[i], pos[j]
            if (i, j) not in relation:
                n = rs.chevalley(-beta, -gamma)
                delta = rs.root(tuple(map(operator.add, beta.simple, gamma.simple))) if n else None
                relation[i, j] = (n, delta, (gamma, beta) if n < 0 else (beta, gamma))
            n, delta, pair = relation[i, j]
            if _bracket(rep, lam, *pair) != rep.arrows.get((lam, delta)):
                violated.append(RelationInstance(lam, beta, gamma, n))
    return violated


def _rejected_instances(rep: QuiverRep) -> list:
    """The violated instances of a representation that the relation check
    rejected; a rejection that lists nothing is a fault of the check."""
    violated = _violated_instances(rep)
    if not violated:
        raise AssertionError(
            "relations_hold rejects a representation whose every "
            "relation instance holds"
        )
    return violated


def check_relations(rep: QuiverRep) -> list:
    """Violated relation instances of a structurally valid Borel
    representation (empty = ok).

    ``relations_hold`` decides; only a rejected representation pays for
    listing the violated instances.
    """
    return [] if relations_hold(rep) else _rejected_instances(rep)


def require_structure(rep: QuiverRep) -> None:
    """Raise ValueError listing the structural errors (``validate``), if any."""
    errors = validate(rep)
    if errors:
        raise ValueError("; ".join(errors))


def require_valid(rep: QuiverRep) -> None:
    """The validation gate: structural checks, then relations on the Borel.

    Raises ValueError listing the structural errors, or RelationError
    carrying the violated relation instances (``check_relations``).
    """
    require_structure(rep)
    if rep.geometry.is_borel:
        violated = check_relations(rep)
        if violated:
            raise RelationError(violated)


def solve_derived_arrows(rep: QuiverRep) -> QuiverRep:
    """Complete generating-arrow data to a full Borel representation.

    Derived arrows are computed by increasing root height from the first
    bracket decompositions of their directions, so they satisfy the
    derived relations by construction; afterwards the Serre relations
    are checked, and a RelationError carrying the violated instances is
    raised when no consistent completion exists.  Non-generating arrows
    present in the input are ignored and recomputed.  A structurally
    invalid input raises ValueError, as in ``require_valid``, before the
    parabolic is tested.
    """
    require_structure(rep)
    if not rep.geometry.is_borel:
        raise ValueError("solve_derived_arrows needs the Borel parabolic")
    work, serre = _complete(rep)
    if not serre:
        raise RelationError(_rejected_instances(work))
    return work


# ----- builders ---------------------------------------------------------------


def irreducible(geom: ParabolicGeometry, lam: Weight) -> QuiverRep:
    """The irreducible bundle labeled by a single p-dominant weight."""
    lam = tuple(lam)
    if not geom.is_p_dominant(lam):
        raise ValueError(f"{lam} is not p-dominant")
    return QuiverRep(geom, {lam: 1})


def line_bundle(geom: ParabolicGeometry, coords) -> QuiverRep:
    """Line bundle on the full flag variety, by fundamental coordinates."""
    if not geom.is_borel:
        raise ValueError("line bundles by coordinates are a Borel-case builder")
    return irreducible(geom, tuple(coords))


def direct_sum(*reps: QuiverRep) -> QuiverRep:
    """Direct sum: block-diagonal arrows on the union of the supports."""
    if not reps:
        raise ValueError("empty direct sum")
    geom = reps[0].geometry
    if any(r.geometry != geom for r in reps):
        raise ValueError("direct summands live on different geometries")
    support, offsets = {}, []
    for r in reps:
        offsets.append(dict(support))
        for lam, d in r.support.items():
            support[lam] = support.get(lam, 0) + d
    arrows = {}
    keys = sorted({k for r in reps for k in r.arrows})
    for src, root in keys:
        tgt = _sub(src, root.fund)
        blocks = [
            (r.arrows[(src, root)], off) for r, off in zip(reps, offsets)
            if (src, root) in r.arrows
        ]
        # The integer rows of each block, brought over the lcm of the
        # blocks' denominators.
        den = lcm(*(mat.den for mat, _ in blocks))
        num = [[0] * support[src] for _ in range(support[tgt])]
        for mat, off in blocks:
            f = den // mat.den
            ro, co = off.get(tgt, 0), off.get(src, 0)
            for i, row in enumerate(mat.num):
                num[ro + i][co : co + mat.cols] = [f * x for x in row]
        arrows[(src, root)] = Matrix._reduced(num, den, support[tgt], support[src])
    return QuiverRep(geom, support, arrows)


def _adjoint(geom: ParabolicGeometry, sign: int) -> QuiverRep:
    """Tangent (sign 1) or cotangent (sign -1) bundle of the full flag variety.

    Graded pieces are the line bundles at the roots r = sign * beta for
    beta positive; the generating arrow from r along a simple gamma is the
    adjoint-action bracket N(-gamma, r), present where r - gamma is again
    such a root.
    """
    if not geom.is_borel:
        name = "tangent" if sign > 0 else "cotangent"
        raise ValueError(f"{name} builder requires the Borel parabolic")
    rs = geom.root_system
    roots = [beta if sign > 0 else -beta for beta in rs.positive_roots]
    support = {r.fund: 1 for r in roots}
    arrows = {}
    for r in roots:
        for gamma in rs.positive_roots[: rs.rank]:
            if _sub(r.fund, gamma.fund) in support:
                arrows[(r.fund, gamma)] = Matrix([[rs.chevalley(-gamma, r)]])
    return solve_derived_arrows(QuiverRep(geom, support, arrows))


def tangent(geom: ParabolicGeometry) -> QuiverRep:
    """Tangent bundle of the full flag variety (Borel only)."""
    return _adjoint(geom, 1)


def cotangent(geom: ParabolicGeometry) -> QuiverRep:
    """Cotangent bundle of the full flag variety (Borel only)."""
    return _adjoint(geom, -1)


# ----- sub- and quotient representations ---------------------------------------


def _closure(rep: QuiverRep, seeds, forward: bool, what: str) -> tuple:
    """The closed spaces, their support and the induced arrow maps of
    ``subrep_generated`` (forward) or ``colon_quotient`` (backward).

    A space is an rref row basis (``linalg.row_basis``), or None: the full
    space, held without rows.  It starts full at the seeds going forward
    and at the other vertices going backward, zero elsewhere.  Forward, an
    arrow A: src -> tgt stacks S_src @ A^T onto S_tgt, keys in decreasing
    source height; backward it stacks F_tgt @ A onto F_src, keys in
    increasing source height.  An arrow lam -> lam - beta lowers the
    height (lam, rho) by gram_scale * ht(beta) > 0, so every arrow into a
    vertex starts higher than every arrow out of it: a space is final
    before a step reads it, and each push is computed once.

    The induced map of a step into b is the Y with Y @ spaces[b] ==
    pushed: the pivot columns of the pushed rows, as an rref basis is the
    identity there, or the pushed rows for a full space.  The product is
    checked for a proper subspace: spaces the arrows do not preserve raise
    AssertionError(what).  Steps from a zero space induce zero maps and
    are left out.
    """
    seeds = {tuple(s) for s in seeds}
    if not seeds <= set(rep.support):
        raise ValueError("seed vertices must lie in the support")
    rs = rep.geometry.root_system
    rho_row = [sum(row) for row in rs.gram]  # gram @ rho, as rho = (1, ..., 1)
    keys = sorted(
        rep.arrows, key=lambda key: sum(map(operator.mul, key[0], rho_row)), reverse=forward
    )
    spaces = {
        lam: None if (lam in seeds) == forward else Matrix.zeros(0, d)
        for lam, d in rep.support.items()
    }
    pivots = {}
    pushes = []
    for key in keys:
        src, tgt = key[0], _sub(key[0], key[1].fund)
        a, b = (src, tgt) if forward else (tgt, src)
        space = spaces[a]
        if space is not None and not space.rows:
            continue
        mat = rep.arrows[key].transpose() if forward else rep.arrows[key]
        pushed = mat if space is None else space @ mat
        if spaces[b] is not None:
            spaces[b], pivots[b] = row_basis(spaces[b].vstack(pushed))
            if spaces[b].rows == spaces[b].cols:
                spaces[b] = None
        pushes.append((key, b, pushed))

    induced = {}
    for key, b, pushed in pushes:
        if spaces[b] is not None:
            y = pushed.pick_columns(pivots[b])
            if y @ spaces[b] != pushed:
                raise AssertionError(what)
            pushed = y
        induced[key] = pushed
    support = {lam: d if spaces[lam] is None else spaces[lam].rows
               for lam, d in rep.support.items()}
    return spaces, {lam: d for lam, d in support.items() if d}, induced


def subrep_generated(rep: QuiverRep, seeds) -> QuiverRep:
    """Smallest subrepresentation containing the full spaces at the seeds.

    The span S at each vertex is the forward closure of the full seed
    spaces.  The restricted arrow X solves S_tgt^T @ X = A @ S_src^T, so it
    is Y^T for the induced Y of ``_closure``; zero-sized ones are dropped.
    """
    _, support, sub = _closure(rep, seeds, True, "generated spans are not arrow-invariant")
    return QuiverRep(rep.geometry, support, {k: y.transpose() for k, y in sub.items()})


def colon_quotient(rep: QuiverRep, seeds) -> QuiverRep:
    """Quotient by the largest subrepresentation K whose every path image
    stays inside the seed spaces.

    K is held by its annihilators F, the backward closure from 0 at the
    seeds and everything elsewhere: the annihilator of the preimage of
    K_tgt under A is spanned by F_tgt @ A, and that of an intersection is
    the sum.  F is the projection onto the quotient, and the quotient
    arrow is the X with X @ F_src = F_tgt @ A, the induced Y of
    ``_closure``.
    """
    _, support, quo = _closure(rep, seeds, False, "colon kernel is not arrow-invariant")
    return QuiverRep(rep.geometry, support, quo)


# ----- A_m-type support and Gabriel decomposition -------------------------------


class AmPath(NamedTuple):
    """Support along a single arrow direction, gaps allowed.

    ``vertices`` is the full chain from the top vertex down to the lowest
    supported one in steps of ``direction``; unsupported chain vertices
    have dimension zero.  A single-vertex support has direction None.
    """

    direction: Root | None
    vertices: tuple


class GabrielDecomposition(NamedTuple):
    """Interval decomposition of an A_m-type representation."""

    path: AmPath
    intervals: tuple  # ((start, end), multiplicity), 0-based inclusive positions


def is_am_type(rep: QuiverRep):
    """The chain structure of the support, or None if it is not a chain.

    For a nilradical root beta, p(v) = (v, beta) drops by (beta, beta) = 2
    per step down a beta-chain, so a vertex on the chain from the top sits
    (p(top) - p(v)) / 2 steps below it.
    """
    verts = sorted(rep.support)
    if not verts:
        return None
    if len(verts) == 1:
        return AmPath(None, (verts[0],))
    for beta in rep.geometry.nilradical_roots:
        p = {v: sum(map(operator.mul, v, beta.simple)) for v in verts}
        top = max(verts, key=p.get)
        chain = tuple(
            tuple(a - q * b for a, b in zip(top, beta.fund))
            for q in range((p[top] - min(p.values())) // 2 + 1)
        )
        if all(v == chain[(p[top] - p[v]) // 2] for v in verts):
            return AmPath(beta, chain)
    return None


def gabriel_decompose(rep: QuiverRep) -> GabrielDecomposition:
    """Interval multiplicities of an A_m-type representation.

    Computed by exact rank bookkeeping: the multiplicity of interval
    [i..j] is r(i,j) - r(i-1,j) - r(i,j+1) + r(i-1,j+1) where r is the
    rank of the composed map between chain positions.
    """
    path = is_am_type(rep)
    if path is None:
        raise ValueError("support is not of A_m type")
    return _gabriel_along(rep, path)


def _gabriel_along(rep: QuiverRep, path: AmPath) -> GabrielDecomposition:
    """``gabriel_decompose`` on a support whose chain ``is_am_type`` found."""
    chain = path.vertices
    m = len(chain)
    dims = [rep.dim(v) for v in chain]

    # r[i][j] is the rank of the map from chain position i to j, from one
    # running product per i that stops at the first absent arrow (every
    # longer map through it is zero); rows are filled from the bottom, so
    # each rank is checked against the ranks of its two factors.  Row and
    # column m stay 0 for positions -1, m.
    r = [[0] * (m + 1) for _ in range(m + 1)]
    for i in reversed(range(m)):
        r[i][i] = dims[i]
        mat = None
        for j in range(i + 1, m):
            step = rep.arrows.get((chain[j - 1], path.direction))
            if step is None:
                break
            mat = step if mat is None else step @ mat
            r[i][j] = k = mat.rank()
            if mat.is_zero() == (k > 0) or k > min(r[i][j - 1], r[j - 1][j]):
                raise AssertionError("Gabriel rank disagrees with its factors")

    intervals = []
    for i in range(m):
        for j in range(i, m):
            mult = r[i][j] - r[i - 1][j] - r[i][j + 1] + r[i - 1][j + 1]
            if mult < 0:
                raise AssertionError("negative Gabriel multiplicity")
            if mult:
                intervals.append(((i, j), mult))
    return GabrielDecomposition(path, tuple(intervals))
