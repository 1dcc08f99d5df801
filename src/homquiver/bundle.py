"""Homogeneous bundles as quiver representations.

A representation assigns a multiplicity dimension to finitely many
vertices and a rational matrix to each arrow between supported vertices;
an absent arrow is the zero map.  On the Borel parabolic the commutation
relations with Chevalley coefficients (the ``quiver`` module docstring
defines an instance) cut out exactly the representations coming from
bundles, and the non-generating ("derived") arrow matrices are determined
by the generating ones: ``solve_derived_arrows`` performs that completion
or reports the violated instances.

The engine has one relation, the bracket [f_beta, f_gamma] of two arrow
directions at a vertex (``_bracket``).  Whether every instance holds is
decided by Serre's theorem (Humphreys, *Introduction to Lie Algebras and
Representation Theory*, 18.1-18.3): n^- is generated by the e_-alpha_i
subject only to [e_-i, e_-j] = 0 for non-adjacent i, j and
ad(e_-i)^2 e_-j = 0 for adjacent i, j.  Proof sketch: complete the simple
arrows f_i by brackets, f_delta = N[f_beta, f_gamma] by increasing height
for one decomposition delta = beta + gamma, N = N(-beta, -gamma) = +-1.
Then f_(alpha_i+alpha_j) = +-[f_i, f_j] for adjacent i, j, so
ad(f_i)^2 f_j = +-[f_i, f_(alpha_i+alpha_j)], and the Serre relations say
that the brackets [f_i, f_j], i, j non-adjacent, and [f_i,
f_(alpha_i+alpha_j)], i, j adjacent, vanish.  If they do, there is a Lie
algebra map phi from n^- with phi(e_-alpha_i) = f_i, and by induction on
the height of delta, f_delta = N[phi(e_-beta), phi(e_-gamma)] =
phi(e_-delta).  So the completed arrows are the image of n^- under phi,
and every bracket relation holds on them because it holds in n^-.  A
representation whose non-simple arrows are these brackets therefore
satisfies every instance; conversely the Serre relations and these
brackets are consequences of the instances, so the two conditions hold
exactly when every instance does.

``_completion_plan`` fixes that completion once per root system: one
decomposition per non-simple root, its pair ordered by the sign N, and
the Serre pairs.  ``_complete``, also the solver's core, runs it, and
``relations_hold`` accepts when the Serre brackets vanish and the
completion gives back every arrow.  ``check_relations``, the relation
check of the gate ``require_valid``, lists the violated instances, each
a bracket against its direct arrow, only for a rejected representation.
All three visit only the vertices a 2-path leaves: a bracket at lam is
nonzero only there.  A bracket is one integer combination of its two
2-path products (``linalg.int_product``) over the lcm of their
denominators, reduced to a canonical ``Matrix`` once, and only when it
is nonzero.  ``_signed`` alone orders a root pair by its sign, for the
plan and for the one table of decompositions per root system
(``_relation_table``) that the listing reads.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .geometry import ParabolicGeometry, build_geometry
from .linalg import Matrix, int_product, row_basis
from .quiver import RelationInstance
from .rootsystem import Root, RootSystem, Weight


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
    is its negative.

    The two products are combined unreduced, as integer rows over the lcm
    of their denominators, the second one's denominator negated, and the
    one canonical ``Matrix`` is built only for a nonzero bracket.  A
    product of nonzero arrows can be zero, so the integers are tested
    whichever paths exist.
    """
    terms = []
    for sign, first, second in ((1, gamma, beta), (-1, beta, gamma)):
        a = rep.arrows.get((lam, first))
        b = None if a is None else rep.arrows.get((_sub(lam, first.fund), second))
        if b is not None:
            terms.append((int_product(b, a), sign * b.den * a.den, (b.rows, a.cols)))
    if not terms:
        return None
    num, den, shape = terms[0]
    if len(terms) == 2:
        other, den_m, shape_m = terms[1]
        if shape_m != shape:
            raise ValueError("shape mismatch in subtraction")
        common = lcm(den, den_m)  # positive, so the factor fm is negative
        fp, fm = common // den, common // den_m
        num = [[fp * x + fm * y for x, y in zip(r, s)] for r, s in zip(num, other)]
        den = common
    if not any(map(any, num)):
        return None
    return Matrix._reduced(num, den, *shape)  # a negative den negates the rows


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


@lru_cache(maxsize=None)
def _relation_table(rs: RootSystem) -> tuple:
    """(index, decompositions): ``index`` numbers ``positive_roots``, and
    ``decompositions`` holds each root's, filled by ``_decompositions`` as
    they are read.  One per root system; cached, callers must not mutate."""
    return {root: k for k, root in enumerate(rs.positive_roots)}, {}


def _signed(rs: RootSystem, beta: Root, gamma: Root) -> tuple:
    """(N, pair): N = N(-beta, -gamma), and pair the bracket order with
    N = 1, (gamma, beta) when N = -1, so [f_pair] = f_(beta+gamma) when
    the sum is a root (N != 0)."""
    n = rs.chevalley(-beta, -gamma)
    return n, ((gamma, beta) if n < 0 else (beta, gamma))


def _decompositions(rs: RootSystem, table: tuple, delta: Root) -> dict:
    """{(i, j): (N, pair)} over the positive roots beta, gamma at positions
    i < j that sum to delta, in that order, from ``_signed``; beta comes
    before delta by height, so a root delta - beta is positive."""
    index, decompositions = table
    out = decompositions.get(delta)
    if out is None:
        out = decompositions[delta] = {}
        for beta in rs.positive_roots[: index[delta]]:
            gamma = rs.root(_sub(delta.simple, beta.simple))
            if gamma is not None and index[beta] < index[gamma]:
                out[index[beta], index[gamma]] = _signed(rs, beta, gamma)
    return out


@lru_cache(maxsize=None)
def _completion_plan(rs: RootSystem) -> tuple:
    """(steps, serre), the completion of ``_complete``; cached, callers
    must not mutate.

    ``steps``: per non-simple positive root delta, in root order, its first
    decomposition in root-pair order, alpha_(i+1) + gamma for
    ``rs.parent[delta] = (gamma, i)`` (the simple roots come first, as
    alpha_n ... alpha_1), as (delta, beta, gamma) with N(-beta, -gamma) = 1
    (the bracket order of ``_signed``), so that [f_beta, f_gamma] is
    f_delta.  ``serre``: (f_i, f_j) for non-adjacent i < j and (f_i,
    f_(alpha_i+alpha_j)) for adjacent i, j in each order.
    """
    simple = rs.simple_roots
    steps = []
    for delta in rs.positive_roots[rs.rank:]:
        gamma, i = rs.parent[delta]
        _, pair = _signed(rs, simple[i], gamma)
        steps.append((delta, *pair))
    serre = []
    for i, a in enumerate(simple):
        for j, b in enumerate(simple):
            if i == j:
                continue
            if rs.cartan_matrix[i][j]:
                serre.append((a, rs.root(tuple(map(operator.add, a.simple, b.simple)))))
            elif i < j:
                serre.append((a, b))
    return tuple(steps), tuple(serre)


def _complete(rep: QuiverRep) -> tuple:
    """(work, serre): work is rep's simple arrows and, by increasing
    height, each derived arrow f_delta, the bracket of its step in
    ``_completion_plan``, visiting the 2-path sources in sorted order;
    serre is whether every Serre bracket of the plan vanishes on work at
    its 2-path sources.
    """
    rs = rep.geometry.root_system
    steps, serre_pairs = _completion_plan(rs)
    simples = set(rs.simple_roots)
    # rep's parts are canonical already: copied, not built again by __init__
    work = object.__new__(QuiverRep)
    work.geometry, work.support = rep.geometry, dict(rep.support)
    work.arrows = {key: mat for key, mat in rep.arrows.items() if key[1] in simples}
    sources = _group((root, lam) for lam, root in work.arrows)
    for delta, beta, gamma in steps:
        for lam in sorted(_starts(work.arrows, sources, beta, gamma)):
            mat = _bracket(work, lam, beta, gamma)
            if mat is not None:
                work.arrows[(lam, delta)] = mat
                sources.setdefault(delta, []).append(lam)
    serre = all(
        _bracket(work, lam, beta, gamma) is None
        for beta, gamma in serre_pairs
        for lam in _starts(work.arrows, sources, beta, gamma)
    )
    return work, serre


def relations_hold(rep: QuiverRep) -> bool:
    """Whether a structurally valid Borel representation satisfies every
    relation instance: the Serre brackets vanish, and each non-simple arrow
    equals the bracket of its step in ``_completion_plan``.

    Both come from ``_complete(rep)``.  The Serre brackets read only the
    simple arrows and the support, which rep shares with its completion.
    The second part is ``work.arrows == rep.arrows``: by induction on
    height, as ``Matrix`` is canonical and no arrow is zero.
    """
    if not rep.geometry.is_borel:
        raise ValueError("relations are only known for the Borel parabolic")
    work, serre = _complete(rep)
    return serre and work.arrows == rep.arrows


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
    table = _relation_table(rs)
    index = table[0]
    out_roots = _group(rep.arrows)
    violated = []
    for lam in sorted(rep.support):
        pairs = set()
        for first in out_roots.get(lam, ()):
            pairs.update(_decompositions(rs, table, first))
            for second in out_roots.get(_sub(lam, first.fund), ()):
                if second != first:
                    pairs.add(tuple(sorted((index[first], index[second]))))
        for i, j in sorted(pairs):
            beta, gamma = pos[i], pos[j]
            delta = rs.root(tuple(map(operator.add, beta.simple, gamma.simple)))
            if delta is None:
                n, pair = 0, (beta, gamma)
            else:
                n, pair = _decompositions(rs, table, delta)[i, j]
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
    """Direct sum: block-diagonal arrows on the union of the supports.

    An arrow whose one block fills the summed source and target spaces is
    that summand's ``Matrix`` itself: matrices are immutable values."""
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
        mat = blocks[0][0]
        if len(blocks) == 1 and (mat.rows, mat.cols) == (support[tgt], support[src]):
            arrows[(src, root)] = mat
            continue
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
        for gamma in rs.simple_roots:
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
