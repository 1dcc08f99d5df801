"""Homogeneous bundles as quiver representations.

A representation assigns a multiplicity dimension to finitely many
vertices and a rational matrix to each arrow between supported vertices;
an absent arrow is the zero map.  On the Borel parabolic the commutation
relations with Chevalley coefficients cut out exactly the representations
coming from bundles, and the non-generating ("derived") arrow matrices
are determined by the generating ones: ``solve_derived_arrows`` performs
that completion or reports the violated instances.

Whether the relations hold is decided by Serre's theorem (Humphreys,
*Introduction to Lie Algebras and Representation Theory*, 18.1-18.3):
``relations_hold`` checks the Serre relations on the simple arrows and
one bracket per non-simple arrow.  The simple arrows then define a Lie
algebra map phi from n^-, and by induction on height each given arrow
f_delta = (1/N)[f_beta, f_gamma] is phi(e_-delta), so every bracket
relation holds as it does in n^- (the ``quiver`` module docstring has
the proof sketch).  The gate ``require_valid`` calls
``check_relations(rep, serre=True)``, which decides first and enumerates
every relation instance only to list the violated ones once the decision
fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import ParabolicGeometry, build_geometry
from .linalg import Matrix, row_basis
from .quiver import (
    RelationInstance,
    derived_relations,
    first_decompositions,
    serre_relations,
    support_relation_instances,
)
from .rootsystem import Root, Weight


class RelationError(Exception):
    """Raised when a representation violates the Borel quiver relations."""

    def __init__(self, instances):
        self.instances = tuple(instances)
        super().__init__(f"{len(self.instances)} violated relation instance(s)")


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

    @property
    def rank(self) -> int:
        return sum(self.support.values())

    def arrow(self, src: Weight, root: Root) -> Matrix:
        """Arrow matrix from src in direction root; zero map when absent."""
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        mat = self.arrows.get((tuple(src), root))
        if mat is None:
            return Matrix.zeros(self.dim(tgt), self.dim(src))
        return mat

    def walk(self, src: Weight, roots, end: Weight) -> Matrix:
        """Composition of arrows from src along the roots, ending at end.

        The product starts from the first arrow and is the zero map as
        soon as an arrow is absent; ``roots`` (any iterable) is read no
        further then, so a path leaving the support costs at most one
        step per support vertex.
        """
        mat = None
        cur = src
        for root in roots:
            step = self.arrows.get((cur, root))
            if step is None:
                return Matrix.zeros(self.dim(end), self.dim(src))
            mat = step if mat is None else step @ mat
            cur = tuple(a - b for a, b in zip(cur, root.fund))
        return Matrix.identity(self.dim(src)) if mat is None else mat


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
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        if src not in rep.support:
            errors.append(f"arrow {src} -{root.simple}->: source not in support")
            continue
        if tgt not in rep.support:
            errors.append(f"arrow {src} -{root.simple}->: target {tgt} not in support")
            continue
        # Both ends are p-dominant here, so the arrow exists exactly when
        # root is a nilradical root of this root system.
        if geom.root_system.root(root.simple) != root or not geom.is_nilradical(root):
            errors.append(f"arrow {src} -{root.simple}->: not a nilradical root")
            continue
        if (mat.rows, mat.cols) != (rep.support[tgt], rep.support[src]):
            errors.append(
                f"arrow {src} -{root.simple}->: matrix is {mat.rows}x{mat.cols}, "
                f"expected {rep.support[tgt]}x{rep.support[src]}"
            )
    return errors


def _residual(rep: QuiverRep, inst: RelationInstance, end: Weight,
              delta: Root | None) -> Matrix:
    """Relation residual at an instance; the relation holds iff it is zero.

    With arrows recording the action of the negative-root generators, the
    bracket identity reads: (path gamma then beta) - (path beta then gamma)
    = N(-beta,-gamma) * (direct arrow for delta = beta+gamma), all maps
    from the source to ``end``.
    """
    lam = inst.source
    beta, gamma = inst.beta, inst.gamma
    m_gb = rep.walk(lam, (gamma, beta), end)
    m_bg = rep.walk(lam, (beta, gamma), end)
    res = m_gb - m_bg
    if inst.coefficient:
        res = res - rep.arrow(lam, delta).scale(inst.coefficient)
    return res


def _relations_vanish(rep: QuiverRep, relations) -> bool:
    """Whether each relation vanishes at every support vertex whose end
    lies in the support (relations as in ``quiver.serre_relations``)."""
    for lam in rep.support:
        for shift, terms in relations:
            end = tuple(a - b for a, b in zip(lam, shift))
            if end not in rep.support:
                continue
            total = None
            for coef, path in terms:
                mat = rep.walk(lam, path, end)
                if coef != 1:
                    mat = mat.scale(coef)
                total = mat if total is None else total + mat
            if not total.is_zero():
                return False
    return True


def relations_hold(rep: QuiverRep) -> bool:
    """Whether a structurally valid Borel representation satisfies every
    relation instance: the Serre relations on the simple arrows, and each
    non-simple arrow equal to its bracket on the first decomposition."""
    geom = rep.geometry
    if not geom.is_borel:
        raise ValueError("relations are only known for the Borel parabolic")
    rs = geom.root_system
    return _relations_vanish(rep, serre_relations(rs) + derived_relations(rs))


def check_relations(rep: QuiverRep, serre: bool = False) -> list:
    """Violated relation instances of a Borel representation (empty = ok).

    Every instance whose source and end lie in the support is enumerated.
    With ``serre``, for a structurally valid representation only,
    ``relations_hold`` decides first and the enumeration runs only to list
    the instances of a rejected one; the result is the same.
    """
    geom = rep.geometry
    if not geom.is_borel:
        raise ValueError("relations are only known for the Borel parabolic")
    if serre and relations_hold(rep):
        return []
    violated = []
    for inst, end, delta in support_relation_instances(geom, rep.support):
        if rep.dim(inst.source) == 0 or rep.dim(end) == 0:
            continue  # residual lands in a zero space
        if not _residual(rep, inst, end, delta).is_zero():
            violated.append(inst)
    if serre and not violated:
        raise AssertionError(
            "relations_hold rejects a representation whose every "
            "relation instance holds"
        )
    return violated


def require_valid(rep: QuiverRep) -> None:
    """The validation gate: structural checks, then relations on the Borel.

    Raises ValueError listing the structural errors, or RelationError
    carrying the violated relation instances.  The Serre criterion decides
    the relations; only a rejected representation pays for listing them.
    """
    errors = validate(rep)
    if errors:
        raise ValueError("; ".join(errors))
    if rep.geometry.is_borel:
        violated = check_relations(rep, serre=True)
        if violated:
            raise RelationError(violated)


def solve_derived_arrows(rep: QuiverRep) -> QuiverRep:
    """Complete generating-arrow data to a full Borel representation.

    Derived arrows are computed by increasing root height from the first
    bracket decompositions of their directions, so they satisfy the
    derived relations by construction; afterwards the Serre relations
    are checked, and a RelationError carrying the violated instances is
    raised when no consistent completion exists.  Non-generating arrows
    present in the input are ignored and recomputed.
    """
    geom = rep.geometry
    if not geom.is_borel:
        raise ValueError("solve_derived_arrows needs the Borel parabolic")
    rs = geom.root_system
    simples = set(rs.positive_roots[: rs.rank])
    arrows = {
        key: mat for key, mat in rep.arrows.items() if key[1] in simples
    }
    work = QuiverRep(geom, rep.support, arrows)
    for delta, (beta, gamma, n) in first_decompositions(rs).items():
        for lam in sorted(rep.support):
            tgt = tuple(a - b for a, b in zip(lam, delta.fund))
            if tgt not in rep.support:
                continue
            m_gb = work.walk(lam, (gamma, beta), tgt)
            m_bg = work.walk(lam, (beta, gamma), tgt)
            mat = (m_gb - m_bg).scale(Fraction(1, n))
            if not mat.is_zero():
                work.arrows[(lam, delta)] = mat
    # The Serre check needs well-formed arrows; otherwise the full
    # enumeration reports, as it does for a rejected completion.
    if validate(work) or not _relations_vanish(work, serre_relations(rs)):
        violated = check_relations(work)
        if violated:
            raise RelationError(violated)
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
    support = {}
    for r in reps:
        for lam, d in r.support.items():
            support[lam] = support.get(lam, 0) + d
    offsets = []
    running = {}
    for r in reps:
        offsets.append(dict(running))
        for lam, d in r.support.items():
            running[lam] = running.get(lam, 0) + d
    arrows = {}
    keys = sorted({k for r in reps for k in r.arrows})
    for src, root in keys:
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        block = [[0] * support[src] for _ in range(support[tgt])]
        for r, off in zip(reps, offsets):
            mat = r.arrows.get((src, root))
            if mat is None:
                continue
            ro = off.get(tgt, 0)
            co = off.get(src, 0)
            for i, row in enumerate(mat.data):
                block[ro + i][co : co + mat.cols] = row
        arrows[(src, root)] = Matrix(block, support[tgt], support[src])
    return QuiverRep(geom, support, arrows)


def cotangent(geom: ParabolicGeometry) -> QuiverRep:
    """Cotangent bundle of the full flag variety (Borel only).

    Graded pieces are the line bundles at the negated positive roots; the
    generating arrows are the adjoint-action brackets.
    """
    if not geom.is_borel:
        raise ValueError("cotangent builder requires the Borel parabolic")
    rs = geom.root_system
    support = {tuple(-c for c in beta.fund): 1 for beta in rs.positive_roots}
    arrows = {}
    for beta in rs.positive_roots:
        src = tuple(-c for c in beta.fund)
        for gamma in rs.positive_roots[: rs.rank]:
            total = tuple(a + b for a, b in zip(beta.simple, gamma.simple))
            if rs.is_root(total):
                arrows[(src, gamma)] = Matrix([[rs.chevalley(-gamma, -beta)]])
    return solve_derived_arrows(QuiverRep(geom, support, arrows))


def tangent(geom: ParabolicGeometry) -> QuiverRep:
    """Tangent bundle of the full flag variety (Borel only)."""
    if not geom.is_borel:
        raise ValueError("tangent builder requires the Borel parabolic")
    rs = geom.root_system
    support = {beta.fund: 1 for beta in rs.positive_roots}
    arrows = {}
    for beta in rs.positive_roots:
        for gamma in rs.positive_roots[: rs.rank]:
            diff = tuple(a - b for a, b in zip(beta.simple, gamma.simple))
            if rs.is_root(diff) and rs.root(diff).is_positive:
                arrows[(beta.fund, gamma)] = Matrix([[rs.chevalley(-gamma, beta)]])
    return solve_derived_arrows(QuiverRep(geom, support, arrows))


# ----- sub- and quotient representations ---------------------------------------


def _seed_spaces(rep: QuiverRep, seeds, at_seeds: bool) -> dict:
    """The full space (identity rows) at each vertex that is a seed, or with
    ``at_seeds`` false each vertex that is not one; zero spaces elsewhere."""
    seeds = {tuple(s) for s in seeds}
    if not seeds <= set(rep.support):
        raise ValueError("seed vertices must lie in the support")
    return {
        lam: Matrix.identity(d) if (lam in seeds) == at_seeds else Matrix.zeros(0, d)
        for lam, d in rep.support.items()
    }


def _arrows_by_height(rep: QuiverRep, descending: bool) -> list:
    """The arrows of rep sorted by the height (lam, rho) of their source.

    An arrow lam -> lam - beta has beta positive, so it lowers the height
    by gram_scale * ht(beta) > 0: every arrow into a vertex starts higher
    than every arrow out of it.
    """
    rs = rep.geometry.root_system
    return sorted(
        rep.arrows.items(),
        key=lambda item: rs.scaled_inner(item[0][0], rs.rho),
        reverse=descending,
    )


def _coordinates(basis: Matrix) -> Matrix:
    """The 0/1 rows E picking the pivot entry of each row of an rref basis B.

    B has the identity in its pivot columns, so E @ B^T = I: for v in the
    span of B, E @ v is the coordinate vector of v in B.
    """
    d = basis.cols
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis.num]
    return Matrix([[int(j == p) for j in range(d)] for p in pivots], len(pivots), d)


def _span_dict(rep: QuiverRep, seeds) -> dict:
    """Forward closure of the full seed spaces under arrow images.

    Each span is an rref row basis (``linalg.row_basis``), k x dim: an
    arrow A stacks the images S_src @ A^T onto S_tgt and reduces.
    ``_colon_kernel`` is the same step on annihilators, run backwards.
    One pass over the arrows in decreasing source height suffices: every
    arrow into a source starts higher, so the span at the source is final
    before its images are pushed to the lower target.
    """
    spans = _seed_spaces(rep, seeds, at_seeds=True)
    for (src, root), mat in _arrows_by_height(rep, descending=True):
        if not spans[src].rows:
            continue
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        spans[tgt] = row_basis(spans[tgt].vstack(spans[src] @ mat.transpose()))[0]
    return spans


def _restrict_to_spans(rep: QuiverRep, spans: dict) -> QuiverRep:
    """Subrepresentation on arrow-invariant subspaces given by rref row bases.

    The restricted arrow is the unique X with S_tgt^T @ X = A @ S_src^T,
    the solution in the basis S_tgt: the pivot rows of A @ S_src^T
    (``_coordinates``).  The square is checked, so spans that are not
    invariant raise AssertionError.
    """
    support = {lam: b.rows for lam, b in spans.items() if b.rows}
    coords = {lam: _coordinates(b) for lam, b in spans.items()}
    arrows = {}
    for (src, root), mat in rep.arrows.items():
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        image = mat @ spans[src].transpose()
        sub = coords[tgt] @ image
        if spans[tgt].transpose() @ sub != image:
            raise AssertionError("generated spans are not arrow-invariant")
        arrows[(src, root)] = sub  # zero-sized off the support: dropped
    return QuiverRep(rep.geometry, support, arrows)


def subrep_generated(rep: QuiverRep, seeds) -> QuiverRep:
    """Smallest subrepresentation containing the full spaces at the seeds."""
    return _restrict_to_spans(rep, _span_dict(rep, seeds))


def _colon_kernel(rep: QuiverRep, seeds) -> dict:
    """The largest subrepresentation K whose every path image stays inside
    the full seed spaces, given by its annihilators.

    At each vertex F is the rref row basis of the functionals vanishing on
    K, so K is the kernel of F: 0 at the seeds, I elsewhere to start.  The
    annihilator of the preimage of K_tgt under an arrow A is spanned by
    F_tgt @ A, and that of an intersection is the sum, so cutting K_src
    down stacks F_tgt @ A onto F_src and reduces.  One pass over the
    arrows in increasing source height suffices: every arrow out of a
    target starts lower than the arrow into it, so F at the target is
    final before it is pulled back.
    """
    ann = _seed_spaces(rep, seeds, at_seeds=False)
    for (src, root), mat in _arrows_by_height(rep, descending=False):
        if ann[src].rows == rep.support[src]:
            continue  # K_src is already zero
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        ann[src] = row_basis(ann[src].vstack(ann[tgt] @ mat))[0]
    return ann


def colon_quotient(rep: QuiverRep, seeds) -> QuiverRep:
    """Quotient by the largest subrepresentation whose every path image
    stays inside the seed spaces (``_colon_kernel``)."""
    return _quotient(rep, _colon_kernel(rep, seeds))


def _quotient(rep: QuiverRep, ann: dict) -> QuiverRep:
    """Quotient by arrow-invariant subspaces given by their annihilators.

    The rref annihilator F of K is the projection: v -> F @ v has kernel K,
    and F @ E^T = I for the standard vectors E^T at its pivot columns
    (``_coordinates``).  Column j is a pivot of F exactly when e_j is not
    in K + span(e_i, i < j), so these are the vectors a greedy extension
    of a basis of K picks, and F @ v are the coordinates of v in that
    complement.  The quotient arrow is X = F_tgt @ A @ E_src^T, the pivot
    columns of F_tgt @ A.  It is well defined exactly when
    X @ F_src = F_tgt @ A, which is checked, so the annihilators of a
    non-invariant K raise AssertionError.
    """
    support = {lam: f.rows for lam, f in ann.items() if f.rows}
    sections = {lam: _coordinates(f).transpose() for lam, f in ann.items()}
    arrows = {}
    for (src, root), mat in rep.arrows.items():
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        image = ann[tgt] @ mat
        quo = image @ sections[src]
        if quo @ ann[src] != image:
            raise AssertionError("colon kernel is not arrow-invariant")
        arrows[(src, root)] = quo  # zero-sized off the support: dropped
    return QuiverRep(rep.geometry, support, arrows)


# ----- A_m-type support and Gabriel decomposition -------------------------------


@dataclass(frozen=True)
class AmPath:
    """Support along a single arrow direction, gaps allowed.

    ``vertices`` is the full chain from the top vertex down to the lowest
    supported one in steps of ``direction``; unsupported chain vertices
    have dimension zero.  A single-vertex support has direction None.
    """

    direction: Root | None
    vertices: tuple


@dataclass(frozen=True)
class GabrielDecomposition:
    """Interval decomposition of an A_m-type representation."""

    path: AmPath
    intervals: tuple  # ((start, end), multiplicity), 0-based inclusive positions


def _chain_step(diff: Weight, fund: Weight):
    """The q >= 0 with diff == q * fund, or None when there is none."""
    q = None
    for d, b in zip(diff, fund):
        if b == 0:
            if d != 0:
                return None
            continue
        k, rem = divmod(d, b)
        if rem or k < 0 or (q is not None and k != q):
            return None
        q = k
    return q


def is_am_type(rep: QuiverRep):
    """The chain structure of the support, or None if it is not a chain."""
    verts = sorted(rep.support)
    if not verts:
        return None
    if len(verts) == 1:
        return AmPath(None, (verts[0],))
    for beta in rep.geometry.nilradical_roots:
        top = max(verts, key=lambda v: sum(x * y for x, y in zip(v, beta.simple)))
        steps = {}
        for v in verts:
            q = _chain_step(tuple(a - b for a, b in zip(top, v)), beta.fund)
            if q is None:
                break
            steps[q] = v
        else:
            m = max(steps)
            chain = tuple(
                tuple(a - p * b for a, b in zip(top, beta.fund))
                for p in range(m + 1)
            )
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

    comp = {}
    for i in range(m):
        mat = Matrix.identity(dims[i])
        comp[(i, i)] = mat
        for j in range(i + 1, m):
            mat = rep.arrow(chain[j - 1], path.direction) @ mat
            comp[(i, j)] = mat

    ranks = {key: mat.rank() for key, mat in comp.items()}

    def r(i, j):
        if i < 0 or j >= m or i > j:
            return 0
        return ranks[(i, j)]

    intervals = []
    for i in range(m):
        for j in range(i, m):
            mult = r(i, j) - r(i - 1, j) - r(i, j + 1) + r(i - 1, j + 1)
            if mult < 0:
                raise AssertionError("negative Gabriel multiplicity")
            if mult:
                intervals.append(((i, j), mult))
    # The interval indicators must add up to the dimension vector.
    for p in range(m):
        total = sum(mult for (i, j), mult in intervals if i <= p <= j)
        if total != dims[p]:
            raise AssertionError("Gabriel multiplicities do not match dimensions")
    return GabrielDecomposition(path, tuple(intervals))
