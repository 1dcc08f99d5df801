"""Independent cross-check implementations used by the test suite.

Nothing here imports the library's cohomology or solver internals beyond
the plain data model; each oracle recomputes its answer from first
principles so that agreement is meaningful.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from homquiver import (
    QuiverRep,
    RelationInstance,
    arrows_from,
    build_geometry,
    direct_sum,
    irreducible,
)
from homquiver.linalg import Matrix
from homquiver.rootsystem import Root


# ----- Helpers used only by the tests -------------------------------------


def path_matrix(rep, src, roots):
    """Composition of the arrows of rep from src in the given root order,
    shape-exact: the identity for no roots, the zero map across an absent
    arrow."""
    cur = tuple(src)
    mat = Matrix.identity(rep.dim(cur))
    for root in roots:
        mat = arrow_or_zero(rep, cur, root) @ mat
        cur = tuple(a - b for a, b in zip(cur, root.fund))
    return mat


def arrow_or_zero(rep, src, root):
    """The arrow matrix of rep from src in direction root; the zero map
    when the arrow is absent."""
    src = tuple(src)
    mat = rep.arrows.get((src, root))
    if mat is None:
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        return Matrix.zeros(rep.dim(tgt), rep.dim(src))
    return mat


def transpose(mat):
    data = mat.data
    return Matrix(
        [[data[i][j] for i in range(mat.rows)] for j in range(mat.cols)],
        mat.cols,
        mat.rows,
    )


def root_inner(rs, x, y):
    """Killing-normalized product (x, y) of a weight or root with a root.

    For ADE this equals the coroot pairing <x, y^v>; with x given in
    fundamental coordinates it is a plain coordinate contraction.
    """
    xf = x.fund if isinstance(x, Root) else tuple(x)
    if len(xf) != rs.rank:
        raise ValueError("rank mismatch")
    return sum(a * b for a, b in zip(xf, y.simple))


def reflect(rs, lam, alpha):
    """Reflection of the weight lam in the hyperplane orthogonal to the root alpha."""
    c = root_inner(rs, lam, alpha)
    return tuple(x - c * a for x, a in zip(lam, alpha.fund))


def sl2_h0_oracle(rep):
    """Global sections of a quiver representation on the projective line.

    dim H0 = sum over m >= 0 of (m + 1) * dim Hom_b(N_m, rep), where N_m
    is the irreducible chain with vertices m, m-2, ..., -m and identity
    arrows.  The Hom space is computed by brute-force linear solve for a
    weight-preserving chain map phi commuting with the single arrow.
    """
    geom = rep.geometry
    assert geom.root_system.rank == 1 and geom.is_borel
    alpha = geom.root_system.simple_root(1)
    if not rep.support:
        return 0
    top = max(w[0] for w in rep.support)
    total = 0
    for m in range(0, max(top, 0) + 1):
        chain = [(m - 2 * k,) for k in range(m + 1)]
        total += (m + 1) * _hom_from_chain(rep, chain, alpha)
    return total


def _hom_from_chain(rep, chain, alpha):
    # unknowns: one column vector per chain vertex present in rep.support
    dims = [rep.support.get(v, 0) for v in chain]
    offsets = []
    n = 0
    for d in dims:
        offsets.append(n)
        n += d
    if n == 0:
        return 0
    rows = []
    # commuting condition at each chain edge: phi_{k+1} = M_k phi_k where
    # M_k is rep's arrow and the chain arrow is the identity
    for k in range(len(chain) - 1):
        src, tgt = chain[k], chain[k + 1]
        mat = arrow_or_zero(rep, src, alpha)
        data = mat.data
        dsrc, dtgt = dims[k], dims[k + 1]
        for i in range(mat.rows):
            row = [Fraction(0)] * n
            for j in range(dsrc):
                row[offsets[k] + j] = data[i][j]
            if i < dtgt:
                row[offsets[k + 1] + i] -= 1
            rows.append(row)
    # below the chain bottom the chain module is zero, so the arrow out
    # of the bottom vertex must annihilate the image of phi there
    bottom = chain[-1]
    mat = arrow_or_zero(rep, bottom, alpha)
    data = mat.data
    k = len(chain) - 1
    for i in range(mat.rows):
        row = [Fraction(0)] * n
        for j in range(dims[k]):
            row[offsets[k] + j] = data[i][j]
        rows.append(row)
    if not rows:
        return n
    system = Matrix(rows, len(rows), n)
    return system.nullity()


def _chain_step(diff, fund):
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


def am_chain_oracle(rep):
    """``(direction.simple, vertices)`` of the chain carrying the support,
    ``(None, (v,))`` for a single vertex v, or None when there is none.

    Each vertex's step below the top is solved coordinate by coordinate
    from top - v == q * beta.fund, for each nilradical root beta in order.
    """
    verts = sorted(rep.support)
    if not verts:
        return None
    if len(verts) == 1:
        return None, (verts[0],)
    for beta in rep.geometry.nilradical_roots:
        top = max(verts, key=lambda v: sum(x * y for x, y in zip(v, beta.simple)))
        steps = {}
        for v in verts:
            q = _chain_step(tuple(a - b for a, b in zip(top, v)), beta.fund)
            if q is None:
                break
            steps[q] = v
        else:
            chain = tuple(
                tuple(a - p * b for a, b in zip(top, beta.fund))
                for p in range(max(steps) + 1)
            )
            return beta.simple, chain
    return None


def random_invertible(rng, n):
    while True:
        m = Matrix(
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)], n, n
        )
        if m.rank() == n:
            return m


def random_consistent_rep(geom, rng, max_terms=3):
    """A random relation-consistent representation with scrambled bases.

    Built as a direct sum of irreducibles and two-vertex chains along a
    single simple direction (any single-arrow representation satisfies
    the relations vacuously), then conjugated vertexwise by random
    invertible rational matrices.
    """
    rank = geom.root_system.rank
    summands = []
    for _ in range(rng.randint(1, max_terms)):
        lam = tuple(rng.randint(0, 2) for _ in range(rank))
        if rng.random() < 0.5:
            summands.append(irreducible(geom, lam))
        else:
            i = rng.randint(1, rank)
            alpha = geom.root_system.simple_root(i)
            mu = tuple(a - b for a, b in zip(lam, alpha.fund))
            if not geom.is_p_dominant(mu):
                summands.append(irreducible(geom, lam))
                continue
            summands.append(
                QuiverRep(
                    geom,
                    {lam: 1, mu: 1},
                    {(lam, alpha): Matrix([[rng.randint(1, 4)]])},
                )
            )
    rep = direct_sum(*summands)
    return conjugate(rep, {lam: random_invertible(rng, d) for lam, d in rep.support.items()})


def conjugate(rep, change):
    """Change of basis at every vertex: arrow -> P_tgt^{-1} M P_src."""
    from homquiver.linalg import solve_in_basis

    arrows = {}
    for (src, root), mat in rep.arrows.items():
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        arrows[(src, root)] = solve_in_basis(change[tgt], mat @ change[src])
    return QuiverRep(rep.geometry, dict(rep.support), arrows)


# ----- Fraction span helpers and the old closures -----------------------------
#
# A span is a list of Fraction tuples.  The library closes spans in one pass
# ordered by vertex height and keeps them as integer rref rows (colon kernels
# by their annihilators); these iterate over the arrows in dictionary order
# until nothing changes, keep kernel bases, and restrict and quotient by
# solving in a basis.


def from_columns(columns, rows):
    """The rows x len(columns) matrix with the given columns."""
    cols = len(columns)
    return Matrix([[columns[j][i] for j in range(cols)] for i in range(rows)], rows, cols)


def columns(mat):
    """The columns of mat, as tuples of Fractions."""
    return list(transpose(mat).data)


def row_space_basis(vectors, length):
    """Canonical (rref) basis of the span of the given vectors."""
    vecs = list(vectors)
    if not vecs:
        return []
    red, pivots = Matrix(vecs, len(vecs), length).rref()
    return list(red.data[: len(pivots)])


def span_intersection(basis_a, basis_b, length):
    """Basis of the intersection of two spans of vectors of given length."""
    a = [tuple(v) for v in basis_a]
    b = [tuple(v) for v in basis_b]
    if not a or not b:
        return []
    # Solve sum x_i a_i = sum y_j b_j: kernel of [A | -B] on columns; the
    # x-parts of the kernel vectors, times A, span the intersection.
    cols = [list(v) for v in a] + [[-x for x in v] for v in b]
    kernel = from_columns(cols, length).nullspace()
    x = Matrix([k[: len(a)] for k in kernel], len(kernel), len(a))
    return row_space_basis((x @ Matrix(a, len(a), length)).data, length)


def preimage_basis(mat, target_basis):
    """Basis of {v : mat @ v lies in span(target_basis)}."""
    if mat.cols == 0:
        return []
    if not target_basis:
        return mat.nullspace()
    # Functionals vanishing on the target span, as rows.
    t = Matrix([list(v) for v in target_basis], len(target_basis), mat.rows)
    functionals = t.nullspace()  # vectors f with t @ f = 0, i.e. f _|_ rows of t
    if not functionals:
        return columns(Matrix.identity(mat.cols))
    c = Matrix(functionals, len(functionals), mat.rows)
    return (c @ mat).nullspace()


def span_closure_oracle(rep, seeds):
    """Bases of the subrepresentation generated by the full seed spaces."""
    spans = _full_seed_spans(rep, seeds)
    changed = True
    while changed:
        changed = False
        for (src, root), mat in rep.arrows.items():
            tgt = tuple(a - b for a, b in zip(src, root.fund))
            if not spans[src]:
                continue
            images = columns(mat @ from_columns(spans[src], mat.cols))
            new = row_space_basis(spans[tgt] + images, rep.support[tgt])
            changed |= len(new) != len(spans[tgt])
            spans[tgt] = new
    return spans


def colon_kernel_oracle(rep, seeds):
    """Bases of the largest subrepresentation whose every path image stays
    inside the full seed spaces."""
    spans = _full_seed_spans(rep, seeds)
    changed = True
    while changed:
        changed = False
        for (src, root), mat in rep.arrows.items():
            tgt = tuple(a - b for a, b in zip(src, root.fund))
            if not spans[src]:
                continue
            pre = preimage_basis(mat, spans[tgt])
            new = span_intersection(spans[src], pre, rep.support[src])
            if len(new) != len(spans[src]):
                spans[src] = new
                changed = True
    return spans


def _full_seed_spans(rep, seeds):
    seeds = {tuple(s) for s in seeds}
    return {
        lam: columns(Matrix.identity(d)) if lam in seeds else []
        for lam, d in rep.support.items()
    }


def restrict_oracle(rep, spans):
    """Subrepresentation on arrow-invariant subspaces given by bases, each
    arrow solved in the target basis."""
    from homquiver.linalg import solve_in_basis

    support = {lam: len(b) for lam, b in spans.items() if b}
    bases = {lam: from_columns(spans[lam], rep.support[lam]) for lam in support}
    arrows = {}
    for (src, root), mat in rep.arrows.items():
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        if src not in support or tgt not in support:
            continue
        arrows[(src, root)] = solve_in_basis(bases[tgt], mat @ bases[src])
    return QuiverRep(rep.geometry, support, arrows)


def quotient_oracle(rep, spans):
    """Quotient by arrow-invariant subspaces given by bases: each kernel
    basis is extended by the standard vectors at the pivot columns of
    [kernel | I] past the kernel block, and the inverse of the extended
    basis gives the quotient coordinates."""
    from homquiver.linalg import solve_in_basis

    support = {}
    proj = {}
    sect = {}
    for lam, d in rep.support.items():
        cols = spans[lam]
        k = len(cols)
        if k == d:
            continue
        support[lam] = d - k
        eye = columns(Matrix.identity(d))
        pivots = from_columns(cols + eye, d).rref()[1]
        chosen = [eye[p - k] for p in pivots[k:]]
        inv = solve_in_basis(from_columns(cols + chosen, d), Matrix.identity(d))
        # Rows of inv past the kernel block give quotient coordinates.
        proj[lam] = Matrix(inv.data[k:], d - k, d)
        sect[lam] = from_columns(chosen, d)
    arrows = {}
    for (src, root), mat in rep.arrows.items():
        tgt = tuple(a - b for a, b in zip(src, root.fund))
        if src not in support or tgt not in support:
            continue
        image = proj[tgt] @ mat
        if spans[src]:
            assert (image @ from_columns(spans[src], mat.cols)).is_zero()
        arrows[(src, root)] = image @ sect[src]
    return QuiverRep(rep.geometry, support, arrows)


def brute_force_h0_multiplicity(rep, lam):
    """Multiplicity of the irreducible V_lam in H0, recomputed naively.

    Only used on Borel geometries; stacks every pairing matrix at lam
    afresh using explicitly multiplied arrow chains.
    """
    geom = rep.geometry
    rs = geom.root_system
    if any(c < 0 for c in lam):
        return 0
    d = rep.support.get(lam, 0)
    if d == 0:
        return 0
    rows = []
    for j in range(1, rs.rank + 1):
        alpha = rs.simple_root(j)
        k = lam[j - 1] + 1
        mu = tuple(a - k * b for a, b in zip(lam, alpha.fund))
        if mu not in rep.support:
            continue
        mat = Matrix.identity(d)
        cur = lam
        ok = True
        for _ in range(k):
            step = arrow_or_zero(rep, cur, alpha)
            mat = step @ mat
            cur = tuple(a - b for a, b in zip(cur, alpha.fund))
        rows.extend(mat.data)
        width = d
    if not rows:
        return d
    return Matrix(rows, len(rows), d).nullity()


# ----- References for the root data -----------------------------------------
#
# The library derives each root's fundamental coordinates by adding a
# simple root's Cartan row, inverts the Cartan matrix with its one
# elimination kernel, reads the signs off the Dynkin edges, takes the
# nilradical as the roots outside the Levi sub-system and the generating
# roots off the grading; these recompute the same data the direct way.


def invert_oracle(mat):
    """Inverse of an integer matrix by Gauss-Jordan over the Fractions."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def fund_oracle(rs, simple):
    """Fundamental coordinates of a root, as the product C . simple."""
    return tuple(
        sum(rs.cartan_matrix[i][j] * simple[j] for j in range(rs.rank))
        for i in range(rs.rank)
    )


def asymmetry_oracle(rs, a, b):
    """The asymmetry function eps(a, b) on simple coordinates, flipping the
    sign once for each pair (i, j) with a_i b_j odd and either i = j or
    i < j with an odd Cartan entry."""
    sign = 1
    for i, ai in enumerate(a.simple):
        for j, bj in enumerate(b.simple):
            if (ai * bj) % 2 and (i == j or (i < j and rs.cartan_matrix[i][j] % 2)):
                sign = -sign
    return sign


def nilradical_oracle(geom):
    """Positive roots with a positive simple coordinate off the Levi subset."""
    return tuple(
        r for r in geom.root_system.positive_roots
        if any(c > 0 for i, c in enumerate(r.simple) if i + 1 not in geom.levi)
    )


def generating_roots_oracle(geom):
    """Nilradical roots that are no sum of two nilradical roots, by a scan
    over all pairs."""
    nilradical = geom.nilradical_roots
    nil_simple = {r.simple for r in nilradical}
    return tuple(
        r for r in nilradical
        if not any(
            tuple(a - b for a, b in zip(r.simple, s.simple)) in nil_simple
            for s in nilradical
            if s.height < r.height
        )
    )


# ----- Fraction references for the integer combinatorial core --------------
#
# These are the straightforward rational-arithmetic versions of the
# library's root lookup, invariant form, Freudenthal recursion, arrow
# multiplicity and quiver window; the library's integer versions must
# agree with them exactly.


def root_from_fund_oracle(rs, fund):
    """The Root with fundamental coordinates ``fund``, or None, through a
    Fraction product with the inverse Cartan matrix."""
    simple = tuple(
        sum(rs.cartan_inverse[i][j] * fund[j] for j in range(rs.rank))
        for i in range(rs.rank)
    )
    if any(c.denominator != 1 for c in simple):
        return None
    return rs.root(tuple(int(c) for c in simple))


def weight_inner_oracle(rs, x, y):
    """(x, y) for two weights in fundamental coordinates, as a Fraction."""
    acc = Fraction(0)
    for i in range(rs.rank):
        for j in range(rs.rank):
            acc += x[i] * rs.cartan_inverse[i][j] * y[j]
    return acc


def freudenthal_oracle(geom, lam):
    """Freudenthal recursion with Fraction norms, scanning every alpha-string
    up to the level of lam."""
    from homquiver.bott import sub_positive_roots

    rs = geom.root_system
    rho_l = geom.rho_levi
    pos_l = sub_positive_roots(rs, frozenset(geom.levi))
    lam_shift = tuple(a + b for a, b in zip(lam, rho_l))
    top_norm = weight_inner_oracle(rs, lam_shift, lam_shift)
    mult = {lam: 1}
    level = [lam]
    depth = 0
    while level:
        depth += 1
        candidates = {
            tuple(a - b for a, b in zip(mu, rs.simple_root(i).fund))
            for mu in level for i in geom.levi
        }
        nxt = []
        for mu in sorted(candidates):
            if mu in mult:
                continue
            num = Fraction(0)
            for alpha in pos_l:
                for k in range(1, depth // alpha.height + 1):
                    up = tuple(a + k * b for a, b in zip(mu, alpha.fund))
                    if up in mult:
                        num += mult[up] * root_inner(rs, up, alpha)
            mu_shift = tuple(a + b for a, b in zip(mu, rho_l))
            den = top_norm - weight_inner_oracle(rs, mu_shift, mu_shift)
            if den <= 0:
                assert num == 0
                continue
            m = 2 * num / den
            assert m.denominator == 1 and m >= 0, (mu, m)
            if m > 0:
                mult[mu] = int(m)
                nxt.append(mu)
        level = nxt
    return tuple(sorted(mult.items()))


def _levi_dot_dominant(geom, kappa):
    """(sign, dominant weight) of kappa under the Levi Weyl group, or None
    when kappa lies on a wall; reflects until no Levi coordinate is negative."""
    rs = geom.root_system
    w = tuple(kappa)
    sign = 1
    while True:
        i = next((i for i in geom.levi if w[i - 1] < 0), None)
        if i is None:
            break
        w = rs.simple_reflect(w, i)
        sign = -sign
    if any(w[i - 1] == 0 for i in geom.levi):
        return None
    return sign, w


@lru_cache(maxsize=None)
def nilradical_components(geom):
    """Partition of the nilradical roots into Levi-irreducible components.

    Returns a tuple of (highest weight, roots) pairs; each component's
    highest weight is its unique root maximal under adding Levi simple roots.
    """
    rs = geom.root_system
    roots = list(geom.nilradical_roots)
    index = {r.simple: i for i, r in enumerate(roots)}
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, r in enumerate(roots):
        for li in geom.levi:
            up = tuple(a + b for a, b in zip(r.simple, rs.simple_root(li).simple))
            j = index.get(up)
            if j is not None:
                parent[find(i)] = find(j)

    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault(find(i), []).append(r)

    components = []
    for members in groups.values():
        member_set = {r.simple for r in members}
        highs = [
            r for r in members
            if not any(
                tuple(a + b for a, b in zip(r.simple, rs.simple_root(li).simple))
                in member_set
                for li in geom.levi
            )
        ]
        if len(highs) != 1:
            raise AssertionError("nilradical component has no unique highest root")
        members.sort(key=lambda r: (r.height, r.simple))
        components.append((highs[0].fund, tuple(members)))
    components.sort()
    return tuple(components)


def arrow_multiplicity_oracle(geom, lam, mu):
    """Arrow multiplicity lam -> mu: find beta = lam - mu by the Fraction
    root lookup, scan the nilradical and its components, and decompose
    lam (x) (dual component) by Brauer-Klimyk."""
    if not geom.is_p_dominant(mu):
        return 0
    beta = _root_of_difference(geom.root_system, tuple(a - b for a, b in zip(lam, mu)))
    if beta is None or beta not in geom.nilradical_roots:
        return 0
    index = next(k for k, (_, m) in enumerate(nilradical_components(geom)) if beta in m)
    return _dual_component_tensor(geom, lam, index).get(mu, 0)


@lru_cache(maxsize=None)
def _root_of_difference(rs, diff):
    """``root_from_fund_oracle``, memoized: the differences lam - mu asked
    about are a few multiples of roots."""
    return root_from_fund_oracle(rs, diff)


@lru_cache(maxsize=1024)
def _dual_component_tensor(geom, lam, index):
    """lam (x) (dual of nilradical component ``index``) by Brauer-Klimyk, as
    {weight: multiplicity}; memoized, since every root of the component asks
    for it.  Callers must not mutate."""
    rho_l = geom.rho_levi
    out = {}
    for r in nilradical_components(geom)[index][1]:
        kappa = tuple(a - c + p for a, c, p in zip(lam, r.fund, rho_l))
        res = _levi_dot_dominant(geom, kappa)
        if res is not None:
            label = tuple(a - p for a, p in zip(res[1], rho_l))
            out[label] = out.get(label, 0) + res[0]
    return out


def dominantize_oracle(rs, v, indices=None):
    """The per-root Bott step: None when some positive root of the
    sub-system spanned by ``indices`` (1-based, all when omitted) pairs to
    0 with v, else (length, dominant) from reflecting at the first
    negative coordinate, the length checked against the number of
    positive roots pairing negatively with v.  Each pairing is a full
    contraction with the root's simple coordinates."""
    indices = sorted(set(range(1, rs.rank + 1) if indices is None else indices))
    pos = [r for r in rs.positive_roots
           if all(c == 0 or j + 1 in indices for j, c in enumerate(r.simple))]
    inners = [sum(x * y for x, y in zip(v, r.simple)) for r in pos]
    if 0 in inners:
        return None
    w, length = tuple(v), 0
    while True:
        i = next((i for i in indices if w[i - 1] < 0), None)
        if i is None:
            break
        w = rs.simple_reflect(w, i)
        length += 1
    if length != sum(1 for c in inners if c < 0):
        raise AssertionError("reflection count disagrees with inversion count")
    return length, w


def quiver_window_two_pass(geom, center, radius):
    """The window as two passes over ``arrows_from``: a breadth-first
    search for the vertices, then every vertex's arrows again, kept when
    the target is a vertex."""
    vertices = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for a in arrows_from(geom, v):
                if a.target not in vertices:
                    vertices.add(a.target)
                    nxt.append(a.target)
        frontier = nxt
    order = tuple(sorted(vertices))
    return order, tuple(a for v in order for a in arrows_from(geom, v) if a.target in vertices)


def quiver_window_oracle(geom, center, radius):
    """(vertices, arrows) of the radius window around center, arrows as
    (source, root, target, kind) tuples, from the reference multiplicity."""
    generating = set(geom.generating_roots)

    def arrows(lam):
        out = []
        for beta in geom.nilradical_roots:
            mu = tuple(a - b for a, b in zip(lam, beta.fund))
            if arrow_multiplicity_oracle(geom, lam, mu) == 1:
                kind = "generating" if beta in generating else "derived"
                out.append((lam, beta, mu, kind))
        return out

    vertices = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for _, _, t, _ in arrows(v):
                if t not in vertices:
                    vertices.add(t)
                    nxt.append(t)
        frontier = nxt
    found = [a for v in sorted(vertices) for a in arrows(v) if a[2] in vertices]
    return tuple(sorted(vertices)), tuple(found)


# ----- Pair tables of the Borel relations --------------------------------------


@lru_cache(maxsize=None)
def relation_table(rs):
    """Unordered pairs of distinct positive roots, grouped by their sum.

    Maps the sum beta + gamma, in fundamental coordinates, to ``(delta,
    entries)``: ``delta`` is the Root beta + gamma or None when the sum is
    no root, and ``entries`` lists ``(i, j, beta, gamma, N(-beta, -gamma))``
    with ``i < j`` indices into ``rs.positive_roots``, in increasing (i, j)
    order.  Cached and shared; callers must not mutate it.
    """
    pos = rs.positive_roots
    table = {}
    for i, beta in enumerate(pos):
        for j in range(i + 1, len(pos)):
            gamma = pos[j]
            key = tuple(a + b for a, b in zip(beta.fund, gamma.fund))
            if key not in table:
                total = tuple(a + b for a, b in zip(beta.simple, gamma.simple))
                table[key] = (rs.root(total), [])
            table[key][1].append((i, j, beta, gamma, rs.chevalley(-beta, -gamma)))
    return {key: (delta, tuple(entries)) for key, (delta, entries) in table.items()}


@lru_cache(maxsize=None)
def serre_relations(rs):
    """The Serre relations of n^- on the simple arrows f_i, written out as
    path polynomials of degree two and three.

    A relation is (shift, terms): at a vertex lam whose end lam - shift
    lies in the support, the sum of coef * (composition of the arrows from
    lam along path) over the (coef, path) terms vanishes; paths list roots
    in the order the arrows are applied.  [f_i, f_j] = 0 for non-adjacent
    i < j, and for adjacent i, j (each order) f_i f_i f_j - 2 f_i f_j f_i
    + f_j f_i f_i = 0.
    """
    simple = [rs.simple_root(i + 1) for i in range(rs.rank)]
    out = []
    for i, a in enumerate(simple):
        for j, b in enumerate(simple):
            if i == j:
                continue
            if rs.cartan_matrix[i][j]:
                shift = tuple(2 * x + y for x, y in zip(a.fund, b.fund))
                out.append((shift, ((1, (b, a, a)), (-2, (a, b, a)), (1, (a, a, b)))))
            elif i < j:
                shift = tuple(x + y for x, y in zip(a.fund, b.fund))
                out.append((shift, ((1, (a, b)), (-1, (b, a)))))
    return tuple(out)


def serre_relations_hold(rep):
    """Whether every relation of ``serre_relations`` vanishes at every
    support vertex whose end lies in the support, each path composed by
    ``path_matrix``."""
    for shift, terms in serre_relations(rep.geometry.root_system):
        for lam in rep.support:
            end = tuple(a - b for a, b in zip(lam, shift))
            if end not in rep.support:
                continue
            total = Matrix.zeros(rep.dim(end), rep.dim(lam))
            for coef, path in terms:
                total = total + path_matrix(rep, lam, path).scale(coef)
            if not total.is_zero():
                return False
    return True


def support_relation_instances(geom, support):
    """Relation instances whose source and end both lie in support, from
    the pair table: ``(instance, end, delta)`` with ``end = source - beta
    - gamma`` and ``delta`` the Root beta + gamma (None when the sum is no
    root), by source and then by the (i, j) index of the root pair."""
    table = relation_table(geom.root_system)
    support = set(support)
    for lam in sorted(support):
        found = []
        for mu in support:
            key = tuple(a - b for a, b in zip(lam, mu))
            if key in table:
                delta, entries = table[key]
                found.extend(entry + (mu, delta) for entry in entries)
        found.sort(key=lambda t: t[:2])
        for _, _, beta, gamma, n, end, delta in found:
            yield RelationInstance(lam, beta, gamma, n), end, delta


# ----- Entrywise Fraction reference for linalg.Matrix ------------------------
#
# Matrices here are lists of rows of Fractions with an explicit shape; the
# library stores integer numerators over one common denominator.


def matmul_oracle(a, b, cols):
    """Product of an r x k and a k x cols matrix, entry by entry."""
    return [
        [sum((row[t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def add_oracle(a, b, sign=1):
    """a + sign * b, entry by entry."""
    return [[x + sign * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def scale_oracle(a, c):
    return [[c * x for x in row] for row in a]


def rref_oracle(a, cols):
    """Reduced row echelon form and pivot columns, Gauss-Jordan over the
    Fractions with a division per pivot row."""
    m = [list(row) for row in a]
    pivots = []
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                c = m[i][col]
                m[i] = [x - c * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, tuple(pivots)


def nullspace_oracle(a, cols):
    """Kernel basis read off the rref: one vector per free column f, with
    1 at f and minus the rref entries of column f at the pivots."""
    red, pivots = rref_oracle(a, cols)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis
