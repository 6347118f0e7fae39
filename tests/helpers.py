"""Shared constructors for the small algebras, bimodules and maps used
across the suite.  Everything here is deterministic."""

import random
from fractions import Fraction
from itertools import product

import numpy as np

from tensorgp.exactlin import GF, QQ, FieldSpec, Matrix, vec_columns
from tensorgp.algebra import Algebra, LeftModule, ModuleMap, free_hom_basis, free_module
from tensorgp.bimodule import Bimodule, tensor_module, zero_bimodule
from tensorgp.resolution import ResolutionWindow
from tensorgp.search import DEFAULT_BUDGET, BudgetExceeded
from tensorgp.tensor_ring import StarMorphism, TensorRing

F2 = GF(2)
F3 = GF(3)


def ground_algebra(field: FieldSpec) -> Algebra:
    """The field itself as a one-dimensional algebra."""
    return Algebra(field, 1, (((1,),),), (1,))


def dual_numbers(field: FieldSpec) -> Algebra:
    """k[x]/(x^2) with basis (1, x)."""
    consts = [
        [[1, 0], [0, 1]],  # 1*1 = 1, 1*x = x
        [[0, 1], [0, 0]],  # x*1 = x, x*x = 0
    ]
    return Algebra(field, 2, consts, (1, 0))


def cubic_nilpotent(field: FieldSpec) -> Algebra:
    """k[x]/(x^3) with basis (1, x, x^2)."""
    consts = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    return Algebra(field, 3, consts, (1, 0, 0))


def product_fields(field: FieldSpec, s: int) -> Algebra:
    """k x k x ... x k with orthogonal idempotent basis."""
    consts = [[[1 if i == j == k else 0 for k in range(s)] for j in range(s)]
              for i in range(s)]
    return Algebra(field, s, consts, tuple(1 for _ in range(s)))


def simple_over_product(a: Algebra, which: int) -> LeftModule:
    """The one-dimensional simple over k^s on which e_which acts as 1."""
    action = [Matrix.from_rows(a.field, [[1 if i == which else 0]]) for i in range(a.dim)]
    return LeftModule(a, 1, tuple(action))


def x_multiplication(field: FieldSpec) -> ModuleMap:
    """Multiplication by x on the free rank-1 module over k[x]/(x^2)."""
    r = dual_numbers(field)
    fr = free_module(r, 1)
    return ModuleMap(fr, fr, Matrix.from_rows(field, [[0, 0], [1, 0]]))


def corner_bimodule(field: FieldSpec) -> Bimodule:
    """The one-dimensional (e1, e2)-corner bimodule over k x k.

    e1 acts as 1 on the left, e2 as 1 on the right; the tensor ring it
    generates is the algebra of upper triangular 2x2 matrices.
    """
    r = product_fields(field, 2)
    one = Matrix.from_rows(field, [[1]])
    zero = Matrix.zeros(field, 1, 1)
    return Bimodule(r, 1, (one, zero), (zero, one))


def path_bimodule(field: FieldSpec, vertices: int) -> Bimodule:
    """Arrow bimodule of the linear quiver 1 -> 2 -> ... -> s over k^s.

    Arrows act on the left through their target idempotent and on the
    right through their source, so the bimodule is (s-1)-nilpotent with
    all intermediate powers nonzero.
    """
    r = product_fields(field, vertices)
    n = vertices - 1  # arrow a_t goes t -> t+1
    left = []
    right = []
    for v in range(vertices):
        left.append(Matrix.from_rows(field, [[1 if (t == s and t + 1 == v) else 0
                                              for s in range(n)] for t in range(n)])
                    if n else Matrix.zeros(field, 0, 0))
        right.append(Matrix.from_rows(field, [[1 if (t == s and t == v) else 0
                                               for s in range(n)] for t in range(n)])
                     if n else Matrix.zeros(field, 0, 0))
    return Bimodule(r, n, tuple(left), tuple(right))


def augmentation_bimodule(field: FieldSpec) -> Bimodule:
    """One-dimensional bimodule over k[x]/(x^2) with x acting as zero on
    both sides.  Not nilpotent: every tensor power is one-dimensional."""
    r = dual_numbers(field)
    one = Matrix.from_rows(field, [[1]])
    zero = Matrix.zeros(field, 1, 1)
    return Bimodule(r, 1, (one, zero), (one, zero))


def ring_pool(fields=(F2, F3)):
    """Per field: the dual numbers and k x k with the zero bimodule at
    nilpotency 0, the triangular corner ring, the dual numbers at
    nilpotency 1, and the three-vertex path ring."""
    rings = []
    for field in fields:
        r_dual = dual_numbers(field)
        r_prod = product_fields(field, 2)
        rings.append(TensorRing(r_dual, zero_bimodule(r_dual), 0))
        rings.append(TensorRing(r_prod, zero_bimodule(r_prod), 0))
        m = corner_bimodule(field)
        rings.append(TensorRing(m.algebra, m, 1))
        rings.append(TensorRing(r_dual, zero_bimodule(r_dual), 1))
        p = path_bimodule(field, 3)
        rings.append(TensorRing(p.algebra, p, 2))
    return rings


def verdicts_at(report, k):
    """(label, status, witness, note) of each verdict of a report at index
    k, without the index, so reports at different indices compare."""
    return [(v.label, v.status, v.witness, v.note) for v in report.verdicts if v.k == k]


def zero_window(ring, rank=0):
    """The one-periodic window of zero maps between free modules of one
    rank."""
    s = StarMorphism.zero(ring, rank, rank)
    return ResolutionWindow(ring, 0, (rank, rank), (s,), period=1)


# -- the hunter's reference: component lists from slot-basis maps ---------------


def slot_bases(ring, rank_p, rank_q):
    """The ``free_hom_basis`` of each slot Hom(P, F^i(Q))."""
    return [free_hom_basis(ring.algebra, rank_p, ring.model(i, ring.free(rank_q)).result)
            for i in range(ring.nilpotency + 1)]


def reference_star(ring, rank_p, rank_q, coeffs):
    """The component list with the given slot coordinates, each component
    the sum of its slot's basis maps scaled by their coordinates."""
    p = ring.free(rank_p)
    coeffs = iter(coeffs)
    comps = []
    for i, basis in enumerate(slot_bases(ring, rank_p, rank_q)):
        target = ring.model(i, ring.free(rank_q)).result
        acc = Matrix.zeros(ring.algebra.field, target.dim, p.dim)
        for b in basis:
            acc = acc + b.mat.scale(next(coeffs))
        comps.append(ModuleMap(p, target, acc))
    return StarMorphism(ring, rank_p, rank_q, tuple(comps))


def reference_unit_table(ring, rank_p, rank_q):
    """The unit table of a rank pair, one unit candidate at a time: column
    a is vec of the assembled matrix of the slot-basis unit e_a."""
    m = sum(len(b) for b in slot_bases(ring, rank_p, rank_q))
    return vec_columns(ring.algebra.field, 0, [
        ring.assemble_star(reference_star(ring, rank_p, rank_q, [int(a == b) for b in range(m)]))
        for a in range(m)])


def enumerate_star(ring, rank_p, rank_q, budget=DEFAULT_BUDGET):
    """All component lists between the induced frees of the given ranks,
    in lexicographic order of their slot coordinates over a finite field;
    raises ``BudgetExceeded`` with the exact count when it exceeds the
    budget."""
    total = sum(len(s) for s in slot_bases(ring, rank_p, rank_q))
    count = ring.algebra.field.p ** total
    if count > budget:
        raise BudgetExceeded(count, budget)
    for coeffs in product(range(ring.algebra.field.p), repeat=total):
        yield reference_star(ring, rank_p, rank_q, coeffs)


def window_corpus(count=312, fields=(F2, F3), seed=10_000, path_rank=2):
    """Seeded corpus of periodic windows over :func:`ring_pool`:
    nilpotency 0..2, ranks up to 2 (up to ``path_rank`` on the
    nilpotency-2 path ring), periods 1 and 2."""
    from tensorgp.search import random_window

    rings = ring_pool(fields)
    windows = []
    for i in range(count):
        ring = rings[i % len(rings)]
        rng = random.Random(seed + i)
        period = 1 + (i % 2)
        cap = path_rank if ring.nilpotency == 2 else 2
        ranks = tuple(min(rng.randrange(3), cap) for _ in range(period))
        windows.append(random_window(ring, 2 * seed + i, ranks))
    return windows


def random_scalar(field, rng):
    if field.is_prime:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-2, 2))


def random_hom(x, y, rng):
    """Random element of Hom(x, y) as a ModuleMap (zero if Hom is zero)."""
    from tensorgp.algebra import hom_space, ModuleMap

    basis = hom_space(x, y)
    if not basis:
        return ModuleMap.zero(x, y)
    acc = ModuleMap.zero(x, y)
    for b in basis:
        c = random_scalar(x.algebra.field, rng)
        if c:
            acc = acc + ModuleMap.unchecked(x, y, b.mat.scale(c))
    return ModuleMap(x, y, acc.mat)


def random_module(algebra, rng, max_rank=2):
    """Random module: the cokernel of a random map between free modules."""
    from tensorgp.algebra import free_module, quotient_by_columns

    n1 = rng.randrange(max_rank + 1)
    n2 = rng.randrange(1, max_rank + 1)
    f = random_hom(free_module(algebra, n1), free_module(algebra, n2), rng)
    quot, _proj, _sect = quotient_by_columns(f.target, f.mat.image_basis())
    return quot


def full_tensor_pair(a, b):
    """The pair bimodule a (x)_k b: left regular on the first factor,
    right regular on the second."""
    from tensorgp.exactlin import kron
    from tensorgp.special_rings import PairBimodule

    f = a.field
    ia = Matrix.identity(f, a.dim)
    ib = Matrix.identity(f, b.dim)
    left = tuple(kron(a.left_mult[i], ib) for i in range(a.dim))
    right = tuple(kron(ia, b.right_mult[j]) for j in range(b.dim))
    return PairBimodule(a, b, a.dim * b.dim, left, right)


def corner_pair(a, b, pattern, field):
    """Semisimple corner pair bimodule over products of fields.

    ``pattern`` maps (i, j) to a multiplicity: e_i acts as 1 on the left
    and e_j as 1 on the right of that many basis vectors.
    """
    from tensorgp.special_rings import PairBimodule

    atoms = [(i, j) for (i, j), mult in sorted(pattern.items()) for _ in range(mult)]
    dim = len(atoms)
    left = []
    for i in range(a.dim):
        left.append(Matrix.from_rows(field, [[1 if (s == t and atoms[s][0] == i) else 0
                                              for t in range(dim)] for s in range(dim)])
                    if dim else Matrix.zeros(field, 0, 0))
    right = []
    for j in range(b.dim):
        right.append(Matrix.from_rows(field, [[1 if (s == t and atoms[s][1] == j) else 0
                                               for t in range(dim)] for s in range(dim)])
                     if dim else Matrix.zeros(field, 0, 0))
    return PairBimodule(a, b, dim, tuple(left), tuple(right))


def random_morita_data(rng, field):
    """Random context data with vanishing pairings: one-sided instances
    over small algebras plus two-sided semisimple corner instances."""
    from tensorgp.special_rings import MoritaData, PairBimodule

    kind = rng.randrange(3)
    if kind == 0:
        # u = 0, v arbitrary over a small pair of algebras
        a = rng.choice([ground_algebra(field), dual_numbers(field), product_fields(field, 2)])
        b = rng.choice([ground_algebra(field), product_fields(field, 2)])
        v = rng.choice([PairBimodule.zero(a, b), full_tensor_pair(a, b)])
        return MoritaData(a, b, v, PairBimodule.zero(b, a))
    if kind == 1:
        # v = 0, u arbitrary
        a = rng.choice([ground_algebra(field), product_fields(field, 2)])
        b = rng.choice([ground_algebra(field), dual_numbers(field)])
        u = rng.choice([PairBimodule.zero(b, a), full_tensor_pair(b, a)])
        return MoritaData(a, b, PairBimodule.zero(a, b), u)
    # two-sided semisimple corners with disjoint supports on both sides
    a = product_fields(field, 2)
    b = product_fields(field, 2)
    v = corner_pair(a, b, {(0, 0): rng.randrange(2)}, field)
    u = corner_pair(b, a, {(1, 1): rng.randrange(2)}, field)
    return MoritaData(a, b, v, u)


def random_free_map(algebra, rank_src, rank_tgt, rng):
    return random_hom(free_module(algebra, rank_src), free_module(algebra, rank_tgt), rng)


def random_morita_window(d, rng, max_rank=2, period=1):
    """Random periodic quadruple window with equal rank columns."""
    from tensorgp.special_rings import MoritaWindow, block_power_module

    ranks = [rng.randrange(max_rank + 1) for _ in range(period)]
    ranks = ranks + [ranks[0]]
    tau, sigma, beta, gamma = [], [], [], []
    for t in range(period):
        n, n1 = ranks[t], ranks[t + 1]
        tau.append(random_free_map(d.a, n, n1, rng))
        sigma.append(random_free_map(d.b, n, n1, rng))
        beta.append(random_hom(free_module(d.a, n), block_power_module(d.v, n1), rng))
        gamma.append(random_hom(free_module(d.b, n), block_power_module(d.u, n1), rng))
    return MoritaWindow(0, tuple(ranks), tuple(ranks), tuple(tau), tuple(sigma),
                        tuple(beta), tuple(gamma), period=period)


def random_triangular_data(rng, field):
    from tensorgp.special_rings import TriangularData, PairBimodule

    a = rng.choice([ground_algebra(field), dual_numbers(field), product_fields(field, 2)])
    b = rng.choice([ground_algebra(field), product_fields(field, 2)])
    v = rng.choice([PairBimodule.zero(a, b), full_tensor_pair(a, b)])
    return TriangularData(a, b, v)


def random_triangular_window(d, rng, max_rank=2, period=1):
    from tensorgp.special_rings import TriangularWindow, block_power_module

    ranks_p = [rng.randrange(max_rank + 1) for _ in range(period)]
    ranks_p = ranks_p + [ranks_p[0]]
    ranks_q = [rng.randrange(max_rank + 1) for _ in range(period)]
    ranks_q = ranks_q + [ranks_q[0]]
    tau, sigma, beta = [], [], []
    for t in range(period):
        tau.append(random_free_map(d.a, ranks_p[t], ranks_p[t + 1], rng))
        sigma.append(random_free_map(d.b, ranks_q[t], ranks_q[t + 1], rng))
        beta.append(random_hom(free_module(d.a, ranks_p[t]),
                               block_power_module(d.v, ranks_q[t + 1]), rng))
    return TriangularWindow(0, tuple(ranks_p), tuple(ranks_q), tuple(tau), tuple(sigma),
                            tuple(beta), period=period)


def morita_context_algebra(d):
    """Direct structure-constant model of the two-by-two context ring with
    zero pairings, basis ordered (a, b, u, v) to match the coordinate
    bijection onto the trivial extension."""
    f = d.a.field
    da, db, du, dv = d.a.dim, d.b.dim, d.u.dim, d.v.dim
    dim = da + db + du + dv
    off_b, off_u, off_v = da, da + db, da + db + du
    z = f.zero()
    consts = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for off, factor in ((0, d.a), (off_b, d.b)):
        for i, j, k in product(range(factor.dim), repeat=3):
            consts[off + i][off + j][off + k] = factor.consts[i][j][k]
    # a . v and v . b land in v; column c of an action matrix is the image of basis c
    for i, c, k in product(range(da), range(dv), range(dv)):
        consts[i][off_v + c][off_v + k] = d.v.left_action[i][k, c]
    for j, c, k in product(range(db), range(dv), range(dv)):
        consts[off_v + c][off_b + j][off_v + k] = d.v.right_action[j][k, c]
    # b . u and u . a land in u
    for j, c, k in product(range(db), range(du), range(du)):
        consts[off_b + j][off_u + c][off_u + k] = d.u.left_action[j][k, c]
    for i, c, k in product(range(da), range(du), range(du)):
        consts[off_u + c][i][off_u + k] = d.u.right_action[i][k, c]
    unit = list(d.a.unit) + list(d.b.unit) + [z] * (du + dv)
    return Algebra(f, dim, tuple(tuple(tuple(r) for r in plane) for plane in consts),
                   tuple(unit))


# -- references for the matrix-identity builders --------------------------------


def reference_hom_t_system(ring, t1, t2):
    """The system of morphisms of pairs t1 -> t2 built one matrix unit at
    a time: column idx holds the intertwining residues and the structure
    residue e u1 - u2 F(e) of the idx-th unit e in column-major order."""
    from tensorgp.exactlin import hstack, kron, unvec, vec, vstack

    f = ring.algebra.field
    a, b = t2.x.dim, t1.x.dim
    m1 = ring.model(1, t1.x)
    m2 = ring.model(1, t2.x)
    im = Matrix.identity(f, ring.bimodule.dim)
    cols = []
    for idx in range(a * b):
        e = unvec(f, Matrix.basis_column(f, a * b, idx), a, b)
        parts = [vec(e @ t1.x.action[s] - t2.x.action[s] @ e)
                 for s in range(ring.algebra.dim)]
        fe = m2.projection @ kron(im, e) @ m1.section
        parts.append(vec(e @ t1.u - t2.u @ fe))
        cols.append(vstack(parts))
    return hstack(cols)


def _column_matrix(field, rows, cols):
    from tensorgp.exactlin import hstack

    return hstack(cols) if cols else Matrix.zeros(field, rows, 0)


def reference_c3_columns(ring, through):
    """Coordinate and constraint matrices of the slot-basis functional
    tuples f out of the free module of the target rank of ``through``,
    each constraint column composed with star_compose: the stacked
    components of f . through."""
    from tensorgp.algebra import free_hom_basis
    from tensorgp.exactlin import vec, vstack
    from tensorgp.resolution import star_compose
    from tensorgp.tensor_ring import StarMorphism

    rank = through.target_rank
    n = ring.nilpotency
    p = ring.free(rank)
    targets = [ring.model(i, ring.free(1)).result for i in range(n + 1)]
    basis_cols, image_cols = [], []
    for i, target in enumerate(targets):
        for b in free_hom_basis(ring.algebra, rank, target):
            mats = [ModuleMap.zero(p, targets[t]) if t != i else b for t in range(n + 1)]
            composed = star_compose(StarMorphism(ring, rank, 1, tuple(mats)), through)
            basis_cols.append(vstack([vec(m.mat) for m in mats]))
            image_cols.append(vstack([vec(m.mat) for m in composed.components]))
    f = ring.algebra.field
    width = ring.algebra.dim
    return (_column_matrix(f, sum(t.dim for t in targets) * rank * width, basis_cols),
            _column_matrix(f, sum(t.dim for t in targets) * through.source_rank * width,
                           image_cols))


# -- the flat reference for grafts and concatenation -----------------------------


def reference_flat_power(m, i):
    """(flat_proj, flat_sect) of the i-th tensor power: flat_proj maps the
    k-level space V_M^{(x)i}, of dimension (dim M)^i, onto the power's
    model and flat_sect splits it; for i = 0 the k-level space is the
    algebra's own coordinate space."""
    from tensorgp.bimodule import power
    from tensorgp.exactlin import kron

    pw = power(m, i)
    if i <= 1:
        return pw.projection, pw.section
    proj, sect = reference_flat_power(m, i - 1)
    im = Matrix.identity(m.algebra.field, m.dim)
    return pw.projection @ kron(im, proj), kron(im, sect) @ pw.section


def reference_concat_mult(m, a, b):
    """Concatenation p(a) (x)_k p(b) -> p(a+b) for a, b >= 1 through the
    k-level space: flat_proj_{a+b} (flat_sect_a (x) flat_sect_b)."""
    from tensorgp.exactlin import kron

    return reference_flat_power(m, a + b)[0] @ kron(reference_flat_power(m, a)[1],
                                                    reference_flat_power(m, b)[1])


def reference_graft(m, a, b, x):
    """The matrix of the graft F^a(F^b(x)) -> F^{a+b}(x) for a, b >= 1
    through the k-level space: lift both factors by their flat sections,
    concatenate, and project back through flat_proj_{a+b}."""
    from tensorgp.bimodule import iterate_functor
    from tensorgp.exactlin import kron

    fbx = iterate_functor(m, b, x)
    outer = iterate_functor(m, a, fbx.result)
    fabx = iterate_functor(m, a + b, x)
    ix = Matrix.identity(m.algebra.field, x.dim)
    psi_b = kron(reference_flat_power(m, b)[1], ix) @ fbx.section
    phi_ab = fabx.projection @ kron(reference_flat_power(m, a + b)[0], ix)
    return phi_ab @ kron(reference_flat_power(m, a)[1], psi_b) @ outer.section


def nested_model(m, i, x):
    """i literal nested applications of M (x)_R -, the cross-check of the
    functor-power models."""
    cur = x
    for _ in range(i):
        cur = tensor_module(m, cur).result
    return cur


# -- references for the special-ring block builders -----------------------------


def reference_induced_block_map(pb, f):
    """The matrix of V (x) f built entry by entry: block (j, i) is the sum
    over t of the e_t-coordinate of f's entry at (copy j, copy i) times the
    right action of e_t."""
    from tensorgp.exactlin import hstack, kron, vstack

    balg = pb.right_alg
    d = balg.dim
    fld = balg.field
    n_src, n_tgt = f.source.dim // d, f.target.dim // d
    if pb.dim == 0 or n_src == 0 or n_tgt == 0:
        return Matrix.zeros(fld, pb.dim * n_tgt, pb.dim * n_src)
    unit = Matrix.column(fld, balg.unit)
    images = f.mat @ kron(Matrix.identity(fld, n_src), unit)
    rows = []
    for j in range(n_tgt):
        cells = []
        for i in range(n_src):
            block = Matrix.zeros(fld, pb.dim, pb.dim)
            for t in range(d):
                c = images[j * d + t, i]
                if c != fld.zero():
                    block = block + pb.right_action[t].scale(c)
            cells.append(block)
        rows.append(hstack(cells))
    return vstack(rows)


def reference_induced_columns(pb, n):
    """The columns vec(W (x) b) of the free_hom_basis maps b from the
    rank-n free module into the rank-one free module over the right algebra
    of the pair W, one ``induced_block_map`` per basis map."""
    from tensorgp.algebra import free_hom_basis
    from tensorgp.exactlin import vec_columns
    from tensorgp.special_rings import induced_block_map

    balg = pb.right_alg
    return vec_columns(balg.field, 0, [induced_block_map(pb, b) for b in
                                       free_hom_basis(balg, n, free_module(balg, 1))])


def reference_free_hom_basis(a, n, w):
    """The basis of Hom(R^n, w) built one map at a time: the map (copy i,
    basis vector t) has the block whose column s is e_s . w_t in copy i and
    zero blocks elsewhere, two ``hstack`` calls per map."""
    from tensorgp.exactlin import hstack

    src = free_module(a, n)
    zero_block = Matrix.zeros(a.field, w.dim, a.dim)
    basis = []
    for i in range(n):
        for t in range(w.dim):
            blocks = [zero_block] * n
            blocks[i] = hstack([w.action[s].col(t) for s in range(a.dim)])
            basis.append(ModuleMap.unchecked(src, w, hstack(blocks)))
    return basis


def reference_precompose(x, h, cols):
    """The columns vec(b . x) for the columns vec(b) of maps b with h rows,
    through the Kronecker factor: (x^T (x) I_h) vec(b)."""
    from tensorgp.exactlin import kron

    return kron(x.transpose(), Matrix.identity(x.field, h)) @ cols


def reference_block_model_iso(te, d, n):
    """The pinned block model isomorphism of ``special_rings`` built one
    column at a time: each ambient column is a sum of scaled standard
    basis columns, projected onto the model on its own."""
    from tensorgp.exactlin import hstack

    ring = te.ring
    pa = d.product
    fld = pa.algebra.field
    freen = ring.free(n)
    model = ring.model(1, freen)
    ambient_rows = te.m.dim * freen.dim
    cols = []
    for first, count, unit, offset in ((0, d.u.dim, d.a.unit, 0),
                                       (d.u.dim, d.v.dim, d.b.unit, pa.a.dim)):
        for i in range(n):
            for c in range(count):
                col = Matrix.zeros(fld, ambient_rows, 1)
                for t, coeff in enumerate(unit):
                    if coeff != fld.zero():
                        row = (first + c) * freen.dim + i * pa.dim + offset + t
                        col = col + Matrix.basis_column(fld, ambient_rows, row).scale(coeff)
                cols.append(model.projection @ col)
    return hstack(cols) if cols else Matrix.zeros(fld, model.result.dim, 0)


def _padded_columns(fld, slot_shapes, residual_shapes, entries):
    """Basis and image matrices from per-basis-vector entries (slot,
    basis map, residual matrices with None for zero): each basis column is
    the stacked vecs of the slots with zeros padded in the other slots,
    each image column the stacked vecs of the residuals, padded the same
    way."""
    from tensorgp.exactlin import vec, vstack

    def stack(mats, shapes):
        return vstack([vec(m if m is not None else Matrix.zeros(fld, r, c))
                       for m, (r, c) in zip(mats, shapes)])

    basis_cols, image_cols = [], []
    for slot, b, residuals in entries:
        mats = [None] * len(slot_shapes)
        mats[slot] = b
        basis_cols.append(stack(mats, slot_shapes))
        image_cols.append(stack(residuals, residual_shapes))
    return (_column_matrix(fld, sum(r * c for r, c in slot_shapes), basis_cols),
            _column_matrix(fld, sum(r * c for r, c in residual_shapes), image_cols))


def reference_trivext_c3_columns(d, through):
    """The trivial extension C3 system one basis vector at a time, slots
    (f1 into the rank-one free, f2 into its tensor block) out of the target
    rank of ``through``; residuals (f1.a1, (M (x) f1).a2 + f2.a1)."""
    from tensorgp.algebra import free_hom_basis
    from tensorgp.bimodule import tensor_map

    ring = d.ring
    fld = d.r.field
    free1 = ring.free(1)
    fr1 = ring.model(1, free1).result
    rank = through.target_rank
    a1, a2 = through.components
    width, src_width = rank * d.r.dim, through.source_rank * d.r.dim
    entries = []
    for b in free_hom_basis(d.r, rank, free1):
        fb = tensor_map(d.m, b, ring.model(1, ring.free(rank)), ring.model(1, free1))
        entries.append((0, b.mat, [b.mat @ a1.mat, fb.mat @ a2.mat]))
    for b in free_hom_basis(d.r, rank, fr1):
        entries.append((1, b.mat, [None, b.mat @ a1.mat]))
    return _padded_columns(fld, [(d.r.dim, width), (fr1.dim, width)],
                           [(d.r.dim, src_width), (fr1.dim, src_width)], entries)


def reference_morita_c3_columns(d, tau, sigma, beta, gamma, rank_p, rank_q):
    """The context ring C3 system one basis vector at a time, slots
    (f1, f2, u1, u2) out of the given ranks; residuals (f1.tau, f2.sigma,
    (V (x) f2).beta + u1.tau, (U (x) f1).gamma + u2.sigma)."""
    from tensorgp.algebra import free_hom_basis
    from tensorgp.special_rings import block_power_module

    fld = d.a.field
    da, db, dv, du = d.a.dim, d.b.dim, d.v.dim, d.u.dim
    entries = []
    for b in free_hom_basis(d.a, rank_p, free_module(d.a, 1)):
        uf = reference_induced_block_map(d.u, b)
        entries.append((0, b.mat, [b.mat @ tau.mat, None, None, uf @ gamma.mat]))
    for b in free_hom_basis(d.b, rank_q, free_module(d.b, 1)):
        vf = reference_induced_block_map(d.v, b)
        entries.append((1, b.mat, [None, b.mat @ sigma.mat, vf @ beta.mat, None]))
    for b in free_hom_basis(d.a, rank_p, block_power_module(d.v, 1)):
        entries.append((2, b.mat, [None, None, b.mat @ tau.mat, None]))
    for b in free_hom_basis(d.b, rank_q, block_power_module(d.u, 1)):
        entries.append((3, b.mat, [None, None, None, b.mat @ sigma.mat]))
    sp, sq = tau.source.dim, sigma.source.dim
    return _padded_columns(
        fld, [(da, rank_p * da), (db, rank_q * db), (dv, rank_p * da), (du, rank_q * db)],
        [(da, sp), (db, sq), (dv, sp), (du, sq)], entries)


def reference_triangular_c3_columns(d, tau, sigma, beta, rank_p, rank_q):
    """The triangular condition (v) one basis vector at a time, slots (f
    into the rank-one power of v, g into the rank-one free over b) out of
    the given ranks; residuals (f.tau + (V (x) g).beta, g.sigma)."""
    from tensorgp.algebra import free_hom_basis
    from tensorgp.special_rings import block_power_module

    fld = d.a.field
    dv, db = d.v.dim, d.b.dim
    entries = []
    for b in free_hom_basis(d.a, rank_p, block_power_module(d.v, 1)):
        entries.append((0, b.mat, [b.mat @ tau.mat, None]))
    for b in free_hom_basis(d.b, rank_q, free_module(d.b, 1)):
        vg = reference_induced_block_map(d.v, b)
        entries.append((1, b.mat, [vg @ beta.mat, b.mat @ sigma.mat]))
    return _padded_columns(fld, [(dv, rank_p * d.a.dim), (db, rank_q * db)],
                           [(dv, tau.source.dim), (db, sigma.source.dim)], entries)


# -- references for the validation reports ----------------------------------------
# The checkers as they were written before the shared representation-law
# primitive, one loop per checker; the suite compares the library's
# reports with them.


def _unit_matrix(field: FieldSpec, mats, unit_coords) -> Matrix:
    """Linear combination sum_i unit[i] * mats[i]."""
    from tensorgp.algebra import AlgebraError

    if not mats:
        raise AlgebraError("empty basis")
    acc = Matrix.zeros(field, mats[0].rows, mats[0].cols)
    for c, m in zip(unit_coords, mats):
        if c != field.zero():
            acc = acc + m.scale(c)
    return acc


def reference_check_algebra(a):
    """Exhaustively verify associativity and the unit law.

    Returns a report listing every violated equation with its witness
    triple (or basis index for unit failures) and the nonzero residual.
    """
    from tensorgp.algebra import ValidationReport

    violations = []
    f = a.field
    if len(a.consts) != a.dim or any(
        len(plane) != a.dim or any(len(row) != a.dim for row in plane) for plane in a.consts
    ):
        return ValidationReport("algebra", (("shape", (), None),))
    if len(a.unit) != a.dim:
        return ValidationReport("algebra", (("shape", ("unit",), None),))

    L = []
    for i in range(a.dim):
        L.append(Matrix.from_rows(
            f, [[a.consts[i][j][k] for j in range(a.dim)] for k in range(a.dim)]
        ))

    basis = [Matrix.basis_column(f, a.dim, i) for i in range(a.dim)]
    unit_col = Matrix.column(f, list(a.unit))

    def mult(u, v):
        acc = Matrix.zeros(f, a.dim, 1)
        for i in range(a.dim):
            c = u[i, 0]
            if c != f.zero():
                acc = acc + (L[i] @ v).scale(c)
        return acc

    for i in range(a.dim):
        left = mult(unit_col, basis[i])
        if left != basis[i]:
            violations.append(("unit-left", (i,), left - basis[i]))
        right = mult(basis[i], unit_col)
        if right != basis[i]:
            violations.append(("unit-right", (i,), right - basis[i]))

    for i in range(a.dim):
        for j in range(a.dim):
            ij = mult(basis[i], basis[j])
            for k in range(a.dim):
                lhs = mult(ij, basis[k])
                rhs = mult(basis[i], mult(basis[j], basis[k]))
                if lhs != rhs:
                    violations.append(("associativity", (i, j, k), lhs - rhs))
    return ValidationReport("algebra", tuple(violations))


def reference_check_module(x):
    """Verify the representation law rho(e_i)rho(e_j) = rho(e_i e_j) and rho(1) = id."""
    from tensorgp.algebra import ValidationReport

    a = x.algebra
    f = a.field
    violations = []
    if len(x.action) != a.dim or any(m.shape != (x.dim, x.dim) for m in x.action):
        return ValidationReport("module", (("shape", (), None),))
    if any(m.field != f for m in x.action):
        return ValidationReport("module", (("field", (), None),))
    unit = _unit_matrix(f, x.action, a.unit) if a.dim else Matrix.zeros(f, x.dim, x.dim)
    if unit != Matrix.identity(f, x.dim):
        violations.append(("unit-action", (), unit - Matrix.identity(f, x.dim)))
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = x.action[i] @ x.action[j]
            rhs = Matrix.zeros(f, x.dim, x.dim)
            for k in range(a.dim):
                c = a.consts[i][j][k]
                if c != f.zero():
                    rhs = rhs + x.action[k].scale(c)
            if lhs != rhs:
                violations.append(("module-law", (i, j), lhs - rhs))
    return ValidationReport("module", tuple(violations))


def reference_check_bimodule(m):
    """Verify both module laws, both unit axioms and commutation."""
    from tensorgp.algebra import ValidationReport

    a = m.algebra
    f = a.field
    violations = []
    if len(m.left_action) != a.dim or len(m.right_action) != a.dim:
        return ValidationReport("bimodule", (("shape", (), None),))
    if any(mat.shape != (m.dim, m.dim) for mat in m.left_action + m.right_action):
        return ValidationReport("bimodule", (("shape", (), None),))
    ident = Matrix.identity(f, m.dim)
    lu = _unit_matrix(f, m.left_action, a.unit)
    if lu != ident:
        violations.append(("left-unit", (), lu - ident))
    ru = _unit_matrix(f, m.right_action, a.unit)
    if ru != ident:
        violations.append(("right-unit", (), ru - ident))
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = m.left_action[i] @ m.left_action[j]
            rhs = Matrix.zeros(f, m.dim, m.dim)
            for k in range(a.dim):
                c = a.consts[i][j][k]
                if c != f.zero():
                    rhs = rhs + m.left_action[k].scale(c)
            if lhs != rhs:
                violations.append(("left-law", (i, j), lhs - rhs))
            lhs = m.right_action[j] @ m.right_action[i]
            rhs = Matrix.zeros(f, m.dim, m.dim)
            for k in range(a.dim):
                c = a.consts[i][j][k]
                if c != f.zero():
                    rhs = rhs + m.right_action[k].scale(c)
            if lhs != rhs:
                violations.append(("right-law", (i, j), lhs - rhs))
            comm = m.left_action[i] @ m.right_action[j] - m.right_action[j] @ m.left_action[i]
            if not comm.is_zero():
                violations.append(("commutation", (i, j), comm))
    return ValidationReport("bimodule", tuple(violations))


# -- reference for the memoised Hom-complex oracle ------------------------------


def reference_hom_complex_oracle(w):
    """The Hom-complex oracle with its hom_t bases built per call and keyed
    by rank slot, as before they were memoised per (ring, rank)."""
    from tensorgp.exactlin import hstack, kron, vec
    from tensorgp.resolution import InternalCheckError

    ring = w.ring
    field = ring.algebra.field
    target = ring.ind_free(1)

    hom_cache = {}

    def hom_basis(k):
        """Size and vec columns of the hom_t basis out of Ind P^k."""
        t = w.index.rank_slot(k)
        if t not in hom_cache:
            cols = [vec(h.mat) for h in ring.hom_t(ring.ind_free(w.ranks[t]), target)]
            hom_cache[t] = (len(cols), hstack(cols) if cols else None)
        return hom_cache[t]

    def differential(k):
        """Matrix of precomposition with alpha^k in the chosen bases:
        vec(h alpha^k) = (alpha^k^T (x) I) vec(h), solved for all h at once."""
        src_dim, src_stack = hom_basis(k + 1)
        tgt_dim, tgt_stack = hom_basis(k)
        if not src_dim:
            return Matrix.zeros(field, tgt_dim, 0)
        a = w.assembled(k)
        composed = kron(a.transpose(), Matrix.identity(field, target.x.dim)) @ src_stack
        if tgt_stack is None:
            if not composed.is_zero():
                raise InternalCheckError("composite leaves the morphism space")
            return Matrix.zeros(field, 0, src_dim)
        coords = tgt_stack.solve(composed)
        if coords is None:
            raise InternalCheckError("composite is not a morphism of pairs")
        return coords

    out = {}
    for k in w.positions():
        d_in = differential(k - 1)   # C^k -> C^(k-1)
        d_out = differential(k)      # C^(k+1) -> C^k
        z = d_in.kernel_basis()
        if z.cols == 0:
            out[k] = 0
            continue
        union = hstack([z, d_out]) if d_out.cols else z
        out[k] = union.rank() - d_out.rank()
    return out


# -- the specialize fixtures ---------------------------------------------------------


def specialize_fixture_docs():
    """The documents of ``fixtures/morita_window.yaml`` (two-sided context
    data over F_2, both pairings vanishing, period 2 at ranks 1 and 2,
    with a C2' and a C3' witness) and of
    ``fixtures/triangular_window.yaml`` (a nonzero connecting bimodule over
    F_2, period 2, equal rank columns, so ``specialize`` also transports
    it), keyed by file name."""
    from tensorgp import formats

    rng = random.Random(214)
    d = random_morita_data(rng, F2)
    w = random_morita_window(d, rng, max_rank=2, period=2)
    rng = random.Random(210)
    td = random_triangular_data(rng, F2)
    tw = random_triangular_window(td, rng, max_rank=2, period=2)
    return {"morita_window.yaml": formats.context_to_doc(d, w),
            "triangular_window.yaml": formats.context_to_doc(td, tw)}


# -- the Fraction elimination that exactlin ran over Q before it went modular -----


def fraction_rref(m):
    """Gauss-Jordan elimination on an ``object`` array of the ``Fraction``
    entries of a Q matrix, with the library's pivot rule: the row
    reduction exactlin ran before its certified modular one.  Returns the
    RREF as a list of rows and the pivot columns."""
    R = np.array(m.entries, dtype=object).reshape(m.shape)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        if R[r, c] != 1:
            R[r] = R[r] * (1 / R[r, c])
        others = np.flatnonzero(R[:, c])
        others = others[others != r]
        if others.size:
            R[others] = R[others] - np.outer(R[others, c], R[r])
        pivots.append(c)
        r += 1
    return R.tolist(), tuple(pivots)


def fraction_kernel(m):
    """The canonical kernel basis of ``Matrix.kernel_basis`` from
    :func:`fraction_rref`, as a list of rows."""
    rows, pivots = fraction_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    grid = [[Fraction(0)] * len(free) for _ in range(m.cols)]
    for k, f in enumerate(free):
        grid[f][k] = Fraction(1)
        for t, pc in enumerate(pivots):
            grid[pc][k] = -rows[t][f]
    return grid


def fraction_solve(a, b):
    """The solution of ``Matrix.solve`` (free variables zero) from
    :func:`fraction_rref` of [a | b], as a list of rows, or None."""
    aug = Matrix.from_rows(QQ, [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)]) \
        if a.rows else Matrix.zeros(QQ, 0, a.cols + b.cols)
    rows, pivots = fraction_rref(aug)
    if any(pc >= a.cols for pc in pivots):
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for t, pc in enumerate(pivots):
        x[pc] = rows[t][a.cols:]
    return x
