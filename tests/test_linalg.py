import random
from fractions import Fraction

import pytest

from bicomplex.linalg import (
    AmbientMismatch,
    Basis,
    Matrix,
    NotASubspace,
    NotWellDefined,
    canonical_span,
    contains,
    coset_representatives,
    image_basis,
    induced_subquotient_map,
    is_subspace,
    kernel_basis,
    pivot_columns,
    rank,
    rref,
    solve_columns,
    subquotient_dim,
    subspace_intersection,
    subspace_sum,
    vector,
    zero_vector,
)
from bicomplex.scalars import ZERO, gauss

from oracles import bareiss_rank, member_of_span
from reference_matmul import reference_matmul
from reference_rref import reference_rref


def random_matrix(rng, rows, cols, density=0.6):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = gauss(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2)),
                )
    return Matrix(rows, cols, entries)


def test_rref_identity():
    m = Matrix.identity(2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1)


def test_rref_rank_one():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    red, pivots = rref(m)
    assert red == Matrix.from_rows([[1, 1], [0, 0]])
    assert pivots == (0,)


def test_rref_rank_matches_fraction_free_oracle():
    rng = random.Random(42)
    for _ in range(40):
        m = random_matrix(rng, 5, 7)
        dense = [m.row(i) for i in range(m.rows)]
        assert rank(m) == bareiss_rank(dense)


# Non-unit norms (2+i has norm 5, 3+2i norm 13) and denominators (1/3,
# -5/7+2/3*i): an inexact division over Z[i] would show.
REAL_POOL = [gauss(1), gauss(-1), gauss(2), gauss(-3), gauss(Fraction(1, 3)),
             gauss(Fraction(-5, 7)), gauss(Fraction(4, 9))]
GAUSSIAN_POOL = REAL_POOL + [gauss(2, 1), gauss(1, -2), gauss(0, 1), gauss(3, 2),
                             gauss(Fraction(-5, 7), Fraction(2, 3)),
                             gauss(Fraction(3, 2), Fraction(-1, 4))]


def kernel_cases():
    """(label, matrix) pairs: sparse and dense, real and Gaussian, full and
    deficient rank, zero rows and columns, empty, tall and wide."""
    rng = random.Random(2024)

    def draw(rows, cols, density, pool):
        return Matrix(rows, cols, {
            (i, j): rng.choice(pool)
            for i in range(rows) for j in range(cols) if rng.random() < density
        })

    for rows, cols in [(0, 0), (0, 4), (4, 0), (1, 1), (1, 6), (6, 1)]:
        yield f"empty {rows}x{cols}", draw(rows, cols, 0.5, GAUSSIAN_POOL)
    for k in range(360):
        pool = GAUSSIAN_POOL if (k // 4) % 2 else REAL_POOL
        rows, cols = rng.choice([(3, 3), (5, 5), (7, 3), (9, 4), (3, 7), (4, 9), (8, 8)])
        density = (0.15, 0.4, 0.9)[k % 3]
        m = draw(rows, cols, density, pool)
        if k % 4 == 1:  # rank at most 2: a product through a thin middle
            m = draw(rows, 2, 0.8, pool) @ draw(2, cols, 0.8, pool)
        elif k % 4 == 2:  # one zero row, one zero column, one repeated row
            zr, zc = rng.randrange(rows), rng.randrange(cols)
            entries = {(i, j): v for (i, j), v in m.entries.items() if i != zr and j != zc}
            entries.update({(rows - 1, j): v for (i, j), v in entries.items() if i == 0})
            m = Matrix(rows, cols, entries)
        yield f"case {k}: {rows}x{cols}, density {density}", m


def test_kernel_matches_reference_gauss_jordan():
    cases = list(kernel_cases())
    assert len(cases) >= 300
    deficient = 0
    for label, m in cases:
        want = reference_rref(m)
        assert rref(m) == want, label
        assert pivot_columns(m) == want[1], label
        assert rank(m) == bareiss_rank([m.row(i) for i in range(m.rows)]), label
        deficient += len(want[1]) < min(m.rows, m.cols)
    assert deficient >= 100


def test_rref_idempotent():
    rng = random.Random(43)
    for _ in range(20):
        m = random_matrix(rng, 4, 6)
        red, pivots = rref(m)
        again, pivots2 = rref(red)
        assert again == red
        assert pivots2 == pivots


def test_rref_deterministic():
    rng = random.Random(44)
    m = random_matrix(rng, 6, 6)
    assert rref(m) == rref(Matrix(m.rows, m.cols, dict(m.entries)))


def test_kernel_identity_is_trivial():
    assert kernel_basis(Matrix.identity(3)).dim == 0


def test_kernel_rank_one():
    k = kernel_basis(Matrix.from_rows([[1, 1], [1, 1]]))
    assert k.dim == 1
    assert canonical_span(k.vectors, 2) == canonical_span([vector([1, -1])], 2)


def test_kernel_multiply_back_and_rank_nullity():
    rng = random.Random(45)
    for _ in range(30):
        m = random_matrix(rng, 4, 7)
        k = kernel_basis(m)
        assert k.dim == m.cols - rank(m)
        for v in k.vectors:
            assert m.apply(v) == zero_vector(m.rows)


def test_image_zero_and_identity():
    assert image_basis(Matrix.zero(3, 2)).dim == 0
    img = image_basis(Matrix.identity(3))
    assert canonical_span(img.vectors, 3) == canonical_span(Basis.full(3).vectors, 3)


def test_image_membership():
    rng = random.Random(46)
    for _ in range(30):
        m = random_matrix(rng, 5, 4)
        img = image_basis(m)
        assert img.dim == rank(m)
        for j in range(m.cols):
            assert member_of_span(img.vectors, m.column(j))


def test_subspace_sum_idempotent():
    rng = random.Random(47)
    m = random_matrix(rng, 5, 3)
    u = image_basis(m)
    assert subspace_sum(u, u) == canonical_span(u.vectors, 5)


def test_subspace_sum_coordinate_planes():
    e1 = Basis(2, (vector([1, 0]),))
    e2 = Basis(2, (vector([0, 1]),))
    assert subspace_sum(e1, e2).dim == 2


def test_dimension_formula():
    rng = random.Random(48)
    for _ in range(30):
        u = image_basis(random_matrix(rng, 6, 3))
        v = image_basis(random_matrix(rng, 6, 3))
        s = subspace_sum(u, v)
        i = subspace_intersection(u, v)
        assert s.dim + i.dim == u.dim + v.dim


def test_intersection_trivial_and_membership():
    e1 = Basis(2, (vector([1, 0]),))
    e2 = Basis(2, (vector([0, 1]),))
    assert subspace_intersection(e1, e2).dim == 0
    rng = random.Random(49)
    for _ in range(20):
        u = image_basis(random_matrix(rng, 5, 3))
        v = image_basis(random_matrix(rng, 5, 3))
        w = subspace_intersection(u, v)
        for x in w.vectors:
            assert member_of_span(u.vectors, x)
            assert member_of_span(v.vectors, x)


def test_ambient_mismatch():
    u = Basis(2, (vector([1, 0]),))
    v = Basis(3, (vector([1, 0, 0]),))
    for op in (subspace_sum, subspace_intersection, subquotient_dim):
        with pytest.raises(AmbientMismatch):
            op(u, v)


def test_subquotient_dim():
    full = Basis.full(2)
    e1 = Basis(2, (vector([1, 0]),))
    assert subquotient_dim(full, full) == 0
    assert subquotient_dim(full, e1) == 1
    with pytest.raises(NotASubspace):
        subquotient_dim(e1, Basis(2, (vector([0, 1]),)))


def test_subquotient_dim_against_rank_oracle():
    rng = random.Random(50)
    for _ in range(20):
        z = image_basis(random_matrix(rng, 6, 4))
        if z.dim == 0:
            continue
        take = rng.randint(0, z.dim)
        b = canonical_span(z.vectors[:take], 6)
        got = subquotient_dim(z, b)
        want = bareiss_rank([list(v) for v in z.vectors]) - bareiss_rank(
            [list(v) for v in b.vectors]
        )
        assert got == want


def test_induced_map_identity_and_zero():
    full = Basis.full(3)
    e1 = Basis(3, (vector([1, 0, 0]),))
    m = induced_subquotient_map(Matrix.identity(3), full, e1, full, e1)
    assert m == Matrix.identity(2)
    z = induced_subquotient_map(Matrix.zero(3, 3), full, e1, full, e1)
    assert z == Matrix.zero(2, 2)


def test_induced_map_not_well_defined():
    full = Basis.full(2)
    e1 = Basis(2, (vector([1, 0]),))
    e2 = Basis(2, (vector([0, 1]),))
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(NotWellDefined):
        induced_subquotient_map(swap, full, e1, full, e1)
    # restricting the cycles also fails: f does not map span(e1) into span(e1)
    with pytest.raises(NotWellDefined):
        induced_subquotient_map(swap, e1, Basis.empty(2), e1, Basis.empty(2))
    # but it is well defined onto the other line
    ok = induced_subquotient_map(swap, e1, Basis.empty(2), e2, Basis.empty(2))
    assert ok == Matrix.identity(1)


def test_induced_map_commuting_square():
    """Coordinates of f(z) on the coset frame agree with applying the induced
    matrix to the coordinates of z, for every cycle generator z."""
    rng = random.Random(51)
    for _ in range(15):
        f = random_matrix(rng, 5, 5, density=0.5)
        z_src = kernel_basis(random_matrix(rng, 3, 5))
        b_src = Basis.empty(5)
        # force well-definedness by taking the target to be everything
        z_tgt = Basis.full(5)
        b_tgt = image_basis(random_matrix(rng, 5, 2))
        m = induced_subquotient_map(f, z_src, b_src, z_tgt, b_tgt)
        reps_src = coset_representatives(z_src, b_src)
        reps_tgt = coset_representatives(z_tgt, b_tgt)
        frame = Matrix.from_columns(list(b_tgt.vectors) + list(reps_tgt), 5)
        for col, v in enumerate(reps_src):
            coords = solve_columns(frame, Matrix.from_columns([f.apply(v)], 5))
            assert coords is not None
            got = tuple(coords.entries.get((b_tgt.dim + i, 0), ZERO) for i in range(len(reps_tgt)))
            want = m.column(col)
            assert got == want


def test_basis_checked_rejects_dependent():
    with pytest.raises(ValueError):
        Basis.checked(2, [[1, 0], [2, 0]])
    b = Basis.checked(2, [[1, 0], [1, 1]])
    assert b.dim == 2 and b.is_valid()


def test_matrix_algebra_basics():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])
    assert (a + b) - b == a
    assert a.transpose().transpose() == a
    assert (a @ b).conjugate() == a.conjugate() @ b.conjugate()
    with pytest.raises(ValueError):
        a @ Matrix.zero(3, 3)
    assert contains(image_basis(a), a.column(0))
    assert is_subspace(image_basis(b), Basis.full(2))


def product_cases():
    """(label, a, b) with a.cols == b.rows: sparse and dense, real and
    Gaussian, empty shapes, identity and zero factors, and sums that cancel."""
    rng = random.Random(2025)

    def draw(rows, cols, density, pool):
        return Matrix(rows, cols, {
            (i, j): rng.choice(pool)
            for i in range(rows) for j in range(cols) if rng.random() < density
        })

    for n, k, m in [(0, 0, 0), (0, 3, 4), (4, 3, 0), (3, 0, 4), (0, 0, 5), (5, 0, 0)]:
        yield f"empty {n}x{k} @ {k}x{m}", draw(n, k, 0.7, GAUSSIAN_POOL), draw(k, m, 0.7, GAUSSIAN_POOL)
    for k in range(300):
        pool = GAUSSIAN_POOL if (k // 5) % 2 else REAL_POOL
        n, inner, m = rng.choice([(1, 1, 1), (3, 3, 3), (5, 4, 6), (7, 2, 7), (2, 8, 3), (6, 6, 6)])
        da, db = rng.choice([(0.15, 0.15), (0.15, 0.9), (0.9, 0.15), (0.9, 0.9), (0.5, 0.5)])
        a, b = draw(n, inner, da, pool), draw(inner, m, db, pool)
        kind = k % 5
        if kind == 1:  # identity and zero factors on either side
            a, b = rng.choice([(Matrix.identity(inner), b), (a, Matrix.identity(inner)),
                               (Matrix.zero(n, inner), b), (a, Matrix.zero(inner, m))])
        elif kind == 2:  # every column of b in the kernel of a: each sum cancels
            a = draw(rng.randint(1, 4), rng.randint(5, 8), 0.8, pool)
            ker = kernel_basis(a).vectors
            b = Matrix.from_columns([ker[rng.randrange(len(ker))] for _ in range(m)], a.cols)
        elif kind == 3:  # some columns in the kernel, others not
            ker = kernel_basis(a).vectors
            cols = [ker[rng.randrange(len(ker))] if ker and rng.random() < 0.5 else b.column(j)
                    for j in range(m)]
            b = Matrix.from_columns(cols, inner)
        elif kind == 4 and inner >= 2:  # the last entry's sum passes through zero
            v, c = rng.choice(pool), rng.choice(pool)
            row = {(n - 1, 0): v, (n - 1, 1): -v} | ({(n - 1, 2): c} if inner > 2 else {})
            a = Matrix(n, inner, {key: x for key, x in a.entries.items() if key[0] != n - 1} | row)
            b = Matrix(inner, m, dict(b.entries) | {(0, 0): c, (1, 0): c})
        yield f"case {k}: {n}x{inner} @ {inner}x{m}, kind {kind}", a, b


def test_product_matches_reference_fraction_product():
    cases = list(product_cases())
    assert len(cases) >= 300
    zero = 0
    for label, a, b in cases:
        got = a @ b
        assert got == reference_matmul(a, b), label
        assert all(got.entries.values()), label
        zero += got.is_zero() and bool(a.entries) and bool(b.entries)
    assert zero >= 50
    a = Matrix.from_rows([[1, 2], [3, 4]])
    for b in (Matrix.zero(3, 3), Matrix.zero(0, 2)):
        with pytest.raises(ValueError) as want:
            reference_matmul(a, b)
        with pytest.raises(ValueError) as got:
            a @ b
        assert str(got.value) == str(want.value)
