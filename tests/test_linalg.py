import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from bicomplex import dual, frolicher, lie_algebra_model, linalg, parse_model_file, random_complex
from bicomplex.cohomology import TABLES, Analysis, Totalization
from bicomplex.linalg import (
    Matrix,
    NotASubspace,
    NotWellDefined,
    _canonical_kernel,
    _echelon,
    canonical_span,
    coset_representatives,
    filtered_pivots,
    hstack,
    image_basis,
    kernel_basis,
    pivot_columns,
    rank,
    rref,
    solve_columns,
    vector,
)
from bicomplex.scalars import ZERO, gauss, I

from call_counter import calls_into
from helpers import never_validated
from oracles import bareiss_rank, gaussian_divides, gaussian_gcd, member_of_span
from reference_echelon import reference_echelon
from reference_matmul import reference_matmul
from reference_rref import reference_rref
from reference_subquotients import (
    AmbientMismatch,
    induced_subquotient_map,
    is_subspace,
    subquotient_dim,
    subspace_intersection,
    subspace_sum,
)
from test_cohomology import ranked
from test_frolicher import NIL4, NIL5


def columns(m):
    return [m.column(j) for j in range(m.cols)]


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
    """The kernel cases, and three larger Gaussian matrices whose
    back-substitution clears many later pivots of unequal leads; those
    three are checked against the reference RREF only, since the
    fraction-free rank oracle takes seconds on them."""
    rng = random.Random(1997)
    for rows, cols, density in ((90, 30, 0.3), (30, 90, 0.3), (24, 32, 0.9)):
        m = Matrix(rows, cols, {(i, j): rng.choice(GAUSSIAN_POOL) for i in range(rows)
                                for j in range(cols) if rng.random() < density})
        assert rref(m) == reference_rref(m), (rows, cols)
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


UNITS = [gauss(1), gauss(-1), gauss(0, 1), gauss(0, -1)]
NON_UNITS = [gauss(2), gauss(-3), gauss(1, 1), gauss(3, -2)]
FRACTIONS = [gauss(Fraction(1, 2)), gauss(Fraction(-2, 3)), gauss(0, Fraction(1, 3)),
             gauss(Fraction(3, 2), Fraction(-1, 2))]


def lead_kind(lead):
    """The class of a forward-pass pivot entry: 1, -1, i, -i or a non-unit."""
    return {(1, 0): "1", (-1, 0): "-1", (0, 1): "i", (0, -1): "-i"}.get(lead, "non-unit")


def unit_lead_cases():
    """(label, matrix) pairs whose forward-pass pivot entries are the
    units 1, -1, i, -i and non-units, with and without entries of
    denominator 2 or 3, so that both some pivot rows and some rows scaled
    to the common denominator are left as they are, and others rebuilt."""
    rng = random.Random(1968)
    pools = [UNITS, UNITS + NON_UNITS, UNITS + FRACTIONS, UNITS + NON_UNITS + FRACTIONS]
    for k in range(240):
        pool = pools[k % 4]
        rows, cols = rng.randint(1, 8), rng.randint(1, 9)
        density = (0.25, 0.5, 0.8)[k % 3]
        entries = {(i, j): rng.choice(pool) for i in range(rows) for j in range(cols)
                   if rng.random() < density}
        yield f"case {k}: {rows}x{cols}, pool {k % 4}, density {density}", Matrix(rows, cols, entries)


def test_rref_leaves_rows_that_lead_with_one_and_matches_the_reference():
    """`rref` normalizes only the pivot rows whose pivot entry is not 1, and
    rebuilds only the rows whose scale to the common denominator is not 1.
    On the unit-lead cases it equals the Gauss-Jordan reference, and the
    cases reach every kind of lead and both kinds of row scale: a row whose
    least denominator is the RREF's (scale 1) and one whose is smaller."""
    leads, scales = set(), set()
    for label, m in unit_lead_cases():
        red, pivots = rref(m)
        assert (red, pivots) == reference_rref(m), label
        if not pivots:
            continue
        forward, rows, _ = _echelon(m)
        leads.update(lead_kind(row[col]) for col, row in zip(forward, rows))
        for i in range(len(pivots)):
            den = lcm(*(x.denominator for v in red.row(i) for x in (v.re, v.im)))
            scales.add("kept" if den == red._den else "rebuilt")
    assert leads == {"1", "-1", "i", "-i", "non-unit"}
    assert scales == {"kept", "rebuilt"}


def test_rref_of_rows_that_lead_with_one_rebuilds_no_row():
    """A permutation matrix of ones: every pivot is alone in its bucket and
    its row leads with 1, so `rref` neither rescales nor divides a row,
    while the same matrix with -1 or i leads normalizes each row once."""
    m = one_touch_matrix("permutation", 12)
    count = lambda fn, x: calls_into(fn.__code__, rref, x)
    assert count(linalg._combine, m) == count(linalg._primitive, m) == 0
    for unit in (gauss(-1), I):
        scaled = Matrix(12, 12, {k: unit for k in m.entries})
        assert rref(scaled) == rref(m)
        assert count(linalg._combine, scaled) == count(linalg._primitive, scaled) == 12


def canonical_kernel_cases():
    """(label, matrix) pairs, every shape from 0 x 0 to 7 x 8, entries
    Gaussian rationals of denominator 1 to 3: the zero matrix, a dense one
    (full rank as a rule), a sparse one and a product through a thin middle
    (rank deficient)."""
    rng = random.Random(1812)

    def entry():
        return gauss(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                     Fraction(rng.randint(-5, 5), rng.randint(1, 3)))

    def draw(rows, cols, density):
        return Matrix(rows, cols, {(i, j): v for i in range(rows) for j in range(cols)
                                   if rng.random() < density and (v := entry())})

    for rows in range(8):
        for cols in range(9):
            yield f"zero {rows}x{cols}", Matrix.zero(rows, cols)
            yield f"dense {rows}x{cols}", draw(rows, cols, 1.0)
            yield f"sparse {rows}x{cols}", draw(rows, cols, 0.3)
            middle = rng.randint(1, 3)
            yield f"rank <= {middle} {rows}x{cols}", draw(rows, middle, 0.8) @ draw(middle, cols, 0.8)


def test_canonical_kernel_is_the_canonical_span_of_the_kernel():
    """`_canonical_kernel(m)`, one RREF of m with its columns reversed,
    equals the canonical span of the kernel basis, a second RREF, on every
    case: full rank, rank deficient, zero and empty."""
    kinds = {"full": 0, "deficient": 0, "zero": 0, "empty": 0}
    for label, m in canonical_kernel_cases():
        got = _canonical_kernel(m)
        assert got == canonical_span(kernel_basis(m)), label
        assert (m @ got).is_zero() and got.cols == m.cols - rank(m), label
        if m.rows == 0 or m.cols == 0:
            kinds["empty"] += 1
        elif m.is_zero():
            kinds["zero"] += 1
        else:
            kinds["full" if rank(m) == min(m.rows, m.cols) else "deficient"] += 1
    assert min(kinds.values()) >= 40, kinds


def test_kernel_identity_is_trivial():
    assert kernel_basis(Matrix.identity(3)).cols == 0


def test_kernel_rank_one():
    k = kernel_basis(Matrix.from_rows([[1, 1], [1, 1]]))
    assert k.cols == 1
    assert canonical_span(k) == canonical_span(Matrix.from_columns([vector([1, -1])], 2))


def test_kernel_multiply_back_and_rank_nullity():
    rng = random.Random(45)
    for _ in range(30):
        m = random_matrix(rng, 4, 7)
        k = kernel_basis(m)
        assert k.cols == m.cols - rank(m)
        for j in range(k.cols):
            assert (m @ k[:, j:j + 1]).is_zero()


def test_image_zero_and_identity():
    assert image_basis(Matrix.zero(3, 2)).cols == 0
    img = image_basis(Matrix.identity(3))
    assert canonical_span(img) == canonical_span(Matrix.identity(3))


def test_image_membership():
    rng = random.Random(46)
    for _ in range(30):
        m = random_matrix(rng, 5, 4)
        img = image_basis(m)
        assert img.cols == rank(m)
        for j in range(m.cols):
            assert member_of_span(columns(img), m.column(j))


def test_subspace_sum_idempotent():
    rng = random.Random(47)
    m = random_matrix(rng, 5, 3)
    u = image_basis(m)
    assert subspace_sum(u, u) == canonical_span(u)


def test_subspace_sum_coordinate_planes():
    e1 = Matrix.from_columns([vector([1, 0])], 2)
    e2 = Matrix.from_columns([vector([0, 1])], 2)
    assert subspace_sum(e1, e2).cols == 2


def test_dimension_formula():
    rng = random.Random(48)
    for _ in range(30):
        u = image_basis(random_matrix(rng, 6, 3))
        v = image_basis(random_matrix(rng, 6, 3))
        s = subspace_sum(u, v)
        i = subspace_intersection(u, v)
        assert s.cols + i.cols == u.cols + v.cols


def test_intersection_trivial_and_membership():
    e1 = Matrix.from_columns([vector([1, 0])], 2)
    e2 = Matrix.from_columns([vector([0, 1])], 2)
    assert subspace_intersection(e1, e2).cols == 0
    rng = random.Random(49)
    for _ in range(20):
        u = image_basis(random_matrix(rng, 5, 3))
        v = image_basis(random_matrix(rng, 5, 3))
        w = subspace_intersection(u, v)
        for x in columns(w):
            assert member_of_span(columns(u), x)
            assert member_of_span(columns(v), x)


def test_ambient_mismatch():
    u = Matrix.from_columns([vector([1, 0])], 2)
    v = Matrix.from_columns([vector([1, 0, 0])], 3)
    for op in (subspace_sum, subspace_intersection, subquotient_dim):
        with pytest.raises(AmbientMismatch):
            op(u, v)


def test_subquotient_dim():
    full = Matrix.identity(2)
    e1 = Matrix.from_columns([vector([1, 0])], 2)
    assert subquotient_dim(full, full) == 0
    assert subquotient_dim(full, e1) == 1
    with pytest.raises(NotASubspace):
        subquotient_dim(e1, Matrix.from_columns([vector([0, 1])], 2))


def test_subquotient_dim_against_rank_oracle():
    rng = random.Random(50)
    for _ in range(20):
        z = image_basis(random_matrix(rng, 6, 4))
        if z.cols == 0:
            continue
        take = rng.randint(0, z.cols)
        b = canonical_span(z[:, :take])
        got = subquotient_dim(z, b)
        want = bareiss_rank(columns(z)) - bareiss_rank(columns(b))
        assert got == want


def test_induced_map_identity_and_zero():
    full = Matrix.identity(3)
    e1 = Matrix.from_columns([vector([1, 0, 0])], 3)
    m = induced_subquotient_map(Matrix.identity(3), full, e1, full, e1)
    assert m == Matrix.identity(2)
    z = induced_subquotient_map(Matrix.zero(3, 3), full, e1, full, e1)
    assert z == Matrix.zero(2, 2)


def test_induced_map_not_well_defined():
    full = Matrix.identity(2)
    e1 = Matrix.from_columns([vector([1, 0])], 2)
    e2 = Matrix.from_columns([vector([0, 1])], 2)
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(NotWellDefined):
        induced_subquotient_map(swap, full, e1, full, e1)
    # restricting the cycles also fails: f does not map span(e1) into span(e1)
    with pytest.raises(NotWellDefined):
        induced_subquotient_map(swap, e1, Matrix.zero(2, 0), e1, Matrix.zero(2, 0))
    # but it is well defined onto the other line
    ok = induced_subquotient_map(swap, e1, Matrix.zero(2, 0), e2, Matrix.zero(2, 0))
    assert ok == Matrix.identity(1)


def _cols(*vectors, n=3):
    return Matrix.from_columns([vector(v) for v in vectors], n)


_E1, _E2 = (1, 0, 0), (0, 1, 0)
_SWAP = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
_BOUNDARIES = "f does not map the source boundaries into the target boundaries"
_CYCLES = "f does not map the source cycles into the target cycles"
_DEPENDENT = "denominator vectors are dependent"


@pytest.mark.parametrize("f, z_src, b_src, z_tgt, b_tgt, error, message", [
    (Matrix.identity(3), Matrix.identity(3), _cols(_E1, _E1), Matrix.identity(3), _cols(_E1),
     NotASubspace, _DEPENDENT),
    (Matrix.identity(3), Matrix.identity(3), _cols(_E1), Matrix.identity(3), _cols(_E1, (2, 0, 0)),
     NotASubspace, _DEPENDENT),
    # f b_src lies in span(z_tgt) but not in span(b_tgt): a nonzero
    # coordinate on a target representative.
    (_SWAP, Matrix.identity(3), _cols(_E1), Matrix.identity(3), _cols(_E1),
     NotWellDefined, _BOUNDARIES),
    # f b_src leaves span(z_tgt) as well, and so do the cycles: the
    # boundaries are reported first.
    (_SWAP, _cols(_E1), _cols(_E1), _cols(_E1), _cols(_E1), NotWellDefined, _BOUNDARIES),
    (_SWAP, _cols(_E1), _cols(), _cols(_E1), _cols(), NotWellDefined, _CYCLES),
], ids=["dependent b_src", "dependent b_tgt", "boundaries into cycles", "boundaries out",
        "cycles not mapped"])
def test_induced_map_faults(f, z_src, b_src, z_tgt, b_tgt, error, message):
    """Each fault raises its own exception class and message, read off the
    one elimination of the target frame."""
    with pytest.raises(error) as exc:
        induced_subquotient_map(f, z_src, b_src, z_tgt, b_tgt)
    assert type(exc.value) is error and str(exc.value) == message


def test_induced_map_commuting_square():
    """Coordinates of f(z) on the coset frame agree with applying the induced
    matrix to the coordinates of z, for every cycle generator z."""
    rng = random.Random(51)
    for _ in range(15):
        f = random_matrix(rng, 5, 5, density=0.5)
        z_src = kernel_basis(random_matrix(rng, 3, 5))
        b_src = Matrix.zero(5, 0)
        # force well-definedness by taking the target to be everything
        z_tgt = Matrix.identity(5)
        b_tgt = image_basis(random_matrix(rng, 5, 2))
        m = induced_subquotient_map(f, z_src, b_src, z_tgt, b_tgt)
        reps_src = coset_representatives(z_src, b_src)
        reps_tgt = coset_representatives(z_tgt, b_tgt)
        frame = hstack([b_tgt, reps_tgt])
        for col in range(reps_src.cols):
            coords = solve_columns(frame, f @ reps_src[:, col:col + 1])
            assert coords is not None
            got = tuple(coords.entries.get((b_tgt.cols + i, 0), ZERO) for i in range(reps_tgt.cols))
            want = m.column(col)
            assert got == want


def test_matrix_algebra_basics():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])
    assert (a + b) - b == a
    assert a.transpose().transpose() == a
    assert (a @ b).conjugate() == a.conjugate() @ b.conjugate()
    with pytest.raises(ValueError):
        a @ Matrix.zero(3, 3)
    assert solve_columns(image_basis(a), Matrix.from_columns([a.column(0)], 2)) is not None
    assert is_subspace(image_basis(b), Matrix.identity(2))


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
            ker = kernel_basis(a)
            b = Matrix.from_columns([ker.column(rng.randrange(ker.cols)) for _ in range(m)], a.cols)
        elif kind == 3:  # some columns in the kernel, others not
            ker = kernel_basis(a)
            cols = [ker.column(rng.randrange(ker.cols)) if ker.cols and rng.random() < 0.5 else b.column(j)
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


def proportional(row, other):
    """Whether two Z[i] rows, dicts col -> (re, im), are nonzero multiples of
    each other: the same support, and every 2 x 2 minor against the first
    column of the support vanishes."""
    if row.keys() != other.keys():
        return False
    if not row:
        return True
    k = min(row)
    (a, b), (c, d) = row[k], other[k]
    return all(x * c - y * d == a * u - b * v and x * d + y * c == a * v + b * u
               for (x, y), (u, v) in ((row[j], other[j]) for j in row))


def assert_echelon_matches_reference(m, label):
    """Pivots and pivot row indices of the forward pass exactly, pivot rows
    up to a nonzero Z[i] scalar."""
    pivots, rows, indices = _echelon(m)
    want_pivots, want_rows, want_indices = reference_echelon(m, False)
    assert (pivots, indices) == (want_pivots, want_indices), label
    assert all(map(proportional, rows, want_rows)), label


def sparse_echelon_cases():
    """(label, matrix) pairs for the lead-column buckets: many rows sharing
    one leading column, with short rows of equal length so that the tie rule
    decides; empty rows between live ones; 1 x n and n x 1 shapes."""
    rng = random.Random(2026)
    units = [gauss(1), gauss(-1)]
    for k in range(60):
        pool = units if k % 3 else GAUSSIAN_POOL
        rows, cols = rng.choice([(12, 8), (20, 6), (9, 15), (30, 30)])
        lead = rng.randrange(cols // 2)
        entries = {}
        for i in range(rows):
            if k % 2 and i % 2:  # every other row empty
                continue
            entries[(i, lead)] = rng.choice(pool)
            for j in rng.sample(range(lead + 1, cols), rng.randint(0, 2)):
                entries[(i, j)] = rng.choice(pool)
        yield f"shared lead {k}: {rows}x{cols}", Matrix(rows, cols, entries)
    for k in range(30):
        rows, cols = 16, 10
        entries = {(i, j): rng.choice(units) for i in range(rows) for j in range(cols)
                   if i % 3 != 1 and rng.random() < 0.2}
        yield f"empty rows interleaved {k}", Matrix(rows, cols, entries)
    for n in (1, 2, 7, 40):
        for density in (0.0, 0.2, 1.0):
            wide = Matrix(1, n, {(0, j): rng.choice(GAUSSIAN_POOL)
                                 for j in range(n) if rng.random() < density})
            tall = Matrix(n, 1, {(i, 0): rng.choice(GAUSSIAN_POOL)
                                 for i in range(n) if rng.random() < density})
            yield f"wide 1x{n}, density {density}", wide
            yield f"tall {n}x1, density {density}", tall


def echelon_cases():
    """(label, matrix): the kernel cases, the lead-column bucket cases and
    every factor of the product cases."""
    cases = list(kernel_cases()) + list(sparse_echelon_cases())
    cases += [(f"{label}, factor {k}", m)
              for label, a, b in product_cases() for k, m in enumerate((a, b))]
    return cases


def test_echelon_matches_reference_kernel():
    cases = echelon_cases()
    assert len(cases) >= 1000
    for label, m in cases:
        assert_echelon_matches_reference(m, label)
        assert rref(m) == reference_rref(m), label


def form_key(m):
    return m.rows, m.cols, m._den, tuple(sorted(m._num.items()))


def handed_to_rank(fn, *args):
    """The distinct nonzero matrices that fn(*args) hands to `rank`."""
    return list({form_key(m): m for m in ranked(fn, *args)}.values())


def run_tables(complexes, tables):
    for a in complexes:
        for table in tables:
            table(a)


def test_echelon_matches_reference_on_nil4_tables(monkeypatch):
    """The kernel on every matrix that the nil4 tables and spaces hand to
    it without levels, and on every matrix they hand to `rank`, most of
    which `rank` peels without calling the kernel."""
    a = never_validated(lie_algebra_model(parse_model_file(NIL4, "nil4")))
    seen = {}
    kernel = linalg._echelon

    def recording(m, levels=None):
        if levels is None:
            seen.setdefault(form_key(m), m)
        return kernel(m, levels)

    def tables_and_spaces():
        run_tables([a], (*TABLES.values(), frolicher))
        for pq in a.bidegrees():
            for kind in ("dolbeault", "bott_chern", "aeppli"):
                Analysis.of(a).spaces(kind, pq)

    monkeypatch.setattr(linalg, "_echelon", recording)
    for m in handed_to_rank(tables_and_spaces):
        seen.setdefault(form_key(m), m)
    monkeypatch.undo()
    assert len(seen) >= 80
    for m in seen.values():
        assert_echelon_matches_reference(m, f"nil4 {m.rows}x{m.cols}")


def leveled_cases():
    """(label, matrix, row levels): random sparse Z[i] matrices with random
    levels, then each nil4 total differential transposed, its rows levelled
    by the first index p of their component as frolicher levels them."""
    rng = random.Random(314)
    for k in range(300):
        rows, cols = rng.randint(1, 16), rng.randint(1, 16)
        density = rng.choice([0.1, 0.25, 0.5])
        entries = {(i, j): rng.choice(GAUSSIAN_POOL)
                   for i in range(rows) for j in range(cols) if rng.random() < density}
        levels = [rng.randrange(1 + k % 5) for _ in range(rows)]
        yield f"random {k}: {rows}x{cols}", Matrix(rows, cols, entries), levels
    a = lie_algebra_model(parse_model_file(NIL4, "nil4")).complex
    tot = Totalization(a)
    for n in tot.degrees():
        levels = [p for p, q in tot.components[n] for _ in range(a.dim(p, q))]
        yield f"nil4 d_{n}", tot.differential(n).transpose(), levels


def targeted_cases():
    """leveled_cases() with a target level for each column, nondecreasing in
    the column index: seeded for the random matrices, and for nil4's the
    first index p of the target component."""
    rng = random.Random(2011)
    a = lie_algebra_model(parse_model_file(NIL4, "nil4")).complex
    components = Totalization(a).components
    for label, m, levels in leveled_cases():
        if label.startswith("nil4 d_"):
            n = int(label[len("nil4 d_"):])
            targets = [p for p, q in components.get(n + 1, []) for _ in range(a.dim(p, q))]
        else:
            targets = sorted(rng.randrange(4) for _ in range(m.cols))
        yield label, m, levels, targets


def test_level_rule_gives_every_filtered_pivot_set():
    """For every level s, the pivots whose pivot row has level >= s are the
    pivot columns of the rows of level >= s.  `filtered_pivots`, which
    peels before the forward pass, pairs the same multiset of (level,
    target level)."""
    for label, m, levels, targets in targeted_cases():
        pivots, _, pivot_rows = _echelon(m, levels)
        found = [(c, levels[i]) for c, i in zip(pivots, pivot_rows)]
        for s in set(levels):
            rows = Matrix.from_rows([m.row(i) for i, level in enumerate(levels) if level >= s])
            assert tuple(c for c, level in found if level >= s) == pivot_columns(rows), (label, s)
        pairs = filtered_pivots(m.transpose(), levels, targets)
        assert (sorted((levels[j], targets[i]) for j, i in pairs)
                == sorted((level, targets[c]) for c, level in found)), label


def test_filtered_pivots_ignore_the_order_of_rows_and_columns():
    """With its sources and its targets each in a seeded random order, and
    their levels moved along, a level case pairs the same multiset of
    (level, target level) as the forward pass on it unpeeled."""
    rng = random.Random(2014)
    for label, m, levels, targets in targeted_cases():
        pivots, _, pivot_rows = _echelon(m, levels)
        want = sorted((levels[i], targets[c]) for c, i in zip(pivots, pivot_rows))
        for _ in range(2):
            rows, cols = rng.sample(range(m.rows), m.rows), rng.sample(range(m.cols), m.cols)
            d = Matrix(m.cols, m.rows, {(cols[j], rows[i]): v for (i, j), v in m.entries.items()})
            source, target = [0] * m.rows, [0] * m.cols
            for i in range(m.rows):
                source[rows[i]] = levels[i]
            for j in range(m.cols):
                target[cols[j]] = targets[j]
            pairs = filtered_pivots(d, source, target)
            assert sorted((source[j], target[i]) for j, i in pairs) == want, label


def test_the_level_peel_needs_both_rules():
    """Without its level tests the peel would pair a row singleton under a
    deeper row of its column, or a column singleton beside a column of lower
    target in its row.  Here each rule holds back the one singleton that
    would break the pairs, and the pairs stay those of the forward pass."""
    one = gauss(1)
    # Row 0 (level 0) is a singleton in column 0, which row 1 (level 1)
    # also holds: the pairs are (1, 0) and (0, 1), not (0, 0) and (1, 1).
    rows_case = Matrix(2, 2, {(0, 0): one, (1, 0): one, (1, 1): one})
    # Columns 1 and 2 are singletons in rows 0 and 1, which both hold
    # column 0 (target 0): the pairs are (0, 0) and (0, 1), not (0, 2).
    cols_case = Matrix(2, 3, {(0, 0): one, (0, 1): one, (1, 0): one, (1, 2): one})
    for m, levels, targets in ((rows_case, [0, 1], [0, 1]), (cols_case, [0, 0], [0, 1, 2])):
        pivots, _, pivot_rows = _echelon(m, levels)
        want = sorted((levels[i], targets[c]) for c, i in zip(pivots, pivot_rows))
        pairs = filtered_pivots(m.transpose(), levels, targets)
        assert sorted((levels[j], targets[i]) for j, i in pairs) == want


def one_touch_matrix(shape, n):
    """An n x n matrix of ones each of whose pivots touches one or two rows:
    the lower bidiagonal one, or a permutation matrix."""
    one = gauss(1)
    if shape == "bidiagonal":
        entries = {(i, i): one for i in range(n)} | {(i + 1, i): one for i in range(n - 1)}
    else:
        perm = list(range(n))
        random.Random(n).shuffle(perm)
        entries = {(i, perm[i]): one for i in range(n)}
    return Matrix(n, n, entries)


@pytest.mark.parametrize("shape", ["bidiagonal", "permutation"])
def test_rank_work_follows_the_rows_a_pivot_touches(shape):
    """Each pivot of these 8000 x 8000 matrices touches one or two rows; an
    elimination that scans every live row per pivot takes seconds."""
    m = one_touch_matrix(shape, 8000)
    start = time.perf_counter()
    assert rank(m) == 8000
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("shape", ["bidiagonal", "permutation"])
def test_rref_work_follows_the_rows_a_pivot_touches(shape):
    """Back-substitution reads only the entries of the forward pass's pivot
    rows, so a pivot row that holds no later pivot column costs one dict
    lookup per entry and no arithmetic; a pass over every earlier pivot row
    for each pivot takes seconds on the 8000 x 8000 matrices.  On 2000 x 2000
    ones the RREF is the reference one."""
    m = one_touch_matrix(shape, 8000)
    start = time.perf_counter()
    assert rref(m) == (Matrix.identity(8000), tuple(range(8000)))
    assert time.perf_counter() - start < 1
    m = one_touch_matrix(shape, 2000)
    assert rref(m) == reference_rref(m)


def nil_complexes():
    """The nil4 and nil5 models (lambda = 1/2+i)."""
    return [lie_algebra_model(parse_model_file(text, name)).complex
            for name, text in (("nil4", NIL4), ("nil5", NIL5))]


def property_complexes():
    """nil4, nil5 and the property suite's six
    random_complex(200 + s, (0,5,0,5), 10 + 3s)."""
    return nil_complexes() + [random_complex(200 + s, (0, 5, 0, 5), 10 + 3 * s)
                              for s in range(6)]


def permuted(m, rng):
    """m with its rows and its columns each in a seeded random order."""
    rows, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return Matrix(m.rows, m.cols, {(rows[i], cols[j]): v for (i, j), v in m.entries.items()})


def test_rank_matches_reference_pivots():
    """rank(m) is the number of pivots of the reference kernel on the echelon
    and level cases, on every matrix that the five tables of nil4, nil5 and
    the property suite, and of their duals dual(a, 5), hand to `rank`, and
    on row and column permutations of those."""
    complexes = property_complexes()
    complexes += [dual(a, 5) for a in complexes]
    table_inputs = handed_to_rank(run_tables, complexes, TABLES.values())
    assert len(table_inputs) >= 500
    rng = random.Random(1990)
    cases = [m for _, m in echelon_cases()] + [m for _, m, _ in leveled_cases()]
    cases += table_inputs + [permuted(m, rng) for m in table_inputs for _ in range(2)]
    for m in cases:
        assert rank(m) == len(reference_echelon(m, False)[0]), (m.rows, m.cols)


def test_rank_peels_without_arithmetic():
    """A permuted triangular matrix peels a row at a time, and an arrow (one
    full row, one full column) peels a row and then a column.  With 100-bit
    Gaussian entries, neither rank calls the kernel or a row helper."""
    rng = random.Random(15)

    def big():
        return gauss(rng.randrange(1, 2 ** 100), rng.randrange(-2 ** 100, 2 ** 100))

    n = 30
    triangular = Matrix(n, n, {(i, j): big() for i in range(n) for j in range(i, n)
                               if j == i or rng.random() < 0.3})
    arrow = Matrix(n, n, {(i, j): big() for i in range(n) for j in range(n) if not i or not j})
    for m, want in ((permuted(triangular, rng), n), (permuted(arrow, rng), 2)):
        assert rank(m) == want == len(reference_echelon(m, False)[0])
        for helper in (linalg._echelon, linalg._combine, linalg._primitive):
            assert calls_into(helper.__code__, rank, m) == 0, helper.__name__


def dense_cases():
    """(label, matrix) pairs with every entry nonzero: square, tall and wide;
    of full rank and of deficient rank; with small and with 100-bit Gaussian
    entries.  In the "skipped column" ones, the lines that `_dense_rank`
    holds (the rows, or the columns of a tall matrix) have a column with no
    nonzero live entry after the first pivot and, from 3 x 4 on, another
    after the second."""
    rng = random.Random(1968)

    def small():
        return rng.choice(GAUSSIAN_POOL)

    def big():
        return gauss(rng.randrange(1, 2 ** 100), rng.randrange(-2 ** 100, 2 ** 100))

    def full(rows, cols, pick):
        return Matrix(rows, cols, {(i, j): pick() for i in range(rows) for j in range(cols)})

    def skipping(rows, cols, pick):
        # A rows x cols matrix, rows <= cols, whose column 1 is a multiple
        # of column 0, skipped after the first pivot, and whose column 3, if
        # there is one, is a sum of multiples of the pivot columns 0 and 2,
        # skipped after the second.
        m = [[pick() for _ in range(cols)] for _ in range(rows)]
        a, b, c = pick(), pick(), pick()
        for row in m:
            row[1] = a * row[0]
            if cols > 3:
                row[3] = b * row[0] + c * row[2]
        return Matrix.from_rows(m)

    shapes = [(2, 2), (3, 3), (5, 5), (8, 8), (2, 3), (2, 7), (3, 5), (4, 9),
              (3, 2), (7, 2), (5, 3), (9, 4)]
    for rows, cols in shapes:
        short, long = min(rows, cols), max(rows, cols)
        for size, pick in (("small", small), ("100-bit", big)):
            for k in range(4):
                kinds = {
                    "full": lambda: full(short, long, pick),
                    "rank 1": lambda: full(short, 1, pick) @ full(1, long, pick),
                    f"rank {short - 1}": lambda: (full(short, short - 1, pick)
                                                  @ full(short - 1, long, pick)),
                    "skipped column": lambda: skipping(short, long, pick),
                }
                for kind, draw in kinds.items():
                    m = draw()
                    while len(m.entries) < rows * cols:  # redraw until dense
                        m = draw()
                    if rows > cols:
                        m = m.transpose()
                    yield f"{kind} {rows}x{cols}, {size} {k}", m


def dense_table_inputs():
    """The matrices that the five tables of nil4, nil5 and the property
    suite, and of their duals dual(a, 5), hand to `rank` and that `rank`
    ranks by `_dense_rank`, on its whole input or on its peel core."""
    complexes = property_complexes()
    complexes += [dual(a, 5) for a in complexes]
    return [m for m in handed_to_rank(run_tables, complexes, TABLES.values())
            if calls_into(linalg._dense_rank.__code__, rank, m)]


def test_dense_rank_matches_fraction_free_oracle():
    """On dense matrices, and on seeded row and column permutations of the
    matrices that the tables hand to the dense route, `rank` equals
    `bareiss_rank` of tests/oracles.py."""
    rng = random.Random(1990)
    cases = list(dense_cases())
    table_inputs = dense_table_inputs()
    assert len(table_inputs) >= 300
    cases += [(f"table {m.rows}x{m.cols}, permuted", permuted(m, rng))
              for m in table_inputs for _ in range(2)]
    deficient = 0
    for label, m in cases:
        want = bareiss_rank([m.row(i) for i in range(m.rows)])
        assert rank(m) == want, label
        deficient += want < min(m.rows, m.cols)
    assert deficient >= 150


def test_rank_dispatches_dense_blocks_to_lists():
    """A matrix with no zero entry, or whose peel core has none, is ranked
    on lists by `_dense_rank` and never reaches `_echelon`; a matrix with a
    sparse core reaches `_echelon` once."""
    a, b, c, d, e, f = (gauss(2, 1), gauss(1, -2), gauss(3), gauss(-1, 1),
                        gauss(Fraction(1, 3)), gauss(0, 5))
    dense = Matrix.from_rows([[a, b, c], [d, e, f], [b, c, a], [e, f, d]])
    # Column 2 is a singleton: it peels with row 2, and rows 0, 1 by
    # columns 0, 1 are the core, dense.
    dense_core = Matrix.from_rows([[a, b, 0], [c, d, 0], [e, 0, f]])
    # Two entries in every row and every column, three zeros: nothing peels.
    sparse_core = Matrix.from_rows([[a, b, 0], [0, c, d], [e, 0, f]])
    for m, want, routes in ((dense, 3, (1, 0)), (dense_core, 3, (1, 0)),
                            (sparse_core, 3, (0, 1))):
        assert rank(m) == want == bareiss_rank([m.row(i) for i in range(m.rows)])
        got = tuple(calls_into(fn.__code__, rank, m) for fn in (linalg._dense_rank, _echelon))
        assert got == routes, (m, got)


def test_dense_rank_updates_each_other_live_row_once_per_pivot(monkeypatch):
    """On a dense matrix of full rank, each step updates every live row but
    the pivot row, and on a tall one the lines are the columns: a 6 x 6
    matrix and a 9 x 4 one (four lines of nine) update 5 + 4 + 3 + 2 + 1 + 0
    and 3 + 2 + 1 + 0 rows."""
    step = linalg._bareiss_step
    updated = []

    def recording(lines, piv, prev):
        updated.append((len(lines), len(piv)))
        return step(lines, piv, prev)

    monkeypatch.setattr(linalg, "_bareiss_step", recording)
    rng = random.Random(6)
    for rows, cols in ((6, 6), (9, 4)):
        m = Matrix(rows, cols, {(i, j): gauss(rng.randint(1, 9), rng.randint(-9, 9))
                                for i in range(rows) for j in range(cols)})
        updated.clear()
        assert rank(m) == cols
        short, long = min(rows, cols), max(rows, cols)
        assert updated == [(short - 1 - k, long - k) for k in range(short)], (rows, cols)


def test_every_dense_division_is_exact(monkeypatch):
    """`_bareiss_step` floors when it divides (pv t - c piv) by prev; here
    each numerator is rebuilt from the arguments and its zero remainder
    asserted, over the dense cases, and over every dense matrix or dense
    peel core that the tables and the Frolicher pages of nil4, nil5 and the
    property suite rank.  Steps after a skipped column are among them."""
    step = linalg._bareiss_step
    divisions = after_skip = 0
    width = None

    def checked(lines, piv, prev):
        nonlocal divisions, after_skip, width
        (pr, pi), (dr, di) = piv[0], prev
        n = dr * dr + di * di
        for t in lines:
            (cr, ci) = t[0]
            for (a, b), (u, v) in zip(t[1:], piv[1:]):
                x, y = pr * a - pi * b - cr * u + ci * v, pr * b + pi * a - cr * v - ci * u
                assert (x * dr + y * di) % n == 0 == (y * dr - x * di) % n, prev
                divisions += prev != (1, 0)
        # A step's rows start at its pivot column, so a pivot row shorter
        # than the rows the step before left follows a skipped column.
        if prev != (1, 0) and len(piv) < width:
            after_skip += 1
        width = len(piv) - 1
        return step(lines, piv, prev)

    monkeypatch.setattr(linalg, "_bareiss_step", checked)
    for label, m in dense_cases():
        rank(m)
    assert after_skip >= 100
    assert divisions > 3000
    divisions = 0
    run_tables(property_complexes(), (*TABLES.values(), frolicher))
    assert divisions >= 400


def test_gaussian_gcd_matches_search():
    """For every a and b over Z[i] with parts in [-6, 6], units and zero
    among them, `_gcd` gives a common divisor of a and b with the norm of
    the one `gaussian_gcd` of tests/oracles.py finds by search, the largest
    norm of any common divisor; two zeros give zero."""
    values = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    for a in values:
        for b in values:
            g, want = linalg._gcd(a, b), gaussian_gcd(a, b)
            assert g[0] ** 2 + g[1] ** 2 == want[0] ** 2 + want[1] ** 2, (a, b, g, want)
            if g != (0, 0):
                assert gaussian_divides(g, a) and gaussian_divides(g, b), (a, b, g)


def test_every_content_division_is_exact(monkeypatch):
    """The forward pass divides pv and c by their gcd g over Z[i], and each
    new row by the gcd of its ints, both by floor division; here each g is
    checked to divide pv and c with zero remainders, and each row that
    `_primitive` returns to be its argument over that int gcd, with ints of
    gcd 1.  The inputs are the forward pass on the echelon cases and the
    level cases, every table and the Frolicher pages of nil4, nil5 and the
    property suite's six random_complex(200 + s, (0,5,0,5), 10 + 3s), and
    the forward pass on every matrix that those tables hand to `rank`.
    6833 of their gcds are not units, and 5068 of their rows have an int
    gcd above 1."""
    kernel_gcd, primitive = linalg._gcd, linalg._primitive
    non_units = divided = 0

    def checked_gcd(a, b):
        nonlocal non_units
        g = kernel_gcd(a, b)
        assert gaussian_divides(g, a) and gaussian_divides(g, b), (a, b, g)
        non_units += g[0] ** 2 + g[1] ** 2 != 1
        return g

    def checked_primitive(row):
        nonlocal divided
        out = primitive(row)
        ints = [x for v in row.values() for x in v]
        g = gcd(*ints)
        assert [g * x for v in out.values() for x in v] == ints, row
        assert gcd(*(x for v in out.values() for x in v)) == (1 if row else 0), row
        divided += g > 1
        return out

    monkeypatch.setattr(linalg, "_gcd", checked_gcd)
    monkeypatch.setattr(linalg, "_primitive", checked_primitive)
    for label, m in echelon_cases():
        _echelon(m)
    for label, m, levels in leveled_cases():
        _echelon(m, levels)
    for m in handed_to_rank(run_tables, property_complexes(), (*TABLES.values(), frolicher)):
        _echelon(m)
    assert non_units >= 6800
    assert divided >= 5000


def test_forward_pass_rows_stay_short_on_nil4_and_nil5(monkeypatch):
    """Every input entry of the nil4 and nil5 tables is +-1 or 1/2+i.  Over
    every forward-pass pivot row of their five tables, and of the forward
    pass on each matrix they hand to `rank`, no real or imaginary part
    exceeds 4 bits: each row is divided by the gcd of its ints after every
    step.  With Bareiss's divisor chain in its place they reached 20 bits,
    and 57 with every pivot in that chain."""
    kernel = linalg._echelon
    bits = 0

    def recording(m, levels=None):
        nonlocal bits
        result = kernel(m, levels)
        bits = max([bits] + [abs(x).bit_length() for row in result[1]
                             for v in row.values() for x in v])
        return result

    monkeypatch.setattr(linalg, "_echelon", recording)
    for m in handed_to_rank(run_tables, nil_complexes(), TABLES.values()):
        linalg._echelon(m)
    assert 0 < bits <= 4


def test_lone_pivots_cost_no_arithmetic():
    """Rows that share no column: every pivot is alone in its bucket, so the
    forward pass neither rescales nor divides any row, nor takes its gcd."""
    rng = random.Random(13)
    n, pool = 40, [gauss(2), gauss(-4), gauss(2, 2), gauss(6, -2)]
    blocks = list(range(n))
    rng.shuffle(blocks)
    entries = {(i, 3 * blocks[i] + k): rng.choice(pool)
               for i in range(n) for k in range(3) if k == 0 or rng.random() < 0.5}
    m = Matrix(n, 3 * n, entries)
    assert pivot_columns(m) == tuple(range(0, 3 * n, 3))
    for helper in (linalg._combine, linalg._primitive):
        assert calls_into(helper.__code__, pivot_columns, m) == 0, helper.__name__
