"""Every Matrix operation against entrywise GaussianRational arithmetic.

A Matrix stores its entries over Z[i] with one least common denominator.
Each result is therefore checked twice: with `==` against the matrix the
public constructor builds from the expected entries, which fails if a
denominator was not brought down to the least one, and through `.entries`,
which fails if a value is wrong.  Entries come from the pools of
`test_linalg` (mixed denominators, Gaussian and real), shapes include empty
ones, and some operands cancel each other in part or in full.
"""

import random
from fractions import Fraction

import pytest

from bicomplex.linalg import Matrix, assemble, hstack, kron, vstack
from bicomplex.scalars import ONE, ZERO, gauss

from test_linalg import GAUSSIAN_POOL, REAL_POOL

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 3), (5, 5)]


def draw(rng, rows, cols, density, pool) -> dict:
    return {(i, j): rng.choice(pool)
            for i in range(rows) for j in range(cols) if rng.random() < density}


def check(got: Matrix, rows: int, cols: int, want: dict) -> None:
    want = {k: v for k, v in want.items() if v}
    assert got == Matrix(rows, cols, want)
    assert (got.rows, got.cols, got.entries) == (rows, cols, want)


def pairs(seed: int, count: int = 84):
    """(rows, cols, a, b): entry dicts of one shape; every fourth b cancels
    part of a, and the next one all of it."""
    rng = random.Random(seed)
    for k in range(count):
        pool = GAUSSIAN_POOL if k % 2 else REAL_POOL
        rows, cols = SHAPES[k % len(SHAPES)]
        density = (0.2, 0.6, 1.0)[k % 3]
        a = draw(rng, rows, cols, density, pool)
        b = draw(rng, rows, cols, density, pool)
        if k % 4 == 1:
            b = {key: -v for key, v in a.items() if rng.random() < 0.7} | {
                key: v for key, v in b.items() if key not in a}
        elif k % 4 == 2:
            b = {key: -v for key, v in a.items()}
        yield rows, cols, a, b


def test_add_sub_and_negate():
    cancelled = 0
    for rows, cols, a, b in pairs(1):
        ma, mb = Matrix(rows, cols, a), Matrix(rows, cols, b)
        check(ma + mb, rows, cols, {k: a.get(k, ZERO) + b.get(k, ZERO) for k in a | b})
        check(ma - mb, rows, cols, {k: a.get(k, ZERO) - b.get(k, ZERO) for k in a | b})
        check(-ma, rows, cols, {k: -v for k, v in a.items()})
        cancelled += bool(a) and (ma + mb).is_zero()
    assert cancelled >= 10


def test_sum_brings_the_denominator_down():
    a = Matrix.from_rows([[Fraction(1, 7), Fraction(1, 3)]])
    b = Matrix.from_rows([[Fraction(-1, 7), Fraction(2, 3)]])
    check(a + b, 1, 2, {(0, 1): ONE})
    check(a - a, 1, 2, {})


@pytest.mark.parametrize("scalar", [
    0, 1, -1, 2, Fraction(-5, 7), gauss(0, 1), gauss(Fraction(3, 2), Fraction(-1, 4)),
    gauss(Fraction(7, 5), 0),
])
def test_scale(scalar):
    c = gauss(scalar) if not hasattr(scalar, "re") else scalar
    for rows, cols, a, _ in pairs(2, 28):
        check(Matrix(rows, cols, a).scale(scalar), rows, cols, {k: v * c for k, v in a.items()})


def test_transpose_and_conjugate():
    for rows, cols, a, _ in pairs(3):
        m = Matrix(rows, cols, a)
        check(m.transpose(), cols, rows, {(j, i): v for (i, j), v in a.items()})
        check(m.conjugate(), rows, cols, {k: v.conjugate() for k, v in a.items()})


def test_kron():
    rng = random.Random(4)
    for k in range(60):
        pool = GAUSSIAN_POOL if k % 2 else REAL_POOL
        (r1, c1), (r2, c2) = rng.choice(SHAPES[:5]), rng.choice(SHAPES[:5])
        a, b = draw(rng, r1, c1, 0.6, pool), draw(rng, r2, c2, 0.6, pool)
        want = {(ia * r2 + ib, ja * c2 + jb): va * vb
                for (ia, ja), va in a.items() for (ib, jb), vb in b.items()}
        check(kron(Matrix(r1, c1, a), Matrix(r2, c2, b)), r1 * r2, c1 * c2, want)


def test_hstack_vstack_and_assemble():
    rng = random.Random(5)
    for k in range(80):
        pool = GAUSSIAN_POOL if k % 2 else REAL_POOL
        row_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        col_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        blocks = {(bi, bj): draw(rng, r, c, 0.7, pool)
                  for bi, r in enumerate(row_dims) for bj, c in enumerate(col_dims)
                  if rng.random() < 0.6}
        want = {}
        for (bi, bj), entries in blocks.items():
            ro, co = sum(row_dims[:bi]), sum(col_dims[:bj])
            want.update({(i + ro, j + co): v for (i, j), v in entries.items()})
        mats = {key: Matrix(row_dims[key[0]], col_dims[key[1]], e) for key, e in blocks.items()}
        check(assemble(row_dims, col_dims, mats), sum(row_dims), sum(col_dims), want)

        row = [Matrix(row_dims[0], c, draw(rng, row_dims[0], c, 0.7, pool)) for c in col_dims]
        check(hstack(row), row_dims[0], sum(col_dims),
              {(i, j + sum(col_dims[:n])): v for n, m in enumerate(row) for (i, j), v in m.entries.items()})
        column = [Matrix(r, col_dims[0], draw(rng, r, col_dims[0], 0.7, pool)) for r in row_dims]
        check(vstack(column), sum(row_dims), col_dims[0],
              {(i + sum(row_dims[:n]), j): v for n, m in enumerate(column) for (i, j), v in m.entries.items()})
    with pytest.raises(ValueError):
        hstack([Matrix.zero(2, 1), Matrix.zero(3, 1)])
    with pytest.raises(ValueError):
        vstack([Matrix.zero(1, 2), Matrix.zero(1, 3)])


def test_slicing():
    rng = random.Random(6)
    for rows, cols, a, _ in pairs(7):
        m = Matrix(rows, cols, a)
        r0, r1 = sorted(rng.randint(0, rows) for _ in range(2))
        c0, c1 = sorted(rng.randint(0, cols) for _ in range(2))
        want = {(i - r0, j - c0): v for (i, j), v in a.items() if r0 <= i < r1 and c0 <= j < c1}
        check(m[r0:r1, c0:c1], r1 - r0, c1 - c0, want)
        check(m[r0:, :], rows - r0, cols, {(i - r0, j): v for (i, j), v in a.items() if i >= r0})
        check(m[:, :], rows, cols, a)
    with pytest.raises(ValueError):
        Matrix.identity(3)[::2, :]


def test_row_and_column_round_trips():
    for rows, cols, a, _ in pairs(8):
        m = Matrix(rows, cols, a)
        check(Matrix.from_columns([m.column(j) for j in range(cols)], rows), rows, cols, a)
        if rows:
            check(Matrix.from_rows([m.row(i) for i in range(rows)]), rows, cols, a)
        assert all(m.row(i)[j] == a.get((i, j), ZERO) for i in range(rows) for j in range(cols))
