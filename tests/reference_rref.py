"""The Fraction Gauss-Jordan elimination, kept as a second route.

`bicomplex.linalg.rref` and `pivot_columns` eliminate fraction-free over the
Gaussian integers.  This module keeps the plain Gauss-Jordan elimination on
`GaussianRational` entries, one inverse and one normalized pivot row per
step, so the two can be compared on any matrix.  It shares only `Matrix`
and the scalar type with the package.
"""

from __future__ import annotations

from bicomplex.linalg import Matrix
from bicomplex.scalars import GaussianRational, ZERO


def reference_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Exact Gauss-Jordan elimination with pivot rows normalized to 1.  Among
    candidate pivot rows the sparsest is chosen (ties by lowest index), which
    keeps fill-in reasonable on the very sparse matrices we feed it.  The
    result is the canonical RREF, hence independent of those choices.
    """
    rows: list[dict[int, GaussianRational]] = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    pivots: list[int] = []
    pivot_rows: list[dict[int, GaussianRational]] = []
    free = list(range(m.rows))
    for col in range(m.cols):
        best = None
        for idx in free:
            if col in rows[idx]:
                if best is None or len(rows[idx]) < len(rows[best]):
                    best = idx
        if best is None:
            continue
        free.remove(best)
        piv = rows[best]
        inv = piv[col].inverse()
        piv = {j: v * inv for j, v in piv.items()}
        for target in [rows[i] for i in free] + pivot_rows:
            c = target.get(col)
            if c is None:
                continue
            for j, v in piv.items():
                s = target.get(j, ZERO) - c * v
                if s:
                    target[j] = s
                else:
                    target.pop(j, None)
        pivots.append(col)
        pivot_rows.append(piv)
    entries = {
        (i, j): v for i, row in enumerate(pivot_rows) for j, v in row.items()
    }
    return Matrix(m.rows, m.cols, entries), tuple(pivots)
