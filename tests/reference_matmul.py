"""The Fraction matrix product, kept as a second route.

`bicomplex.linalg.Matrix.__matmul__` multiplies over the Gaussian integers
after scaling each factor by one common denominator.  This module keeps the
plain product on `GaussianRational` entries, one scalar multiplication and
one addition per pair of matching entries, so the two can be compared on
any pair of matrices.  It shares only `Matrix` and the scalar type with the
package.
"""

from __future__ import annotations

from bicomplex.linalg import Matrix
from bicomplex.scalars import GaussianRational, ZERO


def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b, summed entry by entry in Q(i)."""
    if a.cols != b.rows:
        raise ValueError(
            f"shape mismatch in product: {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    by_row: dict[int, list[tuple[int, GaussianRational]]] = {}
    for (k, j), v in b.entries.items():
        by_row.setdefault(k, []).append((j, v))
    acc: dict[tuple[int, int], GaussianRational] = {}
    for (i, k), x in a.entries.items():
        for j, y in by_row.get(k, ()):
            key = (i, j)
            s = acc.get(key, ZERO) + x * y
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return Matrix(a.rows, b.cols, acc)
