"""An independent Bareiss route to the forward pass of the elimination kernel.

`bicomplex.linalg._echelon` keeps the rows that are not yet pivot rows in
buckets by their leading column, and makes each row it clears into
(pv/g) t - (c/g) r, g a gcd over Z[i], divided by the gcd of its ints.
This module eliminates another way, by lazy one-step Bareiss: each pivot
scans every live row for the next pivot column, for the pivot row and for
the rows to eliminate; every row is made primitive up front, every pivot
joins the divisor chain, and each row is divided exactly by the divisor it
is current with.  Both keep each row a nonzero multiple of the row of
Gaussian elimination over Q(i) with the same choices, so the two must
return the same pivots and pivot row indices on every matrix, and pivot
rows equal up to a nonzero scalar.  It has no row levels: the kernel's
calls without them are the ones it checks.  It reads only the stored form
of a `Matrix` and has its own row helpers.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from bicomplex.linalg import Matrix


def _primitive(row: dict[int, tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """row divided by the gcd of its ints."""
    g = gcd(*chain.from_iterable(row.values()))
    return {j: (a // g, b // g) for j, (a, b) in row.items()} if g > 1 else row


def _gaussian_rows(m: Matrix) -> list[dict[int, tuple[int, int]]]:
    """The rows of m's form, each divided by the gcd of its ints."""
    rows: list[dict[int, tuple[int, int]]] = [{} for _ in range(m.rows)]
    for (i, j), v in m._num.items():
        rows[i][j] = v
    return [_primitive(row) for row in rows]


def _times(row: dict, s: tuple[int, int]) -> dict:
    """row * s over Z[i]."""
    sr, si = s
    return {j: (a * sr - b * si, a * si + b * sr) for j, (a, b) in row.items()}


def _exact_div(row: dict[int, tuple[int, int]], d: tuple[int, int]) -> dict[int, tuple[int, int]]:
    """row / d over Z[i]; the caller guarantees that the division is exact."""
    if d == (1, 0):
        return row
    dr, di = d
    n = dr * dr + di * di
    return {j: ((a * dr + b * di) // n, (b * dr - a * di) // n) for j, (a, b) in row.items()}


def reference_echelon(m: Matrix, reduce: bool,
                      ) -> tuple[list[int], list[dict[int, tuple[int, int]]], list[int]]:
    """Pivot columns of m, its pivot rows, each a nonzero multiple of its
    RREF row, and the index in m of each pivot row, by lazy Bareiss
    elimination over Z[i].

    Columns are taken in order.  reduce=False eliminates below the pivots
    only; reduce=True also clears the pivot column from the earlier pivot
    rows (Gauss-Jordan).
    """
    rows = _gaussian_rows(m)
    div = [(1, 0)] * m.rows
    prev = (1, 0)
    # Leading column of every row not yet a pivot row; the least of them is
    # the next pivot column.
    lead = {i: min(row) for i, row in enumerate(rows) if row}
    pivots: list[int] = []
    pivot_rows: list[int] = []
    while lead:
        col = min(lead.values())
        best = min((i for i, c in lead.items() if c == col), key=lambda i: len(rows[i]))
        del lead[best]
        piv = rows[best]
        if div[best] != prev:
            piv = rows[best] = _exact_div(_times(piv, prev), div[best])
        pv = piv[col]
        targets = [i for i, c in lead.items() if c == col]
        if reduce:
            targets += [i for i in pivot_rows if col in rows[i]]
        for t in targets:
            cr, ci = rows[t][col]
            new = _times(rows[t], pv)
            for j, (a, b) in piv.items():
                x, y = new.get(j, (0, 0))
                x -= a * cr - b * ci
                y -= a * ci + b * cr
                if x or y:
                    new[j] = (x, y)
                else:
                    del new[j]
            rows[t] = new = _exact_div(new, div[t])
            div[t] = pv
            if t in lead:
                if new:
                    lead[t] = min(new)
                else:
                    del lead[t]
        div[best] = prev = pv
        pivots.append(col)
        pivot_rows.append(best)
    return pivots, [rows[i] for i in pivot_rows], pivot_rows
