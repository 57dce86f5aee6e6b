"""The change of basis of `random_complex` with sigma's factor solved for.

`complexes._random_basis_change` conjugates sigma by the stored inverse of
each change of basis C, conjugated entrywise, since conj(C)^-1 = conj(C^-1).
This module keeps the earlier route, which solves conj(C) X = I a second time
at every bidegree, so the tests can check that the two build equal complexes.
"""

from __future__ import annotations

import random

from bicomplex.complexes import DoubleComplex, _random_unit_factors
from bicomplex.linalg import Matrix, solve_columns


def _random_invertible(rng: random.Random, n: int) -> Matrix:
    """Unit lower times unit upper triangular with small random entries,
    from the same draws as one change of basis of `_random_basis_change`."""
    lower, upper = _random_unit_factors(rng, n)
    return lower @ upper


def reference_random_basis_change(rng: random.Random, a: DoubleComplex) -> DoubleComplex:
    change = {pq: _random_invertible(rng, n) for pq, n in sorted(a.dims.items())}
    inverse = {pq: solve_columns(c, Matrix.identity(c.rows)) for pq, c in change.items()}

    def conjugated(blocks, target_of):
        return {pq: change.get(target_of(pq), Matrix.identity(m.rows)) @ m @ inverse[pq]
                for pq, m in blocks.items()}

    d1 = conjugated(a.d1, lambda pq: (pq[0] + 1, pq[1]))
    d2 = conjugated(a.d2, lambda pq: (pq[0], pq[1] + 1))
    sigma = None
    if a.sigma is not None:
        sigma = {}
        for pq, m in a.sigma.items():
            left = change.get((pq[1], pq[0]), Matrix.identity(m.rows))
            conj_inv = solve_columns(change[pq].conjugate(), Matrix.identity(m.cols))
            sigma[pq] = left @ m @ conj_inv
    return DoubleComplex(a.dims, d1, d2, sigma, a.labels)
