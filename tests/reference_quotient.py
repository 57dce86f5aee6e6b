"""The quotient frame by two eliminations per bidegree, kept as a second route.

`bicomplex.complexes.quotient` reads the chosen vectors and the inverse of
the frame [block | lift] from one RREF of [block | I], or from the block's
positions where it is a coordinate inclusion, and tests whether the image
is sigma-stable with one product per bidegree.  This module keeps
the frame as it was written first: the chosen vectors from the pivot
columns of [block | I], the inverse of the frame from a second elimination
that solves [block | lift] X = I, and sigma-stability from a solve per
bidegree.  It shares only `Matrix`, the subspace solvers, the complex and
morphism types and `NotInjective` with the package.
"""

from __future__ import annotations

from bicomplex.complexes import BiDegree, DoubleComplex, Morphism, NotInjective
from bicomplex.linalg import Matrix, hstack, pivot_columns, solve_columns
from bicomplex.scalars import ONE


def reference_quotient(f: Morphism) -> tuple[DoubleComplex, Morphism]:
    """Cokernel of a blockwise injective morphism, with the projection."""
    tgt = f.target
    lifts: dict[BiDegree, Matrix] = {}
    projs: dict[BiDegree, Matrix] = {}
    dims: dict[BiDegree, int] = {}
    labels: dict[BiDegree, tuple[str, ...]] | None = {} if tgt.labels is not None else None
    for pq in sorted(set(tgt.dims) | set(f.source.dims)):
        n_tgt = tgt.dim(*pq)
        n_src = f.source.dim(*pq)
        block = f.block_at(*pq)
        pivots = pivot_columns(hstack([block, Matrix.identity(n_tgt)]))
        if len([p for p in pivots if p < n_src]) != n_src:
            raise NotInjective(*pq)
        chosen = [p - n_src for p in pivots if p >= n_src]
        dims[pq] = len(chosen)
        lift = Matrix(n_tgt, len(chosen), {(e, k): ONE for k, e in enumerate(chosen)})
        inverse = solve_columns(hstack([block, lift]), Matrix.identity(n_tgt))
        if inverse is None:
            raise RuntimeError(f"quotient: the frame at bidegree {pq} is not invertible")
        lifts[pq] = lift
        projs[pq] = inverse[n_src:, :]
        if labels is not None:
            base = tgt.labels.get(pq, tuple(f"e{k}" for k in range(n_tgt)))
            labels[pq] = tuple(base[e] for e in chosen)

    def induced(block_at, target_of):
        out = {}
        for pq, n in dims.items():
            tpq = target_of(*pq)
            if dims.get(tpq, 0) and n:
                out[pq] = projs[tpq] @ block_at(*pq) @ lifts[pq]
        return out

    q_sigma = None
    if tgt.sigma is not None and reference_image_sigma_stable(f):
        q_sigma = induced(tgt.sigma_at, lambda p, q: (q, p))
    q_d1 = induced(tgt.d1_at, lambda p, q: (p + 1, q))
    q_d2 = induced(tgt.d2_at, lambda p, q: (p, q + 1))
    result = DoubleComplex(dims, q_d1, q_d2, q_sigma, labels)
    return result, Morphism(tgt, result, {pq: m for pq, m in projs.items() if dims.get(pq, 0)})


def reference_image_sigma_stable(f: Morphism) -> bool:
    """Whether sigma maps the image of f into itself: at each bidegree
    (p, q), S^{p,q} conj(block^{p,q}) solves against block^{q,p}."""
    for p, q in f.source.dims:
        moved = f.target.sigma_at(p, q) @ f.block_at(p, q).conjugate()
        dest = f.block_at(q, p)
        if dest.cols == 0:
            if not moved.is_zero():
                return False
        elif solve_columns(dest, moved) is None:
            return False
    return True
