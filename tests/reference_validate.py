"""The axiom and morphism checks by matrix products, kept as a second route.

`bicomplex.complexes.validate` and `Morphism` decide each identity as one
vanishing sum of signed products over Z[i], and build no product matrix.
This module keeps the checks as they were written first: every product is
a `Matrix`, the anticommutator is a matrix sum, and the sigma and morphism
identities compare two products with `!=`.  It shares only `Matrix`, the
complex accessors, `Violation` and `MorphismError` with the package.
"""

from __future__ import annotations

from bicomplex.complexes import DoubleComplex, MorphismError, Violation
from bicomplex.linalg import Matrix


def reference_validate(a: DoubleComplex) -> list[Violation]:
    """All double-complex axioms, blockwise, by matrix products."""
    out: list[Violation] = []
    for p, q in a.bidegrees():
        if not (a.d1_at(p + 1, q) @ a.d1_at(p, q)).is_zero():
            out.append(Violation(p, q, "d1 . d1 != 0"))
        if not (a.d2_at(p, q + 1) @ a.d2_at(p, q)).is_zero():
            out.append(Violation(p, q, "d2 . d2 != 0"))
        anti = a.d2_at(p + 1, q) @ a.d1_at(p, q) + a.d1_at(p, q + 1) @ a.d2_at(p, q)
        if not anti.is_zero():
            out.append(Violation(p, q, "d1 d2 + d2 d1 != 0"))
    if a.sigma is not None:
        for p, q in a.bidegrees():
            s = a.sigma_at(p, q)
            back = a.sigma_at(q, p) @ s.conjugate()
            if back != Matrix.identity(a.dim(p, q)):
                out.append(Violation(p, q, "sigma is not an involution"))
            lhs = a.sigma_at(p + 1, q) @ a.d1_at(p, q).conjugate()
            rhs = a.d2_at(q, p) @ s
            if lhs != rhs:
                out.append(Violation(p, q, "sigma d1 sigma != d2"))
            lhs = a.sigma_at(p, q + 1) @ a.d2_at(p, q).conjugate()
            rhs = a.d1_at(q, p) @ s
            if lhs != rhs:
                out.append(Violation(p, q, "sigma d2 sigma != d1"))
    return out


def reference_commutation(source: DoubleComplex, target: DoubleComplex,
                          blocks: dict) -> None:
    """Raise MorphismError at the first bidegree where the blocks do not
    commute with d1 or d2, by matrix products; blocks absent are zero."""

    def block_at(p: int, q: int) -> Matrix:
        m = blocks.get((p, q))
        return m if m is not None else Matrix.zero(target.dim(p, q), source.dim(p, q))

    support = set(source.dims) | set(target.dims)
    for p, q in sorted(support):
        f = block_at(p, q)
        if target.d1_at(p, q) @ f != block_at(p + 1, q) @ source.d1_at(p, q):
            raise MorphismError(f"blocks do not commute with d1 at ({p}, {q})")
        if target.d2_at(p, q) @ f != block_at(p, q + 1) @ source.d2_at(p, q):
            raise MorphismError(f"blocks do not commute with d2 at ({p}, {q})")
