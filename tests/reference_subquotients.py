"""Subspaces and subquotients built explicitly, kept as a second route.

`bicomplex.cohomology` reads every table off ranks, and the spaces of an
induced map off the blocks its Analysis keeps.  This module builds the
Bott-Chern and Aeppli cycles and boundaries straight from the stored d1
and d2 blocks (`bott_chern_spaces`, `aeppli_spaces`), and the subspace
operations that compare them: sums, intersections, containment, the
dimension of a subquotient and the map a matrix induces on one, solved for
column by column rather than read off the package's frame
(`linalg._induced_map`).  It shares only `Matrix` and the elimination
routines with the package.
"""

from __future__ import annotations

from bicomplex.complexes import DoubleComplex
from bicomplex.linalg import (
    Matrix,
    NotASubspace,
    NotWellDefined,
    canonical_span,
    coset_representatives,
    hstack,
    image_basis,
    kernel_basis,
    solve_columns,
    vstack,
)


class AmbientMismatch(ValueError):
    """Two subspaces were combined although they live in different ambient spaces."""


def bott_chern_spaces(a: DoubleComplex, p: int, q: int) -> tuple[Matrix, Matrix]:
    """(cycles, boundaries) whose quotient is Bott-Chern cohomology at (p, q)."""
    z = canonical_span(kernel_basis(vstack([a.d1_at(p, q), a.d2_at(p, q)])))
    b = image_basis(a.d1_at(p - 1, q) @ a.d2_at(p - 1, q - 1))
    return z, b


def aeppli_spaces(a: DoubleComplex, p: int, q: int) -> tuple[Matrix, Matrix]:
    """(cycles, boundaries) whose quotient is Aeppli cohomology at (p, q)."""
    z = kernel_basis(a.d1_at(p, q + 1) @ a.d2_at(p, q))
    b = canonical_span(hstack([a.d1_at(p - 1, q), a.d2_at(p, q - 1)]))
    return z, b


def is_subspace(inner: Matrix, outer: Matrix) -> bool:
    if inner.rows != outer.rows:
        raise AmbientMismatch("bases live in different ambient spaces")
    return inner.cols == 0 or solve_columns(outer, inner) is not None


def subspace_sum(u: Matrix, v: Matrix) -> Matrix:
    """Canonical basis of span(u) + span(v)."""
    if u.rows != v.rows:
        raise AmbientMismatch("bases live in different ambient spaces")
    return canonical_span(hstack([u, v]))


def subspace_intersection(u: Matrix, v: Matrix) -> Matrix:
    """Canonical basis of span(u) & span(v), via the kernel of [U | -V]."""
    if u.rows != v.rows:
        raise AmbientMismatch("bases live in different ambient spaces")
    if u.cols == 0 or v.cols == 0:
        return Matrix.zero(u.rows, 0)
    ker = kernel_basis(hstack([u, -v]))
    return canonical_span(u @ ker[:u.cols, :])


def subquotient_dim(z: Matrix, b: Matrix) -> int:
    """dim(span(z) / span(b)); raises NotASubspace unless span(b) <= span(z)."""
    if z.rows != b.rows:
        raise AmbientMismatch("bases live in different ambient spaces")
    if not is_subspace(b, z):
        raise NotASubspace("denominator is not contained in numerator")
    return z.cols - b.cols


def induced_subquotient_map(f: Matrix, z_src: Matrix, b_src: Matrix,
                            z_tgt: Matrix, b_tgt: Matrix) -> Matrix:
    """Matrix of the map (z_src/b_src) -> (z_tgt/b_tgt) induced by f.

    Coset bases are the deterministic representatives of coset_representatives,
    so induced matrices compose: induced(g @ f) = induced(g) @ induced(f).
    Both sides' representatives are found here, and the map is solved for:
    f b_src must solve in b_tgt, and each column of f reps_src in the basis
    [b_tgt | reps_tgt], whose coordinates on reps_tgt are its column of the
    induced matrix (`solve_columns`).  Raises NotASubspace unless b_src and
    b_tgt each have independent columns, and NotWellDefined, with the
    package's messages, unless f maps span(b_src) into span(b_tgt) and
    span(z_src) into span(z_tgt) + span(b_tgt).
    """
    if f.cols != z_src.rows or f.rows != z_tgt.rows:
        raise AmbientMismatch("map shape does not match the ambient spaces")
    reps_src = coset_representatives(z_src, b_src)
    reps_tgt = coset_representatives(z_tgt, b_tgt)
    if solve_columns(b_tgt, f @ b_src) is None:
        raise NotWellDefined("f does not map the source boundaries into the target boundaries")
    coords = solve_columns(hstack([b_tgt, reps_tgt]), f @ reps_src)
    if coords is None:
        raise NotWellDefined("f does not map the source cycles into the target cycles")
    return coords[b_tgt.cols:, :]
