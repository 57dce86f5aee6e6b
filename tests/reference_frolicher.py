"""The Frolicher pages as explicit subquotients, kept as a second route.

`bicomplex.frolicher` computes every page from ranks of filtered blocks of
the total differential.  This module computes the same pages the long way,
as explicit subquotients of coordinate-vector bases inside the total complex,
so the two can be compared on any complex.  It reaches into the package's
`Totalization` and linear algebra, which is why it is not part of
`oracles.py`.

`transposed_row_pages` keeps the earlier route to the row pages: the column
pages of the transposed complex, with every bidegree flipped back.
"""

from __future__ import annotations

from bicomplex.cohomology import SpectralSequenceResult, Totalization, frolicher
from bicomplex.complexes import DoubleComplex, transpose_complex
from bicomplex.linalg import Matrix, canonical_span, hstack, kernel_basis
from bicomplex.scalars import ONE as _O, ZERO as _Z


class _FilteredTotalization(Totalization):
    """The total complex with coordinate bases of the column filtration."""

    def filtration_columns(self, k: int, p: int) -> list[int]:
        """Coordinate indices of F^p inside T^k."""
        out = []
        for pq, off in self.offsets.get(k, {}).items():
            if pq[0] >= p:
                out.extend(range(off, off + self.complex.dim(*pq)))
        return sorted(out)

    def filtration_basis(self, k: int, p: int) -> Matrix:
        n = self.dim(k)
        vectors = []
        for j in self.filtration_columns(k, p):
            v = [_Z] * n
            v[j] = _O
            vectors.append(tuple(v))
        return Matrix.from_columns(vectors, n)


class _ColumnSpectralSequence:
    """Pages of the column-filtration spectral sequence via subquotients.

    With F the column filtration on the total complex and n = p + q,

        Z_r^{p,q} = F^p T^n  intersect  d^{-1}(F^{p+r} T^{n+1})
        E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2})

    with Z_0^{p,q} = F^p T^n.  All spaces are realized as coordinate-vector
    bases inside T^n, so everything reduces to kernels and ranks.  Bounded
    support means no differential d_r can be nonzero once r exceeds
    min(width, height + 1), which caps the page list.
    """

    def __init__(self, a: DoubleComplex):
        self.a = a
        self.tot = _FilteredTotalization(a)
        self._z: dict[tuple[int, int, int], Matrix] = {}

    def z_basis(self, r: int, p: int, q: int) -> Matrix:
        key = (r, p, q)
        if key in self._z:
            return self._z[key]
        k = p + q
        n = self.tot.dim(k)
        cols = self.tot.filtration_columns(k, p)
        if r == 0 or not cols:
            basis = self.tot.filtration_basis(k, p)
        else:
            d = self.tot.differential(k).entries
            outside = [
                j
                for pq, off in self.tot.offsets.get(k + 1, {}).items()
                if pq[0] < p + r
                for j in range(off, off + self.a.dim(*pq))
            ]
            restricted = Matrix(
                len(outside),
                len(cols),
                {
                    (oi, ci): d[(i, j)]
                    for oi, i in enumerate(sorted(outside))
                    for ci, j in enumerate(cols)
                    if (i, j) in d
                },
            )
            coords = kernel_basis(restricted)
            vectors = []
            for w in (coords.column(c) for c in range(coords.cols)):
                v = [_Z] * n
                for ci, j in enumerate(cols):
                    if w[ci]:
                        v[j] = w[ci]
                vectors.append(tuple(v))
            basis = Matrix.from_columns(vectors, n)
        self._z[key] = basis
        return basis

    def page_dimension(self, r: int, p: int, q: int) -> int:
        z = self.z_basis(r, p, q)
        if z.cols == 0:
            return 0
        stay = self.z_basis(r - 1, p + 1, q - 1)
        arriving = self.z_basis(r - 1, p - r + 1, q + r - 2)
        d_prev = self.tot.differential(p + q - 1)
        b = canonical_span(hstack([stay, d_prev @ arriving]))
        # b is contained in z by d^2 = 0 and the filtration being d-stable.
        return z.cols - b.cols


def reference_frolicher(a: DoubleComplex, direction: str = "column") -> SpectralSequenceResult:
    """All pages from E_1 until no further differential can act.

    direction="column" starts from column (Dolbeault-style) cohomology,
    direction="row" from row cohomology; the row case is computed on the
    transposed complex and transposed back.
    """
    if direction not in ("column", "row"):
        raise ValueError("direction must be 'column' or 'row'")
    if direction == "row":
        res = reference_frolicher(transpose_complex(a), "column")
        flip = lambda table: {(q, p): v for (p, q), v in table.items()}
        return SpectralSequenceResult(
            "row",
            tuple((r, flip(t)) for r, t in res.pages),
            res.degeneration_page,
            flip(res.e_infinity),
        )
    if not a.dims:
        return SpectralSequenceResult("column", ((1, {}),), 1, {})
    p_min, p_max, q_min, q_max = a.window
    last = max(1, min(p_max - p_min, q_max - q_min + 1) + 1)
    ss = _ColumnSpectralSequence(a)
    pages = []
    for r in range(1, last + 1):
        table = {}
        for p, q in a.bidegrees():
            d = ss.page_dimension(r, p, q)
            if d:
                table[(p, q)] = d
        pages.append((r, table))
    e_inf = pages[-1][1]
    degeneration = next(r for r, t in pages if t == e_inf)
    return SpectralSequenceResult("column", tuple(pages), degeneration, dict(e_inf))


def transposed_row_pages(a: DoubleComplex) -> SpectralSequenceResult:
    """frolicher(a, "row") computed as the column pages of transpose_complex(a)."""
    res = frolicher(transpose_complex(a), "column")
    flip = lambda table: {(q, p): v for (p, q), v in table.items()}
    return SpectralSequenceResult(
        "row",
        tuple((r, flip(t)) for r, t in res.pages),
        res.degeneration_page,
        flip(res.e_infinity),
    )
