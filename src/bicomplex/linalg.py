"""Exact sparse linear algebra over the Gaussian rationals.

This is the kernel every cohomology computation reduces to: row reduction,
kernels, images, sums and intersections of subspaces, and induced maps on
subquotients Z/B.  Everything is exact and deterministic; identical inputs
give bit-identical outputs.

Vectors are tuples of GaussianRational.  A Matrix stores only its nonzero
entries, keyed by (row, col).  A Basis is a list of linearly independent
coordinate vectors in a fixed ambient dimension.

Every elimination runs through one fraction-free kernel, `_echelon`:

  * each row is scaled by the lcm of its denominators into Z[i] and held as
    a dict col -> (re, im) of Python ints;
  * a step with pivot row r and pivot entry pv replaces each row t holding c
    in the pivot column by (pv t - c r) / prev, the one-step rule of
    Bareiss (Math. Comp. 1968).  The division is exact over Z[i], because
    the rows it yields are minors of the scaled matrix;
  * divisors are lazy: a row records the divisor it is current with, and a
    step that does not touch it does not rescale it.  A later step that
    touches it divides by that divisor in place of prev, and a row picked
    as pivot row is first rescaled by prev / (its divisor);
  * pivot columns (`pivot_columns`, hence `rank`, `image_basis`,
    `coset_representatives`) need the forward pass alone.  `rref` also
    clears each pivot column from the earlier pivot rows, then divides each
    pivot row once by its pivot entry, which gives the canonical RREF.

The pivot row is the sparsest candidate, ties to the lowest index.  The
rows are scalar multiples of those of Gauss-Jordan elimination on Q(i), so
the choice, and the fill-in, are the same as there.

Matrix products (`Matrix.__matmul__`) also run over Z[i]: each factor is
scaled by one common denominator, the lcm of all its entries' real and
imaginary denominators; each output entry is summed as an (int, int) pair;
and a GaussianRational is built only for a sum that ends nonzero.  A
product that vanishes builds no scalar at all.

Identity checks (the double-complex axioms in `complexes.validate`, the
commutation of a `Morphism` with d1 and d2) ask only whether a sum of
signed products vanishes, and `_products_vanish` decides that without
building a product matrix: the terms come as Z[i] forms (den, entries),
each product is brought to the lcm of the products' denominators, and all
are summed in one (int, int) accumulator, the one `__matmul__` uses
(`_accumulate`).  `_gaussian_blocks` converts each block of a complex to
its form once per check, and a conjugate negates the imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from .scalars import GaussianRational, ZERO, ONE, _coerce

Vector = tuple[GaussianRational, ...]

_MINUS_ONE = -ONE


class AmbientMismatch(ValueError):
    """Two bases were combined although they live in different ambient spaces."""


class NotASubspace(ValueError):
    """A claimed subspace containment span(b) <= span(z) fails."""


class NotWellDefined(ValueError):
    """A map does not descend to the requested subquotient."""


def vector(values: Sequence) -> Vector:
    """Coerce a sequence of ints / Fractions / scalars to a Vector."""
    out = []
    for v in values:
        c = _coerce(v)
        if c is NotImplemented:
            raise TypeError(f"cannot use {v!r} as a scalar")
        out.append(c)
    return tuple(out)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


@dataclass(frozen=True)
class Matrix:
    """Sparse exact matrix; absent entries are zero, stored entries never are."""

    rows: int
    cols: int
    entries: Mapping[tuple[int, int], GaussianRational] = field(default_factory=dict)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        clean = {}
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        data = [vector(r) for r in rows]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        entries = {
            (i, j): v for i, row in enumerate(data) for j, v in enumerate(row) if v
        }
        return cls(len(data), ncols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "Matrix":
        entries = {}
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column of wrong height")
            for i, v in enumerate(col):
                if v:
                    entries[(i, j)] = v
        return cls(rows, len(columns), entries)

    # -- views -------------------------------------------------------------

    def column(self, j: int) -> Vector:
        return tuple(self.entries.get((i, j), ZERO) for i in range(self.rows))

    def row(self, i: int) -> Vector:
        return tuple(self.entries.get((i, j), ZERO) for j in range(self.cols))

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic ---------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def conjugate(self) -> "Matrix":
        return Matrix(self.rows, self.cols, {k: v.conjugate() for k, v in self.entries.items()})

    def scale(self, s) -> "Matrix":
        """s * self; a sign change (s = +-1) multiplies no scalars."""
        c = _coerce(s)
        if c is NotImplemented:
            raise TypeError(f"cannot scale by {s!r}")
        if not c:
            return Matrix.zero(self.rows, self.cols)
        if c == ONE:
            return self
        if c == _MINUS_ONE:
            return -self
        return Matrix(self.rows, self.cols, {k: v * c for k, v in self.entries.items()})

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            s = entries.get(k, ZERO) + v
            if s:
                entries[k] = s
            else:
                entries.pop(k, None)
        return Matrix(self.rows, self.cols, entries)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        da, left = _gaussian_entries(self)
        db, right = _gaussian_entries(other)
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        _accumulate(acc, left, right)
        den = da * db
        return Matrix(self.rows, other.cols, {
            key: GaussianRational(Fraction(x, den), Fraction(y, den))
            for key, (x, y) in acc.items() if x or y
        })

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector of wrong length")
        out = [ZERO] * self.rows
        for (i, j), a in self.entries.items():
            if v[j]:
                out[i] = out[i] + a * v[j]
        return tuple(out)


# A matrix over Z[i] with one denominator: (den, {(row, col): (re, im)}),
# standing for the entries divided by den.  Stored entries are nonzero.
GaussianForm = tuple[int, dict[tuple[int, int], tuple[int, int]]]


def _gaussian_entries(m: Matrix) -> GaussianForm:
    """(den, entries of den * m) for the lcm den of all of m's denominators."""
    den = 1
    for v in m.entries.values():
        den = lcm(den, v.re.denominator, v.im.denominator)
    return den, {
        k: (v.re.numerator * (den // v.re.denominator), v.im.numerator * (den // v.im.denominator))
        for k, v in m.entries.items()
    }


_NO_ENTRIES: GaussianForm = (1, {})


def _identity_form(n: int) -> GaussianForm:
    return 1, {(i, i): (1, 0) for i in range(n)}


def _gaussian_blocks(blocks: Mapping[tuple[int, int], Matrix]) -> Callable[..., GaussianForm]:
    """at(i, j, conjugate=False): the Z[i] form of blocks[(i, j)], or of its
    conjugate (the imaginary parts negated); an absent block is empty.  Each
    block is converted once, on first use, and kept as long as at is."""
    forms: dict[tuple[int, int], GaussianForm] = {}

    def at(i: int, j: int, conjugate: bool = False) -> GaussianForm:
        form = forms.get((i, j))
        if form is None:
            m = blocks.get((i, j))
            form = forms[(i, j)] = _NO_ENTRIES if m is None else _gaussian_entries(m)
        if conjugate:
            den, entries = form
            return den, {k: (x, -y) for k, (x, y) in entries.items()}
        return form

    return at


def _accumulate(acc: dict[tuple[int, int], tuple[int, int]],
                left: Mapping[tuple[int, int], tuple[int, int]],
                right: Mapping[tuple[int, int], tuple[int, int]]) -> None:
    """acc += left @ right, every entry an (int, int) pair over Z[i]."""
    by_row: dict[int, list[tuple[int, int, int]]] = {}
    for (k, j), (br, bi) in right.items():
        by_row.setdefault(k, []).append((j, br, bi))
    for (i, k), (ar, ai) in left.items():
        for j, br, bi in by_row.get(k, ()):
            key = (i, j)
            x, y = acc.get(key, (0, 0))
            acc[key] = (x + ar * br - ai * bi, y + ar * bi + ai * br)


def _products_vanish(terms: Iterable[tuple[int, GaussianForm, GaussianForm]]) -> bool:
    """Whether the sum of sign * (a @ b) over terms (sign, a, b) is zero.

    The caller guarantees that the products share one shape.  Every product
    is brought to the lcm L of the products' denominators by scaling the
    factor with fewer entries by sign * L / (den_a den_b), and all of them
    are summed in one Z[i] accumulator; no scalar is built.  A term with an
    empty factor is zero and is skipped.
    """
    terms = [(s, a, b) for s, a, b in terms if a[1] and b[1]]
    if not terms:
        return True
    den = lcm(*(a[0] * b[0] for _, a, b in terms))
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for sign, (da, left), (db, right) in terms:
        c = sign * (den // (da * db))
        if c != 1:
            if len(left) <= len(right):
                left = {k: (c * x, c * y) for k, (x, y) in left.items()}
            else:
                right = {k: (c * x, c * y) for k, (x, y) in right.items()}
        _accumulate(acc, left, right)
    return not any(x or y for x, y in acc.values())


def hstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack with differing row counts")
    entries = {}
    off = 0
    for m in mats:
        for (i, j), v in m.entries.items():
            entries[(i, j + off)] = v
        off += m.cols
    return Matrix(rows, off, entries)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack with differing column counts")
    entries = {}
    off = 0
    for m in mats:
        for (i, j), v in m.entries.items():
            entries[(i + off, j)] = v
        off += m.rows
    return Matrix(off, cols, entries)


def assemble(row_dims: Sequence[int], col_dims: Sequence[int],
             blocks: Mapping[tuple[int, int], Matrix]) -> Matrix:
    """Assemble a block matrix from a sparse dict of (row block, col block) -> Matrix."""
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    entries = {}
    for (bi, bj), m in blocks.items():
        if m.rows != row_dims[bi] or m.cols != col_dims[bj]:
            raise ValueError(f"block ({bi},{bj}) has wrong shape")
        for (i, j), v in m.entries.items():
            entries[(i + roff[bi], j + coff[bj])] = v
    return Matrix(roff[-1], coff[-1], entries)


def kron(a: Matrix, b: Matrix) -> Matrix:
    entries = {}
    for (ia, ja), va in a.entries.items():
        for (ib, jb), vb in b.entries.items():
            entries[(ia * b.rows + ib, ja * b.cols + jb)] = va * vb
    return Matrix(a.rows * b.rows, a.cols * b.cols, entries)


# -- row reduction ----------------------------------------------------------


def _gaussian_rows(m: Matrix) -> list[dict[int, tuple[int, int]]]:
    """The rows of m, each scaled by the lcm of its denominators into Z[i]."""
    rows: list[dict[int, GaussianRational]] = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    out = []
    for row in rows:
        den = 1
        for v in row.values():
            den = lcm(den, v.re.denominator, v.im.denominator)
        out.append({
            j: (v.re.numerator * (den // v.re.denominator),
                v.im.numerator * (den // v.im.denominator))
            for j, v in row.items()
        })
    return out


def _times(row: dict[int, tuple[int, int]], s: tuple[int, int]) -> dict[int, tuple[int, int]]:
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


def _echelon(m: Matrix, reduce: bool) -> tuple[list[int], list[dict[int, tuple[int, int]]]]:
    """Pivot columns of m and its pivot rows, each a nonzero multiple of its
    RREF row, by lazy Bareiss elimination over Z[i] (see the module notes).

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
    return pivots, [rows[i] for i in pivot_rows]


def pivot_columns(m: Matrix) -> tuple[int, ...]:
    """Pivot columns of the RREF of m, from the forward pass alone; a zero
    matrix has none and costs no elimination."""
    return tuple(_echelon(m, reduce=False)[0]) if m.entries else ()


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    The canonical RREF, pivot rows normalized to 1: each pivot row from the
    fraction-free kernel is divided once by its pivot entry.
    """
    pivots, pivot_rows = _echelon(m, reduce=True)
    entries = {}
    for i, (col, row) in enumerate(zip(pivots, pivot_rows)):
        pr, pi = row[col]
        n = pr * pr + pi * pi
        for j, (a, b) in row.items():
            entries[(i, j)] = GaussianRational(Fraction(a * pr + b * pi, n),
                                               Fraction(b * pr - a * pi, n))
    return Matrix(m.rows, m.cols, entries), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(pivot_columns(m))


# -- bases ------------------------------------------------------------------


@dataclass(frozen=True)
class Basis:
    """Linearly independent vectors spanning a subspace of a coordinate space."""

    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in self.vectors))
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
                )

    @classmethod
    def checked(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Basis":
        """Construct and verify linear independence."""
        b = cls(ambient_dim, tuple(vector(v) for v in vectors))
        if rank(basis_matrix(b)) != len(b.vectors):
            raise ValueError("vectors are linearly dependent")
        return b

    @classmethod
    def full(cls, n: int) -> "Basis":
        return cls(n, tuple(Matrix.identity(n).column(j) for j in range(n)))

    @classmethod
    def empty(cls, n: int) -> "Basis":
        return cls(n, ())

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def is_valid(self) -> bool:
        return rank(basis_matrix(self)) == self.dim


def basis_matrix(b: Basis) -> Matrix:
    """Matrix whose columns are the basis vectors."""
    return Matrix.from_columns(b.vectors, b.ambient_dim)


def canonical_span(vectors: Sequence[Vector], ambient_dim: int) -> Basis:
    """Canonical basis of the span: nonzero rows of the RREF of the stacked vectors."""
    if not vectors:
        return Basis.empty(ambient_dim)
    stacked = Matrix.from_columns(vectors, ambient_dim).transpose()
    red, pivots = rref(stacked)
    return Basis(ambient_dim, tuple(red.row(i) for i in range(len(pivots))))


def kernel_basis(m: Matrix) -> Basis:
    """Basis of {v : m v = 0}; its size is cols - rank (rank-nullity)."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    out = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[j] = ONE
        for r, pcol in enumerate(pivots):
            c = red.entries.get((r, j))
            if c:
                v[pcol] = -c
        out.append(tuple(v))
    return Basis(m.cols, tuple(out))


def image_basis(m: Matrix) -> Basis:
    """Basis of the column space: the pivot columns of m."""
    return Basis(m.rows, tuple(m.column(j) for j in pivot_columns(m)))


def solve_columns(a: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve a X = rhs column by column; None if any column is inconsistent.

    A pivot landing in the right-hand block is exactly a column outside the
    span of a, so one elimination decides consistency and reads the solution.
    Free columns of a get coefficient zero.
    """
    red, pivots = rref(hstack([a, rhs]))
    if any(p >= a.cols for p in pivots):
        return None
    entries = {}
    for r, pcol in enumerate(pivots):
        for j in range(rhs.cols):
            v = red.entries.get((r, a.cols + j))
            if v:
                entries[(pcol, j)] = v
    return Matrix(a.cols, rhs.cols, entries)


def contains(outer: Basis, v: Vector) -> bool:
    """Is v in span(outer)?"""
    if len(v) != outer.ambient_dim:
        raise AmbientMismatch("vector and basis ambient dimensions differ")
    a = basis_matrix(outer)
    return solve_columns(a, Matrix.from_columns([v], outer.ambient_dim)) is not None


def is_subspace(inner: Basis, outer: Basis) -> bool:
    if inner.ambient_dim != outer.ambient_dim:
        raise AmbientMismatch("bases live in different ambient spaces")
    if inner.dim == 0:
        return True
    sol = solve_columns(basis_matrix(outer), basis_matrix(inner))
    return sol is not None


def subspace_sum(u: Basis, v: Basis) -> Basis:
    """Canonical basis of span(u) + span(v)."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatch("bases live in different ambient spaces")
    return canonical_span(list(u.vectors) + list(v.vectors), u.ambient_dim)


def subspace_intersection(u: Basis, v: Basis) -> Basis:
    """Canonical basis of span(u) & span(v), via the kernel of [U | -V]."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatch("bases live in different ambient spaces")
    if u.dim == 0 or v.dim == 0:
        return Basis.empty(u.ambient_dim)
    mu = basis_matrix(u)
    mv = basis_matrix(v)
    ker = kernel_basis(hstack([mu, -mv]))
    vectors = [mu.apply(w[: u.dim]) for w in ker.vectors]
    return canonical_span(vectors, u.ambient_dim)


def subquotient_dim(z: Basis, b: Basis) -> int:
    """dim(span(z) / span(b)); raises NotASubspace unless span(b) <= span(z)."""
    if z.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("bases live in different ambient spaces")
    if not is_subspace(b, z):
        raise NotASubspace("denominator is not contained in numerator")
    return z.dim - b.dim


def coset_representatives(z: Basis, b: Basis) -> tuple[Vector, ...]:
    """Vectors from z completing b to a basis of span(z); their classes span z/b.

    Deterministic: greedy from the left over z's vectors, so the same (z, b)
    always yields the same representatives.
    """
    cols = list(b.vectors) + list(z.vectors)
    if not cols:
        return ()
    pivots = pivot_columns(Matrix.from_columns(cols, z.ambient_dim))
    if len([p for p in pivots if p < b.dim]) != b.dim:
        raise NotASubspace("denominator vectors are dependent")
    return tuple(z.vectors[p - b.dim] for p in pivots if p >= b.dim)


def induced_subquotient_map(f: Matrix, z_src: Basis, b_src: Basis,
                            z_tgt: Basis, b_tgt: Basis) -> Matrix:
    """Matrix of the map (z_src/b_src) -> (z_tgt/b_tgt) induced by f.

    Coset bases are the deterministic representatives of coset_representatives,
    so induced matrices compose: induced(g @ f) = induced(g) @ induced(f).
    Raises NotWellDefined unless f maps span(z_src) into span(z_tgt) and
    span(b_src) into span(b_tgt).
    """
    if f.cols != z_src.ambient_dim or f.rows != z_tgt.ambient_dim:
        raise AmbientMismatch("map shape does not match the ambient spaces")
    if b_src.dim:
        fb = f @ basis_matrix(b_src)
        if b_tgt.dim == 0:
            if not fb.is_zero():
                raise NotWellDefined("f does not map the source boundaries into the target boundaries")
        elif solve_columns(basis_matrix(b_tgt), fb) is None:
            raise NotWellDefined("f does not map the source boundaries into the target boundaries")
    reps_src = coset_representatives(z_src, b_src)
    reps_tgt = coset_representatives(z_tgt, b_tgt)
    frame = Matrix.from_columns(list(b_tgt.vectors) + list(reps_tgt), z_tgt.ambient_dim)
    if not reps_src:
        return Matrix.zero(len(reps_tgt), 0)
    images = f @ Matrix.from_columns(reps_src, z_src.ambient_dim)
    # Consistency here is exactly f(span z_src) <= span(z_tgt) modulo b_tgt;
    # combined with the boundary check above it certifies well-definedness.
    sol = solve_columns(frame, images)
    if sol is None:
        raise NotWellDefined("f does not map the source cycles into the target cycles")
    entries = {
        (i - b_tgt.dim, j): v for (i, j), v in sol.entries.items() if i >= b_tgt.dim
    }
    return Matrix(len(reps_tgt), len(reps_src), entries)
