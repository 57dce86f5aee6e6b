"""Exact sparse linear algebra over the Gaussian rationals.

This is the kernel every cohomology computation reduces to: row reduction,
ranks, kernels, images and canonical bases of subspaces, and the maps a
matrix induces on subquotients Z/B.  Everything is exact and deterministic; identical inputs
give bit-identical outputs.

A Matrix is stored over Z[i] with one denominator, the layout of Sage's
`Matrix_rational_dense` and FLINT's `fmpq_mat`: a positive int `den` and a
dict (row, col) -> (re, im) of Python ints, never (0, 0), standing for the
entries divided by den.  den is always the least such denominator (the lcm
of the entries' real and imaginary denominators), so equal matrices have
equal forms and `==` compares forms.  The public constructors take
GaussianRational entries and convert them once; every operation here works
on the form, and `entries`, `row` and `column` build GaussianRational views
on access.  No other module reads the form: blocks are placed with
`assemble` (which `hstack` and `vstack` call) and cut with `m[r0:r1, c0:c1]`.

A subspace of Q(i)^n is the n x d Matrix whose columns are a basis of it:
`rows` is the ambient dimension and `cols` the dimension.  The whole space
is `Matrix.identity(n)` and the zero subspace `Matrix.zero(n, 0)`.
`kernel_basis` writes its matrix straight from the stored RREF form (den,
num): the basis column of free column j holds den at row j, and each pivot
row i puts minus its entry num[(i, j)] at row pivots[i].  `image_basis` and
`coset_representatives` select columns of their input, and the canonical
basis of a span (`canonical_span`) is the transpose of the nonzero rows of
an RREF.  The canonical basis of a kernel needs no second RREF
(`_canonical_kernel`): the kernel basis of the matrix with its columns
reversed, read back in the original order, is it.  The vectors that `row`
and `column` return are tuples of GaussianRational.

A subquotient frame takes one elimination.  The pivots of a prefix of
columns do not depend on the columns after it, so one RREF of
[b_tgt | z_tgt | f b_src | f reps_src] decides both containments that make
f descend to z/b, finds the target's coset representatives, and gives the
induced matrix as the representatives' rows of its last block
(`_induced_map`).  Its caller supplies the source's representatives:
`cohomology` finds them with `coset_representatives` once per complex,
kind and key, and keeps them on the complex's Analysis.
`complexes.quotient` reads its chosen vectors and the inverse of its frame
from one RREF of [block | I] in the same way, except on a coordinate
inclusion (one entry in each column, none two in a row), whose frame it
reads from the block's positions with no elimination.

Every elimination that yields pivots runs through one fraction-free
kernel, `_echelon`.  `rank`, which needs none, has two routes after its
peel (below), picked by counting entries: a block whose entries number its
rows times its columns, the whole input or the peel core, goes to
`_dense_rank`, one-step Bareiss on lists, and every other core to
`_echelon`.  The kernel:

  * the rows of the form are held as dicts col -> (re, im), one for each
    nonzero row only;
  * a step with pivot row r and pivot entry pv replaces each row t holding c
    in the pivot column by (pv/g) t - (c/g) r, g a gcd of pv and c over
    Z[i] (`_gcd`, Euclid with rounded quotients), and divides the new row
    by the gcd of its ints (`_primitive`).  Both divisions are exact.  This
    is the one division rule: there is no divisor chain, and no row is
    rescaled to keep up with one.  `_combine` builds the new row in one
    pass over t and r, into one dict, with no product row or difference
    row in between;
  * every row the pass holds is a nonzero multiple of the row that plain
    Gaussian elimination over Q(i), with the same pivots, holds.  It is so
    for the input rows, and if t and r are lambda and mu times their
    Gaussian rows t', r', with entries c' and pv', then
    (pv/g) t - (c/g) r = (pv/g) lambda (t' - (c'/pv') r'), Gaussian
    elimination's update times a nonzero scalar; dividing by an int keeps
    that.  A row and its multiple have the same support, so the lead
    columns, the buckets, the row lengths and hence every pivot and pivot
    row are those of Gaussian elimination, whatever the multiples.  The
    gcd and the content keep the multiples small: in Frolicher's cores of
    the nilmanifold models no pivot row part exceeds 4 bits on dim 6 and 6
    on dim 8, where a Bareiss divisor chain reached 57 and 890;
  * a row untouched so far is the input row as stored, and rows no step
    reaches cost no arithmetic;
  * the rows not yet pivot rows wait in buckets by their leading column,
    and a heap holds the columns of the nonempty buckets.  A step cancels
    the pivot column of a row and adds only later columns, so the rows a
    pivot must clear are exactly the rest of its bucket, and each survivor
    moves to a later bucket.  A pivot's bookkeeping is bounded by the rows
    it touches and one heap operation each, not by the live rows.  A pivot
    alone in its bucket clears nothing: it is recorded, and costs no
    arithmetic;
  * the kernel is the forward pass only.  Pivot columns (`pivot_columns`,
    hence `image_basis`, `coset_representatives`) need nothing more, and a
    zero matrix, under `rref` too, no elimination at all.  `rref` brings
    each pivot row to a positive int lead and back-substitutes, from the
    last pivot row up (Nakos, Turner & Williams, SIGSAM Bull. 1997): a
    row, scaled once by the lcm of the leads it needs, is cleared of the
    later pivot columns it holds by their pivot rows, already reduced.  The
    columns to clear are read off the row's own entries, so the pass needs
    no index from a column to the rows that hold it, and a row that holds
    no later pivot column costs no arithmetic.  Only the pivot rows whose
    pivot entry is not 1 are normalized: a row that leads with 1, as most
    do on the +-1 blocks of the models and their constructions, is already
    primitive with a positive lead, so it is neither rescaled nor divided,
    and where every lead is 1 no row is rebuilt to reach the common
    denominator.

`rank` needs no pivot column and no pivot row, so it first peels, the
pre-pass of structured Gaussian elimination (LaMacchia & Odlyzko, CRYPTO
1990; Dumas & Villard, CASC 2002): a row or column with one nonzero entry
counts 1 and drops out with that entry's column or row, until none is left.
The peel reads only where the entries are, so it does no arithmetic, and
only the core left over is eliminated.  The Koszul differentials of the
nilmanifold models peel almost to nothing: their tables reach the kernel a
handful of times.  A core with every entry nonzero on its rows and columns,
which a matrix with no zero entry is from the start, is ranked by
`_dense_rank`: one-step Bareiss on the lines of its shorter side as lists,
every live row updated at every step, with none of the kernel's buckets,
heap, gcds or lone pivots, which on the small dense blocks of random
complexes in random coordinates cost more than the arithmetic (one `random`
bench pass ranks 319 such blocks, most of them 2 x 2 to 5 x 3).  It is the
one place a Bareiss divisor is kept: its rows are minors of the block, and
dividing by the previous pivot is cheaper there than a gcd per row.  Any
other core goes to the kernel's forward pass; a sparse core held as lists
would cost memory quadratic in its size.
`filtered_pivots` needs only how many pivots pair each level with each
target level, and peels too.  There `_peel` takes a level per row and a
target per column: a row singleton is peeled only if no deeper row shares
its column, and a column singleton only if no column of lower target shares
its row.  Each such pair then counts in exactly the blocks of rows of level
>= a and columns of target < b that it lies in (the proof is in
`filtered_pivots`); with no levels it is `rank`'s peel.  The other callers
need the pivots in column order or the pivot rows, which a peel does not
give, and call `_echelon` directly.

The pivot rows are defined up to a nonzero scalar only: which scalar
depends on the gcds and contents met on the way, and callers read pivots,
pivot row indices or the canonical RREF.  The pivot row is the sparsest
candidate, ties to the lowest index.  The rows are scalar multiples of
those of Gaussian elimination on Q(i), so the choice, and the fill-in, are
the same as there.
On the core of `filtered_pivots` each row has a level
(`cohomology.frolicher` levels each source coordinate of d_n by its
filtration index).  The pivot row is then the sparsest candidate of the
deepest level present, so a row is only ever changed by rows of its own
level or a deeper one, and the pivots whose pivot row has level >= s are
the pivot columns of the rows of level >= s, for every s at once.

Matrix products (`Matrix.__matmul__`) multiply the two forms: each output
entry is summed as an (int, int) pair over the product of the denominators.
The d-axioms in `complexes.validate` are the blocks of one product
d_{k+1} d_k of total differentials per degree, zero on a valid complex.
The other identity checks (the sigma axioms, the commutation of a
`Morphism` with d1 and d2, the frame of `complexes.quotient`) build no
product matrix.  The sigma axioms and the commutations read
s1 @ op(x) == y @ s0, op the identity or conjugation.  Where s1 and s0 are partial monomials, with at most one entry in each row
and each column (the sigma blocks of every Lie-algebra model, the blocks of
the Serre pairing, of a summand inclusion and of a quotient's projection,
and every zero block), each entry of x lands at one position of the left
side or drops out, and each entry of y at one position of the right or
drops out, so `_equal_by_relabeling` compares entries, with no product at
all; a matrix's column map is found once and kept on it (`_by_column`),
since a sigma or morphism block meets several checks.
Every other identity asks whether a sum of signed products vanishes, and
`_products_vanish` decides that: each product is brought to the lcm of the
products' denominators, and all are summed in one (int, int) accumulator,
the one `__matmul__` uses (`_accumulate`), which conjugates its right
factor's entries as it reads them where a term asks.  The involution axiom
of a non-monomial real structure is one such sum too, a @ conj(b) less the
identity times itself.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Container, Iterable, Mapping, Sequence

from .scalars import GaussianRational, ZERO, _coerce

Vector = tuple[GaussianRational, ...]

# The nonzero Z[i] entries of a stored form, keyed by (row, col).
Entries = dict[tuple[int, int], tuple[int, int]]


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


def _form(entries: Mapping[tuple[int, int], GaussianRational]) -> tuple[int, Entries]:
    """(den, num) for GaussianRational entries: den the lcm of all their
    denominators, num the nonzero entries times den."""
    parts = [(k, v.re.as_integer_ratio(), v.im.as_integer_ratio()) for k, v in entries.items()]
    den = lcm(*(d for _, (_, dx), (_, dy) in parts for d in (dx, dy)))
    return den, {k: (x * (den // dx), y * (den // dy)) for k, (x, dx), (y, dy) in parts if x or y}


def _scalar(x: int, y: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(x, den), Fraction(y, den))


class Matrix:
    """Sparse exact matrix over Q(i), stored as (den, {(row, col): (re, im)})
    with den least; absent entries are zero, stored entries never are.
    Operations return new matrices and never change one in place, so the
    column map `_by_column` finds can be kept on the matrix."""

    __slots__ = ("rows", "cols", "_den", "_num", "_columns")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], GaussianRational] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        entries = entries or {}
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
        self._set(rows, cols, *_form(entries))

    def _set(self, rows: int, cols: int, den: int, num: Entries) -> None:
        self.rows, self.cols, self._den, self._num = rows, cols, den, num

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._den, self._num) == (
            other.rows, other.cols, other._den, other._num)

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}: {v}" for k, v in sorted(self.entries.items()))
        return f"Matrix({self.rows}, {self.cols}, {{{shown}}})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return _matrix(rows, cols, 1, {})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return _matrix(n, n, 1, {(i, i): (1, 0) for i in range(n)})

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

    @property
    def entries(self) -> dict[tuple[int, int], GaussianRational]:
        """The nonzero entries as GaussianRational, in a fresh dict."""
        return {k: _scalar(x, y, self._den) for k, (x, y) in self._num.items()}

    def column(self, j: int) -> Vector:
        num = self._num
        return tuple(_scalar(*num[(i, j)], self._den) if (i, j) in num else ZERO
                     for i in range(self.rows))

    def row(self, i: int) -> Vector:
        num = self._num
        return tuple(_scalar(*num[(i, j)], self._den) if (i, j) in num else ZERO
                     for j in range(self.cols))

    def is_zero(self) -> bool:
        return not self._num

    def __getitem__(self, key: tuple[slice, slice]) -> "Matrix":
        """m[r0:r1, c0:c1]: the block of those rows and columns, indexed from 0."""
        (r0, r1, rstep), (c0, c1, cstep) = key[0].indices(self.rows), key[1].indices(self.cols)
        if (rstep, cstep) != (1, 1):
            raise ValueError("matrix slices take unit steps")
        num = {(i - r0, j - c0): v for (i, j), v in self._num.items()
               if r0 <= i < r1 and c0 <= j < c1}
        return _matrix(max(r1 - r0, 0), max(c1 - c0, 0), self._den, num)

    # -- arithmetic ---------------------------------------------------------

    def transpose(self) -> "Matrix":
        return _matrix(self.cols, self.rows, self._den, {(j, i): v for (i, j), v in self._num.items()})

    def conjugate(self) -> "Matrix":
        return _matrix(self.rows, self.cols, self._den, {k: (x, -y) for k, (x, y) in self._num.items()})

    def scale(self, s) -> "Matrix":
        """s * self, the Kronecker product of the 1x1 matrix (s) with self."""
        c = _coerce(s)
        if c is NotImplemented:
            raise TypeError(f"cannot scale by {s!r}")
        return kron(Matrix(1, 1, {(0, 0): c}), self)

    def __neg__(self) -> "Matrix":
        return _matrix(self.rows, self.cols, self._den, {k: (-x, -y) for k, (x, y) in self._num.items()})

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        num = {k: (a * x, a * y) for k, (x, y) in self._num.items()}
        for k, (x, y) in other._num.items():
            sx, sy = num.get(k, (0, 0))
            sx, sy = sx + b * x, sy + b * y
            if sx or sy:
                num[k] = (sx, sy)
            else:
                del num[k]
        return _matrix(self.rows, self.cols, den, num)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        acc: Entries = {}
        _accumulate(acc, self._num, other._num)
        return _matrix(self.rows, other.cols, self._den * other._den,
                       {k: v for k, v in acc.items() if v != (0, 0)})


def _matrix(rows: int, cols: int, den: int, num: Entries) -> Matrix:
    """The Matrix num / den, for den > 0 and num without zero entries; den is
    brought down to the least denominator first."""
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix dimensions")
    if den != 1:
        g = gcd(den, *chain.from_iterable(num.values()))
        if g != 1:
            den //= g
            num = {k: (x // g, y // g) for k, (x, y) in num.items()}
    m = object.__new__(Matrix)
    m._set(rows, cols, den, num)
    return m


def _accumulate(acc: Entries, left: Entries, right: Entries, conjugate: bool = False) -> None:
    """acc += left @ right, or left @ conj(right) with conjugate=True, every
    entry an (int, int) pair over Z[i]."""
    by_row: dict[int, list[tuple[int, int, int]]] = {}
    sign = -1 if conjugate else 1
    for (k, j), (br, bi) in right.items():
        by_row.setdefault(k, []).append((j, br, sign * bi))
    for (i, k), (ar, ai) in left.items():
        for j, br, bi in by_row.get(k, ()):
            key = (i, j)
            x, y = acc.get(key, (0, 0))
            acc[key] = (x + ar * br - ai * bi, y + ar * bi + ai * br)


def _products_vanish(terms: Iterable[tuple[int, Matrix, Matrix, bool]]) -> bool:
    """Whether the sum of sign * (a @ op(b)) over terms (sign, a, b,
    conjugate) is zero, op(b) being conj(b) where conjugate is set and b
    otherwise.

    The caller guarantees that the products share one shape.  Every product
    is brought to the lcm L of the products' denominators by scaling the
    factor with fewer entries by sign * L / (den_a den_b), an int, and all
    of them are summed in one Z[i] accumulator, which conjugates b's
    entries as it reads them; no scalar and no conjugate copy is built.  A
    term with an empty factor is zero and is skipped.
    """
    terms = [t for t in terms if t[1]._num and t[2]._num]
    if not terms:
        return True
    den = lcm(*(a._den * b._den for _, a, b, _ in terms))
    acc: Entries = {}
    for sign, a, b, conjugate in terms:
        left, right = a._num, b._num
        c = sign * (den // (a._den * b._den))
        if c != 1:
            if len(left) <= len(right):
                left = {k: (c * x, c * y) for k, (x, y) in left.items()}
            else:
                right = {k: (c * x, c * y) for k, (x, y) in right.items()}
        _accumulate(acc, left, right, conjugate)
    return not any(x or y for x, y in acc.values())


def _by_column(m: Matrix) -> dict[int, tuple[int, tuple[int, int]]] | None:
    """column -> (row, entry) of a partial monomial m, one with at most one
    entry in each row and each column (a zero matrix is one, with no
    column); None for any other m.  Found once and kept on m."""
    try:
        return m._columns
    except AttributeError:
        num = m._num
        found = None
        if len(num) <= min(m.rows, m.cols):
            found = {j: (i, v) for (i, j), v in num.items()}
            if not len(found) == len(num) == len({i for i, _ in num}):
                found = None
        m._columns = found
        return found


def _equal_by_relabeling(s1: Matrix, x: Matrix, y: Matrix, s0: Matrix,
                         conjugate: bool = False) -> bool | None:
    """Whether s1 @ op(x) == y @ s0, op(x) being conj(x) where conjugate is
    set and x otherwise, decided from the stored entries when s1 and s0 are
    partial monomials (`_by_column`); None when either is not, for the
    caller to multiply.  The caller guarantees that the two sides share one
    shape.

    Let s1 hold a_k at (r(k), k) for k in K, its nonempty columns, and s0
    hold b_j at (c(j), j) for j in J, with r and c injective.  Then
    (s1 op(x))[r(k), j] = a_k op(x[k, j]) for k in K, and row k of x meets
    no entry of s1 for k outside K: each entry of x in K's rows lands at
    exactly one position, distinct entries at distinct ones, and the other
    entries of x are dropped.  Likewise (y s0)[i, j] = y[i, c(j)] b_j for j
    in J, and zero for j outside J: each entry of y in a column c(j), a row
    that s0 holds, lands at exactly one position, and the other entries of
    y are dropped.  Z[i] has no zero divisors, so the nonzero entries of the
    two sides are exactly those landed.  A kept x[k, j] with j outside J
    is nonzero on the left where the right is zero, and the sides differ.
    Otherwise the sides are equal iff the kept entries of x and of y are
    equally many and each kept x[k, j] finds y[r(k), c(j)] with
    a_k op(x[k, j]) / (den_s1 den_x) = y[r(k), c(j)] b_j / (den_y den_s0),
    compared with the denominators cross-multiplied: the x entries then
    account for every kept y entry, since their positions are distinct and
    as many.  Where s1 fills every column and s0 every row, as for every
    sigma block of a model and the Serre pairing, nothing is dropped and the
    counts are those of x and y.  No accumulator and no product matrix is
    needed.  The loop looks j up in s0's columns unguarded: a miss raises
    KeyError, which is the verdict False, and costs nothing where there is
    none.
    """
    left, right = _by_column(s1), _by_column(s0)
    if left is None or right is None:
        return None
    xs, found = x._num, y._num
    if len(left) < s1.cols:
        xs = {kj: v for kj, v in xs.items() if kj[0] in left}
    kept = len(found)
    if len(right) < s0.rows:
        held = {i for i, _ in right.values()}
        kept = sum(1 for _, c in found if c in held)
    if len(xs) != kept:
        return False
    cx, cy = y._den * s0._den, s1._den * x._den
    flip = -1 if conjugate else 1
    try:
        for (k, j), (xr, xi) in xs.items():
            r, (ar, ai) = left[k]
            c, (br, bi) = right[j]
            got = found.get((r, c))
            if got is None:
                return False
            yr, yi = got
            xi *= flip
            if (cx * (ar * xr - ai * xi) != cy * (yr * br - yi * bi)
                    or cx * (ar * xi + ai * xr) != cy * (yr * bi + yi * br)):
                return False
    except KeyError:  # column j of s0 is empty
        return False
    return True


def _unit_lower_inverse(m: Matrix) -> Matrix:
    """The inverse of a unit lower-triangular matrix over Z[i]; the caller
    guarantees that m is one, so its den is 1.

    Forward substitution: column j of X = m^-1 has X[j][j] = 1 and
    X[i][j] = -sum of m[i][k] X[k][j] over j <= k < i.  No division occurs,
    and X is again unit lower triangular over Z[i].
    """
    below: list[list[tuple[int, int, int]]] = [[] for _ in range(m.rows)]
    for (i, k), (x, y) in m._num.items():
        if k < i:
            below[i].append((k, x, y))
    num: Entries = {}
    for j in range(m.rows):
        col = {j: (1, 0)}
        for i in range(j + 1, m.rows):
            re = im = 0
            for k, x, y in below[i]:
                c = col.get(k)
                if c is not None:
                    re -= x * c[0] - y * c[1]
                    im -= x * c[1] + y * c[0]
            if re or im:
                col[i] = (re, im)
        num.update(((i, j), v) for i, v in col.items())
    return _matrix(m.rows, m.rows, 1, num)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("hstack of nothing")
    return assemble([mats[0].rows], [m.cols for m in mats], {(0, k): m for k, m in enumerate(mats)})


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("vstack of nothing")
    return assemble([m.rows for m in mats], [mats[0].cols], {(k, 0): m for k, m in enumerate(mats)})


def assemble(row_dims: Sequence[int], col_dims: Sequence[int],
             blocks: Mapping[tuple[int, int], Matrix]) -> Matrix:
    """Assemble a block matrix from a sparse dict of (row block, col block) -> Matrix."""
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    den = lcm(*(m._den for m in blocks.values()))
    num = {}
    for (bi, bj), m in blocks.items():
        if m.rows != row_dims[bi] or m.cols != col_dims[bj]:
            raise ValueError(f"block ({bi},{bj}) has wrong shape")
        c, ro, co = den // m._den, roff[bi], coff[bj]
        for (i, j), (x, y) in m._num.items():
            num[(i + ro, j + co)] = (c * x, c * y)
    return _matrix(roff[-1], coff[-1], den, num)


def kron(a: Matrix, b: Matrix) -> Matrix:
    num = {}
    for (ia, ja), (ar, ai) in a._num.items():
        for (ib, jb), (br, bi) in b._num.items():
            num[(ia * b.rows + ib, ja * b.cols + jb)] = (ar * br - ai * bi, ar * bi + ai * br)
    return _matrix(a.rows * b.rows, a.cols * b.cols, a._den * b._den, num)


# -- row reduction ----------------------------------------------------------


def _primitive(row: dict[int, tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """row divided by the gcd of its ints."""
    g = gcd(*chain.from_iterable(row.values()))
    return {j: (a // g, b // g) for j, (a, b) in row.items()} if g > 1 else row


def _gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A gcd of a and b over Z[i], by Euclid with each quotient rounded to
    the nearest Gaussian integer, so each remainder has at most half the
    norm of its divisor."""
    while b != (0, 0):
        (ar, ai), (br, bi) = a, b
        n = br * br + bi * bi
        # The quotient a conj(b) / n, each part rounded.
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        a, b = b, (ar - qr * br + qi * bi, ai - qr * bi - qi * br)
    return a


def _combine(row: dict[int, tuple[int, int]], s: tuple[int, int],
             piv: Mapping[int, tuple[int, int]] = {}, c: tuple[int, int] = (0, 0),
             ) -> dict[int, tuple[int, int]]:
    """row s - piv c over Z[i], built in one fresh dict: row's columns in
    row's order, then piv's other columns in piv's order, every zero
    dropped."""
    sr, si = s
    cr, ci = c
    out = {}
    for j, (a, b) in row.items():
        x, y = a * sr - b * si, a * si + b * sr
        e = piv.get(j)
        if e is not None:
            u, v = e
            x -= u * cr - v * ci
            y -= u * ci + v * cr
            if not (x or y):
                continue
        out[j] = (x, y)
    for j, (u, v) in piv.items():
        if j not in row:
            out[j] = (v * ci - u * cr, -u * ci - v * cr)
    return out


def _echelon(m: Matrix, levels: Sequence[int] | None = None,
             ) -> tuple[list[int], list[dict[int, tuple[int, int]]], list[int]]:
    """Pivot columns of m, its pivot rows, and the index in m of each pivot
    row, by the forward pass of fraction-free Gaussian elimination over
    Z[i] with content-divided rows (see the module notes).  Each pivot row
    is a nonzero multiple of the row that Gaussian elimination over Q(i)
    holds, so the pivots and pivot rows are Gaussian elimination's; which
    multiple is not defined.

    Columns are taken in order, each from the least nonempty lead-column
    bucket: its pivot row is the sparsest row of the bucket, ties to the
    lowest index, and the rows to eliminate are the rest of it, which then
    move to the buckets of their new leading columns.  A pivot row piv with
    pivot entry pv makes each such row t, holding c in the pivot column,
    into (pv/g) t - (c/g) piv, g a gcd of pv and c over Z[i] (`_gcd`),
    divided by the gcd of its ints (`_primitive`).  A pivot alone in its
    bucket, and a row no step reaches, cost no arithmetic.

    levels, one int per row, restricts the pivot row to the deepest level
    present in the bucket.  The pass then changes a row only by rows of its
    own level or deeper, so for every s the pivots whose pivot row has
    level >= s are the pivot columns of m's rows of level >= s.
    """
    # A dict for each nonzero row only.
    rows: list[dict[int, tuple[int, int]] | None] = [None] * m.rows
    nonzero = []
    for (i, j), v in m._num.items():
        row = rows[i]
        if row is None:
            rows[i] = {j: v}
            nonzero.append(i)
        else:
            row[j] = v
    buckets: dict[int, list[int]] = {}
    for i in nonzero:
        buckets.setdefault(min(rows[i]), []).append(i)
    heap = list(buckets)
    heapify(heap)
    if levels is None:
        choice = lambda i: (len(rows[i]), i)
    else:
        choice = lambda i: (-levels[i], len(rows[i]), i)
    pivots: list[int] = []
    pivot_rows: list[int] = []
    while heap:
        col = heappop(heap)
        below = buckets.pop(col)
        if len(below) == 1:
            best = below.pop()
        else:
            best = min(below, key=choice)
            below.remove(best)
        pivots.append(col)
        pivot_rows.append(best)
        piv = rows[best]
        pv = piv[col]
        for t in below:
            row = rows[t]
            c = row[col]
            gr, gi = _gcd(pv, c)
            n = gr * gr + gi * gi
            s, c = [((x * gr + y * gi) // n, (y * gr - x * gi) // n) for x, y in (pv, c)]
            rows[t] = row = _primitive(_combine(row, s, piv, c))
            if row:
                lead = min(row)
                if lead in buckets:
                    buckets[lead].append(t)
                else:
                    buckets[lead] = [t]
                    heappush(heap, lead)
    return pivots, [rows[i] for i in pivot_rows], pivot_rows


def pivot_columns(m: Matrix) -> tuple[int, ...]:
    """Pivot columns of the RREF of m, from the forward pass; a zero matrix
    has none and costs no elimination."""
    return tuple(_echelon(m)[0]) if m._num else ()


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    The canonical RREF, pivot rows normalized to 1, from the forward pass
    and back-substitution.  Each pivot row of the forward pass whose pivot
    entry is not 1 is multiplied by the conjugate of that entry, which
    makes it a positive int, its lead, and divided by the gcd of its ints.
    A row whose pivot entry is 1 is left as it is: it already leads with
    the positive int 1, and an int 1 among its entries makes the gcd 1, so
    both steps would give the row back.  Then, from the last pivot row up,
    each row that holds later pivot columns is scaled once by the lcm of
    their pivot rows' leads, where that lcm is not 1, each such column is
    cleared by its pivot row, and the row is divided by the gcd of its ints
    once, after the last column, unless its lead is then 1 (a gcd after
    each column made the RREF of a half-dense 60 x 80 Gaussian matrix three
    to four times slower).  The later rows are already reduced, zero in
    every pivot column but their own, so clearing one column changes no
    other pivot column, and each quotient by a lead is exact.  Each row is
    then its RREF row times its lead, the row's least denominator, and is
    scaled to the common denominator; a row whose scale is 1 keeps its
    entry pairs as they are.  A zero matrix is its own RREF and costs no
    elimination.
    """
    if not m._num:
        return m, ()
    pivots, rows, _ = _echelon(m)
    rows = [row if row[col] == (1, 0)
            else _primitive(_combine(row, (row[col][0], -row[col][1])))
            for col, row in zip(pivots, rows)]
    where = {col: k for k, col in enumerate(pivots)}
    for k in reversed(range(len(rows))):
        row = rows[k]
        later = [where[j] for j in row if j in where and j != pivots[k]]
        if later:
            s = lcm(*(rows[i][pivots[i]][0] for i in later))
            if s != 1:
                row = _combine(row, (s, 0))
            for i in later:
                lead = rows[i][pivots[i]][0]
                x, y = row[pivots[i]]
                row = _combine(row, (1, 0), rows[i], (x // lead, y // lead))
            rows[k] = row if row[pivots[k]] == (1, 0) else _primitive(row)
    den = lcm(*(row[col][0] for col, row in zip(pivots, rows)))
    num = {}
    for i, (col, row) in enumerate(zip(pivots, rows)):
        c = den // row[col][0]
        if c == 1:
            num.update(((i, j), v) for j, v in row.items())
        else:
            num.update(((i, j), (c * a, c * b)) for j, (a, b) in row.items())
    return _matrix(m.rows, m.cols, den, num), tuple(pivots)


def _peel(positions: Iterable[tuple[int, int]], levels: Sequence[int] | None = None,
          targets: Sequence[int] | None = None,
          ) -> tuple[list[tuple[int, int]], dict[int, set[int]], dict[int, set[int]]]:
    """(the (row, column) pairs peeled, the core's rows, the core's columns)
    of the matrix with nonzero entries at `positions`, from those positions
    alone; the core is that matrix's entries in the rows and columns left.

    Without levels, every row or column with one entry is peeled with that
    entry's column or row, until none is left (`rank`).  levels, one per
    row, and targets, one per column, restrict the peel as `filtered_pivots`
    needs: a row singleton is peeled only if no other row of its column has
    a larger level, and a column singleton only if no other column of its
    row has a smaller target."""
    row_cols: dict[int, set[int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, j in positions:
        row_cols.setdefault(i, set()).add(j)
        col_rows.setdefault(j, set()).add(i)
    # (lines, cross, k): line k of `lines` holds the lines of `cross` it
    # meets; rows and columns are treated alike.  With levels, a line is
    # keyed, rows by level and columns by minus their target, and a
    # singleton k whose entry lies on line x of `cross` is peeled only if no
    # other line of `lines` meeting x has a larger key.  A singleton held
    # back is not looked at again: the pairs are right whatever is peeled,
    # and on the dim-8 model a second look whenever a line that held one
    # back dropped shrank the cores by 0.4%.
    below = None if targets is None else [-t for t in targets]
    work = [(row_cols, col_rows, i) for i, s in row_cols.items() if len(s) == 1]
    work += [(col_rows, row_cols, j) for j, s in col_rows.items() if len(s) == 1]
    pairs = []
    while work:
        lines, cross, k = work.pop()
        if k not in lines:  # dropped since it was queued
            continue
        if levels is None:
            (other,) = lines.pop(k)
        else:
            key = levels if lines is row_cols else below
            (other,) = lines[k]
            if any(key[t] > key[k] for t in cross[other]):
                continue
            del lines[k]
        pairs.append((k, other) if lines is row_cols else (other, k))
        for t in cross.pop(other):
            if t != k:
                s = lines[t]
                s.discard(other)
                if len(s) == 1:
                    work.append((lines, cross, t))
                elif not s:
                    del lines[t]
    return pairs, row_cols, col_rows


def rank(m: Matrix) -> int:
    """Rank of m: the singletons peeled, plus the rank of the core left over.

    A row singleton, a row whose only nonzero is at column j, clears column
    j from every other row by row operations that change nothing else, so
    rank m = 1 + the rank of m without that row and column j.  A column
    singleton clears its row by column operations in the same way.  The
    entries left keep their values, so each drop leaves a submatrix of m,
    and may make new singletons; a work list peels until none is left
    (`_peel`).  The peel only reads where the entries are, never their
    values, so it has no coefficient growth.  A nonzero matrix with one row
    or one column has rank 1.  A matrix with every entry nonzero (at least
    2 x 2) has no singleton and goes straight to `_dense_rank`, as does a
    core with every entry nonzero on its rows and columns; any other core
    goes to the forward pass of `_echelon`.
    """
    num = m._num
    if not num:
        return 0
    if m.rows == 1 or m.cols == 1:
        return 1
    if len(num) == m.rows * m.cols:
        return _dense_rank(num, range(m.rows), range(m.cols))
    pairs, rows, cols = _peel(num)
    if not rows:
        return len(pairs)
    # rows holds, for each row of the core, the core's columns it has an entry in.
    if sum(map(len, rows.values())) == len(rows) * len(cols):
        return len(pairs) + _dense_rank(num, list(rows), list(cols))
    core = {(i, j): v for (i, j), v in num.items() if i in rows and j in cols}
    return len(pairs) + len(_echelon(_matrix(m.rows, m.cols, 1, core))[0])


def _dense_rank(num: Entries, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Rank of the block of num at rows x cols, each of whose entries is
    nonzero, by one-step Bareiss elimination on lists (Bareiss, Math. Comp.
    1968).

    The lines of the shorter side are held as lists of (re, im): a tall
    block is transposed, which keeps its rank.  On an m x n block with
    m > n, a pass that updates each row from its pivot column on makes about
    r (m - n) more entry updates than on the transpose.  Each column in turn
    takes the first live row with a nonzero entry there as its pivot row,
    and `_bareiss_step` replaces every other live row t by
    (pv t - c piv) / prev over Z[i], where pv is the pivot entry, c is t's
    entry in the column and prev the pivot entry of the step before (1 at
    the first), and drops the rows that become zero.  A column with no
    nonzero live entry is skipped and leaves prev as it was.  The rank is
    the number of pivots.

    Each division is exact.  Every live row is updated at every step, so
    after pivots in columns c_1 < ... < c_k from pivot rows p_1, ..., p_k,
    the entry of a live row t in a later column j is, by Sylvester's
    identity, the minor of the input on rows p_1, ..., p_k, t and columns
    c_1, ..., c_k, j, and prev is the leading minor on p_1, ..., p_k and
    c_1, ..., c_k.  A skipped column adds no row and no column to either,
    so prev stays, and a row that becomes zero stays zero, so dropping it
    changes no other row.  The numerator pv t - c piv of the next step is
    prev times such a (k + 2)-minor, a Z[i] multiple of prev.
    """
    if len(rows) <= len(cols):
        lines = [[num[i, j] for j in cols] for i in rows]
    else:
        lines = [[num[i, j] for i in rows] for j in cols]
    prev = (1, 0)
    pivots = 0
    while lines and lines[0]:
        for k, t in enumerate(lines):
            if t[0] != (0, 0):
                break
        else:
            lines = [t[1:] for t in lines]
            continue
        piv = lines.pop(k)
        lines = _bareiss_step(lines, piv, prev)
        prev = piv[0]
        pivots += 1
    return pivots


def _bareiss_step(lines: list[list[tuple[int, int]]], piv: list[tuple[int, int]],
                  prev: tuple[int, int]) -> list[list[tuple[int, int]]]:
    """One step of `_dense_rank`: for each row t of lines, with c its first
    entry and pv piv's, the entries after the first of (pv t - c piv) / prev
    over Z[i], the rows that become zero left out.  The caller guarantees
    that the division is exact."""
    (pr, pi), tail = piv[0], piv[1:]
    dr, di = prev
    n = dr * dr + di * di
    whole = prev == (1, 0)
    out = []
    for t in lines:
        cr, ci = t[0]
        new = []
        for (a, b), (u, v) in zip(t[1:], tail):
            x = pr * a - pi * b - cr * u + ci * v
            y = pr * b + pi * a - cr * v - ci * u
            new.append((x, y) if whole else ((x * dr + y * di) // n, (y * dr - x * di) // n))
        if new.count((0, 0)) < len(new):
            out.append(new)
    return out


def filtered_pivots(d: Matrix, levels: Sequence[int], targets: Sequence[int],
                    cleared: Container[int] = ()) -> list[tuple[int, int]]:
    """The persistence pairs (source, target) of d, a map between filtered
    coordinate spaces: column j of d, a source coordinate, has level
    levels[j], and row i, a target coordinate, has level targets[i].  For
    all a and b, the number of pairs with source level >= a and target
    level < b is the rank of d's block of those columns and rows.  The
    columns in `cleared` are left out; the caller guarantees that this
    changes none of those ranks.  A zero matrix has no pair and costs no
    elimination.

    This is the reduction of d's transpose, whose rows are the sources,
    read straight from d's entries, and for each a and b the ranks are those
    of its block B(a, b) of the rows of level >= a and the columns of target
    < b.  `_peel` with levels and targets first pairs singletons.  Take a
    row singleton r, its one entry in column c, with no row of column c
    deeper than r.  If B(a, b) holds r and c, row operations with r clear
    c's other entries and change nothing else, so its rank is one more than
    without r and c.  If it holds r but not c, row r is zero in it; if it
    holds c but not r, every row of column c is below level a, and column c
    is zero in it.  So dropping r and c takes one from exactly the ranks
    that count the pair (level r, target c).  A column singleton c, its one
    entry in row r, with no column of lower target in row r, is the same
    with rows and columns swapped.  The core left over goes to `_echelon`
    with the row levels, its columns ordered by target and then by index.
    A row is then changed only by rows of its own level or deeper, so for
    every a the pivots of the rows of level >= a are those of the pivot
    rows of level >= a, and the columns of target < b are a prefix.
    """
    num = d._num
    if not num:
        return []
    pairs, rows, cols = _peel(((j, i) for i, j in num if j not in cleared), levels, targets)
    if rows:
        order = sorted(cols, key=lambda i: (targets[i], i))
        index = {i: c for c, i in enumerate(order)}
        core = {(j, index[i]): v for (i, j), v in num.items() if j in rows and i in index}
        pivots, _, pivot_rows = _echelon(_matrix(d.cols, len(order), 1, core), levels)
        pairs += [(j, order[c]) for c, j in zip(pivots, pivot_rows)]
    return pairs


# -- subspaces ---------------------------------------------------------------


def _signed_transpose(m: Matrix, sign: int) -> Matrix:
    """sign * transpose(m), for sign +-1, in one pass over m's entries."""
    return _matrix(m.cols, m.rows, m._den,
                   {(j, i): (sign * x, sign * y) for (i, j), (x, y) in m._num.items()})


def _select_columns(m: Matrix, cols: Sequence[int]) -> Matrix:
    """The matrix of m's columns cols, in that order."""
    index = {j: k for k, j in enumerate(cols)}
    return _matrix(m.rows, len(cols), m._den,
                   {(i, index[j]): v for (i, j), v in m._num.items() if j in index})


def canonical_span(m: Matrix) -> Matrix:
    """Canonical basis of the column space: the nonzero rows of the RREF of
    m's transpose, as columns."""
    red, pivots = rref(m.transpose())
    return red[:len(pivots), :].transpose()


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of {v : m v = 0}, one column per free column of the RREF of m;
    their number is cols - rank (rank-nullity)."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = {j: k for k, j in enumerate(j for j in range(m.cols) if j not in pivot_set)}
    num = {(j, k): (red._den, 0) for j, k in free.items()}
    num.update(((pivots[i], free[j]), (-x, -y))
               for (i, j), (x, y) in red._num.items() if j in free)
    return _matrix(m.cols, len(free), red._den, num)


def _canonical_kernel(m: Matrix) -> Matrix:
    """`canonical_span(kernel_basis(m))`, from one RREF: the kernel basis
    of m with its columns reversed, read back in m's column order, the
    basis vectors in reverse.

    Write r(j) = n - 1 - j for the n columns, m' for m with column j moved
    to r(j), and F for the free columns of the RREF of m'; v is in ker m
    exactly when v with entry j moved to r(j) is in ker m'.  The basis
    vector of `kernel_basis(m')` at f in F is 1 at f and -num[(i, f)] at
    the pivot column of each RREF row i that holds f, and zero elsewhere,
    at every other column of F too; an RREF row holds no column before its
    pivot, so those pivot columns all lie before f.  Read back, the vector
    is 1 at r(f), zero at r(g) for every other g in F, and nonzero
    elsewhere only after r(f).  So each vector leads with 1 at r(f) and is
    zero at the lead of every other one: they are the nonzero rows of a
    reduced row echelon form whose row space is ker m, once sorted by
    their leads.  `kernel_basis` orders them by f, so reversing the basis
    sorts them by r(f).  The RREF of a row space is unique, so these are
    the columns of `canonical_span(kernel_basis(m))`, exactly.
    """
    n = m.cols
    flipped = kernel_basis(_matrix(m.rows, n, m._den,
                                   {(i, n - 1 - j): v for (i, j), v in m._num.items()}))
    k = flipped.cols
    return _matrix(n, k, flipped._den,
                   {(n - 1 - i, k - 1 - j): v for (i, j), v in flipped._num.items()})


def image_basis(m: Matrix) -> Matrix:
    """Basis of the column space: the pivot columns of m."""
    return _select_columns(m, pivot_columns(m))


def solve_columns(a: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve a X = rhs column by column; None if any column is inconsistent.

    A pivot landing in the right-hand block is exactly a column outside the
    span of a, so one elimination decides consistency and reads the solution:
    RREF row r gives the coordinate at its pivot column.  Free columns of a
    get coefficient zero.
    """
    red, pivots = rref(hstack([a, rhs]))
    if any(p >= a.cols for p in pivots):
        return None
    num = {(pivots[r], j - a.cols): v for (r, j), v in red._num.items() if j >= a.cols}
    return _matrix(a.cols, rhs.cols, red._den, num)


def coset_representatives(z: Matrix, b: Matrix) -> Matrix:
    """Columns of z completing b to a basis of span(z); their classes span z/b.

    Deterministic: greedy from the left over z's columns, so the same (z, b)
    always yields the same representatives: the columns of z that are pivot
    columns of [b | z], from the forward pass alone.  Raises NotASubspace
    unless b's columns are independent.
    """
    pivots = pivot_columns(hstack([b, z]))
    if len([p for p in pivots if p < b.cols]) != b.cols:
        raise NotASubspace("denominator vectors are dependent")
    return _select_columns(z, [p - b.cols for p in pivots if p >= b.cols])


def _induced_map(f: Matrix, reps_src: Matrix, b_src: Matrix,
                 z_tgt: Matrix, b_tgt: Matrix) -> Matrix:
    """Matrix of the map (z_src/b_src) -> (z_tgt/b_tgt) induced by f, given
    the source's coset representatives reps_src, from one RREF of
    [b_tgt | z_tgt | f b_src | f reps_src].  Raises NotASubspace unless
    b_tgt has independent columns, and NotWellDefined unless f maps
    span(b_src) into span(b_tgt) and span(z_src) into
    span(z_tgt) + span(b_tgt).  The target's coset bases are those of
    `coset_representatives`, so induced matrices compose:
    induced(g @ f) = induced(g) @ induced(f).

    The pivots of a prefix of columns do not depend on the later columns, so:
    the pivots among b_tgt are all of b_tgt exactly when its columns are
    independent; those among z_tgt are the target's coset representatives
    (`coset_representatives(z_tgt, b_tgt)`), one RREF row each; f b_src lies
    in span(b_tgt) exactly when its block holds no pivot and is zero in the
    representatives' rows; and, given that, f reps_src lies in
    span(b_tgt) + span(z_tgt) exactly when its block holds no pivot.  Each
    column of that block is then the unique combination of the pivot
    columns its rows give, and the representatives' rows of it are the
    induced matrix.
    """
    nb, nz = b_tgt.cols, z_tgt.cols
    red, pivots = rref(hstack([b_tgt, z_tgt, f @ b_src, f @ reps_src]))
    if bisect_left(pivots, nb) != nb:
        raise NotASubspace("denominator vectors are dependent")
    # RREF rows nb .. end - 1 are the representatives'; the f reps_src block
    # starts at column cycles.
    end = bisect_left(pivots, nb + nz)
    cycles = nb + nz + b_src.cols
    if (end < len(pivots) and pivots[end] < cycles) or any(
            nb <= i < end and nb + nz <= j < cycles for i, j in red._num):
        raise NotWellDefined("f does not map the source boundaries into the target boundaries")
    if end < len(pivots):
        raise NotWellDefined("f does not map the source cycles into the target cycles")
    return red[nb:end, cycles:]
