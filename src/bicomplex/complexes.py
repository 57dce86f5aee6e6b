"""Bounded double complexes with real structure, and their constructions.

A DoubleComplex is a bigraded finite-dimensional space A^{p,q} over the
Gaussian rationals with two anticommuting square-zero differentials,

    d1 : A^{p,q} -> A^{p+1,q}      d2 : A^{p,q} -> A^{p,q+1},

and an optional real structure sigma.  sigma is conjugation-antilinear, so
it is stored per bidegree as a plain matrix S with the convention

    sigma(v) = S^{p,q} . conj(v)   in coordinates,  S^{p,q} : A^{p,q} -> A^{q,p}.

The axioms then read, blockwise:

    S^{q,p} . conj(S^{p,q}) = 1                        (involution)
    S^{p+1,q} . conj(d1^{p,q}) = d2^{q,p} . S^{p,q}    (sigma d1 sigma = d2)
    S^{p,q+1} . conj(d2^{p,q}) = d1^{q,p} . S^{p,q}    (sigma d2 sigma = d1)

Only nonzero data is stored: dims maps bidegrees to positive dimensions and
differential blocks are kept only when nonzero.  The bidegree rectangle
outside which everything vanishes is derived, not stored.

Sign conventions fixed here and relied on everywhere else:

  * tensor:  d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy  with |x| the total
    degree; this is the unique choice making the axioms hold.
  * dual(a, n):  dims'(p,q) = dims(n-p, n-q) and
    d1'^{p,q} = (-1)^{p+q+1} transpose(d1^{n-p-1,n-q}),
    d2'^{p,q} = (-1)^{p+q+1} transpose(d2^{n-p,n-q-1});
    applying dual twice returns the original after rescaling each A^{p,q}
    by (-1)^{p+q} (the canonical double-dual identification).
  * square(p, q):  d2 edges are +1, the bottom d1 edge is +1 and the top d1
    edge is -1, so the anticommutator vanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

from .linalg import (
    Matrix,
    assemble,
    kernel_basis,
    image_basis,
    induced_subquotient_map,
    kron,
    pivot_columns,
    rank,
    solve_columns,
)
from .scalars import ONE, gauss

BiDegree = tuple[int, int]


class ShapeError(ValueError):
    """Stored matrices are inconsistent with the stated dimensions."""


class MorphismError(ValueError):
    """Blocks of a would-be morphism do not commute with the differentials."""


class NotInjective(ValueError):
    """quotient() needs a blockwise injective inclusion."""

    def __init__(self, p: int, q: int):
        super().__init__(f"inclusion is not injective at bidegree ({p}, {q})")
        self.bidegree = (p, q)


class WindowTooSmall(ValueError):
    """random_complex was given a window no shape fits into."""


class Violation(NamedTuple):
    """One failed double-complex axiom, at one bidegree."""

    p: int
    q: int
    identity: str

    def __str__(self) -> str:
        return f"({self.p},{self.q}): {self.identity}"


def _clean_dims(dims: Mapping[BiDegree, int]) -> dict[BiDegree, int]:
    out = {}
    for pq, n in dims.items():
        if n < 0:
            raise ShapeError(f"negative dimension at {pq}")
        if n:
            out[pq] = int(n)
    return out


@dataclass(frozen=True)
class DoubleComplex:
    dims: Mapping[BiDegree, int]
    d1: Mapping[BiDegree, Matrix]
    d2: Mapping[BiDegree, Matrix]
    sigma: Mapping[BiDegree, Matrix] | None = None
    labels: Mapping[BiDegree, tuple[str, ...]] | None = None

    def __post_init__(self):
        dims = _clean_dims(self.dims)
        object.__setattr__(self, "dims", dims)

        def clean_blocks(blocks, shape_of, what):
            out = {}
            for pq, m in blocks.items():
                rows, cols = shape_of(pq)
                if (m.rows, m.cols) != (rows, cols):
                    raise ShapeError(
                        f"{what} block at {pq} is {m.rows}x{m.cols}, expected {rows}x{cols}"
                    )
                if not m.is_zero():
                    out[pq] = m
            return out

        dim = lambda pq: dims.get(pq, 0)
        object.__setattr__(self, "d1", clean_blocks(
            self.d1, lambda pq: (dim((pq[0] + 1, pq[1])), dim(pq)), "d1"))
        object.__setattr__(self, "d2", clean_blocks(
            self.d2, lambda pq: (dim((pq[0], pq[1] + 1)), dim(pq)), "d2"))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", clean_blocks(
                self.sigma, lambda pq: (dim((pq[1], pq[0])), dim(pq)), "sigma"))
        if self.labels is not None:
            labels = {pq: tuple(names) for pq, names in self.labels.items() if dim(pq)}
            for pq, names in labels.items():
                if len(names) != dim(pq):
                    raise ShapeError(f"{len(names)} labels for dimension {dim(pq)} at {pq}")
            object.__setattr__(self, "labels", labels)

    # -- accessors -----------------------------------------------------------

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def d1_at(self, p: int, q: int) -> Matrix:
        m = self.d1.get((p, q))
        return m if m is not None else Matrix.zero(self.dim(p + 1, q), self.dim(p, q))

    def d2_at(self, p: int, q: int) -> Matrix:
        m = self.d2.get((p, q))
        return m if m is not None else Matrix.zero(self.dim(p, q + 1), self.dim(p, q))

    def sigma_at(self, p: int, q: int) -> Matrix:
        if self.sigma is None:
            raise ValueError("complex carries no real structure")
        m = self.sigma.get((p, q))
        return m if m is not None else Matrix.zero(self.dim(q, p), self.dim(p, q))

    def has_sigma(self) -> bool:
        return self.sigma is not None

    def bidegrees(self) -> list[BiDegree]:
        return sorted(self.dims)

    @property
    def window(self) -> tuple[int, int, int, int] | None:
        """Bounding rectangle (p_min, p_max, q_min, q_max) of the support."""
        if not self.dims:
            return None
        ps = [p for p, _ in self.dims]
        qs = [q for _, q in self.dims]
        return (min(ps), max(ps), min(qs), max(qs))

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims


# The zero complex trivially carries a real structure and (empty) labels, so
# direct sums with it keep whatever the other summand has.
ZERO_COMPLEX = DoubleComplex({}, {}, {}, {}, {})


# -- validation ---------------------------------------------------------------


def validate(a: DoubleComplex) -> list[Violation]:
    """All double-complex axioms, blockwise; an empty list means valid.

    Shape consistency is enforced at construction, so this checks the algebra:
    d1 d1 = 0, d2 d2 = 0, d1 d2 + d2 d1 = 0, and the sigma axioms when a real
    structure is present.
    """
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


# -- morphisms ----------------------------------------------------------------


@dataclass(frozen=True)
class Morphism:
    """A bidegree-preserving map of double complexes, stored blockwise.

    Construction fails hard unless every block commutes with both
    differentials; everything downstream assumes it.
    """

    source: DoubleComplex
    target: DoubleComplex
    blocks: Mapping[BiDegree, Matrix]

    def __post_init__(self):
        clean = {}
        for pq, m in self.blocks.items():
            rows = self.target.dim(*pq)
            cols = self.source.dim(*pq)
            if (m.rows, m.cols) != (rows, cols):
                raise ShapeError(f"morphism block at {pq} is {m.rows}x{m.cols}, expected {rows}x{cols}")
            if not m.is_zero():
                clean[pq] = m
        object.__setattr__(self, "blocks", clean)
        support = set(self.source.dims) | set(self.target.dims)
        for p, q in sorted(support):
            f = self.block_at(p, q)
            if self.target.d1_at(p, q) @ f != self.block_at(p + 1, q) @ self.source.d1_at(p, q):
                raise MorphismError(f"blocks do not commute with d1 at ({p}, {q})")
            if self.target.d2_at(p, q) @ f != self.block_at(p, q + 1) @ self.source.d2_at(p, q):
                raise MorphismError(f"blocks do not commute with d2 at ({p}, {q})")

    def block_at(self, p: int, q: int) -> Matrix:
        m = self.blocks.get((p, q))
        return m if m is not None else Matrix.zero(self.target.dim(p, q), self.source.dim(p, q))

    @classmethod
    def identity(cls, a: DoubleComplex) -> "Morphism":
        return cls(a, a, {pq: Matrix.identity(n) for pq, n in a.dims.items()})

    @classmethod
    def zero(cls, source: DoubleComplex, target: DoubleComplex) -> "Morphism":
        return cls(source, target, {})

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Composition self . other (other first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition of non-matching morphisms")
        blocks = {}
        for pq in other.blocks:
            blocks[pq] = self.block_at(*pq) @ other.block_at(*pq)
        return Morphism(other.source, self.target, blocks)

    def is_injective(self) -> bool:
        return all(rank(self.block_at(*pq)) == n for pq, n in self.source.dims.items())


# -- elementary building blocks ----------------------------------------------


def dot(p: int, q: int, label: str | None = None) -> DoubleComplex:
    """One dimension at (p, q), zero differentials."""
    labels = {(p, q): (label,)} if label is not None else None
    return DoubleComplex({(p, q): 1}, {}, {}, labels=labels)


def square(p: int, q: int) -> DoubleComplex:
    """The elementary acyclic 2x2 square with lower-left corner at (p, q)."""
    one = Matrix.identity(1)
    dims = {(p, q): 1, (p + 1, q): 1, (p, q + 1): 1, (p + 1, q + 1): 1}
    d1 = {(p, q): one, (p, q + 1): -one}
    d2 = {(p, q): one, (p + 1, q): one}
    return DoubleComplex(dims, d1, d2)


def zigzag(start: BiDegree, length: int, first_arrow: str = "d2") -> DoubleComplex:
    """A staircase of `length` one-dimensional spaces along two antidiagonals.

    Spaces alternate between sources and targets of identity arrows; with
    first_arrow="d2" the walk from `start` goes up, then receives from the
    left, then up again, so bidegrees march diagonally up-left.  With
    first_arrow="d1" the transposed staircase is built.  length 1 is a dot,
    length 2 a single identity edge.
    """
    if length < 1:
        raise ValueError("zigzag length must be at least 1")
    if first_arrow not in ("d1", "d2"):
        raise ValueError("first_arrow must be 'd1' or 'd2'")
    p, q = start
    spots = [(p, q)]
    for step in range(1, length):
        if first_arrow == "d2":
            p, q = (p, q + 1) if step % 2 == 1 else (p - 1, q)
        else:
            p, q = (p + 1, q) if step % 2 == 1 else (p, q - 1)
        spots.append((p, q))
    dims = {s: 1 for s in spots}
    if len(dims) != length:
        raise ValueError("zigzag revisits a bidegree")
    one = Matrix.identity(1)
    d1: dict[BiDegree, Matrix] = {}
    d2: dict[BiDegree, Matrix] = {}
    for i in range(length - 1):
        a, b = spots[i], spots[i + 1]
        lo, hi = (a, b) if a[0] + a[1] < b[0] + b[1] else (b, a)
        if hi == (lo[0] + 1, lo[1]):
            d1[lo] = one
        else:
            d2[lo] = one
    return DoubleComplex(dims, d1, d2)


# -- constructions -------------------------------------------------------------


def shift(a: DoubleComplex, i: int) -> DoubleComplex:
    """Reindex by (A[i])^{p,q} = A^{p-i,q-i}; differentials and sigma unchanged."""
    move = lambda blocks: {(p + i, q + i): m for (p, q), m in blocks.items()}
    return DoubleComplex(
        {(p + i, q + i): n for (p, q), n in a.dims.items()},
        move(a.d1),
        move(a.d2),
        move(a.sigma) if a.sigma is not None else None,
        move(a.labels) if a.labels is not None else None,
    )


def transpose_complex(a: DoubleComplex) -> DoubleComplex:
    """Swap the two gradings and the two differentials (sigma transported along)."""
    flip = lambda blocks: {(q, p): m for (p, q), m in blocks.items()}
    return DoubleComplex(
        {(q, p): n for (p, q), n in a.dims.items()},
        {(q, p): m for (p, q), m in a.d2.items()},
        {(q, p): m for (p, q), m in a.d1.items()},
        flip(a.sigma) if a.sigma is not None else None,
        flip(a.labels) if a.labels is not None else None,
    )


def direct_sum_many(summands: Sequence[DoubleComplex]) -> tuple[DoubleComplex, list[Morphism]]:
    """Blockwise direct sum with the list of summand inclusions."""
    dims: dict[BiDegree, int] = {}
    offsets: list[dict[BiDegree, int]] = []
    for s in summands:
        offs = {}
        for pq, n in s.dims.items():
            offs[pq] = dims.get(pq, 0)
            dims[pq] = dims.get(pq, 0) + n
        offsets.append(offs)

    def place(block_of, target_of):
        out: dict[BiDegree, dict] = {}
        for s, offs in zip(summands, offsets):
            for pq, m in block_of(s).items():
                tgt = target_of(pq)
                ro = offs.get(tgt, 0)
                co = offs[pq]
                cell = out.setdefault(pq, {})
                for (i, j), v in m.entries.items():
                    cell[(i + ro, j + co)] = v
        return out

    def to_matrices(placed, target_of):
        return {
            pq: Matrix(dims.get(target_of(pq), 0), dims.get(pq, 0), cell)
            for pq, cell in placed.items()
        }

    d1 = to_matrices(place(lambda s: s.d1, lambda pq: (pq[0] + 1, pq[1])),
                     lambda pq: (pq[0] + 1, pq[1]))
    d2 = to_matrices(place(lambda s: s.d2, lambda pq: (pq[0], pq[1] + 1)),
                     lambda pq: (pq[0], pq[1] + 1))
    sigma = None
    if summands and all(s.sigma is not None for s in summands):
        sigma = to_matrices(place(lambda s: s.sigma, lambda pq: (pq[1], pq[0])),
                            lambda pq: (pq[1], pq[0]))
    labels = None
    if summands and all(s.labels is not None for s in summands):
        labels = {}
        for pq, n in dims.items():
            names = [""] * n
            for s, offs in zip(summands, offsets):
                if s.dim(*pq):
                    for k, name in enumerate(s.labels.get(pq, ("?",) * s.dim(*pq))):
                        names[offs[pq] + k] = name
            labels[pq] = tuple(names)
    total = DoubleComplex(dims, d1, d2, sigma, labels)
    inclusions = []
    for s, offs in zip(summands, offsets):
        blocks = {}
        for pq, n in s.dims.items():
            blocks[pq] = Matrix(dims[pq], n, {(offs[pq] + k, k): ONE for k in range(n)})
        inclusions.append(Morphism(s, total, blocks))
    return total, inclusions


def direct_sum(a: DoubleComplex, b: DoubleComplex) -> tuple[DoubleComplex, Morphism, Morphism]:
    total, (ia, ib) = direct_sum_many([a, b])
    return total, ia, ib


def tensor(a: DoubleComplex, b: DoubleComplex) -> DoubleComplex:
    """Tensor product with the Koszul sign on the second factor.

    The (p, q) piece is ordered by the first factor's bidegree (lexicographic),
    Kronecker convention inside each summand: index = i_a * dim_b + i_b.
    """
    comps: dict[BiDegree, list[tuple[BiDegree, BiDegree]]] = {}
    for pq_a in sorted(a.dims):
        for pq_b in sorted(b.dims):
            tot = (pq_a[0] + pq_b[0], pq_a[1] + pq_b[1])
            comps.setdefault(tot, []).append((pq_a, pq_b))
    dims = {
        pq: sum(a.dim(*ca) * b.dim(*cb) for ca, cb in parts)
        for pq, parts in comps.items()
    }

    def component_dims(pq):
        return [a.dim(*ca) * b.dim(*cb) for ca, cb in comps[pq]]

    def build(d_of_a, d_of_b, step):
        out = {}
        for pq, parts in comps.items():
            tgt = (pq[0] + step[0], pq[1] + step[1])
            if tgt not in comps:
                continue
            index_tgt = {part: k for k, part in enumerate(comps[tgt])}
            blocks = {}
            for ci, (ca, cb) in enumerate(parts):
                da = d_of_a(a, ca)
                if not da.is_zero():
                    part = ((ca[0] + step[0], ca[1] + step[1]), cb)
                    if part in index_tgt:
                        blocks[(index_tgt[part], ci)] = kron(da, Matrix.identity(b.dim(*cb)))
                db = d_of_b(b, cb)
                if not db.is_zero():
                    part = (ca, (cb[0] + step[0], cb[1] + step[1]))
                    if part in index_tgt:
                        sign = -1 if (ca[0] + ca[1]) % 2 else 1
                        blocks[(index_tgt[part], ci)] = kron(Matrix.identity(a.dim(*ca)), db).scale(sign)
            if blocks:
                out[pq] = assemble(
                    [a.dim(*ca) * b.dim(*cb) for ca, cb in comps[tgt]],
                    component_dims(pq),
                    blocks,
                )
        return out

    d1 = build(lambda c, pq: c.d1_at(*pq), lambda c, pq: c.d1_at(*pq), (1, 0))
    d2 = build(lambda c, pq: c.d2_at(*pq), lambda c, pq: c.d2_at(*pq), (0, 1))

    sigma = None
    if a.sigma is not None and b.sigma is not None:
        sigma = {}
        for pq, parts in comps.items():
            tgt = (pq[1], pq[0])
            index_tgt = {part: k for k, part in enumerate(comps[tgt])}
            blocks = {}
            for ci, (ca, cb) in enumerate(parts):
                sa = a.sigma_at(*ca)
                sb = b.sigma_at(*cb)
                part = ((ca[1], ca[0]), (cb[1], cb[0]))
                m = kron(sa, sb)
                if not m.is_zero():
                    blocks[(index_tgt[part], ci)] = m
            if blocks:
                sigma[pq] = assemble(
                    [a.dim(*ca) * b.dim(*cb) for ca, cb in comps[tgt]],
                    component_dims(pq),
                    blocks,
                )
    return DoubleComplex(dims, d1, d2, sigma)


def dual(a: DoubleComplex, n: int) -> DoubleComplex:
    """The dual complex of a model of complex dimension n (see module docstring)."""
    dims = {(n - p, n - q): m for (p, q), m in a.dims.items()}
    d1 = {}
    d2 = {}
    for p, q in dims:
        sign = -1 if (p + q) % 2 == 0 else 1  # (-1)^{p+q+1}
        src = a.d1_at(n - p - 1, n - q)
        if not src.is_zero():
            d1[(p, q)] = src.transpose().scale(sign)
        src = a.d2_at(n - p, n - q - 1)
        if not src.is_zero():
            d2[(p, q)] = src.transpose().scale(sign)
    sigma = None
    if a.sigma is not None:
        sigma = {}
        for p, q in dims:
            s = a.sigma_at(n - q, n - p)
            if not s.is_zero():
                sigma[(p, q)] = s.conjugate().transpose()
    return DoubleComplex(dims, d1, d2, sigma)


def rescale(a: DoubleComplex, unit: Callable[[int, int], int]) -> DoubleComplex:
    """Conjugate by the diagonal family unit(p, q) * id (unit must be +-1)."""
    d1 = {pq: m.scale(unit(pq[0] + 1, pq[1]) * unit(*pq)) for pq, m in a.d1.items()}
    d2 = {pq: m.scale(unit(pq[0], pq[1] + 1) * unit(*pq)) for pq, m in a.d2.items()}
    sigma = None
    if a.sigma is not None:
        sigma = {pq: m.scale(unit(pq[1], pq[0]) * unit(*pq)) for pq, m in a.sigma.items()}
    return DoubleComplex(dict(a.dims), d1, d2, sigma, a.labels)


def quotient(f: Morphism) -> tuple[DoubleComplex, Morphism]:
    """Cokernel of a blockwise injective morphism, with the projection.

    The quotient basis at each bidegree is the set of standard basis vectors
    of the target chosen greedily to complete the image; the projection sends
    a vector to its coordinates on those representatives.  The real structure
    descends exactly when the image is sigma-stable, and is dropped otherwise.
    """
    tgt = f.target
    lifts: dict[BiDegree, Matrix] = {}
    projs: dict[BiDegree, Matrix] = {}
    dims: dict[BiDegree, int] = {}
    labels: dict[BiDegree, tuple[str, ...]] | None = {} if tgt.labels is not None else None
    for pq in sorted(set(tgt.dims) | set(f.source.dims)):
        n_tgt = tgt.dim(*pq)
        n_src = f.source.dim(*pq)
        block = f.block_at(*pq)
        combined = Matrix(
            n_tgt,
            n_src + n_tgt,
            dict(block.entries) | {(i, n_src + i): ONE for i in range(n_tgt)},
        )
        pivots = pivot_columns(combined)
        image_pivots = [p for p in pivots if p < n_src]
        if len(image_pivots) != n_src:
            raise NotInjective(*pq)
        chosen = [p - n_src for p in pivots if p >= n_src]
        dims[pq] = len(chosen)
        lift = Matrix(n_tgt, len(chosen), {(e, k): ONE for k, e in enumerate(chosen)})
        frame = Matrix(n_tgt, n_src + len(chosen),
                       dict(block.entries) | {(e, n_src + k): ONE for k, e in enumerate(chosen)})
        inverse = solve_columns(frame, Matrix.identity(n_tgt))
        if inverse is None:
            raise RuntimeError(f"quotient: the frame at bidegree {pq} is not invertible")
        proj = Matrix(
            len(chosen),
            n_tgt,
            {(i - n_src, j): v for (i, j), v in inverse.entries.items() if i >= n_src},
        )
        lifts[pq] = lift
        projs[pq] = proj
        if labels is not None:
            base = tgt.labels.get(pq, tuple(f"e{k}" for k in range(n_tgt)))
            labels[pq] = tuple(base[e] for e in chosen)

    def induced(block_at, step):
        out = {}
        for pq, n in dims.items():
            tpq = (pq[0] + step[0], pq[1] + step[1])
            if dims.get(tpq, 0) == 0 or n == 0:
                continue
            m = projs[tpq] @ block_at(*pq) @ lifts[pq]
            out[pq] = m
        return out

    q_d1 = induced(tgt.d1_at, (1, 0))
    q_d2 = induced(tgt.d2_at, (0, 1))
    q_sigma = None
    if tgt.sigma is not None and _image_sigma_stable(f):
        q_sigma = {}
        for pq, n in dims.items():
            tpq = (pq[1], pq[0])
            if dims.get(tpq, 0) == 0 or n == 0:
                continue
            q_sigma[pq] = projs[tpq] @ tgt.sigma_at(*pq) @ lifts[pq]
    result = DoubleComplex(dims, q_d1, q_d2, q_sigma, labels)
    projection = Morphism(tgt, result, {pq: m for pq, m in projs.items() if dims.get(pq, 0)})
    return result, projection


def _image_sigma_stable(f: Morphism) -> bool:
    if f.target.sigma is None:
        return False
    for pq, n in f.source.dims.items():
        if n == 0:
            continue
        moved = f.target.sigma_at(*pq) @ f.block_at(*pq).conjugate()
        dest = f.block_at(pq[1], pq[0])
        if dest.cols == 0:
            if not moved.is_zero():
                return False
        elif solve_columns(dest, moved) is None:
            return False
    return True


# -- E1-isomorphism test --------------------------------------------------------


@dataclass(frozen=True)
class E1Witness:
    p: int
    q: int
    source_dim: int
    target_dim: int
    rank: int

    @property
    def bijective(self) -> bool:
        return self.source_dim == self.target_dim == self.rank


@dataclass(frozen=True)
class E1Report:
    """Verdict of the column-cohomology comparison, with one witness per bidegree."""

    entries: tuple[E1Witness, ...]

    def __bool__(self) -> bool:
        return all(w.bijective for w in self.entries)

    @property
    def ok(self) -> bool:
        return bool(self)

    def failing(self) -> E1Witness | None:
        for w in self.entries:
            if not w.bijective:
                return w
        return None


def _column_spaces(a: DoubleComplex, p: int, q: int):
    z = kernel_basis(a.d2_at(p, q))
    b = image_basis(a.d2_at(p, q - 1))
    return z, b


def is_E1_isomorphism(f: Morphism) -> E1Report:
    """True iff f induces bijections on column cohomology at every bidegree."""
    support = sorted(set(f.source.dims) | set(f.target.dims))
    witnesses = []
    for p, q in support:
        z_s, b_s = _column_spaces(f.source, p, q)
        z_t, b_t = _column_spaces(f.target, p, q)
        m = induced_subquotient_map(f.block_at(p, q), z_s, b_s, z_t, b_t)
        witnesses.append(E1Witness(p, q, m.cols, m.rows, rank(m)))
    return E1Report(tuple(witnesses))


# -- random complexes -----------------------------------------------------------


def random_complex(seed: int, window: tuple[int, int, int, int], size: int,
                   with_sigma: bool = False) -> DoubleComplex:
    """A valid random complex: squares and zigzags in a window, then a random
    invertible change of basis at every bidegree.

    Deterministic in the seed.  With with_sigma=True every shape is paired
    with its transposed copy inside the symmetric part of the window and the
    swap of the two copies becomes a real structure, which survives the basis
    change by conjugating sigma along with the differentials.
    """
    p_min, p_max, q_min, q_max = window
    rng = random.Random(seed)
    if with_sigma:
        lo = max(p_min, q_min)
        hi = min(p_max, q_max)
        p_min = q_min = lo
        p_max = q_max = hi
    if p_min > p_max or q_min > q_max:
        raise WindowTooSmall("window contains no bidegree")

    shapes = [_random_shape(rng, p_min, p_max, q_min, q_max) for _ in range(size)]
    if with_sigma:
        shapes = [_mirror_pair(s) for s in shapes]
    total, _ = direct_sum_many(shapes) if shapes else (ZERO_COMPLEX, [])
    return _random_basis_change(rng, total)


def _mirror_pair(s: DoubleComplex) -> DoubleComplex:
    """s + transpose(s), with the real structure that swaps the two copies.

    The block of s at (p, q) goes identically to the block of its mirror at
    (q, p), and back.  All shape entries are rational, so conjugation is
    invisible here and the swap is a genuine real structure.
    """
    pair, _ = direct_sum_many([s, transpose_complex(s)])
    sigma = {}
    for p, q in pair.dims:
        n, m = s.dim(p, q), s.dim(q, p)
        swap = {(m + i, i): ONE for i in range(n)} | {(i, n + i): ONE for i in range(m)}
        sigma[(p, q)] = Matrix(m + n, n + m, swap)
    return DoubleComplex(pair.dims, pair.d1, pair.d2, sigma, pair.labels)


def _random_shape(rng: random.Random, p_min, p_max, q_min, q_max) -> DoubleComplex:
    w = p_max - p_min
    h = q_max - q_min
    for _ in range(32):
        kind = rng.randrange(10)
        if kind < 3:
            return dot(rng.randint(p_min, p_max), rng.randint(q_min, q_max))
        if kind < 6 and w >= 1 and h >= 1:
            return square(rng.randint(p_min, p_max - 1), rng.randint(q_min, q_max - 1))
        length = rng.randint(2, 5)
        first = "d2" if rng.randrange(2) else "d1"
        z = _try_zigzag(rng, length, first, p_min, p_max, q_min, q_max)
        if z is not None:
            return z
    return dot(rng.randint(p_min, p_max), rng.randint(q_min, q_max))


def _try_zigzag(rng, length, first, p_min, p_max, q_min, q_max):
    p = rng.randint(p_min, p_max)
    q = rng.randint(q_min, q_max)
    z = zigzag((p, q), length, first)
    lo_p, hi_p, lo_q, hi_q = z.window
    if lo_p >= p_min and hi_p <= p_max and lo_q >= q_min and hi_q <= q_max:
        return z
    return None


def _random_invertible(rng: random.Random, n: int) -> Matrix:
    """Unit lower times unit upper triangular with small random entries."""
    pool = [gauss(0), gauss(1), gauss(-1), gauss(2), gauss(0, 1), gauss(1, -1)]
    lower = {(i, i): ONE for i in range(n)}
    upper = {(i, i): ONE for i in range(n)}
    for i in range(n):
        for j in range(i):
            v = pool[rng.randrange(len(pool))]
            if v:
                lower[(i, j)] = v
            v = pool[rng.randrange(len(pool))]
            if v:
                upper[(j, i)] = v
    return Matrix(n, n, lower) @ Matrix(n, n, upper)


def _random_basis_change(rng: random.Random, a: DoubleComplex) -> DoubleComplex:
    change = {pq: _random_invertible(rng, n) for pq, n in sorted(a.dims.items())}
    inverse = {}
    for pq, c in change.items():
        inv = solve_columns(c, Matrix.identity(c.rows))
        if inv is None:
            raise RuntimeError(f"random change of basis at bidegree {pq} is not invertible")
        inverse[pq] = inv

    def conjugated(blocks, target_of):
        out = {}
        for pq, m in blocks.items():
            tgt = target_of(pq)
            left = change.get(tgt, Matrix.identity(m.rows))
            out[pq] = left @ m @ inverse[pq]
        return out

    d1 = conjugated(a.d1, lambda pq: (pq[0] + 1, pq[1]))
    d2 = conjugated(a.d2, lambda pq: (pq[0], pq[1] + 1))
    sigma = None
    if a.sigma is not None:
        sigma = {}
        for pq, m in a.sigma.items():
            tgt = (pq[1], pq[0])
            left = change.get(tgt, Matrix.identity(m.rows))
            conj_inv = solve_columns(change[pq].conjugate(), Matrix.identity(m.cols))
            if conj_inv is None:
                raise RuntimeError(
                    f"conjugate random change of basis at bidegree {pq} is not invertible")
            sigma[pq] = left @ m @ conj_inv
    return DoubleComplex(a.dims, d1, d2, sigma, a.labels)
