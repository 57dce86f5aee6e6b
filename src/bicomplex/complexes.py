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

Where the block of each map at (p, q) lands, (p+1, q) for d1, (p, q+1) for
d2 and (q, p) for sigma, is written once, in `_target`.  The shape checks
and every construction that builds blocks (the direct sum, tensor,
quotient and the random change of basis) loop over the map names and read
it, so each carries sigma by the same rule as d1 and d2.  `validate`,
`dual` and `Morphism` write their identities out in full.

This module holds data and constructions, and the total complex.  The
cohomologies, the cycles and boundaries of their subquotients, induced
maps and the E1-isomorphism test live in `cohomology`; a complex only
carries the slot for its `cohomology.Analysis`, which holds those spaces
and dies with it.  It also carries the slot for its one `Totalization`,
made on first use by whichever needs it first, `validate`, `de_rham`,
`frolicher` or a de Rham induced map, and shared by the rest: the total
differentials are assembled once per complex.

A complex also carries the verdict of `validate`: the first call records
its violation list in a slot on the complex, and every later call returns
a copy of that list without a product.  Two constructions record the
empty list as they build, each with its proof once, so `validate` of what
they build makes no product: `dual` of a complex whose recorded list is
empty, each axiom of the dual being the transpose of one of the
original's (the proof is in `dual`), and `models.lie_algebra_model`, whose
check of d1^2, d2^2 and d1 d2 + d2 d1 on the generators settles the
axioms for the derivations (the proof is there).  The Analysis reads the
slot: only on a complex whose recorded list is empty do the tables skip
the containment products that the axioms imply and read a rank from its
mirror under the real structure.  A complex with no verdict, or one with
a violation, gets no such shortcut.  `dual` also writes the Serre record
(a, n): each of its blocks is a signed transpose of the source's block at
its Serre partner, so each of its tables is one of the source's,
reflected, and is read off it.  A complex built by
`models.lie_algebra_model` whose Serre pairing is a morphism carries the
record (None, n), its partner blocks being its own; every other
construction here starts with neither record.

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
import weakref
from itertools import islice
from typing import Callable, Mapping, NamedTuple, Sequence

from .linalg import (
    Matrix,
    _by_column,
    _equal_by_relabeling,
    _matrix,
    _products_vanish,
    _select_columns,
    _signed_transpose,
    _unit_lower_inverse,
    assemble,
    hstack,
    kron,
    rref,
)
from .scalars import ONE, _Value

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


def _zero(zeros: dict[tuple[int, int], Matrix], rows: int, cols: int) -> Matrix:
    """The zero rows x cols matrix held in zeros, made on first use.  A
    Matrix is never changed in place, so every absent block of one shape can
    be the same one."""
    m = zeros.get((rows, cols))
    if m is None:
        m = zeros[(rows, cols)] = Matrix.zero(rows, cols)
    return m


def _target(kind: str, p: int, q: int) -> BiDegree:
    """Where the block of the map kind ("d1", "d2" or "sigma") at (p, q)
    lands: d1 raises p, d2 raises q and sigma swaps them."""
    if kind == "d1":
        return p + 1, q
    if kind == "d2":
        return p, q + 1
    return q, p


def _clean_dims(dims: Mapping[BiDegree, int]) -> dict[BiDegree, int]:
    out = {}
    for pq, n in dims.items():
        if n < 0:
            raise ShapeError(f"negative dimension at {pq}")
        if n:
            out[pq] = int(n)
    return out


class DoubleComplex(_Value):
    """A bounded double complex: the dimension of each nonzero A^{p,q}, the
    nonzero blocks of d1, d2 and, when there is a real structure, sigma, and
    optional basis labels.  Construction drops zero dimensions and zero
    blocks and checks every block's shape.  A read-only value: equality
    compares dims, d1, d2, sigma and labels."""

    # Besides the value, memos that live and die with this complex: the
    # zero block of each shape that an absent block reads as, the
    # cohomology.Analysis and the Totalization of the complex, each made
    # on first use and each holding it through a weak proxy, the
    # violations `validate` found, None until it runs unless a
    # construction proved the complex valid and wrote () (`dual` of a
    # complex found valid, `models.lie_algebra_model`), and the Serre
    # record (b, n), None unless a construction proved it: every d1 and d2
    # block is, up to signed permutations, the transpose of b's block at
    # its Serre partner (see `cohomology.Analysis`).  `dual(a, n)` of an a
    # found valid writes (a, n) and holds a strongly, so a and all that
    # a's Analysis and Totalization keep live as long as the dual does;
    # `models.lie_algebra_model` writes (None, n), b the complex itself,
    # where no d1 or d2 block lands in (n, n).
    _fields = ("dims", "d1", "d2", "sigma", "labels")
    __slots__ = _fields + ("_zeros", "_analysis", "_totalization", "_violations", "_serre",
                           "__weakref__")

    def __init__(self, dims: Mapping[BiDegree, int], d1: Mapping[BiDegree, Matrix],
                 d2: Mapping[BiDegree, Matrix], sigma: Mapping[BiDegree, Matrix] | None = None,
                 labels: Mapping[BiDegree, tuple[str, ...]] | None = None):
        dims = _clean_dims(dims)
        dim = lambda pq: dims.get(pq, 0)
        maps = {"d1": d1, "d2": d2, "sigma": sigma}
        for kind, blocks in maps.items():
            if blocks is None:
                continue
            clean = {}
            for pq, m in blocks.items():
                rows, cols = dim(_target(kind, *pq)), dim(pq)
                if (m.rows, m.cols) != (rows, cols):
                    raise ShapeError(
                        f"{kind} block at {pq} is {m.rows}x{m.cols}, expected {rows}x{cols}")
                if not m.is_zero():
                    clean[pq] = m
            maps[kind] = clean
        if labels is not None:
            labels = {pq: tuple(names) for pq, names in labels.items() if dim(pq)}
            for pq, names in labels.items():
                if len(names) != dim(pq):
                    raise ShapeError(f"{len(names)} labels for dimension {dim(pq)} at {pq}")
        put = object.__setattr__
        put(self, "dims", dims)
        put(self, "d1", maps["d1"])
        put(self, "d2", maps["d2"])
        put(self, "sigma", maps["sigma"])
        put(self, "labels", labels)
        put(self, "_zeros", {})
        put(self, "_analysis", None)
        put(self, "_totalization", None)
        put(self, "_violations", None)
        put(self, "_serre", None)

    # -- accessors -----------------------------------------------------------

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def d1_at(self, p: int, q: int) -> Matrix:
        m = self.d1.get((p, q))
        return m if m is not None else _zero(self._zeros, self.dim(p + 1, q), self.dim(p, q))

    def d2_at(self, p: int, q: int) -> Matrix:
        m = self.d2.get((p, q))
        return m if m is not None else _zero(self._zeros, self.dim(p, q + 1), self.dim(p, q))

    def sigma_at(self, p: int, q: int) -> Matrix:
        if self.sigma is None:
            raise ValueError("complex carries no real structure")
        m = self.sigma.get((p, q))
        return m if m is not None else _zero(self._zeros, self.dim(q, p), self.dim(p, q))

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


class Totalization:
    """The total complex: T^k = sum of A^{p,q} with p + q = k, d = d1 + d2.

    Components are ordered by increasing p, which makes the column filtration
    F^p (components with first index >= p) a span of trailing coordinates.
    `Totalization.of(a)` is the one kept on a, made on first use, so each
    total differential of a complex is assembled once, by `validate`,
    `cohomology.de_rham` or `cohomology.frolicher`, whichever asks first.
    It holds the complex through a weak proxy, so the two form no
    reference cycle.
    """

    def __init__(self, a: DoubleComplex):
        self.complex = weakref.proxy(a)
        self.components: dict[int, list[BiDegree]] = {}
        self.offsets: dict[int, dict[BiDegree, int]] = {}
        self.dims: dict[int, int] = {}
        for pq, n in sorted(a.dims.items()):
            k = sum(pq)
            self.components.setdefault(k, []).append(pq)
            self.offsets.setdefault(k, {})[pq] = self.dims.get(k, 0)
            self.dims[k] = self.dims.get(k, 0) + n
        # The degrees k with d_k nonzero: those a stored d1 or d2 block leaves.
        self.moving = {p + q for blocks in (a.d1, a.d2) for p, q in blocks}
        self._d: dict[int, Matrix] = {}

    @classmethod
    def of(cls, a: DoubleComplex) -> "Totalization":
        if a._totalization is None:
            object.__setattr__(a, "_totalization", cls(a))
        return a._totalization

    def degrees(self) -> list[int]:
        return sorted(self.components)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def component(self, k: int, i: int) -> BiDegree:
        """The bidegree of the component of T^k that holds coordinate i."""
        return [pq for pq, off in self.offsets[k].items() if off <= i][-1]

    def differential(self, k: int) -> Matrix:
        """d_k, assembled on first use; its entries run by source
        component, in the order of `components`."""
        if k not in self._d:
            a = self.complex
            src, tgt = self.components.get(k, []), self.components.get(k + 1, [])
            index = {pq: n for n, pq in enumerate(tgt)}
            blocks = {(index[_target(kind, *pq)], j): stored[pq] for j, pq in enumerate(src)
                      for kind, stored in (("d1", a.d1), ("d2", a.d2)) if pq in stored}
            self._d[k] = assemble([a.dim(*pq) for pq in tgt], [a.dim(*pq) for pq in src], blocks)
        return self._d[k]

    def leading(self, k: int, rows: int, cols: int) -> Matrix:
        """The first `cols` columns of d_k, which end where a component of
        T^k does, as a matrix of its first `rows` rows, which hold all
        their entries.  The entries of d_k run by source component, so
        those columns' are its first ones: counted off the stored blocks
        and copied with no test per entry."""
        a, d = self.complex, self.differential(k)
        count = sum(len(blocks[pq]._num) for pq, off in self.offsets.get(k, {}).items()
                    if off < cols for blocks in (a.d1, a.d2) if pq in blocks)
        return _matrix(rows, cols, d._den, dict(islice(d._num.items(), count)))

    def embed_block(self, f: Morphism, k: int, other: "Totalization") -> Matrix:
        """The degree-k block of the totalized morphism.  A block f stores
        is nonzero, so its bidegree is a component of other's T^k."""
        src, tgt = self.components.get(k, []), other.components.get(k, [])
        index = {pq: n for n, pq in enumerate(tgt)}
        blocks = {(index[pq], j): f.blocks[pq] for j, pq in enumerate(src) if pq in f.blocks}
        return assemble([other.complex.dim(*pq) for pq in tgt],
                        [self.complex.dim(*pq) for pq in src], blocks)


# -- validation ---------------------------------------------------------------


def _commutes(s1: Matrix, x: Matrix, y: Matrix, s0: Matrix, conjugate: bool = False) -> bool:
    """Whether s1 @ op(x) == y @ s0, op(x) being conj(x) where conjugate is
    set: by relabeling stored entries where s1 and s0 are partial monomials,
    with at most one entry in each row and each column
    (`linalg._equal_by_relabeling`), and otherwise as one vanishing sum of
    two products over Z[i] (`linalg._products_vanish`)."""
    found = _equal_by_relabeling(s1, x, y, s0, conjugate)
    if found is None:
        found = _products_vanish([(1, s1, x, conjugate), (-1, y, s0, False)])
    return found


def validate(a: DoubleComplex) -> list[Violation]:
    """All double-complex axioms; an empty list means valid.

    Shape consistency is enforced at construction, so this checks the algebra:
    d1 d1 = 0, d2 d2 = 0, d1 d2 + d2 d1 = 0, and the sigma axioms when a real
    structure is present.  The list holds the d-axioms by bidegree, then the
    sigma axioms by bidegree.

    The three d-axioms say together that d^2 = 0 on the total complex, and
    are read off it one degree at a time.  For each degree k at which d_k
    and d_{k+1} are both nonzero, the complex's `Totalization` gives one
    product d_{k+1} d_k.  Its block from the component (p, q) to (p+2, q),
    (p+1, q+1) or (p, q+2) is d1 d1, d1 d2 + d2 d1 or d2 d2 at (p, q), and
    it has no other block; so each of its nonzero entries marks one identity
    failing at one bidegree, and each identity at each bidegree is checked
    exactly once.  A degree where d_k or d_{k+1} is zero holds every
    identity there.  The total differentials are assembled once and kept
    on the Totalization, where `cohomology.de_rham` and
    `cohomology.frolicher` read them.

    Each sigma identity reads S1 op(X) = Y S0, the involution as
    S^{q,p} conj(S^{p,q}) = 1 . 1.  Where both of its sigma blocks are
    partial monomials, with at most one entry in each row and each column,
    as on every Lie-algebra model and its sums, shifts, tensors and duals,
    and wherever a block is zero, it is decided by relabeling: each entry
    of X is moved and scaled to its one position, or dropped, and compared
    with Y's entry there (`linalg._equal_by_relabeling`, which holds the
    proof), with no product.  Any other sigma, such as the dense one of a
    random change of basis, takes the product route: each sigma identity,
    the involution as S^{q,p} conj(S^{p,q}) - 1 . 1, is one sum of signed
    products that must vanish, decided over Z[i] by
    `linalg._products_vanish` on the blocks themselves, conjugating X's
    entries as it reads them.  Both routes are `_commutes`.  On a valid
    complex no scalar and no conjugate copy is built.

    The list is recorded on a, and a later call returns a copy of it and
    makes no product.  `dual` of a complex found valid and
    `models.lie_algebra_model` record the empty list as they build, each
    with its proof, so the first call on what they build makes none either.

    Under a real structure, a check may read the verdict of its mirror at
    (q, p) instead of computing its own (write S for the sigma blocks);
    each rule is exact:

      * the involution at (p, q) with p > q reads the one at (q, p), once
        dim A^{p,q} = dim A^{q,p} at every bidegree.  A one-sided inverse of
        a square matrix is two-sided, so S^{p,q} conj(S^{q,p}) = 1 gives
        conj(S^{q,p}) S^{p,q} = 1, the conjugate of the involution at (p, q).
      * sigma d2 sigma = d1 at (p, q) reads sigma d1 sigma = d2 at (q, p),
        once the involution holds at every bidegree.  Conjugate the second,
        multiply by S^{p,q+1} on the left and S^{p,q} on the right, and use
        the involution at (q+1, p) and at (p, q).
      * the d-axioms at (p, q) with p > q read those at (q, p), d1 d1 = 0
        from d2 d2 = 0, d2 d2 = 0 from d1 d1 = 0 and the anticommutator
        from itself, once every sigma identity holds.  Then
        d2^{q,p} = S^{p+1,q} conj(d1^{p,q}) conj(S^{q,p}) and likewise with
        d1 and d2 swapped, so each product at (p, q) is its mirror at
        (q, p), conjugated and multiplied by invertible sigma blocks on both
        sides.  The components of T^k run by increasing p, so those with
        p <= q are a prefix of its coordinates, and d_{k+1} multiplies only
        those columns of d_k.  Their image lies in the components of
        T^{k+1} with p <= q + 1, again a prefix, so only those columns of
        d_{k+1} take part; both prefixes are the first entries of their
        differentials, copied whole (`Totalization.leading`).

    Where a condition fails, the checks it guards are computed at their own
    bidegree, so the list is the same either way.  A complex without a real
    structure multiplies every column.
    """
    if a._violations is not None:
        return list(a._violations)
    d1, d2 = a.d1_at, a.d2_at
    dd1, dd2, anti = "d1 . d1 != 0", "d2 . d2 != 0", "d1 d2 + d2 d1 != 0"
    inv, sd1, sd2 = "sigma is not an involution", "sigma d1 sigma != d2", "sigma d2 sigma != d1"
    bidegrees = a.bidegrees()
    holds: dict[tuple[str, int, int], bool] = {}

    def decide(identity: str, check: Callable[[int, int], bool], mirror: str | None = None):
        """Fill identity's verdicts; with a mirror, (p, q) reads the verdict
        the table already holds for mirror at (q, p), where there is one."""
        for p, q in bidegrees:
            seen = holds.get((mirror, q, p))
            holds[identity, p, q] = check(p, q) if seen is None else seen

    mirrored = False
    if a.sigma is not None:
        s = a.sigma_at
        ones = {n: Matrix.identity(n) for n in set(a.dims.values())}

        def involution(p: int, q: int) -> bool:
            one = ones[a.dim(p, q)]
            return _commutes(s(q, p), s(p, q), one, one, True)

        square = all(a.dim(q, p) == n for (p, q), n in a.dims.items())
        decide(inv, involution, inv if square else None)
        involutive = all(holds.values())
        decide(sd1, lambda p, q: _commutes(s(p + 1, q), d1(p, q), d2(q, p), s(p, q), True))
        decide(sd2, lambda p, q: _commutes(s(p, q + 1), d2(p, q), d1(q, p), s(p, q), True),
               sd1 if involutive else None)
        mirrored = all(holds.values())
    t = Totalization.of(a)
    # The identity that the block of d_{k+1} d_k from (p, q) to (p + s, .)
    # checks, by s, and the identity at (q, p) that each mirrors.
    by_shift, mirror = (dd2, anti, dd1), {dd1: dd2, dd2: dd1, anti: anti}
    for k in sorted(t.moving & {k - 1 for k in t.moving}):
        d, left = t.differential(k), t.differential(k + 1)
        if mirrored:
            # The columns of the components with p <= q, and the rows of
            # those with p <= q + 1, which hold their image.
            cut = next((off for (p, q), off in t.offsets[k].items() if p > q), d.cols)
            image = next((off for (p, q), off in t.offsets[k + 1].items() if p > q + 1), d.rows)
            d, left = t.leading(k, image, cut), t.leading(k + 1, left.rows, image)
        for i, j in (left @ d)._num:
            (p, q), (x, _) = t.component(k, j), t.component(k + 2, i)
            identity = by_shift[x - p]
            holds[identity, p, q] = False
            if mirrored:
                holds[mirror[identity], q, p] = False
    groups = [(dd1, dd2, anti)] + ([(inv, sd1, sd2)] if a.sigma is not None else [])
    found = [Violation(p, q, identity) for group in groups for p, q in bidegrees
             for identity in group if not holds.get((identity, p, q), True)]
    object.__setattr__(a, "_violations", tuple(found))
    return found


# -- morphisms ----------------------------------------------------------------


class Morphism(_Value):
    """A bidegree-preserving map of double complexes, stored blockwise.

    Construction fails hard unless every block commutes with both
    differentials; everything downstream assumes it.  Each commutation
    check reads f(p + 1, q) d1 = d1' f(p, q), and likewise for d2, as in
    `validate`: where both f blocks are partial monomials, with at most one
    entry in each row and each column, as in the Serre pairing, a scaled
    identity, a summand inclusion and the projection of a quotient by one,
    it is decided by relabeling stored entries, and otherwise as one
    vanishing sum of two products over Z[i].  The d1 check at (p, q) runs
    only where f has a block at (p, q) or (p + 1, q) and the source or the
    target stores a d1 block at (p, q), and the d2 check likewise: anywhere
    else each side multiplies a zero block, so both are zero and the check
    holds.  The checks that run go in sorted order, d1 before d2 at each
    bidegree, so a failing morphism raises the error it would raise with
    every check made.
    A read-only value: equality compares source, target and blocks.
    """

    # Besides the value, memos that live and die with this morphism: the
    # zero block of each shape that an absent block reads as, and the map
    # `cohomology.induced_cohomology_map` found for each kind.
    _fields = ("source", "target", "blocks")
    __slots__ = _fields + ("_zeros", "_induced")

    def __init__(self, source: DoubleComplex, target: DoubleComplex,
                 blocks: Mapping[BiDegree, Matrix]):
        clean = {}
        for pq, m in blocks.items():
            rows = target.dim(*pq)
            cols = source.dim(*pq)
            if (m.rows, m.cols) != (rows, cols):
                raise ShapeError(f"morphism block at {pq} is {m.rows}x{m.cols}, expected {rows}x{cols}")
            if not m.is_zero():
                clean[pq] = m
        put = object.__setattr__
        put(self, "source", source)
        put(self, "target", target)
        put(self, "blocks", clean)
        put(self, "_zeros", {})
        put(self, "_induced", {})
        f = self.block_at
        s1, s2 = source.d1_at, source.d2_at
        t1, t2 = target.d1_at, target.d2_at
        # A d1 check at (p, q) multiplies f(p + 1, q) by the source's d1 and
        # the target's d1 by f(p, q): where neither d1 is stored, or both f
        # blocks are zero, both of its products are zero.  Likewise for d2.
        acts1 = source.d1.keys() | target.d1.keys()
        acts2 = source.d2.keys() | target.d2.keys()
        support = {(p - dp, q - dq) for p, q in clean for dp, dq in ((0, 0), (1, 0), (0, 1))}
        for p, q in sorted(support & (acts1 | acts2)):
            if (p, q) in acts1 and not _commutes(f(p + 1, q), s1(p, q), t1(p, q), f(p, q)):
                raise MorphismError(f"blocks do not commute with d1 at ({p}, {q})")
            if (p, q) in acts2 and not _commutes(f(p, q + 1), s2(p, q), t2(p, q), f(p, q)):
                raise MorphismError(f"blocks do not commute with d2 at ({p}, {q})")

    def block_at(self, p: int, q: int) -> Matrix:
        m = self.blocks.get((p, q))
        return m if m is not None else _zero(self._zeros, self.target.dim(p, q), self.source.dim(p, q))

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
    move = lambda at: None if at is None else {(p + i, q + i): x for (p, q), x in at.items()}
    return DoubleComplex(move(a.dims), move(a.d1), move(a.d2), move(a.sigma), move(a.labels))


def transpose_complex(a: DoubleComplex) -> DoubleComplex:
    """Swap the two gradings and the two differentials (sigma transported along)."""
    flip = lambda at: None if at is None else {(q, p): x for (p, q), x in at.items()}
    return DoubleComplex(flip(a.dims), flip(a.d2), flip(a.d1), flip(a.sigma), flip(a.labels))


def direct_sum_many(summands: Sequence[DoubleComplex]) -> tuple[DoubleComplex, list[Morphism]]:
    """Blockwise direct sum with the list of summand inclusions."""
    total, offsets = _direct_sum(summands)
    return total, [_inclusion(s, total, offs) for s, offs in zip(summands, offsets)]


def _direct_sum(summands: Sequence[DoubleComplex],
                ) -> tuple[DoubleComplex, list[dict[BiDegree, int]]]:
    """Blockwise direct sum, and for each summand the offset of its
    coordinates at each of its bidegrees; no inclusion is built."""
    dims: dict[BiDegree, int] = {}
    offsets: list[dict[BiDegree, int]] = []
    for s in summands:
        offs = {}
        for pq, n in s.dims.items():
            offs[pq] = dims.get(pq, 0)
            dims[pq] = dims.get(pq, 0) + n
        offsets.append(offs)

    def place(kind):
        """Per bidegree, the summands' blocks of the map kind along the
        diagonal of one block matrix."""
        stored = [getattr(s, kind) for s in summands]
        out = {}
        for pq in dict.fromkeys(pq for blocks in stored for pq in blocks):
            blocks = {(k, k): b[pq] for k, b in enumerate(stored) if pq in b}
            tgt = _target(kind, *pq)
            out[pq] = assemble([s.dim(*tgt) for s in summands],
                               [s.dim(*pq) for s in summands], blocks)
        return out

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
    sigma = place("sigma") if summands and all(s.sigma is not None for s in summands) else None
    return DoubleComplex(dims, place("d1"), place("d2"), sigma, labels), offsets


def _inclusion(s: DoubleComplex, total: DoubleComplex, offsets: dict[BiDegree, int]) -> Morphism:
    """The inclusion of the summand s of total whose coordinates start at offsets."""
    blocks = {pq: _matrix(total.dim(*pq), n, 1, {(offsets[pq] + k, k): (1, 0) for k in range(n)})
              for pq, n in s.dims.items()}
    return Morphism(s, total, blocks)


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
    sizes = {pq: [a.dim(*ca) * b.dim(*cb) for ca, cb in parts] for pq, parts in comps.items()}
    position = {pq: {part: k for k, part in enumerate(parts)} for pq, parts in comps.items()}

    def build(kind, terms):
        """The map kind, from terms(kind, ca, cb, ma, mb): the nonzero blocks
        out of the part ca (x) cb, each with the part it lands in, given the
        stored blocks ma of a at ca and mb of b at cb (None where zero)."""
        fa, fb = getattr(a, kind), getattr(b, kind)
        out = {}
        for pq, parts in comps.items():
            tgt = _target(kind, *pq)
            blocks = {(position[tgt][to], ci): m for ci, (ca, cb) in enumerate(parts)
                      for to, m in terms(kind, ca, cb, fa.get(ca), fb.get(cb))}
            if blocks:
                out[pq] = assemble(sizes[tgt], sizes[pq], blocks)
        return out

    def leibniz(kind, ca, cb, ma, mb):
        """d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy."""
        if ma is not None:
            yield (_target(kind, *ca), cb), kron(ma, Matrix.identity(b.dim(*cb)))
        if mb is not None:
            m = kron(Matrix.identity(a.dim(*ca)), mb)
            yield (ca, _target(kind, *cb)), -m if (ca[0] + ca[1]) % 2 else m

    def conjugate(kind, ca, cb, ma, mb):
        """sigma(x (x) y) = sigma x (x) sigma y."""
        if ma is not None and mb is not None:
            yield (_target(kind, *ca), _target(kind, *cb)), kron(ma, mb)

    sigma = build("sigma", conjugate) if a.sigma is not None and b.sigma is not None else None
    return DoubleComplex({pq: sum(n) for pq, n in sizes.items()},
                         build("d1", leibniz), build("d2", leibniz), sigma)


def dual(a: DoubleComplex, n: int) -> DoubleComplex:
    """The dual complex of a model of complex dimension n (see module docstring).

    A dual of a complex whose recorded violation list is empty, found so by
    `validate` or recorded by `models.lie_algebra_model`, is valid too, and
    records the empty violation list without a product.  Write p* = n - p,
    q* = n - q, T for the transpose and * for the conjugate transpose.  The
    dual's blocks at (p, q) are e T(d1^{p*-1,q*}), e T(d2^{p*,q*-1}) and
    (S^{q*,p*})*, where e = (-1)^{p+q+1}, so e e' = -1 for the signs e, e'
    of two consecutive steps.  Each axiom of the dual is then the transpose
    of one of a's, conjugated for the sigma axioms:

      * d1 d1 at (p, q) is -T(d1^{p*-1,q*} d1^{p*-2,q*}), minus the
        transpose of d1 d1 at (p* - 2, q*); d2 d2 likewise at (p*, q* - 2);
      * d1 d2 + d2 d1 at (p, q) is minus the transpose of d1 d2 + d2 d1 at
        (p* - 1, q* - 1);
      * the involution at (p, q), S'^{q,p} conj(S'^{p,q}), is
        T(S^{q*,p*} conj(S^{p*,q*})), the transpose of the involution at
        (p*, q*);
      * sigma d1 sigma = d2 at (p, q) reads
        e T(conj(d1^{p*-1,q*}) conj(S^{q*,p*-1})) = e T(conj(S^{q*,p*}) d2^{q*,p*-1}),
        and conjugated and transposed this is sigma d2 sigma = d1 at
        (q*, p* - 1).  In the same way sigma d2 sigma = d1 at (p, q) is
        sigma d1 sigma = d2 at (q* - 1, p*).

    A bidegree named on the right outside a's support is the source of zero
    blocks only, where the identity holds trivially; every other one is
    checked by `validate(a)` or settled by the proof a's builder records.
    A complex with no verdict, or with a violation, gives a dual with no
    verdict, which `validate` decides.

    The same dual writes its Serre record (a, n), and each of its tables
    is then a table of a reflected, read off a's Analysis and kept on its
    own (`cohomology.Analysis.table`): its column, row and de Rham tables
    are a's at (n - p, n - q), or 2n - k, and its Bott-Chern and Aeppli
    tables a's Aeppli and Bott-Chern there.  Its d1 and d2 at (p, q) are
    e T(d1^{p*-1,q*}) and e T(d2^{p*,q*-1}), so [d1; d2] out of (p, q) is
    e T[d1 | d2] into (p*, q*), and [d1 | d2] into (p, q), whose two parts
    share the sign (-1)^{p+q}, is that sign times T[d1; d2] out of
    (p*, q*): equal ranks on any a.  Its total d_k is
    (-1)^{k+1} T(d_{2n-1-k}), components reordered.  Its d1 d2 out of
    (p, q) is e e' T(d2 d1) = -T(d2 d1) out of (p* - 1, q* - 1), and
    d2 d1 = -d1 d2 there only where a is valid; so the record is written
    with the verdict and nowhere else.  A complex with no verdict, or with
    a violation, gives a dual with no record, which ranks its own blocks.
    The dual holds a strongly: a and everything its Analysis and
    Totalization keep (the tables, total differentials, d1 d2 products,
    cycles, boundaries and coset representatives) stay in memory as long
    as the dual does, even where the dual needs only a's tables.  Each d1
    and d2 block of the dual is built in one pass, as the signed transpose
    of the block a stores.
    """
    dims = {(n - p, n - q): m for (p, q), m in a.dims.items()}

    def flipped(blocks, dp, dq):
        """(-1)^{p+q+1} T(blocks at (p* - dp, q* - dq)) at each (p, q)."""
        return {(p, q): _signed_transpose(blocks[at], 1 if (p + q) % 2 else -1)
                for p, q in dims if (at := (n - p - dp, n - q - dq)) in blocks}

    sigma = None if a.sigma is None else {(p, q): a.sigma[at].conjugate().transpose()
                                          for p, q in dims if (at := (n - q, n - p)) in a.sigma}
    out = DoubleComplex(dims, flipped(a.d1, 1, 0), flipped(a.d2, 0, 1), sigma)
    if a._violations == ():
        object.__setattr__(out, "_violations", ())
        object.__setattr__(out, "_serre", (a, n))
    return out


def quotient(f: Morphism) -> tuple[DoubleComplex, Morphism]:
    """Cokernel of a blockwise injective morphism, with the projection.

    The quotient basis at each bidegree is the set of standard basis vectors
    of the target chosen greedily to complete the image; the projection sends
    a vector to its coordinates on those representatives.  The real structure
    descends exactly when the image is sigma-stable, and is dropped otherwise.

    A block with exactly one entry in each column and at most one in each
    row, a coordinate inclusion such as the summand inclusions of
    `direct_sum_many`, `projective_bundle` and `blow_up`, takes no
    elimination.  Its image is spanned by the target's basis vectors at the
    rows it hits, so greedy completion chooses the other rows, in order,
    and the frame [block | lift] has as inverse the rows (1/a) e_r^T of the
    block's entries a at (r, j), then the chosen rows e_c^T: the projection
    selects the chosen rows.  Any other block takes one elimination, the
    RREF R of [block | I].  Its pivots among block's columns must be all of
    them (else NotInjective), and those among I are the chosen vectors, the
    columns of lift.  R is E [block | I] for an invertible E, and R is the
    identity on its pivot columns, the frame; so the right block of R is E,
    the inverse of the frame, and its rows past block's are the projection.
    Either way a check that proj block = 0 and proj lift = 1 guards the
    frame, through `_commutes`: by relabeling where proj is a partial
    monomial, as on a coordinate inclusion, and by products otherwise.
    Each induced d1, d2 and sigma block is proj @ m @ lift, and lift is the
    0/1 matrix of the chosen vectors, so it is read as the chosen columns
    of proj @ m with no second product.
    """
    tgt = f.target
    chosen_at: dict[BiDegree, list[int]] = {}
    projs: dict[BiDegree, Matrix] = {}
    dims: dict[BiDegree, int] = {}
    labels: dict[BiDegree, tuple[str, ...]] | None = {} if tgt.labels is not None else None
    for pq in sorted(set(tgt.dims) | set(f.source.dims)):
        n_tgt = tgt.dim(*pq)
        n_src = f.source.dim(*pq)
        block = f.block_at(*pq)
        by_column = _by_column(block)
        if by_column is not None and len(by_column) == n_src:
            hit = {i for i, _ in by_column.values()}
            chosen = [e for e in range(n_tgt) if e not in hit]
            proj = _matrix(len(chosen), n_tgt, 1, {(k, e): (1, 0) for k, e in enumerate(chosen)})
        else:
            red, pivots = rref(hstack([block, Matrix.identity(n_tgt)]))
            if len([p for p in pivots if p < n_src]) != n_src:
                raise NotInjective(*pq)
            chosen = [p - n_src for p in pivots if p >= n_src]
            proj = red[n_src:, n_src:]
        lift = _matrix(n_tgt, len(chosen), 1, {(e, k): (1, 0) for k, e in enumerate(chosen)})
        one = Matrix.identity(len(chosen))
        if not (_commutes(proj, block, Matrix.zero(len(chosen), 0), Matrix.zero(0, n_src))
                and _commutes(proj, lift, one, one)):
            raise RuntimeError(f"quotient: the frame at bidegree {pq} is not invertible")
        dims[pq] = len(chosen)
        chosen_at[pq] = chosen
        projs[pq] = proj
        if labels is not None:
            base = tgt.labels.get(pq, tuple(f"e{k}" for k in range(n_tgt)))
            labels[pq] = tuple(base[e] for e in chosen)

    def induced(kind):
        out = {}
        for pq, m in getattr(tgt, kind).items():
            to = _target(kind, *pq)
            if dims[pq] and dims.get(to, 0):
                out[pq] = _select_columns(projs[to] @ m, chosen_at[pq])
        return out

    q_sigma = None
    if tgt.sigma is not None and _image_sigma_stable(f, projs):
        q_sigma = induced("sigma")
    result = DoubleComplex(dims, induced("d1"), induced("d2"), q_sigma, labels)
    projection = Morphism(tgt, result, {pq: m for pq, m in projs.items() if dims.get(pq, 0)})
    return result, projection


def _image_sigma_stable(f: Morphism, projs: Mapping[BiDegree, Matrix]) -> bool:
    """Whether sigma maps the image of f into itself, given the projection
    of `quotient` at each bidegree: a vector of A^{q,p} lies in the image
    exactly when its coordinates off the image, proj^{q,p} of it, vanish,
    so the test at (p, q) is proj^{q,p} S^{p,q} conj(block^{p,q}) = 0."""
    for p, q in f.source.dims:
        proj = projs.get((q, p))
        if proj is not None and not (
                proj @ f.target.sigma_at(p, q) @ f.block_at(p, q).conjugate()).is_zero():
            return False
    return True


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
    if size < 0:
        raise ValueError(f"size must be at least 0, got {size}")
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
    total = _direct_sum(shapes)[0] if shapes else ZERO_COMPLEX
    return _random_basis_change(rng, total)


def _mirror_pair(s: DoubleComplex) -> DoubleComplex:
    """s + transpose(s), with the real structure that swaps the two copies.

    The block of s at (p, q) goes identically to the block of its mirror at
    (q, p), and back.  All shape entries are rational, so conjugation is
    invisible here and the swap is a genuine real structure.
    """
    pair, _ = _direct_sum([s, transpose_complex(s)])
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


def _random_unit_factors(rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    """A unit lower and a unit upper triangular n x n matrix with small
    random entries over Z[i]."""
    pool = [(0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (1, -1)]
    lower = {(i, i): (1, 0) for i in range(n)}
    upper = {(i, i): (1, 0) for i in range(n)}
    for i in range(n):
        for j in range(i):
            v = pool[rng.randrange(len(pool))]
            if v != (0, 0):
                lower[(i, j)] = v
            v = pool[rng.randrange(len(pool))]
            if v != (0, 0):
                upper[(j, i)] = v
    return _matrix(n, n, 1, lower), _matrix(n, n, 1, upper)


def _random_basis_change(rng: random.Random, a: DoubleComplex) -> DoubleComplex:
    change, inverse = {}, {}
    for pq, n in sorted(a.dims.items()):
        lower, upper = _random_unit_factors(rng, n)
        change[pq] = lower @ upper
        # (LU)^-1 = U^-1 L^-1, each factor inverted by substitution; the
        # transpose of a unit upper triangular matrix is unit lower.
        inverse[pq] = _unit_lower_inverse(upper.transpose()).transpose() @ _unit_lower_inverse(lower)

    def conjugated(kind):
        """Each stored block M of the map kind at (p, q) as C M C^-1, C the
        change at its target and C^-1 the inverse at (p, q); antilinear
        sigma takes conj(C)^-1, which is conj(C^-1), the stored inverse
        conjugated.  A stored block is nonzero, so its target has a change."""
        out = {}
        for pq, m in getattr(a, kind).items():
            right = inverse[pq].conjugate() if kind == "sigma" else inverse[pq]
            out[pq] = change[_target(kind, *pq)] @ m @ right
        return out

    sigma = conjugated("sigma") if a.sigma is not None else None
    return DoubleComplex(a.dims, conjugated("d1"), conjugated("d2"), sigma, a.labels)
