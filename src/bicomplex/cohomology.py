"""The cohomologies of a bounded double complex, all computed exactly.

For a complex A with differentials d1 (right) and d2 (up):

  * dolbeault (column):            H^q of each column under d2
  * conjugate_dolbeault (row):     H^p of each row under d1
  * de_rham (total):               H^k of the totalization under d1 + d2
  * bott_chern:                    (ker d1 & ker d2) / im(d1 d2)
  * aeppli:                        ker(d1 d2) / (im d1 + im d2)

plus the spectral sequence of the column filtration on the total complex
(page 1 is the column cohomology, the limit is the associated graded of de
Rham cohomology) and its row analogue.

Spectral pages are rank arithmetic too.  With F^a the column filtration and
rho_n(a, b) the rank of d: F^a T^n -> T^{n+1} / F^b T^{n+1}, the page
E_r = Z_r^p / (Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1}) at (p, q), n = p + q, has

    dim E_r^{p,q} = dim A^{p,q} - rho_n(p, p+r) + rho_n(p+1, p+r)
                    + rho_{n-1}(p-r+1, p) - rho_{n-1}(p-r+1, p+1),

since dim Z_r^p = dim F^p T^n - rho_n(p, p+r), the two summands of the
denominator meet in d Z_r^{p-r+1}, and dim d Z_s^a = rho(a, oo) - rho(a, a+s).

Every rho_n is a count of persistence pairs (Cohen-Steiner, Edelsbrunner &
Morozov, "Vines and vineyards", SoCG 2006; Basu & Parida, Expo. Math. 2017,
for the spectral sequence).  `linalg.filtered_pivots` pairs source
coordinates of d_n, each with its component's p as its level, with target
coordinates, so that rho_n(a, b) is the number of pairs with source level
>= a and target level < b.  A pair's length, target level minus source
level, is >= 0, and the formula regroups as

    dim E_r^{p,q} = dim A^{p,q} - #{pair ends at (p, q) of length < r},

so `frolicher` keeps one histogram of pair ends by bidegree and length and
reads every page off it.  It pairs the degrees in increasing order and
clears: d_n's pairing leaves out the coordinates of T^n that d_{n-1}'s pairs
end at, which d_n d_{n-1} = 0 makes redundant for every rho_n (Chen &
Kerber, EuroCG 2011).  What is left is peeled first, with no arithmetic:
a source with one entry left pairs with its target when no deeper source
shares that target, and a target with one entry left with its source when
no target of lower level shares that source.  Only the core goes to the
forward pass (the proofs are in `frolicher` and `linalg.filtered_pivots`).  On the
nilmanifold models the core is small or empty: nil4 and Iwasawa reach the
kernel not at all.  The row pages run on the same Totalization with the
levels q.

The four bidegree cohomologies are one rule.  Each is, at (p, q),
ker(out) / im(into) for two blocks, and `_COHOMOLOGIES` names them once
(kinds of `_KINDS`, at (p + dp, q + dq)):

    dolbeault             ker d2 out of (p, q)     / im d2 out of (p, q-1)
    conjugate_dolbeault   ker d1 out of (p, q)     / im d1 out of (p-1, q)
    bott_chern            ker [d1; d2] out of it   / im d1 d2 out of (p-1, q-1)
    aeppli                ker d1 d2 out of it      / im [d1 | d2] into it

So each table is dim A^{p,q} - rank(out) - rank(into), the dimension of the
cycles minus that of the boundaries (`_bidegree_table`), and each `spaces`
is (kernel_basis(out), image_basis(into)) (`Analysis.spaces`).  Two rules
read the join `_KINDS` gives each block, and nothing else:

  * containment.  The boundaries lie in the cycles exactly when
    out . into = 0.  Between two lone blocks that is d2 d2 = 0 or
    d1 d1 = 0, an axiom `validate` reports itself, and no table checks it.
    Where a block is joined, the product is [d1; d2] . d1 d2 =
    [d1 d1 d2; d2 d1 d2] or d1 d2 . [d1 | d2] = [d1 d2 d1 | d1 d2 d2],
    which d1 d1 = 0, d2 d2 = 0 and d2 d1 = -d1 d2 make zero.  So
    Bott-Chern and Aeppli check it with sparse products, and raise
    NotASubspace where it fails, on a complex that `validate` has not
    found valid, and a valid complex makes no containment product;
  * canonical basis.  A space of a stacked or joined block, the
    Bott-Chern cycles ker [d1; d2] and the Aeppli boundaries im [d1 | d2],
    is given by its `canonical_span`, the basis in which the golden digests
    pin its induced maps; every other space by the kernel or image basis
    of its block.  The Bott-Chern cycles take one RREF, of the stacked
    block with its columns reversed, whose kernel basis read back in the
    original order is the canonical one (`linalg._canonical_kernel`).

The column, row and de Rham tables rank each nonzero differential once:
the row table ranks the blocks of d1 itself.  `linalg.rank` peels
singleton rows and columns before it eliminates, reading only where the
entries are; on the Koszul differentials of the nilmanifold models almost
nothing is left to eliminate, and a core with no zero entry is eliminated
on lists.  TABLES maps each of the five kinds to its function, and every
caller dispatches through it.

`Analysis.of(a)` holds what the tables and induced maps of one complex
share, each part made on first use: each table it has found, by kind
(`Analysis.table`), the rank of each total differential, one rank memo
for the blocks of the four bidegree tables, the products d1 d2 that a
rank or a containment check needed, the cycles and boundaries of each
kind at each bidegree or degree (`spaces`), and their coset
representatives (`representatives`).  A table asked for again is one
dict read, handed out as a fresh CohomologyTable.  The total complex is
not the Analysis's own: `complexes.Totalization.of(a)` keeps one on the
complex, made by the first of `validate`, `de_rham`, `frolicher` or a de
Rham induced map to need it, and `Analysis.totalization` reads that one,
so the total differentials `validate` multiplied are the ones ranked
here, and a table that needs none, such as any table of a dual, builds
none.  The rank memo is keyed by block kind and bidegree, and `_KINDS`
describes each of the five kinds once (d1, d2, [d1; d2] out, [d1 | d2]
into, d1 d2 out): its parts, how they join, its sigma mirror and its
Serre partner.  A block whose parts are all absent, or a d1 d2 with an
absent factor, has rank 0 and is neither assembled nor multiplied
(`Analysis.absent`); on a complex found valid, where d1 d2 = -d2 d1, so
is a d1 d2 where a factor of d2 d1 is absent.

Ranks are shared by one equal-rank rule.  Each rank key has an orbit of
keys whose blocks the axioms show to have its rank (`Analysis.orbit`):
the key itself; the one part stored of a [d1; d2] or [d1 | d2] block
that has exactly one, since rank [X; 0] = rank [X | 0] = rank X; the
mirror M, (p, q) -> (q, p), of each, on a complex with a real structure
that `validate` has found valid; and the Serre partner S,
(p, q) -> (n - p, n - q) with the shift `_KINDS` gives, of each of
those, on a complex found valid whose Serre record (None, n) makes it
its own partner (`Analysis.partner`).  A rank not stored is read from
the first key of its orbit that is stored, or absent and so of rank 0;
failing that its own block is ranked once, and the rank is stored under
every key.  A lone part's block is the part itself, so no [X; 0] is ever
assembled.  Total ranks do the same over d_k and d_{2n-1-k}, and
`frolicher` reduces at most d_0 ... d_{n-1} on such a complex, a pair of
levels (s, t) giving one of levels (n - t, n - s).  No rank is ever
stored on another complex's Analysis.

Two constructions write the Serre record, each with its proof once: a
Lie-algebra model whose Serre pairing is a morphism
(`models.lie_algebra_model`) writes (None, n), its partners being its own
blocks, and `complexes.dual` of a complex a found valid writes (a, n).
M keeps rank because sigma carries each block to its mirror's conjugate
between invertible factors; S on a model because the Serre pairing
A -> dual(A, n) has signed-permutation blocks and, where it is a
morphism of double complexes, each block is its partner's transpose
between them.  The
record (a, n) is read a whole table at a time: each block of the dual
is a signed transpose of its partner on a, and its d1 d2 minus the
transpose of a's d2 d1, which is -(d1 d2) on the valid a, so each table
of the dual is a table of a reflected, its column, row and de Rham
tables a's own and its Bott-Chern and Aeppli tables a's Aeppli and
Bott-Chern (`Analysis.table`; the proofs are in `Analysis`, `frolicher`
and `complexes.dual`).  The row table after the column table then ranks
nothing, and the five tables of a validated nil5 rank 37 blocks, against
72 with the mirror alone and 126 on a copy never validated.  After a's
five tables the dual's are five dict reads; called first, they find a's
tables on a's Analysis, and the dual's own Analysis stores no rank.
`induced_cohomology_map` reads both sides' spaces from the Analysis, and
the source's coset representatives, and reads each key's map off one
elimination of the target frame, or, where the target has no boundaries,
off the target cycles' unit rows with no elimination
(`linalg._induced_map`); the map is kept on the Morphism by kind.  The
E1-isomorphism test, `is_E1_isomorphism`, reads its witnesses off the
induced Dolbeault map, so neither reduces a complex's spaces twice, and
the induced Dolbeault map after the E1 test eliminates nothing.
`frolicher` stores the total ranks as a by-product of its reductions, and
`de_rham` reads them or, called first, ranks d_n with `linalg.rank` (the
peel, then one-step Bareiss on lists if the core has no zero entry, or else
the sparsest-row rule on it) and stores them.  Called after them,
`frolicher` reads back a held E1 table (`dolbeault`, or
`conjugate_dolbeault` for rows) and the held ranks: a degree whose rank
equals the sum of the d2 (d1) ranks the table gives has only pairs of
length 0, and is read, not reduced (the proof is in `frolicher`).  A
random pass, which runs the tables first, reduces 8 of the 51 total
differentials it pairs: 8 no block leaves, and 35 are read.
`bott_chern` reads the rank of d1 d2 into (p, q) and `aeppli` that of d1 d2
out of (p, q), so whichever runs second ranks no product.  The Analysis is
kept on the complex and dies with it; an equal complex built separately
starts afresh.

Tables store only nonzero dimensions.  Page 1 comes from the filtered
reduction of the total differential, while the column and row tables use the
blocks of d2 and d1 alone, so the two routes check each other in the test
suite.
"""

from __future__ import annotations

import weakref
from collections import Counter, namedtuple
from typing import Callable, Mapping, NamedTuple

from .complexes import BiDegree, DoubleComplex, Morphism, Totalization
from .linalg import (
    Matrix,
    NotASubspace,
    _canonical_kernel,
    _induced_map,
    canonical_span,
    coset_representatives,
    filtered_pivots,
    hstack,
    image_basis,
    kernel_basis,
    rank,
    vstack,
)
from .scalars import _Value

class CohomologyTable(_Value):
    """Dimensions of one cohomology; keyed by (p, q), or by k for de_rham.

    Zero entries are dropped.  A read-only value: equality compares kind and
    entries."""

    __slots__ = _fields = ("kind", "entries")

    def __init__(self, kind: str, entries: Mapping):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entries", {k: int(v) for k, v in entries.items() if v})

    def at(self, key) -> int:
        return self.entries.get(key, 0)

    def by_degree(self) -> dict[int, tuple[int, ...]]:
        """Per total degree, the multiset of entries (sorted), zeros dropped.

        Only meaningful for bidegree-indexed kinds.
        """
        if self.kind == "de_rham":
            raise ValueError("by_degree needs a bidegree-indexed table")
        out: dict[int, list[int]] = {}
        for (p, q), v in self.entries.items():
            out.setdefault(p + q, []).append(v)
        return {k: tuple(sorted(vs)) for k, vs in sorted(out.items())}


class SpectralSequenceResult(NamedTuple):
    """Pages of a (bounded, hence degenerating) spectral sequence.

    pages holds (r, table) from r = 1 up to the page where no further
    differential can be nonzero; degeneration_page is the first r whose
    dimensions already equal those of e_infinity.
    """

    direction: str
    pages: tuple[tuple[int, dict[BiDegree, int]], ...]
    degeneration_page: int
    e_infinity: dict[BiDegree, int]

    def page(self, r: int) -> dict[BiDegree, int]:
        if r < 1:
            raise ValueError("pages start at r = 1")
        for rr, table in self.pages:
            if rr == r:
                return dict(table)
        return dict(self.e_infinity)

    @property
    def last_computed_page(self) -> int:
        return self.pages[-1][0]


def _product(blocks: list[Matrix]) -> Matrix:
    first, second = blocks
    return first @ second


# The five kinds of block the bidegree tables rank, each at (p, q) (see
# Analysis), and for each:
#   parts   its parts, (d, dp, dq) the stored d1 or d2 block at (p + dp, q + dq);
#   join    how the parts combine: None for a single part, vstack, hstack
#           or _product;
#   mirror  the kind at (q, p) that a valid real structure carries it to;
#   serre   (kind, dp, dq), its Serre partner at (n - p + dp, n - q + dq)
#           on a complex with the Serre record (None, n), a model's: a
#           block of equal rank on the same complex.
_Kind = namedtuple("_Kind", "parts join mirror serre")
_KINDS = {
    "d1": _Kind((("d1", 0, 0),), None, "d2", ("d1", -1, 0)),
    "d2": _Kind((("d2", 0, 0),), None, "d1", ("d2", 0, -1)),
    "d1;d2": _Kind((("d1", 0, 0), ("d2", 0, 0)), vstack, "d1;d2", ("d1|d2", 0, 0)),
    "d1|d2": _Kind((("d1", -1, 0), ("d2", 0, -1)), hstack, "d1|d2", ("d1;d2", 0, 0)),
    "d1d2": _Kind((("d1", 0, 1), ("d2", 0, 0)), _product, "d1d2", ("d1d2", -1, -1)),
}

# The table of b that each table of a complex with the Serre record (b, n)
# is, reflected: Bott-Chern and Aeppli trade places, and every other kind
# is b's own (see Analysis).
_SERRE_TABLES = {"bott_chern": "aeppli", "aeppli": "bott_chern"}

# The four bidegree cohomologies, each at (p, q) the kernel of its out
# block modulo the image of its into block, each block (kind, dp, dq) the
# `_KINDS` kind at (p + dp, q + dq) (see the module notes).
_COHOMOLOGIES = {
    "dolbeault": (("d2", 0, 0), ("d2", 0, -1)),
    "conjugate_dolbeault": (("d1", 0, 0), ("d1", -1, 0)),
    "bott_chern": (("d1;d2", 0, 0), ("d1d2", -1, -1)),
    "aeppli": (("d1d2", 0, 0), ("d1|d2", 0, 0)),
}


def _support(a: DoubleComplex, parts, join) -> set[BiDegree]:
    """The bidegrees at which a block with these parts and join is not
    absent: where a part of it is stored, or for a product where every
    factor is."""
    at = [{(x - dp, y - dq) for x, y in (a.d1 if d == "d1" else a.d2)} for d, dp, dq in parts]
    return (set.intersection if join is _product else set.union)(*at)


class Analysis:
    """What the tables of one complex share, each part made on first use.

    `Analysis.of(a)` is kept on a and dies with it.  It holds each table
    found, by kind (`table`), the rank of each total differential
    (`total_ranks`, which `frolicher` fills as a by-product), one rank memo
    for the blocks of the four bidegree tables,
    the product d1 d2 out of each bidegree that a rank or a containment
    check needed, and the cycles and boundaries of every table that an
    induced map reads, with the coset representatives of those it maps out
    of.  `totalization` is the complex's one `complexes.Totalization`,
    kept on a and made by whichever of `validate` and the total tables
    asks first; an Analysis that never reads it builds none.  It and the
    Totalization refer back to a weakly, so neither forms a reference
    cycle and both are freed as soon as a is dropped, not at the next
    cyclic garbage collection.

    The rank memo is keyed by block kind and bidegree, over the five kinds
    of `_KINDS`: d1 and d2 out of (p, q), [d1; d2] out of it, [d1 | d2] into
    it and d1 d2 out of it.  `absent`, `block` and `rank` read each kind's
    parts and join there, and `support(kind)` gives the bidegrees at which
    its block is not absent, found on the first call for that kind.  The
    four bidegree tables read every rank through the memo (`rank`), so no
    block is ranked twice, and bott_chern and aeppli share the d1 d2 ranks.
    `spaces` reads the blocks that `_COHOMOLOGIES` names through `block`,
    so the spaces and the tables share the kept d1 d2 products.

    The equal-rank rule.  Three maps on keys keep rank, each proved below
    and each read from `_KINDS`: the lone part L of a [d1; d2] or
    [d1 | d2] block with exactly one part stored, on any complex; the
    mirror M, to the kind `_KINDS` names at (q, p), once `validate` has
    found a complex with a real structure valid; and the Serre map S, to
    the partner `_KINDS` names at (n - p + dp, n - q + dq), where
    `partner` gives n.  M and S are involutions and commute:
    M S and S M both send d1 out of (p, q) to d2 out of (n-q, n-p-1), d2 to
    d1 out of (n-q-1, n-p), [d1; d2] out of (p, q) to [d1 | d2] into
    (n-q, n-p) and back, and d1 d2 to d1 d2 out of (n-q-1, n-p-1); and M
    and S carry the lone part of a block to the lone part of its image.
    So `orbit` gives k and Lk, the mirrors of those, and the partners of
    all four, each a key of this Analysis.  On a miss, `rank` reads the
    first key that is stored, or absent and so of rank 0; failing that
    it ranks its own block once (`block`, which is the part itself for a
    lone part) and stores the rank under every key.  Total ranks do the
    same with d_k and d_{2n-1-k} (`total_rank`).  A
    complex with neither sigma nor a Serre record has the key, and the
    lone part of a joined block, for its orbit.  After `dolbeault` and
    `conjugate_dolbeault`, `bott_chern` and `aeppli` then rank only d1 d2
    products and blocks with both parts present.  The five tables of a
    validated nil5 rank 37 blocks, 72 with M alone and 126 on a copy
    never validated.

    L is exact: rank [X; 0] = rank [X | 0] = rank X, and the part has the
    kernel of [X; 0] and the image of [X | 0] too, so `spaces` reads the
    part as well.

    M is exact.  The involution makes every block S of sigma invertible,
    and sigma d1 sigma = d2 gives
    d2^{q,p} = S^{p+1,q} conj(d1^{p,q}) conj(S^{q,p}), so d2^{q,p} is
    conj(d1^{p,q}) between invertible factors, and conj keeps rank.  The
    same holds with d1 and d2 swapped, so the stacked [d1; d2] and the
    joined [d1 | d2] at (q, p) are those at (p, q), conjugated, with their
    two parts swapped, between invertible block-diagonal factors; and
    sigma (d1 d2) = -(d1 d2) sigma carries d1 d2 out of (p, q) to that out
    of (q, p).  Then `conjugate_dolbeault` after `dolbeault` ranks nothing,
    and `bott_chern` and `aeppli` rank about half their blocks.

    S is exact on a dual, a whole table at a time.  `complexes.dual(a, n)`
    of an a that `validate` found valid writes the record (a, n).  Write
    p* = n - p, q* = n - q.  The dual's d1 and d2 out of (p, q) are
    e T(d1^{p*-1,q*}) and e T(d2^{p*,q*-1}), with T the transpose and
    e = (-1)^{p+q+1}.  So its d2 out of (p, q) and into (p, q) have the
    ranks of a's d2 into and out of (p*, q*), and its column table at
    (p, q) is a's at (p*, q*); the row table likewise with d1.  Its d_k is
    (-1)^{k+1} T(d_{2n-1-k}) with the components reordered, so its de
    Rham table at k is a's at 2n - k.  Its [d1; d2] out of (p, q) is
    e T[d1 | d2] into (p*, q*), and its [d1 | d2] into (p, q) is
    (-1)^{p+q} T[d1; d2] out of (p*, q*).  Its d1 d2 out of (p, q) is the
    product of two consecutive signs, -1, times T(d2 d1) out of
    (p* - 1, q* - 1), which is T(d1 d2) there where d2 d1 = -d1 d2, on a
    valid a; so its d1 d2 out of and into (p, q) have the ranks of a's
    d1 d2 into and out of (p*, q*).  Its Bott-Chern table at (p, q),
    dim - rank [d1; d2] out - rank d1 d2 into, is then a's Aeppli table
    at (p*, q*), dim - rank d1 d2 out - rank [d1 | d2] into, and its
    Aeppli table a's Bott-Chern table.  So `table` reads each table of
    the dual off a's, reflected, with `_SERRE_TABLES` naming the kind,
    and the dual ranks nothing of its own.  The Bott-Chern and Aeppli
    step needs a valid a, so the record is written with the verdict and
    nowhere else.  The dual holds a strongly, so a's tables outlive a
    name for a.

    S is exact on a model.  A Lie-algebra model of complex dimension n
    whose Serre pairing P: A -> dual(A, n) is a morphism of double
    complexes has the record (None, n).  P^{p,q} sends a monomial w to +-1
    times the dual vector of its complement top ^ w, so every block of P
    is a signed permutation and P is an isomorphism of double complexes,
    and P d1 = d1' P reads d1^{p,q} = e (P^{p+1,q})^-1 T(d1^{p*-1,q*}) P^{p,q}:
    the transpose of the partner between signed permutations, of equal
    rank; likewise for d2.  Every block, total differential included, is
    then its own dual's at the same key between signed permutations, and
    the dual's is a's partner as above.

    When P is a morphism: exactly when the top coefficient of every exact
    form vanishes, that is when d into (n, n) is zero, which holds exactly
    for unimodular Lie algebras, nilpotent ones among them.  But the
    builder accepts any structure equations with d^2 = 0, and some
    validate without it: d b = a ^ b validates, its pairing is no
    morphism, and partner ranks would give de Rham {0: 1, 1: 2, 2: 2,
    3: 2, 4: 1} instead of {0: 1, 1: 2, 2: 1}.  So `lie_algebra_model`
    writes the record only where neither d1 out of (n - 1, n) nor d2 out
    of (n, n - 1) is stored, reading two keys of the blocks it has just
    built; its docstring proves that this is the condition for P to
    commute with d1 and d2.  A shifted, summed or reloaded copy carries no
    record, and a record is read only once `validate` has found the
    complex valid.

    A valid complex, with or without sigma, also needs no containment
    product: where a cohomology's block is joined, its containment product
    vanishes by the axioms (see the module notes), so `bott_chern` and
    `aeppli` check it only where `valid` is false.  A complex never
    validated, or one with a violation, reads no mirror and skips no check.
    """

    def __init__(self, a: DoubleComplex):
        self.complex = weakref.proxy(a)
        self._owner = weakref.ref(a)
        self.total_ranks: dict[int, int] = {}
        self._ranks: dict[tuple[str, int, int], int] = {}
        self._supports: dict[str, set[BiDegree]] = {}
        self._d1d2: dict[BiDegree, Matrix] = {}
        self._spaces: dict[tuple[str, object], tuple[Matrix, Matrix]] = {}
        self._reps: dict[tuple[str, object], Matrix] = {}
        self._tables: dict[str, dict] = {}

    @classmethod
    def of(cls, a: DoubleComplex) -> "Analysis":
        if a._analysis is None:
            object.__setattr__(a, "_analysis", cls(a))
        return a._analysis

    @property
    def totalization(self) -> Totalization:
        """The complex's one Totalization, shared with `validate` and made
        on first use (`complexes.Totalization.of`)."""
        return Totalization.of(self._owner())

    def valid(self) -> bool:
        """Whether the complex is known valid: `validate` has run on it and
        found nothing, or `complexes.dual` or `models.lie_algebra_model`
        proved it valid as it built it and recorded the empty list."""
        return self.complex._violations == ()

    def partner(self) -> int | None:
        """n for a complex with the Serre record (None, n), its own Serre
        partner, that `validate` has found valid; None for any other
        complex.  A dual's record (b, n) is read by `table`, a whole table
        at a time, and never here.  `valid` is read on every call, since a
        complex may be validated after its Analysis is made."""
        serre = self.complex._serre
        if serre is None or serre[0] is not None or not self.valid():
            return None
        return serre[1]

    def orbit(self, kind: str, p: int, q: int) -> list[tuple[str, int, int]]:
        """The keys whose blocks the class notes show to have the rank of
        the `kind` block at (p, q), itself first: the one part stored of a
        joined block that has exactly one, the mirror M of each where a
        real structure was found valid, and the Serre partner S of each of
        those where `partner` gives n."""
        parts, join, _, _ = _KINDS[kind]
        keys = [(kind, p, q)]
        if join is vstack or join is hstack:
            present = [(d, p + dp, q + dq) for d, dp, dq in parts
                       if (p + dp, q + dq) in self.support(d)]
            if len(present) == 1:
                keys += present
        if self.complex.sigma is not None and self.valid():
            keys += [(_KINDS[k].mirror, y, x) for k, x, y in keys]
        if (n := self.partner()) is not None:
            keys += [(other, n - x + dp, n - y + dq)
                     for k, x, y in keys for other, dp, dq in (_KINDS[k].serre,)]
        return keys

    def support(self, kind: str) -> set[BiDegree]:
        """The bidegrees at which the `kind` block is not absent, found on
        the first call for that kind and kept."""
        found = self._supports.get(kind)
        if found is None:
            parts, join, _, _ = _KINDS[kind]
            if join is _product and self.valid():
                # d1 d2 = -d2 d1: absent also where a factor of d2 d1 is.
                parts += (("d2", 1, 0), ("d1", 0, 0))
            found = self._supports[kind] = _support(self.complex, parts, join)
        return found

    def absent(self, kind: str, p: int, q: int) -> bool:
        """Whether the `kind` block at (p, q) is zero because its parts are
        absent: all of them, or either factor of d1 d2 (`support`)."""
        return (p, q) not in self.support(kind)

    def _parts(self, kind: str, p: int, q: int) -> list[Matrix]:
        """The parts of the `kind` block at (p, q), a zero block where one
        is absent."""
        a = self.complex
        parts = []
        for d, dp, dq in _KINDS[kind].parts:
            parts.append((a.d1_at if d == "d1" else a.d2_at)(p + dp, q + dq))
        return parts

    def block(self, kind: str, p: int, q: int) -> Matrix:
        """The block of one of the five kinds at (p, q) (see `rank`): its
        parts joined as `_KINDS` says, or the one part stored of a joined
        block that has exactly one, which has its rank, kernel and image.
        A d1 d2 product is kept, and is the zero block, with no product,
        where a factor is absent."""
        join = _KINDS[kind].join
        if join is not _product:
            parts = self._parts(kind, p, q)
            if join is None:
                return parts[0]
            stored = [m for m in parts if not m.is_zero()]
            return stored[0] if len(stored) == 1 else join(parts)
        if (p, q) not in self._d1d2:
            a = self.complex
            self._d1d2[(p, q)] = (Matrix.zero(a.dim(p + 1, q + 1), a.dim(p, q))
                                  if self.absent(kind, p, q) else _product(self._parts(kind, p, q)))
        return self._d1d2[(p, q)]

    def rank(self, kind: str, p: int, q: int, m: Matrix | None = None) -> int:
        """The rank of the `kind` block at (p, q): d1 or d2 out of (p, q),
        "d1;d2" the stacked [d1; d2] out of it, "d1|d2" the joined
        [d1 | d2] into it, or "d1d2" the product d1 d2 out of it.

        The rank of the first key of the block's `orbit` that is stored,
        or absent and so of rank 0, is read.  Failing that, `linalg.rank`
        ranks m, the block the caller has built, or the block built here
        (`block`), once, and the rank is stored under every key.
        """
        key = (kind, p, q)
        found = self._ranks.get(key)
        if found is None:
            a = self.complex
            # With neither sigma nor a record, a single block is its own orbit.
            keys = ((key,) if a.sigma is None and a._serre is None
                    and _KINDS[kind].join not in (vstack, hstack) else self.orbit(kind, p, q))
            for other in keys:
                found = 0 if self.absent(*other) else self._ranks.get(other)
                if found is not None:
                    break
            else:
                found = rank(self.block(kind, p, q) if m is None else m)
            for other in keys:
                self._ranks[other] = found
        return found

    def total_rank(self, k: int) -> int:
        """rank d_k, read like a block rank (`rank`) over the degrees k and,
        where `partner` gives n, 2n - 1 - k: d_j is absent, and zero, where
        no stored d1 or d2 block leaves a bidegree of degree j.  Failing
        both, `linalg.rank` ranks d_k, stored under both."""
        found = self.total_ranks.get(k)
        if found is None:
            n = self.partner()
            degrees = [k] if n is None else [k, 2 * n - 1 - k]
            tot = self.totalization
            for j in degrees:
                found = 0 if j not in tot.moving else self.total_ranks.get(j)
                if found is not None:
                    break
            else:
                found = rank(tot.differential(k))
            for j in degrees:
                self.total_ranks[j] = found
        return found

    def table(self, kind: str) -> dict:
        """The nonzero entries of the `kind` table in sorted bidegree, or
        degree, order, made on the first call and kept.  On a complex with
        the Serre record (b, n), they are b's table of the kind
        `_SERRE_TABLES` names read at (n - p, n - q), or at 2n - k for de
        Rham; on any other, `_bidegree_table` or `_de_rham` finds them.
        The table functions hand out a fresh CohomologyTable of them, so no
        caller holds the kept dict."""
        found = self._tables.get(kind)
        if found is None:
            b, n = self.complex._serre or (None, 0)
            if b is None:
                made = _de_rham(self) if kind == "de_rham" else _bidegree_table(self, kind)
                found = {x: h for x, h in made.items() if h}
            else:
                # b's entries run in sorted order, which reflecting reverses.
                source = reversed(Analysis.of(b).table(_SERRE_TABLES.get(kind, kind)).items())
                found = ({2 * n - k: h for k, h in source} if kind == "de_rham"
                         else {(n - p, n - q): h for (p, q), h in source})
            self._tables[kind] = found
        return found

    def spaces(self, kind: str, x) -> tuple[Matrix, Matrix]:
        """(cycles, boundaries) whose quotient is the `kind` cohomology at x,
        a bidegree, or a degree for de_rham.  At a bidegree they are the
        kernel of the out block and the image of the into block that
        `_COHOMOLOGIES` names, read through `block`, each the canonical
        span where its block is stacked or joined (see the module notes)."""
        if (kind, x) not in self._spaces:
            if kind == "de_rham":
                d = self.totalization.differential
                found = kernel_basis(d(x)), image_basis(d(x - 1))
            else:
                (p, q), ((out, dp, dq), (into, ep, eq)) = x, _COHOMOLOGIES[kind]
                z = self.block(out, p + dp, q + dq)
                b = self.block(into, p + ep, q + eq)
                # The canonical span of b is that of its image basis.
                found = (_canonical_kernel(z) if _KINDS[out].join in (vstack, hstack)
                         else kernel_basis(z),
                         canonical_span(b) if _KINDS[into].join in (vstack, hstack)
                         else image_basis(b))
            self._spaces[(kind, x)] = found
        return self._spaces[(kind, x)]

    def representatives(self, kind: str, x) -> Matrix:
        """The coset representatives of the `kind` cohomology at x, the
        columns of its cycles that complete its boundaries to a basis
        (`linalg.coset_representatives`).  Every cycle space `spaces` builds
        is a basis, so without boundaries they are the cycles themselves."""
        if (kind, x) not in self._reps:
            z, b = self.spaces(kind, x)
            self._reps[(kind, x)] = coset_representatives(z, b) if b.cols else z
        return self._reps[(kind, x)]


def _de_rham(memo: Analysis) -> dict[int, int]:
    """dim T^k - rank d_k - rank d_{k-1} at each degree k, each rank from
    `Analysis.total_rank`."""
    tot = memo.totalization
    ranks = {k: memo.total_rank(k) for k in tot.degrees()}
    return {k: tot.dim(k) - r - ranks.get(k - 1, 0) for k, r in ranks.items()}


def de_rham(a: DoubleComplex) -> CohomologyTable:
    """Total cohomology: dim T^k - rank d_k - rank d_{k-1}, kept on the
    complex's Analysis (`Analysis.table`)."""
    return CohomologyTable("de_rham", Analysis.of(a).table("de_rham"))


def betti_vector(a: DoubleComplex) -> tuple[int, ...]:
    """(b_0, ..., b_max); degrees below 0 are reported only if present."""
    table = de_rham(a)
    if not table.entries:
        return ()
    lo = min(0, min(table.entries))
    hi = max(table.entries)
    return tuple(table.at(k) for k in range(lo, hi + 1))


def euler_characteristic(a: DoubleComplex) -> int:
    return sum((-1) ** ((p + q) % 2) * n for (p, q), n in a.dims.items())


# -- the four bidegree tables ----------------------------------------------------


def _contained(out: Matrix, into: Matrix) -> None:
    """Raise NotASubspace unless the image of into lies in the kernel of out;
    an empty factor makes no product."""
    if not (out.is_zero() or into.is_zero() or (out @ into).is_zero()):
        raise NotASubspace("denominator is not contained in numerator")


def _bidegree_table(memo: Analysis, kind: str) -> dict[BiDegree, int]:
    """dim A^{p,q} - rank(out) - rank(into) at every (p, q), for the blocks
    `_COHOMOLOGIES` names for `kind`.  Every rank comes from the complex's
    Analysis, and an absent block is not ranked.  Where a block is joined
    and the complex is not known valid, im(into) <= ker(out) is checked
    first, NotASubspace raised where it fails, and the two blocks it
    multiplied are the ones ranked (see the module notes)."""
    (out, op, oq), (into, ip, iq) = _COHOMOLOGIES[kind]
    live_out, live_into = memo.support(out), memo.support(into)
    check = not memo.valid() and (_KINDS[out].join or _KINDS[into].join) is not None
    entries = {}
    for (p, q), n in sorted(memo.complex.dims.items()):
        has_out, has_into = (p + op, q + oq) in live_out, (p + ip, q + iq) in live_into
        m_out = m_into = None
        if check and has_out and has_into:
            m_out, m_into = memo.block(out, p + op, q + oq), memo.block(into, p + ip, q + iq)
            _contained(m_out, m_into)
        if has_out:
            n -= memo.rank(out, p + op, q + oq, m_out)
        if has_into:
            n -= memo.rank(into, p + ip, q + iq, m_into)
        entries[(p, q)] = n
    return entries


def dolbeault(a: DoubleComplex) -> CohomologyTable:
    """Column cohomology: dim - rank(d2 out) - rank(d2 in), each block ranked
    once, through the complex's Analysis."""
    return CohomologyTable("dolbeault", Analysis.of(a).table("dolbeault"))


def conjugate_dolbeault(a: DoubleComplex) -> CohomologyTable:
    """Row cohomology: dim - rank(d1 out) - rank(d1 in), each block ranked
    once, through the complex's Analysis."""
    return CohomologyTable("conjugate_dolbeault", Analysis.of(a).table("conjugate_dolbeault"))


def bott_chern(a: DoubleComplex) -> CohomologyTable:
    """dim - rank[d1; d2] out of (p, q) - rank(d1 d2 into (p, q)).

    The boundaries im(d1 d2) lie in ker d1 & ker d2 exactly when
    [d1; d2] . d1 d2 = 0; unless the complex is known valid, this is checked
    and NotASubspace raised otherwise.  Every rank comes from the complex's
    Analysis, d1 d2 shared with aeppli.
    """
    return CohomologyTable("bott_chern", Analysis.of(a).table("bott_chern"))


def aeppli(a: DoubleComplex) -> CohomologyTable:
    """dim - rank(d1 d2 out of (p, q)) - rank[d1 | d2] into (p, q).

    The boundaries im d1 + im d2 lie in ker(d1 d2) exactly when
    d1 d2 . [d1 | d2] = 0; unless the complex is known valid, this is checked
    and NotASubspace raised otherwise.  Every rank comes from the complex's
    Analysis, d1 d2 shared with bott_chern.
    """
    return CohomologyTable("aeppli", Analysis.of(a).table("aeppli"))


# The five tables by kind: the one map every caller dispatches through.
TABLES: dict[str, Callable[[DoubleComplex], CohomologyTable]] = {
    "dolbeault": dolbeault,
    "conjugate_dolbeault": conjugate_dolbeault,
    "de_rham": de_rham,
    "bott_chern": bott_chern,
    "aeppli": aeppli,
}


# -- the spectral sequence -------------------------------------------------------


def frolicher(a: DoubleComplex, direction: str = "column") -> SpectralSequenceResult:
    """All pages from E_1 until no further differential can act.

    direction="column" filters the total complex by the first index p and
    starts from column (Dolbeault-style) cohomology; direction="row" filters
    it by the second index q and starts from row cohomology.  Both run on
    the complex's own Totalization, each coordinate taking its component's
    p or q as its level.  Bounded support means no differential d_r can be
    nonzero once r exceeds min(width, height + 1) of the window in the
    filtered direction, which caps the page list.

    Pages come from ranks alone.  With F^a the coordinates of level >= a,
    let rho_n(a, b) be the rank of d: T^n -> T^{n+1} restricted to F^a T^n
    and read modulo F^b T^{n+1} (zero when b <= a).  The page

        E_r^{p,q} = Z_r^p / (Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1}),
        Z_r^p = F^p T^n & d^{-1}(F^{p+r} T^{n+1}),   n = p + q,

    has dimension

        dim A^{p,q} - rho_n(p, p+r) + rho_n(p+1, p+r)
                    + rho_{n-1}(p-r+1, p) - rho_{n-1}(p-r+1, p+1)

    because dim Z_r^p = dim F^p T^n - rho_n(p, p+r), because
    Z_{r-1}^{p+1} & d Z_{r-1}^{p-r+1} = d Z_r^{p-r+1}, and because
    dim d Z_s^a = rho(a, oo) - rho(a, a+s); on the row filtration q takes
    the place of p.

    Pairs.  `linalg.filtered_pivots` pairs source coordinates of d_n with
    target coordinates so that, for all a and b, rho_n(a, b) is the number
    of pairs with source level >= a and target level < b (the pairing count
    of persistence).  d keeps each F^a, so a pair's length, target level
    minus source level, is >= 0.  Regrouped, rho_n(p, p+r) - rho_n(p+1, p+r)
    counts the pairs of d_n with source end at level p and length < r, and
    rho_{n-1}(p-r+1, p+1) - rho_{n-1}(p-r+1, p) those of d_{n-1} with
    target end at level p and length < r.  So

        dim E_r^{p,q} = dim A^{p,q} - #{pair ends at (p, q) of length < r},

    a source end of d_n sitting at the bidegree of degree n and level p,
    a target end of d_{n-1} at that of degree n and level p.  One histogram
    of ends by bidegree and length gives every page.  The number of pairs
    of d_n is rank d_n, which goes to the complex's Analysis for de_rham.
    A degree that no stored block leaves has d_n = 0 and no pair, and is
    neither assembled nor reduced.

    Length-0 pairs.  d2 keeps the level p and d1 raises it by 1, so
    rho_n(s, s+1), the rank of F^s T^n -> T^{n+1} / F^{s+1} T^{n+1}, is
    rank d2^{s,n-s}: it counts the pairs of d_n with source level s and
    length 0.  Every pair has length >= 0, so where
    sum_s rank d2^{s,n-s} = rank d_n every pair of d_n has length 0, its
    counts are {(s, s): rank d2^{s,n-s}}, and d_n needs no reduction.  A
    sum of dots and squares, whose sequence degenerates at E1 (Deligne,
    Griffiths, Morgan & Sullivan, Invent. Math. 1975; Stelzig,
    arXiv:1812.00865), meets this in every degree.  Both sides are read,
    never computed: the ranks of d2 from the E1 table the complex's
    Analysis holds, if `dolbeault` has run, by one recursion up each
    column from its lowest bidegree,
    rank d2 out of (p, q) = dim A^{p,q} - h^{p,q} - rank d2 out of (p, q-1),
    and rank d_n from the Analysis's total ranks, if `de_rham` or an
    earlier Frolicher call has stored it.  A degree missing either is
    reduced, so a complex that holds neither is paired as before.  The row
    filtration is the same with d1, q and `conjugate_dolbeault`, the
    recursion running along each row.

    Clearing (Chen & Kerber, "Persistent homology computation with a
    twist", EuroCG 2011).  The degrees are paired in increasing order, and
    d_n's pairing leaves out the source coordinates Y of T^n that d_{n-1}'s
    pairs end at.  This changes no rho_n(a, b).  The pairs of d_{n-1} pick
    a nonsingular square of its matrix: taken in the order they are found,
    a peeled singleton has no entry in the lines of the later pairs, and
    the core's pivots are independent.  So Y indexes rank d_{n-1}
    independent rows of d_{n-1}, and im d_{n-1} meets the span of the
    coordinates outside Y only in 0.  The pair counts make
    dim(im d_{n-1} & F^a T^n) = rank d_{n-1} - rho_{n-1}(-oo, a) the number
    of y in Y of level >= a.  So for every a,

        F^a T^n = (im d_{n-1} & F^a T^n) + span(e_j : j not in Y, level >= a),

    a direct sum by dimension, and since d_n d_{n-1} = 0, d_n F^a T^n is
    spanned by the images of the coordinates of level >= a outside Y.
    Reading modulo F^b, rho_n(a, b) is unchanged.  Where y is a pivot of
    the forward pass, it is the leading coordinate of some z = d_{n-1}(x),
    and d_n z = 0 writes row y of d_n's transpose through rows of later
    index, hence of level >= level(y): the classic form of the lemma.
    Clearing is optional, so a degree reduced after one that was read, or
    not moving, clears nothing.

    Peel.  Before the forward pass, `filtered_pivots` pairs singletons that
    respect the levels: a source coordinate with one entry left, whose
    target has no other source of a deeper level, and a target with one
    entry left, whose source has no other target of a lower level.  Each
    drops one count from exactly the rho_n(a, b) its pair belongs to (the
    proof is in `linalg.filtered_pivots`).  The core left over goes to
    `linalg._echelon` with the source levels, its targets in order of
    level; on the row filtration, where components run by increasing p and
    so by decreasing q, that order is the reverse of the coordinates'.

    Serre mirror.  Where `Analysis.partner` gives N, on a Lie-algebra
    model of complex dimension N found valid whose Serre pairing is a
    morphism (see `Analysis`), only d_0 ... d_{N-1} are reduced or read,
    in the order above, with their clearing; for k >= N, a pair of d_{2N-1-k} with levels (s, t) gives a
    pair of d_k with levels (N - t, N - s), of the same length.  The pairing makes d_k the
    transpose of d_{2N-1-k} between signed permutations that send a
    component (p, q) to (N - p, N - q).  So the sources of d_k of level
    >= a are the targets of d_{2N-1-k} of level <= N - a, and the targets
    of level < b its sources of level > N - b; hence
    rho_k(a, b) = rho_{2N-1-k}(N - b + 1, N - a + 1).  A pair (s', t')
    of d_{2N-1-k} counts in the right side exactly when s' >= N - b + 1
    and t' < N - a + 1, that is, when (N - t', N - s') counts in
    rho_k(a, b); the pair counts at every (a, b) fix the pairs' levels, so
    these are d_k's.  The row filtration is the same with q for p.
    """
    if direction not in ("column", "row"):
        raise ValueError("direction must be 'column' or 'row'")
    if not a.dims:
        return SpectralSequenceResult(direction, ((1, {}),), 1, {})
    p_min, p_max, q_min, q_max = a.window
    if direction == "column":
        last = max(1, min(p_max - p_min, q_max - q_min + 1) + 1)
        level, at = (lambda pq: pq[0]), (lambda n, s: (s, n - s))
        order = a.bidegrees()
    else:
        last = max(1, min(q_max - q_min, p_max - p_min + 1) + 1)
        level, at = (lambda pq: pq[1]), (lambda n, s: (n - s, s))
        order = sorted(a.dims, key=lambda pq: (pq[1], pq[0]))
    memo = Analysis.of(a)
    tot = memo.totalization
    # Degree -> its length-0 pair counts, read off a held E1 table: the rank
    # of d2 (d1 for rows) out of each component, up its column (row).
    flat: dict[int, dict[tuple[int, int], int]] = {}
    held = memo._tables.get("dolbeault" if direction == "column" else "conjugate_dolbeault")
    if held is not None:
        out: dict[BiDegree, int] = {}
        for pq in order:
            n, s = sum(pq), level(pq)
            out[pq] = a.dim(*pq) - held.get(pq, 0) - out.get(at(n - 1, s), 0)
            if out[pq]:
                flat.setdefault(n, {})[(s, s)] = out[pq]
    levels: dict[int, list[int]] = {}
    # ends[pq][length]: the pair ends at pq of each length < last.
    ends = {pq: [0] * last for pq in a.dims}
    # Degree -> the coordinates of T^n that d_{n-1}'s pairs end at.
    hit: dict[int, set[int]] = {}
    # Degree -> its pairs counted by (source level, target level).
    found: dict[int, dict[tuple[int, int], int]] = {}
    # N, the complex dimension, where the Serre mirror applies.
    serre_n = memo.partner()
    for n in tot.degrees():
        if serre_n is not None and n >= serre_n:
            counts = {(serre_n - t, serre_n - s): count for (s, t), count
                      in found.get(2 * serre_n - 1 - n, {}).items()}
        elif n not in tot.moving:
            counts = {}
        elif n in flat and sum(flat[n].values()) == memo.total_ranks.get(n):
            counts = flat[n]
        else:
            for k in (n, n + 1):
                if k not in levels:
                    levels[k] = [level(pq) for pq in tot.components.get(k, ())
                                 for _ in range(a.dim(*pq))]
            source, target = levels[n], levels[n + 1]
            pairs = filtered_pivots(tot.differential(n), source, target, hit.pop(n, ()))
            hit[n + 1] = {i for _, i in pairs}
            counts = Counter((source[j], target[i]) for j, i in pairs)
        found[n] = counts
        memo.total_ranks[n] = sum(counts.values())
        for (s, t), count in counts.items():
            if t - s < last:
                ends[at(n, s)][t - s] += count
                ends[at(n + 1, t)][t - s] += count

    pages = []
    left = dict(a.dims)
    for r in range(1, last + 1):
        for pq in order:
            left[pq] -= ends[pq][r - 1]
        pages.append((r, {pq: left[pq] for pq in order if left[pq]}))
    e_inf = pages[-1][1]
    degeneration = next(r for r, t in pages if t == e_inf)
    return SpectralSequenceResult(direction, tuple(pages), degeneration, dict(e_inf))


# -- induced maps -----------------------------------------------------------------


def induced_cohomology_map(f: Morphism, kind: str) -> dict:
    """Matrices of the map induced by f on the chosen cohomology.

    Keys are bidegrees, or plain degrees for kind="de_rham".  The cycles and
    boundaries of each side, and the source's coset representatives, come
    from the Analysis of its complex; each key is then one elimination of
    the target frame, except where the target has no boundaries, whose map
    is read off the unit rows of the target cycles with no elimination
    (`linalg._induced_map`).  Coset bases are chosen
    deterministically, so induced matrices compose functorially.  The map
    is kept on f by kind, and each call returns a fresh dict of it.
    """
    if kind not in TABLES:
        raise ValueError(f"unknown cohomology kind {kind!r}")
    if kind not in f._induced:
        source, target = Analysis.of(f.source), Analysis.of(f.target)
        if kind == "de_rham":
            keys = set(source.totalization.degrees()) | set(target.totalization.degrees())
            block = lambda k: source.totalization.embed_block(f, k, target.totalization)
        else:
            keys = set(f.source.dims) | set(f.target.dims)
            block = lambda pq: f.block_at(*pq)
        f._induced[kind] = {
            x: _induced_map(block(x), source.representatives(kind, x), source.spaces(kind, x)[1],
                            *target.spaces(kind, x))
            for x in sorted(keys)}
    return dict(f._induced[kind])


# -- E1-isomorphism test --------------------------------------------------------


class E1Witness(NamedTuple):
    p: int
    q: int
    source_dim: int
    target_dim: int
    rank: int

    @property
    def bijective(self) -> bool:
        return self.source_dim == self.target_dim == self.rank


class E1Report(NamedTuple):
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


def is_E1_isomorphism(f: Morphism) -> E1Report:
    """True iff f induces bijections on column cohomology at every bidegree:
    one witness per bidegree, read off the induced Dolbeault map."""
    return E1Report(tuple(E1Witness(p, q, m.cols, m.rows, rank(m))
                          for (p, q), m in induced_cohomology_map(f, "dolbeault").items()))
