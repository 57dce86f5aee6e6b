"""Projective bundles, blow-ups and modifications at the level of complexes.

A projective bundle of rank n over a base with complex A contributes the
complex  K = A + A[1] + ... + A[n-1];  blowing up a center with complex Z
inside an ambient space with complex X, in codimension r, contributes

    X + Z[1] + ... + Z[r-1].

Both are modeled directly as those direct sums; every linear functor that
turns column-cohomology isomorphisms into isomorphisms (all five cohomologies
and every spectral page computed in this package) then takes the additive
value predicted by the formulas, which is what the tests pin down.
"""

from __future__ import annotations

from typing import NamedTuple

from .cohomology import TABLES, CohomologyTable, is_E1_isomorphism
from .complexes import (
    DoubleComplex,
    Morphism,
    _direct_sum,
    _inclusion,
    quotient,
    shift,
)


class InvalidRank(ValueError):
    pass


class CodimensionTooSmall(ValueError):
    pass


def as_complex(x) -> DoubleComplex:
    """Accept either a DoubleComplex or anything carrying one (models)."""
    if isinstance(x, DoubleComplex):
        return x
    inner = getattr(x, "complex", None)
    if isinstance(inner, DoubleComplex):
        return inner
    raise TypeError(f"expected a double complex or a model, got {type(x).__name__}")


class BlowupResult(NamedTuple):
    total: DoubleComplex
    base_inclusion: Morphism
    center_summands: tuple[DoubleComplex, ...]
    codimension: int


def projective_bundle(a_x, n: int) -> tuple[DoubleComplex, Morphism]:
    """K = a_x + a_x[1] + ... + a_x[n-1] and the inclusion of the i = 0 summand."""
    a_x = as_complex(a_x)
    if n < 1:
        raise InvalidRank(f"bundle rank must be at least 1, got {n}")
    summands = [shift(a_x, i) for i in range(n)]
    total, offsets = _direct_sum(summands)
    return total, _inclusion(summands[0], total, offsets[0])


def blow_up(a_x, a_z, r: int) -> BlowupResult:
    """The blow-up complex a_x + a_z[1] + ... + a_z[r-1] for codimension r >= 2."""
    a_x = as_complex(a_x)
    a_z = as_complex(a_z)
    if r < 2:
        raise CodimensionTooSmall(f"codimension must be at least 2, got {r}")
    summands = [a_x] + [shift(a_z, i) for i in range(1, r)]
    total, offsets = _direct_sum(summands)
    return BlowupResult(total, _inclusion(summands[0], total, offsets[0]), tuple(summands[1:]), r)


def _shifted_entries(table: CohomologyTable, i: int) -> dict:
    if table.kind == "de_rham":
        return {k + 2 * i: v for k, v in table.entries.items()}
    return {(p + i, q + i): v for (p, q), v in table.entries.items()}


def _sum_entries(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def exceptional_consistency_check(a_z, r: int) -> bool:
    """Quotient of the rank-r bundle over the center by the base inclusion
    against the blow-up's center summands: all five tables must agree with
    table(a_z) shifted by 1 .. r-1."""
    a_z = as_complex(a_z)
    if r < 2:
        raise CodimensionTooSmall(f"codimension must be at least 2, got {r}")
    k, inclusion = projective_bundle(a_z, r)
    q, _ = quotient(inclusion)
    for compute in TABLES.values():
        base = compute(a_z)
        want = _sum_entries(_shifted_entries(base, i) for i in range(1, r))
        if dict(compute(q).entries) != want:
            return False
    return True


def modification_summand_check(a_x, a_y, f: Morphism) -> bool:
    """Does f embed the column cohomology of a_x into that of a_y blockwise?

    This is the direct-summand content of a modification at model level: a
    split injection on column cohomology splits off every E1-invariant
    functor.
    """
    return all(w.rank == w.source_dim for w in is_E1_isomorphism(f).entries)
