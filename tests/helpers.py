"""Checks that only the tests use.

`is_injective` asks whether a morphism has full column rank at every
bidegree; `parse_diamond_rows` reads per-degree multisets back from the rows
that `cli.render_diamond` prints; `never_validated` copies a model's complex
without the verdict its builder records.
"""

from __future__ import annotations

from bicomplex.complexes import DoubleComplex, Morphism
from bicomplex.linalg import rank
from bicomplex.models import AlgebraModel


def is_injective(f: Morphism) -> bool:
    return all(rank(f.block_at(*pq)) == n for pq, n in f.source.dims.items())


def parse_diamond_rows(rows: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Per-degree multisets (bottom-up) recovered from rendered rows."""
    out = []
    for row in reversed(rows):
        if row.startswith("b:"):
            raise ValueError("not a diamond")
        values = tuple(sorted(int(tok) for tok in row.split()))
        out.append(values)
    return out


def never_validated(model: AlgebraModel) -> DoubleComplex:
    """A copy of the model's complex with the model's Serre record and no
    verdict.  `lie_algebra_model` records the verdict its generator check
    proves, so `validate` of a built model returns it at once and the tables
    read mirrored ranks from the start; on this copy `validate` decides
    every axiom, and the tables take their checked routes until it has."""
    a = model.complex
    copy = DoubleComplex(a.dims, a.d1, a.d2, a.sigma, a.labels)
    object.__setattr__(copy, "_serre", a._serre)
    return copy
