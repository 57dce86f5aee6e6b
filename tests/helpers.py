"""Checks that only the tests use.

`is_injective` asks whether a morphism has full column rank at every
bidegree; `parse_diamond_rows` reads per-degree multisets back from the rows
that `cli.render_diamond` prints.
"""

from __future__ import annotations

from bicomplex.complexes import Morphism
from bicomplex.linalg import rank


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
