"""Checks that only the tests use.

`is_injective` asks whether a morphism has full column rank at every
bidegree; `parse_diamond_rows` reads per-degree multisets back from the rows
that `cli.render_diamond` prints; `never_validated` copies a model's complex
without the verdict its builder records; `random_structure_equations`
writes a seeded model file.
"""

from __future__ import annotations

import random

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


# Coefficients of `random_structure_equations`, each with its negative.
SIGNED_COEFFICIENTS = (("1", "-1"), ("2", "-2"), ("i", "-i"), ("(1+i)", "(-1-i)"),
                       ("(1/2-i)", "(-1/2+i)"))


def random_structure_equations(seed: int) -> str:
    """A model file of seeded random structure equations on generators
    e1 ... en, n from 2 to 4.  Each e_k past e1 gets up to two terms in
    letters of lower index, e_i ^ e_j or e_i ^ conj(e_j), as a nilpotent
    algebra has.  On about 60% of the seeds, most e_k also get a weight
    term c_k e1 ^ e_k or c_k conj(e1) ^ e_k, which makes the algebra
    solvable and, unless the weights cancel, not unimodular; on 40% of
    those with n > 2 the weights are one pair c, -c, as on the Nakamura
    manifold.  Nothing makes d^2 vanish: a file the builder rejects is for
    the caller to skip."""
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4))
    gens = [f"e{k + 1}" for k in range(n)]
    letter = lambda k, barred: f"conj({gens[k]})" if barred else gens[k]
    weights = [None] * n
    if rng.random() < 0.6:
        weights[1:] = [rng.choice(SIGNED_COEFFICIENTS)[0] if rng.random() < 0.7 else None
                       for _ in range(n - 1)]
        if n > 2 and rng.random() < 0.4:
            weights[1:] = [*rng.choice(SIGNED_COEFFICIENTS), *[None] * (n - 3)]
    lines = [f"complex_dimension = {n}", "kind = lie_algebra", "generators = " + ", ".join(gens)]
    for k in range(1, n):
        terms = []
        if weights[k] is not None:
            terms.append(f"{weights[k]} * {letter(0, rng.random() < 0.3)} ^ {gens[k]}")
        for _ in range(rng.choice((0, 0, 1, 2))):
            i, j, barred = rng.randrange(k), rng.randrange(k), rng.random() < 0.5
            if i != j or barred:
                terms.append(f"{rng.choice(SIGNED_COEFFICIENTS)[0]} * {gens[i]} ^ {letter(j, barred)}")
        if terms:
            lines.append(f"d {gens[k]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"
