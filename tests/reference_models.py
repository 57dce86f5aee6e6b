"""The exterior-algebra builder on sorted letter words, kept as a second route.

`bicomplex.models.lie_algebra_model` holds each monomial as an int with one
bit per letter and reads every Koszul sign off set bits.  This module keeps
the builder as it was first written: a monomial is a tuple of (barred,
index) letters, a word is sorted by insertion sort to find its sign, and
each derivation term is a scalar multiplication by that sign.  The same
spec must give an equal `DoubleComplex` (dims, d1, d2, sigma, labels), the
same products and the same `NotADifferential` text on both.  It shares only
the spec types, the errors, the bound, `Matrix` and the scalars with the
package.

`serre_pairing_morphism` keeps the pairing builder as first written too: the
top coefficient of every pair of basis elements of complementary bidegrees,
where the package pairs each basis element with its complement alone.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from bicomplex.complexes import BiDegree, DoubleComplex, Morphism, dual
from bicomplex.linalg import Matrix
from bicomplex.models import (
    MAX_MODEL_BASIS,
    EquationTerm,
    InvalidDimension,
    Letter,
    ModelError,
    ModelSpec,
    NotADifferential,
)
from bicomplex.scalars import GaussianRational, ONE, ZERO


def _canonical_word(letters: Sequence[Letter]) -> tuple[int, tuple[Letter, ...]] | None:
    """Sort a word of odd-degree letters; None if a letter repeats."""
    arr = list(letters)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j] < arr[j - 1]:
            arr[j], arr[j - 1] = arr[j - 1], arr[j]
            sign = -sign
            j -= 1
    for k in range(1, len(arr)):
        if arr[k] == arr[k - 1]:
            return None
    return sign, tuple(arr)


Rule = dict[Letter, list[tuple[GaussianRational, tuple[Letter, Letter]]]]


def _apply_derivation(rule: Rule, word: tuple[Letter, ...]) -> dict[tuple[Letter, ...], GaussianRational]:
    out: dict[tuple[Letter, ...], GaussianRational] = {}
    for i, letter in enumerate(word):
        images = rule.get(letter)
        if not images:
            continue
        pos_sign = -1 if i % 2 else 1
        rest = word[:i] + word[i + 1:]
        for coeff, (la, lb) in images:
            canon = _canonical_word(word[:i] + (la, lb) + word[i + 1:])
            if canon is None:
                continue
            sign, new_word = canon
            total = coeff * (pos_sign * sign)
            acc = out.get(new_word, ZERO) + total
            if acc:
                out[new_word] = acc
            else:
                out.pop(new_word, None)
    return out


def _conjugate_rule_terms(terms: Sequence[EquationTerm]):
    """Image of d on a conjugate generator: bar every letter and conjugate
    the coefficient, then recanonicalize."""
    out = []
    for t in terms:
        a = (1 - t.first[0], t.first[1])
        b = (1 - t.second[0], t.second[1])
        coeff = t.coeff.conjugate()
        if a > b:
            a, b = b, a
            coeff = -coeff
        out.append((coeff, (a, b)))
    return out


class AlgebraModel:
    """A double complex together with its wedge product and top class.

    Basis elements are addressed as (bidegree, index); product returns the
    sparse coordinate vector of the wedge in the target bidegree.
    """

    def __init__(self, complex: DoubleComplex, top_index: BiDegree, kind: str,
                 monomials: Mapping[BiDegree, tuple] | None = None,
                 truncation: int | None = None):
        self.complex = complex
        self.top_index = top_index
        self.kind = kind
        self._monomials = dict(monomials) if monomials is not None else None
        self._index: dict[BiDegree, dict] = {}
        if self._monomials is not None:
            self._index = {
                pq: {w: i for i, w in enumerate(words)}
                for pq, words in self._monomials.items()
            }
        self._truncation = truncation

    def product(self, pq1: BiDegree, i1: int, pq2: BiDegree, i2: int) -> dict[int, GaussianRational]:
        """Coordinates of basis_i1 wedge basis_i2 in A^{pq1 + pq2}."""
        target = (pq1[0] + pq2[0], pq1[1] + pq2[1])
        if self.kind == "truncated_polynomial":
            if target[0] <= self._truncation:
                return {0: ONE}
            return {}
        w1 = self._monomials[pq1][i1]
        w2 = self._monomials[pq2][i2]
        canon = _canonical_word(w1 + w2)
        if canon is None or target not in self._index:
            return {}
        sign, word = canon
        return {self._index[target][word]: ONE if sign == 1 else -ONE}

    def top_coefficient(self, pq1: BiDegree, i1: int, pq2: BiDegree, i2: int) -> GaussianRational:
        """Coefficient of the top basis element in basis_i1 wedge basis_i2."""
        target = (pq1[0] + pq2[0], pq1[1] + pq2[1])
        if target != self.top_index:
            return ZERO
        vec = self.product(pq1, i1, pq2, i2)
        return vec.get(0, ZERO)


def lie_algebra_model(spec: ModelSpec) -> AlgebraModel:
    """Extend the structure equations to the full exterior bicomplex.

    Checks d1^2 = d2^2 = d1 d2 + d2 d1 = 0 on all generators (which settles it
    for the derivations) and raises NotADifferential with a witness otherwise.
    Raises InvalidDimension up front if the 4^n monomials exceed
    MAX_MODEL_BASIS.
    """
    if spec.kind != "lie_algebra":
        raise ModelError(f"spec {spec.name!r} has kind {spec.kind!r}")
    n = spec.complex_dimension
    if 4 ** n > MAX_MODEL_BASIS:
        raise InvalidDimension(
            f"complex dimension {n} needs 4^{n} = {4 ** n} basis monomials, "
            f"more than the {MAX_MODEL_BASIS} this builder accepts")
    d1_rule: Rule = {}
    d2_rule: Rule = {}
    for gen_idx, gen in enumerate(spec.generators):
        d20, d11, d02 = spec.parts(gen)
        if d02:
            raise NotADifferential(
                f"d {gen}",
                "a (0,2)-component on a (1,0)-generator does not fit a double complex",
            )
        if d20:
            d1_rule[(0, gen_idx)] = [(t.coeff, (t.first, t.second)) for t in d20]
        if d11:
            d2_rule[(0, gen_idx)] = [(t.coeff, (t.first, t.second)) for t in d11]
        if d11:
            d1_rule[(1, gen_idx)] = _conjugate_rule_terms(d11)
        if d20:
            d2_rule[(1, gen_idx)] = _conjugate_rule_terms(d20)

    def letter_name(letter: Letter) -> str:
        barred, idx = letter
        return f"conj({spec.generators[idx]})" if barred else spec.generators[idx]

    for barred in (0, 1):
        for idx in range(n):
            letter = (barred, idx)
            for label, compositions in (
                ("d1 d1", ((d1_rule, d1_rule),)),
                ("d2 d2", ((d2_rule, d2_rule),)),
                ("d1 d2 + d2 d1", ((d1_rule, d2_rule), (d2_rule, d1_rule))),
            ):
                total: dict[tuple[Letter, ...], GaussianRational] = {}
                for first, second in compositions:
                    for word, c in _apply_derivation(first, (letter,)).items():
                        for w2, c2 in _apply_derivation(second, word).items():
                            s = total.get(w2, ZERO) + c * c2
                            if s:
                                total[w2] = s
                            else:
                                total.pop(w2, None)
                if total:
                    raise NotADifferential(letter_name(letter), f"{label} is nonzero")

    monomials: dict[BiDegree, tuple] = {}
    for p in range(n + 1):
        for q in range(n + 1):
            words = []
            for plain in itertools.combinations(range(n), p):
                for bar in itertools.combinations(range(n), q):
                    words.append(tuple((0, i) for i in plain) + tuple((1, j) for j in bar))
            monomials[(p, q)] = tuple(words)
    index = {pq: {w: i for i, w in enumerate(ws)} for pq, ws in monomials.items()}
    dims = {pq: len(ws) for pq, ws in monomials.items()}

    def blocks_for(rule: Rule, step: BiDegree) -> dict[BiDegree, Matrix]:
        out = {}
        for (p, q), words in monomials.items():
            tgt = (p + step[0], q + step[1])
            if tgt not in monomials:
                continue
            entries = {}
            lookup = index[tgt]
            for col, word in enumerate(words):
                for new_word, coeff in _apply_derivation(rule, word).items():
                    entries[(lookup[new_word], col)] = coeff
            if entries:
                out[(p, q)] = Matrix(dims[tgt], dims[(p, q)], entries)
        return out

    d1 = blocks_for(d1_rule, (1, 0))
    d2 = blocks_for(d2_rule, (0, 1))

    sigma = {}
    for (p, q), words in monomials.items():
        lookup = index[(q, p)]
        entries = {}
        for col, word in enumerate(words):
            # Barring every letter keeps the word order, so the reordering
            # sign of the sort is already the full Koszul sign (-1)^{pq}.
            mirrored = tuple((1 - b, i) for b, i in word)
            canon = _canonical_word(mirrored)
            if canon is None:
                raise RuntimeError(f"the conjugate of monomial {col} at bidegree {(p, q)} "
                                   "repeats a letter")
            s, target_word = canon
            entries[(lookup[target_word], col)] = ONE if s == 1 else -ONE
        sigma[(p, q)] = Matrix(dims[(q, p)], dims[(p, q)], entries)

    labels = {
        pq: tuple("^".join(
            (f"conj({spec.generators[i]})" if b else spec.generators[i]) for b, i in word
        ) or "1" for word in words)
        for pq, words in monomials.items()
    }
    complex = DoubleComplex(dims, d1, d2, sigma, labels)
    return AlgebraModel(complex, (n, n), "lie_algebra", monomials)


def serre_pairing_morphism(model: AlgebraModel) -> Morphism:
    """The pairing map A -> dual(A, n) from Sum dim(p, q)^2 top coefficients."""
    n = model.top_index[0]
    a = model.complex
    blocks = {}
    for (p, q), m in a.dims.items():
        rows = a.dim(n - p, n - q)
        entries = {}
        for i in range(m):
            for j in range(rows):
                c = model.top_coefficient((p, q), i, (n - p, n - q), j)
                if c:
                    entries[(j, i)] = c
        blocks[(p, q)] = Matrix(rows, m, entries)
    return Morphism(a, dual(a, n), blocks)
