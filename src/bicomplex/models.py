"""Finite-dimensional double-complex models of compact complex manifolds.

Two kinds of models are supported.

Lie-algebra models: the exterior algebra on generators phi_1..phi_n of
bidegree (1, 0) and their conjugates, with the two differentials extended as
graded derivations from structure equations

    d phi_k = (2,0)-part  +  (1,1)-part,

the (2,0)-part feeding d1 and the (1,1)-part feeding d2.  Equations for the
conjugate generators are obtained by conjugation, so the real structure is
built in.  A^{p,q} has the monomial basis phi_I wedge conj(phi)_J with
strictly increasing indices, I-major then J, and all signs come from Koszul
transposition counting.  The real structure sends a monomial (I, J) to
(-1)^{|I||J|} (J, I) together with coefficient conjugation.

Truncated polynomial models: one class t of bidegree (1, 1) with t^{m+1} = 0,
zero differentials; this is the cohomology of complex projective m-space.

Model files are line oriented ('#' starts a comment, whitespace within a
line is free):

    name = iwasawa                 # optional
    complex_dimension = 3
    kind = lie_algebra             # or truncated_polynomial
    generators = phi1, phi2, phi3
    d phi3 = -1 * phi1 ^ phi2 + (1/2+1/3i) * phi1 ^ conj(phi2)

Coefficients are Gaussian rationals written a/b, a/b i, or a/b+c/d i,
optionally parenthesized.  Terms of type (2,0) feed d1; terms with exactly
one conj feed d2.  Terms with two conjs are accepted by the grammar but a
(1,0)-generator cannot have a (0,2)-differential inside a double complex, so
the builder rejects them.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .complexes import BiDegree, DoubleComplex, Morphism, dual
from .linalg import Matrix
from .scalars import GaussianRational, ONE, ZERO, format_scalar, parse_scalar

# A letter is (barred, generator index); plain letters sort before barred
# ones, so sorted words are exactly the canonical monomials.
Letter = tuple[int, int]


class ModelError(ValueError):
    """Base class for everything the model layer can reject."""


class ModelSyntaxError(ModelError):
    def __init__(self, line: int, col: int, expected: str):
        super().__init__(f"line {line}, column {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class UnknownGenerator(ModelError):
    def __init__(self, name: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown generator {name!r}{where}")
        self.name = name


class NonQuadraticTerm(ModelError):
    def __init__(self, line: int, text: str):
        super().__init__(f"line {line}: term {text!r} is not a quadratic wedge monomial")
        self.line = line


class InvalidDimension(ModelError):
    pass


class NotADifferential(ModelError):
    def __init__(self, witness: str, message: str):
        super().__init__(f"{message} (witness: {witness})")
        self.witness = witness


class NoTopClass(ModelError):
    pass


@dataclass(frozen=True)
class EquationTerm:
    """coeff * first ^ second, letters canonically ordered (sign absorbed)."""

    coeff: GaussianRational
    first: Letter
    second: Letter

    @property
    def bar_count(self) -> int:
        return self.first[0] + self.second[0]


@dataclass(frozen=True)
class ModelSpec:
    name: str
    complex_dimension: int
    kind: str
    generators: tuple[str, ...]
    equations: Mapping[str, tuple[EquationTerm, ...]]

    def __post_init__(self):
        object.__setattr__(self, "equations",
                           {g: tuple(ts) for g, ts in self.equations.items() if ts})

    def parts(self, gen: str) -> tuple[tuple[EquationTerm, ...], ...]:
        """The (2,0), (1,1) and (0,2) pieces of d(gen)."""
        terms = self.equations.get(gen, ())
        return (
            tuple(t for t in terms if t.bar_count == 0),
            tuple(t for t in terms if t.bar_count == 1),
            tuple(t for t in terms if t.bar_count == 2),
        )


# -- parsing ----------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _split_top_level(text: str, seps: str) -> list[tuple[int, str, str]]:
    """Split at top-level separator characters, keeping (offset, sign, chunk)."""
    parts = []
    depth = 0
    start = 0
    sign = "+"
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in seps and depth == 0:
            if text[start:i].strip():
                parts.append((start, sign, text[start:i]))
            sign = ch
            start = i + 1
    if text[start:].strip():
        parts.append((start, sign, text[start:]))
    return parts


def _parse_factor(text: str, lineno: int, generators: dict[str, int]) -> Letter:
    t = text.strip()
    m = re.fullmatch(r"conj\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)", t)
    if m:
        name = m.group(1)
        barred = 1
    elif _NAME_RE.fullmatch(t):
        name = t
        barred = 0
    else:
        raise ModelSyntaxError(lineno, 0, f"a generator or conj(generator), got {t!r}")
    if name not in generators:
        raise UnknownGenerator(name, lineno)
    return (barred, generators[name])


def _canonical_pair(coeff: GaussianRational, a: Letter, b: Letter) -> EquationTerm | None:
    if a == b:
        return None
    if a > b:
        a, b = b, a
        coeff = -coeff
    return EquationTerm(coeff, a, b)


def _parse_equation_rhs(text: str, lineno: int, base_col: int,
                        generators: dict[str, int]) -> tuple[EquationTerm, ...]:
    if text.strip() == "0":
        return ()
    acc: dict[tuple[Letter, Letter], GaussianRational] = {}
    for off, sign, chunk in _split_top_level(text, "+-"):
        stars = _split_top_level(chunk, "*")
        if not stars:
            raise ModelSyntaxError(lineno, base_col + off + 1, "a term")
        if len(stars) > 2:
            raise ModelSyntaxError(lineno, base_col + stars[2][0] + 1,
                                   "a single '*' between coefficient and monomial")
        if len(stars) == 2:
            coeff_text = stars[0][2].strip()
            if coeff_text.startswith("(") and coeff_text.endswith(")"):
                coeff_text = coeff_text[1:-1]
            try:
                coeff = parse_scalar(coeff_text)
            except ValueError:
                raise ModelSyntaxError(lineno, base_col + stars[0][0] + 1,
                                       f"a Gaussian-rational coefficient, got {coeff_text!r}")
            body = stars[1][2]
        else:
            coeff = ONE
            body = stars[0][2]
        if sign == "-":
            coeff = -coeff
        factors = [c for _, _, c in _split_top_level(body, "^")]
        if len(factors) != 2:
            raise NonQuadraticTerm(lineno, (chunk.strip() or text.strip()))
        a = _parse_factor(factors[0], lineno, generators)
        b = _parse_factor(factors[1], lineno, generators)
        term = _canonical_pair(coeff, a, b)
        if term is None:
            continue
        key = (term.first, term.second)
        acc[key] = acc.get(key, ZERO) + term.coeff
    return tuple(
        EquationTerm(c, a, b) for (a, b), c in sorted(acc.items()) if c
    )


def parse_model_file(text: str, name: str = "model") -> ModelSpec:
    """Parse the model grammar; raises ModelSyntaxError / UnknownGenerator /
    NonQuadraticTerm with line information."""
    dimension: int | None = None
    kind: str | None = None
    generators: dict[str, int] | None = None
    gen_names: tuple[str, ...] = ()
    equations: dict[str, tuple[EquationTerm, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelSyntaxError(lineno, 1, "'key = value' or 'd gen = terms'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "name":
            name = value
        elif key == "complex_dimension":
            if not value.isdigit() or int(value) < 0:
                raise ModelSyntaxError(lineno, line.find("=") + 2, "a non-negative integer")
            dimension = int(value)
        elif key == "kind":
            if value not in ("lie_algebra", "truncated_polynomial"):
                raise ModelSyntaxError(lineno, line.find("=") + 2,
                                       "'lie_algebra' or 'truncated_polynomial'")
            kind = value
        elif key == "generators":
            if generators is not None:
                raise ModelSyntaxError(lineno, 1, "a single generators line")
            names = [g.strip() for g in value.split(",") if g.strip()]
            if not names or any(not _NAME_RE.fullmatch(g) for g in names):
                raise ModelSyntaxError(lineno, line.find("=") + 2, "comma-separated generator names")
            if len(set(names)) != len(names):
                raise ModelSyntaxError(lineno, line.find("=") + 2, "distinct generator names")
            gen_names = tuple(names)
            generators = {g: i for i, g in enumerate(names)}
        elif key.startswith("d ") or key.startswith("d\t"):
            gen = key[1:].strip()
            if generators is None:
                raise ModelSyntaxError(lineno, 1, "generators to be declared before equations")
            if gen not in generators:
                raise UnknownGenerator(gen, lineno)
            if gen in equations:
                raise ModelSyntaxError(lineno, 1, f"a single equation for {gen!r}")
            base_col = raw.find("=") + 1
            equations[gen] = _parse_equation_rhs(value, lineno, base_col, generators)
        else:
            raise ModelSyntaxError(lineno, 1,
                                   "one of name, complex_dimension, kind, generators, d <gen>")
    if dimension is None:
        raise ModelSyntaxError(0, 0, "a complex_dimension line")
    if kind is None:
        raise ModelSyntaxError(0, 0, "a kind line")
    if generators is None:
        raise ModelSyntaxError(0, 0, "a generators line")
    if kind == "lie_algebra" and len(gen_names) != dimension:
        raise ModelSyntaxError(0, 0,
                               f"{dimension} generators for a lie_algebra model, got {len(gen_names)}")
    if kind == "truncated_polynomial":
        if len(gen_names) != 1:
            raise ModelSyntaxError(0, 0, "exactly one generator for a truncated_polynomial model")
        if any(equations.values()):
            raise ModelSyntaxError(0, 0, "no equations in a truncated_polynomial model")
    return ModelSpec(name, dimension, kind, gen_names, equations)


def format_model_spec(spec: ModelSpec) -> str:
    """Canonical text form; parse_model_file inverts it."""
    lines = [
        f"name = {spec.name}",
        f"complex_dimension = {spec.complex_dimension}",
        f"kind = {spec.kind}",
        f"generators = {', '.join(spec.generators)}",
    ]

    def fmt_letter(letter: Letter) -> str:
        barred, idx = letter
        name = spec.generators[idx]
        return f"conj({name})" if barred else name

    for gen in spec.generators:
        terms = spec.equations.get(gen)
        if not terms:
            continue
        rendered = " + ".join(
            f"({format_scalar(t.coeff)}) * {fmt_letter(t.first)} ^ {fmt_letter(t.second)}"
            for t in terms
        )
        lines.append(f"d {gen} = {rendered}")
    return "\n".join(lines) + "\n"


# -- exterior-algebra machinery ----------------------------------------------


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

    def monomials(self, p: int, q: int) -> tuple:
        if self._monomials is None:
            raise ValueError("model has no monomial basis")
        return self._monomials.get((p, q), ())

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
    """
    if spec.kind != "lie_algebra":
        raise ModelError(f"spec {spec.name!r} has kind {spec.kind!r}")
    n = spec.complex_dimension
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
            start: dict[tuple[Letter, ...], GaussianRational] = {(letter,): ONE}
            for rule_a, rule_b, label in (
                (d1_rule, d1_rule, "d1 d1"),
                (d2_rule, d2_rule, "d2 d2"),
            ):
                total: dict[tuple[Letter, ...], GaussianRational] = {}
                for word, c in _apply_derivation(rule_a, (letter,)).items():
                    for w2, c2 in _apply_derivation(rule_b, word).items():
                        s = total.get(w2, ZERO) + c * c2
                        if s:
                            total[w2] = s
                        else:
                            total.pop(w2, None)
                if total:
                    raise NotADifferential(letter_name(letter), f"{label} is nonzero")
            anti: dict[tuple[Letter, ...], GaussianRational] = {}
            for first, second in ((d1_rule, d2_rule), (d2_rule, d1_rule)):
                for word, c in _apply_derivation(first, (letter,)).items():
                    for w2, c2 in _apply_derivation(second, word).items():
                        s = anti.get(w2, ZERO) + c * c2
                        if s:
                            anti[w2] = s
                        else:
                            anti.pop(w2, None)
            if anti:
                raise NotADifferential(letter_name(letter), "d1 d2 + d2 d1 is nonzero")

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


def torus(n: int) -> AlgebraModel:
    """The complex n-torus model: all structure equations zero."""
    if n < 1:
        raise InvalidDimension(f"torus needs n >= 1, got {n}")
    gens = tuple(f"phi{i + 1}" for i in range(n))
    return lie_algebra_model(ModelSpec(f"torus{n}", n, "lie_algebra", gens, {}))


def projective_space(m: int) -> AlgebraModel:
    """The cohomology model of complex projective m-space: Q(i)[t]/(t^{m+1}),
    t of bidegree (1,1), zero differentials."""
    if m < 0:
        raise InvalidDimension(f"projective space needs m >= 0, got {m}")
    dims = {(p, p): 1 for p in range(m + 1)}
    sigma = {(p, p): Matrix.identity(1) for p in range(m + 1)}
    labels = {(p, p): ("1" if p == 0 else ("t" if p == 1 else f"t^{p}"),) for p in range(m + 1)}
    complex = DoubleComplex(dims, {}, {}, sigma, labels)
    return AlgebraModel(complex, (m, m), "truncated_polynomial", truncation=m)


def point() -> AlgebraModel:
    """The one-point model: a single class in bidegree (0, 0)."""
    return projective_space(0)


IWASAWA_SPEC = ModelSpec(
    "iwasawa",
    3,
    "lie_algebra",
    ("phi1", "phi2", "phi3"),
    {"phi3": (EquationTerm(-ONE, (0, 0), (0, 1)),)},
)


def iwasawa() -> AlgebraModel:
    """The Iwasawa manifold model: d phi3 = -phi1 ^ phi2, all else closed."""
    return lie_algebra_model(IWASAWA_SPEC)


def serre_pairing_morphism(model: AlgebraModel) -> Morphism:
    """The pairing map A -> dual(A, n), omega |-> (eta |-> top coefficient of
    omega wedge eta).

    For every model built here this is a valid morphism for the dual's sign
    convention (the top coefficient of any exact form vanishes), and it is an
    isomorphism on column cohomology; the construction fails loudly if a
    hand-made model breaks that.
    """
    tp, tq = model.top_index
    if tp != tq:
        raise NoTopClass(f"top index {model.top_index} is not of the form (n, n)")
    n = tp
    a = model.complex
    if a.dim(n, n) != 1:
        raise NoTopClass(f"the ({n},{n}) piece has dimension {a.dim(n, n)}, expected 1")
    target = dual(a, n)
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
    return Morphism(a, target, blocks)
