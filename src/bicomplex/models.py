"""Finite-dimensional double-complex models of compact complex manifolds.

Two kinds of models are supported.

Lie-algebra models: the exterior algebra on generators phi_1..phi_n of
bidegree (1, 0) and their conjugates, with the two differentials extended as
graded derivations from structure equations

    d phi_k = (2,0)-part  +  (1,1)-part,

the (2,0)-part feeding d1 and the (1,1)-part feeding d2.  Equations for the
conjugate generators are obtained by conjugation, so the real structure is
built in.  A^{p,q} has the monomial basis phi_I wedge conj(phi)_J with
strictly increasing indices, I-major then J.  The builder holds a monomial
as an int over 2n letter bits, bit i for phi_i and bit n + i for
conj(phi_i); in bit order the plain letters come first, so a mask is already
the canonical monomial.  Every sign is a Koszul sign, the parity of the set
bits one letter passes: the wedge of masks a and b is (-1)^k a | b with k
the number of pairs of a letter of a above a letter of b, and d acting on
the letter at bit j of a monomial carries (-1)^(letters below j).  The real
structure sends a monomial (I, J) to (-1)^{|I||J|} (J, I), the two halves of
the mask swapped, together with coefficient conjugation.

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
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .complexes import BiDegree, DoubleComplex, Morphism, _target, dual
from .linalg import Matrix, _matrix
from .scalars import GaussianRational, ONE, ZERO, _Value, format_scalar, parse_scalar

# A letter of a parsed equation term is (barred, generator index); the
# builder's letter bit is barred * n + index, so the two orders agree.
Letter = tuple[int, int]

# The largest monomial basis lie_algebra_model builds: 4^n for complex
# dimension n, so n <= 7.  Every preset, demo and test model and the
# benchmark's dim-5 nilmanifold (4^5 = 1024) fit.  The command line prints
# every table of a dim-7 nilmanifold (16384 monomials) in 0.2 s within
# 29 MB (2-core Xeon, Python 3.11.7).  The dim-8 one, with the cap
# raised in the measuring process, gets every table in 1.8 to 1.9 s within
# 85 MB; no test covers a model that large yet, so the cap stays.
MAX_MODEL_BASIS = 4 ** 7

# The largest m for which a truncated_polynomial model builds projective
# m-space: one class at each (p, p), p <= m.  P^400 gets every table in
# 1.9 s within 34 MB (same host); the time grows about as m^2, and P^800
# takes 10 s within 85 MB.
MAX_PROJECTIVE_DIMENSION = 400

# The most shifted copies the command line builds: `projbundle --rank n`
# takes n copies of the base, `blowup --codim r` r - 1 copies of the center.
# 128 copies of the 64-dimensional Iwasawa model get every table in 0.6 to
# 0.8 s within 25 MB (same host), and 64 copies in 0.24 s; the time grows
# faster than the count, and with the size of the copied complex.
MAX_SHIFTED_COPIES = 128

# The window a serialized complex and `random --window` must lie in: every
# bidegree (p, q) has |p|, |q| <= MAX_BIDEGREE, so projective 400-space
# (MAX_PROJECTIVE_DIMENSION) loads from its dump.  The diamond renderer and
# the tables grow with the square of the span.  Dimension 1 at (-400, -400)
# and at (400, 400) gets every table in 5.7 s within 90 MB (same host), and
# `random --window=-400,400,-400,400 --size 40 --sigma` in 7.1 s within
# 80 MB; at +-1000 the first page alone takes 7 s, and at +-2000 26 s within
# 290 MB.
MAX_BIDEGREE = 400

# The largest `random --size`.  Size 40 in the window 0,1,0,1 with --sigma,
# the slowest window measured, gets every table in 4 to 6 s (seeds 1 to 3)
# within 27 MB (same host); size 64 there takes 32 s.  The property suite's
# largest size is 37.
MAX_RANDOM_SIZE = 40


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


class EquationTerm(NamedTuple):
    """coeff * first ^ second, letters canonically ordered (sign absorbed)."""

    coeff: GaussianRational
    first: Letter
    second: Letter

    @property
    def bar_count(self) -> int:
        return self.first[0] + self.second[0]


class ModelSpec(_Value):
    """A parsed model file: its name, complex dimension, kind, generators and
    the structure equation of each generator, empty ones dropped.  A
    read-only value: equality compares the five fields in that order."""

    __slots__ = _fields = ("name", "complex_dimension", "kind", "generators", "equations")

    def __init__(self, name: str, complex_dimension: int, kind: str,
                 generators: tuple[str, ...],
                 equations: Mapping[str, tuple[EquationTerm, ...]]):
        put = object.__setattr__
        put(self, "name", name)
        put(self, "complex_dimension", complex_dimension)
        put(self, "kind", kind)
        put(self, "generators", generators)
        put(self, "equations", {g: tuple(ts) for g, ts in equations.items() if ts})

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


def _koszul(a: int, b: int) -> int:
    """The number of pairs of a letter of monomial a above a letter of b:
    a ^ b is (-1)^this times the monomial a | b."""
    count = 0
    while b:
        low = b & -b
        count += (a & -(low << 1)).bit_count()
        b ^= low
    return count


# Letter bit -> images (x, y, (c, -c)): d of the letter is the sum of
# c * x ^ y over its images, x < y, and the pair holds c for each sign,
# each a Gaussian integer (re, im): the coefficient times the builder's
# common denominator, the form Matrix stores its entries in.
Rule = dict[int, list[tuple[int, int, tuple[tuple[int, int], tuple[int, int]]]]]


def _apply_derivation(rule: Rule, mask: int) -> dict[int, tuple[int, int]]:
    """d of a monomial, scaled as the rule is.  The term of letter k is
    (-1)^(letters below k) times x ^ y ^ rest, and x ^ y ^ rest is
    (-1)^(letters of rest between x and y) times the monomial."""
    out: dict[int, tuple[int, int]] = {}
    for k, images in rule.items():
        if not mask >> k & 1:
            continue
        rest = mask ^ 1 << k
        below = (mask & (1 << k) - 1).bit_count()
        for x, y, signed in images:
            if rest >> x & 1 or rest >> y & 1:
                continue
            new = rest | 1 << x | 1 << y
            term = signed[(below + (rest & (1 << y) - (1 << x)).bit_count()) & 1]
            if new in out:
                term = (out[new][0] + term[0], out[new][1] + term[1])
                if term == (0, 0):
                    del out[new]
                    continue
            out[new] = term
    return out


class AlgebraModel:
    """A double complex together with its wedge product and top class.

    Basis elements are addressed as (bidegree, index); product returns the
    sparse coordinate vector of the wedge in the target bidegree.  A
    lie_algebra model lists its basis monomials as bit masks.
    """

    def __init__(self, complex: DoubleComplex, top_index: BiDegree, kind: str,
                 monomials: Mapping[BiDegree, tuple[int, ...]] | None = None,
                 truncation: int | None = None, index: Mapping[int, int] | None = None):
        self.complex = complex
        self.top_index = top_index
        self.kind = kind
        self._monomials = monomials
        # Each monomial's position in its bidegree: lie_algebra_model passes
        # the dict it built, and a model given only its monomials gets one.
        self._index = index if index is not None or monomials is None else {
            w: i for words in monomials.values() for i, w in enumerate(words)}
        self._truncation = truncation

    def product(self, pq1: BiDegree, i1: int, pq2: BiDegree, i2: int) -> dict[int, GaussianRational]:
        """Coordinates of basis_i1 wedge basis_i2 in A^{pq1 + pq2}."""
        if self.kind == "truncated_polynomial":
            if pq1[0] + pq2[0] <= self._truncation:
                return {0: ONE}
            return {}
        w1 = self._monomials[pq1][i1]
        w2 = self._monomials[pq2][i2]
        if w1 & w2:
            return {}
        return {self._index[w1 | w2]: -ONE if _koszul(w1, w2) & 1 else ONE}


def lie_algebra_model(spec: ModelSpec) -> AlgebraModel:
    """Extend the structure equations to the full exterior bicomplex.

    Checks d1^2 = d2^2 = d1 d2 + d2 d1 = 0 on all generators and raises
    NotADifferential with a witness otherwise.  Raises InvalidDimension up
    front if the 4^n monomials exceed MAX_MODEL_BASIS.

    A complex that passes is valid, and it records the empty violation list
    that `validate` would find, so `validate` of it makes no product and its
    Analysis reads mirrored ranks from the start (the rule `complexes.dual`
    follows too).  The proof (Chevalley-Eilenberg, Trans. AMS 1948): d1 and
    d2 are derivations of odd degree, so d1^2 = [d1, d1]/2, d2^2 =
    [d2, d2]/2 and d1 d2 + d2 d1 = [d1, d2], graded commutators, are
    derivations, and a derivation of the exterior algebra that vanishes on
    the generators vanishes.  sigma is conjugation by construction: it bars
    every letter, an antilinear algebra automorphism, and barring twice
    gives every monomial back, so it is an involution.  sigma d1 sigma is
    then a derivation, and d1 and d2 of conj(phi_k) are built as the
    conjugates of d2 and d1 of phi_k, so it agrees with d2 on every letter;
    likewise sigma d2 sigma with d1.

    Every coefficient is kept as a Z[i] pair times den, the lcm of the
    denominators of the structure constants, through the generator check
    and the blocks, so each block is made in Matrix's own (den, num) form
    by `linalg._matrix`, which brings den down to the block's least, as
    `Matrix` itself would: a block with entries x_j / d_j, in lowest
    terms, has least denominator L = lcm(d_j), which divides den, and
    gcd(den, every x_j den / d_j) is den / L, since for each prime p of L
    some x_j L / d_j is prime to p.

    The built complex carries the Serre record (None, n), so that its
    Analysis reads the rank of each block off its Serre partner, exactly
    where the Serre pairing P: A -> dual(A, n) of `serre_pairing_morphism`
    is a morphism of double complexes, and that holds exactly where neither
    d1 out of (n - 1, n) nor d2 out of (n, n - 1) is stored: where d into
    (n, n) is zero, which is where the Lie algebra is unimodular (Koszul,
    Bull. SMF 1950).  The proof: write <x, y> for the top coefficient of
    x ^ y, and take omega in A^{p,q} and eta in A^{n-p-1,n-q}.  P commutes
    with d1 at (p, q) iff <d1 omega, eta> = (-1)^{p+q+1} <omega, d1 eta>
    for all such omega and eta, by the sign of the dual's d1.  d1 is a
    derivation, so the top coefficient of d1(omega ^ eta) = d1 omega ^ eta
    + (-1)^{p+q} omega ^ d1 eta is the difference of the two sides.  If
    d1^{n-1,n} = 0 that coefficient is zero, and P commutes with d1 at
    every (p, q).  Conversely, eta = 1 gives <d1 omega, 1> = 0, the top
    coefficient of d1 omega, for every omega in A^{n-1,n}, so a commuting
    P forces d1^{n-1,n} = 0.  The same argument, with eta in
    A^{n-p,n-q-1}, holds for d2 at (n, n - 1).  sigma carries d1^{n-1,n}
    to d2^{n,n-1}, so the two are stored together; the rule reads both
    keys, as the proof does, and computes no complement map.
    """
    if spec.kind != "lie_algebra":
        raise ModelError(f"spec {spec.name!r} has kind {spec.kind!r}")
    n = spec.complex_dimension
    if 4 ** n > MAX_MODEL_BASIS:
        raise InvalidDimension(
            f"complex dimension {n} needs 4^{n} = {4 ** n} basis monomials, "
            f"more than the {MAX_MODEL_BASIS} this builder accepts")

    # Every coefficient becomes a Z[i] pair times den, the lcm of their
    # denominators, so each block is built in Matrix's own (den, num) form.
    terms = [t for gen in spec.generators for part in spec.parts(gen) for t in part]
    den = lcm(*(x.denominator for t in terms for x in (t.coeff.re, t.coeff.im)))

    def images(terms: Sequence[EquationTerm], barred: bool):
        # Barring a term bars both letters and conjugates the coefficient.
        out = []
        for t in terms:
            re_, im_ = int(t.coeff.re * den), int(t.coeff.im * den)
            c, minus = ((re_, -im_), (-re_, im_)) if barred else ((re_, im_), (-re_, -im_))
            x, y = ((b ^ barred) * n + i for b, i in (t.first, t.second))
            if (re_ or im_) and x != y:
                out.append((x, y, (c, minus)) if x < y else (y, x, (minus, c)))
        return out

    d1_rule: Rule = {}
    d2_rule: Rule = {}
    for gen_idx, gen in enumerate(spec.generators):
        d20, d11, d02 = spec.parts(gen)
        if d02:
            raise NotADifferential(
                f"d {gen}",
                "a (0,2)-component on a (1,0)-generator does not fit a double complex",
            )
        d1_rule[gen_idx], d2_rule[gen_idx] = images(d20, False), images(d11, False)
        d1_rule[n + gen_idx], d2_rule[n + gen_idx] = images(d11, True), images(d20, True)
    d1_rule = {k: v for k, v in sorted(d1_rule.items()) if v}
    d2_rule = {k: v for k, v in sorted(d2_rule.items()) if v}

    letter_names = [*spec.generators, *(f"conj({g})" for g in spec.generators)]
    for k, name in enumerate(letter_names):
        for label, compositions in (
            ("d1 d1", ((d1_rule, d1_rule),)),
            ("d2 d2", ((d2_rule, d2_rule),)),
            ("d1 d2 + d2 d1", ((d1_rule, d2_rule), (d2_rule, d1_rule))),
        ):
            total: dict[int, tuple[int, int]] = {}
            for first, second in compositions:
                for mask, (a, b) in _apply_derivation(first, 1 << k).items():
                    for m2, (c, e) in _apply_derivation(second, mask).items():
                        x, y = total.get(m2, (0, 0))
                        s = (x + a * c - b * e, y + a * e + b * c)
                        if s != (0, 0):
                            total[m2] = s
                        else:
                            total.pop(m2, None)
            if total:
                raise NotADifferential(name, f"{label} is nonzero")

    # Bit i is phi_i and bit n + i is conj(phi_i), so the letters of a mask
    # in bit order are phi_I then conj(phi)_J: A^{p,q} lists the masks of
    # |I| = p, |J| = q with I-major, then J, combinations order.
    subsets = [[sum(1 << i for i in c) for c in itertools.combinations(range(n), k)]
               for k in range(n + 1)]
    monomials = {(p, q): tuple(plain | bar << n for plain in subsets[p] for bar in subsets[q])
                 for p in range(n + 1) for q in range(n + 1)}
    index = {w: i for words in monomials.values() for i, w in enumerate(words)}
    dims = {pq: len(ws) for pq, ws in monomials.items()}

    def blocks_for(rule: Rule, kind: str) -> dict[BiDegree, Matrix]:
        out = {}
        for (p, q), words in monomials.items():
            tgt = _target(kind, p, q)
            if tgt not in monomials:
                continue
            entries = {(index[new], col): c
                       for col, word in enumerate(words)
                       for new, c in _apply_derivation(rule, word).items()}
            if entries:
                out[(p, q)] = _matrix(dims[tgt], dims[(p, q)], den, entries)
        return out

    d1 = blocks_for(d1_rule, "d1")
    d2 = blocks_for(d2_rule, "d2")

    # sigma bars every letter of phi_I ^ conj(phi)_J, giving conj(phi)_I ^
    # phi_J = (-1)^{pq} phi_J ^ conj(phi)_I: the halves swap.
    low = (1 << n) - 1
    sigma = {}
    for (p, q), words in monomials.items():
        sign = (-1, 0) if p * q % 2 else (1, 0)
        entries = {(index[w >> n | (w & low) << n], col): sign for col, w in enumerate(words)}
        sigma[(p, q)] = _matrix(dims[_target("sigma", p, q)], dims[(p, q)], 1, entries)

    # A label joins its plain letters, those of w & low, with its barred
    # ones, those of w >> n, each half joined once per subset; "1" for
    # the empty monomial.
    half = lambda names: [["^".join(x for i, x in enumerate(names) if s >> i & 1) for s in subs]
                          for subs in subsets]
    plain, barred = half(letter_names[:n]), half(letter_names[n:])
    labels = {(p, q): tuple(f"{x}^{y}" if x and y else x or y or "1"
                            for x in plain[p] for y in barred[q])
              for p, q in monomials}
    complex = DoubleComplex(dims, d1, d2, sigma, labels)
    # Valid by the generator check above; the proof is in the docstring.
    object.__setattr__(complex, "_violations", ())
    if (n - 1, n) not in complex.d1 and (n, n - 1) not in complex.d2:
        object.__setattr__(complex, "_serre", (None, n))
    return AlgebraModel(complex, (n, n), "lie_algebra", monomials, index=index)


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
    if m > MAX_PROJECTIVE_DIMENSION:
        raise InvalidDimension(f"projective space of dimension {m} is more than the "
                               f"{MAX_PROJECTIVE_DIMENSION} this builder accepts")
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


def _serre_pairing(n: int, monomials: Mapping[BiDegree, tuple[int, ...]],
                   index: Mapping[int, int]) -> dict[int, tuple[int, int]]:
    """Each monomial w of a model of complex dimension n -> (the index of its
    complement top ^ w, the sign +-1 of w ^ (top ^ w)): the one entry of w's
    column in the Serre pairing.

    The Koszul count of that wedge (`_koszul`) is the sum of the bit
    positions of w less k(k - 1)/2, k the number of letters of w, so the
    sign's parity is that of the odd bits of w plus k(k - 1)/2.
    """
    top = (1 << 2 * n) - 1
    odd = sum(1 << bit for bit in range(1, 2 * n, 2))
    return {w: (index[top ^ w], -1 if ((w & odd).bit_count() + k * (k - 1) // 2) & 1 else 1)
            for words in monomials.values() for w in words for k in (w.bit_count(),)}


def serre_pairing_morphism(model: AlgebraModel) -> Morphism:
    """The pairing map A -> dual(A, n), omega |-> (eta |-> top coefficient of
    omega wedge eta).

    A basis element pairs with one element only: a monomial w with its
    complement, the top mask minus w, and a class t^p with t^(n-p), index 0.
    The entry is the sign of their product, so each block is a signed
    permutation, built in O(dim).  A Lie-algebra model reads each
    complement and sign from `_serre_pairing` and multiplies no monomials.

    For the presets and every model of a unimodular Lie algebra this is a
    valid morphism for the dual's sign convention (the top coefficient of
    any exact form vanishes), and an isomorphism of double complexes; it is
    one exactly where the model stores no d1 or d2 block into (n, n), the
    rule `lie_algebra_model` proves and writes the Serre record by.  A
    model that validates without it, such as d b = a ^ b, makes the
    construction raise MorphismError.  A model with no one-dimensional
    (n, n) piece, or a truncated-polynomial one whose product of (p, q)
    and (n - p, n - q) misses it, raises NoTopClass.
    """
    tp, tq = model.top_index
    if tp != tq:
        raise NoTopClass(f"top index {model.top_index} is not of the form (n, n)")
    n = tp
    a = model.complex
    if a.dim(n, n) != 1:
        raise NoTopClass(f"the ({n},{n}) piece has dimension {a.dim(n, n)}, expected 1")
    target = dual(a, n)
    words = model._monomials
    pairing = None if words is None else _serre_pairing(n, words, model._index)
    blocks = {}
    for (p, q), m in a.dims.items():
        if pairing is None:
            entries = {}
            for i in range(m):
                top = model.product((p, q), i, (n - p, n - q), 0)
                if 0 not in top:
                    raise NoTopClass(f"the product of ({p},{q}) and ({n - p},{n - q}) "
                                     f"has no ({n},{n}) coefficient")
                entries[(0, i)] = top[0]
        else:
            entries = {(j, i): ONE if s > 0 else -ONE
                       for i, (j, s) in enumerate(map(pairing.get, words[(p, q)]))}
        blocks[(p, q)] = Matrix(a.dim(n - p, n - q), m, entries)
    return Morphism(a, target, blocks)
