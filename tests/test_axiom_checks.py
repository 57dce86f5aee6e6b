"""The axiom and morphism checks, by relabeling stored entries where the
sigma or morphism blocks are monomial, as vanishing sums over Z[i]
elsewhere, and the d-axioms as the blocks of d^2 on the total complex:
`validate` and `Morphism` against the matrix-product checks of
`reference_validate`, on complexes and morphisms with one entry perturbed
at a time, including complexes where only the d-axioms fail so that
`validate` reads mirrored verdicts; a guard that on valid inputs they
build no scalar; and guards on the route each check takes and on the
products `validate` makes under a real structure."""

import random
from fractions import Fraction

import pytest

from bicomplex import (
    DoubleComplex,
    Matrix,
    Morphism,
    MorphismError,
    direct_sum_many,
    dot,
    lie_algebra_model,
    parse_model_file,
    random_complex,
    serre_pairing_morphism,
    validate,
)
from bicomplex import linalg
from bicomplex.complexes import Totalization
from bicomplex.scalars import GaussianRational, I, ONE, ZERO
from call_counter import arguments_of, call_log, calls_into
from helpers import never_validated
from reference_validate import reference_commutation, reference_validate
from test_frolicher import NIL4, NIL5
from test_models import LAMBDAS, nil_specs

UNITS = (ONE, I, -ONE, -I)
HOWS = ("unit", "sign", "conj")

# (seed, window, size, with_sigma, perturbed entries per block kind)
RANDOM_CASES = (
    [(s, (0, 2, 0, 2), 2 + s % 3, s % 2 == 0, 8) for s in range(10)]
    + [(s + 100, (0, 3, 0, 3), 3 + s % 3, s % 2 == 0, 8) for s in range(6)]
    + [(205, (0, 5, 0, 5), 20, True, 2)]
)


def perturb(m: Matrix, key, how: str, unit) -> Matrix:
    """m with the entry at key plus a unit, negated or conjugated."""
    v = m.entries.get(key, ZERO)
    new = {"unit": v + unit, "sign": -v, "conj": v.conjugate()}[how]
    return Matrix(m.rows, m.cols, dict(m.entries) | {key: new})


def positions(rng: random.Random, blocks: dict, count: int) -> list:
    """count (bidegree, entry) pairs, half of them at stored entries and half
    anywhere in a block of nonempty shape."""
    stored = [(pq, k) for pq, m in sorted(blocks.items()) for k in sorted(m.entries)]
    anywhere = [(pq, (i, j)) for pq, m in sorted(blocks.items())
                for i in range(m.rows) for j in range(m.cols)]
    out = rng.sample(stored, min(len(stored), count // 2))
    return out + rng.sample(anywhere, min(len(anywhere), count - len(out)))


def complex_blocks(a: DoubleComplex, kind: str) -> dict:
    """Every block of one kind whose shape is nonempty, zero blocks included."""
    at = {"d1": a.d1_at, "d2": a.d2_at, "sigma": a.sigma_at}[kind]
    blocks = {pq: at(*pq) for pq in a.bidegrees()}
    return {pq: m for pq, m in blocks.items() if m.rows and m.cols}


def perturbed_complexes(a: DoubleComplex, seed: int, count: int):
    rng = random.Random(seed)
    kinds = ("d1", "d2", "sigma") if a.sigma is not None else ("d1", "d2")
    for kind in kinds:
        blocks = complex_blocks(a, kind)
        for n, (pq, key) in enumerate(positions(rng, blocks, count)):
            for how in HOWS:
                parts = {"d1": dict(a.d1), "d2": dict(a.d2),
                         "sigma": dict(a.sigma) if a.sigma is not None else None}
                parts[kind][pq] = perturb(blocks[pq], key, how, UNITS[n % 4])
                yield DoubleComplex(a.dims, parts["d1"], parts["d2"], parts["sigma"], a.labels)


def rescaled_basis(a: DoubleComplex) -> DoubleComplex:
    """a with the basis of A^{p,q} scaled by lam(p, q) = (p + 2) / (q + 3):
    still valid, and its blocks have unequal denominators, so the products
    of one identity do too."""
    lam = lambda p, q: Fraction(p + 2, q + 3)
    d1 = {(p, q): m.scale(lam(p + 1, q) / lam(p, q)) for (p, q), m in a.d1.items()}
    d2 = {(p, q): m.scale(lam(p, q + 1) / lam(p, q)) for (p, q), m in a.d2.items()}
    sigma = None
    if a.sigma is not None:
        sigma = {(p, q): m.scale(lam(q, p) / lam(p, q)) for (p, q), m in a.sigma.items()}
    return DoubleComplex(a.dims, d1, d2, sigma, a.labels)


def assert_same_violations(a: DoubleComplex, seed: int, count: int, seen: set) -> None:
    assert validate(a) == reference_validate(a) == []
    for b in perturbed_complexes(a, seed, count):
        got = validate(b)
        assert got == reference_validate(b)
        seen.update(v.identity for v in got)


def test_validate_matches_reference_under_single_entry_perturbations(iwasawa_model):
    seen: set = set()
    for seed, window, size, with_sigma, count in RANDOM_CASES:
        a = random_complex(seed, window, size, with_sigma=with_sigma)
        assert_same_violations(a, seed, count, seen)
    for seed in (0, 3, 100, 101):
        a = rescaled_basis(random_complex(seed, (0, 3, 0, 3), 4, with_sigma=seed % 2 == 0))
        assert_same_violations(a, seed, 8, seen)
    assert_same_violations(never_validated(iwasawa_model), 1, 8, seen)
    assert_same_violations(rescaled_basis(iwasawa_model.complex), 1, 8, seen)
    for lam in LAMBDAS:
        nil4 = lie_algebra_model(nil_specs(lam)[0])
        assert_same_violations(never_validated(nil4), 2, 4, seen)
    assert seen == {
        "d1 . d1 != 0", "d2 . d2 != 0", "d1 d2 + d2 d1 != 0",
        "sigma is not an involution", "sigma d1 sigma != d2", "sigma d2 sigma != d1",
    }


def with_d1_through_sigma(a: DoubleComplex, d1: dict) -> DoubleComplex:
    """a with d1 replaced and every d2 block rebuilt from it through sigma,
    d2^{q,p} = S^{p+1,q} conj(d1^{p,q}) conj(S^{q,p}): every sigma identity
    then holds, whether or not the d-axioms do."""
    s = a.sigma_at
    d2 = {(q, p): s(p + 1, q) @ m.conjugate() @ s(q, p).conjugate() for (p, q), m in d1.items()}
    return DoubleComplex(a.dims, d1, d2, a.sigma, a.labels)


def test_validate_matches_reference_where_only_d_axioms_fail(iwasawa_model):
    """With every sigma identity holding, validate reads d2 d2 and the
    anticommutator at p > q from their mirrors at (q, p).  Perturbing one
    entry of d1 and rebuilding d2 through sigma breaks only d-axioms, so the
    mirrored verdicts must still find exactly reference_validate's list."""
    nil4 = lie_algebra_model(parse_model_file(NIL4, "nil4")).complex
    r = random_complex(4, (0, 3, 0, 3), 4, with_sigma=True)
    seen: set = set()
    for seed, (a, count) in enumerate([(iwasawa_model.complex, 12), (nil4, 6), (r, 12),
                                       (rescaled_basis(r), 12)]):
        assert with_d1_through_sigma(a, dict(a.d1)) == a
        rng = random.Random(seed)
        blocks = complex_blocks(a, "d1")
        for n, (pq, key) in enumerate(positions(rng, blocks, count)):
            for how in HOWS:
                moved = perturb(blocks[pq], key, how, UNITS[n % 4])
                b = with_d1_through_sigma(a, dict(a.d1) | {pq: moved})
                got = validate(b)
                assert got == reference_validate(b)
                seen.update(v.identity for v in got)
    assert seen == {"d1 . d1 != 0", "d2 . d2 != 0", "d1 d2 + d2 d1 != 0"}


def test_validate_decides_involutions_of_unequal_dimensions_apart():
    """An involution reads its mirror only where A^{p,q} and A^{q,p} have one
    dimension.  Here dim A^{0,1} = 1 and dim A^{1,0} = 2: S^{1,0} conj(S^{0,1})
    = 1 holds, while S^{0,1} conj(S^{1,0}) has rank 1 and cannot be 1."""
    sigma = {(0, 0): Matrix.identity(1), (0, 1): Matrix(2, 1, {(0, 0): ONE}),
             (1, 0): Matrix(1, 2, {(0, 0): ONE})}
    a = DoubleComplex({(0, 0): 1, (0, 1): 1, (1, 0): 2}, {}, {}, sigma)
    assert [str(v) for v in validate(a)] == ["(1,0): sigma is not an involution"]
    assert validate(a) == reference_validate(a)


@pytest.mark.parametrize("text, name, most", [(NIL4, "nil4", 5), (NIL5, "nil5", 7)],
                         ids=["nil4", "nil5"])
def test_validate_decides_each_conjugate_pair_once(text, name, most):
    """A valid complex with a real structure computes neither sigma d2 sigma
    = d1 nor the d-axioms at p > q, and the involution only at p <= q.  A
    model's sigma is monomial, so its sigma identities are relabeled with
    no product: nil4 and nil5 make 5 and 7 products, one block of d^2 per
    degree, where one vanishing sum per identity and bidegree made 26 and
    45, deciding the sigma identities by products too 73 and 118, and
    checking every identity at its own bidegree by products 162 and 260."""
    a = never_validated(lie_algebra_model(parse_model_file(text, name)))
    assert calls_into(linalg._accumulate.__code__, validate, a) <= most


def involution_terms(terms) -> bool:
    """Whether the terms of a `_products_vanish` call are those of the
    involution S^{q,p} conj(S^{p,q}) - 1 . 1."""
    (s1, _, _, conj1), (s2, x, y, conj2) = terms
    return (s1, conj1, s2, conj2) == (1, True, -1, False) and x == y == Matrix.identity(x.rows)


def test_a_monomial_sigma_is_decided_by_relabeling():
    """nil5's sigma identities take no product: no vanishing sum, the
    involution's included.  Its d-axioms take one unconjugated
    `_accumulate` per degree k at which d_k and d_{k+1} are nonzero: the
    columns of d_k's components with p <= q, the mirror giving the rest,
    times the columns of d_{k+1}'s components with p <= q + 1, which hold
    their image.  A random complex in random coordinates has a dense sigma
    and still decides it by products, the involution's among them, with
    the reference's verdict."""
    a = never_validated(lie_algebra_model(parse_model_file(NIL5, "nil5")))
    codes = (linalg._accumulate.__code__, linalg._products_vanish.__code__)
    log = call_log(codes, validate, a)
    tot = Totalization.of(a)
    degrees = [k for k in tot.degrees() if {k, k + 1} <= tot.moving]
    assert [name for name, _ in log] == ["_accumulate"] * len(degrees)
    halved = 0
    for (_, args), k in zip(log, degrees):
        d = tot.differential(k)
        cut = sum(a.dim(p, q) for p, q in tot.components[k] if p <= q)
        image = sum(a.dim(p, q) for p, q in tot.components[k + 1] if p <= q + 1)
        halved += cut < d.cols
        assert not args["conjugate"]
        assert args["left"] == tot.differential(k + 1)[:, :image]._num
        assert args["right"] == d[:, :cut]._num
    assert halved == len(degrees) == 7
    assert validate(a) == reference_validate(a) == []

    r = random_complex(205, (0, 5, 0, 5), 20, with_sigma=True)
    log = call_log(codes, validate, r)
    assert any(name == "_products_vanish" and involution_terms(args["terms"])
               for name, args in log)
    assert any(name == "_accumulate" and args["conjugate"] for name, args in log)
    assert validate(r) == reference_validate(r)


def test_a_rescaled_monomial_sigma_matches_reference():
    """nil4 in the basis `rescaled_basis` gives: its sigma blocks stay
    monomial, with entries other than units and unequal denominators, so
    the relabeling compares cross-multiplied entries.  It is valid with no
    product in a sigma identity, and single-entry perturbations of its
    sigma, d1 and d2 blocks find the reference's violations."""
    a = rescaled_basis(lie_algebra_model(parse_model_file(NIL4, "nil4")).complex)
    entries = {v for m in a.sigma.values() for v in m.entries.values()}
    assert not entries <= set(UNITS)
    assert len({m._den for m in a.sigma.values()}) > 1
    assert all(linalg._by_column(m) is not None for m in a.sigma.values())
    assert calls_into(linalg._products_vanish.__code__, validate, a) == 0
    seen: set = set()
    assert_same_violations(a, 5, 4, seen)
    assert {"sigma is not an involution", "sigma d1 sigma != d2"} <= seen


def test_a_sigma_with_two_entries_in_one_row_takes_the_product_route():
    """A square sigma block with one entry in each column but two in one
    row is not monomial: the relabeling declines it, and `validate` decides
    its identities by products, with the reference's verdict, as it does
    after single-entry perturbations."""
    half = Matrix(2, 2, {(0, 0): ONE, (0, 1): ONE})
    assert linalg._by_column(half) is None
    assert linalg._equal_by_relabeling(half, Matrix.identity(2), half, Matrix.identity(2)) is None
    sigma = {(0, 0): Matrix.identity(1), (0, 1): Matrix.identity(2), (1, 0): half}
    d1 = {(0, 0): Matrix(2, 1, {(0, 0): ONE})}
    d2 = {(0, 0): Matrix(2, 1, {(0, 0): ONE, (1, 0): I})}
    a = DoubleComplex({(0, 0): 1, (0, 1): 2, (1, 0): 2}, d1, d2, sigma)
    log = arguments_of(linalg._products_vanish.__code__, validate, a)
    assert {involution_terms(args["terms"]) for args in log} == {True, False}
    got = validate(a)
    assert got == reference_validate(a) and got
    for b in perturbed_complexes(a, 3, 6):
        assert validate(b) == reference_validate(b)


SCALARS = (ONE, -ONE, I, GaussianRational.parse("2"), GaussianRational.parse("1/2"),
           GaussianRational.parse("-1/3+2i"), GaussianRational.parse("3/4-1/6i"))


def partial_monomial(rng: random.Random, rows: int, cols: int) -> Matrix:
    """A rows x cols matrix with at most one entry in each row and column."""
    k = rng.randint(0, min(rows, cols))
    at = zip(rng.sample(range(rows), k), rng.sample(range(cols), k))
    return Matrix(rows, cols, {ij: rng.choice(SCALARS) for ij in at})


def sparse(rng: random.Random, rows: int, cols: int) -> dict:
    return {(i, j): rng.choice(SCALARS) for i in range(rows) for j in range(cols)
            if rng.random() < 0.4}


def test_relabeling_matches_the_products_on_partial_monomials():
    """s1 op(x) = y s0 with s1 and s0 partial monomials of every shape up to
    4 x 4, empty rows and columns included: the relabeling agrees with the
    vanishing sum of the two products, with conjugation on and off.  Half
    the cases build y to make the sides equal where s0's empty columns
    allow, with extra entries in the columns of y that s0 drops, and then
    maybe move one entry, so both verdicts occur often."""
    rng = random.Random(7)
    verdicts = []
    for _ in range(3000):
        r, k, c, j = (rng.randint(0, 4) for _ in range(4))
        s1, s0 = partial_monomial(rng, r, k), partial_monomial(rng, c, j)
        conjugate = rng.random() < 0.5
        x = Matrix(k, j, sparse(rng, k, j))
        y = Matrix(r, c, sparse(rng, r, c))
        if rng.random() < 0.5:
            left = s1 @ (x.conjugate() if conjugate else x)
            col_of = {jj: (cc, v) for (cc, jj), v in s0.entries.items()}
            held = {cc for cc, _ in col_of.values()}
            entries = {(i, cc): v for (i, cc), v in y.entries.items() if cc not in held}
            entries |= {(i, col_of[jj][0]): v / col_of[jj][1]
                        for (i, jj), v in left.entries.items() if jj in col_of}
            y = Matrix(r, c, entries)
            if rng.random() < 0.3 and r and c:
                key = (rng.randrange(r), rng.randrange(c))
                y = Matrix(r, c, entries | {key: entries.get(key, ZERO) + rng.choice(SCALARS)})
        got = linalg._equal_by_relabeling(s1, x, y, s0, conjugate)
        assert got is not None
        assert got == linalg._products_vanish([(1, s1, x, conjugate), (-1, y, s0, False)])
        verdicts.append(got)
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500


def test_two_entries_in_a_row_or_a_column_are_not_relabeled():
    """`_by_column` takes any shape with at most one entry in each row and
    each column, the zero matrix too, and nothing else."""
    assert linalg._by_column(Matrix.zero(3, 0)) == linalg._by_column(Matrix.zero(2, 4)) == {}
    assert linalg._by_column(Matrix(3, 2, {(2, 0): I, (0, 1): ONE})) == {
        0: (2, (0, 1)), 1: (0, (1, 0))}
    assert linalg._by_column(Matrix(3, 2, {(0, 0): ONE, (0, 1): ONE})) is None
    assert linalg._by_column(Matrix(2, 3, {(0, 1): ONE, (1, 1): ONE})) is None
    assert linalg._by_column(Matrix(3, 3, {(0, 0): ONE, (1, 1): ONE, (1, 2): I})) is None


def commutation_error(construct, *args) -> str | None:
    try:
        construct(*args)
    except MorphismError as e:
        return str(e)
    return None


def assert_same_morphism_verdicts(f: Morphism, seed: int, count: int, seen: set) -> None:
    """Perturb single entries of f's blocks; both routes must raise the same
    MorphismError, or neither."""
    rng = random.Random(seed)
    shared = set(f.source.dims) & set(f.target.dims)
    blocks = {pq: f.block_at(*pq) for pq in shared}
    for n, (pq, key) in enumerate(positions(rng, blocks, count)):
        for how in HOWS:
            moved = dict(blocks) | {pq: perturb(blocks[pq], key, how, UNITS[n % 4])}
            got = commutation_error(Morphism, f.source, f.target, moved)
            assert got == commutation_error(reference_commutation, f.source, f.target, moved)
            if got is not None:
                seen.add(got.split(" at ")[0])


def scaled_identity(a: DoubleComplex, c) -> Morphism:
    return Morphism(a, a, {pq: Matrix.identity(n).scale(c) for pq, n in a.dims.items()})


def test_morphism_matches_reference_under_single_entry_perturbations(iwasawa_model, torus1):
    x = iwasawa_model.complex
    morphisms = list(direct_sum_many([x, torus1.complex, x])[1])
    morphisms += direct_sum_many([random_complex(7, (0, 3, 0, 3), 4, with_sigma=True),
                                  random_complex(8, (0, 3, 0, 3), 5)])[1]
    morphisms.append(serre_pairing_morphism(iwasawa_model))
    morphisms.append(serre_pairing_morphism(lie_algebra_model(parse_model_file(NIL4, "nil4"))))
    c = GaussianRational.parse("1+2i")
    for seed in range(4):
        morphisms.append(scaled_identity(random_complex(seed, (0, 3, 0, 3), 4), c))
    morphisms.append(scaled_identity(lie_algebra_model(parse_model_file(NIL4, "nil4")).complex, c))
    for a in (x, random_complex(9, (0, 3, 0, 3), 5, with_sigma=True)):
        morphisms.append(Morphism(a, rescaled_basis(a), {
            (p, q): Matrix.identity(n).scale(Fraction(p + 2, q + 3)) for (p, q), n in a.dims.items()
        }))
    seen: set = set()
    for seed, f in enumerate(morphisms):
        assert commutation_error(reference_commutation, f.source, f.target, f.blocks) is None
        assert_same_morphism_verdicts(f, seed, 8 if f.source.total_dim > 100 else 16, seen)
    assert seen == {"blocks do not commute with d1", "blocks do not commute with d2"}


def test_morphism_checks_only_where_a_block_acts(iwasawa_model):
    """The unit of the Iwasawa model has one block, at (0, 0): only the checks
    at (0, 0), (-1, 0) and (0, -1) could fail, and each of them also needs a
    d1 or d2 block stored at its bidegree on the source or the target.
    Neither dot(0, 0) nor the Iwasawa model stores one at any of the three,
    so both sides of every check are zero, and none is made."""
    unit = {(0, 0): Matrix.identity(1)}
    log = call_log((linalg._equal_by_relabeling.__code__, linalg._products_vanish.__code__),
                   Morphism, dot(0, 0), iwasawa_model.complex, unit)
    assert [name for name, _ in log].count("_equal_by_relabeling") == 0
    assert [name for name, _ in log].count("_products_vanish") == 0


def test_an_identity_checks_each_stored_differential_once(iwasawa_model):
    """The identity of the Iwasawa model is nonzero at every bidegree, so
    every stored d1 and d2 block meets one check, decided by relabeling the
    identity blocks, with no product."""
    a = iwasawa_model.complex
    log = call_log((linalg._equal_by_relabeling.__code__, linalg._products_vanish.__code__),
                   Morphism.identity, a)
    assert [name for name, _ in log].count("_equal_by_relabeling") == len(a.d1) + len(a.d2) == 8
    assert [name for name, _ in log].count("_products_vanish") == 0


def test_a_monomial_morphism_takes_no_product():
    """Every block of nil4's Serre pairing is a signed permutation, and
    every block its checks meet outside the support is 0 x 0, so building
    it relabels stored entries and sums no product."""
    model = lie_algebra_model(parse_model_file(NIL4, "nil4"))
    assert calls_into(linalg._products_vanish.__code__, serre_pairing_morphism, model) == 0


@pytest.mark.parametrize("build", [
    lambda x, t: (validate, never_validated(lie_algebra_model(parse_model_file(NIL4, "nil4")))),
    lambda x, t: (validate, random_complex(205, (0, 5, 0, 5), 20, with_sigma=True)),
    lambda x, t: (direct_sum_many, [x.complex, t.complex, x.complex]),
], ids=["validate-nil4", "validate-random205", "direct-sum-inclusions"])
def test_valid_inputs_build_no_scalars(build, iwasawa_model, torus1):
    fn, arg = build(iwasawa_model, torus1)
    assert calls_into(GaussianRational.__init__.__code__, fn, arg) == 0
