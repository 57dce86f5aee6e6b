"""The tables read the verdict `validate` records on a complex.

On a complex found valid, Bott-Chern and Aeppli make no containment
product, and under a real structure a rank at (p, q) is read from its
mirror at (q, p).  On a complex never validated, or with a violation, every
table takes the checked route.  Each test compares a validated copy with a
copy built separately and never validated.  `lie_algebra_model` records
the verdict its generator check proves, so the model builders here hand
out `never_validated` copies, and one section checks that recorded verdict
against `validate` and `reference_validate`.
"""

import gc
import itertools
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

from bicomplex import (
    NotASubspace,
    aeppli,
    blow_up,
    bott_chern,
    conjugate_dolbeault,
    dolbeault,
    dual,
    frolicher,
    iwasawa,
    lie_algebra_model,
    linalg,
    parse_model_file,
    projective_bundle,
    random_complex,
    torus,
    validate,
)
from bicomplex import cohomology
from bicomplex.cohomology import TABLES, Analysis
from bicomplex.complexes import DoubleComplex
from bicomplex.models import IWASAWA_SPEC, EquationTerm, ModelSpec
from bicomplex.scalars import gauss
from call_counter import call_log, calls_into
from helpers import never_validated
from reference_validate import reference_validate
from test_acceptance import PROPERTY_CASES
from test_axiom_checks import UNITS, complex_blocks, perturb, positions, with_d1_through_sigma
from test_cohomology import DIM6
from test_frolicher import NIL4, NIL5
from test_models import LAMBDAS, nil_specs
from test_serre_duality import NAKAMURA, SOLVABLE, serre_partner


def model(text: str, name: str):
    return lambda: never_validated(lie_algebra_model(parse_model_file(text, name)))


BUILDERS = {
    "nil4": model(NIL4, "nil4"),
    "nil5": model(NIL5, "nil5"),
    "iwasawa": lambda: never_validated(iwasawa()),
    "dim6": model(DIM6, "dim6"),
    "torus1": lambda: never_validated(torus(1)),
    "torus2": lambda: never_validated(torus(2)),
    "blowup": lambda: blow_up(iwasawa(), torus(1), 2).total,
    "bundle": lambda: projective_bundle(iwasawa(), 3)[0],
}


def outcome(kind: str, a: DoubleComplex):
    """The `kind` table of a, or the NotASubspace it raised."""
    try:
        return TABLES[kind](a)
    except NotASubspace as e:
        return repr(e)


def tables(a: DoubleComplex, order) -> dict:
    return {kind: outcome(kind, a) for kind in order}


def assert_mirror_route_exact(build) -> None:
    """A validated copy gives the never-validated copy's five tables, with
    the tables run in either order, so each memoized rank is read from
    mirrors ranked by a different table."""
    want = tables(build(), TABLES)
    for order in (list(TABLES), list(reversed(TABLES))):
        a = build()
        assert validate(a) == []
        assert tables(a, order) == want


@pytest.mark.parametrize("name", BUILDERS)
def test_mirror_route_gives_the_same_tables(name):
    assert BUILDERS[name]().sigma is not None
    assert_mirror_route_exact(BUILDERS[name])


def test_mirror_route_gives_the_same_tables_on_the_property_suite():
    cases = [case for case in PROPERTY_CASES if case[3]]
    assert len(cases) >= 15
    for seed, window, size, with_sigma in cases:
        assert_mirror_route_exact(lambda: random_complex(seed, window, size, with_sigma=True))


def broken_copies():
    """Builders of nil4 with one sigma entry perturbed, and of nil4 with one
    d1 entry perturbed and d2 rebuilt through sigma, so that only d-axioms
    can fail while every sigma identity holds."""
    a = model(NIL4, "nil4")()
    out = []
    for n, (pq, key) in enumerate(positions(random.Random(0), complex_blocks(a, "sigma"), 4)):
        sigma = dict(a.sigma) | {pq: perturb(a.sigma_at(*pq), key, "unit", UNITS[n % 4])}
        out.append(lambda sigma=sigma: DoubleComplex(a.dims, a.d1, a.d2, sigma, a.labels))
    for n, (pq, key) in enumerate(positions(random.Random(0), complex_blocks(a, "d1"), 6)):
        d1 = dict(a.d1) | {pq: perturb(a.d1_at(*pq), key, "unit", UNITS[n % 4])}
        out.append(lambda d1=d1: with_d1_through_sigma(a, d1))
    return out


def test_an_invalid_verdict_takes_no_shortcut():
    """After validate reports a violation, every table makes the rank and
    product calls of a never-validated copy, in the same order, and gives
    its table or raises its NotASubspace.  No rank is read from a mirror:
    the row table, run after the column table, ranks every nonzero d1
    block."""
    codes = (linalg.rank.__code__, linalg._accumulate.__code__)
    seen, raised = set(), set()
    for build in broken_copies():
        checked = build()
        found = validate(checked)
        if not found:
            continue
        seen.update(v.identity for v in found)
        plain = build()
        for kind in TABLES:
            got = call_log(codes, outcome, kind, checked)
            assert got == call_log(codes, outcome, kind, plain), kind
            if kind == "conjugate_dolbeault":
                ranked = [args["m"] for name, args in got if name == "rank"]
                assert ranked == list(checked.d1.values())
            assert outcome(kind, checked) == outcome(kind, plain), kind
            if isinstance(outcome(kind, plain), str):
                raised.add(kind)
    assert {"sigma is not an involution", "d1 d2 + d2 d1 != 0"} <= seen
    assert raised == {"bott_chern", "aeppli"}


def test_the_row_table_after_the_column_table_ranks_nothing():
    a = model(NIL4, "nil4")()
    assert validate(a) == []
    dolbeault(a)
    assert calls_into(linalg.rank.__code__, conjugate_dolbeault, a) == 0


def test_ranks_stored_before_validate_serve_after_it():
    """The column table, run before `validate`, stores the d2 ranks; the row
    table, run after it, reads each d1 rank from the mirror, ranking
    nothing, and gives the table of a copy never validated."""
    sigma_cases = [case for case in PROPERTY_CASES if case[3]]
    for build in (model(NIL4, "nil4"), lambda: random_complex(*sigma_cases[-1][:3], with_sigma=True)):
        assert calls_into(linalg.rank.__code__, conjugate_dolbeault, build()) > 0
        a = build()
        dolbeault(a)
        assert validate(a) == []
        assert calls_into(linalg.rank.__code__, conjugate_dolbeault, a) == 0
        assert conjugate_dolbeault(a) == conjugate_dolbeault(build())


def test_a_valid_complex_makes_no_containment_product():
    """On nil4, every product that Bott-Chern and Aeppli make after validate
    is a d1 d2 they rank, one for each with both factors present; a
    never-validated copy makes those products plus one containment product
    per bidegree and table whose two factors are nonzero."""

    def both(a):
        TABLES["bott_chern"](a)
        TABLES["aeppli"](a)

    for checked in (True, False):
        a = model(NIL4, "nil4")()
        if checked:
            assert validate(a) == []
        products = calls_into(linalg._accumulate.__code__, both, a)
        memo = Analysis.of(a)
        ranked = sum((p, q + 1) in a.d1 and (p, q) in a.d2 for p, q in memo._d1d2)
        containments = 0 if checked else sum(
            (not memo.block("d1;d2", p, q).is_zero()
             and not memo.block("d1d2", p - 1, q - 1).is_zero())
            + (not memo.block("d1d2", p, q).is_zero()
               and not memo.block("d1|d2", p, q).is_zero())
            for p, q in a.bidegrees())
        assert ranked > 0 and (checked or containments > 0)
        assert products == ranked + containments


def test_a_second_validate_returns_the_recorded_verdict():
    for build in (model(NIL4, "nil4"), broken_copies()[0]):
        a = build()
        first = validate(a)
        assert calls_into(linalg._accumulate.__code__, validate, a) == 0
        second = validate(a)
        assert second == first and second is not first
        second.append(None)
        assert validate(a) == first


# -- a Lie-algebra model is valid by construction -----------------------------------


def two_step_specs() -> list[ModelSpec]:
    """20 seeded two-step nilpotent specs of complex dimension 2 to 4: the
    first k generators closed, and the d of every other a random sum of
    Gaussian multiples of wedges of two letters of the closed ones, at most
    one of them barred.  Every d of a d is then zero, so each is valid."""
    rng = random.Random(31)
    specs = []
    for trial in range(20):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        letters = [(barred, i) for barred in (0, 1) for i in range(k)]
        pairs = [(x, y) for x, y in itertools.combinations(letters, 2) if x[0] + y[0] < 2]
        gens = tuple(f"g{i}" for i in range(n))
        equations = {}
        for gen in gens[k:]:
            terms = {}
            for x, y in rng.sample(pairs, rng.randint(1, len(pairs))):
                terms[x, y] = gauss(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            equations[gen] = tuple(EquationTerm(c, x, y) for (x, y), c in terms.items() if c)
        specs.append(ModelSpec(f"two_step{trial}", n, "lie_algebra", gens, equations))
    return specs


def built_models() -> list:
    """Every Lie-algebra model the suite builds: the tori of dimension 1 to
    3, Iwasawa, dim6, the solvable and Nakamura models, nil4 and nil5 at
    each lambda of the benchmark, and `two_step_specs`."""
    texts = ((DIM6, "dim6"), (SOLVABLE, "solvable"), (NAKAMURA, "nakamura"))
    specs = [IWASAWA_SPEC, *(parse_model_file(text, name) for text, name in texts),
             *(spec for lam in LAMBDAS for spec in nil_specs(lam)), *two_step_specs()]
    return [torus(n) for n in (1, 2, 3)] + [lie_algebra_model(spec) for spec in specs]


def test_a_built_model_carries_the_verdict_both_checks_find():
    """The verdict `lie_algebra_model` records is the one `validate` finds on
    a copy never validated, by relabeling and products, and the one the
    matrix-product checks of `reference_validate` find."""
    models = built_models()
    assert len(models) == 33
    assert sum(bool(m.complex.d1) and bool(m.complex.d2) for m in models) >= 20
    for i, m in enumerate(models):
        assert m.complex._violations == (), i
        assert validate(never_validated(m)) == reference_validate(m.complex) == [], i


def test_validate_of_a_built_model_multiplies_nothing():
    """`validate` of a built model returns the recorded list: no product, no
    relabeling, no involution check.  The dual of a model never passed to
    `validate` inherits the verdict and writes the Serre record (a, n)."""
    codes = (linalg._accumulate.__code__, linalg._equal_by_relabeling.__code__)
    for i, m in enumerate(built_models()):
        a, n = m.complex, m.top_index[0]
        d = dual(a, n)
        assert d._violations == () and d._serre[0] is a and d._serre[1] == n, i
        assert call_log(codes, validate, a) == [], i
        assert reference_validate(d) == [], i


# -- the dual inherits the verdict and the tables -------------------------------------


def dual_cases():
    """(builder, n) for the property suite, with and without sigma, and for
    nil4, nil5 and Iwasawa at their complex dimension."""
    cases = [(partial(random_complex, seed, window, size, with_sigma=with_sigma), window[1])
             for seed, window, size, with_sigma in PROPERTY_CASES]
    return cases + [(BUILDERS["nil4"], 4), (BUILDERS["nil5"], 5), (BUILDERS["iwasawa"], 3)]


def test_the_dual_of_a_valid_complex_is_known_valid():
    """dual(a, n) of a complex `validate` found valid records the empty
    violation list, and its five tables, in either order, are those of the
    dual of a copy never validated.  `validate` of that dual, which carries
    no verdict, finds nothing, which checks the inference."""
    cases = dual_cases()
    assert sum(build().sigma is not None for build, _ in cases) >= 20
    for build, n in cases:
        plain = dual(build(), n)
        assert plain._violations is None
        want = tables(plain, TABLES)
        assert validate(plain) == []
        for order in (list(TABLES), list(reversed(TABLES))):
            a = build()
            assert validate(a) == []
            d = dual(a, n)
            assert d._violations == ()
            assert tables(d, order) == want


def test_the_dual_of_an_unchecked_complex_takes_the_checked_route():
    """The dual of a complex never validated, or with a violation, records
    no verdict, and every table on it makes the rank and product calls of
    the dual of a never-validated copy, in the same order, with the same
    outcome."""
    codes = (linalg.rank.__code__, linalg._accumulate.__code__)
    products = 0
    for build in [BUILDERS["nil4"]] + broken_copies():
        unchecked = [build()]
        invalid = build()
        if validate(invalid):
            unchecked.append(invalid)
        for a in unchecked:
            d, plain = dual(a, 4), dual(build(), 4)
            assert d._violations is None
            for kind in TABLES:
                got = call_log(codes, outcome, kind, d)
                assert got == call_log(codes, outcome, kind, plain), kind
                assert outcome(kind, d) == outcome(kind, plain), kind
                products += sum(name == "_accumulate" for name, _ in got)
    assert products > 0


def reflected(table, n: int) -> dict:
    """The entries of a table of a read at the bidegree or degree that
    dual(a, n) puts them: (n - p, n - q), or 2n - k for de Rham."""
    return {(2 * n - x if table.kind == "de_rham" else (n - x[0], n - x[1])): v
            for x, v in table.entries.items()}


# Each table of dual(a, n) is a table of a reflected: its column, row and
# de Rham tables a's own, its Bott-Chern a's Aeppli and its Aeppli a's
# Bott-Chern.
DUAL_KIND = dict(zip(TABLES, TABLES)) | {"bott_chern": "aeppli", "aeppli": "bott_chern"}


def test_the_dual_of_a_valid_complex_reads_its_ranks_off_its_source():
    """After the five tables of a validated a, no table of dual(a, n) ranks
    or multiplies anything: each is read off a's table of the kind that
    duality reflects onto it, and equals that table reflected."""
    codes = (linalg.rank.__code__, linalg._accumulate.__code__)
    for build, n in dual_cases():
        a = build()
        assert validate(a) == []
        mine = tables(a, TABLES)
        d = dual(a, n)
        assert d._serre[0] is a and d._serre[1] == n
        for kind in TABLES:
            assert call_log(codes, outcome, kind, d) == [], kind
            assert outcome(kind, d).entries == reflected(mine[DUAL_KIND[kind]], n), kind


def test_the_dual_stores_its_ranks_on_its_source():
    """With a's tables never computed, the dual's tables are a's tables
    reflected, and a's are found on a's Analysis: the dual's own Analysis
    stores no rank and no total rank, while a's holds the ranks of its own
    blocks.  a's tables called afterwards are read from its table memo and
    make no `linalg.rank` call.  They give the tables of a copy never
    validated."""
    for build, n in dual_cases()[-3:] + dual_cases()[::10]:
        a = build()
        assert validate(a) == []
        d = dual(a, n)
        theirs = tables(d, TABLES)
        mine = Analysis.of(a)
        assert Analysis.of(d)._ranks == {} and Analysis.of(d).total_ranks == {}
        assert mine._ranks and wrong_ranks([a]) == []
        assert call_log((linalg.rank.__code__,), tables, a, TABLES) == []
        want = tables(build(), TABLES)
        assert tables(a, TABLES) == want
        for kind in TABLES:
            assert theirs[kind].entries == reflected(want[DUAL_KIND[kind]], n), kind


def test_the_dual_of_a_tabled_complex_walks_no_orbit():
    """After a's five tables, the five tables of dual(a, n) are five table
    reads: no `Analysis.orbit`, `Analysis.rank` or `Analysis.total_rank`
    call, on either complex."""
    codes = (Analysis.orbit.__code__, Analysis.rank.__code__, Analysis.total_rank.__code__)
    for build, n in dual_cases()[-3:] + dual_cases()[::10]:
        a = build()
        assert validate(a) == []
        tables(a, TABLES)
        d = dual(a, n)
        assert call_log(codes, tables, d, TABLES) == []


def test_a_returned_table_is_a_copy():
    """Each call returns a fresh CohomologyTable: emptying or editing the
    entries of one leaves the next call's table of that complex, and of
    its dual, unchanged."""
    for build, n in dual_cases()[-3:]:
        a = build()
        assert validate(a) == []
        d = dual(a, n)
        for c in (a, d):
            want = tables(build() if c is a else dual(build(), n), TABLES)
            for kind, table in tables(c, TABLES).items():
                first = next(iter(table.entries))
                table.entries[first] += 1
                table.entries[("x", "y")] = 7
                assert TABLES[kind](c) == want[kind], kind
                table.entries.clear()
                assert TABLES[kind](c) == want[kind], kind


def test_the_dual_of_the_dual_gives_the_tables_of_a():
    """dual(dual(a, n), n) is a with each A^{p,q} rescaled by (-1)^{p+q},
    and its tables, each read through the chain of sources, are a's."""
    for build, n in dual_cases()[-3:] + dual_cases()[::10]:
        a = build()
        assert validate(a) == []
        twice = dual(dual(a, n), n)
        assert twice._serre[0]._serre[0] is a
        assert tables(twice, TABLES) == tables(build(), TABLES)


def test_a_dual_keeps_its_source_alive():
    """The dual holds its source strongly: after `del a` and a collection
    the source is still there, and the dual's tables are those of the dual
    of a copy never validated.  Dropping the dual frees both."""
    for build, n in dual_cases()[-3:] + dual_cases()[::10]:
        a = build()
        assert validate(a) == []
        d, source = dual(a, n), weakref.ref(a)
        del a
        gc.collect()
        assert source() is not None
        assert tables(d, TABLES) == tables(dual(build(), n), TABLES)
        del d
        assert source() is None


def test_bott_chern_and_aeppli_rank_no_one_part_block():
    """After dolbeault and conjugate_dolbeault have ranked every d1 and d2
    block, every matrix that bott_chern and aeppli hand to `linalg.rank` is
    a d1 d2 product or a [d1; d2] or [d1 | d2] block with both parts
    present: a block with one part absent has that part's rank, read from
    the memo; validated or not."""
    codes = (Analysis.rank.__code__, linalg.rank.__code__)
    one_part = 0
    for build, _ in dual_cases()[-3:] + dual_cases()[::10]:
        for checked in (False, True):
            a = build()
            if checked:
                assert validate(a) == []
            dolbeault(a)
            conjugate_dolbeault(a)
            parts = {"d1;d2": lambda p, q: ((p, q) in a.d1, (p, q) in a.d2),
                     "d1|d2": lambda p, q: ((p - 1, q) in a.d1, (p, q - 1) in a.d2)}
            one_part += sum(sum(present(p, q)) == 1 for present in parts.values()
                            for p, q in a.bidegrees())
            for table in (bott_chern, aeppli):
                asked = None
                for name, args in call_log(codes, table, a):
                    if name == "rank" and "self" in args:
                        asked = args["kind"], args["p"], args["q"]
                    elif name == "rank":
                        kind, p, q = asked
                        two_parts = kind in parts and all(parts[kind](p, q))
                        assert kind == "d1d2" or two_parts, (table.__name__, asked)
    assert one_part > 100


# -- every stored rank is the rank of its own block ------------------------------


def wrong_ranks(complexes) -> list:
    """The entries of these complexes' rank memos that differ from the rank
    of their own block, or total differential, on their own complex."""
    memos = [Analysis.of(c) for c in complexes]
    wrong = [(memo, key) for memo in memos for key, r in memo._ranks.items()
             if linalg.rank(memo.block(*key)) != r]
    return wrong + [(memo, k) for memo in memos for k, r in memo.total_ranks.items()
                    if linalg.rank(memo.totalization.differential(k)) != r]


def stored_rank_cases():
    """(builder, n): every `dual_cases` one, and the solvable model, valid
    with no Serre record."""
    return dual_cases() + [(model(SOLVABLE, "solvable"), 2)]


def chain(build, n: int, pages: bool) -> list:
    """Validate a, run the five tables of a, dual(a, n) and dual(dual(a, n), n),
    a's first on one copy and last on another, each complex's pages too
    where pages is true, and return the six complexes."""
    out = []
    for first in (True, False):
        a = build()
        assert validate(a) == []
        d = dual(a, n)
        twice = dual(d, n)
        for c in [a, d, twice] if first else [twice, d, a]:
            tables(c, TABLES)
            if pages:
                frolicher(c)
                frolicher(c, "row")
        out += [a, d, twice]
    return out


def test_every_stored_rank_is_the_rank_of_its_own_block():
    """After the five tables of a validated complex, its dual and the dual
    of that, in both orders, every entry of each Analysis's `_ranks` and
    `total_ranks` is the rank of its own block on its own complex, however
    it got there: ranked, read from a mirror, a lone part or a Serre
    partner, or stored from a partner's.  The pages run too on the models,
    whose Frolicher reads its upper degrees off the Serre mirror.  On the
    property suite with and without sigma, nil4, nil5, Iwasawa and the
    solvable model."""
    cases = stored_rank_cases()
    assert sum(build().sigma is not None for build, _ in cases) >= 20
    for i, (build, n) in enumerate(cases):
        complexes = chain(build, n, pages=i >= len(cases) - 4)
        assert sum(len(Analysis.of(c)._ranks) for c in complexes) > 0
        assert wrong_ranks(complexes) == [], i


def test_a_wrong_serre_offset_stores_a_wrong_rank(monkeypatch):
    """The check above sees a Serre partner that is off by one: with the d1
    partner of `_KINDS` at (n - p, n - q) in place of (n - p - 1, n - q),
    some stored rank on nil4, nil5 or Iwasawa is not its block's."""
    kinds = dict(cohomology._KINDS, d1=cohomology._KINDS["d1"]._replace(serre=("d1", 0, 0)))
    monkeypatch.setattr(cohomology, "_KINDS", kinds)
    assert any(wrong_ranks(chain(build, n, pages=False))
               for build, n in stored_rank_cases()[-4:-1])
