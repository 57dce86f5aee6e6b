import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bicomplex import cohomology
from bicomplex import (
    CohomologyTable,
    Morphism,
    aeppli,
    betti_vector,
    blow_up,
    bott_chern,
    cli,
    conjugate_dolbeault,
    de_rham,
    direct_sum,
    dolbeault,
    dot,
    dual,
    euler_characteristic,
    frolicher,
    induced_cohomology_map,
    is_E1_isomorphism,
    iwasawa,
    lie_algebra_model,
    linalg,
    parse_model_file,
    projective_bundle,
    quotient,
    random_complex,
    serre_pairing_morphism,
    shift,
    square,
    tensor,
    torus,
    validate,
    zigzag,
)
from bicomplex.cohomology import _KINDS, TABLES, Analysis
from bicomplex.complexes import Totalization, transpose_complex
from bicomplex.linalg import coset_representatives, hstack, image_basis, kernel_basis, rank, vstack
from bicomplex.scalars import GaussianRational
from call_counter import arguments_of, call_log, calls_into
from helpers import never_validated
from reference_subquotients import aeppli_spaces, bott_chern_spaces, induced_subquotient_map
from test_acceptance import PROPERTY_CASES
from test_cli_golden import ALL_TABLES
from test_frolicher import DIM6, NIL4

TABLE_FUNCS = (dolbeault, conjugate_dolbeault, de_rham, bott_chern, aeppli)


def entries(table):
    return dict(table.entries)


def imported_modules(path: Path, package: str) -> set[str]:
    """Every module and name the file at path imports, as a dotted name,
    relative imports resolved inside package."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(package.split(".")[:len(package.split(".")) - node.level + 1])
            module = node.module if not node.level else ".".join(filter(None, (base, node.module)))
            out |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return out


def test_cohomology_imports_nothing_from_models():
    """The Serre record is written by the constructions that prove it, so the
    tables and their Analysis read no model code."""
    names = imported_modules(Path(cohomology.__file__), "bicomplex")
    assert "bicomplex.complexes" in names and "bicomplex.linalg.rank" in names
    assert not [name for name in names if name.split(".")[:2] == ["bicomplex", "models"]]


# -- single-shape sanity -----------------------------------------------------------


@pytest.mark.parametrize("func", TABLE_FUNCS)
def test_dot_tables(func):
    t = func(dot(2, 1))
    if t.kind == "de_rham":
        assert entries(t) == {3: 1}
    else:
        assert entries(t) == {(2, 1): 1}


@pytest.mark.parametrize("func", TABLE_FUNCS)
def test_square_tables_vanish(func):
    assert entries(func(square(0, 0))) == {}


def test_conjugate_dolbeault_horizontal_zigzag():
    z = zigzag((0, 0), 2, "d1")
    assert entries(conjugate_dolbeault(z)) == {}
    assert entries(dolbeault(z)) == {(0, 0): 1, (1, 0): 1}


# -- one rank formula per table -----------------------------------------------------


def ranked(fn, *args) -> list:
    """The nonzero matrices that fn(*args) hands to `linalg.rank`, whatever
    name reached it; a zero one returns at once."""
    return [call["m"] for call in arguments_of(linalg.rank.__code__, fn, *args)
            if not call["m"].is_zero()]


def test_bott_chern_cycles_take_one_rref():
    """Where both d1 and d2 leave (p, q), the Bott-Chern cycles are the
    canonical basis of ker [d1; d2], read off one RREF of the stacked block
    with its columns reversed; the boundaries take the forward pass alone.
    The basis is the canonical span of the kernel basis, two RREFs."""
    a = lie_algebra_model(parse_model_file(NIL4, "nil4")).complex
    both = [pq for pq in a.bidegrees() if pq in a.d1 and pq in a.d2]
    assert len(both) > 3
    memo = Analysis.of(a)
    for pq in both:
        assert calls_into(linalg.rref.__code__, memo.spaces, "bott_chern", pq) == 1, pq
        stacked = vstack([a.d1_at(*pq), a.d2_at(*pq)])
        assert memo.spaces("bott_chern", pq)[0] == linalg.canonical_span(kernel_basis(stacked))


@pytest.mark.parametrize("build", [
    lambda: never_validated(lie_algebra_model(parse_model_file(NIL4, "nil4"))),
    lambda: random_complex(203, (0, 5, 0, 5), 19),
], ids=["nil4", "random203"])
def test_one_elimination_per_nonzero_differential(build):
    """Each stored d1 or d2 block, in bidegree order, and each nonzero total
    differential, is ranked once."""
    a = build()
    nonzero_degrees = {p + q for p, q in [*a.d1, *a.d2]}
    for table, blocks in ((dolbeault, [a.d2[pq] for pq in sorted(a.d2)]),
                          (conjugate_dolbeault, [a.d1[pq] for pq in sorted(a.d1)]),
                          (de_rham, [Analysis.of(a).totalization.differential(k)
                                     for k in sorted(nonzero_degrees)])):
        assert ranked(table, a) == list(blocks), table.__name__


def test_one_totalization_serves_validate_de_rham_and_frolicher():
    """validate, de_rham and Frolicher in both directions share the random
    complex's one Totalization, made once, and each total differential that
    a stored block leaves is assembled once; one that none leaves is zero,
    and is neither ranked nor reduced.  The dual of the complex found valid
    reads its ranks off the complex, so its Bott-Chern and Aeppli tables
    build no Totalization, for it or for the complex."""
    a = random_complex(203, (0, 5, 0, 5), 19)

    def total_tables():
        assert validate(a) == []
        de_rham(a)
        frolicher(a)
        frolicher(a, "row")

    log = call_log((Totalization.__init__.__code__, linalg.assemble.__code__), total_tables)
    tot = Totalization.of(a)
    assert [name for name, _ in log].count("__init__") == 1
    assert [name for name, _ in log].count("assemble") == len(tot.moving) == len(tot._d)
    assert len(tot.moving) < len(tot.degrees())
    assert Analysis.of(a).totalization is tot

    d = dual(a, 5)
    assert d._serre == (a, 5)
    assert call_log((Totalization.__init__.__code__,), lambda: (bott_chern(d), aeppli(d))) == []
    assert d._totalization is None


def test_de_rham_after_frolicher_eliminates_nothing():
    a = lie_algebra_model(parse_model_file(NIL4, "nil4")).complex
    frolicher(a)
    assert calls_into(linalg.rank.__code__, de_rham, a) == 0
    assert calls_into(linalg._echelon.__code__, de_rham, a) == 0


def test_aeppli_after_bott_chern_eliminates_only_its_boundaries():
    """The d1 d2 products and their ranks are shared, so Aeppli is left with
    one rank per nonzero [d1 | d2] into (p, q), in bidegree order: the
    joined block where both parts are stored, and the stored part itself
    where only one is (rank [X | 0] = rank X).  On nil4 that is 13 joined
    blocks and 6 parts, none of which Bott-Chern ranked."""
    a = never_validated(lie_algebra_model(parse_model_file(NIL4, "nil4")))
    bott_chern(a)
    want, joined, parts = [], 0, 0
    for p, q in a.bidegrees():
        present = [m for m in (a.d1.get((p - 1, q)), a.d2.get((p, q - 1))) if m is not None]
        if len(present) == 2:
            want.append(hstack(present))
            joined += 1
        elif present:
            want.append(present[0])
            parts += 1
    got = ranked(aeppli, a)
    assert (joined, parts) == (13, 6)
    assert got == want
    blocks = [*a.d1.values(), *a.d2.values()]
    stored = [k for k, m in enumerate(want) if any(m is x for x in blocks)]
    assert len(stored) == parts and all(got[k] is want[k] for k in stored)


def test_an_equal_complex_built_separately_recomputes():
    """The memo lives on the complex, not in the process."""
    a, b = iwasawa().complex, iwasawa().complex
    assert a == b and a is not b
    frolicher(a)
    bott_chern(a)

    def eliminations(table, c):
        return len(ranked(table, c))

    assert eliminations(de_rham, a) == 0 < eliminations(de_rham, b)
    assert eliminations(aeppli, a) < eliminations(aeppli, b)


# Each kind of block at (p, q), written out: its stored parts, as
# (d1 or d2, bidegree), and how they join into the block.
KIND_RULES = {
    "d1": (lambda p, q: [("d1", p, q)], lambda ms: ms[0]),
    "d2": (lambda p, q: [("d2", p, q)], lambda ms: ms[0]),
    "d1;d2": (lambda p, q: [("d1", p, q), ("d2", p, q)], vstack),
    "d1|d2": (lambda p, q: [("d1", p - 1, q), ("d2", p, q - 1)], hstack),
    "d1d2": (lambda p, q: [("d1", p, q + 1), ("d2", p, q)], lambda ms: ms[0] @ ms[1]),
}


def test_the_kinds_of_block_follow_the_written_out_rule():
    """`Analysis.absent`, `Analysis.block` and `Analysis.rank` agree with
    each kind's parts and join written out above, at every bidegree of the
    support grown by one: a block is absent when none of its parts is
    stored, or for d1 d2 when a factor is not; and a [d1; d2] or [d1 | d2]
    block with one part stored is that part, with the joined block's rank,
    stored under the part's key too.  On nil4, on a property-suite complex
    with a real structure and on a blow-up of Iwasawa, none validated."""
    assert set(_KINDS) == set(KIND_RULES)
    sigma_case = [case for case in PROPERTY_CASES if case[3]][-1]
    one_part = 0
    for a in (never_validated(lie_algebra_model(parse_model_file(NIL4, "nil4"))),
              random_complex(*sigma_case[:3], with_sigma=True),
              blow_up(iwasawa(), torus(1), 2).total):
        memo = Analysis.of(a)
        p_min, p_max, q_min, q_max = a.window
        # The stacked kinds come first, so no part's rank is stored before.
        for kind, (parts, join) in reversed(KIND_RULES.items()):
            for p in range(p_min - 1, p_max + 2):
                for q in range(q_min - 1, q_max + 2):
                    keys = parts(p, q)
                    stored = [(x, y) in (a.d1 if d == "d1" else a.d2) for d, x, y in keys]
                    absent = not all(stored) if kind == "d1d2" else not any(stored)
                    ms = [(a.d1_at if d == "d1" else a.d2_at)(x, y) for d, x, y in keys]
                    block = join(ms)
                    lone = len(keys) == 2 and kind != "d1d2" and sum(stored) == 1
                    assert memo.absent(kind, p, q) == absent, (kind, p, q)
                    assert memo.block(kind, p, q) == (ms[stored.index(True)] if lone else block)
                    assert memo.rank(kind, p, q) == rank(block), (kind, p, q)
                    if lone:
                        assert keys[stored.index(True)] in memo._ranks, (kind, p, q)
                        one_part += 1
    assert one_part > 10


# Each bidegree cohomology at (p, q), written out: its cycles and
# boundaries from the stored blocks.  The Bott-Chern and Aeppli ones are
# the subquotient route's, with the Bott-Chern cycles and the Aeppli
# boundaries as canonical spans.
SPACE_RULES = {
    "dolbeault": lambda a, p, q: (kernel_basis(a.d2_at(p, q)), image_basis(a.d2_at(p, q - 1))),
    "conjugate_dolbeault": lambda a, p, q: (kernel_basis(a.d1_at(p, q)),
                                            image_basis(a.d1_at(p - 1, q))),
    "bott_chern": bott_chern_spaces,
    "aeppli": aeppli_spaces,
}


def test_the_spaces_follow_the_written_out_rule():
    """`Analysis.spaces` of each bidegree cohomology equals its cycles and
    boundaries written out above, matrix for matrix, at every bidegree of
    the support grown by one: on nil4, on a blow-up of Iwasawa and on a
    property-suite complex with a real structure, validated, so that its
    tables read mirrored ranks and leave some products unbuilt."""
    assert set(SPACE_RULES) == set(TABLES) - {"de_rham"}
    sigma_case = [case for case in PROPERTY_CASES if case[3]][-1]
    validated = random_complex(*sigma_case[:3], with_sigma=True)
    assert validate(validated) == []
    for a in (lie_algebra_model(parse_model_file(NIL4, "nil4")).complex,
              blow_up(iwasawa(), torus(1), 2).total, validated):
        bott_chern(a)
        memo = Analysis.of(a)
        p_min, p_max, q_min, q_max = a.window
        for kind, rule in SPACE_RULES.items():
            for p in range(p_min - 1, p_max + 2):
                for q in range(q_min - 1, q_max + 2):
                    assert memo.spaces(kind, (p, q)) == rule(a, p, q), (kind, p, q)


@pytest.mark.parametrize("build", [
    lambda: never_validated(lie_algebra_model(parse_model_file(NIL4, "nil4"))),
    lambda: quotient(projective_bundle(torus(2), 3)[1])[0],
], ids=["nil4", "bundle_quotient"])
def test_spaces_after_the_tables_multiply_nothing(build):
    """The Bott-Chern and Aeppli spaces read the d1 d2 products that the
    tables keep, and a product with an absent factor is the zero block.
    After `bott_chern` and `aeppli` on a complex never validated, which
    ranks every product it reads, their spaces at every bidegree make no
    product: neither on nil4 nor on a quotient that stores no block."""
    a = build()
    assert a._violations is None
    bott_chern(a)
    aeppli(a)
    memo = Analysis.of(a)

    def spaces():
        for pq in a.bidegrees():
            for kind in ("bott_chern", "aeppli"):
                memo.spaces(kind, pq)

    assert calls_into(linalg._accumulate.__code__, spaces) == 0


def test_peeled_ranks_leave_the_kernel_almost_nothing(capsys):
    """`rank` peels singleton rows and columns before it eliminates, and
    Frolicher's filtered reductions peel the singletons that respect their
    levels.  nil4's five tables then never call the kernel, nor does
    `model iwasawa` with every table and the Frolicher pages."""
    a = lie_algebra_model(parse_model_file(NIL4, "nil4")).complex

    def five_tables():
        for table in TABLES.values():
            table(a)

    assert calls_into(linalg._echelon.__code__, five_tables) == 0
    argv = ["model", "iwasawa", "--tables", ALL_TABLES]
    assert calls_into(linalg._echelon.__code__, cli.run, argv) == 0
    assert capsys.readouterr().out


def test_peeled_ranks_agree_with_filtered_ranks_on_dim6():
    """de Rham called first ranks each d_k by peeling; after `frolicher` on
    an equal complex built separately it reads the ranks of the filtered
    reductions.  The two agree, and Bott-Chern and Aeppli satisfy Serre
    duality, h_BC^{p,q} = h_A^{6-p,6-q}, and the symmetry of the real
    structure, h^{p,q} = h^{q,p}."""
    a = lie_algebra_model(parse_model_file(DIM6, "dim6")).complex
    b = lie_algebra_model(parse_model_file(DIM6, "dim6")).complex
    assert a == b and a is not b
    peeled = de_rham(a)
    frolicher(b)
    assert ranked(de_rham, b) == []
    assert de_rham(b) == peeled and sum(peeled.entries.values()) > 2
    bc, ae = bott_chern(a).entries, aeppli(a).entries
    assert ae == {(6 - p, 6 - q): v for (p, q), v in bc.items()}
    for table in (bc, ae):
        assert table == {(q, p): v for (p, q), v in table.items()}


@pytest.mark.parametrize("kind", ["bott_chern", "aeppli"],
                         ids=["bott_chern_spaces", "aeppli_spaces"])
def test_subquotient_spaces_reduce_the_rank_formula_matrices(kind):
    """The Bott-Chern cycles are the canonical kernel of [d1; d2], one RREF
    of the stacked block with its columns reversed, and the Aeppli
    boundaries the canonical span of [d1 | d2]: at most two eliminations
    per bidegree, the stacked or joined block's and the other space's."""
    a = lie_algebra_model(parse_model_file(NIL4, "nil4")).complex
    memo = Analysis.of(a)
    for pq in a.bidegrees():
        assert calls_into(linalg._echelon.__code__, memo.spaces, kind, pq) <= 2, pq


@pytest.mark.parametrize("build", [
    lambda: never_validated(lie_algebra_model(parse_model_file(NIL4, "nil4"))),
    lambda: random_complex(203, (0, 5, 0, 5), 19),
], ids=["nil4", "random203"])
def test_tables_touch_no_fraction(build):
    """validate, the five tables and Frolicher run on the matrices' stored
    Z[i] form: no Fraction is built and no denominator is read."""
    a = build()
    for fn in (validate, *TABLES.values(), frolicher):
        for code in (Fraction.__new__.__code__, Fraction.denominator.fget.__code__):
            assert calls_into(code, fn, a) == 0, (fn.__name__, code.co_name)


def test_subspaces_build_no_scalar():
    """Kernels, images, coset frames and induced maps run on the matrices'
    stored Z[i] form: the five induced maps and the E1 check of the Iwasawa
    Serre pairing build no scalar and no Fraction, and test no scalar for
    zero."""
    f = serre_pairing_morphism(iwasawa())

    def induced_and_e1():
        for kind in TABLES:
            induced_cohomology_map(f, kind)
        is_E1_isomorphism(f)

    for code in (GaussianRational.__init__.__code__, GaussianRational.__bool__.__code__,
                 Fraction.__new__.__code__):
        assert calls_into(code, induced_and_e1) == 0, code.co_name


def test_row_cohomology_matches_the_d1_rank_formula():
    """conjugate_dolbeault against the d1 rank formula written out per
    bidegree, and against the column table of the transposed complex, on
    every property-suite case."""
    for seed, window, size, with_sigma in PROPERTY_CASES:
        a = random_complex(seed, window, size, with_sigma=with_sigma)
        want = {(p, q): n - rank(a.d1_at(p, q)) - rank(a.d1_at(p - 1, q))
                for (p, q), n in a.dims.items()}
        got = entries(conjugate_dolbeault(a))
        assert got == {pq: v for pq, v in want.items() if v}, seed
        columns = dolbeault(transpose_complex(a))
        assert got == {(p, q): v for (q, p), v in columns.entries.items()}, seed


def transpose_morphism(f):
    return Morphism(transpose_complex(f.source), transpose_complex(f.target),
                    {(q, p): m for (p, q), m in f.blocks.items()})


def test_row_induced_map_is_the_transposed_column_map(presets):
    """The row induced map reads the kernel and image of d1 directly; the
    Dolbeault map of the transposed morphism, keys flipped, is the second
    route.  On the Serre pairing of every lie-algebra preset and on the
    inclusions of the E1 acceptance criterion."""
    morphisms = [serre_pairing_morphism(presets[name])
                 for name in ("torus1", "torus2", "torus3", "iwasawa")]
    for seed in range(45):
        a = random_complex(seed, (0, 3, 0, 3), 3 + seed % 4)
        morphisms.append(direct_sum(a, square(seed % 3, seed % 2))[1])
    for f in morphisms:
        flipped = {(p, q): m for (q, p), m in
                   induced_cohomology_map(transpose_morphism(f), "dolbeault").items()}
        assert induced_cohomology_map(f, "conjugate_dolbeault") == flipped


def test_induced_maps_build_each_complex_spaces_once():
    """Cycles and boundaries are kept on each complex's Analysis: after the
    E1 test the induced Dolbeault map reduces no kernel or image, a second
    morphism out of the same source builds only its target's spaces, and
    an equal complex built separately builds its own.  Each side's spaces
    take one kernel_basis call per key, for every kind."""
    a = random_complex(104, (0, 2, 0, 2), 4)
    _, f, _ = direct_sum(a, square(1, 0))
    is_E1_isomorphism(f)
    for code in (kernel_basis.__code__, image_basis.__code__):
        assert calls_into(code, induced_cohomology_map, f, "dolbeault") == 0

    def kernels(g, kind):
        return calls_into(kernel_basis.__code__, induced_cohomology_map, g, kind)

    def keys(g, kind):
        support = set(g.source.dims) | set(g.target.dims)
        return len({p + q for p, q in support} if kind == "de_rham" else support)

    b = random_complex(104, (0, 2, 0, 2), 4)
    assert a == b and a is not b
    for kind in TABLES:
        induced_cohomology_map(f, kind)
        _, g, _ = direct_sum(a, dot(1, 1))
        assert kernels(g, kind) == keys(g, kind), kind
        assert kernels(Morphism.identity(a), kind) == 0, kind
        assert kernels(Morphism.identity(b), kind) == keys(Morphism.identity(b), kind) > 0, kind


# -- Iwasawa golden values -----------------------------------------------------------


def test_iwasawa_dolbeault(iwasawa_model):
    t = dolbeault(iwasawa_model.complex)
    assert t.at((1, 0)) == 3 and t.at((0, 1)) == 2
    assert t.by_degree()[1] == (2, 3)
    assert t.by_degree()[3] == (1, 1, 6, 6)


def test_iwasawa_betti(iwasawa_model):
    assert betti_vector(iwasawa_model.complex) == (1, 4, 8, 10, 8, 4, 1)


def test_iwasawa_bott_chern_entries(iwasawa_model):
    t = bott_chern(iwasawa_model.complex)
    assert t.at((1, 0)) == 2
    assert t.at((1, 1)) == 4
    assert t.at((2, 0)) == 3
    assert t.at((2, 2)) == 8


def test_iwasawa_aeppli_entries(iwasawa_model):
    t = aeppli(iwasawa_model.complex)
    assert t.at((1, 0)) == 3
    assert t.at((1, 1)) == 8
    assert t.at((2, 0)) == 2
    # duality against Bott-Chern of the dual complex
    bc_dual = bott_chern(dual(iwasawa_model.complex, 3))
    for (p, q), v in t.entries.items():
        assert bc_dual.at((3 - p, 3 - q)) == v


def test_iwasawa_frolicher(iwasawa_model):
    ss = frolicher(iwasawa_model.complex)
    assert ss.degeneration_page == 2
    page2 = CohomologyTable("e2", ss.page(2))
    assert page2.by_degree()[2] == (2, 2, 4)
    assert sum(page2.by_degree()[2]) == 8
    assert page2.by_degree()[3] == (1, 1, 4, 4)


def test_torus_frolicher_degenerates_immediately(torus2):
    assert frolicher(torus2.complex).degeneration_page == 1


def test_length_two_zigzag_pages():
    z = zigzag((0, 0), 2, "d1")
    ss = frolicher(z)
    assert ss.page(1) == {(0, 0): 1, (1, 0): 1}
    assert ss.page(2) == {}
    assert ss.degeneration_page == 2


# -- structural properties over random complexes -------------------------------------


def test_frolicher_page1_equals_dolbeault_independent_paths():
    for seed in range(8):
        a = random_complex(seed, (0, 4, 0, 4), 8)
        assert frolicher(a).page(1) == entries(dolbeault(a))
        assert frolicher(a, "row").page(1) == entries(conjugate_dolbeault(a))


def test_pages_non_increasing_and_reach_betti():
    for seed in range(8):
        a = random_complex(seed + 20, (0, 4, 0, 4), 8)
        # de_rham first, so that its ranks do not come from frolicher's.
        betti = entries(de_rham(a))
        ss = frolicher(a)
        prev = None
        for r, table in ss.pages:
            if prev is not None:
                for pq, v in table.items():
                    assert v <= prev.get(pq, 0)
            prev = table
        for k in set(betti) | {p + q for p, q in ss.e_infinity}:
            total = sum(v for (p, q), v in ss.e_infinity.items() if p + q == k)
            assert total == betti.get(k, 0)
        w = a.window
        span_bound = max(1, (w[1] - w[0]) + (w[3] - w[2]) + 1)
        assert ss.degeneration_page <= span_bound


def test_e2_matches_homology_of_page_one():
    """Independent route to page 2: take column cohomology with the map
    induced by d1 and compute its homology, bidegree by bidegree."""

    def column_spaces(a, p, q):
        return kernel_basis(a.d2_at(p, q)), image_basis(a.d2_at(p, q - 1))

    def induced_d1(a, p, q):
        z_s, b_s = column_spaces(a, p, q)
        z_t, b_t = column_spaces(a, p + 1, q)
        return induced_subquotient_map(a.d1_at(p, q), z_s, b_s, z_t, b_t)

    from bicomplex import iwasawa

    targets = [iwasawa().complex] + [
        random_complex(seed, (0, 4, 0, 4), 8) for seed in (31, 32, 33)
    ]
    for a in targets:
        page2 = frolicher(a).page(2)
        for p, q in a.bidegrees():
            out = induced_d1(a, p, q)
            into = induced_d1(a, p - 1, q)
            e2 = out.cols - rank(out) - rank(into)
            assert page2.get((p, q), 0) == e2, (p, q)


def test_euler_characteristic_constant_across_pages():
    for seed in range(6):
        a = random_complex(seed + 40, (0, 4, 0, 4), 8)
        chi = euler_characteristic(a)
        betti = entries(de_rham(a))
        assert chi == sum((-1) ** (k % 2) * v for k, v in betti.items())
        ss = frolicher(a)
        for r, table in ss.pages:
            assert chi == sum((-1) ** ((p + q) % 2) * v for (p, q), v in table.items())


def test_direct_sum_additivity_all_tables():
    a = random_complex(60, (0, 3, 0, 3), 5)
    b = random_complex(61, (0, 3, 0, 3), 5)
    total, _, _ = direct_sum(a, b)
    for func in TABLE_FUNCS:
        ta, tb, tt = entries(func(a)), entries(func(b)), entries(func(total))
        for key in set(ta) | set(tb):
            assert tt.get(key, 0) == ta.get(key, 0) + tb.get(key, 0)
        assert set(tt) <= set(ta) | set(tb)


def test_shift_equivariance():
    a = random_complex(62, (0, 3, 0, 3), 5)
    s = shift(a, 2)
    for func in (dolbeault, conjugate_dolbeault, bott_chern, aeppli):
        base = entries(func(a))
        moved = entries(func(s))
        assert moved == {(p + 2, q + 2): v for (p, q), v in base.items()}
    assert entries(de_rham(s)) == {k + 4: v for k, v in entries(de_rham(a)).items()}


def test_kunneth_for_dolbeault_and_de_rham():
    a = random_complex(63, (0, 2, 0, 2), 3)
    b = random_complex(64, (0, 2, 0, 1), 3)
    ab = tensor(a, b)
    da, db = entries(dolbeault(a)), entries(dolbeault(b))
    expected = {}
    for (p1, q1), v1 in da.items():
        for (p2, q2), v2 in db.items():
            key = (p1 + p2, q1 + q2)
            expected[key] = expected.get(key, 0) + v1 * v2
    assert entries(dolbeault(ab)) == {k: v for k, v in expected.items() if v}
    ra, rb = entries(de_rham(a)), entries(de_rham(b))
    conv = {}
    for k1, v1 in ra.items():
        for k2, v2 in rb.items():
            conv[k1 + k2] = conv.get(k1 + k2, 0) + v1 * v2
    assert entries(de_rham(ab)) == {k: v for k, v in conv.items() if v}


def test_duality_identities():
    for seed in (70, 71):
        a = random_complex(seed, (0, 3, 0, 3), 5)
        n = 4
        d = dual(a, n)
        dol_a, dol_d = entries(dolbeault(a)), entries(dolbeault(d))
        assert dol_d == {(n - p, n - q): v for (p, q), v in dol_a.items()}
        bc_d = entries(bott_chern(d))
        aep_a = entries(aeppli(a))
        assert bc_d == {(n - p, n - q): v for (p, q), v in aep_a.items()}
        aep_d = entries(aeppli(d))
        bc_a = entries(bott_chern(a))
        assert aep_d == {(n - p, n - q): v for (p, q), v in bc_a.items()}


def test_sigma_symmetry():
    for seed in (80, 81, 82):
        a = random_complex(seed, (0, 3, 0, 3), 4, with_sigma=True)
        dol, row = dolbeault(a), conjugate_dolbeault(a)
        for (p, q), v in dol.entries.items():
            assert row.at((q, p)) == v
        for func in (bott_chern, aeppli):
            t = func(a)
            for (p, q), v in t.entries.items():
                assert t.at((q, p)) == v
        col_ss = frolicher(a, "column")
        row_ss = frolicher(a, "row")
        for r, table in col_ss.pages:
            flipped = {(q, p): v for (p, q), v in row_ss.page(r).items()}
            assert table == flipped


def test_angella_tomassini_inequality():
    for seed in range(6):
        a = random_complex(seed + 90, (0, 3, 0, 3), 6)
        bc = bott_chern(a).by_degree() if bott_chern(a).entries else {}
        ae = aeppli(a).by_degree() if aeppli(a).entries else {}
        betti = entries(de_rham(a))
        for k in set(bc) | set(ae) | set(betti):
            total = sum(bc.get(k, ())) + sum(ae.get(k, ()))
            assert total >= 2 * betti.get(k, 0)


# -- induced maps ----------------------------------------------------------------------


def test_induced_identity_maps(iwasawa_model):
    a = iwasawa_model.complex
    for kind in ("dolbeault", "conjugate_dolbeault", "bott_chern", "aeppli", "de_rham"):
        for key, m in induced_cohomology_map(Morphism.identity(a), kind).items():
            assert m.rows == m.cols == rank(m)


def test_induced_inclusion_is_injective_on_dolbeault():
    a = random_complex(100, (0, 2, 0, 2), 4)
    b = random_complex(101, (0, 2, 0, 2), 4)
    total, ia, _ = direct_sum(a, b)
    for m in induced_cohomology_map(ia, "dolbeault").values():
        assert rank(m) == m.cols


def test_induced_maps_compose_functorially():
    a = random_complex(102, (0, 2, 0, 2), 3)
    b = random_complex(103, (0, 2, 0, 2), 3)
    ab, ia, _ = direct_sum(a, b)
    abc, iab, _ = direct_sum(ab, square(0, 0))
    composite = iab @ ia
    for kind in ("dolbeault", "bott_chern", "aeppli", "de_rham"):
        f_then_g = induced_cohomology_map(composite, kind)
        f_maps = induced_cohomology_map(ia, kind)
        g_maps = induced_cohomology_map(iab, kind)
        for key, m in f_then_g.items():
            assert m == g_maps[key] @ f_maps[key]


def test_e1_iso_induces_bc_and_aeppli_bijections():
    a = random_complex(104, (0, 2, 0, 2), 4)
    total, ia, _ = direct_sum(a, square(1, 0))
    assert is_E1_isomorphism(ia)
    for kind in ("bott_chern", "aeppli"):
        for m in induced_cohomology_map(ia, kind).values():
            assert m.rows == m.cols == rank(m)


def test_projective_bundle_quotient_tables(iwasawa_model):
    """Quotient of the inclusion into three shifted copies has the tables of
    the two shifted summands, for every functor."""
    from bicomplex import projective_bundle

    k, incl = projective_bundle(iwasawa_model.complex, 3)
    q, _ = quotient(incl)
    base = iwasawa_model.complex
    for func in TABLE_FUNCS:
        got = entries(func(q))
        want = {}
        t = func(base)
        for i in (1, 2):
            if t.kind == "de_rham":
                for kk, v in t.entries.items():
                    want[kk + 2 * i] = want.get(kk + 2 * i, 0) + v
            else:
                for (p, qq), v in t.entries.items():
                    want[(p + i, qq + i)] = want.get((p + i, qq + i), 0) + v
        assert got == want


def test_induced_maps_eliminate_at_most_once_per_key():
    """The source's coset representatives are kept on its Analysis, and each
    key reads the target's representatives and the map off one elimination:
    once both sides' spaces are built, a map finds no representatives and
    makes at most one elimination per key.  On the Iwasawa Serre pairing
    and on the inclusions of a random complex with a real structure."""
    a = random_complex(105, (0, 2, 0, 2), 4, with_sigma=True)
    _, first, second = direct_sum(a, random_complex(106, (0, 2, 0, 2), 3, with_sigma=True))
    made = 0
    codes = (linalg._echelon.__code__, coset_representatives.__code__)
    for f in (serre_pairing_morphism(iwasawa()), first, second):
        for kind in TABLES:
            keys = len(induced_cohomology_map(f, kind))
            # An equal morphism keeps no map of its own, but shares f's
            # source and target and so their spaces.
            fresh = Morphism(f.source, f.target, f.blocks)
            names = [name for name, _ in call_log(codes, induced_cohomology_map, fresh, kind)]
            eliminations = names.count("_echelon")
            assert eliminations <= keys, kind
            assert "coset_representatives" not in names, kind
            made += eliminations
    assert made > 0


def frames(f, kind):
    """(key, block, source cycles, source boundaries, source
    representatives, target cycles, target boundaries) at each key of f's
    induced map of `kind`, read as induced_cohomology_map reads them."""
    source, target = Analysis.of(f.source), Analysis.of(f.target)
    if kind == "de_rham":
        keys = set(source.totalization.degrees()) | set(target.totalization.degrees())
        block = lambda k: source.totalization.embed_block(f, k, target.totalization)
    else:
        keys = set(f.source.dims) | set(f.target.dims)
        block = lambda pq: f.block_at(*pq)
    for x in sorted(keys):
        yield (x, block(x), *source.spaces(kind, x), source.representatives(kind, x),
               *target.spaces(kind, x))


def pairings_and_sum_maps(presets):
    """The Serre pairings of Iwasawa, torus1-3 and nil4, and the inclusions
    and quotient projection of direct sums of property-suite complexes."""
    models = [presets[name] for name in ("iwasawa", "torus1", "torus2", "torus3")]
    models.append(lie_algebra_model(parse_model_file(NIL4, "nil4")))
    morphisms = [serre_pairing_morphism(m) for m in models]
    small = [case for case in PROPERTY_CASES if case[1] != (0, 5, 0, 5)]
    for k in range(0, len(small), 9):
        (s, window, size, sigma), (t, window2, size2, sigma2) = small[k], small[k + 1]
        a = random_complex(s, window, size, with_sigma=sigma)
        _, ia, ib = direct_sum(a, random_complex(t, window2, size2, with_sigma=sigma2))
        morphisms += [ia, ib, quotient(ia)[1]]
    return morphisms


def test_induced_maps_match_the_reference_and_the_eliminated_frame(presets):
    """At every kind and key, the induced map equals the reference's, which
    solves for it column by column, and the map read off one elimination
    of the target frame; both keys without target boundaries, read off the
    target cycles' unit rows, and keys with them occur."""
    seen = Counter()
    for f in pairings_and_sum_maps(presets):
        for kind in TABLES:
            got = induced_cohomology_map(f, kind)
            for x, block, z_src, b_src, reps, z_tgt, b_tgt in frames(f, kind):
                want = induced_subquotient_map(block, z_src, b_src, z_tgt, b_tgt)
                assert got[x] == want == linalg._eliminated_map(block, reps, b_src, z_tgt, b_tgt)
                seen[bool(b_tgt.cols)] += 1
    assert seen[False] > 0 and seen[True] > 0


def test_a_boundary_free_key_eliminates_nothing(presets):
    """Each key whose target has no boundaries makes no rref and no
    _echelon call, and each other key one elimination of its frame."""
    codes = (linalg.rref.__code__, linalg._echelon.__code__)
    seen = Counter()
    for f in pairings_and_sum_maps(presets)[::2]:
        for kind in TABLES:
            for x, block, _, b_src, reps, z_tgt, b_tgt in frames(f, kind):
                log = call_log(codes, linalg._induced_map, block, reps, b_src, z_tgt, b_tgt)
                names = [name for name, _ in log]
                assert names == (["rref", "_echelon"] if b_tgt.cols else []), (kind, x)
                seen[bool(b_tgt.cols)] += 1
    assert seen[False] > 0 and seen[True] > 0


def test_an_induced_map_is_kept_on_its_morphism():
    """The E1 test reads the induced Dolbeault map, so the induced Dolbeault
    map after it eliminates nothing, and neither does a repeated call of any
    kind.  Each call returns a fresh dict, equal to the map of an equal
    morphism built separately; changing it leaves the kept map as it was."""
    echelon = linalg._echelon.__code__
    pairing = serre_pairing_morphism(iwasawa())
    identity = Morphism.identity(random_complex(203, (0, 5, 0, 5), 19))
    for f in (pairing, identity):
        assert is_E1_isomorphism(f)
        assert calls_into(echelon, induced_cohomology_map, f, "dolbeault") == 0
        for kind in TABLES:
            first = induced_cohomology_map(f, kind)
            assert calls_into(echelon, induced_cohomology_map, f, kind) == 0
            assert first == induced_cohomology_map(Morphism(f.source, f.target, f.blocks), kind)
            first.clear()
            assert induced_cohomology_map(f, kind) != first
