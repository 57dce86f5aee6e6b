"""Frolicher pages: the rank formula against the subquotient construction
and the transposed route, the pairs behind it against the unpeeled
reduction, its elimination count, the degrees it reads off a held E1 table
instead of reducing, and the nilmanifold models."""

import random

import pytest

from bicomplex import (
    DoubleComplex,
    betti_vector,
    blow_up,
    conjugate_dolbeault,
    de_rham,
    direct_sum_many,
    dolbeault,
    dot,
    euler_characteristic,
    frolicher,
    iwasawa,
    lie_algebra_model,
    parse_model_file,
    projective_bundle,
    random_complex,
    square,
    torus,
    validate,
    zigzag,
)
from bicomplex import cohomology, linalg
from bicomplex.cohomology import Analysis, Totalization
from bicomplex.linalg import Matrix, _echelon, filtered_pivots
from call_counter import arguments_of, call_log, calls_into
from helpers import never_validated
from oracles import bareiss_rank
from reference_frolicher import reference_frolicher, transposed_row_pages
from test_acceptance import PROPERTY_CASES

NIL4 = """\
name = nil4
complex_dimension = 4
kind = lie_algebra
generators = a, b, c, e
d c = a ^ b
d e = a ^ c + (1/2+i) * b ^ conj(a)
"""

NIL5 = """\
name = nil5
complex_dimension = 5
kind = lie_algebra
generators = a, b, c, e, f
d c = a ^ b
d e = a ^ c + (1/2+i) * b ^ conj(a)
d f = a ^ b + b ^ conj(b)
"""

# ROADMAP item 1's dim-7 model without h.
DIM6 = """\
name = dim6
complex_dimension = 6
kind = lie_algebra
generators = a, b, c, e, f, g
d c = a ^ b
d e = a ^ c + (1/2+i) * b ^ conj(a)
d f = a ^ b + b ^ conj(b)
d g = a ^ conj(b) + b ^ conj(a)
"""

# (seed, window, size, with_sigma): 150 complexes, every fifth with a real
# structure, kept small enough that the subquotient route stays fast.
RANDOM_CASES = (
    [(s, (0, 2, 0, 2), 1 + s % 4, s % 5 == 0) for s in range(60)]
    + [(s + 100, (0, 3, 0, 3), 2 + s % 4, s % 5 == 0) for s in range(50)]
    + [(s + 200, (0, 4, 0, 4), 2 + s % 4, s % 5 == 0) for s in range(25)]
    + [(s + 300, (0, 5, 0, 5), 3 + s % 4, s % 5 == 0) for s in range(15)]
)


def flip(table):
    return {(q, p): v for (p, q), v in table.items()}


def assert_same_pages(a):
    for direction in ("column", "row"):
        assert frolicher(a, direction) == reference_frolicher(a, direction), direction


def test_rank_pages_match_subquotients_on_random_complexes():
    for seed, window, size, with_sigma in RANDOM_CASES:
        assert_same_pages(random_complex(seed, window, size, with_sigma=with_sigma))


def test_rank_pages_match_subquotients_on_models_and_zigzags():
    x = iwasawa()
    assert_same_pages(x.complex)
    assert_same_pages(blow_up(x, torus(1), 2).total)
    assert_same_pages(projective_bundle(x, 3)[0])
    for length in range(1, 8):
        assert_same_pages(zigzag((3, 0), length, "d2"))
        assert_same_pages(zigzag((0, 3), length, "d1"))


def model(text, name):
    return lie_algebra_model(parse_model_file(text, name)).complex


@pytest.mark.parametrize("build, calls", [
    (lambda: never_validated(iwasawa()), 0),
    (lambda: never_validated(lie_algebra_model(parse_model_file(NIL4, "nil4"))), 0),
    (lambda: never_validated(lie_algebra_model(parse_model_file(NIL5, "nil5"))), 6),
    (lambda: random_complex(314, (0, 5, 0, 5), 5), 0),  # the last of RANDOM_CASES
], ids=["iwasawa", "nil4", "nil5", "random314"])
def test_one_elimination_per_degree_and_column_cut(build, calls):
    """At most one call into the elimination kernel per nonzero total
    differential serves every column cut, every page and the de Rham ranks.
    Clearing and the level peel leave it nothing to eliminate on Iwasawa,
    nil4 and random314, and one core in six of nil5's eight degrees."""
    a = build()
    tot = Totalization(a)
    nonzero = [n for n in tot.degrees() if not tot.differential(n).is_zero()]
    # Calls into the elimination kernel, whatever name reached it.
    assert calls_into(linalg._echelon.__code__, frolicher, a) == calls <= len(nonzero)
    assert nonzero


def property_complexes():
    return [random_complex(seed, window, size, with_sigma=with_sigma)
            for seed, window, size, with_sigma in PROPERTY_CASES]


def test_row_pages_are_the_transposed_column_pages():
    """The row pages, computed on the complex's own Totalization with levels
    q, equal the column pages of the transposed complex flipped back, on the
    property suite, nil4 and nil5."""
    for a in property_complexes() + [model(NIL4, "nil4"), model(NIL5, "nil5")]:
        assert frolicher(a, "row") == transposed_row_pages(a)


def test_a_row_call_after_a_column_call_builds_no_second_totalization():
    a = model(NIL4, "nil4")
    frolicher(a, "column")
    codes = (Totalization.__init__.__code__, Analysis.__init__.__code__)
    assert call_log(codes, frolicher, a, "row") == []
    assert not hasattr(cohomology, "transpose_complex")


def filtration_levels(a, direction):
    """Degree -> the level of each coordinate of T^n: its component's p for
    the column filtration, q for the row one."""
    k = 0 if direction == "column" else 1
    return {n: [pq[k] for pq in parts for _ in range(a.dim(*pq))]
            for n, parts in Totalization(a).components.items()}


def level_pairs(pairs, levels, targets):
    return sorted((levels[j], targets[i]) for j, i in pairs)


def unpeeled_pairs(d, levels, targets):
    """The level pairs of the filtered forward pass on d's transpose, with
    no clearing and no peel, its columns put in order of target level."""
    order = sorted(range(d.rows), key=lambda i: (targets[i], i))
    index = {i: c for c, i in enumerate(order)}
    m = Matrix(d.cols, d.rows, {(j, index[i]): v for (i, j), v in d.entries.items()})
    pivots, _, rows = _echelon(m, levels)
    return sorted((levels[j], targets[order[c]]) for c, j in zip(pivots, rows))


def relabelled(tot, levels, rng):
    """Each T^n's coordinates in a seeded random order: degree -> (d_n,
    source levels), both relabelled."""
    perm = {n: rng.sample(range(len(lv)), len(lv)) for n, lv in levels.items()}
    out = {}
    for n, lv in levels.items():
        d, rows = tot.differential(n), perm.get(n + 1, [])
        moved = Matrix(d.rows, d.cols, {(rows[i], perm[n][j]): v for (i, j), v in d.entries.items()})
        source = [0] * len(lv)
        for j, level in enumerate(lv):
            source[perm[n][j]] = level
        out[n] = moved, source
    return out


def test_pairs_match_the_unpeeled_reduction_with_and_without_clearing():
    """filtered_pivots, which peels by level and clears the coordinates that
    the previous degree's pairs end at, gives every d_n the level pairs of
    the plain filtered reduction: both filtrations, on the property suite,
    nil4 and nil5, and again with every T^n's coordinates in a seeded
    random order."""
    rng = random.Random(2011)
    cleared_any = 0
    for a in property_complexes() + [model(NIL4, "nil4"), model(NIL5, "nil5")]:
        tot = Totalization(a)
        for direction in ("column", "row"):
            levels = filtration_levels(a, direction)
            want = {n: unpeeled_pairs(tot.differential(n), levels[n], levels.get(n + 1, []))
                    for n in levels}
            plain = {n: (tot.differential(n), levels[n]) for n in levels}
            for labelled in (plain, relabelled(tot, levels, rng)):
                hit = {}
                for n in tot.degrees():
                    d, source = labelled[n]
                    target = labelled[n + 1][1] if n + 1 in labelled else []
                    assert level_pairs(filtered_pivots(d, source, target), source, target) == want[n]
                    cleared = hit.pop(n, set())
                    pairs = filtered_pivots(d, source, target, cleared)
                    assert level_pairs(pairs, source, target) == want[n], (direction, n)
                    hit[n + 1] = {i for _, i in pairs}
                    cleared_any += len(cleared)
    assert cleared_any > 1000


def test_no_cleared_coordinate_reaches_the_kernel():
    """Each degree's reduction leaves out exactly the coordinates that the
    previous degree's pairs end at (the degrees of these complexes have no
    gap), and none of them is a row of a core handed to the kernel."""
    checked = 0
    for a in [model(NIL5, "nil5"), model(DIM6, "dim6")] + property_complexes()[-10:]:
        for direction in ("column", "row"):
            calls = call_log((filtered_pivots.__code__, _echelon.__code__), frolicher, a, direction)
            before, cleared = None, set()
            for name, args in calls:
                if name == "filtered_pivots":
                    want = set()
                    if before is not None:
                        want = {i for _, i in filtered_pivots(**before)}
                    assert set(args["cleared"]) == want
                    before, cleared = args, set(args["cleared"])
                else:
                    rows = {i for i, _ in args["m"].entries}
                    assert rows and not rows & cleared
                    checked += bool(cleared)
    assert checked > 10


def test_dim6_pages_and_core():
    """On the dim-6 model E1 is the Dolbeault table and the E_infinity
    totals are the Betti numbers; the level peel leaves it a core to
    eliminate, where nil4 peels to nothing."""
    a = model(DIM6, "dim6")
    betti = betti_vector(model(DIM6, "dim6"))
    assert calls_into(linalg._echelon.__code__, frolicher, a) > 0
    assert calls_into(linalg._echelon.__code__, frolicher, model(NIL4, "nil4")) == 0
    ss = frolicher(a)
    assert ss.page(1) == dict(dolbeault(a).entries)
    assert tuple(sum(v for (p, q), v in ss.e_infinity.items() if p + q == k)
                 for k in range(len(betti))) == betti


@pytest.mark.parametrize("text, name, bound", [(NIL5, "nil5", 2), (DIM6, "dim6", 4)],
                         ids=["nil5", "dim6"])
def test_frolicher_cores_keep_short_rows(text, name, bound, monkeypatch):
    """Over column and row Frolicher of a fresh model, no real or imaginary
    part of a forward-pass pivot row exceeds the bits measured with each
    row divided by the gcd of its ints after every step: 2 on nil5 and 4
    on dim6.  With Bareiss's divisor chain in its place they reached 9 and
    57, and with g = 1 in the row update, rather than a gcd of the pivot
    entry and the entry cleared, dim6 reaches 7."""
    kernel = linalg._echelon
    bits = 0

    def recording(m, levels=None):
        nonlocal bits
        result = kernel(m, levels)
        bits = max([bits] + [abs(x).bit_length() for row in result[1]
                             for v in row.values() for x in v])
        return result

    monkeypatch.setattr(linalg, "_echelon", recording)
    for direction in ("column", "row"):
        frolicher(model(text, name), direction)
    assert 0 < bits <= bound


def test_dim5_nilmanifold_pages():
    a = lie_algebra_model(parse_model_file(NIL5, "nil5")).complex
    # de_rham first, so that its ranks do not come from frolicher's.
    betti = betti_vector(a)
    column = frolicher(a, "column")
    row = frolicher(a, "row")

    assert column.page(1) == dict(dolbeault(a).entries)
    chi = euler_characteristic(a)
    prev = None
    for r, page in column.pages:
        assert chi == sum((-1) ** ((p + q) % 2) * v for (p, q), v in page.items()), r
        if prev is not None:
            assert all(v <= prev.get(pq, 0) for pq, v in page.items()), r
        prev = page
    assert tuple(
        sum(v for (p, q), v in column.e_infinity.items() if p + q == k)
        for k in range(len(betti))
    ) == betti

    # The real structure swaps the two filtrations.
    assert row.pages == tuple((r, flip(t)) for r, t in column.pages)
    assert row.degeneration_page == column.degeneration_page
    assert row.e_infinity == flip(column.e_infinity)


# -- degrees read off a held E1 table ---------------------------------------------


def with_held_tables(a):
    """a, validated, with its column, row and de Rham tables held: every
    degree whose pairs those fix is then read, not reduced."""
    validate(a)
    dolbeault(a), conjugate_dolbeault(a), de_rham(a)
    return a


def without_sigma(a):
    return DoubleComplex(a.dims, a.d1, a.d2)


def held_route_cases():
    """(name, build) pairs: the property suite, with and without sigma, and
    nil4, nil5 and Iwasawa, each as built (sigma and Serre record) and as a
    copy with neither."""
    models = {"nil4": lambda: model(NIL4, "nil4"), "nil5": lambda: model(NIL5, "nil5"),
              "iwasawa": lambda: iwasawa().complex}
    cases = [(f"random{seed}", lambda c=(seed, window, size, sigma):
              random_complex(c[0], c[1], c[2], with_sigma=c[3]))
             for seed, window, size, sigma in PROPERTY_CASES]
    for name, build in models.items():
        cases += [(name, build), (f"{name}-no-sigma", lambda b=build: without_sigma(b()))]
    return cases


def test_the_held_route_matches_a_fresh_copy_and_the_subquotients():
    """Frolicher after the tables, which reads the degrees whose pairs all
    have length 0, gives the pages of a fresh copy, which reduces every
    moving degree, and those of the subquotient construction, in both
    directions.  Page 1 is then partly read off the Dolbeault table itself,
    so the subquotient route is the independent check.  nil5 is compared
    with its fresh copy only: its subquotient route takes seconds."""
    read = 0
    for name, build in held_route_cases():
        for direction in ("column", "row"):
            a, fresh = with_held_tables(build()), frolicher(build(), direction)
            calls = calls_into(filtered_pivots.__code__, frolicher, a, direction)
            read += len(Totalization.of(a).moving) - calls
            assert frolicher(a, direction) == fresh, (name, direction)
            if not name.startswith("nil5"):
                assert fresh == reference_frolicher(build(), direction), (name, direction)
    assert read > 700


def length_zero_count(a, direction, n):
    """The pairs of d_n of length 0: the ranks of d2 (d1 for rows) out of
    the components of T^n, by fraction-free elimination."""
    blocks = a.d2 if direction == "column" else a.d1
    return sum(bareiss_rank([m.row(i) for i in range(m.rows)])
               for (p, q), m in blocks.items() if p + q == n)


def test_only_degrees_with_longer_pairs_are_reduced():
    """After the tables, `filtered_pivots` receives exactly the moving
    degrees whose rank exceeds their length-0 pair count, in increasing
    order: on the property suite, and on sigma copies of Iwasawa and nil4
    without the Serre record, whose upper degrees are then not mirrored."""
    copies = [DoubleComplex(b.dims, b.d1, b.d2, b.sigma)
              for b in (iwasawa().complex, model(NIL4, "nil4"))]
    read = 0
    for a in property_complexes() + copies:
        with_held_tables(a)
        tot = Totalization.of(a)
        for direction in ("column", "row"):
            want = [n for n in sorted(tot.moving)
                    if linalg.rank(tot.differential(n)) > length_zero_count(a, direction, n)]
            calls = arguments_of(filtered_pivots.__code__, frolicher, a, direction)
            assert [k for call in calls for k in sorted(tot.moving)
                    if tot.differential(k) is call["d"]] == want, direction
            read += len(tot.moving) - len(want)
    assert read > 700


def test_dots_and_squares_reduce_nothing_after_their_tables():
    """A sum of dots and squares has only pairs of length 0, so once its
    E1 table and de Rham ranks are held, Frolicher reads every degree:
    no call to `filtered_pivots` or the kernel, and E1 = E_infinity."""
    a, _ = direct_sum_many([dot(0, 0), square(0, 0), square(1, 0), dot(1, 1),
                            square(0, 1), square(1, 1), dot(2, 1), square(2, 2)])
    de_rham(a)
    for direction, table in (("column", dolbeault), ("row", conjugate_dolbeault)):
        assert calls_into(filtered_pivots.__code__, frolicher, a, direction) > 0
        table(a)
        codes = (filtered_pivots.__code__, _echelon.__code__)
        assert call_log(codes, frolicher, a, direction) == []
        ss = frolicher(a, direction)
        assert ss == reference_frolicher(a, direction)
        assert ss.degeneration_page == 1 and ss.page(1) == dict(table(a).entries)


def test_frolicher_never_ranks():
    """Frolicher reads its pairs from `filtered_pivots` or a held table, and
    never calls `linalg.rank`, before the tables or after them."""
    # The ten largest random complexes and the six model cases.
    for name, build in held_route_cases()[-16:]:
        for direction in ("column", "row"):
            for a in (build(), with_held_tables(build())):
                assert calls_into(linalg.rank.__code__, frolicher, a, direction) == 0, name
