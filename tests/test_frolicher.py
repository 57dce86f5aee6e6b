"""Frolicher pages: the rank formula against the subquotient construction,
its elimination count, and the pinned 1024-dimensional nilmanifold."""

import pytest

from bicomplex import (
    betti_vector,
    blow_up,
    dolbeault,
    euler_characteristic,
    frolicher,
    iwasawa,
    lie_algebra_model,
    parse_model_file,
    projective_bundle,
    random_complex,
    torus,
    zigzag,
)
from bicomplex import linalg
from bicomplex.cohomology import Totalization
from call_counter import calls_into
from reference_frolicher import reference_frolicher

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


@pytest.mark.parametrize("build", [
    lambda: iwasawa().complex,
    lambda: lie_algebra_model(parse_model_file(NIL4, "nil4")).complex,
    lambda: lie_algebra_model(parse_model_file(NIL5, "nil5")).complex,
    lambda: random_complex(314, (0, 5, 0, 5), 5),  # the last of RANDOM_CASES
], ids=["iwasawa", "nil4", "nil5", "random314"])
def test_one_elimination_per_degree_and_column_cut(build):
    """One elimination per nonzero total differential serves every column
    cut, every page and the de Rham ranks."""
    a = build()
    tot = Totalization(a)
    nonzero = [n for n in tot.degrees() if not tot.differential(n).is_zero()]
    # Calls into the elimination kernel, whatever name reached it.
    assert calls_into(linalg._echelon.__code__, frolicher, a) == len(nonzero) > 0


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
