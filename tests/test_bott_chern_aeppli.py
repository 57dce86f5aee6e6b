"""Bott-Chern and Aeppli: the rank formulas against the subquotient spaces
(`bott_chern_spaces` / `aeppli_spaces` with `subquotient_dim`), the
containment check on a complex that breaks the axioms, and a guard that
their products, and those of `validate`, multiply no scalars."""

import sys

import pytest

from bicomplex import (
    DoubleComplex,
    Matrix,
    NotASubspace,
    aeppli,
    blow_up,
    bott_chern,
    iwasawa,
    lie_algebra_model,
    parse_model_file,
    projective_bundle,
    random_complex,
    subquotient_dim,
    torus,
    validate,
    zigzag,
)
from bicomplex.cohomology import aeppli_spaces, bott_chern_spaces
from bicomplex.scalars import GaussianRational
from test_frolicher import NIL4

# (seed, window, size, with_sigma): 120 complexes, every fourth with a real
# structure, kept small enough that the subquotient route stays fast.
RANDOM_CASES = (
    [(s, (0, 2, 0, 2), 1 + s % 4, s % 4 == 0) for s in range(50)]
    + [(s + 100, (0, 3, 0, 3), 2 + s % 4, s % 4 == 0) for s in range(40)]
    + [(s + 200, (0, 4, 0, 4), 2 + s % 4, s % 4 == 0) for s in range(20)]
    + [(s + 300, (0, 5, 0, 5), 3 + s % 3, s % 4 == 0) for s in range(10)]
)


def assert_same_tables(a):
    for table, spaces in ((bott_chern, bott_chern_spaces), (aeppli, aeppli_spaces)):
        want = {pq: subquotient_dim(*spaces(a, *pq)) for pq in a.bidegrees()}
        assert table(a).entries == {pq: v for pq, v in want.items() if v}, table.__name__


def test_rank_tables_match_subquotients_on_random_complexes():
    for seed, window, size, with_sigma in RANDOM_CASES:
        assert_same_tables(random_complex(seed, window, size, with_sigma=with_sigma))


def test_rank_tables_match_subquotients_on_models_and_zigzags():
    x = iwasawa()
    assert_same_tables(x.complex)
    assert_same_tables(blow_up(x, torus(1), 2).total)
    assert_same_tables(projective_bundle(x, 3)[0])
    for length in range(1, 8):
        assert_same_tables(zigzag((3, 0), length, "d2"))
        assert_same_tables(zigzag((0, 3), length, "d1"))


def test_containment_failure_raises():
    """(0,0) -d1-> (1,0) -d2-> (1,1) -d1-> (2,1) -d2-> (2,2), every arrow 1:
    d1 d2 + d2 d1 is nonzero at (1,0), so im(d1 d2) into (2,1) leaves ker d2,
    and im d1 into (1,0) leaves ker(d1 d2)."""
    one = Matrix.from_rows([[1]])
    a = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1},
        {(0, 0): one, (1, 1): one},
        {(1, 0): one, (2, 1): one},
    )
    for table in (bott_chern, aeppli):
        with pytest.raises(NotASubspace):
            table(a)


def scalar_multiplications(fn, *args) -> int:
    """Calls of GaussianRational.__mul__ (and __rmul__) during fn(*args)."""
    code = GaussianRational.__mul__.__code__
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize("build", [
    lambda: lie_algebra_model(parse_model_file(NIL4, "nil4")).complex,
    lambda: random_complex(203, (0, 5, 0, 5), 19),
], ids=["nil4", "random203"])
def test_products_multiply_no_scalars(build):
    a = build()
    for fn in (validate, bott_chern, aeppli):
        assert scalar_multiplications(fn, a) == 0, fn.__name__
