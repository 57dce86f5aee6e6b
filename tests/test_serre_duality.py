"""The Serre rule: on a Lie-algebra model found valid whose Serre pairing
checks, a rank is read from its Serre partner, and Frolicher reduces only
d_0 ... d_{n-1}.

The check (`cohomology._serre_pairing_holds`) must agree with building the
pairing as a Morphism, and every table and page must equal the one of a
copy built separately and never validated, which ranks every block.  The
non-unimodular model `d b = a ^ b` validates, but its pairing is not a
morphism, and reading its ranks from Serre partners would give wrong
tables.
"""

import pytest

from bicomplex import (
    direct_sum,
    dual,
    dumps_complex,
    frolicher,
    iwasawa,
    lie_algebra_model,
    linalg,
    loads_complex,
    parse_model_file,
    serre_pairing_morphism,
    shift,
    torus,
    transpose_complex,
    validate,
)
from bicomplex import cohomology
from bicomplex.cohomology import _SERRE, TABLES, Analysis
from bicomplex.complexes import MorphismError
from call_counter import arguments_of, calls_into
from test_frolicher import DIM6, NIL4, NIL5

# Solvable and not unimodular: validate finds it valid, but its pairing is
# not a morphism.
SOLVABLE = """\
name = solvable
complex_dimension = 2
kind = lie_algebra
generators = a, b
d b = a ^ b
"""

# The complex parallelizable Nakamura structure: solvable and unimodular.
NAKAMURA = """\
name = nakamura
complex_dimension = 3
kind = lie_algebra
generators = a, b, c
d b = a ^ b
d c = -1 * a ^ c
"""


def model(text: str, name: str):
    return lambda: lie_algebra_model(parse_model_file(text, name))


MODELS = {
    "nil4": model(NIL4, "nil4"),
    "nil5": model(NIL5, "nil5"),
    "iwasawa": iwasawa,
    "dim6": model(DIM6, "dim6"),
    "torus1": lambda: torus(1),
    "torus2": lambda: torus(2),
    "solvable": model(SOLVABLE, "solvable"),
    "nakamura": model(NAKAMURA, "nakamura"),
}


def pairing_builds(m) -> bool:
    try:
        serre_pairing_morphism(m)
    except MorphismError:
        return False
    return True


def results(a, pages_first: bool) -> dict:
    """The five tables and both page lists of a, the pages first or last."""
    out = {}
    order = [("column", "row"), tuple(TABLES)]
    for part in order if pages_first else reversed(order):
        for name in part:
            out[name] = frolicher(a, name) if name in ("column", "row") else TABLES[name](a)
    return out


def test_a_non_unimodular_model_reads_no_serre_partner():
    m = MODELS["solvable"]()
    a = m.complex
    assert validate(a) == []
    with pytest.raises(MorphismError):
        serre_pairing_morphism(m)
    memo = Analysis.of(a)
    assert memo.serre_dimension() == 2
    assert not memo.serre_holds()
    want = results(MODELS["solvable"]().complex, False)
    assert want["de_rham"].entries == {0: 1, 1: 2, 2: 1}
    assert results(a, False) == want
    b = MODELS["solvable"]().complex
    assert validate(b) == []
    assert results(b, True) == want


@pytest.mark.parametrize("name", MODELS)
def test_the_check_agrees_with_building_the_pairing(name):
    m = MODELS[name]()
    assert cohomology._serre_pairing_holds(m.complex) == pairing_builds(m)
    assert pairing_builds(m) == (name != "solvable")


@pytest.mark.parametrize("name", MODELS)
def test_the_serre_route_gives_the_never_validated_tables_and_pages(name):
    """With the pages before the tables or after them, so the total ranks
    are read from Frolicher's pairs or from `linalg.rank`, and each
    Frolicher direction runs with the memo filled or empty."""
    want = results(MODELS[name]().complex, False)
    for pages_first in (False, True):
        a = MODELS[name]().complex
        assert validate(a) == []
        assert results(a, pages_first) == want


@pytest.mark.parametrize("name", ["nil4", "nil5", "iwasawa", "nakamura"])
def test_serre_partners_have_equal_ranks_on_the_checked_route(name):
    """On a copy never validated, which ranks every block, each stored rank
    equals the one stored for its Serre partner, and rank d_k equals
    rank d_{2n-1-k}."""
    a = MODELS[name]().complex
    results(a, False)
    memo = Analysis.of(a)
    n = a._serre[0]
    paired = 0
    for (kind, p, q), r in memo._ranks.items():
        other, dp, dq = _SERRE[kind]
        partner = memo._ranks.get((other, n - p + dp, n - q + dq))
        if partner is not None:
            assert partner == r, (kind, p, q)
            paired += 1
    assert paired > len(memo._ranks) // 2
    for k, r in memo.total_ranks.items():
        assert memo.total_ranks.get(2 * n - 1 - k, 0) == r, k


def test_a_validated_model_reduces_only_the_lower_degrees():
    """Frolicher on a validated nil5 hands d_0 ... d_4 to `filtered_pivots`
    in each direction, and reads the rest from their Serre partners."""
    a = MODELS["nil5"]().complex
    assert validate(a) == []
    tot = Analysis.of(a).totalization
    for direction in ("column", "row"):
        calls = arguments_of(linalg.filtered_pivots.__code__, frolicher, a, direction)
        degrees = [k for call in calls for k in tot.degrees() if tot.differential(k) is call["d"]]
        assert degrees == [0, 1, 2, 3, 4], direction


def test_the_check_runs_once_and_only_when_a_transfer_would_serve():
    check = cohomology._serre_pairing_holds.__code__
    assert calls_into(check, MODELS["nil4"]) == 0
    a = MODELS["nil4"]().complex
    assert validate(a) == []
    assert calls_into(check, results, a, False) == 1
    assert calls_into(check, results, MODELS["nil4"]().complex, False) == 0


def test_other_complexes_take_the_checked_route():
    """Only the complex `lie_algebra_model` built carries what the check
    needs: a shifted, transposed, dual, summed or reloaded copy does not,
    even when validated."""
    a = MODELS["iwasawa"]().complex
    assert validate(a) == []
    copies = [shift(a, 0), transpose_complex(a), dual(a, 3), direct_sum(a, a)[0],
              loads_complex(dumps_complex(a))]
    for b in copies:
        assert validate(b) == []
        assert b._serre is None
        assert Analysis.of(b).serre_dimension() is None
    assert Analysis.of(a).serre_dimension() == 3
