"""The Serre rule: on a Lie-algebra model found valid whose Serre pairing
is a morphism, a rank is read from its Serre partner, and Frolicher
reduces only d_0 ... d_{n-1}.

`lie_algebra_model` writes the Serre record (None, n) exactly where no d1
or d2 block it built lands in (n, n).  That must agree with building the
pairing as a Morphism, on the presets and on seeded random structure
equations, and every table and page must equal the one of a copy built
separately and never validated, which ranks every block.  The
non-unimodular model `d b = a ^ b` validates, but its pairing is not a
morphism, and reading its ranks from Serre partners would give wrong
tables.
"""

from collections import Counter

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
from bicomplex import models
from bicomplex.cohomology import _KINDS, TABLES, Analysis
from bicomplex.complexes import DoubleComplex, MorphismError
from bicomplex.models import NotADifferential
from call_counter import arguments_of, calls_into
from helpers import never_validated, random_structure_equations
from test_cohomology import KIND_RULES
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


def mirror(key):
    """The sigma mirror of a rank key, written out per kind."""
    kind, p, q = key
    return {"d1": "d2", "d2": "d1"}.get(kind, kind), q, p


def serre_partner(key, n: int):
    """The Serre partner of a rank key on a model of complex dimension n,
    written out per kind."""
    kind, p, q = key
    return {"d1": ("d1", n - p - 1, n - q), "d2": ("d2", n - p, n - q - 1),
            "d1;d2": ("d1|d2", n - p, n - q), "d1|d2": ("d1;d2", n - p, n - q),
            "d1d2": ("d1d2", n - p - 1, n - q - 1)}[kind]


def composite(key, n: int):
    """The mirror of the Serre partner of a rank key."""
    return mirror(serre_partner(key, n))


def all_parts_stored(a, key) -> bool:
    """Whether every part of the block, written out per kind, is stored."""
    kind, p, q = key
    parts, _ = KIND_RULES[kind]
    return all((x, y) in (a.d1 if d == "d1" else a.d2) for d, x, y in parts(p, q))


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
    assert a._serre is None
    assert Analysis.of(a).partner() is None
    want = results(MODELS["solvable"]().complex, False)
    assert want["de_rham"].entries == {0: 1, 1: 2, 2: 1}
    assert results(a, False) == want
    b = MODELS["solvable"]().complex
    assert validate(b) == []
    assert results(b, True) == want


def lands_on_top(a, n: int) -> bool:
    """Whether a stored d1 or d2 block of a has its target at (n, n)."""
    return (any((p + 1, q) == (n, n) for p, q in a.d1)
            or any((p, q + 1) == (n, n) for p, q in a.d2))


@pytest.mark.parametrize("name", MODELS)
def test_the_check_agrees_with_building_the_pairing(name):
    """The record is written exactly where the pairing builds, and that is
    every model here but the non-unimodular one."""
    m = MODELS[name]()
    a, n = m.complex, m.top_index[0]
    holds = a._serre == (None, n)
    assert holds == pairing_builds(m) == (name != "solvable") == (not lands_on_top(a, n))
    assert a._serre == ((None, n) if holds else None)


def test_the_record_follows_the_top_bidegree_on_random_structure_equations():
    """On at least 200 seeded random models that build, n = 2 to 4,
    nilpotent, solvable and not unimodular: the record is written exactly
    where `serre_pairing_morphism` builds, and exactly where no d1 or d2
    block lands in (n, n).  A recorded model with n <= 3 gets the five
    tables and both page lists of a copy with neither a record nor a
    verdict, which ranks every block."""
    seen: Counter = Counter()
    compared = 0
    for seed in range(300):
        try:
            m = lie_algebra_model(parse_model_file(random_structure_equations(seed)))
        except NotADifferential:
            continue
        a, n = m.complex, m.top_index[0]
        assert a._serre in (None, (None, n)), seed
        recorded = a._serre is not None
        assert recorded == pairing_builds(m) == (not lands_on_top(a, n)), seed
        seen[n, recorded] += 1
        if recorded and n <= 3:
            plain = DoubleComplex(a.dims, a.d1, a.d2, a.sigma, a.labels)
            assert plain._serre is plain._violations is None
            assert results(a, False) == results(plain, False), seed
            compared += 1
    assert sum(seen.values()) >= 200 and compared >= 50
    assert all(seen[n, r] >= 10 for n in (2, 3, 4) for r in (False, True)), seen


@pytest.mark.parametrize("name", MODELS)
def test_the_serre_route_gives_the_never_validated_tables_and_pages(name):
    """With the pages before the tables or after them, so the total ranks
    are read from Frolicher's pairs or from `linalg.rank`, and each
    Frolicher direction runs with the memo filled or empty."""
    want = results(never_validated(MODELS[name]()), False)
    for pages_first in (False, True):
        a = MODELS[name]().complex
        assert validate(a) == []
        assert results(a, pages_first) == want


@pytest.mark.parametrize("name", ["nil4", "nil5", "iwasawa", "nakamura"])
def test_serre_partners_have_equal_ranks_on_the_checked_route(name):
    """On a copy never validated, which ranks every block, each stored rank
    equals the one stored for its Serre partner, and rank d_k equals
    rank d_{2n-1-k}."""
    a = never_validated(MODELS[name]())
    results(a, False)
    memo = Analysis.of(a)
    _, n = a._serre
    paired = mirrored = composed = 0
    for (kind, p, q), r in memo._ranks.items():
        other, dp, dq = _KINDS[kind].serre
        partner = memo._ranks.get((other, n - p + dp, n - q + dq))
        if partner is not None:
            assert partner == r, (kind, p, q)
            paired += 1
        mirror = memo._ranks.get((_KINDS[kind].mirror, q, p))
        if mirror is not None:
            assert mirror == r, (kind, p, q)
            mirrored += 1
        both = memo._ranks.get(composite((kind, p, q), n))
        if both is not None:
            assert both == r, (kind, p, q)
            composed += 1
    assert paired > len(memo._ranks) // 2
    assert mirrored > len(memo._ranks) // 2 and composed > len(memo._ranks) // 2
    for k, r in memo.total_ranks.items():
        assert memo.total_ranks.get(2 * n - 1 - k, 0) == r, k


def test_a_validated_model_reduces_only_the_lower_degrees():
    """Frolicher on a validated nil5 hands d_1 ... d_4 to `filtered_pivots`
    in each direction, and reads the rest from their Serre partners: d_0,
    which no stored block leaves, has no pair and is not reduced."""
    a = MODELS["nil5"]().complex
    assert validate(a) == []
    tot = Analysis.of(a).totalization
    for direction in ("column", "row"):
        calls = arguments_of(linalg.filtered_pivots.__code__, frolicher, a, direction)
        degrees = [k for call in calls for k in tot.degrees() if tot.differential(k) is call["d"]]
        assert degrees == [1, 2, 3, 4], direction


def test_a_build_computes_no_complement_map():
    """`lie_algebra_model` writes the record from two keys of its blocks:
    neither the build nor any table, page or transfer, on the model or its
    dual, computes the pairing's complement map."""
    pairing = models._serre_pairing.__code__
    assert calls_into(pairing, MODELS["nil4"]) == 0
    a = MODELS["nil4"]().complex
    assert a._serre == (None, 4) and validate(a) == []
    assert calls_into(pairing, results, a, False) == 0
    assert calls_into(pairing, results, dual(a, 4), True) == 0


def test_other_complexes_take_the_checked_route():
    """Only the complex `lie_algebra_model` built, and the dual of a
    complex found valid, carry a Serre record: a shifted, transposed,
    summed or reloaded copy does not, even when validated.  `partner`
    names only a model that is its own partner: a dual's record (a, n)
    is read by whole tables, and its ranks are its own."""
    a = MODELS["iwasawa"]().complex
    assert validate(a) == []
    copies = [shift(a, 0), transpose_complex(a), direct_sum(a, a)[0],
              loads_complex(dumps_complex(a))]
    for b in copies:
        assert validate(b) == []
        assert b._serre is None
        assert Analysis.of(b).partner() is None
    memo = Analysis.of(a)
    assert a._serre == (None, 3) and memo.partner() == 3
    d = dual(a, 3)
    assert d._serre[0] is a and Analysis.of(d).partner() is None


def lone_part(a, key) -> list:
    """The one stored part of a [d1; d2] or [d1 | d2] block that has
    exactly one, as a list of its key, written out per kind; [] for any
    other block."""
    kind, p, q = key
    if kind not in ("d1;d2", "d1|d2"):
        return []
    parts, _ = KIND_RULES[kind]
    stored = [part for part in parts(p, q) if part[1:] in (a.d1 if part[0] == "d1" else a.d2)]
    return stored if len(stored) == 1 else []


def test_the_orbit_is_the_written_out_rule():
    """On a validated nil5 the orbit of every key, over the support grown by
    one, is the key and its lone part, their mirrors, and the Serre partner
    of each of those, all on the model itself; the two maps commute, so
    the composite is also the partner of the mirror.  Never validated, the
    orbit is the key and its lone part."""
    a, plain = MODELS["nil5"]().complex, never_validated(MODELS["nil5"]())
    assert validate(a) == []
    memo, n = Analysis.of(a), a._serre[1]
    for kind in _KINDS:
        for p in range(-1, n + 2):
            for q in range(-1, n + 2):
                key = kind, p, q
                assert composite(key, n) == serre_partner(mirror(key), n)
                keys = [key] + lone_part(a, key)
                keys += [mirror(k) for k in keys]
                assert memo.orbit(*key) == keys + [serre_partner(k, n) for k in keys]
                unchecked = Analysis.of(plain)
                assert unchecked.orbit(*key) == [key] + lone_part(plain, key)


@pytest.mark.parametrize("name", ["nil5", "dim6"])
def test_a_rank_is_read_from_its_composite_partner(name):
    """A block whose only stored partner is the mirror of its Serre partner
    reads that rank, ranking nothing, and it is the rank a never-validated
    copy finds.  The ranks are stored before `validate`, one key per kind,
    each with its whole orbit unstored."""
    a, plain = never_validated(MODELS[name]()), never_validated(MODELS[name]())
    memo, n = Analysis.of(a), a._serre[1]
    chosen, used = [], set()
    for kind in _KINDS:
        for p, q in a.bidegrees():
            key = kind, p, q
            orbit = {key, mirror(key), serre_partner(key, n), composite(key, n)}
            if all_parts_stored(a, key) and len(orbit) == 4 and not orbit & used:
                chosen.append(key)
                used |= orbit
                break
    assert [kind for kind, _, _ in chosen] == list(_KINDS)
    for key in chosen:
        memo.rank(*key)
    assert set(memo._ranks) == set(chosen)
    assert validate(a) == []
    for key in chosen:
        other = composite(key, n)
        assert calls_into(linalg.rank.__code__, memo.rank, *other) == 0, key
        assert memo.rank(*other) == memo._ranks[key] == Analysis.of(plain).rank(*other), key


@pytest.mark.parametrize("name, ranked", [("nil4", 23), ("nil5", 37), ("dim6", 53)])
def test_the_five_tables_of_a_validated_model_rank_this_many_blocks(name, ranked):
    """The blocks `linalg.rank` gets for the five tables of a validated
    model, with the composite partners read and the zero d_0 not ranked."""
    a = MODELS[name]().complex
    assert validate(a) == []

    def five():
        for table in TABLES.values():
            table(a)

    assert calls_into(linalg.rank.__code__, five) == ranked
