import pytest

from bicomplex import (
    CodimensionTooSmall,
    InvalidRank,
    Morphism,
    aeppli,
    betti_vector,
    blow_up,
    bott_chern,
    conjugate_dolbeault,
    de_rham,
    dolbeault,
    dot,
    exceptional_consistency_check,
    induced_cohomology_map,
    is_E1_isomorphism,
    modification_summand_check,
    projective_bundle,
    projective_space,
    random_complex,
    serre_pairing_morphism,
    shift,
    validate,
)
from bicomplex.complexes import ZERO_COMPLEX
from bicomplex.geometry import as_complex
from bicomplex.linalg import rank
from helpers import is_injective

TABLE_FUNCS = (dolbeault, conjugate_dolbeault, de_rham, bott_chern, aeppli)


def shifted_sum(table_func, base, shifts):
    want = {}
    t = table_func(base)
    for i in shifts:
        for key, v in t.entries.items():
            moved = key + 2 * i if t.kind == "de_rham" else (key[0] + i, key[1] + i)
            want[moved] = want.get(moved, 0) + v
    return want


def test_projective_bundle_accepts_models(iwasawa_model):
    k1, _ = projective_bundle(iwasawa_model, 2)
    k2, _ = projective_bundle(iwasawa_model.complex, 2)
    assert k1 == k2


def test_projective_bundle_point_base():
    for n in (1, 2, 3):
        k, _ = projective_bundle(dot(0, 0), n)
        assert dict(dolbeault(k).entries) == dict(dolbeault(projective_space(n - 1).complex).entries)


def test_projective_bundle_torus_betti(torus1):
    k, _ = projective_bundle(torus1.complex, 2)
    assert betti_vector(k) == (1, 2, 2, 2, 1)


def test_projective_bundle_iwasawa_betti(iwasawa_model):
    k, _ = projective_bundle(iwasawa_model.complex, 2)
    b = betti_vector(k)
    assert b[2] == 8 + 1 == 9
    assert b[3] == 10 + 4 == 14


def test_projective_bundle_rejects_rank_zero(torus1):
    with pytest.raises(InvalidRank):
        projective_bundle(torus1.complex, 0)


def test_projective_bundle_inclusion_injective_on_dolbeault(iwasawa_model, torus2):
    for model in (iwasawa_model, torus2):
        k, incl = projective_bundle(model.complex, 3)
        assert validate(k) == []
        for m in induced_cohomology_map(incl, "dolbeault").values():
            assert rank(m) == m.cols


def test_blow_up_golden_tables(iwasawa_model, torus1):
    res = blow_up(iwasawa_model.complex, torus1.complex, 2)
    assert betti_vector(res.total) == (1, 4, 9, 12, 9, 4, 1)
    assert dolbeault(res.total).by_degree()[2] == (2, 3, 7)
    assert res.codimension == 2
    assert len(res.center_summands) == 1
    assert res.center_summands[0] == shift(torus1.complex, 1)
    assert is_injective(res.base_inclusion)


def test_blow_up_p2_at_a_point():
    res = blow_up(projective_space(2).complex, dot(0, 0), 2)
    assert betti_vector(res.total) == (1, 0, 2, 0, 1)


def test_blow_up_empty_center(iwasawa_model):
    res = blow_up(iwasawa_model.complex, ZERO_COMPLEX, 2)
    for func in TABLE_FUNCS:
        assert dict(func(res.total).entries) == dict(func(iwasawa_model.complex).entries)


def test_blow_up_codimension_guard(iwasawa_model, torus1):
    with pytest.raises(CodimensionTooSmall):
        blow_up(iwasawa_model.complex, torus1.complex, 1)


def test_blow_up_additivity_random():
    for seed in (0, 1):
        ax = random_complex(seed, (0, 3, 0, 3), 5)
        az = random_complex(seed + 5, (0, 2, 0, 2), 4)
        r = 3
        res = blow_up(ax, az, r)
        assert validate(res.total) == []
        for func in TABLE_FUNCS:
            want = dict(func(ax).entries)
            for key, v in shifted_sum(func, az, range(1, r)).items():
                want[key] = want.get(key, 0) + v
            assert dict(func(res.total).entries) == {k: v for k, v in want.items() if v}


def test_blow_up_total_is_direct_sum_blockwise(iwasawa_model, torus1):
    res = blow_up(iwasawa_model.complex, torus1.complex, 3)
    base = iwasawa_model.complex
    for pq, n in res.total.dims.items():
        parts = base.dim(*pq) + sum(s.dim(*pq) for s in res.center_summands)
        assert parts == n
    assert is_E1_isomorphism(Morphism.identity(res.total))
    assert modification_summand_check(base, res.total, res.base_inclusion)


def test_exceptional_consistency(torus1):
    assert exceptional_consistency_check(dot(0, 0), 3)
    assert exceptional_consistency_check(torus1.complex, 2)
    with pytest.raises(CodimensionTooSmall):
        exceptional_consistency_check(torus1.complex, 1)


def test_exceptional_consistency_on_random_centers():
    for seed in (0, 1, 2):
        a_z = random_complex(seed + 30, (0, 3, 0, 3), 4)
        for r in (2, 3, 4):
            assert exceptional_consistency_check(a_z, r), (seed, r)


def test_modification_summand_check_zero_fails(torus1):
    f = Morphism.zero(torus1.complex, torus1.complex)
    assert not modification_summand_check(torus1.complex, torus1.complex, f)


def test_modification_summand_check_serre(iwasawa_model):
    phi = serre_pairing_morphism(iwasawa_model)
    assert modification_summand_check(iwasawa_model.complex, phi.target, phi)


def test_modification_summand_check_refuses_other_endpoints(iwasawa_model, torus1):
    """The check answers for f, so a source or target other than f's own,
    as a complex or as a model carrying one, is an error, not a verdict."""
    phi = serre_pairing_morphism(iwasawa_model)
    assert modification_summand_check(iwasawa_model, phi.target, phi)
    with pytest.raises(ValueError, match="source"):
        modification_summand_check(torus1, phi.target, phi)
    with pytest.raises(ValueError, match="target"):
        modification_summand_check(iwasawa_model.complex, iwasawa_model.complex, phi)


def test_as_complex_type_error():
    with pytest.raises(TypeError):
        as_complex(42)
