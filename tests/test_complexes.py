import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bicomplex import (
    DoubleComplex,
    Morphism,
    MorphismError,
    NotInjective,
    ShapeError,
    WindowTooSmall,
    betti_vector,
    direct_sum,
    direct_sum_many,
    dolbeault,
    dot,
    dual,
    euler_characteristic,
    is_E1_isomorphism,
    quotient,
    random_complex,
    shift,
    square,
    tensor,
    transpose_complex,
    validate,
    zigzag,
)
from bicomplex.complexes import ZERO_COMPLEX, rescale
from bicomplex.linalg import Matrix
from bicomplex.serialize import dumps_complex


def same_core(a, b, with_sigma=True):
    ok = a.dims == b.dims and a.d1 == b.d1 and a.d2 == b.d2
    if with_sigma:
        ok = ok and a.sigma == b.sigma
    return ok


# -- validate -------------------------------------------------------------------


def test_validate_square_is_empty():
    assert validate(square(0, 0)) == []


def test_validate_flipped_sign_square():
    bad = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        {(0, 0): Matrix.identity(1), (0, 1): Matrix.identity(1)},  # top edge +1, not -1
        {(0, 0): Matrix.identity(1), (1, 0): Matrix.identity(1)},
    )
    violations = validate(bad)
    assert len(violations) == 1
    assert violations[0].identity == "d1 d2 + d2 d1 != 0"
    assert (violations[0].p, violations[0].q) == (0, 0)


def test_validate_iwasawa(iwasawa_model):
    assert validate(iwasawa_model.complex) == []


def test_shape_errors_at_construction():
    with pytest.raises(ShapeError):
        DoubleComplex({(0, 0): 1}, {(0, 0): Matrix.identity(1)}, {})
    with pytest.raises(ShapeError):
        DoubleComplex({(0, 0): 2}, {}, {}, labels={(0, 0): ("x",)})


# -- shift ----------------------------------------------------------------------


def test_shift_zero_is_identity(iwasawa_model):
    assert shift(iwasawa_model.complex, 0) == iwasawa_model.complex


def test_shift_dot():
    assert shift(dot(0, 0), 1).dims == {(1, 1): 1}


def test_shift_roundtrip_random():
    for seed in range(5):
        a = random_complex(seed, (0, 3, 0, 3), 6)
        assert shift(shift(a, 2), -2) == a


# -- direct sum -------------------------------------------------------------------


def test_direct_sum_with_zero():
    a = square(0, 0)
    total, ia, ib = direct_sum(a, ZERO_COMPLEX)
    assert same_core(total, a, with_sigma=False)
    assert ia.blocks == Morphism.identity(a).blocks


def test_direct_sum_dots():
    total, _, _ = direct_sum(dot(0, 0), dot(1, 1))
    assert total.dims == {(0, 0): 1, (1, 1): 1}


def test_direct_sum_inclusions_are_morphisms():
    a = random_complex(3, (0, 2, 0, 2), 4)
    b = random_complex(4, (0, 2, 0, 2), 4)
    total, ia, ib = direct_sum(a, b)
    assert validate(total) == []
    assert ia.is_injective() and ib.is_injective()
    for pq, n in total.dims.items():
        assert a.dim(*pq) + b.dim(*pq) == n


def test_direct_sum_iwasawa_torus_shift_betti(iwasawa_model, torus1):
    total, _, _ = direct_sum(iwasawa_model.complex, shift(torus1.complex, 1))
    assert betti_vector(total) == (1, 4, 9, 12, 9, 4, 1)


# -- tensor -----------------------------------------------------------------------


def test_tensor_unit():
    a = random_complex(5, (0, 2, 0, 2), 4)
    assert same_core(tensor(a, dot(0, 0)), a, with_sigma=False)
    assert same_core(tensor(dot(0, 0), a), a, with_sigma=False)


def test_tensor_dots():
    assert tensor(dot(1, 0), dot(0, 1)).dims == {(1, 1): 1}


def test_tensor_torus_is_torus(torus1, torus2):
    tt = tensor(torus1.complex, torus1.complex)
    assert validate(tt) == []
    assert dict(dolbeault(tt).entries) == dict(dolbeault(torus2.complex).entries)
    assert betti_vector(tt) == betti_vector(torus2.complex)


def test_tensor_validates_and_multiplies_euler():
    for seed in (0, 1):
        a = random_complex(seed, (0, 2, 0, 2), 3)
        b = random_complex(seed + 10, (0, 1, 0, 2), 3)
        ab = tensor(a, b)
        assert validate(ab) == []
        assert euler_characteristic(ab) == euler_characteristic(a) * euler_characteristic(b)


def test_tensor_sigma_presence(torus1):
    with_sigma = tensor(torus1.complex, torus1.complex)
    assert with_sigma.sigma is not None
    mixed = tensor(torus1.complex, dot(0, 0))
    assert mixed.sigma is None


# -- dual -------------------------------------------------------------------------


def test_dual_dot():
    assert dual(dot(0, 0), 1).dims == {(1, 1): 1}


def test_dual_square_index_arithmetic():
    d = dual(square(0, 0), 2)
    assert set(d.dims) == {(1, 1), (2, 1), (1, 2), (2, 2)}
    assert validate(d) == []


def test_double_dual_roundtrip():
    for seed in range(4):
        a = random_complex(seed, (0, 3, 0, 3), 6, with_sigma=(seed % 2 == 0))
        dd = dual(dual(a, 3), 3)
        back = rescale(dd, lambda p, q: -1 if (p + q) % 2 else 1)
        assert same_core(back, a)


def test_dual_validates_with_sigma(iwasawa_model):
    d = dual(iwasawa_model.complex, 3)
    assert validate(d) == []
    assert d.sigma is not None


# -- quotient ----------------------------------------------------------------------


def test_quotient_by_identity_is_zero(torus1):
    q, proj = quotient(Morphism.identity(torus1.complex))
    assert q.is_zero()
    assert all(m.is_zero() for m in proj.blocks.values())


def test_quotient_of_summand_inclusion():
    total, ia, ib = direct_sum(dot(0, 0), dot(1, 1))
    q, proj = quotient(ia)
    assert q.dims == {(1, 1): 1}
    composed = proj @ ia
    assert all(m.is_zero() for m in composed.blocks.values())


def test_quotient_dimension_additivity():
    a = random_complex(6, (0, 2, 0, 2), 4)
    total, ia, _ = direct_sum(a, random_complex(7, (0, 2, 0, 2), 4))
    q, _ = quotient(ia)
    for pq in total.dims:
        assert a.dim(*pq) + q.dim(*pq) == total.dim(*pq)


def test_quotient_not_injective():
    f = Morphism.zero(dot(0, 0), dot(0, 0))
    with pytest.raises(NotInjective) as exc:
        quotient(f)
    assert exc.value.bidegree == (0, 0)


QUOTIENT_UNDER_O = """
from bicomplex import complexes, direct_sum, dot
assert False, "asserts are live"
_, inclusion, _ = direct_sum(dot(0, 0), dot(1, 1))
complexes.solve_columns = lambda a, rhs: None
try:
    complexes.quotient(inclusion)
except RuntimeError as error:
    print(error)
"""


def test_quotient_singular_frame_raises_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-O", "-c", QUOTIENT_UNDER_O],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "quotient: the frame at bidegree (0, 0) is not invertible\n"


# -- E1-isomorphism -----------------------------------------------------------------


def test_identity_is_e1_iso(iwasawa_model):
    report = is_E1_isomorphism(Morphism.identity(iwasawa_model.complex))
    assert report
    assert report.failing() is None


def test_zero_between_dots_is_not():
    report = is_E1_isomorphism(Morphism.zero(dot(0, 0), dot(0, 0)))
    assert not report
    w = report.failing()
    assert (w.p, w.q) == (0, 0) and w.rank == 0


def test_inclusion_into_sum_with_square_is_e1_iso():
    a = random_complex(8, (0, 2, 0, 2), 4)
    total, ia, _ = direct_sum(a, square(1, 1))
    assert is_E1_isomorphism(ia)
    # squares are column-acyclic
    assert not dolbeault(square(1, 1)).entries


def test_morphism_validation_is_hard():
    a = zigzag((0, 0), 2, "d1")  # dot(0,0) -> dot(1,0), d1 identity
    b = dot(0, 0)
    with pytest.raises(MorphismError):
        Morphism(b, a, {(0, 0): Matrix.identity(1)})


# -- zigzags and random complexes ----------------------------------------------------


def test_zigzag_shapes_are_valid():
    for length in range(1, 6):
        for first in ("d1", "d2"):
            z = zigzag((0, 5), length, first) if first == "d2" else zigzag((0, 0), length, first)
            assert validate(z) == []
            assert z.total_dim == length


def test_horizontal_zigzag_cohomology():
    z = zigzag((0, 0), 2, "d1")
    assert z.dims == {(0, 0): 1, (1, 0): 1}
    assert not dolbeault(transpose_complex(z)).entries  # vertical pair is column-acyclic
    assert betti_vector(z) == ()


def test_random_complex_is_valid_and_deterministic():
    for seed in range(10):
        a = random_complex(seed, (0, 3, 0, 3), 7)
        assert validate(a) == []
        assert a == random_complex(seed, (0, 3, 0, 3), 7)


def test_random_complex_sigma_instances():
    for seed in range(5):
        a = random_complex(seed, (0, 3, 0, 3), 4, with_sigma=True)
        assert a.sigma is not None
        assert validate(a) == []


# SHA-256 of dumps_complex, recorded when random_complex still placed sigma
# by re-deriving direct_sum_many's offsets; (seed, window, size) -> digest.
SIGMA_DIGESTS = {
    (0, (0, 2, 0, 2), 0): "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    (1, (0, 2, 0, 2), 1): "ab2e89d5ace75008139ce45a7d39a5781b4f36fcd0009d73e515ae8566a2da96",
    (2, (0, 2, 0, 2), 2): "a9979522473b775da13110019fafe34cef3aea36edbb04599482ed0e856e6d71",
    (3, (0, 2, 0, 2), 3): "b9ac49b969b7f6782d6b9a393d02c522aa7e916ea44add3d464270e226f80e8e",
    (10, (0, 3, 0, 3), 4): "0d3be7a52fe4fac72c40f8c7b89151541c969b80ac0abc779e8fffeb94ecaed6",
    (11, (0, 3, 0, 3), 5): "9be9ecb112d45a83da3aa8b98ef60e57dde4084c33fe43a9ff9ec30a93082dc6",
    (12, (0, 3, 0, 3), 2): "ab2224307d75b78c7e6e685d2afcac4aba3fdc85c9a3a7aed2f8d0980ddc57a5",
    (13, (0, 3, 0, 3), 3): "a8707b8f06e66edf10d393af16385ecc9541a78d67163a654c5e693f2d17107a",
    (200, (0, 5, 0, 5), 4): "f94358cd78e1df58e2792d585983a1ccb5f9457f677582fb6712fb4ffe1c1dc3",
    (201, (0, 5, 0, 5), 5): "de54b550d489cc0398cac7ce86c825fa2e8477cb01f365ab6d4303220e6b7bdc",
    (202, (0, 5, 0, 5), 6): "cfc9577616846439dac44baa89b1b1bccbf0789e3ae804745a9a26df1b814b25",
    (203, (0, 5, 0, 5), 7): "80859e7d19dd76a57f66adb559449fe12c0c47441075558e248d1f35232edb47",
    (31, (-1, 3, 0, 4), 5): "864acf786ed827984dcf1d6d59b81565f39a0125f1fb0ab4c00cc3302d7649f8",
    (32, (-1, 3, 0, 4), 5): "bfce4c64d38ce9dc20a9a94b3817e3d9b7e374df4e502f01d04df051dc506c94",
}


def test_random_complex_sigma_serializes_as_recorded():
    for (seed, window, size), digest in SIGMA_DIGESTS.items():
        text = dumps_complex(random_complex(seed, window, size, with_sigma=True))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (seed, window, size)


def test_random_complex_window_too_small():
    with pytest.raises(WindowTooSmall):
        random_complex(0, (2, 1, 0, 3), 5)


def test_direct_sum_many_matches_pairwise():
    parts = [dot(0, 0), square(0, 0), dot(1, 1)]
    total, incls = direct_sum_many(parts)
    step1, i01, _ = direct_sum(parts[0], parts[1])
    step2, _, _ = direct_sum(step1, parts[2])
    assert same_core(total, step2, with_sigma=False)
    assert len(incls) == 3


def test_euler_characteristic_values(iwasawa_model):
    assert euler_characteristic(dot(1, 0)) == -1
    assert euler_characteristic(iwasawa_model.complex) == 0
    b = betti_vector(iwasawa_model.complex)
    assert sum((-1) ** k * v for k, v in enumerate(b)) == 0
