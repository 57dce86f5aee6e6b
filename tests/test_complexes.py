import hashlib
import os
import subprocess
import sys
from fractions import Fraction
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
    blow_up,
    direct_sum,
    direct_sum_many,
    dolbeault,
    dot,
    dual,
    euler_characteristic,
    is_E1_isomorphism,
    iwasawa,
    projective_bundle,
    projective_space,
    quotient,
    random_complex,
    shift,
    square,
    tensor,
    torus,
    transpose_complex,
    validate,
    zigzag,
)
from bicomplex import complexes, linalg
from bicomplex.complexes import ZERO_COMPLEX
from bicomplex.linalg import Matrix
from bicomplex.scalars import gauss
from bicomplex.serialize import dumps_complex
from call_counter import calls_into
from helpers import is_injective
from reference_basis_change import reference_random_basis_change
from reference_quotient import reference_quotient
from test_acceptance import PROPERTY_CASES


def rescale(a: DoubleComplex, unit) -> DoubleComplex:
    """Conjugate by the diagonal family unit(p, q) * id (unit must be +-1)."""
    d1 = {pq: m.scale(unit(pq[0] + 1, pq[1]) * unit(*pq)) for pq, m in a.d1.items()}
    d2 = {pq: m.scale(unit(pq[0], pq[1] + 1) * unit(*pq)) for pq, m in a.d2.items()}
    sigma = None
    if a.sigma is not None:
        sigma = {pq: m.scale(unit(pq[1], pq[0]) * unit(*pq)) for pq, m in a.sigma.items()}
    return DoubleComplex(dict(a.dims), d1, d2, sigma, a.labels)


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


# A mis-shaped block of each map, on dims whose three targets differ in
# dimension, and the message that names the shape it was expected to have.
SHAPE_ERRORS = [
    ("d1", {(0, 0): Matrix.identity(1)}, "d1 block at (0, 0) is 1x1, expected 2x1"),
    ("d2", {(0, 0): Matrix.identity(1)}, "d2 block at (0, 0) is 1x1, expected 3x1"),
    ("sigma", {(1, 0): Matrix.identity(2)}, "sigma block at (1, 0) is 2x2, expected 3x2"),
]


def test_shape_errors_at_construction():
    dims = {(0, 0): 1, (1, 0): 2, (0, 1): 3}
    for kind, blocks, message in SHAPE_ERRORS:
        maps = {"d1": {}, "d2": {}, "sigma": {}} | {kind: blocks}
        with pytest.raises(ShapeError) as caught:
            DoubleComplex(dims, maps["d1"], maps["d2"], maps["sigma"])
        assert str(caught.value) == message
    with pytest.raises(ShapeError, match=r"^1 labels for dimension 2 at \(0, 0\)$"):
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
    assert is_injective(ia) and is_injective(ib)
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


def quotient_cases():
    """name -> injective morphism: the bundle inclusions over torus1, torus2
    and Iwasawa for r = 2..4, direct-sum inclusions of random complexes
    with and without a real structure, and an inclusion whose image sigma
    does not keep, all of them coordinate inclusions; scaled coordinate
    injections, entries 2, i and 1/2 on rows out of order and a bundle
    inclusion times i; and injections with two entries in a column: the
    block [1; 1] and the graphs a -> a + a of 2 and of 1 + 2i."""
    out = {}
    for name, base in (("torus1", torus(1)), ("torus2", torus(2)), ("iwasawa", iwasawa())):
        for r in (2, 3, 4):
            out[f"bundle {name} r={r}"] = projective_bundle(base, r)[1]
    for seed, sigma in ((11, False), (12, True), (13, False), (14, True)):
        a = random_complex(seed, (0, 3, 0, 3), 5, with_sigma=sigma)
        b = random_complex(seed + 50, (0, 3, 0, 3), 4, with_sigma=sigma)
        _, ia, ib = direct_sum(a, b)
        out[f"random{seed} first"] = ia
        out[f"random{seed} second"] = ib
    one = Matrix.identity(1)
    pair = DoubleComplex({(0, 1): 1, (1, 0): 1}, {}, {}, sigma={(0, 1): one, (1, 0): one})
    out["not sigma-stable"] = Morphism(dot(0, 1), pair, {(0, 1): one})
    three = DoubleComplex({(0, 0): 3}, {}, {})
    five = DoubleComplex({(0, 0): 5}, {}, {})
    scaled = Matrix(5, 3, {(3, 0): gauss(2), (0, 1): gauss(0, 1), (1, 2): gauss(Fraction(1, 2))})
    out["scaled 2, i, 1/2"] = Morphism(three, five, {(0, 0): scaled})
    bundle = projective_bundle(iwasawa(), 3)[1]
    out["bundle iwasawa r=3 times i"] = Morphism(
        bundle.source, bundle.target, {pq: m.scale(gauss(0, 1)) for pq, m in bundle.blocks.items()})
    two = DoubleComplex({(0, 0): 2}, {}, {})
    out["[1; 1]"] = Morphism(dot(0, 0), two, {(0, 0): Matrix.from_rows([[1], [1]])})
    for seed, sigma, c in ((15, True, gauss(2)), (16, False, gauss(1, 2))):
        a = random_complex(seed, (0, 3, 0, 3), 4, with_sigma=sigma)
        total, ia, ib = direct_sum(a, a)
        out[f"graph of {c} on random{seed}"] = Morphism(a, total, {
            pq: ia.block_at(*pq) + ib.block_at(*pq).scale(c) for pq in a.dims})
    return out


def is_coordinate(block: Matrix) -> bool:
    """One entry in each column, and no two in one row."""
    rows = [i for i, _ in block.entries]
    cols = [j for _, j in block.entries]
    return sorted(cols) == list(range(block.cols)) and len(set(rows)) == len(rows)


def test_quotient_matches_the_two_elimination_frame():
    """The one-RREF frame gives the quotient complex and the projection of
    the frame built by two eliminations, and the sigma verdict of a solve
    per bidegree, exactly."""
    kept = dropped = 0
    for name, f in quotient_cases().items():
        got, want = quotient(f), reference_quotient(f)
        assert got == want, name
        if f.target.sigma is not None:
            kept += got[0].sigma is not None
            dropped += got[0].sigma is None
    assert kept > 0 and dropped == 1


def test_quotient_eliminates_once_per_bidegree():
    """A coordinate inclusion is read with no elimination; any other block
    takes one."""
    coordinate = 0
    for name, f in quotient_cases().items():
        others = [pq for pq in f.target.dims if not is_coordinate(f.block_at(*pq))]
        coordinate += not others
        assert calls_into(linalg._echelon.__code__, quotient, f) == len(others), name
    assert 0 < coordinate < len(quotient_cases())


QUOTIENT_UNDER_O = """
from bicomplex import DoubleComplex, Matrix, Morphism, complexes, dot
assert False, "asserts are live"
# [1; 1] has two entries in its column, so it takes the elimination.
injection = Morphism(dot(0, 0), DoubleComplex({(0, 0): 2}, {}, {}),
                     {(0, 0): Matrix.from_rows([[1], [1]])})
# The true pivots with a zero right block: an inverse that inverts nothing.
rref = complexes.rref
complexes.rref = lambda m: (complexes.Matrix.zero(m.rows, m.cols), rref(m)[1])
try:
    complexes.quotient(injection)
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


def test_a_real_structure_reuses_each_inverted_change_of_basis(monkeypatch):
    """sigma's factor conj(C)^-1 is the stored C^-1 conjugated: every sigma
    case of the property suite equals the complex built by solving
    conj(C) X = I again.  C^-1 itself comes from C's triangular factors by
    substitution, with no `solve_columns` call."""
    cases = [case for case in PROPERTY_CASES if case[3]]
    assert len(cases) >= 10
    solve = linalg.solve_columns.__code__
    for seed, window, size, _ in cases:
        a = random_complex(seed, window, size, True)
        assert calls_into(solve, random_complex, seed, window, size, True) == 0
        with monkeypatch.context() as patch:
            patch.setattr(complexes, "_random_basis_change", reference_random_basis_change)
            old = random_complex(seed, window, size, True)
            assert calls_into(solve, random_complex, seed, window, size, True) == 2 * len(a.dims)
        assert a.sigma and a == old


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


# SHA-256 of dumps_complex for each construction that carries sigma, recorded
# while tensor, quotient and the random change of basis still built sigma in
# a loop of its own beside d1 and d2.
CONSTRUCTION_DIGESTS = {
    "tensor_iwasawa_p1": "46781adde22391c12be7dd3afbd21d4492cfdb15d17ac699f45d10c24ea2aaec",
    "tensor_random": "a5fce86fb11b13f4cde99995d0ff9f471ae315639c665008205910e2ccc6b427",
    "dual_iwasawa": "bfbd0af15a4de7ffea71343718ce9c54729113e9ff0cd809211fac0adb6b86b8",
    "bundle_quotient": "1ce557c9a667f53d43c5d27a048199e0c505afda32aedd68d1d007aad43b592a",
    "blow_up": "9a0ba40130cca94f41e12e528964045bf03c37397b7f3dd1c7d01ecfadd1cad9",
    "direct_sum_random": "dfb12f051a8612680ec0b300bbd12b06f990da310b29300a1fc4d353d2a65d53",
}


def test_constructions_with_sigma_serialize_as_recorded(iwasawa_model, torus1):
    iw = iwasawa_model.complex
    built = {
        "tensor_iwasawa_p1": tensor(iw, projective_space(1).complex),
        "tensor_random": tensor(random_complex(1, (0, 2, 0, 2), 2, with_sigma=True),
                                random_complex(2, (0, 2, 0, 2), 2, with_sigma=True)),
        "dual_iwasawa": dual(iw, 3),
        "bundle_quotient": quotient(projective_bundle(iw, 3)[1])[0],
        "blow_up": blow_up(iw, torus1.complex, 2).total,
        "direct_sum_random": direct_sum_many(
            [random_complex(3, (0, 2, 0, 2), 3, with_sigma=True),
             random_complex(4, (0, 3, 0, 3), 2, with_sigma=True)])[0],
    }
    assert built.keys() == CONSTRUCTION_DIGESTS.keys()
    for name, c in built.items():
        assert c.sigma, name
        digest = hashlib.sha256(dumps_complex(c).encode()).hexdigest()
        assert digest == CONSTRUCTION_DIGESTS[name], name


def test_random_complex_window_too_small():
    with pytest.raises(WindowTooSmall):
        random_complex(0, (2, 1, 0, 3), 5)


def test_random_complex_negative_size():
    with pytest.raises(ValueError, match="size must be at least 0, got -3"):
        random_complex(1, (0, 1, 0, 1), -3)


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
