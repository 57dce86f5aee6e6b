from math import comb

import pytest

from bicomplex import (
    InvalidDimension,
    Morphism,
    ModelSyntaxError,
    NoTopClass,
    NonQuadraticTerm,
    NotADifferential,
    UnknownGenerator,
    aeppli,
    betti_vector,
    bott_chern,
    conjugate_dolbeault,
    de_rham,
    dolbeault,
    format_model_spec,
    frolicher,
    is_E1_isomorphism,
    lie_algebra_model,
    parse_model_file,
    point,
    projective_space,
    serre_pairing_morphism,
    tensor,
    torus,
    validate,
)
from bicomplex.models import IWASAWA_SPEC, AlgebraModel, EquationTerm, ModelError, ModelSpec
from bicomplex.scalars import GaussianRational, ZERO, gauss
from bicomplex.complexes import DoubleComplex

import reference_models
from call_counter import calls_into
from oracles import iwasawa_oracle_tables
from test_frolicher import NIL4, NIL5

IWASAWA_FILE = """
# the standard nilmanifold example
name = iwasawa
complex_dimension = 3
kind = lie_algebra
generators = phi1, phi2, phi3
d phi3 = -1 * phi1 ^ phi2
"""


# -- parsing -------------------------------------------------------------------


def test_parse_iwasawa_file():
    spec = parse_model_file(IWASAWA_FILE)
    assert spec == IWASAWA_SPEC
    assert spec.generators == ("phi1", "phi2", "phi3")
    assert len(spec.equations) == 1


def test_parse_complex_coefficients_and_conj():
    text = """
complex_dimension = 2
kind = lie_algebra
generators = a, b
d b = (1/2+1/3i) * a ^ conj(a)
"""
    spec = parse_model_file(text)
    ((term,),) = (spec.equations["b"],)
    assert term.coeff.re.numerator == 1 and term.coeff.re.denominator == 2
    assert term.coeff.im.numerator == 1 and term.coeff.im.denominator == 3
    assert term.first == (0, 0) and term.second == (1, 0)


def test_parse_unknown_generator():
    text = IWASAWA_FILE.replace("phi1 ^ phi2", "phi9 ^ phi2")
    with pytest.raises(UnknownGenerator):
        parse_model_file(text)


def test_parse_non_quadratic():
    text = IWASAWA_FILE.replace("phi1 ^ phi2", "phi1")
    with pytest.raises(NonQuadraticTerm):
        parse_model_file(text)
    text = IWASAWA_FILE.replace("phi1 ^ phi2", "phi1 ^ phi2 ^ phi3")
    with pytest.raises(NonQuadraticTerm):
        parse_model_file(text)


def test_parse_syntax_errors_carry_positions():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model_file("complex_dimension = x\nkind = lie_algebra\ngenerators = a\n")
    assert exc.value.line == 1
    with pytest.raises(ModelSyntaxError):
        parse_model_file("nonsense line without equals\n")
    with pytest.raises(ModelSyntaxError):
        parse_model_file("complex_dimension = 1\nkind = nope\ngenerators = a\n")
    with pytest.raises(ModelSyntaxError):
        parse_model_file("complex_dimension = 2\nkind = lie_algebra\ngenerators = a\n")


def test_format_parse_roundtrip():
    specs = [
        IWASAWA_SPEC,
        ModelSpec("t2", 2, "lie_algebra", ("x", "y"), {}),
        ModelSpec(
            "mixed",
            2,
            "lie_algebra",
            ("x", "y"),
            {
                "y": (
                    EquationTerm(gauss(1, 2), (0, 0), (1, 0)),
                    EquationTerm(gauss(-1), (0, 0), (1, 1)),
                )
            },
        ),
        ModelSpec("proj", 2, "truncated_polynomial", ("t",), {}),
    ]
    for spec in specs:
        assert parse_model_file(format_model_spec(spec)) == spec


def generated_specs() -> list[ModelSpec]:
    """30 seeded lie_algebra specs of complex dimension 1 to 3, each equation
    a random sum of up to two canonical terms."""
    import random as _random
    from fractions import Fraction

    rng = _random.Random(123)
    specs = []
    for trial in range(30):
        n = rng.randint(1, 3)
        gens = tuple(f"g{i}" for i in range(n))
        equations = {}
        for gi, gen in enumerate(gens):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                letters = sorted(
                    rng.sample([(b, i) for b in (0, 1) for i in range(n)], 2)
                )
                coeff = gauss(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                )
                if coeff:
                    terms[tuple(letters)] = terms.get(tuple(letters), ZERO) + coeff
            built = tuple(
                EquationTerm(c, a, b) for (a, b), c in sorted(terms.items()) if c
            )
            if built:
                equations[gen] = built
        specs.append(ModelSpec(f"random{trial}", n, "lie_algebra", gens, equations))
    return specs


def test_format_parse_roundtrip_generated_specs():
    for spec in generated_specs():
        assert parse_model_file(format_model_spec(spec)) == spec


def test_zero_equation_parses():
    text = "complex_dimension = 1\nkind = lie_algebra\ngenerators = a\nd a = 0\n"
    spec = parse_model_file(text)
    assert spec.equations == {}


def test_truncated_polynomial_file_constraints():
    good = "complex_dimension = 2\nkind = truncated_polynomial\ngenerators = t\n"
    spec = parse_model_file(good)
    assert spec.kind == "truncated_polynomial"
    with pytest.raises(ModelSyntaxError):
        parse_model_file("complex_dimension = 2\nkind = truncated_polynomial\ngenerators = t, s\n")


# -- lie_algebra_model ----------------------------------------------------------


def test_zero_equations_give_torus(torus1):
    spec = parse_model_file("complex_dimension = 1\nkind = lie_algebra\ngenerators = a\n")
    model = lie_algebra_model(spec)
    t = dolbeault(model.complex)
    assert dict(t.entries) == {(p, q): 1 for p in (0, 1) for q in (0, 1)}
    assert dict(t.entries) == dict(dolbeault(torus1.complex).entries)


def test_iwasawa_model_shape(iwasawa_model):
    a = iwasawa_model.complex
    assert a.total_dim == 64
    for p in range(4):
        for q in range(4):
            assert a.dim(p, q) == comb(3, p) * comb(3, q)
    assert dolbeault(a).by_degree()[1] == (2, 3)
    assert validate(a) == []


def test_not_a_differential():
    text = """
complex_dimension = 2
kind = lie_algebra
generators = phi1, phi2
d phi2 = phi1 ^ conj(phi1)
d phi1 = phi2 ^ conj(phi2)
"""
    with pytest.raises(NotADifferential):
        lie_algebra_model(parse_model_file(text))


def test_zero_two_component_rejected():
    text = """
complex_dimension = 2
kind = lie_algebra
generators = phi1, phi2
d phi2 = conj(phi1) ^ conj(phi2)
"""
    with pytest.raises(NotADifferential):
        lie_algebra_model(parse_model_file(text))


def test_kodaira_thurston_surface_model():
    """db = a ^ conj(a): a valid non-Kahler surface model; its first Betti
    number is odd."""
    text = """
complex_dimension = 2
kind = lie_algebra
generators = a, b
d b = a ^ conj(a)
"""
    model = lie_algebra_model(parse_model_file(text))
    assert validate(model.complex) == []
    assert betti_vector(model.complex) == (1, 3, 4, 3, 1)
    assert frolicher(model.complex).degeneration_page == 1


def test_builders_have_sigma_and_symmetric_tables(presets):
    for name, model in presets.items():
        a = model.complex
        assert a.sigma is not None
        assert validate(a) == []
        dol, row = dolbeault(a), conjugate_dolbeault(a)
        for (p, q), v in dol.entries.items():
            assert row.at((q, p)) == v


def test_derivation_property_on_basis_pairs(iwasawa_model):
    """d1(x ^ y) = d1 x ^ y + (-1)^{deg x} x ^ d1 y on sampled basis pairs."""
    model = iwasawa_model
    a = model.complex

    def as_coords(pq, vec_dict):
        return {(pq, i): c for i, c in vec_dict.items() if c}

    def wedge_vector(pq1, coords1, pq2, i2):
        out = {}
        for (pq, i), c in coords1.items():
            target = (pq[0] + pq2[0], pq[1] + pq2[1])
            for j, c2 in model.product(pq, i, pq2, i2).items():
                key = (target, j)
                s = out.get(key, ZERO) + c * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    samples = [((1, 0), 2, (1, 1), 4), ((1, 0), 0, (0, 1), 0), ((2, 0), 1, (1, 1), 8),
               ((1, 1), 3, (1, 1), 7), ((0, 1), 2, (2, 1), 5)]
    for pq1, i1, pq2, i2 in samples:
        target = (pq1[0] + pq2[0], pq1[1] + pq2[1])
        prod = model.product(pq1, i1, pq2, i2)
        # left side: d1 applied to the wedge
        lhs = {}
        block = a.d1_at(*target)
        for j, c in prod.items():
            for (r, cc), v in block.entries.items():
                if cc == j:
                    key = ((target[0] + 1, target[1]), r)
                    s = lhs.get(key, ZERO) + v * c
                    if s:
                        lhs[key] = s
                    else:
                        lhs.pop(key, None)
        # right side: Leibniz
        bx = a.d1_at(*pq1)
        dx = {r: v for (r, cc), v in bx.entries.items() if cc == i1}
        rhs = wedge_vector((pq1[0] + 1, pq1[1]), as_coords((pq1[0] + 1, pq1[1]), dx), pq2, i2)
        sign = -1 if (pq1[0] + pq1[1]) % 2 else 1
        by = a.d1_at(*pq2)
        dy = {r: v for (r, cc), v in by.entries.items() if cc == i2}
        for j, c in dy.items():
            for k, c2 in model.product(pq1, i1, (pq2[0] + 1, pq2[1]), j).items():
                key = ((target[0] + 1, target[1]), k)
                s = rhs.get(key, ZERO) + (c * c2 * sign)
                if s:
                    rhs[key] = s
                else:
                    rhs.pop(key, None)
        assert lhs == rhs


def test_product_graded_commutative_and_top(iwasawa_model):
    model = iwasawa_model
    n = 3
    assert model.top_index == (n, n)
    assert model.complex.dim(n, n) == 1
    for pq1, i1, pq2, i2 in [((1, 0), 0, (0, 1), 2), ((1, 1), 4, (2, 0), 1), ((1, 0), 1, (1, 0), 2)]:
        ab = model.product(pq1, i1, pq2, i2)
        ba = model.product(pq2, i2, pq1, i1)
        sign = -1 if ((pq1[0] + pq1[1]) * (pq2[0] + pq2[1])) % 2 else 1
        assert ab == {k: v * sign for k, v in ba.items()}


# -- the mask builder against the word builder -------------------------------------

# The dim-7 nilmanifold, the largest model MAX_MODEL_BASIS admits.
DIM7 = """\
name = nil7
complex_dimension = 7
kind = lie_algebra
generators = a, b, c, e, f, g, h
d c = a ^ b
d e = a ^ c + (1/2+i) * b ^ conj(a)
d f = a ^ b + b ^ conj(b)
d g = a ^ conj(b) + b ^ conj(a)
d h = a ^ conj(a)
"""

LAMBDAS = ("1/2+i", "2-i", "1/3")

# One spec per identity the builder checks on the generators.
FAILING = {
    "d1 d1": "d e = a ^ b\nd b = c ^ e\n",
    "d2 d2": "d b = c ^ conj(c)\nd c = a ^ conj(a)\n",
    "d1 d2 + d2 d1": "d b = a ^ c\nd c = conj(a) ^ b\n",
}


def nil_specs(lam: str) -> list[ModelSpec]:
    return [parse_model_file(text.replace("(1/2+i)", f"({lam})"), name)
            for name, text in (("nil4", NIL4), ("nil5", NIL5))]


TORUS_SPECS = [ModelSpec(f"torus{n}", n, "lie_algebra", tuple(f"phi{i + 1}" for i in range(n)), {})
               for n in (1, 2, 3)]


def reference_cases() -> list[ModelSpec]:
    nils = [spec for lam in LAMBDAS for spec in nil_specs(lam)]
    return [IWASAWA_SPEC, *TORUS_SPECS, *nils, parse_model_file(DIM7), *generated_specs()]


def built_or_error(builder, spec):
    try:
        return builder(spec).complex
    except ModelError as e:
        return type(e).__name__, str(e)


def test_builder_matches_reference_word_builder():
    for spec in reference_cases():
        assert built_or_error(lie_algebra_model, spec) == built_or_error(
            reference_models.lie_algebra_model, spec), spec.name


def test_product_matches_reference_word_builder():
    """Also for a model given its monomials alone, which builds their index
    itself."""
    for spec in (IWASAWA_SPEC, ModelSpec("torus2", 2, "lie_algebra", ("phi1", "phi2"), {})):
        model = lie_algebra_model(spec)
        bare = AlgebraModel(model.complex, model.top_index, model.kind, model._monomials)
        ref = reference_models.lie_algebra_model(spec)
        basis = [(pq, i) for pq, n in model.complex.dims.items() for i in range(n)]
        for pq1, i1 in basis:
            for pq2, i2 in basis:
                assert model.product(pq1, i1, pq2, i2) == ref.product(pq1, i1, pq2, i2)
                assert bare.product(pq1, i1, pq2, i2) == ref.product(pq1, i1, pq2, i2)


@pytest.mark.parametrize("identity", FAILING)
def test_not_a_differential_text_matches_reference(identity):
    spec = parse_model_file("complex_dimension = 4\nkind = lie_algebra\n"
                            "generators = a, b, c, e\n" + FAILING[identity])
    got = built_or_error(lie_algebra_model, spec)
    assert got == built_or_error(reference_models.lie_algebra_model, spec)
    assert got == ("NotADifferential", f"{identity} is nonzero (witness: b)")


@pytest.mark.parametrize("lam", LAMBDAS)
def test_nilmanifold_build_multiplies_no_scalar(lam):
    """Every sign is read off bits: building the models multiplies no scalar."""
    for spec in nil_specs(lam):
        assert calls_into(GaussianRational.__mul__.__code__, lie_algebra_model, spec) == 0


# -- torus / projective space / point ----------------------------------------------


def test_torus_tables(torus1, torus2):
    t = dolbeault(torus1.complex)
    assert dict(t.entries) == {(p, q): 1 for p in (0, 1) for q in (0, 1)}
    for func in (conjugate_dolbeault, bott_chern, aeppli):
        assert dict(func(torus1.complex).entries) == dict(t.entries)
    assert betti_vector(torus2.complex) == (1, 4, 6, 4, 1)
    assert frolicher(torus2.complex).degeneration_page == 1
    binomials = {(p, q): comb(2, p) * comb(2, q) for p in range(3) for q in range(3)}
    for func in (dolbeault, conjugate_dolbeault, bott_chern, aeppli):
        assert dict(func(torus2.complex).entries) == binomials


def test_torus_rejects_nonpositive():
    with pytest.raises(InvalidDimension):
        torus(0)


def test_tensor_of_tori_matches_bigger_torus(torus1, torus2, torus3):
    tt = tensor(torus1.complex, torus2.complex)
    for func in (dolbeault, bott_chern, aeppli):
        assert dict(func(tt).entries) == dict(func(torus3.complex).entries)


def test_projective_space():
    p2 = projective_space(2)
    assert p2.complex.dims == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    assert betti_vector(p2.complex) == (1, 0, 1, 0, 1)
    assert p2.top_index == (2, 2)
    assert point().complex.dims == {(0, 0): 1}
    with pytest.raises(InvalidDimension):
        projective_space(-1)


def test_projective_space_quotient_example():
    from bicomplex import Matrix, quotient

    p2 = projective_space(2)
    incl = Morphism(point().complex, p2.complex, {(0, 0): Matrix.identity(1)})
    q, _ = quotient(incl)
    assert q.dims == {(1, 1): 1, (2, 2): 1}


# -- serre pairing ------------------------------------------------------------------


def test_serre_pairing_is_e1_iso_on_presets(presets):
    for name in ("torus1", "iwasawa", "p1", "p2"):
        phi = serre_pairing_morphism(presets[name])
        assert is_E1_isomorphism(phi), name


def test_serre_pairing_matches_reference_double_loop(presets):
    """The complement-mask pairing equals the top coefficient of every pair
    of basis elements, on every preset and on nil4 and nil5."""
    specs = {s.name: s for s in (IWASAWA_SPEC, *TORUS_SPECS, *nil_specs(LAMBDAS[0]))}
    models = {**presets, **{s.name: lie_algebra_model(s) for s in nil_specs(LAMBDAS[0])}}
    assert sorted(models) == ["iwasawa", "nil4", "nil5", "p1", "p2", "p3", "point",
                              "torus1", "torus2", "torus3"]
    for name, model in models.items():
        if name in specs:
            ref = reference_models.lie_algebra_model(specs[name])
        else:
            ref = reference_models.AlgebraModel(model.complex, model.top_index, model.kind,
                                                truncation=model.top_index[0])
        assert serre_pairing_morphism(model) == reference_models.serre_pairing_morphism(ref), name


def test_serre_pairing_p2_middle_block():
    phi = serre_pairing_morphism(projective_space(2))
    block = phi.block_at(1, 1)
    assert block.rows == block.cols == 1
    assert block.entries[(0, 0)]


def test_serre_pairing_needs_top_class():
    bare = AlgebraModel(
        DoubleComplex({(1, 1): 2}, {}, {}), (1, 1), "truncated_polynomial", truncation=1
    )
    with pytest.raises(NoTopClass):
        serre_pairing_morphism(bare)


def test_serre_pairing_names_a_product_with_no_top_coefficient():
    """A truncation below the top index makes the product of (0,0) and
    (1,1) miss (1,1): NoTopClass names that pair of bidegrees."""
    short = AlgebraModel(DoubleComplex({(0, 0): 1, (1, 1): 1}, {}, {}), (1, 1),
                         "truncated_polynomial", truncation=0)
    with pytest.raises(NoTopClass, match=r"product of \(0,0\) and \(1,1\)"):
        serre_pairing_morphism(short)


# -- the brute-force oracle ----------------------------------------------------------


def test_iwasawa_tables_match_independent_oracle(iwasawa_model):
    dol_o, bc_o, aep_o, betti_o = iwasawa_oracle_tables()
    a = iwasawa_model.complex
    assert dict(dolbeault(a).entries) == dol_o
    assert dict(bott_chern(a).entries) == bc_o
    assert dict(aeppli(a).entries) == aep_o
    assert dict(de_rham(a).entries) == betti_o
