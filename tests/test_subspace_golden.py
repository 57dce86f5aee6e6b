"""Pinned subspace outputs: the SHA-256 of every induced cohomology map and
E1 witness of a fixed set of morphisms, and of kernels, images, sums,
intersections and canonical spans of a seeded pool of Gaussian matrices.

Matrices are digested through `entries`, so what is pinned is each entry's
value and position, not how a Matrix stores them.  A change to a coset
choice, a basis order or a canonical form fails here even where the tables
stay the same.  To see what changed, print `_matrix_text` of the failing
case at this commit and at the last one that passed, and diff the two.
"""

import hashlib
import random
from fractions import Fraction

from bicomplex import (
    direct_sum,
    induced_cohomology_map,
    is_E1_isomorphism,
    iwasawa,
    projective_bundle,
    quotient,
    random_complex,
    serre_pairing_morphism,
    torus,
)
from bicomplex import linalg
from bicomplex.linalg import (
    Matrix,
    canonical_span,
    image_basis,
    kernel_basis,
)
from bicomplex.scalars import gauss
from reference_subquotients import subspace_intersection, subspace_sum

KINDS = ("dolbeault", "conjugate_dolbeault", "bott_chern", "aeppli", "de_rham")


def _matrix_text(m: Matrix) -> str:
    entries = sorted(m.entries.items())
    return f"{m.rows}x{m.cols}:" + ";".join(
        f"{i},{j}={v.re},{v.im}" for (i, j), v in entries)


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _columns(space) -> Matrix:
    """The matrix of basis columns of a subspace.  Subspaces were once
    returned as a `Basis` of vectors; reading that form too keeps these
    digests comparable across the change."""
    if isinstance(space, Matrix):
        return space
    return Matrix.from_columns(space.vectors, space.ambient_dim)


def _canonical_span(m: Matrix):
    if hasattr(linalg, "Basis"):
        return canonical_span([m.column(j) for j in range(m.cols)], m.rows)
    return canonical_span(m)


def morphisms():
    """name -> morphism: the Iwasawa Serre pairing, a projective-bundle
    inclusion and its quotient projection, and direct-sum inclusions of
    random complexes with and without a real structure."""
    out = {"serre_iwasawa": serre_pairing_morphism(iwasawa())}
    _, inclusion = projective_bundle(torus(2), 3)
    out["bundle_inclusion"] = inclusion
    out["bundle_projection"] = quotient(inclusion)[1]
    for seed, sigma in ((3, False), (4, True), (5, False), (6, True)):
        a = random_complex(seed, (0, 3, 0, 3), 5, with_sigma=sigma)
        b = random_complex(seed + 50, (0, 3, 0, 3), 4, with_sigma=sigma)
        _, ia, ib = direct_sum(a, b)
        out[f"random{seed}_first"] = ia
        out[f"random{seed}_second"] = ib
    return out


def morphism_digest(f) -> str:
    parts = []
    for kind in KINDS:
        for key, m in sorted(induced_cohomology_map(f, kind).items()):
            parts.append(f"{kind} {key} {_matrix_text(m)}")
    for w in is_E1_isomorphism(f).entries:
        parts.append(f"e1 {w.p},{w.q} {w.source_dim} {w.target_dim} {w.rank}")
    return _digest(parts)


def matrix_pool():
    """Seeded Gaussian matrices in pairs of equal height: empty shapes,
    sparse and dense, full and deficient rank."""
    rng = random.Random(8808)
    pool = [gauss(1), gauss(-2), gauss(0, 1), gauss(2, 1), gauss(Fraction(1, 3)),
            gauss(Fraction(-5, 7), Fraction(2, 3)), gauss(1, -2)]

    def draw(rows, cols, density):
        return Matrix(rows, cols, {(i, j): rng.choice(pool) for i in range(rows)
                                   for j in range(cols) if rng.random() < density})

    pairs = [(draw(r, c, 0.5), draw(r, c2, 0.5))
             for r, c, c2 in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (3, 2, 0), (1, 1, 1), (4, 0, 0)]]
    for k in range(40):
        rows = rng.choice([2, 3, 5, 6])
        c, c2 = rng.randint(1, 5), rng.randint(1, 5)
        density = (0.2, 0.5, 0.9)[k % 3]
        a, b = draw(rows, c, density), draw(rows, c2, density)
        if k % 4 == 1:  # rank at most 2
            a = draw(rows, 2, 0.8) @ draw(2, c, 0.8)
        if k % 5 == 2:  # b shares a's columns
            b = a @ draw(c, c2, 0.7)
        pairs.append((a, b))
    return pairs


def subspace_digest(a: Matrix, b: Matrix) -> str:
    ka, kb = kernel_basis(a.transpose()), kernel_basis(b.transpose())
    ia, ib = image_basis(a), image_basis(b)
    outputs = [kernel_basis(a), kernel_basis(b), ka, kb, ia, ib,
               _canonical_span(a), _canonical_span(b),
               subspace_sum(ia, ib), subspace_intersection(ia, ib),
               subspace_sum(ka, ib), subspace_intersection(ka, kb)]
    return _digest(_matrix_text(_columns(s)) for s in outputs)


MORPHISM_GOLDEN = {
    "serre_iwasawa": "d319532ac142aac764f26f7b53c85e1c0524e8eb875183ae981804ee9971c21b",
    "bundle_inclusion": "3a996c5215918e4222f11137361de3db78b70e2d9c8056a9b93d093984fac6e8",
    "bundle_projection": "a75ea978ed59a0e9c9c8989bfcef5790087e29e4d8dbc649f24b73864755d8dd",
    "random3_first": "00dba1b57db2ff0b8eb9ad20be9a7a4c6263ee0a8beeacb713c1f8ae52bb8b9c",
    "random3_second": "b46bb00236bb96ce562e8f1803a1091a57fd6057cd8edf9f7e48f5a750ef1814",
    "random4_first": "ac8957d596f8dad67a28fd6120e33a2af5b9ccf63839aced53b5bc602bc66a78",
    "random4_second": "6ea3f75e8f5f8ed0c60a08857c6c9a194181010a8e340313643ce6119856f494",
    "random5_first": "d040ac7071b2eff723d1495c892810cab1d95f7c94869ef6fad27d1c6059bd6c",
    "random5_second": "128e439d85d72e9d0f0a7bf1b73ce9d62aea2e9dc97ad44f77bd4bbb92aa26c0",
    "random6_first": "04132cec73ca0b52608bea3aeb589d979c3c190a37d60ae9b4d57e995d7c3c12",
    "random6_second": "1a02293b42454b87401622cdfa893767ed17fbf350cbd790d6d5a120eb548ec9",
}

SUBSPACE_GOLDEN = "44cd0d88a909f95c03f4a562c2ac2d1e78d176e858f14d710d50827294ef3995"


def test_induced_maps_and_witnesses_match_golden():
    got = {name: morphism_digest(f) for name, f in morphisms().items()}
    assert got == MORPHISM_GOLDEN


def test_subspace_operations_match_golden():
    got = _digest(subspace_digest(a, b) for a, b in matrix_pool())
    assert got == SUBSPACE_GOLDEN
