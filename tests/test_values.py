"""The package's record types as values, and what importing the package loads.

The record types are plain classes with slots, or NamedTuples, so that
`import bicomplex` does not load `dataclasses` and the modules it pulls in.
Each type keeps what callers rely on: pickle and deepcopy round trips, equal
values hashing equal where the type is hashable, read-only public fields and
its repr text.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from bicomplex import (
    Morphism,
    blow_up,
    dolbeault,
    frolicher,
    gauss,
    is_E1_isomorphism,
    iwasawa,
    torus,
)
from bicomplex.cli import render_diamond
from bicomplex.cohomology import E1Witness
from bicomplex.models import IWASAWA_SPEC

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter, isolated from the environment and site-packages,
    imports the package and its command line without either module."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bicomplex, bicomplex.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _values():
    """One value of each record type, (type name, value, a public field,
    hashable), each built fresh so that no memo holds an Analysis."""
    x = iwasawa().complex
    table = dolbeault(iwasawa().complex)
    report = is_E1_isomorphism(Morphism.identity(x))
    term = next(t for terms in IWASAWA_SPEC.equations.values() for t in terms)
    return [
        ("GaussianRational", gauss(1, -2), "re", True),
        ("DoubleComplex", x, "dims", False),
        ("Morphism", Morphism.identity(iwasawa().complex), "blocks", False),
        ("CohomologyTable", table, "entries", False),
        ("SpectralSequenceResult", frolicher(iwasawa().complex), "pages", False),
        ("E1Witness", report.entries[0], "rank", True),
        ("E1Report", report, "entries", True),
        ("EquationTerm", term, "coeff", True),
        ("ModelSpec", IWASAWA_SPEC, "equations", False),
        ("BlowupResult", blow_up(iwasawa(), torus(1), 2), "total", False),
        ("RenderedDiamond", render_diamond(table), "rows", True),
    ]


def test_record_types_are_values():
    for name, value, field, hashable in _values():
        assert type(value).__name__ == name
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value, name
            if hashable:
                assert hash(twin) == hash(value), name
        if not hashable:
            with pytest.raises(TypeError):
                hash(value)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_record_reprs():
    assert repr(gauss(1, -2)) == "GaussianRational(re=Fraction(1, 1), im=Fraction(-2, 1))"
    assert repr(dolbeault(iwasawa().complex)) == (
        "CohomologyTable(kind='dolbeault', entries={(0, 0): 1, (0, 1): 2, (0, 2): 2, "
        "(0, 3): 1, (1, 0): 3, (1, 1): 6, (1, 2): 6, (1, 3): 3, (2, 0): 3, (2, 1): 6, "
        "(2, 2): 6, (2, 3): 3, (3, 0): 1, (3, 1): 2, (3, 2): 2, (3, 3): 1})")
    assert repr(E1Witness(0, 1, 2, 2, 2)) == (
        "E1Witness(p=0, q=1, source_dim=2, target_dim=2, rank=2)")
