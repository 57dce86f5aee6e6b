import pytest

from bicomplex import (
    Morphism,
    MorphismError,
    dot,
    dumps_complex,
    loads_complex,
    parse_morphism_file,
    random_complex,
    torus,
)
from bicomplex.complexes import ZERO_COMPLEX
from bicomplex.serialize import SerializeError


def test_roundtrip_with_sigma_and_labels(iwasawa_model):
    a = iwasawa_model.complex
    assert loads_complex(dumps_complex(a)) == a


def test_roundtrip_plain_random():
    for seed in range(5):
        a = random_complex(seed, (-1, 2, 0, 3), 5)
        assert loads_complex(dumps_complex(a)) == a


def test_roundtrip_empty():
    assert loads_complex(dumps_complex(ZERO_COMPLEX)).is_zero()


def test_dumps_deterministic(iwasawa_model):
    a = iwasawa_model.complex
    assert dumps_complex(a) == dumps_complex(loads_complex(dumps_complex(a)))


def test_comments_and_blank_lines():
    text = """
# a dot at (0,0)
dim 0 0 1   # trailing comment

"""
    a = loads_complex(text)
    assert a.dims == {(0, 0): 1}


@pytest.mark.parametrize(
    "bad,message_part",
    [
        ("dim 0 0", "dim takes"),
        ("frobnicate 1 2 3", "unknown record"),
        ("dim 0 0 1\nd1 0 0 0 0 nope", "scalar"),
        ("dim 0 0 1\nd2 0 0 5 0 1", "outside"),
        ("dim 0 0 2\nlabel 0 0 0 x", "labels at"),
        ("dim 0 0 -1", "line 1: dimension at (0, 0) is negative"),
        ("dim 0 0 1\ndim 0 0 2", "line 2: repeated dim record"),
        ("dim 0 0 1\ndim 1 0 1\nd1 0 0 0 0 1\nd1 0 0 0 0 2", "line 4: repeated d1 record"),
        ("dim 0 0 1\ndim 0 1 1\nd2 0 0 0 0 1\nd2 0 0 0 0 1", "line 4: repeated d2 record"),
        ("dim 0 0 1\nsigma 0 0 0 0 1\nsigma 0 0 0 0 1", "line 3: repeated sigma record"),
        ("dim 0 0 1\nlabel 0 0 0 x\nlabel 0 0 0 y", "line 3: repeated label record"),
    ],
)
def test_load_errors(bad, message_part):
    with pytest.raises((SerializeError, ValueError)) as exc:
        loads_complex(bad)
    assert message_part in str(exc.value)


@pytest.mark.parametrize("tag", ["d1", "d2", "sigma"])
def test_entry_outside_block_names_its_line(tag):
    text = f"dim 0 0 1\ndim 1 0 1\ndim 0 1 1\n{tag} 0 0 0 0 1\n{tag} 0 0 2 0 1\n"
    with pytest.raises(SerializeError, match=rf"^line 5: {tag} block at \(0, 0\): "
                                             r"entry \(2,0\) outside 1x1$"):
        loads_complex(text)


def test_morphism_entry_outside_block_names_its_line():
    text = "source dot\ntarget dot\nblock 0 0 0 0 1\nblock 0 0 0 1 1\n"
    with pytest.raises(SerializeError,
                       match=r"^line 4: block at \(0, 0\): entry \(0,1\) outside 1x1$"):
        parse_morphism_file(text, lambda ref: dot(0, 0))


def test_morphism_file_identity(torus1):
    lines = ["source torus1", "target torus1"]
    for p in (0, 1):
        for q in (0, 1):
            lines.append(f"block {p} {q} 0 0 1")
    f = parse_morphism_file("\n".join(lines), lambda ref: torus(1).complex)
    assert f.blocks == Morphism.identity(torus1.complex).blocks


def test_morphism_file_rejects_repeated_block_record():
    text = "source dot\ntarget dot\nblock 0 0 0 0 1\nblock 0 0 0 0 2\n"
    with pytest.raises(SerializeError, match="line 4: repeated block record"):
        parse_morphism_file(text, lambda ref: dot(0, 0))


@pytest.mark.parametrize("text, line, tag", [
    ("source dot\nsource other\ntarget dot\n", 2, "source"),
    ("source dot\ntarget dot\nblock 0 0 0 0 1\ntarget other\n", 4, "target"),
], ids=["source", "target"])
def test_morphism_file_rejects_repeated_endpoint_record(text, line, tag):
    """The repeat is refused at its line, before its reference is resolved."""
    resolved = []

    def resolve(ref):
        resolved.append(ref)
        return dot(0, 0)

    with pytest.raises(SerializeError, match=f"line {line}: repeated {tag} record"):
        parse_morphism_file(text, resolve)
    assert "other" not in resolved


def test_morphism_file_requires_endpoints():
    with pytest.raises(SerializeError):
        parse_morphism_file("block 0 0 0 0 1", lambda ref: dot(0, 0))


def test_morphism_file_rejects_noncommuting():
    from bicomplex import zigzag

    z = zigzag((0, 0), 2, "d1")

    def resolve(ref):
        return z if ref == "z" else dot(0, 0)

    text = "source dot\ntarget z\nblock 0 0 0 0 1\n"
    with pytest.raises(MorphismError):
        parse_morphism_file(text, resolve)
