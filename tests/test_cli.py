import json
import time

import pytest

from bicomplex import CohomologyTable, dolbeault, dumps_complex, random_complex
from bicomplex.cli import render_diamond, resolve_reference, run
from bicomplex.cohomology import TABLES
from bicomplex.models import IWASAWA_SPEC, format_model_spec
from helpers import parse_diamond_rows


def run_ok(capsys, argv, code=0):
    got = run(argv)
    out, err = capsys.readouterr()
    assert got == code, err
    return out, err


def test_model_iwasawa_derham(capsys):
    out, _ = run_ok(capsys, ["model", "iwasawa", "--tables", "derham"])
    assert out.strip() == "b: 1 4 8 10 8 4 1"


def test_blowup_derham(capsys):
    out, _ = run_ok(
        capsys,
        ["blowup", "--ambient", "iwasawa", "--center", "torus1", "--codim", "2",
         "--tables", "derham"],
    )
    assert out.strip() == "b: 1 4 9 12 9 4 1"


def test_blowup_warns_on_dimension_mismatch(capsys):
    out, err = run_ok(
        capsys,
        ["blowup", "--ambient", "iwasawa", "--center", "torus2", "--codim", "2",
         "--tables", "derham"],
    )
    assert "warning" in err


def test_model_torus1_e1_json(capsys):
    out, _ = run_ok(capsys, ["model", "torus1", "--tables", "e1", "--json"])
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["kind"] == "e1"
    assert doc["degeneration_page"] == 1
    got = {(e["p"], e["q"]): e["dim"] for e in doc["entries"]}
    assert got == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_json_byte_identical(capsys):
    a, _ = run_ok(capsys, ["model", "iwasawa", "--tables", "e1,bc", "--json"])
    b, _ = run_ok(capsys, ["model", "iwasawa", "--tables", "e1,bc", "--json"])
    assert a == b


def test_projbundle(capsys):
    out, _ = run_ok(capsys, ["projbundle", "--base", "torus1", "--rank", "2",
                             "--tables", "derham"])
    assert out.strip() == "b: 1 2 2 2 1"


def test_random_subcommand(capsys):
    out1, _ = run_ok(capsys, ["random", "--seed", "5", "--window", "0,3,0,3",
                              "--size", "6", "--tables", "e1", "--json"])
    out2, _ = run_ok(capsys, ["random", "--seed", "5", "--window", "0,3,0,3",
                              "--size", "6", "--tables", "e1", "--json"])
    assert out1 == out2
    run_ok(capsys, ["random", "--seed", "5", "--window", "0,3,0,3", "--size", "6",
                    "--sigma", "--validate-only"])


def test_unknown_preset_exit_code(capsys):
    assert run(["model", "nonesuch"]) == 1
    _, err = capsys.readouterr()
    assert "error" in err


def test_malformed_flags_exit_code(capsys):
    assert run(["model"]) == 1
    capsys.readouterr()
    assert run(["random", "--seed", "1", "--window", "bad", "--size", "2"]) == 1
    capsys.readouterr()


def test_unknown_table_exit_code(capsys):
    assert run(["model", "iwasawa", "--tables", "nope"]) == 1
    _, err = capsys.readouterr()
    assert "unknown table" in err


def _no_tables(*args):
    raise AssertionError("a table was computed before the arguments were checked")


def test_unknown_table_rejected_before_computing(capsys, monkeypatch):
    monkeypatch.setattr("bicomplex.cli.frolicher", _no_tables)
    for kind in TABLES:
        monkeypatch.setitem(TABLES, kind, _no_tables)
    out, err = run_ok(capsys, ["model", "iwasawa", "--tables", "e1,bogus"], code=1)
    assert out == ""
    assert err.startswith("error: unknown table 'bogus'")


def test_max_page_below_one_rejected(capsys, monkeypatch):
    monkeypatch.setattr("bicomplex.cli.frolicher", _no_tables)
    for page in ("0", "-2"):
        out, err = run_ok(capsys, ["model", "iwasawa", "--max-page", page], code=1)
        assert out == ""
        assert err == f"error: --max-page must be at least 1, got {page}\n"


def test_invariant_violation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dcx"
    bad.write_text(
        "dim 0 0 1\ndim 1 0 1\ndim 0 1 1\ndim 1 1 1\n"
        "d1 0 0 0 0 1\nd1 0 1 0 0 1\nd2 0 0 0 0 1\nd2 1 0 0 0 1\n"
    )
    assert run(["model", str(bad), "--tables", "e1"]) == 2
    _, err = capsys.readouterr()
    assert "violation" in err


# Input files the cases below name, written to the working directory first.
INPUT_FILES = {
    "huge_projective_space.model":
        "complex_dimension = 100000\nkind = truncated_polynomial\ngenerators = t\n",
    "far_bidegree.dcx": "dim 0 0 1\ndim 0 8000 1\n",
    "huge_complex.dcx": "dim 0 0 400000\nsigma 0 0 0 0 1\n",
}


@pytest.mark.parametrize("argv", [
    ["random", "--seed", "1", "--window", "3,0,0,3", "--size", "2"],
    ["projbundle", "--base", "torus1", "--rank", "0"],
    ["blowup", "--ambient", "iwasawa", "--center", "torus2", "--codim", "1"],
    ["blowup", "--ambient", "iwasawa", "--center", "torus1", "--codim", "1"],
    ["random", "--seed", "1", "--window", "0,3,0,3", "--size", "3000"],
    ["random", "--seed", "1", "--window", "0,1,0,1", "--size", "-3"],
    ["projbundle", "--base", "torus1", "--rank", "100000"],
    ["blowup", "--ambient", "iwasawa", "--center", "torus2", "--codim", "100000"],
    ["model", "huge_projective_space.model", "--tables", "e1"],
    ["random", "--seed", "1", "--window", "0,4000,0,4000", "--size", "2"],
    ["model", "far_bidegree.dcx", "--tables", "e1"],
    ["model", "huge_complex.dcx", "--validate-only"],
], ids=["window", "rank", "codim", "codim-with-dimension-mismatch", "size-too-large",
        "size-negative", "rank-too-large", "codim-too-large", "projective-dimension-too-large",
        "window-too-wide", "complex-bidegree-too-far", "complex-dimension-too-large"])
def test_user_errors_exit_one(capsys, tmp_path, monkeypatch, argv):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 5
    _, err = capsys.readouterr()
    assert err.startswith("error: ")


@pytest.mark.parametrize("text,message", [
    ("dim 0 0 -1\n", "error: line 1: dimension at (0, 0) is negative: -1\n"),
    ("dim 0 0 1\ndim 0 0 2\n", "error: line 2: repeated dim record for (0, 0)\n"),
    ("dim 0 0 1\ndim 0 8000 1\n",
     "error: line 2: bidegree (0, 8000) is outside the window -400..400 accepted\n"),
    ("dim 0 0 9000\ndim 1 0 9000\nd1 0 0 0 0 1\n",
     "error: line 2: total dimension 18000 is more than the 16384 accepted\n"),
    ("dim 0 0 1\ndim 1 0 1\n# the entry below is outside its 1x1 block\nd1 0 0 0 3 1\n",
     "error: line 4: d1 block at (0, 0): entry (0,3) outside 1x1\n"),
], ids=["negative-dim", "repeated-dim", "bidegree-outside-window", "total-dimension",
        "entry-outside-block"])
def test_bad_complex_file_exits_one(tmp_path, capsys, text, message):
    f = tmp_path / "bad.dcx"
    f.write_text(text)
    out, err = run_ok(capsys, ["model", str(f), "--tables", "derham"], code=1)
    assert (out, err) == ("", message)


def test_morphism_entry_outside_block_exits_one(tmp_path, capsys):
    f = tmp_path / "outside.morphism"
    f.write_text("source point\ntarget point\nblock 0 0 1 0 1\n")
    assert run(["check-e1iso", "--morphism", str(f)]) == 1
    _, err = capsys.readouterr()
    assert err.startswith("error: ") and "outside" in err


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(a):
        raise ValueError("internal bug")

    monkeypatch.setitem(TABLES, "bott_chern", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["model", "iwasawa", "--tables", "bc"])
    _, err = capsys.readouterr()
    assert "error:" not in err


def test_validate_only_ok(capsys, tmp_path):
    run_ok(capsys, ["model", "iwasawa", "--validate-only"])


def test_model_file_and_complex_file_inputs(tmp_path, capsys):
    model_file = tmp_path / "iwasawa.model"
    model_file.write_text(format_model_spec(IWASAWA_SPEC))
    out, _ = run_ok(capsys, ["model", str(model_file), "--tables", "derham"])
    assert out.strip() == "b: 1 4 8 10 8 4 1"

    complex_file = tmp_path / "iwasawa.dcx"
    complex_file.write_text(dumps_complex(resolve_reference("iwasawa")))
    out, _ = run_ok(capsys, ["model", str(complex_file), "--tables", "derham"])
    assert out.strip() == "b: 1 4 8 10 8 4 1"


def test_check_e1iso_yes(tmp_path, capsys):
    f = tmp_path / "identity.morphism"
    lines = ["source torus1", "target torus1"]
    for p in (0, 1):
        for q in (0, 1):
            lines.append(f"block {p} {q} 0 0 1")
    f.write_text("\n".join(lines))
    out, _ = run_ok(capsys, ["check-e1iso", "--morphism", str(f)])
    assert out.splitlines()[0] == "E1-isomorphism: yes"


def test_check_e1iso_serre_pairing_via_files(tmp_path, capsys):
    """Full file round trip: preset source, serialized dual as target, and
    the pairing blocks spelled out as sparse records."""
    from bicomplex import dual, serre_pairing_morphism, torus
    from bicomplex.scalars import format_scalar

    model = torus(1)
    phi = serre_pairing_morphism(model)
    target_file = tmp_path / "dual.dcx"
    target_file.write_text(dumps_complex(dual(model.complex, 1)))
    lines = ["source torus1", f"target {target_file}"]
    for (p, q), block in sorted(phi.blocks.items()):
        for (i, j), v in sorted(block.entries.items()):
            lines.append(f"block {p} {q} {i} {j} {format_scalar(v)}")
    morphism_file = tmp_path / "pairing.morphism"
    morphism_file.write_text("\n".join(lines))
    out, _ = run_ok(capsys, ["check-e1iso", "--morphism", str(morphism_file)])
    assert out.splitlines()[0] == "E1-isomorphism: yes"


def test_check_e1iso_no_reports_failing_bidegree(tmp_path, capsys):
    f = tmp_path / "zero.morphism"
    f.write_text("source point\ntarget point\n")
    out, _ = run_ok(capsys, ["check-e1iso", "--morphism", str(f)])
    assert out.splitlines()[0] == "E1-isomorphism: no"
    assert "fails" in out
    out, _ = run_ok(capsys, ["check-e1iso", "--morphism", str(f), "--json"])
    doc = json.loads(out)
    assert doc["ok"] is False
    failing = [e for e in doc["entries"] if not e["bijective"]]
    assert failing and failing[0]["p"] == 0 and failing[0]["q"] == 0


def test_max_page_prints_extra_pages(capsys):
    out, _ = run_ok(capsys, ["model", "iwasawa", "--tables", "derham", "--max-page", "3"])
    assert "e1 (" in out and "e2 (" in out and "e3 (" in out


def test_max_page_json(capsys):
    out, _ = run_ok(capsys, ["model", "iwasawa", "--tables", "derham",
                             "--max-page", "2", "--json"])
    docs = json.loads(out)
    assert [d["kind"] for d in docs] == ["derham", "e1", "e2"]
    assert docs[1]["degeneration_page"] == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


# -- diamond rendering ---------------------------------------------------------


def test_render_dot_diamond():
    d = render_diamond(CohomologyTable("dolbeault", {(0, 0): 1}))
    assert d.rows == ("1",)


def test_render_iwasawa_e1_diamond(iwasawa_model):
    t = dolbeault(iwasawa_model.complex)
    d = render_diamond(t)
    assert len(d.rows) == 7
    multisets = parse_diamond_rows(d.rows)
    assert multisets == [
        (1,), (2, 3), (2, 3, 6), (1, 1, 6, 6), (2, 3, 6), (2, 3), (1,)
    ]
    # left-to-right order inside a row is increasing p
    assert d.rows[-2].split() == ["2", "3"]  # degree 1: (0,1)=2 then (1,0)=3


def test_render_parse_roundtrip_random():
    for seed in range(6):
        a = random_complex(seed, (0, 3, 0, 3), 6)
        t = dolbeault(a)
        if not t.entries:
            continue
        d = render_diamond(t)
        multisets = parse_diamond_rows(d.rows)
        # the bottom row sits at degree p_min + q_min of the support rectangle
        k_bottom = min(p for p, _ in t.entries) + min(q for _, q in t.entries)
        got = {
            k_bottom + i: tuple(v for v in vals if v)
            for i, vals in enumerate(multisets)
        }
        assert {k: v for k, v in got.items() if v} == t.by_degree()


def test_oversized_model_refused_up_front(tmp_path, capsys):
    gens = ", ".join(f"g{k}" for k in range(10))
    f = tmp_path / "big.model"
    f.write_text(f"complex_dimension = 10\nkind = lie_algebra\ngenerators = {gens}\n")
    start = time.perf_counter()
    out, err = run_ok(capsys, ["model", str(f), "--tables", "derham"], code=1)
    assert time.perf_counter() - start < 5
    assert out == ""
    assert err.startswith("error: complex dimension 10 needs 4^10 = 1048576 basis monomials")
