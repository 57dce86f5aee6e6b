"""Golden CLI runs: the SHA-256 of stdout and of stderr, and the exit code,
for a fixed set of command lines.

The digests pin the exact bytes every table, page and error message prints,
so a refactor that changes any of them, however slightly, fails here.  To
see what changed, run the line by hand (`bicomplex <argv>`) at this commit
and at the last one that passed, and diff the two outputs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bicomplex.cli import run

from test_models import DIM7

ALL_TABLES = "e1,e2,einf,derham,bc,aeppli,rows"
REPO = Path(__file__).resolve().parent.parent
KODAIRA_THURSTON = str(REPO / "demos" / "models" / "kodaira_thurston.model")

# The digest of an empty stream.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# name -> (argv, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "iwasawa": (
        ["model", "iwasawa", "--tables", ALL_TABLES], 0,
        "86d647428d09fa0e15b31f09c47e0d4c34f91fbfeebbb095c9ccc94d7570dcb6",
        EMPTY),
    "iwasawa_json": (
        ["model", "iwasawa", "--tables", ALL_TABLES, "--json"], 0,
        "cbb045458dc23b0e0bd653b216e51f93aa661afaf1402d5660520e6a83edca81",
        EMPTY),
    "iwasawa_max_page": (
        ["model", "iwasawa", "--tables", ALL_TABLES, "--max-page", "4"], 0,
        "d2b12d53a3ece901f8160a482e0ca0d83543cea601f0c9a567f7f8e0db1f87fd",
        EMPTY),
    "blowup": (
        ["blowup", "--ambient", "iwasawa", "--center", "torus1", "--codim", "2",
         "--tables", ALL_TABLES], 0,
        "b05811c23986b5ad39fa46c1ac7af49855cfa9dfcdb11561a8200d00c9c5803d",
        EMPTY),
    "projbundle_aeppli_json": (
        ["projbundle", "--base", "torus2", "--rank", "3", "--tables", "aeppli", "--json"], 0,
        "b3800b3c0faf8c56d58fea4c4fcae3879c35603d5230f05dd01e2d673e1a1f7a",
        EMPTY),
    "random_sigma": (
        ["random", "--seed", "7", "--window", "0,4,0,4", "--size", "12", "--sigma",
         "--tables", "e1,rows"], 0,
        "fbf1cacb91bf083afc0fc7eb790502b3fdf029770e799803647c1d49300726f8",
        EMPTY),
    "kodaira_thurston": (
        ["model", KODAIRA_THURSTON, "--tables", ALL_TABLES], 0,
        "ef789c62357d9378bd7f0b2a65480a0b49eb81220068154dae6edcb49eabce4f",
        EMPTY),
    "blowup_codim_too_small": (
        ["blowup", "--ambient", "iwasawa", "--center", "torus1", "--codim", "1"], 1,
        EMPTY,
        "953c95332ad17d38a21b240e9e75f9763a904078010737d84d52d7414859ef58"),
    "unknown_preset": (
        ["model", "nosuch"], 1,
        EMPTY,
        "da73f07209232e1c3e8d6932ac16c05df87413cb0123e4485fbbf9299743858a"),
    "unknown_table": (
        ["model", "iwasawa", "--tables", "e1,bogus"], 1,
        EMPTY,
        "ecd5edc93b1b0fdc0d20b665474f2747fdf4db627419744f22970b3f1696f7a9"),
    "unreadable_morphism": (
        ["check-e1iso", "--morphism", "missing.morphism"], 1,
        EMPTY,
        "595cb39e7a3d26be27508baba4d756a0c8a0d44c8197b4a1959e15c6f3ba0476"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_pinned(name, capsys):
    argv, code, out_digest, err_digest = GOLDEN[name]
    got = run(list(argv))
    out, err = capsys.readouterr()
    assert (got, sha256(out), sha256(err)) == (code, out_digest, err_digest), (out, err)


def test_dim7_model_output_is_pinned(tmp_path, capsys):
    """Every table of the dim-7 nilmanifold, the largest model the builder
    admits.  Unlike the presets, its Frolicher reductions leave the
    elimination kernel cores of up to 629 pivots after the peel, so these
    bytes pin the kernel's pivots where the peel does not decide them."""
    path = tmp_path / "nil7.model"
    path.write_text(DIM7)
    got = run(["model", str(path), "--tables", ALL_TABLES])
    out, err = capsys.readouterr()
    assert (got, sha256(out), err) == (
        0, "d157bf773ac5978633906b4de78541db34294cfe15eefa8d5a5fea384078e300", ""), err


def test_closed_stdout_ends_quietly():
    """A reader that closes standard output, as `bicomplex ... | head -1`
    does, ends the run with exit 141 (128 + SIGPIPE) and nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from bicomplex.cli import main; main()",
             "model", "iwasawa", "--tables", "e1"],
            stdout=write, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
            timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_one_parser_serves_every_run_in_a_process(capsys, monkeypatch):
    """`run` builds its argument parser once per process.  A bad argv, a
    `--help` and a table run made one after another in this process print
    the bytes, and exit with the codes, of each run alone in a fresh one."""
    from bicomplex import cli

    argvs = (["model", "--bogus"], ["--help"], ["model", "iwasawa", "--json"])
    # argparse wraps its help text to the terminal width it reads from
    # COLUMNS, so both sides get the same.
    monkeypatch.setenv("COLUMNS", "80")
    in_turn = []
    for argv in argvs:
        code = run(list(argv))
        out, err = capsys.readouterr()
        in_turn.append((code, out, err))
    assert cli._build_parser() is cli._build_parser()
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    alone = []
    for argv in argvs:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from bicomplex.cli import run; "
             "sys.exit(run(sys.argv[1:]))", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"})
        alone.append((done.returncode, done.stdout, done.stderr))
    assert in_turn == alone
    assert [code for code, _, _ in alone] == [1, 0, 0]
    assert alone[0][2].startswith("usage: bicomplex") and alone[1][1].startswith("usage: bicomplex")
