"""Pinned demo runs: the exit code and the SHA-256 of stdout of every script
under `demos/`.

Each demo runs in a fresh interpreter with `src/` on the path, so what is
pinned is exactly what `python demos/<name>.py` prints.  To see what changed,
run the demo at this commit and at the last one that passed, and diff the two
outputs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> (exit code, sha256 of stdout)
GOLDEN = {
    "01_iwasawa_tables.py": (
        0, "82239d7219ac575bc7fce82452eb69febdd97ec74980507e3fae18a197592dc4"),
    "02_blowup_formula.py": (
        0, "9869ebddde28c5e99a2213175f5dae8ad35b82bc70df35c7411f5d8d980edacb"),
    "03_projective_bundles.py": (
        0, "1f644858578f0f4b9a9e35cac18f833aa99649bd532878a5e979646f953c5625"),
    "04_spectral_sequences.py": (
        0, "2134fa24858c987b1d0ab4314972000e750ecd4065a09bbe7fc95a406324a2f2"),
    "05_e1_isomorphisms.py": (
        0, "d961ba210419c2b42d404283cf4a16f90f5e458ffdb10047c051ae0470255d36"),
    "06_model_files.py": (
        0, "ff753aa32794fe486ca97494eedb7a9e8cbfbaebad66bbdd0ba0df60eb94fe50"),
    "07_random_complexes.py": (
        0, "29ec9b386a9beaa1ad570a3d8bc9b5a95b6d7829ddc159426eea1096f5f91b1b"),
}


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", sorted(GOLDEN))
def test_demo_output_is_pinned(script):
    code, digest = GOLDEN[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (code, digest), \
        proc.stderr.decode()
