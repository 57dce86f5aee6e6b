"""Command-line frontend: build models, run the constructions, print tables.

Subcommands:

    model <file|preset> --tables e1,e2,einf,derham,bc,aeppli,rows
    blowup --ambient <file|preset> --center <file|preset> --codim r --tables ...
    projbundle --base <file|preset> --rank n --tables ...
    check-e1iso --morphism <file>
    random --seed s --window pmin,pmax,qmin,qmax --size k [--sigma] --tables ...

Common flags: --json (stable machine output), --validate-only, --max-page r.
Exit codes: 0 success, 1 input error, 2 invariant violation, 141 standard
output closed by its reader (as in `bicomplex ... | head -1`), the status a
shell reports for a process that SIGPIPE ended.

Bidegree tables print as diamonds with degree 0 at the bottom and p
increasing to the right; the de Rham table prints as a single 'b:' row.
References are preset names (iwasawa, torus1..torus3, p1..p3, point), model
files in the models grammar, or serialized complex files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import models as _models
from .cohomology import (
    TABLES,
    CohomologyTable,
    SpectralSequenceResult,
    frolicher,
    is_E1_isomorphism,
)
from .complexes import (
    DoubleComplex,
    MorphismError,
    ShapeError,
    WindowTooSmall,
    random_complex,
    validate,
)
from .geometry import CodimensionTooSmall, InvalidRank, blow_up, projective_bundle
from .linalg import NotASubspace, NotWellDefined
from .models import ModelError
from .serialize import SerializeError, loads_complex, parse_morphism_file

PRESETS = {
    "point": _models.point,
    "iwasawa": _models.iwasawa,
    "torus1": lambda: _models.torus(1),
    "torus2": lambda: _models.torus(2),
    "torus3": lambda: _models.torus(3),
    "p1": lambda: _models.projective_space(1),
    "p2": lambda: _models.projective_space(2),
    "p3": lambda: _models.projective_space(3),
}

# --tables key -> the cohomology.TABLES kind it prints; the spectral pages
# e1, e2 and einf come from frolicher.
KIND_OF_KEY = {"derham": "de_rham", "bc": "bott_chern", "aeppli": "aeppli",
               "rows": "conjugate_dolbeault"}
PAGE_KEYS = ("e1", "e2", "einf")
TABLE_KEYS = PAGE_KEYS + tuple(KIND_OF_KEY)


# The exit status when the reader closes standard output: 128 + SIGPIPE.
EXIT_CLOSED_STDOUT = 141


class InputError(ValueError):
    pass


def _read_input(path: Path) -> str:
    """The text of an input file; a file that cannot be read or decoded is
    the user's input error."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(str(e)) from e


def resolve_reference(ref: str) -> DoubleComplex:
    """Preset name, model file, or serialized complex file."""
    if ref in PRESETS:
        return PRESETS[ref]().complex
    path = Path(ref)
    if not path.is_file():
        raise InputError(f"unknown preset or unreadable file: {ref}")
    text = _read_input(path)
    first_words = [
        line.split()[0]
        for line in (l.split("#")[0].strip() for l in text.splitlines())
        if line
    ]
    if any(w in ("dim", "d1", "d2", "sigma", "label") for w in first_words[:1]):
        return loads_complex(text)
    spec = _models.parse_model_file(text, name=path.stem)
    if spec.kind == "truncated_polynomial":
        return _models.projective_space(spec.complex_dimension).complex
    return _models.lie_algebra_model(spec).complex


# -- diamond rendering --------------------------------------------------------

ORIENTATION = "degree 0 at the bottom, p increasing to the right"


class RenderedDiamond(NamedTuple):
    kind: str
    rows: tuple[str, ...]
    orientation: str = ORIENTATION


def render_diamond(t: CohomologyTable) -> RenderedDiamond:
    """Text diamond of a bidegree table; de Rham renders as a single row.

    Row k from the bottom holds the entries of total degree k, left to right
    by increasing p; antidiagonals past the last nonzero one are trimmed.
    """
    if t.kind == "de_rham":
        if not t.entries:
            return RenderedDiamond(t.kind, ("b:",))
        lo = min(0, min(t.entries))
        hi = max(t.entries)
        row = "b: " + " ".join(str(t.at(k)) for k in range(lo, hi + 1))
        return RenderedDiamond(t.kind, (row,))
    if not t.entries:
        return RenderedDiamond(t.kind, ("0",))
    ps = [p for p, _ in t.entries]
    qs = [q for _, q in t.entries]
    p0, p1 = min(ps), max(ps)
    q0, q1 = min(qs), max(qs)
    k_max = max(p + q for p, q in t.entries)
    cell = max(len(str(v)) for v in t.entries.values())
    slot = cell + 1
    x_min = p0 - q1
    lines = []
    for k in range(k_max, p0 + q0 - 1, -1):
        chars: dict[int, str] = {}
        for p in range(max(p0, k - q1), min(p1, k - q0) + 1):
            text = str(t.at((p, k - p)))
            pos = (2 * p - k - x_min) * slot
            for off, ch in enumerate(text.rjust(cell)):
                chars[pos + off] = ch
        if not chars:
            lines.append("")
            continue
        width = max(chars) + 1
        lines.append("".join(chars.get(i, " ") for i in range(width)).rstrip())
    return RenderedDiamond(t.kind, tuple(lines))


# -- table computation ----------------------------------------------------------


def _compute_tables(a: DoubleComplex, keys: list[str], max_page: int | None):
    """Returns a list of (key, CohomologyTable | page dict, extra) tuples."""
    unknown = [k for k in keys if k not in TABLE_KEYS]
    if unknown:
        raise InputError(f"unknown table {unknown[0]!r} (choose from {', '.join(TABLE_KEYS)})")
    if max_page is not None and max_page < 1:
        raise InputError(f"--max-page must be at least 1, got {max_page}")
    ss: SpectralSequenceResult | None = None
    if any(k in PAGE_KEYS for k in keys) or max_page is not None:
        ss = frolicher(a, "column")
    out = []
    for key in keys:
        if key in KIND_OF_KEY:
            out.append((key, TABLES[KIND_OF_KEY[key]](a), None))
        else:
            r = {"e1": 1, "e2": 2}.get(key, ss.last_computed_page)
            out.append((key, CohomologyTable(key, ss.page(r)), ss.degeneration_page))
    if max_page is not None:
        for r in range(1, min(max_page, ss.last_computed_page) + 1):
            key = f"e{r}"
            if key in keys:
                continue
            out.append((key, CohomologyTable(key, ss.page(r)), ss.degeneration_page))
    return out


def _table_json(key: str, table: CohomologyTable, degeneration) -> dict:
    if table.kind == "de_rham":
        entries = [{"k": k, "dim": v} for k, v in sorted(table.entries.items())]
    else:
        entries = [{"p": p, "q": q, "dim": v} for (p, q), v in sorted(table.entries.items())]
    doc = {"schema": 1, "kind": key, "entries": entries}
    if degeneration is not None:
        doc["degeneration_page"] = degeneration
    return doc


def _emit_tables(a: DoubleComplex, keys: list[str], args) -> None:
    rendered = _compute_tables(a, keys, args.max_page)
    if args.json:
        docs = [_table_json(k, t, d) for k, t, d in rendered]
        print(json.dumps(docs[0] if len(docs) == 1 else docs,
                         sort_keys=True, separators=(",", ":")))
        return
    chunks = []
    for key, table, degeneration in rendered:
        diamond = render_diamond(table)
        if table.kind == "de_rham":
            chunks.append(diamond.rows[0])
        else:
            header = f"{key} ({diamond.orientation}"
            if degeneration is not None:
                header += f"; degenerates at page {degeneration}"
            header += "):"
            chunks.append("\n".join((header,) + diamond.rows))
    print("\n\n".join(chunks))


def _validate_or_die(a: DoubleComplex, json_mode: bool) -> int | None:
    violations = validate(a)
    if not violations:
        return None
    for v in violations:
        print(f"invariant violation at {v}", file=sys.stderr)
    if json_mode:
        print(json.dumps(
            {"schema": 1, "kind": "validation", "violations": [str(v) for v in violations]},
            sort_keys=True, separators=(",", ":")))
    return 2


# -- argument parsing -------------------------------------------------------------


# Built once per process: `prog` is explicit, argparse reads the output
# streams and the terminal width at print time, and `parse_args` leaves the
# parser as it was, so every run reads the same parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicomplex",
        description="exact cohomology tables of bounded double complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tables", default="e1",
                       help="comma-separated: e1,e2,einf,derham,bc,aeppli,rows")
        p.add_argument("--json", action="store_true", help="stable JSON output")
        p.add_argument("--validate-only", action="store_true",
                       help="check the double-complex axioms and stop")
        p.add_argument("--max-page", type=int, default=None,
                       help="also print spectral pages 1..r")

    p_model = sub.add_parser("model", help="tables of a preset or model file")
    p_model.add_argument("reference")
    common(p_model)

    p_blow = sub.add_parser("blowup", help="blow-up of an ambient model along a center")
    p_blow.add_argument("--ambient", required=True)
    p_blow.add_argument("--center", required=True)
    p_blow.add_argument("--codim", type=int, required=True)
    common(p_blow)

    p_proj = sub.add_parser("projbundle", help="projective bundle over a base model")
    p_proj.add_argument("--base", required=True)
    p_proj.add_argument("--rank", type=int, required=True)
    common(p_proj)

    p_check = sub.add_parser("check-e1iso", help="test a morphism file for E1-isomorphism")
    p_check.add_argument("--morphism", required=True)
    common(p_check)

    p_rand = sub.add_parser("random", help="tables of a random valid complex")
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--window", required=True, help="pmin,pmax,qmin,qmax")
    p_rand.add_argument("--size", type=int, required=True)
    p_rand.add_argument("--sigma", action="store_true", help="generate a real structure")
    common(p_rand)
    return parser


def _complex_dimension_guess(a: DoubleComplex) -> int | None:
    w = a.window
    return w[1] if w else None


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        if args.command == "model":
            a = resolve_reference(args.reference)
        elif args.command == "blowup":
            if args.codim - 1 > _models.MAX_SHIFTED_COPIES:
                raise InputError(f"--codim {args.codim} needs {args.codim - 1} shifted copies of "
                                 f"the center, more than the {_models.MAX_SHIFTED_COPIES} accepted")
            ambient = resolve_reference(args.ambient)
            center = resolve_reference(args.center)
            # blow_up refuses a codimension below 2 before the dimension
            # warning, so a refused run prints only its error line.
            a = blow_up(ambient, center, args.codim).total
            n_x = _complex_dimension_guess(ambient)
            n_z = _complex_dimension_guess(center)
            if n_x is not None and n_z is not None and n_z != n_x - args.codim:
                print(
                    f"warning: center looks {n_z}-dimensional but ambient minus "
                    f"codimension is {n_x - args.codim}",
                    file=sys.stderr,
                )
        elif args.command == "projbundle":
            if args.rank > _models.MAX_SHIFTED_COPIES:
                raise InputError(f"--rank {args.rank} needs {args.rank} shifted copies of "
                                 f"the base, more than the {_models.MAX_SHIFTED_COPIES} accepted")
            base = resolve_reference(args.base)
            a, _ = projective_bundle(base, args.rank)
        elif args.command == "random":
            if args.size < 0:
                raise InputError(f"--size must be at least 0, got {args.size}")
            if args.size > _models.MAX_RANDOM_SIZE:
                raise InputError(f"--size {args.size} is more than the "
                                 f"{_models.MAX_RANDOM_SIZE} random shapes accepted")
            try:
                window = tuple(int(t) for t in args.window.split(","))
            except ValueError:
                raise InputError("window must be pmin,pmax,qmin,qmax")
            if len(window) != 4:
                raise InputError("window must be pmin,pmax,qmin,qmax")
            if max(map(abs, window)) > _models.MAX_BIDEGREE:
                raise InputError(f"--window {args.window} is outside the window "
                                 f"-{_models.MAX_BIDEGREE}..{_models.MAX_BIDEGREE} accepted")
            a = random_complex(args.seed, window, args.size, with_sigma=args.sigma)
        elif args.command == "check-e1iso":
            return _run_check(args)
        else:  # pragma: no cover
            raise InputError(f"unknown command {args.command}")

        code = _validate_or_die(a, args.json)
        if code is not None:
            return code
        if args.validate_only:
            return 0
        keys = [k.strip() for k in args.tables.split(",") if k.strip()]
        if not keys:
            raise InputError("no tables requested")
        _emit_tables(a, keys, args)
        return 0
    # Any other exception is a bug in the package, not bad input: it propagates.
    except (ShapeError, MorphismError, NotASubspace, NotWellDefined) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    except (InputError, ModelError, SerializeError, WindowTooSmall, InvalidRank,
            CodimensionTooSmall) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _run_check(args) -> int:
    """check-e1iso; called inside run(), whose handlers report its errors."""
    path = Path(args.morphism)
    if not path.is_file():
        raise InputError(f"unreadable morphism file {args.morphism}")
    f = parse_morphism_file(_read_input(path), resolve_reference)
    for side in (f.source, f.target):
        code = _validate_or_die(side, args.json)
        if code is not None:
            return code
    if args.validate_only:
        return 0
    report = is_E1_isomorphism(f)
    if args.json:
        doc = {
            "schema": 1,
            "kind": "e1iso",
            "ok": report.ok,
            "entries": [w._asdict() | {"bijective": w.bijective} for w in report.entries],
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return 0
    print(f"E1-isomorphism: {'yes' if report.ok else 'no'}")
    print("  (p, q)  src  tgt  rank")
    for w in report.entries:
        mark = "" if w.bijective else "  <- fails"
        print(f"  ({w.p}, {w.q})  {w.source_dim:>3}  {w.target_dim:>3}  {w.rank:>4}{mark}")
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output: stop without an error line.
        # What is still buffered would fail again when Python flushes at
        # exit, so standard output goes to the null device first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    main()
