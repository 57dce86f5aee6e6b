"""Plain-text serialization of double complexes and morphism files.

Complex format, one record per line, '#' comments and blank lines ignored:

    dim   <p> <q> <dimension>
    d1    <p> <q> <row> <col> <scalar>
    d2    <p> <q> <row> <col> <scalar>
    sigma <p> <q> <row> <col> <scalar>
    label <p> <q> <index> <name>

Scalars use the a/b+c/d*i syntax of bicomplex.scalars.  dumps_complex emits
records sorted, so equal complexes serialize byte-identically.

Morphism files name their endpoints and list sparse block entries:

    source <reference>
    target <reference>
    block  <p> <q> <row> <col> <scalar>

References are resolved by a caller-supplied function (the command line
resolves preset names, model files and complex files).  A record that sets
what an earlier one set (a dimension, an entry, a label, the source or the
target) raises SerializeError at its line, and so does an entry outside its
block.  A dim record raises it too when its bidegree leaves the window
|p|, |q| <= models.MAX_BIDEGREE or the total dimension passes
models.MAX_MODEL_BASIS.
"""

from __future__ import annotations

from typing import Callable

from .complexes import DoubleComplex, Morphism, _target
from .linalg import Matrix
from .models import MAX_BIDEGREE, MAX_MODEL_BASIS
from .scalars import format_scalar, parse_scalar


class SerializeError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def dumps_complex(a: DoubleComplex) -> str:
    lines = []
    for (p, q), n in sorted(a.dims.items()):
        lines.append(f"dim {p} {q} {n}")
    for tag, blocks in (("d1", a.d1), ("d2", a.d2), ("sigma", a.sigma or {})):
        for (p, q), m in sorted(blocks.items()):
            for (i, j), v in sorted(m.entries.items()):
                lines.append(f"{tag} {p} {q} {i} {j} {format_scalar(v)}")
    if a.labels:
        for (p, q), names in sorted(a.labels.items()):
            for i, name in enumerate(names):
                lines.append(f"label {p} {q} {i} {name}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SerializeError(lineno, f"{what} must be an integer, got {token!r}")


def _put(table: dict, key, value, lineno: int, what: str) -> None:
    """table[key] = value, unless an earlier record already set it."""
    if key in table:
        raise SerializeError(lineno, f"repeated {what}")
    table[key] = value


def _block(rows: int, cols: int, cells: dict, what: str) -> Matrix:
    """The rows x cols block of cells {(i, j): (scalar, line)}; an entry
    outside it raises SerializeError at its record's line."""
    for (i, j), (_, lineno) in cells.items():
        if not (0 <= i < rows and 0 <= j < cols):
            raise SerializeError(lineno, f"{what}: entry ({i},{j}) outside {rows}x{cols}")
    return Matrix(rows, cols, {k: v for k, (v, _) in cells.items()})


def _iter_records(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        line = (raw if cut < 0 else raw[:cut]).strip()
        if line:
            yield lineno, line.split()


def loads_complex(text: str) -> DoubleComplex:
    dims: dict = {}
    cells: dict[str, dict] = {"d1": {}, "d2": {}, "sigma": {}}
    labels: dict = {}
    saw_sigma = False
    saw_label = False
    total = 0
    # Each distinct scalar text is parsed once: a file repeats few of them.
    scalars: dict = {}
    for lineno, parts in _iter_records(text):
        tag = parts[0]
        if tag == "dim":
            if len(parts) != 4:
                raise SerializeError(lineno, "dim takes p q dimension")
            p, q, n = (_parse_int(t, lineno, "dim field") for t in parts[1:])
            if n < 0:
                raise SerializeError(lineno, f"dimension at ({p}, {q}) is negative: {n}")
            if max(abs(p), abs(q)) > MAX_BIDEGREE:
                raise SerializeError(lineno, f"bidegree ({p}, {q}) is outside the window "
                                             f"-{MAX_BIDEGREE}..{MAX_BIDEGREE} accepted")
            _put(dims, (p, q), n, lineno, f"dim record for ({p}, {q})")
            total += n
            if total > MAX_MODEL_BASIS:
                raise SerializeError(lineno, f"total dimension {total} is more than the "
                                             f"{MAX_MODEL_BASIS} accepted")
        elif tag in cells:
            if len(parts) != 6:
                raise SerializeError(lineno, f"{tag} takes p q row col scalar")
            p, q, i, j = (_parse_int(t, lineno, f"{tag} field") for t in parts[1:5])
            v = scalars.get(parts[5])
            if v is None:
                try:
                    v = scalars[parts[5]] = parse_scalar(parts[5])
                except ValueError as e:
                    raise SerializeError(lineno, str(e))
            _put(cells[tag].setdefault((p, q), {}), (i, j), (v, lineno), lineno,
                 f"{tag} record for entry ({i}, {j}) at ({p}, {q})")
            saw_sigma = saw_sigma or tag == "sigma"
        elif tag == "label":
            if len(parts) < 5:
                raise SerializeError(lineno, "label takes p q index name")
            p, q, i = (_parse_int(t, lineno, "label field") for t in parts[1:4])
            _put(labels.setdefault((p, q), {}), i, " ".join(parts[4:]), lineno,
                 f"label record for index {i} at ({p}, {q})")
            saw_label = True
        else:
            raise SerializeError(lineno, f"unknown record {tag!r}")

    def matrices(tag):
        return {pq: _block(dims.get(_target(tag, *pq), 0), dims.get(pq, 0), entries,
                           f"{tag} block at {pq}")
                for pq, entries in cells[tag].items()}

    label_tuples = None
    if saw_label:
        label_tuples = {}
        for pq, by_index in labels.items():
            n = dims.get(pq, 0)
            if set(by_index) != set(range(n)):
                raise SerializeError(0, f"labels at {pq} do not cover indices 0..{n - 1}")
            label_tuples[pq] = tuple(by_index[i] for i in range(n))
    return DoubleComplex(
        dims,
        matrices("d1"),
        matrices("d2"),
        matrices("sigma") if saw_sigma else None,
        label_tuples,
    )


def parse_morphism_file(text: str, resolve: Callable[[str], DoubleComplex]) -> Morphism:
    ends: dict[str, DoubleComplex] = {}
    blocks: dict = {}
    for lineno, parts in _iter_records(text):
        tag = parts[0]
        if tag == "source" or tag == "target":
            if len(parts) < 2:
                raise SerializeError(lineno, f"{tag} takes a model reference")
            if tag in ends:
                raise SerializeError(lineno, f"repeated {tag} record")
            ends[tag] = resolve(" ".join(parts[1:]))
        elif tag == "block":
            if len(parts) != 6:
                raise SerializeError(lineno, "block takes p q row col scalar")
            p, q, i, j = (_parse_int(t, lineno, "block field") for t in parts[1:5])
            try:
                v = parse_scalar(parts[5])
            except ValueError as e:
                raise SerializeError(lineno, str(e))
            _put(blocks.setdefault((p, q), {}), (i, j), (v, lineno), lineno,
                 f"block record for entry ({i}, {j}) at ({p}, {q})")
        else:
            raise SerializeError(lineno, f"unknown record {tag!r}")
    if len(ends) != 2:
        raise SerializeError(0, "morphism file needs source and target lines")
    source, target = ends["source"], ends["target"]
    matrices = {pq: _block(target.dim(*pq), source.dim(*pq), entries, f"block at {pq}")
                for pq, entries in blocks.items()}
    return Morphism(source, target, matrices)
