"""The three benchmark workloads: their inputs, one pass, and the checks.

A workload has four parts:

* `setup(seed)` builds the inputs from the seed (timed as set-up);
* `run(inputs, out)` is one pass: every table and check the workload
  computes, put into `out` raw, by output name (timed as the pass);
* `expected(inputs)` names every output a pass must produce;
* `identities(inputs, values)` lists the mathematical identities the
  canonical output values must satisfy whatever the seed: (description,
  output names involved, zero-argument check).

Library functions are always reached as attributes of `bicomplex` or one of
its modules at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time

import bicomplex as bc
from bicomplex import linalg

# -- canonical values ---------------------------------------------------------


class Raised:
    """Stands in for an output whose computation raised."""

    def __init__(self, error: BaseException):
        self.text = f"{type(error).__name__}: {error}"


class Outputs(dict):
    """Output name -> raw value.

    Each output is one step of the pass: its duration goes to `on_step`, and
    a computation that raises is recorded, not fatal.
    """

    def __init__(self, on_step=None):
        super().__init__()
        self.on_step = on_step

    def call(self, name: str, fn, *args):
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as error:  # a failing output is counted, not fatal
            value = Raised(error)
        if self.on_step is not None:
            self.on_step(time.perf_counter() - start)
        self[name] = value
        return value


def _key(k):
    return list(k) if isinstance(k, tuple) else [k]


def _entries(mapping) -> list:
    return sorted(_key(k) + [v] for k, v in mapping.items())


def _scalar(v) -> list[str]:
    return [str(v.re), str(v.im)]


def _blocks(blocks) -> list:
    return sorted(
        [p, q, m.rows, m.cols, sorted([i, j] + _scalar(v) for (i, j), v in m.entries.items())]
        for (p, q), m in blocks.items()
    )


def canonical(value):
    """A JSON value that determines the output; equal outputs give equal values."""
    if isinstance(value, Raised):
        return {"raised": value.text}
    if isinstance(value, bc.CohomologyTable):
        return {"kind": value.kind, "entries": _entries(value.entries)}
    if isinstance(value, bc.SpectralSequenceResult):
        return {
            "direction": value.direction,
            "pages": [[r, _entries(t)] for r, t in value.pages],
            "degeneration_page": value.degeneration_page,
            "e_infinity": _entries(value.e_infinity),
        }
    if isinstance(value, bc.E1Report):
        return {"ok": value.ok,
                "witnesses": [[w.p, w.q, w.source_dim, w.target_dim, w.rank] for w in value.entries]}
    if isinstance(value, bc.DoubleComplex):
        return {
            "dims": _entries(value.dims),
            "d1": _blocks(value.d1),
            "d2": _blocks(value.d2),
            "sigma": None if value.sigma is None else _blocks(value.sigma),
            "labels": None if value.labels is None else _entries(value.labels),
        }
    if isinstance(value, bc.Morphism):
        return {"source": _entries(value.source.dims), "target": _entries(value.target.dims),
                "blocks": _blocks(value.blocks)}
    if isinstance(value, dict):  # induced maps: key -> Matrix; keep the shapes
        return sorted(_key(k) + [m.rows, m.cols] for k, m in value.items())
    if isinstance(value, list):  # validate(): a list of violations
        return [str(v) for v in value]
    if isinstance(value, tuple):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


# -- helpers on canonical values ---------------------------------------------


def as_dict(entries) -> dict:
    """Canonical [*key, value] entries back as a dict."""
    return {tuple(e[:-1]) if len(e) > 2 else e[0]: e[-1] for e in entries}


def table(values, name) -> dict:
    """The canonical table `name` back as a dict."""
    return as_dict(values[name]["entries"])


def chi(dims: dict) -> int:
    return sum((-1) ** ((p + q) % 2) * n for (p, q), n in dims.items())


def degree_totals(bidegree_table: dict) -> dict:
    out: dict = {}
    for (p, q), v in bidegree_table.items():
        out[p + q] = out.get(p + q, 0) + v
    return {k: v for k, v in out.items() if v}


def degree_multisets(bidegree_table: dict) -> list[tuple[int, ...]]:
    """Per total degree from 0, the sorted nonzero entries."""
    out: dict = {}
    for (p, q), v in bidegree_table.items():
        if v:
            out.setdefault(p + q, []).append(v)
    return [tuple(sorted(out.get(k, ()))) for k in range(max(out, default=-1) + 1)]


def spectral_identities(prefix: str, dims: dict, values, pages_too: bool = True) -> list:
    """The property-suite identities of one complex's tables and pages."""
    ss = f"{prefix}.frolicher"
    dol = f"{prefix}.dolbeault"
    dr = f"{prefix}.de_rham"
    euler = (f"{prefix}: Euler characteristic of de Rham", [dr],
             lambda: chi(dims) == sum((-1) ** (k % 2) * v for k, v in table(values, dr).items()))
    axioms = (f"{prefix}: axioms d1d1 = d2d2 = d1d2 + d2d1 = 0", [f"{prefix}.validate"],
              lambda: values[f"{prefix}.validate"] == [])
    if not pages_too:
        return [axioms, euler]

    def pages():
        return [as_dict(entries) for _, entries in values[ss]["pages"]]

    def monotone():
        ps = pages()
        return all(v <= before.get(pq, 0) for before, after in zip(ps, ps[1:])
                   for pq, v in after.items())

    return [
        axioms,
        euler,
        (f"{prefix}: E1 equals the Dolbeault table", [ss, dol],
         lambda: pages()[0] == table(values, dol)),
        (f"{prefix}: Euler characteristic of every page", [ss],
         lambda: all(chi(page) == chi(dims) for page in pages())),
        (f"{prefix}: pages shrink monotonically", [ss], monotone),
        (f"{prefix}: E_infinity per degree equals the Betti numbers", [ss, dr],
         lambda: degree_totals(as_dict(values[ss]["e_infinity"])) == table(values, dr)),
    ]


TABLES = ("dolbeault", "conjugate_dolbeault", "de_rham", "bott_chern", "aeppli")


def all_tables(out: Outputs, prefix: str, a, pages_too: bool = True) -> None:
    out.call(f"{prefix}.validate", lambda: bc.validate(a))
    for kind in TABLES:
        out.call(f"{prefix}.{kind}", lambda kind=kind: getattr(bc, kind)(a))
    if pages_too:
        out.call(f"{prefix}.frolicher", lambda: bc.frolicher(a))


def table_names(prefix: str, pages_too: bool = True) -> list[str]:
    return [f"{prefix}.{n}" for n in ("validate",) + TABLES + (("frolicher",) if pages_too else ())]


# -- nilmanifold ----------------------------------------------------------------

NIL4 = """\
name = nil4
complex_dimension = 4
kind = lie_algebra
generators = a, b, c, e
d c = a ^ b
d e = a ^ c + ({lam}) * b ^ conj(a)
"""

NIL5 = """\
name = nil5
complex_dimension = 5
kind = lie_algebra
generators = a, b, c, e, f
d c = a ^ b
d e = a ^ c + ({lam}) * b ^ conj(a)
d f = a ^ b + b ^ conj(b)
"""

# The seed picks lambda.  All three give the same tables (so one set of
# recorded digests serves every seed); the first is the ROADMAP's pinned value.
LAMBDAS = ("1/2+i", "2-i", "1/3")


# Frolicher of the dim-5 model alone takes 12 to 15 s.  A run times six cold
# passes and at least three more, which with it would take over 100 s; the
# dim-5 model gets every other table.
PAGES = {"nil4": True, "nil5": False}


class Nilmanifold:
    """The ROADMAP's pinned dim-4 (256-dim) and dim-5 (1024-dim) models."""

    name = "nilmanifold"

    def setup(self, seed: int) -> dict:
        lam = LAMBDAS[seed % len(LAMBDAS)]
        return {
            name: bc.lie_algebra_model(bc.parse_model_file(text.format(lam=lam), name))
            for name, text in (("nil4", NIL4), ("nil5", NIL5))
        }

    def run(self, inputs: dict, out: Outputs) -> Outputs:
        for name, model in inputs.items():
            all_tables(out, name, model.complex, PAGES[name])
        return out

    def expected(self, inputs: dict) -> list[str]:
        return [n for name in inputs for n in table_names(name, PAGES[name])]

    def identities(self, inputs: dict, values) -> list:
        checks = []
        for name, model in inputs.items():
            a = model.complex
            n = model.top_index[0]
            checks += spectral_identities(name, a.dims, values, PAGES[name])
            dol, row, dr, bc_, ae = (f"{name}.{k}" for k in TABLES)
            checks += [
                (f"{name}: real structure swaps column and row cohomology", [dol, row],
                 lambda dol=dol, row=row: table(values, row)
                 == {(q, p): v for (p, q), v in table(values, dol).items()}),
                (f"{name}: Bott-Chern and Aeppli are symmetric", [bc_, ae],
                 lambda bc_=bc_, ae=ae: all(
                     t == {(q, p): v for (p, q), v in t.items()}
                     for t in (table(values, bc_), table(values, ae)))),
                (f"{name}: Serre duality, BC(p,q) = A(n-p,n-q)", [bc_, ae],
                 lambda bc_=bc_, ae=ae, n=n: table(values, bc_)
                 == {(n - p, n - q): v for (p, q), v in table(values, ae).items()}),
                (f"{name}: Serre duality on Dolbeault and de Rham", [dol, dr],
                 lambda dol=dol, dr=dr, n=n: table(values, dol)
                 == {(n - p, n - q): v for (p, q), v in table(values, dol).items()}
                 and table(values, dr) == {2 * n - k: v for k, v in table(values, dr).items()}),
            ]
        return checks


# -- random ---------------------------------------------------------------------

WINDOW = (0, 5, 0, 5)
# The suite's ten reach size 37 and take 10 s a pass, too long to repeat
# within one run; the first six take about 3 s.
COMPLEXES = 6
SCALARS = tuple(bc.gauss(*c) for c in ((0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (1, -1)))


def _unit_triangular_product(rng: random.Random, n: int):
    """Unit lower times unit upper triangular, entries from SCALARS."""
    lower = {(i, i): SCALARS[1] for i in range(n)}
    upper = dict(lower)
    for i in range(n):
        for j in range(i):
            for part, key in ((lower, (i, j)), (upper, (j, i))):
                v = SCALARS[rng.randrange(len(SCALARS))]
                if v:
                    part[key] = v
    return linalg.Matrix(n, n, lower) @ linalg.Matrix(n, n, upper)


def change_of_basis(a, rng: random.Random):
    """a in new coordinates: a random invertible matrix at every bidegree."""
    change = {pq: _unit_triangular_product(rng, n) for pq, n in sorted(a.dims.items())}
    inverse = {pq: linalg.solve_columns(c, linalg.Matrix.identity(c.rows)) for pq, c in change.items()}
    d1 = {pq: change[(pq[0] + 1, pq[1])] @ m @ inverse[pq] for pq, m in a.d1.items()}
    d2 = {pq: change[(pq[0], pq[1] + 1)] @ m @ inverse[pq] for pq, m in a.d2.items()}
    return bc.DoubleComplex(a.dims, d1, d2)


class Random:
    """The property suite's largest class, in coordinates drawn from the seed.

    The complexes are random_complex(200 + s, (0,5,0,5), 10 + 3s) for
    s = 0..5, the first six of the suite's ten.  The seed draws a further
    change of basis for each.  It varies every matrix entry, but the shapes
    stay fixed, so the pass time does not depend on the seed.  Drawing the
    shapes from the seed as well made a pass over ten such complexes vary
    from 6.8 s to 10.4 s over six seeds.  Tables are invariants of the change
    of basis, so one set of recorded digests holds for every seed.
    """

    name = "random"

    def setup(self, seed: int) -> list:
        rng = random.Random(seed)
        return [change_of_basis(bc.random_complex(200 + s, WINDOW, 10 + 3 * s), rng)
                for s in range(COMPLEXES)]

    def run(self, inputs: list, out: Outputs) -> Outputs:
        n = WINDOW[1]
        for s, a in enumerate(inputs):
            all_tables(out, f"c{s}", a)
            d = out.call(f"c{s}.dual", lambda: bc.dual(a, n))  # input of the next two
            out.call(f"c{s}.dual_bott_chern", lambda: bc.bott_chern(d))
            out.call(f"c{s}.dual_aeppli", lambda: bc.aeppli(d))
        return out

    def expected(self, inputs: list) -> list[str]:
        return [n for s in range(len(inputs))
                for n in table_names(f"c{s}") + [f"c{s}.dual_bott_chern", f"c{s}.dual_aeppli"]]

    def identities(self, inputs: list, values) -> list:
        checks = []
        n = WINDOW[1]
        for s, a in enumerate(inputs):
            c = f"c{s}"
            checks += spectral_identities(c, a.dims, values)
            for mine, theirs in (("bott_chern", "aeppli"), ("aeppli", "bott_chern")):
                checks.append((
                    f"{c}: {mine} of dual(a, {n}) is {theirs} of a reflected",
                    [f"{c}.dual_{mine}", f"{c}.{theirs}"],
                    lambda c=c, mine=mine, theirs=theirs: table(values, f"{c}.dual_{mine}")
                    == {(n - p, n - q): v for (p, q), v in table(values, f"{c}.{theirs}").items()},
                ))
        return checks


# -- constructions ------------------------------------------------------------------

# Published Iwasawa multisets per total degree, copied from the acceptance
# suite.
IWASAWA_E1 = [(1,), (2, 3), (2, 3, 6), (1, 1, 6, 6), (2, 3, 6), (2, 3), (1,)]
IWASAWA_E2 = [(1,), (2, 2), (2, 2, 4), (1, 1, 4, 4), (2, 2, 4), (2, 2), (1,)]
IWASAWA_BC = [(1,), (2, 2), (3, 3, 4), (1, 1, 6, 6), (2, 2, 8), (3, 3), (1,)]
IWASAWA_BETTI = (1, 4, 8, 10, 8, 4, 1)

# The torus of dimension 1 has zero differentials: every table is its
# dimension table, one class at each of (0,0), (1,0), (0,1), (1,1).
TORUS1_SHIFTED = {(1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1}
TORUS1_SHIFTED_BETTI = {2: 1, 3: 2, 4: 1}

CLI_TABLES = "e1,e2,einf,derham,bc,aeppli,rows"
CLI_RUNS = {
    "cli.model_iwasawa": ["model", "iwasawa", "--tables", CLI_TABLES],
    "cli.blowup": ["blowup", "--ambient", "iwasawa", "--center", "torus1", "--codim", "2",
                   "--tables", CLI_TABLES],
}
# CLI table key -> the table kind it prints.
CLI_KINDS = {"e1": "dolbeault", "bc": "bott_chern", "aeppli": "aeppli", "rows": "conjugate_dolbeault"}
KINDS = ("dolbeault", "conjugate_dolbeault", "de_rham", "bott_chern", "aeppli")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from bicomplex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


_HEADER = re.compile(r"^(\w+) \(.*\):$")


def parse_cli_tables(stdout: str) -> dict:
    """Printed diamonds -> per-degree multisets from degree 0; 'b:' -> Betti tuple."""
    rows: dict[str, list[str]] = {}
    out: dict = {}
    current = None
    for line in stdout.splitlines():
        header = _HEADER.match(line)
        if header:
            current = rows.setdefault(header.group(1), [])
        elif line.startswith("b:"):
            out["derham"] = tuple(int(t) for t in line[2:].split())
            current = None
        elif current is not None:
            current.append(line)
    for key, lines in rows.items():
        while lines and not lines[-1].strip():
            lines.pop()
        out[key] = [tuple(sorted(v for v in map(int, line.split()) if v)) for line in reversed(lines)]
    return out


def trimmed(multisets: list) -> list:
    out = list(multisets)
    while out and not out[-1]:
        out.pop()
    return out


class Constructions:
    """Builders, checks, a serialization round trip and two CLI runs.

    The inputs are fixed presets, so every seed gives the same pass.
    """

    name = "constructions"

    def setup(self, seed: int) -> dict:
        return {"iwasawa": bc.iwasawa(), "torus1": bc.torus(1), "torus2": bc.torus(2)}

    def run(self, inputs: dict, out: Outputs) -> Outputs:
        iw, t1, t2 = inputs["iwasawa"], inputs["torus1"], inputs["torus2"]
        blow = out.call("blow_up", lambda: bc.blow_up(iw, t1, 2).total)
        out.call("projective_bundle", lambda: bc.projective_bundle(iw, 3)[0])
        out.call("tensor", lambda: bc.tensor(iw.complex, t1.complex))
        out.call("dual", lambda: bc.dual(iw.complex, 3))
        for r in (2, 3, 4):
            out.call(f"exceptional_r{r}", lambda r=r: bc.exceptional_consistency_check(t2, r))
        f = out.call("pairing", lambda: bc.serre_pairing_morphism(iw))
        out.call("pairing.e1iso", lambda: bc.is_E1_isomorphism(f))
        for kind in KINDS:
            out.call(f"pairing.induced.{kind}", lambda kind=kind: bc.induced_cohomology_map(f, kind))
        text = out.call("roundtrip.text", lambda: bc.dumps_complex(blow))
        out.call("roundtrip.loaded", lambda: bc.loads_complex(text))
        for name, argv in CLI_RUNS.items():
            out.call(name, lambda argv=argv: run_cli(argv))
        return out

    def expected(self, inputs: dict) -> list[str]:
        return (["blow_up", "projective_bundle", "tensor", "dual"]
                + [f"exceptional_r{r}" for r in (2, 3, 4)]
                + ["pairing", "pairing.e1iso"] + [f"pairing.induced.{k}" for k in KINDS]
                + ["roundtrip.text", "roundtrip.loaded"] + list(CLI_RUNS))

    def identities(self, inputs: dict, values) -> list:
        iw_dims = inputs["iwasawa"].complex.dims
        t1_dims = inputs["torus1"].complex.dims

        def dims(name):
            return as_dict(values[name]["dims"])

        def shifted_sum(parts):
            out: dict = {}
            for part, i in parts:
                for (p, q), n in part.items():
                    out[(p + i, q + i)] = out.get((p + i, q + i), 0) + n
            return out

        def iwasawa_table(kind):
            """Iwasawa's table, read off the source sides of the induced maps."""
            return {tuple(e[:-2]) if len(e) > 3 else e[0]: e[-1]
                    for e in values[f"pairing.induced.{kind}"] if e[-1]}

        def cli_tables(name):
            code, stdout, stderr = values[name]
            if code != 0 or stderr:
                raise ValueError(f"exit code {code}, stderr {stderr!r}")
            return parse_cli_tables(stdout)

        def blowup_additive():
            got = cli_tables("cli.blowup")
            for key, kind in CLI_KINDS.items():
                want = shifted_sum([(iwasawa_table(kind), 0), (TORUS1_SHIFTED, 0)])  # X + Z[1]
                if trimmed(got[key]) != trimmed(degree_multisets(want)):
                    return False
            betti = dict(iwasawa_table("de_rham"))
            for k, v in TORUS1_SHIFTED_BETTI.items():
                betti[k] = betti.get(k, 0) + v
            return got["derham"] == tuple(betti.get(k, 0) for k in range(max(betti) + 1))

        def einf_matches_betti(name):
            got = cli_tables(name)
            return tuple(sum(row) for row in got["einf"]) == got["derham"]

        def iwasawa_cli_published():
            got = cli_tables("cli.model_iwasawa")
            return (got["e1"] == IWASAWA_E1 and got["e2"] == IWASAWA_E2
                    and got["bc"] == IWASAWA_BC and got["derham"] == IWASAWA_BETTI
                    and all(trimmed(got[key]) == trimmed(degree_multisets(iwasawa_table(kind)))
                            for key, kind in CLI_KINDS.items()))

        induced = [f"pairing.induced.{k}" for k in KINDS]
        return [
            ("blow-up complex is Iwasawa + torus1[1]", ["blow_up"],
             lambda: dims("blow_up") == shifted_sum([(iw_dims, 0), (t1_dims, 1)])),
            ("projective bundle of rank 3 is Iwasawa + [1] + [2]", ["projective_bundle"],
             lambda: dims("projective_bundle") == shifted_sum([(iw_dims, i) for i in range(3)])),
            ("tensor dimensions convolve", ["tensor"],
             lambda: dims("tensor") == _convolve(iw_dims, t1_dims)),
            ("dual dimensions reflect", ["dual"],
             lambda: dims("dual") == {(3 - p, 3 - q): n for (p, q), n in iw_dims.items()}),
            ("exceptional divisor consistency for r = 2..4",
             [f"exceptional_r{r}" for r in (2, 3, 4)],
             lambda: all(values[f"exceptional_r{r}"] is True for r in (2, 3, 4))),
            ("Serre pairing is an E1-isomorphism", ["pairing.e1iso"],
             lambda: values["pairing.e1iso"]["ok"] is True and all(
                 src == tgt == rank for _, _, src, tgt, rank in values["pairing.e1iso"]["witnesses"])),
            ("induced maps of the pairing are square", induced,
             lambda: all(e[-1] == e[-2] for name in induced for e in values[name])),
            ("Iwasawa published E1, Bott-Chern and Betti numbers (induced maps)", induced,
             lambda: degree_multisets(iwasawa_table("dolbeault")) == IWASAWA_E1
             and degree_multisets(iwasawa_table("bott_chern")) == IWASAWA_BC
             and tuple(iwasawa_table("de_rham")[k] for k in range(7)) == IWASAWA_BETTI),
            ("Iwasawa published E1, E2, Bott-Chern and Betti numbers (CLI)",
             ["cli.model_iwasawa"] + induced, iwasawa_cli_published),
            ("E_infinity per degree equals the Betti numbers (CLI)", list(CLI_RUNS),
             lambda: all(einf_matches_betti(name) for name in CLI_RUNS)),
            ("blow-up tables are Iwasawa + torus1[1] (CLI)", ["cli.blowup"] + induced,
             blowup_additive),
            ("serialization round trip returns the blow-up", ["roundtrip.loaded", "blow_up"],
             lambda: values["roundtrip.loaded"] == values["blow_up"]),
        ]


def _convolve(x: dict, y: dict) -> dict:
    out: dict = {}
    for (p1, q1), n1 in x.items():
        for (p2, q2), n2 in y.items():
            out[(p1 + p2, q1 + q2)] = out.get((p1 + p2, q1 + q2), 0) + n1 * n2
    return out


WORKLOADS = {w.name: w for w in (Nilmanifold(), Random(), Constructions())}
