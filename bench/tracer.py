"""Spans and counts for the traced run, installed from outside the package.

Nothing under src/ knows about this module.  `Tracer.install` imports every
layer of bicomplex, then replaces each public function whose `__module__` is
one of those layers at every module binding it finds: the defining module,
the modules that import it by name (cohomology imports `rank` and
`kernel_basis`, for example), the package namespace, and module-level
tuples, lists and dicts that captured it at import time.  Names that do not
exist are simply not found, so adding or deleting library functions needs no
edit here.

Each wrapper records a span [name, start, end, parent, pass id] in memory.
On top of the spans, two counters sit at the same boundaries:

* every `linalg.rref` call records its input (for the distinct count), the
  cells and nonzeros going in and out, and the largest numerator or
  denominator bit length in its output.  That bookkeeping is itself a span
  named `trace.count`, a child of the rref span, so it is charged to neither
  `rref` nor its callers' self time;
* `GaussianRational.__mul__` / `__rmul__` count scalar multiplies, without a
  span (a random pass makes over a hundred thousand).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import sys
import time
import types

LAYERS = ("scalars", "linalg", "complexes", "cohomology", "models", "geometry", "serialize", "cli")

# Span name -> per-layer metric stem.  A stem `x` yields `x_s` (self time)
# and `x_calls`.  Spans not listed here still count in `<layer>.self_s`.
GROUPS = {
    "linalg.rref": "linalg.rref",
    **{f"linalg.{fn}": "linalg.subspace" for fn in (
        "kernel_basis", "image_basis", "canonical_span", "subspace_sum",
        "subspace_intersection", "solve_columns", "coset_representatives",
        "induced_subquotient_map")},
    "cohomology.frolicher": "cohomology.frolicher",
    "cohomology.de_rham": "cohomology.de_rham",
    "cohomology.dolbeault": "cohomology.dolbeault",
    "cohomology.conjugate_dolbeault": "cohomology.conjugate_dolbeault",
    "cohomology.bott_chern": "cohomology.bott_chern",
    "cohomology.aeppli": "cohomology.aeppli",
    "cohomology.induced_cohomology_map": "cohomology.induced_map",
    "complexes.is_E1_isomorphism": "complexes.e1iso",
    "complexes.validate": "complexes.validate",
    "complexes.random_complex": "complexes.random",
    **{f"complexes.{fn}": "complexes.construct" for fn in (
        "shift", "direct_sum_many", "tensor", "dual", "quotient", "transpose_complex")},
    "models.parse_model_file": "models.parse",
    "models.lie_algebra_model": "models.build",
    "models.serre_pairing_morphism": "models.pairing",
    "geometry.blow_up": "geometry.construct",
    "geometry.projective_bundle": "geometry.construct",
    "geometry.exceptional_consistency_check": "geometry.check",
    "geometry.modification_summand_check": "geometry.check",
    "serialize.dumps_complex": "serialize.dumps",
    "serialize.loads_complex": "serialize.loads",
    "cli.run": "cli.run",
}

# The counts that must repeat exactly between two traced runs of one seed.
REPEATABLE = ("linalg.rref_calls", "linalg.rref_distinct", "scalars.mul_count", "scalars.max_bits")


def _layer_of(fn: types.FunctionType) -> str | None:
    """The layer a public library function belongs to, or None."""
    parts = (fn.__module__ or "").split(".")
    if len(parts) != 2 or parts[0] != "bicomplex" or parts[1] not in LAYERS:
        return None
    if fn.__name__.startswith("_") or fn.__name__ == "<lambda>":
        return None
    return parts[1]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.pass_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, types.FunctionType] = {}
        self.rref_code = None
        self.reset_counts()

    def reset_counts(self) -> None:
        self._muls = [0]
        self.rref_calls = 0
        self.rref_inputs: set = set()
        self.rref_cells = 0
        self.nnz_in = 0
        self.nnz_out = 0
        self.max_bits = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(f"bicomplex.{layer}")
        for name, module in sorted(sys.modules.items()):
            if name != "bicomplex" and not name.startswith("bicomplex."):
                continue
            for attr, value in list(vars(module).items()):
                new = self._wrapped(value)
                if new is not value:
                    self._patch(module, attr, new)
        scalars = sys.modules.get("bicomplex.scalars")
        cls = getattr(scalars, "GaussianRational", None)
        if cls is not None:
            for attr in ("__mul__", "__rmul__"):
                if attr in vars(cls):
                    self._patch(cls, attr, self._counting_mul(vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrapped(self, value):
        """value with every public layer function in it replaced by its wrapper."""
        if isinstance(value, types.FunctionType):
            return self._wrapper_for(value) if _layer_of(value) else value
        if type(value) in (tuple, list):
            items = [self._wrapped(v) if isinstance(v, types.FunctionType) else v for v in value]
            changed = any(a is not b for a, b in zip(items, value))
            return type(value)(items) if changed else value
        if type(value) is dict:
            items = {k: self._wrapped(v) if isinstance(v, types.FunctionType) else v
                     for k, v in value.items()}
            changed = any(items[k] is not v for k, v in value.items())
            return items if changed else value
        return value

    def _wrapper_for(self, fn: types.FunctionType) -> types.FunctionType:
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            name = f"{_layer_of(fn)}.{fn.__name__}"
            inner = fn
            if name == "linalg.rref":
                self.rref_code = fn.__code__
                inner = self._counting_rref(fn)
            wrapper = self._span(inner, name)
            self._wrappers[id(fn)] = wrapper
            self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _span(self, fn, name: str):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], tracer.pass_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _counting_rref(self, rref):
        clock = time.perf_counter

        @functools.wraps(rref)
        def counted(m, *args, **kwargs):
            result = rref(m, *args, **kwargs)
            start = clock()
            self._count_rref(m, result[0])
            self.spans.append(["trace.count", start, clock(), self._stack[-1], self.pass_id])
            return result

        return counted

    def _count_rref(self, m, reduced) -> None:
        self.rref_calls += 1
        # Numbers hash the same in every process, so this key (and the
        # distinct count) repeats exactly across runs.
        self.rref_inputs.add((m.rows, m.cols, len(m.entries), hash(frozenset(m.entries.items()))))
        self.rref_cells += m.rows * m.cols
        self.nnz_in += len(m.entries)
        self.nnz_out += len(reduced.entries)
        bits = self.max_bits
        for v in reduced.entries.values():
            bits = max(bits, _bits(v.re), _bits(v.im))
        self.max_bits = bits

    def _counting_mul(self, mul):
        muls = self._muls

        @functools.wraps(mul)
        def counted(a, b):
            muls[0] += 1
            return mul(a, b)

        return counted

    # -- results ---------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        distinct = len(self.rref_inputs)
        return {
            "scalars.mul_count": self._muls[0],
            "scalars.max_bits": self.max_bits,
            "linalg.rref_calls": self.rref_calls,
            "linalg.rref_distinct": distinct,
            "linalg.rref_distinct_ratio": distinct / self.rref_calls if self.rref_calls else 0.0,
            "linalg.rref_cells": self.rref_cells,
            "linalg.fill_ratio": self.nnz_out / self.nnz_in if self.nnz_in else 0.0,
        }

    def self_times(self, pass_id: int) -> dict[str, tuple[float, int]]:
        """Per span name: (self time, calls) over the spans of one pass."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for index, (name, start, end, _, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - covered[index], calls + 1)
        return out

    def layer_metrics(self, pass_id: int) -> dict[str, float]:
        """Every per-layer metric of one pass; layers that did not run read 0."""
        own = self.self_times(pass_id)
        metrics: dict[str, float] = {}
        for stem in dict.fromkeys(GROUPS.values()):
            metrics[f"{stem}_s"] = 0.0
            metrics[f"{stem}_calls"] = 0
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = 0.0
        for name, (seconds, calls) in own.items():
            stem = GROUPS.get(name)
            if stem is not None:
                metrics[f"{stem}_s"] += seconds
                metrics[f"{stem}_calls"] += calls
            layer = name.split(".")[0]
            if layer in LAYERS:
                metrics[f"{layer}.self_s"] += seconds
        metrics.update(self.counts())
        return metrics

    # -- checking the tracer itself ------------------------------------------

    def check_cli(self, argv: list[str], pass_id: int) -> dict:
        """Run one CLI command line under the tracer and, at the same time,
        under a profile hook that sees every call into rref's code object
        whatever name it was reached by.  Both counts come from one execution,
        so they must agree."""
        from bicomplex import cli

        code = self.rref_code
        seen_calls = [0]
        seen_inputs: set = set()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is code:
                m = frame.f_locals[code.co_varnames[0]]
                seen_calls[0] += 1
                seen_inputs.add((m.rows, m.cols, len(m.entries), hash(frozenset(m.entries.items()))))

        self.reset_counts()
        self.pass_id = pass_id
        sink = io.StringIO()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                exit_code = cli.run(argv)
        finally:
            sys.setprofile(None)
        return {
            "exit_code": exit_code,
            "traced": (self.rref_calls, len(self.rref_inputs)),
            "profiled": (seen_calls[0], len(seen_inputs)),
        }
