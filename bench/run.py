"""Benchmark of bicomplex: time to exact cohomology tables on three workloads.

Run from the root of the repository:

    python3 bench/run.py --workload nilmanifold --seed 0 --seconds 30 --trace 0

`--trace 0` times passes with nothing patched and prints the end-to-end
metrics.  `--trace 1` installs the tracer (bench/tracer.py) and prints the
per-layer metrics of one traced pass.  Either way the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See bench/README.md for the workloads and every metric.

The library is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits with code 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"

WORKLOAD_NAMES = ("nilmanifold", "random", "constructions")
# Fresh processes started one after another for the cold figures, besides
# the run's own process.
COLD_PROCESSES = 5
# Passes in the run's own process, at the least.
MIN_PASSES = 3
# Times are reported at the host speed where the calibration loop takes this long.
CALIBRATION_REF_S = 0.010
# The calibration loop runs after every SEGMENT_S of measured work.
SEGMENT_S = 0.05
CHILD_TIMEOUT_S = 170

# The two command lines of ROADMAP item 1's elimination table, with the
# (eliminations, distinct eliminations) it lists for them.
CLI_TABLES = "e1,e2,einf,derham,bc,aeppli,rows"
ROADMAP_CLI = {
    "model": (["model", "iwasawa", "--tables", CLI_TABLES], (335, 107)),
    "random": (["random", "--seed", "209", "--window", "0,5,0,5", "--size", "37",
                "--tables", CLI_TABLES], (858, 346)),
}


def import_library() -> float:
    """Import bicomplex from this checkout's src/; returns the seconds it took."""
    if not (SRC / "bicomplex" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source at {SRC / 'bicomplex'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import bicomplex
    elapsed = time.perf_counter() - start
    if Path(bicomplex.__file__).resolve().parent != SRC / "bicomplex":
        raise SystemExit(f"bench: imported bicomplex from {bicomplex.__file__}, not {SRC}")
    return elapsed


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts outputs attempted and failed, for one workload."""

    def __init__(self, workload):
        self.workload = workload
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.recorded = recorded.get(workload.name)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        if message not in self.messages:
            self.messages.append(message)

    def check(self, inputs, raw) -> dict[str, str]:
        """Check one pass; returns the digest of every output."""
        from workloads import Raised, canonical

        names = self.workload.expected(inputs)
        values, bad = {}, set()
        for name in names:
            value = raw.get(name)
            if value is None or isinstance(value, Raised):
                bad.add(name)
                self.fail(f"{name}: {value.text if value is not None else 'missing'}")
                continue
            try:
                values[name] = canonical(value)
            except (TypeError, AttributeError) as error:
                bad.add(name)
                self.fail(f"{name}: {error}")
        digests = {name: digest(v) for name, v in values.items()}
        if self.recorded is not None:
            for name in names:
                if name in digests and self.recorded.get(name) != digests[name]:
                    bad.add(name)
                    self.fail(f"{name}: digest differs from the recorded one")
        for description, involved, holds in self.workload.identities(inputs, values):
            try:
                ok = bool(holds())
            except Exception as error:  # a broken output must not stop the run
                ok = False
                description += f" ({type(error).__name__}: {error})"
            if not ok:
                bad.update(involved)
                self.fail(f"identity fails: {description}")
        self.attempted += len(names)
        self.failed += len(bad)
        return digests

    def expect(self, ok: bool, message: str) -> None:
        """One self-check of the benchmark, counted like an output."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fail(message)

    def add(self, other: dict) -> None:
        """Fold in the counts a child process reported."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        for message in other["messages"]:
            self.fail(message)


def calibration_loop() -> None:
    """Fixed pure-Python work like the library's: Fraction arithmetic and dicts."""
    acc = Fraction(0)
    table = {}
    for i in range(1500):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
        table[(i, i % 13)] = acc


def calibration_time() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


class SpeedMeter:
    """Adds up step times rescaled to the reference host speed, the speed at
    which the calibration loop takes CALIBRATION_REF_S.

    A single-threaded pass on a shared host runs up to about 2x slower in episodes
    lasting from seconds to minutes.  Steps are grouped into segments of at
    least SEGMENT_S; the calibration loop runs at each segment boundary, and
    a segment's time is divided by the mean of the loop's times at its two
    ends.  The ratio is steadier than the raw time.
    """

    def __init__(self):
        self.speed = calibration_time()
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._pending_s = 0.0

    def step(self, seconds: float) -> None:
        self.raw_s += seconds
        self._pending_s += seconds
        if self._pending_s >= SEGMENT_S:
            self.close_segment()

    def close_segment(self) -> None:
        if self._pending_s:
            speed = calibration_time()
            self.scaled_s += self._pending_s * CALIBRATION_REF_S * 2 / (self.speed + speed)
            self.speed = speed
            self._pending_s = 0.0


def rescaled(seconds: float) -> float:
    """A time just measured, at reference speed."""
    meter = SpeedMeter()
    meter.step(seconds)
    meter.close_segment()
    return meter.scaled_s


def run_child(args, role: str) -> dict:
    """Run this script as a fresh process in the given role; its JSON result."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--child", role]
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"bench: {role} child process exited with {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def timed_pass(workload, seed: int):
    """Set up and run one pass: (inputs, outputs, set-up s, pass s, raw pass s),
    the first two times at reference speed."""
    from workloads import Outputs

    start = time.perf_counter()
    inputs = workload.setup(seed)
    setup_s = rescaled(time.perf_counter() - start)
    meter = SpeedMeter()
    raw = workload.run(inputs, Outputs(meter.step))
    meter.close_segment()
    return inputs, raw, setup_s, meter.scaled_s, meter.raw_s


def cold_pass(workload, seed: int, import_s: float, checker: Checker) -> dict:
    """The set-up and first pass of a fresh process, after import."""
    import_s = rescaled(import_s)
    inputs, raw, setup_s, wall_s, raw_s = timed_pass(workload, seed)
    checker.check(inputs, raw)
    return {"setup_s": import_s + setup_s, "wall_s": wall_s, "raw_s": raw_s}


def untraced(args, workload, import_s: float, checker: Checker) -> dict:
    begin = time.perf_counter()
    colds = []
    for _ in range(COLD_PROCESSES):
        child = run_child(args, "cold")
        checker.add(child)
        colds.append(child)
    colds.append(cold_pass(workload, args.seed, import_s, checker))
    walls = [colds[-1]["wall_s"]]
    raws = [colds[-1]["raw_s"]]
    while len(walls) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        inputs, raw, _, wall_s, raw_s = timed_pass(workload, args.seed)
        walls.append(wall_s)
        raws.append(raw_s)
        checker.check(inputs, raw)
    print(f"bench: {len(colds)} cold passes, {len(walls)} passes in this process; "
          f"unscaled pass median {statistics.median(raws):.4f} s", file=sys.stderr)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cold_wall_s": (statistics.median(c["wall_s"] for c in colds), "s"),
        "setup_s": (statistics.median(c["setup_s"] for c in colds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - checker.failed / checker.attempted, "1"),
    }


def traced_pass(workload, seed: int):
    """Install the tracer, then build inputs and run one pass as pass 1."""
    import tracer

    t = tracer.Tracer()
    t.install()
    t.pass_id = 1
    inputs, raw, _, wall_s, _ = timed_pass(workload, seed)
    t.pass_id = 0
    return t, inputs, raw, wall_s


def traced(args, workload, checker: Checker) -> dict:
    import tracer

    t, inputs, raw, traced_wall = traced_pass(workload, args.seed)
    metrics = t.layer_metrics(1)
    counts = {k: metrics[k] for k in tracer.REPEATABLE}

    for index, (key, (argv, roadmap)) in enumerate(ROADMAP_CLI.items()):
        result = t.check_cli(argv, pass_id=2 + index)
        calls, distinct = result["traced"]
        checker.expect(result["exit_code"] == 0 and result["traced"] == result["profiled"],
                       f"tracer check `bicomplex {' '.join(argv)}`: exit {result['exit_code']}, "
                       f"tracer saw {result['traced']}, profiler saw {result['profiled']}")
        metrics[f"cli.roadmap_{key}_rref_calls"] = calls
        metrics[f"cli.roadmap_{key}_rref_distinct"] = distinct
        print(f"bench: `bicomplex {' '.join(argv)}`: {calls} eliminations, {distinct} distinct "
              f"(ROADMAP item 1 lists {roadmap[0]}, {roadmap[1]})", file=sys.stderr)
    t.uninstall()

    traced_digests = checker.check(inputs, raw)
    inputs, raw, _, untraced_wall, _ = timed_pass(workload, args.seed)
    untraced_digests = checker.check(inputs, raw)
    for name in sorted(set(traced_digests) | set(untraced_digests)):
        checker.expect(traced_digests.get(name) == untraced_digests.get(name),
                       f"{name}: traced and untraced outputs differ")
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall

    # The same counts from a traced pass in a fresh process: both passes are
    # the first of their process, so a process-wide memo cannot tell them apart.
    again = run_child(args, "counts")["counts"]
    checker.expect(again == counts, f"counts do not repeat: {counts} then {again}")

    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "passes": {"1": "workload pass with its set-up",
                   **{str(2 + i): f"bicomplex {' '.join(argv)}"
                      for i, (argv, _) in enumerate(ROADMAP_CLI.values())}},
        "fields": ["name", "start_s", "end_s", "parent", "pass"],
        "spans": t.spans,
    }))
    print(f"bench: {len(t.spans)} spans written to {spans_file.relative_to(ROOT)}", file=sys.stderr)
    units = {"_s": "s", "_calls": "count", "_ratio": "1", "_count": "count",
             "_distinct": "count", "_cells": "count", "_bits": "bits"}
    return {name: (value, next(u for suffix, u in units.items() if name.endswith(suffix)))
            for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--child", choices=("cold", "counts"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s = import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    checker = Checker(workload)
    if args.child == "counts":
        import tracer

        t, _, _, _ = traced_pass(workload, args.seed)
        t.uninstall()
        print(json.dumps({"counts": {k: t.counts()[k] for k in tracer.REPEATABLE}}))
        return 0
    if args.child == "cold":
        result = cold_pass(workload, args.seed, import_s, checker)
        print(json.dumps({**result, "attempted": checker.attempted, "failed": checker.failed,
                          "messages": checker.messages}))
        return 0

    if checker.recorded is None:
        print(f"bench: no recorded digests for {workload.name}; checking identities only",
              file=sys.stderr)
    if args.trace:
        metrics = traced(args, workload, checker)
    else:
        metrics = untraced(args, workload, import_s, checker)
    for message in checker.messages:
        print(f"bench: FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
