"""Record the output digests that bench/run.py compares every pass against.

    python3 bench/record_digests.py

Runs one pass of every workload with seed 0 and rewrites bench/digests.json.
Every workload's outputs are the same for every seed (see workloads.py), so
one set per workload serves all seeds.  The outputs are exact, so the file
only has to be rewritten when a workload's outputs change on purpose; record
it on a commit whose outputs are trusted, and review the diff.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_library()
    from workloads import WORKLOADS, Outputs, canonical

    recorded: dict = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.setup(0)
        raw = workload.run(inputs, Outputs())
        recorded[name] = {output: run.digest(canonical(raw[output]))
                          for output in workload.expected(inputs)}
        print(f"recorded {name}", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
