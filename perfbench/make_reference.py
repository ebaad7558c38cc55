"""Record the per-seed reference outcomes the correctness gate compares with.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Runs one repetition of each kind of every workload for every input variant
and writes
``perfbench/reference.json``: for each seed its training status and
Discovery R^2.  Run it only when the benchmark's workloads change, never to
make a failing program pass.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import REFERENCE_PATH, VARIANTS, WORKLOADS  # noqa: E402
from worker import load_package  # noqa: E402


def main() -> int:
    pkg = load_package()
    reference = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for name, make in WORKLOADS.items():
            reference[name] = {}
            for variant in range(VARIANTS):
                work = make(pkg, variant)
                base = os.path.join(tmp, f"{name}-{variant}")
                os.makedirs(base)
                _, problems = work.setup(base)
                if problems:
                    raise RuntimeError(f"{name} variant {variant}: {problems}")
                outcomes = {}
                for index in range(len(work.KINDS)):
                    _, rep = work.rep(os.path.join(base, f"rep{index}"), index)
                    outcomes.update(rep.outcomes)
                reference[name][str(variant)] = outcomes
                print(name, variant, json.dumps(outcomes), flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
