"""Recompute the pinned output digests in ``pins.json``.

Usage (from the repository root)::

    python3 dbpbench/pin.py 0 29                # every workload
    python3 dbpbench/pin.py 0 29 exact-ratio    # only the named workloads

Runs each workload once per seed in the inclusive range at full size and
records the SHA-256 digest of its canonical output; pins of workloads not
named are kept.  The benchmark's check compares every run of a pinned
seed against these digests, so regenerate them only for a change that is
meant to move outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import PINS_PATH, WORKLOADS, Env, load_pins  # noqa: E402


def main(first: int, last: int, names: list[str]) -> int:
    workdir = HERE.parent / ".bench_work" / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True)
    pins = load_pins()
    try:
        env = Env(workdir)
        for name in names or WORKLOADS:
            workload = WORKLOADS[name]
            pins[name] = {}
            for seed in range(first, last + 1):
                inputs = workload.inputs(seed, "full")
                out = workload.run(inputs, env)
                ref = workload.reference(inputs, env)
                ref["pin"] = None  # the digest is what is being regenerated
                errors = workload.check(out, ref)
                if errors:
                    print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                    return 1
                pins[name][str(seed)] = workload.digest(out)
                env.clear()
                print(name, seed, pins[name][str(seed)][:12], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]))
