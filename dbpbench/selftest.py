"""Toy-size self-test of the benchmark.

Usage (from the repository root)::

    python3 dbpbench/selftest.py

Checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics the code
  emits, with the same units and directions;
* every workload, traced and untraced, prints a passing result whose
  metrics are exactly the named ones, each with its unit;
* each workload's output check rejects a perturbed reference;
* the benchmark exits non-zero without a result when the program under
  test is missing.

Exits 0 when all checks pass and prints each failure otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS, Env, perturbed  # noqa: E402


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    command = [
        sys.executable, str(cwd / "dbpbench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_manifest() -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in manifest[key]}
        if listed != spec:
            errors.append(f"BENCHMARK.json {key} differs from the emitted metrics")
    return errors


def check_results() -> list[str]:
    errors = []
    for name in WORKLOADS:
        for trace, spec in ((0, END_TO_END), (1, PER_LAYER)):
            done = run_benchmark(name, trace)
            where = f"{name} --trace {trace}"
            if done.returncode != 0:
                errors.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: run not correct: {done.stdout.splitlines()[-2][-400:]}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != {k: unit for k, (unit, _) in spec.items()}:
                errors.append(f"{where}: metrics or units differ from the named ones")
    return errors


def check_perturbed_references() -> list[str]:
    errors = []
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = Env(workdir)
        for name, workload in WORKLOADS.items():
            inputs = workload.inputs(3, "toy")
            ref = workload.reference(inputs, env)
            out = workload.run(inputs, env)
            if workload.check(out, ref):
                errors.append(f"{name}: output check fails on the true reference")
            if not workload.check(out, perturbed(name, ref)):
                errors.append(f"{name}: output check accepts a perturbed reference")
            env.clear()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_missing_program() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail, print nothing."""
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.copytree(HERE, bare / "dbpbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run_benchmark("stream-ff", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["benchmark without the program exited 0 or printed a result"]
    return []


def main() -> int:
    errors = check_manifest() + check_perturbed_references() + check_missing_program() + check_results()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
