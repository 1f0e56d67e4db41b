"""Self-check of the benchmark at tiny sizes (under a minute on 2 cores).

    python3 perfbench/selfcheck.py

Runs every workload with `--tiny` for a moment, untraced and traced, and
checks that:

- the last line of standard output is the result object, with exactly the
  keys `correct`, `attempted`, `failed` and `metrics`, and no failed operation;
- the metrics are exactly the `end_to_end` (untraced) or `per_layer` (traced)
  names of BENCHMARK.json, each a finite number with the declared unit;
- in the traced result file every span's parent is an earlier span that
  encloses it, and every self time is non-negative;
- in a directory holding only BENCHMARK.json and the benchmark's own files,
  the benchmark exits non-zero without printing a result.

Exits 0 when all of these hold and prints each problem otherwise.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(workload: str, trace: int, spec: dict, problems: list[str]) -> None:
    where = f"{workload} trace {trace}"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = last_json(proc.stdout)
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(declared) ^ set(got)):
        problems.append(f"{where}: metric {name} is {'missing' if name in declared else 'undeclared'}")
    for name in set(declared) & set(got):
        value, unit = got[name]["value"], got[name]["unit"]
        if unit != declared[name]:
            problems.append(f"{where}: {name} has unit {unit}, declared {declared[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")
    if trace:
        check_spans(workload, where, problems)


def check_spans(workload: str, where: str, problems: list[str]) -> None:
    saved = json.loads((OUT / "results" / f"{workload}-seed3-trace1.json").read_text())
    spans = saved["spans"]
    if not any(sp["parent"] is not None for sp in spans):
        problems.append(f"{where}: no span has a parent")
    for i, sp in enumerate(spans):
        parent = sp["parent"]
        if parent is not None:
            outer = spans[parent] if 0 <= parent < i else None
            if outer is None or not (outer["start"] <= sp["start"] <= sp["end"] <= outer["end"]):
                problems.append(f"{where}: span {i} ({sp['name']}) has a bad parent link {parent}")
                break
        if sp["self"] < -1e-9:
            problems.append(f"{where}: span {i} ({sp['name']}) has negative self time {sp['self']}")
            break


def check_bare_directory(problems: list[str]) -> None:
    bare = OUT / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    argv = [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "cli", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec, problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
