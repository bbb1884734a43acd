#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (a few seconds).

Run from the root of a gltlab checkout:

    python3 perfbench/selftest.py

It checks that
- an untraced smoke run is correct, with no failed op and every end-to-end
  metric present;
- two traced smoke runs with the same seed, in separate processes, report
  identical `*.calls` counts and identical computed work counts, so
  that later count-based claims can rest on them;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import COMPUTED  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke", "--seconds", "0"]


def _result(*extra: str) -> dict:
    proc = subprocess.run(RUN + list(extra), capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(extra)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_untraced(spec: dict) -> None:
    result = _result("--trace", "0", "--seed", "42")
    assert result["correct"] and result["failed"] == 0, result
    names = {m["name"] for m in spec["end_to_end"]}
    assert set(result["metrics"]) == names, sorted(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


def check_counts_repeat(spec: dict) -> None:
    first = _result("--trace", "1", "--seed", "42")
    second = _result("--trace", "1", "--seed", "42")
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counted = [k for k in first["metrics"] if k.endswith(".calls") or k in COMPUTED]
    differ = {k: (first["metrics"][k]["value"], second["metrics"][k]["value"])
              for k in counted if first["metrics"][k] != second["metrics"][k]}
    assert not differ, f"counts differ between two traced runs: {differ}"
    nonzero = ("linalg.svd.calls", "linalg.n3_sum", "gltcalc.materialize.bytes",
               "symbols.spectral_surfaces.points", "acs.model_sample.calls", "cli.main.calls")
    assert all(first["metrics"][k]["value"] > 0 for k in nonzero), first["metrics"]


def check_refuses_without_source() -> None:
    bare = os.path.join(os.getcwd(), ".bench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readme",
                               "--seed", "42", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for check in (check_untraced, check_counts_repeat):
        check(spec)
        print(f"ok {check.__name__}")
    check_refuses_without_source()
    print("ok check_refuses_without_source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
