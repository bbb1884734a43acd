#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise the run-to-run spread.

Run from the root of a gltlab checkout:

    python3 perfbench/spread.py --runs 10 --out perfbench/results/<name>.json

Each round runs every workload once, as its own `run.py` process with the
`run_seconds` of BENCHMARK.json, seed `--first-seed + round`.  For each
end-to-end metric it reports the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance as
a share of the median, next to the bound BENCHMARK.json fixes.  The record
also keeps every run's values, its correctness fields and its duration, so a
later change can be compared against it run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([*spec["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("RECORD "))[7:])
    return {"seed": seed, "run_seconds": round(took, 3), "result": result, "record": record}


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"median": median, "q1": q1, "q3": q3, "values": values,
           "spread": (q3 - q1) / median if median else None}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary record here")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            run = _run(spec, name, args.first_seed + i, args.trace)
            runs[name].append(run)
            print(f"{name} seed {run['seed']}: {run['run_seconds']:.1f} s  " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in run["result"]["metrics"].items()
                if not args.trace or k in ("trace.overhead_s",)), flush=True)
    summary = {}
    for name in names:
        rows = runs[name]
        summary[name] = {
            "metrics": {m["name"]: summarise([r["result"]["metrics"][m["name"]]["value"]
                                              for r in rows], m.get("bound"))
                        for m in metrics},
            "correct": all(r["result"]["correct"] for r in rows),
            "failed_per_run": [r["result"]["failed"] for r in rows],
            "attempted_per_run": [r["result"]["attempted"] for r in rows],
            "extra_metrics": {k: statistics.median(r["record"]["extra_metrics"][k] for r in rows)
                              for k in rows[0]["record"].get("extra_metrics", {})},
            "runs": [{"seed": r["seed"], "run_seconds": r["run_seconds"],
                      "pass_seconds": r["record"]["pass_seconds"],
                      "op_seconds": {o["op"]: o["seconds"] for o in r["record"]["ops"]},
                      **{k: r["record"][k] for k in ("setup_probe_seconds", "kernel_seconds")
                         if k in r["record"]}}
                     for r in rows],
        }
        for k, s in summary[name]["metrics"].items():
            if s["spread"] is not None and "bound" in s:
                print(f"{name:<8} {k:<14} median {s['median']:.5g}  spread {s['spread']:.4f}"
                      f"  bound {s['bound']}")
    if args.out:
        first = runs[names[0]][0]["record"]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": first["environment"], "trace": args.trace,
                       "run_seconds": spec["run_seconds"], "workloads": summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
