#!/usr/bin/env python3
"""gltlab benchmark: closed-loop passes over a named workload.

Run from the root of a gltlab checkout:

    python3 perfbench/run.py --workload readme --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One process runs one workload with a single closed-loop client: each op
starts after the previous one ends, in-process through `gltlab.cli.main` or
the public Python API, inside a fresh directory under `.bench_tmp/`.  Passes
repeat until `--seconds` have elapsed, and at least twice, so that the
artifacts of two passes with the same seed can be compared byte for byte.

`--trace 0` reports the end-to-end metrics, with every time scaled to a
reference host speed by a fixed numpy kernel timed around each op (see
`_scaled`); the raw seconds stay in the record.  `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics (see spans.py).  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the line before it, prefixed `RECORD `, holds the full result:
environment, every metric, each pass time and each op's outcome.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout

ROOT = os.getcwd()
WORKLOADS = ("readme", "dense", "certify")
DEFAULT_SEED = 42  # the README's check-sacs seed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_ARGV = ["spectrum", "--expr", "T(2-2*cos(t1))", "--n", "8", "--mode", "lambda"]
PROBE = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, 'src')\n"
    "import gltlab.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    f"    gltlab.cli.main({WARMUP_ARGV!r})\n"
)
EXTRA_UNITS = {"raw_wall_s": "s", "cert_s": "s", "sacs_trials_per_s": "1/s",
               "fail_share": "share", "wrong_verdict_share": "share",
               "nondeterministic_share": "share"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _blas_threads() -> int | None:
    maps = _read("/proc/self/maps").splitlines()
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                    and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "gltlab")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            h.update(fname.encode())
            with open(os.path.join(src, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": _nproc(),
        "ram_mb": mem_kb // 1024,
        "loadavg_at_start": _read("/proc/loadavg").split()[:3],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload in this process


def _setup_probe() -> float:
    """Seconds for a fresh interpreter to import gltlab and run one small command."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, stdout=subprocess.DEVNULL)
    # A blocking wait: wait(timeout=...) polls every 50 ms, which would round
    # every probe up to the next poll.
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, PROBE)
    return time.perf_counter() - start


# The reference kernel's typical time on the host the baseline was measured on
# (a 2-core Xeon VM); scaled times are seconds at that speed.
REF_KERNEL_S = 0.150
_KERNEL_INPUTS: dict = {}


def _reference_kernel() -> float:
    """Seconds for fixed numpy work that no gltlab code runs: many small SVDs
    (as in the Monte Carlo loop), one 512-row SVD (as in the dense solvers)
    and vectorised cos and sort (as in symbol quadrature)."""
    import numpy as np

    if not _KERNEL_INPUTS:
        rng = np.random.default_rng(0)
        big = rng.standard_normal((512, 512))
        _KERNEL_INPUTS["small"] = [rng.standard_normal((20, 20)) for _ in range(1500)]
        _KERNEL_INPUTS["big"] = big + big.T
        _KERNEL_INPUTS["x"] = np.linspace(0.0, np.pi, 1 << 18)
    start = time.perf_counter()
    for m in _KERNEL_INPUTS["small"]:
        np.linalg.svd(m, compute_uv=False)
    np.linalg.svd(_KERNEL_INPUTS["big"], compute_uv=False)
    for _ in range(4):
        np.sort(np.abs(2 - 2 * np.cos(_KERNEL_INPUTS["x"])))
    return time.perf_counter() - start


def _import_gltlab():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gltlab.cli

    expected = os.path.join(ROOT, "src", "gltlab")
    if os.path.dirname(os.path.abspath(gltlab.__file__)) != expected:
        raise SystemExit(f"error: imported gltlab from {gltlab.__file__}, not {expected}")
    with redirect_stdout(io.StringIO()):
        gltlab.cli.main(WARMUP_ARGV)


def _family_seconds(results, family: str) -> float:
    return sum(r.seconds for r in results if r.op.family == family)


def _sacs_trials(op) -> int:
    argv = list(op.argv)
    value = lambda flag: argv[argv.index(flag) + 1]
    return (int(value("--trials")) * len(value("--m-list").split(","))
            * len(value("--sizes").split(";")))


def _outcomes(ops, passes) -> dict:
    """Correctness over all passes: failures, wrong verdicts, artifact drift."""
    flat = [r for results in passes for r in results]
    nondet = [i for i in range(len(ops)) if len({p[i].digest for p in passes}) > 1]
    return {
        "attempted": len(flat),
        "failed": sum(r.failed for r in flat),
        "wrong": sum(r.wrong_verdict for r in flat),
        "nondeterministic_ops": [ops[i].name for i in nondet],
        "fail_share": sum(r.failed for r in flat) / len(flat),
        "wrong_verdict_share": sum(r.wrong_verdict for r in flat) / len(flat),
        "nondeterministic_share": len(nondet) / len(ops),
    }


def _op_table(ops, passes) -> list[dict]:
    return [{
        "op": op.name,
        "family": op.family,
        "expect_exit": op.expect_exit,
        "why": op.why,
        "exit": [p[i].exit_code for p in passes],
        "seconds": [round(p[i].seconds, 4) for p in passes],
        "error": next((p[i].error for p in passes if p[i].error), ""),
        "check_error": next((p[i].check_error for p in passes if p[i].check_error), None),
    } for i, op in enumerate(ops)]


def _run_passes(ops, scratch: str, seconds: float, trace: bool):
    """Plain passes, or plain and traced passes in turn, for ``seconds`` and
    at least two passes (one of each when tracing).

    Untraced, a set-up probe and the reference kernel run before each op of
    every pass, and the kernel once more after the pass, so that the kernel
    brackets every op.  Returns the plain passes, the traced passes, their
    layer metrics, the (probe, kernel) pairs and each plain pass's kernel
    times."""
    import workloads
    from spans import Tracer, layer_metrics

    plain, traced, layers, probes, kernels = [], [], [], [], []

    def before_op(i):
        probe = _setup_probe()
        kernel = _reference_kernel()
        probes.append((probe, kernel))
        kernels[-1].append(kernel)

    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(workloads.run_pass(ops, scratch, tracer.begin_op))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer))
        elif trace:
            plain.append(workloads.run_pass(ops, scratch))
        else:
            kernels.append([])
            plain.append(workloads.run_pass(ops, scratch, before_op))
            kernels[-1].append(_reference_kernel())
        enough = len(plain) + len(traced) >= 2 and (traced or not trace)
        if enough and time.perf_counter() - start >= seconds:
            return plain, traced, layers, probes, kernels


def _scaled(results, kernels: list[float]):
    """The pass with each op's seconds at reference speed: multiplied by
    REF_KERNEL_S over the mean of the kernel times just before and after it."""
    return [dataclasses.replace(r, seconds=r.seconds * 2 * REF_KERNEL_S
                                / (kernels[i] + kernels[i + 1]))
            for i, r in enumerate(results)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # Imported here, after main() has fixed the BLAS threads: spans imports numpy.
    import workloads
    from spans import COMPUTED

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    try:
        _import_gltlab()
        env = environment(seed)
        ops = workloads.workload(name, seed)
        plain, traced, layers, probes, kernels = _run_passes(ops, scratch, seconds, trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = plain + traced
    out = _outcomes(ops, passes)
    walls = [sum(r.seconds for r in p) for p in plain]  # raw seconds
    record = {
        "workload": name,
        "trace": int(trace),
        "environment": env,
        "passes": len(passes),
        "pass_seconds": [round(w, 4) for w in walls],
        "pass_spread": (max(walls) - min(walls)) / statistics.median(walls),
        "outcomes": out,
        "ops": _op_table(ops, passes),
    }
    metrics: dict[str, float] = {}
    if trace:
        traced_walls = [sum(r.seconds for r in p) for p in traced]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        record["traced_pass_seconds"] = [round(w, 4) for w in traced_walls]
        record["counts_repeat"] = all(
            m[k] == layers[0][k] for m in layers for k in m
            if k.endswith(".calls") or k in COMPUTED)
        record["computed"] = list(COMPUTED)
        units = _spec_units("per_layer")
    else:
        # Every time below is at reference speed (see _scaled) except raw_wall_s.
        plain = [_scaled(p, k) for p, k in zip(plain, kernels)]
        extra = {"raw_wall_s": statistics.median(walls),
                 "fail_share": out["fail_share"],
                 "wrong_verdict_share": out["wrong_verdict_share"],
                 "nondeterministic_share": out["nondeterministic_share"]}
        metrics = {
            "wall_s": statistics.median(sum(r.seconds for r in p) for p in plain),
            "setup_s": statistics.median(probe * REF_KERNEL_S / kernel
                                         for probe, kernel in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "dist_s": statistics.median(_family_seconds(p, workloads.DIST) for p in plain),
        }
        if any(op.family == workloads.CERT for op in ops):
            extra["cert_s"] = statistics.median(_family_seconds(p, workloads.CERT)
                                                for p in plain)
        sacs = [i for i, op in enumerate(ops) if op.family == workloads.SACS]
        if sacs:
            trials = sum(_sacs_trials(ops[i]) for i in sacs)
            extra["sacs_trials_per_s"] = statistics.median(
                trials / sum(p[i].seconds for i in sacs) for p in plain)
        record["setup_probe_seconds"] = [round(probe, 4) for probe, _ in probes]
        record["kernel_seconds"] = [[round(k, 4) for k in ks] for ks in kernels]
        record["extra_metrics"] = extra
        units = _spec_units("end_to_end")
        for k, v in extra.items():
            print(f"metric {k} = {v:.6g} {EXTRA_UNITS[k]}")

    for k, v in metrics.items():
        tag = " (computed)" if k in COMPUTED else ""
        print(f"metric {k} = {v:.6g} {units[k]}{tag}")
    for row in record["ops"]:
        print(f"op {row['op']:<24} exit {row['exit']} ref {row['expect_exit']}  "
              f"seconds {row['seconds']}" + (f"  [{row['error'][:120]}]" if row["error"] else "")
              + (f"  CHECK: {row['check_error']}" if row["check_error"] else ""))
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": out["wrong"] == 0 and not out["nondeterministic_ops"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def _spec_units(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# every workload, one child process each


def run_all(seed: int, seconds: float, trace: bool) -> int:
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        record = next((json.loads(line[len("RECORD "):]) for line in proc.stdout.splitlines()
                       if line.startswith("RECORD ")), None)
        if proc.returncode != 0 or record is None:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        metrics = {k: (v["value"], v["unit"]) for k, v in record["metrics"].items()}
        for k, v in record.get("extra_metrics", {}).items():
            metrics[k] = (v, EXTRA_UNITS[k])
        rows.extend((name, k, v, u) for k, (v, u) in metrics.items())
    for name, k, v, u in rows:
        print(f"{name:<8} {k:<36} {v:>14.6g} {u}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("smoke", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gltlab", "__init__.py")):
        print("error: run from the root of a gltlab checkout (no src/gltlab here)",
              file=sys.stderr)
        return 2
    # Fix the BLAS pool before numpy is first imported, here and in children.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(_nproc())
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
