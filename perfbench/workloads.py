"""The operations each workload runs, their reference outcomes, and one pass.

Every operation is a `gltlab` command line (run in-process through
`gltlab.cli.main`) or a call into the public Python API.  Each one runs in a
fresh temporary directory; the files it leaves there plus its captured stdout
and stderr are its artifacts, hashed so that two passes can be compared byte
for byte.

Reference outcomes are exit codes (0 PASS, 1 FAIL) fixed here from closed
forms, not from whatever the program prints today.  Exit codes 2 and 3, and
any exception, count as a failed operation, never as a verdict.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import shutil
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

DIST, CERT, SACS, OTHER = "dist", "cert", "sacs", "other"

LAPLACIAN = "T(2-2*cos(t1))"
PRODUCT = "D(x1)*T(2-2*cos(t1))"


@dataclass(frozen=True)
class Op:
    name: str
    family: str
    expect_exit: int
    why: str
    argv: tuple = ()
    call: Callable[[], int] | None = None
    check: Callable[[str], str | None] | None = None


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: int | None
    error: str
    digest: str
    check_error: str | None

    @property
    def failed(self) -> bool:
        return self.exit_code is None or self.exit_code >= 2

    @property
    def wrong_verdict(self) -> bool:
        if self.failed:
            return False
        return self.exit_code != self.op.expect_exit or self.check_error is not None


# ---------------------------------------------------------------------------
# closed-form output checks


def _printed_values(stdout: str) -> list[complex]:
    return [complex(float(re), float(im))
            for re, im in (line.split(",") for line in stdout.split())]


def _check_laplacian_eigs(n: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        got = sorted(v.real for v in _printed_values(stdout))
        want = sorted(2.0 - 2.0 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1))
        if len(got) != n:
            return f"expected {n} eigenvalues, got {len(got)}"
        worst = max(abs(a - b) for a, b in zip(got, want))
        return None if worst <= 1e-12 else f"eigenvalue error {worst:.3e} > 1e-12"

    return check


def _check_product_frobenius(n: int) -> Callable[[str], str | None]:
    # D_n(x) T_n(2-2cos) has entries x_i t_{i-j} with x_i = i/n, so its squared
    # Frobenius norm is sum_i x_i^2 (4 + 1 + 1) minus the two missing corner
    # neighbours: 6 sum x_i^2 - x_1^2 - x_n^2.
    def check(stdout: str) -> str | None:
        sv = [v.real for v in _printed_values(stdout)]
        if len(sv) != n:
            return f"expected {n} singular values, got {len(sv)}"
        if any(a < b for a, b in zip(sv, sv[1:])) or sv[-1] < 0.0 or sv[0] > 4.0:
            return "singular values are not descending within [0, 4]"
        sum_x2 = (n + 1) * (2 * n + 1) / (6.0 * n)
        want = 6.0 * sum_x2 - (1.0 / n) ** 2 - 1.0
        got = math.fsum(s * s for s in sv)
        rel = abs(got - want) / want
        return None if rel <= 1e-9 else f"sum of sigma^2 off by {rel:.3e} (relative)"

    return check


# ---------------------------------------------------------------------------
# workloads


def _glt1_waiver() -> int:
    import gltlab as gl

    report = gl.glt1_verify(gl.parse(PRODUCT), [256, 512, 1024], mode="lambda",
                            basket=[gl.poly_on_window(1, -20, 20, "x")])
    for row in report.rows:
        print(row.d_n, row.f_id, repr(row.empirical), repr(row.symbol), repr(row.abs_error))
    return 0 if report.passed else 1


def workload(name: str, seed: int) -> list[Op]:
    """The ordered op list of a workload.  Only ``check-sacs`` sees the seed."""
    if name == "readme":
        return [
            Op("parse", OTHER, 0, "the documented canonical form prints",
               ("parse", "--expr", LAPLACIAN),
               check=lambda out: None if out.strip() == "T(-exp(-i*t1)+2-exp(i*t1))"
               else f"canonical form {out.strip()!r}"),
            Op("spectrum-64", DIST, 0, "eigenvalues are 2-2cos(j*pi/65), j=1..64",
               ("spectrum", "--expr", LAPLACIAN, "--n", "64", "--mode", "lambda"),
               check=_check_laplacian_eigs(64)),
            Op("check-dist-product", DIST, 0,
               "D_n(x)T_n(f) has singular value symbol |x f(t)| (GLT product rule)",
               ("check-dist", "--expr", PRODUCT, "--sizes", "128;256;512",
                "--mode", "sigma", "--out", "out/product", "--plot")),
            Op("check-zero-spike", CERT, 0,
               "ceil(sqrt(n)) unit spikes: ||A_n||_1/n = ceil(sqrt(n))/n -> 0",
               ("check-zero", "--model", "spike", "--sizes", "64;128;256",
                "--p", "1", "--out", "out/zero")),
            Op("check-acs-trunc", CERT, 0,
               "degree-m truncations differ from T(f) by T of a tail whose norm vanishes at m=2",
               ("check-acs", "--expr", "T(1+cos(t1)+0.25*cos(2*t1))", "--sizes", "32;64",
                "--m-list", "1,2", "--out", "out/acs")),
            Op("check-sacs-designed", SACS, 0,
               "designed model violates each event with probability 1/(2m) < 1/m",
               ("check-sacs", "--model", "designed", "--sizes", "16;24", "--m-list",
                "2,4,8", "--trials", "10000", "--seed", str(seed), "--out", "out/sacs")),
            Op("check-glt5-shift", CERT, 1,
               "skew part of T(exp(i t)) has trace norm / n -> 2/pi, not 0",
               ("check-glt5", "--expr", "T(exp(i*t1))", "--sizes", "32;64;128",
                "--out", "out/glt5")),
        ]
    if name == "dense":
        sweep = "256;512;1024;2048"
        return [
            Op("dist-laplacian-sigma", DIST, 0, "Szego: singular values of T_n(f) ~ |f|",
               ("check-dist", "--expr", LAPLACIAN, "--sizes", sweep, "--mode", "sigma",
                "--out", "out/sigma")),
            Op("dist-laplacian-lambda", DIST, 0, "eigenvalues 2-2cos(j*pi/(n+1)) ~ f",
               ("check-dist", "--expr", LAPLACIAN, "--sizes", sweep, "--mode", "lambda",
                "--out", "out/lambda")),
            Op("dist-laplacian-2level", DIST, 1,
               "windowed x^3 error is 1.0 at (48,48): the check's own tolerance fails",
               ("check-dist", "--expr", "T(4-2*cos(t1)-2*cos(t2))", "--sizes",
                "12,12;24,24;48,48", "--mode", "lambda", "--out", "out/2level")),
            Op("spectrum-product-2048", DIST, 0,
               "sum sigma^2 = ||D_n(x)T_n(f)||_F^2 = 6 sum x_i^2 - x_1^2 - x_n^2",
               ("spectrum", "--expr", PRODUCT, "--n", "2048", "--mode", "sigma"),
               check=_check_product_frobenius(2048)),
        ]
    if name == "certify":
        sizes = "256;512;1024"
        return [
            Op("acs-trunc", CERT, 0,
               "truncation tails vanish in norm as m grows",
               ("check-acs", "--expr", "T(1+cos(t1)+0.25*cos(2*t1))", "--sizes",
                "128;256;512", "--m-list", "1,2,4", "--out", "out/acs")),
            Op("zero-commutator", CERT, 0,
               "[D_n(x), T_n(f)] has entries (x_i-x_j) t_{i-j} = O(1/n): ||.||_1/n -> 0",
               ("check-zero", "--expr", f"{PRODUCT}-{LAPLACIAN}*D(x1)", "--sizes", sizes,
                "--p", "1", "--out", "out/zero")),
            Op("glt5-product", CERT, 0,
               "skew part of D_n(x)T_n(f) is half the commutator: trace norm / n -> 0",
               ("check-glt5", "--expr", PRODUCT, "--sizes", sizes, "--out", "out/glt5p")),
            Op("glt5-shift", CERT, 1,
               "skew part of T(exp(i t)) has trace norm / n -> 2/pi, not 0",
               ("check-glt5", "--expr", "T(exp(i*t1))", "--sizes", sizes,
                "--out", "out/glt5s")),
            Op("glt1-waiver", DIST, 0,
               "quasi-Hermitian D_n(x)T_n(f): eigenvalues ~ x f(t), first moment in window",
               call=_glt1_waiver),
        ]
    if name == "smoke":
        return [
            Op("parse", OTHER, 0, "parses", ("parse", "--expr", LAPLACIAN)),
            Op("spectrum-16", DIST, 0, "eigenvalues are 2-2cos(j*pi/17)",
               ("spectrum", "--expr", LAPLACIAN, "--n", "16", "--mode", "lambda"),
               check=_check_laplacian_eigs(16)),
            Op("dist-lambda", DIST, 0, "x^3 error is exactly 12/n, below 0.05 from n=241",
               ("check-dist", "--expr", LAPLACIAN, "--sizes", "64;128;256", "--mode", "lambda",
                "--out", "out/dist")),
            Op("zero-commutator", CERT, 0, "commutator is zero-distributed",
               ("check-zero", "--expr", f"{PRODUCT}-{LAPLACIAN}*D(x1)", "--sizes",
                "32;64;128", "--p", "1", "--out", "out/zero")),
            Op("acs-trunc", CERT, 0, "truncation tails vanish",
               ("check-acs", "--expr", "T(1+cos(t1)+0.25*cos(2*t1))", "--sizes", "16;32",
                "--m-list", "1,2", "--out", "out/acs")),
            Op("sacs-designed", SACS, 0, "violation probability 1/(2m) < 1/m",
               ("check-sacs", "--model", "designed", "--sizes", "8;12", "--m-list",
                "2,4", "--trials", "200", "--seed", str(seed), "--out", "out/sacs")),
            Op("glt5-shift", CERT, 1, "trace norm / n -> 2/pi",
               ("check-glt5", "--expr", "T(exp(i*t1))", "--sizes", "16;32", "--out",
                "out/glt5")),
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running


def _digest_dir(root: str, stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    for stream in (stdout, stderr):
        h.update(stream.encode())
        h.update(b"\0")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, root).encode())
            h.update(b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_op(op: Op, scratch: str) -> OpResult:
    """Run one op in a fresh directory under ``scratch`` and time it."""
    from gltlab import cli

    workdir = tempfile.mkdtemp(dir=scratch)
    home = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    code: int | None = None
    error = ""
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = op.call() if op.call is not None else cli.main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # any raise counts as a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    finally:
        os.chdir(home)
    digest = _digest_dir(workdir, out.getvalue(), err.getvalue())
    shutil.rmtree(workdir)
    check_error = None
    if code == op.expect_exit and op.check is not None:
        check_error = op.check(out.getvalue())
    if not error and code not in (0, 1):
        error = err.getvalue().strip()[-300:]
    return OpResult(op, seconds, code, error, digest, check_error)


def run_pass(ops: list[Op], scratch: str, on_op: Callable[[int], None] | None = None
             ) -> list[OpResult]:
    """One closed-loop pass: each op starts after the previous one ends."""
    results = []
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        results.append(run_op(op, scratch))
    return results
